"""Byte-level pin of `lowpansim run` output across commits.

Every run file and aggregate.json of each strategy on the packaged
topology is hashed, under the default lossy settings, under the
lossless-oracle settings (unbounded buffers, lossless links, serialized
sends), and under edge settings that drive the MAC and the tables into
their failure paths.  test_a11 only compares two runs of one commit; this
test also catches drift between commits.  A change that alters behaviour
or the run-file format on purpose replaces the digests below with the
ones the failure message prints and says why.  They last changed with the
format alone: the [scenario] block lost `check_paths` and
`mac.queue_retry_us` and writes an unbounded table size as `none`, and
[node_counters] lost the `duplicate_fragments` column, which was 0 in
every row.  Every other row and every event count below stayed as it was.

Each (setting, strategy) also pins the number of events its simulations
schedule, `Simulator._seq` after `run()` summed over every simulation.  A
change meant to be byte-identical can still add or drop an event that no
run file shows; this count catches it.  The simulations run in this
process (`--jobs 1`), since a forked worker's counters never come back.
"""

import hashlib
import json
from importlib import resources
from unittest import mock

import pytest

from lowpansim.cli import main
from lowpansim.harness import _render_run, aggregate_runs, read_run_file
from lowpansim.sim_core import Simulator

TOPOLOGY = resources.files("lowpansim.data") / "topology50.txt"
COMMON = {"version": 1, "topology": "topology50.txt", "payloads": [80, 656],
          "seeds": [1, 2], "packets_per_source": 3}
SETTINGS = {
    "lossy": {"interval_us": [5_000_000, 10_000_000]},
    "lossless": {
        "interval_us": [2_000_000, 3_000_000],
        "force_link_pdr": 1.0, "serialize_sends": True,
        "rbuf_entries": None, "sink_rbuf_entries": None, "vrb_entries": None,
        "mac": {"max_retransmissions": 10_000, "queue_capacity": None,
                "min_be": 6, "max_be": 8},
        "stack": {"frag_buffer_slots": None, "arena_bytes": None},
    },
    # The MAC's and the tables' edge paths: zero-width first backoffs, one
    # CCA retry, ack timeouts of 0, a processing delay that ties with
    # backoff slots, and tables, queue and arena small enough to overflow.
    "edges": {
        "interval_us": [200_000, 1_000_000],
        "rbuf_entries": 2, "vrb_entries": 2,
        "mac": {"min_be": 0, "max_be": 3, "max_csma_backoffs": 1,
                "max_retransmissions": 2, "queue_capacity": 4,
                "ack_timeout_us": 0},
        "stack": {"proc_delay_us": 640, "arena_bytes": 1500,
                  "reassembly_timeout_us": 200_000,
                  "vrb_lifetime_us": 200_000},
    },
}

GOLDEN = {
    ("edges", "HWR"): {
        "aggregate.json":
            "b1538515c08d1fc9e37faee79f6f5b386ba738e62ad83de30a276575e8b03b6a",
        "run-00.txt":
            "e593fc153b09e6248c90633de228e96e846b015727adeab360e57c1ba569c111",
        "run-01.txt":
            "9ef8f620bfb8c93763f8c3cdf88896df3391aac1f0e94a572f19771df3167687",
    },
    ("edges", "FF"): {
        "aggregate.json":
            "7de6e8d2b579f33899a37046ee659431a1e6fdb55c9622828b5f3210e8be81d1",
        "run-00.txt":
            "24e9f9792c7b6b4141c890adf03a80751c1ab983a889c4f077c917d8eef56601",
        "run-01.txt":
            "dd9f26149b8e2f0e6fff06e25d861f1bad5aedcc0facba9aed32c7013ceed856",
    },
    ("edges", "FF_QUEUED"): {
        "aggregate.json":
            "2565733bd5427ec8bc3f39ce7c7c2cb9f2ea188511d2429120bb8e6c89451880",
        "run-00.txt":
            "78bcbed0f842fa515e0a26bf385dec660d151b72a3f871c1496607d8fe43cda5",
        "run-01.txt":
            "0c0d4ba8987a00818de604beac62ba342d5a9c328fe42aaeee003d1e1016c87e",
    },
    ("lossless", "HWR"): {
        "aggregate.json":
            "bb5adb6c10bfba2ba3c00bf2aa158a23372b432d9005e52c725cb214913fa09f",
        "run-00.txt":
            "0a3f9e0e5687b3f5ca9e2df81f6d3d58e5ce0ede4ca36ecca438a72e8256a405",
        "run-01.txt":
            "1b642347cbe628bfe877220d3af412af4daa95c75277c3bd7c9046a41ae39368",
    },
    ("lossless", "FF"): {
        "aggregate.json":
            "c8df447abecdf786b3cd57530ba65c36be80578ed319c0c493d1f09a23835dd0",
        "run-00.txt":
            "01bd824a19e4cdaf28ab4d15bcfa2b6288297efbbe563ddbb25c527cf5dd4b28",
        "run-01.txt":
            "8f3f366a81afb3b55a4ba1a2996c3143a13c5125ebbec0d67239bc61120376c4",
    },
    ("lossless", "FF_QUEUED"): {
        "aggregate.json":
            "c7259395b5aa9fbad85d761ba623cd2f54de64ebdbcd0102aaaeecbbfdb5446f",
        "run-00.txt":
            "255af07a245221cee882f3bfc7b13b5baac4dafdaf361adb272abc706e3bb723",
        "run-01.txt":
            "3c9d183fa337fba5f516743cd3da2d5f59d4c61cace3938fc796b62375d799ed",
    },
    ("lossy", "HWR"): {
        "aggregate.json":
            "2fa282b0710c70ae33ea1084ac80c14a3b3efaddc74525dfad033e9b24067957",
        "run-00.txt":
            "26656aab5ed60fc982c0c45e8d34919ac59954a7592ed97b6c83863e21e80763",
        "run-01.txt":
            "1f1cbc62132d8b66a255ab14d303dac8f7fc7699e16281d9634c3852111f83b2",
    },
    ("lossy", "FF"): {
        "aggregate.json":
            "b82aa0afaacb5e0084e90ac66be9a0c0b179bba9c796767ab47ff7fe09d3ba85",
        "run-00.txt":
            "48f53b7b78295122e65f6e27c69b9c9e7509dfb37ef96c84072e7e406367ec97",
        "run-01.txt":
            "d1f0e74767f62382315b234ae2a3cc880b6a7166292a37747112879fcfc5bf3e",
    },
    ("lossy", "FF_QUEUED"): {
        "aggregate.json":
            "e21c5dd94bb46ac97f9cf983ea5395958cee270141e2c4206f88e5c52227bf4f",
        "run-00.txt":
            "d42f3dc79affbd5fa2c88104de828d79a0850b734583fb5e4f73f7521a373024",
        "run-01.txt":
            "d82cc1d13a3edaf734fd3de74c01c17e2caf1196fc5dc5d6af09c951e8adf37d",
    },
}


# Events scheduled by all four simulations (two seeds by two payloads).
EVENTS = {
    ("edges", "HWR"): 24_488,
    ("edges", "FF"): 26_509,
    ("edges", "FF_QUEUED"): 23_332,
    ("lossless", "HWR"): 60_857,
    ("lossless", "FF"): 67_046,
    ("lossless", "FF_QUEUED"): 60_857,
    ("lossy", "HWR"): 40_814,
    ("lossy", "FF"): 74_973,
    ("lossy", "FF_QUEUED"): 60_124,
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("strategy", ("HWR", "FF", "FF_QUEUED"))
def test_run_files_match_golden_digests(tmp_path, capsys, setting, strategy):
    (tmp_path / "topology50.txt").write_bytes(TOPOLOGY.read_bytes())
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(dict(COMMON, strategy=strategy,
                                        **SETTINGS[setting])))
    out = tmp_path / "out"
    events = []
    run = Simulator.run

    def counted_run(sim):
        run(sim)
        events.append(sim._seq)

    with mock.patch.object(Simulator, "run", counted_run):
        code = main(["run", "--scenario", str(scenario), "--out", str(out),
                     "--jobs", "1"])
    capsys.readouterr()

    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    expected = GOLDEN.get((setting, strategy), {})
    if got != expected:
        pytest.fail("\n".join(
            ["run output of %s/%s changed:" % (setting, strategy)]
            + ["  %s: expected %s, got %s"
               % (name, expected.get(name), got.get(name))
               for name in sorted(set(got) | set(expected))]))
    assert code == 0
    assert len(events) == 4
    assert sum(events) == EVENTS.get((setting, strategy)), (
        "events of %s/%s: expected %s, got %d"
        % (setting, strategy, EVENTS.get((setting, strategy)), sum(events)))

    # Parsing the run files gives back the records they were rendered
    # from: each renders to the same text, and their fold to the same
    # aggregate.json as the fold of the records in memory.
    paths = sorted(out.glob("run-*.txt"))
    runs = [read_run_file(p) for p in paths]
    for run, path in zip(runs, paths):
        assert _render_run(run) == path.read_text(), path.name
    folded = json.dumps(aggregate_runs(runs), sort_keys=True, indent=1) + "\n"
    assert folded == (out / "aggregate.json").read_text()
