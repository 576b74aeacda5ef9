"""Byte-level pin of `lowpansim run` output across commits.

Every run file and aggregate.json of each strategy on the packaged
topology is hashed, under the default lossy settings, under the
lossless-oracle settings (unbounded buffers, lossless links, serialized
sends), and under edge settings that drive the MAC and the tables into
their failure paths.  test_a11 only compares two runs of one commit; this
test also catches drift between commits.  A change that alters behaviour
or the run-file format on purpose replaces the digests below with the
ones the failure message prints and says why.  They last changed with the
format alone: the frame model became fixed, so the [scenario] block's
`mac` cell lost `l2_overhead` and its `stack` cell lost
`comp_header_bytes`, which changes the `fingerprint` line of every run
file and aggregate.json.  Every other line and every event count below
stayed as it was.

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
            "852b0486104ff7a910c1415e5e78bc8cb9eb2f8427ac17a1e47270683781e228",
        "run-00.txt":
            "fa011668d1f92c6cd51f1e16b89862d63bb8e1cb1a1e3ba043b2a7791d96ed94",
        "run-01.txt":
            "fb43e5b3cf31a9484e91676972cd50e74817bdcd6912774223b74ed5a86c3dc1",
    },
    ("edges", "FF"): {
        "aggregate.json":
            "3135f8e29b8cdb8e52d76be6b146a141c15ae7a0ef1617e3c4ad329f6c77928c",
        "run-00.txt":
            "394e312cab3dd2ec9d5350604fb8adb425319be06a760704ab762df9a98cf10a",
        "run-01.txt":
            "e05028b4b6a6e8b4de3179dd6e590c79aef55207756cc7f3862d523fe8a7fdf6",
    },
    ("edges", "FF_QUEUED"): {
        "aggregate.json":
            "56e533ece2b73694d54cfac7fa3c469186dc292323d628ca4e98ea47891d80bd",
        "run-00.txt":
            "34910e7dff68b3bf90f251cdcdf6c2b05760d7a568317fbd6ef4b6fe63c0d50b",
        "run-01.txt":
            "645208b16a87c9e34bfd7c275c984034c0583ff1bf63fb6f86a5ff71f78e941f",
    },
    ("lossless", "HWR"): {
        "aggregate.json":
            "34bd96365403d769f191fd7f2d43b7f7af44944801eb89f10895cad4ffab08c8",
        "run-00.txt":
            "2b781ad1d09db9b24df5bea6fd3f5d6c0b4debb43428033a60b3eae2aa6b3193",
        "run-01.txt":
            "dccdbddd9ad486b4dbfabcbb05f1ace1b4d08fff2020de3d6ac2183ec39892e0",
    },
    ("lossless", "FF"): {
        "aggregate.json":
            "e4e2e50535b6a410d75e6bdd204d43eeb8276d599d9ac1ac321114e9021a0d1f",
        "run-00.txt":
            "a74d39a7f8b1be9c9ca4576c20e3aadb859935ea7a99a5096e86a459331fc09d",
        "run-01.txt":
            "342f17c0d0ee5791dc79c89c33ebe53ab871992983ce4272d32d1f640bf32fb2",
    },
    ("lossless", "FF_QUEUED"): {
        "aggregate.json":
            "5ce9a2f8e50f36af5e3c9dafb86106ee5aa7c38d4028c979fa6f89210001406a",
        "run-00.txt":
            "3904af82c655d9515c18edb4c64a517722cf913ee77e66e9a55a3a9d458cb789",
        "run-01.txt":
            "fc9af4a1b2f8add2cc37d795564a7d7ce7685d774c97a23c6e8f502d2307f3df",
    },
    ("lossy", "HWR"): {
        "aggregate.json":
            "9b284da799c95850dd9d9769bb903b14a1206bf0c93a4d820dbad549352b0980",
        "run-00.txt":
            "89ddd432c5e903ac81e8d624f7dd23f2306415533ae431a4a549356798dd9b52",
        "run-01.txt":
            "9fe48505189d6196585b331a4f4fad2c193492e3b72f7f4cdcebaa0f6f0e3a57",
    },
    ("lossy", "FF"): {
        "aggregate.json":
            "5deda98ddab94a500b9647290bc603f6cb1cd5d81ca9fd6c384945021926639a",
        "run-00.txt":
            "2c3a421439165c29c0e5ed82f2e77504fc50e6f98e6f2514c07c796ef9f15ef1",
        "run-01.txt":
            "43af70d04e4fc464a6dad08980e73f6e34e7aa5821c00e7dfd58812e7ae1b7bf",
    },
    ("lossy", "FF_QUEUED"): {
        "aggregate.json":
            "0595eb89bec74aca40f0ea82902a67fb631972759fb093d307bb5a1f81576765",
        "run-00.txt":
            "660ccf7d21d0be18722e4c14ee0218a3d053552d61aae4967d0e4b6a9ab19aa0",
        "run-01.txt":
            "5bbc4075c07528f7d7c5f2ff10e24fd713230b167e65e595e4f98a48733984a8",
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
