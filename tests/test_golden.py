"""Byte-level pin of `lowpansim run` output across commits.

Every run file and aggregate.json of each strategy on the packaged
topology is hashed, under the default lossy settings, under the
lossless-oracle settings (unbounded buffers, lossless links, serialized
sends), and under edge settings that drive the MAC and the tables into
their failure paths.  test_a11 only compares two runs of one commit; this
test also catches drift between commits.  A change that alters behaviour
on purpose replaces the digests below with the ones the failure message
prints and says why.

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
            "a5b013c89bd6856a8c3c4c5dc4bc15629c95cf0114b402193a828014ea56c4de",
        "run-00.txt":
            "a0e2ae33a484ba9d2bc88f30fee8d13d5fc2046f20b5e35dee1f6da5f3c27434",
        "run-01.txt":
            "389ced815e9da79cab78f9322563cbd7c0bed60aa49e8f189914cc4aa4cf4500",
    },
    ("edges", "FF"): {
        "aggregate.json":
            "6026974e6315cd103e6f4b910018e542f73716b06891702556105450c5dc97f9",
        "run-00.txt":
            "16441c5ed480a7587b436162e5f5715310088e0c00c181167d993169a9aadab1",
        "run-01.txt":
            "1275deba8f4d6e8e8e09ed7343f060e6afba4a37387c188f8903a94e3ef9c199",
    },
    ("edges", "FF_QUEUED"): {
        "aggregate.json":
            "3b7fe228bdcc557a5df7dfc67f70098ebc5218eb55ee7f007bb5349fa97b8ffc",
        "run-00.txt":
            "3e936c84d0cd877b1b92728c9d935254e79941b4de5ce9b1b825cb3ac04a24aa",
        "run-01.txt":
            "bd1ca3a9a285bea5138ed82ef0ee022c27cbd441e0e1131de03a39ad76b0f732",
    },
    ("lossless", "HWR"): {
        "aggregate.json":
            "4641b677a0b156ad17762617a93229f147b6a39e0ba1ce779696a23f7eac6e89",
        "run-00.txt":
            "ea9a8f3afa06fd2dfd0d3e91c9734d75b9d93233816519f9fd00eb0f67e3cdc8",
        "run-01.txt":
            "54b36e58ebad9f0ed1c060c5ad7d0e334084dcfd8bd0af569b5baaa95bc07402",
    },
    ("lossless", "FF"): {
        "aggregate.json":
            "5c739675651dd3205fd84701e138eae3d5d6b55be30e11d47e589050f1534698",
        "run-00.txt":
            "4430bd1def0cf59b2ffdc20f99673fee3cc5154d95aabdc3f6f95fc993bdd10a",
        "run-01.txt":
            "03ddcc8818d545eeca6b1bda6fc99ffd3a637ca696609710e70ba1b1934d80bd",
    },
    ("lossless", "FF_QUEUED"): {
        "aggregate.json":
            "169cb9a04f86107f27682c3235f4a286e359434b291883865aed783e3f0fb0a1",
        "run-00.txt":
            "1cdb61ed40124c6339e31ceafcca93da47f3d9f708d11304f3ce802755432b3c",
        "run-01.txt":
            "a84e2a9c6ab2cfec5ae860e88b0dd0f0ca7969c5509001cf458498db8500bb3d",
    },
    ("lossy", "HWR"): {
        "aggregate.json":
            "1ea2fd225b26c655975bbc09f7ad66df9f5d9d8eac6e30011bf07d08ad55220b",
        "run-00.txt":
            "8bf1dd6e8a48e4c6677aa6f80dfbd0b488ec9162aa4b6f1b79ee550c5ab542fb",
        "run-01.txt":
            "8aa32e59fac56659de95dc89972eab9d84744049f3bfa7829ddc84254e737072",
    },
    ("lossy", "FF"): {
        "aggregate.json":
            "7624c64a194d5cc974c6bf3a23fcf0b5f420fa5ffbde6636107d02faeaf60a72",
        "run-00.txt":
            "c7396e31051fc9a13df44831d3c43a48fd4b022e684630a0163b30d93e73f249",
        "run-01.txt":
            "47a8004ca0ec593e96bdfdb9c4859e706f0aaec74496d215f5dc865a42939e74",
    },
    ("lossy", "FF_QUEUED"): {
        "aggregate.json":
            "20e49e623cd2f36d720c0a2506cb3f0d8373839124da572b071f33d2f98ac04c",
        "run-00.txt":
            "9b2e57cd2c5bdfaea909177e8f4c7de27d60b194887b05d97cb9ece59b796258",
        "run-01.txt":
            "ec0b2551707ee8325a2ff628ba6764d1b589b4e777702b9263fd30bcf31d7557",
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
