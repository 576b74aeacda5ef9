"""Byte-level pin of `lowpansim run` output across commits.

Every run file and aggregate.json of each strategy on the packaged
topology is hashed, under the default lossy settings, under the
lossless-oracle settings (unbounded buffers, lossless links, serialized
sends), and under edge settings that drive the MAC and the tables into
their failure paths.  test_a11 only compares two runs of one commit; this
test also catches drift between commits.  A change that alters behaviour
or the run-file format on purpose replaces the digests below with the
ones the failure message prints and says why.  They last changed with the
format alone: a run file became its scenario's fingerprint and its own
seed, so the [scenario] block lost its `seeds` and `run_index` lines, the
fingerprint became the SHA-256 of the block's identifying lines, and
aggregate.json lost `runs`.  Every other line and every event count below
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
            "3eb8a2e03e75d79eec79b65485fe5692104e07e246db4f3f485495acb5a41fc5",
        "run-00.txt":
            "5a5ec2f1ee0eae9cf3a0de27b3af198e4e497e8a4c4edcd7b4bee8edbbc98dd9",
        "run-01.txt":
            "aac161785bd8866817cd8673015a78a478b99a25f0d9ab392831d9e884abd361",
    },
    ("edges", "FF"): {
        "aggregate.json":
            "a6e0a9cdcd9deaddcd33a8043c43b5cf3dd7093395b29545ecfa5f3eacc86cc6",
        "run-00.txt":
            "ecd190e6e4d7d5bdba9609e16cd3839fac50a35913d64cb2c907d27279e93289",
        "run-01.txt":
            "eb289024c1fb0553cfd5aaeeeb66504e5b8ebe34dc533fc7752383712725e614",
    },
    ("edges", "FF_QUEUED"): {
        "aggregate.json":
            "3315d15923db382d104e8f25b8d54b6e1699f3b2725b7bc0d73428dec6df88af",
        "run-00.txt":
            "1dba7ed7da0d41a59206f9bbf3083003b584ced605a88f848536d0c3fc70819f",
        "run-01.txt":
            "aa4880e519af6f7748693a0dddc17a49ed4b7d5123b09702bd14ffc9f245dc48",
    },
    ("lossless", "HWR"): {
        "aggregate.json":
            "d4e3c49b001c8bbc77c6104a89de98e8c65c5d45d946b365c5d824afba4d3a69",
        "run-00.txt":
            "b375c9ce32fd7c40cb6691a219dccbb6027f0f7ab87fc9dff201dea70cd0cb54",
        "run-01.txt":
            "b977db68ce92d13e8e653e644c057601b86f241ebbb9072f97c45fe515c2075f",
    },
    ("lossless", "FF"): {
        "aggregate.json":
            "6f97faac7ac6d909fe04eca32ed1987241eade9e8a9abaff7efdaac75ef5bddb",
        "run-00.txt":
            "c4b7bba5d4736256cdb90257c331f5199cbf659fda3023f50104e46a57908847",
        "run-01.txt":
            "644f185979a6a5ba6731dd5688a69c313c7710f26d61a10896342b32317ad498",
    },
    ("lossless", "FF_QUEUED"): {
        "aggregate.json":
            "111be533a2df59cfb99421802274a02544d57b8b492f324f9a70e2ce474a718f",
        "run-00.txt":
            "3b7a6322d3c4d882e7dd1bf205fbce2ef18285e1c3b035674bc2821b9e76db04",
        "run-01.txt":
            "4869deb1da150cd43adc2d9b9967a723d9c389f30aec6d06b7a699482c7369d3",
    },
    ("lossy", "HWR"): {
        "aggregate.json":
            "25d3a00d3721ffbdb24a503fdf06b4e01eebc5a3be7aecbf18e205a8df0c4818",
        "run-00.txt":
            "4fccc4d84d1c7943e489c01ea96023c5e24feaa199db8381e6adb43100e1e705",
        "run-01.txt":
            "9f6bb7fc282481c47feb680d48a30a9395ecaec0ba664bd3bb41ffd49c9bfdd3",
    },
    ("lossy", "FF"): {
        "aggregate.json":
            "6ecb9e9af283752a2b19522384b916edaf2810be9e1c1caf5c4d7e1d81ea3ae7",
        "run-00.txt":
            "d5ceeb7fe607520b02cc6a62dc89cc68d6024f2be9851baf45e3e7bc86653629",
        "run-01.txt":
            "384169bb3dc643e0a56e6f1b9cf2d0d23d114b6a59e964f6cfa28ca08d17e300",
    },
    ("lossy", "FF_QUEUED"): {
        "aggregate.json":
            "74d109a016c96641af382ce4e7f413f73cf592041bc8afad10392f7e813fe748",
        "run-00.txt":
            "9539e39f69a68bf12f50493ff27092ac5d96d953bb935bae178580823ef2af56",
        "run-01.txt":
            "68072d7e7165a865990f37c3ccedbe4a32aece613640b823f16c5ffc3ba9a9ab",
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
