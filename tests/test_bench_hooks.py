"""The benchmark's per-layer tracer still finds every name it patches."""

import json
import multiprocessing
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from lowpansim import cli, harness

from test_harness import line_topology, write_scenario

ROOT = Path(__file__).resolve().parents[1]

# One FF datagram over a lossless 3-node line, scheduled with arguments,
# with the tracer's wrappers in place.
_TRACED_LINE = """
from layers import Tracer
tracer = Tracer()
tracer.install()
from lowpansim.link_mac import MacParams
from lowpansim.node_stack import Node, NodeConfig, StackParams
from lowpansim.sim_core import Medium, Simulator
sim = Simulator(seed=1)
medium = Medium(sim)
nodes = [Node(NodeConfig(id=i, route_next_hop=i + 1 if i < 2 else None,
                         strategy="FF", rbuf_entries=16, vrb_entries=16),
              sim, medium, MacParams(), StackParams(),
              on_datagram=lambda did, data: None,
              on_drop=lambda did, cause: None)
         for i in range(3)]
for a, b in zip(nodes, nodes[1:]):
    medium.add_link(a.mac, b.mac, 1.0)
sim.at(0, nodes[0].app_send, 176, 1)
tracer.profile.enable()
sim.run()
tracer.profile.disable()
print(nodes[2].counters.datagrams_delivered,
      tracer.counts["sim_core.events"], tracer.counts["medium.transmissions"],
      tracer.summary()["medium.self_s"] > 0)

# A whole `lowpansim run`, which must simulate and fold through the
# harness names that the tracer times.
import contextlib
import io
import sys
from lowpansim import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(code, tracer.times["harness.simulate_s"] > 0,
      tracer.times["harness.aggregate_s"] > 0)
"""


def test_benchmark_tracer_installs(tmp_path):
    # perfbench/layers.py wraps entry points such as harness.run_one,
    # ReassemblyBuffer.insert and VrbTable.lookup by name; a rename would
    # otherwise surface only as failed benchmark operations.  Its wrapper
    # of Simulator.at must also pass the scheduled call's arguments on,
    # and `run` must call harness.run_one and harness.aggregate_runs
    # through the module, or their timers stay at zero.  Self time is
    # charged to the medium by looking up sim_core.Medium and
    # sim_core.RxState, so the profiled simulation must report some.
    scenario = write_scenario(tmp_path, line_topology(4))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_LINE, str(scenario),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    line, run = proc.stdout.splitlines()
    *counts, medium_self = line.split()
    delivered, events, transmissions = map(int, counts)
    assert delivered == 1
    assert events > 0 and transmissions > 0
    assert medium_self == "True"
    assert run.split() == ["0", "True", "True"]


class _SetupDone(Exception):
    pass


def test_setup_probe_stops_before_any_simulation(tmp_path, monkeypatch):
    # perfbench/child.py replaces harness.run_one to time set-up and, in a
    # set-up probe, raises at its first call.  That only measures set-up if
    # run_one is called through the module once, before any simulation,
    # worker process or run file.
    calls = []

    def first_call(*args, **kwargs):
        calls.append(args)
        raise _SetupDone
    monkeypatch.setattr(harness, "run_one", first_call)
    topology = resources.files("lowpansim.data") / "topology50.txt"
    (tmp_path / "topology50.txt").write_bytes(topology.read_bytes())
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "version": 1, "topology": "topology50.txt", "strategy": "HWR",
        "payloads": [80, 176], "seeds": [1, 2, 3],
        "interval_us": [5_000_000, 10_000_000]}))
    out = tmp_path / "out"
    with pytest.raises(_SetupDone):
        cli.main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert len(calls) == 1
    assert list(out.glob("run-*.txt")) == []
    assert multiprocessing.active_children() == []
