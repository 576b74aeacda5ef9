"""The benchmark's per-layer tracer still finds every name it patches."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One FF datagram over a lossless 3-node line, scheduled with arguments,
# with the tracer's wrappers in place.
_TRACED_LINE = """
from layers import Tracer
tracer = Tracer()
tracer.install()
from lowpansim.link_mac import MacParams
from lowpansim.node_stack import Node, NodeConfig
from lowpansim.sim_core import Medium, Simulator
sim = Simulator(seed=1)
medium = Medium(sim)
nodes = [Node(NodeConfig(id=i, route_next_hop=i + 1 if i < 2 else None,
                         strategy="FF"), sim, medium, MacParams())
         for i in range(3)]
for a, b in zip(nodes, nodes[1:]):
    medium.add_link(a.mac, b.mac, 1.0)
sim.at(0, nodes[0].app_send, 176, 1)
sim.run()
print(nodes[2].counters.datagrams_delivered,
      tracer.counts["sim_core.events"], tracer.counts["medium.transmissions"])
"""


def test_benchmark_tracer_installs():
    # perfbench/layers.py wraps entry points such as harness.run_one,
    # ReassemblyBuffer.insert and VrbTable.lookup by name; a rename would
    # otherwise surface only as failed benchmark operations.  Its wrapper
    # of Simulator.at must also pass the scheduled call's arguments on.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_LINE],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    delivered, events, transmissions = map(int, proc.stdout.split())
    assert delivered == 1
    assert events > 0 and transmissions > 0
