"""Per-layer trace of one `lowpansim run` process, taken from outside.

`Tracer.install` wraps public entry points of each module with counting
(and, at the harness boundary, timing) wrappers, and a cProfile pass gives
self time, which is grouped by the module that defines each function.
Self time of standard-library and built-in helpers (heapq, random,
hashlib, ...) is charged to the layers that call them, in proportion to
the time each caller spent in them.  Nothing under src/ is edited: the
wrappers are attribute patches in this process only.
"""

import cProfile
import functools
import inspect
import os
import pstats
import time
from collections import Counter

# Modules of the lowpansim package and the layer each one belongs to.
MODULE_LAYERS = {
    "sim_core": "sim_core", "link_mac": "link_mac",
    "node_stack": "node_stack", "metrics": "node_stack",
    "buffers": "buffers", "vrb": "vrb", "frag_codec": "frag_codec",
    "topology": "topology", "harness": "harness", "cli": "cli",
}
SELF_TIME_LAYERS = ("sim_core", "medium", "link_mac", "node_stack", "buffers",
                    "vrb", "frag_codec", "harness")


class Tracer:
    """Counters, harness timers and a profile for one process."""

    def __init__(self):
        self.counts = Counter()
        self.times = Counter()
        self.pending_peak = 0
        self.profile = cProfile.Profile()

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, name, make):
        setattr(owner, name, functools.wraps(getattr(owner, name))(
            make(getattr(owner, name))))

    def _count(self, owner, name, metric):
        counts = self.counts

        def make(orig):
            def counted(*args, **kwargs):
                counts[metric] += 1
                return orig(*args, **kwargs)
            return counted
        self._patch(owner, name, make)

    def _time(self, owner, name, metric):
        times, clock = self.times, time.perf_counter

        def make(orig):
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    times[metric] += clock() - t0
            return timed
        self._patch(owner, name, make)

    def install(self):
        from lowpansim import (buffers, cli, harness, link_mac, node_stack,
                               sim_core, vrb)
        counts, tracer = self.counts, self

        def make_at(orig):
            def at(sim, *args, **kwargs):
                orig(sim, *args, **kwargs)
                counts["sim_core.events"] += 1
                pending = len(getattr(sim, "_heap", ()))
                if pending > tracer.pending_peak:
                    tracer.pending_peak = pending
            return at
        self._patch(sim_core.Simulator, "at", make_at)

        def make_fragmenter(orig):
            def fragmenter(*args, **kwargs):
                frags = orig(*args, **kwargs)
                counts["frag_codec.fragments_built"] += len(frags)
                return frags
            return fragmenter
        for name in ("fragment_datagram", "refragment_first"):
            self._patch(node_stack, name, make_fragmenter)

        self._count(sim_core.Medium, "begin_tx", "medium.transmissions")
        self._count(link_mac.Mac, "send", "link_mac.sends")
        self._count(node_stack.Node, "app_send", "node_stack.app_sends")
        self._count(vrb.VrbTable, "create", "vrb.creates")
        self._count(vrb.VrbTable, "lookup", "vrb.lookups")
        self._count(buffers.ReassemblyBuffer, "insert", "buffers.rbuf_inserts")
        self._time(buffers.ReassemblyBuffer, "insert", "buffers.rbuf_insert_s")
        self._time(harness, "run_one", "harness.simulate_s")
        self._time(harness, "aggregate_runs", "harness.aggregate_s")
        self._time(harness, "load_topology", "topology.load_s")
        self._time(cli, "run_experiment", "harness.experiment_s")

    # -- profile ------------------------------------------------------------

    def self_times(self):
        """cProfile self time per layer, in seconds."""
        from lowpansim import sim_core
        package = os.path.dirname(os.path.abspath(sim_core.__file__))
        here = os.path.dirname(os.path.abspath(__file__))
        medium_code = set()
        for cls in (sim_core.Medium, sim_core.RxState):
            for fn in vars(cls).values():
                if inspect.isfunction(fn):
                    fn = inspect.unwrap(fn)
                    medium_code.add((fn.__code__.co_filename,
                                     fn.__code__.co_firstlineno))
        stats = pstats.Stats(self.profile).stats

        def own_layer(func):
            filename, lineno, _ = func
            if filename == "~":          # built-in function
                return None
            where = os.path.dirname(os.path.abspath(filename))
            if where == here:
                return "trace"
            if where != package:
                return None
            if (filename, lineno) in medium_code:
                return "medium"
            module = os.path.splitext(os.path.basename(filename))[0]
            return MODULE_LAYERS.get(module, "other")

        shares = {}

        def layer_shares(func, visiting):
            """{layer: fraction} that func's self time is charged to."""
            if func in shares:
                return shares[func]
            layer = own_layer(func)
            if layer is not None:
                return {layer: 1.0}
            if func not in stats or func in visiting:
                return {"other": 1.0}
            callers = stats[func][4]
            weight = sum(c[2] for c in callers.values())
            if not callers or weight <= 0:
                return {"other": 1.0}
            out = Counter()
            visiting.add(func)
            for caller, c in callers.items():
                for lay, frac in layer_shares(caller, visiting).items():
                    out[lay] += frac * c[2] / weight
            visiting.discard(func)
            shares[func] = out
            return out

        totals = Counter()
        for func, (_, _, tt, _, _) in stats.items():
            for lay, frac in layer_shares(func, set()).items():
                totals[lay] += tt * frac
        return totals

    def summary(self):
        """Per-layer numbers of this process (counts, seconds)."""
        out = dict(self.counts)
        out.update(self.times)
        # What run_experiment spends outside simulation, aggregation and
        # topology loading: rendering and writing the run files.
        out["harness.write_s"] = (
            out.pop("harness.experiment_s", 0.0)
            - out.get("harness.simulate_s", 0.0)
            - out.get("harness.aggregate_s", 0.0)
            - out.get("topology.load_s", 0.0))
        out["sim_core.pending_peak"] = self.pending_peak
        selfs = self.self_times()
        for layer in SELF_TIME_LAYERS:
            out[layer + ".self_s"] = selfs.get(layer, 0.0)
        return out
