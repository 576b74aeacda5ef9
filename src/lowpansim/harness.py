"""Scenario files, experiment execution, metrics output, aggregation.

A scenario is a JSON document naming a topology file, a forwarding
strategy, payload sizes, the send interval, and explicit seeds. Each
(seed, payload) pair is simulated independently, in worker processes
when there are several; one delimited text file per seed collects every
payload section, and an aggregate JSON folds the run files into summary
series. Reruns are byte identical, whatever the worker count.
"""

import hashlib
import json
import math
import os
import statistics
import sys
import threading
from collections import Counter
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from itertools import repeat
from pathlib import Path

from .frag_codec import CompressionHeader, fragment_count
from .link_mac import MacParams
from .metrics import COUNTER_FIELDS
from .node_stack import (HEADER_BYTES, STRATEGIES, Node, NodeConfig,
                         StackParams, build_datagram)
from .sim_core import Medium, Simulator
from .topology import load_topology

# UDP payload bytes -> fragment count for the default frame model.
FRAG_COUNT_TABLE = (
    (16, 1), (80, 2), (176, 3), (272, 4), (368, 5), (464, 6), (560, 7),
    (656, 8), (752, 9), (848, 10), (944, 11), (1040, 12), (1136, 13),
    (1232, 14),
)
STUDY_PAYLOADS = tuple(p for p, _ in FRAG_COUNT_TABLE)

UNBOUNDED_ENTRIES = 1 << 30      # stands in for "no limit" table sizes


class ScenarioError(ValueError):
    pass


# Validators.  Each takes a scenario-file key and its JSON value and returns
# the field value, or raises ScenarioError.

_NO_NULL = object()


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _int(lo, null=_NO_NULL):
    """An integer >= lo; JSON null maps to `null` when one is given."""
    what = "an integer >= %d%s" % (lo, "" if null is _NO_NULL else " or null")

    def check(name, value):
        if value is None and null is not _NO_NULL:
            return null
        if not _is_int(value) or value < lo:
            raise ScenarioError("%s must be %s" % (name, what))
        return value
    return check


def _int_list(name, value, allowed=None):
    if (not isinstance(value, (list, tuple)) or not value
            or not all(_is_int(v) for v in value)
            or (allowed is not None and not set(value) <= set(allowed))):
        raise ScenarioError("%s must be a non-empty list of integers%s"
                            % (name, "" if allowed is None
                               else " from %s" % list(allowed)))
    return tuple(value)


def _payloads(name, value):
    payloads = _int_list(name, value, allowed=STUDY_PAYLOADS)
    if len(set(payloads)) != len(payloads):
        raise ScenarioError("%s must not list a size twice" % name)
    return payloads


def _text(name, value):
    if not isinstance(value, str):
        raise ScenarioError("%s must be a string" % name)
    return value


def _strategy(name, value):
    if not isinstance(value, str) or value not in STRATEGIES:
        raise ScenarioError("unknown %s %r" % (name, value))
    return value


def _interval(name, value):
    lo_hi = _int_list(name, value)
    if len(lo_hi) != 2 or not 0 < lo_hi[0] <= lo_hi[1]:
        raise ScenarioError("%s must be [lo, hi] with 0 < lo <= hi" % name)
    return lo_hi


def _pdr(name, value):
    if value is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 < value <= 1.0):
        raise ScenarioError("%s must be a number in (0, 1] or null" % name)
    return float(value)


def _flag(name, value):
    if not isinstance(value, bool):
        raise ScenarioError("%s must be true or false" % name)
    return value


def _params(cls, **checks):
    """An object overriding fields of `cls`, one validator per field."""
    assert set(checks) == {f.name for f in fields(cls)}

    def check(name, value):
        if not isinstance(value, dict):
            raise ScenarioError("%s must be an object" % name)
        bad = set(value) - set(checks)
        if bad:
            raise ScenarioError("unknown %s parameter(s): %s"
                                % (name, ", ".join(sorted(bad))))
        return replace(cls(), **{k: checks[k]("%s.%s" % (name, k), v)
                                 for k, v in value.items()})
    return check


_ENTRIES = _int(1, null=UNBOUNDED_ENTRIES)


def _key(check, default=MISSING):
    """A Scenario field read from the scenario-file key of its name."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True, slots=True, kw_only=True)
class Scenario:
    topology: str = _key(_text)
    strategy: str = _key(_strategy)
    payloads: tuple = _key(_payloads)
    interval_us: tuple = _key(_interval)
    packets_per_source: int = _key(_int(1), 100)
    seeds: tuple = _key(_int_list)
    rbuf_entries: int = _key(_ENTRIES, 1)    # per node; the sink has its own
    sink_rbuf_entries: int = _key(_ENTRIES, 16)
    vrb_entries: int = _key(_ENTRIES, 16)
    force_link_pdr: object = _key(_pdr, None)
    check_paths: bool = _key(_flag, True)
    # One send at a time network-wide instead of concurrent per-source
    # schedules.  With intervals longer than a train's transit time this
    # removes channel contention entirely, which is what the lossless
    # conservation oracle needs: hidden senders on a loss-free channel can
    # otherwise phase-lock and collide indefinitely.
    serialize_sends: bool = _key(_flag, False)
    mac: MacParams = _key(_params(
        MacParams, max_retransmissions=_int(0), min_be=_int(0),
        max_be=_int(0), max_csma_backoffs=_int(0), ack_timeout_us=_int(0),
        queue_retry_us=_int(0), queue_capacity=_int(0, null=None),
        l2_overhead=_int(0), rx_handover_us=_int(0)), MacParams())
    stack: StackParams = _key(_params(
        StackParams, comp_header_bytes=_int(0),
        reassembly_timeout_us=_int(0), vrb_lifetime_us=_int(0),
        proc_delay_us=_int(0),
        frag_buffer_slots=_int(0, null=UNBOUNDED_ENTRIES),
        arena_bytes=_int(0, null=None)), StackParams())
    base_dir: Path = Path(".")

    def topology_path(self):
        return self.base_dir / self.topology


# The scenario-file keys besides "version", in run-file order.
_KEY_FIELDS = tuple(f for f in fields(Scenario) if "check" in f.metadata)


def _frag_count(scenario, payload):
    return fragment_count(payload + HEADER_BYTES,
                          CompressionHeader(scenario.stack.comp_header_bytes),
                          scenario.mac.sdu,
                          STRATEGIES[scenario.strategy].policy)


def scenario_from_dict(cfg, base_dir=Path(".")):
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(cfg) - {"version"} - {f.name for f in _KEY_FIELDS}
    if unknown:
        raise ScenarioError("unknown scenario key(s): %s"
                            % ", ".join(sorted(unknown)))
    if not _is_int(cfg.get("version")) or cfg["version"] != 1:
        raise ScenarioError("unsupported scenario version %r"
                            % cfg.get("version"))
    values = {}
    for f in _KEY_FIELDS:
        if f.name in cfg:
            values[f.name] = f.metadata["check"](f.name, cfg[f.name])
        elif f.default is MISSING:
            raise ScenarioError("scenario is missing %r" % f.name)
    scenario = Scenario(base_dir=Path(base_dir), **values)

    if scenario.mac.min_be > scenario.mac.max_be:
        raise ScenarioError("mac.min_be must not exceed mac.max_be")
    try:
        for payload in scenario.payloads:
            _frag_count(scenario, payload)
    except ValueError as err:            # the codec's own limits
        raise ScenarioError("stack.comp_header_bytes and mac.l2_overhead "
                            "do not fit a fragment: %s" % err)
    if not scenario.topology_path().is_file():
        raise ScenarioError("topology file not found: %s"
                            % scenario.topology_path())
    return scenario


def load_scenario(path):
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise ScenarioError("cannot read scenario %s: %s" % (path, err))
    return scenario_from_dict(cfg, base_dir=path.parent)


def _plain(value):
    """A field value as JSON data; parameter records become JSON text."""
    if is_dataclass(value):
        return json.dumps(asdict(value), sort_keys=True)
    return value


def _render_value(value):
    """A _plain field value as it appears in the [scenario] block."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def scenario_fingerprint(scenario, topology_bytes):
    # The topology enters by content, not by file name.
    ident = {f.name: _plain(getattr(scenario, f.name)) for f in _KEY_FIELDS
             if f.name != "topology"}
    ident["topology_sha256"] = hashlib.sha256(topology_bytes).hexdigest()
    blob = json.dumps(ident, sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def frag_table_check():
    """Recompute the payload -> fragment count mapping; report mismatches."""
    comp = CompressionHeader(StackParams().comp_header_bytes)
    sdu = MacParams().sdu
    rows, mismatches = [], []
    for payload, expected in FRAG_COUNT_TABLE:
        size = payload + HEADER_BYTES
        minimal = fragment_count(size, comp, sdu, "minimal_first")
        fill = fragment_count(size, comp, sdu, "fill_first")
        rows.append((payload, minimal))
        if minimal != expected or fill != expected:
            mismatches.append(
                "payload %d: expected %d fragments, got %d (minimal) / %d "
                "(fill)" % (payload, expected, minimal, fill))
    return rows, mismatches


class _Rec:
    """Per-datagram bookkeeping for one payload simulation."""

    __slots__ = ("source", "sent_at", "delivered_at", "cause", "cause_at")

    def __init__(self, source):
        self.source = source
        self.sent_at = None
        self.delivered_at = None
        self.cause = None
        self.cause_at = None


class _PayloadRun:
    __slots__ = ("payload", "frag_count", "sent", "delivered", "latency",
                 "counters", "high_water", "causes", "violations")

    def __init__(self, payload, frag_count):
        self.payload = payload
        self.frag_count = frag_count
        self.sent = 0
        self.delivered = 0
        self.latency = []        # (hop_distance, latency_us, dgram_id)
        self.counters = {}       # node -> counter dict
        self.high_water = {}     # node -> arena high water
        self.causes = Counter()
        self.violations = []


def _path_edges(topo, source):
    edges = set()
    node = source
    while node != topo.sink:
        parent = topo.routes[node]
        edges.add((node, parent))
        node = parent
    return edges


def _tap_deliveries(mac, dst, edges):
    orig = mac.on_deliver

    def tap(frame, now):
        edges.setdefault(frame.dgram_id, set()).add((frame.src, dst))
        orig(frame, now)

    mac.on_deliver = tap


def _simulate(scenario, topo, seed, payload):
    """One independent simulation: every sender emits `packets` datagrams
    of one payload size; runs until the event queue drains."""
    sim = Simulator(seed=seed * 1000003 + payload)
    medium = Medium(sim)
    result = _PayloadRun(payload, _frag_count(scenario, payload))
    recs = {}
    violations = result.violations

    def on_datagram(dgram_id, data, now):
        rec = recs.get(dgram_id)
        if rec is None:
            violations.append("delivery of unknown datagram %d" % dgram_id)
            return
        if rec.delivered_at is not None:
            violations.append("datagram %d delivered twice" % dgram_id)
            return
        if rec.cause is not None:
            violations.append("datagram %d delivered after loss cause %s"
                              % (dgram_id, rec.cause))
        if data != build_datagram(rec.source, dgram_id, payload):
            violations.append("datagram %d corrupted in transit" % dgram_id)
        rec.delivered_at = now

    def on_drop(dgram_id, cause, now):
        rec = recs.get(dgram_id)
        if rec is None:
            violations.append("drop (%s) of unknown datagram %d"
                              % (cause, dgram_id))
            return
        if rec.delivered_at is None and rec.cause is None:
            rec.cause = cause
            rec.cause_at = now

    nodes = {}
    for nid in topo.members:
        sink = nid == topo.sink
        cfg = NodeConfig(id=nid, route_next_hop=topo.routes.get(nid),
                         strategy=scenario.strategy,
                         rbuf_entries=scenario.sink_rbuf_entries if sink
                         else scenario.rbuf_entries,
                         vrb_entries=scenario.vrb_entries)
        nodes[nid] = Node(cfg, sim, medium, scenario.mac,
                          stack=scenario.stack,
                          on_datagram=on_datagram if sink else None,
                          on_drop=on_drop)
    for (a, b), pdr in sorted(topo.links.items()):
        if scenario.force_link_pdr is not None:
            pdr = scenario.force_link_pdr
        medium.add_link(nodes[a].mac, nodes[b].mac, pdr)

    edges = {}
    if scenario.check_paths:
        for nid, node in nodes.items():
            _tap_deliveries(node.mac, nid, edges)

    def send(node, dgram_id):
        recs[dgram_id].sent_at = sim.now
        node.app_send(payload, dgram_id)

    # Datagram ids and interval draws follow the send plan's order.  A
    # serialized plan goes round-robin on one clock, one datagram in flight
    # at a time (given lo exceeds a train's transit time); otherwise each
    # sender runs its own clock.
    lo, hi = scenario.interval_us
    count, order = scenario.packets_per_source, sorted(topo.senders())
    if scenario.serialize_sends:
        plan = [(nid, None) for _ in range(count) for nid in order]
    else:
        plan = [(nid, nid) for nid in order for _ in range(count)]
    clocks = {}
    for dgram_id, (nid, clock) in enumerate(plan, 1):
        t = clocks[clock] = clocks.get(clock, 0) + sim.rng.randint(lo, hi)
        recs[dgram_id] = _Rec(nid)
        sim.at(t, send, nodes[nid], dgram_id)

    sim.run()

    result.sent = len(recs)
    for dgram_id in sorted(recs):
        rec = recs[dgram_id]
        if rec.delivered_at is not None:
            result.delivered += 1
            result.latency.append((topo.hop_distance[rec.source],
                                   rec.delivered_at - rec.sent_at, dgram_id))
        elif rec.cause is not None:
            result.causes[rec.cause] += 1
        else:
            violations.append("datagram %d neither delivered nor attributed"
                              % dgram_id)
    if result.sent != result.delivered + sum(result.causes.values()):
        violations.append("loss-cause conservation broken: %d != %d + %d"
                          % (result.sent, result.delivered,
                             sum(result.causes.values())))

    if scenario.check_paths:
        for dgram_id, used in sorted(edges.items()):
            rec = recs.get(dgram_id)
            if rec is None:
                violations.append("frames of unknown datagram %d" % dgram_id)
                continue
            stray = used - _path_edges(topo, rec.source)
            if stray:
                violations.append("datagram %d left its route: %s"
                                  % (dgram_id, sorted(stray)))

    for nid in topo.members:
        node = nodes[nid]
        result.counters[nid] = node.counters.as_dict()
        result.high_water[nid] = node.arena.high_water
        if node.arena.used != 0:
            violations.append("node %d arena holds %d bytes after drain"
                              % (nid, node.arena.used))
        if node.rbuf.live_entries or node.vrb.live_entries:
            violations.append("node %d still holds reassembly state" % nid)
        if node.frag_buf.live_slots or node.mac.queue or node.mac.current:
            violations.append("node %d still holds frames" % nid)
    return result


def _profiled():
    """Whether a profiler watches this process.  Forked workers would run
    under it too, and what it saw in them would be lost."""
    monitoring = getattr(sys, "monitoring", None)       # Python 3.12+
    return sys.getprofile() is not None or (
        monitoring is not None
        and monitoring.get_tool(monitoring.PROFILER_ID) is not None)


def worker_count(jobs, tasks):
    """Worker processes for `tasks` simulations: no more than `jobs` (None
    means no limit), the CPUs this process may use or the tasks.  It is 1,
    this process, unless workers can be forked safely (on Linux, with no
    other thread running) and no profiler watches this process."""
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be a positive integer, not %r" % jobs)
    if (sys.platform != "linux" or threading.active_count() > 1
            or _profiled()):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return min(jobs or cpus, cpus, tasks)


def run_one(scenario, topo, jobs=None):
    """Every simulation of `scenario`, as {seed: results in payload order}.

    A repeated seed is simulated once.  With more than one worker the
    simulations run in a pool of forked processes, largest payload first
    so that the longest ones do not come last.  Each seeds its own RNG and
    results are gathered in task order, so they do not depend on the
    worker count.
    """
    seeds = list(dict.fromkeys(scenario.seeds))
    tasks = [(seed, payload)
             for payload in sorted(scenario.payloads, reverse=True)
             for seed in seeds]
    args = (repeat(scenario, len(tasks)), repeat(topo, len(tasks)),
            *zip(*tasks))
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        results = list(map(_simulate, *args))
    else:
        # Imported here: a single-worker run never pays for it.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            results = list(pool.map(_simulate, *args))
    by_task = dict(zip(tasks, results))
    return {seed: [by_task[seed, payload] for payload in scenario.payloads]
            for seed in seeds}


def _render_run(scenario, fingerprint, topo_sha, run_index, seed, results,
                hop_distance):
    out = ["metrics v1", "[scenario]", "fingerprint\t" + fingerprint]
    # Facts of this file follow the key they qualify.
    after = {"topology": [("topology_sha256", topo_sha)],
             "seeds": [("run_index", run_index), ("seed", seed)]}
    for f in _KEY_FIELDS:
        value = _plain(getattr(scenario, f.name))
        out.append("%s\t%s" % (f.name, _render_value(value)))
        out += ["%s\t%s" % pair for pair in after.get(f.name, ())]

    out.append("[summary]")
    out.append("payload\tfrag_count\tsent\tdelivered\tpdr")
    for r in results:
        out.append("%d\t%d\t%d\t%d\t%r"
                   % (r.payload, r.frag_count, r.sent, r.delivered,
                      r.delivered / r.sent))

    out.append("[latency]")
    out.append("payload\tfrag_count\thop_distance\tlatency_us\tdgram_id")
    for r in results:
        for hops, lat, dgram_id in r.latency:
            out.append("%d\t%d\t%d\t%d\t%d"
                       % (r.payload, r.frag_count, hops, lat, dgram_id))

    out.append("[node_counters]")
    out.append("payload\tnode\thop_distance\t"
               + "\t".join(COUNTER_FIELDS) + "\tpktbuf_high_water")
    for r in results:
        for nid in sorted(r.counters):
            c = r.counters[nid]
            out.append("%d\t%d\t%d\t%s\t%d"
                       % (r.payload, nid, hop_distance[nid], "\t".join(
                           str(c[f]) for f in COUNTER_FIELDS),
                          r.high_water[nid]))

    out.append("[loss_causes]")
    out.append("payload\tcause\tcount")
    for r in results:
        for cause in sorted(r.causes):
            out.append("%d\t%s\t%d" % (r.payload, cause, r.causes[cause]))

    out.append("[invariants]")
    total = sum(len(r.violations) for r in results)
    out.append("violations\t%d" % total)
    for r in results:
        for v in r.violations:
            out.append("violation\t%d\t%s" % (r.payload, v))
    return "\n".join(out) + "\n"


def run_experiment(scenario, outdir, jobs=None):
    """Simulate every (seed, payload) pair on up to `jobs` worker processes
    (None: every usable CPU); write one metrics file per seed plus
    aggregate.json. Returns the written paths."""
    topo = load_topology(scenario.topology_path())
    topo_bytes = scenario.topology_path().read_bytes()
    fingerprint = scenario_fingerprint(scenario, topo_bytes)
    topo_sha = hashlib.sha256(topo_bytes).hexdigest()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = run_one(scenario, topo, jobs)
    paths = []
    for run_index, seed in enumerate(scenario.seeds):
        text = _render_run(scenario, fingerprint, topo_sha, run_index, seed,
                           results[seed], topo.hop_distance)
        path = outdir / ("run-%02d.txt" % run_index)
        path.write_text(text)
        paths.append(path)
    agg = aggregate_runs(paths)
    agg_path = outdir / "aggregate.json"
    agg_path.write_text(json.dumps(agg, sort_keys=True, indent=1) + "\n")
    return paths + [agg_path]


def read_run_file(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "metrics v1":
        raise ScenarioError("%s: not a metrics file" % path)
    sections = {}
    name = None
    for line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            sections[name] = []
        elif name is not None and line:
            sections[name].append(line.split("\t"))
    meta = {row[0]: row[1] for row in sections.get("scenario", [])}
    tables = {}
    for sect in ("summary", "latency", "node_counters", "loss_causes"):
        rows = sections.get(sect, [])
        if rows:
            header = rows[0]
            tables[sect] = [dict(zip(header, r)) for r in rows[1:]]
        else:
            tables[sect] = []
    inv = sections.get("invariants", [])
    violations = [r for r in inv if r[0] == "violation"]
    return {"meta": meta, "tables": tables, "violations": violations}


def _percentile(samples, frac):
    ordered = sorted(samples)
    rank = max(0, math.ceil(frac * len(ordered)) - 1)
    return ordered[rank]


def _stats(samples):
    return {
        "count": len(samples),
        "mean_us": statistics.mean(samples),
        "median_us": statistics.median(samples),
        "p95_us": _percentile(samples, 0.95),
    }


def aggregate_runs(paths):
    """Fold run files for one scenario into summary series."""
    if not paths:
        raise ScenarioError("no run files to aggregate")
    runs = [read_run_file(p) for p in paths]
    fingerprints = {r["meta"].get("fingerprint") for r in runs}
    if len(fingerprints) != 1:
        raise ScenarioError("refusing to aggregate mixed scenarios: %s"
                            % sorted(fingerprints))
    meta = runs[0]["meta"]

    per_payload = {}
    lat_by_hops = {}
    lat_by_frags = {}
    causes = Counter()
    retrans_run_means = []
    pktbuf_max = 0
    violations = 0
    rbuf_counters = ("rbuf_full", "rbuf_timeout", "rbuf_timeout_no_first")
    rbuf = {"%s_%s" % (name, where): 0 for name in rbuf_counters
            for where in ("sink", "others")}
    for run in runs:
        for row in run["tables"]["summary"]:
            p = row["payload"]
            entry = per_payload.setdefault(p, {
                "frag_count": int(row["frag_count"]),
                "sent": [], "delivered": [], "pdr": [],
                "l2_retransmissions_per_node": [],
            })
            entry["sent"].append(int(row["sent"]))
            entry["delivered"].append(int(row["delivered"]))
            entry["pdr"].append(int(row["delivered"]) / int(row["sent"]))
        for row in run["tables"]["latency"]:
            lat = int(row["latency_us"])
            lat_by_hops.setdefault(row["hop_distance"], []).append(lat)
            lat_by_frags.setdefault(row["frag_count"], []).append(lat)
        for row in run["tables"]["loss_causes"]:
            causes[row["cause"]] += int(row["count"])
        node_rows = run["tables"]["node_counters"]
        retrans_run_means.append(statistics.mean(
            int(r["l2_retransmissions"]) for r in node_rows))
        by_payload = {}
        for r in node_rows:
            by_payload.setdefault(r["payload"], []).append(
                int(r["l2_retransmissions"]))
            pktbuf_max = max(pktbuf_max, int(r["pktbuf_high_water"]))
            where = "sink" if int(r["hop_distance"]) == 0 else "others"
            for name in rbuf_counters:
                rbuf["%s_%s" % (name, where)] += int(r[name])
        for p, vals in by_payload.items():
            per_payload[p]["l2_retransmissions_per_node"].append(
                statistics.mean(vals))
        violations += len(run["violations"])

    others = rbuf["rbuf_timeout_others"]
    expired = rbuf["rbuf_timeout_sink"] + others
    rbuf["no_first_share_others"] = (
        rbuf["rbuf_timeout_no_first_others"] / others if others else None)
    rbuf["no_first_share_all"] = (
        (rbuf["rbuf_timeout_no_first_sink"]
         + rbuf["rbuf_timeout_no_first_others"]) / expired
        if expired else None)

    for entry in per_payload.values():
        entry["pdr_mean"] = statistics.mean(entry["pdr"])
        entry["l2_retransmissions_per_node_mean"] = statistics.mean(
            entry["l2_retransmissions_per_node"])

    return {
        "version": 1,
        "fingerprint": meta["fingerprint"],
        "strategy": meta["strategy"],
        "topology_sha256": meta["topology_sha256"],
        "runs": len(runs),
        "seeds": [int(s) for s in meta["seeds"].split(",")],
        "per_payload": per_payload,
        "latency_by_hops": {k: _stats(v)
                            for k, v in sorted(lat_by_hops.items())},
        "latency_by_frag_count": {k: _stats(v)
                                  for k, v in sorted(lat_by_frags.items())},
        "loss_causes": dict(sorted(causes.items())),
        "l2_retransmissions_per_node_mean":
            statistics.mean(retrans_run_means),
        "pktbuf_high_water_max": pktbuf_max,
        "rbuf": rbuf,
        "violations": violations,
    }
