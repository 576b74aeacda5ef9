"""Scenario files, experiment execution, metrics output, aggregation.

A scenario is a JSON document naming a topology file, a forwarding
strategy, payload sizes, the send interval, and explicit seeds. Each
(seed, payload) pair is simulated independently, in worker processes
when there are several, into one Record; a text file per seed holds its
Records in the tables of _TABLES, and aggregate_runs folds Records.
Reruns are byte identical, whatever the worker count.
"""

import hashlib
import json
import math
import os
import re
import statistics
import sys
import threading
from collections import Counter, namedtuple
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


@dataclass(slots=True)
class _Rec:
    """Per-datagram bookkeeping for one payload simulation."""
    source: int
    sent_at: int = None
    delivered_at: int = None
    cause: str = None
    cause_at: int = None


# The rows of one (seed, payload) simulation in each run-file table.
Latency = namedtuple("Latency", "hop_distance latency_us dgram_id")
NodeRow = namedtuple("NodeRow", ("node", "hop_distance", *COUNTER_FIELDS,
                                 "pktbuf_high_water"))
Cause = namedtuple("Cause", "cause count")


@dataclass(slots=True)
class Record:
    """One (seed, payload) simulation, as it is written, parsed and folded."""
    payload: int
    frag_count: int
    sent: int
    delivered: int
    latency: list = field(default_factory=list)      # by dgram_id
    nodes: list = field(default_factory=list)        # by node id
    causes: list = field(default_factory=list)       # by cause
    violations: list = field(default_factory=list)   # invariant text

    @property
    def pdr(self):
        return self.delivered / self.sent


# One run file: its [scenario] block (key -> text) and one Record per
# payload, in scenario order.
Run = namedtuple("Run", "block records")

# The tables of a run file, in file order: section, the Record fields that
# lead each row, then the Record list and row type whose fields follow them
# (a summary row is the Record itself).  Render and parse both read this.
_TABLES = (
    ("summary", ("payload", "frag_count", "sent", "delivered", "pdr"),
     None, None),
    ("latency", ("payload", "frag_count"), "latency", Latency),
    ("node_counters", ("payload",), "nodes", NodeRow),
    ("loss_causes", ("payload",), "causes", Cause),
)
_CELL_TYPES = {"pdr": float, "cause": str}      # every other cell is an int


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
    recs = {}
    violations = []

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

    latency, causes = [], Counter()
    for dgram_id in sorted(recs):
        rec = recs[dgram_id]
        if rec.delivered_at is not None:
            latency.append(Latency(topo.hop_distance[rec.source],
                                   rec.delivered_at - rec.sent_at, dgram_id))
        elif rec.cause is not None:
            causes[rec.cause] += 1
        else:
            violations.append("datagram %d neither delivered nor attributed"
                              % dgram_id)
    result = Record(payload, _frag_count(scenario, payload), len(recs),
                    len(latency), latency, violations=violations,
                    causes=[Cause(*item) for item in sorted(causes.items())])
    if result.sent != result.delivered + causes.total():
        violations.append("loss-cause conservation broken: %d != %d + %d"
                          % (result.sent, result.delivered, causes.total()))

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
        result.nodes.append(NodeRow(
            nid, topo.hop_distance[nid], *node.counters.as_dict().values(),
            node.arena.high_water))
        if node.arena.used != 0:
            violations.append("node %d arena holds %d bytes after drain"
                              % (nid, node.arena.used))
        if node.rbuf.live_entries or node.vrb.live_entries:
            violations.append("node %d still holds reassembly state" % nid)
        if node.frag_jobs or node.mac.queue or node.mac.current:
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


def _scenario_block(scenario, fingerprint, topo_sha, run_index, seed):
    """The [scenario] block of one run file, as key -> text."""
    block = {"fingerprint": fingerprint}
    # Facts of this file follow the key they qualify.
    after = {"topology": {"topology_sha256": topo_sha},
             "seeds": {"run_index": str(run_index), "seed": str(seed)}}
    for f in _KEY_FIELDS:
        block[f.name] = _render_value(_plain(getattr(scenario, f.name)))
        block.update(after.get(f.name, {}))
    return block


def _render_run(run):
    out = ["metrics v1", "[scenario]"]
    out += ["%s\t%s" % item for item in run.block.items()]
    for section, lead, rows, row_type in _TABLES:
        out += ["[%s]" % section,
                "\t".join(lead + (row_type._fields if rows else ()))]
        for r in run.records:
            head = [getattr(r, name) for name in lead]
            out += ["\t".join(map(str, head + list(row)))
                    for row in (getattr(r, rows) if rows else [()])]
    out.append("[invariants]")
    out.append("violations\t%d" % sum(len(r.violations) for r in run.records))
    out += ["violation\t%d\t%s" % (r.payload, v)
            for r in run.records for v in r.violations]
    return "\n".join(out) + "\n"


def run_experiment(scenario, outdir, jobs=None):
    """Simulate every (seed, payload) pair on up to `jobs` worker processes
    (None: every usable CPU); write one metrics file per seed plus
    aggregate.json. Returns the written paths and the aggregate."""
    topo = load_topology(scenario.topology_path())
    if not topo.senders():
        raise ScenarioError("topology %s has no sender: every member is the "
                            "sink or one hop from it"
                            % scenario.topology_path())
    topo_bytes = scenario.topology_path().read_bytes()
    fingerprint = scenario_fingerprint(scenario, topo_bytes)
    topo_sha = hashlib.sha256(topo_bytes).hexdigest()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = run_one(scenario, topo, jobs)
    runs = [Run(_scenario_block(scenario, fingerprint, topo_sha, i, seed),
                results[seed]) for i, seed in enumerate(scenario.seeds)]
    paths = [outdir / ("run-%02d.txt" % i) for i in range(len(runs))]
    for run, path in zip(runs, paths):
        path.write_text(_render_run(run))
    agg = aggregate_runs(runs)
    agg_path = outdir / "aggregate.json"
    agg_path.write_text(json.dumps(agg, sort_keys=True, indent=1) + "\n")
    return paths + [agg_path], agg


def read_run_file(path):
    """Parse a run file into its Run; ScenarioError if it is malformed."""
    try:
        return _parse_run(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:       # bad encoding, bad cells, bad structure
        raise ScenarioError("%s: malformed run file: %s" % (path, err))


def _seeds(block):
    return [int(s) for s in block["seeds"].split(",")]


def _parse_run(text):
    head, *parts = re.split(r"^\[(\w+)\]\n", text, flags=re.MULTILINE)
    if head != "metrics v1\n":
        raise ScenarioError("no 'metrics v1' header")
    sections = {name: [line for line in body.split("\n") if line]
                for name, body in zip(parts[::2], parts[1::2])}
    block = dict(line.split("\t", 1) for line in sections.get("scenario", ()))
    needed = ("fingerprint", "strategy", "topology_sha256", "seeds")
    if not set(needed) <= set(block):
        raise ScenarioError("[scenario] needs %s" % ", ".join(needed))
    _seeds(block)                   # raises ValueError unless integers
    records = {}
    for section, lead, rows, row_type in _TABLES:
        columns = lead + (row_type._fields if rows else ())
        header, *table = sections.get(section) or [""]
        if header.split("\t") != list(columns):
            raise ScenarioError("no [%s] section with columns %s"
                                % (section, " ".join(columns)))
        for line in table:
            cells = line.split("\t")
            if len(cells) != len(columns):
                raise ScenarioError("[%s] row of %d cells, not %d"
                                    % (section, len(cells), len(columns)))
            values = [_CELL_TYPES.get(name, int)(cell)
                      for name, cell in zip(columns, cells)]
            if rows is None:            # pdr is derived, so only checked
                r = Record(**dict(zip(lead[:-1], values)))
                if (r.sent < 1 or r.pdr != values[-1]
                        or records.setdefault(r.payload, r) is not r):
                    raise ScenarioError("[summary] bad row: %r" % line)
                continue
            r = records.get(values[0])
            if [getattr(r, n, None) for n in lead] != values[:len(lead)]:
                raise ScenarioError("[%s] row matches no summary row: %r"
                                    % (section, line))
            getattr(r, rows).append(row_type(*values[len(lead):]))
    total, *table = sections.get("invariants") or [""]
    for line in table:
        kind, payload, violation = line.split("\t", 2)
        if kind != "violation" or int(payload) not in records:
            raise ScenarioError("[invariants] bad row: %r" % line)
        records[int(payload)].violations.append(violation)
    if total != "violations\t%d" % len(table):
        raise ScenarioError("[invariants] must open with the violation count")
    if not records or not all(r.nodes for r in records.values()):
        raise ScenarioError("every payload needs a summary row and node rows")
    return Run(block, list(records.values()))


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


def aggregate_runs(runs):
    """Fold the Runs of one scenario into summary series."""
    if not runs:
        raise ScenarioError("no run files to aggregate")
    fingerprints = {run.block["fingerprint"] for run in runs}
    if len(fingerprints) != 1:
        raise ScenarioError("refusing to aggregate mixed scenarios: %s"
                            % sorted(fingerprints))
    block = runs[0].block

    # JSON keys stay strings, so that sort_keys orders "12" before "2".
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
        run_retrans = []
        for r in run.records:
            entry = per_payload.setdefault(str(r.payload), {
                "frag_count": r.frag_count,
                "sent": [], "delivered": [], "pdr": [],
                "l2_retransmissions_per_node": [],
            })
            entry["sent"].append(r.sent)
            entry["delivered"].append(r.delivered)
            entry["pdr"].append(r.pdr)
            for hops, lat, _ in r.latency:
                lat_by_hops.setdefault(str(hops), []).append(lat)
                lat_by_frags.setdefault(str(r.frag_count), []).append(lat)
            for cause, count in r.causes:
                causes[cause] += count
            retrans = [n.l2_retransmissions for n in r.nodes]
            run_retrans += retrans
            entry["l2_retransmissions_per_node"].append(
                statistics.mean(retrans))
            for n in r.nodes:
                pktbuf_max = max(pktbuf_max, n.pktbuf_high_water)
                where = "sink" if n.hop_distance == 0 else "others"
                for name in rbuf_counters:
                    rbuf["%s_%s" % (name, where)] += getattr(n, name)
            violations += len(r.violations)
        retrans_run_means.append(statistics.mean(run_retrans))

    no_first = rbuf["rbuf_timeout_no_first_others"]
    others = rbuf["rbuf_timeout_others"]
    rbuf["no_first_share_others"] = no_first / others if others else None
    no_first += rbuf["rbuf_timeout_no_first_sink"]
    expired = rbuf["rbuf_timeout_sink"] + others
    rbuf["no_first_share_all"] = no_first / expired if expired else None

    for entry in per_payload.values():
        entry["pdr_mean"] = statistics.mean(entry["pdr"])
        entry["l2_retransmissions_per_node_mean"] = statistics.mean(
            entry["l2_retransmissions_per_node"])

    return {
        "version": 1,
        "fingerprint": block["fingerprint"],
        "strategy": block["strategy"],
        "topology_sha256": block["topology_sha256"],
        "runs": len(runs),
        "seeds": _seeds(block),
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
