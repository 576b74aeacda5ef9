"""Scenario files, experiment execution, metrics output, aggregation.

A scenario is a JSON document naming a topology file, a forwarding
strategy, payload sizes, the send interval, and explicit seeds. Each
(seed, payload) pair is simulated independently, in worker processes
when there are several, into one Record; a text file per seed holds its
Records in the tables of _TABLES, and aggregate_runs folds Records.
Reruns are byte identical, whatever the worker count.
"""

import json
import math
import os
import re
import sys
import threading
from collections import Counter, namedtuple
from itertools import repeat
from pathlib import Path

from .frag_codec import fragment_count
from .link_mac import MacParams
from .metrics import COUNTER_FIELDS
from .node_stack import (HEADER_BYTES, STRATEGIES, Node, NodeConfig,
                         StackParams, build_datagram, sha256)
from .sim_core import Medium, Simulator
from .topology import load_topology

# The study's UDP payload bytes: 1 to 14 fragments in the frame model.
STUDY_PAYLOADS = (16, 80, 176, 272, 368, 464, 560, 656, 752, 848, 944, 1040,
                  1136, 1232)


class ScenarioError(ValueError):
    pass


# Validators.  Each takes a scenario-file key and its JSON value and returns
# the field value, or raises ScenarioError.

def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _int(lo, null=False, hi=math.inf):
    """An integer in [lo, hi], or JSON null for "no limit" when `null`."""
    what = "an integer >= %d%s%s" % (
        lo, "" if hi == math.inf else " and <= %d" % hi,
        " or null" if null else "")

    def check(name, value):
        if value is None and null:
            return None
        if not _is_int(value) or not lo <= value <= hi:
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


def _distinct(allowed=None):
    """A non-empty list of integers, none listed twice: a repeated value
    would count one simulation twice."""
    def check(name, value):
        values = _int_list(name, value, allowed)
        if len(set(values)) != len(values):
            raise ScenarioError("%s must not list a value twice" % name)
        return values
    return check


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
    assert set(checks) == set(cls._fields)

    def check(name, value):
        if not isinstance(value, dict):
            raise ScenarioError("%s must be an object" % name)
        bad = set(value) - set(checks)
        if bad:
            raise ScenarioError("unknown %s parameter(s): %s"
                                % (name, ", ".join(sorted(bad))))
        return cls()._replace(**{k: checks[k]("%s.%s" % (name, k), v)
                                 for k, v in value.items()})
    return check


_ENTRIES = _int(1, null=True)
# A wait of at most 2**32 us (about 72 minutes) keeps a latency below the
# 2**63 us that a run file holds, unless 2**31 waits follow one another.
MAX_WAIT_US = 1 << 32
_WAIT = _int(0, hi=MAX_WAIT_US)


_REQUIRED = object()        # a default saying the scenario file must give it

# The scenario-file keys besides "version", in run-file order, each with
# its validator and default.
_SCHEMA = (
    ("topology", _text, _REQUIRED),
    ("strategy", _strategy, _REQUIRED),
    ("payloads", _distinct(STUDY_PAYLOADS), _REQUIRED),
    ("interval_us", _interval, _REQUIRED),
    ("packets_per_source", _int(1), 100),
    ("seeds", _distinct(), _REQUIRED),
    ("rbuf_entries", _ENTRIES, 1),          # per node; the sink has its own
    ("sink_rbuf_entries", _ENTRIES, 16),
    ("vrb_entries", _ENTRIES, 16),
    ("force_link_pdr", _pdr, None),
    # One send at a time network-wide instead of concurrent per-source
    # schedules.  With intervals longer than a train's transit time this
    # removes channel contention entirely, which is what the lossless
    # conservation oracle needs: hidden senders on a loss-free channel can
    # otherwise phase-lock and collide indefinitely.
    ("serialize_sends", _flag, False),
    ("mac", _params(        # max_be: IEEE 802.15.4's macMaxBE range
        MacParams, max_retransmissions=_int(0), min_be=_int(0),
        max_be=_int(0, hi=8), max_csma_backoffs=_int(0), ack_timeout_us=_WAIT,
        rx_handover_us=_WAIT, queue_capacity=_int(0, null=True)),
     MacParams()),
    ("stack", _params(
        StackParams, reassembly_timeout_us=_WAIT, vrb_lifetime_us=_WAIT,
        proc_delay_us=_WAIT, frag_buffer_slots=_int(0, null=True),
        arena_bytes=_int(0, null=True)), StackParams()),
)

# Scenario's fields: the required keys first, as a tuple's defaults trail.
_FIELDS = sorted(_SCHEMA, key=lambda entry: entry[2] is not _REQUIRED)
_FIELDS.append(("base_dir", None, Path(".")))


class Scenario(namedtuple("Scenario", [key for key, _, _ in _FIELDS],
                          defaults=[default for _, _, default in _FIELDS
                                    if default is not _REQUIRED])):
    __slots__ = ()

    def topology_path(self):
        return self.base_dir / self.topology


def scenario_from_dict(cfg, base_dir=Path(".")):
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(cfg) - {"version"} - {key for key, _, _ in _SCHEMA}
    if unknown:
        raise ScenarioError("unknown scenario key(s): %s"
                            % ", ".join(sorted(unknown)))
    if not _is_int(cfg.get("version")) or cfg["version"] != 1:
        raise ScenarioError("unsupported scenario version %r"
                            % cfg.get("version"))
    values = {}
    for key, check, default in _SCHEMA:
        if key in cfg:
            values[key] = check(key, cfg[key])
        elif default is _REQUIRED:
            raise ScenarioError("scenario is missing %r" % key)
    scenario = Scenario(base_dir=Path(base_dir), **values)

    if scenario.mac.min_be > scenario.mac.max_be:
        raise ScenarioError("mac.min_be must not exceed mac.max_be")
    if not scenario.topology_path().is_file():
        raise ScenarioError("topology file not found: %s"
                            % scenario.topology_path())
    return scenario


def load_scenario(path):
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as err:
        raise ScenarioError("cannot read scenario %s: %s" % (path, err))
    return scenario_from_dict(cfg, base_dir=path.parent)


def _render_value(value):
    """A scenario field value as it appears in the [scenario] block;
    parameter records become JSON text."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (MacParams, StackParams)):
        return json.dumps(value._asdict(), sort_keys=True)
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


# The [scenario] lines that identify a scenario, in file order: each key but
# the topology's file name (its content is topology_sha256) and the seeds.
_IDENTITY = ("topology_sha256", *(key for key, _, _ in _SCHEMA
                                  if key not in ("topology", "seeds")))


def scenario_fingerprint(block):
    """The SHA-256 of a [scenario] block's _IDENTITY lines: one value for
    every run file of a scenario.  KeyError if the block lacks one."""
    lines = "".join("%s\t%s\n" % (key, block[key]) for key in _IDENTITY)
    return sha256(lines.encode()).hexdigest()


class _Rec:
    """Per-datagram bookkeeping for one payload simulation."""

    __slots__ = ("source", "sent_at", "delivered_at", "cause", "cause_at")

    def __init__(self, source, sent_at):
        self.source = source
        self.sent_at = sent_at
        self.delivered_at = self.cause = self.cause_at = None


# The rows of one (seed, payload) simulation in each run-file table.
Latency = namedtuple("Latency", "hop_distance latency_us dgram_id")
NodeRow = namedtuple("NodeRow", ("node", "hop_distance", *COUNTER_FIELDS,
                                 "pktbuf_high_water"))
Cause = namedtuple("Cause", "cause count")


class Record(namedtuple("Record", "payload frag_count sent delivered "
                                  "latency nodes causes violations")):
    """One (seed, payload) simulation, as it is written, parsed and folded:
    its latency rows by dgram_id, node rows by node id, causes by cause."""
    __slots__ = ()

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


def _int_cell(cell):
    """An integer cell below 2**63 in magnitude, as every simulation
    writes; a far larger one would overflow the aggregate's float means."""
    value = int(cell)
    if not -(1 << 63) < value < 1 << 63:
        raise ScenarioError("integer cell out of range: %.20s..." % cell)
    return value


_CELL_TYPES = {"pdr": float, "cause": str}    # every other cell is _int_cell


def _path_edges(topo, source):
    edges = set()
    node = source
    while node != topo.sink:
        parent = topo.routes[node]
        edges.add((node, parent))
        node = parent
    return edges


def _check_routes(mac, dst, recs, routes, strays):
    """Tap `mac`'s deliveries: a frame off its datagram's route adds its
    edge to strays[dgram_id], and a frame of an unknown datagram puts
    None there.  A frame on its route leaves nothing behind."""
    orig = mac.on_deliver

    def tap(frame):
        rec = recs.get(frame.dgram_id)
        if rec is None:
            strays[frame.dgram_id] = None
        elif (frame.src, dst) not in routes[rec.source]:
            strays.setdefault(frame.dgram_id, set()).add((frame.src, dst))
        orig(frame)

    mac.on_deliver = tap


def _simulate(scenario, topo, seed, payload):
    """One independent simulation: every sender emits `packets` datagrams
    of one payload size; runs until the event queue drains."""
    sim = Simulator(seed=seed * 1000003 + payload)
    medium = Medium(sim)
    recs = {}
    violations = []

    def on_datagram(dgram_id, data):
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
        rec.delivered_at = sim.now

    def on_drop(dgram_id, cause):
        rec = recs.get(dgram_id)
        if rec is None:
            violations.append("drop (%s) of unknown datagram %d"
                              % (cause, dgram_id))
            return
        if rec.delivered_at is None and rec.cause is None:
            rec.cause = cause
            rec.cause_at = sim.now

    nodes = {}
    for nid in topo.members:
        sink = nid == topo.sink
        cfg = NodeConfig(id=nid, route_next_hop=topo.routes.get(nid),
                         strategy=scenario.strategy,
                         rbuf_entries=scenario.sink_rbuf_entries if sink
                         else scenario.rbuf_entries,
                         vrb_entries=scenario.vrb_entries)
        nodes[nid] = Node(cfg, sim, medium, scenario.mac, scenario.stack,
                          on_datagram, on_drop)
    for (a, b), pdr in sorted(topo.links.items()):
        if scenario.force_link_pdr is not None:
            pdr = scenario.force_link_pdr
        medium.add_link(nodes[a].mac, nodes[b].mac, pdr)

    # Datagram ids and interval draws follow the send plan's order.  A
    # serialized plan goes round-robin on one clock, one datagram in flight
    # at a time (given lo exceeds a train's transit time); otherwise each
    # sender runs its own clock.  The plan is generated, never held.
    lo, hi = scenario.interval_us
    count, order = scenario.packets_per_source, topo.senders()
    if scenario.serialize_sends:
        plan = ((nid, None) for _ in range(count) for nid in order)
    else:
        plan = ((nid, nid) for nid in order for _ in range(count))
    sends = {nid: nodes[nid].app_send for nid in order}
    clocks = {}
    for dgram_id, (nid, clock) in enumerate(plan, 1):
        t = clocks[clock] = clocks.get(clock, 0) + sim.rng.randint(lo, hi)
        recs[dgram_id] = _Rec(nid, t)
        sim.at(t, sends[nid], payload, dgram_id)

    strays = {}
    routes = {nid: _path_edges(topo, nid) for nid in order}
    for nid, node in nodes.items():
        _check_routes(node.mac, nid, recs, routes, strays)

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
    if len(recs) != len(latency) + causes.total():
        violations.append("loss-cause conservation broken: %d != %d + %d"
                          % (len(recs), len(latency), causes.total()))

    for dgram_id, stray in sorted(strays.items()):
        if stray is None:
            violations.append("frames of unknown datagram %d" % dgram_id)
        else:
            violations.append("datagram %d left its route: %s"
                              % (dgram_id, sorted(stray)))

    rows = []
    for nid in topo.members:
        node = nodes[nid]
        rows.append(NodeRow(
            nid, topo.hop_distance[nid], *node.counters.as_dict().values(),
            node.arena.high_water))
        if node.arena.used != 0:
            violations.append("node %d arena holds %d bytes after drain"
                              % (nid, node.arena.used))
        if node.rbuf.live_entries or node.vrb.live_entries:
            violations.append("node %d still holds reassembly state" % nid)
        if node.tags.live:
            violations.append("node %d still holds datagram tags" % nid)
        if node.jobs or node.mac.queue or node.mac.current:
            violations.append("node %d still holds frames" % nid)
    frag_count = fragment_count(payload + HEADER_BYTES,
                                STRATEGIES[scenario.strategy].policy)
    return Record(payload, frag_count, len(recs), len(latency), latency, rows,
                  [Cause(*item) for item in sorted(causes.items())],
                  violations)


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

    With more than one worker the simulations run in a pool of forked
    processes, largest payload first so that the longest ones do not come
    last.  Each seeds its own RNG and results are gathered in task order,
    so they do not depend on the worker count.
    """
    tasks = [(seed, payload)
             for payload in sorted(scenario.payloads, reverse=True)
             for seed in scenario.seeds]
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
            for seed in scenario.seeds}


def _scenario_block(scenario, topo_sha, seed):
    """`seed`'s [scenario] block, as key -> text: the fingerprint, then each
    _SCHEMA key, with the topology's digest after it and `seed` for seeds."""
    block = {}
    for key, _, _ in _SCHEMA:
        if key == "seeds":
            block["seed"] = str(seed)
        else:
            block[key] = _render_value(getattr(scenario, key))
        if key == "topology":
            block["topology_sha256"] = topo_sha
    return {"fingerprint": scenario_fingerprint(block), **block}


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
    topo_path = scenario.topology_path()
    topo = load_topology(topo_path)
    if not topo.senders():
        raise ScenarioError("topology %s has no sender: every member is the "
                            "sink or one hop from it" % topo_path)
    topo_sha = sha256(topo_path.read_bytes()).hexdigest()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = run_one(scenario, topo, jobs)
    runs = [Run(_scenario_block(scenario, topo_sha, seed), results[seed])
            for seed in scenario.seeds]
    paths = [outdir / ("run-%02d.txt" % i) for i in range(len(runs))]
    for run, path in zip(runs, paths):
        path.write_text(_render_run(run))
    agg_path = outdir / "aggregate.json"
    return paths + [agg_path], write_aggregate(runs, agg_path)


def read_run_file(path):
    """Parse a run file into its Run; ScenarioError if it is malformed."""
    try:
        return _parse_run(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:       # bad encoding, bad cells, bad structure
        raise ScenarioError("%s: malformed run file: %s" % (path, err))


def _parse_run(text):
    head, *parts = re.split(r"^\[(\w+)\]\n", text, flags=re.MULTILINE)
    if head != "metrics v1\n":
        raise ScenarioError("no 'metrics v1' header")
    names = parts[::2]
    for name in names:
        if names.count(name) > 1:
            raise ScenarioError("[%s] given twice" % name)
    sections = {name: [line for line in body.split("\n") if line]
                for name, body in zip(names, parts[1::2])}
    block = dict(line.split("\t", 1) for line in sections.get("scenario", ()))
    try:
        if block["fingerprint"] != scenario_fingerprint(block):
            raise ScenarioError("[scenario] does not match its fingerprint")
        int(block["seed"])          # raises ValueError unless an integer
    except KeyError as err:
        raise ScenarioError("[scenario] has no %s line" % err) from None
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
            values = [_CELL_TYPES.get(name, _int_cell)(cell)
                      for name, cell in zip(columns, cells)]
            if rows is None:            # pdr is derived, so only checked
                r = Record(*values[:-1], [], [], [], [])
                if (r.sent < 1 or not 0 <= r.delivered <= r.sent
                        or r.pdr != values[-1]
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
    for r in records.values():
        if len(r.latency) != r.delivered:
            raise ScenarioError("payload %d: %d latency rows, %d delivered"
                                % (r.payload, len(r.latency), r.delivered))
    return Run(block, list(records.values()))


def _percentile(samples, frac):
    ordered = sorted(samples)
    rank = max(0, math.ceil(frac * len(ordered)) - 1)
    return ordered[rank]


# statistics.mean and .median for ints and floats, without the import:
# statistics brings fractions and decimal into every run.
def _mean(data):
    """The exact mean, rounded once; an int when all-int data divide evenly."""
    ratios = [x.as_integer_ratio() for x in data]
    lcm = math.lcm(*(d for _, d in ratios))
    num, den = sum(n * (lcm // d) for n, d in ratios), lcm * len(data)
    if num % den == 0 and all(type(x) is int for x in data):
        return num // den
    return num / den


def _median(data):
    ordered = sorted(data)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _stats(samples):
    return {
        "count": len(samples),
        "mean_us": _mean(samples),
        "median_us": _median(samples),
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
    seeds = [int(run.block["seed"]) for run in runs]
    repeated = sorted(s for s, n in Counter(seeds).items() if n > 1)
    if repeated:
        raise ScenarioError("refusing to count a run twice: seed %s given "
                            "more than once" % ", ".join(map(str, repeated)))
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
                _mean(retrans))
            for n in r.nodes:
                pktbuf_max = max(pktbuf_max, n.pktbuf_high_water)
                where = "sink" if n.hop_distance == 0 else "others"
                for name in rbuf_counters:
                    rbuf["%s_%s" % (name, where)] += getattr(n, name)
            violations += len(r.violations)
        retrans_run_means.append(_mean(run_retrans))

    no_first = rbuf["rbuf_timeout_no_first_others"]
    others = rbuf["rbuf_timeout_others"]
    rbuf["no_first_share_others"] = no_first / others if others else None
    no_first += rbuf["rbuf_timeout_no_first_sink"]
    expired = rbuf["rbuf_timeout_sink"] + others
    rbuf["no_first_share_all"] = no_first / expired if expired else None

    for entry in per_payload.values():
        entry["pdr_mean"] = _mean(entry["pdr"])
        entry["l2_retransmissions_per_node_mean"] = _mean(
            entry["l2_retransmissions_per_node"])

    return {
        "version": 1,
        "fingerprint": block["fingerprint"],
        "strategy": block["strategy"],
        "topology_sha256": block["topology_sha256"],
        "seeds": seeds,
        "per_payload": per_payload,
        "latency_by_hops": {k: _stats(v)
                            for k, v in sorted(lat_by_hops.items())},
        "latency_by_frag_count": {k: _stats(v)
                                  for k, v in sorted(lat_by_frags.items())},
        "loss_causes": dict(sorted(causes.items())),
        "l2_retransmissions_per_node_mean":
            _mean(retrans_run_means),
        "pktbuf_high_water_max": pktbuf_max,
        "rbuf": rbuf,
        "violations": violations,
    }


def write_aggregate(runs, path):
    """Fold `runs` into aggregate.json at `path`; returns the fold."""
    agg = aggregate_runs(runs)
    Path(path).write_text(json.dumps(agg, sort_keys=True, indent=1) + "\n")
    return agg
