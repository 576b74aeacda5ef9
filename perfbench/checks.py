"""Property checks on lowpansim run files, computed apart from the program.

Nothing here imports lowpansim: the run-file parser, the topology reader,
the published fragment table and the 802.15.4 timing constants are written
out again, so a fault in the program's own parsing or bookkeeping cannot
hide itself.  One operation is one (seed, payload) simulation, which is one
payload's rows inside one run file.
"""

from collections import Counter

# Published UDP payload size -> 6LoWPAN fragment count (RFC 4944 framing,
# 104-byte link SDU), as tabulated in the paper.
PUBLISHED_FRAG_COUNTS = {
    16: 1, 80: 2, 176: 3, 272: 4, 368: 5, 464: 6, 560: 7, 656: 8, 752: 9,
    848: 10, 944: 11, 1040: 12, 1136: 13, 1232: 14,
}

# Every cause a datagram can be charged with.
LOSS_CAUSES = frozenset({
    "frag_buf_full", "pktbuf_full", "queue_drop", "retrans_exhausted",
    "rbuf_full", "rbuf_timeout", "vrb_expired",
})

# 802.15.4 at 2.4 GHz: 32 us per byte, 6 bytes of PHY framing, an 8-symbol
# clear channel assessment before every transmission.
US_PER_BYTE = 32
PHY_OVERHEAD_BYTES = 6
CCA_US = 128


def min_hop_us(proc_delay_us, l2_overhead):
    """Least time one hop can take: a CCA, the airtime of the shortest
    frame (MAC overhead plus one byte of content) and the receiver's
    processing delay."""
    airtime = (PHY_OVERHEAD_BYTES + l2_overhead + 1) * US_PER_BYTE
    return proc_delay_us + CCA_US + airtime


class Expect:
    """What every operation of one scenario must satisfy."""

    def __init__(self, topology_text, packets_per_source, lossless,
                 proc_delay_us=2000, l2_overhead=23):
        self.hops, self.senders = read_topology(topology_text)
        self.packets_per_source = packets_per_source
        self.lossless = lossless
        self.min_hop_us = min_hop_us(proc_delay_us, l2_overhead)


def read_topology(text):
    """Hop distance of every member and the sender count of a topology file.

    Senders are the members that are neither the sink nor one of its
    children, which only forward."""
    sink, nodes, parent = None, [], {}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "sink":
            sink = int(parts[1])
        elif parts[0] == "node":
            nodes.append(int(parts[1]))
        elif parts[0] == "route":
            parent[int(parts[1])] = int(parts[2])
    hops = {sink: 0}
    for node in nodes:
        chain = [node]
        while chain[-1] not in hops:
            chain.append(parent[chain[-1]])
        for depth, member in enumerate(reversed(chain)):
            hops.setdefault(member, hops[chain[-1]] + depth)
    senders = [n for n in nodes if n != sink and parent.get(n) != sink]
    return hops, len(senders)


def parse_run(text):
    """Sections of a run file: {name: [row dict, ...]}, plus the header."""
    lines = text.splitlines()
    if not lines or lines[0] != "metrics v1":
        raise ValueError("not a 'metrics v1' run file")
    raw, current = {}, None
    for line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            current = raw.setdefault(line[1:-1], [])
        elif line and current is not None:
            current.append(line.split("\t"))
    tables = {}
    for name, rows in raw.items():
        if name in ("scenario", "invariants"):
            tables[name] = rows
        elif rows:
            tables[name] = [dict(zip(rows[0], r)) for r in rows[1:]]
        else:
            tables[name] = []
    return tables


def check_run(text, payloads, expect):
    """Check one run file.

    Returns ({payload: [problem, ...]}, {counter: total}) where the totals
    sum the node counters over every payload in the file."""
    problems = {p: [] for p in payloads}
    try:
        return _check_tables(parse_run(text), problems, expect)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as err:
        for found in problems.values():
            found.append("malformed run file: %r" % (err,))
        return problems, Counter()


def _check_tables(tables, problems, expect):
    payloads = list(problems)

    def fail_all(msg):
        for p in payloads:
            problems[p].append(msg)

    for name in ("scenario", "summary", "latency", "node_counters",
                 "loss_causes", "invariants"):
        if name not in tables:
            fail_all("missing section [%s]" % name)
            return problems, Counter()

    declared = [r for r in tables["invariants"] if r[0] == "violations"]
    if declared != [["violations", "0"]]:
        fail_all("invariant count is %s, not 0" % declared)
    for row in tables["invariants"]:
        if row[0] == "violation":
            key = int(row[1]) if row[1].isdigit() else None
            problems.get(key, problems[payloads[0]]).append(
                "violation: " + "\t".join(row[2:]))

    summary = {}
    for row in tables["summary"]:
        p = int(row["payload"])
        if p not in problems or p in summary:
            fail_all("unexpected summary row for payload %d" % p)
        summary[p] = row
    latencies = Counter()
    for row in tables["latency"]:
        p = int(row["payload"])
        if p not in problems:
            fail_all("latency row for unknown payload %d" % p)
            continue
        latencies[p] += 1
        hops = int(row["hop_distance"])
        floor = hops * expect.min_hop_us
        if hops < 1 or int(row["latency_us"]) < floor:
            problems[p].append("datagram %s: latency %s us over %d hop(s) "
                               "is below %d us" % (row["dgram_id"],
                                                   row["latency_us"], hops,
                                                   floor))
    causes = {p: Counter() for p in payloads}
    for row in tables["loss_causes"]:
        p = int(row["payload"])
        if p not in problems:
            fail_all("loss-cause row for unknown payload %d" % p)
            continue
        if row["cause"] not in LOSS_CAUSES:
            problems[p].append("unknown loss cause %r" % row["cause"])
        causes[p][row["cause"]] += int(row["count"])

    totals = Counter()
    seen_nodes = {p: set() for p in payloads}
    for row in tables["node_counters"]:
        p = int(row["payload"])
        node = int(row["node"])
        if p not in problems:
            fail_all("counter row for unknown payload %d" % p)
            continue
        seen_nodes[p].add(node)
        if expect.hops.get(node) != int(row["hop_distance"]):
            problems[p].append("node %d: hop distance %s, topology says %s"
                               % (node, row["hop_distance"],
                                  expect.hops.get(node)))
        for name, value in row.items():
            if name not in ("payload", "node", "hop_distance"):
                totals[name] += int(value)

    want_sent = expect.packets_per_source * expect.senders
    for p in payloads:
        row = summary.get(p)
        if row is None:
            problems[p].append("no summary row")
            continue
        sent, delivered = int(row["sent"]), int(row["delivered"])
        if sent != want_sent:
            problems[p].append("sent %d, expected %d x %d senders"
                               % (sent, expect.packets_per_source,
                                  expect.senders))
        if int(row["frag_count"]) != PUBLISHED_FRAG_COUNTS.get(p):
            problems[p].append("frag_count %s, published %s"
                               % (row["frag_count"],
                                  PUBLISHED_FRAG_COUNTS.get(p)))
        if delivered != latencies[p]:
            problems[p].append("delivered %d but %d latency rows"
                               % (delivered, latencies[p]))
        lost = sum(causes[p].values())
        if sent != delivered + lost:
            problems[p].append("sent %d != delivered %d + lost %d"
                               % (sent, delivered, lost))
        if float(row["pdr"]) != delivered / sent:
            problems[p].append("pdr %s != %d/%d" % (row["pdr"], delivered,
                                                    sent))
        if expect.lossless and delivered != sent:
            problems[p].append("lossless PDR is %d/%d, not 1.0"
                               % (delivered, sent))
        if seen_nodes[p] != set(expect.hops):
            problems[p].append("counter rows cover %d of %d members"
                               % (len(seen_nodes[p]), len(expect.hops)))
    return problems, totals


def _doctorings(text):
    """(name, doctored text) pairs; each must fail the checks."""
    lines = text.splitlines()

    def replace_row(section, edit):
        out, current, header_seen = [], None, False
        done = False
        for line in lines:
            if line.startswith("["):
                current, header_seen = line, False
            elif current == "[%s]" % section and not done:
                if header_seen:
                    line, done = edit(line), True
                else:
                    header_seen = True
            out.append(line)
        return "\n".join(out) + "\n"

    def bump_field(index, delta):
        def edit(line):
            cols = line.split("\t")
            cols[index] = str(int(cols[index]) + delta)
            return "\t".join(cols)
        return edit

    yield "one more datagram sent", replace_row("summary", bump_field(2, 1))
    yield "wrong fragment count", replace_row("summary", bump_field(1, 1))
    causes_header = "[loss_causes]\npayload\tcause\tcount\n"
    first_payload = lines[lines.index("[summary]") + 2].split("\t")[0]
    yield "one more datagram lost", text.replace(
        causes_header, causes_header + first_payload + "\tqueue_drop\t1\n")
    yield "unknown loss cause", text.replace(
        causes_header, causes_header + first_payload + "\tgremlins\t0\n")
    yield "nonzero invariant count", text.replace("violations\t0",
                                                  "violations\t1")
    if "[latency]\npayload\tfrag_count\thop_distance\tlatency_us\tdgram_id\n[" \
            not in text:
        def zero_latency(line):
            cols = line.split("\t")
            cols[3] = "0"
            return "\t".join(cols)
        yield "zero latency", replace_row("latency", zero_latency)
    yield "truncated file", "\n".join(lines[:len(lines) // 2]) + "\n"


def self_test(text, payloads, expect):
    """Names of doctored variants of a clean run file that pass the checks
    (none, when the checks work), or ["clean file"] if it fails them."""
    problems, _ = check_run(text, payloads, expect)
    if any(problems.values()):
        return ["clean file"]
    missed = []
    for name, doctored in _doctorings(text):
        problems, _ = check_run(doctored, payloads, expect)
        if not any(problems.values()):
            missed.append(name)
    return missed

