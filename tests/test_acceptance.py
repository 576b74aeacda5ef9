"""Acceptance checks, one test per criterion.

`pytest -v tests/test_acceptance.py` prints one PASSED/FAILED line per
criterion; add -rA to also see the measured values each test prints.  The
criteria that run whole experiments are marked `slow`; `-m "not slow"`
leaves them out.

The lossy trend criteria (a05-a09) share three experiment runs, one per
forwarding strategy, on the packaged 50-node topology: all fourteen payload
sizes, 3 seeds, 100 packets per source, send interval [5, 10] s, reassembly
buffers 1 per forwarder / 16 at the sink with a 10 s timeout.  The lossless
oracle (a04) runs the same topology with every loss mechanism disabled.
"""

import hashlib
import time
from functools import partial
from importlib import resources

import pytest

from lowpansim.buffers import ARENA_ENTRY_BYTES, NAIVE_ENTRY_BYTES, mem_usage
from lowpansim.frag_codec import (Frag1Header, FragNHeader, decode_header,
                                  encode_header, fragment_count)
from lowpansim.harness import (STUDY_PAYLOADS, Scenario, aggregate_runs,
                               read_run_file, run_experiment)
from lowpansim.link_mac import MacParams
from lowpansim.node_stack import HEADER_BYTES, Node, NodeConfig, StackParams
from lowpansim.sim_core import Medium, Simulator

from test_frag_codec import FRAG_COUNT_TABLE

TOPOLOGY = resources.files("lowpansim.data") / "topology50.txt"
STRATEGIES = ("HWR", "FF", "FF_QUEUED")
RUNTIME_BUDGET_S = 300.0


def _trend_scenario(strategy):
    return Scenario(topology=str(TOPOLOGY), strategy=strategy,
                    payloads=STUDY_PAYLOADS,
                    interval_us=(5_000_000, 10_000_000),
                    seeds=(1, 2, 3), packets_per_source=100)


@pytest.fixture(scope="module")
def trend(tmp_path_factory):
    """aggregate.json contents and wall time per strategy, computed once."""
    out = {}
    for strategy in STRATEGIES:
        outdir = tmp_path_factory.mktemp("trend-" + strategy)
        t0 = time.monotonic()
        paths, _ = run_experiment(_trend_scenario(strategy), outdir)
        wall = time.monotonic() - t0
        runs = [read_run_file(p) for p in paths[:-1]]
        out[strategy] = (aggregate_runs(runs), wall)
    return out


@pytest.fixture(scope="module")
def lossless(tmp_path_factory):
    # Every loss mechanism off: link pdr 1.0, unbounded buffers and queues,
    # a deep retry budget, serialized sends, and a backoff window wider than
    # one frame airtime.  The last two matter because mutually hidden senders
    # with identical airtimes on a loss-free channel can phase-lock and
    # collide on every retry; direct forwarding even does this to itself,
    # two hops apart inside a single fragment train.
    out = {}
    for strategy in STRATEGIES:
        scn = Scenario(topology=str(TOPOLOGY), strategy=strategy,
                       payloads=STUDY_PAYLOADS,
                       interval_us=(2_000_000, 3_000_000),
                       seeds=(1,), packets_per_source=10,
                       force_link_pdr=1.0, serialize_sends=True,
                       rbuf_entries=None, sink_rbuf_entries=None,
                       vrb_entries=None,
                       mac=MacParams(max_retransmissions=10_000,
                                     queue_capacity=None,
                                     min_be=6, max_be=8),
                       stack=StackParams(frag_buffer_slots=None,
                                         arena_bytes=None))
        outdir = tmp_path_factory.mktemp("lossless-" + strategy)
        paths, _ = run_experiment(scn, outdir)
        out[strategy] = aggregate_runs([read_run_file(p)
                                        for p in paths[:-1]])
    return out


def test_a01_codec_round_trip_exhaustive():
    # Every 11-bit datagram size x 256 sampled (tag, offset) pairs covering
    # all 256 tag samples and all 256 offset values, FRAG1 and FRAGN each.
    t0 = time.monotonic()
    checked = 0
    for size in range(2048):
        for i in range(256):
            tag = (size * 131 + i * 257) & 0xFFFF
            h1 = Frag1Header(size, tag)
            assert decode_header(encode_header(h1) + b"x") == h1
            hn = FragNHeader(size, tag, i)
            assert decode_header(encode_header(hn) + b"x") == hn
            checked += 2
    wall = time.monotonic() - t0
    print("a01 codec round-trip: PASS (%d headers, %.1f s)" % (checked, wall))
    assert wall < 10.0


def test_a02_fragment_count_table_exact():
    rows, mismatches = [], []
    for payload, expected in FRAG_COUNT_TABLE:
        minimal = fragment_count(payload + HEADER_BYTES, "minimal_first")
        fill = fragment_count(payload + HEADER_BYTES, "fill_first")
        rows.append((payload, minimal))
        if minimal != expected or fill != expected:
            mismatches.append(
                "payload %d: expected %d fragments, got %d (minimal) / %d "
                "(fill)" % (payload, expected, minimal, fill))
    print("a02 fragment-count table: %s (%d rows)"
          % ("PASS" if not mismatches else "FAIL %r" % mismatches, len(rows)))
    assert mismatches == []
    assert [payload for payload, _ in rows] == list(STUDY_PAYLOADS)
    assert [count for _, count in rows] == [c for _, c in FRAG_COUNT_TABLE]


def test_a03_memory_accounting_exact():
    assert NAIVE_ENTRY_BYTES == 1302
    assert ARENA_ENTRY_BYTES == 22
    for n in (0, 1, 4, 16, 50):
        assert mem_usage("naive", n) == n * 1302
        assert mem_usage("arena", n) == n * 22
    assert mem_usage("arena", 1, arena_used=1280) == 22 + 1280
    print("a03 memory accounting: PASS (naive n*1302, arena n*22, exact)")


@pytest.mark.slow
def test_a04_lossless_pdr_is_exactly_one(lossless):
    bad = []
    for strategy in STRATEGIES:
        agg = lossless[strategy]
        for payload, entry in sorted(agg["per_payload"].items(), key=lambda kv: int(kv[0])):
            if entry["pdr_mean"] != 1.0:
                bad.append((strategy, payload, entry["pdr_mean"]))
    print("a04 lossless sanity: %s"
          % ("PASS (pdr 1.000, 3 strategies x 14 payloads)" if not bad
             else "FAIL %r" % bad))
    assert bad == []


@pytest.mark.slow
def test_a05_ff_reliability_collapse(trend):
    hwr, hwr_wall = trend["HWR"]
    ff, ff_wall = trend["FF"]
    ratios = {}
    for payload, entry in ff["per_payload"].items():
        k = entry["frag_count"]
        if k >= 2:
            ratios[k] = entry["pdr_mean"] / hwr["per_payload"][payload]["pdr_mean"]
    above = {k: round(r, 3) for k, r in sorted(ratios.items()) if r >= 0.5}
    series = [e["pdr_mean"] for e in
              sorted(ff["per_payload"].values(), key=lambda e: e["frag_count"])]
    non_monotone = [i for i in range(len(series) - 1)
                    if series[i + 1] > series[i] + 0.05]
    print("a05 reliability collapse: %s (FF/HWR by fragment count: %s; "
          "walls %.0f s / %.0f s)"
          % ("PASS" if not above and not non_monotone else "FAIL",
             {k: round(r, 3) for k, r in sorted(ratios.items())},
             hwr_wall, ff_wall))
    assert hwr_wall < RUNTIME_BUDGET_S and ff_wall < RUNTIME_BUDGET_S
    assert non_monotone == [], "FF PDR rises with fragment count: %r" % series
    assert above == {}, "FF PDR not below half of HWR at: %r" % above


@pytest.mark.slow
def test_a06_ff_retransmission_gap(trend):
    hwr, _ = trend["HWR"]
    ff, _ = trend["FF"]
    ratios = {}
    for payload, entry in ff["per_payload"].items():
        k = entry["frag_count"]
        if k >= 4:
            ratios[k] = (entry["l2_retransmissions_per_node_mean"]
                         / hwr["per_payload"][payload]["l2_retransmissions_per_node_mean"])
    low = {k: round(r, 2) for k, r in sorted(ratios.items()) if r < 2.0}
    print("a06 retransmission gap: %s (FF/HWR per-node means at >=4 "
          "fragments: %s)"
          % ("PASS" if not low else "FAIL",
             {k: round(r, 2) for k, r in sorted(ratios.items())}))
    assert low == {}, "FF/HWR retransmission ratio below 2x at: %r" % low


def _line_trace(strategy, payload):
    """Per-hop first-seen datagram order on a lossless 3-node line."""
    sim = Simulator(seed=9)
    medium = Medium(sim)
    nodes = {}
    got = []
    for nid in (0, 1, 2):
        cfg = NodeConfig(id=nid,
                         route_next_hop=nid - 1 if nid else None,
                         strategy=strategy, rbuf_entries=16, vrb_entries=16)
        # Deep retry budget: the control asks about ordering, not loss.
        nodes[nid] = Node(cfg, sim, medium, MacParams(max_retransmissions=64),
                          StackParams(),
                          on_datagram=lambda did, data: got.append(did),
                          on_drop=lambda did, cause: None)
    medium.add_link(nodes[0].mac, nodes[1].mac, 1.0)
    medium.add_link(nodes[1].mac, nodes[2].mac, 1.0)
    order = {0: [], 1: []}
    for nid in (0, 1):
        mac = nodes[nid].mac
        inner, seen = mac.on_deliver, order[nid]

        def tap(frame, inner=inner, seen=seen):
            if frame.dgram_id not in seen:
                seen.append(frame.dgram_id)
            inner(frame)

        mac.on_deliver = tap
    t = 0
    for i in range(1, 13):   # overlapping trains: gap < train airtime
        t += sim.rng.randint(30_000, 50_000)
        sim.at(t, partial(nodes[2].app_send, payload, i))
    sim.run()
    return order, got


@pytest.mark.slow
def test_a07_queued_ff_tracks_hwr(trend):
    hwr, _ = trend["HWR"]
    ffq, ffq_wall = trend["FF_QUEUED"]
    pdr_gap, rtx = {}, ([], [])
    for payload, entry in ffq["per_payload"].items():
        h = hwr["per_payload"][payload]
        pdr_gap[h["frag_count"]] = entry["pdr_mean"] / h["pdr_mean"] - 1.0
        rtx[0].append(h["l2_retransmissions_per_node_mean"])
        rtx[1].append(entry["l2_retransmissions_per_node_mean"])
    worst = max(pdr_gap.items(), key=lambda kv: abs(kv[1]))
    rtx_gap = sum(rtx[1]) / sum(rtx[0]) - 1.0
    # Order-equality control: identical per-hop datagram order on a
    # lossless line for 2..5-fragment datagrams.
    mismatched = []
    for payload in (80, 176, 272, 368):
        if _line_trace("HWR", payload) != _line_trace("FF_QUEUED", payload):
            mismatched.append(payload)
    ok = abs(worst[1]) <= 0.10 and abs(rtx_gap) <= 0.25 and not mismatched
    print("a07 queued-FF control: %s (worst PDR gap %+.0f%% at %d fragments, "
          "retransmission gap %+.0f%%, trace mismatches %r; wall %.0f s)"
          % ("PASS" if ok else "FAIL", worst[1] * 100, worst[0],
             rtx_gap * 100, mismatched, ffq_wall))
    assert ffq_wall < RUNTIME_BUDGET_S
    assert mismatched == []
    assert abs(rtx_gap) <= 0.25, "FFQ/HWR retransmission gap %+.2f" % rtx_gap
    assert abs(worst[1]) <= 0.10, \
        "FFQ PDR deviates %+.1f%% from HWR at %d fragments" \
        % (worst[1] * 100, worst[0])


@pytest.mark.slow
def test_a08_first_fragment_missing_share(trend):
    # On forwarders specifically.  Their reassembly entries exist only via
    # the mapping-table-full fallback, and an orphaned trailing fragment is
    # by far the most common way to enter it, so this share sits near 1
    # here; the share pooled over all reassembling nodes (printed alongside)
    # is where the mid-train losses show up.
    rbuf = trend["FF"][0]["rbuf"]
    share = rbuf["no_first_share_others"]
    pooled = rbuf["no_first_share_all"]
    ok = share is not None and 0.30 <= share <= 0.80
    print("a08 first-fragment-missing share: %s (forwarders %.2f, band "
          "0.30-0.80; pooled over all nodes %.2f)"
          % ("PASS" if ok else "FAIL", -1 if share is None else share,
             -1 if pooled is None else pooled))
    assert ok, "forwarder share %r outside 0.30-0.80" % share


@pytest.mark.slow
def test_a09_rbuf_full_ratio(trend):
    def fulls(agg):
        return agg["rbuf"]["rbuf_full_sink"] + agg["rbuf"]["rbuf_full_others"]

    ratio = fulls(trend["FF"][0]) / fulls(trend["HWR"][0])
    ok = 0.5 < ratio < 1.0
    print("a09 rbuf-full ratio: %s (FF/HWR = %.2f, band 0.5-1.0)"
          % ("PASS" if ok else "FAIL", ratio))
    assert ok, "rbuf-full ratio %.3f outside (0.5, 1.0)" % ratio


@pytest.mark.slow
def test_a10_invariants_zero_violations(trend, lossless):
    counts = {s: trend[s][0]["violations"] for s in STRATEGIES}
    counts.update({"lossless-" + s: lossless[s]["violations"]
                   for s in STRATEGIES})
    total = sum(counts.values())
    print("a10 invariants: %s (%r)"
          % ("PASS" if total == 0 else "FAIL", counts))
    assert total == 0


@pytest.mark.slow
def test_a11_deterministic_outputs(tmp_path):
    scn = Scenario(topology=str(TOPOLOGY), strategy="FF",
                   payloads=(80, 656), interval_us=(5_000_000, 10_000_000),
                   seeds=(1,), packets_per_source=100)
    digests = []
    for name in ("first", "second"):
        paths, _ = run_experiment(scn, tmp_path / name)
        digests.append([(p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                        for p in paths])
    print("a11 determinism: %s (%d files byte-identical)"
          % ("PASS" if digests[0] == digests[1] else "FAIL",
             len(digests[0])))
    assert digests[0] == digests[1]
