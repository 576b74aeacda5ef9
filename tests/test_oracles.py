"""Oracles: closed forms the model must meet.

On a 3-node line (sender 2, forwarder 1, sink 0) with serialized sends, no
receive handover and unbounded tables, a datagram contends only with its
own frames.  A frame crosses a hop within its max_retransmissions + 1
attempts with probability f = 1 - (1 - p)^4, so a datagram of k fragments
arrives with probability f^(2k) when the forwarder sends only once the
whole datagram has arrived (HWR, FF_QUEUED).  FF sends while fragments are
still arriving and falls short of that.  On a lossless 6-node line, HWR's
latency grows linearly with hop count and FF_QUEUED matches it.  Two
hidden senders, driving the MAC and the medium directly, deliver both of
their frames exactly when their backoff draws are far enough apart; two
exposed senders, which hear each other, collide, fail CCA, hit a held
buffer or both arrive, each in a closed-form share of draws.

Seeds are fixed, so every result is deterministic.  The bounds (4 standard
deviations, 10 % and 1 %) were set before the results were seen; a failure
means the model moved, never that a bound should widen.
"""

import functools
import math
import statistics
from collections import Counter
from fractions import Fraction

import pytest

from lowpansim.buffers import PacketArena
from lowpansim.frag_codec import COMP_HEADER_BYTES, HEADER_REGION, Fragment
from lowpansim.harness import Scenario, _simulate
from lowpansim.link_mac import (CCA_DUR_US, L2_OVERHEAD, UNIT_BACKOFF_US,
                                Frame, Mac, MacParams, airtime_us)
from lowpansim.metrics import NodeCounters
from lowpansim.node_stack import StackParams
from lowpansim.sim_core import Medium, Simulator
from test_harness import line_topology

SEEDS = (1, 2, 3)
DATAGRAMS = 1000            # per seed
# (link PDR, fragments per datagram, payload bytes)
CASES = ((0.7, 4, 272), (0.8, 8, 656), (0.6, 2, 80))


def line_scenario(strategy, payload, packets, **settings):
    """Serialized sends every 2-3 s with unbounded tables, fragmentation
    slots and arena."""
    return Scenario(topology="line", strategy=strategy, payloads=(payload,),
                    interval_us=(2_000_000, 3_000_000),
                    packets_per_source=packets, seeds=(1,),
                    serialize_sends=True, rbuf_entries=None,
                    sink_rbuf_entries=None, vrb_entries=None,
                    stack=StackParams(frag_buffer_slots=None,
                                      arena_bytes=None), **settings)


def simulate_line(nodes, scenario, seed):
    """One invariant-clean run on a line of `nodes` nodes."""
    payload, = scenario.payloads
    record = _simulate(scenario, line_topology(nodes), seed, payload)
    assert record.violations == []
    return record


@pytest.fixture(scope="module")
def simulate():
    """simulate_line, memoized across this module's tests."""
    return functools.cache(simulate_line)


def lossy_pdr(simulate, strategy, p, k, payload):
    """Pooled (delivered, sent) over the seeds on the lossy 3-node line."""
    scenario = line_scenario(strategy, payload, DATAGRAMS, force_link_pdr=p,
                             mac=MacParams(rx_handover_us=0))
    records = [simulate(3, scenario, seed) for seed in SEEDS]
    assert {r.frag_count for r in records} == {k}
    return (sum(r.delivered for r in records),
            sum(r.sent for r in records))


@pytest.mark.parametrize("strategy", ("HWR", "FF_QUEUED"))
@pytest.mark.parametrize("p, k, payload", CASES)
def test_store_and_forward_pdr_meets_closed_form(simulate, strategy, p, k,
                                                 payload):
    attempts = MacParams().max_retransmissions + 1
    expected = (1 - (1 - p) ** attempts) ** (2 * k)
    delivered, sent = lossy_pdr(simulate, strategy, p, k, payload)
    sd = math.sqrt(expected * (1 - expected) / sent)
    z = (delivered / sent - expected) / sd
    assert abs(z) <= 4, (strategy, p, k, delivered / sent, expected, z)


def test_direct_forwarding_falls_below_hop_wise_reassembly(simulate):
    # The abstract's mechanism: FF's fragment train interferes with itself
    # on the forwarder's two links.  At k = 4 the margin is too thin to
    # assert.
    p, k, payload = 0.8, 8, 656
    pdr = {}
    for strategy in ("HWR", "FF"):
        delivered, sent = lossy_pdr(simulate, strategy, p, k, payload)
        pdr[strategy] = (delivered / sent, sent)
    (hwr, n_hwr), (ff, n_ff) = pdr["HWR"], pdr["FF"]
    sd = math.sqrt(hwr * (1 - hwr) / n_hwr + ff * (1 - ff) / n_ff)
    assert hwr - ff > 4 * sd, (hwr, ff, sd)


# The lossless oracle's MAC, as in test_a04: every loss mechanism off and a
# backoff window wider than one frame airtime.
LOSSLESS_MAC = MacParams(max_retransmissions=10_000, queue_capacity=None,
                         min_be=6, max_be=8)


def lossless_line(simulate, strategy):
    """Median latency by hop distance and the total L2 retransmissions of
    100 datagrams of 1232 B per sender on a lossless 6-node line."""
    scenario = line_scenario(strategy, 1232, 100, force_link_pdr=1.0,
                             mac=LOSSLESS_MAC)
    record = simulate(6, scenario, 1)
    assert record.delivered == record.sent == 400
    hops = {}
    for row in record.latency:
        hops.setdefault(row.hop_distance, []).append(row.latency_us)
    medians = {h: statistics.median(v) for h, v in sorted(hops.items())}
    return medians, sum(row.l2_retransmissions for row in record.nodes)


def test_lossless_line_latency_is_linear_in_hops(simulate):
    medians, _ = lossless_line(simulate, "HWR")
    assert list(medians) == [2, 3, 4, 5]
    steps = [b - a for a, b in zip(medians.values(),
                                   list(medians.values())[1:])]
    mean = statistics.mean(steps)
    for step in steps:
        assert abs(step - mean) <= 0.1 * mean, (steps, mean)


def test_lossless_line_queued_forwarding_matches_reassembly(simulate):
    hwr, _ = lossless_line(simulate, "HWR")
    queued, _ = lossless_line(simulate, "FF_QUEUED")
    assert list(queued) == list(hwr)
    for hops, median in hwr.items():
        assert abs(queued[hops] - median) <= 0.01 * median, (hops, queued,
                                                             hwr)


def test_lossless_line_direct_forwarding_retransmits_more(simulate):
    _, hwr = lossless_line(simulate, "HWR")
    _, ff = lossless_line(simulate, "FF")
    assert ff > hwr, (ff, hwr)


# -- contention between two hidden senders --------------------------------

# Frames of 124 wire bytes: 101 content bytes and the 23 bytes of
# link-layer overhead.  The content is an unfragmented datagram whose
# 40-byte header region travels as the 24-byte compressed header.
HIDDEN_FRAME_BYTES = 124
HIDDEN_SEEDS = range(1, 10_001)


def contending_pair(be, handover, seed, exposed=False):
    """Senders 1 and 2 each send one frame to node 0 at t = 0 over
    lossless links, with one backoff of 1 << be slots and a single
    attempt; they hear each other only when `exposed`.  Return how many of
    the two frames arrive and each node's counters."""
    params = MacParams(min_be=be, max_be=be, max_csma_backoffs=0,
                       max_retransmissions=0, rx_handover_us=handover)
    sim = Simulator(seed=seed)
    medium = Medium(sim)
    delivered = []
    counters = [NodeCounters() for _ in range(3)]
    macs = [Mac(i, sim, medium, params, counters[i], PacketArena(None),
                on_deliver=delivered.append,
                on_frame_done=lambda frame, cause: None)
            for i in range(3)]
    medium.add_link(macs[1], macs[0], 1.0)
    medium.add_link(macs[2], macs[0], 1.0)
    if exposed:
        medium.add_link(macs[1], macs[2], 1.0)
    payload = bytes(HIDDEN_FRAME_BYTES - L2_OVERHEAD + HEADER_REGION
                    - COMP_HEADER_BYTES)
    for i in (1, 2):
        macs[i].send(Frame(i, 0, Fragment(None, payload), dgram_id=i))
    sim.run()
    return len(delivered), counters


@pytest.mark.parametrize("handover", (0, 1000))
@pytest.mark.parametrize("be", (4, 5, 6))
def test_hidden_senders_both_arrive_with_closed_form_probability(be,
                                                                 handover):
    # Each sender draws one backoff of a uniform 0..N-1 slots, N = 1 << be,
    # and then transmits after the CCA turnaround.  Neither hears the
    # other, so the later frame reaches the receiver intact only if the
    # earlier one has ended and its handover is over: both arrive exactly
    # when the draws differ by at least g slots, g = ceil((airtime +
    # handover) / slot), and P = sum over d = g..N-1 of 2 (N - d) / N^2.
    n = 1 << be
    gap = -(-(airtime_us(HIDDEN_FRAME_BYTES) + handover) // UNIT_BACKOFF_US)
    expected = Fraction(sum(2 * (n - d) for d in range(gap, n)), n * n)
    both = sum(contending_pair(be, handover, seed)[0] == 2
               for seed in HIDDEN_SEEDS)
    trials = len(HIDDEN_SEEDS)
    # At be 4 with the handover no gap is wide enough: P and sd are 0.
    sd = math.sqrt(expected * (1 - expected) / trials)
    assert abs(both / trials - expected) <= 4 * sd, (
        be, handover, both / trials, float(expected), sd)


# -- contention between two exposed senders ------------------------------

EXPOSED_SEEDS = range(1, 4_001)


def exposed_outcome(be, handover, seed):
    """Which of the four outcomes one exposed pair's trial had, or None if
    it had none of them."""
    delivered, counters = contending_pair(be, handover, seed, exposed=True)
    csma = sum(c.csma_failures for c in counters)
    busy = sum(c.busy_losses for c in counters)
    collided = counters[0].collisions > 0
    if delivered == 0 and collided and not csma and not busy:
        return "collision"
    if delivered == 1 and csma == 1 and not busy and not collided:
        return "csma_failure"
    if delivered == 1 and busy == 1 and not csma and not collided:
        return "busy_loss"
    if delivered == 2 and not csma and not busy and not collided:
        return "both"
    return None


@pytest.mark.parametrize("handover", (0, 1000))
@pytest.mark.parametrize("be", (4, 5, 6))
def test_exposed_senders_outcomes_have_closed_form_probabilities(be,
                                                                 handover):
    # The senders hear each other, and each draws one backoff of a uniform
    # 0..N-1 slots, N = 1 << be; let d be the difference of the draws.
    # Equal draws (d = 0, P = 1/N) pass both CCAs at one instant, and the
    # two frames collide at the receiver.  Otherwise P(d) = 2 (N - d) / N^2.
    # The later CCA falls inside the earlier frame's turnaround and airtime
    # below g1 = ceil((CCA + airtime) / slot) and fails; at or above g1 the
    # later frame reaches a receiver still holding the earlier one below
    # g2 = ceil((airtime + handover) / slot); past both, both arrive.
    n = 1 << be
    airtime = airtime_us(HIDDEN_FRAME_BYTES)
    g1 = -(-(CCA_DUR_US + airtime) // UNIT_BACKOFF_US)
    g2 = -(-(airtime + handover) // UNIT_BACKOFF_US)
    assert (g1, g2) == (14, 13 if handover == 0 else 17)

    def p(lo, hi):
        return Fraction(sum(2 * (n - d) for d in range(max(lo, 1), hi)),
                        n * n)
    expected = {"collision": Fraction(1, n),
                "csma_failure": p(1, g1),
                "busy_loss": p(g1, g2),
                "both": p(max(g1, g2), n)}
    assert sum(expected.values()) == 1
    seen = Counter(exposed_outcome(be, handover, seed)
                   for seed in EXPOSED_SEEDS)
    assert None not in seen, seen
    trials = len(EXPOSED_SEEDS)
    for outcome, prob in expected.items():
        sd = math.sqrt(prob * (1 - prob) / trials)
        assert abs(seen[outcome] / trials - prob) <= 4 * sd, (
            be, handover, outcome, seen[outcome] / trials, float(prob), sd)
