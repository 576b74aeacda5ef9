"""Tests for the per-node 6LoWPAN layer and its forwarding strategies."""

from functools import partial

import pytest

from lowpansim.frag_codec import CompressionHeader, fragment_datagram
from lowpansim.link_mac import CCA_DUR_US, Frame, MacParams, airtime_us
from lowpansim.node_stack import Node, NodeConfig, StackParams, build_datagram
from lowpansim.sim_core import Medium, Simulator

DET = MacParams(min_be=0, max_be=0, rx_handover_us=0)
# Realistic backoff for scenarios with concurrent transmissions: zero-width
# backoff windows cannot spread CCA retries over a busy carrier.  The large
# retry budget makes losses from the CCA-to-TX race window implausible.
REAL = MacParams(max_retransmissions=10, rx_handover_us=0)
PROC = StackParams().proc_delay_us


class Line:
    """source 0 -> forwarders -> sink n-1, all links lossless."""

    def __init__(self, n, strategy, seed=1, stack=None, mac=DET):
        self.sim = Simulator(seed=seed)
        self.medium = Medium(self.sim)
        self.got = []
        self.drops = []
        stack = stack or StackParams()
        self.nodes = []
        for i in range(n):
            role = "source" if i == 0 else ("sink" if i == n - 1 else "forwarder")
            cfg = NodeConfig(id=i,
                             route_next_hop=None if role == "sink" else i + 1,
                             strategy=strategy, rbuf_entries=16, vrb_entries=16)
            node = Node(cfg, self.sim, self.medium, mac, stack,
                        on_datagram=lambda did, data, now: self.got.append(
                            (did, data, now)),
                        on_drop=lambda did, cause, now, i=i: self.drops.append(
                            (i, did, cause)))
            self.nodes.append(node)
        for a, b in zip(self.nodes, self.nodes[1:]):
            self.medium.add_link(a.mac, b.mac, 1.0)

    def send(self, payload_size, dgram_id, at=0):
        self.sim.at(at, partial(self.nodes[0].app_send, payload_size, dgram_id))

    def run(self):
        self.sim.run()
        return self


def tap_deliveries(mac, log):
    inner = mac.on_deliver

    def wrapped(frame, now):
        log.append((frame.dgram_id, frame.fragment.offset, now))
        inner(frame, now)

    mac.on_deliver = wrapped


def test_build_datagram_deterministic_and_sized():
    a = build_datagram(3, 17, 272)
    assert len(a) == 48 + 272
    assert a == build_datagram(3, 17, 272)
    assert a != build_datagram(3, 18, 272)
    assert a != build_datagram(4, 17, 272)


def test_single_frame_latency_closed_form():
    line = Line(2, "HWR")
    line.send(16, 1)
    line.run()
    # payload 16 -> 64-byte datagram -> 24 + 64 - 40 = 48 content bytes,
    # 71 on the wire; latency = CCA turnaround + airtime + processing.
    assert line.got == [(1, build_datagram(0, 1, 16), CCA_DUR_US
                         + airtime_us(71) + PROC)]
    assert line.nodes[0].counters.datagrams_sent == 1
    assert line.nodes[1].counters.datagrams_delivered == 1


@pytest.mark.parametrize("strategy", ["HWR", "FF", "FF_QUEUED"])
def test_unfragmented_forwarding(strategy):
    line = Line(3, strategy)
    line.send(16, 1)
    line.run()
    fwd = line.nodes[1]
    assert line.got == [(1, build_datagram(0, 1, 16),
                         2 * (CCA_DUR_US + airtime_us(71) + PROC))]
    assert fwd.counters.datagrams_forwarded == 1
    assert fwd.rbuf.live_entries == 0 and fwd.vrb.live_entries == 0
    assert fwd.counters.rbuf_timeout == 0 and fwd.counters.vrb_expired == 0


def test_hwr_reassembles_then_refragments():
    line = Line(3, "HWR")
    line.send(272, 7)
    line.run()
    (did, data, _) = line.got[0]
    assert (did, data) == (7, build_datagram(0, 7, 272))
    fwd = line.nodes[1]
    assert fwd.counters.datagrams_forwarded == 1
    assert fwd.counters.frames_sent == 4          # re-fragmented copy
    assert fwd.rbuf.live_entries == 0
    assert line.drops == []
    for node in line.nodes:
        assert node.arena.used == 0
        for nbr in (node.config.id - 1, node.config.id + 1):
            assert node.tags.live_count(nbr) == 0


def test_ff_cut_through_keeps_rbuf_empty():
    line = Line(3, "FF", mac=REAL)
    fwd = line.nodes[1]
    inserts = []
    inner = fwd.rbuf.insert
    fwd.rbuf.insert = lambda *a, **k: (inserts.append(a), inner(*a, **k))[1]
    line.send(272, 7)
    line.run()

    assert line.got[0][:2] == (7, build_datagram(0, 7, 272))
    assert inserts == []                          # pure pass-through
    assert fwd.vrb.live_entries == 0              # released on last fragment
    assert fwd.counters.vrb_expired == 0
    assert fwd.counters.datagrams_forwarded == 1


def test_ff_pipelining_beats_hwr_on_a_long_line():
    # On two hops both links share one collision domain, so cut-through only
    # buys contention; the latency gain needs a line long enough for the
    # store-and-forward stages to dominate.
    lat = {}
    for strategy in ("HWR", "FF"):
        line = Line(6, strategy, mac=REAL)
        line.send(272, 7)
        line.run()
        assert [g[0] for g in line.got] == [7]
        lat[strategy] = line.got[0][2]
    assert lat["FF"] < lat["HWR"]


def inject(line, frags, order, times, dgram_id=42):
    """Hand source fragments straight to the forwarder's radio."""
    fwd = line.nodes[1]
    for idx, t in zip(order, times):
        frame = Frame(0, 1, frags[idx], dgram_id, None)
        line.sim.at(t, partial(fwd.mac.deliver, frame))


def source_frags(payload=272, dgram_id=42):
    datagram = build_datagram(0, dgram_id, payload)
    return fragment_datagram(datagram, CompressionHeader(24), 7, 104,
                             "minimal_first"), datagram


def test_ff_missing_first_fragment_times_out_flagged():
    line = Line(3, "FF")
    frags, _ = source_frags()
    inject(line, frags, [1, 2, 3], [0, 3000, 6000])   # FRAG1 never arrives
    line.run()
    fwd = line.nodes[1]
    assert line.got == []
    assert fwd.counters.rbuf_timeout == 1
    assert fwd.counters.rbuf_timeout_no_first == 1
    assert fwd.counters.vrb_expired == 0
    assert (1, 42, "rbuf_timeout") in line.drops
    assert fwd.counters.datagrams_forwarded == 0
    assert fwd.arena.used == 0


def test_ff_out_of_order_falls_back_to_reassembly():
    line = Line(3, "FF")
    frags, datagram = source_frags()
    inject(line, frags, [1, 0, 2, 3], [0, 3000, 6000, 9000])
    line.run()
    fwd = line.nodes[1]
    assert line.got[0][:2] == (42, datagram)
    assert fwd.counters.datagrams_forwarded == 1
    assert fwd.counters.rbuf_timeout == 0
    assert fwd.vrb.live_entries == 0 and fwd.counters.vrb_expired == 0
    assert line.drops == []


def test_ff_duplicate_first_fragment_ignored():
    line = Line(3, "FF")
    frags, datagram = source_frags()
    inject(line, frags, [0, 0, 1, 2, 3], [0, 3000, 6000, 9000, 12000])
    line.run()
    fwd = line.nodes[1]
    assert fwd.counters.duplicate_fragments == 1
    assert [g[:2] for g in line.got] == [(42, datagram)]


def test_ff_queued_bursts_after_last_fragment():
    line = Line(3, "FF_QUEUED")
    fwd, sink = line.nodes[1], line.nodes[2]
    fwd_rx, sink_rx = [], []
    tap_deliveries(fwd.mac, fwd_rx)
    tap_deliveries(sink.mac, sink_rx)
    line.send(272, 7)
    line.run()

    assert line.got[0][:2] == (7, build_datagram(0, 7, 272))
    last_pass = max(t for _, _, t in fwd_rx)
    # nothing leaves before the datagram has fully passed; then the queued
    # burst goes out back to back, first fragment first.
    first_out = min(t for _, _, t in sink_rx)
    assert first_out == last_pass + PROC + CCA_DUR_US + airtime_us(51)
    assert [off for _, off, _ in sink_rx] == sorted(off for _, off, _ in sink_rx)
    assert fwd.vrb.live_entries == 0
    assert fwd.counters.datagrams_forwarded == 1
    assert fwd.arena.used == 0


@pytest.mark.parametrize("payload", [80, 176, 272, 368])
def test_ff_queued_datagram_order_matches_hwr(payload):
    orders = {}
    for strategy in ("HWR", "FF_QUEUED"):
        line = Line(3, strategy, mac=REAL)
        logs = [[], []]
        tap_deliveries(line.nodes[1].mac, logs[0])
        tap_deliveries(line.nodes[2].mac, logs[1])
        line.send(payload, 1, at=0)
        line.send(payload, 2, at=1000)
        line.run()
        per_hop = []
        for log in logs:
            seen = []
            for did, _, _ in log:
                if did not in seen:
                    seen.append(did)
            per_hop.append(seen)
        orders[strategy] = per_hop
        assert sorted(g[0] for g in line.got) == [1, 2]
    assert orders["HWR"] == orders["FF_QUEUED"]


def test_fragmentation_buffer_full_drops_datagram():
    line = Line(2, "HWR", stack=StackParams(frag_buffer_slots=0))
    line.send(272, 1)
    line.run()
    src = line.nodes[0]
    assert src.counters.datagrams_sent == 1
    assert src.counters.frag_buf_full == 1
    assert line.drops == [(0, 1, "frag_buf_full")]
    assert line.got == []


def test_fragmentation_slot_freed_once_frames_left_the_mac():
    line = Line(2, "HWR", stack=StackParams(frag_buffer_slots=1))
    src = line.nodes[0]
    jobs = []
    line.send(272, 1, at=0)
    line.sim.at(1, lambda: jobs.append(src.frag_jobs))
    line.send(272, 2, at=1)                      # 4 frames still in the MAC
    line.send(272, 3, at=1_000_000)              # long after they left
    line.run()
    assert jobs == [1]
    assert src.counters.frag_buf_full == 1
    assert line.drops == [(0, 2, "frag_buf_full")]
    assert [g[0] for g in line.got] == [1, 3]
    assert src.frag_jobs == 0


def test_ff_queued_arena_drains_after_enqueue_failure():
    # Room for two queued frames only: the third fragment finds the arena
    # full, which drops the datagram and frees everything queued so far.
    # The last fragment then finds no entry and times out in the rbuf.
    frags, _ = source_frags()
    wire = DET.l2_overhead + max(f.content_len for f in frags)
    line = Line(3, "FF_QUEUED", stack=StackParams(arena_bytes=2 * wire + 1))
    inject(line, frags, [0, 1, 2, 3], [0, 3000, 6000, 9000])
    line.run()
    fwd = line.nodes[1]
    assert fwd.counters.pktbuf_full == 1
    assert line.drops == [(1, 42, "pktbuf_full"), (1, 42, "rbuf_timeout")]
    assert fwd.arena.used == 0 and 0 < fwd.arena.high_water <= 2 * wire + 1
    assert fwd.vrb.live_entries == 0 and fwd.rbuf.live_entries == 0
    assert line.got == []


def test_mac_exhaustion_is_attributed_to_the_datagram():
    line = Line(3, "HWR")
    line.nodes[2].mac.tx_until = 10 ** 12    # sink radio never listens
    line.send(272, 7)
    line.run()
    fwd = line.nodes[1]
    assert line.got == []
    assert {d for d in line.drops} == {(1, 7, "retrans_exhausted")}
    assert fwd.counters.l2_retransmissions == 12   # 4 frames x 3 attempts
    assert fwd.tags.live_count(2) == 0
    assert fwd.arena.used == 0


@pytest.mark.parametrize("strategy", ["HWR", "FF", "FF_QUEUED"])
def test_lossless_line_delivers_everything(strategy):
    line = Line(4, strategy, mac=REAL)
    for i, payload in enumerate((16, 272, 1232)):
        line.send(payload, i, at=i * 100)
    line.run()
    assert sorted(g[0] for g in line.got) == [0, 1, 2]
    for did, data, _ in line.got:
        assert data == build_datagram(0, did, (16, 272, 1232)[did])
    assert line.drops == []
    for node in line.nodes:
        assert node.arena.used == 0
        assert node.rbuf.live_entries == 0
        assert node.vrb.live_entries == 0
