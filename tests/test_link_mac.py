"""Tests for the CSMA/CA MAC with acknowledgements and retransmissions."""

import random

from lowpansim.buffers import PacketArena
from lowpansim.frag_codec import Fragment
from lowpansim.link_mac import (CCA_DUR_US, UNIT_BACKOFF_US, Frame, Mac,
                                MacParams, _Job, airtime_us)
from lowpansim.metrics import NodeCounters
from lowpansim.sim_core import Medium, Simulator


def full_frame():
    # 104 content bytes -> 127 bytes on the wire with 23 bytes L2 overhead.
    return Fragment(None, bytes(120), 24)


def small_frame():
    return Fragment(None, bytes(56), 24)   # 40 content bytes


# Deterministic MAC: zero backoff windows.
DET = dict(min_be=0, max_be=0, rx_handover_us=0)


class Rig:
    def __init__(self, links, params=None, seed=1):
        self.sim = Simulator(seed=seed)
        self.medium = Medium(self.sim)
        self.macs = {}
        self.delivered = []
        self.done = []
        p = MacParams(**(params or DET))
        ids = sorted({n for link in links for n in link})
        for i in ids:
            self.macs[i] = Mac(i, self.sim, self.medium, p, NodeCounters(),
                               arena=PacketArena(None),
                               on_deliver=self._deliver(i),
                               on_frame_done=self._done(i))
        for a, b in links:
            self.medium.add_link(self.macs[a], self.macs[b], 1.0)

    def _deliver(self, i):
        return lambda frame, now: self.delivered.append((i, frame, now))

    def _done(self, i):
        return lambda frame, ok, cause: self.done.append((i, frame, ok, cause))


def test_airtime_of_full_frame():
    # 6 bytes PHY overhead + 127 bytes at 250 kbit/s = 4256 us.
    assert airtime_us(127) == 4256
    assert airtime_us(11) == 544


def test_single_frame_timing_and_delivery():
    rig = Rig([(1, 2)])
    f = Frame(src=1, dst=2, fragment=full_frame(), dgram_id=1)
    rig.macs[1].send(f)
    rig.sim.run()
    assert rig.done == [(1, f, True, None)]
    # Zero backoff: CCA turnaround + airtime.
    assert rig.delivered == [(2, f, CCA_DUR_US + 4256)]
    assert rig.macs[1].counters.frames_sent == 1
    assert rig.macs[1].counters.l2_retransmissions == 0


def test_fifo_order_preserved():
    rig = Rig([(1, 2)])
    frames = [Frame(1, 2, small_frame(), dgram_id=i) for i in range(5)]
    for f in frames:
        rig.macs[1].send(f)
    rig.sim.run()
    assert [f.dgram_id for _, f, _ in rig.delivered] == [0, 1, 2, 3, 4]


def test_busy_receiver_exhausts_retransmissions():
    rig = Rig([(1, 2)])
    rig.macs[2].tx_until = 10 ** 9    # receiver stuck transmitting
    f = Frame(1, 2, small_frame(), dgram_id=1)
    rig.macs[1].send(f)
    rig.sim.run()
    assert rig.done == [(1, f, False, "retrans_exhausted")]
    # Four attempts total (one initial, three resends); the final failure
    # is not followed by a resend so it does not count as one.
    assert rig.macs[1].counters.l2_retransmissions == 3
    assert rig.macs[1].counters.frames_sent == 4
    assert rig.macs[2].counters.busy_losses == 4
    assert rig.delivered == []


def test_csma_failure_counts_as_retransmission():
    rig = Rig([(1, 2)])
    rig.macs[1].rx_busy_until = 10 ** 9   # channel never clear at the sender
    f = Frame(1, 2, small_frame(), dgram_id=1)
    rig.macs[1].send(f)
    rig.sim.run()
    assert rig.done == [(1, f, False, "retrans_exhausted")]
    assert rig.macs[1].counters.csma_failures == 4
    assert rig.macs[1].counters.l2_retransmissions == 3
    assert rig.macs[1].counters.frames_sent == 0   # never reached the air


def test_queue_overflow_drops_newest():
    rig = Rig([(1, 2)], params=dict(min_be=0, max_be=0, queue_capacity=2))
    rig.macs[1].tx_until = 10 ** 6    # transceiver stuck transmitting
    frames = [Frame(1, 2, small_frame(), dgram_id=i) for i in range(4)]
    for f in frames:
        rig.macs[1].send(f)
    assert rig.macs[1].counters.queue_drops == 2
    dropped = [f.dgram_id for _, f, ok, cause in rig.done if cause == "queue_drop"]
    assert dropped == [2, 3]
    rig.sim.run()
    assert [f.dgram_id for _, f, _ in rig.delivered] == [0, 1]


def test_queued_frame_starts_when_radio_frees():
    rig = Rig([(1, 2)])
    rig.macs[1].tx_until = 3000   # frees before the 5 ms retry cap
    f = Frame(1, 2, small_frame(), dgram_id=1)
    rig.macs[1].send(f)
    rig.sim.run()
    (_, _, t) = rig.delivered[0]
    assert t == 3000 + CCA_DUR_US + airtime_us(63)


def test_queued_frame_retries_every_5ms_while_busy():
    rig = Rig([(1, 2)])
    rig.macs[1].tx_until = 9000   # past the first 5 ms service retry
    f = Frame(1, 2, small_frame(), dgram_id=1)
    rig.macs[1].send(f)
    rig.sim.run()
    (_, _, t) = rig.delivered[0]
    assert t == 9000 + CCA_DUR_US + airtime_us(63)


def test_hidden_senders_collide_then_recover():
    # 1 and 3 both reach 2 but cannot hear each other.  Their backoff windows
    # (0..7 slots = 0..2240 us) are shorter than the frame airtime, so the
    # first attempts always overlap at 2.  Escape is a random walk of the two
    # retry anchors, which can stay in collision range for many rounds, so
    # give the MAC a very generous retry budget.
    rig = Rig([(1, 2), (3, 2)], params=dict(max_retransmissions=25))
    f1 = Frame(1, 2, small_frame(), dgram_id=1)
    f3 = Frame(3, 2, small_frame(), dgram_id=3)
    rig.macs[1].send(f1)
    rig.macs[3].send(f3)
    rig.sim.run()
    assert sorted(f.dgram_id for _, f, _ in rig.delivered) == [1, 3]
    assert rig.macs[2].counters.collisions >= 1
    retrans = (rig.macs[1].counters.l2_retransmissions +
               rig.macs[3].counters.l2_retransmissions)
    assert retrans >= 2


# -- receive-side handover window -----------------------------------------


def test_trailing_frame_hits_handover_window():
    # Back-to-back frames to one receiver with a 2 ms handover hold.  The
    # second frame's first attempt lands while the first still occupies the
    # frame buffer: no ack, one retransmission, then success.
    rig = Rig([(1, 2)], params=dict(min_be=0, max_be=0, rx_handover_us=2000))
    f1 = Frame(src=1, dst=2, fragment=full_frame(), dgram_id=1)
    f2 = Frame(src=1, dst=2, fragment=full_frame(), dgram_id=2)
    rig.macs[1].send(f1)
    rig.macs[1].send(f2)
    rig.sim.run()
    # f1: CCA 128 + airtime 4256.  f2 attempt 1 starts at 4384 and transmits
    # [4512, 8768] into the hold (until 6384); attempt 2 begins one ack
    # timeout later at 9632 and lands [9760, 14016] on a free buffer.
    assert rig.delivered == [(2, f1, 4384), (2, f2, 14016)]
    assert rig.macs[2].counters.busy_losses == 1
    assert rig.macs[1].counters.l2_retransmissions == 1
    assert rig.macs[1].counters.frames_sent == 3
    assert [ok for (_, _, ok, _) in rig.done] == [True, True]


def test_handover_window_can_exhaust_retries():
    rig = Rig([(1, 2)], params=dict(min_be=0, max_be=0, rx_handover_us=20000,
                                    max_retransmissions=2))
    f1 = Frame(src=1, dst=2, fragment=full_frame(), dgram_id=1)
    f2 = Frame(src=1, dst=2, fragment=full_frame(), dgram_id=2)
    rig.macs[1].send(f1)
    rig.macs[1].send(f2)
    rig.sim.run()
    # Hold runs until 24384; all three f2 attempts (tx starts 4512, 9760
    # and 15008) fall inside it.
    assert rig.delivered == [(2, f1, 4384)]
    assert rig.done[-1] == (1, f2, False, "retrans_exhausted")
    assert rig.macs[2].counters.busy_losses == 3


def test_own_send_waits_for_handover():
    # A frame sitting in the buffer blocks the holder's own transmit path;
    # the queued frame goes out the instant the buffer frees.
    rig = Rig([(1, 2)], params=dict(min_be=0, max_be=0, rx_handover_us=2000))
    f1 = Frame(src=1, dst=2, fragment=full_frame(), dgram_id=1)
    g = Frame(src=2, dst=1, fragment=small_frame(), dgram_id=2)
    rig.macs[1].send(f1)
    rig.sim.at(4484, lambda: rig.macs[2].send(g))   # inside the hold
    rig.sim.run()
    # Release at 6384, then CCA 128 + airtime of a 63-byte frame (2208).
    assert (1, g, 6384 + 128 + 2208) in rig.delivered
    assert rig.macs[2].counters.l2_retransmissions == 0


class _Clock:
    """Just the simulator surface `Mac._backoff` uses; records each event
    time instead of queueing the event."""

    def __init__(self, seed):
        self.now = 0
        self.rng = random.Random(seed)
        self.times = []

    def at(self, t, fn, *args):
        self.times.append(t)


def test_backoff_draws_equal_randrange():
    frame = Frame(1, 2, small_frame(), dgram_id=1)
    for seed in (0, 1, 7, 12345, -3):
        for be in range(9):
            clock = _Clock(seed)
            mac = Mac(1, clock, Medium(clock), MacParams(), NodeCounters(),
                      PacketArena(None), None, None)
            job = _Job(frame, mac.wire_size(frame))
            job.be = be
            for _ in range(100):
                mac._backoff(job)
            ref = random.Random(seed)
            assert clock.times == [ref.randrange(1 << be) * UNIT_BACKOFF_US
                                   for _ in range(100)], (seed, be)
            assert clock.rng.getstate() == ref.getstate()
