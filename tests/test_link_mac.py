"""Tests for the CSMA/CA MAC with acknowledgements and retransmissions."""

import random

import pytest

from lowpansim.buffers import PacketArena
from lowpansim.frag_codec import Fragment
from lowpansim.link_mac import (CCA_DUR_US, UNIT_BACKOFF_US, Frame, Mac,
                                MacParams, airtime_us)
from lowpansim.metrics import NodeCounters
from lowpansim.sim_core import Medium, Simulator


def full_frame():
    # 104 content bytes -> 127 bytes on the wire with 23 bytes L2 overhead.
    return Fragment(None, bytes(120))


def small_frame():
    return Fragment(None, bytes(56))   # 40 content bytes


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
        return lambda frame: self.delivered.append((i, frame, self.sim.now))

    def _done(self, i):
        return lambda frame, cause: self.done.append(
            (i, frame, cause is None, cause))


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


def hold_transceiver(mac, until):
    """Occupy the idle MAC's frame buffer until `until`, as a received
    frame's handover does."""
    mac.rx_held, mac.rx_hold_until = True, until
    mac.sim.at(until, mac._rx_release)


def test_queue_overflow_drops_newest():
    rig = Rig([(1, 2)], params=dict(min_be=0, max_be=0, queue_capacity=2))
    hold_transceiver(rig.macs[1], 10 ** 6)    # transceiver stuck busy
    frames = [Frame(1, 2, small_frame(), dgram_id=i) for i in range(4)]
    for f in frames:
        rig.macs[1].send(f)
    assert rig.macs[1].counters.queue_drops == 2
    dropped = [f.dgram_id for _, f, ok, cause in rig.done if cause == "queue_drop"]
    assert dropped == [2, 3]
    rig.sim.run()
    assert [f.dgram_id for _, f, _ in rig.delivered] == [0, 1]


@pytest.mark.parametrize("hold", (3000, 9000))
def test_queued_frame_starts_when_radio_frees(hold):
    # However long the hold, the queued frame starts exactly at the
    # release, with no earlier wake-up to add to its wait.
    rig = Rig([(1, 2)])
    hold_transceiver(rig.macs[1], hold)
    f = Frame(1, 2, small_frame(), dgram_id=1)
    rig.macs[1].send(f)
    rig.sim.run()
    (_, _, t) = rig.delivered[0]
    assert t == hold + CCA_DUR_US + airtime_us(63)


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


def _past_handover_end(schedule):
    """Node 1 sends a full frame to node 2 under the default 1,000 us
    handover, so the reception ends at 4384 and the hold at 5384;
    `schedule(rig, hold_end)` adds the events under test before the run."""
    rig = Rig([(1, 2), (3, 2)], params=dict(min_be=0, max_be=0))
    assert rig.macs[2].params.rx_handover_us == 1000
    hold_end = 4384 + 1000
    rig.macs[1].send(Frame(src=1, dst=2, fragment=full_frame(), dgram_id=1))
    schedule(rig, hold_end)
    rig.sim.run()
    assert rig.delivered[0][2] == 4384
    return rig, hold_end


def _transmit(rig, mac, frame):
    """Put `frame` on the air from `mac` right now, as the MAC's transmit
    step does, and deliver it at the end if it arrived intact."""
    mac.tx_until = t1 = rig.sim.now + airtime_us(mac.wire_size(frame))
    opened = rig.medium.begin_tx(mac, frame)

    def end():
        if opened is not None:
            dest, rx = opened
            if dest.reception_ended(rx):
                dest.on_deliver(frame)
    rig.sim.at(t1, end)


class _Draws:
    """A random source whose getrandbits returns the given values in turn."""

    def __init__(self, *values):
        self.values = values
        self.used = 0

    def getrandbits(self, k):
        self.used += 1
        return self.values[self.used - 1]


def test_handover_release_ties_go_to_earlier_scheduled_events():
    # Events at the release instant run in scheduling order: one scheduled
    # while the frame was still arriving finds the buffer held, one
    # scheduled after the reception ended finds it free.
    g = Frame(src=3, dst=2, fragment=small_frame(), dgram_id=3)
    for before in (True, False):
        def incoming(rig, hold_end):
            # At the release instant, from an event scheduled at t=0 or at
            # t=4385.
            args = (hold_end, _transmit, rig, rig.macs[3], g)
            if before:
                rig.sim.at(*args)
            else:
                rig.sim.at(4385, lambda: rig.sim.at(*args))

        rig, hold_end = _past_handover_end(incoming)
        assert rig.macs[2].counters.busy_losses == int(before)
        assert ((2, g, hold_end + airtime_us(63)) in rig.delivered) != before

    h = Frame(src=2, dst=1, fragment=small_frame(), dgram_id=2)
    # Node 2 starts a frame whose first backoff ends exactly at the release
    # instant: drawn before the reception ended (4104 + 4 slots) or after
    # it (5064 + 1 slot).  A busy assessment redraws, here 0 slots.
    for before, start, slots in ((True, 4104, 4), (False, 5064, 1)):
        draws = _Draws(slots, 0)

        def start_job(rig):
            mac = rig.macs[2]
            mac.params = mac.params._replace(min_be=3, max_be=3)
            rig.sim.rng = draws          # only node 2 draws from here on
            mac.arena.alloc(mac.wire_size(h))
            mac._start_job(h)

        rig, hold_end = _past_handover_end(
            lambda rig, hold_end: rig.sim.at(start, start_job, rig))
        assert start + slots * UNIT_BACKOFF_US == hold_end
        assert draws.used == 1 + int(before)   # one busy assessment, or none
        assert (1, h, hold_end + CCA_DUR_US + airtime_us(63)) in rig.delivered


class _Clock:
    """Just the simulator surface `Mac._job` uses; records each event
    time instead of queueing the event."""

    def __init__(self, seed):
        self.now = 0
        self.rng = random.Random(seed)
        self.times = []

    def at(self, t, fn, *args):
        self.times.append(t)


def test_backoff_draws_equal_randrange():
    # The channel stays busy and be stays put, so each resumed assessment
    # fails and draws the next backoff from a window of 1 << be slots.
    frame = Frame(1, 2, small_frame(), dgram_id=1)
    for seed in (0, 1, 7, 12345, -3):
        for be in range(9):
            clock = _Clock(seed)
            params = MacParams(min_be=be, max_be=be, max_csma_backoffs=99)
            mac = Mac(1, clock, Medium(clock), params, NodeCounters(),
                      PacketArena(None), None, None)
            mac.rx_held = True
            mac._start_job(frame)
            for _ in range(99):
                next(mac.current)
            ref = random.Random(seed)
            assert clock.times == [ref.randrange(1 << be) * UNIT_BACKOFF_US
                                   for _ in range(100)], (seed, be)
            assert clock.rng.getstate() == ref.getstate()
            assert mac.counters.csma_failures == 0
