"""Tests for the event loop and the radio medium."""

import hashlib
import heapq
import random

import pytest

from lowpansim.metrics import NodeCounters
from lowpansim.sim_core import Medium, Simulator


def test_empty_simulation_stays_at_zero():
    sim = Simulator(seed=1)
    sim.run()
    assert sim.now == 0


def test_events_run_in_time_then_insertion_order():
    sim = Simulator(seed=1)
    order = []
    sim.at(50, lambda: order.append("b"))
    sim.at(10, lambda: order.append("a"))
    sim.at(50, lambda: order.append("c"))  # same time, scheduled later
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 50


def test_nested_scheduling_and_zero_delay():
    sim = Simulator(seed=1)
    seen = []

    def first():
        seen.append(sim.now)
        sim.at(sim.now + 0, lambda: seen.append(sim.now))
        sim.at(sim.now + 5, lambda: seen.append(sim.now))

    sim.at(sim.now + 3, first)
    sim.run()
    assert seen == [3, 3, 8]


def test_negative_delay_rejected():
    sim = Simulator(seed=1)
    checked_at = []

    def schedule_into_past():
        with pytest.raises(ValueError):
            sim.at(sim.now - 1, lambda: None)
        checked_at.append(sim.now)

    sim.at(10, schedule_into_past)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)
    assert checked_at == [10]


def _trace_digest(seed):
    sim = Simulator(seed=seed)
    trace = []

    def tick(i):
        trace.append("%d tick %d draw %.6f" % (sim.now, i, sim.rng.random()))
        if i < 40:
            sim.at(sim.now + sim.rng.randrange(1, 50), lambda: tick(i + 1))

    sim.at(sim.now + 0, lambda: tick(0))
    sim.run()
    return hashlib.sha256("\n".join(trace).encode()).hexdigest()


def test_same_seed_gives_identical_trace():
    assert _trace_digest(42) == _trace_digest(42)
    assert _trace_digest(42) != _trace_digest(43)


class _OneHeapLoop:
    """Reference event loop: every event, scheduled before or during a
    run, waits in one heap under its (time, seq) key."""

    def __init__(self):
        self.now = 0
        self.heap = []
        self.seq = 0

    def at(self, t, fn, *args):
        assert t >= self.now
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, fn, args))

    def run(self):
        while self.heap:
            t, _, fn, args = heapq.heappop(self.heap)
            self.now = t
            fn(*args)


def _random_script(seed):
    """Two batches of pre-run events and, per event, the delays of the
    events it schedules when it fires.  Times and delays are small and
    zero delays common, so pre-run and run-time events share instants."""
    rng = random.Random(seed)
    children = {}
    budget = [rng.randrange(20, 120)]

    def event():
        label = len(children)
        children[label] = []
        if budget[0] > 0 and rng.random() < 0.6:
            for _ in range(rng.randrange(1, 4)):
                budget[0] -= 1
                children[label].append((rng.choice((0, 0, 1, 2, 5)),
                                        event()))
        return label

    batches = [[(rng.randrange(0, 15), event())
                for _ in range(rng.randrange(0, 30))] for _ in range(2)]
    return batches, children


def _firing_order(loop, script):
    """Run the script's two batches, the second after the first drained,
    scheduled relative to the time the first run ended."""
    batches, children = script
    order = []

    def fire(label):
        order.append((loop.now, label))
        for delay, child in children[label]:
            loop.at(loop.now + delay, fire, child)

    for batch in batches:
        start = loop.now
        for t, label in batch:
            loop.at(start + t, fire, label)
        loop.run()
        order.append(("drained", loop.now))
    return order


def test_run_fires_events_in_one_heap_order():
    for seed in range(200):
        script = _random_script(seed)
        expected = _firing_order(_OneHeapLoop(), script)
        assert _firing_order(Simulator(seed=1), script) == expected, seed


class _StubMac:
    """Minimal transceiver-side state the medium interacts with."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.tx_until = 0
        self.rx_busy_until = 0
        self.current_rx = None
        self.counters = NodeCounters()

    def frame_received(self, rx):
        # Instant handover: the buffer frees as soon as reception ends.
        self.current_rx = None


def _stub(node_id):
    return _StubMac(node_id)


def _mk_medium(pdr=1.0, seed=7):
    sim = Simulator(seed=seed)
    medium = Medium(sim)
    a, b = _stub(1), _stub(2)
    medium.register(a)
    medium.register(b)
    medium.add_link(a, b, pdr)
    return sim, medium, a, b


class _Frame:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst


def test_perfect_link_delivers():
    sim, medium, a, b = _mk_medium(pdr=1.0)
    f = _Frame(1, 2)
    medium.begin_tx(a, f, 0, 100)
    assert medium.finish_tx(a, f)[0] is True
    assert b.rx_busy_until == 100


def test_zero_pdr_never_delivers():
    sim, medium, a, b = _mk_medium(pdr=0.0)
    f = _Frame(1, 2)
    medium.begin_tx(a, f, 0, 100)
    assert medium.finish_tx(a, f)[0] is False
    assert a.counters.channel_losses == 1
    # The frame was undecodable but the carrier still occupies the receiver.
    assert b.rx_busy_until == 100


def test_busy_receiver_loses_frame():
    sim, medium, a, b = _mk_medium()
    b.tx_until = 50  # destination transmitting until t=50
    f = _Frame(1, 2)
    medium.begin_tx(a, f, 10, 110)
    assert medium.finish_tx(a, f)[0] is False
    assert b.counters.busy_losses == 1


def test_overlapping_transmissions_destroy_both():
    sim = Simulator(seed=7)
    medium = Medium(sim)
    a, b, c = _stub(1), _stub(2), _stub(3)
    for m in (a, b, c):
        medium.register(m)
    medium.add_link(a, c, 1.0)
    medium.add_link(b, c, 1.0)
    f1 = _Frame(1, 3)
    f2 = _Frame(2, 3)
    medium.begin_tx(a, f1, 0, 100)
    medium.begin_tx(b, f2, 40, 140)   # overlaps at receiver c
    assert medium.finish_tx(a, f1)[0] is False   # destroyed mid-reception
    assert medium.finish_tx(b, f2)[0] is False   # receiver already busy
    assert c.counters.collisions >= 1


def test_back_to_back_transmissions_do_not_collide():
    sim, medium, a, b = _mk_medium()
    f1, f2 = _Frame(1, 2), _Frame(1, 2)
    medium.begin_tx(a, f1, 0, 100)
    assert medium.finish_tx(a, f1)[0] is True
    medium.begin_tx(a, f2, 100, 200)  # starts exactly at the previous end
    assert medium.finish_tx(a, f2)[0] is True


def test_link_pdr_monte_carlo():
    sim, medium, a, b = _mk_medium(pdr=0.975, seed=11)
    delivered = 0
    n = 10_000
    t = 0
    for _ in range(n):
        f = _Frame(1, 2)
        medium.begin_tx(a, f, t, t + 10)
        if medium.finish_tx(a, f)[0]:
            delivered += 1
        t += 20
    assert abs(delivered / n - 0.975) < 0.01
