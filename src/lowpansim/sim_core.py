"""Deterministic discrete-event core and the shared radio medium.

All times are integer microseconds to avoid floating-point drift.  Events at
the same instant run in scheduling order, so a run is a pure function of
(scenario, seed).  `Simulator.now` is the one clock: every component reads
it, and none takes the time as an argument.  `Simulator.at` is the one way
to schedule an event; a delay d from now is `at(now + d, ...)`.  One
random.Random, owned by the simulator, serves every stochastic draw in a
run; components must draw from it in event order only.

Events scheduled before `run()` starts (a harness's whole send plan) form a
sorted agenda; only its next entry waits in the heap, under its original
(time, seq) key, so the heap holds the few events scheduled at run time
instead of the whole plan.  The firing order is the one a single heap gives:
keys are unique, and the agenda's next entry is the least key left in it,
so the heap's least key is the least of every pending event.

The medium models a single channel:

- The link PDR draw decides whether the destination hears a frame at all.
- Every in-range node is occupied (rx-busy) for the duration of any
  transmission it can hear; a frame arriving at an occupied or transmitting
  node is lost and never acknowledged.
- Two transmissions overlapping at one receiver destroy both frames there;
  each copy elsewhere is judged on its own.

Transceiver state lives on the MAC objects (tx_until, rx_busy_until,
current_rx, rx_held, counters), reached through one link map and one
neighbour tuple per node that `add_link` alone builds.  The medium opens a
reception at a frame's destination and marks every neighbour busy; the
receiving MAC closes it.
"""

import heapq
import random


class Simulator:
    """Monotonic event loop over (time_us, seq, fn, args) entries."""

    __slots__ = ("now", "rng", "_heap", "_seq")

    def __init__(self, seed=0):
        self.now = 0
        self.rng = random.Random(seed)
        self._heap = []
        self._seq = 0

    def at(self, t, fn, *args):
        """Schedule fn(*args) at absolute time t, which may be now but not
        earlier.  Every event goes through here."""
        if t < self.now:
            raise ValueError("cannot schedule into the past: %d < %d"
                             % (t, self.now))
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn, args))

    def run(self):
        """Process events in (time, seq) order; return once none is left.
        The events already scheduled form the agenda."""
        heap = self._heap
        # Reversed: the next entry is last, and popping it drops the
        # agenda's reference once it has been handed to the heap.
        agenda = sorted(heap, reverse=True)
        heap.clear()
        nxt = None
        if agenda:
            nxt = agenda.pop()
            heap.append(nxt)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            event = pop(heap)
            if event is nxt and agenda:
                nxt = agenda.pop()
                push(heap, nxt)
            t, _, fn, args = event
            self.now = t
            fn(*args)


class RxState:
    """The frame arriving at its destination while it is still in the air:
    the medium opens it there, a colliding transmission destroys it, and
    the destination's MAC closes it and holds an intact frame's buffer."""

    __slots__ = ("frame", "destroyed")

    def __init__(self, frame):
        self.frame = frame
        self.destroyed = False


class Medium:
    """Single shared channel with per-link PDR and collision semantics;
    `links[node_id]` maps each neighbour's id to its (mac, pdr), and
    `neighbours[node_id]` holds the same macs as a tuple."""

    __slots__ = ("sim", "links", "neighbours")

    def __init__(self, sim):
        self.sim = sim
        self.links = {}
        self.neighbours = {}

    def add_link(self, a, b, pdr):
        """Symmetric audibility between two macs."""
        for x, y in ((a, b), (b, a)):
            links = self.links.setdefault(x.node_id, {})
            links[y.node_id] = (y, pdr)
            self.neighbours[x.node_id] = tuple(mac for mac, _ in
                                               links.values())

    def begin_tx(self, sender, frame):
        """Account a transmission from now until the sender's tx_until at
        every in-range node; return (dest_mac, rx), the reception opened at
        the destination (a neighbor, on a route edge), or None if the frame
        is lost at once."""
        t0, t1 = self.sim.now, sender.tx_until
        dest, pdr = self.links[sender.node_id][frame.dst]
        opened = None
        if pdr < 1.0 and self.sim.rng.random() >= pdr:
            sender.counters.channel_losses += 1
        elif dest.tx_until > t0 or dest.rx_held:
            # Transmitting, or still holding an earlier reception.
            dest.counters.busy_losses += 1
        elif dest.rx_busy_until > t0:
            if dest.current_rx is not None:
                dest.counters.collisions += 1
            else:
                dest.counters.busy_losses += 1
        else:
            dest.current_rx = rx = RxState(frame)
            opened = (dest, rx)
        for nbr in self.neighbours[sender.node_id]:
            if nbr.rx_busy_until < t1:
                nbr.rx_busy_until = t1
            rx = nbr.current_rx
            if rx is not None and rx.frame is not frame:
                rx.destroyed = True
        return opened
