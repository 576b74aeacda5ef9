"""Deterministic discrete-event core and the shared radio medium.

All times are integer microseconds to avoid floating-point drift.  Events at
the same instant run in scheduling order, so a run is a pure function of
(scenario, seed).  `Simulator.at` is the one way to schedule an event; a
delay d from now is `at(now + d, ...)`.  One random.Random, owned by the
simulator, serves every stochastic draw in a run; components must draw from
it in event order only.

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
current_rx, counters); the medium only reads and updates it.
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
    """One frame held by its destination's single frame buffer.

    While in_air the frame is still being received and a colliding
    transmission destroys it; once received it may stay in the buffer
    (in_air False), deaf but indestructible, before the host reads it out.
    """

    __slots__ = ("frame", "destroyed", "in_air")

    def __init__(self, frame):
        self.frame = frame
        self.destroyed = False
        self.in_air = True


class Medium:
    """Single shared channel with per-link PDR and collision semantics."""

    __slots__ = ("rng", "macs", "neighbors", "link_pdr")

    def __init__(self, sim):
        self.rng = sim.rng
        self.macs = {}
        self.neighbors = {}   # node_id -> list of in-range macs
        self.link_pdr = {}    # (src_id, dst_id) -> pdr

    def register(self, mac):
        self.macs[mac.node_id] = mac
        self.neighbors.setdefault(mac.node_id, [])

    def add_link(self, a, b, pdr):
        """Symmetric audibility between two registered macs."""
        self.neighbors[a.node_id].append(b)
        self.neighbors[b.node_id].append(a)
        self.link_pdr[(a.node_id, b.node_id)] = pdr
        self.link_pdr[(b.node_id, a.node_id)] = pdr

    def begin_tx(self, sender, frame, t0, t1):
        """Account a transmission over [t0, t1) at every in-range node.
        The frame's destination is a neighbor: nodes send only along
        route edges, and every route edge has a link."""
        pdr = self.link_pdr[(sender.node_id, frame.dst)]
        if pdr < 1.0 and self.rng.random() >= pdr:
            sender.counters.channel_losses += 1
        else:
            dest = self.macs[frame.dst]
            held = dest.current_rx
            if dest.tx_until > t0:
                dest.counters.busy_losses += 1
            elif held is not None and not held.in_air:
                # Frame buffer still occupied by an earlier reception.
                dest.counters.busy_losses += 1
            elif dest.rx_busy_until > t0:
                if held is not None:
                    dest.counters.collisions += 1
                else:
                    dest.counters.busy_losses += 1
            else:
                dest.current_rx = RxState(frame)
        for nbr in self.neighbors[sender.node_id]:
            if nbr.rx_busy_until < t1:
                nbr.rx_busy_until = t1
            rx = nbr.current_rx
            if rx is not None and rx.in_air and rx.frame is not frame:
                rx.destroyed = True

    def finish_tx(self, sender, frame):
        """Resolve a transmission; returns (delivered, dest_mac)."""
        dest = self.macs[frame.dst]
        rx = dest.current_rx
        if rx is not None and rx.frame is frame:
            if rx.destroyed:
                dest.current_rx = None
                dest.counters.collisions += 1
                return (False, dest)
            dest.frame_received(rx)
            return (True, dest)
        return (False, dest)
