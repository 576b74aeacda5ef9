"""Virtual reassembly buffer: per-datagram forwarding state without payload.

A VRB entry pins one datagram's forwarding decision: fragments arriving for
the entry's key are rewritten to (next_hop, out_tag) and passed on without
reassembly.  Entries are created only when the first fragment arrives before
any other fragment of its datagram (in-order condition); they live for
`vrb_lifetime_us`, are never refreshed, and expire only through the table's
own expiry event.  The queued forwarding variant parks rewritten fragments
in `queued` until the whole datagram has passed.

Outgoing tags come from a per-neighbor 16-bit counter that skips values still
in use by live entries or live local fragmentation jobs, so no two concurrent
outgoing streams from one node to one neighbor share a tag.
"""

from .buffers import DeadlineTable

TAG_SPACE = 1 << 16


class TagAllocator:
    """Per-neighbor datagram tag sequence, skipping live values."""

    def __init__(self, tag_space=TAG_SPACE):
        self.tag_space = tag_space
        self._next = {}
        self._live = {}

    def acquire(self, neighbor):
        live = self._live.setdefault(neighbor, set())
        if len(live) >= self.tag_space:
            raise RuntimeError("tag space exhausted toward %r" % (neighbor,))
        tag = self._next.get(neighbor, 0)
        while tag in live:
            tag = (tag + 1) % self.tag_space
        self._next[neighbor] = (tag + 1) % self.tag_space
        live.add(tag)
        return tag

    def release(self, neighbor, tag):
        self._live.get(neighbor, set()).discard(tag)

    def live_count(self, neighbor):
        return len(self._live.get(neighbor, ()))


class VrbEntry:
    __slots__ = ("key", "next_hop", "out_tag", "deadline", "dgram_id",
                 "queued", "covered_bytes", "queued_wire_bytes")

    def __init__(self, key, next_hop, out_tag, deadline, dgram_id):
        self.key = key
        self.next_hop = next_hop
        self.out_tag = out_tag
        self.deadline = deadline
        self.dgram_id = dgram_id
        self.queued = []             # rewritten frames awaiting the last fragment
        self.covered_bytes = 0       # datagram bytes seen so far
        self.queued_wire_bytes = 0   # arena charge for queued frames


class VrbTable(DeadlineTable):
    """Bounded table of VRB entries; it owns the arena charge of the frames
    parked in them."""

    def __init__(self, sim, capacity, lifetime_us, counters, allocator,
                 on_drop, arena):
        super().__init__(sim, capacity, lifetime_us, counters, on_drop, arena)
        self.allocator = allocator

    def _release(self, entry):
        del self.entries[entry.key]
        self.allocator.release(entry.next_hop, entry.out_tag)
        self.arena.free(entry.queued_wire_bytes)
        entry.queued_wire_bytes = 0

    def _expire(self, entry, now):
        self._release(entry)
        self.counters.vrb_expired += 1
        if entry.queued:
            self.on_drop(entry.dgram_id, "vrb_expired", now)

    def remove(self, key):
        """Drop an entry without expiry bookkeeping (datagram done); its
        queued frames stay on it, their arena charge is freed."""
        entry = self.entries.get(key)
        if entry is not None:
            self._release(entry)
        return entry

    def create(self, key, next_hop, now, dgram_id):
        """New entry with a fresh out_tag, or None when the table is full."""
        if key in self.entries:
            raise ValueError("duplicate VRB entry for %r" % (key,))
        if self.full():
            self.counters.vrb_full += 1
            return None
        out_tag = self.allocator.acquire(next_hop)
        entry = VrbEntry(key, next_hop, out_tag, now + self.lifetime_us,
                         dgram_id)
        self.entries[key] = entry
        self._arm()
        return entry

    def enqueue(self, entry, frame, wire):
        """Park `frame` on the entry, charging `wire` bytes to the arena.
        Without room the entry goes and the frame's datagram is dropped;
        returns whether the frame was parked."""
        if not self.arena.alloc(wire):
            self.counters.pktbuf_full += 1
            self.remove(entry.key)
            self.on_drop(frame.dgram_id, "pktbuf_full", self.sim.now)
            return False
        entry.queued.append(frame)
        entry.queued_wire_bytes += wire
        return True

    def lookup(self, key):
        """The entry for key, or None.  An entry is live until its table's
        expiry event removes it."""
        return self.entries.get(key)
