"""Virtual reassembly buffer: per-datagram forwarding state without payload.

A VRB entry maps an incoming (link source, size, tag), its key, to the
node's out_tag: fragments arriving for the key are rewritten to it and
passed on to the route's next hop without reassembly.  An entry is created
when a first fragment arrives, which precedes the rest of its datagram;
entries live for `vrb_lifetime_us`, are never refreshed, and expire only
through the table's own expiry event.  The queued forwarding variant parks
rewritten fragments in `queued` until the whole datagram has passed.

A node sends only to its route's next hop, so its VRB entries and its own
fragmentation jobs draw from one 16-bit tag sequence (RFC 4944), which
skips live values: no two concurrent outgoing datagrams share a tag.
"""

from .buffers import DeadlineTable

TAG_SPACE = 1 << 16


class TagAllocator:
    """A node's datagram tag sequence, skipping the tags in `live`."""

    def __init__(self, tag_space=TAG_SPACE):
        self.tag_space = tag_space
        self._next = 0
        self.live = set()

    def full(self):
        """Every tag is live; a caller treats this as a full table."""
        return len(self.live) >= self.tag_space

    def acquire(self):
        if self.full():
            raise RuntimeError("datagram tag space exhausted")
        tag = self._next
        while tag in self.live:
            tag = (tag + 1) % self.tag_space
        self._next = (tag + 1) % self.tag_space
        self.live.add(tag)
        return tag

    def release(self, tag):
        self.live.discard(tag)


class VrbEntry:
    __slots__ = ("key", "out_tag", "deadline", "dgram_id", "queued",
                 "covered_bytes", "held_bytes")

    def __init__(self, key, out_tag, deadline, dgram_id):
        self.key = key
        self.out_tag = out_tag
        self.deadline = deadline
        self.dgram_id = dgram_id
        self.queued = []          # rewritten frames awaiting the last fragment
        self.covered_bytes = 0    # datagram bytes seen so far
        self.held_bytes = 0       # arena charge for queued frames


class VrbTable(DeadlineTable):
    """Bounded table of VRB entries; it owns the arena charge of the frames
    parked in them and releases an entry's out_tag with the entry."""

    def __init__(self, sim, capacity, lifetime_us, counters, allocator,
                 on_drop, arena):
        super().__init__(sim, capacity, lifetime_us, counters, on_drop, arena)
        self.allocator = allocator

    def remove(self, entry):
        """Drop an entry (datagram done, or expired); its queued frames stay
        on it, their arena charge and its out_tag are freed."""
        super().remove(entry)
        self.allocator.release(entry.out_tag)

    def _expire(self, entry):
        self.remove(entry)
        self.counters.vrb_expired += 1
        if entry.queued:
            self.on_drop(entry.dgram_id, "vrb_expired")

    def create(self, key, dgram_id):
        """New entry with a fresh out_tag, or None when the table or the
        tag space is full."""
        if key in self.entries:
            raise ValueError("duplicate VRB entry for %r" % (key,))
        if self.full() or self.allocator.full():
            self.counters.vrb_full += 1
            return None
        entry = VrbEntry(key, self.allocator.acquire(),
                         self.sim.now + self.lifetime_us, dgram_id)
        self.entries[key] = entry
        self._arm()
        return entry

    def enqueue(self, entry, frame, wire):
        """Park `frame` on the entry, charging `wire` bytes to the arena.
        Without room the entry goes and the frame's datagram is dropped;
        returns whether the frame was parked."""
        if not self.arena.alloc(wire):
            self.counters.pktbuf_full += 1
            self.remove(entry)
            self.on_drop(frame.dgram_id, "pktbuf_full")
            return False
        entry.queued.append(frame)
        entry.held_bytes += wire
        return True

    def lookup(self, key):
        """The entry for key, or None.  An entry is live until its table's
        expiry event removes it."""
        return self.entries.get(key)
