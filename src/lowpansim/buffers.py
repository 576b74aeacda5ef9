"""Deadline tables, the reassembly buffer, and the shared packet arena.

Two memory-accounting models for reassembly storage:

- naive: every entry statically reserves room for a full datagram: two
  link-layer addresses (8 bytes plus 1 length byte each), 2 bytes datagram
  size, 2 bytes tag, and 1280 bytes of data = 1302 bytes per entry.
- arena: entries keep a 22-byte static descriptor and place datagram bytes
  in a shared arena (packet buffer) as fragments arrive, so cost follows
  actual occupancy.

The arena is also charged by the MAC for queued frames and by the VRB
table for fragments parked in its entries; `mem_usage` only folds entry
descriptors and arena occupancy into a byte count.
"""

from typing import NamedTuple

from .frag_codec import MAX_DATAGRAM

NAIVE_ENTRY_BYTES = 2 * (8 + 1) + 2 + 2 + MAX_DATAGRAM    # = 1302
ARENA_ENTRY_BYTES = 22


class DatagramKey(NamedTuple):
    """Identifies one datagram on one link hop."""

    l2_src: int
    l2_dst: int
    datagram_size: int
    datagram_tag: int


def mem_usage(model, entries, arena_used=0):
    """Reassembly memory in bytes under the given accounting model."""
    if model == "naive":
        return entries * NAIVE_ENTRY_BYTES
    if model == "arena":
        return entries * ARENA_ENTRY_BYTES + arena_used
    raise ValueError("unknown memory model: %r" % (model,))


class PacketArena:
    """Shared byte pool with a high-water mark; capacity None = unbounded."""

    __slots__ = ("capacity", "used", "high_water")

    def __init__(self, capacity):
        self.capacity = capacity
        self.used = 0
        self.high_water = 0

    def alloc(self, n):
        if self.capacity is not None and self.used + n > self.capacity:
            return False
        self.used += n
        if self.used > self.high_water:
            self.high_water = self.used
        return True

    def free(self, n):
        self.used -= n
        if self.used < 0:
            raise RuntimeError("arena freed more than allocated")


class _Entry:
    """A datagram in reassembly."""

    __slots__ = ("key", "dgram_id", "deadline", "data", "has_first",
                 "held_bytes")

    def __init__(self, key, dgram_id, deadline):
        self.key = key
        self.dgram_id = dgram_id
        self.deadline = deadline
        self.data = bytearray(key.datagram_size)
        self.has_first = False   # the fragment at offset 0 arrived
        self.held_bytes = 0      # bytes arrived, all charged to the arena


class DeadlineTable:
    """Dict of at most `capacity` entries (None = unbounded) that live
    `lifetime_us` and expire strictly after their `deadline`.

    Entries are never refreshed and time never goes back, so insertion
    order is deadline order.  The table keeps at most one expiry event in
    the simulator, at the earliest deadline + 1, armed by subclasses once
    an entry is stored; that event is the only way an entry expires, so
    an access that runs at deadline + 1 ahead of it still finds the entry.
    `remove` is the only way an entry leaves, freeing its arena charge
    `held_bytes`; subclasses define `_expire(entry)`.
    """

    def __init__(self, sim, capacity, lifetime_us, counters, on_drop, arena):
        self.sim = sim
        self.capacity = capacity
        self.lifetime_us = lifetime_us
        self.counters = counters
        self.on_drop = on_drop
        self.arena = arena
        self.entries = {}
        self._armed = False

    @property
    def live_entries(self):
        return len(self.entries)

    def full(self):
        return self.capacity is not None and len(self.entries) >= self.capacity

    def remove(self, entry):
        """Take a stored entry out and free its arena charge."""
        del self.entries[entry.key]
        self.arena.free(entry.held_bytes)

    def expire_due(self):
        """Evict the entries past their deadline, earliest first."""
        entries, now = self.entries, self.sim.now
        while entries:
            entry = next(iter(entries.values()))
            if now <= entry.deadline:
                return
            self._expire(entry)

    def _arm(self):
        """Schedule the expiry event unless one is pending.  A pending one
        is never late: later entries have later deadlines."""
        if not self._armed and self.entries:
            self._armed = True
            first = next(iter(self.entries.values()))
            self.sim.at(first.deadline + 1, self._fire)

    def _fire(self):
        self._armed = False
        self.expire_due()
        self._arm()


class ReassemblyBuffer(DeadlineTable):
    """Per-node fragment reassembly with timeout and arena accounting.

    Each fragment of a key arrives at most once, so an entry is complete
    when it holds datagram_size bytes.  Two datagrams share a key only if
    their upstream node issued 65,536 tags while the entry was live; they
    then mix, and the sink reports the datagram "corrupted in transit"."""

    def _expire(self, entry):
        self.remove(entry)
        self.counters.rbuf_timeout += 1
        if not entry.has_first:
            self.counters.rbuf_timeout_no_first += 1
        self.on_drop(entry.dgram_id, "rbuf_timeout")

    def insert(self, key, offset, payload, dgram_id):
        """Insert a fragment; returns the datagram bytes once complete,
        else None (stored, or dropped with its cause reported)."""
        entry = self.entries.get(key)
        if entry is None:
            if self.full():
                self.counters.rbuf_full += 1
                self.on_drop(dgram_id, "rbuf_full")
                return None
            entry = _Entry(key, dgram_id, self.sim.now + self.lifetime_us)
            self.entries[key] = entry
        n = len(payload)
        if not self.arena.alloc(n):
            self.remove(entry)
            self.counters.pktbuf_full += 1
            self.on_drop(entry.dgram_id, "pktbuf_full")
            return None
        entry.data[offset:offset + n] = payload
        entry.held_bytes += n
        entry.has_first |= offset == 0
        if entry.held_bytes >= key.datagram_size:
            self.remove(entry)
            return bytes(entry.data)
        self._arm()
        return None

