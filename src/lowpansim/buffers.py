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

NAIVE_ENTRY_BYTES = 2 * (8 + 1) + 2 + 2 + 1280    # = 1302
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
    __slots__ = ("key", "dgram_id", "deadline", "data", "intervals",
                 "received_bytes")

    def __init__(self, key, dgram_id, deadline):
        self.key = key
        self.dgram_id = dgram_id
        self.deadline = deadline
        self.data = bytearray(key.datagram_size)
        self.intervals = []          # disjoint, sorted [start, end) pairs
        self.received_bytes = 0

    def new_spans(self, start, end):
        """Sub-spans of [start, end) not yet covered."""
        spans = []
        pos = start
        for a, b in self.intervals:
            if b <= pos:
                continue
            if a >= end:
                break
            if a > pos:
                spans.append((pos, a))
            pos = max(pos, b)
            if pos >= end:
                break
        if pos < end:
            spans.append((pos, end))
        return spans


class DeadlineTable:
    """Bounded dict of entries that live `lifetime_us` and expire strictly
    after their `deadline`.

    Entries are never refreshed and time never goes back, so insertion
    order is deadline order.  The table keeps at most one expiry event in
    the simulator, at the earliest deadline + 1, armed by subclasses once
    an entry is stored.  Subclasses define `_expire(entry, now)`, which
    removes one expired entry.
    """

    def __init__(self, sim, capacity, lifetime_us, counters, on_drop=None,
                 arena=None):
        self.sim = sim
        self.capacity = capacity            # None = unbounded entries
        self.lifetime_us = lifetime_us
        self.counters = counters
        self.on_drop = on_drop or (lambda dgram_id, cause, now: None)
        self.arena = arena
        self.entries = {}
        self._armed = False

    @property
    def live_entries(self):
        return len(self.entries)

    def full(self):
        return self.capacity is not None and len(self.entries) >= self.capacity

    def expire_due(self, now):
        """Evict the entries past their deadline, earliest first."""
        entries = self.entries
        while entries:
            entry = next(iter(entries.values()))
            if now <= entry.deadline:
                return
            self._expire(entry, now)

    def _arm(self):
        """Schedule the expiry event unless one is pending.  A pending one
        is never late: later entries have later deadlines."""
        if not self._armed and self.entries:
            self._armed = True
            first = next(iter(self.entries.values()))
            self.sim.at(first.deadline + 1, self._fire)

    def _fire(self):
        self._armed = False
        self.expire_due(self.sim.now)
        self._arm()


class ReassemblyBuffer(DeadlineTable):
    """Per-node fragment reassembly with timeout and arena accounting."""

    def _discard(self, entry):
        del self.entries[entry.key]
        if self.arena is not None and entry.received_bytes:
            self.arena.free(entry.received_bytes)

    def _expire(self, entry, now):
        self._discard(entry)
        self.counters.rbuf_timeout += 1
        if not (entry.intervals and entry.intervals[0][0] == 0):
            self.counters.rbuf_timeout_no_first += 1
        self.on_drop(entry.dgram_id, "rbuf_timeout", now)

    def insert(self, key, offset, payload, now, dgram_id):
        """Insert a fragment; returns the datagram bytes once complete,
        else None (stored, or dropped with its cause reported)."""
        self.expire_due(now)
        entry = self.entries.get(key)
        if entry is None:
            if self.full():
                self.counters.rbuf_full += 1
                self.on_drop(dgram_id, "rbuf_full", now)
                return None
            entry = _Entry(key, dgram_id, now + self.lifetime_us)
            self.entries[key] = entry
        end = offset + len(payload)
        spans = entry.new_spans(offset, end)
        new_bytes = sum(b - a for a, b in spans)
        if new_bytes < len(payload):
            self.counters.duplicate_fragments += 1
        if new_bytes:
            if self.arena is not None and not self.arena.alloc(new_bytes):
                self._discard(entry)
                self.counters.pktbuf_full += 1
                self.on_drop(entry.dgram_id, "pktbuf_full", now)
                return None
            for a, b in spans:
                entry.data[a:b] = payload[a - offset:b - offset]
            entry.intervals = _merge(entry.intervals, spans)
            entry.received_bytes += new_bytes
        if entry.received_bytes == key.datagram_size:
            self._discard(entry)
            return bytes(entry.data)
        self._arm()
        return None


def _merge(intervals, spans):
    """Merge disjoint sorted intervals with new non-overlapping spans."""
    merged = sorted(intervals + spans)
    out = [list(merged[0])]
    for a, b in merged[1:]:
        if a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]
