"""Reassembly buffer, shared packet arena, and fragmentation buffer.

Two memory-accounting models for reassembly storage:

- naive: every entry statically reserves room for a full datagram: two
  link-layer addresses (8 bytes plus 1 length byte each), 2 bytes datagram
  size, 2 bytes tag, and 1280 bytes of data = 1302 bytes per entry.
- arena: entries keep a 22-byte static descriptor and place datagram bytes
  in a shared arena (packet buffer) as fragments arrive, so cost follows
  actual occupancy.

The arena is also charged by the MAC for queued frames and by the queued
forwarding variant for fragments parked in VRB entries; `mem_usage` only
folds entry descriptors and arena occupancy into a byte count.
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
    """Bounded dict of entries that expire strictly after their `deadline`.

    Subclasses define `_expire(entry, now)`, which removes one expired entry
    and returns what `expire_due` reports for it.
    """

    def __init__(self, capacity, counters, on_drop=None, arena=None):
        self.capacity = capacity            # None = unbounded entries
        self.counters = counters
        self.on_drop = on_drop or (lambda dgram_id, cause, now: None)
        self.arena = arena
        self.entries = {}

    @property
    def live_entries(self):
        return len(self.entries)

    def full(self):
        return self.capacity is not None and len(self.entries) >= self.capacity

    def expire_due(self, now):
        """Evict entries past their deadline (strictly); returns the
        `_expire` result of each."""
        expired = [e for e in self.entries.values() if now > e.deadline]
        return [self._expire(e, now) for e in expired]

    def next_deadline(self):
        if not self.entries:
            return None
        return min(e.deadline for e in self.entries.values())


class ReassemblyBuffer(DeadlineTable):
    """Per-node fragment reassembly with timeout and arena accounting;
    an expiry reports (key, seen_first_fragment)."""

    def __init__(self, capacity, timeout_us, counters, arena=None,
                 on_drop=None):
        super().__init__(capacity, counters, on_drop, arena)
        self.timeout_us = timeout_us

    def _discard(self, entry):
        del self.entries[entry.key]
        if self.arena is not None and entry.received_bytes:
            self.arena.free(entry.received_bytes)

    def _expire(self, entry, now):
        seen_first = bool(entry.intervals) and entry.intervals[0][0] == 0
        self._discard(entry)
        self.counters.rbuf_timeout += 1
        if not seen_first:
            self.counters.rbuf_timeout_no_first += 1
        self.on_drop(entry.dgram_id, "rbuf_timeout", now)
        return (entry.key, seen_first)

    def insert(self, key, offset, payload, now, dgram_id):
        """Insert a fragment; returns (status, value).

        status is "stored" (value None), "completed" (value datagram bytes)
        or "dropped" (value is the loss cause).
        """
        self.expire_due(now)
        entry = self.entries.get(key)
        if entry is None:
            if self.full():
                self.counters.rbuf_full += 1
                self.on_drop(dgram_id, "rbuf_full", now)
                return ("dropped", "rbuf_full")
            entry = _Entry(key, dgram_id, now + self.timeout_us)
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
                return ("dropped", "pktbuf_full")
            for a, b in spans:
                entry.data[a:b] = payload[a - offset:b - offset]
            entry.intervals = _merge(entry.intervals, spans)
            entry.received_bytes += new_bytes
        if entry.received_bytes == key.datagram_size:
            datagram = bytes(entry.data)
            self._discard(entry)
            return ("completed", datagram)
        return ("stored", None)


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


class FragmentationBuffer:
    """Bounded set of concurrent local fragmentation operations."""

    __slots__ = ("capacity", "slots")

    def __init__(self, capacity):
        self.capacity = capacity            # None = unbounded
        self.slots = set()

    @property
    def live_slots(self):
        return len(self.slots)

    def acquire(self, job):
        if self.capacity is not None and len(self.slots) >= self.capacity:
            return False
        self.slots.add(job)
        return True

    def release(self, job):
        self.slots.discard(job)
