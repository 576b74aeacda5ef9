"""Tests for the reassembly buffer, packet arena, and memory accounting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lowpansim.buffers import (
    ARENA_ENTRY_BYTES,
    NAIVE_ENTRY_BYTES,
    DatagramKey,
    PacketArena,
    ReassemblyBuffer,
    mem_usage,
)
from lowpansim.frag_codec import MAX_DATAGRAM, POLICIES, fragment_datagram
from lowpansim.link_mac import Frame
from lowpansim.metrics import NodeCounters
from lowpansim.sim_core import Simulator
from lowpansim.vrb import TagAllocator, VrbTable

TIMEOUT = 10_000_000  # us


def make_rbuf(capacity=1, arena=None, drops=None, sim=None):
    counters = NodeCounters()
    sink = drops if drops is not None else []
    rbuf = ReassemblyBuffer(sim or Simulator(), capacity=capacity,
                            lifetime_us=TIMEOUT,
                            arena=arena or PacketArena(None),
                            counters=counters,
                            on_drop=lambda did, cause: sink.append((did, cause)))
    return rbuf, counters, sink


KEY = DatagramKey(l2_src=3, l2_dst=1, datagram_size=24, datagram_tag=77)
KEY2 = DatagramKey(l2_src=4, l2_dst=1, datagram_size=24, datagram_tag=78)


def test_memory_accounting_frozen_values():
    # One naive entry: 2 addresses (8 bytes + 1 length byte each) + 2 bytes
    # size + 2 bytes tag + 1280 bytes of datagram space.
    assert NAIVE_ENTRY_BYTES == 1302
    assert ARENA_ENTRY_BYTES == 22
    assert mem_usage("naive", entries=1) == 1302
    assert mem_usage("naive", entries=16) == 20832
    assert mem_usage("arena", entries=0, arena_used=0) == 0
    assert mem_usage("arena", entries=1, arena_used=1280) == 22 + 1280
    assert mem_usage("arena", entries=16, arena_used=6144) == 352 + 6144
    with pytest.raises(ValueError):
        mem_usage("heap", entries=1)


def test_out_of_order_completion():
    rbuf, counters, drops = make_rbuf()
    body = bytes(range(24))
    assert rbuf.insert(KEY, 16, body[16:], dgram_id=1) is None
    rbuf.sim.now = 10
    assert rbuf.insert(KEY, 8, body[8:16], dgram_id=1) is None
    assert rbuf.live_entries == 1
    rbuf.sim.now = 20
    assert rbuf.insert(KEY, 0, body[:8], dgram_id=1) == body
    assert rbuf.live_entries == 0
    assert drops == []


def test_rbuf_full_drops_new_key_without_eviction():
    rbuf, counters, drops = make_rbuf(capacity=1)
    rbuf.insert(KEY, 0, b"x" * 8, dgram_id=1)
    rbuf.sim.now = 1
    assert rbuf.insert(KEY2, 0, b"y" * 8, dgram_id=2) is None
    assert counters.rbuf_full == 1
    assert drops == [(2, "rbuf_full")]
    assert list(rbuf.entries) == [KEY]
    # The old entry is untouched (no aggressive override).
    rbuf.sim.now = 2
    rbuf.insert(KEY, 8, b"x" * 8, dgram_id=1)
    assert rbuf.entries[KEY].held_bytes == 16


def test_expiry_is_strict_and_flags_missing_first_fragment():
    rbuf, counters, drops = make_rbuf(capacity=4)
    rbuf.insert(KEY, 8, b"z" * 8, dgram_id=1)            # no first fragment
    rbuf.sim.now = 1
    rbuf.insert(KEY2, 0, b"z" * 8, dgram_id=2)           # has first fragment
    rbuf.sim.now = TIMEOUT
    rbuf.expire_due()                                    # boundary: retained
    assert rbuf.live_entries == 2
    rbuf.sim.now = TIMEOUT + 1
    rbuf.expire_due()
    assert list(rbuf.entries) == [KEY2]
    assert (counters.rbuf_timeout, counters.rbuf_timeout_no_first) == (1, 1)
    rbuf.sim.now = TIMEOUT + 2
    rbuf.expire_due()
    assert (counters.rbuf_timeout, counters.rbuf_timeout_no_first) == (2, 1)
    assert drops == [(1, "rbuf_timeout"), (2, "rbuf_timeout")]
    assert rbuf.live_entries == 0


def test_completion_wins_at_the_deadline():
    rbuf, counters, _ = make_rbuf()
    body = bytes(range(24))
    rbuf.insert(KEY, 0, body[:16], dgram_id=1)
    rbuf.sim.now = TIMEOUT
    assert rbuf.insert(KEY, 16, body[16:], dgram_id=1) == body
    assert counters.rbuf_timeout == 0


def test_lazy_eviction_frees_slot_for_new_key():
    # The table's expiry event at deadline + 1 frees the one slot, so the
    # next new key is stored instead of dropped as rbuf_full.
    sim = Simulator()
    rbuf, counters, _ = make_rbuf(capacity=1, sim=sim)
    rbuf.insert(KEY, 0, b"x" * 8, dgram_id=1)
    sim.run()
    assert sim.now == TIMEOUT + 1 and rbuf.live_entries == 0
    rbuf.insert(KEY2, 0, b"y" * 8, dgram_id=2)
    assert list(rbuf.entries) == [KEY2]
    assert counters.rbuf_timeout == 1
    assert counters.rbuf_full == 0


def test_arena_accounting_and_high_water():
    arena = PacketArena(capacity=100)
    assert arena.alloc(60)
    assert arena.alloc(40)
    assert not arena.alloc(1)
    assert arena.used == 100
    arena.free(40)
    assert arena.used == 60
    assert arena.high_water == 100
    unbounded = PacketArena(capacity=None)
    assert unbounded.alloc(10 ** 9)


def test_arena_exhaustion_drops_datagram_and_frees_bytes():
    arena = PacketArena(capacity=16)
    rbuf, counters, drops = make_rbuf(capacity=4, arena=arena)
    rbuf.insert(KEY, 0, b"x" * 8, dgram_id=1)
    assert arena.used == 8
    rbuf.sim.now = 1
    assert rbuf.insert(KEY, 8, b"x" * 12, dgram_id=1) is None
    assert counters.pktbuf_full == 1
    assert drops == [(1, "pktbuf_full")]
    assert rbuf.live_entries == 0
    assert arena.used == 0


def test_entries_expire_through_the_tables_own_event():
    # No node: the tables schedule their expiry themselves, strictly one
    # microsecond after the deadline, and report the doomed datagrams.
    sim = Simulator()
    drops, probes = [], []
    note = lambda did, cause: drops.append((did, cause, sim.now))
    rbuf = ReassemblyBuffer(sim, 4, TIMEOUT, NodeCounters(), on_drop=note,
                            arena=PacketArena(None))
    vrb = VrbTable(sim, 4, TIMEOUT, NodeCounters(), TagAllocator(),
                   on_drop=note, arena=PacketArena(None))

    def store():
        rbuf.insert(KEY, 8, b"z" * 8, dgram_id=1)
        entry = vrb.create(KEY2, dgram_id=2)
        vrb.enqueue(entry, Frame(4, 2, None, 2), 60)

    def probe():
        probes.append((rbuf.live_entries, vrb.live_entries))

    sim.at(5, store)
    sim.at(5 + TIMEOUT, probe)          # at the deadline both still live
    sim.run()
    assert probes == [(1, 1)]
    assert sim.now == 5 + TIMEOUT + 1
    assert drops == [(1, "rbuf_timeout", sim.now), (2, "vrb_expired", sim.now)]
    assert rbuf.counters.rbuf_timeout_no_first == 1
    assert vrb.counters.vrb_expired == 1
    assert rbuf.live_entries == vrb.live_entries == vrb.arena.used == 0


def test_access_scheduled_before_the_expiry_event_finds_the_entry():
    # Events at one instant run in scheduling order.  An access scheduled
    # for deadline + 1 before the entries existed runs ahead of the tables'
    # expiry events and still finds them; the events then expire what is
    # left, once.
    sim = Simulator()
    drops, seen = [], []
    note = lambda did, cause: drops.append((did, cause, sim.now))
    rbuf = ReassemblyBuffer(sim, 4, TIMEOUT, NodeCounters(), on_drop=note,
                            arena=PacketArena(None))
    vrb = VrbTable(sim, 4, TIMEOUT, NodeCounters(), TagAllocator(),
                   on_drop=note, arena=PacketArena(None))

    def access():
        seen.append(rbuf.insert(KEY, 8, b"b" * 16, dgram_id=1))
        seen.append(vrb.lookup(KEY2))

    sim.at(TIMEOUT + 1, access)
    rbuf.insert(KEY, 0, b"a" * 8, dgram_id=1)
    entry = vrb.create(KEY2, dgram_id=2)
    vrb.enqueue(entry, Frame(4, 2, None, 2), 60)
    sim.run()
    assert seen == [b"a" * 8 + b"b" * 16, entry]
    assert rbuf.counters.rbuf_timeout == 0
    assert vrb.counters.vrb_expired == 1
    assert drops == [(2, "vrb_expired", TIMEOUT + 1)]
    assert rbuf.live_entries == vrb.live_entries == vrb.arena.used == 0


def test_one_expiry_event_serves_entries_in_deadline_order():
    sim = Simulator()
    drops = []
    rbuf, counters, _ = make_rbuf(capacity=4, sim=sim)
    rbuf.on_drop = lambda did, cause: drops.append((did, sim.now))
    sim.at(0, rbuf.insert, KEY, 8, b"z" * 8, 1)
    sim.at(7, rbuf.insert, KEY2, 8, b"z" * 8, 2)
    sim.run()
    assert sim._seq == 4                # two inserts, two expiry events
    assert drops == [(1, TIMEOUT + 1), (2, TIMEOUT + 8)]
    assert counters.rbuf_timeout == 2


@st.composite
def _arrivals(draw):
    """One datagram and the fragments of its fragmentation under either
    policy, as (offset, bytes) in any arrival order."""
    size = draw(st.integers(145, MAX_DATAGRAM))    # too big for one frame
    datagram = random.Random(draw(st.integers(0, 2 ** 32))).randbytes(size)
    frags = fragment_datagram(datagram, 0, draw(st.sampled_from(POLICIES)))
    pieces = [(f.offset, f.payload) for f in frags]
    return datagram, draw(st.permutations(pieces))


@settings(max_examples=150, deadline=None)
@given(_arrivals())
def test_reassembly_matches_a_byte_set_oracle(case):
    datagram, pieces = case
    size = len(datagram)
    key = DatagramKey(3, 1, size, 77)
    arena = PacketArena(None)
    rbuf, counters, drops = make_rbuf(arena=arena)
    covered, duplicates = set(), 0
    for offset, payload in pieces:
        span = set(range(offset, offset + len(payload)))
        duplicates += bool(span & covered)
        covered |= span
        result = rbuf.insert(key, offset, payload, dgram_id=1)
        if len(covered) == size:
            break
        assert result is None
    assert result == datagram
    assert duplicates == 0
    assert arena.high_water == size and arena.used == 0
    assert rbuf.live_entries == 0 and drops == []
