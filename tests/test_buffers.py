"""Tests for the reassembly buffer, packet arena, and memory accounting."""

import pytest

from lowpansim.buffers import (
    ARENA_ENTRY_BYTES,
    NAIVE_ENTRY_BYTES,
    DatagramKey,
    PacketArena,
    ReassemblyBuffer,
    mem_usage,
)
from lowpansim.link_mac import Frame
from lowpansim.metrics import NodeCounters
from lowpansim.sim_core import Simulator
from lowpansim.vrb import TagAllocator, VrbTable

TIMEOUT = 10_000_000  # us


def make_rbuf(capacity=1, arena=None, drops=None, sim=None):
    counters = NodeCounters()
    sink = drops if drops is not None else []
    rbuf = ReassemblyBuffer(sim or Simulator(), capacity=capacity,
                            lifetime_us=TIMEOUT, arena=arena,
                            counters=counters,
                            on_drop=lambda did, cause, now: sink.append((did, cause)))
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
    assert rbuf.insert(KEY, 16, body[16:], now=0, dgram_id=1) is None
    assert rbuf.insert(KEY, 8, body[8:16], now=10, dgram_id=1) is None
    assert rbuf.live_entries == 1
    assert rbuf.insert(KEY, 0, body[:8], now=20, dgram_id=1) == body
    assert rbuf.live_entries == 0
    assert drops == []


def test_duplicates_counted_and_first_write_wins():
    rbuf, counters, _ = make_rbuf()
    rbuf.insert(KEY, 0, b"A" * 16, now=0, dgram_id=1)
    assert rbuf.insert(KEY, 8, b"B" * 8, now=1, dgram_id=1) is None  # full overlap
    assert counters.duplicate_fragments == 1
    datagram = rbuf.insert(KEY, 12, b"C" * 12, now=2, dgram_id=1)
    assert counters.duplicate_fragments == 2  # partial overlap also counted
    assert datagram == b"A" * 16 + b"C" * 8


def test_rbuf_full_drops_new_key_without_eviction():
    rbuf, counters, drops = make_rbuf(capacity=1)
    rbuf.insert(KEY, 0, b"x" * 8, now=0, dgram_id=1)
    assert rbuf.insert(KEY2, 0, b"y" * 8, now=1, dgram_id=2) is None
    assert counters.rbuf_full == 1
    assert drops == [(2, "rbuf_full")]
    assert list(rbuf.entries) == [KEY]
    # The old entry is untouched (no aggressive override).
    rbuf.insert(KEY, 8, b"x" * 8, now=2, dgram_id=1)
    assert rbuf.entries[KEY].received_bytes == 16


def test_expiry_is_strict_and_flags_missing_first_fragment():
    rbuf, counters, drops = make_rbuf(capacity=4)
    rbuf.insert(KEY, 8, b"z" * 8, now=0, dgram_id=1)     # no first fragment
    rbuf.insert(KEY2, 0, b"z" * 8, now=1, dgram_id=2)    # has first fragment
    rbuf.expire_due(TIMEOUT)                             # boundary: retained
    assert rbuf.live_entries == 2
    rbuf.expire_due(TIMEOUT + 1)
    assert list(rbuf.entries) == [KEY2]
    assert (counters.rbuf_timeout, counters.rbuf_timeout_no_first) == (1, 1)
    rbuf.expire_due(TIMEOUT + 2)
    assert (counters.rbuf_timeout, counters.rbuf_timeout_no_first) == (2, 1)
    assert drops == [(1, "rbuf_timeout"), (2, "rbuf_timeout")]
    assert rbuf.live_entries == 0


def test_completion_wins_at_the_deadline():
    rbuf, counters, _ = make_rbuf()
    body = bytes(range(24))
    rbuf.insert(KEY, 0, body[:16], now=0, dgram_id=1)
    assert rbuf.insert(KEY, 16, body[16:], now=TIMEOUT, dgram_id=1) == body
    assert counters.rbuf_timeout == 0


def test_lazy_eviction_frees_slot_for_new_key():
    rbuf, counters, _ = make_rbuf(capacity=1)
    rbuf.insert(KEY, 0, b"x" * 8, now=0, dgram_id=1)
    rbuf.insert(KEY2, 0, b"y" * 8, now=TIMEOUT + 1, dgram_id=2)
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
    rbuf.insert(KEY, 0, b"x" * 8, now=0, dgram_id=1)
    assert arena.used == 8
    assert rbuf.insert(KEY, 8, b"x" * 12, now=1, dgram_id=1) is None
    assert counters.pktbuf_full == 1
    assert drops == [(1, "pktbuf_full")]
    assert rbuf.live_entries == 0
    assert arena.used == 0


def test_duplicate_bytes_not_charged_to_arena():
    arena = PacketArena(capacity=16)
    rbuf, counters, _ = make_rbuf(capacity=4, arena=arena)
    rbuf.insert(KEY, 0, b"x" * 16, now=0, dgram_id=1)
    assert rbuf.insert(KEY, 0, b"x" * 16, now=1, dgram_id=1) is None
    assert rbuf.live_entries == 1
    assert arena.used == 16
    assert counters.pktbuf_full == 0
    rbuf.expire_due(TIMEOUT + 2)
    assert arena.used == 0


def test_entries_expire_through_the_tables_own_event():
    # No node: the tables schedule their expiry themselves, strictly one
    # microsecond after the deadline, and report the doomed datagrams.
    sim = Simulator()
    drops, probes = [], []
    note = lambda did, cause, now: drops.append((did, cause, now))
    rbuf = ReassemblyBuffer(sim, 4, TIMEOUT, NodeCounters(), on_drop=note)
    vrb = VrbTable(sim, 4, TIMEOUT, NodeCounters(), TagAllocator(),
                   on_drop=note, arena=PacketArena(None))

    def store():
        rbuf.insert(KEY, 8, b"z" * 8, sim.now, dgram_id=1)
        entry = vrb.create(KEY2, next_hop=2, now=sim.now, dgram_id=2)
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


def test_one_expiry_event_serves_entries_in_deadline_order():
    sim = Simulator()
    drops = []
    rbuf, counters, _ = make_rbuf(capacity=4, sim=sim)
    rbuf.on_drop = lambda did, cause, now: drops.append((did, now))
    sim.at(0, rbuf.insert, KEY, 8, b"z" * 8, 0, 1)
    sim.at(7, rbuf.insert, KEY2, 8, b"z" * 8, 7, 2)
    sim.run()
    assert sim._seq == 4                # two inserts, two expiry events
    assert drops == [(1, TIMEOUT + 1), (2, TIMEOUT + 8)]
    assert counters.rbuf_timeout == 2
