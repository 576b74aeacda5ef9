"""Tests for the virtual reassembly buffer table and tag allocation."""

import pytest

from lowpansim.buffers import DatagramKey, PacketArena
from lowpansim.link_mac import Frame
from lowpansim.metrics import NodeCounters
from lowpansim.sim_core import Simulator
from lowpansim.vrb import TagAllocator, VrbTable

LIFETIME = 10_000_000  # us


def make_table(capacity=16, drops=None, arena=None):
    counters = NodeCounters()
    sink = drops if drops is not None else []
    table = VrbTable(Simulator(), capacity=capacity, lifetime_us=LIFETIME,
                     counters=counters, allocator=TagAllocator(),
                     on_drop=lambda did, cause, now: sink.append((did, cause)),
                     arena=arena)
    return table, counters, sink


def key(tag, src=9):
    return DatagramKey(l2_src=src, l2_dst=1, datagram_size=208, datagram_tag=tag)


def test_create_and_lookup():
    table, counters, _ = make_table()
    entry = table.create(key(5), next_hop=2, now=0, dgram_id=1)
    assert entry is not None
    assert entry.next_hop == 2
    assert table.lookup(key(5), now=100) is entry
    assert table.lookup(key(6), now=100) is None
    assert counters.vrb_full == 0


def test_out_tags_unique_per_neighbor_sequence():
    table, _, _ = make_table()
    e1 = table.create(key(5), next_hop=2, now=0, dgram_id=1)
    e2 = table.create(key(6), next_hop=2, now=0, dgram_id=2)
    e3 = table.create(key(7), next_hop=3, now=0, dgram_id=3)
    assert e1.out_tag != e2.out_tag
    # Independent sequence per neighbor.
    assert e3.out_tag == e1.out_tag


def test_duplicate_create_is_an_error():
    table, _, _ = make_table()
    table.create(key(5), next_hop=2, now=0, dgram_id=1)
    with pytest.raises(ValueError):
        table.create(key(5), next_hop=2, now=1, dgram_id=1)


def test_table_full_returns_none_and_counts():
    table, counters, _ = make_table(capacity=16)
    for i in range(16):
        assert table.create(key(i), next_hop=2, now=0, dgram_id=i) is not None
    assert table.create(key(99), next_hop=2, now=0, dgram_id=99) is None
    assert counters.vrb_full == 1
    assert table.live_entries == 16


def test_expiry_is_strict_at_the_deadline():
    table, counters, _ = make_table()
    table.create(key(5), next_hop=2, now=0, dgram_id=1)
    assert table.lookup(key(5), now=LIFETIME) is not None
    assert table.lookup(key(5), now=LIFETIME + 1) is None
    assert counters.vrb_expired == 1
    assert table.live_entries == 0


def test_expired_entry_frees_a_slot():
    table, counters, _ = make_table(capacity=1)
    table.create(key(5), next_hop=2, now=0, dgram_id=1)
    assert table.create(key(6), next_hop=2, now=LIFETIME + 1,
                        dgram_id=2) is not None
    assert counters.vrb_expired == 1
    assert counters.vrb_full == 0


def test_expire_due_drops_queued_fragments():
    table, counters, drops = make_table()
    q = table.create(key(5), next_hop=2, now=0, dgram_id=1)
    q.queued.append("frame")
    table.create(key(6), next_hop=2, now=0, dgram_id=2)  # nothing queued
    table.expire_due(LIFETIME + 1)
    assert table.live_entries == 0
    assert counters.vrb_expired == 2
    # Only the entry holding undelivered fragments dooms its datagram.
    assert drops == [(1, "vrb_expired")]


def test_tag_release_on_expiry():
    table, _, _ = make_table()
    e = table.create(key(5), next_hop=2, now=0, dgram_id=1)
    assert table.allocator.live_count(2) == 1
    table.expire_due(LIFETIME + 1)
    assert table.allocator.live_count(2) == 0
    assert e.out_tag is not None


def test_allocator_skips_live_tags_and_wraps():
    alloc = TagAllocator(tag_space=4)
    tags = [alloc.acquire(7) for _ in range(4)]
    assert tags == [0, 1, 2, 3]
    with pytest.raises(RuntimeError):
        alloc.acquire(7)
    alloc.release(7, 1)
    assert alloc.acquire(7) == 1  # wrapped past live 0, 2, 3
    alloc.release(7, 3)
    alloc.release(7, 2)
    assert alloc.acquire(7) == 2  # counter continues after 1


def test_remove_releases_slot_and_tag_silently():
    table, counters, drops = make_table(capacity=1)
    entry = table.create(key(5), next_hop=2, now=0, dgram_id=1)
    entry.queued.append("frame")
    assert table.remove(key(5)) is entry
    assert table.live_entries == 0
    assert table.allocator.live_count(2) == 0
    assert counters.vrb_expired == 0
    assert drops == []
    # slot and tag are immediately reusable
    again = table.create(key(6), next_hop=2, now=0, dgram_id=2)
    assert again is not None
    assert again.out_tag != entry.out_tag   # sequence still advances
    assert table.remove(key(99)) is None


def frame(dgram_id):
    return Frame(9, 2, None, dgram_id)


def test_eviction_frees_queued_arena_charge():
    arena = PacketArena(None)
    table, counters, _ = make_table(capacity=4, arena=arena)
    entry = table.create(key(5), next_hop=2, now=0, dgram_id=1)
    assert table.enqueue(entry, frame(1), 100)
    assert table.enqueue(entry, frame(1), 200)
    assert arena.used == 300
    table.expire_due(LIFETIME + 1)
    assert arena.used == 0
    assert counters.vrb_expired == 1


def test_remove_frees_the_whole_queued_charge():
    arena = PacketArena(None)
    table, _, drops = make_table(arena=arena)
    entry = table.create(key(5), next_hop=2, now=0, dgram_id=1)
    for wire in (127, 127, 60):
        assert table.enqueue(entry, frame(1), wire)
    assert table.remove(key(5)) is entry
    assert arena.used == 0 and arena.high_water == 314
    assert len(entry.queued) == 3               # still there to be sent
    assert drops == []


def test_enqueue_without_room_drops_entry_and_charge():
    arena = PacketArena(200)
    table, counters, drops = make_table(arena=arena)
    entry = table.create(key(5), next_hop=2, now=0, dgram_id=1)
    assert table.enqueue(entry, frame(1), 127)
    assert not table.enqueue(entry, frame(1), 127)
    assert counters.pktbuf_full == 1
    assert drops == [(1, "pktbuf_full")]
    assert table.live_entries == 0 and arena.used == 0
    assert table.allocator.live_count(2) == 0
