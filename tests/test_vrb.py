"""Tests for the virtual reassembly buffer table and tag allocation."""

import pytest

from lowpansim.buffers import DatagramKey, PacketArena
from lowpansim.link_mac import Frame
from lowpansim.metrics import NodeCounters
from lowpansim.sim_core import Simulator
from lowpansim.vrb import TagAllocator, VrbTable

LIFETIME = 10_000_000  # us


def make_table(capacity=16, drops=None, arena=None, sim=None):
    counters = NodeCounters()
    sink = drops if drops is not None else []
    table = VrbTable(sim or Simulator(), capacity=capacity,
                     lifetime_us=LIFETIME, counters=counters,
                     allocator=TagAllocator(),
                     on_drop=lambda did, cause: sink.append((did, cause)),
                     arena=arena or PacketArena(None))
    return table, counters, sink


def key(tag, src=9):
    return DatagramKey(l2_src=src, l2_dst=1, datagram_size=208, datagram_tag=tag)


def test_create_and_lookup():
    table, counters, _ = make_table()
    entry = table.create(key(5), dgram_id=1)
    assert entry is not None
    assert table.lookup(key(5)) is entry
    assert table.lookup(key(6)) is None
    assert counters.vrb_full == 0


def test_duplicate_create_is_an_error():
    table, _, _ = make_table()
    table.create(key(5), dgram_id=1)
    table.sim.now = 1
    with pytest.raises(ValueError):
        table.create(key(5), dgram_id=1)


def test_table_full_returns_none_and_counts():
    table, counters, _ = make_table(capacity=16)
    for i in range(16):
        assert table.create(key(i), dgram_id=i) is not None
    assert table.create(key(99), dgram_id=99) is None
    assert counters.vrb_full == 1
    assert table.live_entries == 16
    # Live entries never share an out_tag.
    assert table.allocator.live == {e.out_tag for e in table.entries.values()}
    assert len(table.allocator.live) == 16


def test_expiry_is_strict_at_the_deadline():
    sim = Simulator()
    table, counters, _ = make_table(sim=sim)
    table.create(key(5), dgram_id=1)
    at_deadline = []
    sim.at(LIFETIME, lambda: at_deadline.append(table.lookup(key(5))))
    sim.run()
    assert at_deadline[0] is not None
    assert sim.now == LIFETIME + 1
    assert table.lookup(key(5)) is None
    assert counters.vrb_expired == 1
    assert table.live_entries == 0


def test_expired_entry_frees_a_slot():
    sim = Simulator()
    table, counters, _ = make_table(capacity=1, sim=sim)
    table.create(key(5), dgram_id=1)
    sim.run()
    assert sim.now == LIFETIME + 1
    assert table.create(key(6), dgram_id=2) is not None
    assert counters.vrb_expired == 1
    assert counters.vrb_full == 0


def test_expire_due_drops_queued_fragments():
    table, counters, drops = make_table()
    q = table.create(key(5), dgram_id=1)
    q.queued.append("frame")
    table.create(key(6), dgram_id=2)  # nothing queued
    table.sim.now = LIFETIME + 1
    table.expire_due()
    assert table.live_entries == 0
    assert counters.vrb_expired == 2
    # Only the entry holding undelivered fragments dooms its datagram.
    assert drops == [(1, "vrb_expired")]


def test_tag_release_on_expiry():
    table, _, _ = make_table()
    e = table.create(key(5), dgram_id=1)
    assert table.allocator.live == {e.out_tag}
    table.sim.now = LIFETIME + 1
    table.expire_due()
    assert not table.allocator.live
    assert e.out_tag is not None


def test_full_tag_space_counts_as_a_full_table():
    table, counters, drops = make_table(capacity=16)
    table.allocator = TagAllocator(tag_space=1)
    table.allocator.acquire()
    assert table.allocator.full()
    assert table.create(key(5), dgram_id=1) is None
    assert counters.vrb_full == 1
    assert table.live_entries == 0
    assert drops == []


def test_allocator_skips_live_tags_and_wraps():
    alloc = TagAllocator(tag_space=4)
    tags = [alloc.acquire() for _ in range(4)]
    assert tags == [0, 1, 2, 3]
    with pytest.raises(RuntimeError):
        alloc.acquire()
    alloc.release(1)
    assert alloc.acquire() == 1  # wrapped past live 0, 2, 3
    alloc.release(3)
    alloc.release(2)
    assert alloc.acquire() == 2  # counter continues after 1


def test_remove_releases_slot_and_tag_silently():
    table, counters, drops = make_table(capacity=1)
    entry = table.create(key(5), dgram_id=1)
    entry.queued.append("frame")
    table.remove(entry)
    assert table.live_entries == 0
    assert not table.allocator.live
    assert counters.vrb_expired == 0
    assert drops == []
    # slot and tag are immediately reusable
    again = table.create(key(6), dgram_id=2)
    assert again is not None
    assert again.out_tag != entry.out_tag   # sequence still advances


def frame(dgram_id):
    return Frame(9, 2, None, dgram_id)


def test_eviction_frees_queued_arena_charge():
    arena = PacketArena(None)
    table, counters, _ = make_table(capacity=4, arena=arena)
    entry = table.create(key(5), dgram_id=1)
    assert table.enqueue(entry, frame(1), 100)
    assert table.enqueue(entry, frame(1), 200)
    assert arena.used == 300
    table.sim.now = LIFETIME + 1
    table.expire_due()
    assert arena.used == 0
    assert counters.vrb_expired == 1


def test_remove_frees_the_whole_queued_charge():
    arena = PacketArena(None)
    table, _, drops = make_table(arena=arena)
    entry = table.create(key(5), dgram_id=1)
    for wire in (127, 127, 60):
        assert table.enqueue(entry, frame(1), wire)
    table.remove(entry)
    assert arena.used == 0 and arena.high_water == 314
    assert len(entry.queued) == 3               # still there to be sent
    assert drops == []


def test_enqueue_without_room_drops_entry_and_charge():
    arena = PacketArena(200)
    table, counters, drops = make_table(arena=arena)
    entry = table.create(key(5), dgram_id=1)
    assert table.enqueue(entry, frame(1), 127)
    assert not table.enqueue(entry, frame(1), 127)
    assert counters.pktbuf_full == 1
    assert drops == [(1, "pktbuf_full")]
    assert table.live_entries == 0 and arena.used == 0
    assert not table.allocator.live
