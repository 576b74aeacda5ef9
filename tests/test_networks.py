"""Property test: any valid small network runs invariant-clean.

Lines, stars and random trees of 3 to 10 nodes are simulated under every
strategy with buffer, queue and arena sizes from one to unbounded.  Every
node sits at the origin, so any link is in range; each route edge has a
link and a few extra links add interference, each with a PDR in [0.5, 1].
A run must report no violation, and the drain checks at its end are
violations too.  While it runs:

- a MAC never starts a frame while another is in flight, and ends no job
  before its airtime does, so a MAC with no job is never on the air;
- a node never hands out a live datagram tag or frees one that is not
  live;
- a node processes the fragments of each datagram key in strictly
  increasing offset order, so each at most once;
- a forwarder retags only first fragments that carry exactly the 40-byte
  header region.

Under the lossless oracle's settings every datagram arrives.  A run that
keeps scheduling events at one instant fails instead of hanging, so
hypothesis can shrink a livelock to a small network.

Three held-out 50-member networks, generated from two other synthetic
floor plans and from another start seed, must come out byte-identical on
every generation, with the SHA-256 each had when it was first measured,
and run clean under every strategy at the smallest and largest
fragmented payloads.
"""

import hashlib
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lowpansim import node_stack
from lowpansim.buffers import DatagramKey
from lowpansim.cli import main
from lowpansim.frag_codec import HEADER_REGION, Frag1Header
from lowpansim.harness import STUDY_PAYLOADS, _simulate, scenario_from_dict
from lowpansim.link_mac import Mac
from lowpansim.node_stack import STRATEGIES, Node
from lowpansim.sim_core import Simulator
from lowpansim.topology import Topology, load_topology, save_topology
from lowpansim.vrb import TagAllocator

ORIGIN = (0.0, 0.0, 0.0)
ENTRIES = st.sampled_from((1, 2, 16, None))
LIFETIME = st.sampled_from((20_000, 10_000_000))   # short or the default
INSTANT_EVENTS = 10_000     # 500 generated runs put at most 4 on one instant


@st.composite
def networks(draw):
    n = draw(st.integers(3, 10))
    shape = draw(st.sampled_from(("line", "star", "tree")))
    if shape == "line":
        routes = {i: i - 1 for i in range(1, n)}
    elif shape == "star":       # the sink's one child forwards for the rest
        routes = {i: min(i - 1, 1) for i in range(1, n)}
    else:
        routes = {i: draw(st.integers(0, i - 1)) for i in range(1, n)}
    pairs = {(parent, child) for child, parent in routes.items()}
    node = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=3)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    links = {pair: draw(st.floats(0.5, 1.0)) for pair in sorted(pairs)}
    return Topology(0, {i: ORIGIN for i in range(n)}, routes, links)


@st.composite
def scenarios(draw):
    return {
        "version": 1,
        "topology": "net.txt",
        "strategy": draw(st.sampled_from(sorted(STRATEGIES))),
        "payloads": [draw(st.sampled_from(STUDY_PAYLOADS))],
        "interval_us": draw(st.sampled_from(
            ([1000, 20_000], [100_000, 500_000], [1_000_000, 2_000_000]))),
        "packets_per_source": draw(st.integers(1, 8)),
        "seeds": [draw(st.integers(0, 10**6))],
        "rbuf_entries": draw(ENTRIES),
        "sink_rbuf_entries": draw(ENTRIES),
        "vrb_entries": draw(ENTRIES),
        "serialize_sends": draw(st.booleans()),
        "mac": {"queue_capacity": draw(st.sampled_from((1, 4, 64, None))),
                "rx_handover_us": draw(st.sampled_from((0, 1000)))},
        "stack": {"arena_bytes": draw(st.sampled_from((600, 1500, 6144,
                                                       None))),
                  "reassembly_timeout_us": draw(LIFETIME),
                  "vrb_lifetime_us": draw(LIFETIME)},
    }


@st.composite
def lossless_scenarios(draw):
    """test_a04's lossless oracle: every loss mechanism off, serialized
    sends, and a backoff window wider than one frame airtime."""
    return {
        "version": 1,
        "topology": "net.txt",
        "strategy": draw(st.sampled_from(sorted(STRATEGIES))),
        "payloads": [draw(st.sampled_from(STUDY_PAYLOADS))],
        "interval_us": [2_000_000, 3_000_000],
        "packets_per_source": draw(st.integers(1, 4)),
        "seeds": [draw(st.integers(0, 10**6))],
        "force_link_pdr": 1.0,
        "serialize_sends": True,
        "rbuf_entries": None, "sink_rbuf_entries": None, "vrb_entries": None,
        "mac": {"max_retransmissions": 10_000, "queue_capacity": None,
                "min_be": 6, "max_be": 8},
        "stack": {"frag_buffer_slots": None, "arena_bytes": None},
    }


@contextmanager
def checked_invariants():
    """Wrap the MAC's job start and end, the tag allocator, the stack's
    receive step and the forwarder's retag so that a broken invariant
    raises out of the simulation.  No node here issues 65,536 tags, so a
    datagram key is used once per run."""
    start_job, finish_job = Mac._start_job, Mac._finish_job
    acquire, release = TagAllocator.acquire, TagAllocator.release
    process, refragment_first = Node._process, node_stack.refragment_first
    last_offset = {}

    def checked_start_job(mac, frame):
        assert mac.current is None, "node %d: two frames in flight" % (
            mac.node_id)
        start_job(mac, frame)

    def checked_finish_job(mac, frame, size, cause):
        # A MAC with no job is never on the air, so its idle transceiver
        # checks need not look at tx_until.
        assert mac.tx_until <= mac.sim.now, (
            "node %d: job ended on the air until %d" % (mac.node_id,
                                                        mac.tx_until))
        finish_job(mac, frame, size, cause)

    def checked_acquire(tags):
        live = len(tags.live)
        tag = acquire(tags)
        assert len(tags.live) == live + 1, "tag %d was already live" % tag
        return tag

    def checked_release(tags, tag):
        assert tag in tags.live, "tag %d released but not live" % tag
        release(tags, tag)

    def checked_process(node, frame):
        header = frame.fragment.header
        if header is not None:
            key = DatagramKey(frame.src, node.config.id,
                              header.datagram_size, header.datagram_tag)
            offset = frame.fragment.offset
            assert offset > last_offset.get(key, -1), (
                "offset %d after %d for %r" % (offset, last_offset[key], key))
            last_offset[key] = offset
        process(node, frame)

    def checked_refragment_first(first_frag, tag):
        assert isinstance(first_frag.header, Frag1Header), first_frag
        assert len(first_frag.payload) == HEADER_REGION, first_frag
        return refragment_first(first_frag, tag)

    with mock.patch.object(Mac, "_start_job", checked_start_job), \
            mock.patch.object(Mac, "_finish_job", checked_finish_job), \
            mock.patch.object(TagAllocator, "acquire", checked_acquire), \
            mock.patch.object(TagAllocator, "release", checked_release), \
            mock.patch.object(Node, "_process", checked_process), \
            mock.patch.object(node_stack, "refragment_first",
                              checked_refragment_first):
        yield


@contextmanager
def bounded_instants():
    """Wrap Simulator.at so that a run fails once INSTANT_EVENTS events
    fall on one instant, as a livelock's would."""
    at, counts = Simulator.at, Counter()

    def counted_at(sim, t, fn, *args):
        counts[t] += 1
        assert counts[t] <= INSTANT_EVENTS, (
            "%d events at t=%d: %s" % (counts[t], t, fn))
        at(sim, t, fn, *args)

    with mock.patch.object(Simulator, "at", counted_at):
        yield


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("networks")


def simulate(work, topo, cfg):
    save_topology(topo, work / "net.txt")
    scenario = scenario_from_dict(cfg, base_dir=work)
    payload, = scenario.payloads
    with bounded_instants():
        record = _simulate(scenario, topo, scenario.seeds[0], payload)
    assert record.violations == []
    assert record.sent == len(topo.senders()) * scenario.packets_per_source
    return record


@settings(max_examples=300, deadline=None)
@given(networks(), scenarios())
def test_generated_networks_run_clean(work, topo, cfg):
    with checked_invariants():
        simulate(work, topo, cfg)


@settings(max_examples=200, deadline=None)
@given(networks(), lossless_scenarios())
def test_generated_lossless_networks_deliver_everything(work, topo, cfg):
    record = simulate(work, topo, cfg)
    assert record.delivered == record.sent


@pytest.mark.parametrize("flags, digest", [
    pytest.param(["--plan-seed", "1"], "fedd7963d21e57886a88a746d3f09303"
                 "ae9ab443d537a3b8b0e6e39ce9c887bb", id="1"),
    pytest.param(["--plan-seed", "2"], "6b0c45e83f46f6381df93a26c18e6e86"
                 "e01e82fd7052ce9491b4432b89d38bf7", id="2"),
    pytest.param(["--start-seed", "1"], "33f755b8ed08cb095d175080f392413f"
                 "1e50f26e36bb1febdee9478bf94c137a", id="start-seed-1"),
])
def test_held_out_networks_are_reproducible_and_run_clean(tmp_path, flags,
                                                          digest):
    paths = [tmp_path / ("net-%s.txt" % run) for run in "ab"]
    for path in paths:
        assert main(["generate-topology", *flags, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert hashlib.sha256(paths[0].read_bytes()).hexdigest() == digest
    topo = load_topology(paths[0])
    for strategy in sorted(STRATEGIES):
        scenario = scenario_from_dict({
            "version": 1, "topology": paths[0].name, "strategy": strategy,
            "payloads": [80, 1232], "interval_us": [5_000_000, 10_000_000],
            "packets_per_source": 2, "seeds": [1]}, base_dir=tmp_path)
        for payload in scenario.payloads:
            with checked_invariants():
                record = _simulate(scenario, topo, 1, payload)
            assert record.violations == []
            assert record.sent == 2 * len(topo.senders())
