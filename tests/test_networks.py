"""Property test: any valid small network runs invariant-clean.

Lines, stars and random trees of 3 to 10 nodes are simulated under every
strategy with buffer, queue and arena sizes from one to unbounded.  Every
node sits at the origin, so any link is in range; each route edge has a
link and a few extra links add interference, each with a PDR in [0.5, 1].
A run must report no violation, and the drain checks at its end are
violations too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lowpansim.harness import (STUDY_PAYLOADS, UNBOUNDED_ENTRIES, _simulate,
                               scenario_from_dict)
from lowpansim.node_stack import STRATEGIES
from lowpansim.topology import Topology, save_topology

ORIGIN = (0.0, 0.0, 0.0)
ENTRIES = st.sampled_from((1, 2, 16, UNBOUNDED_ENTRIES))
LIFETIME = st.sampled_from((20_000, 10_000_000))   # short or the default


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
                "rx_handover_us": draw(st.sampled_from((0, 1000))),
                "queue_retry_us": draw(st.sampled_from((1, 5000)))},
        "stack": {"arena_bytes": draw(st.sampled_from((600, 1500, 6144,
                                                       None))),
                  "reassembly_timeout_us": draw(LIFETIME),
                  "vrb_lifetime_us": draw(LIFETIME)},
    }


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("networks")


@settings(max_examples=300, deadline=None)
@given(networks(), scenarios())
def test_generated_networks_run_clean(work, topo, cfg):
    save_topology(topo, work / "net.txt")
    scenario = scenario_from_dict(cfg, base_dir=work)
    payload, = scenario.payloads
    record = _simulate(scenario, topo, scenario.seeds[0], payload)
    assert record.violations == []
    assert record.sent == len(topo.senders()) * scenario.packets_per_source
