"""Tests for site plans, BFS member sampling, routes, and topology files."""

import math

import pytest

from lowpansim.topology import (GATE_FAR_M, GATE_NEAR_M, GenerationError,
                                SitePlan, Topology, TopologyFileError,
                                build_topology, find_topology,
                                grid_office_plan, link_pdr, load_topology,
                                save_topology)


def test_link_pdr_profile():
    assert link_pdr(0.5) == 1.0
    assert link_pdr(GATE_NEAR_M) == 1.0
    assert link_pdr(4.4) == pytest.approx(0.9875)   # halfway point
    assert link_pdr(GATE_FAR_M) == pytest.approx(0.975)
    assert link_pdr(GATE_FAR_M + 0.01) == 0.0


def test_site_plan_rejects_bad_input():
    with pytest.raises(ValueError):
        SitePlan([(1, 0.0, 0.0, 0.0), (1, 3.0, 0.0, 0.0)])   # dup id
    with pytest.raises(ValueError):
        SitePlan([(1, float("nan"), 0.0, 0.0)])


def test_grid_office_plan_has_two_density_regimes():
    plan = grid_office_plan(seed=0)
    ids = sorted(plan.positions)
    assert len(ids) >= 60
    dists = []
    pts = list(plan.positions.values())
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            dists.append(math.dist(a, b))
    assert any(d < GATE_NEAR_M for d in dists)      # desk pairs
    assert any(GATE_NEAR_M <= d <= GATE_FAR_M for d in dists)


def line_plan(n, pitch=3.0):
    return SitePlan([(i, i * pitch, 0.0, 0.0) for i in range(n)])


def test_build_topology_shape_and_determinism():
    plan = grid_office_plan(seed=0)
    topo = build_topology(plan, sink=0, seed=5)
    again = build_topology(plan, sink=0, seed=5)
    assert topo.routes == again.routes and topo.links == again.links

    assert len(topo.members) == 50
    assert topo.sink == 0
    assert len(topo.sink_children()) == 2
    assert topo.hop_distance[topo.sink] == 0
    for child, parent in topo.routes.items():
        d = math.dist(topo.positions[child], topo.positions[parent])
        assert GATE_NEAR_M <= d <= GATE_FAR_M       # candidate gate
        assert topo.hop_distance[child] == topo.hop_distance[parent] + 1
    for (a, b), pdr in topo.links.items():
        assert a < b
        d = math.dist(topo.positions[a], topo.positions[b])
        assert d <= GATE_FAR_M
        assert pdr == link_pdr(d) > 0.0
    # every member pair in radio range is a link
    ms = sorted(topo.members)
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            if math.dist(topo.positions[a], topo.positions[b]) <= GATE_FAR_M:
                assert (a, b) in topo.links


def test_senders_exclude_sink_and_its_children():
    topo = build_topology(grid_office_plan(seed=0), sink=0, seed=5)
    senders = topo.senders()
    assert len(senders) == 47
    assert topo.sink not in senders
    for child in topo.sink_children():
        assert child not in senders


def test_too_dense_plan_fails_generation():
    # 60 nodes inside a 2 m square: nothing sits in the 2.2..6.6 ring,
    # so the sink has no candidates at all.
    cluster = SitePlan([(i, (i % 8) * 0.2, (i // 8) * 0.2, 0.0)
                        for i in range(60)])
    with pytest.raises(GenerationError):
        build_topology(cluster, sink=0, seed=1)


def test_exhaustion_before_target_raises():
    with pytest.raises(GenerationError):
        build_topology(line_plan(10), sink=0, seed=1)   # only 10 nodes


def test_sink_with_exactly_two_candidates_takes_both():
    plan = SitePlan([(0, 0.0, 0.0, 0.0), (1, 3.0, 0.0, 0.0),
                     (2, 0.0, 3.0, 0.0), (3, 50.0, 50.0, 0.0)])
    topo = build_topology(plan, sink=0, seed=9, member_target=3)
    assert sorted(topo.sink_children()) == [1, 2]
    assert topo.hop_distance == {0: 0, 1: 1, 2: 1}


def test_find_topology_enforces_size_and_depth():
    topo, seed = find_topology(grid_office_plan(seed=0), sink=0,
                               start_seed=0, tries=500)
    non_sink_kids = {}
    for child, parent in topo.routes.items():
        if parent != topo.sink:
            non_sink_kids[parent] = non_sink_kids.get(parent, 0) + 1
    assert max(non_sink_kids.values()) >= 2         # bottleneck forwarder
    assert len(topo.members) == 50
    assert build_topology(grid_office_plan(seed=0), 0, seed).routes == topo.routes


def test_save_load_round_trip(tmp_path):
    topo = build_topology(grid_office_plan(seed=0), sink=0, seed=5)
    path = tmp_path / "net.txt"
    save_topology(topo, path)
    back = load_topology(path)
    assert back.sink == topo.sink
    assert back.positions == topo.positions
    assert back.routes == topo.routes
    assert back.links == topo.links
    assert back.hop_distance == topo.hop_distance
    save_topology(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("topology v1\nsink 0\nnode 0 0.0 0.0\n")
    with pytest.raises(TopologyFileError) as err:
        load_topology(path)
    assert "line 3" in str(err.value)


def test_pinned_fixture_shape():
    from importlib import resources

    with resources.as_file(resources.files("lowpansim.data")
                           .joinpath("topology50.txt")) as path:
        topo = load_topology(path)
    assert len(topo.members) == 50
    assert len(topo.sink_children()) == 2
    assert len(topo.senders()) == 47
    assert max(topo.hop_distance.values()) == 6
    rebuilt = build_topology(grid_office_plan(seed=0), sink=0, seed=0)
    assert rebuilt.routes == topo.routes and rebuilt.links == topo.links


def test_load_rejects_unknown_route_node(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("topology v1\nsink 0\nnode 0 0.0 0.0 0.0\n"
                    "node 1 3.0 0.0 0.0\nroute 1 7\n")
    with pytest.raises(TopologyFileError):
        load_topology(path)


_TWO_NODES = (b"topology v1\nsink 0\nnode 0 0.0 0.0 0.0\nnode 1 %s 0.0 0.0\n"
              b"route 1 0\nlink 0 1 0.9875\n")


# nan would pass the link length check: nan > 6.6 is false.
@pytest.mark.parametrize("data, message", [
    (_TWO_NODES % b"3.0" + b"link 0 1 0.5\n", "line 7: duplicate link 0 1"),
    (_TWO_NODES % b"3.0" + b"sink 1\n", "line 7: second sink line"),
    (_TWO_NODES % b"nan", "non-finite coordinate for node 1"),
    (_TWO_NODES % b"3.0" + b"# caf\xe9\n", "not ASCII"),
], ids=("repeated-link", "repeated-sink", "nan", "non-ascii"))
def test_load_rejects_malformed_files(tmp_path, data, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(TopologyFileError, match=message):
        load_topology(path)
