"""End-to-end experiment runner tests on small handcrafted networks."""

import cProfile
import hashlib
import json
import multiprocessing
import os
import statistics
import sys
import threading
from dataclasses import fields

import pytest

from lowpansim import harness
from lowpansim.harness import (Run, Scenario, ScenarioError, FRAG_COUNT_TABLE,
                               UNBOUNDED_ENTRIES, _render_run, _scenario_block,
                               aggregate_runs, load_scenario, read_run_file,
                               run_experiment, frag_table_check,
                               scenario_fingerprint, worker_count)
from lowpansim.link_mac import CCA_DUR_US, MacParams, airtime_us
from lowpansim.node_stack import StackParams
from lowpansim.topology import Topology, link_pdr, save_topology

PROC_US = 2000


def line_topology(n, pitch=3.0):
    positions = {i: (i * pitch, 0.0, 0.0) for i in range(n)}
    routes = {i: i - 1 for i in range(1, n)}
    links = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = (j - i) * pitch
            if d <= 6.6:
                links[(i, j)] = link_pdr(d)
    return Topology(0, positions, routes, links)


def write_scenario(tmp_path, topo, name="scn.json", **over):
    save_topology(topo, tmp_path / "net.txt")
    cfg = {
        "version": 1,
        "topology": "net.txt",
        "strategy": "HWR",
        "payloads": [80],
        "interval_us": [1000000, 2000000],
        "packets_per_source": 2,
        "seeds": [1],
        "force_link_pdr": 1.0,
    }
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_frag_table_check_is_clean():
    rows, mismatches = frag_table_check()
    assert mismatches == []
    assert rows == list(FRAG_COUNT_TABLE)
    assert (176, 3) in rows and (1040, 12) in rows and (16, 1) in rows


def test_scenario_validation(tmp_path):
    topo = line_topology(4)
    good = write_scenario(tmp_path, topo)
    scn = load_scenario(good)
    assert scn.strategy == "HWR" and scn.seeds == (1,)
    scn = load_scenario(write_scenario(
        tmp_path, topo, name="nulls.json", seeds=[-3, 0], rbuf_entries=None,
        mac={"queue_capacity": None},
        stack={"frag_buffer_slots": None, "arena_bytes": None}))
    assert scn.seeds == (-3, 0) and scn.rbuf_entries == UNBOUNDED_ENTRIES
    assert scn.mac.queue_capacity is None and scn.stack.arena_bytes is None
    assert scn.stack.frag_buffer_slots == UNBOUNDED_ENTRIES

    for bad in (
        {"strategy": "FLOOD"},
        {"payloads": [81]},
        {"payloads": []},
        {"payloads": 80},
        {"payloads": [80, 80]},
        {"interval_us": [5, 2]},
        {"interval_us": 5},
        {"seeds": []},
        {"seeds": [True]},
        {"packets_per_source": True},
        {"rbuf_entries": True},
        {"force_link_pdr": "abc"},
        {"check_paths": "no"},
        {"mac": {"min_be": "3"}},
        {"mac": {"min_be": 3, "max_be": 1}},
        {"mac": {"l2_overhead": 200}},
        {"stack": {"proc_delay_us": -5}},
        {"stack": {"comp_header_bytes": 41}},
        {"version": 2},
        {"version": True},
        {"version": 1.0},
        {"frobnicate": 1},
        {"topology": "missing.txt"},
    ):
        path = write_scenario(tmp_path, topo, name="bad.json", **bad)
        with pytest.raises(ScenarioError):
            load_scenario(path)


def test_every_scenario_key_changes_fingerprint_and_run_file(tmp_path):
    save_topology(line_topology(5), tmp_path / "net5.txt")
    variants = {
        "topology": "net5.txt", "strategy": "FF", "payloads": [176],
        "interval_us": [1000000, 3000000], "packets_per_source": 3,
        "seeds": [2], "rbuf_entries": 2, "sink_rbuf_entries": None,
        "vrb_entries": 3, "force_link_pdr": 0.5, "check_paths": False,
        "serialize_sends": True, "mac": {"min_be": 2},
        "stack": {"proc_delay_us": 1000},
    }
    assert set(variants) == {f.name for f in fields(Scenario)} - {"base_dir"}
    changes = list(variants.items())
    for key, params in (("mac", MacParams), ("stack", StackParams)):
        changes += [(key, {f.name: f.default + 1}) for f in fields(params)]

    def identity(**over):
        scn = load_scenario(write_scenario(tmp_path, line_topology(4), **over))
        topo = scn.topology_path().read_bytes()
        fingerprint = scenario_fingerprint(scn, topo)
        text = _render_run(Run(_scenario_block(
            scn, fingerprint, hashlib.sha256(topo).hexdigest(), 0, 1), []))
        return fingerprint, text[:text.index("[summary]")]

    base = identity()
    for key, value in changes:
        fingerprint, block = identity(**{key: value})
        assert fingerprint != base[0], (key, value)
        assert block != base[1], (key, value)


def test_lossless_line_exact_latency(tmp_path):
    # min_be 0 makes the MAC deterministic; senders are seconds apart so
    # nothing ever contends. Per hop: CCA + airtime + processing delay.
    scn = load_scenario(write_scenario(
        tmp_path, line_topology(4), payloads=[16], packets_per_source=1,
        mac={"min_be": 0, "max_be": 0}))
    out = tmp_path / "out"
    files, _ = run_experiment(scn, out)
    run_file = [p for p in files if p.name.startswith("run-")][0]
    text = run_file.read_text()
    assert "violation\t" not in text

    per_hop = CCA_DUR_US + airtime_us(71) + PROC_US
    rows = _section(text, "latency")
    got = {(int(r["hop_distance"]), int(r["latency_us"])) for r in rows}
    assert got == {(2, 2 * per_hop), (3, 3 * per_hop)}
    summary = _section(text, "summary")
    assert [(int(r["payload"]), int(r["sent"]), int(r["delivered"]))
            for r in summary] == [(16, 2, 2)]
    assert all(float(r["pdr"]) == 1.0 for r in summary)


def _section(text, name):
    lines = text.splitlines()
    start = lines.index("[%s]" % name)
    header = lines[start + 1].split("\t")
    rows = []
    for line in lines[start + 2:]:
        if line.startswith("["):
            break
        if line:
            rows.append(dict(zip(header, line.split("\t"))))
    return rows


def test_serialized_sends_keep_the_channel_quiet(tmp_path):
    # Round-robin one-at-a-time scheduling: with a deterministic MAC every
    # delivery hits the closed-form per-hop latency because no train ever
    # shares the channel with another.
    scn = load_scenario(write_scenario(
        tmp_path, line_topology(4), payloads=[16], packets_per_source=3,
        serialize_sends=True, interval_us=[50000, 60000],
        mac={"min_be": 0, "max_be": 0}))
    assert scn.serialize_sends is True
    files, _ = run_experiment(scn, tmp_path / "out")
    text = [p for p in files if p.name.startswith("run-")][0].read_text()
    assert "serialize_sends\ttrue" in text
    assert "violation\t" not in text
    per_hop = CCA_DUR_US + airtime_us(71) + PROC_US
    got = sorted((int(r["hop_distance"]), int(r["latency_us"]))
                 for r in _section(text, "latency"))
    assert got == sorted([(2, 2 * per_hop)] * 3 + [(3, 3 * per_hop)] * 3)


def test_run_is_byte_identical_on_rerun(tmp_path):
    scn = load_scenario(write_scenario(
        tmp_path, line_topology(5), payloads=[80, 272],
        packets_per_source=3, seeds=[7, 8], force_link_pdr=0.9))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    files1, _ = run_experiment(scn, d1)
    files2, _ = run_experiment(scn, d2)
    assert [p.name for p in files1] == [p.name for p in files2]
    for p1, p2 in zip(files1, files2):
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2, p1.name


def _digests(files):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def _counting_simulate(monkeypatch):
    """Replace harness._simulate with an in-process wrapper; returns the
    list of worker processes alive at each call."""
    seen, simulate = [], harness._simulate

    def counted(*args):
        seen.append(multiprocessing.active_children())
        return simulate(*args)
    monkeypatch.setattr(harness, "_simulate", counted)
    return seen


def test_run_files_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    scn = load_scenario(write_scenario(
        tmp_path, line_topology(5), payloads=[80, 272],
        packets_per_source=3, seeds=[7, 8, 7], force_link_pdr=0.9))
    # Two usable CPUs, so that jobs=2 starts a pool on any host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    pooled = _digests(run_experiment(scn, tmp_path / "pool", jobs=2)[0])
    seen = _counting_simulate(monkeypatch)
    single = _digests(run_experiment(scn, tmp_path / "one", jobs=1)[0])
    assert len(seen) == 4            # the repeated seed is simulated once
    assert single == pooled
    assert sorted(single) == ["aggregate.json", "run-00.txt", "run-01.txt",
                              "run-02.txt"]
    assert single["run-00.txt"] != single["run-02.txt"]   # run_index differs


def test_worker_count_is_capped_by_cpus_and_tasks(monkeypatch):
    assert 1 <= worker_count(10 ** 6, 50) <= min(os.cpu_count(), 50)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    assert worker_count(10 ** 6, 50) == 2
    assert worker_count(None, 50) == 2
    assert worker_count(1, 50) == 1
    assert worker_count(None, 1) == 1
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            worker_count(jobs, 50)


def test_one_worker_where_a_pool_would_be_unsafe_or_unseen(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    assert worker_count(None, 50) == 2
    # Fork is unsafe once another thread runs.
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert worker_count(None, 50) == 1
    finally:
        stop.set()
        waiter.join(timeout=10)
    # A profiler sees only this process, so the work stays in it.
    profile = cProfile.Profile()
    profile.enable()
    try:
        profiled = worker_count(None, 50)
    finally:
        profile.disable()
    assert profiled == 1
    # Elsewhere than on Linux, fork is not the safe default.
    monkeypatch.setattr(sys, "platform", "darwin")
    assert worker_count(None, 50) == 1


def test_one_worker_runs_in_this_process(tmp_path, monkeypatch):
    seen = _counting_simulate(monkeypatch)
    one_task = load_scenario(write_scenario(tmp_path, line_topology(4)))
    run_experiment(one_task, tmp_path / "a")
    many_tasks = load_scenario(write_scenario(
        tmp_path, line_topology(4), name="many.json", payloads=[80, 176],
        seeds=[1, 2]))
    run_experiment(many_tasks, tmp_path / "b", jobs=1)
    assert seen == [[]] * 5
    assert multiprocessing.active_children() == []


def test_lossy_run_conserves_every_datagram(tmp_path):
    scn = load_scenario(write_scenario(
        tmp_path, line_topology(6), payloads=[272], packets_per_source=5,
        seeds=[3], force_link_pdr=0.8,
        mac={"max_retransmissions": 1}))
    files, _ = run_experiment(scn, tmp_path / "out")
    text = [p for p in files if p.name.startswith("run-")][0].read_text()
    assert "violation\t" not in text
    summary = _section(text, "summary")[0]
    sent, delivered = int(summary["sent"]), int(summary["delivered"])
    causes = sum(int(r["count"]) for r in _section(text, "loss_causes"))
    assert sent == 4 * 5
    assert delivered < sent          # pdr 0.8 with one retry must lose some
    assert sent == delivered + causes


def test_aggregate_single_run_equals_that_run(tmp_path):
    scn = load_scenario(write_scenario(tmp_path, line_topology(4)))
    files, _ = run_experiment(scn, tmp_path / "out")
    runs = [p for p in files if p.name.startswith("run-")]
    agg = aggregate_runs([read_run_file(p) for p in runs])
    assert agg["runs"] == 1
    assert agg["per_payload"]["80"]["pdr"] == [1.0]
    assert agg["per_payload"]["80"]["pdr_mean"] == 1.0


def test_aggregate_identical_seeds_have_zero_variance(tmp_path):
    scn = load_scenario(write_scenario(
        tmp_path, line_topology(5), seeds=[5, 5, 5], force_link_pdr=0.9))
    files, _ = run_experiment(scn, tmp_path / "out")
    runs = [p for p in files if p.name.startswith("run-")]
    agg = aggregate_runs([read_run_file(p) for p in runs])
    pdrs = agg["per_payload"]["80"]["pdr"]
    assert len(set(pdrs)) == 1


def test_aggregate_matches_independent_fold(tmp_path):
    scn = load_scenario(write_scenario(
        tmp_path, line_topology(6), payloads=[272], packets_per_source=4,
        seeds=[1, 2, 3], force_link_pdr=0.9))
    runs = [p for p in run_experiment(scn, tmp_path / "out")[0]
            if p.name.startswith("run-")]
    agg = aggregate_runs([read_run_file(p) for p in runs])

    # independent re-fold straight off the files
    pdrs, retrans = [], []
    for path in runs:
        text = path.read_text()
        row = _section(text, "summary")[0]
        pdrs.append(int(row["delivered"]) / int(row["sent"]))
        counters = _section(text, "node_counters")
        retrans.append(statistics.mean(
            int(r["l2_retransmissions"]) for r in counters))
    assert agg["per_payload"]["272"]["pdr_mean"] == pytest.approx(
        statistics.mean(pdrs))
    assert agg["l2_retransmissions_per_node_mean"] == pytest.approx(
        statistics.mean(retrans))


def test_aggregate_refuses_mixed_scenarios(tmp_path):
    topo = line_topology(4)
    s1 = load_scenario(write_scenario(tmp_path, topo, name="a.json"))
    s2 = load_scenario(write_scenario(tmp_path, topo, name="b.json",
                                      payloads=[176]))
    f1, _ = run_experiment(s1, tmp_path / "o1")
    f2, _ = run_experiment(s2, tmp_path / "o2")
    mixed = ([p for p in f1 if p.name.startswith("run-")]
             + [p for p in f2 if p.name.startswith("run-")])
    with pytest.raises(ScenarioError):
        aggregate_runs([read_run_file(p) for p in mixed])


def test_strategies_all_run_on_a_lossy_line(tmp_path):
    for strategy in ("HWR", "FF", "FF_QUEUED"):
        scn = load_scenario(write_scenario(
            tmp_path, line_topology(5), name="s_%s.json" % strategy,
            strategy=strategy, payloads=[272], packets_per_source=3,
            seeds=[2], force_link_pdr=0.95))
        files, _ = run_experiment(scn, tmp_path / ("out_" + strategy))
        text = [p for p in files if p.name.startswith("run-")][0].read_text()
        assert "violation\t" not in text, strategy
