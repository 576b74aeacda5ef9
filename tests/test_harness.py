"""End-to-end experiment runner tests on small handcrafted networks."""

import cProfile
import gc
import hashlib
import json
import multiprocessing
import os
import statistics
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lowpansim import harness
from lowpansim.cli import main
from lowpansim.harness import (Run, ScenarioError, MAX_WAIT_US, _SCHEMA,
                               _render_run, _scenario_block, aggregate_runs,
                               load_scenario, read_run_file, run_experiment,
                               scenario_fingerprint, worker_count)
from lowpansim.link_mac import CCA_DUR_US, Frame, MacParams, airtime_us
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


def test_scenario_validation(tmp_path):
    topo = line_topology(4)
    good = write_scenario(tmp_path, topo)
    scn = load_scenario(good)
    assert scn.strategy == "HWR" and scn.seeds == (1,)
    scn = load_scenario(write_scenario(
        tmp_path, topo, name="nulls.json", seeds=[-3, 0], rbuf_entries=None,
        mac={"queue_capacity": None},
        stack={"frag_buffer_slots": None, "arena_bytes": None}))
    assert scn.seeds == (-3, 0) and scn.rbuf_entries is None
    assert scn.mac.queue_capacity is None and scn.stack.arena_bytes is None
    assert scn.stack.frag_buffer_slots is None

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
        {"seeds": [1, 1]},
        {"packets_per_source": True},
        {"rbuf_entries": True},
        {"force_link_pdr": "abc"},
        {"check_paths": True},
        {"mac": {"min_be": "3"}},
        {"mac": {"min_be": 3, "max_be": 1}},
        {"mac": {"max_be": 9}},
        {"mac": {"min_be": 64, "max_be": 64}},
        {"mac": {"l2_overhead": 23}},
        {"mac": {"queue_retry_us": 5000}},
        {"mac": {"ack_timeout_us": MAX_WAIT_US + 1}},
        {"stack": {"proc_delay_us": -5}},
        {"stack": {"proc_delay_us": MAX_WAIT_US + 1}},
        {"stack": {"reassembly_timeout_us": 10 ** 19}},
        {"stack": {"comp_header_bytes": 24}},
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
        "vrb_entries": 3, "force_link_pdr": 0.5,
        "serialize_sends": True, "mac": {"min_be": 2},
        "stack": {"proc_delay_us": 1000},
    }
    assert set(variants) == {key for key, _, _ in _SCHEMA}
    changes = list(variants.items())
    for key, params in (("mac", MacParams), ("stack", StackParams)):
        changes += [(key, {name: default + 1})
                    for name, default in params._field_defaults.items()]

    def identity(**over):
        scn = load_scenario(write_scenario(tmp_path, line_topology(4), **over))
        topo_sha = hashlib.sha256(scn.topology_path().read_bytes()).hexdigest()
        block = _scenario_block(scn, topo_sha, scn.seeds[0])
        text = _render_run(Run(block, []))
        return scenario_fingerprint(block), text[:text.index("[summary]")]

    # Every key but seeds identifies the scenario.  A run file holds one
    # seed, so seeds changes it through its seed line alone.
    base = identity()
    for key, value in changes:
        fingerprint, block = identity(**{key: value})
        assert (fingerprint != base[0]) == (key != "seeds"), (key, value)
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
        packets_per_source=3, seeds=[7, 8], force_link_pdr=0.9))
    # Two usable CPUs, so that jobs=2 starts a pool on any host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    pooled = _digests(run_experiment(scn, tmp_path / "pool", jobs=2)[0])
    seen = _counting_simulate(monkeypatch)
    single = _digests(run_experiment(scn, tmp_path / "one", jobs=1)[0])
    assert len(seen) == 4            # two seeds times two payloads
    assert single == pooled
    assert sorted(single) == ["aggregate.json", "run-00.txt", "run-01.txt"]


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


def test_a_run_holds_little_per_datagram(tmp_path):
    # Peak traced memory of a lossless run grows by about 430 bytes per
    # extra datagram: its bookkeeping, its scheduled send and its latency
    # row.  A set of delivered edges kept per datagram for the route check
    # made it about 900 (Python 3.10, 3.11 and 3.13 alike).  Collecting
    # first keeps an earlier test's cyclic garbage out of the peak.
    topo = line_topology(4)

    def peak(count):
        scn = load_scenario(write_scenario(tmp_path, topo,
                                           packets_per_source=count))
        gc.collect()
        tracemalloc.start()
        try:
            record = harness._simulate(scn, topo, 1, 80)
            return record.sent, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)                        # first-run caches stay out of the delta
    (few, low), (many, high) = peak(20), peak(220)
    assert many - few == 400
    assert (high - low) / (many - few) < 650


def test_a_held_buffer_costs_no_events(tmp_path, monkeypatch):
    # A frame queued behind a held frame buffer waits for the hold's own
    # release event, however long the hold, and is not polled in between.
    sims = []

    class Counted(harness.Simulator):
        def __init__(self, seed):
            super().__init__(seed)
            sims.append(self)

    monkeypatch.setattr(harness, "Simulator", Counted)
    topo = line_topology(4)
    scn = load_scenario(write_scenario(
        tmp_path, topo, strategy="FF", payloads=[656],
        mac={"rx_handover_us": MAX_WAIT_US}))
    record = harness._simulate(scn, topo, 1, 656)
    assert record.violations == [] and record.sent == 4
    assert len(sims) == 1 and sims[0]._seq <= 1000, sims[0]._seq


def test_frames_off_their_route_are_violations(tmp_path, monkeypatch, capsys):
    # Node 2 of a 4-node line hears the sink directly.  Sending there
    # instead of to its parent, node 1, takes every datagram off its route:
    # node 2's own and those it forwards for node 3.
    class Shortcut(harness.Node):
        def __init__(self, config, *args):
            if config.id == 2:
                config = config._replace(route_next_hop=0)
            super().__init__(config, *args)

    monkeypatch.setattr(harness, "Node", Shortcut)
    topo = line_topology(4)
    assert topo.routes[2] == 1 and (0, 2) in topo.links
    checked = write_scenario(tmp_path, topo)
    assert main(["run", "--scenario", str(checked),
                 "--out", str(tmp_path / "on")]) == 1
    assert "violations: 4" in capsys.readouterr().out
    text = (tmp_path / "on" / "run-00.txt").read_text()
    assert [line for line in text.splitlines()
            if line.startswith("violation")] == [
        "violations\t4", *("violation\t80\tdatagram %d left its route: "
                           "[(2, 0)]" % i for i in range(1, 5))]


def test_route_check_lists_stray_edges_and_unknown_datagrams(tmp_path,
                                                              monkeypatch):
    # On a 5-node line node 4 sends to node 2 and node 2 to the sink,
    # skipping a hop each, and node 3 sends its one datagram (id 2) as id 0,
    # which no send plan issued.  Datagram 3, node 4's, leaves its route on
    # both shortcuts; the path lines come in dgram_id order, the unknown
    # id 0 first.
    class Strays(harness.Node):
        def __init__(self, config, *args):
            if config.id in (2, 4):
                config = config._replace(route_next_hop=config.id - 2)
            super().__init__(config, *args)

        def app_send(self, payload_size, dgram_id):
            if self.config.id == 3:
                dgram_id = 0
            return super().app_send(payload_size, dgram_id)

    monkeypatch.setattr(harness, "Node", Strays)
    topo = line_topology(5)
    assert topo.senders() == (2, 3, 4)
    assert (2, 4) in topo.links and (0, 2) in topo.links
    scn = load_scenario(write_scenario(tmp_path, topo, packets_per_source=1))
    record = harness._simulate(scn, topo, 1, 80)
    assert record.violations == [
        "delivery of unknown datagram 0",
        "datagram 2 neither delivered nor attributed",
        "loss-cause conservation broken: 3 != 2 + 0",
        "frames of unknown datagram 0",
        "datagram 1 left its route: [(2, 0)]",
        "datagram 3 left its route: [(2, 0), (4, 2)]",
    ]


def test_leaked_datagram_tags_are_violations(tmp_path, monkeypatch, capsys):
    # Node 3 takes one extra tag with its first datagram and never gives it
    # back; every datagram still arrives, but the drain check names node 3.
    class Leaky(harness.Node):
        def __init__(self, config, *args):
            super().__init__(config, *args)
            if config.id == 3:
                acquire, leaked = self.tags.acquire, []

                def acquire_and_leak_once():
                    if not leaked:
                        leaked.append(acquire())
                    return acquire()

                self.tags.acquire = acquire_and_leak_once

    monkeypatch.setattr(harness, "Node", Leaky)
    assert run_violations(tmp_path, capsys) == [
        "violations\t1", "violation\t80\tnode 3 still holds datagram tags"]


def run_violations(tmp_path, capsys, **over):
    """Run a 4-node HWR line with every link lossless, in which every
    datagram arrives; return the violation lines of its run file."""
    scn = write_scenario(tmp_path, line_topology(4), **over)
    assert main(["run", "--scenario", str(scn),
                 "--out", str(tmp_path / "out")]) == 1
    assert "violations: 1" in capsys.readouterr().out
    text = (tmp_path / "out" / "run-00.txt").read_text()
    assert "80\t2\t4\t4\t1.0" in text.splitlines()       # all delivered
    return [line for line in text.splitlines()
            if line.startswith("violation")]


def test_corrupted_datagram_is_a_violation(tmp_path, monkeypatch, capsys):
    # The sink flips one byte of datagram 1 as it hands it up.
    class Flipping(harness.Node):
        def _deliver_up(self, dgram_id, datagram):
            if dgram_id == 1:
                datagram = bytes([datagram[0] ^ 1]) + datagram[1:]
            super()._deliver_up(dgram_id, datagram)

    monkeypatch.setattr(harness, "Node", Flipping)
    assert run_violations(tmp_path, capsys) == [
        "violations\t1", "violation\t80\tdatagram 1 corrupted in transit"]


def test_reassembly_state_left_after_the_drain_is_a_violation(
        tmp_path, monkeypatch, capsys):
    # Node 1 frees each reassembled datagram's bytes but keeps its entry,
    # and its table arms no expiry event that would take the entry out.
    # Its table has room for them all, so every datagram still arrives.
    class Hoarding(harness.Node):
        def __init__(self, config, *args):
            super().__init__(config, *args)
            if config.id == 1:
                rbuf = self.rbuf

                def keep(entry):
                    rbuf.arena.free(entry.held_bytes)
                    entry.held_bytes = 0

                rbuf.remove, rbuf._arm = keep, lambda: None

    monkeypatch.setattr(harness, "Node", Hoarding)
    assert run_violations(tmp_path, capsys, rbuf_entries=None) == [
        "violations\t1", "violation\t80\tnode 1 still holds reassembly state"]


def test_datagram_delivered_twice_is_a_violation(tmp_path, monkeypatch,
                                                 capsys):
    # The sink hands datagram 1 up twice.
    class Repeating(harness.Node):
        def _deliver_up(self, dgram_id, datagram):
            super()._deliver_up(dgram_id, datagram)
            if dgram_id == 1:
                super()._deliver_up(dgram_id, datagram)

    monkeypatch.setattr(harness, "Node", Repeating)
    assert run_violations(tmp_path, capsys) == [
        "violations\t1", "violation\t80\tdatagram 1 delivered twice"]


def test_delivery_after_a_loss_cause_is_a_violation(tmp_path, monkeypatch,
                                                    capsys):
    # Forwarder 1 reports datagram 1 lost to a full queue, then forwards it.
    class Contradicting(harness.Node):
        def _send_fragments(self, datagram, dgram_id):
            if self.config.id == 1 and dgram_id == 1:
                self.on_drop(dgram_id, "queue_drop")
            return super()._send_fragments(datagram, dgram_id)

    monkeypatch.setattr(harness, "Node", Contradicting)
    assert run_violations(tmp_path, capsys) == [
        "violations\t1",
        "violation\t80\tdatagram 1 delivered after loss cause queue_drop"]


def test_drop_of_an_unknown_datagram_is_a_violation(tmp_path, monkeypatch,
                                                    capsys):
    # Node 2 reports a drop of datagram 0, which no node ever sent.
    class Misreporting(harness.Node):
        def app_send(self, payload_size, dgram_id):
            if dgram_id == 1:
                self.on_drop(0, "frag_buf_full")
            return super().app_send(payload_size, dgram_id)

    monkeypatch.setattr(harness, "Node", Misreporting)
    assert run_violations(tmp_path, capsys) == [
        "violations\t1",
        "violation\t80\tdrop (frag_buf_full) of unknown datagram 0"]


def test_arena_bytes_left_after_the_drain_are_a_violation(
        tmp_path, monkeypatch, capsys):
    # Node 2 charges 7 bytes to its arena with its first datagram and
    # never frees them.
    class Leaking(harness.Node):
        def app_send(self, payload_size, dgram_id):
            if dgram_id == 1:
                assert self.arena.alloc(7)
            return super().app_send(payload_size, dgram_id)

    monkeypatch.setattr(harness, "Node", Leaking)
    assert run_violations(tmp_path, capsys) == [
        "violations\t1",
        "violation\t80\tnode 2 arena holds 7 bytes after drain"]


def test_frames_left_after_the_drain_are_a_violation(tmp_path, monkeypatch,
                                                     capsys):
    # Long after its last frame, node 3 parks one more in its MAC queue
    # and schedules no service event that would send it.
    class Parking(harness.Node):
        def __init__(self, config, sim, *args):
            super().__init__(config, sim, *args)
            if config.id == 3:
                sim.at(10 ** 9, self.mac.queue.append,
                       Frame(3, 2, None, 4))

    monkeypatch.setattr(harness, "Node", Parking)
    assert run_violations(tmp_path, capsys) == [
        "violations\t1", "violation\t80\tnode 3 still holds frames"]


def test_aggregate_single_run_equals_that_run(tmp_path):
    scn = load_scenario(write_scenario(tmp_path, line_topology(4)))
    files, _ = run_experiment(scn, tmp_path / "out")
    runs = [p for p in files if p.name.startswith("run-")]
    agg = aggregate_runs([read_run_file(p) for p in runs])
    assert len(agg["seeds"]) == 1
    assert agg["per_payload"]["80"]["pdr"] == [1.0]
    assert agg["per_payload"]["80"]["pdr_mean"] == 1.0


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


def test_digests_are_hashlib_sha256(tmp_path, monkeypatch):
    # The run path takes sha256 from a built-in module, not hashlib: the
    # topology digest and the fingerprint must stay the same.
    scn = load_scenario(write_scenario(tmp_path, line_topology(4)))
    files, _ = run_experiment(scn, tmp_path / "out")
    block = read_run_file(files[0]).block
    topo_sha = hashlib.sha256(scn.topology_path().read_bytes()).hexdigest()
    assert block["topology_sha256"] == topo_sha
    fingerprint = scenario_fingerprint(block)
    monkeypatch.setattr(harness, "sha256", hashlib.sha256)
    assert block["fingerprint"] == fingerprint == scenario_fingerprint(
        block)


_PDR = st.integers(1, 10 ** 4).flatmap(
    lambda n: st.integers(0, n).map(lambda k: k / n))
_MEANS = (st.lists(_PDR, min_size=1, max_size=8)
          | st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8)
          ).map(statistics.mean)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1)
       | st.lists(_PDR | _MEANS, min_size=1))
def test_mean_and_median_match_statistics(data):
    # aggregate.json holds these values, so repr and type must both match.
    for ours, theirs in ((harness._mean, statistics.mean),
                         (harness._median, statistics.median)):
        got, want = ours(data), theirs(data)
        assert (type(got), repr(got)) == (type(want), repr(want)), data


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
