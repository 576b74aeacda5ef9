#!/usr/bin/env python3
"""Host-time benchmark of lowpansim's `run` entry point.

    python3 perfbench/run.py
    python3 perfbench/run.py --workload ff-1232 --seed 1 --seconds 30 --trace 0

With no --workload, every workload runs one after another, each in its own
process, first untraced and then traced, and every metric is printed by
name with its unit.  With --workload, one workload runs: --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.  --seed is the
simulation seed (hwr-small also uses seed + 1); the defaults are the
reference seeds in perfbench/README.md.

Each round runs the workload's scenarios through `lowpansim.cli.main` in a
fresh child process (child.py), built from the checkout's src/.  Rounds
repeat until --seconds have passed; metrics are medians over rounds.  Every
run file is checked by checks.py and hashed; a round whose files differ
from the first round's fails its operations.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, namedtuple
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TOPOLOGY = SRC / "lowpansim" / "data" / "topology50.txt"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 9          # set-up-only processes per run
DEADLINE_S = 170          # a run kills its child and stops after this

Workload = namedtuple("Workload", "strategies payloads seeds settings")

LOSSY = {"interval_us": [5_000_000, 10_000_000], "packets_per_source": 100}
# The lossless oracle's settings: every loss mechanism off, serialized sends
# and a backoff window wider than one frame airtime.
LOSSLESS = {
    "interval_us": [2_000_000, 3_000_000], "packets_per_source": 10,
    "force_link_pdr": 1.0, "serialize_sends": True,
    "rbuf_entries": None, "sink_rbuf_entries": None, "vrb_entries": None,
    "mac": {"max_retransmissions": 10_000, "queue_capacity": None,
            "min_be": 6, "max_be": 8},
    "stack": {"frag_buffer_slots": None, "arena_bytes": None},
}

# Why each workload: see README.md.
WORKLOADS = {
    "ff-1232": Workload(("FF",), (1232,), 1, LOSSY),
    "hwr-small": Workload(("HWR",), (80, 176, 272), 2, LOSSY),
    "lossless-mix": Workload(("HWR", "FF", "FF_QUEUED"), (80, 656, 1232), 1,
                             LOSSLESS),
}

END_TO_END = (
    ("wall_s", "s"), ("frames_per_s", "1/s"), ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"), ("setup_s", "s"),
)
# Per-layer metrics in print order; the unit is "s" for the *_s names.
PER_LAYER = (
    "sim_core.events", "sim_core.events_per_frame", "sim_core.self_s",
    "sim_core.pending_peak", "medium.transmissions", "medium.self_s",
    "link_mac.sends", "link_mac.self_s", "link_mac.frames_sent",
    "link_mac.l2_retransmissions", "link_mac.collisions",
    "node_stack.app_sends", "node_stack.self_s", "buffers.rbuf_inserts",
    "buffers.rbuf_insert_s", "buffers.self_s", "buffers.rbuf_full",
    "vrb.creates", "vrb.lookups", "vrb.self_s", "frag_codec.fragments_built",
    "frag_codec.self_s", "harness.self_s", "harness.simulate_s",
    "harness.write_s", "harness.aggregate_s", "topology.load_s",
    "trace.overhead_ratio",
)
# Node counters summed from the run files, not counted by the tracer.
FROM_RUN_FILES = {
    "link_mac.frames_sent": "frames_sent",
    "link_mac.l2_retransmissions": "l2_retransmissions",
    "link_mac.collisions": "collisions",
    "buffers.rbuf_full": "rbuf_full",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return {"sim_core.events_per_frame": "events/frame",
            "trace.overhead_ratio": "ratio"}.get(name, "count")


class Run:
    """One benchmark run of one workload: inputs, rounds and checks."""

    def __init__(self, name, seed, workdir):
        self.wl = WORKLOADS[name]
        self.seeds = [seed + i for i in range(self.wl.seeds)]
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.self_test_missed = None
        topology = TOPOLOGY.read_text(encoding="ascii")
        self.expect = checks.Expect(
            topology, self.wl.settings["packets_per_source"],
            lossless=self.wl.settings is LOSSLESS)
        inputs = workdir / "inputs"
        inputs.mkdir()
        (inputs / "topology50.txt").write_text(topology, encoding="ascii")
        self.scenarios = []
        for strategy in self.wl.strategies:
            path = inputs / (strategy + ".json")
            path.write_text(json.dumps(dict(
                self.wl.settings, version=1, topology="topology50.txt",
                strategy=strategy, payloads=list(self.wl.payloads),
                seeds=self.seeds)))
            self.scenarios.append((strategy, path))

    def spawn(self, mode):
        """One child process; returns (report or None, wall, cpu, rss_kib,
        round directory)."""
        self.rounds += 1
        rdir = self.workdir / ("round-%03d" % self.rounds)
        rdir.mkdir()
        spec, report = rdir / "spec.json", rdir / "report.json"
        spec.write_text(json.dumps({
            "mode": mode, "report": str(report),
            "scenarios": [[str(path), str(rdir / strategy)]
                          for strategy, path in self.scenarios]}))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        limit = max(1.0, self.deadline - time.monotonic())
        with open(rdir / "child.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec), repr(t0)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(rdir))
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        result = None
        if proc.returncode == 0 and report.is_file():
            result = json.loads(report.read_text())
            if not Path(result["lowpansim"]).resolve().is_relative_to(SRC):
                self.problems.append("lowpansim imported from %s, not %s"
                                     % (result["lowpansim"], SRC))
                result = None
        else:
            log_tail = (rdir / "child.log").read_text(errors="replace")[-2000:]
            self.problems.append("%s round exited %s:\n%s"
                                 % (mode, proc.returncode, log_tail))
        return result, wall, cpu, usage.ru_maxrss, rdir

    def check(self, result, rdir):
        """Check one round's run files; returns the node-counter totals."""
        ops = {(strategy, seed, payload): []
               for strategy in self.wl.strategies for seed in self.seeds
               for payload in self.wl.payloads}
        totals = Counter()
        codes = result["exit_codes"] if result is not None else []
        if len(codes) != len(self.scenarios):
            for problems in ops.values():
                problems.append("round did not complete")
        for (strategy, _), code in zip(self.scenarios, codes):
            out = rdir / strategy
            for index, seed in enumerate(self.seeds):
                mine = [ops[strategy, seed, p] for p in self.wl.payloads]
                try:
                    text = (out / ("run-%02d.txt" % index)).read_text(
                        encoding="ascii")
                    aggregate = (out / "aggregate.json").read_bytes()
                except OSError as err:
                    for problems in mine:
                        problems.append(str(err))
                    continue
                if code != 0:
                    for problems in mine:
                        problems.append("lowpansim run exited %s" % code)
                key = "%s seed %d" % (strategy, seed)
                digest = hashlib.sha256(text.encode() + aggregate).hexdigest()
                if self.digests.setdefault(key, digest) != digest:
                    for problems in mine:
                        problems.append("run files differ from the first "
                                        "round's")
                found, counts = checks.check_run(text, self.wl.payloads,
                                                 self.expect)
                for payload, problems in found.items():
                    ops[strategy, seed, payload] += problems
                totals.update(counts)
                if self.self_test_missed is None:
                    self.self_test_missed = checks.self_test(
                        text, self.wl.payloads, self.expect)
        self.attempted += len(ops)
        for key, problems in sorted(ops.items()):
            if problems:
                self.failed += 1
                self.problems.append("%s seed %d payload %d: %s"
                                     % (key + ("; ".join(problems),)))
        shutil.rmtree(rdir)
        return totals

    def workload_digest(self):
        blob = json.dumps(self.digests, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def correct(self):
        return self.failed == 0 and not self.problems \
            and self.self_test_missed == []

    def another_round(self, started, seconds):
        """Whether to start another round of a loop begun at `started`:
        while `seconds` have not passed and half the deadline is left."""
        now = time.monotonic()
        return (now - started < seconds
                and self.deadline - now > DEADLINE_S / 2)


def measure(run, seconds):
    """End-to-end metrics, tracing off."""
    setups, walls, cpus, rates, rss = [], [], [], [], []
    for _ in range(SETUP_PROBES):
        result, _, _, maxrss, rdir = run.spawn("setup")
        rss.append(maxrss)
        if result is not None and result["setup_s"] is not None:
            setups.append(result["setup_s"])
        shutil.rmtree(rdir)
    started = time.monotonic()
    while not walls or run.another_round(started, seconds):
        result, wall, cpu, maxrss, rdir = run.spawn("time")
        totals = run.check(result, rdir)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
        rates.append(totals.get("frames_sent", 0) / wall)
        if result is not None and result["setup_s"] is not None:
            setups.append(result["setup_s"])
    rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    values = {
        "wall_s": statistics.median(walls),
        "frames_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": max(rss) / 1024.0,
        "setup_s": statistics.median(setups or [0.0]),
    }
    if not setups:
        run.problems.append("no set-up time was measured")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def trace(run, seconds):
    """Per-layer metrics: untraced and traced rounds in pairs."""
    plain, traced, layers, totals = [], [], [], None
    started = time.monotonic()
    while not layers or run.another_round(started, seconds):
        result, _, _, _, rdir = run.spawn("time")
        run.check(result, rdir)
        if result is not None:
            plain.append(result["done_s"])
        result, _, _, _, rdir = run.spawn("trace")
        round_totals = run.check(result, rdir)
        if result is None:
            break
        traced.append(result["done_s"])
        layers.append(result["trace"])
        totals = totals or round_totals
    if not layers or not plain:
        run.problems.append("no traced round completed")
        return {}
    values = {}
    for name in PER_LAYER:
        if name in FROM_RUN_FILES:
            values[name] = totals.get(FROM_RUN_FILES[name], 0)
        elif layer_unit(name) == "s":
            values[name] = statistics.median(t.get(name, 0.0) for t in layers)
        else:
            counts = {t.get(name, 0) for t in layers}
            if len(counts) != 1:
                run.problems.append("%s differs between traced rounds: %s"
                                    % (name, sorted(counts)))
            values[name] = layers[0].get(name, 0)
    values["sim_core.events_per_frame"] = (
        values["sim_core.events"] / max(1, values["link_mac.frames_sent"]))
    values["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain))
    return {name: (values[name], layer_unit(name)) for name in PER_LAYER}


def run_workload(args):
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, workdir)
        metrics = (trace if args.trace else measure)(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for line in run.problems[:20]:
        print("problem: " + line, file=sys.stderr)
    if run.self_test_missed:
        print("self-test: doctored run files passed the checks: %s"
              % ", ".join(run.self_test_missed), file=sys.stderr)
    print("workload %s seeds %s: %d process(es), %d operation(s), %d failed, "
          "run-file sha256 %s"
          % (args.workload, ",".join(map(str, run.seeds)), run.rounds,
             run.attempted, run.failed, run.workload_digest()))
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, one child at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print("%s --trace %d exited %d" % (name, traced,
                                                   proc.returncode),
                      file=sys.stderr)
                return 1
            part = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and part["correct"]
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for metric, value in part["metrics"].items():
                combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="simulation seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="how long to repeat rounds (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lowpansim" / "cli.py").is_file() or not TOPOLOGY.is_file():
        print("error: no lowpansim sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
