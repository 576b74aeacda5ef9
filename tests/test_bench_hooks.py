"""The benchmark's per-layer tracer still finds every name it patches."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # perfbench/layers.py wraps entry points such as harness.run_one,
    # ReassemblyBuffer.insert and VrbTable.lookup by name; a rename would
    # otherwise surface only as failed benchmark operations.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from layers import Tracer; Tracer().install()"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
