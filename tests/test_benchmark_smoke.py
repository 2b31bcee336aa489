"""The benchmark's own smoke test passes.

benchmarks/test_smoke.py pins the names the benchmark's tracer patches and
the call counts of its workloads; running it here makes a change that
breaks either fail this suite too.  It runs in a fresh process from the
repository root, as its docstring says to run it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/test_smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
