"""The determinism contract: artifacts do not change with the BLAS thread count.

Desk-size runs (768 elements) are large enough to reach the threaded BLAS
kernels, which the small regression pins never do.  Each run is a fresh CLI
process, since BLAS reads its thread count once, at load.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risjam

SRC = str(Path(risjam.__file__).resolve().parent.parent)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# The desk world; a short search, then the mode's own evaluation.
SCENARIOS = {
    "heatmap": {"mode": "heatmap", "targets": ["D4"], "seed": 28,
                "optimizer": {"steps": 100, "reeval_period": 50}},
    "jsr-matrix": {"mode": "jsr-matrix", "seed": 28,
                   "optimizer": {"steps": 150, "reeval_period": 50}},
}


def _artifact_hashes(out: Path) -> dict[str, str]:
    """sha256 of every artifact; the manifest without its creation time."""
    hashes = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["created_utc"]
            data = json.dumps(manifest, sort_keys=True).encode()
        hashes[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return hashes


def _start(scenario: Path, out: Path, threads: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(threads)))
    return subprocess.Popen(
        [sys.executable, "-m", "risjam.cli", "run", str(scenario),
         "--out", str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("mode", sorted(SCENARIOS))
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, mode):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIOS[mode]))
    # The two runs go side by side; each has its own process and output.
    procs = {threads: _start(scenario, tmp_path / f"blas{threads}", threads)
             for threads in (1, 2)}
    for threads, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (threads, err)
    one, two = (_artifact_hashes(tmp_path / f"blas{t}") for t in (1, 2))
    assert "result.json" in one and "manifest.json" in one
    assert one == two
