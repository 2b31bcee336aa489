"""The determinism contract: artifacts do not change with the BLAS thread
count or with the CPUs the process may run on.

Desk-size runs (768 elements) are large enough to reach the threaded BLAS
kernels, which the small regression pins never do.  Each run is a fresh CLI
process, since BLAS reads its thread count once, at load.  The grid field of
heatmap and displacement runs uses one thread per CPU in the process's
affinity mask, so a child pinned to one CPU evaluates it on one thread.
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
    "displacement": {"mode": "displacement", "targets": ["D1"], "seed": 28,
                     "optimizer": {"steps": 100, "reeval_period": 50},
                     "mode_params": {"minimized": "D2"}},
    # A 41-point rail: a one-row grid large enough that a BLAS
    # matrix-vector product would change its last bits with the thread
    # count.
    "displacement-rail": {"mode": "displacement", "targets": ["D1"],
                          "seed": 28,
                          "optimizer": {"steps": 100, "reeval_period": 50},
                          "mode_params": {"minimized": "D2", "step_mm": 1.0,
                                          "max_mm": 40.0}},
    # The line-of-sight term and the pattern weights on the desk roster.
    "heatmap-rician": {"mode": "heatmap", "targets": ["D4"], "seed": 28,
                       "environment": {"rician_k": 2.0,
                                       "pattern_diversity": 0.5},
                       "optimizer": {"steps": 100, "reeval_period": 50}},
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


def _start(scenario: Path, out: Path, threads: int,
           cpu: int | None = None) -> subprocess.Popen:
    """A CLI run at ``threads`` BLAS threads, pinned to ``cpu`` if given."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(threads)))
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.Popen(
        [sys.executable, "-m", "risjam.cli", "run", str(scenario),
         "--out", str(out)],
        env=env, preexec_fn=pin, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def _finish(procs: dict) -> None:
    for key, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (key, err)


@pytest.mark.parametrize("mode", ["heatmap", "jsr-matrix", "heatmap-rician",
                                  "displacement-rail"])
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, mode):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIOS[mode]))
    # The two runs go side by side; each has its own process and output.
    _finish({threads: _start(scenario, tmp_path / f"blas{threads}", threads)
             for threads in (1, 2)})
    one, two = (_artifact_hashes(tmp_path / f"blas{t}") for t in (1, 2))
    assert "result.json" in one and "manifest.json" in one
    assert one == two


@pytest.mark.parametrize("mode", ["heatmap", "displacement"])
def test_artifacts_do_not_depend_on_cpu_affinity(tmp_path, mode):
    cpus = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        pytest.skip("this process may run on one CPU only (or cannot set "
                    "a child's affinity), so a pinned child would evaluate "
                    "the grid field on as many threads as an unpinned one")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIOS[mode]))
    # One BLAS thread in both, so only the grid field's thread count
    # differs; the BLAS axis is the test above.
    _finish({"pinned": _start(scenario, tmp_path / "pinned", 1, cpus[0]),
             "unpinned": _start(scenario, tmp_path / "unpinned", 1)})
    pinned, unpinned = (_artifact_hashes(tmp_path / name)
                        for name in ("pinned", "unpinned"))
    grid_table = {"heatmap": "grid.csv", "displacement": "curves.csv"}[mode]
    assert {"result.json", "manifest.json", grid_table} <= pinned.keys()
    assert pinned == unpinned
