"""Every demo script runs to completion.

The demos are the only callers of some public names (``run_multi_target``,
``Trace.final_config``, ``path_loss_db``), so a change that breaks one of
them shows here.  Each demo runs in a fresh process at one BLAS thread,
from an empty working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import risjam

SRC = str(Path(risjam.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
