"""Every demo script runs to completion and prints its pinned output.

The demos are the only callers of some public names (``Trace.final_config``,
``path_loss_db``), so a change that breaks one of them shows here.  Each
demo runs in a fresh process at one BLAS thread, from an empty working
directory, and the sha256 of its stdout must equal its pin.  A change that
moves a demo's output on purpose re-pins it in its own change, as
tests/test_regression.py does for the artifacts, and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risjam

SRC = str(Path(risjam.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))

STDOUT_SHA256 = {
    "01_radio_environment":
        "ce9bbaee547966bdb22d5f672ee9ba13c3631a5268bb4bf6e0c5fce21fb251b8",
    "02_surface_configurations":
        "53b46c15b8f9aa07a42406754fd47769bba370834689edb027bdc4a5b6df309c",
    "03_single_target_jamming":
        "25bb6d2ea27eba662c333d254cbc6c2a6c6a777027714a1239d38d88bd5d556a",
    "04_multi_target_and_exclusion":
        "011cc049bce1fd95f085088a4b1a4658a272ced9845c715668fc3beea4e0df88",
    "05_spatial_focusing":
        "6390bdea756c99e2348b5ec14cc0d19f5bd52b5479c489dee57cea8ee4550749",
    "06_rate_adaptation_throughput":
        "88336d86f978d5fb7ba4a3303833bb348aa23929c341d053068202468a8dd607",
    "07_environment_drift":
        "7318a23250fc736dc9b8da941a7fc503ffff3090761b51711edebae2a381bb04",
}


def test_demos_are_found():
    assert [d.stem for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
