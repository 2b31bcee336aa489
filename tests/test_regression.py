"""Pinned artifact hashes of two small runs.

A speed change to the search path (gain rows, the oracle, the table
update) must not move a single output byte.  These sha256s were recorded
before such changes and catch any drift in the traces, the result document
or the long-form CSV.  They pin float64 results of this NumPy/OpenBLAS
build; a BLAS kernel with another summation order may move the last bits.
"""

import contextlib
import hashlib
import io
import json

import pytest

from risjam.cli import EXIT_OK, main

ENVIRONMENT = {
    "n_elements": 48,
    "scatter_count": 32,
    "attacker_position": [0.4, 0.9, 1.0],
    "devices": {
        "D0": [3.0, 3.6, 1.2],
        "A": [1.6, 3.0, 0.9],
        "B": [1.9, 2.8, 0.9],
        "C": [3.6, 1.2, 0.9],
    },
}
# 300 steps with a re-evaluation every 100: the table is re-measured and
# re-sorted three times.
RUN = {
    "seed": 11,
    "environment": ENVIRONMENT,
    "optimizer": {"steps": 300, "reeval_period": 100, "table_size": 24},
    "powers": {"sweep_from_dbm": -60.0, "sweep_to_dbm": 40.0},
}

PINNED = {
    "jsr-matrix-hidden": (
        {"mode": "jsr-matrix", "hidden": ["B"]},
        {"result.json": "38577f8a47455e557e2deb9befc66dc4"
                        "4837acabc5103eda2464a3e2c1e62af1",
         "results.csv": "baa1bd071141201a81b704fe7ef37422"
                        "ea9f16fc622e3eed377d91db4ed011d0",
         "trace_00.csv": "d5cb7bc689f8d9a08bcd8a4a53cc0006"
                         "2346b0979074ce90972072d1995f4e2e",
         "trace_01.csv": "9005343744827c94e9407406b9b44337"
                         "e339c6b85397d5669636f906715c0e2a",
         "trace_02.csv": "1a51d51cd36174c7479d9d36f4e0d3ad"
                         "3e6d6f614b9eafeddcbe3e3479147ae7"},
    ),
    "packet-rate": (
        {"mode": "packet-rate", "targets": ["A"]},
        {"result.json": "a700849fe264cfd5d406fa81663c3d21"
                        "f07d1453442d97074ee2cc507a489c73",
         "results.csv": "6347f8e18c9eed5813b7700fd7b4c1c3"
                        "c0795edad40c8996c234b98501ff682b",
         "trace_00.csv": "f6df2d47f4f2a6431f2e56885cafa0a0"
                         "0fba4c72626ca05a266e56aa91cceb05"},
    ),
}


def _hashes(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.name.startswith("trace_")
            or p.name in ("result.json", "results.csv")}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artifacts_match_pinned_hashes(tmp_path, name):
    fields, expected = PINNED[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(RUN, name=name, **fields)))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    assert _hashes(out) == expected
