"""Pinned artifact hashes of small runs, one or more per scenario mode.

A speed change to the search path (gain rows, the oracle, the table
update) or a refactor of the runners must not move a single output byte.
These sha256s were recorded before such changes and catch any drift in the
traces, the result document or any CSV table.  They pin float64 results of
this NumPy/OpenBLAS build; a BLAS kernel with another summation order may
move the last bits.

The grid field's values moved three times on purpose.  First, when
ris_subchannels_batch began to build its phasors on chains (a direct
exponential only at chain anchors and per distinct gap, every other phasor
a product) and to sum a one-row grid without BLAS: the heatmap and
heatmap-rician grid.csv and result.json, and the displacement result.json,
were re-pinned then.  Their values moved by at most 1.5e-13 of the field's
rms.  Second, when it began to return the composed gain of a configuration,
summed over the surface elements inside each block, in place of every
element's gain: the heatmap result.json, the heatmap-rician grid.csv and
result.json, and the displacement result.json were re-pinned then.  Their
values moved by at most 5.1e-13 dB.  Third, when its chains began to take
one exponential per class of near-equal gaps (a gap within 2**-27 / kappa
of its class's first gap takes that gap's phasor times complex(1, k*delta))
and to fold the first x value's phase and the coefficients into the y
anchors: the heatmap and heatmap-rician grid.csv and result.json, and the
displacement result.json, were re-pinned then.  Their values moved by at
most 3.4e-13 dB.  Every other hash kept its value all three times.
"""

import contextlib
import hashlib
import io
import json

import pytest

from risjam.channel import (EnvironmentSpec, environment_to_dict,
                            perturb_environment, synthesize_environment)
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
# A stored world that carries two perturbations; it replaces "environment".
STORED = environment_to_dict(perturb_environment(perturb_environment(
    synthesize_environment(EnvironmentSpec(**ENVIRONMENT), 3), 0.25, 8),
    0.5, 9))

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
         "sweep.csv": "923b872950c9e6a7945ca52eb879848e"
                      "63956fa902823348f6d258bf0b317e59",
         "trace_00.csv": "f6df2d47f4f2a6431f2e56885cafa0a0"
                         "0fba4c72626ca05a266e56aa91cceb05"},
    ),
    "throughput": (
        {"mode": "throughput", "targets": ["A"]},
        {"result.json": "d62befa08c2fc6e1edcb98f2dcf17d01"
                        "8e95b24dd851439c23376b8bdf88a849",
         "results.csv": "853f3b132e0c91e0c12c5d49256cc885"
                        "64779a5f89de61d71824302616f04427",
         "sweep.csv": "3cc23920fda5b01a8567430a48edebcb"
                      "78736880cfdc119e43c6f16f49eef445",
         "trace_00.csv": "f6df2d47f4f2a6431f2e56885cafa0a0"
                         "0fba4c72626ca05a266e56aa91cceb05"},
    ),
    "heatmap": (
        {"mode": "heatmap", "targets": ["A"],
         "mode_params": {"x_extent_m": 0.04, "y_extent_m": 0.02,
                         "step_m": 0.01}},
        {"grid.csv": "c36dfc6c11886e0e09510aafa4d4e0bc"
                     "47b44336052a5ea7b74665f3c87f6bd9",
         "result.json": "b015823ebc72b6b5303fcd37ec54091b"
                        "6d3d9ef64f018baf42cb58da666982e8",
         "results.csv": "ddde0ed5012d97086180e9721ac9bdea"
                        "e6bac649a94ff4b62e8acb5166f8ae51",
         "sweep.csv": "923b872950c9e6a7945ca52eb879848e"
                      "63956fa902823348f6d258bf0b317e59",
         "trace_00.csv": "f6df2d47f4f2a6431f2e56885cafa0a0"
                         "0fba4c72626ca05a266e56aa91cceb05"},
    ),
    "displacement": (
        {"mode": "displacement", "targets": ["A"],
         "mode_params": {"minimized": "B", "step_mm": 8.0, "max_mm": 24.0}},
        {"curves.csv": "2344a40d1e8e379e90540038e0588c7d"
                       "c3c64502dd0a7eaa9ba29bafa206102c",
         "result.json": "ef3b4aef39f99153d6392ace8bd68572"
                        "086a3af5d92b118022c33555f9225ab3",
         "results.csv": "f4ef6ec1c17891cac679cde6511bd258"
                        "c80bbb783c2016995a8963a436837ce8",
         "sweep.csv": "923b872950c9e6a7945ca52eb879848e"
                      "63956fa902823348f6d258bf0b317e59",
         "trace_00.csv": "f6df2d47f4f2a6431f2e56885cafa0a0"
                         "0fba4c72626ca05a266e56aa91cceb05"},
    ),
    "exclusion": (
        {"mode": "exclusion", "mode_params": {"exclude": "C"}},
        {"result.json": "008762f7d7764c89c0d8dafb79aabe49"
                        "cf4261ad19c3816d80f3522dc40e70ce",
         "results.csv": "ddeec3f9cb49eb4cef247f6a5ae51261"
                        "96e5be6ed5ed7cbf60b62047dd25cbaa",
         "sweep.csv": "ddb440a053237c36f13268718db99cfc"
                      "80cf846c8bed5b3d7679324ef9d8e9b4",
         "trace_00.csv": "a754de506b31e132cde9c58b3ddcd921"
                         "9374a969d8118258e00a3b2033e23ee8"},
    ),
    "element-sweep": (
        {"mode": "element-sweep", "targets": ["A"],
         "mode_params": {"counts": [16, 48]}},
        {"result.json": "7b87e9aa951b9775bda229f0a4bf1b19"
                        "6d9b6af80aa7341741cb0d4d8389729e",
         "separation.csv": "003b0fee8420115f59a2a6f324258707"
                           "3cc420f0f668f0db05461de9f02f1ee5"},
    ),
    "directional-baseline": (
        {"mode": "directional-baseline", "targets": ["A"]},
        {"result.json": "f42d33185763d3d743f2ef3aabba49de"
                        "2eacfd929e44186c0d5fd7c3860f6bc6",
         "results.csv": "f12264919f50b0a3feb280ae45ce17d1"
                        "ae6c9fa9a12342f4b1d319309851cec8",
         "sweep.csv": "46182d29e0e52d403512be2a19e519fb"
                      "e0e9a9d7003b011cfc907a739f08e26c"},
    ),
    "perturbation": (
        {"mode": "perturbation", "targets": ["A"],
         "mode_params": {"schedule": [
             {"time": 1, "fraction": 0.25, "seed": 3},
             {"time": 2, "device": "B", "position": [1.9, 2.9, 0.9]}],
             "duration": 4}},
        {"result.json": "44f332b5d802d23687a1b1055a016cd1"
                        "e1d14b202e590589fc41a52c2be6c42f",
         "results.csv": "21c37068413403c737a33d8397098411"
                        "20a51dbbae1dbc0b599b0f28092c6a5e",
         "sweep.csv": "923b872950c9e6a7945ca52eb879848e"
                      "63956fa902823348f6d258bf0b317e59",
         "timeseries.csv": "075bc649435f4ea4601fc9c40ae508b8"
                           "4acb16f415d8931f3242699da0d9507d",
         "trace_00.csv": "f6df2d47f4f2a6431f2e56885cafa0a0"
                         "0fba4c72626ca05a266e56aa91cceb05"},
    ),
    "jsr-matrix-all-hidden": (
        {"mode": "jsr-matrix", "hidden": ["A", "B", "C"]},
        {"result.json": "8f1ea6782a9271e366f927886c6fa617"
                        "89f0275e28151611608ee5237ee7d2bd",
         "results.csv": "8004033149058e1ca812c37751bcb5c8"
                        "541c373c87c82798094e8f533fece523",
         "trace_00.csv": "d489d2b4b71bdf4160fe23879af45dcd"
                         "ac62fa5857d7af838aa9da2f3f812413",
         "trace_01.csv": "0cc60aa0377e8c2f0eb3a909c439009f"
                         "b10bd6540f6ae7f15ce6af0feaab47c5",
         "trace_02.csv": "9ef3a67afd5c75e1283e4275432dddb4"
                         "5cef7b9960289000f1550998a1095131"},
    ),
    # A targeted all-hidden matrix: row A also hides C, which the
    # scenario's hidden set does not name.
    "jsr-matrix-targeted-all-hidden": (
        {"mode": "jsr-matrix", "targets": ["A"], "hidden": ["B", "C"]},
        {"result.json": "95252379bba574a5ec6f134b82456f25"
                        "b149b8cbce4ffc27c8e298b67e3877e2",
         "results.csv": "1385cc0f9d069134b2602c266a1830ae"
                        "a8744c9a4c70d47ac91099bdc77cd7f9",
         "trace_00.csv": "d489d2b4b71bdf4160fe23879af45dcd"
                         "ac62fa5857d7af838aa9da2f3f812413"},
    ),
    # The whole-grid evaluator's Rician and pattern-diversity path.
    "heatmap-rician": (
        {"mode": "heatmap", "targets": ["A"],
         "environment": dict(ENVIRONMENT, rician_k=3.0,
                             pattern_diversity=0.5),
         "mode_params": {"x_extent_m": 0.04, "y_extent_m": 0.02,
                         "step_m": 0.01}},
        {"grid.csv": "0d16c8a9b1c8172b2cf274172ae5f18e"
                     "db3d46ccd6f81d5c1e23020f4fe853af",
         "result.json": "6bb17241a1033c0d24ec9813dc86a8be"
                        "31e92f6813d38cc82c714876d5c3b46a",
         "results.csv": "28eb1f745820dd32a2d3aad986d3a9d8"
                        "cdab7f6a5cf37c4387718c9c629356a1",
         "sweep.csv": "1d9d6deb5a56e4f7eaf5d099397cfb3b"
                      "16490fddd47bbc24cf7b30ca797acd89",
         "trace_00.csv": "67d9b59cc9a810276c00770a3e18befb"
                         "ea3434e535822b9973d58c66bd9722ee"},
    ),
    "stored-environment": (
        {"mode": "packet-rate", "targets": ["B"], "environment": None,
         "environment_document": STORED},
        {"result.json": "668468a61e612db3922ea8f30c2c0f7d"
                        "67216fac8a216bf08f088e52ce7780a6",
         "results.csv": "ae1fae53fc02070ba73174ba2684737c"
                        "e983a0f7a2d4ca5ea7a2a9126a74503f",
         "sweep.csv": "90715f8f5b2625e90a60a81ce48687f9"
                      "ab4714476c9b73df4146b569512ccfae",
         "trace_00.csv": "3018495735951a7c5b3736bbc705890a"
                         "80e20b09cdaf19435742266f867c61dc"},
    ),
}


def _hashes(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.suffix == ".csv" or p.name == "result.json"}


def _document(name, fields):
    """The scenario document of a pinned run; a None field is left out."""
    doc = dict(RUN, name=name, **fields)
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artifacts_match_pinned_hashes(tmp_path, name):
    fields, expected = PINNED[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_document(name, fields)))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    assert _hashes(out) == expected
