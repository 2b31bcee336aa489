"""Smoke test of the benchmark itself on a tiny environment.

Run with ``python3 -m pytest benchmarks/test_smoke.py -q`` from the
repository root; it takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_document(name: str, seed: int = 28) -> dict:
    doc = WORKLOADS[name].document(seed)
    doc["environment"] = {"n_elements": 16, "scatter_count": 32}
    doc["optimizer"]["steps"] = 30
    # Sixteen elements deliver far less gain than 768; widen the sweep so
    # every target still has a disruption knee.
    doc["powers"] = {"sweep_to_dbm": 40.0}
    return doc


def tiny_run(name: str, trace: bool) -> dict:
    report = run.run_workload(name, 28, 0.2, trace,
                              document=tiny_document(name), setup_repeats=1)
    assert report["problems"] == []
    return report["result"]


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_json_workloads_are_defined():
    # throughput is defined for runs by hand but left out of BENCHMARK.json.
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        name for name in WORKLOADS if name != "throughput"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result = tiny_run(name, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _units(BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_metrics_are_emitted_and_counts_repeat(name):
    first = tiny_run(name, trace=True)
    second = tiny_run(name, trace=True)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == _units(BENCHMARK["per_layer"])
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["optimizer.runs"] == (10 if name == "jsr-matrix" else 1)


def test_traced_spans_nest_inside_their_parents(tmp_path):
    from risjam import cli, scenarios

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(tiny_document("jsr-matrix")))
    original = scenarios.run_optimizer
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        with tracer.span(tracing.EXECUTE):
            cli.execute(cli.parse_scenario(scenario), tmp_path / "out",
                        threads=2)
    assert scenarios.run_optimizer is original
    names = {s[1] for s in tracer.spans}
    assert {tracing.RUN_SCENARIO, tracing.RUN_OPTIMIZER, tracing.STEP,
            tracing.ORACLE, tracing.SUBCHANNELS,
            tracing.RECEIVED_RSSI} <= names
    assert tracing.check_nesting(tracer.spans) == []
    # Every optimizer run happens in a pool thread yet still hangs off the
    # scenario span that waits for the pool.
    by_id = {s[0]: s for s in tracer.spans}
    for sid, name, parent, _, _ in tracer.spans:
        if name == tracing.RUN_OPTIMIZER:
            assert by_id[parent][1] == tracing.RUN_SCENARIO
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts())
    assert metrics["optimizer.oracle_calls"] == 10 * (100 + 30)
    assert metrics["channel.ris_subchannels_calls"] == 210


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [(1, "p", None, 0.0, 10.0),
             (2, "a", 1, 1.0, 4.0),
             (3, "b", 1, 3.0, 6.0),
             (4, "c", 2, 1.5, 2.0)]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.5)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "throughput",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
