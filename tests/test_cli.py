import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjam import channel, cli
from risjam.channel import (MAX_ABS_DBM, MAX_ENSEMBLE_TERMS, EnvironmentSpec,
                            environment_from_dict, environment_to_dict,
                            read_json)
from risjam.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    compare_runs,
    execute,
    main,
    parse_scenario,
    scenario_hash,
)
import risjam
from risjam import scenarios
from risjam.scenarios import (OptimizerSettings, PowerSettings,
                              ScenarioError, ScenarioSpec, scenario_from_dict,
                              scenario_to_dict)

from conftest import environments_equal

MINI_SCENARIO = {
    "mode": "packet-rate",
    "targets": ["A"],
    "seed": 5,
    "environment": {
        "n_elements": 96,
        "scatter_count": 32,
        "attacker_position": [0.4, 0.9, 1.0],
        "devices": {
            "D0": [3.0, 3.6, 1.2],
            "A": [1.6, 3.0, 0.9],
            "B": [1.9, 2.8, 0.9],
            "C": [3.6, 1.2, 0.9],
        },
    },
    "optimizer": {"steps": 300, "reeval_period": 100, "table_size": 40},
}


# MINI_SCENARIO on a stored 16-element world (environment_to_dict form).
SMALL_WORLD = environment_to_dict(scenario_from_dict(dict(
    MINI_SCENARIO, environment=dict(MINI_SCENARIO["environment"],
                                    n_elements=16))).build_environment())
WORLDLESS = {key: value for key, value in MINI_SCENARIO.items()
             if key != "environment"}
STORED_SCENARIO = {**WORLDLESS, "environment_document": SMALL_WORLD}


def write_scenario(tmp_path, doc=None, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else MINI_SCENARIO))
    return path


# -- parsing -------------------------------------------------------------------


def test_parse_fills_defaults(tmp_path):
    path = write_scenario(tmp_path, {"mode": "packet-rate", "targets": ["D1"]})
    spec = parse_scenario(path)
    assert spec.optimizer.steps == 10000
    assert spec.optimizer.table_size == 100
    assert spec.environment.frequency_hz == pytest.approx(5.56e9)
    assert spec.name == "scenario"            # file stem


def test_parse_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario(path)


def test_parse_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"mode": "packet-rate", "mode": "throughput", '
                    '"targets": ["D1"]}')
    with pytest.raises(ScenarioError, match="duplicate key"):
        parse_scenario(path)


def test_parse_unknown_mode_names_valid_ones(tmp_path):
    doc = dict(MINI_SCENARIO, mode="warp")
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="valid modes"):
        parse_scenario(path)


def test_parse_overlap_names_device(tmp_path):
    doc = dict(MINI_SCENARIO, non_targets=["A", "B"])
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="'A'"):
        parse_scenario(path)


def test_normalized_echo_round_trips(tmp_path):
    path = write_scenario(tmp_path)
    spec = parse_scenario(path)
    echoed = write_scenario(tmp_path, scenario_to_dict(spec), "echo.json")
    again = parse_scenario(echoed)
    assert scenario_to_dict(again) == scenario_to_dict(spec)


def test_scenario_hash_stable_under_key_reorder(tmp_path):
    doc = dict(MINI_SCENARIO)
    reordered = {k: doc[k] for k in reversed(list(doc))}
    a = parse_scenario(write_scenario(tmp_path, doc, "a.json"))
    b = parse_scenario(write_scenario(tmp_path, reordered, "b.json"))
    assert scenario_hash(a) == scenario_hash(b)


# -- execution ------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path = write_scenario(tmp)
    out = tmp / "out"
    spec = parse_scenario(path)
    manifest = execute(spec, out)
    return tmp, out, manifest


def test_execute_writes_listed_outputs(run_dir):
    tmp, out, manifest = run_dir
    listed = {entry["path"] for entry in manifest.outputs}
    assert {"result.json", "results.csv", "scenario.normalized.json",
            "sweep.csv", "trace_00.csv"} <= listed
    on_disk = {p.name for p in out.iterdir()}
    # every emitted file is in the manifest; no orphans besides the manifest
    assert on_disk == listed | {"manifest.json"}
    for entry in manifest.outputs:
        blob = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


def test_execute_deterministic(run_dir, tmp_path):
    tmp, out, manifest = run_dir
    spec = parse_scenario(tmp / "scenario.json")
    out2 = tmp_path / "again"
    execute(spec, out2)
    for name in ("result.json", "results.csv", "sweep.csv", "trace_00.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_results(run_dir, tmp_path):
    tmp, out, _ = run_dir
    rc = main(["run", str(tmp / "scenario.json"), "--out",
               str(tmp_path / "seeded"), "--seed", "77"])
    assert rc == EXIT_OK
    a = (out / "results.csv").read_bytes()
    b = (tmp_path / "seeded" / "results.csv").read_bytes()
    assert a != b


def test_threads_flag_reproduces_sequential_matrix(tmp_path):
    doc = dict(MINI_SCENARIO, mode="jsr-matrix", targets=[])
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "seq")]) == EXIT_OK
    assert main(["run", str(path), "--out", str(tmp_path / "par"),
                 "--threads", "3"]) == EXIT_OK
    a = (tmp_path / "seq" / "results.csv").read_bytes()
    b = (tmp_path / "par" / "results.csv").read_bytes()
    assert a == b


def test_json_format_skips_csv(tmp_path):
    path = write_scenario(tmp_path)
    rc = main(["run", str(path), "--out", str(tmp_path / "json_out"),
               "--format", "json"])
    assert rc == EXIT_OK
    assert not (tmp_path / "json_out" / "results.csv").exists()
    assert (tmp_path / "json_out" / "result.json").exists()


def test_heatmap_grid_csv_shape(tmp_path):
    doc = dict(MINI_SCENARIO, mode="heatmap",
               mode_params={"x_extent_m": 0.1, "y_extent_m": 0.05,
                            "step_m": 0.01})
    path = write_scenario(tmp_path, doc)
    rc = main(["run", str(path), "--out", str(tmp_path / "hm")])
    assert rc == EXIT_OK
    lines = (tmp_path / "hm" / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 6            # header + y rows
    assert len(lines[1].split(",")) == 1 + 11


def test_sweep_csv_row_count(run_dir):
    tmp, out, _ = run_dir
    lines = (out / "sweep.csv").read_text().splitlines()
    spec = parse_scenario(tmp / "scenario.json")
    n_powers = len(spec.powers.sweep_grid())
    assert len(lines) == 1 + n_powers * 3     # header + (power x device)


# -- exit codes -------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["validate", str(path)]) == EXIT_OK
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["mode"] == "packet-rate"


def test_validate_error_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(MINI_SCENARIO, mode="warp"))
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ScenarioError"


def test_runtime_error_exit_code(tmp_path):
    # sweep range that never disrupts the target
    doc = dict(MINI_SCENARIO,
               powers={"sweep_from_dbm": -200.0, "sweep_to_dbm": -190.0})
    path = write_scenario(tmp_path, doc)
    rc = main(["run", str(path), "--out", str(tmp_path / "never")])
    assert rc == EXIT_RUNTIME


@pytest.fixture
def no_search(monkeypatch):
    """Makes any optimizer run fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a search started before validation finished")
    monkeypatch.setattr(scenarios, "run_optimizer", refuse)


TWO_TARGETS = ["A", "C"]


@pytest.mark.parametrize("mode,params,targets", [
    ("heatmap", {"step_m": 0}, ["A"]),
    ("heatmap", {"step_m": float("nan")}, ["A"]),
    ("heatmap", {"step_m": -0.01}, ["A"]),
    ("heatmap", {"step_m": 1e-5}, ["A"]),
    ("displacement", {"minimized": "B", "step_mm": 0}, ["A"]),
    ("displacement", {"minimized": ["B"]}, ["A"]),
    ("element-sweep", {"counts": [16, 500]}, ["A"]),
    ("element-sweep", {"counts": [16], "repeats": 0}, ["A"]),
    ("element-sweep", {"counts": [16.5]}, ["A"]),
    ("element-sweep", {"counts": "16"}, ["A"]),
    ("perturbation", {"schedule": "x"}, ["A"]),
    ("perturbation", {"schedule": [{"fraction": 0.1}]}, ["A"]),
    ("perturbation", {"schedule": [{"time": 1, "device": "Z",
                                    "position": [1.0, 1.0, 1.0]}]}, ["A"]),
    ("perturbation", {"schedule": [{"time": 1, "device": "B",
                                    "position": [1.0, 1.0]}]}, ["A"]),
    ("perturbation", {"schedule": [{"time": 1, "fraction": 2.0}]}, ["A"]),
    ("perturbation", {"duration": -1}, ["A"]),
    ("perturbation", {"duration": 10 ** 13}, ["A"]),
    ("perturbation", {"schedule": [{"time": 10 ** 13, "fraction": 0.1}]},
     ["A"]),
    ("perturbation", {"schedule": [{"time": -5, "fraction": 0.1}]}, ["A"]),
    ("perturbation", {"schedule": [{"time": 1, "fraction": 0.5, "sed": 3}]},
     ["A"]),
    ("perturbation", {"schedule": [{"time": 1, "fraction": 0.5, "device": "B",
                                    "position": [1.9, 2.9, 0.9]}]}, ["A"]),
    ("directional-baseline", {"beamwidth_deg": 0}, ["A"]),
    ("directional-baseline", {"gain_dbi": float("nan")}, ["A"]),
    ("throughput", {"offered_load_mbps": 0}, ["A"]),
    ("throughput", {"offered_load_mbps": float("inf")}, ["A"]),
    ("displacement", {"minimized": "B"}, TWO_TARGETS),
    ("element-sweep", {"counts": [16]}, TWO_TARGETS),
    ("directional-baseline", {}, TWO_TARGETS),
    ("heatmap", {"stepm": 0.05}, ["A"]),
    ("packet-rate", {"step_m": 0.01}, ["A"]),
    ("element-sweep", {"counts": [16], "repeats": 10 ** 12}, ["A"]),
], ids=["step-0", "step-nan", "step-negative", "grid-oversized",
        "displacement-step-0", "displacement-minimized-list",
        "counts-exceed-surface", "repeats-0", "counts-float", "counts-string",
        "schedule-string", "event-without-time", "event-unknown-device",
        "event-bad-position", "event-fraction-2", "duration-negative",
        "duration-huge", "default-duration-huge", "default-duration-negative",
        "event-unknown-key", "event-fraction-and-device",
        "beamwidth-0", "gain-nan", "offered-load-0", "offered-load-inf",
        "displacement-two-targets", "element-sweep-two-targets",
        "directional-two-targets", "heatmap-unknown-param",
        "packet-rate-unknown-param", "repeats-huge"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_bad_scan_grid_exits_2_before_search(tmp_path, capsys, no_search,
                                             command, mode, params, targets):
    path = write_scenario(tmp_path, dict(MINI_SCENARIO, mode=mode,
                                         mode_params=params, targets=targets))
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ScenarioError"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_grid_excluding_focus_exits_2_before_search(tmp_path, capsys,
                                                    no_search, command):
    doc = dict(MINI_SCENARIO, mode="heatmap",
               mode_params={"x_min_m": 0.0, "x_max_m": 0.5,
                            "y_min_m": 0.0, "y_max_m": 0.5})
    path = write_scenario(tmp_path, doc)
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "excludes" in json.loads(err[0])["message"]


@pytest.mark.parametrize("schedule", [
    # B takes A's place after A has left it.
    [{"time": 2, "device": "B", "position": [1.6, 3.0, 0.9]},
     {"time": 1, "device": "A", "position": [2.0, 2.0, 0.9]}],
    # A move after the last step (duration 3: steps 0, 1, 2) never applies.
    [{"time": 1, "fraction": 0.1},
     {"time": 2.5, "device": "B", "position": [1.6, 3.0, 0.9]}],
], ids=["after-the-other-left", "after-the-last-step"])
def test_moves_a_run_can_make_validate(tmp_path, capsys, schedule):
    doc = dict(MINI_SCENARIO, mode="perturbation",
               mode_params={"schedule": schedule, "duration": 3})
    assert main(["validate", str(write_scenario(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()


def _replaced(doc, path, value):
    """Copy of ``doc`` with the dotted field ``path`` set to ``value``; a
    number indexes a list, and ``""`` replaces the whole document."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node[int(name)] if isinstance(node, list) \
            else node.setdefault(name, {})
    node[int(key) if isinstance(node, list) else key] = value
    return doc


@pytest.mark.parametrize("path,value,field", [
    ("mode_params", "ab", "mode_params"),
    ("environment", 5, "environment"),
    ("environment.devices", 5, "environment.devices"),
    ("environment_document", 5, "environment_document"),
    ("environment_document", {}, "environment_document"),
    ("environment_file", 5, "environment_file"),
    ("environment_file", "absent.json", "environment_file"),
    ("seed", -1, "seed"),
    ("seed", 1.5, "seed"),
    ("seed", True, "seed"),
    ("seed", 2 ** 64, "seed"),
    ("optimizer.steps", 2.5, "optimizer.steps"),
    ("optimizer.table_size", 2.5, "optimizer.table_size"),
    ("optimizer.reeval_period", "10", "optimizer.reeval_period"),
    ("optimizer.epsilon", 2, "optimizer.epsilon"),
    ("optimizer.w_mean", float("nan"), "optimizer.w_mean"),
    ("optimizer.w_mean", 0.5, "optimizer.w_extreme"),
    ("optimizer.quantize", "no", "optimizer.quantize"),
    ("powers.jam_dbm", float("nan"), "powers.jam_dbm"),
    ("powers.sweep_step_db", float("nan"), "powers.sweep_step_db"),
    ("powers.ap_dbm", None, "powers.ap_dbm"),
    ("powers.sweep_step_db", 1e-12, "powers.sweep_step_db"),
    ("powers.sweep_to_dbm", 1e308, "powers.sweep_to_dbm"),
    ("environment.scatter_count", "x", "environment.scatter_count"),
    ("environment.scatter_count", 8, "environment.scatter_count"),
    ("environment.n_elements", 2.5, "environment.n_elements"),
    ("environment.n_elements", 0, "environment.n_elements"),
    ("environment.frequency_hz", "x", "environment.frequency_hz"),
    ("environment.frequency_hz", 0, "environment.frequency_hz"),
    ("environment.rician_k", -1, "environment.rician_k"),
    ("environment.pattern_diversity", "x", "environment.pattern_diversity"),
    ("environment.path_loss_exponent", float("nan"),
     "environment.path_loss_exponent"),
    ("environment.noise_floor_dbm", None, "environment.noise_floor_dbm"),
    # One plane wave past the ensemble cap on the 96 x 32 roster.
    ("environment.scatter_count", MAX_ENSEMBLE_TERMS // 96 + 1, "environment"),
    ("environment.n_elements", MAX_ENSEMBLE_TERMS // 32 + 1, "environment"),
    ("environment.scatter_count", 10 ** 13, "environment"),
    ("environment.attacker_id", "B", "environment.devices"),
    ("environment.devices.B", [1.6, 3.0, 0.9], "environment.devices"),
    ("environment.attacker_position", [0.4, 0.9],
     "environment.attacker_position"),
    # A stored world passes the same checks as an environment spec.
    *(("", _replaced(STORED_SCENARIO, f"environment_document.{path}", value),
       "environment_document") for path, value in (
        ("ensembles.ris_elements", 10 ** 13),
        ("M", 10 ** 12),
        ("M", "x"),
        ("ensembles.ris_elements", 2.5),
        ("devices.0.x", "a"),
        ("devices.1.id", SMALL_WORLD["devices"][0]["id"]),
        # Seeds and fractions are checked, not truncated.
        ("seed", 2.5),
        ("seed", True),
        ("ensembles.perturbations", [[0.1, 2.7]]),
        ("ensembles.perturbations", [[True, 3]]),
    )),
    # The stored-world checks above on a scenario that names no other
    # world: with an "environment" beside them, the two-world rule fires
    # first.
    *(("", dict(WORLDLESS, **{key: value}), key) for key, value in (
        ("environment_document", 5),
        ("environment_document", {}),
        ("environment_file", 5),
        ("environment_file", "absent.json"),
    )),
    # Search sizes are capped before any table or trace is allocated.
    ("optimizer.table_size", 10 ** 13, "optimizer.table_size"),
    ("optimizer.table_size", 4097, "optimizer.table_size"),
    ("optimizer.steps", 10 ** 13, "optimizer.steps"),
    # (steps + 1) rows of 128 bits (96 elements) are past the cap.
    ("optimizer.steps", 10 ** 8 // 96, "optimizer.steps"),
    # A table of 4096 on 10**5 elements: each size is in range alone.
    ("", _replaced(_replaced(_replaced(
        MINI_SCENARIO, "environment.n_elements", 100_000),
        "environment.scatter_count", 16), "optimizer.table_size", 4096),
     "optimizer.table_size"),
    ("", _replaced(STORED_SCENARIO, "optimizer.steps", 10 ** 13),
     "optimizer.steps"),
    # A stored world's ensembles are drawn from its top-level seed.
    *(("", _replaced(STORED_SCENARIO, "environment_document.ensembles.seed",
                     value), "environment_document") for value in (99, 5.5)),
    # Values whose scalar arithmetic overflows in a run: the path loss at a
    # device 0.5 m from the attacker, the pattern-diversity norm, the
    # path-loss reference at a vast wavelength, and a directional pattern
    # off its boresight.
    ("", _replaced(_replaced(MINI_SCENARIO, "environment.devices.B",
                             [0.9, 0.9, 1.0]),
                   "environment.path_loss_exponent", 2000),
     "environment.path_loss_exponent"),
    ("environment.pattern_diversity", 1e200, "environment.pattern_diversity"),
    ("environment.frequency_hz", 1e-200, "environment.frequency_hz"),
    *(("", dict(MINI_SCENARIO, mode="directional-baseline",
                mode_params={key: value}), f"mode_params.{key}")
      for key, value in (("gain_dbi", 1e5), ("diffuse_db", 1e5),
                         ("front_back_db", -1e5), ("beamwidth_deg", 1e-300))),
    # A device or an element count listed twice.
    ("non_targets", ["B", "B"], "non_targets"),
    ("hidden", ["B", "B"], "hidden"),
    ("", dict(MINI_SCENARIO, mode="jsr-matrix", targets=["A", "A"]),
     "targets"),
    ("", dict(MINI_SCENARIO, mode="element-sweep",
              mode_params={"counts": [8, 8], "repeats": 1}),
     "mode_params.counts"),
    # A nested (unhashable) device id in each device list.
    *((key, [["B"]], key) for key in ("targets", "non_targets", "hidden")),
    # Scan and move geometry the run would reject after its search: a
    # heatmap grid point and a displacement rail point on the attacker
    # (at 0.4, 0.9, 1.0), and a move of B onto A.
    ("", _replaced(dict(MINI_SCENARIO, mode="heatmap", mode_params={
        "x_min_m": 0.4, "x_max_m": 1.6, "y_min_m": 0.9, "y_max_m": 3.0,
        "step_m": 0.1}), "environment.devices.A", [1.6, 3.0, 1.0]),
     "mode_params"),
    ("", _replaced(dict(MINI_SCENARIO, mode="displacement",
                        mode_params={"minimized": "B"}),
                   "environment.devices.B", [0.392, 0.9, 1.0]),
     "mode_params"),
    ("", dict(MINI_SCENARIO, mode="perturbation", mode_params={"schedule": [
        {"time": 2, "fraction": 0.1},
        {"time": 1, "device": "B", "position": [1.6, 3.0, 0.9]}]}),
     "mode_params.schedule[1].position"),
    # More values whose scalar arithmetic overflows in a run: a path loss
    # that underflows to zero (a vast frequency, a far device or attacker),
    # and scan or move coordinates whose squared distances overflow (a
    # heatmap window and a rail 1e300 m long, a far move).
    ("environment.frequency_hz", 1e300, "environment.frequency_hz"),
    ("environment.devices.C", [1e200, 1.2, 0.9], "environment.devices"),
    ("environment.devices.C", [1e300, 1.2, 0.9], "environment.devices"),
    ("environment.attacker_position", [0.4, -1e200, 1.0],
     "environment.attacker_position"),
    ("", dict(MINI_SCENARIO, mode="heatmap", mode_params={
        "x_min_m": -1e300, "x_max_m": 1e300, "y_min_m": 3.0, "y_max_m": 3.0,
        "step_m": 1e297}), "mode_params"),
    ("", dict(MINI_SCENARIO, mode="displacement", mode_params={
        "minimized": "B", "step_mm": 1e300, "max_mm": 1e303}),
     "mode_params"),
    ("", dict(MINI_SCENARIO, mode="perturbation", mode_params={"schedule": [
        {"time": 1, "device": "B", "position": [1e200, 2.8, 0.9]}]}),
     "mode_params.schedule[0].position"),
    # A rail whose steps lie below the resolution of its x values repeats
    # points, so it is no grid.
    ("", dict(MINI_SCENARIO, mode="displacement", mode_params={
        "minimized": "B", "step_mm": 1e-15, "max_mm": 1e-12}),
     "mode_params"),
    # A device-id list must be a JSON list: a string or an object is not
    # split into ids, and a number or null is no list.
    *(("targets", value, "targets") for value in ("AB", {"A": 1}, 5, None)),
    ("non_targets", "BC", "non_targets"),
    *(("hidden", value, "hidden") for value in ("C", None)),
    # The run's name and the access point's id must be strings: neither is
    # converted with str().
    *((key, value, key) for key in ("name", "ap_id")
      for value in (None, ["x"], 5)),
    # A trace row counts as at least 128 bits, for its two float64 costs:
    # 10**8 one-element rows would hold 1.6 GB of costs.
    ("", _replaced(_replaced(_replaced(
        MINI_SCENARIO, "environment.n_elements", 1),
        "optimizer.table_size", 2), "optimizer.steps", 99_999_998),
     "optimizer.steps"),
    # A stored world's device ids are strings, as a spec's are.
    *(("", _replaced(STORED_SCENARIO, "environment_document.devices.1.id",
                     value), "environment_document")
      for value in (5, [1], None)),
    # One row past test_search_cap_admits_trace_rows_at_the_bound.
    ("", _replaced(_replaced(MINI_SCENARIO, "environment.n_elements", 1),
                   "optimizer.steps", 781_250), "optimizer.steps"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_bad_document_exits_2_before_search(tmp_path, capsys, no_search,
                                            command, path, value, field):
    scenario = write_scenario(tmp_path, _replaced(MINI_SCENARIO, path, value))
    _assert_exits_2(tmp_path, capsys, command, scenario, field)


def test_search_cap_admits_trace_rows_at_the_bound(tmp_path, capsys):
    # (781 249 + 1) one-element rows, counted as 128 bits each, are the cap.
    doc = _replaced(_replaced(MINI_SCENARIO, "environment.n_elements", 1),
                    "optimizer.steps", 781_249)
    assert main(["validate", str(write_scenario(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_oversize_environment_file_exits_2_before_search(tmp_path, capsys,
                                                         no_search, command):
    world = _replaced(SMALL_WORLD, "M", 10 ** 12)
    del world["ensembles"]["draw_counter"]  # only the cap may reject it
    (tmp_path / "world.json").write_text(json.dumps(world))
    doc = dict(STORED_SCENARIO, environment_file="world.json")
    del doc["environment_document"]
    scenario = write_scenario(tmp_path, doc)
    _assert_exits_2(tmp_path, capsys, command, scenario, "environment_file")


@pytest.mark.parametrize("worlds,field", [
    (("environment", "environment_document"), "environment_document"),
    (("environment", "environment_file"), "environment_file"),
    (("environment_document", "environment_file"), "environment_file"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_two_worlds_exit_2_before_search(tmp_path, capsys, no_search,
                                         command, worlds, field):
    (tmp_path / "world.json").write_text(json.dumps(SMALL_WORLD))
    sources = {"environment": MINI_SCENARIO["environment"],
               "environment_document": SMALL_WORLD,
               "environment_file": "world.json"}
    doc = dict(WORLDLESS, **{key: sources[key] for key in worlds})
    _assert_exits_2(tmp_path, capsys, command, write_scenario(tmp_path, doc),
                    field)


def _assert_exits_2(tmp_path, capsys, command, scenario, field):
    """``command`` on ``scenario`` exits 2 with one JSON error naming
    ``field`` on stderr."""
    argv = [command, str(scenario)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["field"] == field


# A 3-device, 8-element packet-rate run.  A noise floor of 1e20 dBm used to
# run to exit 0 with -9.2e18 dBm readings from an overflowing int cast.
TINY_SCENARIO = {
    "mode": "packet-rate",
    "targets": ["A"],
    "seed": 5,
    "environment": {
        "n_elements": 8,
        "scatter_count": 16,
        "attacker_position": [0.4, 0.9, 1.0],
        "devices": {"D0": [3.0, 3.6, 1.2], "A": [1.6, 3.0, 0.9],
                    "B": [1.9, 2.8, 0.9]},
    },
    "powers": {"jam_dbm": 0.0},
    "optimizer": {"steps": 5, "reeval_period": 2, "table_size": 4},
}


@pytest.mark.parametrize("path,value,field", [
    ("environment.noise_floor_dbm", 1e20, "environment.noise_floor_dbm"),
    ("environment.noise_floor_dbm", -300.5, "environment.noise_floor_dbm"),
    ("powers.jam_dbm", 1e20, "powers.jam_dbm"),
    ("powers.ap_dbm", 301, "powers.ap_dbm"),
    ("powers.device_tx_dbm", -1e20, "powers.device_tx_dbm"),
    ("powers.sweep_from_dbm", -1e20, "powers.sweep_from_dbm"),
    ("powers.sweep_to_dbm", 1e20, "powers.sweep_to_dbm"),
    ("optimizer.meas_sigma_db", 1e300, "optimizer.meas_sigma_db"),
    ("", _replaced(STORED_SCENARIO, "environment_document.noise_floor_dbm",
                   1e20), "environment_document"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_out_of_range_level_exits_2_before_search(tmp_path, capsys,
                                                  no_search, command, path,
                                                  value, field):
    scenario = write_scenario(tmp_path, _replaced(TINY_SCENARIO, path, value))
    _assert_exits_2(tmp_path, capsys, command, scenario, field)


def test_levels_at_their_bounds_validate(tmp_path, capsys):
    doc = _replaced(TINY_SCENARIO, "environment.noise_floor_dbm",
                    -MAX_ABS_DBM)
    doc["powers"] = {"jam_dbm": MAX_ABS_DBM, "ap_dbm": -MAX_ABS_DBM,
                     "device_tx_dbm": MAX_ABS_DBM,
                     "sweep_from_dbm": -MAX_ABS_DBM,
                     "sweep_to_dbm": MAX_ABS_DBM}
    doc["optimizer"]["meas_sigma_db"] = scenarios.MAX_SIGMA_DB
    assert main(["validate", str(write_scenario(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()


# Scan modes on MINI_SCENARIO's roster, and worlds whose grid-field blocks
# (min(n_elements, 8) elements) hold channel.MAX_BLOCK_WAVES plane waves
# plus ``extra``: 96 elements, or one.
SCANS = {"heatmap": {}, "displacement": {"minimized": "B"}}


def _block_world(mode, n_elements, extra):
    waves = channel.MAX_BLOCK_WAVES // min(n_elements, 8) + extra
    doc = dict(MINI_SCENARIO, mode=mode, mode_params=SCANS.get(mode, {}))
    return _replaced(_replaced(doc, "environment.n_elements", n_elements),
                     "environment.scatter_count", waves)


@pytest.mark.parametrize("n_elements", [96, 1])
@pytest.mark.parametrize("mode", SCANS)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_scan_past_the_block_wave_bound_exits_2_before_search(
        tmp_path, capsys, no_search, command, mode, n_elements):
    scenario = write_scenario(tmp_path, _block_world(mode, n_elements, 1))
    _assert_exits_2(tmp_path, capsys, command, scenario, "mode_params")


@pytest.mark.parametrize("n_elements", [96, 1])
@pytest.mark.parametrize("mode,extra", [("heatmap", 0), ("displacement", 0),
                                        ("packet-rate", 1)])
def test_block_wave_bound_binds_scans_only(tmp_path, capsys, mode, extra,
                                           n_elements):
    doc = _block_world(mode, n_elements, extra)
    assert main(["validate", str(write_scenario(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()


# Heatmap windows around MINI_SCENARIO's target A, each breaking one part
# of the scan rule, with the changes to the document they need: a point
# past MAX_ABS_COORDINATE_M, a step below the resolution of the x values
# (which repeats points), a grid through the attacker (at 0.4, 0.9, 1.0)
# and a world one plane wave per element past MAX_BLOCK_WAVES.
BAD_SCANS = {
    "coordinate": ({}, {"x_min_m": 0.0, "x_max_m": 2e6, "y_min_m": 3.0,
                        "y_max_m": 3.0, "step_m": 1e6}),
    "repeated": ({}, {"x_min_m": 1.6, "x_max_m": 1.6 + 1e-15,
                      "y_min_m": 3.0, "y_max_m": 3.0, "step_m": 1e-16}),
    "attacker": ({"environment.devices.A": [1.6, 3.0, 1.0]},
                 {"x_min_m": 0.4, "x_max_m": 1.6, "y_min_m": 0.9,
                  "y_max_m": 3.0, "step_m": 0.1}),
    "block-waves": ({"environment.n_elements": 8,
                     "environment.scatter_count":
                         channel.MAX_BLOCK_WAVES // 8 + 1},
                    {"x_min_m": 1.5, "x_max_m": 1.7, "y_min_m": 2.9,
                     "y_max_m": 3.1, "step_m": 0.1}),
}


@pytest.mark.parametrize("case", BAD_SCANS)
def test_field_and_parsing_share_the_scan_rule(tmp_path, capsys, no_search,
                                               case):
    changes, window = BAD_SCANS[case]
    doc = dict(MINI_SCENARIO, mode="heatmap", mode_params=window)
    for path, value in changes.items():
        doc = _replaced(doc, path, value)
    world = scenarios._environment_spec_from_dict(doc["environment"])
    focus = world.devices["A"]
    points = scenarios._grid_points(
        *scenarios._heatmap_window(window, focus), focus.z)
    env = channel.synthesize_environment(world, 5)
    with pytest.raises(ValueError) as raised:
        channel.ris_subchannels_batch(env, points,
                                      np.ones(env.n_elements, dtype=complex))
    scenario = write_scenario(tmp_path, doc)
    assert main(["validate", str(scenario)]) == EXIT_VALIDATION
    error = json.loads(capsys.readouterr().err)
    assert error["field"] == "mode_params"
    assert error["message"] == f"mode_params: {raised.value}"


# The corner of the parse bounds: the highest frequency, the steepest path
# loss and devices 1e6 m apart, within MAX_ABS_COORDINATE_M of 0.  Every
# signal there sits hundreds of dB below the noise floor.
_CORNER = channel.MAX_ABS_COORDINATE_M / 2
CORNER_SCENARIO = dict(TINY_SCENARIO, mode="heatmap", environment=dict(
    TINY_SCENARIO["environment"], frequency_hz=channel.MAX_FREQUENCY_HZ,
    path_loss_exponent=10, attacker_position=[-_CORNER, -_CORNER, 1.0],
    devices={"D0": [_CORNER, _CORNER, 1.0], "A": [_CORNER, -_CORNER, 0.9],
             "B": [_CORNER + 0.3, 0.2 - _CORNER, 0.9]}))


def test_corner_world_runs_without_a_warning(tmp_path):
    # A child process, where a RuntimeWarning is an error too (conftest).
    src = str(Path(risjam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "risjam.cli", "run",
         str(write_scenario(tmp_path, CORNER_SCENARIO)),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


@pytest.mark.parametrize("mode,rows", [("packet-rate", 1), ("jsr-matrix", 3)])
def test_run_checks_the_roster_once(tmp_path, monkeypatch, mode, rows):
    calls = []
    check = channel._check_entity_distances

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(channel, "_check_entity_distances", counted)
    doc = dict(MINI_SCENARIO, mode=mode,
               targets=["A"] if mode == "packet-rate" else [],
               optimizer={"steps": 5, "reeval_period": 2, "table_size": 8})
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(write_scenario(tmp_path, doc)),
                     "--out", str(out)]) == EXIT_OK
    assert len(json.loads((out / "result.json").read_text())["rows"]) == rows
    assert len(calls) == 1


def test_exclusion_leaving_no_device_exits_2(tmp_path, capsys, no_search):
    doc = _replaced(MINI_SCENARIO, "environment.devices",
                    {"D0": [3.0, 3.6, 1.2], "A": [1.6, 3.0, 0.9]})
    doc.update(mode="exclusion", targets=[], mode_params={"exclude": "A"})
    assert main(["validate", str(write_scenario(tmp_path, doc))]) \
        == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["field"] \
        == "mode_params.exclude"


def test_seed_override_is_validated(tmp_path, capsys, no_search):
    path = write_scenario(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path / "out"),
                 "--seed", "-1"]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["field"] == "seed"


def test_missing_file_is_validation_error(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["run", "s.json", "--out", "o", "--format", "xml"],
    ["run", "s.json", "--out", "o", "--seed", "abc"],
    [],
], ids=["format-xml", "seed-abc", "no-command"])
def test_usage_error_exits_2_with_one_json_line(capsys, argv):
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert isinstance(json.loads(err), dict)


@pytest.mark.parametrize("argv,commands", [([], "{run,validate,compare,env}"),
                                           (["env"], "{synth}")],
                         ids=["no-command", "env"])
def test_missing_command_error_names_the_commands(capsys, argv, commands):
    assert main(argv) == EXIT_VALIDATION
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == f"the following arguments are required: {commands}"


@pytest.mark.parametrize("argv", [["-h"], ["--version"], ["run", "-h"]])
def test_help_and_version_exit_0_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out and err == ""


# -- compare -----------------------------------------------------------------------


def test_compare_identical_runs(run_dir, tmp_path, capsys):
    tmp, out, _ = run_dir
    rc = main(["compare", str(out), str(out)])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is True
    assert report["deltas"] == []
    assert report["separation_regression"] is False


def test_compare_shape_mismatch(run_dir, tmp_path):
    tmp, out, _ = run_dir
    doc = dict(MINI_SCENARIO)
    doc["environment"] = dict(doc["environment"])
    doc["environment"]["devices"] = dict(doc["environment"]["devices"],
                                         E=[2.9, 3.1, 0.9])
    path = write_scenario(tmp_path, doc)
    out2 = tmp_path / "bigger"
    execute(parse_scenario(path), out2)
    with pytest.raises(ScenarioError, match="rosters differ"):
        compare_runs(out, out2)
    assert main(["compare", str(out), str(out2)]) == EXIT_VALIDATION


def test_compare_detects_changes(run_dir, tmp_path, capsys):
    tmp, out, _ = run_dir
    spec = parse_scenario(tmp / "scenario.json")
    from dataclasses import replace
    out2 = tmp_path / "other_seed"
    execute(replace(spec, seed=99), out2)
    rc = main(["compare", str(out), str(out2)])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is False
    assert len(report["deltas"]) > 0


@pytest.fixture
def kept_results(monkeypatch):
    """The RunResult of each execute, in order."""
    results = []

    def keep(spec):
        results.append(scenarios.run_scenario(spec))
        return results[-1]
    monkeypatch.setattr(cli, "run_scenario", keep)
    return results


def test_compare_reports_each_runs_separations(tmp_path, kept_results):
    doc = dict(MINI_SCENARIO, mode="jsr-matrix", targets=[])
    outs = [tmp_path / "a", tmp_path / "b"]
    for seed, out in zip((5, 6), outs):
        execute(replace(parse_scenario(write_scenario(tmp_path, doc)),
                        seed=seed), out)
    report = compare_runs(*outs)
    for key, result in zip(("separation_db_a", "separation_db_b"),
                           kept_results):
        assert len(result.rows) == 3
        assert report[key] == [row.separation_db() for row in result.rows]
    assert report["separation_db_a"] != report["separation_db_b"]


def test_compare_reports_none_without_a_non_target(tmp_path, kept_results):
    doc = dict(MINI_SCENARIO, targets=["A", "B", "C"])
    out = tmp_path / "all"
    execute(parse_scenario(write_scenario(tmp_path, doc)), out)
    assert kept_results[0].rows[0].separation_db() == math.inf
    report = compare_runs(out, out)
    assert report["separation_db_a"] == report["separation_db_b"] == [None]
    assert report["separation_regression"] is False


# Each edits a copy of a run: "manifest" edits manifest.json, "result" edits
# result.json and re-records its sha256, "stale" edits it and does not.
COMPARE_MUTATIONS = {
    "outputs-not-a-list": ("manifest", lambda m: m.update(outputs=5)),
    "entry-without-path": ("manifest", lambda m: m["outputs"][0].pop("path")),
    "hash-mismatch": ("stale", lambda r: r.update(scenario="edited")),
    "result-without-devices": ("result", lambda r: r.pop("devices")),
    "row-without-targets": ("result", lambda r: r["rows"][0].pop("targets")),
    "metric-missing-device": ("result",
                              lambda r: r["rows"][0]["jsr_db"].pop("B")),
}


def _edited_run(out, dest, edited, mutate):
    """A copy of run ``out`` at ``dest``, edited as COMPARE_MUTATIONS
    describes."""
    shutil.copytree(out, dest)
    manifest = json.loads((dest / "manifest.json").read_text())
    if edited == "manifest":
        mutate(manifest)
    else:
        result = json.loads((dest / "result.json").read_text())
        mutate(result)
        data = json.dumps(result).encode()
        (dest / "result.json").write_bytes(data)
        if edited == "result":
            entry, = (e for e in manifest["outputs"]
                      if e["path"] == "result.json")
            entry["sha256"] = hashlib.sha256(data).hexdigest()
    (dest / "manifest.json").write_text(json.dumps(manifest))
    return dest


@pytest.mark.parametrize("edited,mutate", COMPARE_MUTATIONS.values(),
                         ids=list(COMPARE_MUTATIONS))
def test_compare_bad_run_exits_2(run_dir, tmp_path, capsys, edited, mutate):
    _, out, _ = run_dir
    bad = _edited_run(out, tmp_path / "bad", edited, mutate)
    assert main(["compare", str(out), str(bad)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert isinstance(json.loads(err[0]), dict)


# -- import cost ----------------------------------------------------------------


def test_cli_import_loads_no_scipy():
    # scipy backs only the Bessel reference; importing it would slow every
    # command.
    src = str(Path(risjam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import risjam.cli, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_starts_no_thread():
    # The grid field starts its worker threads when it runs, never at import.
    src = str(Path(risjam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import risjam.cli, sys, threading; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'concurrent'), "
            "threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[] 1"


# -- env synth ----------------------------------------------------------------------


def test_env_synth_round_trip(tmp_path):
    spec_doc = dict(MINI_SCENARIO["environment"])
    spec_path = tmp_path / "envspec.json"
    spec_path.write_text(json.dumps(spec_doc))
    out = tmp_path / "env.json"
    rc = main(["env", "synth", "--spec", str(spec_path), "--seed", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    env = environment_from_dict(read_json(out, "environment"))
    assert env.master_seed == 5
    assert env.n_elements == 96
    # scenario referencing the file runs against the stored world
    doc = {"mode": "packet-rate", "targets": ["A"], "seed": 5,
           "environment_file": "env.json",
           "optimizer": {"steps": 200, "reeval_period": 100,
                         "table_size": 30}}
    scen = write_scenario(tmp_path, doc, "withfile.json")
    spec = parse_scenario(scen)
    assert environments_equal(spec.environment, env)


def test_env_synth_malformed_spec_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "envspec.json"
    spec_path.write_text("{nope")
    rc = main(["env", "synth", "--spec", str(spec_path), "--seed", "5",
               "--out", str(tmp_path / "env.json")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "invalid JSON" in json.loads(err[0])["message"]
    assert not (tmp_path / "env.json").exists()


# Unreadable files, invalid JSON and duplicate keys, for any file the CLI
# is handed.
_BAD_FILES = {
    "missing": None,
    "directory": "",
    "not-utf8": b"\xff\xfe{}",
    "invalid-json": "{nope",
}


def _write_bad_file(path, content):
    if content == "":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)


@pytest.mark.parametrize("content", [
    *_BAD_FILES.values(), '{"n_elements": 16, "n_elements": 32}'],
    ids=[*_BAD_FILES, "duplicate-key"])
def test_env_synth_unreadable_spec_exits_2(tmp_path, capsys, content):
    spec_path = tmp_path / "envspec.json"
    _write_bad_file(spec_path, content)
    rc = main(["env", "synth", "--spec", str(spec_path), "--seed", "5",
               "--out", str(tmp_path / "env.json")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ScenarioError"
    assert not (tmp_path / "env.json").exists()


@pytest.mark.parametrize("content", [
    *_BAD_FILES.values(),
    json.dumps(SMALL_WORLD)[:-1] + f', "seed": {SMALL_WORLD["seed"]}}}'],
    ids=[*_BAD_FILES, "duplicate-seed"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_environment_file_exits_2_before_search(
        tmp_path, capsys, no_search, command, content):
    _write_bad_file(tmp_path / "world.json", content)
    doc = dict(WORLDLESS, environment_file="world.json")
    _assert_exits_2(tmp_path, capsys, command, write_scenario(tmp_path, doc),
                    "environment_file")
    assert not (tmp_path / "out").exists()


def test_unreadable_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(_BAD_FILES["not-utf8"])
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("spec_doc,field", [
    ({"scatter_count": "x"}, "environment.scatter_count"),
    ({"scatter_count": 10 ** 13}, "environment"),
    ({"attacker_id": "D1"}, "environment.devices"),
])
def test_env_synth_bad_spec_exits_2(tmp_path, capsys, spec_doc, field):
    spec_path = tmp_path / "envspec.json"
    spec_path.write_text(json.dumps(spec_doc))
    rc = main(["env", "synth", "--spec", str(spec_path), "--seed", "5",
               "--out", str(tmp_path / "env.json")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["field"] == field
    assert not (tmp_path / "env.json").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_env_synth_bad_seed_exits_2(tmp_path, capsys, seed):
    rc = main(["env", "synth", "--seed", seed,
               "--out", str(tmp_path / "env.json")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["field"] == "seed"
    assert not (tmp_path / "env.json").exists()


def test_env_synth_default_desk(tmp_path):
    out = tmp_path / "desk.json"
    rc = main(["env", "synth", "--seed", "28", "--out", str(out)])
    assert rc == EXIT_OK
    env = environment_from_dict(read_json(out, "environment"))
    assert len(env.devices) == 11


# -- every mode through the CLI ------------------------------------------------------

SMALL_RUN = {
    "seed": 5,
    "environment": dict(MINI_SCENARIO["environment"], n_elements=16),
    "optimizer": {"steps": 20, "reeval_period": 10, "table_size": 8},
    "powers": {"sweep_from_dbm": -60.0, "sweep_to_dbm": 40.0,
               "sweep_step_db": 2.0},
}
RESULTS = "scenario,target_set,device,metric,value"
SWEEP = ("power_dbm,device,packet_rate", 51 * 3)
TRACE = ("step,best_cost,best_config_hex,table_worst_cost", 21)
MATRIX = {"results.csv": (RESULTS, 3 * 5 * 3), "trace_00.csv": TRACE,
          "trace_01.csv": TRACE, "trace_02.csv": TRACE}


@pytest.mark.parametrize("fields,tables", [
    ({"mode": "packet-rate", "targets": ["A"]},
     {"results.csv": (RESULTS, 15), "sweep.csv": SWEEP,
      "trace_00.csv": TRACE}),
    ({"mode": "throughput", "targets": ["A"]},
     {"results.csv": (RESULTS, 18), "sweep.csv": SWEEP,
      "trace_00.csv": TRACE}),
    ({"mode": "jsr-matrix"}, MATRIX),
    ({"mode": "jsr-matrix", "hidden": ["A", "B", "C"]}, MATRIX),
    ({"mode": "heatmap", "targets": ["A"],
      "mode_params": {"x_extent_m": 0.04, "y_extent_m": 0.02,
                      "step_m": 0.01}},
     {"results.csv": (RESULTS, 15), "sweep.csv": SWEEP,
      "grid.csv": ("y_m\\x_m,1.58,1.59,1.6,1.61,1.62", 3),
      "trace_00.csv": TRACE}),
    ({"mode": "element-sweep", "targets": ["A"],
      "mode_params": {"counts": [4, 16], "repeats": 2}},
     {"separation.csv": ("active_elements,repeat,separation_db", 4)}),
    ({"mode": "displacement", "targets": ["A"],
      "mode_params": {"minimized": "B", "step_mm": 8.0, "max_mm": 24.0}},
     {"results.csv": (RESULTS, 15), "sweep.csv": SWEEP,
      "curves.csv": ("displacement_mm,maximized_db,minimized_db", 4),
      "trace_00.csv": TRACE}),
    ({"mode": "exclusion", "mode_params": {"exclude": "C"}},
     {"results.csv": (RESULTS, 15), "sweep.csv": SWEEP,
      "trace_00.csv": TRACE}),
    ({"mode": "directional-baseline", "targets": ["A"]},
     {"results.csv": (RESULTS, 15), "sweep.csv": SWEEP}),
    ({"mode": "perturbation", "targets": ["A"],
      "mode_params": {"schedule": [{"time": 1, "fraction": 0.1}],
                      "duration": 3}},
     {"results.csv": (RESULTS, 15), "sweep.csv": SWEEP,
      "timeseries.csv": ("time,device,packet_rate", 3 * 3),
      "trace_00.csv": TRACE}),
], ids=["packet-rate", "throughput", "jsr-matrix", "jsr-matrix-all-hidden",
        "heatmap", "element-sweep", "displacement", "exclusion",
        "directional-baseline", "perturbation"])
def test_every_mode_writes_its_tables(tmp_path, fields, tables):
    path = write_scenario(tmp_path, dict(SMALL_RUN, **fields))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {entry["path"] for entry in manifest["outputs"]}
    assert listed == {"scenario.normalized.json", "result.json", *tables}
    assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}
    for name, (header, n_rows) in tables.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + n_rows


# -- validate never crashes ----------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)

FUZZ_BASES = [dict(MINI_SCENARIO, **fields) for fields in (
    {},
    {"mode": "throughput"},
    {"mode": "jsr-matrix", "targets": [], "hidden": ["B"]},
    {"mode": "heatmap", "mode_params": {"x_extent_m": 0.1}},
    {"mode": "element-sweep", "mode_params": {"counts": [8, 96]}},
    {"mode": "displacement", "mode_params": {"minimized": "B"}},
    {"mode": "exclusion", "targets": [], "mode_params": {"exclude": "C"}},
    {"mode": "directional-baseline", "mode_params": {"beamwidth_deg": 5}},
    {"mode": "perturbation", "mode_params": {
        "schedule": [{"time": 1, "fraction": 0.1},
                     {"time": 2, "device": "B",
                      "position": [1.9, 2.9, 0.9]}], "duration": 3}},
)] + [STORED_SCENARIO]
# Every field the declarations accept: the spec and settings dataclasses,
# every mode's params, and the keys environment_to_dict stores.
FUZZ_FIELDS = {
    "": [f.name for f in fields(ScenarioSpec)]
        + list(scenarios._STORED_ENVIRONMENT),
    **{f"{name}.": [f.name for f in fields(declared)] for name, declared in (
        ("powers", PowerSettings), ("optimizer", OptimizerSettings),
        ("environment", EnvironmentSpec))},
    "environment_document.": list(SMALL_WORLD) + [
        f"ensembles.{key}" for key in SMALL_WORLD["ensembles"]],
    "mode_params.": sorted({key for mode in scenarios._MODES.values()
                            for key in mode.params}),
}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(base=st.sampled_from(FUZZ_BASES),
       field=st.sampled_from([prefix + key for prefix, keys
                              in FUZZ_FIELDS.items() for key in keys]),
       value=JSON_VALUES)
def test_validate_fuzz_exits_0_or_2(tmp_path_factory, base, field, value):
    path = write_scenario(tmp_path_factory.mktemp("fuzz"),
                          _replaced(base, field, value))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["validate", str(path)])
    assert rc in (EXIT_OK, EXIT_VALIDATION)
    if rc == EXIT_VALIDATION:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)


# -- run agrees with validate ----------------------------------------------------

def _small_run(base):
    """A fuzz base on a 16-element surface with a 5-step search."""
    doc = _replaced(base, "optimizer",
                    {"steps": 5, "reeval_period": 2, "table_size": 8})
    if "environment" in doc:
        doc["environment"]["n_elements"] = 16
    if doc["mode"] == "element-sweep":
        doc["mode_params"]["counts"] = [8, 16]
    return doc


RUN_FUZZ_BASES = [_small_run(base) for base in FUZZ_BASES]
# Fields that scale a run's cost (search and surface sizes, repeats, series
# lengths) are left to the validate fuzz and the bound tests above.
RUN_FUZZ_FIELDS = [
    field for field in (prefix + key for prefix, keys in FUZZ_FIELDS.items()
                        for key in keys)
    if field not in ("optimizer", "optimizer.steps", "optimizer.table_size",
                     "environment.n_elements", "environment.scatter_count",
                     "environment_document.M",
                     "environment_document.ensembles.ris_elements",
                     "mode_params.repeats", "mode_params.duration",
                     "mode_params.schedule", "mode_params.max_mm")]


def _exit_and_errors(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


# Roster geometry and ids the value fuzz rarely hits: the attacker id taken
# by a device, a device placed on another device or on the attacker.
ROSTER_MUTATIONS = [
    ("environment.attacker_id", "B"),
    ("environment.attacker_id", "D0"),
    ("environment.devices.B", [1.6, 3.0, 0.9]),
    ("environment.devices.C", [0.4, 0.9, 1.0]),
    ("environment.attacker_position", [3.0, 3.6, 1.2]),
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(base=st.sampled_from(RUN_FUZZ_BASES),
       mutation=st.tuples(st.sampled_from(RUN_FUZZ_FIELDS), JSON_VALUES)
       | st.sampled_from(ROSTER_MUTATIONS))
def test_run_fuzz_exits_2_exactly_when_validate_does(tmp_path_factory, base,
                                                     mutation):
    tmp = tmp_path_factory.mktemp("runfuzz")
    path = write_scenario(tmp, _replaced(base, *mutation))
    checked, _ = _exit_and_errors(["validate", str(path)])
    rc, err = _exit_and_errors(["run", str(path), "--out", str(tmp / "out")])
    assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME)
    assert (rc == EXIT_VALIDATION) == (checked == EXIT_VALIDATION)
    if rc != EXIT_OK:
        assert len(err) == 1
        assert isinstance(json.loads(err[0]), dict)


def _with_separation(separation):
    """A result edit that puts every non-target of row 0 at normalized JSR
    ``-separation``, so the row's separation is ``separation``."""
    def mutate(result):
        row = result["rows"][0]
        for device in row["norm_jsr_db"]:
            if device not in row["targets"]:
                row["norm_jsr_db"][device] = -separation
    return mutate


@pytest.mark.parametrize("sa,sb,regression", [
    (-4.0, -4.0, False), (-4.0, -3.5, False), (-4.0, -5.0, True),
    (10.0, 7.9, True), (10.0, 8.1, False), (0.0, -0.1, True),
])
def test_compare_separation_regression_rule(run_dir, tmp_path, sa, sb,
                                            regression):
    # A drop of more than a fifth of the magnitude, for either sign; a
    # run compared with itself never regresses.
    _, out, _ = run_dir
    a = _edited_run(out, tmp_path / "a", "result", _with_separation(sa))
    b = a if sb == sa else _edited_run(out, tmp_path / "b", "result",
                                       _with_separation(sb))
    report = compare_runs(a, b)
    assert report["separation_db_a"] == [sa]
    assert report["separation_db_b"] == [sb]
    assert report["separation_regression"] is regression


def test_compare_sees_differences_outside_the_rows(tmp_path):
    # element-sweep writes no rows: its results differ only in extras.
    doc = {
        "mode": "element-sweep", "targets": ["A"],
        "mode_params": {"counts": [4, 16]},
        "environment": {
            "n_elements": 16, "scatter_count": 32,
            "attacker_position": [0.4, 0.9, 1.0],
            "devices": {name: MINI_SCENARIO["environment"]["devices"][name]
                        for name in ("D0", "A", "B")},
        },
        "optimizer": {"steps": 30, "table_size": 10},
    }
    outs = [tmp_path / "a", tmp_path / "b"]
    for seed, out in zip((5, 6), outs):
        execute(replace(parse_scenario(write_scenario(tmp_path, doc)),
                        seed=seed), out)
    sweeps = [json.loads((out / "result.json").read_text())["extras"]
              ["element_sweep"]["separation_db"] for out in outs]
    assert sweeps[0] != sweeps[1]
    report = compare_runs(*outs)
    assert report["identical"] is False
    assert report["deltas"] == []
    assert compare_runs(outs[0], outs[0])["identical"] is True


def test_compare_identity_ignores_the_scenario_label(run_dir, tmp_path):
    _, out, _ = run_dir
    renamed = _edited_run(out, tmp_path / "renamed", "result",
                          lambda r: r.update(scenario="renamed"))
    assert compare_runs(out, renamed)["identical"] is True


# -- compare agrees with its checks ----------------------------------------------

# Dotted paths into a run's manifest.json and result.json ("" is the whole
# document; a number indexes a list).  outputs.1 is result.json's entry.
COMPARE_FUZZ_PATHS = [
    ("manifest.json", path) for path in (
        "", "outputs", "outputs.1", "outputs.1.path", "outputs.1.sha256",
        "outputs.0.path", "version")
] + [
    ("result.json", path) for path in (
        "", "mode", "devices", "devices.0", "rows", "rows.0",
        "rows.0.targets", "rows.0.targets.0", "rows.0.jsr_db",
        "rows.0.jsr_db.B", "rows.0.norm_jsr_db", "rows.0.norm_jsr_db.C",
        "rows.0.packet_rate.A", "rows.0.throughput_mbps", "extras")
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(target=st.sampled_from(COMPARE_FUZZ_PATHS), value=JSON_VALUES,
       resign=st.booleans(), truncate=st.booleans(), first=st.booleans())
def test_compare_fuzz_exits_0_or_2(run_dir, tmp_path_factory, target, value,
                                   resign, truncate, first):
    """A mutated copy of a run, compared with the intact run either way
    round; ``resign`` re-records result.json's sha256 in the manifest and
    ``truncate`` cuts the mutated file short."""
    _, out, _ = run_dir
    bad = tmp_path_factory.mktemp("comparefuzz") / "run"
    shutil.copytree(out, bad)
    name, path = target
    doc = _replaced(json.loads((bad / name).read_text()), path, value)
    data = json.dumps(doc).encode()
    (bad / name).write_bytes(data[:len(data) // 2] if truncate else data)
    if name == "result.json" and resign:
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["outputs"][1]["sha256"] = hashlib.sha256(
            (bad / name).read_bytes()).hexdigest()
        (bad / "manifest.json").write_text(json.dumps(manifest))
    runs = [str(out), str(bad)] if first else [str(bad), str(out)]
    rc, err = _exit_and_errors(["compare", *runs])
    assert rc in (EXIT_OK, EXIT_VALIDATION)
    assert len(err) == (rc == EXIT_VALIDATION)
    if err:
        assert isinstance(json.loads(err[0]), dict)
