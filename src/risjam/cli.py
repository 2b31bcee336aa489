"""Command-line front end: scenario parsing, runs, deterministic artifacts.

Exit codes are a stable contract: 0 success, 2 validation error, 3 runtime
error.  Failures emit a single machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .channel import _write_table, save_environment, synthesize_environment
from .scenarios import (
    RunResult,
    ScenarioError,
    ScenarioSpec,
    read_json,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    _CSV_METRICS,
    _environment_spec_from_dict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def parse_scenario(path) -> ScenarioSpec:
    """Load, validate, and default-fill a scenario JSON file."""
    path = Path(path)
    doc = read_json(path, "scenario")
    if isinstance(doc, dict) and "name" not in doc:
        doc["name"] = path.stem
    return scenario_from_dict(doc, base_dir=path.parent)


def scenario_hash(spec: ScenarioSpec) -> str:
    doc = scenario_to_dict(spec)
    doc.pop("name", None)   # the label is not part of the content identity
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    version: str
    scenario_hash: str
    master_seed: int
    created_utc: str
    outputs: list[dict]

    def to_dict(self) -> dict:
        return asdict(self)


def _file_entry(path: Path, root: Path) -> dict:
    data = path.read_bytes()
    return {
        "path": str(path.relative_to(root)),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def execute(spec: ScenarioSpec, out_dir, threads: int = 1,
            fmt: str = "csv") -> RunManifest:
    """Run a scenario and write its artifact set plus a manifest.

    ``threads`` is accepted and has no effect.
    """
    if fmt not in ("csv", "json"):
        raise ScenarioError(f"unknown format {fmt!r}; valid: csv, json")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_scenario(spec)

    written: list[Path] = []

    echo = out / "scenario.normalized.json"
    echo.write_text(json.dumps(scenario_to_dict(spec), sort_keys=True,
                               indent=1) + "\n")
    written.append(echo)

    result_json = out / "result.json"
    result_json.write_text(json.dumps(result.to_json_dict(), sort_keys=True,
                                      indent=1) + "\n")
    written.append(result_json)

    for name, header, rows in _tables(result, fmt):
        _write_table(out / name, header, rows)
        written.append(out / name)

    for i, trace in enumerate(result.traces):
        trace_path = out / f"trace_{i:02d}.csv"
        trace.write_csv(trace_path)
        written.append(trace_path)

    manifest = RunManifest(
        version=__version__,
        scenario_hash=scenario_hash(spec),
        master_seed=spec.seed,
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=[_file_entry(p, out) for p in written],
    )
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest.to_dict(), sort_keys=True,
                                        indent=1) + "\n")
    return manifest


def _tables(result: RunResult, fmt: str):
    """(file name, header, rows) of each CSV table: the long-form metrics
    of every row (csv format only), then the mode-specific tables."""
    extras, devices = result.extras, result.devices
    if fmt == "csv" and result.rows:
        yield "results.csv", ["scenario", "target_set", "device", "metric",
                              "value"], (
            [result.scenario, row.label(), d, metric, values[d]]
            for row in result.rows for metric in _CSV_METRICS
            if (values := getattr(row, metric)) is not None for d in devices)
    if "sweep" in extras:
        sweep = extras["sweep"]
        yield "sweep.csv", ["power_dbm", "device", "packet_rate"], (
            [power, d, sweep["rates"][d][i]]
            for i, power in enumerate(sweep["powers_dbm"]) for d in devices)
    if "heatmap" in extras:
        grid = extras["heatmap"]
        yield "grid.csv", ["y_m\\x_m", *grid["x_m"]], (
            [y, *row] for y, row in zip(grid["y_m"], grid["normalized_db"]))
    if "displacement" in extras:
        disp = extras["displacement"]
        header = ["displacement_mm", "maximized_db", "minimized_db"]
        yield "curves.csv", header, zip(disp["displacements_mm"],
                                        disp["maximized_db"],
                                        disp["minimized_db"])
    if "element_sweep" in extras:
        sweep = extras["element_sweep"]
        header = ["active_elements", "repeat", "separation_db"]
        yield "separation.csv", header, (
            [count, rep, sep] for count in sweep["counts"]
            for rep, sep in enumerate(sweep["separation_db"][str(count)]))
    if "timeseries" in extras:
        series = extras["timeseries"]
        yield "timeseries.csv", ["time", "device", "packet_rate"], (
            [t, d, series["rates"][d][t]] for t in series["times"]
            for d in devices)


def compare_runs(manifest_a, manifest_b) -> dict:
    """Per-metric deltas between two runs of compatible shape."""
    a = _load_run(manifest_a)
    b = _load_run(manifest_b)
    if a["mode"] != b["mode"]:
        raise ScenarioError(f"mode mismatch: {a['mode']} vs {b['mode']}")
    if a["devices"] != b["devices"]:
        raise ScenarioError("device rosters differ; runs are not comparable")
    targets_a = [tuple(r["targets"]) for r in a["rows"]]
    targets_b = [tuple(r["targets"]) for r in b["rows"]]
    if targets_a != targets_b:
        raise ScenarioError("target sets differ; runs are not comparable")

    deltas = []
    separations_a, separations_b = [], []
    for row_a, row_b in zip(a["rows"], b["rows"]):
        label = "+".join(row_a["targets"])
        for metric in _CSV_METRICS:
            if metric not in row_a or metric not in row_b:
                continue
            for device in a["devices"]:
                va = row_a[metric][device]
                vb = row_b[metric][device]
                if va != vb:
                    deltas.append({
                        "target_set": label, "device": device,
                        "metric": metric, "a": va, "b": vb,
                        "delta": vb - va,
                    })
        separations_a.append(_row_separation(row_a))
        separations_b.append(_row_separation(row_b))

    regression = any(
        sb < 0.8 * sa for sa, sb in zip(separations_a, separations_b)
        if sa is not None and sb is not None
    )
    return {
        "identical": not deltas,
        "deltas": deltas,
        "separation_db_a": separations_a,
        "separation_db_b": separations_b,
        "separation_regression": regression,
    }


def _row_separation(row: dict) -> float | None:
    norm = row.get("norm_jsr_db")
    if norm is None:
        return None
    others = [v for d, v in norm.items() if d not in row["targets"]]
    return -max(others) if others else None


def _load_run(manifest_path) -> dict:
    """A run's result.json, checked against the sha256 its manifest lists
    and for every field compare_runs reads."""
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot load manifest {path}: {exc}") from exc
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not (isinstance(outputs, list) and all(
            isinstance(e, dict) and isinstance(e.get("path"), str)
            for e in outputs)):
        raise ScenarioError(f"manifest {path} needs a list of objects, each "
                            f"with a string path", "outputs")
    entry = next((e for e in outputs if e["path"] == "result.json"), None)
    if entry is None:
        raise ScenarioError(f"manifest {path} lists no result.json")
    result_path = path.parent / "result.json"
    try:
        data = result_path.read_bytes()
        result = json.loads(data)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot load {result_path}: {exc}") from exc
    if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
        raise ScenarioError(f"{result_path} differs from its manifest sha256")
    devices = result.get("devices") if isinstance(result, dict) else None
    if not (_strings(devices) and isinstance(result.get("mode"), str)
            and isinstance(result.get("rows"), list)):
        raise ScenarioError(f"{result_path} needs a string mode, a list of "
                            f"device ids and a list of rows")
    for i, row in enumerate(result["rows"]):
        if not (isinstance(row, dict) and _strings(row.get("targets"))):
            raise ScenarioError(f"{result_path} row {i} needs a list of "
                                f"target ids", f"rows[{i}].targets")
        for metric in _CSV_METRICS:
            values = row.get(metric)
            if metric in row and not (
                    isinstance(values, dict) and set(devices) <= set(values)
                    and all(isinstance(v, (int, float)) and not
                            isinstance(v, bool) for v in values.values())):
                raise ScenarioError(f"{result_path} row {i} needs a number "
                                    f"per device", f"rows[{i}].{metric}")
    return result


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 2 like any bad input
        raise ScenarioError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="risjam",
        description="Selective-jamming simulator for binary reconfigurable "
                    "surfaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario master seed")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and ignored: rows "
                          "run in order, the heatmap and displacement grid "
                          "field uses the process's CPUs, and results do "
                          "not depend on either")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    validate = sub.add_parser("validate",
                              help="parse a scenario and echo its normalized "
                                   "form")
    validate.add_argument("scenario")

    compare = sub.add_parser("compare", help="diff two run manifests")
    compare.add_argument("manifest_a")
    compare.add_argument("manifest_b")

    env = sub.add_parser("env", help="environment utilities")
    env_sub = env.add_subparsers(dest="env_command", required=True)
    synth = env_sub.add_parser("synth", help="synthesize and save an "
                                             "environment")
    synth.add_argument("--spec", default=None,
                       help="environment spec JSON (defaults to the desk "
                            "roster)")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--out", required=True)
    # A missing-command error names the metavar: the commands, as the help
    # shows them, not the destination.
    for commands in (sub, env_sub):
        commands.metavar = "{" + ",".join(commands.choices) + "}"
    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ScenarioError) and exc.fieldpath:
        payload["field"] = exc.fieldpath
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            spec = parse_scenario(args.scenario)
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            manifest = execute(spec, args.out, threads=args.threads,
                               fmt=args.format)
            print(json.dumps(manifest.to_dict(), sort_keys=True, indent=1))
            return EXIT_OK
        if args.command == "validate":
            spec = parse_scenario(args.scenario)
            print(json.dumps(scenario_to_dict(spec), sort_keys=True,
                             indent=1))
            return EXIT_OK
        if args.command == "compare":
            report = compare_runs(args.manifest_a, args.manifest_b)
            print(json.dumps(report, sort_keys=True, indent=1))
            return EXIT_OK
        if args.command == "env" and args.env_command == "synth":
            doc = {} if args.spec is None \
                else read_json(args.spec, "environment spec")
            env = synthesize_environment(_environment_spec_from_dict(doc),
                                         args.seed)
            save_environment(env, args.out)
            print(json.dumps({"written": args.out,
                              "devices": len(env.devices),
                              "elements": env.n_elements}, sort_keys=True))
            return EXIT_OK
        raise ScenarioError(f"unknown command {args.command!r}")
    except ScenarioError as exc:
        return _fail(exc, EXIT_VALIDATION)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        return _fail(exc, EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
