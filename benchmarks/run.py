"""End-to-end benchmark of risjam on the desk scenarios.

Usage, from the repository root:

    python3 benchmarks/run.py --workload jsr-matrix --seed 28 --seconds 40
    python3 benchmarks/run.py --workload all            # every workload
    python3 benchmarks/run.py --workload heatmap --trace 1   # per-layer run

The program is driven only through ``cli.parse_scenario`` and
``cli.execute`` of the ``risjam`` package found in ``src/`` next to this
directory; nothing else is imported from it except by the traced run.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Artifacts go to a temporary directory inside the checkout,
removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".bench_tmp"

# One BLAS thread per process, set before NumPy loads.  With OpenBLAS's
# default of one thread per CPU, each of the ~10^4 small matvecs of a search
# waits for every CPU, so any other load on a shared host multiplies run time
# (3x on throughput with one of two CPUs busy) and the benchmark would time
# the scheduler.  A value already set in the environment is kept, so BLAS
# threading can still be studied by setting it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS_FOUND = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS, separation_db  # noqa: E402

DEFAULT_SEED = 28
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0

# One fresh interpreter: import the package, parse the scenario, synthesize
# its radio world, then report ready.  Run with argv = [src, scenario].
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from risjam import cli
spec = cli.parse_scenario(sys.argv[2])
spec.build_environment()
print("ready", flush=True)
"""

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "channel.synthesize_s": "s",
    "channel.ris_subchannels_calls": "count",
    "channel.ris_subchannels_s": "s",
    "channel.batch_positions": "count",
    "channel.batch_s": "s",
    "channel.field_s": "s",
    "channel.terms_computed": "count",
    "channel.received_rssi_calls": "count",
    "channel.received_rssi_s": "s",
    "ris.configs_built": "count",
    "ris.coefficients_calls": "count",
    "optimizer.runs": "count",
    "optimizer.steps": "count",
    "optimizer.oracle_calls": "count",
    "optimizer.step_us_p50": "us",
    "optimizer.step_us_p99": "us",
    "optimizer.oracle_s": "s",
    "optimizer.self_s": "s",
    "optimizer.accept_ratio": "ratio",
    "optimizer.separation_db": "dB",
    "link.calls": "count",
    "link.s": "s",
    "scenarios.self_s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
}
# Layer times that are 0 on workloads which never enter the layer; printed
# but kept out of the result object, whose times must all be measured.
PRINT_ONLY = ("channel.batch_s",)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_found": BLAS_THREADS_FOUND,
        "blas_threads_used": {var: os.environ[var]
                              for var in BLAS_THREAD_VARS},
    }


def _fingerprint(out_dir: Path, manifest) -> dict:
    """sha256 of every artifact plus the manifest without its timestamp."""
    doc = manifest.to_dict()
    doc.pop("created_utc")
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}
    return {"files": files, "manifest": doc}


def measure_setup(scenario: Path, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(scenario)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise BenchmarkError(f"set-up child exited {code} without "
                                 f"reporting ready")
        samples.append(elapsed)
    return samples


class Session:
    """Repeated runs of one workload scenario with correctness checks."""

    def __init__(self, workload, scenario: Path, tmp: Path):
        from risjam import cli
        self.cli = cli
        self.workload = workload
        self.scenario = scenario
        self.tmp = tmp
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.separation = None

    def run_once(self, tracer=None) -> dict | None:
        """Parse and execute once; None when the run failed its checks."""
        self.attempted += 1
        out = self.tmp / f"run{self.attempted:04d}"
        try:
            if tracer is None:
                spec = self.cli.parse_scenario(self.scenario)
                cpu0, t0 = time.process_time(), time.perf_counter()
                manifest = self.cli.execute(spec, out,
                                            threads=self.workload.threads)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            else:
                with tracer.span(tracing.PARSE):
                    spec = self.cli.parse_scenario(self.scenario)
                t0 = time.perf_counter()
                with tracer.span(tracing.EXECUTE):
                    manifest = self.cli.execute(
                        spec, out, threads=self.workload.threads)
                wall = time.perf_counter() - t0
                cpu = None
            problems = self._check(out, manifest)
            written = sum(p.stat().st_size for p in out.iterdir())
        except Exception as exc:  # a failed run is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"run {self.attempted}: {p}"
                                 for p in problems)
            return None
        return {"wall": wall, "cpu": cpu, "bytes": written}

    def _check(self, out: Path, manifest) -> list[str]:
        result = json.loads((out / "result.json").read_text())
        problems = self.workload.check(result)
        fingerprint = _fingerprint(out, manifest)
        if self.reference is None:
            self.reference = fingerprint
            self.separation = separation_db(result)
        elif fingerprint != self.reference:
            changed = sorted(
                name for name in set(fingerprint["files"])
                | set(self.reference["files"])
                if fingerprint["files"].get(name)
                != self.reference["files"].get(name))
            problems.append(f"artifacts differ from the first run: "
                            f"{changed or 'manifest'}")
        return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 document: dict | None = None,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns the result object and print lines.

    ``document`` replaces the workload's generated scenario (the smoke test
    passes a tiny environment).
    """
    if not (SRC / "risjam" / "__init__.py").is_file():
        raise BenchmarkError(f"no risjam sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name]
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_PARENT))
    try:
        scenario = tmp / "scenario.json"
        scenario.write_text(json.dumps(document or workload.document(seed),
                                       indent=1))
        if trace:
            return _traced(workload, scenario, tmp, seconds)
        setup = measure_setup(scenario, setup_repeats)
        return _untraced(workload, scenario, tmp, seconds, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass


def _untraced(workload, scenario, tmp, seconds, setup) -> dict:
    session = Session(workload, scenario, tmp)
    session.run_once()                     # warm-up and reference artifacts
    runs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not runs:
        run = session.run_once()
        if run is not None:
            runs.append(run["wall"])
        elif session.attempted >= 3 and not runs:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": (statistics.median(setup), setup),
              "run_s": (statistics.median(runs) if runs else float("nan"),
                        runs),
              "peak_rss_mb": (peak_mb, [peak_mb])}
    lines = [f"{'metric':<16}{'value':>12}  {'unit':<6} samples  quartiles"]
    for metric, (value, samples) in values.items():
        spread = ""
        if len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = f"p25 {q1:.4f}  p75 {q3:.4f}  max {max(samples):.4f}"
        lines.append(f"{metric:<16}{value:>12.4f}  "
                     f"{END_TO_END_UNITS[metric]:<6} {len(samples):>7}  "
                     f"{spread}")
    separation = (session.separation if session.separation is not None
                  else float("nan"))
    lines.append(f"{'separation_db':<16}{separation:>12.4f}  {'dB':<6} "
                 f"{1:>7}  deterministic per seed; not bounded, see README")
    fail_ratio = session.failed / session.attempted
    lines.append(f"{'fail_ratio':<16}{fail_ratio:>12.4f}  {'-':<6} "
                 f"{session.attempted:>7}  ({session.failed} failed, the "
                 f"warm-up run included)")
    metrics = {m: {"value": v[0], "unit": END_TO_END_UNITS[m]}
               for m, v in values.items()}
    return _result(session, metrics, lines, bool(runs))


def _traced(workload, scenario, tmp, seconds) -> dict:
    session = Session(workload, scenario, tmp)
    session.run_once()                     # warm-up and reference artifacts
    tracer = tracing.Tracer()
    plain, traced, per_run, nesting = [], [], [], []
    count_sets = set()
    start = time.perf_counter()
    # Alternate untraced and traced runs so both see the same conditions.
    while (time.perf_counter() - start < seconds
           or not plain or not traced):
        run = session.run_once()
        if run is not None:
            plain.append(run)
        tracer.reset()
        with tracing.instrument(tracer):
            run = session.run_once(tracer)
        if run is not None:
            traced.append(run["wall"])
            layers = tracing.layer_metrics(tracer.spans, tracer.counts())
            layers["cli.bytes_written"] = run["bytes"]
            per_run.append(layers)
            count_sets.add(tuple((k, v) for k, v in layers.items()
                                 if PER_LAYER_UNITS[k] == "count"))
            nesting.extend(tracing.check_nesting(tracer.spans))
        if session.attempted >= 5 and not (plain and traced):
            break
    if len(count_sets) > 1:
        session.problems.append("per-layer counts differ between traced runs")
    if nesting:
        session.problems.extend(nesting[:5])
    ok = bool(plain and traced) and len(count_sets) == 1 and not nesting
    metrics, lines = {}, [f"{'metric':<30}{'value':>14}  unit"]
    if ok:
        # Counts are identical across traced runs (checked above).
        combined = {k: per_run[0][k] if PER_LAYER_UNITS[k] == "count"
                    else statistics.median(r[k] for r in per_run)
                    for k in per_run[0]}
        combined["proc.cpu_s"] = statistics.median(r["cpu"] for r in plain)
        combined["proc.cpu_per_wall"] = statistics.median(
            r["cpu"] / r["wall"] for r in plain)
        combined["trace.overhead_s"] = (statistics.median(traced)
                                        - statistics.median(r["wall"]
                                                            for r in plain))
        combined["optimizer.separation_db"] = session.separation
        for key, unit in PER_LAYER_UNITS.items():
            lines.append(f"{key:<30}{combined[key]:>14.6g}  {unit}")
            if key not in PRINT_ONLY:
                metrics[key] = {"value": combined[key], "unit": unit}
        lines.append(f"({len(traced)} traced and {len(plain)} untraced runs, "
                     f"medians; channel.terms_computed is computed as "
                     f"positions x L x M, not measured)")
    return _result(session, metrics, lines, ok)


def _result(session: Session, metrics: dict, lines: list, ok: bool) -> dict:
    correct = ok and session.failed == 0 and not session.problems
    return {
        "result": {"correct": correct, "attempted": session.attempted,
                   "failed": session.failed, "metrics": metrics},
        "lines": lines,
        "problems": session.problems,
    }


def _run_all(args) -> int:
    """Each workload in its own interpreter; one summary and result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    # Children start from the BLAS settings as found, so each records them.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update({k: v for k, v in BLAS_THREADS_FOUND.items() if v is not None})
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        out_lines = proc.stdout.strip().splitlines()
        print("\n".join(out_lines[:-1]))
        result = json.loads(out_lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return _run_all(args)
    try:
        info = machine_info()
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
