"""The byte-identity variant set: fixed scenario documents, each run through
the command line in a fresh process, and one sha256 per file they write.

    python tools/variants.py [--blas-threads N ...] [--only NAME ...]
                             [--elements L] > VARIANTS.json
    python tools/variants.py --compare A.json B.json

The set covers every mode, the search and field settings whose bits differ
(quantize off at zero and non-zero noise, a masked element sweep, the
line-of-sight term and pattern weights, searches across re-evaluations,
perturbation fractions and a device move), a stored world, the json table
format, two synthesized worlds, desk-size grids and rails, and the corner
world at the frequency and coordinate bounds.  Each variant runs once per
BLAS thread count (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS in the child only); the counts must give the same bytes,
else the differing files go to stderr and the exit code is 1.  The output
maps "variant/file" to the sha256 of the file, the manifest hashed without
its ``created_utc``.  ``--elements L`` sets the surface size of every
document that gives its own world inline, for a quick run.

``--compare`` prints which files differ between two outputs, or are in one
only, and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _search(steps: int, reeval_period: int = 50, **settings) -> dict:
    return {"optimizer": {"steps": steps, "reeval_period": reeval_period,
                          **settings}}


def _run(mode: str, targets=(), **fields) -> tuple:
    """A ``risjam run`` step on a seed-28 desk document (fields override)."""
    doc = {"mode": mode, "targets": list(targets), "seed": 28,
           **_search(200), **fields}
    return ("run", doc)


_CORNER_WORLD = {
    "devices": {"D0": [1e6, 1e6, 1e6], "D1": [-1e6, -1e6, -1e6],
                "D2": [1e6, -1e6, 0.0]},
    "attacker_position": [0.0, 0.0, 0.0], "frequency_hz": 1e12,
    "n_elements": 16, "scatter_count": 16,
}

_SCHEDULE = [
    {"time": 1, "fraction": 0.0, "seed": 3},
    {"time": 2, "fraction": 0.1, "seed": 4},
    {"time": 3, "device": "D5", "position": [7.9, 6.0, 0.9]},
    {"time": 4, "fraction": 1.0},
]

# Variant name -> steps, run in order in the variant's own directory: a
# ("run", scenario document[, extra CLI arguments]) or a ("synth",
# environment spec document or None for the desk, seed), which writes
# world.json there.
VARIANTS = {
    "packet-rate-600": [_run("packet-rate", ["D4"],
                             **_search(600, 250))],
    "packet-rate-1300": [_run("packet-rate", ["D1", "D2"],
                              **_search(1300, 1000))],
    "quantize-off-sigma-0": [_run("packet-rate", ["D7"], **_search(
        200, quantize=False, meas_sigma_db=0.0))],
    "quantize-off-sigma-1": [_run("packet-rate", ["D7"], **_search(
        200, quantize=False, meas_sigma_db=1.0))],
    "throughput": [_run("throughput", ["D1"])],
    "jsr-matrix": [_run("jsr-matrix", **_search(1000, 1000))],
    "jsr-matrix-hidden-json": [_run("jsr-matrix", ["D1", "D4"],
                                    hidden=["D9"]) + (["--format", "json"],)],
    "heatmap-31x21": [_run("heatmap", ["D4"],
                           mode_params={"step_m": 0.025})],
    "heatmap-76x51": [_run("heatmap", ["D4"])],
    "heatmap-rician": [_run("heatmap", ["D4"],
                            environment={"rician_k": 2.0,
                                         "pattern_diversity": 0.5},
                            mode_params={"step_m": 0.025})],
    "displacement-13": [_run("displacement", ["D1"],
                             mode_params={"minimized": "D2"})],
    "displacement-41": [_run("displacement", ["D1"],
                             mode_params={"minimized": "D2", "step_mm": 1.2,
                                          "max_mm": 48.0})],
    "displacement-2001": [_run("displacement", ["D1"],
                               mode_params={"minimized": "D2",
                                            "step_mm": 0.5,
                                            "max_mm": 1000.0})],
    "element-sweep-77": [_run("element-sweep", ["D4"],
                              environment={"n_elements": 77},
                              mode_params={"counts": [9, 40, 77],
                                           "repeats": 2})],
    "exclusion": [_run("exclusion", mode_params={"exclude": "D7"})],
    "directional-baseline": [_run("directional-baseline", ["D4"])],
    "perturbation": [_run("perturbation", ["D4"],
                          mode_params={"schedule": _SCHEDULE,
                                       "duration": 6})],
    "stored-world": [("synth", None, 28),
                     _run("packet-rate", ["D4"],
                          environment_file="world.json")],
    "synth-small-rician": [("synth", {"n_elements": 64, "scatter_count": 32,
                                      "rician_k": 1.0,
                                      "pattern_diversity": 0.3}, 5)],
    "corner-world": [_run("packet-rate", ["D1"], environment=_CORNER_WORLD,
                          **_search(100))],
}


def _with_elements(doc: dict | None, elements: int | None) -> dict | None:
    """``doc`` with its inline world's n_elements set, if ``elements``."""
    if elements is None or (doc is not None and "environment_file" in doc):
        return doc
    if doc is None:                                  # the desk spec
        return {"n_elements": elements}
    if "mode" not in doc:                            # an environment spec
        return {**doc, "n_elements": elements}
    return {**doc, "environment": {**doc.get("environment", {}),
                                   "n_elements": elements}}


def _cli(args: list[str], cwd: Path, blas_threads: int) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(blas_threads)))
    proc = subprocess.run([sys.executable, "-m", "risjam.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"risjam {' '.join(args)} in {cwd} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")


def _file_sha256(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        del manifest["created_utc"]
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_variant(name: str, work: Path, blas_threads: int,
                elements: int | None = None) -> dict[str, str]:
    """Runs one variant in a fresh directory under ``work``; returns the
    sha256 of each file it wrote, keyed "name/file"."""
    root = work / f"{name}.{blas_threads}"
    out = root / "out"
    root.mkdir()
    for step in VARIANTS[name]:
        if step[0] == "synth":
            _, spec, seed = step
            args = ["env", "synth", "--seed", str(seed), "--out",
                    "world.json"]
            spec = _with_elements(spec, elements)
            if spec is not None:
                (root / "spec.json").write_text(json.dumps(spec))
                args += ["--spec", "spec.json"]
            _cli(args, root, blas_threads)
        else:
            doc, extra = step[1], list(step[2]) if len(step) > 2 else []
            (root / "scenario.json").write_text(
                json.dumps(_with_elements(doc, elements)))
            _cli(["run", "scenario.json", "--out", "out", *extra], root,
                 blas_threads)
    written = [root / "world.json"] if (root / "world.json").exists() else []
    if out.exists():
        written += sorted(p for p in out.iterdir() if p.is_file())
    return {f"{name}/{p.relative_to(root)}": _file_sha256(p)
            for p in written}


def run_set(names, blas_threads, elements: int | None = None) -> dict:
    """The output document; a RuntimeError if the thread counts disagree."""
    runs = []
    with tempfile.TemporaryDirectory(prefix="risjam-variants-") as work:
        for threads in blas_threads:
            hashes = {}
            for name in names:
                hashes.update(run_variant(name, Path(work), threads,
                                          elements))
            runs.append(hashes)
    for threads, hashes in zip(blas_threads[1:], runs[1:]):
        differ = compare(runs[0], hashes)
        if not differ["identical"]:
            raise RuntimeError(f"BLAS threads {blas_threads[0]} and "
                               f"{threads} differ: {json.dumps(differ)}")
    return {"blas_threads": list(blas_threads), "sha256": runs[0]}


def compare(a: dict[str, str], b: dict[str, str]) -> dict:
    """Files whose sha256 differ, and files in one map only."""
    report = {
        "differ": sorted(k for k in a.keys() & b.keys() if a[k] != b[k]),
        "only_a": sorted(a.keys() - b.keys()),
        "only_b": sorted(b.keys() - a.keys()),
    }
    report["identical"] = not any(report.values())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--blas-threads", type=int, nargs="+", default=[1, 2],
                        metavar="N")
    parser.add_argument("--only", nargs="+", choices=VARIANTS,
                        default=list(VARIANTS), metavar="NAME")
    parser.add_argument("--elements", type=int, default=None, metavar="L")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text())["sha256"]
                for p in args.compare)
        report = compare(a, b)
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0 if report["identical"] else 1
    try:
        doc = run_set(args.only, args.blas_threads, args.elements)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
