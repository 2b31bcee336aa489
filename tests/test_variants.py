"""Smoke test of tools/variants.py, the byte-identity variant set: a
two-variant subset on a 16-element surface, and its --compare mode."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "variants.py"


def _tool(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_variant_subset_and_compare(tmp_path):
    run = _tool("--only", "heatmap-31x21", "stored-world", "--elements", "16",
                "--blas-threads", "1", "2")
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    assert doc["blas_threads"] == [1, 2]
    hashes = doc["sha256"]
    assert {"heatmap-31x21/out/grid.csv", "heatmap-31x21/out/manifest.json",
            "stored-world/world.json",
            "stored-world/out/result.json"} <= hashes.keys()
    assert all(key.split("/")[0] in ("heatmap-31x21", "stored-world")
               for key in hashes)
    assert all(len(value) == 64 and int(value, 16) >= 0
               for value in hashes.values())

    a = tmp_path / "a.json"
    a.write_text(run.stdout)
    same = _tool("--compare", str(a), str(a))
    assert same.returncode == 0
    assert json.loads(same.stdout)["identical"]

    changed = {**hashes, "heatmap-31x21/out/grid.csv": "0" * 64}
    del changed["stored-world/world.json"]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(dict(doc, sha256=changed)))
    diff = _tool("--compare", str(a), str(b))
    assert diff.returncode == 1
    assert json.loads(diff.stdout) == {
        "differ": ["heatmap-31x21/out/grid.csv"],
        "only_a": ["stored-world/world.json"], "only_b": [],
        "identical": False}
