"""Benchmark workloads: seed-built scenario documents and output checks.

Each workload is one desk scenario (the documented 11-device roster, table
of 100) chosen to stress a different layer; BENCHMARK.json and README.md
give the reasons and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# A target counts as jammed at or below this packet rate (pkt/s); the same
# threshold the scenarios module uses to place the disruption knee.
DISRUPTED_RATE = 5.0
# The heatmap is normalized to the focus cell; allow float rounding only.
FOCUS_CELL_TOLERANCE_DB = 1e-6

DESK_NON_AP = tuple(f"D{i}" for i in range(1, 11))


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    document: Callable[[int], dict]
    check: Callable[[dict], list]


def _base(mode: str, seed: int, steps: int, **fields) -> dict:
    return {
        "name": f"bench-{mode}",
        "mode": mode,
        "seed": seed,
        "optimizer": {"table_size": 100, "steps": steps},
        **fields,
    }


def separation_db(result: dict) -> float:
    """Mean over result rows of the loudest non-target's rejection (dB).

    The same quantity as ``TargetRow.separation_db`` computed from the
    ``result.json`` a run writes.
    """
    values = []
    for row in result["rows"]:
        others = [v for d, v in row["norm_jsr_db"].items()
                  if d not in row["targets"]]
        values.append(-max(others) if others else math.inf)
    return sum(values) / len(values)


def _check_rows(result: dict) -> list:
    problems = []
    if not result["rows"]:
        problems.append("result has no rows")
    for row in result["rows"]:
        for target in row["targets"]:
            rate = row["packet_rate"][target]
            if not rate <= DISRUPTED_RATE:
                problems.append(f"target {target} not disrupted: "
                                f"{rate} pkt/s > {DISRUPTED_RATE}")
    if result["rows"] and not math.isfinite(separation_db(result)):
        problems.append("separation_db is not finite")
    return problems


def _check_jsr_matrix(result: dict) -> list:
    problems = _check_rows(result)
    labels = sorted(tuple(r["targets"]) for r in result["rows"])
    if labels != sorted((d,) for d in DESK_NON_AP):
        problems.append(f"rows {labels} are not one per non-AP device")
    return problems


def _check_throughput(result: dict) -> list:
    problems = _check_rows(result)
    unjammed = result["extras"]["unjammed_throughput_mbps"]
    for row in result["rows"]:
        for target in row["targets"]:
            if not row["throughput_mbps"][target] < unjammed[target]:
                problems.append(
                    f"target {target} throughput "
                    f"{row['throughput_mbps'][target]} Mb/s is not below "
                    f"its unjammed {unjammed[target]} Mb/s")
    return problems


def _check_heatmap(result: dict) -> list:
    problems = _check_rows(result)
    grid = result["extras"]["heatmap"]
    fx, fy, _ = grid["focus"]
    ix = min(range(len(grid["x_m"])), key=lambda i: abs(grid["x_m"][i] - fx))
    iy = min(range(len(grid["y_m"])), key=lambda i: abs(grid["y_m"][i] - fy))
    focus_db = grid["normalized_db"][iy][ix]
    if not abs(focus_db) <= FOCUS_CELL_TOLERANCE_DB:
        problems.append(f"heatmap focus cell reads {focus_db} dB, not 0")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="jsr-matrix",
            threads=2,
            document=lambda seed: _base("jsr-matrix", seed, 1000),
            check=_check_jsr_matrix,
        ),
        Workload(
            name="throughput",
            threads=1,
            document=lambda seed: _base("throughput", seed, 10000,
                                        targets=["D7"]),
            check=_check_throughput,
        ),
        Workload(
            name="heatmap",
            threads=1,
            document=lambda seed: _base(
                "heatmap", seed, 200, targets=["D1"],
                mode_params={"x_extent_m": 0.3, "y_extent_m": 0.2,
                             "step_m": 0.01}),
            check=_check_heatmap,
        ),
    )
}
