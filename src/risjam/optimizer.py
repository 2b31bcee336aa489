"""Table-based greedy genetic search over binary surface configurations.

The search keeps a table of the B best (configuration, cost) pairs seen so
far, ranked by cost.  Each step samples a candidate bit-wise from
rank-weighted per-element one-probabilities, measures it through the
(noisy) RSSI oracle, and replaces the worst table entry when the candidate
is at least as good.  All B entries are re-measured periodically so stale
lucky measurements get washed out.

Each table row stays in the slot it was written to: an accepted candidate
overwrites the evicted worst row's slot, and an index of slots by rank
(``OptimizerState.order``) keeps the ranking, so no step moves or copies
the (B, L) table.

A measurement oracle is any callable mapping RisConfig to a pair of RSSI
arrays (targets, non-targets), both in dBm.  An oracle whose
``accepts_bits`` attribute is true (scenarios.RssiOracle and MaskedOracle)
is given the search's raw 0/1 row instead (a uint8 candidate or a float32
table row), so no RisConfig is built per measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import _write_table
from .ris import RisConfig, enumerate_configs

MeasurementOracle = Callable[[RisConfig], tuple[np.ndarray, np.ndarray]]

DEFAULT_TABLE_SIZE = 100
DEFAULT_STEPS = 10000
DEFAULT_REEVAL_PERIOD = 1000
DEFAULT_EPSILON = 0.02

# Pseudo-count of a neutral 0.5 prior mixed into the per-element bit
# frequencies.  Founding (never-replaced) table entries gate acceptance but
# do not vote on the frequencies; without both measures the search provably
# retains a few dozen bits of memory of the random initialization, which
# breaks the expected random-vs-final Hamming distance of L/2.
PROBABILITY_PRIOR = 5.0

# Founding-table rows drawn at a time hold at most this many int64 draws.
_DRAW_BLOCK = 8192

# Largest candidate table.  It keeps every rank-weighted vote (at most
# B(B+1)/2) below 2**24, where float32 sums of integers are exact.
MAX_TABLE_SIZE = 4096


@dataclass(frozen=True)
class CostWeights:
    """Mean vs extreme weighting of the per-set RSSI aggregates."""

    w_mean: float = 0.3
    w_extreme: float = 0.7

    def __post_init__(self):
        if self.w_mean < 0 or self.w_extreme < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.w_mean + self.w_extreme - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


def _signed_square(d: float) -> float:
    """d * |d|; equal, -0.0 included, to np.sign(d) * d * d."""
    return d * d if d >= 0 else -(d * d)


def aggregate_cost(rssi_targets, rssi_nontargets,
                   weights: CostWeights = CostWeights(),
                   noise_floor_dbm: float = -95.0) -> float:
    """Signed squared difference of the target and non-target aggregates.

    Targets aggregate with mean and min (worst target dominates), non-targets
    with mean and max (loudest non-target dominates).  Higher is better.  An
    empty non-target set (everything hidden) falls back to the noise floor.
    """
    t = np.asarray(rssi_targets, dtype=float).ravel()
    if t.size == 0:
        raise ValueError("target RSSI list must not be empty")
    n = np.asarray(rssi_nontargets, dtype=float).ravel()
    return _aggregate(t, n, weights, noise_floor_dbm)


def _aggregate(t: np.ndarray, n: np.ndarray, weights: CostWeights,
               noise_floor_dbm: float) -> float:
    """aggregate_cost of 1-D float64 readings, ``t`` not empty; no checks.

    np.add.reduce / size is mean() without its per-call overhead; the
    reduction keeps mean()'s pairwise summation order.  The rest is scalar
    arithmetic on Python floats.
    """
    a_t = (weights.w_mean * (float(np.add.reduce(t)) / t.size)
           + weights.w_extreme * min(t.tolist()))
    if n.size == 0:
        a_n = float(noise_floor_dbm)
    else:
        a_n = (weights.w_mean * (float(np.add.reduce(n)) / n.size)
               + weights.w_extreme * max(n.tolist()))
    return _signed_square(a_t - a_n)


def cost_margin_db(cost: float) -> float:
    """Signed square root: the aggregate separation in dB behind a cost."""
    return math.copysign(math.sqrt(abs(cost)), cost)


class OptimizerState:
    """Candidate table plus sampling parameters.

    ``table`` holds the (B, L) rows in the slots they were written to, and
    ``order`` is the slot at each rank (rank 0 the best).  ``costs`` and
    ``founder`` are in rank order.  ``bits``, the table in rank order, is a
    gathered copy for callers and tests; the search itself never gathers.
    The constructor takes the table in rank order, as ``bits``.

    ``probs`` is element_probabilities of the state, recomputed whenever
    the table or its ranking changes: at construction, on every re-ranking
    and after an accepted optimizer_step.
    """

    def __init__(self, bits: np.ndarray, costs: np.ndarray,
                 founder: np.ndarray, step: int, rng: np.random.Generator,
                 weights: CostWeights, noise_floor_dbm: float, epsilon: float,
                 reeval_period: int):
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must be in (0, 0.5)")
        b = bits.shape[0]
        if b > MAX_TABLE_SIZE:
            raise ValueError(f"table_size must be <= {MAX_TABLE_SIZE}")
        self.table = bits           # (B, L) float32 in {0, 1}, by slot
        self.order = np.arange(b)   # (B,) slot at each rank
        self.costs = costs          # (B,) by rank, descending
        # (B,) bool by rank, True for initial random entries
        self.founder = founder
        self.step = step
        self.rng = rng
        self.weights = weights
        self.noise_floor_dbm = noise_floor_dbm
        self.epsilon = epsilon
        self.reeval_period = reeval_period
        # Linear rank weights B..1 over the ranked table.
        self.rank_weights = np.arange(b, 0, -1, dtype=np.float32)
        self.probs = element_probabilities(self)

    def _rank(self, costs: np.ndarray) -> None:
        """Re-rank by ``costs``, measured per current rank; stable on ties."""
        perm = np.argsort(-costs, kind="stable")
        self.order = self.order[perm]
        self.costs = costs[perm]
        self.founder = self.founder[perm]
        self.probs = element_probabilities(self)

    @property
    def bits(self) -> np.ndarray:
        """The table in rank order, row 0 the best; a copy."""
        return self.table[self.order]

    @property
    def n_elements(self) -> int:
        return int(self.table.shape[1])

    def best_config(self) -> RisConfig:
        return RisConfig(self.table[self.order[0]])

    def best_cost(self) -> float:
        return float(self.costs[0])

    def worst_cost(self) -> float:
        return float(self.costs[-1])


def element_probabilities(state: OptimizerState) -> np.ndarray:
    """Rank-weighted one-probability per element, clipped to the exploration floor.

    Each slot's vote is B - rank, or 0 for a founder: only entries
    discovered by the search vote, so while the table is all founders the
    probabilities sit at 0.5.  Every vote and their sum are integers of at
    most B(B+1)/2 < 2**24, so the float32 product and sum are exact, in any
    order of the table's rows.
    """
    w = np.zeros(len(state.order), dtype=np.float32)
    w[state.order] = np.where(state.founder, np.float32(0.0),
                              state.rank_weights)
    p = (w @ state.table).astype(float)
    p += PROBABILITY_PRIOR * 0.5
    p /= int(w.sum()) + PROBABILITY_PRIOR
    # np.clip, for finite values, at half its cost.
    np.maximum(p, state.epsilon, out=p)
    return np.minimum(p, 1.0 - state.epsilon, out=p)


def _measure(oracle: MeasurementOracle, bits_row: np.ndarray,
             weights: CostWeights, noise_floor_dbm: float) -> float:
    if getattr(oracle, "accepts_bits", False):
        # Its readings are 1-D float64, with at least one target.
        t, n = oracle(bits_row)
        return _aggregate(t, n, weights, noise_floor_dbm)
    t, n = oracle(RisConfig(bits_row))
    return aggregate_cost(t, n, weights, noise_floor_dbm)


def optimizer_init(table_size: int, n_elements: int, oracle: MeasurementOracle,
                   seed, *, weights: CostWeights | None = None,
                   epsilon: float = DEFAULT_EPSILON,
                   reeval_period: int = DEFAULT_REEVAL_PERIOD,
                   noise_floor_dbm: float = -95.0) -> OptimizerState:
    """Fill the table with random configurations, measured once each."""
    if not 2 <= table_size <= MAX_TABLE_SIZE:
        raise ValueError(f"table_size must be in [2, {MAX_TABLE_SIZE}]")
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    weights = weights or CostWeights()
    rng = np.random.default_rng(seed)
    # The int64 draws are made a block of rows at a time, into the float32
    # table: the same stream as one (B, L) draw, without its 8 bytes per bit.
    table = np.empty((table_size, n_elements), dtype=np.float32)
    rows = max(1, _DRAW_BLOCK // n_elements)
    for r in range(0, table_size, rows):
        block = table[r:r + rows]
        block[...] = rng.integers(0, 2, block.shape)
    costs = np.array([
        _measure(oracle, table[i], weights, noise_floor_dbm)
        for i in range(table_size)
    ])
    # Ranked as drawn, then by cost: the rows stay where they were drawn.
    state = OptimizerState(
        bits=table, costs=costs,
        founder=np.ones(table_size, dtype=bool), step=0, rng=rng,
        weights=weights, noise_floor_dbm=noise_floor_dbm,
        epsilon=epsilon, reeval_period=reeval_period,
    )
    state._rank(costs)
    return state


def optimizer_step(state: OptimizerState, oracle: MeasurementOracle) -> OptimizerState:
    """One candidate generation / measurement / table update.

    All oracle calls happen before any mutation, so a raised measurement
    error leaves the state untouched.  An accepted candidate is written
    into the evicted worst row's slot, the one row the step writes, and
    the ranks below its own shift down in ``order``, ``costs`` and
    ``founder``.  When the completed-step counter hits a multiple of
    reeval_period, the whole table is re-measured in its new rank order and
    re-ranked as part of this step.  ``probs`` is recomputed after an
    acceptance or a re-ranking, and kept otherwise.
    """
    # The comparison's bytes are the 0/1 bits: a view, not a cast.
    candidate = (state.rng.random(state.n_elements) < state.probs).view(
        np.uint8)
    cand_cost = _measure(oracle, candidate, state.weights, state.noise_floor_dbm)

    table = state.table
    order = state.order
    costs = state.costs
    founder = state.founder
    next_step = state.step + 1
    reeval = state.reeval_period and next_step % state.reeval_period == 0
    accepted = cand_cost >= costs[-1]
    if accepted:
        # Ties evict the incumbent worst and rank the newcomer above its
        # cost class: fresh genetic material wins ties.  The costs are
        # sorted, so the newcomer goes before the first entry it does not
        # beat.
        i = int((-costs[:-1]).searchsorted(-cand_cost, side="left"))
        slot = order[-1]
        if reeval:
            # Oracle calls follow: update copies, not the state.
            order, costs, founder = order.copy(), costs.copy(), founder.copy()
        else:
            table[slot] = candidate
        order[i + 1:] = order[i:-1]
        costs[i + 1:] = costs[i:-1]
        founder[i + 1:] = founder[i:-1]
        order[i], costs[i], founder[i] = slot, cand_cost, False

    if reeval:
        # The newcomer is measured from a float32 row, as a table row is.
        new_row = candidate.astype(table.dtype) if accepted else None
        costs = np.array([
            _measure(oracle,
                     new_row if accepted and r == i else table[order[r]],
                     state.weights, state.noise_floor_dbm)
            for r in range(len(order))
        ])
        if accepted:
            table[slot] = new_row
        state.order, state.founder = order, founder
        state._rank(costs)
    elif accepted:
        state.probs = element_probabilities(state)
    state.step = next_step
    return state


# Set bits of each byte value, for Hamming distances of packed rows.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

# Best configurations run_optimizer gathers as uint8 rows before packing.
_TRACE_CHUNK = 256


def _pack(rows: np.ndarray) -> np.ndarray:
    """(n, L) 0/1 rows, 8 bits per byte; bits[0] is the most significant."""
    return np.packbits(rows, axis=1, bitorder="big")


class Trace:
    """Per-step best-cost / best-configuration records (index 0 = post-init).

    Each step's best configuration is held packed, as ``packed``: a
    (steps + 1, ceil(L / 8)) uint8 array, 8 bits per byte with bits[0] the
    most significant (as in RisConfig.to_hex).  The constructor packs the
    (steps + 1, L) 0/1 rows it is given.
    """

    def __init__(self, best_cost: np.ndarray, worst_cost: np.ndarray,
                 best_bits: np.ndarray):
        bits = np.asarray(best_bits)
        self._set(best_cost, worst_cost, _pack(bits), bits.shape[1])

    @classmethod
    def _from_packed(cls, best_cost, worst_cost, packed,
                     n_elements) -> "Trace":
        trace = cls.__new__(cls)
        trace._set(best_cost, worst_cost, packed, n_elements)
        return trace

    def _set(self, best_cost, worst_cost, packed, n_elements):
        self.best_cost = best_cost        # (steps + 1,)
        self.worst_cost = worst_cost      # (steps + 1,)
        self.packed = packed              # (steps + 1, ceil(L / 8)) uint8
        self.n_elements = n_elements

    @property
    def n_steps(self) -> int:
        return len(self.best_cost) - 1

    @property
    def best_bits(self) -> np.ndarray:
        """The (steps + 1, L) uint8 rows; allocates the full array on each
        access."""
        return np.unpackbits(self.packed, axis=1, count=self.n_elements,
                             bitorder="big")

    def final_config(self) -> RisConfig:
        return RisConfig(np.unpackbits(self.packed[-1], count=self.n_elements,
                                       bitorder="big"))

    def hamming_to_final(self) -> np.ndarray:
        diff = self.packed ^ self.packed[-1]
        return _POPCOUNT[diff].sum(axis=1, dtype=int)

    def cost_drop_steps(self) -> np.ndarray:
        """Steps at which the recorded best cost decreased."""
        drops = np.flatnonzero(np.diff(self.best_cost) < 0) + 1
        return drops

    def write_csv(self, path) -> None:
        # Each row's hex is RisConfig.to_hex of its bits, cut from one hex
        # string of every packed row.
        n_chars = math.ceil(self.n_elements / 4)
        width = 2 * self.packed.shape[1]
        hexes = self.packed.tobytes().hex()
        header = ["step", "best_cost", "best_config_hex", "table_worst_cost"]
        _write_table(path, header, (
            [step, best, hexes[step * width:step * width + n_chars], worst]
            for step, (best, worst) in enumerate(zip(self.best_cost,
                                                     self.worst_cost))))


def run_optimizer(table_size: int, steps: int, n_elements: int,
                  oracle: MeasurementOracle, seed, *,
                  weights: CostWeights | None = None,
                  epsilon: float = DEFAULT_EPSILON,
                  reeval_period: int = DEFAULT_REEVAL_PERIOD,
                  noise_floor_dbm: float = -95.0) -> tuple[RisConfig, Trace]:
    """Initialized search for the given number of steps; returns best + trace.

    Each step's best configuration is copied into a block of _TRACE_CHUNK
    uint8 rows, and each full block is packed into the trace, so the
    search never holds a (steps + 1, L) byte array.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    state = optimizer_init(table_size, n_elements, oracle, seed,
                           weights=weights, epsilon=epsilon,
                           reeval_period=reeval_period,
                           noise_floor_dbm=noise_floor_dbm)
    best_cost = np.empty(steps + 1)
    worst_cost = np.empty(steps + 1)
    packed = np.empty((steps + 1, (n_elements + 7) // 8), dtype=np.uint8)
    rows = np.empty((min(_TRACE_CHUNK, steps + 1), n_elements),
                    dtype=np.uint8)
    for i in range(steps + 1):
        if i:
            optimizer_step(state, oracle)
        best_cost[i] = state.best_cost()
        worst_cost[i] = state.worst_cost()
        j = i % _TRACE_CHUNK
        rows[j] = state.table[state.order[0]]
        if j == _TRACE_CHUNK - 1 or i == steps:
            packed[i - j:i + 1] = _pack(rows[:j + 1])
    trace = Trace._from_packed(best_cost, worst_cost, packed, n_elements)
    return state.best_config(), trace


def convergence_stats(traces: Trace | Sequence[Trace]) -> dict:
    """Summary curves of distance-to-final and cost over one or more runs."""
    if isinstance(traces, Trace):
        traces = [traces]
    traces = list(traces)
    if not traces:
        raise ValueError("at least one trace is required")
    lengths = {t.n_steps for t in traces}
    if len(lengths) != 1:
        raise ValueError("all traces must have the same number of steps")
    distances = np.stack([t.hamming_to_final() for t in traces])
    costs = np.stack([t.best_cost for t in traces])
    stats = {
        "steps": list(range(traces[0].n_steps + 1)),
        "mean_distance": distances.mean(axis=0).tolist(),
        "mean_cost": costs.mean(axis=0).tolist(),
        "initial_mean_distance": float(distances[:, 0].mean()),
        "runs": len(traces),
    }
    if len(traces) > 1:
        stats["p5_distance"] = np.percentile(distances, 5, axis=0).tolist()
        stats["p95_distance"] = np.percentile(distances, 95, axis=0).tolist()
    return stats


def brute_force_best(n_elements: int, oracle: MeasurementOracle, *,
                     weights: CostWeights | None = None,
                     noise_floor_dbm: float = -95.0) -> tuple[RisConfig, float]:
    """Exhaustive argmax over all 2^L configurations (deterministic oracle).

    Ties go to the lexicographically smallest bit string, which is the
    first one enumerated.
    """
    weights = weights or CostWeights()
    best_config = None
    best_cost = -math.inf
    for config in enumerate_configs(n_elements):
        t, n = oracle(config)
        cost = aggregate_cost(t, n, weights, noise_floor_dbm)
        if cost > best_cost:
            best_config, best_cost = config, cost
    return best_config, best_cost
