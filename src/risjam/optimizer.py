"""Table-based greedy genetic search over binary surface configurations.

The search keeps a table of the B best (configuration, cost) pairs seen so
far, sorted by cost.  Each step samples a candidate bit-wise from
rank-weighted per-element one-probabilities, measures it through the
(noisy) RSSI oracle, and replaces the worst table entry when the candidate
is at least as good.  All B entries are re-measured periodically so stale
lucky measurements get washed out.

A measurement oracle is any callable mapping RisConfig to a pair of RSSI
arrays (targets, non-targets), both in dBm.  An oracle whose
``accepts_bits`` attribute is true (scenarios.RssiOracle and MaskedOracle)
is given the search's raw 0/1 row instead (a uint8 candidate or a float32
table row), so no RisConfig is built per measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class OptimizerState:
    """Sorted candidate table plus sampling parameters; row 0 is the best.

    ``probs`` caches element_probabilities of the table; optimizer_step
    recomputes it whenever it changes the table.
    """

    bits: np.ndarray            # (B, L) float32 in {0, 1}, sorted by cost desc
    costs: np.ndarray           # (B,)
    founder: np.ndarray         # (B,) bool, True for initial random entries
    step: int
    rng: np.random.Generator
    weights: CostWeights
    noise_floor_dbm: float
    epsilon: float
    reeval_period: int
    rank_weights: np.ndarray = field(init=False)
    probs: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must be in (0, 0.5)")
        b = self.bits.shape[0]
        if b > MAX_TABLE_SIZE:
            raise ValueError(f"table_size must be <= {MAX_TABLE_SIZE}")
        # Linear rank weights B..1 over the sorted table.
        self.rank_weights = np.arange(b, 0, -1, dtype=np.float32)
        self.probs = element_probabilities(self)

    @property
    def n_elements(self) -> int:
        return int(self.bits.shape[1])

    def best_config(self) -> RisConfig:
        return RisConfig(self.bits[0])

    def best_cost(self) -> float:
        return float(self.costs[0])

    def worst_cost(self) -> float:
        return float(self.costs[-1])


def element_probabilities(state: OptimizerState) -> np.ndarray:
    """Rank-weighted one-probability per element, clipped to the exploration floor.

    Only entries discovered by the search vote; while the table is all
    founders the probabilities sit at 0.5.  Every vote is an integer of at
    most B(B+1)/2 < 2**24, so the float32 product is exact.
    """
    w = np.where(state.founder, np.float32(0.0), state.rank_weights)
    total = float(w.sum()) + PROBABILITY_PRIOR
    p = (w @ state.bits).astype(float)
    p += PROBABILITY_PRIOR * 0.5
    p /= total
    return np.clip(p, state.epsilon, 1.0 - state.epsilon, out=p)


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
    bits = rng.integers(0, 2, (table_size, n_elements)).astype(np.float32)
    costs = np.array([
        _measure(oracle, bits[i], weights, noise_floor_dbm)
        for i in range(table_size)
    ])
    order = np.argsort(-costs, kind="stable")
    return OptimizerState(
        bits=bits[order], costs=costs[order],
        founder=np.ones(table_size, dtype=bool), step=0, rng=rng,
        weights=weights, noise_floor_dbm=noise_floor_dbm,
        epsilon=epsilon, reeval_period=reeval_period,
    )


def optimizer_step(state: OptimizerState, oracle: MeasurementOracle) -> OptimizerState:
    """One candidate generation / measurement / table update.

    All oracle calls happen before any mutation, so a raised measurement
    error leaves the state untouched.  When the completed-step counter hits
    a multiple of reeval_period, the whole table is re-measured and
    re-sorted as part of this step.  The cached probabilities are
    recomputed only when the table changes.
    """
    # The comparison's bytes are the 0/1 bits: a view, not a cast.
    candidate = (state.rng.random(state.n_elements) < state.probs).view(
        np.uint8)
    cand_cost = _measure(oracle, candidate, state.weights, state.noise_floor_dbm)

    bits = state.bits
    costs = state.costs
    founder = state.founder
    next_step = state.step + 1
    reeval = state.reeval_period and next_step % state.reeval_period == 0
    accepted = cand_cost >= costs[-1]
    if accepted:
        # Ties evict the incumbent worst and rank the newcomer above its
        # cost class: fresh genetic material wins ties.  The table is sorted,
        # so the newcomer goes before the first entry it does not beat.
        i = int(np.searchsorted(-costs[:-1], -cand_cost, side="left"))
        if reeval:
            # Oracle calls follow: update copies, not the state.
            bits, costs, founder = bits.copy(), costs.copy(), founder.copy()
        bits[i + 1:] = bits[i:-1]
        costs[i + 1:] = costs[i:-1]
        founder[i + 1:] = founder[i:-1]
        bits[i], costs[i], founder[i] = candidate, cand_cost, False

    if reeval:
        costs = np.array([
            _measure(oracle, bits[i], state.weights, state.noise_floor_dbm)
            for i in range(bits.shape[0])
        ])
        order = np.argsort(-costs, kind="stable")
        bits, costs, founder = bits[order], costs[order], founder[order]

    state.bits = bits
    state.costs = costs
    state.founder = founder
    state.step = next_step
    if accepted or reeval:
        state.probs = element_probabilities(state)
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
                 best_bits: np.ndarray, reeval_period: int):
        bits = np.asarray(best_bits)
        self._set(best_cost, worst_cost, _pack(bits), bits.shape[1],
                  reeval_period)

    @classmethod
    def _from_packed(cls, best_cost, worst_cost, packed, n_elements,
                     reeval_period) -> "Trace":
        trace = cls.__new__(cls)
        trace._set(best_cost, worst_cost, packed, n_elements, reeval_period)
        return trace

    def _set(self, best_cost, worst_cost, packed, n_elements, reeval_period):
        self.best_cost = best_cost        # (steps + 1,)
        self.worst_cost = worst_cost      # (steps + 1,)
        self.packed = packed              # (steps + 1, ceil(L / 8)) uint8
        self.n_elements = n_elements
        self.reeval_period = reeval_period

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
        rows[j] = state.bits[0]
        if j == _TRACE_CHUNK - 1 or i == steps:
            packed[i - j:i + 1] = _pack(rows[:j + 1])
    trace = Trace._from_packed(best_cost, worst_cost, packed, n_elements,
                               reeval_period)
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
