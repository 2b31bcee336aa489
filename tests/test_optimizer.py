import copy
import csv
import itertools
import math
from types import SimpleNamespace
import tracemalloc

import numpy as np
import pytest

from risjam.channel import synthesize_environment
from risjam.optimizer import (
    MAX_TABLE_SIZE,
    PROBABILITY_PRIOR,
    CostWeights,
    OptimizerState,
    Trace,
    aggregate_cost,
    brute_force_best,
    convergence_stats,
    cost_margin_db,
    element_probabilities,
    optimizer_init,
    optimizer_step,
    _TRACE_CHUNK,
    _signed_square,
    run_optimizer,
)
from risjam.ris import RisConfig, enumerate_configs
from risjam.scenarios import MaskedOracle, RssiOracle

from conftest import make_small_spec


def make_oracle(seed=0, n_elements=10, sigma=0.0, quantize=False,
                target="A", scatter=64):
    spec = make_small_spec(n_elements=n_elements, scatter_count=scatter)
    env = synthesize_environment(spec, seed)
    others = tuple(d for d in ("D0", "A", "B", "C") if d != target)
    return RssiOracle(env, (target,), others, 15.0,
                      np.random.default_rng([seed, 1]),
                      sigma_db=sigma, quantize=quantize)


# -- aggregate_cost ----------------------------------------------------------


def test_aggregate_cost_hand_values():
    # a_T = -50, a_N = -75 -> +625
    assert aggregate_cost([-50], [-75, -75, -75]) == pytest.approx(625.0)
    # equal aggregates -> 0
    assert aggregate_cost([-60], [-60]) == 0.0
    # a_T = 0.3*(-70) + 0.7*(-80) = -77; a_N = -50 -> -729
    assert aggregate_cost([-80, -60], [-50]) == pytest.approx(-729.0)


def _numpy_scalar_cost(t, n, weights=CostWeights(), noise_floor_dbm=-95.0):
    """aggregate_cost in NumPy-scalar arithmetic, the form it replaced."""
    t, n = np.asarray(t, dtype=float), np.asarray(n, dtype=float)
    a_t = weights.w_mean * (t.sum() / t.size) + weights.w_extreme * t.min()
    if n.size == 0:
        a_n = float(noise_floor_dbm)
    else:
        a_n = (weights.w_mean * (n.sum() / n.size)
               + weights.w_extreme * n.max())
    diff = a_t - a_n
    return np.sign(diff) * diff * diff


@pytest.mark.parametrize("t,n,weights", [
    ([-50.0], [-75.0, -71.0], CostWeights()),           # +d
    ([-80.0, -60.0], [-50.0], CostWeights()),           # -d
    ([-60.0], [-60.0], CostWeights()),                  # 0.0
    # Both weighted terms underflow to -0.0: a -0.0 difference.
    ([-5e-324], [0.0], CostWeights(0.5, 0.5)),
    # Eleven non-targets whose cost differs in the last bit between
    # NumPy's pairwise sum and a sequential one.
    ([-61.3, -58.7], [-70.4, -45.5, -78.6, -58.8, -85.8, -48.4, -50.6,
                      -78.0, -46.2, -87.1, -73.2], CostWeights()),
    ([-93.0], [], CostWeights()),                       # noise floor
])
def test_aggregate_cost_matches_numpy_scalar_form(t, n, weights):
    got = aggregate_cost(t, n, weights)
    assert type(got) is float
    want = _numpy_scalar_cost(t, n, weights)
    assert np.float64(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2.5, -2.5, 0.0, -0.0, 1e-200, -1e150,
                               math.inf, -math.inf])
def test_signed_square_matches_sign_times_square(d):
    want = np.sign(np.float64(d)) * d * d
    assert np.float64(_signed_square(d)).tobytes() == want.tobytes()


def test_aggregate_cost_empty_targets():
    with pytest.raises(ValueError, match="target"):
        aggregate_cost([], [-60])


def test_aggregate_cost_hidden_only_uses_noise_floor():
    got = aggregate_cost([-50], [], noise_floor_dbm=-95.0)
    assert got == pytest.approx(45.0 ** 2)


def test_cost_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(0.5, 0.6)
    with pytest.raises(ValueError):
        CostWeights(-0.1, 1.1)


def test_cost_margin_db():
    assert cost_margin_db(625.0) == pytest.approx(25.0)
    assert cost_margin_db(-729.0) == pytest.approx(-27.0)
    assert cost_margin_db(0.0) == 0.0


# -- fused measurement path ----------------------------------------------------


@pytest.mark.parametrize("sigma,quantize,non_targets,masked", [
    (0.5, True, ("D0", "B", "C"), False),
    (0.0, False, ("D0", "B", "C"), False),
    (0.7, False, ("D0", "B", "C"), False),
    (0.5, True, (), False),
    (0.5, True, ("D0", "B", "C"), True),
])
def test_raw_bit_oracle_matches_plain_callable(sigma, quantize, non_targets,
                                               masked):
    # The RssiOracle gets the search's raw uint8 and float32 rows; the
    # lambda hides accepts_bits, so its identically seeded twin gets a
    # RisConfig per measurement.
    env = synthesize_environment(make_small_spec(n_elements=24), 5)
    active = np.arange(3, 20, 2)
    frozen = np.random.default_rng(2).integers(0, 2, 24)

    def oracle():
        inner = RssiOracle(env, ("A",), non_targets, 15.0,
                           np.random.default_rng([5, 1]), sigma_db=sigma,
                           quantize=quantize)
        return MaskedOracle(inner, active, frozen) if masked else inner

    fused, twin = oracle(), oracle()
    width = len(active) if masked else env.n_elements
    _, a = run_optimizer(12, 300, width, fused, 7, reeval_period=50)
    _, b = run_optimizer(12, 300, width, lambda c: twin(c), 7,
                         reeval_period=50)
    assert a.best_cost.tobytes() == b.best_cost.tobytes()
    assert a.worst_cost.tobytes() == b.worst_cost.tobytes()
    assert a.best_bits.tobytes() == b.best_bits.tobytes()


# -- initialization ----------------------------------------------------------


def test_init_table_sorted_and_sized():
    oracle = make_oracle()
    state = optimizer_init(100, 10, oracle, 3)
    assert state.bits.shape == (100, 10)
    assert state.bits.dtype == np.float32
    assert np.all(np.diff(state.costs) <= 0)
    assert state.founder.all()


def test_init_degenerate():
    oracle = make_oracle(n_elements=1)
    state = optimizer_init(2, 1, oracle, 3)
    assert state.bits.shape == (2, 1)


def test_init_deterministic():
    a = optimizer_init(20, 10, make_oracle(), 3)
    b = optimizer_init(20, 10, make_oracle(), 3)
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.costs, b.costs)


@pytest.mark.parametrize("table_size,n_elements", [
    (7, 1), (100, 3), (2, 16), (100, 77), (101, 768), (8, 768), (5, 3001),
    (3, 8193),
])
def test_init_table_is_the_one_shot_draw(table_size, n_elements):
    # The founding table is drawn a block of rows at a time (one row per
    # block at 8193 elements, an odd count of draws); the draws, and the
    # stream after them, are those of one (B, L) draw.
    oracle = lambda cfg: (np.array([-50.0]), np.array([-70.0]))
    state = optimizer_init(table_size, n_elements, oracle, 11)
    rng = np.random.default_rng(11)
    want = rng.integers(0, 2, (table_size, n_elements)).astype(np.float32)
    assert state.table.tobytes() == want.tobytes()
    assert state.rng.random(5).tobytes() == rng.random(5).tobytes()


def test_init_validation():
    oracle = make_oracle()
    with pytest.raises(ValueError):
        optimizer_init(1, 10, oracle, 3)
    with pytest.raises(ValueError):
        optimizer_init(2, 0, oracle, 3)
    with pytest.raises(ValueError, match="table_size"):
        optimizer_init(MAX_TABLE_SIZE + 1, 10, oracle, 3)


# -- stepping ----------------------------------------------------------------


def test_constant_oracle_keeps_worst_cost():
    oracle = lambda cfg: (np.array([-50.0]), np.array([-70.0]))
    state = optimizer_init(10, 6, oracle, 1)
    before = state.worst_cost()
    for _ in range(20):
        optimizer_step(state, oracle)
    assert state.worst_cost() == before
    assert state.step == 20


def test_worst_cost_monotone_without_reeval():
    oracle = make_oracle()
    state = optimizer_init(10, 10, oracle, 2, reeval_period=0)
    prev = state.worst_cost()
    for _ in range(200):
        optimizer_step(state, oracle)
        assert state.costs[-1] >= prev
        prev = state.worst_cost()


def _assert_steps_as_untouched(failed, untouched):
    """Twenty working steps from a failed step's state and from a copy
    taken before it, drawing the same candidates, end byte-equal: the
    failed step left no state behind, seen or unseen.  The steps do not
    re-evaluate, which would recompute the slot weights from scratch."""
    untouched.rng.bit_generator.state = failed.rng.bit_generator.state
    failed.reeval_period = untouched.reeval_period = 0

    def working(cfg):
        # Fixed per configuration and in the range of the failed tests'
        # table costs: candidates enter at varying ranks, with ties.
        code = int(cfg.bits @ (1 << np.arange(6)))
        return np.array([-40.0 + code % 13]), np.array([-70.0])

    for state in (failed, untouched):
        for _ in range(20):
            optimizer_step(state, working)
    assert not failed.founder.all()
    assert failed.bits.tobytes() == untouched.bits.tobytes()
    assert failed.probs.tobytes() == untouched.probs.tobytes()
    assert failed.costs.tobytes() == untouched.costs.tobytes()


def test_state_unchanged_on_oracle_error():
    calls = {"n": 0}

    def flaky(cfg):
        calls["n"] += 1
        if calls["n"] > 12:
            raise RuntimeError("radio down")
        return (np.array([-50.0 - calls["n"]]), np.array([-70.0]))

    state = optimizer_init(10, 6, flaky, 1)
    bits = state.bits.copy()
    costs = state.costs.copy()
    step = state.step
    for _ in range(2):
        optimizer_step(state, flaky)
    bits, costs, step = state.bits.copy(), state.costs.copy(), state.step
    probs = state.probs.copy()
    with pytest.raises(RuntimeError):
        optimizer_step(state, flaky)
    np.testing.assert_array_equal(state.bits, bits)
    np.testing.assert_array_equal(state.costs, costs)
    assert state.probs.tobytes() == probs.tobytes()
    assert state.step == step


def test_no_hidden_state_left_when_the_candidate_measurement_fails():
    # Accepted steps first, so the table holds discovered entries whose
    # slot weights a failed step could have changed.
    calls = {"n": 0}

    def flaky(cfg):
        calls["n"] += 1
        if calls["n"] > 15:
            raise RuntimeError("radio down")
        return (np.array([-50.0 + calls["n"]]), np.array([-70.0]))

    state = optimizer_init(10, 6, flaky, 1)
    for _ in range(5):
        optimizer_step(state, flaky)
    untouched = copy.deepcopy(state)
    with pytest.raises(RuntimeError):
        optimizer_step(state, flaky)
    assert calls["n"] == 16
    _assert_steps_as_untouched(state, untouched)


def test_state_unchanged_when_reeval_fails_after_acceptance():
    calls = {"n": 0}

    def failing_reeval(cfg):
        # Rising costs: the step's candidate (call 11) beats the table; the
        # re-evaluation it triggers fails on its second row (call 13).
        calls["n"] += 1
        if calls["n"] > 12:
            raise RuntimeError("radio down")
        return (np.array([-50.0 + calls["n"]]), np.array([-70.0]))

    state = optimizer_init(10, 6, failing_reeval, 1, reeval_period=1)
    bits, costs = state.bits.copy(), state.costs.copy()
    founder, probs = state.founder.copy(), state.probs.copy()
    untouched = copy.deepcopy(state)
    with pytest.raises(RuntimeError):
        optimizer_step(state, failing_reeval)
    assert calls["n"] == 13
    np.testing.assert_array_equal(state.bits, bits)
    np.testing.assert_array_equal(state.costs, costs)
    np.testing.assert_array_equal(state.founder, founder)
    assert state.probs.tobytes() == probs.tobytes()
    assert state.step == 0
    _assert_steps_as_untouched(state, untouched)


def test_probabilities_respect_exploration_floor():
    oracle = make_oracle()
    state = optimizer_init(10, 10, oracle, 2, epsilon=0.1)
    for _ in range(50):
        optimizer_step(state, oracle)
        p = element_probabilities(state)
        assert np.all(p >= 0.1) and np.all(p <= 0.9)


def test_cached_probabilities_match_the_table():
    # Accepted, rejected and re-evaluation steps while founders remain:
    # after each, the cached probabilities are the from-scratch ones.
    oracle = make_oracle(sigma=2.0, quantize=True)
    state = optimizer_init(30, 10, oracle, 5, reeval_period=7)
    assert state.probs.tobytes() == element_probabilities(state).tobytes()
    seen = set()
    for _ in range(60):
        before = state.bits.copy()
        optimizer_step(state, oracle)
        if state.founder.any():
            if state.step % state.reeval_period == 0:
                seen.add("reeval")
            else:
                seen.add("accepted" if not np.array_equal(before, state.bits)
                         else "rejected")
        assert state.probs.tobytes() == element_probabilities(state).tobytes()
    assert seen == {"accepted", "rejected", "reeval"}


class _TiedOracle:
    """A fixed linear score of the bits plus Gaussian noise, rounded to
    whole dB: costs are integers, so ties are common."""

    def __init__(self, n_elements, seed):
        self.w = np.random.default_rng(seed).normal(size=(2, n_elements))
        self.noise = np.random.default_rng([seed, 1])

    def __call__(self, cfg):
        s = self.w @ (2.0 * cfg.bits - 1.0) + self.noise.normal(0, 3.0, 2)
        return np.round(s[:1] - 60.0), np.round(s[1:] - 60.0)


def _sorted_table_search(table_size, n_elements, oracle, seed, epsilon,
                         reeval_period):
    """The search over a table kept sorted by moving rows: a row shift per
    accepted candidate, a re-sort of re-measured rows, np.where votes.
    Yields the table after initialization and after each step."""
    rng = np.random.default_rng(seed)
    measure = lambda row: aggregate_cost(*oracle(RisConfig(row)))

    def remeasured(bits, founder):
        costs = np.array([measure(row) for row in bits])
        order = np.argsort(-costs, kind="stable")
        return bits[order], costs[order], founder[order]

    bits, costs, founder = remeasured(
        rng.integers(0, 2, (table_size, n_elements)).astype(np.float32),
        np.ones(table_size, dtype=bool))
    rank_weights = np.arange(table_size, 0, -1, dtype=np.float32)
    for step in itertools.count(1):
        w = np.where(founder, np.float32(0.0), rank_weights)
        p = (w @ bits).astype(float) + PROBABILITY_PRIOR * 0.5
        probs = np.clip(p / (float(w.sum()) + PROBABILITY_PRIOR),
                        epsilon, 1.0 - epsilon)
        yield SimpleNamespace(bits=bits, costs=costs, founder=founder,
                              probs=probs)
        candidate = (rng.random(n_elements) < probs).view(np.uint8)
        cand_cost = measure(candidate)
        if cand_cost >= costs[-1]:
            i = int(np.searchsorted(-costs[:-1], -cand_cost, side="left"))
            bits[i + 1:] = bits[i:-1]
            costs[i + 1:] = costs[i:-1]
            founder[i + 1:] = founder[i:-1]
            bits[i], costs[i], founder[i] = candidate, cand_cost, False
        if reeval_period and step % reeval_period == 0:
            bits, costs, founder = remeasured(bits, founder)


@pytest.mark.parametrize("table_size,n_elements,reeval_period,steps", [
    *((b, n, r, 60) for b in (2, 5, 100) for n in (7, 768)
      for r in (0, 1, 7)),
    (100, 768, 1000, 1200),
])
def test_steps_match_the_sorted_table_search(table_size, n_elements,
                                             reeval_period, steps):
    # After initialization and every step: the ranked table, costs,
    # founders and probabilities, byte for byte; then the traces.
    kwargs = dict(epsilon=0.02, reeval_period=reeval_period)
    reference = _sorted_table_search(table_size, n_elements,
                                     _TiedOracle(n_elements, 3), 9, **kwargs)
    oracle = _TiedOracle(n_elements, 3)
    state = optimizer_init(table_size, n_elements, oracle, 9, **kwargs)
    best_cost, worst_cost, rows = [], [], []
    for step in range(steps + 1):
        if step:
            optimizer_step(state, oracle)
        want = next(reference)
        assert state.bits.tobytes() == want.bits.tobytes()
        assert state.costs.tobytes() == want.costs.tobytes()
        assert state.founder.tobytes() == want.founder.tobytes()
        assert state.probs.tobytes() == want.probs.tobytes()
        best_cost.append(want.costs[0])
        worst_cost.append(want.costs[-1])
        rows.append(want.bits[0].astype(np.uint8))
    want = Trace(np.array(best_cost), np.array(worst_cost), np.array(rows))
    _, trace = run_optimizer(table_size, steps, n_elements,
                             _TiedOracle(n_elements, 3), 9, **kwargs)
    assert trace.best_cost.tobytes() == want.best_cost.tobytes()
    assert trace.worst_cost.tobytes() == want.worst_cost.tobytes()
    assert trace.packed.tobytes() == want.packed.tobytes()


def test_float32_votes_are_exact_at_the_largest_table():
    # Every row a discovered all-ones entry: each vote is the largest
    # possible sum, B(B+1)/2.
    b = MAX_TABLE_SIZE
    state = OptimizerState(
        bits=np.ones((b, 3), dtype=np.float32), costs=np.zeros(b),
        founder=np.zeros(b, dtype=bool), step=0,
        rng=np.random.default_rng(0), weights=CostWeights(),
        noise_floor_dbm=-95.0, epsilon=0.02, reeval_period=0)
    votes = state.rank_weights @ state.bits
    assert votes.dtype == np.float32
    want = state.rank_weights.astype(float) @ state.bits.astype(float)
    assert votes.astype(float).tobytes() == want.tobytes()
    assert want[0] == b * (b + 1) / 2
    total = want[0] + PROBABILITY_PRIOR
    np.testing.assert_array_equal(
        element_probabilities(state),
        np.clip((want + PROBABILITY_PRIOR * 0.5) / total, 0.02, 0.98))


def test_probabilities_neutral_while_all_founders():
    oracle = lambda cfg: (np.array([-80.0]), np.array([-60.0]))
    state = optimizer_init(10, 6, oracle, 1)
    np.testing.assert_allclose(element_probabilities(state), 0.5)


def test_cost_drops_only_at_reeval_multiples():
    oracle = make_oracle(sigma=0.5, quantize=True)
    _, trace = run_optimizer(20, 600, 10, oracle, 4, reeval_period=100)
    drops = trace.cost_drop_steps()
    assert len(drops) > 0
    assert np.all(drops % 100 == 0)


def test_run_optimizer_zero_steps():
    oracle = make_oracle()
    state = optimizer_init(20, 10, oracle, 9)
    best, trace = run_optimizer(20, 0, 10, oracle, 9)
    assert best == state.best_config()
    assert trace.n_steps == 0


def test_reaches_brute_force_on_small_space():
    # deterministic oracle, L=8: the search should track the exhaustive
    # optimum closely across seeds
    hits = 0
    for seed in range(20):
        oracle = make_oracle(seed=seed, n_elements=8)
        best_cfg, best_cost = brute_force_best(8, oracle)
        cfg, _ = run_optimizer(60, 2000, 8, oracle, [seed, 5], epsilon=0.3)
        t, n = oracle(cfg)
        gap = cost_margin_db(best_cost) - cost_margin_db(aggregate_cost(t, n))
        hits += gap <= 1.0
    assert hits >= 18


# -- brute force -------------------------------------------------------------


def test_brute_force_single_element():
    # oracle rewards bit 1 (coefficient -1)
    def oracle(cfg):
        good = cfg.bits[0] == 1
        return (np.array([-40.0 if good else -70.0]), np.array([-60.0]))

    cfg, cost = brute_force_best(1, oracle)
    assert tuple(cfg.bits) == (1,)


def test_brute_force_alignment():
    # two sub-channels that cancel unless signs differ
    h = np.array([1 + 0j, -1 + 0j])

    def oracle(cfg):
        gain = abs(np.dot(cfg.coefficients(), h))
        return (np.array([-60 + 20 * np.log10(max(gain, 1e-12))]),
                np.array([-80.0]))

    cfg, _ = brute_force_best(2, oracle)
    assert tuple(cfg.bits) in ((0, 1), (1, 0))
    # lexicographically smallest tie wins
    assert tuple(cfg.bits) == (0, 1)


def test_brute_force_matches_independent_rescan():
    oracle = make_oracle(seed=6, n_elements=10)
    cfg, cost = brute_force_best(10, oracle)
    best = max(
        ((c, aggregate_cost(*oracle(c))) for c in enumerate_configs(10)),
        key=lambda pair: pair[1],
    )
    assert cost == pytest.approx(best[1])
    t, n = oracle(cfg)
    assert aggregate_cost(t, n) == pytest.approx(best[1])


def test_brute_force_cap():
    with pytest.raises(ValueError, match="capped"):
        brute_force_best(21, lambda c: (np.array([-50.0]), np.array([-70.0])))


# -- convergence stats -------------------------------------------------------


def test_convergence_stats_constant_trace():
    bits = np.tile(np.array([0, 1, 1, 0], dtype=np.uint8), (5, 1))
    trace = Trace(best_cost=np.zeros(5), worst_cost=np.zeros(5),
                  best_bits=bits)
    stats = convergence_stats(trace)
    assert stats["mean_distance"] == [0.0] * 5


def test_convergence_stats_random_walk_initial_distance(rng):
    # independent random configs sit at ~L/2 from the final one
    traces = []
    for _ in range(20):
        bits = rng.integers(0, 2, (11, 768)).astype(np.uint8)
        traces.append(Trace(best_cost=np.zeros(11), worst_cost=np.zeros(11),
                            best_bits=bits))
    stats = convergence_stats(traces)
    assert stats["initial_mean_distance"] == pytest.approx(384, abs=20)
    assert "p5_distance" in stats


def test_convergence_stats_empty():
    with pytest.raises(ValueError):
        convergence_stats([])


@pytest.mark.xfail(reason="the best row at step 9 000 lies 93-122 bits from "
                          "the final one (1 of 6 runs below 100); rejecting "
                          "ties leaves it so, and a mutation-drift balance "
                          "at table size x epsilon = 2 is suspected, "
                          "unconfirmed", strict=False)
def test_late_stage_distance_below_100():
    from risjam.scenarios import (RssiOracle, _STREAM_MEASURE,
                                  _STREAM_OPTIMIZER, desk_scenario)
    spec = desk_scenario("packet-rate", targets=("D4",), seed=28)
    env = spec.build_environment()
    below = 0
    for run in range(6):
        oracle = RssiOracle(env, ("D4",), spec.visible_non_targets(), 15.0,
                            np.random.default_rng([run, _STREAM_MEASURE, 0]))
        _, trace = run_optimizer(100, 10000, 768, oracle,
                                 [run, _STREAM_OPTIMIZER, 0])
        below += trace.hamming_to_final()[9000] < 100
    assert below > 3


def test_trace_csv(tmp_path):
    oracle = make_oracle()
    best, trace = run_optimizer(10, 25, 10, oracle, 3)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 26
    assert rows[-1]["best_config_hex"] == best.to_hex()
    assert float(rows[-1]["best_cost"]) == pytest.approx(trace.best_cost[-1])


# -- packed trace ------------------------------------------------------------


def _reference_records(table_size, steps, n_elements, oracle, seed):
    """run_optimizer's records kept as one uint8 row per step, the layout
    the packed trace replaced."""
    state = optimizer_init(table_size, n_elements, oracle, seed,
                           reeval_period=50)
    best_cost, worst_cost = [state.best_cost()], [state.worst_cost()]
    rows = [state.bits[0].astype(np.uint8)]
    for _ in range(steps):
        optimizer_step(state, oracle)
        best_cost.append(state.best_cost())
        worst_cost.append(state.worst_cost())
        rows.append(state.bits[0].astype(np.uint8))
    return np.array(best_cost), np.array(worst_cost), np.array(rows)


def _write_unpacked_csv(path, best_cost, worst_cost, best_bits):
    """The trace writer over uint8 rows, as it was before packing."""
    packed = np.packbits(best_bits, axis=1, bitorder="big")
    n_chars = math.ceil(best_bits.shape[1] / 4)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "best_cost", "best_config_hex",
                         "table_worst_cost"])
        for step, row in enumerate(packed):
            writer.writerow([
                step,
                format(best_cost[step], ".10g"),
                row.tobytes().hex()[:n_chars],
                format(worst_cost[step], ".10g"),
            ])


@pytest.mark.parametrize("n_elements", [1, 7, 8, 9, 77])
@pytest.mark.parametrize("steps", [0, 1, _TRACE_CHUNK - 1, _TRACE_CHUNK,
                                   _TRACE_CHUNK + 1, 2 * _TRACE_CHUNK + 3])
def test_packed_trace_matches_unpacked_records(tmp_path, steps, n_elements):
    best_cost, worst_cost, rows = _reference_records(
        6, steps, n_elements, make_oracle(3, n_elements, 0.5, True), 2)
    best, trace = run_optimizer(6, steps, n_elements,
                                make_oracle(3, n_elements, 0.5, True), 2,
                                reeval_period=50)
    assert trace.best_cost.tobytes() == best_cost.tobytes()
    assert trace.worst_cost.tobytes() == worst_cost.tobytes()
    assert trace.best_bits.dtype == np.uint8
    assert trace.best_bits.shape == rows.shape
    assert trace.best_bits.tobytes() == rows.tobytes()
    distances = (rows != rows[-1]).sum(axis=1)
    assert trace.hamming_to_final().dtype == distances.dtype
    np.testing.assert_array_equal(trace.hamming_to_final(), distances)
    assert trace.final_config() == best
    np.testing.assert_array_equal(trace.final_config().bits, rows[-1])
    trace.write_csv(tmp_path / "packed.csv")
    _write_unpacked_csv(tmp_path / "rows.csv", best_cost, worst_cost, rows)
    assert (tmp_path / "packed.csv").read_bytes() \
        == (tmp_path / "rows.csv").read_bytes()


class _FixedOracle:
    """A raw-bit oracle with fixed readings: every candidate ties."""

    accepts_bits = True
    targets = np.array([-60.0])
    non_targets = np.array([-70.0, -75.0])

    def __call__(self, bits):
        return self.targets, self.non_targets


def test_run_optimizer_never_holds_unpacked_trace():
    # One uint8 byte per element per step would alone reach the bound.  A
    # warm-up run keeps NumPy's one-time allocations out of the count.
    steps, n_elements = 3000, 768
    run_optimizer(20, 1000, n_elements, _FixedOracle(), 1)
    tracemalloc.start()
    try:
        run_optimizer(20, steps, n_elements, _FixedOracle(), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (steps + 1) * n_elements
