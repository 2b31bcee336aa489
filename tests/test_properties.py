"""Module invariants as randomized property tests.

Pure-function invariants run 1000 cases via hypothesis or seeded loops.
Invariants that each need a whole optimization or a large ensemble run at
the sample sizes quoted with them.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import risjam.link as link
import risjam.optimizer as optimizer
from risjam.channel import (
    Position,
    ris_subchannels,
    synthesize_environment,
)
from risjam.optimizer import (
    CostWeights,
    OptimizerState,
    aggregate_cost,
    brute_force_best,
    cost_margin_db,
    element_probabilities,
    optimizer_init,
    optimizer_step,
    run_optimizer,
)
from risjam.ris import RisConfig, compose_channel, hamming_distance, random_config
from risjam.scenarios import RssiOracle, TargetRow, _sweep_rates

from conftest import make_small_spec

CASES = settings(max_examples=1000, deadline=None)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
small_complex = st.builds(complex, finite, finite)
bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=64)


# -- surface algebra -----------------------------------------------------------


@CASES
@given(bits_lists, st.data())
def test_compose_linearity(bits, data):
    h = np.array(data.draw(st.lists(small_complex, min_size=len(bits),
                                    max_size=len(bits))))
    alpha = data.draw(small_complex)
    cfg = RisConfig(bits)
    lhs = compose_channel(cfg, alpha * h)
    rhs = alpha * compose_channel(cfg, h)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@CASES
@given(bits_lists, st.data())
def test_single_flip_changes_gain_by_twice_subchannel(bits, data):
    h = np.array(data.draw(st.lists(small_complex, min_size=len(bits),
                                    max_size=len(bits))))
    idx = data.draw(st.integers(0, len(bits) - 1))
    cfg = RisConfig(bits)
    flipped_bits = list(bits)
    flipped_bits[idx] ^= 1
    flipped = RisConfig(flipped_bits)
    delta = compose_channel(flipped, h) - compose_channel(cfg, h)
    sign = -2.0 if bits[idx] == 0 else 2.0
    assert delta == pytest.approx(sign * h[idx], rel=1e-9, abs=1e-9)


@CASES
@given(bits_lists, st.data())
def test_composed_gain_triangle_inequality(bits, data):
    h = np.array(data.draw(st.lists(small_complex, min_size=len(bits),
                                    max_size=len(bits))))
    cfg = RisConfig(bits)
    assert abs(compose_channel(cfg, h)) <= np.abs(h).sum() + 1e-9


@CASES
@given(bits_lists)
def test_hex_round_trip_lossless(bits):
    cfg = RisConfig(bits)
    assert RisConfig.from_hex(cfg.to_hex(), len(bits)) == cfg


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.data())
def test_trace_csv_hex_matches_config_hex(tmp_path_factory, length, rows,
                                          data):
    bits = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=length, max_size=length),
        min_size=rows, max_size=rows)), dtype=np.uint8)
    trace = optimizer.Trace.from_bits(best_cost=np.zeros(rows),
                                      worst_cost=np.zeros(rows),
                                      best_bits=bits)
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    trace.write_csv(path)
    hexes = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert hexes == [RisConfig(row).to_hex() for row in bits]


def test_random_pair_distance_centers_on_half_length():
    distances = [hamming_distance(random_config(128, 3 * i),
                                  random_config(128, 3 * i + 1))
                 for i in range(1000)]
    assert np.mean(distances) == pytest.approx(64, abs=1.5)


# -- cost function ---------------------------------------------------------------


rssi_lists = st.lists(st.floats(min_value=-95, max_value=-20), min_size=1,
                      max_size=12)


@CASES
@given(rssi_lists, rssi_lists, st.floats(min_value=-30, max_value=30))
def test_cost_depends_only_on_aggregate_difference(targets, others, offset):
    base = aggregate_cost(targets, others)
    shifted = aggregate_cost([t + offset for t in targets],
                             [n + offset for n in others])
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-6)


@CASES
@given(rssi_lists, rssi_lists)
def test_cost_sign_tracks_aggregate_ordering(targets, others):
    w = CostWeights()
    a_t = w.w_mean * np.mean(targets) + w.w_extreme * np.min(targets)
    a_n = w.w_mean * np.mean(others) + w.w_extreme * np.max(others)
    f = aggregate_cost(targets, others)
    assert math.copysign(1.0, f) == math.copysign(1.0, a_t - a_n) or f == 0.0
    assert cost_margin_db(f) == pytest.approx(a_t - a_n, rel=1e-9, abs=1e-9)


# -- link model -------------------------------------------------------------------


@CASES
@given(small_complex.filter(lambda z: abs(z) > 1e-6),
       small_complex.filter(lambda z: abs(z) > 1e-6), finite, finite)
def test_jsr_antisymmetric_under_role_swap(jam, sig, pj, ps):
    assert link.jsr_db(jam, sig, pj, ps) == pytest.approx(
        -link.jsr_db(sig, jam, ps, pj), rel=1e-9, abs=1e-9)


@CASES
@given(st.floats(-90, -20), st.floats(-120, -20), st.floats(-120, -20),
       st.floats(0.1, 10))
def test_sjnr_monotonicity(sig, jam, noise, bump):
    base = link.sjnr_db(sig, jam, noise)
    assert link.sjnr_db(sig + bump, jam, noise) > base
    assert link.sjnr_db(sig, jam + bump, noise) < base


@CASES
@given(st.floats(-30, 50), st.integers(0, 7), st.floats(0.1, 20),
       st.integers(0, 7))
def test_packet_success_monotone(sjnr, mcs, bump, mcs2):
    p = link.packet_success_prob(sjnr, mcs)
    assert 0.0 <= p <= 1.0
    assert link.packet_success_prob(sjnr + bump, mcs) >= p
    if mcs2 >= mcs:
        assert link.packet_success_prob(sjnr, mcs2) <= p


@CASES
@given(st.integers(0, 7), st.floats(0, 1), st.floats(1, 100))
def test_throughput_bounded(mcs, success, offered):
    state = link.LinkState(mcs=mcs, offered_load_mbps=offered)
    got = link.throughput_mbps(state, success)
    assert 0.0 <= got <= min(offered, link.MCS_RATES_MBPS[mcs])


def test_rate_adaptation_reaches_fixed_point():
    # Deterministic windows from a stationary SJNR: after convergence the
    # MCS oscillates by at most one level.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        sjnr = rng.uniform(-5.0, 35.0)
        state = link.LinkState(mcs=int(rng.integers(0, 8)),
                               offered_load_mbps=30.0)
        history = []
        for _ in range(30):
            p = link.packet_success_prob(sjnr, state.mcs)
            k = int(round(p * link.RATE_WINDOW))
            window = [True] * k + [False] * (link.RATE_WINDOW - k)
            state = link.rate_adapt_step(state.with_window(window))
            history.append(state.mcs)
        tail = history[-10:]
        assert max(tail) - min(tail) <= 1


# -- measurement and environment ----------------------------------------------------


def test_received_rssi_quantization_error_bounded(small_env, rng):
    powers = rng.uniform(-94.4, -20.0, 1000)
    from risjam.channel import received_rssi
    quantized = received_rssi(small_env, powers, sigma_db=0)
    assert np.all(np.abs(quantized - powers) <= 0.5 + 1e-9)


def test_reciprocity_eavesdrop_equals_delivery():
    # 1000 cases on tiny worlds: the oracle's measured channel magnitude is
    # exactly the jamming-delivery magnitude (same ensemble evaluation).
    rng = np.random.default_rng(7)
    spec = make_small_spec(n_elements=8, scatter_count=16)
    for case in range(1000):
        if case % 100 == 0:
            env = synthesize_environment(spec, case)
            oracle = RssiOracle(env, ("A",), ("B",), 0.0,
                                np.random.default_rng(case),
                                sigma_db=0.0, quantize=False)
            h_a = ris_subchannels(env, env.devices["A"])
        cfg = RisConfig(rng.integers(0, 2, 8, dtype=np.uint8))
        measured, _ = oracle(cfg)
        delivered = 20 * math.log10(abs(compose_channel(cfg, h_a)) + 1e-300)
        assert measured[0] == pytest.approx(delivered, abs=1e-9)


def test_environment_determinism_cases():
    # 100 seeded synth pairs serialize byte-identically
    import json as _json

    from risjam.channel import environment_to_dict
    spec = make_small_spec(n_elements=4, scatter_count=16)
    for seed in range(100):
        a = synthesize_environment(spec, seed)
        b = synthesize_environment(spec, seed)
        assert _json.dumps(environment_to_dict(a), sort_keys=True) == \
            _json.dumps(environment_to_dict(b), sort_keys=True)
        pos = Position(2.0, 1.5, 1.0)
        np.testing.assert_array_equal(ris_subchannels(a, pos),
                                      ris_subchannels(b, pos))


def test_energy_law_across_seeds():
    # ensemble-mean |h|^2 within 5% of the path-loss law (10 worlds)
    from risjam.channel import path_loss_gain
    spec = make_small_spec(n_elements=768, scatter_count=64)
    pos = Position(2.0, 1.0, 1.0)
    for seed in range(10):
        env = synthesize_environment(spec, seed)
        h = ris_subchannels(env, pos)
        pl = path_loss_gain(env, env.attacker_position.distance_to(pos))
        assert np.mean(np.abs(h) ** 2) / pl == pytest.approx(1.0, abs=0.05)


# -- optimizer dynamics ---------------------------------------------------------------


def test_exploration_floor_holds_through_noisy_runs():
    # 1000 sampled steps across noisy mini-runs
    rng = np.random.default_rng(3)

    def noisy_oracle(row):
        base = -60.0 + 2.0 * (int(row.sum()) - 6)
        return (np.array([base + rng.normal(0, 1)]),
                np.array([-75.0 + rng.normal(0, 1)]))

    checked = 0
    for trial in range(25):
        state = optimizer_init(8, 12, noisy_oracle, trial, epsilon=0.05)
        for _ in range(40):
            optimizer_step(state, noisy_oracle)
            p = element_probabilities(state)
            assert np.all(p >= 0.05) and np.all(p <= 0.95)
            checked += 1
    assert checked == 1000


def test_worst_cost_never_decreases_between_plain_steps():
    # 1000 steps across deterministic mini-runs without re-evaluation
    rng = np.random.default_rng(11)
    for trial in range(20):
        weights = rng.normal(size=10)

        def oracle(row, w=weights):
            score = float(w @ (2.0 * row - 1.0))
            return (np.array([-60.0 + score]), np.array([-70.0]))

        state = optimizer_init(6, 10, oracle, trial, reeval_period=0)
        prev = state.worst_cost()
        for _ in range(50):
            optimizer_step(state, oracle)
            assert state.worst_cost() >= prev - 1e-12
            prev = state.worst_cost()


def _vstack_argsort_update(bits, costs, founder, candidate, cand_cost):
    """Reference table update: prepend, drop the worst, stable re-sort."""
    if cand_cost >= costs[-1]:
        bits = np.vstack([candidate, bits[:-1]])
        costs = np.append(cand_cost, costs[:-1])
        founder = np.append(False, founder[:-1])
        order = np.argsort(-costs, kind="stable")
        bits, costs, founder = bits[order], costs[order], founder[order]
    return bits, costs, founder


tie_costs = st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(table=st.lists(tie_costs, min_size=2, max_size=9),
       cand_cost=tie_costs,
       remeasured=st.lists(tie_costs, min_size=9, max_size=9),
       reeval_period=st.sampled_from([0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_insertion_update_matches_vstack_argsort(table, cand_cost, remeasured,
                                                 reeval_period, seed):
    # Costs sorted descending with -0.0 and 0.0 in either order; ties
    # everywhere.  With reeval_period 1 the step re-measures the whole
    # updated table, so the rows measured are compared too.
    rng = np.random.default_rng(seed)
    costs = np.array(sorted(table, reverse=True))
    size = len(costs)
    bits = rng.integers(0, 2, (size, 7)).astype(float)
    founder = rng.random(size) < 0.5
    state = OptimizerState(bits=bits.copy(), costs=costs.copy(),
                           founder=founder.copy(), step=0, rng=rng,
                           weights=CostWeights(), noise_floor_dbm=-95.0,
                           epsilon=0.02, reeval_period=reeval_period)
    scripted = iter([cand_cost] + remeasured)
    measured = []

    def measure(oracle, row, weights, noise_floor_dbm):
        measured.append(row.copy())
        return next(scripted)

    with mock.patch.object(optimizer, "_measure", measure):
        optimizer_step(state, oracle=None)
    want_bits, want_costs, want_founder = _vstack_argsort_update(
        bits, costs, founder, measured[0], cand_cost)
    if reeval_period:
        assert np.array_equal(np.array(measured[1:]), want_bits)
        want_costs = np.array(remeasured[:size])
        order = np.argsort(-want_costs, kind="stable")
        want_bits, want_costs, want_founder = (
            want_bits[order], want_costs[order], want_founder[order])
    assert np.array_equal(state.bits, want_bits)
    assert state.costs.tobytes() == want_costs.tobytes()
    assert np.array_equal(state.founder, want_founder)


def test_noiseless_search_attains_brute_force_optimum():
    # L=6, steps = 50 * 2^6: the exhaustive optimum cost in >= 90% of seeds
    spec = make_small_spec(n_elements=6, scatter_count=16)
    hits = 0
    for seed in range(20):
        env = synthesize_environment(spec, seed)
        oracle = RssiOracle(env, ("A",), ("B", "C", "D0"), 15.0,
                            np.random.default_rng(seed),
                            sigma_db=0.0, quantize=False)
        _, best_cost = brute_force_best(6, oracle)
        cfg, _ = run_optimizer(30, 50 * 64, 6, oracle, [seed, 2], epsilon=0.3)
        t, n = oracle(cfg)
        hits += aggregate_cost(t, n) == pytest.approx(best_cost, rel=1e-12)
    assert hits >= 18


# -- scenario-level invariants -----------------------------------------------------------


def test_normalized_jsr_definition_over_random_rows():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        devices = tuple(f"D{i}" for i in range(1, 6))
        target = str(rng.choice(devices))
        jsr = dict(zip(devices, rng.uniform(-40, 10, 5)))
        norm = {d: jsr[d] - jsr[target] for d in devices}
        row = TargetRow(targets=(target,), attacker_rssi_dbm={},
                        ap_rssi_dbm={}, jsr_db=jsr, norm_jsr_db=norm)
        assert norm[target] == 0.0
        assert row.separation_db() == pytest.approx(
            -max(v for d, v in norm.items() if d != target))


def test_sweep_rates_monotone_in_power(small_env, rng):
    # 1000 random device columns, vectorized
    jam_gain_db = rng.uniform(-80, -20, 1000)
    sig_dbm = rng.uniform(-70, -30, 1000)
    powers = np.arange(-60.0, 0.0, 1.0)
    rates = _sweep_rates(small_env, jam_gain_db, sig_dbm, powers)
    assert np.all(np.diff(rates, axis=0) <= 1e-9)
