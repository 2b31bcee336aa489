import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjam import channel, scenarios
from risjam.channel import (
    MAX_ABS_COORDINATE_M,
    MAX_FREQUENCY_HZ,
    EnvironmentSpec,
    Position,
    move_device,
    received_rssi,
    ris_subchannels,
)
from risjam.cli import execute
from risjam.ris import RisConfig, compose_channel
from risjam.scenarios import (
    _TINY_GAIN,
    DESK_DEVICES,
    MAX_SCAN_POINTS,
    OptimizerSettings,
    PowerSettings,
    RssiOracle,
    ScenarioError,
    ScenarioSpec,
    desk_environment_spec,
    desk_scenario,
    directional_baseline,
    directional_gain_db,
    element_sweep,
    power_sweep,
    random_config_eval,
    run_exclusion,
    run_jsr_matrix,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

MINI_DEVICES = {
    "D0": Position(3.0, 3.6, 1.2),
    "A": Position(1.6, 3.0, 0.9),
    "B": Position(1.9, 2.8, 0.9),
    "C": Position(3.6, 1.2, 0.9),
    "D": Position(3.9, 1.0, 0.9),
    "E": Position(2.9, 3.1, 0.9),
}

MINI_ENV = EnvironmentSpec(devices=MINI_DEVICES,
                           attacker_position=Position(0.4, 0.9, 1.0),
                           n_elements=192, scatter_count=64)

FAST_OPT = OptimizerSettings(steps=1500, reeval_period=500, table_size=60)


def mini_scenario(mode="packet-rate", targets=("A",), seed=5, **overrides):
    kwargs = dict(environment=MINI_ENV, mode=mode, targets=targets, seed=seed,
                  optimizer=FAST_OPT, name="mini")
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


# -- validation ---------------------------------------------------------------


def test_unknown_mode_lists_valid_modes():
    with pytest.raises(ScenarioError, match="jsr-matrix"):
        mini_scenario(mode="frobnicate")


def test_target_nontarget_overlap_names_device():
    with pytest.raises(ScenarioError, match="'A'"):
        mini_scenario(non_targets=("A", "B"))


def test_ap_cannot_be_target():
    with pytest.raises(ScenarioError, match="access point"):
        mini_scenario(targets=("D0",))


def test_unknown_target_rejected():
    with pytest.raises(ScenarioError, match="no position"):
        mini_scenario(targets=("Z",))


def test_jamming_mode_needs_targets():
    with pytest.raises(ScenarioError, match="non-empty target"):
        mini_scenario(targets=())


# The mode_params each mode needs beyond its defaults.
REQUIRED_PARAMS = {"exclusion": {"exclude": "E"},
                   "element-sweep": {"counts": [16]},
                   "displacement": {"minimized": "E"}}


@pytest.mark.parametrize("targets", [(), ("A",), ("A", "B")],
                         ids=["zero", "one", "two"])
@pytest.mark.parametrize("mode", scenarios._MODES)
def test_mode_table_sets_the_target_count(mode, targets):
    low, high = scenarios._MODES[mode].targets

    def build():
        return mini_scenario(mode, targets,
                             mode_params=REQUIRED_PARAMS.get(mode, {}))

    if low <= len(targets) <= high:
        assert build().targets == targets
    else:
        with pytest.raises(ScenarioError) as info:
            build()
        assert info.value.fieldpath == "targets"


def test_hidden_must_be_nontarget():
    with pytest.raises(ScenarioError, match="hidden"):
        mini_scenario(hidden=("A",))


def test_default_non_targets_include_ap():
    spec = mini_scenario()
    assert "D0" in spec.non_targets
    assert set(spec.non_targets) == {"D0", "B", "C", "D", "E"}


def test_exclusion_needs_exclude_param():
    with pytest.raises(ScenarioError, match="exclude"):
        mini_scenario(mode="exclusion", targets=())


def test_sweep_settings_validated():
    with pytest.raises(ScenarioError, match="sweep"):
        PowerSettings(sweep_from_dbm=0.0, sweep_to_dbm=-10.0)


def test_sweep_and_series_lengths_bounded():
    # Steps of 1 mdB keep the sweep ends inside the dBm bounds.
    step = 1e-3
    top = (MAX_SCAN_POINTS - 1) * step
    assert len(PowerSettings(sweep_from_dbm=0.0, sweep_to_dbm=top,
                             sweep_step_db=step)
               .sweep_grid()) == MAX_SCAN_POINTS
    with pytest.raises(ScenarioError, match="sweep grid"):
        PowerSettings(sweep_from_dbm=0.0, sweep_to_dbm=top + step,
                      sweep_step_db=step)
    mini_scenario("perturbation", mode_params={"duration": MAX_SCAN_POINTS})
    last = {"time": MAX_SCAN_POINTS - 2, "fraction": 0.1}
    mini_scenario("perturbation", mode_params={"schedule": [last]})
    for params in ({"duration": MAX_SCAN_POINTS + 1},
                   {"schedule": [dict(last, time=MAX_SCAN_POINTS - 1)]},
                   {"schedule": [dict(last, time=-3)]}):
        with pytest.raises(ScenarioError):
            mini_scenario("perturbation", mode_params=params)


# -- measurement oracle -------------------------------------------------------


def test_oracle_excludes_hidden_devices():
    spec = mini_scenario(hidden=("C", "D"))
    env = spec.build_environment()
    oracle = RssiOracle(env, spec.targets, spec.visible_non_targets(), 15.0,
                        np.random.default_rng(0))
    t, n = oracle(spec_config(spec))
    assert t.shape == (1,)
    assert n.shape == (3,)      # D0, B, E


@pytest.mark.parametrize("change", [
    {"device_tx_dbm": float("nan")},
    {"device_tx_dbm": float("inf")},
    {"sigma_db": float("inf")},
    {"targets": ()},
    {"rng": None},
])
def test_oracle_checks_its_inputs_once_at_construction(change):
    # Every reading is then finite without a per-call check.
    env = mini_scenario().build_environment()
    kwargs = dict(env=env, targets=("A",), non_targets=("B",),
                  device_tx_dbm=15.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        RssiOracle(**{**kwargs, **change})


def _two_draw_measurement(oracle, config):
    """The oracle's reading as separate target and non-target matvecs, log
    and noise draws."""
    coeff = config.coefficients()
    readings = []
    for matrix in (oracle._h_targets, oracle._h_non_targets):
        if matrix.shape[0] == 0:
            readings.append(np.empty(0))
            continue
        gains = np.abs(matrix @ coeff)
        power = oracle.device_tx_dbm + 20.0 * np.log10(
            np.maximum(gains, _TINY_GAIN))
        if oracle.quantize:
            power = received_rssi(oracle.env, power, oracle.rng,
                                  oracle.sigma_db).astype(float)
        elif oracle.sigma_db > 0:
            power = power + oracle.rng.normal(0.0, oracle.sigma_db,
                                              power.shape)
        readings.append(power)
    return tuple(readings)


@pytest.mark.parametrize("targets,non_targets,sigma,quantize", [
    (("A",), ("D0", "B", "C", "D", "E"), 0.5, True),
    (("A",), ("D0", "B", "C", "D", "E"), 0.5, False),
    (("A", "C"), ("D0", "E"), 0.0, True),
    (("A",), (), 0.5, True),
])
def test_oracle_matches_two_draw_measurement(targets, non_targets, sigma,
                                             quantize):
    env = mini_scenario().build_environment()
    fused, reference = (RssiOracle(env, targets, non_targets, 15.0,
                                   np.random.default_rng(8), sigma_db=sigma,
                                   quantize=quantize) for _ in range(2))
    configs = np.random.default_rng(1)
    for i in range(40):
        config = RisConfig(configs.integers(0, 2, env.n_elements))
        # A RisConfig, or the search's raw uint8 or float32 row.
        got = fused((config, config.bits,
                     config.bits.astype(np.float32))[i % 3])
        want = _two_draw_measurement(reference, config)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def spec_config(spec):
    from risjam.ris import random_config
    env = spec.build_environment()
    return random_config(env.n_elements, 0)


def test_oracle_reciprocity_with_delivery():
    # the eavesdropped magnitude equals the jamming-delivery magnitude
    spec = mini_scenario()
    env = spec.build_environment()
    oracle = RssiOracle(env, ("A",), ("D0", "B", "C", "D", "E"), 15.0,
                        np.random.default_rng(0), sigma_db=0.0, quantize=False)
    cfg = spec_config(spec)
    t, _ = oracle(cfg)
    from risjam.scenarios import _composed_gain_db
    delivered = _composed_gain_db(env, cfg, ("A",))
    assert t[0] == pytest.approx(15.0 + delivered[0], abs=1e-9)


# -- single target ------------------------------------------------------------


@pytest.fixture(scope="module")
def single_result():
    return power_sweep(mini_scenario())


def test_single_target_disrupts_only_target(single_result):
    row = single_result.rows[0]
    assert row.packet_rate["A"] <= 5.0
    for dev in ("B", "C", "D", "E"):
        assert row.packet_rate[dev] >= 90.0


def test_normalized_jsr_definition(single_result):
    row = single_result.rows[0]
    assert row.norm_jsr_db["A"] == 0.0
    for dev, value in row.norm_jsr_db.items():
        assert value == pytest.approx(row.jsr_db[dev] - row.jsr_db["A"])


def test_single_target_margin_positive(single_result):
    row = single_result.rows[0]
    assert row.margin_db is not None and row.margin_db > 5.0
    assert row.operating_jam_dbm == pytest.approx(row.target_knee_dbm + 3.0)


def test_run_result_deterministic():
    a = power_sweep(mini_scenario()).to_json_dict()
    b = power_sweep(mini_scenario()).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_power_sweep_monotone(single_result):
    sweep = single_result.extras["sweep"]
    for dev, rates in sweep["rates"].items():
        increases = np.sum(np.diff(rates) > 2.0)
        assert increases == 0
    powers = sweep["powers_dbm"]
    rates0 = [sweep["rates"][d][0] for d in single_result.devices]
    assert min(rates0) >= 98.0          # no jamming at the bottom of the sweep


def test_sweep_saturates_at_high_power():
    spec = mini_scenario(powers=PowerSettings(sweep_from_dbm=-80,
                                              sweep_to_dbm=20))
    res = power_sweep(spec)
    sweep = res.extras["sweep"]
    top = [sweep["rates"][d][-1] for d in res.devices]
    assert max(top) <= 5.0


def test_long_records_and_csv(tmp_path, single_result):
    execute(mini_scenario(), tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "scenario,target_set,device,metric,value"
    records = [line.split(",") for line in lines[1:]]
    metrics = {r[3] for r in records}
    assert metrics == {"attacker_rssi_dbm", "ap_rssi_dbm", "jsr_db",
                       "norm_jsr_db", "packet_rate"}
    row = single_result.rows[0]
    assert len(records) == len(metrics) * len(single_result.devices)
    for scenario, label, device, metric, value in records:
        assert (scenario, label) == ("mini", "A")
        assert value == format(getattr(row, metric)[device], ".10g")


# -- multi target / exclusion --------------------------------------------------


def test_multi_target_disrupts_cluster():
    # two neighbours from the same cluster
    res = power_sweep(mini_scenario(targets=("A", "B")))
    row = res.rows[0]
    assert row.packet_rate["A"] <= 5.0 and row.packet_rate["B"] <= 5.0
    healthy = [d for d in ("C", "D", "E") if row.packet_rate[d] >= 90.0]
    assert len(healthy) >= 2
    assert set(res.extras["delivered_gain_db"]) == {"A", "B"}


def test_multi_target_across_clusters():
    # one device per cluster, far apart
    res = power_sweep(mini_scenario(targets=("A", "C")))
    row = res.rows[0]
    assert row.packet_rate["A"] <= 5.0 and row.packet_rate["C"] <= 5.0
    healthy = [d for d in ("B", "D", "E") if row.packet_rate[d] >= 90.0]
    assert len(healthy) >= 2


def test_exclusion_keeps_excluded_operational():
    spec = mini_scenario(mode="exclusion", targets=(),
                         mode_params={"exclude": "E"})
    res = run_exclusion(spec)
    row = res.rows[0]
    assert set(row.targets) == {"A", "B", "C", "D"}
    assert row.packet_rate["E"] >= 90.0
    assert max(row.packet_rate[t] for t in row.targets) <= 5.0


def test_exclusion_leaving_one_device_runs_one_target_row():
    env = EnvironmentSpec(devices={d: MINI_DEVICES[d]
                                   for d in ("D0", "A", "B")},
                          attacker_position=Position(0.4, 0.9, 1.0),
                          n_elements=192, scatter_count=64)
    spec = mini_scenario(mode="exclusion", targets=(), environment=env,
                         mode_params={"exclude": "B"})
    res = run_exclusion(spec)
    assert [row.targets for row in res.rows] == [("A",)]
    assert res.extras["excluded"] == "B"


# -- matrix / hidden ------------------------------------------------------------


def test_jsr_matrix_diagonal_dominance():
    spec = mini_scenario(mode="jsr-matrix", targets=())
    res = run_jsr_matrix(spec)
    assert [row.targets[0] for row in res.rows] == list(res.devices)
    for row in res.rows:
        target = row.targets[0]
        others = [v for d, v in row.norm_jsr_db.items() if d != target]
        assert max(others) < 0.0


def test_jsr_matrix_threads_match_sequential():
    spec = mini_scenario(mode="jsr-matrix", targets=())
    seq = run_jsr_matrix(spec, threads=1).to_json_dict()
    par = run_jsr_matrix(spec, threads=3).to_json_dict()
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_hidden_eval_still_concentrates():
    # Hidden devices receive no explicit minimization, so their rejection is
    # weaker than in the visible experiment; the diagonal still dominates.
    spec = mini_scenario(mode="jsr-matrix", targets=("A", "B"),
                         hidden=("C", "D", "E"))
    res = run_jsr_matrix(spec)
    assert len(res.rows) == 2
    for row in res.rows:
        target = row.targets[0]
        others = [v for d, v in row.norm_jsr_db.items() if d != target]
        assert np.median(others) < 0.0
        assert sum(v < 0.0 for v in others) >= len(others) - 1
    assert set(res.extras["before_norm_jsr_db"]) == {"A", "B"}


# -- spatial scans ---------------------------------------------------------------


def test_heatmap_shape_and_focus():
    spec = mini_scenario(mode="heatmap",
                         mode_params={"x_extent_m": 0.2, "y_extent_m": 0.1,
                                      "step_m": 0.01})
    res = power_sweep(spec)
    hm = res.extras["heatmap"]
    grid = np.array(hm["normalized_db"])
    assert grid.shape == (11, 21)
    fx, fy, _ = hm["focus"]
    ix = int(np.argmin(np.abs(np.array(hm["x_m"]) - fx)))
    iy = int(np.argmin(np.abs(np.array(hm["y_m"]) - fy)))
    assert grid[iy, ix] >= -3.0         # the focus cell sits at the peak
    assert grid.max() <= 6.0


def test_heatmap_grid_must_contain_focus():
    with pytest.raises(ScenarioError, match="excludes"):
        mini_scenario(mode="heatmap",
                      mode_params={"x_min_m": 0.0, "x_max_m": 0.5,
                                   "y_min_m": 0.0, "y_max_m": 0.5})


def test_heatmap_matches_per_point_reference():
    spec = mini_scenario(mode="heatmap",
                         mode_params={"x_extent_m": 0.2, "y_extent_m": 0.1,
                                      "step_m": 0.01})
    first = power_sweep(spec)
    second = power_sweep(spec)
    hm = first.extras["heatmap"]
    assert second.extras["heatmap"]["normalized_db"] == hm["normalized_db"]

    env = spec.build_environment()
    config = first.extras["config"]

    def gain_db(x, y, z):
        sub = ris_subchannels(env, Position(x, y, z), device="A")
        return 20.0 * np.log10(abs(compose_channel(config, sub)))

    fx, fy, fz = hm["focus"]
    ref = [[gain_db(x, y, fz) - gain_db(fx, fy, fz) for x in hm["x_m"]]
           for y in hm["y_m"]]
    np.testing.assert_allclose(hm["normalized_db"], ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("mode,params", [
    ("heatmap", {"step_m": 0}),
    ("heatmap", {"step_m": -0.01}),
    ("heatmap", {"step_m": float("nan")}),
    ("heatmap", {"step_m": "0.01"}),
    ("heatmap", {"step_m": True}),
    ("heatmap", {"x_extent_m": float("inf")}),
    ("heatmap", {"y_extent_m": -0.1}),
    ("heatmap", {"step_m": 1e-5}),
    ("heatmap", {"x_extent_m": 10 ** 400}),
    ("heatmap", {"x_min_m": 1.0, "x_max_m": 2.0, "y_min_m": 3.0,
                 "y_max_m": 2.5}),
    ("heatmap", {"x_min_m": 1.0, "x_max_m": 2.0, "y_min_m": 2.0}),
    ("displacement", {"minimized": "B", "step_mm": 0}),
    ("displacement", {"minimized": "B", "max_mm": -4.0}),
    ("displacement", {"minimized": "B", "step_mm": 1e-4}),
    ("displacement", {"minimized": "B", "max_mm": None}),
    ("displacement", {"minimized": "A"}),
    ("displacement", {"minimized": ["B"]}),
])
def test_bad_scan_grid_rejected_at_construction(mode, params):
    with pytest.raises(ScenarioError, match="mode_params"):
        mini_scenario(mode=mode, mode_params=params)


def _scan_axes(spec):
    """The x and y axes of each grid or rail a parsed heatmap or
    displacement spec scans, built as its run builds them."""
    params = scenarios._mode_params(spec)
    devices = spec.environment.devices
    if spec.mode == "heatmap":
        focus = devices[spec.targets[0]]
        xs, ys = scenarios._heatmap_window(params, focus)
        grids = [scenarios._grid_points(xs, ys, focus.z)]
    else:
        offsets = scenarios._displacement_offsets_m(params)
        grids = [scenarios._grid_points(base.x + offsets, [base.y], base.z)
                 for base in (devices["A"], devices["B"])]
    return [axis for grid in grids for axis in channel._grid_axes(grid)]


# Frequencies from 1 Hz to MAX_FREQUENCY_HZ, a target anywhere within the
# coordinate bound, and scans of up to about 100 values per axis with steps
# down to well below the resolution of the coordinates.
@settings(max_examples=300, deadline=None)
@given(log_hz=st.floats(0, math.log10(MAX_FREQUENCY_HZ)),
       x=st.floats(-MAX_ABS_COORDINATE_M, MAX_ABS_COORDINATE_M),
       y=st.floats(-MAX_ABS_COORDINATE_M, MAX_ABS_COORDINATE_M),
       log_step=st.floats(-14, 2), spans=st.tuples(*[st.floats(0, 100)] * 2),
       heatmap=st.booleans())
def test_accepted_scans_are_grids_of_few_gap_classes(log_hz, x, y, log_step,
                                                     spans, heatmap):
    frequency = min(10.0 ** log_hz, MAX_FREQUENCY_HZ)
    world = EnvironmentSpec(
        devices={"D0": Position(0.0, 0.0, 5.0), "A": Position(x, y, 0.9),
                 "B": Position(x, y, 0.5)},
        attacker_position=Position(0.0, 0.0, -5.0), frequency_hz=frequency,
        n_elements=16, scatter_count=16)
    step = 10.0 ** log_step
    if heatmap:
        params = {"step_m": step, "x_extent_m": step * spans[0],
                  "y_extent_m": step * spans[1]}
    else:
        params = {"minimized": "B", "step_mm": 1000 * step,
                  "max_mm": 1000 * step * spans[0]}
    try:
        spec = ScenarioSpec(environment=world, targets=("A",),
                            mode="heatmap" if heatmap else "displacement",
                            mode_params=params)
    except ScenarioError:
        return
    for axis in _scan_axes(spec):
        plan = channel._Axis(axis, channel._wavenumber(frequency))
        assert len(plan.heads) <= channel._TILE


def test_displacement_scan_shapes_and_notch():
    spec = mini_scenario(mode="displacement",
                         mode_params={"minimized": "B", "step_mm": 2.0,
                                      "max_mm": 40.0})
    res = power_sweep(spec)
    disp = res.extras["displacement"]
    d_mm = np.array(disp["displacements_mm"])
    mx = np.array(disp["maximized_db"])
    mn = np.array(disp["minimized_db"])
    assert d_mm[0] == 0.0 and len(d_mm) == len(mx) == len(mn)
    # zero displacement matches the optimization-time values
    assert disp["fixed_maximized_db"] == mx[0]
    assert disp["fixed_minimized_db"] == mn[0]
    # the maximized channel decays toward the background near the null
    window = (d_mm >= 14) & (d_mm <= 30)
    assert mx[window].min() <= mx[0] - 6.0
    # the minimized channel rises from its notch
    assert mn.max() >= mn[0] + 3.0


# -- element sweep ----------------------------------------------------------------


def test_element_sweep_counts_and_consistency():
    spec = mini_scenario(mode="element-sweep",
                         mode_params={"counts": [16, 192]})
    res = element_sweep(spec)
    sw = res.extras["element_sweep"]
    assert sw["counts"] == [16, 192]
    assert sw["separation_db"]["192"][0] > sw["separation_db"]["16"][0]
    # full-surface sweep run is bit-identical to a single-target power_sweep
    single = power_sweep(mini_scenario(seed=5))
    full_cfg = res.extras["configs"]["192:0"]
    assert full_cfg == single.extras["config"]


def test_element_sweep_count_exceeds_surface():
    with pytest.raises(ScenarioError, match="exceeds"):
        mini_scenario(mode="element-sweep", mode_params={"counts": [16, 500]})


def test_element_sweep_counts_sorted():
    with pytest.raises(ScenarioError, match="sorted"):
        mini_scenario(mode="element-sweep", mode_params={"counts": [64, 16]})


# -- directional baseline -----------------------------------------------------------


def test_directional_pattern_values():
    assert directional_gain_db(0.0) == pytest.approx(19.0)
    assert directional_gain_db(10.0, beamwidth_deg=10.0) == pytest.approx(16.0)
    # the back lobe saturates at the front-to-back ratio
    assert directional_gain_db(180.0) == pytest.approx(19.0 - 25.0)


def test_directional_baseline_runs():
    spec = mini_scenario(mode="directional-baseline")
    res = directional_baseline(spec)
    row = res.rows[0]
    assert row.packet_rate["A"] <= 5.0
    assert res.extras["antenna"]["gain_dbi"] == 19.0
    assert row.margin_db is not None


def test_directional_baseline_fixed_power_needs_no_knee():
    # The sweep never disrupts the target; a fixed power needs no knee.
    spec = mini_scenario(mode="directional-baseline",
                         powers=PowerSettings(jam_dbm=-20,
                                              sweep_from_dbm=-200.0,
                                              sweep_to_dbm=-190.0))
    row = directional_baseline(spec).rows[0]
    assert row.target_knee_dbm is None
    assert row.operating_jam_dbm == -20.0
    assert isinstance(row.operating_jam_dbm, float)


# -- perturbation ----------------------------------------------------------------


def test_perturbation_identity_schedule():
    spec = mini_scenario(mode="perturbation",
                         mode_params={"schedule": [], "duration": 3})
    res = power_sweep(spec)
    series = res.extras["timeseries"]
    rates = np.array([series["rates"][d] for d in res.devices])
    np.testing.assert_allclose(rates[:, 0], rates[:, 1])
    np.testing.assert_allclose(rates[:, 0], rates[:, 2])
    row_rates = [res.rows[0].packet_rate[d] for d in res.devices]
    np.testing.assert_allclose(rates[:, 0], row_rates)


def test_perturbation_small_fraction_keeps_target_jammed():
    spec = mini_scenario(mode="perturbation",
                         mode_params={"schedule": [
                             {"time": 1, "fraction": 0.05, "seed": 6}],
                             "duration": 3})
    res = power_sweep(spec)
    target_rates = res.extras["timeseries"]["rates"]["A"]
    assert max(target_rates) <= 10.0


def test_moving_target_half_wavelength_releases_it():
    lam = 299792458.0 / 5.56e9
    new_pos = [MINI_DEVICES["A"].x + lam / 2, MINI_DEVICES["A"].y,
               MINI_DEVICES["A"].z]
    spec = mini_scenario(mode="perturbation",
                         mode_params={"schedule": [
                             {"time": 1, "device": "A", "position": new_pos}],
                             "duration": 3})
    res = power_sweep(spec)
    rates = res.extras["timeseries"]["rates"]["A"]
    assert rates[0] <= 5.0
    assert rates[2] >= 80.0


def test_reoptimization_restores_separation():
    base = mini_scenario()
    original = power_sweep(base)
    orig_sep = original.rows[0].separation_db()
    env = base.build_environment()
    moved = env
    for dev, pos in (("A", (2.2, 2.2, 0.9)), ("B", (1.0, 3.4, 0.9)),
                     ("C", (3.0, 2.0, 0.9))):
        moved = move_device(moved, dev, Position(*pos))
    renewed = power_sweep(mini_scenario(environment=moved))
    assert renewed.rows[0].separation_db() >= 0.8 * orig_sep


# -- random configs / dispatcher ---------------------------------------------------


def test_random_config_eval_shape():
    out = random_config_eval(mini_scenario(mode="jsr-matrix", targets=()), 7)
    assert out["rssi_dbm"].shape == (7, 5)
    assert len(out["configs"]) == 7


def test_run_scenario_dispatch():
    res = run_scenario(mini_scenario())
    assert res.mode == "packet-rate" and len(res.rows) == 1
    res2 = run_scenario(mini_scenario(mode="exclusion", targets=(),
                                      mode_params={"exclude": "E"}))
    assert res2.mode == "exclusion"


def test_matrix_dispatch_routes_hidden_variants():
    # E sits right next to the access point, so its disruption knee needs a
    # wider sweep than the default range.
    wide = PowerSettings(sweep_to_dbm=20.0)
    # everything hidden: the dedicated hidden-device experiment
    spec_all = mini_scenario(mode="jsr-matrix", targets=(),
                             hidden=("A", "B", "C", "D", "E"), powers=wide)
    res_all = run_scenario(spec_all)
    assert "before_norm_jsr_db" in res_all.extras
    # a partial hidden set stays with the plain matrix but still shields
    # the hidden device from the optimizer
    spec_part = mini_scenario(mode="jsr-matrix", targets=(), hidden=("C",),
                              powers=wide)
    res_part = run_scenario(spec_part)
    assert "before_norm_jsr_db" not in res_part.extras
    plain = run_scenario(mini_scenario(mode="jsr-matrix", targets=(),
                                       powers=wide))
    row_part = next(r for r in res_part.rows if r.targets == ("A",))
    row_plain = next(r for r in plain.rows if r.targets == ("A",))
    assert row_part.norm_jsr_db != row_plain.norm_jsr_db

    # The un-minimized hidden devices end up with noticeably higher JSR
    # than in the experiment where they are visible to the optimizer.
    def others_mean(result):
        vals = []
        for row in result.rows:
            vals.extend(v for d, v in row.norm_jsr_db.items()
                        if d != row.targets[0])
        return np.mean(vals)

    assert others_mean(res_all) > others_mean(plain) + 10.0


def test_hidden_concentration_emerges_at_full_scale():
    # Needs the full surface: selective focus with only the access point
    # visible relies on the large-surface focusing advantage.
    spec = desk_scenario("jsr-matrix", seed=28,
                         hidden=tuple(f"D{i}" for i in range(1, 11)),
                         powers=PowerSettings(sweep_to_dbm=10.0),
                         optimizer=OptimizerSettings(steps=4000))
    res = run_jsr_matrix(spec, threads=4)

    def frac_at_least_target(rows):
        vals = []
        for label, row in rows:
            vals.extend(v >= 0 for d, v in row.items() if d != label)
        return np.mean(vals)

    before = frac_at_least_target(res.extras["before_norm_jsr_db"].items())
    after = frac_at_least_target(
        (r.targets[0], r.norm_jsr_db) for r in res.rows)
    # pre-optimization: scatter around the target; afterwards: diagonal
    assert 0.3 <= before <= 0.7
    assert after <= before - 0.2


# -- dict round trip ----------------------------------------------------------------


def test_scenario_dict_round_trip():
    spec = mini_scenario(hidden=("C",))
    doc = scenario_to_dict(spec)
    rebuilt = scenario_from_dict(doc)
    assert scenario_to_dict(rebuilt) == doc


def test_scenario_from_dict_defaults_to_desk():
    spec = scenario_from_dict({"mode": "packet-rate", "targets": ["D1"]})
    assert spec.optimizer.steps == 10000
    assert spec.optimizer.table_size == 100
    assert set(spec.eval_devices()) == set(DESK_DEVICES) - {"D0"}
    env = spec.environment
    assert env.frequency_hz == pytest.approx(5.56e9)


def test_scenario_from_dict_rejects_unknown_fields():
    with pytest.raises(ScenarioError, match="unknown field"):
        scenario_from_dict({"mode": "packet-rate", "targets": ["D1"],
                            "bogus": 1})
    with pytest.raises(ScenarioError, match="optimizer"):
        scenario_from_dict({"mode": "packet-rate", "targets": ["D1"],
                            "optimizer": {"steppes": 3}})


@pytest.mark.parametrize("mode,targets,params,fieldpath", [
    ("exclusion", (), {"exclude": ["D1"]}, "mode_params.exclude"),
    ("displacement", ("D1",), {"minimized": ["D2"]}, "mode_params.minimized"),
    ("perturbation", ("D1",), {"schedule": [{"time": 1, "device": ["D1"]}]},
     "mode_params.schedule[0].device"),
], ids=["exclude", "minimized", "schedule-device"])
def test_unhashable_device_id_is_not_in_the_roster(mode, targets, params,
                                                  fieldpath):
    # A JSON list where a device id belongs fails the roster test with a
    # ScenarioError, not the TypeError a dict lookup would raise.
    with pytest.raises(ScenarioError) as info:
        desk_scenario(mode, targets=targets, mode_params=params)
    assert info.value.fieldpath == fieldpath


def test_desk_roster_shape():
    spec = desk_environment_spec()
    assert len(spec.devices) == 11
    scenario = desk_scenario("packet-rate", targets=("D1",))
    assert scenario.ap_id == "D0"
