import math
import warnings

import pytest

from risjam.channel import synthesize_environment
from risjam.link import (
    DEFAULT_MCS_TABLE,
    LinkState,
    jsr_db,
    packet_rate,
    packet_success_prob,
    rate_adapt_step,
    sjnr_db,
    throughput_mbps,
)
from risjam.ris import random_config

from conftest import make_small_spec


# -- JSR ----------------------------------------------------------------------


def test_jsr_equal_received_power():
    assert jsr_db(0.001, 0.001, -10.0, -10.0) == pytest.approx(0.0)


def test_jsr_ten_db_stronger_jammer():
    assert jsr_db(0.001, 0.001, 0.0, -10.0) == pytest.approx(10.0)


def test_nine_way_split_power_penalty():
    # splitting one coherent focus across nine targets costs 10*log10(9)
    assert 10 * math.log10(9) == pytest.approx(9.54, abs=0.01)


def test_jsr_zero_signal_gain():
    with pytest.raises(ValueError):
        jsr_db(0.001, 0.0, 0.0, 0.0)


def test_jsr_antisymmetric():
    a = jsr_db(0.002, 0.0007, -3.0, -11.0)
    b = jsr_db(0.0007, 0.002, -11.0, -3.0)
    assert a == pytest.approx(-b)


# -- SJNR ---------------------------------------------------------------------


def test_sjnr_noise_limited():
    # jamming 30 dB below the noise floor: plain SNR
    assert sjnr_db(-60.0, -125.0, -95.0) == pytest.approx(35.0, abs=0.01)


def test_sjnr_jamming_limited():
    assert sjnr_db(-60.0, -50.0, -95.0) == pytest.approx(-10.0, abs=0.01)


def test_sjnr_hand_value():
    # sig = jam = -60, noise -95: 0 dB minus 0.0014 dB
    assert sjnr_db(-60.0, -60.0, -95.0) == pytest.approx(-0.001374, abs=1e-5)


# -- packet success -----------------------------------------------------------


def test_success_at_threshold_is_half():
    for mcs in range(8):
        thr = DEFAULT_MCS_TABLE.threshold(mcs)
        assert packet_success_prob(thr, mcs) == pytest.approx(0.5)


def test_success_saturates():
    thr = DEFAULT_MCS_TABLE.threshold(3)
    assert packet_success_prob(thr + 10, 3) > 0.999
    assert packet_success_prob(thr - 10, 3) < 0.001


def test_success_far_below_threshold_is_zero_without_a_warning():
    # exp(-z) overflows to inf past about 355 dB below a threshold; the
    # probability is then the exact 0.0 it rounds to.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mcs in range(8):
            assert packet_success_prob(-1e4, mcs) == 0.0


def test_mcs0_midpoint_18db_below_mcs7():
    assert DEFAULT_MCS_TABLE.threshold(7) - DEFAULT_MCS_TABLE.threshold(0) \
        == pytest.approx(18.0)


def test_mcs_table_validation():
    t = DEFAULT_MCS_TABLE.sjnr_thresholds_db
    r = DEFAULT_MCS_TABLE.data_rates_mbps
    assert len(t) == len(r) == 8
    assert all(b > a for a, b in zip(t, t[1:]))
    assert t[7] - t[0] == pytest.approx(18.0, abs=1e-9)
    assert r[7] / r[0] == pytest.approx(10.0, abs=1e-9)
    with pytest.raises(ValueError, match="0..7"):
        DEFAULT_MCS_TABLE.threshold(8)


# -- rate adaptation ----------------------------------------------------------


def test_all_failures_step_down():
    state = LinkState(mcs=6).with_window([False] * 50)
    assert rate_adapt_step(state).mcs == 5


def test_floor_at_mcs0():
    state = LinkState(mcs=0).with_window([False] * 50)
    assert rate_adapt_step(state).mcs == 0


def test_two_good_windows_step_up():
    state = LinkState(mcs=3).with_window([True] * 50)
    state = rate_adapt_step(state)
    assert state.mcs == 3 and state.good_streak == 1
    state = rate_adapt_step(state.with_window([True] * 50))
    assert state.mcs == 4 and state.good_streak == 0


def test_cap_at_mcs7():
    state = LinkState(mcs=7, good_streak=1).with_window([True] * 50)
    assert rate_adapt_step(state).mcs == 7


def test_middling_window_resets_streak():
    state = LinkState(mcs=3, good_streak=1).with_window([True] * 35 + [False] * 15)
    out = rate_adapt_step(state)
    assert out.mcs == 3 and out.good_streak == 0


def test_window_cleared_after_decision():
    out = rate_adapt_step(LinkState(mcs=2).with_window([True] * 10))
    assert out.window == ()


def test_window_required():
    with pytest.raises(ValueError):
        rate_adapt_step(LinkState(mcs=2))


def test_window_size_cap():
    with pytest.raises(ValueError):
        LinkState().with_window([True] * 51)


# -- throughput ---------------------------------------------------------------


def test_throughput_zero_success():
    assert throughput_mbps(LinkState(mcs=5, offered_load_mbps=30), 0.0) == 0.0


def test_throughput_offered_load_cap():
    assert throughput_mbps(LinkState(mcs=7, offered_load_mbps=30), 1.0) == 30.0


def test_throughput_mid_mcs_matches_expected_goodput():
    # 52 Mbps PHY at 90% success and 0.55 efficiency: ~25 Mbps delivered
    got = throughput_mbps(LinkState(mcs=5, offered_load_mbps=30), 0.9)
    assert got == pytest.approx(25.7, abs=1.0)


def test_throughput_requires_load():
    with pytest.raises(ValueError):
        throughput_mbps(LinkState(offered_load_mbps=0.0), 1.0)


# -- monitor-mode packet rate --------------------------------------------------


@pytest.fixture(scope="module")
def env():
    return synthesize_environment(make_small_spec(n_elements=64), 8)


def test_packet_rate_saturates_without_jamming(env):
    cfg = random_config(64, 1)
    rate = packet_rate(env, cfg, -160.0, 15.0, "A", "D0")
    assert rate == pytest.approx(100.0, abs=0.5)


def test_packet_rate_zero_under_heavy_jamming(env):
    cfg = random_config(64, 1)
    rate = packet_rate(env, cfg, 60.0, 15.0, "A", "D0")
    assert rate < 0.5


def test_packet_rate_unknown_device(env):
    with pytest.raises(KeyError):
        packet_rate(env, random_config(64, 1), 0.0, 15.0, "nope", "D0")
