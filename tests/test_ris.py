import numpy as np
import pytest

from risjam.ris import (
    _COEFFICIENTS,
    RisConfig,
    compose_channel,
    enumerate_configs,
    hamming_distance,
    random_config,
)


def test_coherent_sum():
    cfg = RisConfig([0, 0])
    assert compose_channel(cfg, [1 + 0j, 1 + 0j]) == 2 + 0j


def test_perfect_cancellation():
    cfg = RisConfig([0, 1])
    assert compose_channel(cfg, [1 + 0j, 1 + 0j]) == 0


def test_compose_matches_direct_summation(rng):
    # independent summation oracle
    h = rng.normal(size=8) + 1j * rng.normal(size=8)
    bits = rng.integers(0, 2, 8)
    cfg = RisConfig(bits)
    expected = sum((1 if b == 0 else -1) * hv for b, hv in zip(bits, h))
    assert compose_channel(cfg, h) == pytest.approx(expected, rel=1e-12)


def test_compose_length_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        compose_channel(RisConfig([0, 1]), [1 + 0j])


def test_bits_validation():
    with pytest.raises(ValueError):
        RisConfig([0, 2, 1])
    with pytest.raises(ValueError):
        RisConfig([])


@pytest.mark.parametrize("bits", [
    # Each casts to a valid uint8 bit vector; the values are checked first.
    [0.5, 1], [1.9, 0], [256, 1], [-255, 1],
    np.array([257, 0], dtype=np.uint16), np.array([1.0, 1e-9]),
])
def test_bits_checked_before_the_cast(bits):
    with pytest.raises(ValueError, match="0 or 1"):
        RisConfig(bits)


@pytest.mark.parametrize("bits", [
    [1, 0], [True, False], np.array([1.0, 0.0], dtype=np.float32),
    np.array([[1, 0], [0, 1]])[:, 0],
])
def test_bits_of_any_numeric_dtype_are_accepted(bits):
    cfg = RisConfig(bits)
    assert cfg.bits.dtype == np.uint8 and cfg.bits.flags.c_contiguous
    assert cfg == RisConfig(np.array([1, 0], dtype=np.uint8))


def test_config_immutable():
    cfg = RisConfig([0, 1, 1])
    with pytest.raises(AttributeError):
        cfg.bits = np.array([1, 1, 1])
    with pytest.raises(ValueError):
        cfg.bits[0] = 1


def test_random_config_deterministic():
    assert random_config(768, 4) == random_config(768, 4)
    assert random_config(768, 4) != random_config(768, 5)


def test_random_config_single_bit():
    cfg = random_config(1, 0)
    assert len(cfg) == 1
    assert cfg.bits[0] in (0, 1)


def test_random_pairs_expected_hamming_distance():
    # Fair independent bits: mean distance over pairs approaches L/2 = 384.
    distances = [
        hamming_distance(random_config(768, 2 * i), random_config(768, 2 * i + 1))
        for i in range(1000)
    ]
    assert np.mean(distances) == pytest.approx(384, abs=3)


def test_hamming_identity_and_complement():
    cfg = random_config(768, 1)
    assert hamming_distance(cfg, cfg) == 0
    flipped = RisConfig(1 - cfg.bits)
    assert hamming_distance(cfg, flipped) == 768


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(RisConfig([0]), RisConfig([0, 1]))


def test_enumerate_small_spaces():
    assert len(list(enumerate_configs(2))) == 4
    configs = list(enumerate_configs(8))
    assert len(configs) == 256
    assert len({c.to_hex() for c in configs}) == 256


def test_enumerate_lexicographic_order():
    configs = list(enumerate_configs(2))
    assert [tuple(c.bits) for c in configs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_cap():
    with pytest.raises(ValueError, match="capped"):
        next(enumerate_configs(21))


def test_hex_round_trip():
    for length in (1, 4, 5, 8, 13, 768):
        cfg = random_config(length, length)
        blob = cfg.to_json()
        assert len(blob["hex"]) == -(-length // 4)
        assert RisConfig.from_hex(blob["hex"], blob["length"]) == cfg


def test_hex_rejects_bad_padding():
    cfg = RisConfig([1, 1, 1])       # hex "e"
    assert cfg.to_hex() == "e"
    with pytest.raises(ValueError, match="padding"):
        RisConfig.from_hex("f", 3)   # padding bit set


def test_hex_rejects_wrong_length():
    with pytest.raises(ValueError, match="does not match"):
        RisConfig.from_hex("ab", 4)


def test_coefficients_mapping():
    cfg = RisConfig([0, 1])
    np.testing.assert_array_equal(cfg.coefficients(), [1.0, -1.0])


@pytest.mark.parametrize("dtype", [np.uint8, np.float32])
def test_coefficients_read_the_one_bit_table(rng, dtype):
    # The float64 coefficients are 1 - 2 * bits bit for bit and, cast to
    # complex, the oracle's lookup of the same table.
    for length in (1, 7, 768):
        bits = rng.integers(0, 2, length).astype(dtype)
        got = RisConfig(bits).coefficients()
        assert got.dtype == np.float64
        assert got.tobytes() == (1.0 - 2.0 * bits.astype(float)).tobytes()
        lookup = _COEFFICIENTS.take(bits.astype(np.uint8))
        assert got.astype(complex).tobytes() == lookup.tobytes()
