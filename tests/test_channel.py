import csv
import json
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjam import channel
from risjam.channel import (
    Position,
    ScenarioError,
    direct_channel,
    environment_from_dict,
    environment_to_dict,
    expected_spatial_correlation,
    first_correlation_null_m,
    move_device,
    path_loss_db,
    path_loss_gain,
    perturb_environment,
    read_json,
    received_rssi,
    ris_subchannels,
    ris_subchannels_batch,
    save_environment,
    spatial_correlation,
    synthesize_environment,
)
from risjam.ris import random_config

from conftest import environments_equal, make_small_spec


def test_wavelength_from_default_frequency(small_env):
    # 299792458 / 5.56e9 = 53.92 mm by hand
    assert small_env.wavelength_m * 1000 == pytest.approx(53.9195, abs=1e-3)


def test_same_seed_reproduces_identical_environment():
    spec = make_small_spec()
    a = synthesize_environment(spec, 7)
    b = synthesize_environment(spec, 7)
    assert environments_equal(a, b)
    assert json.dumps(environment_to_dict(a)) == json.dumps(environment_to_dict(b))


def test_different_seed_changes_ensembles():
    spec = make_small_spec()
    a = synthesize_environment(spec, 7)
    b = synthesize_environment(spec, 8)
    assert not environments_equal(a, b)


def test_ensemble_counting():
    # 4 devices in the roster plus the attacker: 5 direct ensembles
    env = synthesize_environment(make_small_spec(n_elements=24), 3)
    assert len(env.direct) == 5
    assert env.attacker_id in env.direct
    for ensemble, waves in [(env.ris, (24, 32))] + [
            (ens, (32,)) for ens in env.direct.values()]:
        assert ensemble.keys() == {"kx", "ky", "cis", "los"}
        for name in ("kx", "ky", "cis"):
            assert ensemble[name].shape == waves
            assert not ensemble[name].flags.writeable
        assert ensemble["los"].shape == waves[:-1] + (2,)
        assert not ensemble["los"].flags.writeable


def test_desk_roster_ensemble_counting():
    # 11-device roster with the full surface: 768 element ensembles plus
    # 12 direct ensembles (11 devices and the attacker)
    from risjam.scenarios import desk_environment_spec
    env = synthesize_environment(desk_environment_spec(), 1)
    assert env.ris["kx"].shape[0] == 768
    assert len(env.direct) == 12


def test_duplicate_device_ids_rejected():
    with pytest.raises(ValueError, match="duplicate device id"):
        make_small_spec(devices=[("A", Position(1, 1, 1)),
                                 ("A", Position(2, 2, 1))])


def test_small_scatter_count_rejected():
    with pytest.raises(ValueError, match="scatter_count"):
        make_small_spec(scatter_count=8)


def test_too_close_entities_rejected():
    with pytest.raises(ValueError, match="closer than"):
        make_small_spec(devices={
            "A": Position(1.0, 1.0, 1.0),
            "B": Position(1.0, 1.0, 1.0),
            "D0": Position(2.0, 2.0, 1.0),
        })


def _coefficients(env):
    """A configuration's coefficients: L fair signs, the same every call."""
    return random_config(env.n_elements, 5).coefficients()


def test_batch_matches_single(small_env):
    pts = [Position(x, y, 1.0) for y in (1.0, 2.5) for x in (1.5, 2.0)]
    coeff = _coefficients(small_env)
    batch = ris_subchannels_batch(small_env, pts, coeff)
    assert batch.shape == (4,)
    for i, p in enumerate(pts):
        np.testing.assert_allclose(
            batch[i], ris_subchannels(small_env, p) @ coeff, rtol=1e-12)
    with pytest.raises(ValueError, match="coefficients"):
        ris_subchannels_batch(small_env, pts, coeff[:-1])


_GRID = [Position(x, y, 1.0) for y in np.linspace(0.8, 1.2, 5)
         for x in np.linspace(1.7, 2.3, 7)]
_RAIL = [Position(x, 1.1, 0.8) for x in 1.7 + 0.004 * np.arange(12)]


@pytest.mark.parametrize("points", [_GRID, _RAIL], ids=["grid", "rail"])
def test_batch_matches_per_point_evaluator(points):
    env = synthesize_environment(
        make_small_spec(rician_k=2.0, pattern_diversity=0.5), 99)
    coeff = _coefficients(env)
    batch = ris_subchannels_batch(env, points, coeff, device="A")
    ref = np.stack([ris_subchannels(env, p, device="A")
                    for p in points]) @ coeff
    rms = np.sqrt(np.mean(np.abs(ref) ** 2))
    assert batch.shape == (len(points),)
    assert np.max(np.abs(batch - ref)) <= 1e-12 * rms


# 77 elements: ten blocks, the last one short.  The grid holds x = 0 and
# y = 0 exactly.
_SPLIT_GRID = [Position(x, y, 1.0) for y in (-0.1, 0.0, 0.4)
               for x in (-0.2, -0.07, 0.0, 0.11, 0.25)]


def _split_env():
    return synthesize_environment(
        make_small_spec(n_elements=77, rician_k=2.0, pattern_diversity=0.5),
        99)


@pytest.mark.parametrize("device", ["A", None])
def test_batch_is_byte_equal_at_every_thread_count(monkeypatch, device):
    env = _split_env()
    coeff = _coefficients(env)
    monkeypatch.setattr(channel, "_field_threads", lambda: 1)
    serial = ris_subchannels_batch(env, _SPLIT_GRID, coeff, device=device)
    # 64 is more threads than work items.
    for width in (2, 3, 64):
        monkeypatch.setattr(channel, "_field_threads", lambda: width)
        got = ris_subchannels_batch(env, _SPLIT_GRID, coeff, device=device)
        assert got.tobytes() == serial.tobytes(), width


def _unblocked_row(env, pos, device):
    """ris_subchannels as one unblocked expression, with the exponentials
    a named array so that NumPy's temporary elision cannot reorder
    `cis * waves`."""
    kx, ky, cis = env.ris["kx"], env.ris["ky"], env.ris["cis"]
    waves = np.exp(1j * (kx * pos.x + ky * pos.y))
    terms = cis * waves
    weights = env.pattern_weights.get(device)
    if weights is not None:
        terms = terms * weights
    diffuse = terms.sum(axis=-1) / math.sqrt(terms.shape[-1])
    amp = math.sqrt(path_loss_gain(env,
                                   env.attacker_position.distance_to(pos)))
    return amp * channel._combine_rician(env, diffuse, env.ris["los"], pos.x,
                                         pos.y)


def _field_spec(size):
    if size == "desk":
        from risjam.scenarios import desk_environment_spec
        return replace(desk_environment_spec(), rician_k=2.0,
                       pattern_diversity=0.5)
    n_elements, scatter_count = size
    return make_small_spec(n_elements=n_elements, scatter_count=scatter_count,
                           rician_k=2.0, pattern_diversity=0.5)


# The desk surface (768 x 256) and 64 x 256 hold 256 KiB of terms or more,
# 48 x 32 and 63 x 256 less.  Blocks of 7 rows divide neither 768 nor 48.
@pytest.mark.parametrize("block", [64, 7])
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("size", ["desk", (48, 32), (64, 256), (63, 256)],
                         ids=["768x256", "48x32", "64x256", "63x256"])
def test_blocked_field_is_byte_equal_to_unblocked_expressions(
        monkeypatch, size, width, block):
    monkeypatch.setattr(channel, "_field_threads", lambda: width)
    monkeypatch.setattr(channel, "_FIELD_BLOCK", block)
    env = synthesize_environment(_field_spec(size), 31)
    L, M = env.n_elements, env.scatter_count

    angles, phases = channel._draw(
        np.random.default_rng([31, channel._STREAM_ENSEMBLES]), (L, M))
    for name, wave in (("kx", env.kappa * np.cos(angles)),
                       ("ky", env.kappa * np.sin(angles)),
                       ("cis", np.exp(1j * phases))):
        assert env.ris[name].tobytes() == wave.tobytes(), name

    off = Position(1.234, 0.77, 0.9)
    for device in [None, *sorted(env.devices)]:
        for pos in (env.devices.get(device, off), off):
            got = ris_subchannels(env, pos, device)
            assert got.tobytes() == _unblocked_row(env, pos, device).tobytes()


def _gap_classes(u, kappa):
    """The first gap of each distinct gap's class on the sorted axis values
    ``u``: sorted, a gap within 2**-27 / kappa of its class's first gap
    joins that class, and any other gap starts a class."""
    first, head = {}, None
    for gap in sorted(set(np.diff(u).tolist())):
        if head is None or gap - head > 2 ** -27 / kappa:
            head = gap
        first[gap] = head
    return first


def _chain(k, u, first, anchor):
    """The phasors of one element's waves ``k`` at the sorted axis values
    ``u``, written out value by value: ``anchor(j)`` at every
    channel._CHAIN-th value, else the previous phasor times the phasor of
    the gap to it.  A gap's phasor is the exponential at its class's first
    gap g (``first``), times complex(1, k*(gap - g)) if it is not g."""
    waves = np.empty((len(u), len(k)), dtype=complex)
    for j in range(len(u)):
        if j % channel._CHAIN == 0:
            waves[j] = anchor(j)
            continue
        gap = u[j] - u[j - 1]
        step = np.exp(1j * (first[gap] * k))
        if gap != first[gap]:
            factor = np.ones(len(k), dtype=complex)
            factor.imag = k * (gap - first[gap])
            step = step * factor
        waves[j] = waves[j - 1] * step
    return waves


def _per_block_batch(env, points, coefficients, device):
    """ris_subchannels_batch written out.  Per block of
    channel._BATCH_BLOCK elements: each element's phasors on written-out
    chains, the x chain exactly 1 at the first x value x0 and exp(i*kx*(x -
    x0)) at its other anchors, the y chain's anchors the coefficient times
    the unit phasor (times the pattern weight) times exp(i(ky*y + kx*x0)),
    then one (Uy, b*M) @ (b*M, Ux) product over the whole grid, or on a
    one-row or one-column grid the products summed over the b*M waves.  At
    most channel._BATCH_PARTS runs of blocks each add their blocks in order
    from zero, and the runs' sums are added in order.  The line-of-sight
    waves are composed the same way, in blocks of channel._BATCH_BLOCK * M
    elements."""
    pts = np.array([tuple(p) for p in points])
    ux, ix = np.unique(pts[:, 0], return_inverse=True)
    uy, iy = np.unique(pts[:, 1], return_inverse=True)
    x_first, y_first = (_gap_classes(u, env.kappa) for u in (ux, uy))

    def composed(kx, ky, cis, weights, block):
        starts = list(range(0, len(kx), block))
        parts = min(len(starts), channel._BATCH_PARTS)
        total = None
        for i in range(parts):
            partial = np.zeros(len(pts), dtype=complex)
            for start in starts[len(starts) * i // parts:
                                len(starts) * (i + 1) // parts]:
                els = range(start, min(start + block, len(kx)))
                scale = cis[els] if weights is None \
                    else cis[els] * weights[els]
                scale = coefficients[els][:, None] * scale
                ey = np.stack([_chain(
                    ky[el], uy, y_first,
                    lambda j: scale[n] * np.exp(
                        1j * (uy[j] * ky[el] + kx[el] * ux[0])))
                    for n, el in enumerate(els)], axis=1)
                ey = ey.reshape(len(uy), -1)
                ex = np.stack([_chain(
                    kx[el], ux, x_first,
                    lambda j: 1.0 if j == 0
                    else np.exp(1j * ((ux[j] - ux[0]) * kx[el])))
                    for el in els], axis=1)
                ex = ex.reshape(len(ux), -1)
                if 1 in (len(ux), len(uy)):
                    fields = (ey * ex).sum(axis=-1).reshape(len(uy), len(ux))
                else:
                    fields = ey @ ex.T
                partial += fields[iy, ix]
            total = partial if total is None else total + partial
        return total

    M, k = env.scatter_count, env.rician_k
    field = composed(env.ris["kx"], env.ris["ky"], env.ris["cis"],
                     env.pattern_weights.get(device), channel._BATCH_BLOCK)
    field = field / math.sqrt(M)
    if k:
        angle, phase = env.ris["los"][:, 0], env.ris["los"][:, 1]
        wave = composed((env.kappa * np.cos(angle))[:, None],
                        (env.kappa * np.sin(angle))[:, None],
                        np.exp(1j * phase)[:, None], None,
                        channel._BATCH_BLOCK * M)
        field = math.sqrt(k / (k + 1.0)) * wave \
            + math.sqrt(1.0 / (k + 1.0)) * field
    dists = np.linalg.norm(pts - np.array(tuple(env.attacker_position)),
                           axis=1)
    ref = (env.wavelength_m / (4.0 * math.pi)) ** 2
    return np.sqrt(ref * dists ** -env.path_loss_exponent) * field


# 70 x values: three chains of channel._CHAIN = 32 and two tiles of
# channel._TILE = 64.
@pytest.mark.parametrize("rows", [21, 3])
def test_batch_is_byte_equal_to_written_out_expression(rows):
    env = synthesize_environment(_field_spec("desk"), 31)
    grid = [Position(x, y, 1.0) for y in np.linspace(3.0, 3.4, rows)
            for x in np.linspace(0.5, 0.9, 70)]
    coeff = _coefficients(env)
    got = ris_subchannels_batch(env, grid, coeff, device="D2")
    assert got.tobytes() == _per_block_batch(env, grid, coeff,
                                             "D2").tobytes()


def _axis(gaps, n=70):
    """n values from 1.0 whose neighbours lie the dyadic ``gaps`` apart in
    turn, so that np.diff gives exactly len(gaps) distinct gaps."""
    steps = [gaps[i % len(gaps)] for i in range(n - 1)]
    return np.concatenate([[1.0], 1.0 + np.cumsum(steps)])


# Each axis with its number of distinct gaps and of gap classes.  The
# x0 + step * i axes hold gaps an ulp or two apart, which share a class.
# At 5.56 GHz, 2**-27 / kappa is 6.4e-11 m: gaps 2**-36 m apart share a
# class, gaps 2**-33 m apart do not.
_CHAIN_AXES = {
    "1gap": (_axis([2 ** -7]), 1, 1),
    "2gaps": (_axis([2 ** -7, 2 ** -6]), 2, 2),
    "3gaps": (_axis([2 ** -7, 2 ** -6, 3 * 2 ** -7]), 3, 3),
    "merged2gaps": (_axis([2 ** -7, 2 ** -7 + 2 ** -36]), 2, 1),
    "apart2gaps": (_axis([2 ** -7, 2 ** -7 + 2 ** -33]), 2, 2),
    "jittered2gaps": (1.1 + 0.003 * np.arange(70), 2, 1),
    "jittered3gaps": (1.0 + 0.01 * np.arange(70), 3, 1),
}


@pytest.mark.parametrize("rows", [1, 3], ids=["row", "grid"])
@pytest.mark.parametrize("gaps", sorted(_CHAIN_AXES))
def test_batch_chains_are_byte_equal_to_written_out_chains(gaps, rows):
    env = _split_env()
    xs, distinct, classes = _CHAIN_AXES[gaps]
    assert len(np.unique(np.diff(xs))) == distinct
    assert len(set(_gap_classes(xs, env.kappa).values())) == classes
    grid = [Position(x, y, 1.0) for y in 2.0 + 2 ** -5 * np.arange(rows)
            for x in xs]
    coeff = _coefficients(env)
    got = ris_subchannels_batch(env, grid, coeff, device="A")
    assert got.tobytes() == _per_block_batch(env, grid, coeff, "A").tobytes()
    # A one-column grid: the x and y roles swapped.
    column = [Position(1.0, y, 1.0) for y in xs]
    got = ris_subchannels_batch(env, column, coeff, device="A")
    assert got.tobytes() == _per_block_batch(env, column, coeff,
                                             "A").tobytes()


def _expi_elements(monkeypatch, work):
    """The number of phases ``work()`` passes to channel._expi."""
    count = [0]
    expi = channel._expi

    def counted(phase):
        count[0] += np.size(phase)
        return expi(phase)

    monkeypatch.setattr(channel, "_expi", counted)
    work()
    monkeypatch.setattr(channel, "_expi", expi)
    return count[0]


def test_desk_grid_takes_three_exponentials_per_wave(monkeypatch):
    # The x chain starts at 1 and its one gap class takes one; the y
    # anchor (with kx*x0 folded in) and the y gap class one each.  The
    # grid's gaps, x0 + 0.01*i, differ in the last bits.
    from risjam.scenarios import desk_environment_spec
    env = synthesize_environment(desk_environment_spec(), 28)
    grid = _desk_scan_grid(env)
    assert len(np.unique(np.diff(np.unique([p.x for p in grid])))) > 1
    coeff = _coefficients(env)
    count = _expi_elements(
        monkeypatch,
        lambda: ris_subchannels_batch(env, grid, coeff, device="D1"))
    assert count == 3 * env.n_elements * env.scatter_count


def test_rail_exponentials_do_not_grow_with_its_tiles(monkeypatch):
    # 2 000 points 1 mm apart: 63 x anchors (the first is exactly 1), one
    # gap class and one y anchor per wave, in 32 tiles of 64 values or in
    # one tile alike.
    env = synthesize_environment(make_small_spec(n_elements=16), 28)
    focus = env.devices["A"]
    rail = [Position(focus.x + 0.001 * i, focus.y, focus.z)
            for i in range(2000)]
    coeff = _coefficients(env)
    counts = []
    for tile in (64, 2048):
        monkeypatch.setattr(channel, "_TILE", tile)
        counts.append(_expi_elements(
            monkeypatch, lambda: ris_subchannels_batch(env, rail, coeff)))
    assert counts == [64 * env.n_elements * env.scatter_count] * 2


def test_batch_takes_positions_as_one_array(small_env):
    grid = _GRID
    coeff = _coefficients(small_env)
    want = ris_subchannels_batch(small_env, np.array(grid), coeff)
    for given in (grid, [tuple(p) for p in grid], iter(grid)):
        got = ris_subchannels_batch(small_env, given, coeff)
        assert got.tobytes() == want.tobytes()
    assert ris_subchannels_batch(small_env, [], coeff).shape == (0,)
    for bad, match in (
            ([(2.0, 1.0, 1.0), (np.nan, 1.0, 1.0)], "must be finite, got "
             r"Position\(x=nan, y=1.0, z=1.0\)"),
            (np.array([(2.0, 1.0, 1.0), (2.0, np.inf, 1.0)]),
             r"must be finite, got Position\(x=2.0, y=inf, z=1.0\)"),
            ([(2.0, 1.0, 1.0), (2.0, 1.0)], "needs 3 coordinates, got 2"),
            (np.ones((4, 4)), "needs 3 coordinates, got 4")):
        with pytest.raises(ValueError, match=match):
            ris_subchannels_batch(small_env, bad, coeff)


# Point sets that are not a row-major grid: a row of points per y value,
# x varying fastest, both axes strictly increasing.
_NOT_GRIDS = {
    "scattered": [Position(x, y, z) for x, y, z in
                  np.random.default_rng(3).uniform((0.5, 0.5, 0.5),
                                                   (3.0, 3.0, 1.5), (20, 3))],
    "repeated": [Position(2.0, 1.0, 1.0), Position(2.0, 1.0, 1.0)],
    "unsorted": [Position(x, y, 1.0) for y in (1.0, 1.3)
                 for x in (2.0, 1.4, 2.6)],
    "column-major": [Position(x, y, 1.0) for x in (1.4, 2.0, 2.6)
                     for y in (1.0, 1.3)],
    "ragged": _GRID[:-1],
}


@pytest.mark.parametrize("points", sorted(_NOT_GRIDS))
def test_batch_rejects_points_that_are_not_a_grid(small_env, points):
    with pytest.raises(ValueError, match="row-major grid"):
        ris_subchannels_batch(small_env, _NOT_GRIDS[points],
                              _coefficients(small_env))


def test_batch_rejects_an_axis_of_more_gap_classes_than_a_tile(small_env):
    # 70 values whose 69 gaps lie 1e-5 m apart: 69 classes, more than
    # channel._TILE = 64.
    row = [Position(x, 1.0, 1.0)
           for x in 1.0 + np.cumsum(0.001 + 1e-5 * np.arange(70))]
    with pytest.raises(ValueError, match="69 classes of gaps exceeds 64"):
        ris_subchannels_batch(small_env, row, _coefficients(small_env))


def _desk_scan_grid(env, device="D1"):
    """The benchmark heatmap's 31 x 21 grid, 1 cm apart, around a device."""
    focus = env.devices[device]
    return [Position(focus.x + 0.01 * (i - 15), focus.y + 0.01 * (j - 10),
                     focus.z) for j in range(21) for i in range(31)]


def test_batch_chains_keep_long_double_accuracy_on_the_desk_grid():
    # The composed sum over all 768 elements, with the line-of-sight term
    # and pattern weights, against the field summed in long double.  A
    # plane wave is exp(i*kx*x) * exp(i*ky*y) there too, so the reference
    # takes one exponential per wave and distinct axis value.
    env = synthesize_environment(_field_spec("desk"), 28)
    grid = _desk_scan_grid(env)
    coeff = _coefficients(env)
    got = ris_subchannels_batch(env, grid, coeff, device="D1")
    ld = np.longdouble
    pts = np.array(grid, dtype=ld)
    ux, ix = np.unique(pts[:, 0], return_inverse=True)
    uy, iy = np.unique(pts[:, 1], return_inverse=True)
    kx, ky = (env.ris[name].astype(ld) for name in ("kx", "ky"))
    scale = (env.ris["cis"].astype(np.clongdouble)
             * env.pattern_weights["D1"].astype(np.clongdouble)
             * coeff[:, None])
    diffuse = np.zeros((len(uy), len(ux)), dtype=np.clongdouble)
    for els in np.array_split(np.arange(env.n_elements), 12):
        ey = scale[els] * np.exp(1j * (uy[:, None, None] * ky[els]))
        ex = np.exp(1j * (ux[:, None, None] * kx[els]))
        diffuse += np.einsum("yk,xk->yx", ey.reshape(len(uy), -1),
                             ex.reshape(len(ux), -1))
    diffuse = diffuse[iy, ix] / np.sqrt(ld(env.scatter_count))
    kappa = 2 * np.pi / (ld(channel.SPEED_OF_LIGHT) / ld(env.frequency_hz))
    angle, phase = (env.ris["los"][:, i].astype(ld) for i in (0, 1))
    wave = np.exp(1j * (kappa * (pts[:, :1] * np.cos(angle)
                                 + pts[:, 1:2] * np.sin(angle)) + phase))
    k = ld(env.rician_k)
    field = (np.sqrt(k / (k + 1)) * (wave @ coeff.astype(ld))
             + np.sqrt(1 / (k + 1)) * diffuse)
    dists = np.linalg.norm(
        pts - np.array(tuple(env.attacker_position), dtype=ld), axis=1)
    ref_gain = (ld(env.wavelength_m) / (4 * np.pi)) ** 2
    want = np.sqrt(ref_gain * dists ** -env.path_loss_exponent) * field
    rms = np.sqrt(np.mean(np.abs(want) ** 2))
    assert np.max(np.abs(got - want)) <= 2e-13 * rms


# 97 values per axis: tiles of 32 end in one of 33 values, tiles of 96 in
# one of 97, so the last tile takes a lone value in.  Blocks of 5 and 16
# split 77 elements unevenly.
_TILED_GRIDS = {
    "grid": [Position(x, y, 1.0) for y in (1.9, 2.0, 2.25)
             for x in np.linspace(0.5, 1.4, 97)],
    "row": [Position(x, 2.0, 1.0) for x in np.linspace(0.5, 1.4, 97)],
    "column": [Position(2.0, y, 1.0) for y in np.linspace(0.5, 1.4, 97)],
}


@pytest.mark.parametrize("points", sorted(_TILED_GRIDS))
def test_batch_bytes_are_the_written_out_blocks_at_every_tile_size(
        monkeypatch, points):
    # The blocks (and the runs of them) group the sum over elements, so
    # they set the bits; the tiles do not.  Three runs of blocks of 5 are
    # 5, 5 and 6 blocks long.
    env = _split_env()
    grid = _TILED_GRIDS[points]
    coeff = _coefficients(env)
    for block, parts in ((5, 8), (5, 3), (8, 8), (16, 8)):
        monkeypatch.setattr(channel, "_BATCH_BLOCK", block)
        monkeypatch.setattr(channel, "_BATCH_PARTS", parts)
        want = _per_block_batch(env, grid, coeff, "A").tobytes()
        for tile in (32, 64, 96, 128):
            monkeypatch.setattr(channel, "_TILE", tile)
            got = ris_subchannels_batch(env, grid, coeff, device="A")
            assert got.tobytes() == want, (block, parts, tile)


class _FailingWaves(np.ndarray):
    """Wave components whose block at element 40 cannot be read."""

    def __getitem__(self, key):
        if isinstance(key, tuple) and key[0] == slice(40, 48):
            raise RuntimeError("block 40 failed")
        return np.asarray(self)[key]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_batch_block_error_propagates_after_every_thread_ends(monkeypatch,
                                                              width):
    env = _split_env()
    env.ris = dict(env.ris, kx=env.ris["kx"].view(_FailingWaves))
    monkeypatch.setattr(channel, "_field_threads", lambda: width)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 40 failed"):
        ris_subchannels_batch(env, _SPLIT_GRID, _coefficients(env),
                              device="A")
    assert threading.active_count() == before


def test_thread_split_takes_every_item_once(monkeypatch):
    # More threads than CPUs and a short switch interval, so threads
    # interleave often; a lost or repeated take breaks the invariant.
    monkeypatch.setattr(channel, "_field_threads", lambda: 8)
    taken = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        channel._in_threads(taken.append, range(5000))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == list(range(5000))


def test_thread_split_reraises_a_worker_error_and_stops(monkeypatch):
    monkeypatch.setattr(channel, "_field_threads", lambda: 3)
    main = threading.current_thread()
    taken = []

    def work(item):
        taken.append(item)
        time.sleep(0.01)
        if threading.current_thread() is not main:
            raise RuntimeError(f"worker failed on {item}")

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        channel._in_threads(work, range(100))
    assert threading.active_count() == before
    # No thread takes an item once an error is recorded.
    assert len(taken) < 10


def test_energy_law_matches_path_loss():
    # Ensemble-average |h|^2 over many elements approaches PL(d).
    spec = make_small_spec(n_elements=768, scatter_count=256)
    env = synthesize_environment(spec, 5)
    pos = Position(2.0, 1.0, 1.0)
    h = ris_subchannels(env, pos)
    pl = path_loss_gain(env, env.attacker_position.distance_to(pos))
    assert np.mean(np.abs(h) ** 2) / pl == pytest.approx(1.0, abs=0.05)


def test_direct_channel_distance_dependence():
    # Monte-Carlo mean over positions: nearer to the source receives more,
    # and doubling the distance costs 6.02 dB at exponent 2.
    env = synthesize_environment(make_small_spec(scatter_count=64), 21)
    src = env.devices["D0"]
    angles = np.linspace(0, 2 * math.pi, 256, endpoint=False)

    def mean_power_db(radius):
        powers = []
        for a in angles:
            p = Position(src.x + radius * math.cos(a),
                         src.y + radius * math.sin(a), src.z)
            powers.append(abs(direct_channel(env, "D0", p)) ** 2)
        return 10 * math.log10(np.mean(powers))

    near, far = mean_power_db(1.0), mean_power_db(8.0)
    assert near > far
    double = mean_power_db(2.0)
    assert near - double == pytest.approx(6.02, abs=1.0)


def test_direct_channel_unknown_source(small_env):
    with pytest.raises(KeyError, match="unknown source"):
        direct_channel(small_env, "nope", Position(1, 1, 1))


def test_direct_channel_rejects_own_position(small_env):
    with pytest.raises(ValueError, match="coincides with source"):
        direct_channel(small_env, "A", small_env.devices["A"])


def test_received_rssi_rounding(small_env):
    assert received_rssi(small_env, -50.2, sigma_db=0) == -50


def test_received_rssi_clamps_to_floor(small_env):
    assert received_rssi(small_env, -120.0, sigma_db=0) == -95


def test_received_rssi_requires_rng_for_noise(small_env):
    with pytest.raises(ValueError, match="rng"):
        received_rssi(small_env, -60.0)


def test_received_rssi_noise_mean(small_env, rng):
    # Law of large numbers: 1e4 noisy quantized samples of -60 dBm
    powers = np.full(10000, -60.0)
    values = received_rssi(small_env, powers, rng, sigma_db=0.5)
    assert values.mean() == pytest.approx(-60.0, abs=0.05)
    assert (powers == -60.0).all()  # the readings are taken on a copy


def test_received_rssi_rejects_non_finite(small_env):
    with pytest.raises(ValueError):
        received_rssi(small_env, float("nan"), sigma_db=0)


def test_spatial_correlation_zero_distance(small_env):
    rho = spatial_correlation(small_env, Position(2, 1, 1), [0.0], 100)
    assert rho[0] == pytest.approx(1.0)


def test_spatial_correlation_first_null(small_env):
    # First zero of the correlation law sits near 20.6 mm at 5.56 GHz.
    null = first_correlation_null_m(small_env.wavelength_m)
    assert null * 1000 == pytest.approx(20.64, abs=0.01)
    rho = spatial_correlation(small_env, Position(2, 1, 1), [null], 1000)
    assert abs(rho[0]) < 0.1


def test_spatial_correlation_half_wavelength(small_env):
    lam = small_env.wavelength_m
    rho = spatial_correlation(small_env, Position(2, 1, 1), [lam / 2], 1000)
    # J0(pi) = -0.3042 computed via the reference Bessel evaluation
    expected = expected_spatial_correlation(lam / 2, lam)
    assert expected == pytest.approx(-0.3042, abs=1e-3)
    assert rho[0].real == pytest.approx(expected, abs=0.05)


def test_spatial_correlation_needs_realizations(small_env):
    with pytest.raises(ValueError, match="realizations"):
        spatial_correlation(small_env, Position(2, 1, 1), [0.01], 50)


@pytest.mark.parametrize("n_elements, scatter_count", [(16, 32), (77, 256)])
def test_synthesis_waves_match_replayed_draws(n_elements, scatter_count):
    # Byte-equal to the plain expressions of a replay of the documented
    # draw order: the surface's angles and phases, its line-of-sight
    # pairs, then per direct transmitter (sorted ids, attacker last) the
    # same three draws.
    env = synthesize_environment(
        make_small_spec(n_elements=n_elements, scatter_count=scatter_count),
        21)
    rng = np.random.default_rng([21, channel._STREAM_ENSEMBLES])
    kappa = env.kappa

    def replayed(shape):
        angles, phases = channel._draw(rng, shape)
        return {"kx": kappa * np.cos(angles), "ky": kappa * np.sin(angles),
                "cis": np.exp(1j * phases),
                "los": np.stack(channel._draw(rng, shape[:-1]), axis=-1)}

    want = {"ris": replayed((n_elements, scatter_count))}
    for key in env.direct_ids():
        want[key] = replayed((scatter_count,))
    assert list(env.direct) == env.direct_ids()
    for key, waves in want.items():
        got = env.ris if key == "ris" else env.direct[key]
        assert got.keys() == waves.keys()
        for name, wave in waves.items():
            assert got[name].dtype == wave.dtype
            assert got[name].tobytes() == wave.tobytes()


@pytest.mark.parametrize("delta", [0.5, 3.0])
@pytest.mark.parametrize("n_elements, scatter_count", [(16, 32), (77, 256)])
def test_pattern_weights_match_replayed_draws(n_elements, scatter_count,
                                              delta):
    # Byte-equal to the complex expression of a replay of the pattern
    # stream: per device (sorted ids) two normal arrays, real then
    # imaginary.
    env = synthesize_environment(
        make_small_spec(n_elements=n_elements, scatter_count=scatter_count,
                        pattern_diversity=delta), 21)
    prng = np.random.default_rng([21, channel._STREAM_PATTERN])
    norm = math.sqrt(1.0 + delta ** 2)
    shape = (n_elements, scatter_count)
    assert list(env.pattern_weights) == sorted(env.devices)
    for key in sorted(env.devices):
        n1 = prng.normal(0.0, math.sqrt(0.5), shape)
        n2 = prng.normal(0.0, math.sqrt(0.5), shape)
        want = (1.0 + delta * (n1 + 1j * n2)) / norm
        got = env.pattern_weights[key]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), key


def _traced_peak(work, warm_up=None):
    """(result, peak traced bytes) of ``work()``, after one untraced call
    of ``warm_up`` (default ``work``) that keeps NumPy's one-time
    allocations out of the count."""
    (warm_up or work)()
    tracemalloc.start()
    try:
        result = work()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_desk_synthesis_peaks_at_its_arrays():
    # The draws go straight into the arrays that keep the waves: no angle
    # or phase array is held next to them.
    from risjam.scenarios import desk_environment_spec
    spec = desk_environment_spec()
    env, peak = _traced_peak(lambda: synthesize_environment(spec, 28))
    arrays = sum(arr.nbytes for ensemble in [env.ris, *env.direct.values()]
                 for arr in ensemble.values())
    assert peak <= arrays + 0.5e6


def test_rician_desk_grid_holds_no_per_element_array(monkeypatch):
    # The benchmark heatmap's 31 x 21 grid on the desk world with a
    # line-of-sight term and pattern weights, at two threads: each holds
    # one tile's phasors, under 2 MB here.  A (P, L) complex array alone
    # is 8 MB; the call peaked at 20.2 MB when it returned one.
    monkeypatch.setattr(channel, "_field_threads", lambda: 2)
    env = synthesize_environment(_field_spec("desk"), 28)
    grid = _desk_scan_grid(env)
    coeff = _coefficients(env)
    gains, peak = _traced_peak(
        lambda: ris_subchannels_batch(env, grid, coeff, device="D1"))
    assert gains.shape == (651,)
    assert peak <= 6e6


def test_long_desk_rail_holds_no_per_element_array(monkeypatch):
    # 2 000 points 1 mm apart, at two threads, as the intermediates scale
    # with the thread count: each holds one tile's phasors, 2 MB.  The
    # (P, L) array alone is 24.6 MB; the call peaked at 33.8 MB when it
    # returned one.
    from risjam.scenarios import desk_environment_spec
    monkeypatch.setattr(channel, "_field_threads", lambda: 2)
    env = synthesize_environment(desk_environment_spec(), 28)
    focus = env.devices["D1"]
    rail = [Position(focus.x + 0.001 * i, focus.y, focus.z)
            for i in range(2000)]
    coeff = _coefficients(env)
    gains, peak = _traced_peak(
        lambda: ris_subchannels_batch(env, rail, coeff, device="D1"),
        warm_up=lambda: ris_subchannels_batch(env, rail[:100], coeff,
                                              device="D1"))
    assert gains.shape == (2000,)
    assert peak <= 8e6


def test_cap_size_grid_peak_does_not_grow_with_the_surface(monkeypatch):
    # A 400 x 250 grid, the scan parsers' cap of 100 000 points, at two
    # threads, on surfaces of 64 and 128 elements (8 and 16 blocks): the
    # call holds channel._BATCH_PARTS = 8 partial rows of P values (1.6 MB
    # each) and P-sized indices, whatever L is.  One (P, L) complex array
    # is 102 MB at L = 64.
    from risjam.scenarios import MAX_SCAN_POINTS
    monkeypatch.setattr(channel, "_field_threads", lambda: 2)
    grid = [Position(0.5 + 0.002 * i, 1.0 + 0.002 * j, 1.0)
            for j in range(250) for i in range(400)]
    assert len(grid) == MAX_SCAN_POINTS
    for n_elements in (64, 128):
        env = synthesize_environment(
            make_small_spec(n_elements=n_elements, scatter_count=16), 5)
        coeff = _coefficients(env)
        gains, peak = _traced_peak(
            lambda: ris_subchannels_batch(env, grid, coeff),
            warm_up=lambda: ris_subchannels_batch(env, grid[:800], coeff))
        assert gains.shape == (len(grid),)
        assert peak <= 30e6, n_elements


@pytest.mark.parametrize("n_elements", [16, 4])
def test_grid_field_bounds_the_waves_per_block(n_elements):
    # A block holds min(n_elements, 8) elements of M waves each: a world
    # at channel.MAX_BLOCK_WAVES runs, and one wave per element more
    # raises.
    rail = [Position(1.0 + 0.01 * i, 1.5, 1.0) for i in range(3)]
    at = channel.MAX_BLOCK_WAVES // min(n_elements, 8)
    for scatter_count, fits in ((at, True), (at + 1, False)):
        env = synthesize_environment(make_small_spec(
            n_elements=n_elements, scatter_count=scatter_count), 5)
        coeff = _coefficients(env)
        if fits:
            assert ris_subchannels_batch(env, rail, coeff).shape == (3,)
        else:
            with pytest.raises(ValueError, match="per scan block"):
                ris_subchannels_batch(env, rail, coeff)


def _shares_arrays(new, old, names=("ris", "direct", "pattern_weights")):
    """Every array in ``old``'s fields ``names`` (dicts of arrays, and
    ``direct`` a dict of such dicts) is the same object in ``new``."""
    for name in names:
        a, b = getattr(new, name), getattr(old, name)
        pairs = ([(a[k][n], b[k][n]) for k in b for n in b[k]]
                 if name == "direct" else [(a[n], b[n]) for n in b])
        assert a.keys() == b.keys()
        assert all(x is y for x, y in pairs), name


def test_perturbation_zero_is_identity(small_env):
    # A copy that keeps the derived waves, equal to the world
    # dataclasses.replace builds, with its own empty gain-row memo.
    ris_subchannels(small_env, small_env.devices["A"], device="A")
    same = perturb_environment(small_env, 0.0, 123)
    built = replace(small_env, perturbations=((0.0, 123),))
    assert environments_equal(same, built)
    assert small_env.perturbations == ()
    assert small_env._rows and same._rows == {}
    _shares_arrays(same, small_env)
    pos = Position(2.2, 1.7, 1.0)
    np.testing.assert_array_equal(ris_subchannels(small_env, pos),
                                  ris_subchannels(same, pos))
    assert ris_subchannels(same, pos).tobytes() \
        == ris_subchannels(built, pos).tobytes()


def _replayed_perturbation(env, fraction, seed):
    """The redrawn waves of perturb_environment, replayed from its documented
    draw order: the surface's argpartition rows, its uniform angles and
    phases, then per direct transmitter (sorted ids, attacker last) a choice
    of scatterers and their angles and phases."""
    L, M = env.n_elements, env.scatter_count
    k = math.ceil(fraction * M)
    rng = np.random.default_rng([seed, channel._STREAM_PERTURB])

    def redrawn(ensemble, at, shape):
        angles = rng.uniform(0.0, 2.0 * math.pi, shape)
        phases = rng.uniform(0.0, 2.0 * math.pi, shape)
        waves = {name: np.array(ensemble[name])
                 for name in ("kx", "ky", "cis")}
        waves["kx"][at] = env.kappa * np.cos(angles)
        waves["ky"][at] = env.kappa * np.sin(angles)
        waves["cis"][at] = np.exp(1j * phases)
        return waves

    rows = np.argpartition(rng.random((L, M)), k - 1, axis=1)[:, :k]
    ris = redrawn(env.ris, (np.arange(L)[:, None], rows), (L, k))
    direct = {}
    for key in sorted(env.devices) + [env.attacker_id]:
        direct[key] = redrawn(env.direct[key],
                              rng.choice(M, size=k, replace=False), k)
    return ris, direct


@pytest.mark.parametrize("fraction", [0.1, 0.3, 1.0])
def test_perturbation_derives_only_redrawn_waves(fraction):
    # Byte-equal to a replay of the documented draws; unchanged arrays are
    # shared.
    env = _diverse_env()
    perturbed = perturb_environment(env, fraction, 8)
    ris, direct = _replayed_perturbation(env, fraction, 8)
    assert perturbed.direct.keys() == direct.keys()
    for got, want, old in [(perturbed.ris, ris, env.ris)] + [
            (perturbed.direct[key], waves, env.direct[key])
            for key, waves in direct.items()]:
        assert got.keys() == old.keys()
        for name, wave in want.items():
            assert got[name].tobytes() == wave.tobytes()
            assert not got[name].flags.writeable
        assert got["los"] is old["los"]
    _shares_arrays(perturbed, env, ("pattern_weights",))
    assert not np.array_equal(perturbed.ris["cis"], env.ris["cis"])
    built = replace(env, ris=dict(env.ris, **ris),
                    direct={key: dict(env.direct[key], **waves)
                            for key, waves in direct.items()},
                    perturbations=((fraction, 8),))
    assert environments_equal(perturbed, built)
    pos = Position(2.2, 1.7, 1.0)
    assert ris_subchannels(perturbed, pos, device="A").tobytes() \
        == ris_subchannels(built, pos, device="A").tobytes()


def test_perturbation_full_decorrelates():
    env = synthesize_environment(make_small_spec(n_elements=500), 9)
    other = perturb_environment(env, 1.0, 77)
    pos = Position(2.2, 1.7, 1.0)
    a = ris_subchannels(env, pos)
    b = ris_subchannels(other, pos)
    rho = np.vdot(a, b) / math.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
    assert abs(rho) < 0.15


def test_perturbation_deterministic(small_env):
    a = perturb_environment(small_env, 0.3, 5)
    b = perturb_environment(small_env, 0.3, 5)
    assert environments_equal(a, b)
    assert a.perturbations == ((0.3, 5),)


def test_perturbation_fraction_bounds(small_env):
    with pytest.raises(ValueError, match="fraction"):
        perturb_environment(small_env, 1.5, 1)


def test_partial_perturbation_keeps_partial_correlation(small_env):
    # Re-drawing 20% of scatterers keeps roughly 80% field correlation.
    env = synthesize_environment(make_small_spec(n_elements=400), 13)
    other = perturb_environment(env, 0.2, 3)
    pos = Position(2.0, 2.0, 1.0)
    a = ris_subchannels(env, pos)
    b = ris_subchannels(other, pos)
    rho = np.vdot(a, b) / math.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
    assert abs(rho) == pytest.approx(0.8, abs=0.1)


def test_serialization_round_trip(tmp_path, small_env):
    path = tmp_path / "env.json"
    save_environment(small_env, path)
    loaded = environment_from_dict(read_json(path, "environment"))
    assert environments_equal(small_env, loaded)
    again = tmp_path / "env2.json"
    save_environment(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_stored_world_read_rejects_duplicate_keys(tmp_path, small_env):
    path = tmp_path / "env.json"
    save_environment(small_env, path)
    text = path.read_text()
    assert text.startswith("{\n")
    path.write_text("{\n \"seed\": 1,\n" + text[2:])
    with pytest.raises(ScenarioError, match="duplicate key 'seed'"):
        read_json(path, "environment")


def test_serialization_round_trip_after_perturbation(tmp_path, small_env):
    env = perturb_environment(small_env, 0.4, 11)
    path = tmp_path / "env.json"
    save_environment(env, path)
    loaded = environment_from_dict(read_json(path, "environment"))
    assert environments_equal(env, loaded)


def test_serialized_document_fields(small_env):
    doc = environment_to_dict(small_env)
    assert set(doc) == {"version", "frequency_hz", "seed", "M",
                        "path_loss_exponent", "noise_floor_dbm", "devices",
                        "ensembles", "pattern_diversity"}
    roles = {entry["id"]: entry["role"] for entry in doc["devices"]}
    assert roles[small_env.attacker_id] == "attacker"


def test_load_rejects_bad_version(small_env):
    doc = environment_to_dict(small_env)
    doc["version"] = 99
    with pytest.raises(ValueError, match="version"):
        environment_from_dict(doc)


def _csv_writer_bytes(path, header, rows):
    """The table as csv.writer writes it, cells formatted as _write_table
    formats them."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [format(v, ".10g") if isinstance(v, float) else str(v)
             for v in row] for row in [header, *rows])
    return path.read_bytes()


# Text cells that csv.writer quotes (a delimiter, a quote, a line break,
# a row's lone empty cell) and some it does not.
_TEXT_CELLS = ["plain", "a,b", 'say "hi"', "line\nbreak", "cr\rhere", "\r\n",
               '"', ",", "", " padded ", "é"]


def test_table_writer_writes_the_bytes_of_csv_writer(tmp_path):
    rows = [[cell, 1.5, -3, 0.1 + 0.2, np.float64(2.0) / 3, 10 ** 20,
             float("nan"), float("-inf"), np.float32(0.1), np.int64(7),
             True, None] for cell in _TEXT_CELLS]
    rows += [[cell] for cell in _TEXT_CELLS] + [[], ["", ""], [2.5]]
    header = ["y_m\\x_m", "a,b", ""]
    channel._write_table(tmp_path / "table.csv", header, iter(rows))
    assert (tmp_path / "table.csv").read_bytes() \
        == _csv_writer_bytes(tmp_path / "reference.csv", header, rows)


_cells = st.one_of(st.text(alphabet='a ,"\r\né'), st.floats(), st.integers())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_cells, max_size=4), st.lists(st.lists(_cells, max_size=4),
                                              max_size=6))
def test_table_writer_matches_csv_writer_on_any_cells(tmp_path_factory,
                                                      header, rows):
    tmp = tmp_path_factory.mktemp("table")
    channel._write_table(tmp / "table.csv", header, rows)
    assert (tmp / "table.csv").read_bytes() \
        == _csv_writer_bytes(tmp / "reference.csv", header, rows)


def test_move_device(small_env):
    moved = move_device(small_env, "A", Position(2.5, 1.5, 1.0))
    assert moved.devices["A"] == Position(2.5, 1.5, 1.0)
    assert small_env.devices["A"] == Position(2.0, 1.0, 1.0)
    # ensembles survive the move
    pos = Position(2.9, 0.4, 1.0)
    np.testing.assert_array_equal(ris_subchannels(small_env, pos),
                                  ris_subchannels(moved, pos))


def test_moved_world_equals_one_built_there():
    spec = make_small_spec()
    new = Position(2.5, 1.5, 1.0)
    devices = dict(spec.devices, A=new)
    fresh = synthesize_environment(replace(spec, devices=devices), 7)
    env = synthesize_environment(spec, 7)
    ris_subchannels(env, env.devices["A"], device="A")
    moved = move_device(env, "A", new)
    assert moved._rows == {} and env._rows
    _shares_arrays(moved, env)
    assert environments_equal(moved, fresh)
    assert ris_subchannels(moved, new, device="A").tobytes() \
        == ris_subchannels(fresh, new, device="A").tobytes()


def test_path_loss_db_reference():
    env = synthesize_environment(make_small_spec(), 1)
    # Free-space law at 1 m: 20*log10(lambda / 4 pi)
    expected = 20 * math.log10(env.wavelength_m / (4 * math.pi))
    assert path_loss_db(env, 1.0) == pytest.approx(expected)
    assert path_loss_db(env, 2.0) == pytest.approx(expected - 6.02, abs=0.01)


def test_pattern_diversity_separates_devices():
    spec = make_small_spec(pattern_diversity=0.5, n_elements=64)
    env = synthesize_environment(spec, 17)
    pos = Position(2.0, 1.0, 1.0)
    ha = ris_subchannels(env, pos, device="A")
    hb = ris_subchannels(env, pos, device="B")
    plain = ris_subchannels(env, pos)
    assert not np.allclose(ha, hb)
    assert not np.allclose(ha, plain)
    # weights are normalized: the energy law still holds approximately
    spec_big = make_small_spec(pattern_diversity=0.5, n_elements=768,
                               scatter_count=64)
    env_big = synthesize_environment(spec_big, 18)
    h = ris_subchannels(env_big, pos, device="A")
    pl = path_loss_gain(env_big, env_big.attacker_position.distance_to(pos))
    assert np.mean(np.abs(h) ** 2) / pl == pytest.approx(1.0, abs=0.08)


def test_rician_component_strengthens_mean():
    # With a large K the field magnitude concentrates near its mean.
    spec = make_small_spec(rician_k=20.0, n_elements=512, scatter_count=64)
    env = synthesize_environment(spec, 4)
    pos = Position(2.0, 1.0, 1.0)
    h = ris_subchannels(env, pos)
    mags = np.abs(h)
    assert mags.std() / mags.mean() < 0.4


def test_bad_master_seed():
    with pytest.raises(ValueError, match="seed"):
        synthesize_environment(make_small_spec(), -1)


# -- gain-row memo -----------------------------------------------------------------


def _diverse_env(seed=23):
    return synthesize_environment(
        make_small_spec(pattern_diversity=0.5, rician_k=2.0, n_elements=48),
        seed)


def test_memo_hit_equals_fresh_row_and_is_a_writable_copy():
    env, fresh = _diverse_env(), _diverse_env()
    pos = env.devices["A"]
    first = ris_subchannels(env, pos, device="A")
    hit = ris_subchannels(env, list(pos), device="A")
    assert ("A", pos) in env._rows
    assert hit.tobytes() == first.tobytes()
    assert hit.tobytes() == ris_subchannels(fresh, pos, device="A").tobytes()
    assert hit.flags.writeable and hit is not first
    hit[:] = 0.0
    first[:] = 0.0
    assert ris_subchannels(env, pos, device="A").tobytes() \
        == ris_subchannels(fresh, pos, device="A").tobytes()


def test_memo_keeps_off_roster_and_deviceless_rows_out():
    env, fresh = _diverse_env(), _diverse_env()
    roster = env.devices["A"]
    ris_subchannels(env, roster, device="A")
    off = Position(roster.x + 0.01, roster.y, roster.z)
    for position, device in ((off, "A"), (roster, None), (roster, "B"),
                             (off, None), (off, None)):
        got = ris_subchannels(env, position, device=device)
        assert got.tobytes() == \
            ris_subchannels(fresh, position, device=device).tobytes()
    assert list(env._rows) == [("A", roster)]
    # Pattern weights and position both change the row.
    memo = ris_subchannels(env, roster, device="A")
    assert not np.array_equal(memo, ris_subchannels(env, roster))
    assert not np.array_equal(memo, ris_subchannels(env, off, device="A"))


def test_new_worlds_do_not_reuse_memo_rows():
    env = _diverse_env()
    old = env.devices["A"]
    ris_subchannels(env, old, device="A")
    new = Position(old.x + 0.2, old.y, old.z)

    moved = move_device(env, "A", new)
    assert moved._rows == {}
    row = ris_subchannels(moved, new, device="A")
    assert not np.array_equal(row, ris_subchannels(env, old, device="A"))
    assert row.tobytes() == ris_subchannels(
        move_device(_diverse_env(), "A", new), new, device="A").tobytes()

    for fraction in (0.0, 0.5):
        perturbed = perturb_environment(env, fraction, 4)
        assert perturbed._rows == {}
        reference = perturb_environment(_diverse_env(), fraction, 4)
        assert ris_subchannels(perturbed, old, device="A").tobytes() \
            == ris_subchannels(reference, old, device="A").tobytes()
    assert not np.array_equal(
        ris_subchannels(perturb_environment(env, 0.5, 4), old, device="A"),
        ris_subchannels(env, old, device="A"))
