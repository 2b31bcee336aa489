"""Seeded, spatially correlated multipath radio environment.

The radio world is a collection of 2-D isotropic plane-wave ensembles
(Clarke's scattering model): one ensemble per reflecting-surface element
for the attacker-side paths, and one ensemble per direct transmitter
(access point, every device, and the attacker itself).  A channel gain at
a position is the coherent sum of the ensemble's plane waves, scaled by a
free-space-anchored path-loss law.  Evaluating the same ensemble serves
both directions of a path, so channel reciprocity holds by construction.

Everything is drawn from a single 64-bit master seed; identical
(seed, spec) inputs reproduce bit-identical environments.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Minimum separation between distinct radiating entities (meters).
MIN_ENTITY_DISTANCE = 1e-6

# Named sub-streams hanging off the master seed.  Other modules use the
# 2x range; keep these disjoint.
_STREAM_ENSEMBLES = 11
_STREAM_PATTERN = 12
_STREAM_CORRELATION = 13
_STREAM_PERTURB = 14

ENV_FORMAT_VERSION = 1

# Bound on the magnitude of every dBm level a scenario or stored world
# gives (noise floor, transmit and jamming powers, sweep ends).  With it,
# each reading and each 10 ** (dBm / 10) stays far inside float64 and
# int64 range.
MAX_ABS_DBM = 300.0

# Bounds on the carrier frequency and on every coordinate a scenario or
# stored world gives (roster, attacker, moves and scan points).  At the
# path-loss exponent's bound of 10, the least path loss, at 1e12 Hz over
# 2*sqrt(3)*1e6 m, is about 2e-75 (-746 dB): no gain underflows to 0,
# and no squared coordinate of a distance overflows.
MAX_FREQUENCY_HZ = 1e12
MAX_ABS_COORDINATE_M = 1e6

# Largest surface ensemble, n_elements * scatter_count plane waves, about
# 50 times the desk surface (768 * 256).  The environment holds four
# float64 arrays of that size (kx, ky and the complex cis): 0.3 GB at the
# cap.  Synthesis draws the angles and phases into kx and ky, so it peaks
# at those arrays.
MAX_ENSEMBLE_TERMS = 10_000_000

# Surface elements per block of ris_subchannels_batch.  On the desk
# heatmap grid (31 x 21 points, 2 CPUs, one BLAS thread), blocks of 4, 8,
# 16 and 32 took 0.11, 0.085, 0.073 and 0.069 s and peaked at 2.1, 4.0,
# 7.8 and 15.1 MB (tracemalloc); 8 keeps the field's intermediates below
# the world's own 6.3 MB of surface waves.
_BATCH_BLOCK = 8

# Most plane waves per block of ris_subchannels_batch, a bound of the scan
# rule (_scan_grid), 8 times the desk's 8 x 256: each thread's tiles grow
# with them.  At the bound (L = 768, M = 2 048) a 76 x 51 grid peaked at
# 32 MB per thread.
MAX_BLOCK_WAVES = 16_384

# Work items of ris_subchannels_batch, each a run of whole blocks with its
# own partial row of P values: at most this many threads share one call,
# and the rows take 12.8 MB at the 100 000-point scan cap.
_BATCH_PARTS = 8

# Axis values per phasor chain of ris_subchannels_batch: one exponential
# (the chain's anchor) per _CHAIN values, every other phasor a product.
# The desk heatmap's 31 x 21 grid fits one chain per axis.  On a 76 x 51
# desk grid (one thread, one BLAS thread), chains of 16, 32 and 64 took
# 283, 264 and 231 ms: longer chains save anchors but carry more rounded
# products, so 32 stays, the length every accuracy test was run at.
_CHAIN = 32

# Axis values per tile of ris_subchannels_batch, a multiple of _CHAIN so
# that no chain crosses a tile, and the most gap classes an axis may have.
# Bounds each thread's intermediates to about 2*_TILE complex values per
# wave of a block on any grid: 4.2 MB at the desk's 8 x 256 waves, 34 MB
# at MAX_BLOCK_WAVES.  At two threads, tiles of 32, 64 and 128 took
# 0.55, 0.34 and 0.33 s CPU on a 76 x 51 desk grid, peaking at 5.3, 8.7
# and 9.5 MB (tracemalloc), and 3.2, 2.8 and 3.1 s on a 2 000-point desk
# rail, peaking at 3.0, 5.2 and 9.7 MB.
_TILE = 64

# Phase below which complex(1.0, t) is exp(i*t) to the last bit (cos t
# rounds to 1 and sin t to t): gaps of a ris_subchannels_batch axis within
# _GAP_PHASE / kappa of each other share one exponential.
_GAP_PHASE = 2.0 ** -27

# Rows (surface elements, or realizations) per block of the per-point field
# and of wave synthesis, which run their blocks on every CPU.  A block of
# 64 rows of M >= 16 waves starts a whole number of SIMD vectors into its
# array, so NumPy's loops split it as they split the whole array.
_FIELD_BLOCK = 64

# Floor of a linear amplitude gain taken to dB, so a null stays finite.
_TINY_GAIN = 1e-30


class ScenarioError(ValueError):
    """Scenario validation failure; carries the offending field path."""

    def __init__(self, message: str, fieldpath: str = ""):
        super().__init__(message if not fieldpath else f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


def _number_param(params: Mapping, key: str, default=None, *,
                  prefix: str = "mode_params.", integer: bool = False,
                  low: float = -math.inf, high: float = math.inf,
                  strict: bool = False):
    """The finite number (a non-bool int if ``integer``) at ``params[key]``.

    It must lie in [low, high], or in (low, high) when ``strict``.  Errors
    name the field as ``prefix + key``.
    """
    value = params.get(key, default)
    path = f"{prefix}{key}"
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioError("must be an integer" if integer
                            else "must be a finite number", path)
    try:
        number = int(value) if integer else float(value)
    except OverflowError:
        number = math.inf
    if not (integer or math.isfinite(number)):
        raise ScenarioError("must be a finite number", path)
    if not ((low < number < high) if strict else (low <= number <= high)):
        if high == math.inf:
            raise ScenarioError(f"must be {'>' if strict else '>='} {low}",
                                path)
        raise ScenarioError(f"must be in {'(' if strict else '['}{low}, "
                            f"{high}{')' if strict else ']'}", path)
    return number


def _seed(seed) -> int:
    """A checked master or perturbation seed: an integer in [0, 2**64)."""
    return _number_param({"seed": seed}, "seed", prefix="", integer=True,
                         low=0, high=2 ** 64 - 1)


class Position(NamedTuple):
    """A point in meters; z enters path loss only, the scattered field is 2-D."""

    x: float
    y: float
    z: float

    def distance_to(self, other: "Position") -> float:
        return math.dist(self, other)


def as_position(value) -> Position:
    if isinstance(value, Position):
        pos = value
    else:
        coords = tuple(float(v) for v in value)
        if len(coords) != 3:
            raise ValueError(f"position needs 3 coordinates, got {len(coords)}")
        pos = Position(*coords)
    if not all(math.isfinite(c) for c in pos):
        raise ValueError(f"position coordinates must be finite, got {pos}")
    return pos


def _check_coordinates(coords) -> None:
    """Raise ValueError unless every coordinate of ``coords`` (a position
    or an array of them) lies within MAX_ABS_COORDINATE_M of 0."""
    worst = np.max(np.abs(coords), initial=0.0)
    if not worst <= MAX_ABS_COORDINATE_M:
        raise ValueError(f"coordinate {worst} m lies beyond "
                         f"±{MAX_ABS_COORDINATE_M:g} m")


@dataclass(frozen=True)
class EnvironmentSpec:
    """Declarative description of the radio world to synthesize.

    ``devices`` maps device id to position, or lists (id, position) pairs,
    and must include the access point.  The attacker (who carries the
    reflecting surface) is listed separately; its position anchors the
    surface-path path loss.  Construction checks every field (raising
    ScenarioError) and stores both as Positions, ``devices`` as a dict.
    """

    devices: Mapping[str, Position] | Sequence[tuple[str, Position]]
    attacker_position: Position
    frequency_hz: float = 5.56e9
    n_elements: int = 768
    scatter_count: int = 256
    path_loss_exponent: float = 2.0
    noise_floor_dbm: float = -95.0
    rician_k: float = 0.0
    pattern_diversity: float = 0.0
    attacker_id: str = "ATT"

    def __post_init__(self):
        values = vars(self)
        size = (_number_param(values, "n_elements", prefix="environment.",
                              integer=True, low=1)
                * _number_param(values, "scatter_count",
                                prefix="environment.", integer=True, low=16))
        if size > MAX_ENSEMBLE_TERMS:
            raise ScenarioError(f"n_elements * scatter_count = {size} exceeds "
                                f"{MAX_ENSEMBLE_TERMS}", "environment")
        # The bounds keep (wavelength / 4 pi)**2, distance**-exponent at
        # 1 um and 1 + pattern_diversity**2 finite, and the path loss
        # non-zero (MAX_FREQUENCY_HZ).
        for key, lo, hi in (("frequency_hz", 1, MAX_FREQUENCY_HZ),
                            ("rician_k", 0, math.inf),
                            ("pattern_diversity", 0, 100),
                            ("path_loss_exponent", 0, 10),
                            ("noise_floor_dbm", -MAX_ABS_DBM, MAX_ABS_DBM)):
            _number_param(values, key, prefix="environment.", low=lo, high=hi)
        if not isinstance(self.attacker_id, str):
            raise ScenarioError("must be a string", "environment.attacker_id")
        try:
            attacker = as_position(self.attacker_position)
            _check_coordinates(attacker)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ScenarioError(str(exc),
                                "environment.attacker_position") from exc
        try:
            devices = _validated_devices(self)
            _check_entity_distances(devices, attacker, self.attacker_id)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ScenarioError(str(exc), "environment.devices") from exc
        object.__setattr__(self, "devices", devices)
        object.__setattr__(self, "attacker_position", attacker)


@dataclass(eq=False, repr=False, kw_only=True)
class Environment:
    """Immutable synthesized radio world.

    Each plane-wave ensemble is a record of the read-only arrays its field
    is evaluated from: the wave-vector components ``kx`` and ``ky``, the
    unit phasors ``cis`` and the line-of-sight (angle, phase) pair ``los``.
    ``ris`` holds the L surface-element ensembles ((L, M) waves, (L, 2)
    ``los``) and ``direct`` one per transmitter ((M,) waves, (2,) ``los``);
    the drawn angles and phases are not kept.  ``pattern_weights`` (per
    device) are read-only too.  Operations that change the world
    (perturbation, moving a device) return a ``dataclasses.replace`` copy:
    it shares every unchanged array and starts with an empty gain-row memo
    (see ris_subchannels).
    """

    frequency_hz: float
    path_loss_exponent: float
    noise_floor_dbm: float
    master_seed: int
    n_elements: int
    scatter_count: int
    devices: dict[str, Position]
    attacker_id: str
    attacker_position: Position
    rician_k: float
    pattern_delta: float
    ris: dict[str, np.ndarray]
    direct: dict[str, dict[str, np.ndarray]]
    pattern_weights: dict[str, np.ndarray]
    perturbations: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        for name in ("frequency_hz", "path_loss_exponent", "noise_floor_dbm",
                     "rician_k", "pattern_delta"):
            setattr(self, name, float(getattr(self, name)))
        for name in ("master_seed", "n_elements", "scatter_count"):
            setattr(self, name, int(getattr(self, name)))
        self.devices = dict(self.devices)
        self.perturbations = tuple(self.perturbations)
        self.wavelength_m = SPEED_OF_LIGHT / self.frequency_hz

        self.ris = {name: _freeze(arr) for name, arr in self.ris.items()}
        self.direct = {key: {name: _freeze(arr) for name, arr in ens.items()}
                       for key, ens in self.direct.items()}
        self.pattern_weights = {key: _freeze(arr) for key, arr
                                in self.pattern_weights.items()}
        self._rows: dict[tuple[str, Position], np.ndarray] = {}

    # -- derived quantities ------------------------------------------------

    @property
    def kappa(self) -> float:
        """Wavenumber 2*pi/lambda."""
        return _wavenumber(self.frequency_hz)

    def entity_position(self, entity_id: str) -> Position:
        if entity_id == self.attacker_id:
            return self.attacker_position
        try:
            return self.devices[entity_id]
        except KeyError:
            raise KeyError(f"unknown device id {entity_id!r}") from None

    def direct_ids(self) -> list[str]:
        """Direct-transmitter ids in the documented draw order."""
        return sorted(self.devices) + [self.attacker_id]


def _wavenumber(frequency_hz: float) -> float:
    return 2.0 * math.pi / (SPEED_OF_LIGHT / frequency_hz)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _validated_devices(spec: EnvironmentSpec) -> dict[str, Position]:
    if isinstance(spec.devices, Mapping):
        items = list(spec.devices.items())
    else:
        items = [(str(k), v) for k, v in spec.devices]
    devices = {}
    for dev_id, pos in items:
        if dev_id in devices:
            raise ValueError(f"duplicate device id {dev_id!r}")
        devices[dev_id] = as_position(pos)
        _check_coordinates(devices[dev_id])
    if spec.attacker_id in devices:
        raise ValueError(
            f"attacker id {spec.attacker_id!r} collides with a device id"
        )
    if not devices:
        raise ValueError("environment needs at least one device")
    return devices


def _check_entity_distances(devices: dict[str, Position], attacker: Position,
                            attacker_id: str):
    entities = list(devices.items()) + [(attacker_id, attacker)]
    for i, (id_a, pos_a) in enumerate(entities):
        for id_b, pos_b in entities[i + 1:]:
            if pos_a.distance_to(pos_b) <= MIN_ENTITY_DISTANCE:
                raise ValueError(
                    f"entities {id_a!r} and {id_b!r} are closer than "
                    f"{MIN_ENTITY_DISTANCE} m"
                )


def _draw(rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
    """Angles, then phases: two uniform [0, 2*pi) arrays of ``shape``."""
    angles = rng.uniform(0.0, 2.0 * math.pi, shape)
    phases = rng.uniform(0.0, 2.0 * math.pi, shape)
    return angles, phases


def _draw_waves(rng: np.random.Generator, kappa: float, shape):
    """Wave-vector components kx, ky and unit phasors cis of ``shape``
    plane waves whose angles, then phases, are drawn from ``rng``.

    The draws are those of _draw, made straight into kx (angles) and ky
    (phases) on the calling thread: Generator.uniform(0, 2*pi) is 0 +
    2*pi * random(), so the stream and the bits are the same.  The waves
    are then written over them in blocks of _FIELD_BLOCK rows over
    _in_rows: cis = exp(1j * phases) first, then ky = sin(angles) * kappa,
    then kx = cos(angles) * kappa.  No full-size temporary is made.
    """
    kx = np.empty(shape)
    ky = np.empty(shape)
    for draws in (kx, ky):
        rng.random(out=draws)
        draws *= 2.0 * math.pi
    cis = np.empty(shape, dtype=complex)

    def block(rows: slice) -> None:
        angles, phasors = kx[rows], cis[rows]
        np.multiply(1j, ky[rows], out=phasors)
        np.exp(phasors, out=phasors)
        for wave, fn in ((ky[rows], np.sin), (angles, np.cos)):
            fn(angles, out=wave)
            wave *= kappa

    _in_rows(block, shape)
    return kx, ky, cis


def _draw_ensemble(rng: np.random.Generator, kappa: float, shape) -> dict:
    """The waves of ``shape`` angles and phases, then one line-of-sight
    (angle, phase) pair per ensemble (``shape`` without its last axis)."""
    kx, ky, cis = _draw_waves(rng, kappa, shape)
    return {"kx": kx, "ky": ky, "cis": cis,
            "los": np.stack(_draw(rng, shape[:-1]), axis=-1)}


def synthesize_environment(spec: EnvironmentSpec, seed: int) -> Environment:
    """Deterministically draw every plane-wave ensemble for the given spec.

    Draw order is fixed and documented: the L surface-element ensembles as
    one block, then one ensemble per direct transmitter in sorted-id order
    with the attacker last.  A line-of-sight (angle, phase) pair is drawn
    per ensemble unconditionally so that toggling the Rician K factor never
    shifts any other draw.  The draws are made on the calling thread,
    straight into the arrays that keep the waves (_draw_waves): the angles
    into ``kx`` and the phases into ``ky``.  The waves are then written
    over them in blocks of surface elements on every CPU, elementwise, so
    their bits do not depend on the thread count, and synthesis holds no
    more than the world's own arrays.  Each device's pattern weights
    (pattern_diversity > 0) are combined in place from their two normal
    draws.
    """
    seed = _seed(seed)

    L, M = spec.n_elements, spec.scatter_count
    rng = np.random.default_rng([seed, _STREAM_ENSEMBLES])
    kap = _wavenumber(float(spec.frequency_hz))
    ris = _draw_ensemble(rng, kap, (L, M))
    direct = {dev_id: _draw_ensemble(rng, kap, (M,))
              for dev_id in sorted(spec.devices) + [spec.attacker_id]}

    pattern_weights = {}
    if spec.pattern_diversity > 0:
        prng = np.random.default_rng([seed, _STREAM_PATTERN])
        delta = spec.pattern_diversity
        norm = math.sqrt(1.0 + delta ** 2)
        for dev_id in sorted(spec.devices):
            pattern_weights[dev_id] = _pattern_weights(
                prng.normal(0.0, math.sqrt(0.5), (L, M)),
                prng.normal(0.0, math.sqrt(0.5), (L, M)), delta, norm)

    return Environment(
        frequency_hz=spec.frequency_hz,
        path_loss_exponent=spec.path_loss_exponent,
        noise_floor_dbm=spec.noise_floor_dbm,
        master_seed=seed,
        n_elements=L,
        scatter_count=M,
        devices=spec.devices,
        attacker_id=spec.attacker_id,
        attacker_position=spec.attacker_position,
        rician_k=spec.rician_k,
        pattern_delta=spec.pattern_diversity,
        ris=ris,
        direct=direct,
        pattern_weights=pattern_weights,
    )


def _pattern_weights(n1: np.ndarray, n2: np.ndarray, delta: float,
                     norm: float) -> np.ndarray:
    """(1.0 + delta * (n1 + 1j * n2)) / norm, built in one complex array.

    The complex form's real part is 1.0 + delta * n1 and its imaginary
    part delta * n2 (its cross terms are exact zeros), and the division
    is the same complex division by norm.
    """
    weights = np.empty(n1.shape, dtype=complex)
    np.multiply(delta, n1, out=weights.real)
    weights.real += 1.0
    np.multiply(delta, n2, out=weights.imag)
    return np.divide(weights, norm, out=weights)


def draw_counter(env: Environment) -> int:
    """Scalar draws consumed by synthesis on the ensembles stream."""
    per_ensemble = 2 * env.scatter_count + 2
    return (env.n_elements + len(env.devices) + 1) * per_ensemble


# ---------------------------------------------------------------------------
# Path loss and field evaluation
# ---------------------------------------------------------------------------


def path_loss_gain(env: Environment, distance_m):
    """Linear power gain: free-space reference at 1 m, configurable
    exponent.  ``distance_m`` is one distance or an array of them."""
    nearest = np.min(distance_m)
    if nearest <= MIN_ENTITY_DISTANCE:
        raise ValueError(
            f"distance {nearest} m is below the minimum of "
            f"{MIN_ENTITY_DISTANCE} m"
        )
    ref = (env.wavelength_m / (4.0 * math.pi)) ** 2
    return ref * distance_m ** (-env.path_loss_exponent)


def path_loss_db(env: Environment, distance_m: float) -> float:
    return 10.0 * math.log10(path_loss_gain(env, distance_m))


def _diffuse_field(kx, ky, cis, x, y, weights=None):
    # kx, ky, cis: (..., M) arrays, and x, y scalars or arrays that
    # broadcast against their trailing axes; returns the unit-mean-power
    # scattered sum.  Rows are evaluated in blocks of _FIELD_BLOCK over
    # _in_rows, each block summing its own rows along the contiguous last
    # axis, so a row's sum does not depend on the block size or the thread
    # count.  A block's phase and exponential are computed in place
    # (_expi), and the products are written out, as `cis * exp(...)` and
    # `terms * weights`, so that NumPy's temporary elision cannot choose
    # their operand order (a complex product is not bitwise commutative).
    shape = np.broadcast_shapes(kx.shape, np.shape(x), ky.shape, np.shape(y))
    sums = np.empty(shape[:-1], dtype=complex)

    def block(rows: slice) -> None:
        phase = kx[rows] * x
        phase += ky[rows] * y
        terms = _expi(phase)
        np.multiply(cis[rows], terms, out=terms)
        if weights is not None:
            np.multiply(terms, weights[rows], out=terms)
        sums[rows] = terms.sum(axis=-1)

    _in_rows(block, shape)
    sums /= math.sqrt(shape[-1])
    return sums


def _expi(phase: np.ndarray) -> np.ndarray:
    """exp(1j * phase) in one new complex array, the exponential taken in
    place.  A 0-d ``phase`` gives a 0-d array, not a NumPy scalar."""
    out = np.empty(np.shape(phase), dtype=complex)
    np.multiply(1j, phase, out=out)
    return np.exp(out, out=out)


def _combine_rician(env: Environment, diffuse: np.ndarray, los, x, y):
    """sqrt(k/(k+1)) * wave + sqrt(1/(k+1)) * diffuse, where wave is the
    line-of-sight plane wave of the (angle, phase) pairs ``los`` at x, y.

    ``diffuse`` (an array, 0-d for one transmitter) is scaled in place and
    returned; the phase is built in one float array and the wave in one
    complex array, with the operand order of the written-out sum.
    """
    if env.rician_k == 0.0:
        return diffuse
    angle, phase = los[..., 0], los[..., 1]
    arg = np.cos(angle) * x
    arg += np.sin(angle) * y
    arg *= env.kappa
    arg += phase
    return _mix_rician(env.rician_k, _expi(arg), diffuse)


def _mix_rician(k: float, wave: np.ndarray, diffuse: np.ndarray):
    """sqrt(k/(k+1)) * wave + sqrt(1/(k+1)) * diffuse, written over both
    complex arrays and returned in ``diffuse``."""
    np.multiply(math.sqrt(k / (k + 1.0)), wave, out=wave)
    np.multiply(math.sqrt(1.0 / (k + 1.0)), diffuse, out=diffuse)
    return np.add(wave, diffuse, out=diffuse)


def _field_at(env: Environment, ensemble: dict, distance_m: float,
              pos: Position, weights=None):
    """An ensemble's path-loss-scaled field at ``pos``, ``distance_m`` from
    its transmitter."""
    amp = math.sqrt(path_loss_gain(env, distance_m))
    diffuse = _diffuse_field(ensemble["kx"], ensemble["ky"], ensemble["cis"],
                             pos.x, pos.y, weights)
    return amp * _combine_rician(env, diffuse, ensemble["los"], pos.x, pos.y)


def ris_subchannels(env: Environment, position, device: str | None = None) -> np.ndarray:
    """Complex gains of all L surface-element paths at a position.

    Path loss is anchored at the attacker position (the surface sits next
    to the attacker's antenna).  ``device`` applies that device's optional
    pattern-diversity weights; positions are evaluated continuously, so a
    registered device may be evaluated anywhere.

    A roster device's row at its own roster position is memoised on the
    environment (searches and evaluations ask for the same few rows again
    and again); every call returns a fresh, writable array.

    The row is evaluated in blocks of _FIELD_BLOCK surface elements on one
    thread per CPU the process may use, as ris_subchannels_batch's blocks
    are.  Each element's sum is computed by the same operations in any
    block and on any thread, and the product is written out as
    ``cis * exp(...)`` (see _diffuse_field), so the bits depend on neither
    the thread count, the block size nor the platform, and ``--threads``
    does not set any of them.
    """
    pos = as_position(position)
    key = (device, pos)
    if key in env._rows:
        return env._rows[key].copy()
    gains = _field_at(env, env.ris, env.attacker_position.distance_to(pos),
                      pos, env.pattern_weights.get(device))
    if device is not None and env.devices.get(device) == pos:
        env._rows[key] = _freeze(gains.copy())
    return gains


def ris_subchannels_batch(env: Environment, positions, coefficients,
                          device: str | None = None) -> np.ndarray:
    """The composed surface gain sum_l c_l * h_l(p) at the points of a
    grid; returns (P,).

    ``positions`` is a (P, 3) array or a sequence of P positions, taken as
    one float array; a non-finite coordinate or a position without 3
    coordinates raises as_position's ValueError.  The points must pass
    the scan rule (_scan_grid), which scenario parsing applies too: every
    coordinate within MAX_ABS_COORDINATE_M, a row-major grid as a heatmap
    scan builds it (a row of points per y value, x varying fastest, both
    axes strictly increasing; a displacement rail is a grid of one row),
    no point on the attacker, and at most MAX_BLOCK_WAVES waves per block.
    Anything else raises ValueError.  ``coefficients`` are the L
    reflection coefficients (a configuration's ``coefficients()``), and
    ``h_l`` the gains ris_subchannels gives.  The sum over elements is
    taken inside each block of _BATCH_BLOCK elements, so no (P, L) array
    is built: beside its (P,) result, the call holds one partial grid of P
    values per work item (at most _BATCH_PARTS) and each thread's tiles.
    The benchmark's tracer (benchmarks/tracing.py) patches this function
    by name, with a hook of (env, positions, *args, **kwargs), so the name
    and the first two parameters stay as they are.

    A plane wave's phase separates, exp(i(kx*x + ky*y)) = exp(i*kx*(x -
    x0)) * exp(i*(ky*y + kx*x0)) for the first x value x0, so a block's
    scattered sum over the grid's Ux x values ux and Uy y values uy is one
    product of a (Uy, b*M) and a (b*M, Ux) matrix, the coefficients and
    the block's unit phasors (times the device's pattern weights)
    multiplied into the y factor's chain anchors.  Each axis's phasors are
    built on chains (_Axis): one exponential per wave at every _CHAIN-th
    value (none at x0, where the x chain starts at exactly 1), and one per
    class of gaps between neighbouring values.  A gap within 2**-27 /
    kappa of its class's first gap takes that gap's phasor times
    complex(1, k*delta), which is the exponential of the difference
    k*delta to the last bit (|k| <= kappa for every wave, scattered or
    line of sight).  So a grid spaced by one step, whose x0 + step*i gaps
    differ in the last bits, takes one exponential per axis for its gaps:
    3 per plane wave on the desk heatmap grid.  The rest is (Ux + Uy)*L*M
    complex multiplies, and the products take Ux*Uy*L*M multiply-adds.  A
    grid of one row or one column sums its products over the block's b*M
    waves instead (a matrix-vector product's bits change with the BLAS
    thread count).  Pass a whole grid in one call, not row by row.  The
    line-of-sight waves (rician_k > 0), one per element, are composed the
    same way, in blocks of _BATCH_BLOCK*M elements.

    Each axis is cut into tiles of _TILE values (_tiles), and a block
    takes one y tile and one x tile at a time and adds their sums into
    that slice of its partial grid, so its intermediates do not grow with
    the grid, only with the waves per block (the scan rule bounds them);
    an x tile's phasors are built again for each y tile.  An axis's class
    phasors are built once per block, and an axis of more than _TILE
    classes raises ValueError (an axis spaced by one step has a few).  A
    tile starts a chain, anchors sit at global multiples of _CHAIN, and
    OpenBLAS gives a gemm split at tile starts the bits of the whole, so
    the values do not depend on the tile size (tests/test_channel.py
    checks it).

    The blocks are cut into at most _BATCH_PARTS runs of whole blocks, the
    work items.  Each adds its blocks' sums, in block order, into its own
    partial grid, and the grids are summed in item order once every thread
    has ended.  The items run on one thread per CPU the process may use
    (its affinity mask), the calling thread included; NumPy releases the
    interpreter lock in their exponentials and matmuls.  So the values do
    not depend on the thread count, and ``--threads`` does not set it.
    _BATCH_BLOCK and _BATCH_PARTS group the sum over elements, so they
    are part of what the values are, as a dot product's summation order
    is.  Values agree with ``ris_subchannels(p) @ coefficients`` to
    rounding, not bit for bit, and a point's value can differ in the last
    bits with the grid it is evaluated in (its chain and the matmul's
    summation order depend on the grid).
    """
    pts = _scan_points(positions)
    L, M = env.n_elements, env.scatter_count
    coefficients = np.asarray(coefficients)
    if coefficients.shape != (L,):
        raise ValueError(f"coefficients of shape {coefficients.shape} do "
                         f"not match {L} surface elements")
    if not len(pts):
        return np.zeros(0, dtype=complex)
    dists, ux, uy = _scan_grid(env, pts)
    amps = np.sqrt(path_loss_gain(env, dists))
    x_axis, y_axis = _Axis(ux, env.kappa), _Axis(uy, env.kappa)

    def composed(kx, ky, cis, weights, block: int) -> np.ndarray:
        # sum_l c_l sum_m cis*weights*exp(i(kx*x + ky*y)) over the (L, M)
        # waves, in blocks of ``block`` elements.
        starts = range(0, len(kx), block)
        parts = min(len(starts), _BATCH_PARTS)
        runs = [starts[len(starts) * i // parts:
                       len(starts) * (i + 1) // parts] for i in range(parts)]
        partials = np.zeros((parts, len(uy), len(ux)), dtype=complex)

        def run(item: int) -> None:
            for start in runs[item]:
                add_block(partials[item], slice(start, start + block))

        # A function per block and per tile, so that a block's (a tile's)
        # phasors are freed before the next block's (tile's) are built.
        def add_block(partial, sl) -> None:
            kxs, kys = kx[sl, ...], ky[sl, ...]
            scale = cis[sl] if weights is None else cis[sl] * weights[sl]
            scale = coefficients[sl, None] * scale
            x_chain = (kxs, x_axis.classes(kxs))
            y_chain = (kys, y_axis.classes(kys), scale, kxs * ux[0])
            for ys in y_axis.slices:
                add_tile(partial[ys], ys, x_chain, y_chain)

        def add_tile(rows, ys, x_chain, y_chain) -> None:
            ey = y_phasors(ys, *y_chain)                        # (Uy, b, M)
            for xs in x_axis.slices:
                rows[:, xs] += _contract(ey, x_phasors(xs, *x_chain))

        def y_phasors(ys, k, classes, scale, shift) -> np.ndarray:
            # scale * exp(i(k*y + kx*x0)) at the anchors.
            waves = np.empty((ys.stop - ys.start,) + k.shape, dtype=complex)
            phase = uy[ys][::_CHAIN, None, None] * k
            phase += shift
            np.multiply(scale, _expi(phase), out=waves[::_CHAIN])
            return y_axis.chain(waves, k, ys, classes)

        def x_phasors(xs, k, classes) -> np.ndarray:
            # exp(i*k*(x - x0)) at the anchors; x0's phasor is exactly 1.
            waves = np.empty((xs.stop - xs.start,) + k.shape, dtype=complex)
            at = ux[xs][::_CHAIN] - ux[0]
            skip = int(xs.start == 0)
            waves[0] = 1.0
            waves[skip * _CHAIN::_CHAIN] = _expi(at[skip:, None, None] * k)
            return x_axis.chain(waves, k, xs, classes)

        _in_threads(run, range(parts))
        return partials.sum(axis=0).reshape(-1)

    field = composed(env.ris["kx"], env.ris["ky"], env.ris["cis"],
                     env.pattern_weights.get(device), _BATCH_BLOCK)
    field /= math.sqrt(M)
    if env.rician_k != 0.0:
        angle, phase = env.ris["los"][:, 0], env.ris["los"][:, 1]
        wave = composed((env.kappa * np.cos(angle))[:, None],
                        (env.kappa * np.sin(angle))[:, None],
                        _expi(phase)[:, None], None, _BATCH_BLOCK * M)
        field = _mix_rician(env.rician_k, wave, field)
    return np.multiply(amps, field, out=field)


def _scan_points(positions) -> np.ndarray:
    """``positions`` (a (P, 3) array or a sequence of positions) as one
    (P, 3) float array, P = 0 allowed.  Raises as_position's ValueError
    for the first position without 3 coordinates or with a non-finite one.
    """
    if not isinstance(positions, np.ndarray):
        positions = list(positions)
    try:
        pts = np.asarray(positions, dtype=float)
    except (TypeError, ValueError):  # rows of unequal length, or no number
        pts = None
    if pts is not None and pts.size == 0:
        return pts.reshape(0, 3)
    if pts is None or pts.ndim != 2 or pts.shape[1] != 3:
        for position in positions:
            as_position(position)
        raise ValueError(f"positions must be a (P, 3) array, got shape "
                         f"{np.shape(pts)}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        as_position(pts[np.argmin(finite)].tolist())
    return pts


def _scan_grid(world, points: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
    """The scan rule, which ris_subchannels_batch and scenario parsing
    both apply: the distances (m) of the (P, 3) ``points``, P > 0, from the
    attacker of ``world`` (an Environment or EnvironmentSpec), and the x
    and y axes of their grid.  Raises ValueError, checked in this order,
    for a coordinate beyond MAX_ABS_COORDINATE_M, points that are not a
    row-major grid (_grid_axes), a point within MIN_ENTITY_DISTANCE of the
    attacker, and more than MAX_BLOCK_WAVES plane waves per block."""
    _check_coordinates(points)
    ux, uy = _grid_axes(points)
    dists = np.linalg.norm(
        points - np.array(tuple(world.attacker_position)), axis=1)
    if np.any(dists <= MIN_ENTITY_DISTANCE):
        raise ValueError("a scan position coincides with the attacker position")
    waves = min(world.n_elements, _BATCH_BLOCK) * world.scatter_count
    if waves > MAX_BLOCK_WAVES:
        raise ValueError(f"{waves} plane waves per scan block exceed "
                         f"{MAX_BLOCK_WAVES}")
    return dists, ux, uy


def _grid_axes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and y axes of the (P, 3) ``points``, P > 0, if they form a
    row-major grid (a row per y value, x varying fastest, both axes
    strictly increasing), else ValueError."""
    x, y = points[:, 0], points[:, 1]
    nx = int(np.argmax(y != y[0])) or len(y)
    ux, uy = x[:nx], y[::nx]
    if (len(y) % nx or not np.all(x.reshape(-1, nx) == ux)
            or not np.all(y.reshape(-1, nx) == uy[:, None])
            or not (np.all(np.diff(ux) > 0) and np.all(np.diff(uy) > 0))):
        raise ValueError("scan points must form a row-major grid: a row "
                         "per y value, x varying fastest, both axes "
                         "strictly increasing")
    return ux, uy


def _contract(ey: np.ndarray, ex: np.ndarray) -> np.ndarray:
    """The (Uy, Ux) sums over a block's b*M waves of the y phasors ``ey``
    (Uy, b, M) times the x phasors ``ex`` (Ux, b, M): one matmul, or, when
    either holds one value (a tile does only on an axis of one value, see
    _tiles), products summed along the contiguous b*M axis, written over
    the larger operand."""
    ey = ey.reshape(len(ey), -1)
    ex = ex.reshape(len(ex), -1)
    if 1 in (len(ey), len(ex)):
        terms = np.multiply(ey, ex, out=ey if len(ex) == 1 else ex)
        return terms.sum(axis=-1).reshape(len(ey), len(ex))
    return ey @ ex.T


class _Axis:
    """The plan of the phasor chains on the strictly increasing values
    ``u`` of one grid axis, built once per ris_subchannels_batch call.

    A value at a multiple of _CHAIN is a chain anchor, whose phasor the
    caller writes.  Every other value's phasor is the one before it times
    the phasor of its step, exp(i*k*(u_j - u_{j-1})) (neighbouring floats
    subtract exactly).  Sorted, the distinct gaps fall into classes: a gap
    within _GAP_PHASE / kappa of its class's first gap g joins it, and its
    phasor is exp(i*k*g) * complex(1, k*delta), delta being its
    difference from g.  An axis of more than _TILE classes raises
    ValueError.
    """

    def __init__(self, u: np.ndarray, kappa: float):
        gaps = np.diff(u).tolist()
        self.class_of, self.heads = {}, []
        for gap in sorted(set(gaps)):
            if not self.heads or gap - self.heads[-1] > _GAP_PHASE / kappa:
                self.heads.append(gap)
            self.class_of[gap] = len(self.heads) - 1
        if len(self.heads) > _TILE:
            raise ValueError(f"a scan axis with {len(self.heads)} classes "
                             f"of gaps exceeds {_TILE}")
        # The axis's tiles (_tiles) and, per tile by its first value, the
        # steps j that are not anchors, each with its gap.
        self.slices = _tiles(len(u))
        self.tiles = {tile.start: [(j, gaps[j - 1])
                                   for j in range(tile.start + 1, tile.stop)
                                   if j % _CHAIN]
                      for tile in self.slices}

    def classes(self, k: np.ndarray) -> np.ndarray:
        """The phasors exp(i*k*g) of every class's first gap g, for the
        (b, M) wave components ``k``."""
        return _expi(np.array(self.heads)[:, None, None] * k)

    def chain(self, waves: np.ndarray, k: np.ndarray, tile: slice,
              classes: np.ndarray) -> np.ndarray:
        """Writes the phasors of the values u[tile] into ``waves`` (its
        anchors already written), in axis order, and returns it."""
        steps = self.tiles[tile.start]
        phasors = {}
        for gap in {gap for _, gap in steps}:
            head = self.class_of[gap]
            phasors[gap] = classes[head]
            if gap != self.heads[head]:
                factor = np.empty(k.shape, dtype=complex)
                factor.real = 1.0
                np.multiply(k, gap - self.heads[head], out=factor.imag)
                phasors[gap] = np.multiply(classes[head], factor, out=factor)
        for j, gap in steps:
            i = j - tile.start
            np.multiply(waves[i - 1], phasors[gap], out=waves[i])
        return waves


def _tiles(n: int) -> list[slice]:
    """Slices of _TILE values that cover range(n).  A last tile of one
    value joins the one before it: NumPy takes a one-wide matmul through
    gemv, whose bits differ from those of a gemm column."""
    starts = list(range(0, n, _TILE))
    if len(starts) > 1 and n - starts[-1] == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _field_threads() -> int:
    """Threads for the grid field: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_rows(work, shape) -> None:
    """Call ``work(rows)`` for each block of _FIELD_BLOCK rows (slices of
    the first axis) of an array of ``shape``, over _in_threads.  A 1-D
    array is one block: its single row is never split."""
    if len(shape) < 2:
        work(...)
        return
    _in_threads(lambda start: work(slice(start, start + _FIELD_BLOCK)),
                range(0, shape[0], _FIELD_BLOCK))


_DONE = object()


def _in_threads(work, items: Sequence) -> None:
    """Call ``work(item)`` for every item, over up to _field_threads() threads.

    The calling thread and width - 1 workers (none at width 1) each pull
    the next item from a shared iterator, so a busy CPU takes fewer.  After
    the first error no thread takes another item.  Every worker is joined
    before this returns or re-raises that error.
    """
    width = min(_field_threads(), len(items))
    pending = iter(items)
    lock = threading.Lock()
    errors = []

    def drain() -> None:
        while True:
            with lock:
                item = _DONE if errors else next(pending, _DONE)
            if item is _DONE:
                return
            try:
                work(item)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    workers = []
    try:
        for _ in range(width - 1):
            workers.append(threading.Thread(target=drain))
            workers[-1].start()
        drain()
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


def direct_channel(env: Environment, source: str, position) -> complex:
    """Complex gain from a registered transmitter's ensemble to a position."""
    if source != env.attacker_id and source not in env.devices:
        raise KeyError(f"unknown source id {source!r}")
    pos = as_position(position)
    d = env.entity_position(source).distance_to(pos)
    if d <= MIN_ENTITY_DISTANCE:
        raise ValueError(
            f"evaluation position coincides with source {source!r} "
            f"(distance {d} m below minimum)"
        )
    return complex(_field_at(env, env.direct[source], d, pos))


def received_rssi(env: Environment, power_at_antenna_dbm, rng=None,
                  sigma_db: float = 0.5):
    """Measured RSSI: Gaussian measurement noise, floor clamp, 1 dB rounding.

    Accepts scalars or arrays; returns int or an int array.  The int cast
    cannot overflow for a parsed scenario or stored world: its dBm levels
    lie within ±MAX_ABS_DBM and its noise sigma within
    scenarios.MAX_SIGMA_DB, and the bounded environment fields keep every
    gain finite, so a reading stays within a few thousand dB.
    """
    power = np.array(power_at_antenna_dbm, dtype=float)
    if not np.isfinite(power).all():
        raise ValueError("power_at_antenna_dbm must be finite")
    if sigma_db > 0 and rng is None:
        raise ValueError("rng is required when sigma_db > 0")
    quantized = _read_in_place(power, env.noise_floor_dbm, rng,
                               sigma_db).astype(int)
    return int(quantized) if quantized.ndim == 0 else quantized


def _read_in_place(power: np.ndarray, noise_floor_dbm: float, rng,
                   sigma_db: float, quantize: bool = True) -> np.ndarray:
    """Readings of received ``power`` (float dBm), written over it: noise,
    then (if ``quantize``) the floor clamp and 1 dB rounding, where + 0.0
    turns a rounded -0.0 into 0.0."""
    if sigma_db > 0:
        power += rng.normal(0.0, sigma_db, power.shape)
    if quantize:
        np.maximum(power, noise_floor_dbm, out=power)
        np.rint(power, out=power)
        power += 0.0
    return power


def expected_spatial_correlation(displacements_m, wavelength_m: float) -> np.ndarray:
    """Clarke-model reference: J0(2*pi*d/lambda)."""
    from scipy.special import j0  # the package's one scipy use; not at import
    d = np.asarray(displacements_m, dtype=float)
    return j0(2.0 * math.pi * d / wavelength_m)


def first_correlation_null_m(wavelength_m: float) -> float:
    """Distance of the first zero of the correlation function."""
    return 2.4048 * wavelength_m / (2.0 * math.pi)


def spatial_correlation(env: Environment, base, displacements,
                        realizations: int) -> np.ndarray:
    """Empirical complex field correlation between a base point and offsets.

    Fresh ensembles (same M as the environment) are drawn from a dedicated
    sub-stream of the master seed; the estimate is the normalized cross
    moment across realizations.  Displacements are applied along +x; the
    model is isotropic so the direction is immaterial.
    """
    if realizations < 100:
        raise ValueError("realizations must be >= 100")
    base_pos = as_position(base)
    disp = np.asarray(list(displacements), dtype=float)
    rng = np.random.default_rng([env.master_seed, _STREAM_CORRELATION])

    xs = (base_pos.x + disp)[:, None]           # (D, 1)
    num = np.zeros(len(disp), dtype=complex)
    den_d = np.zeros(len(disp))
    den_0 = 0.0
    remaining = realizations
    while remaining > 0:
        r = min(200, remaining)
        remaining -= r
        kx, ky, cis = _draw_waves(rng, env.kappa, (r, env.scatter_count))
        f0 = _diffuse_field(kx, ky, cis, base_pos.x, base_pos.y)      # (r,)
        fd = _diffuse_field(kx[:, None], ky[:, None], cis[:, None], xs,
                            base_pos.y)                               # (r, D)
        num += (np.conj(f0)[:, None] * fd).sum(axis=0)
        den_0 += float((np.abs(f0) ** 2).sum())
        den_d += (np.abs(fd) ** 2).sum(axis=0)
    return num / np.sqrt(den_0 * den_d)


# ---------------------------------------------------------------------------
# Perturbation and relocation
# ---------------------------------------------------------------------------


def perturb_environment(env: Environment, fraction: float, seed: int) -> Environment:
    """Re-draw angle and phase of ceil(fraction*M) scatterers per ensemble.

    The copy shares every unchanged array with ``env``, as move_device
    does: each ensemble's ``kx``, ``ky`` and ``cis`` are copied with the
    waves of the redrawn scatterers set, and its ``los`` is shared.  A
    fraction that redraws nothing (fraction 0) returns a bit-identical
    world.  Fraction 1 fully decorrelates every ensemble.  Deterministic
    given the seed.
    """
    fraction = _number_param({"fraction": fraction}, "fraction", prefix="",
                             low=0, high=1)
    seed = _seed(seed)
    M = env.scatter_count
    k = math.ceil(fraction * M)
    perturbations = env.perturbations + ((fraction, seed),)
    if k == 0:
        return replace(env, perturbations=perturbations)

    rng = np.random.default_rng([seed, _STREAM_PERTURB])
    L, kap = env.n_elements, env.kappa
    # Per-row index choice without replacement, vectorized across rows,
    # as flat indices into the (L, M) arrays.
    idx = np.argpartition(rng.random((L, M)), k - 1, axis=1)[:, :k]
    ris = _redraw(env.ris, (np.arange(L)[:, None] * M + idx).ravel(),
                  _draw_waves(rng, kap, (L, k)))
    direct = {}
    for dev_id in env.direct_ids():
        sel = rng.choice(M, size=k, replace=False)
        direct[dev_id] = _redraw(env.direct[dev_id], sel,
                                 _draw_waves(rng, kap, (k,)))
    return replace(env, ris=ris, direct=direct, perturbations=perturbations)


def _redraw(ensemble: dict, at: np.ndarray, waves) -> dict:
    """A copy of ``ensemble`` whose ``kx``, ``ky`` and ``cis`` take the
    redrawn ``waves`` (in row-major order) at the flat indices ``at``;
    ``los`` is shared."""
    new = dict(ensemble)
    for name, values in zip(("kx", "ky", "cis"), waves):
        arr = ensemble[name].copy()
        arr.reshape(-1)[at] = values.reshape(-1)
        new[name] = _freeze(arr)
    return new


def move_device(env: Environment, device_id: str, position) -> Environment:
    """Return a world with one device relocated; all ensembles are kept.

    The ensembles do not depend on the roster, so the copy shares them; it
    starts with an empty gain-row memo.
    """
    if device_id not in env.devices:
        raise KeyError(f"unknown device id {device_id!r}")
    new_pos = as_position(position)
    devices = dict(env.devices)
    devices[device_id] = new_pos
    _check_entity_distances(devices, env.attacker_position, env.attacker_id)
    return replace(env, devices=devices)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def environment_to_dict(env: Environment) -> dict:
    devices = [
        {"id": dev_id, "x": pos.x, "y": pos.y, "z": pos.z, "role": "device"}
        for dev_id, pos in sorted(env.devices.items())
    ]
    devices.append({
        "id": env.attacker_id,
        "x": env.attacker_position.x,
        "y": env.attacker_position.y,
        "z": env.attacker_position.z,
        "role": "attacker",
    })
    pattern = None
    if env.pattern_delta > 0:
        pattern = {"delta": env.pattern_delta}
    return {
        "version": ENV_FORMAT_VERSION,
        "frequency_hz": env.frequency_hz,
        "seed": env.master_seed,
        "M": env.scatter_count,
        "path_loss_exponent": env.path_loss_exponent,
        "noise_floor_dbm": env.noise_floor_dbm,
        "devices": devices,
        "ensembles": {
            "ris_elements": env.n_elements,
            "seed": env.master_seed,
            "draw_counter": draw_counter(env),
            "rician_k": env.rician_k,
            "perturbations": [[f, s] for f, s in env.perturbations],
        },
        "pattern_diversity": pattern,
    }


def save_environment(env: Environment, path) -> None:
    """Write environment_to_dict(env) to ``path`` through _write_json, the
    writer of every JSON artifact."""
    _write_json(path, environment_to_dict(env))


def environment_from_dict(doc: dict) -> Environment:
    if doc.get("version") != ENV_FORMAT_VERSION:
        raise ValueError(f"unsupported environment format version "
                         f"{doc.get('version')!r}")
    devices = []
    attacker_pos = attacker_id = None
    for entry in doc["devices"]:
        pos = Position(entry["x"], entry["y"], entry["z"])
        if entry.get("role") == "attacker":
            attacker_pos = pos
            attacker_id = entry["id"]
        else:
            devices.append((entry["id"], pos))
    if attacker_pos is None:
        raise ValueError("environment document lacks an attacker entry")
    ens = doc["ensembles"]
    pattern = doc.get("pattern_diversity") or {}
    spec = EnvironmentSpec(
        devices=devices,
        attacker_position=attacker_pos,
        frequency_hz=doc["frequency_hz"],
        n_elements=ens["ris_elements"],
        scatter_count=doc["M"],
        path_loss_exponent=doc["path_loss_exponent"],
        noise_floor_dbm=doc["noise_floor_dbm"],
        rician_k=ens.get("rician_k", 0.0),
        pattern_diversity=pattern.get("delta", 0.0),
        attacker_id=attacker_id,
    )
    env = synthesize_environment(spec, doc["seed"])
    if "seed" in ens and _seed(ens["seed"]) != env.master_seed:
        raise ValueError(f"ensembles.seed {ens['seed']} does not match the "
                         f"seed {env.master_seed} the ensembles are drawn from")
    if ens.get("draw_counter") not in (None, draw_counter(env)):
        raise ValueError("draw_counter mismatch: document was produced by an "
                         "incompatible synthesis procedure")
    for frac, seed in ens.get("perturbations", []):
        env = perturb_environment(env, frac, seed)
    return env


def read_json(path, what: str, fieldpath: str = ""):
    """The JSON document in the file at ``path``.

    A file that cannot be read, invalid JSON and a key given twice in one
    object raise ScenarioError, naming ``what`` (as in "scenario") and
    ``fieldpath``.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {what} file: {exc}",
                            fieldpath) from exc

    def reject_duplicates(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise ScenarioError(f"duplicate key {key!r} in {what} "
                                    f"document", fieldpath)
            out[key] = value
        return out

    try:
        return json.loads(text, object_pairs_hook=reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}", fieldpath) from exc


def _write_json(path, doc) -> None:
    """``doc`` as JSON with sorted keys and a one-space indent, plus a
    final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _write_table(path, header, rows) -> None:
    """CSV with floats written ``.10g`` and every other cell as ``str``.

    The file is built as one string with the bytes ``csv.writer`` (excel
    dialect) writes: lines end in ``\\r\\n``, and a cell holding ``,``,
    ``"``, ``\\r`` or ``\\n``, or a row's lone empty cell, is quoted.
    """
    lines = []
    for row in itertools.chain([header], rows):
        cells = [format(v, ".10g") if isinstance(v, float) else str(v)
                 for v in row]
        line = ",".join(cells)
        # More commas than delimiters: a cell holds one.
        if (line.count(",") >= len(cells) or '"' in line or "\r" in line
                or "\n" in line):
            line = ",".join(map(_csv_cell, cells))
        elif cells == [""]:
            line = '""'
        lines.append(line + "\r\n")
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def _csv_cell(cell: str) -> str:
    """A cell as csv.writer writes it: quoted, with its quotes doubled, if
    it holds a delimiter, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell

