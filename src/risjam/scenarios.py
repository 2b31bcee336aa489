"""Named, parameterized experiments producing result matrices.

Each operation optimizes a surface configuration against a synthesized
environment (ping-style eavesdropping of the considered devices feeds the
cost function, exploiting channel reciprocity) and then evaluates the
jamming outcome: RSSI and JSR matrices, packet-rate power sweeps, adaptive
throughput, spatial scans.

All randomness flows from the scenario seed through named sub-streams
(environment, optimizer, measurement, evaluation, link, masks), so any run
is bit-reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import link, optimizer
from .channel import (
    MAX_ABS_DBM,
    Environment,
    EnvironmentSpec,
    Position,
    ScenarioError,
    _TINY_GAIN,
    _check_entity_distances,
    _number_param,
    _read_in_place,
    _scan_grid,
    _seed,
    as_position,
    direct_channel,
    environment_from_dict,
    environment_to_dict,
    first_correlation_null_m,
    move_device,
    path_loss_gain,
    perturb_environment,
    read_json,
    received_rssi,
    ris_subchannels,
    ris_subchannels_batch,
    synthesize_environment,
)
from .optimizer import (
    CostWeights,
    Trace,
    run_optimizer,
)
from .ris import _COEFFICIENTS, RisConfig, compose_channel, random_config

# Sub-stream tags off the master seed (channel module uses 11..14).
_STREAM_OPTIMIZER = 21
_STREAM_MEASURE = 22
_STREAM_EVAL = 23
_STREAM_LINK = 24
_STREAM_MASK = 25
_STREAM_RANDCONF = 26

DISRUPTED_RATE = 5.0        # pkt/s at or below which a device counts as jammed
AUTO_POWER_MARGIN_DB = 3.0  # headroom above the target's disruption knee
THROUGHPUT_POWER_MARGIN_DB = 2.0
LINK_SIM_WINDOWS = 40
# Largest heatmap grid or displacement rail, in points; also the longest
# power sweep and perturbation series.  The grid field returns one complex
# gain per point and holds at most channel._BATCH_PARTS partial grids of
# the points beside it, 12.8 MB at the cap.  Each thread's tiles grow
# with the waves per block, not with the grid (channel.MAX_BLOCK_WAVES).
MAX_SCAN_POINTS = 100_000
# Largest search, in table or trace bits: table_size * n_elements and
# (steps + 1) * max(n_elements, 128).  The table holds float32 bits (400 MB
# at the cap).  A trace row holds a packed configuration and two float64
# costs, so it counts as at least 128 bits: each part takes at most 12.5 MB.
MAX_SEARCH_BITS = 100_000_000
# Largest measurement noise standard deviation, in dB.
MAX_SIGMA_DB = 100.0


@dataclass(frozen=True)
class PowerSettings:
    jam_dbm: float | None = None      # None: auto, knee + margin
    ap_dbm: float = 15.0
    device_tx_dbm: float = 15.0
    sweep_from_dbm: float = -80.0
    sweep_to_dbm: float = -10.0
    sweep_step_db: float = 1.0

    def __post_init__(self):
        fields = vars(self)
        keys = ("ap_dbm", "device_tx_dbm", "sweep_from_dbm", "sweep_to_dbm")
        for key in keys + (("jam_dbm",) if self.jam_dbm is not None else ()):
            _number_param(fields, key, prefix="powers.", low=-MAX_ABS_DBM,
                          high=MAX_ABS_DBM)
        _number_param(fields, "sweep_step_db", prefix="powers.", low=0,
                      strict=True)
        if self.sweep_to_dbm <= self.sweep_from_dbm:
            raise ScenarioError("sweep range must be increasing",
                                "powers.sweep_to_dbm")
        steps = (self.sweep_to_dbm - self.sweep_from_dbm) / self.sweep_step_db
        if not steps < MAX_SCAN_POINTS or round(steps) + 1 > MAX_SCAN_POINTS:
            raise ScenarioError(f"sweep grid exceeds {MAX_SCAN_POINTS} points",
                                "powers.sweep_step_db")

    def sweep_grid(self) -> np.ndarray:
        n = int(round((self.sweep_to_dbm - self.sweep_from_dbm)
                      / self.sweep_step_db)) + 1
        return self.sweep_from_dbm + self.sweep_step_db * np.arange(n)


@dataclass(frozen=True)
class OptimizerSettings:
    table_size: int = optimizer.DEFAULT_TABLE_SIZE
    steps: int = optimizer.DEFAULT_STEPS
    reeval_period: int = optimizer.DEFAULT_REEVAL_PERIOD
    epsilon: float = optimizer.DEFAULT_EPSILON
    w_mean: float = 0.3
    w_extreme: float = 0.7
    meas_sigma_db: float = 0.5
    quantize: bool = True

    def __post_init__(self):
        fields = vars(self)
        _number_param(fields, "table_size", prefix="optimizer.", integer=True,
                      low=2, high=optimizer.MAX_TABLE_SIZE)
        for key in ("steps", "reeval_period"):
            _number_param(fields, key, prefix="optimizer.", integer=True,
                          low=0)
        _number_param(fields, "epsilon", prefix="optimizer.", low=0,
                      high=0.5, strict=True)
        for key in ("w_mean", "w_extreme"):
            _number_param(fields, key, prefix="optimizer.", low=0)
        # Like the dBm bounds, keeps every noisy reading inside int64.
        _number_param(fields, "meas_sigma_db", prefix="optimizer.", low=0,
                      high=MAX_SIGMA_DB)
        if abs(self.w_mean + self.w_extreme - 1.0) > 1e-9:
            raise ScenarioError("w_mean + w_extreme must be 1",
                                "optimizer.w_extreme")
        if not isinstance(self.quantize, bool):
            raise ScenarioError("must be true or false", "optimizer.quantize")


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment: environment, roles, powers, optimizer, mode knobs."""

    environment: EnvironmentSpec | Environment
    mode: str
    targets: tuple[str, ...] = ()
    seed: int = 1
    name: str = "scenario"
    ap_id: str = "D0"
    non_targets: tuple[str, ...] | None = None
    hidden: tuple[str, ...] = ()
    powers: PowerSettings = field(default_factory=PowerSettings)
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    mode_params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(
                f"unknown mode {self.mode!r}; valid modes: {', '.join(MODES)}",
                "mode")
        mode = _MODES[self.mode]
        for key in ("name", "ap_id"):
            if not isinstance(getattr(self, key), str):
                raise ScenarioError("must be a string", key)
        _seed(self.seed)
        self._check_search_size()
        # A tuple, so that an unhashable id is not in it rather than a
        # TypeError; the same holds for the mode checks' roster tests.
        devices = tuple(self.environment.devices)
        if self.ap_id not in devices:
            raise ScenarioError(f"access point {self.ap_id!r} is not in the "
                                f"device roster", "ap_id")
        targets = self._id_list("targets", devices,
                                "target {!r} has no position in the roster")
        if self.ap_id in targets:
            raise ScenarioError(f"the access point {self.ap_id!r} cannot be a "
                                f"target", "targets")
        low, high = mode.targets
        if not low <= len(targets) <= high:
            need = "exactly one target" if high == 1 \
                else "a non-empty target set"
            raise ScenarioError(f"mode {self.mode!r} needs {need}", "targets")
        if self.non_targets is None:
            object.__setattr__(self, "non_targets", tuple(
                d for d in _natural_sorted(devices) if d not in targets))
        else:
            # Roster ids: they are strings, so the sets below hash.
            non_targets = self._id_list(
                "non_targets", devices,
                "non-target {!r} has no position in the roster")
            overlap = sorted(set(non_targets) & set(targets))
            if overlap:
                raise ScenarioError(
                    f"devices {overlap} appear in both the target and "
                    f"non-target sets", "non_targets")
        self._id_list("hidden", self.non_targets,
                      "hidden device {!r} must be a non-target")
        if not isinstance(self.mode_params, Mapping):
            raise ScenarioError("must be an object", "mode_params")
        object.__setattr__(self, "mode_params", dict(self.mode_params))
        _reject_unknown(self.mode_params, mode.params, "mode_params.")
        if mode.check is not None:
            mode.check(self, _mode_params(self))

    def _id_list(self, name: str, roster: tuple, error: str) -> tuple:
        """Sets the field ``name`` to its ids as a tuple and returns them:
        a list or tuple of distinct members of ``roster``, else a
        ScenarioError at ``name`` (``error`` formats a stray id)."""
        ids = getattr(self, name)
        if not isinstance(ids, (list, tuple)):
            raise ScenarioError("must be a list of device ids", name)
        ids = tuple(ids)
        for item in ids:
            if item not in roster:
                raise ScenarioError(error.format(item), name)
        _reject_repeats(ids, name)
        object.__setattr__(self, name, ids)
        return ids

    def _check_search_size(self) -> None:
        n, opt = self.environment.n_elements, self.optimizer
        for key, rows, bits in (("table_size", opt.table_size, n),
                                ("steps", opt.steps + 1, max(n, 128))):
            if rows * bits > MAX_SEARCH_BITS:
                raise ScenarioError(
                    f"{rows} rows x {bits} bits exceeds "
                    f"{MAX_SEARCH_BITS} search bits", f"optimizer.{key}")

    # -- helpers -----------------------------------------------------------

    def eval_devices(self) -> tuple[str, ...]:
        """Non-AP devices, natural order; the rows/columns of result matrices."""
        return tuple(d for d in _natural_sorted(self.environment.devices)
                     if d != self.ap_id)

    def visible_non_targets(self) -> tuple[str, ...]:
        return tuple(d for d in self.non_targets if d not in self.hidden)

    def build_environment(self) -> Environment:
        if isinstance(self.environment, Environment):
            return self.environment
        return synthesize_environment(self.environment, self.seed)


def _natural_key(name: str):
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", name))


def _natural_sorted(names) -> list[str]:
    return sorted(names, key=_natural_key)


def _reject_repeats(items: Sequence, path: str) -> None:
    """A ScenarioError at ``path`` naming the first item listed twice."""
    seen = set()
    for item in items:
        if item in seen:
            raise ScenarioError(f"{item!r} is listed twice", path)
        seen.add(item)


def _reject_unknown(keys, known, prefix: str = "") -> None:
    """A ScenarioError naming the first of ``keys`` not in ``known``."""
    unknown = sorted(str(key) for key in keys if key not in known)
    if unknown:
        raise ScenarioError(f"unknown field(s) {unknown}",
                            f"{prefix}{unknown[0]}")


# ---------------------------------------------------------------------------
# Reference desk deployment: eleven devices in four clusters, attacker at the
# west wall of a 9.0 m x 7.5 m floor.  The clusters are D1-D3, D4-D6, D7 and
# D8-D10; cluster 3 is the lone device next to the access point D0.
# Positions are configurable via desk_environment_spec.
# ---------------------------------------------------------------------------

DESK_ATTACKER = Position(0.8, 3.8, 1.2)

DESK_DEVICES: dict[str, Position] = {
    "D0": Position(5.2, 5.8, 1.5),    # access point
    "D1": Position(2.5, 6.1, 0.9),
    "D2": Position(2.8, 5.9, 0.9),
    "D3": Position(2.45, 5.7, 0.9),
    "D4": Position(7.7, 6.5, 0.9),
    "D5": Position(8.0, 6.3, 0.9),
    "D6": Position(7.6, 6.15, 0.9),
    "D7": Position(4.6, 4.9, 1.2),
    "D8": Position(6.0, 1.9, 0.9),
    "D9": Position(6.4, 1.75, 0.9),
    "D10": Position(6.2, 1.5, 0.9),
}


def desk_environment_spec(**overrides) -> EnvironmentSpec:
    kwargs = dict(devices=dict(DESK_DEVICES), attacker_position=DESK_ATTACKER)
    kwargs.update(overrides)
    return EnvironmentSpec(**kwargs)


def desk_scenario(mode: str, targets=(), seed: int = 1, **overrides) -> ScenarioSpec:
    kwargs = dict(environment=desk_environment_spec(), mode=mode,
                  targets=tuple(targets), seed=seed, name=f"desk-{mode}")
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


# ---------------------------------------------------------------------------
# Measurement oracle
# ---------------------------------------------------------------------------


class RssiOracle:
    """Eavesdropped per-device RSSI for a candidate configuration.

    By reciprocity the eavesdropped device-to-attacker gain equals the
    attacker-to-device gain, so the oracle evaluates the same composed
    surface channel that active jamming later uses.  Hidden devices are
    simply absent from the non-target list and never appear in the output.

    A call takes a RisConfig or the optimizer's raw 0/1 row (uint8 or
    float32, unchecked) and returns fresh arrays.  The gains and powers are
    checked finite once, here; floored gains then keep every reading finite.
    """

    def __init__(self, env: Environment, targets: Sequence[str],
                 non_targets: Sequence[str], device_tx_dbm: float,
                 rng: np.random.Generator, sigma_db: float = 0.5,
                 quantize: bool = True):
        self.env = env
        self.targets = tuple(targets)
        self.non_targets = tuple(non_targets)
        self.device_tx_dbm = float(device_tx_dbm)
        self.rng = rng
        self.sigma_db = float(sigma_db)
        self.quantize = bool(quantize)
        self._h_targets = _gain_matrix(env, self.targets)
        self._h_non_targets = _gain_matrix(env, self.non_targets)
        # A composed gain is at most its row's summed magnitudes.
        bounds = np.concatenate([np.abs(h).sum(axis=1) for h in
                                 (self._h_targets, self._h_non_targets)])
        if not (np.isfinite(bounds).all()
                and math.isfinite(self.device_tx_dbm)
                and math.isfinite(self.sigma_db)):
            raise ValueError("oracle gains, device_tx_dbm and sigma_db "
                             "must be finite")
        if not self.targets:
            raise ValueError("target list must not be empty")
        if self.sigma_db > 0 and rng is None:
            raise ValueError("rng is required when sigma_db > 0")
        # Preallocated coefficient and gain buffers; every call overwrites
        # them before it reads them.
        self._coeff = np.empty(env.n_elements, dtype=complex)
        self._n = n = len(self.targets)
        self._gains = np.empty(n + len(self.non_targets), dtype=complex)
        self._gains_t, self._gains_n = self._gains[:n], self._gains[n:]

    def __call__(self, config) -> tuple[np.ndarray, np.ndarray]:
        bits = config.bits if isinstance(config, RisConfig) else config
        if bits.dtype != np.uint8:
            bits = bits.astype(np.uint8)
        # mode="clip" writes straight into the buffer, where the default
        # "raise" buffers it; the search's rows hold only 0 and 1.
        coeff = _COEFFICIENTS.take(bits, out=self._coeff, mode="clip")
        # Two matvecs: a stacked (K, L) product differs from them in the
        # last bits, which would move every trace.
        np.matmul(self._h_targets, coeff, out=self._gains_t)
        np.matmul(self._h_non_targets, coeff, out=self._gains_n)
        power = _gain_db(self._gains)
        power += self.device_tx_dbm
        # One noise draw over targets then non-targets equals a draw per set.
        _read_in_place(power, self.env.noise_floor_dbm, self.rng,
                       self.sigma_db, self.quantize)
        return power[:self._n], power[self._n:]


class MaskedOracle:
    """Oracle over a subset of active elements; the rest stay frozen."""

    def __init__(self, inner: RssiOracle, active: np.ndarray,
                 frozen_bits: np.ndarray):
        self.inner = inner
        self.active = np.asarray(active, dtype=int)
        # One full-width row: the frozen bits stay, each call overwrites
        # the active ones.
        self._row = np.asarray(frozen_bits, dtype=np.uint8).copy()

    def __call__(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._row[self.active] = bits
        return self.inner(self._row)

    def expand(self, config: RisConfig) -> RisConfig:
        full = self._row.copy()
        full[self.active] = config.bits
        return RisConfig(full)


def _gain_matrix(env: Environment, device_ids: Sequence[str]) -> np.ndarray:
    """Stacked surface sub-channel vectors, one row per device."""
    if not device_ids:
        return np.empty((0, env.n_elements), dtype=complex)
    return np.stack([
        ris_subchannels(env, env.devices[d], device=d) for d in device_ids
    ])


def _gain_db(h: np.ndarray) -> np.ndarray:
    """Power gain in dB of complex amplitude gains, floored at _TINY_GAIN.

    A fresh array; the steps after np.abs run in place on it.
    """
    gain = np.abs(h)
    np.maximum(gain, _TINY_GAIN, out=gain)
    np.log10(gain, out=gain)
    gain *= 20.0
    return gain


def _composed_gain_db(env: Environment, config: RisConfig,
                      device_ids: Sequence[str]) -> np.ndarray:
    return _gain_db(_gain_matrix(env, device_ids) @ config.coefficients())


def _ap_signal_dbm(env: Environment, spec: ScenarioSpec,
                   device_ids: Sequence[str]) -> np.ndarray:
    return np.array([
        spec.powers.ap_dbm
        + 20.0 * math.log10(abs(direct_channel(env, spec.ap_id,
                                               env.devices[d])))
        for d in device_ids
    ])


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class TargetRow:
    """One optimized target set evaluated on every device."""

    targets: tuple[str, ...]
    attacker_rssi_dbm: dict[str, float]
    ap_rssi_dbm: dict[str, float]
    jsr_db: dict[str, float]
    norm_jsr_db: dict[str, float]
    packet_rate: dict[str, float] | None = None
    throughput_mbps: dict[str, float] | None = None
    operating_jam_dbm: float | None = None
    target_knee_dbm: float | None = None
    first_nontarget_knee_dbm: float | None = None
    margin_db: float | None = None

    def label(self) -> str:
        return "+".join(self.targets)

    def separation_db(self) -> float:
        """Rejection of the loudest non-target in normalized-JSR terms."""
        return separation_db(self.norm_jsr_db, self.targets)


def separation_db(norm_jsr_db: Mapping[str, float],
                  targets: Sequence[str]) -> float:
    """Minus the loudest non-target's normalized JSR; inf if every device
    is a target."""
    others = [v for d, v in norm_jsr_db.items() if d not in targets]
    return -max(others) if others else math.inf


_CSV_METRICS = ("attacker_rssi_dbm", "ap_rssi_dbm", "jsr_db", "norm_jsr_db",
                "packet_rate", "throughput_mbps")


@dataclass
class RunResult:
    scenario: str
    mode: str
    devices: tuple[str, ...]
    rows: list[TargetRow]
    extras: dict = field(default_factory=dict)
    traces: list[Trace] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        # A row leaves out the metrics its mode does not produce.
        rows = [{f.name: getattr(row, f.name) for f in fields(row)
                 if f.name not in _CSV_METRICS
                 or getattr(row, f.name) is not None} for row in self.rows]
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "devices": list(self.devices),
            "rows": _jsonify(rows),
            "extras": _jsonify(self.extras),
        }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, RisConfig):
        return obj.to_json()
    return obj


# ---------------------------------------------------------------------------
# Core evaluation machinery
# ---------------------------------------------------------------------------


def _run_index(spec: ScenarioSpec, target: str) -> int:
    """Stable per-target stream index: position in the natural device order."""
    return spec.eval_devices().index(target)


def _optimize(env: Environment, spec: ScenarioSpec, *tag: int,
              mask: tuple[np.ndarray, np.ndarray] | None = None
              ) -> tuple[RisConfig, Trace]:
    """Search a configuration that jams the spec's targets against its
    visible non-targets.

    ``tag`` (a run index, or the element sweep's repeat and count) keys the
    optimizer and measurement streams.  A ``mask`` (active elements, full
    frozen bits) searches only the active elements; the configuration
    returned is the full surface, the trace covers the active bits.
    """
    opt = spec.optimizer
    oracle = RssiOracle(
        env, spec.targets, spec.visible_non_targets(),
        spec.powers.device_tx_dbm,
        np.random.default_rng([spec.seed, _STREAM_MEASURE, *tag]),
        sigma_db=opt.meas_sigma_db, quantize=opt.quantize,
    )
    if mask is not None:
        oracle = MaskedOracle(oracle, *mask)
    config, trace = run_optimizer(
        opt.table_size, opt.steps,
        env.n_elements if mask is None else len(oracle.active), oracle,
        [spec.seed, _STREAM_OPTIMIZER, *tag],
        weights=CostWeights(opt.w_mean, opt.w_extreme), epsilon=opt.epsilon,
        reeval_period=opt.reeval_period,
        noise_floor_dbm=env.noise_floor_dbm,
    )
    return (config if mask is None else oracle.expand(config)), trace


def _sweep_rates(env: Environment, jam_gain_db: np.ndarray,
                 sig_dbm: np.ndarray, powers: np.ndarray,
                 mcs: int = link.MONITOR_MCS) -> np.ndarray:
    """Packet rates over a (power grid x device) lattice, fixed MCS."""
    return link._packet_rates(env, powers[:, None] + jam_gain_db[None, :],
                              sig_dbm[None, :], mcs)


def _knee_dbm(powers: np.ndarray, rates: np.ndarray) -> float | None:
    """Lowest swept power at which the device counts as disrupted."""
    hit = np.flatnonzero(rates <= DISRUPTED_RATE)
    return float(powers[hit[0]]) if hit.size else None


def _evaluate_row(env: Environment, spec: ScenarioSpec, config: RisConfig,
                  run_idx: int, *, operating_override: float | None = None
                  ) -> tuple[TargetRow, dict]:
    """Evaluate a surface configuration on every device.

    Its composed gains go through ``_evaluate_gains``; the gains delivered to
    the targets join the extras.
    """
    devices = spec.eval_devices()
    jam_gain_db = _composed_gain_db(env, config, devices)
    row, extras = _evaluate_gains(env, spec, jam_gain_db, run_idx,
                                  operating_override=operating_override)
    extras["delivered_gain_db"] = {t: float(jam_gain_db[devices.index(t)])
                                   for t in row.targets}
    return row, extras


def _evaluate_gains(env: Environment, spec: ScenarioSpec,
                    jam_gain_db: np.ndarray, run_idx: int, *,
                    operating_override: float | None = None
                    ) -> tuple[TargetRow, dict]:
    """Power sweep, knees, operating power, measured RSSI/JSR and packet
    rates (plus adaptive throughput in throughput mode) for per-device
    jamming gains (dB) against the spec's targets."""
    devices, targets = spec.eval_devices(), spec.targets
    with_throughput = spec.mode == "throughput"
    sig_dbm = _ap_signal_dbm(env, spec, devices)

    knee_mcs = 0 if with_throughput else link.MONITOR_MCS
    powers = spec.powers.sweep_grid()
    rates = _sweep_rates(env, jam_gain_db, sig_dbm, powers, knee_mcs)
    knees = {d: _knee_dbm(powers, rates[:, i]) for i, d in enumerate(devices)}
    nt_knees = [k for d, k in knees.items()
                if d not in targets and k is not None]
    first_nt = min(nt_knees) if nt_knees else None
    missing = [t for t in targets if knees[t] is None]
    target_knee = margin = None
    if not missing:
        target_knee = max(knees[t] for t in targets)
        # A non-target that survives the whole sweep bounds the margin from
        # below.
        margin = ((first_nt if first_nt is not None
                   else spec.powers.sweep_to_dbm) - target_knee)

    if operating_override is not None:
        operating = float(operating_override)
    elif spec.powers.jam_dbm is not None:
        operating = float(spec.powers.jam_dbm)
    elif missing:
        raise RuntimeError(
            f"sweep range {spec.powers.sweep_from_dbm}.."
            f"{spec.powers.sweep_to_dbm} dBm never disrupts target(s) "
            f"{missing}; extend the sweep")
    elif with_throughput:
        operating = target_knee + THROUGHPUT_POWER_MARGIN_DB
    else:
        operating = target_knee + AUTO_POWER_MARGIN_DB

    jam_dbm = operating + jam_gain_db
    eval_rng = np.random.default_rng([spec.seed, _STREAM_EVAL, run_idx])
    att_rssi = received_rssi(env, jam_dbm, eval_rng,
                             spec.optimizer.meas_sigma_db).astype(float)
    ap_rssi = received_rssi(env, sig_dbm, eval_rng,
                            spec.optimizer.meas_sigma_db).astype(float)
    jsr = att_rssi - ap_rssi
    ref = np.mean([jsr[devices.index(t)] for t in targets])
    norm = jsr - ref

    row = TargetRow(
        targets=targets,
        attacker_rssi_dbm=dict(zip(devices, att_rssi)),
        ap_rssi_dbm=dict(zip(devices, ap_rssi)),
        jsr_db=dict(zip(devices, jsr)),
        norm_jsr_db=dict(zip(devices, norm)),
        packet_rate=dict(zip(devices,
                             link._packet_rates(env, jam_dbm, sig_dbm))),
        operating_jam_dbm=operating,
        target_knee_dbm=target_knee,
        first_nontarget_knee_dbm=first_nt,
        margin_db=margin,
    )

    extras = {
        "sweep": {
            "powers_dbm": powers.tolist(),
            "mcs": knee_mcs,
            "rates": {d: rates[:, i].tolist() for i, d in enumerate(devices)},
        },
        "knees_dbm": knees,
    }

    if with_throughput:
        link_rng = np.random.default_rng([spec.seed, _STREAM_LINK, run_idx])
        offered = _mode_params(spec)["offered_load_mbps"]
        ratio = link.sjnr_db(sig_dbm, jam_dbm, env.noise_floor_dbm)
        jammed = {}
        baseline = {}
        for i, d in enumerate(devices):
            jammed[d] = simulate_link_throughput(ratio[i], offered, link_rng)
            snr = sig_dbm[i] - env.noise_floor_dbm
            baseline[d] = simulate_link_throughput(snr, offered, link_rng)
        row.throughput_mbps = jammed
        extras["unjammed_throughput_mbps"] = baseline
    return row, extras


def simulate_link_throughput(sjnr_value: float, offered_mbps: float,
                             rng: np.random.Generator) -> float:
    """Adaptive-rate link under a stationary SJNR; steady-state goodput."""
    state = link.LinkState(mcs=7, offered_load_mbps=offered_mbps)
    history = []
    for _ in range(LINK_SIM_WINDOWS):
        p = link.packet_success_prob(sjnr_value, state.mcs)
        outcomes = rng.random(link.RATE_WINDOW) < p
        state = link.rate_adapt_step(state.with_window(outcomes))
        p_after = link.packet_success_prob(sjnr_value, state.mcs)
        history.append(link.throughput_mbps(state, p_after))
    return float(np.median(history[-10:]))


# ---------------------------------------------------------------------------
# Scenario operations
# ---------------------------------------------------------------------------


def power_sweep(spec: ScenarioSpec) -> RunResult:
    """Optimize against the target set and evaluate it on every device.

    One or more targets share one search; the packet-rate power sweep, the
    knees and, in throughput mode, the adaptive-rate links follow.  The
    mode's ``scan`` (heatmap grid, displacement curves, perturbation
    series) then adds its extras for the searched configuration.
    """
    if not spec.targets:
        raise ScenarioError("power_sweep needs at least one target", "targets")
    env = spec.build_environment()
    run_idx = _run_index(spec, spec.targets[0])
    config, trace = _optimize(env, spec, run_idx)
    row, extras = _evaluate_row(env, spec, config, run_idx)
    extras["config"] = config
    scan = _MODES[spec.mode].scan
    if scan is not None:
        extras.update(scan(env, spec, config, row))
    return RunResult(spec.name, spec.mode, spec.eval_devices(), [row], extras,
                     [trace])


def run_exclusion(spec: ScenarioSpec) -> RunResult:
    """Jam every non-AP device except the one named in mode_params.exclude."""
    exclude = spec.mode_params["exclude"]
    targets = tuple(d for d in spec.eval_devices() if d != exclude)
    result = power_sweep(replace(spec, targets=targets, non_targets=None,
                                 hidden=()))
    result.extras["excluded"] = exclude
    return result


def run_jsr_matrix(spec: ScenarioSpec, threads: int = 1) -> RunResult:
    """One single-target ``power_sweep`` per device; rows stack into the
    matrix.

    A row hides ``spec.hidden`` minus its target.  When every non-target is
    hidden, the run is the hidden-device experiment: a row hides every
    other non-AP device, so only the target and the access point are
    visible to the oracle, and an unselected random configuration (the
    table head would already be best-of-B toward the target), measured at
    the row's operating power, gives the "before" JSR.  Rows run in order;
    ``threads`` is accepted and ignored, since every row is Python holding
    the GIL.
    """
    env = spec.build_environment()
    devices = spec.eval_devices()
    all_hidden = bool(spec.hidden) \
        and set(spec.hidden) == set(devices) - set(spec.targets)
    hidden = devices if all_hidden else spec.hidden
    keys = ("before_norm_jsr_db",) if all_hidden \
        else ("knees_dbm", "delivered_gain_db")
    extras = {key: {} for key in ("configs", *keys)}
    rows, traces = [], []
    for target in spec.targets or devices:
        sub = replace(spec, environment=env, targets=(target,),
                      non_targets=None,
                      hidden=tuple(h for h in hidden if h != target))
        result = power_sweep(sub)
        row, found = result.rows[0], result.extras
        rows.append(row)
        traces += result.traces
        extras["configs"][target] = found["config"]
        if all_hidden:
            run_idx = _run_index(spec, target)
            initial = random_config(env.n_elements,
                                    [spec.seed, _STREAM_RANDCONF, run_idx])
            before, _ = _evaluate_row(
                env, sub, initial, run_idx,
                operating_override=row.operating_jam_dbm)
            extras["before_norm_jsr_db"][target] = before.norm_jsr_db
        else:
            extras["knees_dbm"][target] = found["knees_dbm"]
            extras["delivered_gain_db"][target] = \
                found["delivered_gain_db"][target]
    return RunResult(spec.name, spec.mode, devices, rows, extras, traces)


def random_config_eval(spec: ScenarioSpec, n_configs: int = 20) -> dict:
    """Attacker RSSI per device under random configurations (null model)."""
    env = spec.build_environment()
    devices = spec.eval_devices()
    rng = np.random.default_rng([spec.seed, _STREAM_RANDCONF])
    eval_rng = np.random.default_rng([spec.seed, _STREAM_EVAL, 0])
    power = spec.powers.jam_dbm if spec.powers.jam_dbm is not None else 0.0
    rssi = np.empty((n_configs, len(devices)))
    configs = []
    for i in range(n_configs):
        config = RisConfig(rng.integers(0, 2, env.n_elements, dtype=np.uint8))
        configs.append(config)
        level = power + _composed_gain_db(env, config, devices)
        rssi[i] = received_rssi(env, level, eval_rng,
                                spec.optimizer.meas_sigma_db).astype(float)
    return {"devices": devices, "rssi_dbm": rssi, "configs": configs}


# Heatmap keys that place the grid explicitly instead of around the focus.
_WINDOW_KEYS = ("x_min_m", "x_max_m", "y_min_m", "y_max_m")


def _mode_params(spec: ScenarioSpec) -> dict:
    """The spec's mode_params over its mode's defaults."""
    defaults = _MODES[spec.mode].params
    return {**{key: value for key, value in defaults.items()
               if value is not None}, **spec.mode_params}


def _heatmap_window(params: Mapping, focus: Position
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Validated x and y axes of a heatmap scan around ``focus``."""
    step = _number_param(params, "step_m", low=0, strict=True)
    if any(key in params for key in _WINDOW_KEYS):
        x0, x1, y0, y1 = (_number_param(params, key) for key in _WINDOW_KEYS)
        if x1 < x0:
            raise ScenarioError("must be >= x_min_m", "mode_params.x_max_m")
        if y1 < y0:
            raise ScenarioError("must be >= y_min_m", "mode_params.y_max_m")
    else:
        x_extent = _number_param(params, "x_extent_m", low=0)
        y_extent = _number_param(params, "y_extent_m", low=0)
        x0, x1 = focus.x - x_extent / 2, focus.x + x_extent / 2
        y0, y1 = focus.y - y_extent / 2, focus.y + y_extent / 2
    nx, ny = (x1 - x0) / step, (y1 - y0) / step
    if not (nx < MAX_SCAN_POINTS and ny < MAX_SCAN_POINTS) \
            or (round(nx) + 1) * (round(ny) + 1) > MAX_SCAN_POINTS:
        raise ScenarioError(f"grid exceeds {MAX_SCAN_POINTS} points",
                            "mode_params.step_m")
    if not (x0 <= focus.x <= x1 and y0 <= focus.y <= y1):
        raise ScenarioError("grid excludes the optimization point",
                            "mode_params")
    return (x0 + step * np.arange(round(nx) + 1),
            y0 + step * np.arange(round(ny) + 1))


def _grid_points(xs, ys, z: float) -> np.ndarray:
    """The (P, 3) points of a scan grid at height z: a row per y value, x
    varying fastest.  A displacement rail is a grid of one row."""
    grid_x, grid_y = np.meshgrid(xs, ys)
    return np.stack([grid_x.ravel(), grid_y.ravel(),
                     np.full(grid_x.size, z)], axis=1)


def _check_scan(spec: ScenarioSpec, points: np.ndarray) -> None:
    """Reject a scan the grid field would reject, by its scan rule
    (channel._scan_grid), naming mode_params."""
    try:
        _scan_grid(spec.environment, points)
    except ValueError as exc:
        raise ScenarioError(str(exc), "mode_params") from exc


def _check_heatmap(spec: ScenarioSpec, params: Mapping) -> None:
    focus = spec.environment.devices[spec.targets[0]]
    xs, ys = _heatmap_window(params, focus)
    _check_scan(spec, _grid_points(xs, ys, focus.z))


def _displacement_offsets_m(params: Mapping) -> np.ndarray:
    """Validated displacements (m) of a displacement scan."""
    step_mm = _number_param(params, "step_mm", low=0, strict=True)
    max_mm = _number_param(params, "max_mm", low=0)
    if not (max_mm + step_mm / 2) / step_mm <= MAX_SCAN_POINTS:
        raise ScenarioError(f"rail exceeds {MAX_SCAN_POINTS} points",
                            "mode_params.step_mm")
    return np.arange(0.0, max_mm + step_mm / 2, step_mm) / 1000.0


def _perturbation_duration(params: Mapping) -> int:
    """Validated time steps of a perturbation run (default: last event + 2)."""
    if "duration" in params:
        return _number_param(params, "duration", integer=True, low=0,
                             high=MAX_SCAN_POINTS)
    times = [event["time"] for event in params["schedule"]]
    duration = int(max(times) + 2) if times else 5
    if not 0 <= duration <= MAX_SCAN_POINTS:
        raise ScenarioError(f"the default duration, last event time + 2, "
                            f"must be in [0, {MAX_SCAN_POINTS}]",
                            "mode_params.schedule")
    return duration


def _antenna(params: Mapping) -> tuple[dict, float]:
    """Validated directional pattern keywords and diffuse level (dB); the
    bounds keep the amplitude 10**(dB / 20) finite off the boresight."""
    pattern = {key: _number_param(params, key, low=-1000.0, high=1000.0)
               for key in ("gain_dbi", "front_back_db")}
    pattern["beamwidth_deg"] = _number_param(params, "beamwidth_deg",
                                             low=1e-3)
    return pattern, _number_param(params, "diffuse_db", low=-1000.0,
                                  high=1000.0)


def _check_exclusion(spec: ScenarioSpec, params: Mapping) -> None:
    exclude = params.get("exclude")
    if not exclude:
        raise ScenarioError("exclusion mode needs mode_params.exclude",
                            "mode_params.exclude")
    if exclude not in spec.eval_devices():
        raise ScenarioError(f"excluded device {exclude!r} must be a non-AP "
                            f"roster device", "mode_params.exclude")
    if len(spec.eval_devices()) < 2:
        raise ScenarioError("excluding it leaves no device to jam",
                            "mode_params.exclude")


def _check_counts(spec: ScenarioSpec, params: Mapping) -> None:
    counts = params.get("counts")
    if not isinstance(counts, (list, tuple)) or not counts:
        raise ScenarioError("element-sweep mode needs a non-empty list "
                            "mode_params.counts", "mode_params.counts")
    for count in counts:
        _number_param({"counts": count}, "counts", integer=True, low=1)
    _reject_repeats(counts, "mode_params.counts")
    if list(counts) != sorted(counts):
        raise ScenarioError("counts must be sorted ascending",
                            "mode_params.counts")
    size = spec.environment.n_elements
    if counts[-1] > size:
        raise ScenarioError(f"count {counts[-1]} exceeds the surface size "
                            f"{size}", "mode_params.counts")
    _number_param(params, "repeats", integer=True, low=1,
                  high=MAX_SCAN_POINTS)


def _check_displacement(spec: ScenarioSpec, params: Mapping) -> None:
    minimized = params.get("minimized")
    if not minimized:
        raise ScenarioError("displacement mode needs mode_params.minimized",
                            "mode_params.minimized")
    devices = spec.environment.devices
    if minimized not in tuple(devices) or minimized in spec.targets:
        raise ScenarioError("minimized device must be a distinct roster "
                            "device", "mode_params.minimized")
    offsets = _displacement_offsets_m(params)
    for base in (devices[spec.targets[0]], devices[minimized]):
        _check_scan(spec, _grid_points(base.x + offsets, [base.y], base.z))


def _check_schedule(spec: ScenarioSpec, params: Mapping) -> None:
    """Each event re-draws a scatterer fraction or moves a roster device."""
    schedule = params["schedule"]
    if not isinstance(schedule, (list, tuple)):
        raise ScenarioError("must be a list of events",
                            "mode_params.schedule")
    for i, event in enumerate(schedule):
        path = f"mode_params.schedule[{i}]"
        if not isinstance(event, Mapping):
            raise ScenarioError("must be an object", path)
        _number_param(event, "time", prefix=f"{path}.")
        if "fraction" in event:
            _reject_unknown(event, ("time", "fraction", "seed"), f"{path}.")
            _number_param(event, "fraction", prefix=f"{path}.", low=0,
                          high=1)
            _number_param(event, "seed", spec.seed, prefix=f"{path}.",
                          integer=True, low=0, high=2 ** 64 - 1)
        elif event.get("device") not in tuple(spec.environment.devices):
            raise ScenarioError("needs a fraction or a roster device",
                                f"{path}.device")
        else:
            _reject_unknown(event, ("time", "device", "position"), f"{path}.")
            try:
                as_position(event.get("position"))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(str(exc), f"{path}.position") from exc
    duration = _perturbation_duration(params)
    # Replay the moves a run applies (time order, steps 0 .. duration - 1)
    # through the roster check move_device makes.
    world = spec.environment
    devices = dict(world.devices)
    for i, event in sorted(enumerate(schedule), key=lambda e: e[1]["time"]):
        if "device" in event and 0 < duration and \
                event["time"] <= duration - 1:
            devices[event["device"]] = as_position(event["position"])
            try:
                _check_entity_distances(devices, world.attacker_position,
                                        world.attacker_id)
            except ValueError as exc:
                raise ScenarioError(
                    str(exc), f"mode_params.schedule[{i}].position") from exc


def _heatmap_grid(env: Environment, spec: ScenarioSpec, config: RisConfig,
                  row: TargetRow) -> dict:
    """Normalized attacker power on a planar grid around the optimized focus."""
    target = spec.targets[0]
    focus = env.devices[target]
    xs, ys = _heatmap_window(_mode_params(spec), focus)

    focus_gain = abs(compose_channel(
        config, ris_subchannels(env, focus, device=target)))
    focus_db = 20.0 * math.log10(max(focus_gain, _TINY_GAIN))

    gains = ris_subchannels_batch(env, _grid_points(xs, ys, focus.z),
                                  config.coefficients(), device=target)
    grid_db = (_gain_db(gains) - focus_db).reshape(len(ys), len(xs))
    return {"heatmap": {
        "x_m": xs.tolist(),
        "y_m": ys.tolist(),
        "normalized_db": grid_db.tolist(),
        "focus": [focus.x, focus.y, focus.z],
    }}


def _displacement_curves(env: Environment, spec: ScenarioSpec,
                         config: RisConfig, row: TargetRow) -> dict:
    """Channel magnitude of two co-located receivers versus displacement.

    The target channel is maximized, the mode_params.minimized device is
    minimized; both are then virtually displaced along +x in fixed steps
    while the configuration stays frozen.
    """
    params = _mode_params(spec)
    disp_m = _displacement_offsets_m(params)
    coeff = config.coefficients()

    def curve(device: str) -> np.ndarray:
        base = env.devices[device]
        pts = _grid_points(base.x + disp_m, [base.y], base.z)
        return _gain_db(ris_subchannels_batch(env, pts, coeff, device=device))

    max_curve = curve(spec.targets[0])
    min_curve = curve(params["minimized"])
    return {"displacement": {
        "displacements_mm": (disp_m * 1000.0).tolist(),
        "maximized_db": max_curve.tolist(),
        "minimized_db": min_curve.tolist(),
        "fixed_maximized_db": float(max_curve[0]),
        "fixed_minimized_db": float(min_curve[0]),
        "expected_null_mm": 1000.0 * first_correlation_null_m(
            env.wavelength_m),
    }}


def element_sweep(spec: ScenarioSpec) -> RunResult:
    """Target/non-target separation against the number of active elements.

    Inactive elements are frozen at a random configuration.  The full-surface
    run of repeat r draws from the optimizer and measurement streams of run
    index r, so repeat 0 reproduces power_sweep's search for the target
    exactly when it has run index 0 (it is first in eval_devices()).
    """
    env = spec.build_environment()
    L = env.n_elements
    params = _mode_params(spec)
    counts, repeats = params["counts"], params["repeats"]
    target = spec.targets[0]
    devices = spec.eval_devices()
    non_targets = [d for d in devices if d != target]

    separations = {c: [] for c in counts}
    configs = {}
    for rep in range(repeats):
        for count in counts:
            if count == L:
                # The full surface keeps power_sweep's stream tags.
                full, _ = _optimize(env, spec, rep)
            else:
                mask_rng = np.random.default_rng(
                    [spec.seed, _STREAM_MASK, count, rep])
                active = np.sort(mask_rng.choice(L, count, replace=False))
                frozen = mask_rng.integers(0, 2, L, dtype=np.uint8)
                full, _ = _optimize(env, spec, rep, count,
                                    mask=(active, frozen))
            gains = _composed_gain_db(env, full, devices)
            sep = (gains[devices.index(target)]
                   - max(gains[devices.index(d)] for d in non_targets))
            separations[count].append(float(sep))
            configs[f"{count}:{rep}"] = full

    extras = {
        "element_sweep": {
            "counts": counts,
            "repeats": repeats,
            "separation_db": {str(c): separations[c] for c in counts},
        },
        "configs": configs,
    }
    return RunResult(spec.name, spec.mode, devices, [], extras)


def directional_gain_db(theta_deg: float, gain_dbi: float = 19.0,
                        beamwidth_deg: float = 10.0,
                        front_back_db: float = 25.0) -> float:
    """Parabolic main-lobe pattern; beamwidth_deg is the 3 dB half-angle."""
    attenuation = min(3.0 * (theta_deg / beamwidth_deg) ** 2, front_back_db)
    return gain_dbi - attenuation


def directional_baseline(spec: ScenarioSpec) -> RunResult:
    """Replace the surface channel with a directional-antenna channel.

    The boresight points at the target; each device sees a pattern-weighted
    line-of-sight ray plus the attacker's diffuse multipath at a fixed
    relative level.  Everything downstream (sweeps, knees, rates) is the
    shared evaluation tail, run with index 0.
    """
    env = spec.build_environment()
    pattern, diffuse_db = _antenna(_mode_params(spec))

    devices = spec.eval_devices()
    att = np.array(tuple(env.attacker_position))
    bore = np.array(tuple(env.devices[spec.targets[0]])) - att
    bore = bore / np.linalg.norm(bore)

    jam_gains = np.empty(len(devices), dtype=complex)
    for i, d in enumerate(devices):
        vec = np.array(tuple(env.devices[d])) - att
        dist = np.linalg.norm(vec)
        cos_t = float(np.clip(vec @ bore / dist, -1.0, 1.0))
        theta = math.degrees(math.acos(cos_t))
        g_db = directional_gain_db(theta, **pattern)
        pl_amp = math.sqrt(path_loss_gain(env, dist))
        los = 10.0 ** (g_db / 20.0) * np.exp(1j * env.kappa * dist)
        diffuse = direct_channel(env, env.attacker_id, env.devices[d])
        unit_diffuse = diffuse / pl_amp
        jam_gains[i] = pl_amp * (los + 10.0 ** (diffuse_db / 20.0)
                                 * unit_diffuse)

    jam_gain_db = _gain_db(jam_gains)
    row, extras = _evaluate_gains(env, spec, jam_gain_db, 0)
    extras["antenna"] = {**pattern, "diffuse_db": diffuse_db}
    return RunResult(spec.name, spec.mode, devices, [row], extras)


def _perturbation_series(env: Environment, spec: ScenarioSpec,
                         config: RisConfig, row: TargetRow) -> dict:
    """Fixed optimized configuration against an evolving environment.

    Schedule events: {"time": t, "fraction": f, "seed": s} re-draws a
    scatterer fraction; {"time": t, "device": id, "position": [x,y,z]}
    relocates a device.  Events apply cumulatively at the start of their
    time step; packet rates are recorded per step at the evaluated row's
    operating power.
    """
    params = _mode_params(spec)
    events = sorted(params["schedule"], key=lambda e: e["time"])
    duration = _perturbation_duration(params)
    operating = row.operating_jam_dbm
    devices = spec.eval_devices()

    series = np.empty((duration, len(devices)))
    current = env
    pending = list(events)
    rates = None    # the rates in ``current``, once computed
    for t in range(duration):
        while pending and pending[0]["time"] <= t:
            event = pending.pop(0)
            if "fraction" in event:
                current = perturb_environment(current, event["fraction"],
                                              event.get("seed", spec.seed))
            else:
                current = move_device(current, event["device"],
                                      event["position"])
            rates = None
        if rates is None:
            rates = link._packet_rates(
                current,
                operating + _composed_gain_db(current, config, devices),
                _ap_signal_dbm(current, spec, devices))
        series[t] = rates
    return {"timeseries": {
        "times": list(range(duration)),
        "rates": {d: series[:, i].tolist() for i, d in enumerate(devices)},
        "events": _jsonify(list(events)),
        "operating_jam_dbm": operating,
    }}


@dataclass(frozen=True)
class _Mode:
    """A scenario mode: its operation, the target counts it accepts, its
    mode_params keys with their defaults (None: no default), the check
    those params, over the defaults, pass at construction, and for a
    power_sweep mode the step that adds extras after its one search."""

    operation: Callable[[ScenarioSpec], RunResult]
    targets: tuple[float, float]
    params: Mapping = field(default_factory=dict)
    check: Callable[[ScenarioSpec, Mapping], object] | None = None
    scan: Callable[[Environment, ScenarioSpec, RisConfig, TargetRow],
                   dict] | None = None


_ANY, _SOME, _ONE = (0, math.inf), (1, math.inf), (1, 1)

_MODES = {
    "packet-rate": _Mode(power_sweep, _SOME),
    "throughput": _Mode(
        power_sweep, _SOME, {"offered_load_mbps": 30.0},
        lambda spec, params: _number_param(params, "offered_load_mbps",
                                           low=0, strict=True)),
    "jsr-matrix": _Mode(run_jsr_matrix, _ANY),
    "heatmap": _Mode(
        power_sweep, _ONE,
        {"step_m": 0.01, "x_extent_m": 0.75, "y_extent_m": 0.50,
         **dict.fromkeys(_WINDOW_KEYS)},
        _check_heatmap, _heatmap_grid),
    "element-sweep": _Mode(element_sweep, _ONE,
                           {"counts": None, "repeats": 1}, _check_counts),
    "displacement": _Mode(
        power_sweep, _ONE,
        {"minimized": None, "step_mm": 4.0, "max_mm": 48.0},
        _check_displacement, _displacement_curves),
    "exclusion": _Mode(run_exclusion, _ANY, {"exclude": None},
                       _check_exclusion),
    "directional-baseline": _Mode(
        directional_baseline, _ONE,
        {"gain_dbi": 19.0, "front_back_db": 25.0, "beamwidth_deg": 10.0,
         "diffuse_db": 0.0},
        lambda spec, params: _antenna(params)),
    "perturbation": _Mode(power_sweep, _SOME,
                          {"schedule": (), "duration": None},
                          _check_schedule, _perturbation_series),
}
MODES = tuple(_MODES)


def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Dispatch a scenario to its mode's operation."""
    return _MODES[spec.mode].operation(spec)


# ---------------------------------------------------------------------------
# Plain-dict round trip (the CLI's JSON schema)
# ---------------------------------------------------------------------------


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """Canonical, fully defaulted form; stable under input key reordering."""
    doc = {f.name: getattr(spec, f.name) for f in fields(spec)}
    env = doc.pop("environment")
    if isinstance(env, Environment):
        doc["environment_document"] = environment_to_dict(env)
    else:
        doc["environment"] = {f.name: getattr(env, f.name)
                              for f in fields(env)}
        doc["environment"]["devices"] = dict(sorted(env.devices.items()))
    return _jsonify({key: asdict(value) if is_dataclass(value) else value
                     for key, value in doc.items()})


# Scenario fields that hold a stored world in place of "environment".
_STORED_ENVIRONMENT = ("environment_document", "environment_file")


def scenario_from_dict(doc: Mapping, base_dir=None) -> ScenarioSpec:
    """Build a validated spec from a plain JSON-style document.

    Its fields are ScenarioSpec's; the settings objects take their own
    fields, and an absent field takes the dataclass default.
    """
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    spec_fields = fields(ScenarioSpec)
    _reject_unknown(doc, {f.name for f in spec_fields}
                    | set(_STORED_ENVIRONMENT))
    worlds = [key for key in ("environment", *_STORED_ENVIRONMENT)
              if key in doc]
    if len(worlds) > 1:
        raise ScenarioError(f"conflicts with {worlds[0]}: a scenario names "
                            f"one world", worlds[1])
    kwargs = {f.name: doc[f.name] for f in spec_fields if f.name in doc}
    if any(key in doc for key in _STORED_ENVIRONMENT):
        kwargs["environment"] = _stored_environment(doc, base_dir)
    else:
        kwargs["environment"] = _environment_spec_from_dict(
            doc.get("environment", {}))
    try:
        for f in spec_fields:
            if f.name in doc and is_dataclass(f.default_factory):
                raw = _mapping(doc, f.name)
                _reject_unknown(raw, {g.name for g in
                                      fields(f.default_factory)},
                                f"{f.name}.")
                kwargs[f.name] = f.default_factory(**raw)
            elif f.name not in kwargs \
                    and f.default is f.default_factory is MISSING:
                raise ScenarioError("required field is missing", f.name)
        return ScenarioSpec(**kwargs)
    except TypeError as exc:
        raise ScenarioError(str(exc)) from exc


def _mapping(doc: Mapping, key: str) -> Mapping:
    value = doc.get(key, {})
    if not isinstance(value, Mapping):
        raise ScenarioError("must be an object", key)
    return value


def _stored_environment(doc: Mapping, base_dir) -> Environment:
    """The world held by a scenario's environment_document or _file."""
    if "environment_document" in doc:
        key = "environment_document"
        source = _mapping(doc, key)
    else:
        key, source = "environment_file", doc["environment_file"]
        if not isinstance(source, str):
            raise ScenarioError("must be a file path", key)
        source = read_json(Path(base_dir or ".") / source, "environment", key)
    try:
        return environment_from_dict(source)
    except (AttributeError, KeyError, OSError, OverflowError, TypeError,
            ValueError) as exc:
        raise ScenarioError(f"not a stored environment: {exc}", key) from exc


def _environment_spec_from_dict(env_doc: Mapping) -> EnvironmentSpec:
    if not isinstance(env_doc, Mapping):
        raise ScenarioError("must be an object", "environment")
    _reject_unknown(env_doc, {f.name for f in fields(EnvironmentSpec)},
                    "environment.")
    kwargs = dict(env_doc)
    devices = kwargs.pop("devices", None)
    attacker = kwargs.pop("attacker_position", None)
    if devices is None:
        devices = dict(DESK_DEVICES)
        attacker = attacker if attacker is not None else DESK_ATTACKER
    elif not isinstance(devices, Mapping):
        raise ScenarioError("must map device ids to positions",
                            "environment.devices")
    elif attacker is None:
        raise ScenarioError("attacker_position is required when devices are "
                            "given", "environment.attacker_position")
    return EnvironmentSpec(devices=devices, attacker_position=attacker,
                           **kwargs)
