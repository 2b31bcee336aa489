"""Reception quality: JSR, SJNR, packet success, rate adaptation, throughput.

The MCS table is a calibration, not ground truth: thresholds follow typical
single-stream 20 MHz receiver sensitivity steps with an 18 dB span between
the lowest and highest index, and the rate column spans a factor of 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel, ris

# SJNR threshold (dB) and PHY rate (Mbit/s) of MCS index 0..7.
MCS_THRESHOLDS_DB = (4.0, 7.0, 9.0, 12.0, 15.0, 18.0, 20.0, 22.0)
MCS_RATES_MBPS = (6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0)

LOGISTIC_SLOPE_DB = 0.5        # ~2 dB success transition width
PROTOCOL_EFFICIENCY = 0.55     # MAC/PHY overhead factor on the PHY rate
RATE_WINDOW = 50               # packets per adaptation window
DOWNGRADE_BELOW = 0.5
UPGRADE_ABOVE = 0.9
MONITOR_MCS = 6
PACKETS_PER_SECOND = 100


def _check_mcs(mcs: int) -> int:
    if not 0 <= mcs <= 7:
        raise ValueError(f"mcs index {mcs} out of range 0..7")
    return mcs


def jsr_db(jam_gain: complex, sig_gain: complex,
           jam_power_dbm: float, sig_power_dbm: float) -> float:
    """Jamming-to-signal ratio at a receiver, in dB."""
    if abs(sig_gain) == 0.0:
        raise ValueError("signal gain must be non-zero")
    jam = jam_power_dbm + 20.0 * math.log10(abs(jam_gain))
    sig = sig_power_dbm + 20.0 * math.log10(abs(sig_gain))
    return jam - sig


def sjnr_db(sig_dbm, jam_dbm, noise_dbm):
    """Signal over combined jamming-plus-noise power, in dB."""
    interference = 10.0 * np.log10(10.0 ** (np.asarray(jam_dbm) / 10.0)
                                   + 10.0 ** (np.asarray(noise_dbm) / 10.0))
    out = np.asarray(sig_dbm) - interference
    return float(out) if out.ndim == 0 else out


def packet_success_prob(sjnr: float, mcs: int):
    """Smooth reception model: logistic in SJNR around the MCS threshold."""
    threshold = MCS_THRESHOLDS_DB[_check_mcs(mcs)]
    z = (np.asarray(sjnr, dtype=float) - threshold) / LOGISTIC_SLOPE_DB
    # Far below the threshold exp(-z) overflows to inf, and 1 / inf is
    # the exact 0.0 the probability rounds to anyway.
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-z))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LinkState:
    """Per-device adaptive-rate accounting."""

    mcs: int = 7
    window: tuple[bool, ...] = ()
    offered_load_mbps: float = 30.0
    good_streak: int = 0

    def with_window(self, outcomes) -> "LinkState":
        window = tuple(bool(v) for v in outcomes)
        if len(window) > RATE_WINDOW:
            raise ValueError(f"window length {len(window)} exceeds {RATE_WINDOW}")
        return replace(self, window=window)


def rate_adapt_step(state: LinkState) -> LinkState:
    """Window-based rate decision; clears the window afterwards.

    Below 50% success the sender steps the MCS down; two consecutive
    windows above 90% step it up.
    """
    if not state.window:
        raise ValueError("window must not be empty")
    success = sum(state.window) / len(state.window)
    mcs, streak = state.mcs, state.good_streak
    if success < DOWNGRADE_BELOW:
        mcs = max(0, mcs - 1)
        streak = 0
    elif success > UPGRADE_ABOVE:
        streak += 1
        if streak >= 2:
            mcs = min(7, mcs + 1)
            streak = 0
    else:
        streak = 0
    return replace(state, mcs=mcs, window=(), good_streak=streak)


def throughput_mbps(state: LinkState, success_prob: float) -> float:
    """Delivered rate, capped by the offered load."""
    if state.offered_load_mbps <= 0:
        raise ValueError("offered load must be positive")
    return min(state.offered_load_mbps,
               MCS_RATES_MBPS[_check_mcs(state.mcs)] * success_prob
               * PROTOCOL_EFFICIENCY)


def packet_rate(env: channel.Environment, config: ris.RisConfig,
                jam_power_dbm: float, ap_power_dbm: float,
                device: str, ap_id: str) -> float:
    """Monitor-mode packets per second out of 100 at a fixed MCS."""
    if device not in env.devices:
        raise KeyError(f"unknown device id {device!r}")
    pos = env.devices[device]
    jam_gain = ris.compose_channel(config, channel.ris_subchannels(env, pos, device))
    sig_gain = channel.direct_channel(env, ap_id, pos)
    jam_dbm = jam_power_dbm + 20.0 * math.log10(max(abs(jam_gain),
                                                    channel._TINY_GAIN))
    sig_dbm = ap_power_dbm + 20.0 * math.log10(abs(sig_gain))
    return _packet_rates(env, jam_dbm, sig_dbm)


def _packet_rates(env: channel.Environment, jam_dbm, sig_dbm,
                  mcs: int = MONITOR_MCS):
    """Packet rates at fixed MCS for jamming and access-point levels (dBm,
    scalars or arrays)."""
    ratio = sjnr_db(sig_dbm, jam_dbm, env.noise_floor_dbm)
    return PACKETS_PER_SECOND * packet_success_prob(ratio, mcs)
