"""Jamming several devices at once, and everyone-but-one.

Focusing the same surface on K targets splits the delivered power roughly
as 10*log10(K) per target; the exclusion scenario pushes this to its limit
by targeting every device except one.
"""

import numpy as np

from risjam import power_sweep, run_exclusion
from risjam.channel import EnvironmentSpec, Position
from risjam.scenarios import OptimizerSettings, ScenarioSpec

env = EnvironmentSpec(
    devices={
        "D0": Position(3.0, 3.6, 1.2),
        "A": Position(1.6, 3.0, 0.9),
        "B": Position(1.9, 2.8, 0.9),
        "C": Position(3.6, 1.2, 0.9),
        "D": Position(3.9, 1.0, 0.9),
        "E": Position(2.9, 3.1, 0.9),
    },
    attacker_position=Position(0.4, 0.9, 1.0),
    n_elements=192,
    scatter_count=64,
)
opt = OptimizerSettings(steps=1500, reeval_period=500, table_size=60)


def scenario(mode, targets=(), **kw):
    return ScenarioSpec(environment=env, mode=mode, targets=targets, seed=5,
                        optimizer=opt, **kw)


# Two targets in one go.
pair = power_sweep(scenario("packet-rate", ("A", "C")))
print("targets A + C:",
      {d: round(r) for d, r in pair.rows[0].packet_rate.items()})

# The power-split law: per-target delivered channel gain drops by about
# 10*log10(K) dB compared to a dedicated single-target focus.
multi_gain = pair.extras["delivered_gain_db"]
drops = []
for target in ("A", "C"):
    single = power_sweep(scenario("packet-rate", (target,)))
    drops.append(multi_gain[target]
                 - single.extras["delivered_gain_db"][target])
print(f"per-target delivered gain vs dedicated focus: "
      f"{np.mean(drops):+.1f} dB (theory for K=2: "
      f"{-10 * np.log10(2):.1f} dB)")

# Exclusion: disrupt everything except E.
excl = run_exclusion(scenario("exclusion", mode_params={"exclude": "E"}))
row = excl.rows[0]
print(f"\nexclusion of E -> targets {row.label()}")
print("packet rates:", {d: round(r) for d, r in row.packet_rate.items()})
print(f"excluded device stays at {row.packet_rate['E']:.0f} packets/s")
