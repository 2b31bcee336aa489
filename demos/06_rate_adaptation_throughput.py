"""Jamming a live network that fights back with rate adaptation.

Monitor-mode packet rates isolate the physical layer; a real network
instead lowers its MCS under interference, trading speed for robustness.
The attacker must spend the extra power to beat MCS 0 at the target, which
eats into the margin protecting the non-targets.
"""

from risjam import MCS_RATES_MBPS, MCS_THRESHOLDS_DB, power_sweep
from risjam.channel import EnvironmentSpec, Position
from risjam.link import packet_success_prob
from risjam.scenarios import OptimizerSettings, ScenarioSpec

print("MCS ladder (SJNR threshold -> PHY rate):")
for mcs in range(8):
    print(f"  MCS {mcs}: {MCS_THRESHOLDS_DB[mcs]:4.0f} dB -> "
          f"{MCS_RATES_MBPS[mcs]:5.1f} Mbit/s")
print(f"success at threshold is 0.5 by construction: "
      f"{packet_success_prob(MCS_THRESHOLDS_DB[4], 4):.2f}")

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

spec = ScenarioSpec(
    environment=env, mode="throughput", targets=("A",), seed=5,
    optimizer=OptimizerSettings(steps=1500, reeval_period=500, table_size=60),
    mode_params={"offered_load_mbps": 30.0},
)
result = power_sweep(spec)
row = result.rows[0]
baseline = result.extras["unjammed_throughput_mbps"]

print(f"\n30 Mbit/s offered to each device; jamming A at "
      f"{row.operating_jam_dbm:.0f} dBm (enough to beat MCS 0):")
print(f"{'device':>8} {'unjammed':>9} {'jammed':>8}")
for dev in result.devices:
    print(f"{dev:>8} {baseline[dev]:>6.1f} Mb {row.throughput_mbps[dev]:>5.1f} Mb")
print("\nthe target is silenced even though its link dropped to MCS 0; "
      "the others keep their stream.")
