"""End-to-end single-target attack on a small office roster.

The attacker eavesdrops the devices' transmissions through the surface
(channel reciprocity), runs the table search to focus on one device while
rejecting the rest, then jams: the result is a one-row JSR matrix, the
disruption knees from a power sweep, and per-device packet rates.
"""

from risjam import ScenarioSpec, power_sweep
from risjam.channel import EnvironmentSpec, Position
from risjam.scenarios import OptimizerSettings

env = EnvironmentSpec(
    devices={
        "D0": Position(3.0, 3.6, 1.2),   # access point
        "A": Position(1.6, 3.0, 0.9),
        "B": Position(1.9, 2.8, 0.9),    # 36 cm from A, same cluster
        "C": Position(3.6, 1.2, 0.9),
        "D": Position(3.9, 1.0, 0.9),
        "E": Position(2.9, 3.1, 0.9),
    },
    attacker_position=Position(0.4, 0.9, 1.0),
    n_elements=192,
    scatter_count=64,
)

spec = ScenarioSpec(
    environment=env,
    mode="packet-rate",
    targets=("A",),
    seed=5,
    name="demo-single-target",
    optimizer=OptimizerSettings(steps=1500, reeval_period=500, table_size=60),
)

result = power_sweep(spec)
row = result.rows[0]

print(f"optimized against target A; jamming at "
      f"{row.operating_jam_dbm:.0f} dBm "
      f"(knee {row.target_knee_dbm:.0f} dBm + 3 dB headroom)\n")
print(f"{'device':>8} {'attacker RSSI':>14} {'AP RSSI':>9} "
      f"{'norm JSR':>9} {'packets/s':>10}")
for dev in result.devices:
    print(f"{dev:>8} {row.attacker_rssi_dbm[dev]:>11.0f} dBm "
          f"{row.ap_rssi_dbm[dev]:>5.0f} dBm {row.norm_jsr_db[dev]:>6.0f} dB "
          f"{row.packet_rate[dev]:>10.1f}")

print(f"\npower margin until the first non-target is disrupted: "
      f"{row.margin_db:.0f} dB")

sweep = result.extras["sweep"]
powers = sweep["powers_dbm"]
knees = result.extras["knees_dbm"]
print("disruption knees:",
      {d: (f"{k:.0f} dBm" if k is not None else ">sweep top")
       for d, k in knees.items()})

# The trace records the search: best cost per step plus the table's worst.
trace = result.traces[0]
print(f"\nsearch trace: {trace.n_steps} steps, best-cost improvements "
      f"{len(trace.cost_drop_steps())} drops at re-evaluations, "
      f"final config {trace.final_config().to_hex()[:16]}…")
