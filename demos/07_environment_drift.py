"""Does a frozen configuration survive a changing world?

Plays a schedule of environmental events against a fixed optimized
configuration: mild scatterer churn (people walking, furniture appearing)
barely moves the needle, but relocating the target by half a wavelength
releases it; re-running the optimization restores selectivity.
"""

from risjam import power_sweep
from risjam.channel import EnvironmentSpec, Position, move_device
from risjam.scenarios import OptimizerSettings, ScenarioSpec

DEVICES = {
    "D0": Position(3.0, 3.6, 1.2),
    "A": Position(1.6, 3.0, 0.9),
    "B": Position(1.9, 2.8, 0.9),
    "C": Position(3.6, 1.2, 0.9),
    "D": Position(3.9, 1.0, 0.9),
    "E": Position(2.9, 3.1, 0.9),
}
env = EnvironmentSpec(devices=DEVICES,
                      attacker_position=Position(0.4, 0.9, 1.0),
                      n_elements=192, scatter_count=64)
opt = OptimizerSettings(steps=1500, reeval_period=500, table_size=60)

lam = 299792458.0 / 5.56e9
schedule = [
    {"time": 1, "fraction": 0.02, "seed": 11},   # someone walks through
    {"time": 2, "fraction": 0.05, "seed": 12},   # furniture moves in
    {"time": 3, "device": "A",                   # the target itself moves
     "position": [DEVICES["A"].x + lam / 2, DEVICES["A"].y, DEVICES["A"].z]},
]

spec = ScenarioSpec(environment=env, mode="perturbation", targets=("A",),
                    seed=5, optimizer=opt,
                    mode_params={"schedule": schedule, "duration": 4})
result = power_sweep(spec)
series = result.extras["timeseries"]

labels = ["original", "2% churn", "5% churn", "target moved λ/2"]
print("packet rates under a frozen configuration:")
print(f"{'state':>18} " + " ".join(f"{d:>5}" for d in result.devices))
for t, label in enumerate(labels):
    rates = [series["rates"][d][t] for d in result.devices]
    print(f"{label:>18} " + " ".join(f"{r:5.0f}" for r in rates))

# After the move the stale configuration no longer reaches the target;
# re-optimizing on the new geometry restores the focus.
moved_env = move_device(spec.build_environment(), "A",
                        Position(DEVICES["A"].x + lam / 2, DEVICES["A"].y,
                                 DEVICES["A"].z))
renewed = power_sweep(ScenarioSpec(
    environment=moved_env, mode="packet-rate", targets=("A",), seed=5,
    optimizer=opt))
rates = renewed.rows[0].packet_rate
print("\nafter re-optimization on the moved roster:",
      {d: round(r) for d, r in rates.items()})
print(f"restored separation: {renewed.rows[0].separation_db():.0f} dB")
