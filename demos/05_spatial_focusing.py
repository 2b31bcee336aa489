"""How sharp is the focus in space?

Scans the jamming field on a grid around the optimized focus (the robot
experiment in miniature), then slides a maximized and a minimized receiver
along a rail to expose the correlation-length physics, and finally sweeps
the number of active surface elements.
"""

import numpy as np

from risjam import element_sweep, power_sweep
from risjam.channel import EnvironmentSpec, Position
from risjam.scenarios import OptimizerSettings, ScenarioSpec

env = EnvironmentSpec(
    devices={
        "D0": Position(3.0, 3.6, 1.2),
        "A": Position(1.6, 3.0, 0.9),
        "B": Position(1.9, 2.8, 0.9),
        "C": Position(3.6, 1.2, 0.9),
    },
    attacker_position=Position(0.4, 0.9, 1.0),
    n_elements=192,
    scatter_count=64,
)
opt = OptimizerSettings(steps=1500, reeval_period=500, table_size=60)


def scenario(mode, **kw):
    return ScenarioSpec(environment=env, mode=mode, targets=("A",), seed=5,
                        optimizer=opt, **kw)


# Power heatmap around the focus, normalized to the optimization position.
hm = power_sweep(scenario("heatmap",
                          mode_params={"x_extent_m": 0.3, "y_extent_m": 0.2,
                                       "step_m": 0.01}))
grid = np.array(hm.extras["heatmap"]["normalized_db"])
xs = np.array(hm.extras["heatmap"]["x_m"])
ys = np.array(hm.extras["heatmap"]["y_m"])
fx, fy, _ = hm.extras["heatmap"]["focus"]
rr = np.hypot(*np.meshgrid(xs - fx, ys - fy))
print(f"heatmap {grid.shape[1]}x{grid.shape[0]} cells at 10 mm")
print(f"  at focus: {grid[rr < 0.005].max():.1f} dB (0 by normalization)")
for radius in (0.03, 0.06, 0.09):
    ring = grid[(rr > radius - 0.005) & (rr < radius + 0.005)]
    print(f"  ring {radius * 100:.0f} cm: mean {ring.mean():6.1f} dB")

# Displacement rail: the maximized channel decays into the multipath
# background near the first correlation null; the minimized channel climbs
# out of its notch.
disp = power_sweep(scenario(
    "displacement", mode_params={"minimized": "B", "step_mm": 4.0,
                                 "max_mm": 40.0}))
data = disp.extras["displacement"]
print(f"\ndisplacement rail (correlation null expected near "
      f"{data['expected_null_mm']:.0f} mm):")
print(f"  {'mm':>4} {'maximized':>10} {'minimized':>10}")
for i, mm in enumerate(data["displacements_mm"]):
    print(f"  {mm:4.0f} {data['maximized_db'][i]:>7.1f} dB "
          f"{data['minimized_db'][i]:>7.1f} dB")

# Active-element sweep: fewer live elements, weaker selectivity.
sweep = element_sweep(scenario("element-sweep",
                               mode_params={"counts": [16, 48, 96, 192]}))
print("\ntarget/non-target separation vs active elements:")
for count, values in sweep.extras["element_sweep"]["separation_db"].items():
    print(f"  {count:>4} elements: {values[0]:6.1f} dB")
