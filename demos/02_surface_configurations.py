"""Binary surface configurations and the composed channel.

Shows the coefficient algebra, what phase alignment buys on a random
multipath channel, and an exhaustive search on a tiny surface.
"""

import numpy as np

from risjam import (
    RisConfig,
    brute_force_best,
    compose_channel,
    cost_margin_db,
    enumerate_configs,
    hamming_distance,
    random_config,
)

# Bit 0 reflects with +1, bit 1 with -1.
cfg = RisConfig([0, 1, 0, 0])
print("bits", cfg.bits, "-> coefficients", cfg.coefficients())
print("hex form:", cfg.to_json())

# Two equal sub-channels cancel under opposite signs and double when aligned.
h = np.array([1 + 0j, 1 + 0j])
print("\naligned:", compose_channel(RisConfig([0, 0]), h),
      " opposed:", compose_channel(RisConfig([0, 1]), h))

# On a random 12-element channel, compare a random configuration against
# the best sign pattern found by exhaustion.
rng = np.random.default_rng(3)
h = (rng.normal(size=12) + 1j * rng.normal(size=12)) / np.sqrt(2)

best_cfg = max(enumerate_configs(12),
               key=lambda c: abs(compose_channel(c, h)))
best_gain = abs(compose_channel(best_cfg, h))
rand_cfg = random_config(12, seed=5)
rand_gain = abs(compose_channel(rand_cfg, h))
print(f"\n12-element channel: random config gain {rand_gain:.2f}, "
      f"exhaustive best {best_gain:.2f} "
      f"({20 * np.log10(best_gain / rand_gain):+.1f} dB)")
print(f"hamming distance between them: "
      f"{hamming_distance(rand_cfg, best_cfg)} of 12")

# brute_force_best works against any measurement oracle, which is given a
# configuration's 0/1 bits; here the oracle rewards delivering power to a
# target channel and not to a bystander.
h_target = (rng.normal(size=10) + 1j * rng.normal(size=10)) / np.sqrt(2)
h_other = (rng.normal(size=10) + 1j * rng.normal(size=10)) / np.sqrt(2)


def oracle(bits):
    config = RisConfig(bits)
    t = -60 + 20 * np.log10(abs(compose_channel(config, h_target)) + 1e-12)
    n = -60 + 20 * np.log10(abs(compose_channel(config, h_other)) + 1e-12)
    return np.array([t]), np.array([n])


best, cost = brute_force_best(10, oracle)
print(f"\nbest of 2^10 configurations separates the two receivers by "
      f"{cost_margin_db(cost):.1f} dB")
