"""risjam: selective wireless jamming with a binary reconfigurable surface.

A seeded Clarke-model multipath world, a binary surface-configuration
algebra, a table-based greedy genetic search driven by noisy RSSI
measurements, link-level reception models (JSR, SJNR, packet rates,
adaptive throughput), and a scenario harness that reproduces the standard
experiments: single- and multi-target jamming, exclusion, power sweeps,
spatial heatmaps, element sweeps, environmental drift, and a
directional-antenna baseline.
"""

__version__ = "0.1.0"

from .channel import (
    Environment,
    EnvironmentSpec,
    Position,
    direct_channel,
    environment_from_dict,
    environment_to_dict,
    expected_spatial_correlation,
    first_correlation_null_m,
    move_device,
    path_loss_db,
    perturb_environment,
    received_rssi,
    ris_subchannels,
    save_environment,
    spatial_correlation,
    synthesize_environment,
)
from .link import (
    LinkState,
    MCS_RATES_MBPS,
    MCS_THRESHOLDS_DB,
    jsr_db,
    packet_rate,
    packet_success_prob,
    rate_adapt_step,
    sjnr_db,
    throughput_mbps,
)
from .optimizer import (
    CostWeights,
    OptimizerState,
    Trace,
    aggregate_cost,
    brute_force_best,
    convergence_stats,
    cost_margin_db,
    element_probabilities,
    optimizer_init,
    optimizer_step,
    run_optimizer,
)
from .ris import (
    RisConfig,
    compose_channel,
    enumerate_configs,
    hamming_distance,
    random_config,
)
from .scenarios import (
    RssiOracle,
    RunResult,
    ScenarioError,
    ScenarioSpec,
    desk_environment_spec,
    desk_scenario,
    directional_baseline,
    directional_gain_db,
    element_sweep,
    power_sweep,
    random_config_eval,
    run_exclusion,
    run_jsr_matrix,
    run_scenario,
)
