"""Hybrid VLC-RF secrecy toolkit.

Models an indoor downlink over visible light with simultaneous lightwave
information and power transfer, an energy-harvesting RF uplink overheard
by an eavesdropper, and solves for the TDMA time-slot split that maximizes
the uplink secrecy capacity subject to a downlink sum-rate target.
"""

from vlcrf.vlc_channel import (
    Vec3,
    LedConfig,
    PhotodiodeConfig,
    UserTerminal,
    lambertian_order,
    link_angles,
    concentrator_gain,
    vlc_channel_gain,
)
from vlcrf.rf_channel import RicianConfig, FadingSample, los_component, sample_rician_gain
from vlcrf.link_budget import (
    ScenarioChannels,
    Allocation,
    harvested_energy,
    ul_power,
    ul_energy,
    dl_rate_coefficients,
    dl_sum_rate,
    secrecy_capacity_user,
    objective_value,
    objective_and_gradient,
)
from vlcrf.dc_solver import (
    FeasibleSet,
    DcaSettings,
    DcaResult,
    check_feasibility,
    initial_allocation,
    dca_solve,
    kkt_residual,
)
from vlcrf.reference_oracle import GridSpec, OracleComparison, grid_search, compare
from vlcrf.experiment import ExperimentConfig, ConfigError, load_config, generate_scenario, run_sweep

__version__ = "0.1.0"
