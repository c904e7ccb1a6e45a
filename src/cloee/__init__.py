"""Energy-efficiency link adaptation for IEEE 802.15.6 IR-UWB body area networks.

Models the UWB PHY frame structure, coded-frame delivery probabilities and
transceiver energy, and jointly optimizes the PSDU size and pulses-per-burst
for energy efficiency under an aggregate minimum-rate constraint.
"""

from .channel import (
    ChannelParams,
    LinkBudget,
    bit_error_prob,
    link_budget,
    log_q_function,
    path_loss_db,
    q_function,
)
from .energy import (
    EnergyBreakdown,
    EnergyParams,
    energy_breakdown,
    overhead_energy,
    payload_energy_per_bit,
    startup_energy,
)
from .errors import ConfigError
from .frame import (
    FRAME_CONSTANTS,
    MODE_TABLE,
    PHR_CODE,
    PSDU_CODE,
    BchCode,
    FrameConstants,
    PhyMode,
)
from .metrics import HeaderSuccess, LinkModel, ModeMetrics, QosSpec
from .optimizer import (
    OptResult,
    SolverConfig,
    cloee,
    exhaustive_search,
    nt_closed_form,
    snap_to_grid,
    solve_mode,
)
from .reliability import bch_block_log_success, bch_block_success, kasami_success, shr_success
from .scenario import Scenario, load_scenario, parse_scenario
from .sweep import SweepRow, emit_curves, run_sweep, rows_to_csv

__version__ = "0.1.0"

__all__ = [
    "BchCode", "ChannelParams", "ConfigError", "EnergyBreakdown", "EnergyParams",
    "FRAME_CONSTANTS", "FrameConstants", "HeaderSuccess", "LinkBudget", "LinkModel",
    "MODE_TABLE", "ModeMetrics", "OptResult", "PHR_CODE", "PSDU_CODE", "PhyMode",
    "QosSpec", "Scenario", "SolverConfig", "SweepRow",
    "bch_block_log_success", "bch_block_success", "bit_error_prob", "cloee",
    "emit_curves", "energy_breakdown", "exhaustive_search", "kasami_success",
    "link_budget", "load_scenario", "log_q_function", "nt_closed_form",
    "overhead_energy", "parse_scenario", "path_loss_db", "payload_energy_per_bit",
    "q_function", "rows_to_csv", "run_sweep", "shr_success", "snap_to_grid",
    "solve_mode", "startup_energy",
]
