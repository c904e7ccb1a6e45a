"""Energy-efficiency link adaptation for IEEE 802.15.6 IR-UWB body area networks.

Models the UWB PHY frame structure, coded-frame delivery probabilities and
transceiver energy, and jointly optimizes the PSDU size and pulses-per-burst
for energy efficiency under an aggregate minimum-rate constraint.
"""

from .channel import ChannelParams, bit_error_probs
from .energy import EnergyBreakdown, EnergyParams, energy_breakdown
from .errors import ConfigError
from .frame import (
    FRAME_CONSTANTS,
    MODE_TABLE,
    PHR_CODE,
    PSDU_CODE,
    FrameConstants,
    PhyMode,
)
from .metrics import LinkModel, ModeMetrics, QosSpec
from .optimizer import (
    OptResult,
    SolverConfig,
    cloee,
    exhaustive_search,
    nt_closed_form,
    solve_mode,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .sweep import SweepRow, emit_curves, run_sweep, rows_to_csv

__version__ = "0.1.0"

# The supported library; other module-level names are internal.
__all__ = [
    "ChannelParams", "ConfigError", "EnergyBreakdown", "EnergyParams",
    "FRAME_CONSTANTS", "FrameConstants", "LinkModel", "MODE_TABLE", "ModeMetrics",
    "OptResult", "PHR_CODE", "PSDU_CODE", "PhyMode", "QosSpec", "Scenario",
    "SolverConfig", "SweepRow", "bit_error_probs", "cloee", "emit_curves",
    "energy_breakdown", "exhaustive_search", "load_scenario", "nt_closed_form",
    "parse_scenario", "rows_to_csv", "run_sweep", "solve_mode",
]
