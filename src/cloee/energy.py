"""Transceiver energy model: per-bit payload energy, overhead and startup.

Transmit cost is pulse energy plus the synthesizer running for the on-air
time; receive cost is the analog front end (RAKE correlators, LNA, VGA, plus
ADC for soft decisions and generator+synthesizer for coherent detection)
integrated over the same time.  rho_r and rho_c switch the coherent /
soft-decision terms; the defaults model a non-coherent hard-decision
energy detector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConfigError, is_int
from .frame import FRAME_CONSTANTS, MODE_TABLE, PhyMode


@dataclass(frozen=True)
class EnergyParams:
    """Per-pulse energy and circuit powers (W), startup time (s)."""

    eps_p: float = 20e-12
    p_cor: float = 10.08e-3
    p_adc: float = 2.2e-3
    p_lna: float = 9.4e-3
    p_vga: float = 22e-3
    p_syn: float = 30.6e-3
    p_gen: float = 2.8e-3
    t_st: float = 400e-6
    m_fingers: int = 1      # RAKE fingers; 1 for the energy-detector setup
    rho_r: int = 0          # 1 coherent / 0 non-coherent
    rho_c: int = 0          # 1 soft / 0 hard decision

    def __post_init__(self):
        for name in ("eps_p", "p_cor", "p_adc", "p_lna", "p_vga", "p_syn", "p_gen", "t_st"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"energy.{name}", f"must be finite and >= 0, got {value}")
        if self.eps_p == 0:
            raise ConfigError("energy.eps_p", f"must be > 0, got {self.eps_p}")
        for name in ("m_fingers", "rho_r", "rho_c"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigError(f"energy.{name}", f"must be an integer, got {value!r}")
        if self.m_fingers < 0:
            raise ConfigError("energy.m_fingers", f"must be >= 0, got {self.m_fingers}")
        for name in ("rho_r", "rho_c"):
            if getattr(self, name) not in (0, 1):
                raise ConfigError(f"energy.{name}", f"must be 0 or 1, got {getattr(self, name)}")
        # Finite settings can still overflow a cost, or the cost ratio the
        # solver's closed form takes, and the solver would then fail on a NaN.
        try:
            bad = [m.n_cpb for m, b in zip(MODE_TABLE, self.breakdowns) if not all(
                map(math.isfinite, (b.eps_b, b.eps_oh, b.eps_st, b.eps_fixed / b.eps_b)))]
        except OverflowError:            # an integer too large to convert to a float
            bad = [m.n_cpb for m in MODE_TABLE]
        if bad:
            raise ConfigError("energy", f"the energy costs of burst mode n_cpb={bad[0]} "
                                        "overflow a float")

    @functools.cached_property
    def breakdowns(self) -> tuple[EnergyBreakdown, ...]:
        """Each MODE_TABLE mode's energy_breakdown; not a field, so ==, hash and repr skip it."""
        return tuple(energy_breakdown(mode, self) for mode in MODE_TABLE)

    @property
    def rx_chain_power(self) -> float:
        """Receive-side power drawn while the radio is on."""
        return (
            self.m_fingers * self.p_cor
            + self.rho_c * self.p_adc
            + self.p_lna
            + self.p_vga
            + self.rho_r * (self.p_gen + self.p_syn)
        )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy cost of one PPDU exchange: eps_b per payload bit plus fixed terms."""

    eps_b: float
    eps_oh: float
    eps_st: float

    @property
    def eps_fixed(self) -> float:
        return self.eps_oh + self.eps_st

    def total(self, n_t) -> float:
        """Total Joules for a PPDU carrying n_t payload bits (array-friendly)."""
        return n_t * self.eps_b + self.eps_oh + self.eps_st


def energy_breakdown(mode: PhyMode, ep: EnergyParams) -> EnergyBreakdown:
    """The energy costs of one PPDU exchange in burst mode `mode`.

    eps_b: both the transmit and receive frame energies are linear in the
    payload size (on-air time is n_t * t_sym), so the per-bit cost does not
    depend on the frame length.  eps_oh: the SHR + PHR pulses and on-air time
    of both radios.  eps_st: both radios start up, 2 * p_syn * t_st.
    """
    c = FRAME_CONSTANTS
    on_power = ep.p_syn + ep.rx_chain_power
    return EnergyBreakdown(
        eps_b=ep.eps_p * mode.n_cpb + on_power * mode.t_sym,
        eps_oh=(c.n_cpb_shr * c.n_shr + c.n_cpb_phr * c.n_phr) * ep.eps_p
        + on_power * c.t_overhead,
        eps_st=2.0 * ep.p_syn * ep.t_st,
    )


DEFAULT_ENERGY = EnergyParams()
