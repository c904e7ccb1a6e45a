"""Objective functions: energy efficiency (bits/Joule) and throughput (bits/s).

Both share the numerator n_t * P_SHR * P_PHR * P_CW^ceil(n_t/63): payload
bits delivered only when every frame section survives.  Efficiency divides by
the energy of one exchange, throughput by its on-air time.

LinkModel composes the channel, reliability and energy pieces for a given
distance.  By default each frame section is evaluated at its own burst order
(SHR at n_cpb=4, PHR at n_cpb=32, payload at the selected mode), matching the
section-specific constants of the energy model; uniform_section_ber=True
evaluates all three sections at the payload's bit error rate instead.

LinkModel.env(d, chi) is the one per-distance builder: with section-specific
rates the SHR/PHR bit error rates and header success do not depend on the
payload mode, so it computes them once and shares them across the six modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, DEFAULT_CHANNEL, bit_error_prob, link_budget
from .energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyParams, energy_breakdown
from .frame import (
    FRAME_CONSTANTS,
    MODE_TABLE,
    PHR_CODE,
    PSDU_CODE,
    BchCode,
    FrameConstants,
    PhyMode,
    mode_for,
)
from .reliability import bch_block_log_success, bch_block_success, kasami_success, shr_success


@dataclass(frozen=True)
class QosSpec:
    """Minimum-rate requirement: each of n_s nodes needs r0 bits/s."""

    r0: float = 15e3
    n_s: int = 24

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ValueError(f"r0 must be finite and > 0, got {self.r0}")
        if not 1 <= self.n_s <= 64:
            raise ValueError(f"a hub serves 1..64 nodes, got n_s={self.n_s}")

    @property
    def aggregate_rate(self) -> float:
        return self.r0 * self.n_s


@dataclass(frozen=True)
class HeaderSuccess:
    """Delivery probabilities of the SHR and PHR at their bit error rates."""

    p_b_shr: float
    p_b_phr: float
    p_kasami: float
    p_shr: float
    p_phr: float

    @classmethod
    def at(cls, p_b_shr: float, p_b_phr: float, consts: FrameConstants,
           phr_code: BchCode) -> HeaderSuccess:
        p_kasami = kasami_success(p_b_shr, consts.rho_sensitivity, consts.kasami_len)
        return cls(p_b_shr, p_b_phr, p_kasami, shr_success(p_kasami, consts.kasami_count),
                   bch_block_success(p_b_phr, (consts.n_phr, phr_code.t)))

    @property
    def success(self) -> float:
        """Both header sections survive."""
        return self.p_shr * self.p_phr


class ModeMetrics:
    """Everything the optimizer needs about one (distance, mode) pair.

    Link reliabilities and energies are computed once; eta()/rate() then
    evaluate the grid objectives (codeword-count exponent ceil(n_t/n)) for
    scalar or array n_t, while eta_cont()/rate_cont() use the relaxed
    exponent n_t/n that the closed forms differentiate.  The two agree
    exactly at multiples of n.
    """

    def __init__(self, mode: PhyMode, distance: float, chi: float, p_b: float,
                 header: HeaderSuccess, energy: EnergyBreakdown,
                 consts: FrameConstants, code: BchCode):
        self.mode = mode
        self.distance = distance
        self.chi = chi
        self.p_b = p_b
        self.header = header
        self.energy = energy
        self.consts = consts
        self.code = code
        self.n = code.n
        self.p_cw = bch_block_success(p_b, (code.n, code.t))
        self.log_p_cw = bch_block_log_success(p_b, (code.n, code.t))
        self.header_success = header.success
        self.t_sym = mode.t_sym
        self.t_oh = consts.t_overhead

    # -- grid objectives (integer frame sizes, whole codewords) ----------

    def n_cw(self, n_t):
        return np.ceil(np.asarray(n_t, dtype=float) / self.n)

    def success(self, n_t: int) -> float:
        """P(PPDU delivered) at one integer frame size: both header sections
        and all ceil(n_t/n) codewords survive."""
        n_cw = -(-int(n_t) // self.n)
        return self.header_success * math.exp(n_cw * self.log_p_cw)

    def eta(self, n_t):
        """Energy efficiency in bits/Joule at integer frame size(s)."""
        nt = np.asarray(n_t, dtype=float)
        out = nt * self.header_success * np.exp(self.n_cw(n_t) * self.log_p_cw) \
            / self.energy.total(nt)
        return float(out) if np.ndim(n_t) == 0 else out

    def rate(self, n_t):
        """Throughput in bits/s at integer frame size(s)."""
        nt = np.asarray(n_t, dtype=float)
        out = nt * self.header_success * np.exp(self.n_cw(n_t) * self.log_p_cw) \
            / (self.t_oh + nt * self.t_sym)
        return float(out) if np.ndim(n_t) == 0 else out

    # -- continuous relaxation (exponent n_t/n) --------------------------

    def success_cont(self, x: float) -> float:
        return self.header_success * math.exp(x * self.log_p_cw / self.n)

    def eta_cont(self, x: float) -> float:
        return x * self.success_cont(x) / self.energy.total(x)

    def rate_cont(self, x: float) -> float:
        return x * self.success_cont(x) / (self.t_oh + x * self.t_sym)

    def _grad(self, x: float, per_unit: float, fixed: float) -> float:
        c = self.log_p_cw / self.n
        denom = per_unit * x + fixed
        beta = c * x * x * per_unit + c * x * fixed + fixed
        return self.success_cont(x) * beta / (denom * denom)

    def eta_cont_grad(self, x: float) -> float:
        """d(eta_cont)/d(n_t); zero exactly at the closed-form optimum."""
        return self._grad(x, self.energy.eps_b, self.energy.eps_fixed)

    def rate_cont_grad(self, x: float) -> float:
        return self._grad(x, self.t_sym, self.t_oh)


@dataclass(frozen=True)
class LinkModel:
    """Channel + reliability + energy composition for the optimizer and CLI."""

    channel: ChannelParams = DEFAULT_CHANNEL
    energy: EnergyParams = DEFAULT_ENERGY
    consts: FrameConstants = FRAME_CONSTANTS
    code: BchCode = PSDU_CODE
    phr_code: BchCode = PHR_CODE
    uniform_section_ber: bool = False
    integration_per_pulse: bool = False

    def bit_error(self, distance: float, mode: PhyMode, chi: float = 0.0) -> float:
        lb = link_budget(distance, mode, self.energy.eps_p, self.channel, chi,
                         self.integration_per_pulse)
        return bit_error_prob(lb, mode)

    def _header(self, p_b_shr: float, p_b_phr: float) -> HeaderSuccess:
        return HeaderSuccess.at(p_b_shr, p_b_phr, self.consts, self.phr_code)

    def _shared_header(self, distance: float, chi: float) -> HeaderSuccess | None:
        """The header every mode shares at this distance; None under
        uniform_section_ber, where each mode's header runs at its own p_b."""
        if self.uniform_section_ber:
            return None
        return self._header(self.bit_error(distance, mode_for(self.consts.n_cpb_shr), chi),
                            self.bit_error(distance, mode_for(self.consts.n_cpb_phr), chi))

    def _build(self, distance: float, mode: PhyMode, chi: float,
               header: HeaderSuccess | None) -> ModeMetrics:
        p_b = self.bit_error(distance, mode, chi)
        return ModeMetrics(
            mode=mode,
            distance=distance,
            chi=chi,
            p_b=p_b,
            header=self._header(p_b, p_b) if header is None else header,
            energy=energy_breakdown(mode, self.energy, self.consts),
            consts=self.consts,
            code=self.code,
        )

    def mode_metrics(self, distance: float, mode: PhyMode, chi: float = 0.0) -> ModeMetrics:
        """One mode's metrics; the same values env() gives for that mode."""
        return self._build(distance, mode, chi, self._shared_header(distance, chi))

    def env(self, distance: float, chi: float = 0.0) -> tuple[ModeMetrics, ...]:
        """Metrics for all six burst modes at one distance, ascending n_cpb.

        The header reliability is built once and shared by the six modes."""
        header = self._shared_header(distance, chi)
        return tuple(self._build(distance, m, chi, header) for m in MODE_TABLE)
