"""Objective functions: energy efficiency (bits/Joule) and throughput (bits/s).

Both share the numerator n_t * P_SHR * P_PHR * P_CW^ceil(n_t/63): payload
bits delivered only when every frame section survives.  Efficiency divides by
the energy of one exchange, throughput by its on-air time.

LinkModel composes the channel, reliability and energy pieces for a given
distance.  By default each frame section is evaluated at its own burst order
(SHR at n_cpb=4, PHR at n_cpb=32, payload at the selected mode), matching the
section-specific constants of the energy model; uniform_section_ber=True
evaluates all three sections at the payload's bit error rate instead.

LinkModel.env(d, chi) is the one builder: it takes the six payload bit error
rates of a distance once, and with section-specific rates the header success
does not depend on the payload mode, so it reuses the rates of the modes at
n_cpb_shr and n_cpb_phr and shares one header across the six modes.

columns(envs) reads a block of environments of one LinkModel once, as
Columns, which the array evaluators (grid, the oracle, the block cloee pass
and the sweep's static rows) share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelParams, DEFAULT_CHANNEL, bit_error_probs
from .energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyParams
from .errors import ConfigError, is_int
from .frame import FRAME_CONSTANTS, MODE_POSITION, MODE_TABLE, PSDU_CODE, PhyMode
from .reliability import (KASAMI_BLOCK, PHR_BLOCK, PSDU_BLOCK, block_log_success, block_success,
                          shr_success)


# The MODE_TABLE positions of the SHR's and the PHR's burst orders.
_I_SHR = MODE_POSITION[FRAME_CONSTANTS.n_cpb_shr]
_I_PHR = MODE_POSITION[FRAME_CONSTANTS.n_cpb_phr]


@dataclass(frozen=True)
class QosSpec:
    """Minimum-rate requirement: each of n_s nodes needs r0 bits/s."""

    r0: float = 15e3
    n_s: int = 24

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ConfigError("qos.r0", f"must be finite and > 0, got {self.r0}")
        if not is_int(self.n_s):
            raise ConfigError("qos.n_s", f"must be an integer, got {self.n_s!r}")
        if not 1 <= self.n_s <= 64:
            raise ConfigError("qos.n_s", f"a hub serves 1..64 nodes, got {self.n_s}")

    @property
    def aggregate_rate(self) -> float:
        return float(self.r0 * self.n_s)        # a Python float, also for numpy r0 or n_s


@dataclass(frozen=True)
class HeaderSuccess:
    """Delivery probabilities of the SHR and PHR at their bit error rates."""

    p_b_shr: float
    p_b_phr: float
    p_kasami: float
    p_shr: float
    p_phr: float

    @classmethod
    def at(cls, p_b_shr: float, p_b_phr: float) -> HeaderSuccess:
        p_kasami = block_success(p_b_shr, KASAMI_BLOCK)
        return cls(p_b_shr, p_b_phr, p_kasami, shr_success(p_kasami),
                   block_success(p_b_phr, PHR_BLOCK))

    @property
    def success(self) -> float:
        """Both header sections survive."""
        return self.p_shr * self.p_phr


def _delivered(n_t, header_success, log_p_cw):
    """Delivered payload bits n_t * P(PPDU delivered); a float for an int n_t.

    On an array the codeword powers are taken in place and then scaled by
    n_t * header_success, which is the scalar expression's product with its
    factors swapped: multiplication commutes exactly, so every element keeps
    its bits.
    """
    powers = -(-n_t // PSDU_CODE.n) * log_p_cw
    if not isinstance(powers, np.ndarray):
        return float(n_t * header_success * np.exp(powers))
    np.exp(powers, out=powers)
    powers *= n_t * header_success
    return powers


class ModeMetrics:
    """Everything the optimizer needs about one (distance, mode) pair.

    Link reliabilities and energies are computed once.  success()/eta()/rate()
    evaluate the grid objectives, whose codeword count is ceil(n_t/n); eta,
    rate and eta_rate take an int or an int array (Columns.eta_rate takes a
    block of environments).
    success_cont()/rate_cont() use the relaxed exponent n_t/n that the closed
    forms differentiate; the two agree exactly at multiples of n.
    """

    n = PSDU_CODE.n     # for readers outside the package (perfbench/gen_binding.py)
    t_oh = FRAME_CONSTANTS.t_overhead       # the SHR + PHR air time of every mode

    def __init__(self, mode: PhyMode, distance: float, p_b: float, header: HeaderSuccess,
                 energy: EnergyBreakdown):
        self.mode = mode
        self.distance = distance
        self.p_b = p_b
        self.header = header
        self.energy = energy
        self.log_p_cw = block_log_success(p_b, PSDU_BLOCK)
        self.header_success = header.success
        self.t_sym = mode.t_sym

    # -- grid objectives (integer frame sizes, whole codewords) ----------

    def success(self, n_t: int) -> float:
        """P(PPDU delivered) at one integer frame size: both header sections
        and all ceil(n_t/n) codewords survive."""
        n_cw = -(-int(n_t) // PSDU_CODE.n)
        return self.header_success * math.exp(n_cw * self.log_p_cw)

    def eta(self, n_t):
        """Energy efficiency in bits/Joule at integer frame size(s)."""
        return _delivered(n_t, self.header_success, self.log_p_cw) / self.energy.total(n_t)

    def rate(self, n_t):
        """Throughput in bits/s at integer frame size(s)."""
        return _delivered(n_t, self.header_success, self.log_p_cw) / (self.t_oh + n_t * self.t_sym)

    def eta_rate(self, n_t):
        """(eta(n_t), rate(n_t)) from one numerator, bit for bit the two calls."""
        delivered = _delivered(n_t, self.header_success, self.log_p_cw)
        return delivered / self.energy.total(n_t), delivered / (self.t_oh + n_t * self.t_sym)

    # -- continuous relaxation (exponent n_t/n) --------------------------

    def success_cont(self, x: float) -> float:
        return self.header_success * math.exp(x * self.log_p_cw / PSDU_CODE.n)

    def rate_cont(self, x: float) -> float:
        return x * self.success_cont(x) / (self.t_oh + x * self.t_sym)

    def _grad(self, x: float, per_unit: float, fixed: float) -> float:
        c = self.log_p_cw / PSDU_CODE.n
        denom = per_unit * x + fixed
        beta = c * x * x * per_unit + c * x * fixed + fixed
        return self.success_cont(x) * beta / (denom * denom)

    def eta_cont_grad(self, x: float) -> float:
        """d/dx of the relaxed efficiency x * success_cont(x) / energy.total(x);
        zero exactly at the closed-form optimum."""
        return self._grad(x, self.energy.eps_b, self.energy.eps_fixed)

    def rate_cont_grad(self, x: float) -> float:
        return self._grad(x, self.t_sym, self.t_oh)


@dataclass(frozen=True)
class LinkModel:
    """Channel + reliability + energy composition for the optimizer and CLI."""

    channel: ChannelParams = DEFAULT_CHANNEL
    energy: EnergyParams = DEFAULT_ENERGY
    uniform_section_ber: bool = False
    integration_per_pulse: bool = False

    def env(self, distance: float, chi: float = 0.0) -> tuple[ModeMetrics, ...]:
        """Metrics for all six burst modes at one distance, ascending n_cpb.

        One path loss, one bit error rate per mode, and the energy costs in
        self.energy.breakdowns.  With section-specific rates the header runs at the
        payload rates of the modes at n_cpb_shr and n_cpb_phr, read from the rate
        list by MODE_TABLE position, and is built once for all six modes;
        uniform_section_ber gives each mode a header at its rate.  Every tail runs
        on the frame codes reliability split at import, so only each p_b is
        checked here, and each p_b's two logs are taken once per code.
        """
        p_b = bit_error_probs(distance, self.energy.eps_p, self.channel, chi,
                              self.integration_per_pulse)
        shared = None if self.uniform_section_ber else HeaderSuccess.at(p_b[_I_SHR], p_b[_I_PHR])
        return tuple(ModeMetrics(m, distance, p, shared or HeaderSuccess.at(p, p), energy)
                     for m, p, energy in zip(MODE_TABLE, p_b, self.energy.breakdowns))


class Columns(NamedTuple):
    """A block of environments of one LinkModel as (environments, modes, 1)
    columns and per-mode (modes, 1) rows: the one input of the array
    evaluators (grid, optimizer.search_envs and optimizer.solve_envs, and the
    sweep's static rows).  The trailing axis takes the frame sizes."""

    envs: Sequence[tuple[ModeMetrics, ...]]
    header_success: np.ndarray
    log_p_cw: np.ndarray
    energy: EnergyBreakdown          # eps_b, eps_oh and eps_st rows
    t_sym: np.ndarray

    def eta_rate(self, nts):
        """(etas, rates) at the frame sizes nts, an int array broadcast against
        (environments, modes, 1), from one numerator; each element equals the
        scalar eta/rate call of its mode bit for bit (the same expressions over
        the columns).  The divisions make at most one more array."""
        delivered = _delivered(nts, self.header_success, self.log_p_cw)
        etas = delivered / self.energy.total(nts)
        return etas, np.divide(delivered, ModeMetrics.t_oh + nts * self.t_sym, out=delivered)


def columns(envs: Sequence[tuple[ModeMetrics, ...]]) -> Columns:
    """The Columns of a block of environments of one LinkModel.

    A mode's energy and air time depend on the mode alone, so they are read
    once, from the first environment, as one row per mode; an environment
    whose j-th mode or energy breakdown differs from the first environment's
    raises ValueError.
    """
    first = envs[0]
    costs = [(mm.mode, mm.energy) for mm in first]
    if any([(mm.mode, mm.energy) for mm in env] != costs for env in envs):
        raise ValueError("a block takes environments of one LinkModel: every environment "
                         "needs the first one's modes and energy breakdowns, in its order")
    eps_b, eps_oh, eps_st, t_sym = np.array(
        [(mm.energy.eps_b, mm.energy.eps_oh, mm.energy.eps_st, mm.t_sym)
         for mm in first]).T[:, :, None]
    # numpy builds an array from a flat list of floats faster than from nested tuples.
    shape = (len(envs), len(first), 1)
    return Columns(envs,
                   np.array([mm.header_success for env in envs for mm in env]).reshape(shape),
                   np.array([mm.log_p_cw for env in envs for mm in env]).reshape(shape),
                   EnergyBreakdown(eps_b, eps_oh, eps_st), t_sym)


def grid(cols: Columns, n_t_max: int):
    """(nts, etas, rates) for a block's Columns at every codeword multiple up
    to n_t_max, etas and rates shaped (environments, modes, codeword
    multiples): the numerator is one block array, and the two divisions make
    at most one more."""
    nts = np.arange(1, n_t_max // PSDU_CODE.n + 1) * PSDU_CODE.n
    return (nts, *cols.eta_rate(nts))
