"""Objective functions: energy efficiency (bits/Joule) and throughput (bits/s).

Both share the numerator n_t * P_SHR * P_PHR * P_CW^ceil(n_t/63): payload
bits delivered only when every frame section survives, composed once by
_header_success and ppdu_success for both widths (block passes its array
tail and libm mapped over the lanes).  Efficiency divides by the energy of
one exchange, throughput by its on-air time.

LinkModel composes the channel, reliability and energy pieces for a given
distance.  By default each frame section is evaluated at its own burst order
(SHR at n_cpb=4, PHR at n_cpb=32, payload at the selected mode), matching the
section-specific constants of the energy model; uniform_section_ber=True
evaluates all three sections at the payload's bit error rate instead.

LinkModel.env(d, chi) builds one distance's six ModeMetrics, each value once:
the six payload bit error rates, each mode's codeword log success and, with
section-specific rates, one header success (a float) for the six modes, from
the rates of the modes at n_cpb_shr and n_cpb_phr, as the header success does
not depend on the payload mode.  A ModeMetrics computes nothing at build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, DEFAULT_CHANNEL, bit_error_probs
from .energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyParams
from .errors import ConfigError, is_bool, is_int, is_real
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
        if not is_real(self.r0):
            raise ConfigError("qos.r0", f"must be a number, got {self.r0!r}")
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ConfigError("qos.r0", f"must be finite and > 0, got {self.r0}")
        if not is_int(self.n_s):
            raise ConfigError("qos.n_s", f"must be an integer, got {self.n_s!r}")
        if not 1 <= self.n_s <= 64:
            raise ConfigError("qos.n_s", f"a hub serves 1..64 nodes, got {self.n_s}")

    @property
    def aggregate_rate(self) -> float:
        return float(self.r0 * self.n_s)        # a Python float, also for numpy r0 or n_s


def _header_success(p_b_shr, p_b_phr, success=block_success, shr=shr_success):
    """P(SHR and PHR delivered) at their bit error rates: floats, or arrays
    with block's array tail and shr_success mapped over the lanes."""
    return shr(success(p_b_shr, KASAMI_BLOCK)) * success(p_b_phr, PHR_BLOCK)


def ppdu_success(header_success, log_p_cw, n_t, exp=math.exp):
    """P(PPDU delivered) at integer frame size(s) n_t, every section intact:
    floats and an int, or arrays with libm's exp mapped over the lanes."""
    return header_success * exp(-(-n_t // PSDU_CODE.n) * log_p_cw)


def success_cont(header_success, log_p_cw, x, exp=math.exp):
    """P(PPDU delivered) relaxed to real frame size(s) x, exponent x/n: floats,
    or arrays with libm's exp mapped over the lanes."""
    return header_success * exp(x * log_p_cw / PSDU_CODE.n)


def eta_cont(x, header_success, log_p_cw, energy, exp=math.exp):
    """The relaxed efficiency, at the clamped closed form a mode's eta bound
    (optimizer): floats, or arrays with libm's exp mapped over the lanes."""
    return x * success_cont(header_success, log_p_cw, x, exp) / energy.total(x)


def _delivered(n_t, header_success, log_p_cw):
    """Delivered payload bits n_t * P(PPDU delivered): a float for an int n_t,
    element for element on an int array (block.Columns.eta_rate is a block's)."""
    # numpy's exp on a float: ROADMAP item 2
    delivered = n_t * header_success * np.exp(-(-n_t // PSDU_CODE.n) * log_p_cw)
    return delivered if isinstance(delivered, np.ndarray) else float(delivered)


class ModeMetrics:
    """Everything the optimizer needs about one (distance, mode) pair.

    Reliability is two floats, which its builder computes once:
    header_success (SHR and PHR) and log_p_cw, the log success of one PSDU
    codeword at the payload p_b (block_log_success(p_b, PSDU_BLOCK)), which
    is not stored.  eta()/rate() evaluate the grid objectives, whose codeword
    count is ceil(n_t/n), as eta_rate()'s halves; the three take an int or an
    int array (block.Columns.eta_rate takes a block of environments).  The
    PPDU success at one frame size is ppdu_success of the two floats.  The
    relaxed success_cont and eta_cont agree with the grid at multiples of n in
    exact arithmetic only (x * log_p_cw / n can round off k * log_p_cw), so
    the optimizer raises its eta bound by 1e-12 relative.
    """

    __slots__ = ("mode", "distance", "energy", "log_p_cw", "header_success", "t_sym")
    n = PSDU_CODE.n     # for readers outside the package (perfbench/gen_binding.py)
    t_oh = FRAME_CONSTANTS.t_overhead       # the SHR + PHR air time of every mode

    def __init__(self, mode: PhyMode, distance: float, log_p_cw: float, header_success: float,
                 energy: EnergyBreakdown):
        self.mode = mode
        self.distance = distance
        self.energy = energy
        self.log_p_cw = log_p_cw
        self.header_success = header_success
        self.t_sym = mode.t_sym

    def eta(self, n_t):
        return self.eta_rate(n_t)[0]

    def rate(self, n_t):
        return self.eta_rate(n_t)[1]

    def eta_rate(self, n_t):
        """(energy efficiency in bits/Joule, throughput in bits/s) at integer
        frame size(s), from one numerator; eta and rate are its halves."""
        delivered = _delivered(n_t, self.header_success, self.log_p_cw)
        return delivered / self.energy.total(n_t), delivered / (self.t_oh + n_t * self.t_sym)

    def rate_cont_slopes(self, x: float) -> tuple[float, float, float]:
        """(the relaxed throughput x * s / air time(x), its d/dx, and d/dx of
        eta_cont, zero exactly at the closed-form optimum), all from one
        relaxed success s = success_cont at x."""
        s = success_cont(self.header_success, self.log_p_cw, x)
        cx = self.log_p_cw / PSDU_CODE.n * x
        t_sym, t_oh, energy = self.t_sym, self.t_oh, self.energy
        eps_b, eps_fixed = energy.eps_b, energy.eps_fixed
        air, cost = t_sym * x + t_oh, eps_b * x + eps_fixed
        return (x * s / air, s * (cx * x * t_sym + cx * t_oh + t_oh) / (air * air),
                s * (cx * x * eps_b + cx * eps_fixed + eps_fixed) / (cost * cost))


@dataclass(frozen=True)
class LinkModel:
    """Channel + reliability + energy composition for the optimizer and CLI."""

    channel: ChannelParams = DEFAULT_CHANNEL
    energy: EnergyParams = DEFAULT_ENERGY
    uniform_section_ber: bool = False
    integration_per_pulse: bool = False

    def __post_init__(self):
        for name in ("uniform_section_ber", "integration_per_pulse"):
            if not is_bool(value := getattr(self, name)):
                raise ConfigError(f"model.{name}", f"must be a bool, got {value!r}")

    def env(self, distance: float, chi: float = 0.0) -> tuple[ModeMetrics, ...]:
        """Metrics for all six burst modes at one distance, ascending n_cpb.

        One path loss, one bit error rate per mode, and the energy costs in
        self.energy.breakdowns.  With section-specific rates the header runs at the
        payload rates of the modes at n_cpb_shr and n_cpb_phr, read from the rate
        list by MODE_TABLE position, and its success is computed once for all six
        modes; uniform_section_ber gives each mode a header at its rate.  Every
        tail runs on the frame codes reliability split at import, so it checks only
        its p_b, in the channel's [0, 0.5], and takes its anchors as pows of p_b.
        """
        p_b = bit_error_probs(distance, self.energy.eps_p, self.channel, chi,
                              self.integration_per_pulse)
        if self.uniform_section_ber:
            headers = map(_header_success, p_b, p_b)
        else:
            headers = [_header_success(p_b[_I_SHR], p_b[_I_PHR])] * len(p_b)
        return tuple(ModeMetrics(m, distance, block_log_success(p, PSDU_BLOCK), header, energy)
                     for m, p, header, energy in zip(MODE_TABLE, p_b, headers,
                                                     self.energy.breakdowns))

