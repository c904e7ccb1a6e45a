"""Distance to channel gain to per-bit SNR to bit error rate.

Path loss follows the hospital-room body-area model L(d) = a*log10(d_mm) + b
+ chi with lognormal shadowing chi (dB).  Noise figure and implementation
margin are folded into the effective channel gain as SNR penalties; where
they enter is a modelling convention, so both are plain configurable fields.

The non-coherent energy-detector bit error rate is

    P_b = Q( sqrt( 0.5 * ebn0^2 / (ebn0 + n_cpb * t_int * w_rx) ) )

with t_int the integration interval.  Note: with the default assignment
t_int = n_cpb * t_p the noise term grows like n_cpb**2 * t_p * w_rx, a
quadratic time-bandwidth penalty for long bursts.  That is kept as stated;
`integration_per_pulse=True` selects the alternative per-pulse reading
t_int = t_p, which makes the term linear in n_cpb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .frame import PhyMode

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# erfc starts losing headroom near its underflow around x ~ 37; switch to the
# asymptotic tail expansion well before that so log-domain values stay exact.
_Q_ASYMPTOTIC_X = 30.0


@dataclass(frozen=True)
class ChannelParams:
    """Path-loss, shadowing and receiver noise parameters.

    Defaults are the hospital-room values: slope 19.2 dB/decade (distance in
    millimeters), 3.38 dB intercept, 4.40 dB shadowing deviation, -174 dBm/Hz
    thermal noise, 10 dB noise figure, 5 dB implementation margin and a
    499.2 MHz receiver noise bandwidth.
    """

    a: float = 19.2
    b: float = 3.38
    sigma: float = 4.40
    noise_density: float = -174.0   # dBm/Hz
    noise_figure: float = 10.0      # dB
    impl_margin: float = 5.0        # dB
    w_rx: float = 499.2e6           # Hz

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.sigma < 0:
            raise ValueError(f"shadowing sigma must be >= 0, got {self.sigma}")
        if self.w_rx <= 0:
            raise ValueError(f"receiver bandwidth must be > 0, got {self.w_rx}")

    @property
    def noise_density_joules(self) -> float:
        """One-sided noise spectral density in J (W/Hz)."""
        return 10.0 ** ((self.noise_density - 30.0) / 10.0)


DEFAULT_CHANNEL = ChannelParams()


def path_loss_db(d: float, params: ChannelParams = DEFAULT_CHANNEL, chi: float = 0.0) -> float:
    """Path loss in dB at distance d meters (the model's fit uses millimeters)."""
    if d <= 0:
        raise ValueError(f"distance must be > 0 m, got {d}")
    return params.a * math.log10(d * 1e3) + params.b + chi


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x).

    Uses 0.5*erfc(x/sqrt(2)) in the bulk and the asymptotic expansion beyond
    x = 30 so the result underflows as late as floating point allows.
    """
    if x < 0.0:
        return 1.0 - q_function(-x)
    if x <= _Q_ASYMPTOTIC_X:
        return 0.5 * math.erfc(x / _SQRT2)
    return math.exp(log_q_function(x))


def log_q_function(x: float) -> float:
    """log Q(x), finite far beyond the point where Q(x) underflows to 0."""
    if x <= _Q_ASYMPTOTIC_X:
        q = 0.5 * math.erfc(x / _SQRT2)
        return math.log(q) if q > 0.0 else _log_q_asymptotic(x)
    return _log_q_asymptotic(x)


def _log_q_asymptotic(x: float) -> float:
    # Q(x) ~ phi(x)/x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...); seven terms give
    # ~1e-14 relative accuracy at x = 30 and improve with x.
    inv_x2 = 1.0 / (x * x)
    series = 0.0
    term = 1.0
    for k in range(1, 8):
        term *= -(2 * k - 1) * inv_x2
        series += term
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log1p(series)


@dataclass(frozen=True)
class LinkBudget:
    """Per-link, per-mode SNR inputs to the bit-error formula.

    h is the raw channel power gain; h_eff additionally absorbs the noise
    figure and implementation margin.  ebn0 = h_eff * n_cpb * eps_p / N0 is
    the integrated per-bit SNR (linear); t_int is the detector integration
    interval for this mode.
    """

    distance: float
    h: float
    h_eff: float
    ebn0: float
    t_int: float
    w_rx: float


def link_budget(
    d: float,
    mode: PhyMode,
    eps_p: float,
    params: ChannelParams = DEFAULT_CHANNEL,
    chi: float = 0.0,
    integration_per_pulse: bool = False,
) -> LinkBudget:
    """Compose path loss and noise into the link budget for one PHY mode.

    eps_p is the transmitted energy per pulse, so the per-bit energy is
    n_cpb * eps_p.
    """
    return link_budgets(d, (mode,), eps_p, params, chi, integration_per_pulse)[0]


def link_budgets(d: float, modes: tuple[PhyMode, ...], eps_p: float,
                 params: ChannelParams = DEFAULT_CHANNEL, chi: float = 0.0,
                 integration_per_pulse: bool = False) -> list[LinkBudget]:
    """link_budget for each of modes at one distance: the path loss and the
    gains are taken once, and each mode adds only its ebn0 and t_int."""
    if eps_p <= 0:
        raise ValueError(f"per-pulse energy must be > 0, got {eps_p}")
    loss = path_loss_db(d, params, chi)
    h = 10.0 ** (-loss / 10.0)
    h_eff = 10.0 ** (-(loss + params.noise_figure + params.impl_margin) / 10.0)
    n0 = params.noise_density_joules
    return [LinkBudget(d, h, h_eff, h_eff * (m.n_cpb * eps_p) / n0,
                       m.t_w / m.n_cpb if integration_per_pulse else m.t_w, params.w_rx)
            for m in modes]


def bit_error_prob(lb: LinkBudget, mode: PhyMode) -> float:
    """Energy-detector bit error probability for one burst mode, in [0, 0.5]."""
    e = lb.ebn0
    if e < 0:
        raise ValueError(f"ebn0 must be >= 0, got {e}")
    if e == 0.0:
        return 0.5
    noise_tb = mode.n_cpb * lb.t_int * lb.w_rx
    return q_function(math.sqrt(0.5 * e * e / (e + noise_tb)))
