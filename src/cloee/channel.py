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

import functools
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, is_real
from .frame import MODE_TABLE

_SQRT2 = math.sqrt(2.0)
# Each MODE_TABLE mode's n_cpb * t_int, t_int being the burst integration
# interval, or with integration_per_pulse one pulse: times w_rx, the noise
# time-bandwidth product.
_SPANS = {per_pulse: tuple(m.n_cpb * (m.t_w / m.n_cpb if per_pulse else m.t_w) for m in MODE_TABLE)
          for per_pulse in (False, True)}


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
            if not is_real(value):
                raise ConfigError(f"channel.{f.name}", f"must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"channel.{f.name}", f"must be finite, got {value}")
        if self.sigma < 0:
            raise ConfigError("channel.sigma", f"must be >= 0, got {self.sigma}")
        if self.w_rx <= 0:
            raise ConfigError("channel.w_rx", f"must be > 0, got {self.w_rx}")
        try:
            n0 = self.noise_density_joules
        except OverflowError:
            n0 = math.inf
        if not 0.0 < n0 < math.inf:
            raise ConfigError("channel.noise_density", f"must give a positive finite N0, got "
                              f"{self.noise_density} dBm/Hz (N0 = {n0} W/Hz)")

    @functools.cached_property
    def noise_density_joules(self) -> float:
        """One-sided noise spectral density in J (W/Hz), built once; not a field."""
        return 10.0 ** ((self.noise_density - 30.0) / 10.0)


DEFAULT_CHANNEL = ChannelParams()


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x) for x >= 0, as
    0.5*erfc(x/sqrt(2)) at every x, 0 from x ~ 38.48 on.

    erfc amplifies the rounding of x/sqrt(2) by about x**2, to ~1,660 ulps
    (TestQAccuracyBudget's strict xfails).  Past x ~ 22.3 (p_b ~ 4e-110) every
    frame code's tails are exactly saturated, so no output reads Q's value there.
    """
    return 0.5 * math.erfc(x / _SQRT2)


def _bit_error(ebn0: float, noise_tb: float) -> float:
    """Energy-detector bit error probability, in [0, 0.5], at the integrated
    per-bit SNR ebn0 and the noise time-bandwidth product noise_tb =
    n_cpb*t_int*w_rx; both finite and >= 0, which the caller ensures.  At
    ebn0 = 0 it is Q(0) = 0.5, also where noise_tb is 0 too (Q's arg 0/0)."""
    if ebn0 == 0.0:
        return 0.5
    return q_function(math.sqrt(0.5 * ebn0 * ebn0 / (ebn0 + noise_tb)))


def _gain(d: float, chi: float, eps_p: float, params: ChannelParams) -> float:
    """The effective gain h_eff at distance d meters and shadowing chi dB,
    inf where it overflows.  The path loss (the model's fit uses millimeters)
    also absorbs the noise figure and implementation margin."""
    if not 0.0 < d < math.inf:
        raise ValueError(f"distance must be > 0 m and finite, got {d}")
    if not -math.inf < chi < math.inf:
        raise ValueError(f"shadowing chi must be finite, got {chi} dB")
    if eps_p <= 0:
        raise ValueError(f"per-pulse energy must be > 0, got {eps_p}")
    loss = params.a * math.log10(d * 1e3) + params.b + chi
    try:
        return 10.0 ** (-(loss + params.noise_figure + params.impl_margin) / 10.0)
    except OverflowError:
        return math.inf


def _overflow(d: float) -> ValueError:
    return ValueError(f"the link gain at distance {d!r} m overflows a float")


def bit_error_probs(d: float, eps_p: float, params: ChannelParams = DEFAULT_CHANNEL,
                    chi: float = 0.0, integration_per_pulse: bool = False) -> list[float]:
    """Bit error rate of each MODE_TABLE burst mode at distance d meters.

    The effective gain h_eff is taken once.  Per mode, ebn0 = h_eff * n_cpb *
    eps_p / N0 with eps_p the transmitted energy per pulse, and the noise
    time-bandwidth product is the mode's _SPANS entry times w_rx.  Both
    arguments of _bit_error are built here, non-negative and (ebn0 after its
    overflow check) finite.
    """
    h_eff = _gain(d, chi, eps_p, params)
    n0 = params.noise_density_joules
    probs = []
    for m, span in zip(MODE_TABLE, _SPANS[integration_per_pulse]):
        ebn0 = h_eff * (m.n_cpb * eps_p) / n0
        if ebn0 == math.inf:
            raise _overflow(d)
        probs.append(_bit_error(ebn0, span * params.w_rx))
    return probs

