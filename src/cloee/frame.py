"""IEEE 802.15.6 UWB PPDU structure: PHY modes, BCH codes and frame constants.

A PPDU is SHR + PHR + PSDU.  The SHR is five 63-bit Kasami sequences (four
preamble repetitions plus the SFD).  The PHR is one shortened BCH(40,28;2)
codeword.  The PSDU carries the MAC frame (header + body + FCS), bit-stuffed
and BCH(63,51;2)-encoded in the default mode.
"""

from __future__ import annotations

from dataclasses import dataclass

# Pulses are generated at 499.2 MHz; the symbol holds 32 burst positions so
# the duty cycle stays at 1/32 regardless of the burst length.
PULSE_DURATION = 2.0032e-9
BURSTS_PER_SYMBOL = 32

VALID_N_CPB = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class BchCode:
    """BCH(n, k; t): k message bits per n-bit codeword, corrects up to t bit errors."""

    n: int
    k: int
    t: int

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ValueError(f"BCH code needs 1 <= k < n, got n={self.n}, k={self.k}")
        if self.t < 1:
            raise ValueError(f"BCH code needs t >= 1, got t={self.t}")


# Default-mode codes.
PSDU_CODE = BchCode(n=63, k=51, t=2)
PHR_CODE = BchCode(n=40, k=28, t=2)


@dataclass(frozen=True)
class PhyMode:
    """One row of the standard's rate table for on-off modulation.

    rate_coded stores the rate printed in the standard's table; it differs
    from rate_uncoded * 51/63 by less than 0.1% (the table rounds the code
    rate to 0.81).
    """

    n_cpb: int
    t_w: float
    t_sym: float
    rate_uncoded: float
    rate_coded: float

    def __post_init__(self):
        if self.n_cpb not in VALID_N_CPB:
            raise ValueError(f"n_cpb must be one of {VALID_N_CPB}, got {self.n_cpb}")


def _mode(n_cpb: int, rate_coded_mbps: float) -> PhyMode:
    t_w = n_cpb * PULSE_DURATION
    t_sym = BURSTS_PER_SYMBOL * t_w
    return PhyMode(
        n_cpb=n_cpb,
        t_w=t_w,
        t_sym=t_sym,
        rate_uncoded=1.0 / t_sym,
        rate_coded=rate_coded_mbps * 1e6,
    )


MODE_TABLE: tuple[PhyMode, ...] = (
    _mode(1, 12.636),
    _mode(2, 6.318),
    _mode(4, 3.159),
    _mode(8, 1.580),
    _mode(16, 0.790),
    _mode(32, 0.395),
)

@dataclass(frozen=True)
class FrameConstants:
    """Fixed header/preamble parameters of the UWB PPDU.

    The MAC header and FCS are stored as one 72-bit constant, n_mh_plus_fcs
    (the 56/16 split printed in some sources is inconsistent; the sum is
    not).  No formula reads it, only dump-modes prints it: efficiency and
    rate count all n_t PSDU bits as delivered.  t_phr uses the rounded
    2051.3 ns PHR chip time so that t_phr = 82.052 us exactly.
    """

    t_shr: float = 5 * 63 * 128e-9          # 40.32 us
    t_phr: float = 40 * 2051.3e-9           # 82.052 us
    n_shr: int = 5 * 63                     # bits, five Kasami sequences
    n_phr: int = PHR_CODE.n                 # bits, one PHR codeword
    n_mh_plus_fcs: int = 72                 # MAC header + FCS bits
    kasami_len: int = 63
    kasami_count: int = 4                   # preamble repetitions (SFD excluded)
    rho_sensitivity: int = 6                # tolerated bit errors in Kasami detection
    n_cpb_shr: int = 4
    n_cpb_phr: int = 32
    t_p: float = PULSE_DURATION

    @property
    def t_overhead(self) -> float:
        return self.t_shr + self.t_phr


FRAME_CONSTANTS = FrameConstants()
