"""Success probabilities of the SHR, the PHR and one PSDU codeword.

Everything reduces to binomial tails: a block of N bits survives when at most
t bit errors occur.  The SHR succeeds when the SFD Kasami sequence is detected
and at least one of the four preamble repetitions (kasami_count) is,

    P_SHR = P_SFD * (1 - (1 - P_Kasami)^4),    P_SFD = P_Kasami.

(The stricter all-four-repetitions reading, P_Kasami^4, is deliberately not
used; the any-of-four form is what the detection model states.)  The whole
PPDU is composed from these pieces in metrics.ModeMetrics.

The frame's three block codes, PSDU (63, 2), Kasami (63, 6) and PHR (40, 2),
are split into their rows once, at import (PSDU_BLOCK, KASAMI_BLOCK,
PHR_BLOCK).  block_success and block_log_success check p_b and take log(p_b)
and log1p(-p_b) once per call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .frame import FRAME_CONSTANTS, PHR_CODE, PSDU_CODE


def _check_p(p_b: float) -> None:
    if not 0.0 <= p_b <= 1.0:
        raise ValueError(f"bit error probability must be in [0, 1], got {p_b}")


def _rows(n_bits: int) -> tuple[tuple[float, float, float], ...]:
    """(C(N,i), i, N-i) as floats for i = 0..N.

    C(N,i) is the correctly rounded float of the exact integer; int * float
    rounds the integer the same way, so the terms match the integer form.
    """
    return tuple((float(math.comb(n_bits, i)), float(i), float(n_bits - i))
                 for i in range(n_bits + 1))


class Block(NamedTuple):
    """A block code (N, t): its rows i <= t, its rows i > t, and N + 1."""

    direct: tuple[tuple[float, float, float], ...]
    upper: tuple[tuple[float, float, float], ...]
    n_plus_1: int


def _block(n_bits: int, t: int) -> Block:
    """The Block of code (n_bits, t), for integers 0 <= t < n_bits, unchecked."""
    rows = _rows(n_bits)
    return Block(rows[:t + 1], rows[t + 1:], n_bits + 1)


PSDU_BLOCK = _block(PSDU_CODE.n, PSDU_CODE.t)
KASAMI_BLOCK = _block(FRAME_CONSTANTS.kasami_len, FRAME_CONSTANTS.rho_sensitivity)
PHR_BLOCK = _block(PHR_CODE.n, PHR_CODE.t)


def _tail(rows, lp: float, lq: float, peak: float) -> float:
    """sum of C(N,i) p^i (1-p)^(N-i) over rows, from lp = log(p_b),
    lq = log1p(-p_b) and the binomial mode bound peak = (N + 1) * p_b.

    The probabilities are combined in log space, so the tail stays accurate
    from p_b ~ 1e-300 up to 0.5.  Terms are added one by one in ascending i,
    so the bits do not depend on the interpreter (sum() compensates from
    Python 3.12 on).  Past the binomial mode the terms fall: once one is at
    most 2**-54 of the sum, below half its ulp, no later term can change the
    sum.
    """
    s = 0.0
    for comb, i, rest in rows:
        term = comb * math.exp(i * lp + rest * lq)
        s += term
        if i > peak and term <= s * 2.0 ** -54:
            break
    return s


def block_success(p_b: float, block: Block) -> float:
    """P(block decodes) = sum_{i<=t} C(N,i) p^i (1-p)^(N-i)."""
    _check_p(p_b)
    if p_b == 0.0:
        return 1.0
    if p_b == 1.0:
        return 0.0
    return min(1.0, _tail(block.direct, math.log(p_b), math.log1p(-p_b), block.n_plus_1 * p_b))


def block_log_success(p_b: float, block: Block) -> float:
    """log of block_success, accurate when the success probability is ~1.

    For small p_b the direct sum D rounds to 1.0 and its log to 0; there the
    failure tail U = P(more than t errors) is summed instead and the result
    is log1p(-U), which keeps the tiny -U resolution the frame-size optimum
    depends on.  The rule is log1p(-U) when U < 0.5, else log(D).

    D has t+1 terms and U up to N-t, so D is summed first.  D + U = 1, and
    either sum is within ~1e-13 of its exact value, so D < 0.5 - 1e-9 implies
    U >= 0.5: the answer is log(D) and U is not summed.  For (63, 2) the
    crossover U = 0.5 lies at p_b ~ 0.0422.  Both sums share one log(p_b),
    one log1p(-p_b) and one peak.
    """
    _check_p(p_b)
    if p_b == 0.0:
        return 0.0
    if p_b == 1.0:
        return -math.inf
    lp, lq, peak = math.log(p_b), math.log1p(-p_b), block.n_plus_1 * p_b
    direct = _tail(block.direct, lp, lq, peak)
    if direct >= 0.5 - 1e-9:
        upper = _tail(block.upper, lp, lq, peak)
        if upper < 0.5:
            return math.log1p(-upper)
    return math.log(direct) if direct > 0.0 else -math.inf


def shr_success(p_kasami: float) -> float:
    """SHR success from the Kasami detection probability (any-of-kasami_count
    preamble + SFD)."""
    _check_p(p_kasami)
    return p_kasami * (1.0 - (1.0 - p_kasami) ** FRAME_CONSTANTS.kasami_count)
