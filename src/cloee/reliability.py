"""Success probabilities of the SHR, the PHR and one PSDU codeword.

Everything reduces to binomial tails: a block of N bits survives when at most
t bit errors occur.  The SHR succeeds when the SFD Kasami sequence is detected
and at least one of the four preamble repetitions (kasami_count) is,

    P_SHR = P_SFD * (1 - (1 - P_Kasami)^4),    P_SFD = P_Kasami.

(The stricter all-four-repetitions reading, P_Kasami^4, is deliberately not
used; the any-of-four form is what the detection model states.)  The whole
PPDU is composed from these pieces in metrics.ppdu_success.

The frame's three block codes, PSDU (63, 2), Kasami (63, 6) and PHR (40, 2),
are split into Blocks once, at import (PSDU_BLOCK, KASAMI_BLOCK, PHR_BLOCK).
A tail is summed by term recurrence, T_{i+1} = T_i * r_i * odds with the
ratios r_i = (N-i)/(i+1) stored on the Block and odds = p/(1-p), from two
anchors computed directly with libm's pow: T_0 = (1-p)^N and T_t = C(N,t)
p^t (1-p)^(N-t), each power of 1-p taken of fl(1-p) and corrected for its
rounding.  The direct sum takes each term from the nearer anchor, and the
upper tail runs on from T_t.  No term of the direct sum is more than t/2
steps from an anchor, so the rounding of odds is not raised to the power t.

Every tail takes p_b in [0, 0.5], the range of the detector's Q(x), x >= 0,
and raises ValueError outside it; there T_0 >= 2^-N > 0 (N <= 1074): log D is finite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .frame import FRAME_CONSTANTS, PHR_CODE, PSDU_CODE

# Past the binomial mode, a term at most this share of the sum is below half
# its ulp: no later, smaller term can change the sum.
_STOP = 2.0 ** -54


def _check_p(p_b: float) -> None:
    if not 0.0 <= p_b <= 0.5:
        raise ValueError(f"bit error probability must be in [0, 0.5], got {p_b}")


class Block(NamedTuple):
    """A block code (N, t) and its recurrence: N, t and C(N,t) as a float;
    the ratios r_0..r_{h-1} that lead up from T_0 to T_h, h = t // 2; the
    ratios i/(N-i+1), i = t..h+1, that lead down from T_t, one term at a
    time; and the ratios r_t..r_{N-1} that lead up from T_t to T_N."""

    n: int
    t: int
    comb_t: float
    up: tuple[float, ...]
    down: tuple[float, ...]
    upper: tuple[float, ...]


def _block(n_bits: int, t: int) -> Block:
    """The Block of code (n_bits, t), for integers 0 <= t < n_bits, unchecked."""
    ratios = [(n_bits - i) / (i + 1) for i in range(n_bits)]
    return Block(n_bits, t, float(math.comb(n_bits, t)), tuple(ratios[:t // 2]),
                 tuple(i / (n_bits - i + 1) for i in range(t, t // 2, -1)), tuple(ratios[t:]))


PSDU_BLOCK = _block(PSDU_CODE.n, PSDU_CODE.t)
KASAMI_BLOCK = _block(FRAME_CONSTANTS.kasami_len, FRAME_CONSTANTS.rho_sensitivity)
PHR_BLOCK = _block(PHR_CODE.n, PHR_CODE.t)


def _direct(p, block: Block, pow):
    """(D, T_t, odds) for p = p_b in (0, 0.5], a float with pow = math.pow or a
    flat array of lanes (block.py) with pow mapped over them.  D adds T_0..T_h up from
    T_0, then T_t..T_{h+1} down from T_t, one by one (sum() compensates from
    Python 3.12 on, so its bits would depend on the interpreter).  The anchors
    take (1-p)^k as a pow of q = fl(1-p) times 1 + k * eps, 1 - p = q * (1 + eps)."""
    n, t = block.n, block.t
    q = 1.0 - p
    eps = ((1.0 - q) - p) / q      # 1 - q and the difference are exact
    odds = p / q
    power = pow(q, n)
    term = s = power + power * (n * eps)
    for r in block.up:
        term = term * r * odds
        s = s + term
    power = pow(q, n - t)
    term = top = block.comb_t * pow(p, t) * (power + power * ((n - t) * eps))
    for r in block.down:
        s = s + term
        term = term * r / odds
    return s, top, odds


def _upper(term, odds, block: Block, every):
    """U = T_{t+1} + T_{t+2} + ... from term = T_t, for a float with every =
    bool or a flat array of lanes (block.py) with every = np.ndarray.all.  The
    sum stops at the first term at most 2**-54 of it, below half its ulp, on
    every lane.  Before the binomial mode the terms rise, the latest at least
    s/(N-t) of the sum s, so the stop comes past it, where each later term is
    smaller: U equals the sum of every term to the bit, and a lane that met
    the stop first keeps its sum."""
    s = 0.0
    for r in block.upper:
        term = term * (r * odds)
        s += term
        if every(term <= s * _STOP):
            break
    return s


def block_success(p_b: float, block: Block) -> float:
    """P(block decodes) = sum_{i<=t} C(N,i) p^i (1-p)^(N-i)."""
    _check_p(p_b)
    if p_b == 0.0:
        return 1.0
    return min(1.0, _direct(p_b, block, math.pow)[0])


def block_log_success(p_b: float, block: Block) -> float:
    """log of block_success, accurate when the success probability is ~1.

    For small p_b the direct sum D rounds to 1.0 and its log to 0; there the
    failure tail U = P(more than t errors) is summed instead and the result
    is log1p(-U), which keeps the tiny -U resolution the frame-size optimum
    depends on.  The rule is log1p(-U) when U < 0.5, else log(D).

    D has t+1 terms and U up to N-t, so D is summed first.  D + U = 1, and
    either sum is within ~1e-15 of its exact value, so D < 0.5 - 1e-9 implies
    U >= 0.5: the answer is log(D) and U is not summed.  For (63, 2) the
    crossover U = 0.5 lies at p_b ~ 0.0422.
    """
    _check_p(p_b)
    if p_b == 0.0:
        return 0.0
    direct, top, odds = _direct(p_b, block, math.pow)
    if direct >= 0.5 - 1e-9:
        upper = _upper(top, odds, block, bool)
        if upper < 0.5:
            return math.log1p(-upper)
    return math.log(direct)


def shr_success(p_kasami: float) -> float:
    """SHR success from the Kasami detection probability (any-of-kasami_count
    preamble + SFD); p_kasami is a tail's output, so it is not checked."""
    return p_kasami * (1.0 - (1.0 - p_kasami) ** FRAME_CONSTANTS.kasami_count)
