import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binom

from cloee import EnergyParams, ModeMetrics, energy_breakdown
from cloee.metrics import _header_success
from cloee.reliability import (KASAMI_BLOCK, PHR_BLOCK, PSDU_BLOCK, _block, _tail,
                               block_log_success, block_success, shr_success)
from helpers import (mode_for, reference_block_log_success, reference_block_success,
                     single_pb_metrics)


class TestKasami:
    def test_error_free(self):
        assert block_success(0.0, KASAMI_BLOCK) == 1.0

    def test_all_bits_flipped(self):
        assert block_success(1.0, KASAMI_BLOCK) == 0.0

    def test_reference_point(self):
        # binomial-CDF oracle: P(Bin(63, 0.05) <= 6)
        assert block_success(0.05, KASAMI_BLOCK) == pytest.approx(0.9625554217454397, rel=1e-10)

    def test_matches_cdf_oracle(self):
        for p in (1e-6, 1e-3, 0.02, 0.1, 0.3, 0.5):
            assert block_success(p, KASAMI_BLOCK) == pytest.approx(
                float(binom.cdf(6, 63, p)), rel=1e-12)


class TestShrSuccess:
    def test_extremes(self):
        assert shr_success(1.0) == 1.0
        assert shr_success(0.0) == 0.0

    def test_reference_point(self):
        assert shr_success(0.9) == pytest.approx(0.89991, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            shr_success(1.5)


class TestBchBlockSuccess:
    def test_error_free(self):
        assert block_success(0.0, PSDU_BLOCK) == 1.0

    def test_reference_points(self):
        # binomial-CDF oracle values at p_b = 0.01
        assert block_success(0.01, PSDU_BLOCK) == pytest.approx(0.9745456201719668, rel=1e-10)
        assert block_success(0.01, PHR_BLOCK) == pytest.approx(0.992502636604604, rel=1e-10)

    @pytest.mark.parametrize("n_bits,t", [(63, 2), (40, 2), (63, 6)])
    def test_matches_cdf_oracle(self, n_bits, t):
        block = _block(n_bits, t)
        for p in np.logspace(-12, math.log10(0.5), 25):
            assert block_success(float(p), block) == pytest.approx(
                float(binom.cdf(t, n_bits, p)), rel=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            block_success(-0.1, PSDU_BLOCK)


class TestLogSuccess:
    def test_consistent_with_linear(self):
        for p in np.logspace(-12, math.log10(0.5), 25):
            direct = block_success(float(p), PSDU_BLOCK)
            assert math.exp(block_log_success(float(p), PSDU_BLOCK)) == pytest.approx(
                direct, rel=1e-12)

    def test_resolves_tiny_failure_tails(self):
        # At p_b = 1e-6 the success probability rounds to 1.0 in linear space
        # but the log keeps the ~C(63,3) p^3 failure tail.
        log_p = block_log_success(1e-6, PSDU_BLOCK)
        assert log_p < 0.0
        assert log_p == pytest.approx(-math.comb(63, 3) * 1e-18, rel=1e-2)

    def test_degenerate_limits(self):
        assert block_log_success(0.0, PSDU_BLOCK) == 0.0
        assert block_log_success(1.0, PSDU_BLOCK) == -math.inf

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            block_log_success(-0.1, PSDU_BLOCK)
        with pytest.raises(ValueError):
            block_log_success(1.5, PSDU_BLOCK)


class TestOffFrameCodes:
    # The tails run on any code 0 <= t < n_bits, not only the frame's three.
    @pytest.mark.parametrize("tail", [block_success, block_log_success])
    def test_edge_of_range_accepted(self, tail):
        assert math.isfinite(tail(0.1, _block(63, 0)))
        assert math.isfinite(tail(0.1, _block(63, 62)))


def _old_pmf(i, n_bits, p_b):
    # The per-term form the tails were first written in: both logs on every term.
    if p_b == 0.0:
        return 1.0 if i == 0 else 0.0
    if p_b == 1.0:
        return 1.0 if i == n_bits else 0.0
    log_term = i * math.log(p_b) + (n_bits - i) * math.log1p(-p_b)
    return math.comb(n_bits, i) * math.exp(log_term)


def _full_sum(p_b, n_bits, lo, hi):
    # Every term, added one by one in ascending i: builtin sum() compensates
    # from Python 3.12 on, and the tails must not depend on the interpreter.
    s = 0.0
    for i in range(lo, hi):
        s += _old_pmf(i, n_bits, p_b)
    return s


def _old_block_success(p_b, n_bits, t):
    return min(1.0, _full_sum(p_b, n_bits, 0, t + 1))


def _old_block_log_success(p_b, n_bits, t):
    if p_b == 0.0:
        return 0.0
    if p_b == 1.0:
        return -math.inf
    upper = _full_sum(p_b, n_bits, t + 1, n_bits + 1)
    if upper < 0.5:
        return math.log1p(-upper)
    direct = _old_block_success(p_b, n_bits, t)
    return math.log(direct) if direct > 0.0 else -math.inf


class TestTailsMatchPerTermForm:
    # The tails take log(p_b) and log1p(-p_b) once and add the same terms in
    # the same order, stopping past the binomial mode once a term is at most
    # 2**-54 of the partial sum, where no later term can change it.  So they
    # must equal the full per-term sum bit for bit: on a log grid, and on 10k
    # seeded random p_b in [1e-300, 0.5], half spread evenly over the decades
    # and half evenly over the interval.
    P_GRID = [0.0, 1.0, *(float(p) for p in np.logspace(-300, math.log10(0.5), 2000))]
    _RNG = np.random.default_rng(20261018)
    RANDOM_P = [*(10.0 ** _RNG.uniform(-300, math.log10(0.5), 5_000)).tolist(),
                *_RNG.uniform(1e-300, 0.5, 5_000).tolist()]

    @pytest.mark.parametrize("n_bits,t", [(63, 2), (40, 2), (63, 6), (63, 0), (5, 4)])
    def test_block_success(self, n_bits, t):
        block = _block(n_bits, t)
        for p in self.P_GRID + self.RANDOM_P:
            assert block_success(p, block) == _old_block_success(p, n_bits, t), p

    @pytest.mark.parametrize("n_bits,t", [(63, 2), (40, 2), (63, 6), (63, 0), (5, 4)])
    def test_block_log_success(self, n_bits, t):
        block = _block(n_bits, t)
        for p in self.P_GRID + self.RANDOM_P:
            assert block_log_success(p, block) == _old_block_log_success(p, n_bits, t), p


def _crossover(n_bits, t):
    """The smallest float p_b whose upper tail (more than t errors) is >= 0.5."""
    lo, hi = 1e-6, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _full_sum(mid, n_bits, t + 1, n_bits + 1) < 0.5:
            lo = mid
        else:
            hi = mid


class TestShortSideFirst:
    # block_log_success sums the t+1 direct terms D first and skips the
    # upper tail U when D < 0.5 - 1e-9; _old_block_log_success sums U first
    # and reads D only when U >= 0.5.  They must agree bit for bit, -inf
    # included: in steps of 2**-40 relative around the crossover U = 0.5,
    # which reaches all three outcomes (log1p(-U); log(D) with U summed;
    # log(D) with U skipped).  TestTailsMatchPerTermForm compares the two on
    # seeded log-uniform p_b.
    @pytest.mark.parametrize("n_bits,t", [(63, 2), (40, 2), (63, 6)])
    def test_dense_scan_around_crossover(self, n_bits, t):
        p_c, block = _crossover(n_bits, t), _block(n_bits, t)
        outcomes = set()
        for k in range(-2048, 2049):
            p = p_c * (1.0 + k * 2.0 ** -40)
            assert block_log_success(p, block) == _old_block_log_success(p, n_bits, t), p
            direct = block_success(p, block)
            outcomes.add("skip" if direct < 0.5 - 1e-9 else
                         "upper" if _full_sum(p, n_bits, t + 1, n_bits + 1) < 0.5 else "direct")
        assert outcomes == {"skip", "upper", "direct"}

    def test_crossover_of_the_psdu_code(self):
        assert _crossover(63, 2) == pytest.approx(0.0422, abs=1e-4)

    def test_hopeless_block_is_minus_inf(self):
        # Every direct term underflows: D = 0 and the log is -inf either way.
        p = 1.0 - 2.0 ** -53
        assert block_log_success(p, PSDU_BLOCK) == _old_block_log_success(p, 63, 2) == -math.inf


# The frame's three codes, split at import: (code, block).
FRAME_BLOCKS = [((63, 2), PSDU_BLOCK), ((63, 6), KASAMI_BLOCK), ((40, 2), PHR_BLOCK)]


def _kernel_p():
    """Seeded p_b over [0, 1]: the ends, the smallest subnormal and 0.5;
    2,000 draws spread evenly over [0, 1] and over the decades down to 1e-300;
    and for each code, steps of 1e-6 across +-2e-4 of its nominal crossover
    (0.0422, 0.1053, 0.0663) and steps of 2**-40 relative around the exact one."""
    rng = np.random.default_rng(20261019)
    ps = [0.0, 1.0, 5e-324, 0.5, *rng.uniform(0.0, 1.0, 1_000).tolist(),
          *(10.0 ** rng.uniform(-300, 0, 1_000)).tolist()]
    for (n_bits, t), nominal in zip((code for code, _ in FRAME_BLOCKS), (0.0422, 0.1053, 0.0663)):
        ps += [nominal + k * 1e-6 for k in range(-200, 201)]
        p_c = _crossover(n_bits, t)
        ps += [p_c * (1.0 + k * 2.0 ** -40) for k in range(-128, 129)]
    return ps


class TestFrameCodeKernel:
    # ModeMetrics and metrics._header_success call block_success/
    # block_log_success on the pre-split frame codes, with one log(p_b) and
    # one log1p(-p_b) for both of the log form's sums.  They must equal the
    # per-tail reference form (its own logs and slice per tail) bit for bit.
    P = _kernel_p()

    @pytest.mark.parametrize("code,block", FRAME_BLOCKS, ids=["psdu", "kasami", "phr"])
    def test_equals_reference(self, code, block):
        n_bits, t = code
        assert block == _block(n_bits, t)
        for p in self.P:
            assert block_success(p, block) == reference_block_success(p, n_bits, t), p
            assert block_log_success(p, block) == reference_block_log_success(p, n_bits, t), p

    @pytest.mark.parametrize("code,block", FRAME_BLOCKS, ids=["psdu", "kasami", "phr"])
    def test_early_stop_equals_full_sum(self, code, block):
        # README's half-ulp argument: past the binomial mode, once a term is
        # at most 2**-54 of the partial sum no later term changes it, so the
        # early-stopped sum equals the sum of every term.
        for p in self.P:
            if not 0.0 < p < 1.0:
                continue
            lp, lq, peak = math.log(p), math.log1p(-p), block.n_plus_1 * p
            for rows in (block.direct, block.upper):
                full = 0.0
                for comb, i, rest in rows:
                    full += comb * math.exp(i * lp + rest * lq)
                assert _tail(rows, lp, lq, peak) == full, (p, rows[0][1])

    def test_frame_callers_keep_the_p_b_check(self):
        msg = "bit error probability must be in [0, 1], got "
        mode = mode_for(1)
        with pytest.raises(ValueError, match=re.escape(msg + "nan")):
            ModeMetrics(mode, 1.0, math.nan, _header_success(0.1, 0.1),
                        energy_breakdown(mode, EnergyParams()))
        with pytest.raises(ValueError, match=re.escape(msg + "1.5")):
            _header_success(1.5, 0.1)
        with pytest.raises(ValueError, match=re.escape(msg + "-0.5")):
            _header_success(0.1, -0.5)


def _sections(p_b: float) -> tuple[float, float, float]:
    """(p_kasami, p_shr, p_phr) with both header sections at p_b."""
    p_kasami = block_success(p_b, KASAMI_BLOCK)
    return p_kasami, shr_success(p_kasami), block_success(p_b, PHR_BLOCK)


class TestPpduSuccess:
    # The PPDU is composed once, in ModeMetrics; single_pb_metrics puts every
    # section at the same bit error probability.
    def test_error_free_channel(self):
        mm = single_pb_metrics(0.0)
        for value in (*_sections(0.0), mm.header_success, math.exp(mm.log_p_cw),
                      mm.success(630)):
            assert value == 1.0

    def test_hopeless_channel(self):
        assert single_pb_metrics(0.5).success(63 * 100) < 1e-12

    def test_reference_point(self):
        # p_psdu = P(Bin(63, 0.005) <= 2)^10, cross-checked by Monte Carlo in
        # the acceptance suite.
        mm = single_pb_metrics(0.005)
        _, p_shr, p_phr = _sections(0.005)
        assert mm.header_success == p_shr * p_phr
        assert mm.success(630) == pytest.approx(mm.header_success * 0.9610134067081701, rel=1e-10)

    def test_monotone_in_bit_errors_and_size(self):
        probs = [single_pb_metrics(p).success(630) for p in (0.001, 0.005, 0.02, 0.1)]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        mm = single_pb_metrics(0.01)
        sizes = [mm.success(n) for n in (63, 315, 1260, 5040)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_log_linear_in_codeword_count(self):
        mm = single_pb_metrics(0.02)
        log_header = math.log(mm.header_success)
        base = math.log(mm.success(63)) - log_header
        for k in (2, 7, 40):
            assert math.log(mm.success(63 * k)) - log_header == pytest.approx(k * base, rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=130))
    def test_probabilities_stay_in_unit_interval(self, p_b, k):
        mm = single_pb_metrics(p_b)
        for value in (*_sections(p_b), mm.header_success, math.exp(mm.log_p_cw),
                      mm.success(63 * k)):
            assert 0.0 <= value <= 1.0
