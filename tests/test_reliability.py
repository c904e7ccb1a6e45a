import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloee import block as block_layer
from cloee import reliability
from cloee.block import block_log_successes, block_successes
from cloee.metrics import _header_success
from cloee.reliability import (KASAMI_BLOCK, PHR_BLOCK, PSDU_BLOCK, _block, _direct, _upper,
                               block_log_success, block_success, shr_success)
from helpers import (reference_block_log_success, reference_block_success, reference_direct,
                     reference_terms, single_pb_metrics, success)

# Bit error rates no channel gives, which every tail rejects at both widths:
# just past 0.5, 0.75, the float below 1, 1 itself and nan.
OUTSIDE = [math.nextafter(0.5, 1.0), 0.75, 1.0 - 2.0 ** -53, 1.0, math.nan]


def _assert_rejected(scalar, array, block, ps=OUTSIDE):
    """The scalar tail and its array form raise the same ValueError, naming
    [0, 0.5], for each p in ps (in the array, after a valid lane)."""
    for p in ps:
        msg = re.escape(f"bit error probability must be in [0, 0.5], got {p}")
        with pytest.raises(ValueError, match=msg):
            scalar(p, block)
        with pytest.raises(ValueError, match=msg):
            array(np.array([0.1, p]), block)


def _mp_cdf(t: int, n_bits: int, p_b: float) -> mpmath.mpf:
    """P(Bin(n_bits, p_b) <= t) in 50-digit mpmath, each term from the
    binomial formula rather than the recurrence the tails (and _mp_tails) take."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p_b)
        return mpmath.fsum(mpmath.binomial(n_bits, i) * p ** i * (1 - p) ** (n_bits - i)
                           for i in range(t + 1))


class TestKasami:
    def test_error_free(self):
        assert block_success(0.0, KASAMI_BLOCK) == 1.0

    def test_all_bits_flipped(self):
        # p_b = 1 and everything above 0.5 are outside the channel's range.
        _assert_rejected(block_success, block_successes, KASAMI_BLOCK)

    def test_reference_point(self):
        # binomial-CDF oracle: P(Bin(63, 0.05) <= 6)
        assert block_success(0.05, KASAMI_BLOCK) == pytest.approx(0.9625554217454397, rel=1e-10)

    def test_matches_cdf_oracle(self):
        for p in (1e-6, 1e-3, 0.02, 0.1, 0.3, 0.5):
            assert block_success(p, KASAMI_BLOCK) == pytest.approx(
                float(_mp_cdf(6, 63, p)), rel=1e-12)


class TestShrSuccess:
    def test_extremes(self):
        assert shr_success(1.0) == 1.0
        assert shr_success(0.0) == 0.0

    def test_reference_point(self):
        assert shr_success(0.9) == pytest.approx(0.89991, rel=1e-12)


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
                float(_mp_cdf(t, n_bits, float(p))), rel=1e-12)

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
        assert block_log_successes(np.array([0.0]), PSDU_BLOCK).tolist() == [0.0]
        _assert_rejected(block_log_success, block_log_successes, PSDU_BLOCK)

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

    def test_upper_tail_stop_on_a_long_code_equals_every_term(self, monkeypatch):
        # Past the upper tail's stop the frame codes' terms fall by a ratio
        # well below 1/2, so a stop at 2**-53 of the sum keeps their bits too.
        # On (1000, 320) near its crossover they fall by more than 1/2 there:
        # only the half-ulp stop 2**-54 keeps every bit of the every-term sum,
        # at both widths, and a scalar stop at 2**-53 loses some.  The array
        # form stops when its last lane may, so it is also taken one lane at
        # a time.
        block, ps = _block(1000, 320), np.random.default_rng(12).uniform(0.30, 0.322, 150)
        expected = [_every_term_log_success(p, 1000, 320) for p in ps.tolist()]
        assert [block_log_success(p, block) for p in ps.tolist()] == expected
        assert [block_log_successes(np.array([p]), block).item() for p in ps.tolist()] \
            == block_log_successes(ps, block).tolist() == expected
        monkeypatch.setattr(reliability, "_STOP", 2.0 ** -53)
        assert [block_log_success(p, block) for p in ps.tolist()] != expected


def _every_term_upper(p_b, n_bits, t):
    # U from every upper term of the recurrence (helpers.reference_terms),
    # with no stop, added one by one in ascending i: builtin sum() compensates
    # from Python 3.12 on, and the tails must not depend on the interpreter.
    s = 0.0
    for term in reference_terms(p_b, n_bits, t)[t + 1:]:
        s += term
    return s


def _every_term_log_success(p_b, n_bits, t):
    # The log form with U summed first, from every term: log1p(-U) when
    # U < 0.5, else log(D).
    if p_b == 0.0:
        return 0.0
    upper = _every_term_upper(p_b, n_bits, t)
    if upper < 0.5:
        return math.log1p(-upper)
    return math.log(reference_direct(reference_terms(p_b, n_bits, t), t))


class TestTailsMatchPerTermForm:
    # The tails sum the same recurrence terms in the same order, the upper
    # tail stopping past the binomial mode once a term is at most 2**-54 of
    # the partial sum, where no later term can change it.  So they must equal
    # the every-term recurrence (helpers.reference_terms, which recomputes
    # the anchors, the odds and every ratio) bit for bit: on a log grid, and
    # on 10k seeded random p_b in [1e-300, 0.5], half spread evenly over the
    # decades and half evenly over the interval.
    P_GRID = [0.0, *(float(p) for p in np.logspace(-300, math.log10(0.5), 2000))]
    _RNG = np.random.default_rng(20261018)
    RANDOM_P = [*(10.0 ** _RNG.uniform(-300, math.log10(0.5), 5_000)).tolist(),
                *_RNG.uniform(1e-300, 0.5, 5_000).tolist()]

    @pytest.mark.parametrize("n_bits,t", [(63, 2), (40, 2), (63, 6), (63, 0), (5, 4)])
    def test_block_success(self, n_bits, t):
        block = _block(n_bits, t)
        for p in self.P_GRID + self.RANDOM_P:
            assert block_success(p, block) == reference_block_success(p, n_bits, t), p

    @pytest.mark.parametrize("n_bits,t", [(63, 2), (40, 2), (63, 6), (63, 0), (5, 4)])
    def test_block_log_success(self, n_bits, t):
        block = _block(n_bits, t)
        for p in self.P_GRID + self.RANDOM_P:
            assert block_log_success(p, block) == _every_term_log_success(p, n_bits, t), p


def _crossover(n_bits, t):
    """The smallest float p_b whose upper tail (more than t errors) is >= 0.5."""
    lo, hi = 1e-6, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _every_term_upper(mid, n_bits, t) < 0.5:
            lo = mid
        else:
            hi = mid


class TestShortSideFirst:
    # block_log_success sums the t+1 direct terms D first and skips the
    # upper tail U when D < 0.5 - 1e-9; _every_term_log_success sums U first
    # and reads D only when U >= 0.5.  They must agree bit for bit: in steps
    # of 2**-40 relative around the crossover U = 0.5, which reaches all three
    # outcomes (log1p(-U); log(D) with U summed; log(D) with U skipped).
    # TestTailsMatchPerTermForm compares the two on seeded log-uniform p_b.
    @pytest.mark.parametrize("n_bits,t", [(63, 2), (40, 2), (63, 6)])
    def test_dense_scan_around_crossover(self, n_bits, t):
        p_c, block = _crossover(n_bits, t), _block(n_bits, t)
        outcomes = set()
        for k in range(-2048, 2049):
            p = p_c * (1.0 + k * 2.0 ** -40)
            assert block_log_success(p, block) == _every_term_log_success(p, n_bits, t), p
            direct = block_success(p, block)
            outcomes.add("skip" if direct < 0.5 - 1e-9 else
                         "upper" if _every_term_upper(p, n_bits, t) < 0.5 else "direct")
        assert outcomes == {"skip", "upper", "direct"}

    def test_crossover_of_the_psdu_code(self):
        assert _crossover(63, 2) == pytest.approx(0.0422, abs=1e-4)

    def test_hopeless_block_is_rejected(self):
        # Near p_b = 1 every direct term would underflow to D = 0; no channel
        # gives such a p_b, and both widths reject it on every frame code.
        for _, block in FRAME_BLOCKS:
            _assert_rejected(block_log_success, block_log_successes, block)


# The frame's three codes, split at import: (code, block).
FRAME_BLOCKS = [((63, 2), PSDU_BLOCK), ((63, 6), KASAMI_BLOCK), ((40, 2), PHR_BLOCK)]


def _direct_near(target, block):
    """The p_b in [1e-6, 0.5] whose direct sum D is nearest target from
    below, by bisection (D falls as p_b grows)."""
    lo, hi = 1e-6, 0.5
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _direct(mid, block, math.pow)[0] >= target:
            lo = mid
        else:
            hi = mid
    return hi


class TestUpperTailStop:
    # D < 0.5 - 1e-9 implies U >= 0.5, so block_log_success returns log(D)
    # without summing U.  Summing it anyway returns the same value, so only
    # a count of _upper calls tells the stop 1e-9 from a looser 1e-6.
    @pytest.mark.parametrize("block", [block for _, block in FRAME_BLOCKS],
                             ids=["psdu", "kasami", "phr"])
    def test_upper_tail_not_summed_below_the_stop(self, monkeypatch, block):
        calls = []
        monkeypatch.setattr(reliability, "_upper", lambda *a: calls.append(a) or _upper(*a))
        below, above = _direct_near(0.5 - 5e-7, block), _direct_near(0.5, block) / 2
        direct = _direct(below, block, math.pow)[0]
        assert 0.5 - 1e-6 <= direct < 0.5 - 1e-9
        assert block_log_success(below, block) == math.log(direct) and calls == []
        block_log_success(above, block)         # D >= 0.5: U is summed
        assert len(calls) == 1


def _kernel_p():
    """Seeded p_b over [0, 0.5]: the ends and the smallest subnormal; 2,000
    draws spread evenly over [0, 0.5] and over the decades from 1e-300 to 0.5;
    and for each code, steps of 1e-6 across +-2e-4 of its nominal crossover
    (0.0422, 0.1053, 0.0663) and steps of 2**-40 relative around the exact one."""
    rng = np.random.default_rng(20261019)
    ps = [0.0, 5e-324, 0.5, *rng.uniform(0.0, 0.5, 1_000).tolist(),
          *(10.0 ** rng.uniform(-300, math.log10(0.5), 1_000)).tolist()]
    for (n_bits, t), nominal in zip((code for code, _ in FRAME_BLOCKS), (0.0422, 0.1053, 0.0663)):
        ps += [nominal + k * 1e-6 for k in range(-200, 201)]
        p_c = _crossover(n_bits, t)
        ps += [p_c * (1.0 + k * 2.0 ** -40) for k in range(-128, 129)]
    return ps


class TestFrameCodeKernel:
    # LinkModel.env and metrics._header_success call block_success/
    # block_log_success on the pre-split frame codes, whose ratios are split
    # at import, with one pair of anchors for both of the log form's sums.
    # They must equal the reference recurrence (helpers.reference_terms, its
    # own anchors, odds and ratios) bit for bit.
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
        # The half-ulp argument of reliability._upper's docstring: past the
        # binomial mode the recurrence's terms fall, so once a term is at most
        # 2**-54 of the partial sum no later term changes it, and the
        # early-stopped upper tail equals the sum of every term of the same
        # recurrence from the same T_t.  (The direct sum has no stop.)
        for p in self.P:
            if p == 0.0:
                continue
            _, top, odds = _direct(p, block, math.pow)
            full, term = 0.0, top
            for r in block.upper:
                term = term * (r * odds)
                full += term
            assert _upper(top, odds, block, bool) == full, p

    @pytest.mark.parametrize("code,block", FRAME_BLOCKS, ids=["psdu", "kasami", "phr"])
    def test_array_form_equals_scalar_form(self, monkeypatch, code, block):
        # block_successes and block_log_successes, which the sweep's block
        # environments use, take the scalar form's IEEE operations over the
        # lanes: equal by repr, -0.0, subnormals and 0 and 0.5 included.  The
        # upper tail's array form runs on the lanes with D >= 0.5 - 1e-9, as
        # the scalar form does: P's, none (every p_b 0.5, no p_b, or D just
        # below the stop) or one.
        lanes = []
        monkeypatch.setattr(block_layer, "_upper",
                            lambda *a: lanes.append(a[0].size) or _upper(*a))
        p = np.array(self.P)
        assert list(map(repr, block_successes(p, block).tolist())) == \
            [repr(block_success(x, block)) for x in self.P]
        for p in (p.reshape(-1, 1), np.full((2, 3), 0.5), np.empty(0), np.empty((2, 0)),
                  np.array([_direct_near(0.5 - 5e-7, block)]), np.array([1e-3]),
                  np.array([[0.5, 1e-3, 0.5]])):
            logs = block_log_successes(p, block)
            assert logs.shape == p.shape
            assert list(map(repr, logs.ravel().tolist())) == \
                [repr(block_log_success(x, block)) for x in p.ravel().tolist()]
        assert lanes == [sum(_direct(x, block, math.pow)[0] >= 0.5 - 1e-9 for x in self.P if x),
                         0, 0, 0, 0, 1, 1]
        with pytest.raises(ValueError, match=re.escape("must be in [0, 0.5], got nan")):
            block_log_successes(np.array([0.1, math.nan, 1.5]), block)
        _assert_rejected(block_success, block_successes, block, [-0.1, *OUTSIDE])
        _assert_rejected(block_log_success, block_log_successes, block, [-0.1])

    def test_frame_callers_keep_the_p_b_check(self):
        msg = "bit error probability must be in [0, 0.5], got "
        with pytest.raises(ValueError, match=re.escape(msg + "0.75")):
            _header_success(0.75, 0.1)
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
                      success(mm, 630)):
            assert value == 1.0

    def test_hopeless_channel(self):
        assert success(single_pb_metrics(0.5), 63 * 100) < 1e-12

    def test_reference_point(self):
        # p_psdu = P(Bin(63, 0.005) <= 2)^10, cross-checked by Monte Carlo in
        # the acceptance suite.
        mm = single_pb_metrics(0.005)
        _, p_shr, p_phr = _sections(0.005)
        assert mm.header_success == p_shr * p_phr
        assert success(mm, 630) == pytest.approx(mm.header_success * 0.9610134067081701, rel=1e-10)

    def test_monotone_in_bit_errors_and_size(self):
        probs = [success(single_pb_metrics(p), 630) for p in (0.001, 0.005, 0.02, 0.1)]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        mm = single_pb_metrics(0.01)
        sizes = [success(mm, n) for n in (63, 315, 1260, 5040)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_log_linear_in_codeword_count(self):
        mm = single_pb_metrics(0.02)
        log_header = math.log(mm.header_success)
        base = math.log(success(mm, 63)) - log_header
        for k in (2, 7, 40):
            assert math.log(success(mm, 63 * k)) - log_header == pytest.approx(k * base, rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=0.5), st.integers(min_value=1, max_value=130))
    def test_probabilities_stay_in_unit_interval(self, p_b, k):
        mm = single_pb_metrics(p_b)
        for value in (*_sections(p_b), mm.header_success, math.exp(mm.log_p_cw),
                      success(mm, 63 * k)):
            assert 0.0 <= value <= 1.0


def _mp_tails(p_b: float, n_bits: int, t: int):
    """(D, log success) of code (N, t) at p_b from 80-digit mpmath: every term
    by the recurrence in exact ratios, D and U each summed exactly enough,
    and the log as log1p(-U) when U < 0.5, else log(D)."""
    with mpmath.workdps(80):
        p = mpmath.mpf(p_b)
        odds, term = p / (1 - p), (1 - p) ** n_bits
        terms = [term]
        for i in range(n_bits):
            term = term * (n_bits - i) / (i + 1) * odds
            terms.append(term)
        direct, upper = mpmath.fsum(terms[:t + 1]), mpmath.fsum(terms[t + 1:])
        return direct, mpmath.log1p(-upper) if upper < 0.5 else mpmath.log(direct)


class TestAccuracyBudgets:
    # The tails against 80-digit mpmath on seeded p_b, 100 per band, spread
    # evenly over the decades of each: at most 8 ulps where the result is a
    # normal float (on p_b in [1e-100, 0.5] every result is), and at most
    # 2**-1073 (two of the smallest subnormal) where the exact result is below
    # the normal range, which only the log form's tiny failure tails reach.
    # These draws stay within 5.0 ulps; denser ones reach 11.65 just below the
    # log form's crossover U = 0.5 (test_known_breaches).
    BANDS = [(1e-3, 0.5), (1e-8, 1e-3), (1e-30, 1e-8), (1e-100, 1e-30), (1e-300, 1e-100)]
    ULPS, SUBNORMAL = 8.0, 2.0 ** -1073

    def test_tails_within_budget(self):
        rng = np.random.default_rng(20261019)
        worst = {}
        for (n_bits, t), block in FRAME_BLOCKS:
            for lo, hi in self.BANDS:
                for p in (10.0 ** rng.uniform(math.log10(lo), math.log10(hi), 100)).tolist():
                    exact = _mp_tails(p, n_bits, t)
                    for name, value, ref in zip(("success", "log"), (block_success(p, block),
                                                 block_log_success(p, block)), exact):
                        error = abs(mpmath.mpf(value) - ref)
                        if abs(ref) < 2.0 ** -1022:
                            assert error <= self.SUBNORMAL, (n_bits, t, name, p, value)
                            continue
                        ulps = float(error / math.ulp(float(ref)))
                        key = (n_bits, t, name, lo)
                        worst[key] = max(worst.get(key, 0.0), ulps)
        assert max(worst.values()) <= self.ULPS, {k: v for k, v in worst.items() if v > self.ULPS}

    # Denser draws find block_log_success over the budget just below the
    # crossover U = 0.5, where U sums ~20 terms and the rounding of odds
    # compounds along the recurrence (ROADMAP item 9).  The budget stays 8,
    # so these are strict xfails: a fix flips them, and drops the marker.
    @pytest.mark.xfail(reason="the log tail breaks its ulp budget below the crossover")
    @pytest.mark.parametrize("p_b,code", [
        (0.03435387526851489, (63, 2)),     # 9.51 ulps
        (0.05195733187092809, (40, 2)),     # 8.79 ulps
        (0.09173527180429249, (63, 6)),     # 11.65 ulps
    ], ids=["psdu", "phr", "kasami"])
    def test_known_breaches(self, p_b, code):
        exact = _mp_tails(p_b, *code)[1]
        error = abs(mpmath.mpf(block_log_success(p_b, _block(*code))) - exact)
        assert float(error / math.ulp(float(exact))) <= self.ULPS


def _mp_header(p_b: float) -> mpmath.mpf:
    """P(SHR and PHR delivered) with both sections at p_b, in 80-digit mpmath:
    _mp_tails's Kasami and PHR successes, composed as shr_success composes
    the Kasami success."""
    kasami, phr = _mp_tails(p_b, 63, 6)[0], _mp_tails(p_b, 40, 2)[0]
    with mpmath.workdps(80):
        return kasami * (1 - (1 - kasami) ** 4) * phr


class TestHeaderAccuracyBudget:
    # metrics._header_success(p_b, p_b) against 80-digit mpmath on seeded
    # p_b, 100 per band, spread evenly over the decades of each, within the
    # tails' 8 ulps in every band.  These draws read 0.5, 2.5, 3.1 and 5.3
    # ulps up to p_b = 0.15.  Beyond, shr_success's 1 - (1 - p)**4 cancels as
    # the Kasami success p falls, and the error grows with p_b to ~3e10 ulps
    # (~7e-6 relative) near 0.5; those bands are strict xfails: ROADMAP item
    # 9's fix (-expm1(4 * log1p(-p))) flips them, and drops the marker.
    ULPS = 8.0

    @pytest.mark.parametrize("lo,hi", [
        (1e-100, 1e-6), (1e-6, 1e-2), (1e-2, 0.1), (0.1, 0.15),
        pytest.param(0.15, 0.25, marks=pytest.mark.xfail(
            reason="shr_success's 1 - (1 - p)**4 cancels: 138 ulps at p_b = 0.2494")),
        pytest.param(0.25, 0.5, marks=pytest.mark.xfail(
            reason="shr_success's 1 - (1 - p)**4 cancels: 2.9e10 ulps at p_b = 0.4998")),
    ], ids=["tiny", "small", "mid", "high", "past-0.15", "past-0.25"])
    def test_within_budget(self, lo, hi):
        worst = 0.0
        rng = np.random.default_rng(20261020)
        for p in (10.0 ** rng.uniform(math.log10(lo), math.log10(hi), 100)).tolist():
            exact = _mp_header(p)
            error = abs(mpmath.mpf(_header_success(p, p)) - exact)
            worst = max(worst, float(error / math.ulp(float(exact))))
        assert worst <= self.ULPS, worst
