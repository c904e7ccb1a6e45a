import math

import numpy as np
import pytest
from scipy import special

from cloee import (
    ChannelParams,
    LinkBudget,
    bit_error_prob,
    link_budget,
    log_q_function,
    path_loss_db,
    q_function,
)
from helpers import mode_for


class TestPathLoss:
    def test_one_millimeter_is_intercept_only(self):
        assert path_loss_db(0.001) == pytest.approx(3.38, rel=1e-12)

    def test_one_meter(self):
        assert path_loss_db(1.0) == pytest.approx(60.98, rel=1e-12)

    def test_ten_meters(self):
        assert path_loss_db(10.0) == pytest.approx(80.18, rel=1e-12)

    def test_shadowing_adds_in_db(self):
        assert path_loss_db(1.0, chi=4.4) == pytest.approx(65.38, rel=1e-12)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_nonpositive_distance_rejected(self, d):
        with pytest.raises(ValueError):
            path_loss_db(d)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(sigma=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(w_rx=0.0)


class TestQFunction:
    def test_matches_erfc_identity(self):
        for x in np.linspace(0.0, 8.0, 161):
            assert q_function(float(x)) == pytest.approx(
                0.5 * math.erfc(x / math.sqrt(2)), rel=1e-12)

    def test_matches_gaussian_cdf(self):
        for x in np.linspace(0.0, 35.0, 71):
            assert q_function(float(x)) == pytest.approx(
                float(special.ndtr(-x)), rel=1e-10)

    def test_log_domain_matches_log_ndtr(self):
        for x in np.linspace(0.5, 200.0, 80):
            assert log_q_function(float(x)) == pytest.approx(
                float(special.log_ndtr(-x)), rel=1e-9)

    def test_continuous_at_branch_switch(self):
        lo, hi = q_function(30.0 - 1e-9), q_function(30.0 + 1e-9)
        assert lo == pytest.approx(hi, rel=1e-9)

    def test_symmetry_and_extremes(self):
        assert q_function(0.0) == 0.5
        assert q_function(-2.0) == pytest.approx(1.0 - q_function(2.0), rel=1e-12)
        assert q_function(37.0) > 0.0
        assert log_q_function(100.0) == pytest.approx(-5005.5241, rel=1e-6)


class TestLinkBudget:
    def test_per_bit_energy_scales_with_burst(self):
        lb1 = link_budget(3.0, mode_for(1), 20e-12)
        lb32 = link_budget(3.0, mode_for(32), 20e-12)
        assert lb32.ebn0 == pytest.approx(32 * lb1.ebn0, rel=1e-12)

    def test_reference_point(self):
        # 60.98 dB path loss + 10 dB noise figure + 5 dB margin against
        # 3.98e-21 J/Hz noise: independent chain evaluation.
        lb = link_budget(1.0, mode_for(32), 20e-12)
        assert lb.ebn0 == pytest.approx(4056.766152044328, rel=1e-9)
        assert 10 * math.log10(lb.ebn0) == pytest.approx(36.08, abs=0.01)

    def test_channel_gain_bounded(self):
        for d in (0.001, 0.01, 0.1, 1.0, 5.0, 10.0):
            lb = link_budget(d, mode_for(1), 20e-12)
            assert 0.0 < lb.h <= 1.0
            assert lb.h_eff < lb.h

    def test_vanishes_at_long_range(self):
        ebn0s = [link_budget(d, mode_for(32), 20e-12).ebn0 for d in (1e3, 1e6, 1e9)]
        assert all(a > b for a, b in zip(ebn0s, ebn0s[1:]))
        assert ebn0s[-1] < 1e-12

    def test_integration_interval(self):
        mode = mode_for(8)
        assert link_budget(1.0, mode, 20e-12).t_int == pytest.approx(8 * 2.0032e-9, rel=1e-12)
        per_pulse = link_budget(1.0, mode, 20e-12, integration_per_pulse=True)
        assert per_pulse.t_int == pytest.approx(2.0032e-9, rel=1e-12)

    def test_bad_pulse_energy_rejected(self):
        with pytest.raises(ValueError):
            link_budget(1.0, mode_for(1), 0.0)


class TestBitErrorProb:
    @staticmethod
    def _lb(ebn0: float, n_cpb: int) -> LinkBudget:
        return LinkBudget(distance=1.0, h=1.0, h_eff=1.0, ebn0=ebn0,
                          t_int=n_cpb * 2.0032e-9, w_rx=499.2e6)

    def test_zero_snr_is_coin_flip(self):
        assert bit_error_prob(self._lb(0.0, 32), mode_for(32)) == 0.5

    def test_high_snr_limit(self):
        assert bit_error_prob(self._lb(1e9, 32), mode_for(32)) == 0.0

    def test_reference_point(self):
        # ebn0 = 1e3 with the 32-pulse noise-bandwidth term 32 * t_int * w_rx:
        # frozen from an independent erfc evaluation of the same argument.
        p = bit_error_prob(self._lb(1e3, 32), mode_for(32))
        assert p == pytest.approx(5.749457428259783e-56, rel=1e-9)

    def test_monotone_in_snr(self):
        mode = mode_for(16)
        probs = [bit_error_prob(self._lb(e, 16), mode) for e in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_degrades_with_distance(self):
        mode = mode_for(8)
        probs = [
            bit_error_prob(link_budget(d, mode, 20e-12), mode)
            for d in (2.0, 4.0, 6.0, 8.0)
        ]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_processing_gain_across_modes(self):
        # At fixed distance and pulse energy, longer bursts always help.
        from cloee import MODE_TABLE
        probs = [
            bit_error_prob(link_budget(7.0, m, 20e-12), m) for m in MODE_TABLE
        ]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            bit_error_prob(self._lb(-1.0, 1), mode_for(1))
