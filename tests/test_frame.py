import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloee import FRAME_CONSTANTS, MODE_TABLE, PSDU_CODE, PhyMode
from cloee.frame import MODE_POSITION, BchCode
from helpers import mode_for, single_pb_metrics, success

# Printed rate table: (n_cpb, uncoded Mbps, coded Mbps).
PRINTED_RATES = (
    (1, 15.600, 12.636),
    (2, 7.800, 6.318),
    (4, 3.900, 3.159),
    (8, 1.950, 1.580),
    (16, 0.975, 0.790),
    (32, 0.488, 0.395),
)


class TestBchCode:
    def test_default_codes(self):
        assert (PSDU_CODE.n, PSDU_CODE.k, PSDU_CODE.t) == (63, 51, 2)

    @pytest.mark.parametrize("n,k,t", [(63, 63, 2), (63, 0, 2), (63, 51, 0), (40, 41, 2)])
    def test_invalid_codes_rejected(self, n, k, t):
        with pytest.raises(ValueError):
            BchCode(n=n, k=k, t=t)


class TestModeTable:
    def test_six_modes_ascending(self):
        assert [m.n_cpb for m in MODE_TABLE] == [1, 2, 4, 8, 16, 32]
        assert MODE_POSITION == {1: 0, 2: 1, 4: 2, 8: 3, 16: 4, 32: 5}

    @pytest.mark.parametrize("mode", MODE_TABLE, ids=lambda m: f"ncpb{m.n_cpb}")
    def test_timing_consistency(self, mode):
        assert mode.t_sym == pytest.approx(32 * mode.t_w, rel=1e-12)
        assert mode.rate_uncoded == pytest.approx(1.0 / mode.t_sym, rel=1e-12)

    @pytest.mark.parametrize("mode", MODE_TABLE, ids=lambda m: f"ncpb{m.n_cpb}")
    def test_code_rate_relation(self, mode):
        # The printed coded column rounds the code rate to 0.81; it stays
        # within 1e-3 relative of uncoded * 51/63.
        assert mode.rate_coded == pytest.approx(mode.rate_uncoded * 51 / 63, rel=1e-3)

    @pytest.mark.parametrize("n_cpb,uncoded_mbps,coded_mbps", PRINTED_RATES)
    def test_printed_columns_reproduced(self, n_cpb, uncoded_mbps, coded_mbps):
        mode = mode_for(n_cpb)
        assert abs(mode.rate_uncoded / 1e6 - uncoded_mbps) <= 1e-3
        assert abs(mode.rate_coded / 1e6 - coded_mbps) <= 1e-3

    def test_mode_for_rejects_unknown(self):
        with pytest.raises(ValueError):
            mode_for(3)

    def test_phymode_rejects_bad_n_cpb(self):
        with pytest.raises(ValueError):
            PhyMode(n_cpb=5, t_w=1e-8, t_sym=3.2e-7, rate_uncoded=1e6, rate_coded=8e5)


class TestFrameConstants:
    def test_values(self):
        c = FRAME_CONSTANTS
        assert c.t_shr == pytest.approx(40.32e-6, rel=1e-12)
        assert c.t_phr == pytest.approx(82.052e-6, rel=1e-12)
        assert (c.n_shr, c.n_phr, c.n_mh_plus_fcs) == (315, 40, 72)
        assert (c.n_cpb_shr, c.n_cpb_phr) == (4, 32)
        assert (c.kasami_len, c.kasami_count, c.rho_sensitivity) == (63, 4, 6)
        assert c.t_p == pytest.approx(2.0032e-9, rel=1e-12)


class TestCodewordCount:
    # A PSDU of n_t bits spans ceil(n_t / 63) codewords: metrics.ppdu_success
    # raises the codeword success to that power.
    def test_exact_fit(self):
        mm = single_pb_metrics(0.01)
        assert -(-63 // 63) == 1
        assert success(mm, 63) == pytest.approx(mm.header_success * math.exp(mm.log_p_cw),
                                                rel=1e-12)

    def test_ceiling(self):
        mm = single_pb_metrics(0.01)
        assert -(-64 // 63) == 2
        assert success(mm, 64) == pytest.approx(
            mm.header_success * math.exp(2 * mm.log_p_cw), rel=1e-12)
        assert success(mm, 64) == success(mm, 126) < success(mm, 63)

    def test_static_benchmark_size(self):
        # 2616 bits is not a codeword multiple; the ceiling still applies.
        mm = single_pb_metrics(0.01)
        assert -(-2616 // 63) == 42
        assert success(mm, 2616) == success(mm, 42 * 63) < success(mm, 41 * 63)


def _on_air_time(mode: PhyMode, n_t: int) -> float:
    """PPDU duration read off the live throughput: rate = n_t / duration
    when every frame section is error-free."""
    return n_t / single_pb_metrics(0.0, mode).rate(n_t)


class TestFrameDuration:
    def test_overhead_only(self):
        assert FRAME_CONSTANTS.t_overhead == pytest.approx(122.372e-6, rel=1e-12)
        assert single_pb_metrics(0.0, mode_for(32)).t_oh == FRAME_CONSTANTS.t_overhead

    def test_slow_mode_example(self):
        mode = PhyMode(n_cpb=32, t_w=2051.3e-9 / 32, t_sym=2051.3e-9,
                       rate_uncoded=1 / 2051.3e-9, rate_coded=0.395e6)
        assert _on_air_time(mode, 1000) == pytest.approx(122.372e-6 + 2.0513e-3, rel=1e-9)

    def test_fast_mode_example(self):
        mode = PhyMode(n_cpb=1, t_w=64.1e-9 / 32, t_sym=64.1e-9,
                       rate_uncoded=1 / 64.1e-9, rate_coded=12.636e6)
        assert _on_air_time(mode, 1000) == pytest.approx(122.372e-6 + 64.1e-6, rel=1e-9)

    @given(st.integers(min_value=63, max_value=10_000))
    def test_strictly_increasing_in_size_and_symbol_time(self, n_t):
        fast, slow = mode_for(1), mode_for(32)
        assert _on_air_time(fast, n_t + 63) > _on_air_time(fast, n_t)
        assert _on_air_time(slow, n_t) > _on_air_time(fast, n_t)
