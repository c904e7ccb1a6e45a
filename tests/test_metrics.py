import bisect
import collections
import contextlib
import dataclasses
import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloee import (MODE_TABLE, ConfigError, EnergyParams, LinkModel, QosSpec, Scenario,
                   SolverConfig, bit_error_probs, channel, energy, energy_breakdown, metrics,
                   optimizer, reliability)
from cloee.block import _columns, bit_error_array, columns, grid, link_block
from cloee.frame import MODE_POSITION
from cloee.metrics import _I_PHR, _I_SHR, ModeMetrics, _header_success
from cloee.reliability import KASAMI_BLOCK, PHR_BLOCK, block_success, shr_success
from cloee.optimizer import solve_env
from helpers import (MODEL_VARIANTS, binding_envs, is_unimodal_max, metrics_at,
                     single_pb_metrics, success)


def _eta_cont(mm, x):
    """The relaxed efficiency whose derivative rate_cont_slopes gives last."""
    return x * mm.success_cont(x) / mm.energy.total(x)


class TestQosSpec:
    def test_default_aggregate_rate(self):
        assert QosSpec().aggregate_rate == pytest.approx(360e3, rel=1e-12)

    def test_aggregate_rate_is_a_python_float(self):
        # The sweep's static feasible cell is rate >= aggregate_rate; a numpy
        # float here would make it a numpy bool, which the CSV spells True.
        for qos in (QosSpec(n_s=np.int64(24)), QosSpec(r0=np.float64(15e3))):
            assert type(qos.aggregate_rate) is float
            assert qos.aggregate_rate == QosSpec().aggregate_rate

    @pytest.mark.parametrize("kwargs", [dict(r0=0.0), dict(n_s=0), dict(n_s=65),
                                        dict(n_s=2.5)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QosSpec(**kwargs)


class TestObjectives:
    def test_error_free_ceiling(self, model):
        # At 1 cm every section is error-free, so only energy and time remain.
        mm = metrics_at(model, 0.01, 32)
        assert success(mm, 630) == 1.0
        assert mm.eta(630) == pytest.approx(630 / mm.energy.total(630), rel=1e-12)
        assert mm.rate(63) == pytest.approx(250395.02955786936, rel=1e-9)

    def test_rate_approaches_uncoded_rate(self, model):
        mm = metrics_at(model, 0.01, 1)
        assert mm.rate(10_000_000) > 0.999 / mm.t_sym

    def test_upper_bounds(self, model):
        for d in (1.0, 5.0, 8.0):
            for mm in model.env(d):
                nts = np.arange(1, 131) * 63.0
                assert np.all(mm.eta(nts) <= 1.0 / mm.energy.eps_b + 1e-9)
                assert np.all(mm.rate(nts) <= 1.0 / mm.t_sym + 1e-9)

    def test_unimodal_over_frame_size(self, model):
        nts = np.arange(1, 131) * 63.0
        for d in (2.0, 5.0, 6.5, 7.5):
            for mm in model.env(d):
                assert is_unimodal_max(mm.eta(nts))
                assert is_unimodal_max(mm.rate(nts))


class TestLinkModelFlags:
    @pytest.mark.parametrize("value", ["off", "no", 0, 1, None])
    @pytest.mark.parametrize("flag", ["uniform_section_ber", "integration_per_pulse"])
    def test_non_bools_rejected_at_their_key(self, flag, value):
        # A truthy "off" would switch its reading on, and a flag that is not a
        # bool could miss the channel's table of noise spans.  A Scenario
        # builds its LinkModel, so both report the same line.
        line = f"model.{flag}: must be a bool, got {value!r}"
        for cls in (LinkModel, Scenario):
            with pytest.raises(ConfigError) as err:
                cls(**{flag: value})
            assert str(err.value) == line and err.value.key == f"model.{flag}"

    @pytest.mark.parametrize("flag", ["uniform_section_ber", "integration_per_pulse"])
    def test_numpy_bools_accepted(self, flag):
        envs = [LinkModel(**{flag: on}).env(6.0) for on in (np.bool_(True), True)]
        assert [[(mm.log_p_cw, mm.header_success) for mm in env] for env in envs] \
            == [[(mm.log_p_cw, mm.header_success) for mm in envs[1]]] * 2


class TestSectionComposition:
    def test_strict_mode_matches_single_pb_composition(self):
        strict = LinkModel(uniform_section_ber=True)
        for d, n_cpb in ((6.0, 8), (7.5, 32), (8.4, 16)):
            mm = metrics_at(strict, d, n_cpb)
            p_b = bit_error_probs(d, strict.energy.eps_p)[MODE_POSITION[n_cpb]]
            ref = single_pb_metrics(p_b)
            # Kasami, SHR and PHR all at the payload's bit error rate.
            p_kasami = block_success(p_b, KASAMI_BLOCK)
            p_shr, p_phr = shr_success(p_kasami), block_success(p_b, PHR_BLOCK)
            assert 0.0 < p_shr * p_phr < 1.0
            for header_success in (mm.header_success, ref.header_success):
                assert header_success == pytest.approx(p_shr * p_phr, rel=1e-12)
            assert mm.log_p_cw == pytest.approx(ref.log_p_cw, rel=1e-12)
            assert success(mm, 630) == pytest.approx(success(ref, 630), rel=1e-12)

    def test_default_mode_uses_section_burst_orders(self, model):
        p_b = bit_error_probs(7.0, model.energy.eps_p)
        i_1, i_4, i_32 = (MODE_POSITION[n_cpb] for n_cpb in (1, 4, 32))
        mm = model.env(7.0)[i_1]
        # the header reuses the payload bit error rates of modes 4 and 32
        assert mm.header_success == _header_success(p_b[i_4], p_b[i_32])
        # payload at n_cpb=1 is far worse than the fixed 32-pulse header
        assert p_b[i_1] > p_b[i_32]
        assert mm.header_success > _header_success(p_b[i_1], p_b[i_1])

    def test_header_probability_shared_across_modes(self, model):
        # With section-specific burst orders, SHR/PHR success is independent
        # of the payload mode at a given distance.
        envs = model.env(6.5)
        p_b = bit_error_probs(6.5, model.energy.eps_p)
        assert [mm.header_success for mm in envs] == \
            [_header_success(p_b[_I_SHR], p_b[_I_PHR])] * 6

    @pytest.mark.parametrize("uniform", [False, True])
    def test_kasami_tail_once_per_env_unless_uniform(self, uniform):
        # ... so env() takes the Kasami tail once for the six modes, and
        # uniform_section_ber once per mode, at the mode's own rate.  The
        # count is taken at reliability._direct, which every tail runs:
        # _header_success binds block_success as a default at import.
        model = LinkModel(uniform_section_ber=uniform)
        with mock.patch.object(reliability, "_direct", wraps=reliability._direct) as tails:
            model.env(6.5)
        kasami = [args[0] for args, _ in tails.call_args_list if args[1] is KASAMI_BLOCK]
        p_b = bit_error_probs(6.5, model.energy.eps_p)
        assert kasami == (p_b if uniform else [p_b[_I_SHR]])     # six tails, or one


class TestEnvironmentWork:
    def test_codes_checked_once_and_logs_taken_once_per_p_b(self, model):
        # LinkModel.env runs every tail on the frame codes reliability split
        # at import, so no block code is built per environment, and each
        # (code, p_b) pair takes its two anchors once: three pows, of 1 - p_b
        # twice and of p_b once, also when the log form sums both tails.  No
        # log is taken but the one that ends each PSDU log success.
        calls = collections.Counter()

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def pow(self, x, y):
                calls["pow"] += 1
                calls["pow", x] += 1
                return math.pow(x, y)

            def log(self, x):
                calls["log"] += 1
                return math.log(x)

            def log1p(self, x):
                calls["log"] += 1
                return math.log1p(x)

        distances = (4.0, 6.5, 8.4)
        with mock.patch.object(reliability, "_block", wraps=reliability._block) as builds, \
                mock.patch.object(reliability, "math", CountingMath()):
            for d in distances:
                model.env(d)
        assert builds.call_count == 0
        pairs, psdu = collections.Counter(), 0
        for d in distances:
            # One PSDU tail per mode, and the shared Kasami and PHR tails.
            p_b = bit_error_probs(d, model.energy.eps_p)
            for p in p_b + [p_b[_I_SHR], p_b[_I_PHR]]:
                pairs[p] += 0.0 < p < 1.0
            psdu += sum(0.0 < p < 1.0 for p in p_b)
        assert sum(pairs.values()) >= 20
        for p, count in pairs.items():
            assert calls["pow", p] == count, p
        assert (calls["pow"], calls["log"]) == (3 * sum(pairs.values()), psdu)


def _same_columns(block, cols):
    """block and cols hold the same floats in every column and row, by repr,
    the same modes, and metrics building equal ModeMetrics."""
    assert block.modes == cols.modes
    for name in ("header_success", "log_p_cw", "t_sym"):
        a, b = getattr(block, name), getattr(cols, name)
        assert a.shape == b.shape and repr(a.tolist()) == repr(b.tolist()), name
    for name in ("eps_b", "eps_oh", "eps_st"):
        a, b = getattr(block.energy, name), getattr(cols.energy, name)
        assert repr(a.tolist()) == repr(b.tolist()), name
    rows, modes = block.log_p_cw.shape[:2]
    for e, m in ((0, 0), (rows - 1, modes - 1), (rows // 2, 3)):
        built, env = block.metrics(e, m), cols.metrics(e, m)
        assert (built.mode, built.distance, built.energy, repr(built.log_p_cw),
                repr(built.header_success)) == (env.mode, env.distance, env.energy,
                                                repr(env.log_p_cw), repr(env.header_success))


class TestBlockEnvironments:
    # block.link_block, the sweep's environments, builds a block's Columns from
    # arrays; it must equal columns() of the block's environments by repr.

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_equals_columns_of_envs_on_hospital_sweeps(self, variant):
        for seed in range(1, 11):
            sc = Scenario(shadowing=True, seed=seed, distances=tuple(
                round(1.0 + 0.1 * i, 9) for i in range(91)), **variant)
            model, points = sc.link_model(), list(zip(sc.distances, sc.shadowing_draws()))
            _same_columns(link_block(model, points), columns([model.env(d, chi) for d, chi in points]))

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_equals_columns_of_envs_on_wide_draws(self, variant):
        # Distances from 1 mm to 1 km and shadowing from -300 to 3,500 dB:
        # lanes where p_b underflows to 0, and lanes at p_b = 0.5, some where
        # the gain underflows to 0 and so ebn0 = 0.  Both widths' p_b stay in
        # [0, 0.5], the range the tails accept, and reach both of its ends.
        rng = np.random.default_rng(20261019)
        model = LinkModel(**variant)
        points = list(zip((10.0 ** rng.uniform(-3, 3, 400)).tolist(),
                          rng.uniform(-300, 3500, 400).tolist()))
        block = link_block(model, points)
        _same_columns(block, columns([model.env(d, chi) for d, chi in points]))
        p_b = np.array([bit_error_probs(d, model.energy.eps_p, model.channel, chi,
                                        model.integration_per_pulse) for d, chi in points])
        lanes = bit_error_array(points, model.energy.eps_p, model.channel,
                                model.integration_per_pulse)
        gains = [channel._gain(d, chi, model.energy.eps_p, model.channel) for d, chi in points]
        assert 0.0 in gains
        for probs in (p_b, lanes):
            assert ((probs >= 0.0) & (probs <= 0.5)).all()
            assert (probs == 0.0).any() and (probs == 0.5).any()

    def test_overflowing_gain_raises_the_same_error(self, model):
        # The gain overflows at the third point and the fourth; at the second
        # it is finite but squares to inf in Q's argument, which gives p_b = 0.
        points = [(5.0, 0.0), (5.0, -2000.0), (1e-3, -6000.0), (1e-300, 0.0)]
        with pytest.raises(ValueError) as scalar:
            columns([model.env(d, chi) for d, chi in points])
        with pytest.raises(ValueError) as block:
            link_block(model, points)
        assert str(block.value) == str(scalar.value)
        assert "link gain at distance 0.001 m overflows" in str(block.value)
        block = link_block(model, points[:2])
        _same_columns(block, columns([model.env(d, chi) for d, chi in points[:2]]))
        assert block.log_p_cw[1].ravel().tolist() == [0.0] * 6


class TestContinuousRelaxation:
    def test_agrees_on_codeword_multiples(self, model):
        mm = metrics_at(model, 6.5, 16)
        for k in (1, 2, 10, 100, 130):
            assert _eta_cont(mm, 63 * k) == pytest.approx(mm.eta(63 * k), rel=1e-12)
            assert mm.rate_cont(63 * k) == pytest.approx(mm.rate(63 * k), rel=1e-12)

    def test_grid_below_relaxation_between_multiples(self, model):
        mm = metrics_at(model, 6.5, 16)
        for n_t in (100, 500, 2616):
            grid, cont = mm.eta(n_t), _eta_cont(mm, n_t)
            assert grid <= cont * (1 + 1e-12)
            assert grid >= cont * math.exp(mm.log_p_cw) * (1 - 1e-12)

    def test_gradient_matches_finite_differences(self, model):
        mm = metrics_at(model, 6.8, 16)
        for x in (150.0, 400.0, 1200.0):
            h = x * 1e-6
            fd_eta = (_eta_cont(mm, x + h) - _eta_cont(mm, x - h)) / (2 * h)
            fd_rate = (mm.rate_cont(x + h) - mm.rate_cont(x - h)) / (2 * h)
            rate, rate_grad, eta_grad = mm.rate_cont_slopes(x)
            assert rate == mm.rate_cont(x)
            assert eta_grad == pytest.approx(fd_eta, rel=1e-5)
            assert rate_grad == pytest.approx(fd_rate, rel=1e-5)


class TestGrid:
    # grid(columns(envs), n_t_max) is the one grid evaluator; each element must equal
    # its mode's scalar calls bit for bit, because the curves CSV writes them
    # with repr and the oracle compares them with the solver's.
    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_matches_scalar_calls(self, variant):
        model = LinkModel(**variant)
        envs = [model.env(d, chi)
                for d, chi in ((1.5, 0.0), (4.2, -3.1), (6.5, 0.0), (7.9, 2.4), (9.6, 0.0))]
        nts, etas, rates = grid(columns(envs), 63 * 130)
        assert nts.tolist() == [63 * k for k in range(1, 131)]
        assert etas.shape == rates.shape == (5, 6, 130)
        for env, env_etas, env_rates in zip(envs, etas, rates):
            for mm, eta_row, rate_row in zip(env, env_etas, env_rates):
                assert eta_row.tolist() == [mm.eta(n) for n in nts.tolist()]
                assert rate_row.tolist() == [mm.rate(n) for n in nts.tolist()]
                assert eta_row.tolist() == mm.eta(nts).tolist()
                assert rate_row.tolist() == mm.rate(nts).tolist()

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_ppdu_success_matches_scalar_calls(self, variant):
        # Columns.ppdu_success, every sweep row's p_ppdu, at drawn (mode,
        # frame size) pairs per environment, off-grid sizes included, on
        # points from 1 mm to 1 km, so some powers underflow to 0 and some
        # are 1: each element is metrics.ppdu_success's by repr.
        rng = np.random.default_rng(43)
        model = LinkModel(**variant)
        points = list(zip((10.0 ** rng.uniform(-3, 3, 60)).tolist(),
                          rng.normal(0.0, 4.0, 60).tolist()))
        cols = link_block(model, points)
        positions = rng.integers(0, len(MODE_TABLE), (60, 5))
        nts = rng.integers(1, 63 * 4096 + 1, (60, 5))
        got = cols.ppdu_success(positions, nts)
        assert got.shape == (60, 5)
        expected = [[metrics.ppdu_success(cols.header_success.item(e, m, 0),
                                          cols.log_p_cw.item(e, m, 0), n_t)
                     for m, n_t in zip(row_m, row_n)]
                    for e, (row_m, row_n) in enumerate(zip(positions.tolist(), nts.tolist()))]
        assert repr(got.tolist()) == repr(expected)
        flat = sum(expected, [])
        assert 0.0 in flat and any(0.0 < p < 1.0 for p in flat)

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_block_equals_blocks_of_one(self, variant):
        # The 31 distances of a hospital sweep block at n_t_max 8190, shadowed.
        sc = Scenario(shadowing=True, seed=5, distances=tuple(round(1.0 + 0.1 * i, 9)
                                                               for i in range(31)), **variant)
        model = sc.link_model()
        envs = [model.env(d, chi) for d, chi in zip(sc.distances, sc.shadowing_draws())]
        nts, etas, rates = grid(columns(envs), 8190)
        assert etas.shape == rates.shape == (31, 6, 130)
        for env, env_etas, env_rates in zip(envs, etas, rates):
            one_nts, (one_etas,), (one_rates,) = grid(columns((env,)), 8190)
            assert one_nts.tolist() == nts.tolist()
            assert env_etas.tolist() == one_etas.tolist()
            assert env_rates.tolist() == one_rates.tolist()

    def test_scalar_input_gives_plain_float(self, model):
        mm = metrics_at(model, 6.5, 8)
        assert type(mm.eta(630)) is float
        assert type(mm.rate(630)) is float
        assert isinstance(mm.eta(np.array([63, 630])), np.ndarray)

    def test_ceiling_is_inclusive(self, model):
        envs = (model.env(6.5),)
        assert grid(columns(envs), 126)[0].tolist() == [63, 126]
        assert grid(columns(envs), 188)[0].tolist() == [63, 126]
        assert grid(columns(envs), 63)[1].shape == (1, 6, 1)

    def test_rows_follow_the_given_modes(self, model):
        env = model.env(7.2)
        nts, (etas,), (rates,) = grid(columns((env,)), 630)
        sub_nts, (sub_etas,), (sub_rates,) = grid(columns((env[3:1:-1],)), 630)
        assert sub_nts.tolist() == nts.tolist()
        assert sub_etas.tolist() == etas[3:1:-1].tolist()
        assert sub_rates.tolist() == rates[3:1:-1].tolist()

    def test_block_of_two_link_models_raises(self, model):
        # The energy and air-time rows come from the first environment, so
        # an environment with other energy breakdowns cannot share them.
        other = LinkModel(energy=EnergyParams(t_st=1e-3))
        with pytest.raises(ValueError, match="one LinkModel"):
            grid(columns((model.env(6.5), other.env(6.5))), 630)
        # An equal model with its own breakdown objects shares them.
        same = LinkModel(energy=EnergyParams())
        assert same.energy.breakdowns is not model.energy.breakdowns
        assert grid(columns((model.env(6.5), same.env(6.5))), 630)[1].shape == (2, 6, 10)

    @pytest.mark.parametrize("modes", [slice(0, 5), slice(None, None, -1), slice(1, 6)],
                             ids=["prefix", "reversed", "shifted"])
    def test_block_of_other_mode_tuples_raises(self, model, modes):
        env = model.env(6.5)
        with pytest.raises(ValueError, match="one LinkModel"):
            grid(columns((env, model.env(7.0)[modes])), 630)


class TestDeliveredUnderflow:
    # Columns.eta_rate sends exponents below -746 to -inf before np.exp:
    # both give +0.0, and -inf keeps numpy's SIMD exp off its slow path.  Its
    # etas and rates must be the unmasked numerator's, divided by each
    # denominator, bit for bit, with and without out: at the mask's edge,
    # where exp underflows to 0 unmasked (-746 to -745.13), and in the
    # subnormal band (-745.13 to -708.4).  ModeMetrics.eta_rate, which
    # takes no mask, is held to the same expression on an int array.
    EDGE = -746.0
    exponents = st.one_of(
        st.floats(min_value=-800.0, max_value=0.0),
        st.floats(min_value=-745.2, max_value=-708.0),
        st.floats(min_value=EDGE - 1e-12, max_value=EDGE + 1e-12),
        st.sampled_from((EDGE, math.nextafter(EDGE, -math.inf), math.nextafter(EDGE, math.inf),
                         -745.1332191019412, -745.1332191019411, -744.4400719213812)))
    # (exponent, codeword count, bits short of the count's last codeword, header success)
    cells = st.lists(st.tuples(exponents, st.one_of(st.just(1), st.integers(1, 4096)),
                               st.integers(0, 62), st.floats(min_value=0.0, max_value=1.0)),
                     min_size=1, max_size=32)

    def test_equals_the_unmasked_expression(self):
        seen = collections.Counter()
        breakdowns = LinkModel().energy.breakdowns

        @settings(max_examples=150)
        @given(cells=self.cells)
        def check(cells):
            exponent, k, short, headers = (np.array(c) for c in zip(*cells))
            n_t, log_p_cw = k * 63 - short, exponent / k
            powers = -(-n_t // 63) * log_p_cw
            delivered = n_t * headers * np.exp(powers)
            # One environment per cell, at every mode, its n_t on the last axis.
            size, shape = len(cells), (len(cells), len(MODE_TABLE), 1)
            cols = _columns(MODE_TABLE, breakdowns, [1.0] * size,
                            np.repeat(headers, len(MODE_TABLE)).reshape(shape),
                            np.repeat(log_p_cw, len(MODE_TABLE)).reshape(shape))
            nts, numerator = n_t.reshape(-1, 1, 1), delivered.reshape(-1, 1, 1)
            expected = (numerator / cols.energy.total(nts),
                        numerator / (ModeMetrics.t_oh + nts * cols.t_sym))
            for out in (None, (np.empty(shape), np.empty(shape))):
                got = cols.eta_rate(nts, out)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in expected], cells
            for i in range(size):
                mode, energy = MODE_TABLE[i % len(MODE_TABLE)], breakdowns[i % len(MODE_TABLE)]
                mm = ModeMetrics(mode, 1.0, log_p_cw.item(i), headers.item(i), energy)
                own = n_t * mm.header_success * np.exp(-(-n_t // 63) * mm.log_p_cw)
                got = mm.eta_rate(n_t)
                assert got[0].tobytes() == (own / energy.total(n_t)).tobytes(), cells
                assert got[1].tobytes() == (own / (mm.t_oh + n_t * mm.t_sym)).tobytes(), cells
            seen["masked"] += int((powers < self.EDGE).sum())
            seen["edge"] += int((powers == self.EDGE).sum())
            seen["zero, unmasked"] += int(((powers >= self.EDGE) & (powers < -745.14)).sum())
            seen["subnormal"] += int(((powers > -745.13) & (powers < -708.4)).sum())

        check()
        assert min(seen.values()) >= 20, seen


class TestEnergyBreakdowns:
    # EnergyParams builds its six energy breakdowns once, when it checks them
    # for overflow, and every LinkModel.env reads them from there; they are
    # not a field, so equality, hashing and repr see only the settings.
    def test_six_builds_for_a_model_and_its_environments(self):
        original = energy.energy_breakdown
        calls = []

        def counting(mode, ep):
            calls.append(mode.n_cpb)
            return original(mode, ep)

        # Every module binding of the name, whichever one a caller goes through.
        bound = [m for name, m in sorted(sys.modules.items())
                 if name.startswith("cloee") and getattr(m, "energy_breakdown", None) is original]
        assert energy in bound
        with contextlib.ExitStack() as stack:
            for module in bound:
                stack.enter_context(mock.patch.object(module, "energy_breakdown", counting))
            model = LinkModel(energy=EnergyParams(t_st=200e-6))
            for d, chi in ((1.0, 0.0), (6.5, 2.0), (9.0, -1.0)):
                model.env(d, chi)
        assert calls == [m.n_cpb for m in MODE_TABLE]

    def test_energy_params_value_unchanged(self):
        ep = EnergyParams()
        assert ep.breakdowns == tuple(energy_breakdown(m, ep) for m in MODE_TABLE)
        assert repr(ep) == repr(EnergyParams()) and "breakdowns" not in repr(ep)
        assert ep == EnergyParams() and hash(ep) == hash(EnergyParams())
        assert [f.name for f in dataclasses.fields(EnergyParams)] == [
            "eps_p", "p_cor", "p_adc", "p_lna", "p_vga", "p_syn", "p_gen", "t_st",
            "m_fingers", "rho_r", "rho_c"]
        changed = dataclasses.replace(ep, t_st=200e-6)
        assert changed.breakdowns == tuple(energy_breakdown(m, changed) for m in MODE_TABLE)
        assert changed.breakdowns != ep.breakdowns

    def test_built_once_per_model(self):
        model = LinkModel(energy=EnergyParams(t_st=200e-6))
        envs = [model.env(d, chi) for d, chi in ((1.0, 0.0), (6.5, 2.0), (9.0, -1.0))]
        for env in envs:
            assert [mm.energy for mm in env] == [energy_breakdown(m, model.energy)
                                                 for m in MODE_TABLE]
            assert all(a.energy is b.energy for a, b in zip(env, envs[0]))

    def test_value_semantics_unchanged(self):
        assert LinkModel() == LinkModel()
        assert hash(LinkModel()) == hash(LinkModel())
        assert LinkModel() != LinkModel(uniform_section_ber=True)
        assert "breakdowns" not in repr(LinkModel())
        changed = dataclasses.replace(LinkModel(), energy=EnergyParams(p_syn=1e-3))
        assert changed.env(5.0)[0].energy == energy_breakdown(MODE_TABLE[0], changed.energy)


class TestEtaRateBudgets:
    # ROADMAP item 9: eta and rate at grid points against 60-digit mpmath,
    # computed from the environment's own floats (header_success, log_p_cw,
    # the energy costs and the air times), so only the objectives' own
    # roundings count.  With k codewords and a = |k * log_p_cw|, the
    # exponent's one rounding (2**-53 relative) is an error of a * 2**-53 in
    # exp's result; exp's own (at most 2 ulps, 4 * 2**-53) and the six or
    # fewer other roundings of either objective add at most 10 * 2**-53.  A
    # result below the normal range (exp's, the numerator's or the
    # quotient's) adds at most one subnormal step, 2**-1074, carried through
    # the operations after it: the floor
    # 2**-1074 * (1 + (1 + n_t * header_success) / cost).  By region of a:
    #   [0, 1)           the roundings: (a + 10) * 2**-53 relative, under 11;
    #   [1, 708.4)       exp amplifies the exponent's rounding: (a + 10) * 2**-53;
    #   [708.4, 745.14)  exp's result is subnormal: (a + 10) * 2**-53 plus the
    #                    floor, whose n_t * header_success / cost term is exp's step;
    #   [745.14, inf)    exp is 0, so both objectives are 0.0; the exact value is
    #                    below 2**-1075 * n_t * header_success / cost, inside the floor.
    # A header small enough to make the numerator subnormal can occur in any
    # region, so the floor applies in every one.
    REGIONS = (0.0, 1.0, 708.4, 745.14, math.inf)
    CELLS = 100                 # drawn per region and model variant
    EXCESS = 10.0               # the budget over a, in units of 2**-53 relative

    @staticmethod
    def _cells(cols, rng, lo, hi, count):
        """count (environment, mode, codewords) drawn uniformly among the
        environments and modes that reach a = k * |log_p_cw| in [lo, hi) with
        k in [1, 4096], each k uniform in that span."""
        mag = -cols.log_p_cw[..., 0]
        with np.errstate(all="ignore"):      # lo / 0 and hi over a tiny mag
            k_lo = np.nan_to_num(np.ceil(lo / mag), nan=1.0).clip(1, None)
            k_hi = np.minimum(np.ceil(hi / mag) - 1, 4096)
        reach = np.flatnonzero(k_lo <= k_hi)
        picks = rng.choice(reach, count)
        ks = rng.integers(k_lo.flat[picks].astype(np.int64), k_hi.flat[picks].astype(np.int64) + 1)
        return (*np.unravel_index(picks, mag.shape), ks)

    def test_eta_and_rate_at_grid_points_within_budget(self):
        rng = np.random.default_rng(20261020)
        counts = collections.Counter()
        for variant in MODEL_VARIANTS:
            model = LinkModel(**variant)
            cols = link_block(model, list(zip((10.0 ** rng.uniform(-0.5, 1.6, 300)).tolist(),
                                              rng.normal(0.0, 4.0, 300).tolist())))
            for lo, hi in zip(self.REGIONS, self.REGIONS[1:]):
                es, ms, ks = self._cells(cols, rng, lo, hi, self.CELLS)
                # The cells as a block of their own modes, one environment.
                own = _columns([MODE_TABLE[m] for m in ms.tolist()],
                               [model.energy.breakdowns[m] for m in ms.tolist()], [1.0],
                               cols.header_success[es, ms][None], cols.log_p_cw[es, ms][None])
                etas, rates = own.eta_rate((63 * ks)[:, None])
                for e, m, k, eta, rate in zip(es.tolist(), ms.tolist(), ks.tolist(),
                                              etas.ravel().tolist(), rates.ravel().tolist()):
                    mm, n_t = cols.metrics(e, m), 63 * k
                    assert mm.eta_rate(n_t) == (eta, rate)
                    a = abs(k * mm.log_p_cw)
                    region = self.REGIONS[bisect.bisect(self.REGIONS, a) - 1]
                    counts[region] += 1
                    if region == self.REGIONS[-2]:
                        assert eta == rate == 0.0, (variant, e, m, k)
                    with mpmath.workdps(60):
                        mp = mpmath.mpf
                        delivered = n_t * mp(mm.header_success) * mpmath.exp(k * mp(mm.log_p_cw))
                        energy = mm.energy
                        for value, cost in ((eta, n_t * mp(energy.eps_b) + mp(energy.eps_oh)
                                             + mp(energy.eps_st)),
                                            (rate, mp(mm.t_oh) + n_t * mp(mm.t_sym))):
                            exact = delivered / cost
                            floor = mp(2.0 ** -1074) * (1 + (1 + n_t * mp(mm.header_success))
                                                        / cost)
                            error = abs(mp(value) - exact) - floor
                            assert error <= (a + self.EXCESS) * 2.0 ** -53 * exact, \
                                (variant, e, m, k, value, exact)
        assert min(counts[r] for r in self.REGIONS[:-1]) >= self.CELLS, counts

    # The eta bound of each mode, read from the solver's own decision, raised
    # by its 1e-12 prune margin, against the mode's float grid maximum of eta
    # and the 60-digit eta at that argmax and its two neighbours, on the first
    # BINDING_ROWS binding rows under each model variant.
    BINDING_ROWS = 64

    @pytest.mark.parametrize("codewords", [8, 130, 4096])
    def test_eta_bound_covers_the_grid_maximum(self, codewords):
        cfg, bounds = SolverConfig(n_t_max=63 * codewords), []
        decide = optimizer._decide

        def capture(n_cpb, mode_metrics, mode_bounds, *rest):
            bounds.append(mode_bounds)
            return decide(n_cpb, mode_metrics, mode_bounds, *rest)

        envs = []
        with mock.patch.object(optimizer, "_decide", capture):
            for env, qos in binding_envs(self.BINDING_ROWS):
                solve_env(env, qos, cfg)
                envs.append(env)
        # binding_envs gives each variant's rows in turn: a block takes one LinkModel.
        mp = mpmath.mpf
        for start in range(0, len(envs), 16):
            nts, etas, _ = grid(columns(envs[start:start + 16]), cfg.n_t_max)
            peaks, maxima = etas.argmax(axis=2).tolist(), etas.max(axis=2).tolist()
            for e, env in enumerate(envs[start:start + 16], start):
                for m, (mm, j, top, bound) in enumerate(zip(env, peaks[e - start],
                                                            maxima[e - start], bounds[e])):
                    raised, energy = bound * (1.0 + 1e-12), mm.energy
                    assert raised >= top, (e, m)
                    with mpmath.workdps(60):
                        header, log_p_cw = mp(mm.header_success), mp(mm.log_p_cw)
                        eps_b = mp(energy.eps_b)
                        eps_fixed = mp(energy.eps_oh) + mp(energy.eps_st)
                        for n_t in nts[max(j - 1, 0):j + 2].tolist():
                            exact = n_t * header * mpmath.exp(n_t // 63 * log_p_cw) \
                                / (n_t * eps_b + eps_fixed)
                            assert raised >= exact, (e, m, n_t)
