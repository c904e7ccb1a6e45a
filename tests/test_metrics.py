import collections
import contextlib
import dataclasses
import math
import sys
from unittest import mock

import numpy as np
import pytest

from cloee import (MODE_TABLE, EnergyParams, LinkModel, QosSpec, Scenario, energy,
                   energy_breakdown, reliability)
from cloee.metrics import columns, grid
from helpers import MODEL_VARIANTS, is_unimodal_max, metrics_at, single_pb_metrics


def _eta_cont(mm, x):
    """The relaxed efficiency whose derivative eta_cont_grad is."""
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
        assert mm.success(630) == 1.0
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


class TestSectionComposition:
    def test_strict_mode_matches_single_pb_composition(self):
        strict = LinkModel(uniform_section_ber=True)
        for d, n_cpb in ((6.0, 8), (7.5, 32), (8.4, 16)):
            mm = metrics_at(strict, d, n_cpb)
            ref = single_pb_metrics(mm.p_b)
            for field in ("p_kasami", "p_shr", "p_phr", "success"):
                assert getattr(mm.header, field) == pytest.approx(getattr(ref.header, field), rel=1e-12)
            assert mm.log_p_cw == pytest.approx(ref.log_p_cw, rel=1e-12)
            assert mm.success(630) == pytest.approx(ref.success(630), rel=1e-12)

    def test_default_mode_uses_section_burst_orders(self, model):
        env = {mm.mode.n_cpb: mm for mm in model.env(7.0)}
        mm = env[1]
        # the header reuses the payload bit error rates of modes 4 and 32
        assert mm.header.p_b_shr == env[4].p_b
        assert mm.header.p_b_phr == env[32].p_b
        # payload at n_cpb=1 is far worse than the fixed 32-pulse header
        assert mm.p_b > mm.header.p_b_phr

    def test_header_probability_shared_across_modes(self, model):
        # With section-specific burst orders, SHR/PHR success is independent
        # of the payload mode at a given distance.
        envs = model.env(6.5)
        headers = {round(mm.header_success, 15) for mm in envs}
        assert len(headers) == 1
        # ... so env() builds it once and every mode holds the same object.
        assert all(mm.header is envs[0].header for mm in envs)


class TestEnvironmentWork:
    def test_codes_checked_once_and_logs_taken_once_per_p_b(self, model):
        # LinkModel.env runs every tail on the frame codes reliability split
        # at import, so no block code is built per environment, and each
        # (code, p_b) pair takes one log(p_b) and one log1p(-p_b), also when
        # the log form sums both tails.
        calls = collections.Counter()

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def log(self, x):
                calls["log", x] += 1
                return math.log(x)

            def log1p(self, x):
                calls["log1p", x] += 1
                return math.log1p(x)

        with mock.patch.object(reliability, "_block", wraps=reliability._block) as builds, \
                mock.patch.object(reliability, "math", CountingMath()):
            envs = [model.env(d) for d in (4.0, 6.5, 8.4)]
        assert builds.call_count == 0
        pairs = collections.Counter()
        for env in envs:
            # One PSDU tail per mode, and the shared Kasami and PHR tails.
            for p in [mm.p_b for mm in env] + [env[0].header.p_b_shr, env[0].header.p_b_phr]:
                pairs[p] += 0.0 < p < 1.0
        assert sum(pairs.values()) >= 20
        for p, count in pairs.items():
            assert (calls["log", p], calls["log1p", -p]) == (count, count), p


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
            assert mm.eta_cont_grad(x) == pytest.approx(fd_eta, rel=1e-5)
            assert mm.rate_cont_grad(x) == pytest.approx(fd_rate, rel=1e-5)


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
