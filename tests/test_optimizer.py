import collections
import copy
import dataclasses
import functools
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloee import (
    FRAME_CONSTANTS,
    MODE_TABLE,
    PSDU_CODE,
    ChannelParams,
    EnergyBreakdown,
    EnergyParams,
    LinkModel,
    ModeMetrics,
    QosSpec,
    Scenario,
    SolverConfig,
    bit_error_probs,
    cloee,
    energy_breakdown,
    exhaustive_search,
    load_scenario,
    nt_closed_form,
    rows_to_csv,
    run_sweep,
    solve_mode,
)
from cloee import block as block_layer, metrics, optimizer, sweep
from cloee.block import columns, search_envs, solve_envs
from cloee.frame import MODE_POSITION
from cloee.metrics import _header_success
from cloee.optimizer import N_T_MAX_LIMIT, clamp_to_span, snap_to_grid, solve_env
from cloee.reliability import PSDU_BLOCK, block_log_success
from helpers import (BINDING_CSV, MODEL_VARIANTS, binding_envs, grid_argmax, metrics_at,
                     mode_for, reference_search_env, reference_snap, reference_solve_env,
                     reference_sweep, search_env, single_pb_metrics, solve_env_pruned, success)


TESTS = Path(__file__).resolve().parent
HOSPITAL_CONF = TESTS.parent / "perfbench" / "scenarios" / "hospital.conf"


def check_grid_and_sweep_bits() -> int:
    """Assert, on each model variant's hospital sweep, that the grid of its
    first block equals the scalar eta/rate calls bit for bit and that
    run_sweep's CSV equals reference_sweep's; returns the cells checked."""
    cells = 0
    for variant in MODEL_VARIANTS:
        sc = dataclasses.replace(load_scenario(HOSPITAL_CONF), **variant)
        model, block = sc.link_model(), N_T_MAX_LIMIT // sc.solver.n_t_max
        envs = [model.env(d, chi) for d, chi in
                list(zip(sc.distances, sc.shadowing_draws()))[:block]]
        nts, etas, rates = block_layer.grid(columns(envs), sc.solver.n_t_max)
        for env, env_etas, env_rates in zip(envs, etas, rates):
            for mm, eta_row, rate_row in zip(env, env_etas, env_rates):
                assert eta_row.tolist() == [mm.eta(n) for n in nts.tolist()]
                assert rate_row.tolist() == [mm.rate(n) for n in nts.tolist()]
                cells += eta_row.size
        assert rows_to_csv(run_sweep(sc)) == rows_to_csv(reference_sweep(sc))
    return cells


def _grid(mm, cfg):
    return np.arange(1, cfg.n_t_max // 63 + 1, dtype=float) * 63


# The most Newton probes a dual solve's rate boundary may take, at any grid
# size (the most seen on the binding rows is 11).
MAX_PROBES = 16


def _x_ee(mm, cfg):
    # The mode's efficiency closed form clamped to the grid's span, as
    # solve_env snaps it and hands it to _dual.
    return clamp_to_span(nt_closed_form(mm.energy.eps_b, mm.energy.eps_fixed, mm.log_p_cw),
                         cfg.n_t_max)


def _x_thr(mm, cfg):
    # The mode's throughput closed form clamped to the grid's span, as
    # solve_env snaps it.
    return clamp_to_span(nt_closed_form(mm.t_sym, mm.t_oh, mm.log_p_cw), cfg.n_t_max)


def _assert_dual_certificate(sol, r0ns):
    # The dual branch's answer and its optimality certificate (lambda_, kkt_rate).
    # Each kkt bound is the tightest power of ten that every caller meets 10x
    # over: the worst kkt_rate is 2.8e-10 below r0ns, and the worst
    # |lambda_ * (kkt_rate - r0ns)| is 5.0e-8 * r0ns.
    assert sol.lambda_ >= 0.0
    assert sol.iterations <= MAX_PROBES
    assert sol.feasible
    assert sol.rate >= r0ns * (1 - 1e-6)
    assert sol.kkt_rate >= r0ns * (1 - 1e-8)
    assert abs(sol.lambda_ * (sol.kkt_rate - r0ns)) <= 1e-6 * r0ns


class TestClosedForms:
    def test_reduces_to_smallest_frame_without_fixed_costs(self, model):
        mm = metrics_at(model, 6.0, 8)
        x = nt_closed_form(mm.energy.eps_b, 0.0, mm.log_p_cw)
        assert x == pytest.approx(0.0, abs=1e-9)

    def test_error_free_codewords_push_to_ceiling(self):
        assert math.isinf(nt_closed_form(1e-9, 2e-6, 0.0))
        assert nt_closed_form(1e-9, 2e-6, math.log(1e-300)) < 63

    def test_hopeless_codewords_shrink_to_nothing(self):
        assert nt_closed_form(1e-9, 2e-6, -math.inf) == 0.0

    def test_per_unit_cost_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^per-unit cost must be > 0, got 0\.0$"):
            nt_closed_form(0.0, 1.0, -1e-3)

    def test_underflowing_codeword_log_counts_as_error_free(self, model, qos, cfg):
        # per_unit * log_p_cw underflows to 0 at this log_p_cw; the n_cpb=32
        # mode reaches it at 1.3 m with this shadowing draw.
        assert math.isinf(nt_closed_form(1e-9, 2e-6, -1.962e-319))
        chi = 1.8499590474882945
        res = cloee(model, 1.3, qos, cfg, chi)
        oracle = exhaustive_search(model, 1.3, qos, cfg, chi)
        assert (res.n_t_star, res.n_cpb_star) == (oracle.n_t_star, oracle.n_cpb_star) == (8190, 1)
        assert res.eta == oracle.eta

    def test_array_form_equals_scalar_lane_for_lane(self):
        # solve_envs takes the closed forms as arrays (_closed_forms); each
        # lane must be nt_closed_form's float, also at the edges: signed and
        # subnormal logs, an underflowing or overflowing product, inf and nan.
        lanes = [(p, f, lg) for p in (5e-324, 1e-300, 1e-9, 1.0, 1e300, math.inf)
                 for f in (0.0, 5e-324, 2e-6, 1.0, 1e300, math.inf)
                 for lg in (0.0, -0.0, 5e-324, -5e-324, -1.962e-319, -1e-3, -700.0,
                            -1e300, -math.inf, 1e-3, math.inf, math.nan)]
        per_unit, fixed, log_p_cw = map(np.array, zip(*lanes))
        array = block_layer._closed_forms(per_unit, fixed, log_p_cw).tolist()
        assert [repr(nt_closed_form(*lane)) for lane in lanes] == list(map(repr, array))

    def test_efficiency_stationarity(self, model):
        # Anchor: mid-range point where the optimum is interior.
        mm = metrics_at(model, 4.0, 8)
        x = nt_closed_form(mm.energy.eps_b, mm.energy.eps_fixed, mm.log_p_cw)
        c = mm.log_p_cw / 63
        e1 = mm.energy.eps_fixed
        terms = (c * x * x * mm.energy.eps_b, c * x * e1, e1)
        assert abs(sum(terms)) / sum(abs(t) for t in terms) < 1e-6

    def test_throughput_stationarity(self, model):
        mm = metrics_at(model, 8.4, 32)
        x = nt_closed_form(mm.t_sym, mm.t_oh, mm.log_p_cw)
        c = mm.log_p_cw / 63
        t1 = mm.t_oh
        terms = (c * x * x * mm.t_sym, c * x * t1, t1)
        assert abs(sum(terms)) / sum(abs(t) for t in terms) < 1e-6

    def test_matches_brute_force_argmax(self, model, cfg):
        nts = _grid(None, cfg)
        for d, n_cpb in ((4.0, 8), (6.0, 16), (6.8, 16), (8.4, 32)):
            mm = metrics_at(model, d, n_cpb)
            nee = snap_to_grid(mm, _x_ee(mm, cfg), cfg.n_t_max, 0)[0]
            assert abs(nee - grid_argmax(mm.eta(nts), nts)) <= 63
            nthr = snap_to_grid(mm, _x_thr(mm, cfg), cfg.n_t_max, 1)[0]
            assert abs(nthr - grid_argmax(mm.rate(nts), nts)) <= 63


class _Objectives:
    # Two synthetic objectives in ModeMetrics.eta_rate's place.
    def __init__(self, eta, rate):
        self.eta, self.rate = eta, rate

    def eta_rate(self, n_t):
        return self.eta(n_t), self.rate(n_t)


def snap(x, objective, n_t_max):
    """snap_to_grid by eta (by=0) and by rate (by=1), each with objective in
    the slot it snaps by and its negative in the other: both give one n_t,
    and (n_t, objective(n_t)) is returned."""
    def opposite(n):
        return -objective(n)
    n_t, value, other = snap_to_grid(_Objectives(objective, opposite), x, n_t_max, 0)
    assert snap_to_grid(_Objectives(opposite, objective), x, n_t_max, 1) == (n_t, other, value)
    return n_t, value


class TestSnapToGrid:
    def test_clamps_into_range(self):
        # solve_env's clamp, the one a snap's x has been through, then the
        # snap of the clamped x; the ceiling is a codeword multiple.
        assert [clamp_to_span(x, 630) for x in (math.inf, 631.0, 1.0, 0.0, 62.0, 100.0)] == [
            630.0, 630.0, 63.0, 63.0, 63.0, 100.0]
        assert (clamp_to_span(1e9, 692), clamp_to_span(629.5, 692)) == (630.0, 629.5)
        assert snap(clamp_to_span(math.inf, 630), lambda n: 0.0, n_t_max=630)[0] == 630
        assert snap(clamp_to_span(1.0, 630), lambda n: -n, n_t_max=630)[0] == 63

    def test_keeps_better_neighbor(self):
        assert snap(100.0, lambda n: -abs(n - 126), n_t_max=8190)[0] == 126
        assert snap(100.0, lambda n: -abs(n - 63), n_t_max=8190)[0] == 63

    def test_tie_prefers_smaller(self):
        assert snap(94.5, lambda n: 0.0, n_t_max=8190)[0] == 63

    def test_returns_the_objective_at_the_snap(self):
        # At the ceiling, the span's end, no multiple above is tried.  The
        # closed forms out of the span are TestOutOfSpanClosedForms'.
        assert snap(100.0, lambda n: -abs(n - 126), n_t_max=8190) == (126, 0)
        assert snap(630.0, float, n_t_max=630) == (630, 630.0)
        assert snap(63.0, float, n_t_max=63) == (63, 63.0)

    @staticmethod
    def _both_snaps(mm, cfg):
        for per_unit, fixed, by, objective in (
                (mm.energy.eps_b, mm.energy.eps_fixed, 0, mm.eta), (mm.t_sym, mm.t_oh, 1, mm.rate)):
            # The reference clamps the raw closed form itself.
            x = nt_closed_form(per_unit, fixed, mm.log_p_cw)
            yield (snap_to_grid(mm, clamp_to_span(x, cfg.n_t_max), cfg.n_t_max, by),
                   reference_snap(x, objective, PSDU_CODE.n, cfg.n_t_max))

    def test_matches_three_candidate_reference_on_binding_inputs(self):
        # The (k-1)*63 candidate the reference also tries never wins.
        cfgs = [SolverConfig(n_t_max=n) for n in (63, 8190, 63 * 4096)]
        checked = 0
        for env, _ in binding_envs():
            for mm in env:
                for cfg in cfgs:
                    for (n_t, eta, rate), ref in self._both_snaps(mm, cfg):
                        assert n_t == ref and (eta, rate) == (mm.eta(n_t), mm.rate(n_t))
                        checked += 1
        assert checked == 256 * 3 * 6 * 3 * 2

    def test_matches_three_candidate_reference_on_random_links(self):
        rng = np.random.default_rng(2718)
        base = EnergyParams()
        for _ in range(300):
            energy = EnergyParams(
                eps_p=base.eps_p * 10.0 ** rng.uniform(-1.0, 1.0),
                p_cor=base.p_cor * 10.0 ** rng.uniform(-1.0, 1.0),
                p_syn=base.p_syn * 10.0 ** rng.uniform(-1.0, 1.0),
                t_st=base.t_st * 10.0 ** rng.uniform(-1.0, 1.0),
            )
            channel_params = ChannelParams(sigma=float(rng.uniform(0.0, 8.0)),
                                           impl_margin=float(rng.uniform(0.0, 10.0)))
            variant = MODEL_VARIANTS[int(rng.integers(len(MODEL_VARIANTS)))]
            model = LinkModel(channel=channel_params, energy=energy, **variant)
            env = model.env(float(rng.uniform(0.5, 12.0)), float(rng.normal(0.0, 4.0)))
            cfg = SolverConfig(n_t_max=63 * int(rng.integers(1, 4097)))
            for mm in env:
                for (n_t, eta, rate), ref in self._both_snaps(mm, cfg):
                    assert n_t == ref and (eta, rate) == (mm.eta(n_t), mm.rate(n_t))


class TestOutOfSpanClosedForms:
    # solve_env clamps both closed forms to the grid's span before it snaps
    # them.  Hand-built modes put both outside it: 0 (log_p_cw = -inf),
    # below one codeword, above the ceiling and inf (log_p_cw = 0.0).  Each
    # solve, unconstrained where the rate allows and the fallback otherwise,
    # lands both snaps on the span's end the closed forms point at, and
    # reports the objectives there.
    @pytest.mark.parametrize("n_t_max", [63, 630])
    @pytest.mark.parametrize("log_p_cw,above", [(-math.inf, False), (math.log(1e-300), False),
                                                (-1e-3, True), (0.0, True)])
    def test_solve_takes_the_span_end(self, log_p_cw, above, n_t_max):
        mm = ModeMetrics(mode_for(8), 1.0, log_p_cw, 0.9, EnergyBreakdown(1e-9, 2e-6, 0.0))
        for x in (nt_closed_form(mm.energy.eps_b, mm.energy.eps_fixed, log_p_cw),
                  nt_closed_form(mm.t_sym, mm.t_oh, log_p_cw)):
            assert x > 630 if above else x < 63
        n_t = n_t_max if above else 63
        branches = set()
        for r0 in (1.0, 1e12):
            res = solve_mode(mm, QosSpec(r0=r0, n_s=1), SolverConfig(n_t_max=n_t_max))
            assert (res.n_t_star, res.nee, res.nthr) == (n_t, n_t, n_t)
            assert (res.eta, res.rate) == mm.eta_rate(n_t)
            branches.add(res.branch)
        assert branches == ({"unconstrained", "throughput-fallback"} if above
                            else {"throughput-fallback"})


class TestOneSnapRule:
    # A cost guard with no clock: a snap reads eta and rate at its codeword
    # multiples from one numerator and returns both at the one it keeps, so
    # the decision reads a mode's eta at nthr, rate at nee and nee for the
    # all-infeasible fallback from its snaps.  A solve that sends no mode to
    # _dual evaluates neither objective outside a snap.
    def test_solves_without_a_dual_evaluate_only_in_snaps(self, monkeypatch):
        envs, state = list(binding_envs(256)), {"snapping": False}
        snap, dual = optimizer.snap_to_grid, optimizer._dual

        def snapping(*args):
            state["snapping"] = True
            try:
                return snap(*args)
            finally:
                state["snapping"] = False

        def flagged_dual(*args):
            state["dual"] = True
            return dual(*args)

        def watch(name):
            function = getattr(ModeMetrics, name)

            def watched(self, n_t):
                state["outside"] += not state["snapping"]
                return function(self, n_t)

            monkeypatch.setattr(ModeMetrics, name, watched)

        monkeypatch.setattr(optimizer, "snap_to_grid", snapping)
        monkeypatch.setattr(optimizer, "_dual", flagged_dual)
        for name in ("eta", "rate", "eta_rate"):
            watch(name)
        branches, evaluating = collections.Counter(), 0
        for n_codewords in (8, 130, 4096):
            cfg = SolverConfig(n_t_max=PSDU_CODE.n * n_codewords)
            for env, qos in envs:
                state.update(outside=0, dual=False)
                res = solve_env(env, qos, cfg)
                if not state["dual"]:
                    branches[res.branch] += 1
                    evaluating += state["outside"] > 0
        assert evaluating == 0, (evaluating, branches)
        assert sum(branches.values()) >= 1000 and branches.keys() == {
            "unconstrained", "throughput-fallback"}, branches


class TestCloee:
    def test_error_free_channel_picks_fastest_mode(self, qos, cfg):
        res = cloee(LinkModel(), 0.001, qos, cfg)
        assert res.n_cpb_star == 1
        assert res.n_t_star == cfg.n_t_max
        assert res.feasible
        assert res.branch == "unconstrained"
        assert res.lambda_ == 0.0

    def test_long_range_prefers_high_burst_orders(self, model, qos, cfg):
        env = model.env(8.4)
        nts = _grid(None, cfg)
        max_rate_low = max(float(np.max(mm.rate(nts))) for mm in env[:3])
        max_rate_high = max(float(np.max(mm.rate(nts))) for mm in env[3:])
        assert max_rate_low < max_rate_high
        assert cloee(model, 8.4, qos, cfg).n_cpb_star >= 8

    def test_infinite_distance_rejected(self, model, qos, cfg):
        # Not a throughput-fallback result at six coin-flip bit error rates.
        with pytest.raises(ValueError, match=r"^distance must be > 0 m and finite, got inf$"):
            cloee(model, math.inf, qos, cfg)

    @pytest.mark.parametrize("d", [1.0, 2.5, 4.0, 5.5, 6.5, 6.8, 7.0, 8.4, 10.0])
    def test_matches_exhaustive_oracle(self, model, qos, cfg, d):
        res = cloee(model, d, qos, cfg)
        oracle = exhaustive_search(model, d, qos, cfg)
        assert res.eta == pytest.approx(oracle.eta, rel=1e-12)
        assert (res.n_t_star, res.n_cpb_star) == (oracle.n_t_star, oracle.n_cpb_star)
        assert res.feasible == oracle.feasible
        assert oracle.eta >= res.eta - 1e-12

    def test_feasible_results_meet_rate_floor(self, model, cfg):
        qos = QosSpec()
        for d in (1.0, 4.0, 6.0, 6.8):
            res = cloee(model, d, qos, cfg)
            assert res.feasible
            assert res.rate >= qos.aggregate_rate * (1 - 1e-12)

    def test_short_range_efficiency_anchor(self, model, qos):
        # With the frame ceiling at the 2616-bit benchmark size, the 1 m
        # solve uses the fastest mode at the ceiling and lands near the
        # published ~57.5 Mbits/Joule operating point.
        res = cloee(model, 1.0, qos, SolverConfig(n_t_max=2616))
        assert res.n_cpb_star == 1
        assert res.eta == pytest.approx(57.5e6, rel=0.02)

    def test_infeasible_distance_returns_best_throughput(self, model, qos, cfg):
        res = cloee(model, 9.5, qos, cfg)
        assert not res.feasible
        assert res.branch == "throughput-fallback"
        oracle = exhaustive_search(model, 9.5, qos, cfg)
        assert res.rate == pytest.approx(oracle.rate, rel=1e-12)

    def test_dual_branch_kkt_certificate(self, model, cfg):
        # Sweep the rate floor to force the dual branch in several modes.
        found = 0
        for scale in np.geomspace(0.3, 3.0, 25):
            qos = QosSpec(r0=15e3 * float(scale))
            for d in np.arange(4.6, 7.41, 0.2):
                for mm in model.env(float(d)):
                    sol = solve_mode(mm, qos, cfg)
                    if sol.branch == "dual":
                        found += 1
                        _assert_dual_certificate(sol, qos.aggregate_rate)
        assert found >= 8
        # Exact floors: r0 * n_s is each grid rate strictly between a mode's
        # eta and rate argmaxes, so the answer's grid rate is the floor itself
        # and the continuous boundary sits at, or an ulp off, the feasible end.
        nts, exact = _grid(None, cfg), 0
        for d in np.arange(4.6, 7.41, 0.2):
            for mm in model.env(float(d)):
                etas, rates = mm.eta(nts), mm.rate(nts)
                lo, hi = sorted((int(np.argmax(etas)), int(np.argmax(rates))))
                for rate in rates[lo + 1:hi].tolist():
                    sol = solve_mode(mm, QosSpec(r0=rate, n_s=1), cfg)
                    if sol.branch == "dual":
                        exact += 1
                        _assert_dual_certificate(sol, rate)
        assert exact >= 400

    def test_dual_regime_matches_oracle(self):
        # Binding targets come from a full grid scan, never from the solver:
        # r0*n_s lies strictly between one mode's rate at its eta-argmax grid
        # frame and its max grid rate, so that mode must take the dual branch.
        variants = (LinkModel(), LinkModel(integration_per_pulse=True),
                    LinkModel(uniform_section_ber=True))
        rng = random.Random(20160917)
        duals = rows = 0
        for draw in range(3000):
            if duals >= 250:
                break
            model = variants[draw % 3]
            d, chi = rng.uniform(1.0, 12.0), rng.gauss(0.0, 4.4)
            cfg = SolverConfig(n_t_max=rng.choice((126, 200, 1000, 2616, 8190, 8200)))
            env = model.env(d, chi)
            nts = _grid(None, cfg)
            bands = []
            for mm in env:
                etas, rates = mm.eta(nts), mm.rate(nts)
                lo, hi = float(rates[int(np.argmax(etas))]), float(np.max(rates))
                if lo < hi:
                    bands.append((lo, hi))
            if not bands:
                continue
            lo, hi = rng.choice(bands)
            n_s = rng.randint(1, 64)
            qos = QosSpec(r0=(lo + rng.uniform(0.02, 0.98) * (hi - lo)) / n_s, n_s=n_s)
            if not lo < qos.aggregate_rate < hi:
                continue
            rows += 1
            for mm in env:
                sol = solve_mode(mm, qos, cfg)
                if sol.branch == "dual":
                    duals += 1
                    assert sol.iterations <= MAX_PROBES
            res = cloee(model, d, qos, cfg, chi)
            oracle = exhaustive_search(model, d, qos, cfg, chi)
            assert (res.n_t_star, res.n_cpb_star, res.eta, res.rate, res.feasible) == \
                (oracle.n_t_star, oracle.n_cpb_star, oracle.eta, oracle.rate, oracle.feasible), \
                f"d={d!r}, chi={chi!r}, n_t_max={cfg.n_t_max}, r0={qos.r0!r}, n_s={n_s}"
        assert duals >= 200, f"{duals} dual solves in {rows} binding rows"

    def test_dual_branch_left_of_throughput_optimum_matches_oracle(self):
        # Pulse energy only, headers at one pulse per bit: overhead is cheap
        # in energy but not in time, so the efficiency optimum can sit left of
        # the throughput optimum and the dual branch searches left of nthr.  The
        # binding targets come from grid scans, never from the solver.  The
        # headers' burst order is a frame constant, so the environment is
        # built by hand: both header sections at the n_cpb = 1 bit error rate,
        # and (n_shr + n_phr) pulses of overhead energy.
        ep = EnergyParams(eps_p=1e-9, p_cor=0, p_adc=0, p_lna=0, p_vga=0,
                          p_syn=0, p_gen=0, t_st=0, m_fingers=0)
        model = LinkModel(energy=ep)
        eps_oh = (FRAME_CONSTANTS.n_shr + FRAME_CONSTANTS.n_phr) * ep.eps_p
        cfg = SolverConfig()
        nts = _grid(None, cfg)
        rng = random.Random(20161103)
        cases = exact = 0
        for d in np.arange(1.0, 40.01, 0.25):
            d = float(d)
            p_b = bit_error_probs(d, ep.eps_p)
            header = _header_success(p_b[0], p_b[0])
            env = tuple(ModeMetrics(m, d, block_log_success(p, PSDU_BLOCK), header,
                                    EnergyBreakdown(energy_breakdown(m, ep).eps_b, eps_oh, 0.0))
                        for m, p in zip(MODE_TABLE, p_b))
            for mm in env:
                etas, rates = mm.eta(nts), mm.rate(nts)
                i_eta, i_rate = int(np.argmax(etas)), int(np.argmax(rates))
                if i_eta >= i_rate:
                    continue
                # Exact floors, each grid rate strictly between the argmaxes:
                # the answer lies left of nthr, and so does the certificate's search.
                for rate in rates[i_eta + 1:i_rate].tolist():
                    sol = solve_mode(mm, QosSpec(r0=rate, n_s=1), cfg)
                    assert sol.branch == "dual"
                    _assert_dual_certificate(sol, rate)
                    exact += 1
                lo, hi = float(rates[i_eta]), float(rates[i_rate])
                n_s = rng.randint(1, 64)
                qos = QosSpec(r0=(lo + rng.uniform(0.02, 0.98) * (hi - lo)) / n_s, n_s=n_s)
                if not lo < qos.aggregate_rate < hi:
                    continue
                cases += 1
                sol = solve_mode(mm, qos, cfg)
                assert sol.branch == "dual" and sol.nee < sol.nthr
                # The walk starts on nthr's side of the boundary and takes no step.
                _CountingMetrics.log.clear()
                assert optimizer._dual(_CountingMetrics.of(mm), qos.aggregate_rate,
                                       _x_ee(mm, cfg), sol.nee, sol.nthr) == sol
                assert [name for name, _ in _CountingMetrics.log] == _no_step_evaluations(sol)
                feasible = rates >= qos.aggregate_rate
                assert sol.n_t_star == grid_argmax(np.where(feasible, etas, -np.inf), nts)
                res, oracle = solve_env(env, qos, cfg), search_env(env, qos, cfg)
                assert (res.n_t_star, res.n_cpb_star, res.eta, res.rate, res.feasible) == \
                    (oracle.n_t_star, oracle.n_cpb_star, oracle.eta, oracle.rate, oracle.feasible), \
                    f"d={d!r}, n_cpb={mm.mode.n_cpb}, r0={qos.r0!r}, n_s={n_s}"
        assert cases >= 100, f"{cases} binding cases with the efficiency optimum on the left"
        assert exact >= 2000, f"{exact} exact floors with the efficiency optimum on the left"

    def test_result_is_the_winning_modes_solve(self, model, qos, cfg):
        # cloee returns one mode's own solve_mode value, compared whole with
        # ==, and its feasible flag is the verdict over all modes.  Default
        # QoS reaches the unconstrained and throughput-fallback winners (all
        # modes infeasible far out); binding targets from grid scans, as in
        # test_dual_regime_matches_oracle, reach dual winners.
        cases = [(d, 0.0, qos) for d in (2.0, 4.0, 6.5, 8.4, 12.0)]
        rng = random.Random(20161018)
        nts = _grid(None, cfg)
        while len(cases) < 80:
            d, chi = rng.uniform(1.0, 10.0), rng.gauss(0.0, 4.4)
            bands = [(float(rates[int(np.argmax(etas))]), float(np.max(rates)))
                     for etas, rates in ((mm.eta(nts), mm.rate(nts)) for mm in model.env(d, chi))]
            lo, hi = rng.choice(bands)
            n_s = rng.randint(1, 64)
            binding = QosSpec(r0=(lo + rng.uniform(0.02, 0.98) * (hi - lo)) / n_s, n_s=n_s)
            if lo < binding.aggregate_rate < hi:
                cases.append((d, chi, binding))
        winners = set()
        for d, chi, q in cases:
            res = cloee(model, d, q, cfg, chi)
            sols = {mm.mode.n_cpb: solve_mode(mm, q, cfg) for mm in model.env(d, chi)}
            assert res == sols[res.n_cpb_star]
            assert res.feasible == any(sol.feasible for sol in sols.values())
            oracle = exhaustive_search(model, d, q, cfg, chi)
            assert oracle.nee is None and oracle.nthr is None
            winners.add(res.branch)
        assert winners == {"unconstrained", "dual", "throughput-fallback"}

    def test_deterministic(self, model, qos, cfg):
        assert cloee(model, 6.8, qos, cfg) == cloee(model, 6.8, qos, cfg)

    def test_per_mode_solves_run_concurrently(self, model, qos, cfg):
        # The six per-mode subproblems are pure and independent; solving them
        # from a thread pool and merging in fixed mode order must reproduce
        # the sequential result bit for bit.
        from concurrent.futures import ThreadPoolExecutor

        for d in (4.0, 6.8, 9.0):
            env = model.env(d)
            with ThreadPoolExecutor(max_workers=6) as pool:
                parallel = list(pool.map(lambda mm: solve_mode(mm, qos, cfg), env))
            sequential = [solve_mode(mm, qos, cfg) for mm in env]
            for a, b in zip(parallel, sequential):
                assert (a.n_t_star, a.eta, a.rate, a.lambda_, a.branch, a.kkt_rate) == \
                    (b.n_t_star, b.eta, b.rate, b.lambda_, b.branch, b.kkt_rate)

    def test_monotone_link_adaptation(self, model, qos, cfg):
        results = [cloee(model, round(1.0 + 0.25 * i, 9), qos, cfg) for i in range(37)]
        orders = [r.n_cpb_star for r in results]
        assert all(a <= b for a, b in zip(orders, orders[1:]))
        # frame sizes shrink with distance within every constant-mode
        # segment; only mode crossovers may bump the size back up
        for (prev_r, next_r) in zip(results, results[1:]):
            if prev_r.n_cpb_star == next_r.n_cpb_star:
                assert prev_r.n_t_star >= next_r.n_t_star


class TestSharedEnvironment:
    @pytest.mark.parametrize("uniform,bit_errors", [(False, 6), (True, 6)])
    def test_sweep_builds_one_environment_per_distance(self, monkeypatch, uniform, bit_errors):
        # The sweep's environments are the rows of its blocks (block.link_block):
        # each distance takes its gain once and one Q per mode, and no
        # ModeMetrics is built outside a dual solve, also when every mode has
        # its own header (uniform_section_ber).
        builds, gains, qs, duals = [], [], [], []
        init, gain, q, dual = ModeMetrics.__init__, block_layer._gain, block_layer.q_function, \
            optimizer._dual

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            builds.append(self.distance)

        def counting_gain(d, *args):
            gains.append(d)
            return gain(d, *args)

        def counting_q(x):
            qs.append(x)
            return q(x)

        def counting_dual(mm, *args):
            duals.append(mm.distance)
            return dual(mm, *args)

        monkeypatch.setattr(ModeMetrics, "__init__", counting_init)
        monkeypatch.setattr(block_layer, "_gain", counting_gain)
        monkeypatch.setattr(block_layer, "q_function", counting_q)
        monkeypatch.setattr(optimizer, "_dual", counting_dual)
        distances = (2.0, 6.5, 8.4)
        run_sweep(Scenario(distances=distances, shadowing=True, seed=3,
                           uniform_section_ber=uniform))
        assert builds == duals and gains == list(distances)
        assert len(qs) == bit_errors * len(distances)

    def test_wrappers_equal_environment_bodies(self, model, cfg):
        # Default targets plus, per mode, one between its rates at the snapped
        # efficiency and throughput optima, which binds (dual branch).
        rng = random.Random(5)
        branches = set()
        for d in (1.0, 4.0, 6.5, 6.8, 8.4, 12.0):
            chi = rng.gauss(0.0, 4.0)
            env = model.env(d, chi)
            targets = [QosSpec()]
            for mm in env:
                sol = solve_mode(mm, QosSpec(), cfg)
                lo, hi = mm.rate(sol.nee), mm.rate(sol.nthr)
                if lo < hi:
                    targets.append(QosSpec(r0=(lo + hi) / 2 / 24))
            for qos in targets:
                res = cloee(model, d, qos, cfg, chi)
                assert res == solve_env(env, qos, cfg)
                assert exhaustive_search(model, d, qos, cfg, chi) == search_env(env, qos, cfg)
                branches.add(res.branch)
        assert branches == {"unconstrained", "dual", "throughput-fallback"}


class TestBlockedSweep:
    # run_sweep evaluates the oracle of a block of distances with one grid
    # call and builds its rows in (distance, strategy) order; its CSV must
    # equal the per-distance loop's (helpers.reference_sweep, which sorts its
    # rows) where the block edges fall awkwardly and on unsorted input.
    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    @pytest.mark.parametrize("n_t_max,count,strategies", [
        pytest.param(63 * 130, 63, None, id="8190-63"),     # blocks of 31, 31 and 1
        pytest.param(63 * 4096, 3, None, id="258048-3"),    # blocks of one
        pytest.param(63, 63, None, id="63-63"),             # one block
        # Given statics run over shuffled distances.  Blocks of 4, the statics
        # out of name order:
        pytest.param(63 * 1024, 60, ((32, 2616), (1, 2616), (16, 630), (2, 8190)),
                     id="64512-60-shuffled"),
        # one static per mode, at off-grid and grid-edge sizes and one above n_t_max:
        pytest.param(63 * 130, 40, ((32, 2616), (16, 258048), (8, 8190), (4, 2616), (2, 64),
                                    (1, 63)), id="8190-40-every-mode"),
        # no statics: cloee and the oracle alone.
        pytest.param(63 * 130, 20, (), id="8190-20-no-statics"),
    ])
    def test_csv_equals_per_distance_loop(self, variant, n_t_max, count, strategies):
        distances, statics = [round(1.0 + 0.15 * i, 9) for i in range(count)], {}
        if strategies is not None:
            random.Random(25).shuffle(distances)
            statics = {"strategies": strategies}
        sc = Scenario(solver=SolverConfig(n_t_max=n_t_max), shadowing=True, seed=11,
                      distances=tuple(distances), **statics, **variant)
        assert rows_to_csv(run_sweep(sc)) == rows_to_csv(reference_sweep(sc))

    def test_sweep_across_two_environment_blocks(self, monkeypatch):
        # 1,100 distances are two environment blocks, 1,024 and 76; at
        # n_t_max = 63 * 100 + 5 the oracle's grid blocks hold 40 distances,
        # so the edge at 1,024 falls inside one (1,000 + 24 and 40 + 36).
        sizes, link_block = [], sweep.link_block

        def counting_link_block(model, points):
            sizes.append(len(points))
            return link_block(model, points)

        monkeypatch.setattr(sweep, "link_block", counting_link_block)
        sc = Scenario(solver=SolverConfig(n_t_max=63 * 100 + 5), shadowing=True, seed=3,
                      distances=tuple(round(1.0 + 0.01 * i, 9) for i in range(1100)))
        assert rows_to_csv(run_sweep(sc)) == rows_to_csv(reference_sweep(sc))
        assert sizes == [sweep.ENV_BLOCK, 1100 - sweep.ENV_BLOCK]

    @pytest.mark.parametrize("n_t_max,calls", [
        (63, 1), (63 * 100 + 5, 3), (63 * 130, 3), (63 * 1024, 23), (63 * 4096, 91),
    ])
    def test_grid_calls_stay_within_one_largest_grid(self, monkeypatch, n_t_max, calls):
        # The 91-distance hospital sweep (default QoS, shadowing on, seed 1)
        # is one environment block, which the oracle takes in grid blocks of
        # N_T_MAX_LIMIT // n_t_max distances: 31, 31 and 29 at the default
        # 8190.  Every grid block is evaluated into the same two arrays, which
        # search_envs allocates once.
        cells, outs = [], []
        grid = block_layer.grid

        def counting_grid(cols, n, out=None):
            result = grid(cols, n, out)
            cells.append(result[1].size)
            outs.append(out)
            return result

        monkeypatch.setattr(block_layer, "grid", counting_grid)
        sc = Scenario(solver=SolverConfig(n_t_max=n_t_max), shadowing=True, seed=1)
        run_sweep(sc)
        assert len(cells) == calls
        assert max(cells) <= len(MODE_TABLE) * (N_T_MAX_LIMIT // 63)
        assert sum(cells) == len(sc.distances) * len(MODE_TABLE) * (n_t_max // 63)
        first = outs[0]
        assert all(np.shares_memory(out[0], first[0]) and np.shares_memory(out[1], first[1])
                   for out in outs)

    def test_sweep_solves_no_environment_with_scalar_calls(self, monkeypatch):
        # run_sweep reads cloee, the oracle and the static rows off each
        # block's arrays (block.link_block): it calls no LinkModel.env, builds
        # a ModeMetrics only for a dual solve (_dual, the one scalar stage of
        # the block pass), and outside one no scalar solve, snap or eta/rate
        # call runs.  No scalar codeword tail runs, inside a dual solve
        # either: its ModeMetrics takes the block's log_p_cw.  Each row's
        # p_ppdu is ppdu_success of the block's floats: the scalar
        # ppdu_success of its mode's ModeMetrics by repr.
        calls, builds, duals, tails, in_dual = [], [], [], [], [False]
        dual, init, tail = optimizer._dual, ModeMetrics.__init__, metrics.block_log_success

        def flagged_dual(*args):
            duals.append(args[0])
            in_dual[0] = True
            try:
                return dual(*args)
            finally:
                in_dual[0] = False

        def watch(owner, name):
            function = getattr(owner, name)

            def watched(*args, **kwargs):
                if not in_dual[0]:
                    calls.append(name)
                return function(*args, **kwargs)

            monkeypatch.setattr(owner, name, watched)

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            builds.append(self)

        def counting_tail(*args):
            tails.append(args)
            return tail(*args)

        monkeypatch.setattr(optimizer, "_dual", flagged_dual)
        monkeypatch.setattr(ModeMetrics, "__init__", counting_init)
        monkeypatch.setattr(metrics, "block_log_success", counting_tail)
        for module in (optimizer, block_layer, sweep):
            for name in ("solve_env", "snap_to_grid"):
                if hasattr(module, name):
                    watch(module, name)
        for name in ("eta", "rate", "eta_rate"):
            watch(ModeMetrics, name)
        watch(LinkModel, "env")
        base = dataclasses.replace(load_scenario(HOSPITAL_CONF), seed=1)
        # The hospital floor, and a lower one under which two modes go dual.
        sweeps = []
        for qos in (base.qos, QosSpec(r0=3e4)):
            builds.clear(), duals.clear()
            scenario = dataclasses.replace(base, qos=qos)
            sweeps.append((scenario, run_sweep(scenario)))
            assert len(sweeps[-1][1]) == 91 * 7 and calls == []
            assert [id(mm) for mm in builds] == [id(mm) for mm in duals]
        assert len(duals) == 2 and tails == []
        monkeypatch.undo()
        for scenario, rows in sweeps:
            model = scenario.link_model()
            envs = {d: model.env(d, chi)
                    for d, chi in zip(scenario.distances, scenario.shadowing_draws())}
            assert [repr(r.p_ppdu) for r in rows] == \
                [repr(success(envs[r.distance][MODE_POSITION[r.n_cpb]], r.n_t)) for r in rows]
            assert rows_to_csv(rows) == rows_to_csv(reference_sweep(scenario))

    def test_search_envs_peak_stays_under_three_block_arrays(self):
        # The first block of the hospital sweep: 31 distances at n_t_max
        # 8190.  numpy reports its buffers to tracemalloc, so the peak is a
        # count of block arrays.  It is reached in Columns.eta_rate: the
        # numerator (later divided in place into the rates), the product
        # n_t * header_success that scales it, and numpy's int-to-float
        # casting buffers, 2.72 in all.
        sc = load_scenario(HOSPITAL_CONF)
        model, qos, cfg = sc.link_model(), sc.qos, sc.solver
        block = N_T_MAX_LIMIT // cfg.n_t_max
        envs = [model.env(d, chi) for d, chi in
                list(zip(sc.distances, sc.shadowing_draws()))[:block]]
        expect = search_envs(columns(envs), qos, cfg)
        tracemalloc.start()
        try:
            assert search_envs(columns(envs), qos, cfg) == expect
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_array = block * len(MODE_TABLE) * (cfg.n_t_max // 63) * 8
        assert block == 31 and block_array == 193_440
        assert peak < 3 * block_array, peak / block_array

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the fault count rests on glibc's malloc thresholds")
    def test_sweep_faults_in_no_pages_per_op(self):
        # A guard with no clock on the sweep's allocations: in a fresh
        # process, after two warm-up sweeps, a hospital sweep and its CSV
        # reuse the pages the allocator already holds (~0.3-0.5 minor faults
        # per op).  A grid-array pair per grid block, or one split in two,
        # read 85-312.
        child = ("import dataclasses, resource, sys\n"
                 "from cloee import load_scenario, rows_to_csv, run_sweep\n"
                 "base = load_scenario(sys.argv[1])\n"
                 "def op(seed):\n"
                 "    rows_to_csv(run_sweep(dataclasses.replace(base, seed=seed)))\n"
                 "op(1), op(2)\n"
                 "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                 "for seed in range(3, 23):\n"
                 "    op(seed)\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
        done = subprocess.run([sys.executable, "-c", child, str(HOSPITAL_CONF)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 20 * 20, int(done.stdout) / 20

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy 1.x has no numpy._core.__cpu_features__")
    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="the disabled features are x86-64 AVX-512 ones")
    def test_matches_without_avx512_dispatch(self):
        # grid takes the codeword powers in place (np.exp(..., out=)), the
        # scalar calls on a number; the two must agree on either SIMD
        # dispatch.  The child fails if numpy ignored the disabled names.
        child = ("from numpy._core._multiarray_umath import __cpu_features__\n"
                 "assert __cpu_features__['AVX512_SKX'] is False\n"
                 "import test_optimizer\n"
                 "print(test_optimizer.check_grid_and_sweep_bits())\n")
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
               "PYTHONPATH": os.pathsep.join((str(TESTS), str(TESTS.parent / "src")))}
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == len(MODEL_VARIANTS) * 31 * len(MODE_TABLE) * 130


class TestSolveEnvMatchesReference:
    # solve_env skips the solves whose result cannot be selected: it visits
    # modes in decreasing eta bound and stops at the first bound below the
    # best feasible eta so far.  It must return the reference's OptResult
    # whole, on inputs that reach every branch and reach dual solves an
    # unconstrained mode dominates.  Each environment is also checked on sub-tuples of its
    # modes (each mode alone, every other mode, the upper half and adjacent
    # pairs), which reach the all-fail and pruning rules on mode mixes that
    # lack the environment's feasible modes or its best unconstrained mode.
    COUNTED = ("unconstrained", "dual", "throughput-fallback", "dominated", "none feasible",
               "sub dominated", "sub none feasible")

    @staticmethod
    def _subsets(n):
        idx = tuple(range(n))
        return [idx[m:m + 1] for m in idx] + [idx[::2], idx[3:]] + [idx[m:m + 2] for m in idx[:-1]]

    @classmethod
    def _check(cls, env, qos, cfg, counts):
        assert solve_env(env, qos, cfg) == reference_solve_env(env, qos, cfg)
        sols = [solve_mode(mm, qos, cfg) for mm in env]
        for sol in sols:
            counts[sol.branch] += 1

        def best(sub):
            return max((sols[m].eta for m in sub if sols[m].branch == "unconstrained"),
                       default=-math.inf)

        def dominated(sub):
            return sum(env[m].eta(sols[m].nee) < best(sub)
                       for m in sub if sols[m].branch == "dual")

        def none_feasible(sub):
            return not any(sols[m].feasible for m in sub)

        everything = range(len(env))
        counts["dominated"] += dominated(everything)
        counts["none feasible"] += none_feasible(everything)
        for sub in cls._subsets(len(env)):
            modes = tuple(env[m] for m in sub)
            assert solve_env(modes, qos, cfg) == reference_solve_env(modes, qos, cfg), sub
            if len(sub) > 1 and best(sub) < best(everything):
                counts["sub dominated"] += dominated(sub)
            if len(sub) > 1 and not none_feasible(everything):
                counts["sub none feasible"] += none_feasible(sub)

    def test_binding_inputs(self):
        counts = dict.fromkeys(self.COUNTED, 0)
        cfgs = [SolverConfig(n_t_max=n) for n in (126, 8190, 63 * 4096)]
        for env, qos in binding_envs(256):
            for cfg in cfgs:
                self._check(env, qos, cfg, counts)
        assert min(counts.values()) >= 100, counts

    def test_dual_biased_random_links(self):
        # Energy powers scaled by 10**U(-2, 2), distances 0.5-20 m, shadowing,
        # all three model variants, and r0 between one mode's rates at its
        # efficiency and throughput optima, so that mode takes the dual branch.
        rng = random.Random(12)
        powers = ("p_cor", "p_adc", "p_lna", "p_vga", "p_syn", "p_gen")
        counts = dict.fromkeys(self.COUNTED, 0)
        cases = 0
        while cases < 300:
            ep = EnergyParams(**{k: getattr(EnergyParams(), k) * 10 ** rng.uniform(-2, 2)
                                 for k in powers})
            model = LinkModel(energy=ep, **rng.choice(MODEL_VARIANTS))
            cfg = SolverConfig(n_t_max=rng.choice((126, 8190, 63 * 4096)))
            env = model.env(rng.uniform(0.5, 20.0), rng.gauss(0.0, 4.4))
            mm = rng.choice(env)
            sol = solve_mode(mm, QosSpec(), cfg)
            lo, hi = mm.rate(sol.nee), mm.rate(sol.nthr)
            n_s = rng.randint(1, 64)
            qos = QosSpec(r0=(lo + rng.uniform(0.0, 1.0) * (hi - lo)) / n_s, n_s=n_s)
            if not lo < qos.aggregate_rate <= hi:
                continue
            cases += 1
            self._check(env, qos, cfg, counts)
        assert counts["dual"] >= cases and counts["dominated"] >= 20, counts
        assert counts["sub dominated"] >= 20, counts


class TestSolveEnvsEqualsSolveEnv:
    # solve_envs, the sweep's block pass, reads each environment's values from
    # (environments, modes) arrays and runs the decision that solve_env runs.
    # Its results must equal solve_env's by repr, with warnings as errors, on
    # inputs that reach every branch and dual solves that lose: the binding
    # rows, the hospital sweeps, and wide seeded draws, among them start-up
    # times where cloee and the oracle disagree (ROADMAP item 3) but the two
    # cloee paths may not.

    @pytest.fixture
    def duals(self, monkeypatch):
        made, dual = [], optimizer._dual

        def recording_dual(*args):
            made.append(dual(*args))
            return made[-1]

        monkeypatch.setattr(optimizer, "_dual", recording_dual)
        return made

    @staticmethod
    def _check(envs, qos, cfg, duals, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            duals.clear()
            block = solve_envs(columns(envs), qos, cfg)
            # A dual solve that the block does not return lost to a better mode.
            counts["dominated dual"] += len({id(res) for res in duals} - {id(res) for res in block})
            assert list(map(repr, block)) == [repr(solve_env(env, qos, cfg)) for env in envs]
        counts["environments"] += len(envs)
        counts.update(res.branch for res in block)
        # The side of nthr that nee lies on sets the direction of _dual's walk.
        counts.update("dual nee < nthr" if res.nee < res.nthr else "dual nee > nthr"
                      for res in block if res.branch == "dual")

    def test_binding_rows(self, duals):
        # Blocks of 1, 7 and 31 consecutive rows of one model variant, each
        # under the rate floor of its first, middle and last row.
        counts = collections.Counter()
        rows = list(binding_envs(256))
        for n_t_max in (126, 8190, 63 * 4096):
            cfg = SolverConfig(n_t_max=n_t_max)
            for variant in range(len(MODEL_VARIANTS)):
                for size in (1, 7, 31):
                    for start in range(variant * 256, (variant + 1) * 256, size):
                        chunk = rows[start:min(start + size, (variant + 1) * 256)]
                        for qos in dict.fromkeys(q for _, q in (chunk[0], chunk[len(chunk) // 2],
                                                                chunk[-1])):
                            self._check([env for env, _ in chunk], qos, cfg, duals, counts)
        assert min(counts[k] for k in ("dual", "throughput-fallback", "unconstrained")) >= 100, \
            counts
        assert counts["dominated dual"] >= 20, counts

    def test_hospital_sweeps(self, duals):
        # The blocks of run_sweep on the hospital sweeps of seeds 1-10.
        counts = collections.Counter()
        for seed in range(1, 11):
            sc = dataclasses.replace(load_scenario(HOSPITAL_CONF), seed=seed)
            model, block = sc.link_model(), N_T_MAX_LIMIT // sc.solver.n_t_max
            points = sorted(zip(sc.distances, sc.shadowing_draws()))
            for start in range(0, len(points), block):
                self._check([model.env(d, chi) for d, chi in points[start:start + block]],
                            sc.qos, sc.solver, duals, counts)
        assert counts["environments"] == 910, counts
        assert min(counts["unconstrained"], counts["throughput-fallback"]) >= 100, counts

    def test_wide_draws(self, duals):
        # One LinkModel per draw: the six powers log-uniform in 10**[-12, 12],
        # t_st up to 1e150 s, eps_p in 10**[-15, -6], and a block of five
        # distances in 0.1-20 m, shadowed.  Half the rate floors are drawn
        # between the rates at the efficiency and throughput optima of the
        # first distance's mode with the best eta that has such a band, which
        # sends that mode to the dual branch; the others as r0 in 10**[0, 7]
        # per node.  Most draws have t_st beyond 1e3 s, where the modes' etas
        # agree to many digits and a visited dual hardly ever loses (the
        # binding rows count those), and where the bounds can sit below the
        # grid etas (ROADMAP item 3), so the block pass must prune exactly as
        # solve_env does.
        rng = random.Random(28)
        powers = ("p_cor", "p_adc", "p_lna", "p_vga", "p_syn", "p_gen")
        counts = collections.Counter()
        while counts["draws"] < 400:
            ep = EnergyParams(eps_p=10 ** rng.uniform(-15, -6), t_st=10 ** rng.uniform(-12, 150),
                              **{k: 10 ** rng.uniform(-12, 12) for k in powers})
            model = LinkModel(energy=ep, **rng.choice(MODEL_VARIANTS))
            cfg = SolverConfig(n_t_max=rng.choice((126, 8190, 63 * 4096)))
            envs = [model.env(rng.uniform(0.1, 20.0), rng.gauss(0.0, 4.4)) for _ in range(5)]
            n_s, r0 = rng.randint(1, 64), 10 ** rng.uniform(0, 7)
            if rng.random() < 0.5:
                snaps = [(mm.eta(sol.nee), mm.rate(sol.nee), mm.rate(sol.nthr))
                         for mm, sol in ((mm, solve_mode(mm, QosSpec(), cfg)) for mm in envs[0])]
                bands = [(lo, hi) for _, lo, hi in sorted(snaps, reverse=True) if lo < hi]
                if bands:
                    lo, hi = bands[0]
                    r0 = (lo + rng.uniform(0.0, 1.0) * (hi - lo)) / n_s
            counts["draws"] += 1
            self._check(envs, QosSpec(r0=r0, n_s=n_s), cfg, duals, counts)
        assert min(counts[k] for k in ("dual", "throughput-fallback", "unconstrained")) >= 20, \
            counts
        # Both directions of _dual's walk, toward larger and smaller frames.
        assert counts["dual nee < nthr"] >= 40 and counts["dual nee > nthr"] >= 3, counts


class TestRateFloorAtEquality:
    # Feasibility is R >= r0 * n_s.  With n_s = 1 the floor is r0 to the bit,
    # so r0 can sit exactly on a rate that cloee compares with the floor: a
    # mode's peak R(nthr) (_decide's feasibility test), the grid rate of a
    # dual answer (_dual's walk) and rate_cont(x_ee) of its mode (_dual's
    # lambda* = 0 test).  A `>=` there turned into `>` moves an answer off the
    # oracle's, whose `rates >= floor` is pinned, or makes lambda* nonzero
    # where the continuous optimum x_ee meets the floor exactly.
    def test_exact_floors_on_binding_rows(self):
        cfg = SolverConfig()
        counts = collections.Counter()
        for env, qos in binding_envs(256):
            floors = [("peak", snap_to_grid(mm, _x_thr(mm, cfg), cfg.n_t_max, 1)[2], None)
                      for mm in env]
            res = solve_env(env, qos, cfg)
            if res.branch == "dual":
                mm = env[MODE_POSITION[res.n_cpb_star]]
                floors += [("grid", res.rate, None),
                           ("x_ee", mm.rate_cont(_x_ee(mm, cfg)), res.n_cpb_star)]
            for kind, floor, n_cpb in floors:
                exact = QosSpec(r0=floor, n_s=1)
                assert exact.aggregate_rate == floor
                res, oracle = solve_env(env, exact, cfg), search_env(env, exact, cfg)
                assert (res.n_t_star, res.n_cpb_star, res.feasible, res.eta) == \
                    (oracle.n_t_star, oracle.n_cpb_star, oracle.feasible, oracle.eta), (kind, floor)
                assert repr(solve_envs(columns((env,)), exact, cfg)[0]) == repr(res)
                if res.n_cpb_star == n_cpb:
                    assert res.lambda_ == 0.0, floor
                    counts["x_ee, same mode"] += 1
                counts[kind] += 1
                counts[res.branch] += 1
        assert counts["peak"] == 6 * 768 and counts["grid"] == counts["x_ee"] >= 250, counts
        assert counts["dual"] >= 900 and counts["x_ee, same mode"] >= 200, counts


class _CountingMetrics(ModeMetrics):
    # A ModeMetrics that logs the objective evaluations of the dual branch as
    # (method, argument): rate_cont_slopes, the one evaluation of the Newton
    # search for the continuous rate boundary (rate_cont reads it), and the
    # grid rate and eta_rate (the walk reads only eta_rate, so a logged rate
    # is a second read of a multiple).
    __slots__ = ()
    log = []

    @classmethod
    def of(cls, mm):
        return cls(mm.mode, mm.distance, mm.log_p_cw, mm.header_success, mm.energy)

    def rate_cont_slopes(self, x):
        self.log.append(("rate_cont_slopes", x))
        return super().rate_cont_slopes(x)

    def rate(self, n_t):
        self.log.append(("rate", n_t))
        return super().rate(n_t)

    def eta_rate(self, n_t):
        self.log.append(("eta_rate", n_t))
        return super().eta_rate(n_t)


class TestRateBoundaryNewton:
    # _dual takes its certificate from optimizer._rate_boundary: Newton's
    # method on rate_cont - r0 * n_s, each probe strictly inside the bracket
    # [x_in, x_out] and moving the end that rate >= r0 * n_s says, with the
    # midpoint where the Newton step leaves the bracket or has no slope to
    # follow.  Its edges, called directly: a zero slope, a bracket with no
    # sign change, the efficiency optimum on either side of nthr; and its cost.

    @staticmethod
    def _peaked(x_peak, fixed_over_eps_b):
        # A mode whose relaxed rate peaks at x_peak, a power of two, with a
        # slope of exactly 0.0 there: with t_sym = t_oh / x_peak and
        # log_p_cw / n = -1 / (2 x_peak), every product in the slope's
        # numerator is exact, and they cancel.  Its relaxed efficiency peaks
        # above x_peak when eps_fixed / eps_b > x_peak, and below it otherwise.
        return ModeMetrics(dataclasses.replace(mode_for(1), t_sym=ModeMetrics.t_oh / x_peak), 1.0,
                           -PSDU_CODE.n / (2.0 * x_peak), 0.9,
                           EnergyBreakdown(1e-9, fixed_over_eps_b * 1e-9, 0.0))

    @pytest.mark.parametrize("x_in,x_out", [(1008.0, 1040.0), (1040.0, 1008.0)])
    @pytest.mark.parametrize("below", [0, 1])
    def test_floor_on_the_peak_where_the_slope_is_zero(self, x_in, x_out, below):
        mm = self._peaked(1024.0, 2048.0)
        peak, slope, _ = mm.rate_cont_slopes(1024.0)
        assert slope == 0.0
        floor = math.nextafter(peak, 0.0) if below else peak
        # The first probe, the midpoint, is the peak: it meets the floor, so
        # it becomes the feasible end, and with no slope to follow the next
        # probe is the midpoint toward x_out.  Every probe past the peak then
        # keeps x_in at it (a `>` for `>=` would move x_out there instead and
        # end on the other side of the peak).
        x, rate, _, _, _ = optimizer._rate_boundary(mm, floor, x_in, x_out)
        assert min(1024.0, x_out) < x < max(1024.0, x_out)
        assert rate == mm.rate_cont(x) <= peak
        assert abs(rate - floor) <= 1e-12 * floor

    @pytest.mark.parametrize("x_peak,fixed_over_eps_b", [(1024.0, 2048.0), (2048.0, 512.0)])
    def test_peak_inside_the_bracket(self, x_peak, fixed_over_eps_b):
        # The floor is the grid rate peak R(nthr), or halfway down to the
        # next grid rate toward nee, so nthr is the answer and the codeword
        # (nthr, nthr +- n) holds the continuous peak and the crossing past
        # it: its efficiency optimum lies above nthr for x_peak = 1024 and
        # below it for 2048.
        cfg, n = SolverConfig(), PSDU_CODE.n
        mm = self._peaked(x_peak, fixed_over_eps_b)
        nthr, _, rate_thr = snap_to_grid(mm, x_peak, cfg.n_t_max, 1)
        x_ee = nt_closed_form(mm.energy.eps_b, mm.energy.eps_fixed, mm.log_p_cw)
        nee = snap_to_grid(mm, x_ee, cfg.n_t_max, 0)[0]
        side = 1 if nee > nthr else -1
        assert side == (1 if x_peak == 1024.0 else -1) and 0 < (x_peak - nthr) * side < n
        for floor in (rate_thr, 0.5 * (rate_thr + mm.rate(nthr + side * n))):
            sol = optimizer._dual(mm, floor, x_ee, nee, nthr)
            assert sol.n_t_star == search_env((mm,), QosSpec(r0=floor, n_s=1), cfg).n_t_star == nthr
            _assert_dual_certificate(sol, floor)
            x, rate, _, _, probes = optimizer._rate_boundary(mm, floor, nthr, nee)
            assert 0 < (x - x_peak) * side < n and rate == sol.kkt_rate
            assert probes == sol.iterations

    def test_exact_floor_with_no_sign_change(self):
        # With the floor at the dual answer's grid rate and rate_cont an ulp
        # or more below it there, the bracket (n_star, n_star +- n) has no
        # crossing when it lies past nthr, whose codeword holds the continuous
        # peak: every probe falls short (or, within an ulp of n_star, meets
        # the floor), and the search ends next to n_star, its feasible end.
        # (At n_star = nthr the peak can lie inside the bracket, which then
        # holds a crossing past it.)  _dual's own search, on (nthr, nee),
        # ends within 1e-9 * x of n_star too, on either side of it.
        cfg, n, cases = SolverConfig(), PSDU_CODE.n, 0
        for env, qos in binding_envs(256):
            for mm in env:
                sol = solve_mode(mm, qos, cfg)
                floor = mm.rate(sol.n_t_star)
                if (sol.branch != "dual" or sol.n_t_star == sol.nthr
                        or not mm.rate_cont(float(sol.n_t_star)) < floor):
                    continue
                n_star = float(sol.n_t_star)
                x_out = n_star + (n if sol.nee > sol.nthr else -n)
                x, rate, _, _, _ = optimizer._rate_boundary(mm, floor, n_star, x_out)
                # A probe that falls short moves x_out, so the bracket's width is
                # its distance from n_star, and its Newton step is that distance
                # up to the ulp-sized gap between n_star and the crossing: both
                # stops hold the last probe to 1e-9 * x from n_star.
                assert rate <= floor and 0 < (x - n_star) / (x_out - n_star) <= 1.0001e-9 * x / n
                exact = optimizer._dual(mm, floor, _x_ee(mm, cfg), sol.nee, sol.nthr)
                x, rate, _, _, _ = optimizer._rate_boundary(mm, floor, sol.nthr, sol.nee)
                assert (exact.n_t_star, exact.kkt_rate) == (sol.n_t_star, rate)
                assert abs(x - n_star) <= 1e-9 * x
                _assert_dual_certificate(exact, floor)
                cases += 1
        assert cases >= 40, cases

    def test_newton_probes_per_boundary_on_the_binding_rows(self):
        # A cost guard with no clock: the rate_cont_slopes calls of each
        # _rate_boundary call that cloee makes on the binding rows.  The
        # bisection it replaced took a median of 25.
        counts = []

        def counted(*args, boundary=optimizer._rate_boundary):
            _CountingMetrics.log.clear()
            res = boundary(*args)
            counts.append(len(_CountingMetrics.log))
            assert res[4] == counts[-1]
            return res

        with mock.patch.object(optimizer, "_rate_boundary", counted):
            for env, qos in binding_envs(4096):
                solve_env(tuple(map(_CountingMetrics.of, env)), qos, SolverConfig())
        assert len(counts) >= 3000, len(counts)
        assert statistics.median(counts) <= 5 and max(counts) <= MAX_PROBES, \
            collections.Counter(counts)


def _no_step_evaluations(res):
    # The evaluations of a dual solve whose walk takes no step: one rate_cont
    # at x_ee, its Newton probes (none when lambda* = 0) and two grid
    # eta_rates, the start, which is the answer, and the next multiple toward nee.
    return ["rate_cont_slopes"] * (1 + res.iterations) + ["eta_rate", "eta_rate"]


@functools.cache
def _dual_solves(rows, n_codewords):
    """(mode, qos, result, evaluations) of each per-mode dual solve on the
    first rows binding rows at n_t_max = n * n_codewords: every mode of
    each environment gets solve_mode, and evaluations is the _CountingMetrics
    log of its _dual call."""
    cfg, solves, duals = SolverConfig(n_t_max=PSDU_CODE.n * n_codewords), [], []

    def logged(*args, dual=optimizer._dual):
        _CountingMetrics.log.clear()
        res = dual(*args)
        duals.append((res, tuple(_CountingMetrics.log)))
        return res

    with mock.patch.object(optimizer, "_dual", logged):
        for env, qos in binding_envs(rows):
            for mm in env:
                duals.clear()
                solve_mode(_CountingMetrics.of(mm), qos, cfg)
                solves += [(mm, qos, *dual) for dual in duals]
    return tuple(solves)


class TestDualWalk:
    # _dual takes its grid answer from the continuous boundary x (x_ee when
    # lambda* = 0): it starts at the codeword multiple on nthr's side of x,
    # steps toward nthr while that start is grid-infeasible and toward nee
    # while the next multiple is grid-feasible.  rate_cont and the grid rate
    # can differ by an ulp at a multiple, so a floor equal to a grid rate
    # decides which way the walk goes.

    @pytest.mark.parametrize("n_codewords", [8, 130, 4096])
    def test_dual_equals_the_one_mode_oracle(self, n_codewords):
        cfg = SolverConfig(n_t_max=PSDU_CODE.n * n_codewords)
        solves = _dual_solves(1024, n_codewords)
        assert len(solves) >= 400, len(solves)
        for mm, qos, res, _ in solves:
            oracle = search_env((mm,), qos, cfg)
            assert (res.n_t_star, res.eta, res.rate, res.feasible) == \
                (oracle.n_t_star, oracle.eta, oracle.rate, oracle.feasible)

    @pytest.mark.parametrize("n_codewords", [8, 130, 4096])
    def test_dual_evaluations_do_not_grow_with_the_grid(self, n_codewords):
        # A cost guard with no clock: no dual solve on the binding rows takes
        # a walk step, so each makes at most MAX_PROBES + 3 evaluations at
        # every grid size.
        solves = _dual_solves(1024, n_codewords)
        for _, _, res, log in solves:
            names = [name for name, _ in log]
            assert names == _no_step_evaluations(res), (res, names)
        most = max(len(log) for *_, log in solves)
        assert most <= MAX_PROBES + 3, most

    def test_walk_steps_both_ways(self):
        # Floors at the dual answer's grid rate and at rate_cont(x_ee), and an
        # ulp above each, on the 256 binding rows.  At the grid rate the
        # search can end within 1e-9 * x short of n_star, on nthr's side,
        # and the walk steps toward nee to it; an ulp above it n_star is
        # grid-infeasible where rate_cont can still meet the floor, and the
        # walk steps back toward nthr; so it does when lambda* = 0 and x_ee,
        # clamped to the grid's top, is nee itself, whose grid rate is an ulp
        # below rate_cont(x_ee).  An ulp above rate_cont(x_ee) the search can
        # end past x_ee, where both slopes share a sign and lambda* is
        # clamped to 0.  Each answer is the oracle's.  (Its probes are not
        # bounded by MAX_PROBES here: with x_ee clamped to nee, a floor an ulp
        # above rate_cont(x_ee) puts the crossing within ulps of the
        # bracket's end, each Newton step overshoots it, and the search
        # bisects, up to 26 probes.)
        cfg, n = SolverConfig(), PSDU_CODE.n
        steps = collections.Counter()
        for env, qos in binding_envs(256):
            for mm in env:
                sol = solve_mode(mm, qos, cfg)
                if sol.branch != "dual":
                    continue
                x_ee = _x_ee(mm, cfg)
                grid_rate, cont_rate = mm.rate(sol.n_t_star), mm.rate_cont(x_ee)
                for floor in (grid_rate, math.nextafter(grid_rate, math.inf),
                              cont_rate, math.nextafter(cont_rate, math.inf)):
                    if not mm.rate(sol.nee) < floor <= mm.rate(sol.nthr):
                        continue             # not a dual solve
                    _CountingMetrics.log.clear()
                    res = optimizer._dual(_CountingMetrics.of(mm), floor, x_ee, sol.nee, sol.nthr)
                    start = next(n_t for name, n_t in _CountingMetrics.log if name == "eta_rate")
                    toward_nee = (res.n_t_star - start) // n * (1 if sol.nee > sol.nthr else -1)
                    steps[res.iterations == 0, toward_nee] += 1
                    assert res.n_t_star == search_env((mm,), QosSpec(r0=floor, n_s=1), cfg).n_t_star
                    assert res.lambda_ >= 0.0
        # (no search ran, codewords stepped toward nee): never more than one.
        assert {step for _, step in steps} <= {-1, 0, 1}, steps
        assert steps[False, 1] >= 20 and steps[False, -1] >= 100 and steps[True, -1] >= 5, steps

    def test_walks_left_of_the_throughput_optimum_equal_the_one_mode_oracle(self):
        # LinkModel's header pulses (n_cpb 4 and 32) cost 2540 / n_cpb
        # payload-bit pulses, above t_oh / t_sym = 1909 / n_cpb payload-bit
        # times in every mode, so in exact arithmetic no EnergyParams puts a
        # mode's continuous efficiency optimum left of its throughput
        # optimum, and the binding rows have no nee < nthr.  (nee does land
        # left of nthr where nt_closed_form cancels at huge t_st, ROADMAP
        # item 3, as in TestSolveEnvsEqualsSolveEnv.test_wide_draws; there
        # cloee is not the oracle.)
        # Here the header takes one pulse per bit (355 / n_cpb), as in
        # TestCloee.test_dual_branch_left_of_throughput_optimum_matches_oracle,
        # and every other energy term is energy_breakdown's over drawn
        # EnergyParams, whose circuit powers and start-up are scaled down
        # (by 10**[-9, -3] and to 10**[-10, -6] s) so that the pulses
        # dominate, as they must for the header to stay cheap.  Each floor
        # lies inside a mode's band from its rate at the grid eta argmax to
        # its rate peak, read off the grid, never from the solver; the dual
        # walk then runs left of nthr.
        c, counts = FRAME_CONSTANTS, collections.Counter()
        powers = ("p_cor", "p_adc", "p_lna", "p_vga", "p_syn", "p_gen")

        @settings(max_examples=200)
        @given(variant=st.sampled_from(MODEL_VARIANTS),
               scales=st.tuples(*(st.floats(min_value=-9.0, max_value=-3.0) for _ in powers)),
               eps_p=st.floats(min_value=-1.0, max_value=1.0),
               t_st=st.floats(min_value=-10.0, max_value=-6.0),
               distance=st.floats(min_value=1.0, max_value=14.0),
               n_codewords=st.sampled_from((8, 130, 4096)),
               n_s=st.integers(min_value=1, max_value=64),
               u=st.floats(min_value=0.0, max_value=1.0))
        def check(variant, scales, eps_p, t_st, distance, n_codewords, n_s, u):
            base = EnergyParams()
            ep = EnergyParams(eps_p=base.eps_p * 10 ** eps_p, t_st=10 ** t_st,
                              **{k: getattr(base, k) * 10 ** e for k, e in zip(powers, scales)})
            eps_oh = ((c.n_shr + c.n_phr) * ep.eps_p
                      + (ep.p_syn + ep.rx_chain_power) * c.t_overhead)
            env = tuple(ModeMetrics(mm.mode, mm.distance, mm.log_p_cw, mm.header_success,
                                    EnergyBreakdown(mm.energy.eps_b, eps_oh, mm.energy.eps_st))
                        for mm in LinkModel(energy=ep, **variant).env(distance))
            cfg = SolverConfig(n_t_max=PSDU_CODE.n * n_codewords)
            _, (etas,), (rates,) = block_layer.grid(columns((env,)), cfg.n_t_max)
            for mm, eta_row, rate_row in zip(env, etas, rates):
                i_eta, i_rate = int(np.argmax(eta_row)), int(np.argmax(rate_row))
                lo, hi = float(rate_row[i_eta]), float(rate_row[i_rate])
                qos = QosSpec(r0=(lo + u * (hi - lo)) / n_s, n_s=n_s)
                if not (i_eta < i_rate and lo < qos.aggregate_rate <= hi):
                    continue
                res, oracle = solve_mode(mm, qos, cfg), search_env((mm,), qos, cfg)
                assert (res.n_t_star, res.eta, res.rate, res.feasible) == \
                    (oracle.n_t_star, oracle.eta, oracle.rate, oracle.feasible), (ep, distance)
                counts[res.branch, res.nee < res.nthr] += 1

        check()
        assert counts["dual", True] >= 50 and set(counts) == {("dual", True)}, counts


class TestDominatedDual:
    # Binding rows (0-based past the header) where, at n_t_max = 8190, a mode
    # that solve_env visits takes the dual branch at an eta below the
    # winner's: it gets its full three-branch solve and loses the max-eta
    # pick.  test_binding_inputs reads only the first 256 rows.
    @pytest.mark.parametrize("row,variant,n_cpb", [
        (267, 0, 16), (677, 0, 16), (2005, 0, 16), (3158, 0, 32), (4059, 0, 32),
        (493, 1, 32), (2060, 1, 16), (2777, 1, 16), (2861, 1, 32),
    ])
    def test_dual_below_the_winner(self, row, variant, n_cpb):
        d, chi, r0, n_s = BINDING_CSV.read_text().splitlines()[row + 1].split(",")
        env = LinkModel(**MODEL_VARIANTS[variant]).env(float(d), float(chi))
        qos, cfg = QosSpec(r0=float(r0), n_s=int(n_s)), SolverConfig(n_t_max=8190)
        res = solve_env(env, qos, cfg)
        assert res == reference_solve_env(env, qos, cfg)
        sol = solve_mode(next(mm for mm in env if mm.mode.n_cpb == n_cpb), qos, cfg)
        assert sol.branch == "dual" and sol.eta < res.eta


class TestBoundPruning:
    # solve_env visits modes in decreasing eta bound and stops at the first
    # bound strictly below the best feasible eta so far; the bound is the
    # relaxed efficiency at the clamped closed-form optimum.
    def test_prunes_modes_on_binding_inputs(self):
        pruned = 0
        cfgs = [SolverConfig(n_t_max=n) for n in (126, 8190, 63 * 4096)]
        for env, qos in binding_envs(256):
            for cfg in cfgs:
                res, n = solve_env_pruned(env, qos, cfg)
                assert res == reference_solve_env(env, qos, cfg)
                pruned += n
        assert pruned >= 100, pruned

    @staticmethod
    def _twins():
        # Two error-free modes that differ only in their n_cpb label: eta
        # rises with n_t, so both bounds sit at the ceiling and equal the
        # grid eta there exactly.
        first = single_pb_metrics(0.0, mode_for(2))
        twin = copy.copy(first)
        twin.mode = dataclasses.replace(first.mode, n_cpb=8)
        return first, twin

    @pytest.mark.parametrize("n_t_max", [63, 8190, 8200])
    def test_identical_modes_tie_goes_to_the_first(self, n_t_max):
        first, twin = self._twins()
        cfg = SolverConfig(n_t_max=n_t_max)
        x = float(n_t_max // 63 * 63)
        assert x * first.success_cont(x) / first.energy.total(x) == first.eta(int(x))
        for qos in (QosSpec(r0=1.0, n_s=1), QosSpec(r0=1e9, n_s=64)):
            for env, n_cpb in (((first, twin), 2), ((twin, first), 8)):
                res, pruned = solve_env_pruned(env, qos, cfg)
                assert res == reference_solve_env(env, qos, cfg)
                assert res.n_cpb_star == n_cpb
                # The second mode's bound equals the best eta so far, so
                # it is visited, not pruned.
                assert pruned == 0

    def test_bound_equal_to_the_best_is_visited(self):
        # An error-free mode's bound is its grid eta at the ceiling; a
        # second mode scaled to that same bound is visited after it, and a
        # third, one part in 1e9 lower, is pruned.
        first, twin = self._twins()
        low = copy.copy(first)
        low.mode = dataclasses.replace(first.mode, n_cpb=32)
        low.header_success = first.header_success * (1 - 1e-9)
        env, cfg, qos = (first, twin, low), SolverConfig(), QosSpec(r0=1.0, n_s=1)
        res, pruned = solve_env_pruned(env, qos, cfg)
        assert res == reference_solve_env(env, qos, cfg)
        assert (res.n_cpb_star, res.branch, pruned) == (2, "unconstrained", 1)


class TestCloeeEqualsOracleProperty:
    # cloee must pick the oracle's grid point over the model space: energy
    # powers and start-up time scaled by 10**U(-2, 2), 1-14 m (across the
    # modes' error-rate cliffs), shadowing, all three model variants and
    # ceilings from one codeword to the largest.  Three in four rate floors
    # are drawn inside a dual band read off the oracle's own grid: between a
    # mode's rate at its eta-argmax and its peak rate, in the mode with the
    # highest grid eta that has such a band.  The others are 10**U(2, 6) per
    # node.
    POWERS = ("p_cor", "p_adc", "p_lna", "p_vga", "p_syn", "p_gen", "t_st")

    def test_cloee_equals_oracle(self):
        counts = dict.fromkeys(("unconstrained", "dual", "throughput-fallback", "pruned"), 0)
        exponent = st.floats(min_value=-2.0, max_value=2.0)

        @settings(max_examples=800)
        @given(variant=st.sampled_from(MODEL_VARIANTS),
               scales=st.tuples(*(exponent for _ in self.POWERS)),
               distance=st.floats(min_value=1.0, max_value=14.0),
               chi=st.floats(min_value=-13.0, max_value=13.0),
               n_t_max=st.sampled_from((8190, 2616, 8200, 63 * 1024, N_T_MAX_LIMIT,
                                        N_T_MAX_LIMIT - 1, 1000, 200, 63)),
               n_s=st.integers(min_value=1, max_value=64),
               in_band=st.sampled_from((True, True, True, False)),
               u=st.floats(min_value=0.0, max_value=1.0),
               log_r0=st.floats(min_value=2.0, max_value=6.0))
        def check(variant, scales, distance, chi, n_t_max, n_s, in_band, u, log_r0):
            base = EnergyParams()
            ep = EnergyParams(**{k: getattr(base, k) * 10 ** e
                                 for k, e in zip(self.POWERS, scales)})
            env = LinkModel(energy=ep, **variant).env(distance, chi)
            cfg = SolverConfig(n_t_max=n_t_max)
            r0 = 10 ** log_r0
            _, (etas,), (rates,) = block_layer.grid(columns((env,)), n_t_max)
            los, his = rates[np.arange(len(env)), np.argmax(etas, axis=1)], rates.max(axis=1)
            banded = [m for m in np.argsort(-etas.max(axis=1), kind="stable") if los[m] < his[m]]
            if in_band and banded:
                r0 = float(los[banded[0]] + u * (his[banded[0]] - los[banded[0]])) / n_s
            qos = QosSpec(r0=r0, n_s=n_s)
            res, pruned = solve_env_pruned(env, qos, cfg)
            oracle = search_env(env, qos, cfg)
            assert (res.n_t_star, res.n_cpb_star, res.eta, res.feasible) == \
                (oracle.n_t_star, oracle.n_cpb_star, oracle.eta, oracle.feasible)
            counts[res.branch] += 1
            counts["pruned"] += pruned

        check()
        pruned = counts.pop("pruned")
        assert min(counts.values()) >= 25 and pruned >= 1000, (counts, pruned)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: nt_closed_form's "
                       "sqrt(half * half - n * fixed / denom) - half cancels for a huge "
                       "start-up time, and half * half overflows at 1e150")
    def test_cloee_equals_oracle_at_huge_start_up_times(self):
        # Outside the property's 10**[-2, 2] scales.  At 4e12 and 1e13 s
        # cloee picks (504, 32) against the oracle's (441, 32), 0.9835 of its
        # eta; at 1e150 s a dual at (5418, 32), 8.7e-5 of it.
        qos, cfg = QosSpec(r0=1.0, n_s=1), SolverConfig(n_t_max=8190)
        picks = []
        for t_st in (4e12, 1e13, 1e150):
            model = LinkModel(energy=EnergyParams(t_st=t_st))
            picks.append([(res.n_t_star, res.n_cpb_star, res.eta)
                          for res in (cloee(model, 7.0, qos, cfg),
                                      exhaustive_search(model, 7.0, qos, cfg))])
        assert all(res == oracle for res, oracle in picks), picks


class TestExhaustiveSearch:
    def test_tiny_ceiling_hand_checkable(self, model, qos):
        cfg = SolverConfig(n_t_max=126)
        res = exhaustive_search(model, 5.0, qos, cfg)
        best = None
        for mm in model.env(5.0):
            for n_t in (63, 126):
                eta, rate = mm.eta(n_t), mm.rate(n_t)
                feasible = rate >= qos.aggregate_rate
                key = (feasible, eta)
                if best is None or key > best[0]:
                    best = (key, n_t, mm.mode.n_cpb)
        assert (res.n_t_star, res.n_cpb_star) == (best[1], best[2])

    def test_counts_evaluated_points(self, model, qos, cfg):
        res = exhaustive_search(model, 5.0, qos, cfg)
        assert res.iterations == 6 * (cfg.n_t_max // 63)
        assert res.branch == "exhaustive"


class TestSearchEnvMatchesReference:
    # search_env picks from one batched grid with one flat argmax; the
    # per-mode loop it replaced (helpers.reference_search_env) must give the
    # same OptResult, compared whole with ==.
    @pytest.mark.parametrize("variant", [{}, {"uniform_section_ber": True},
                                         {"integration_per_pulse": True}])
    @pytest.mark.parametrize("n_t_max", [63, 63 * 130, 63 * 4096])
    def test_default_binding_and_unreachable_targets(self, variant, n_t_max):
        model, cfg = LinkModel(**variant), SolverConfig(n_t_max=n_t_max)
        nts = _grid(None, cfg)
        rng = random.Random(n_t_max)
        seen = set()
        for d in (1.0, 3.5, 5.0, 6.5, 7.5, 9.0, 12.0):
            env = model.env(d, rng.gauss(0.0, 4.0))
            targets = [("default", QosSpec())]
            for mm in env:
                sol = solve_mode(mm, QosSpec(), cfg)
                lo, hi = mm.rate(sol.nee), mm.rate(sol.nthr)
                if lo < hi:
                    targets.append(("binding", QosSpec(r0=(lo + hi) / 2 / 24)))
            top = max(float(np.max(mm.rate(nts))) for mm in env)
            targets.append(("unreachable", QosSpec(r0=2 * top / 24)))
            for kind, qos in targets:
                res = search_env(env, qos, cfg)
                assert res == reference_search_env(env, qos, cfg), (d, kind, qos)
                if kind == "binding":
                    assert "dual" in {solve_mode(mm, qos, cfg).branch for mm in env}
                if kind == "unreachable":
                    assert not res.feasible and res.rate == top
                seen.add((kind, res.feasible))
        assert {("default", True), ("unreachable", False)} <= seen
        if n_t_max > 63:
            assert ("binding", True) in seen

    def test_identical_modes_tie_goes_to_the_first(self, model, cfg):
        # Two modes with one bit error rate, header, energy and symbol time
        # have equal eta and rate on the whole grid; the first of them in
        # environment order wins, feasible or not.
        p_b = bit_error_probs(6.5, model.energy.eps_p)[MODE_POSITION[2]]
        header = _header_success(p_b, p_b)
        energy = model.env(6.5)[1].energy
        low = mode_for(2)
        high = dataclasses.replace(mode_for(8), t_sym=low.t_sym)
        log_p_cw = block_log_success(p_b, PSDU_BLOCK)
        env = tuple(ModeMetrics(m, 6.5, log_p_cw, header, energy) for m in (low, high))
        for qos in (QosSpec(r0=1.0, n_s=1), QosSpec(r0=1e9, n_s=64)):
            res = search_env(env, qos, cfg)
            assert res == reference_search_env(env, qos, cfg)
            assert res.n_cpb_star == 2
            flipped = search_env(env[::-1], qos, cfg)
            assert flipped == reference_search_env(env[::-1], qos, cfg)
            assert flipped._replace(n_cpb_star=2) == res

    def test_equal_eta_tie_goes_to_the_smaller_n_cpb(self):
        # Error-free links at 1 J/bit with no fixed energy have eta = 1.0
        # exactly at every frame size, so every feasible point ties.  The
        # n_cpb = 2 mode is made slow: it meets the rate floor only from some
        # n_t > 63 on, while the fast n_cpb = 8 mode meets it everywhere.  The
        # tie goes to the smaller n_cpb first and the smaller n_t second, so
        # the winner is the slow mode's smallest feasible frame.
        header, energy = _header_success(0.0, 0.0), EnergyBreakdown(1.0, 0.0, 0.0)
        slow = dataclasses.replace(mode_for(2), t_sym=mode_for(32).t_sym)
        fast = dataclasses.replace(mode_for(8), t_sym=mode_for(1).t_sym)
        log_p_cw = block_log_success(0.0, PSDU_BLOCK)
        env = tuple(ModeMetrics(m, 1.0, log_p_cw, header, energy) for m in (slow, fast))
        cfg, qos = SolverConfig(n_t_max=630), QosSpec(r0=350e3, n_s=1)
        assert env[0].rate(63) < qos.aggregate_rate <= env[1].rate(63)
        res = search_env(env, qos, cfg)
        assert res == reference_search_env(env, qos, cfg)
        first_feasible = next(n for n in range(63, 631, 63) if env[0].rate(n) >= 350e3)
        assert (res.n_cpb_star, res.n_t_star, res.eta, res.feasible) == \
            (2, first_feasible, 1.0, True)


class TestSearchEnvs:
    # search_envs picks each environment's point from one grid over a block
    # of environments; every result must equal the per-mode loop's
    # (helpers.reference_search_env) on that environment alone.  The rate
    # floor is the median of the environments' best rates, so the block
    # mixes feasible environments with ones that fall back to the best rate.
    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    @pytest.mark.parametrize("n_t_max", [63, 63 * 130])
    def test_block_equals_per_environment_reference(self, variant, n_t_max):
        model, cfg = LinkModel(**variant), SolverConfig(n_t_max=n_t_max)
        rng = random.Random(n_t_max)
        envs = [model.env(float(d), rng.gauss(0.0, 4.0)) for d in range(1, 15)]
        nts = _grid(None, cfg)
        tops = sorted(max(float(np.max(mm.rate(nts))) for mm in env) for env in envs)
        qos = QosSpec(r0=tops[len(tops) // 2] / 24)
        for block in (envs, envs[::-1]):
            res = search_envs(columns(block), qos, cfg)
            assert res == [reference_search_env(env, qos, cfg) for env in block]
            assert {r.feasible for r in res} == {True, False}


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_t_max=62), dict(n_t_max=0), dict(n_t_max=-63),
        dict(n_t_max=8190.0), dict(n_t_max="8190"), dict(n_t_max=None),
        dict(n_t_max=63 * 4096 + 1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_largest_ceiling_accepted(self, model, qos):
        cfg = SolverConfig(n_t_max=63 * 4096)
        assert exhaustive_search(model, 5.0, qos, cfg).iterations == 6 * 4096


class TestMonotoneRelations:
    # ROADMAP item 19's rate-floor and grid-growth relations on cloee itself,
    # all three model variants, seeded.  A higher floor only shrinks the
    # feasible set, so eta* never rises with it and feasibility, once lost,
    # never returns; where no mode is feasible the answer is the rate peak,
    # which no floor moves.  A higher n_t_max only adds codeword multiples, so
    # a feasible solve stays feasible and its eta* never falls (an infeasible
    # one falls back to the best rate, whose eta is no optimum, and a larger
    # grid may reach a higher rate at a lower eta).
    # Per environment, six aggregate floors are drawn from 10**[3, 7.3] b/s
    # and six inside the dual bands read off its grid at the default n_t_max
    # (from a mode's rate at its grid eta argmax to its rate peak).
    GRIDS = (63, 630, 1000, 8190, 8200, 63 * 1024, N_T_MAX_LIMIT)

    def test_eta_star_falls_with_the_floor_and_rises_with_the_grid(self):
        rng, seen = random.Random(19), collections.Counter()
        for variant in MODEL_VARIANTS:
            model = LinkModel(**variant)
            for _ in range(30):
                env = model.env(rng.uniform(0.5, 14.0), rng.gauss(0.0, 4.0))
                _, (etas,), (rates,) = block_layer.grid(columns((env,)), 8190)
                los, his = rates[np.arange(len(env)), np.argmax(etas, axis=1)], rates.max(axis=1)
                bands = [(lo, hi) for lo, hi in zip(los.tolist(), his.tolist()) if lo < hi]
                floors = [10 ** rng.uniform(3.0, 7.3) for _ in range(6)]
                if bands:
                    floors += [rng.uniform(*rng.choice(bands)) for _ in range(6)]
                floors.sort()
                table = [[solve_env(env, QosSpec(r0=floor, n_s=1), SolverConfig(n_t_max=n_t_max))
                          for floor in floors] for n_t_max in self.GRIDS]
                for by_floor in table:
                    for low, high in zip(by_floor, by_floor[1:]):
                        assert high.eta <= low.eta and high.feasible <= low.feasible, (low, high)
                        seen[high.branch] += 1
                for small_grid, large_grid in zip(table, table[1:]):
                    for small, large in zip(small_grid, large_grid):
                        assert small.feasible <= large.feasible, (small, large)
                        if small.feasible:
                            assert large.eta >= small.eta, (small, large)
                            seen["grid pairs, feasible"] += 1
        assert min(seen.values()) >= 50, seen


class TestDistanceRelations:
    # ROADMAP item 19's distance relations on cloee, through its block pass
    # solve_envs (repr-equal to solve_env: TestSolveEnvsEqualsSolveEnv), on
    # the three model variants at 10, 130 and 4,096 codewords, seeded.
    GRIDS = (10 * 63, 130 * 63, 4096 * 63)
    # Farther away every grid cell's eta and rate fall.  So a feasible solve's
    # eta* never rises, feasibility once lost never returns, and an
    # infeasible solve's rate (the rate peak) never rises; its eta is no
    # optimum, and a switch of the peak's mode can raise it.
    # Under uniform_section_ber the Kasami (63, 6) and PHR (40, 2) blocks run
    # at the payload's p_b, and where their exact success is 1 - 1e-60..1e-18
    # block_success's direct sum (reliability._direct, s = s + term from
    # T_0) lands on 1 - 2**-53 at one p_b and on 1.0 at a larger one: the
    # header success rises by up to 2**-52, and eta* by a few ulps (at most
    # 1 seen, at 1.3-1.5 m).  Without that flag no rise was seen, and none
    # is allowed.
    RISE_ULPS = 3

    @staticmethod
    def _rise_ulps(near: float, far: float) -> float:
        return (far - near) / math.ulp(near) if far > near else 0.0

    def test_eta_star_never_rises_and_feasibility_never_returns(self):
        rng, seen = random.Random(44), collections.Counter()
        for variant in MODEL_VARIANTS:
            model = LinkModel(**variant)
            allowed = self.RISE_ULPS if model.uniform_section_ber else 0.0
            distances = sorted(rng.uniform(0.2, 16.0) for _ in range(1000))
            cols = block_layer.link_block(model, [(d, 0.0) for d in distances])
            for qos in (QosSpec(), QosSpec(r0=10 ** rng.uniform(3.0, 5.0))):
                for n_t_max in self.GRIDS:
                    results = solve_envs(cols, qos, SolverConfig(n_t_max=n_t_max))
                    for d, near, far in zip(distances[1:], results, results[1:]):
                        assert far.feasible <= near.feasible, (variant, n_t_max, d, near, far)
                        if far.feasible:
                            rise = self._rise_ulps(near.eta, far.eta)
                            seen["feasible pairs"] += 1
                        else:
                            rise = self._rise_ulps(near.rate, far.rate)
                            seen["infeasible pairs"] += 1
                            seen["losses"] += near.feasible
                        assert rise <= allowed, (variant, n_t_max, d, near, far)
                        seen[far.branch] += 1
        assert min(seen["feasible pairs"], seen["infeasible pairs"]) >= 1000, seen
        assert seen["losses"] == len(MODEL_VARIANTS) * 2 * len(self.GRIDS), seen
        assert seen["dual"] >= 20, seen

    @staticmethod
    def _near_tie(cols, e: int, qos: QosSpec, n_t_max: int) -> bool:
        """Whether environment e's oracle grid has its top two cells (by eta
        among the feasible ones, else by rate) within 1e-12 relative, or a
        cell's rate within 1e-12 of the floor."""
        _, (etas,), (rates,) = block_layer.grid(cols.part(e, e + 1), n_t_max)
        floor = qos.aggregate_rate
        feasible = rates >= floor
        top = np.sort(etas[feasible] if feasible.any() else rates.ravel())[-2:]
        return bool(top.size == 2 and top[1] - top[0] <= 1e-12 * top[1]
                    or (np.abs(rates - floor) <= 1e-12 * floor).any())

    def test_shadowing_is_distance(self):
        # The path loss reads d and chi only as a * log10(d_mm) + chi, so
        # (d, chi) and (d * 10**(chi / a), 0) are one link up to the rounding
        # of the moved distance, and cloee decides them alike but where the
        # oracle's grid is within 1e-12 of a tie or of the floor.
        rng, seen = random.Random(45), collections.Counter()
        for variant in MODEL_VARIANTS:
            model = LinkModel(**variant)
            points = [(rng.uniform(0.3, 15.0), rng.gauss(0.0, 6.0)) for _ in range(300)]
            shadowed = block_layer.link_block(model, points)
            moved = block_layer.link_block(
                model, [(d * 10 ** (chi / model.channel.a), 0.0) for d, chi in points])
            for qos in (QosSpec(), QosSpec(r0=10 ** rng.uniform(3.0, 5.0))):
                for n_t_max in self.GRIDS:
                    cfg = SolverConfig(n_t_max=n_t_max)
                    for e, (a, b) in enumerate(zip(solve_envs(shadowed, qos, cfg),
                                                   solve_envs(moved, qos, cfg))):
                        decision = a.n_cpb_star, a.n_t_star, a.feasible, a.branch
                        if decision != (b.n_cpb_star, b.n_t_star, b.feasible, b.branch):
                            assert self._near_tie(shadowed, e, qos, n_t_max), (
                                variant, n_t_max, qos, points[e], a, b)
                            seen["near a tie"] += 1
                        seen[a.branch] += 1
        assert seen["near a tie"] <= 0.01 * sum(seen.values()), seen
        assert min(seen["unconstrained"], seen["throughput-fallback"]) >= 1000, seen
        assert seen["dual"] >= 5, seen


class TestOneEvaluator:
    # A static strategy placed at cloee's or the oracle's (n_cpb, n_t) is read
    # by the same evaluator (Columns.eta_rate, ppdu_success of the block's
    # floats and rate >= r0 * n_s), so it gets their eta, rate, p_ppdu and
    # feasible bit for bit (ROADMAP item 19).

    def test_static_at_the_chosen_points_of_hospital_sweeps(self):
        rows = 0
        for variant in MODEL_VARIANTS:
            for seed in (1, 2, 3):
                sc = dataclasses.replace(load_scenario(HOSPITAL_CONF), seed=seed, **variant)
                chosen = [r for r in run_sweep(sc) if r.strategy in ("cloee", "oracle")]
                placed = dataclasses.replace(
                    sc, strategies=tuple(sorted({(r.n_cpb, r.n_t) for r in chosen})))
                statics = {(r.distance, r.n_cpb, r.n_t): r for r in run_sweep(placed)
                           if r.branch == "static"}
                for r in chosen:
                    static = statics[r.distance, r.n_cpb, r.n_t]
                    # eta, rate, p_ppdu, feasible
                    assert repr(static[4:8]) == repr(r[4:8]), (variant, seed, r)
                rows += len(chosen)
        assert rows == len(MODEL_VARIANTS) * 3 * 91 * 2

    def test_static_at_cloees_point_on_binding_rows(self):
        # The binding rows reach the dual branch, which the sweeps almost
        # never do: one link_block per model variant and grid size, read at
        # each row's cloee() point.
        lines = BINDING_CSV.read_text().splitlines()[1:257]
        rows = [(float(d), float(chi), QosSpec(r0=float(r0), n_s=int(n_s)))
                for d, chi, r0, n_s in (line.split(",") for line in lines)]
        own = np.arange(len(rows))
        branches = collections.Counter()
        for variant in MODEL_VARIANTS:
            model = LinkModel(**variant)
            envs = [model.env(d, chi) for d, chi, _ in rows]
            cols = block_layer.link_block(model, [(d, chi) for d, chi, _ in rows])
            for n_t_max in (63, 8190, 63 * 4096):
                cfg = SolverConfig(n_t_max=n_t_max)
                results = [cloee(model, d, qos, cfg, chi) for d, chi, qos in rows]
                positions = [MODE_POSITION[res.n_cpb_star] for res in results]
                etas, rates = (a[own, positions, own].tolist() for a in
                               cols.eta_rate(np.array([res.n_t_star for res in results])))
                for e, ((_, _, qos), res, m, eta, rate) in enumerate(
                        zip(rows, results, positions, etas, rates)):
                    p_ppdu = metrics.ppdu_success(cols.header_success.item(e, m, 0),
                                                  cols.log_p_cw.item(e, m, 0), res.n_t_star)
                    assert repr((eta, rate, p_ppdu, rate >= qos.aggregate_rate)) == repr(
                        (res.eta, res.rate, success(envs[e][m], res.n_t_star), res.feasible)), \
                        (variant, n_t_max, e, res)
                    branches[res.branch] += 1
        assert sum(branches.values()) == len(MODEL_VARIANTS) * 3 * len(rows)
        assert branches["dual"] >= len(rows), branches
