import collections
import copy
import dataclasses
import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

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
    HeaderSuccess,
    LinkModel,
    ModeMetrics,
    QosSpec,
    Scenario,
    SolverConfig,
    cloee,
    energy_breakdown,
    exhaustive_search,
    load_scenario,
    nt_closed_form,
    rows_to_csv,
    run_sweep,
    snap_to_grid,
    solve_mode,
)
from cloee import channel, metrics, optimizer, sweep
from cloee.metrics import columns
from cloee.optimizer import N_T_MAX_LIMIT, search_envs, solve_env, solve_envs
from helpers import (BINDING_CSV, MODEL_VARIANTS, binding_envs, grid_argmax, metrics_at,
                     mode_for, reference_search_env, reference_snap, reference_solve_env,
                     reference_sweep, search_env, single_pb_metrics, solve_env_pruned)


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
        nts, etas, rates = metrics.grid(columns(envs), sc.solver.n_t_max)
        for env, env_etas, env_rates in zip(envs, etas, rates):
            for mm, eta_row, rate_row in zip(env, env_etas, env_rates):
                assert eta_row.tolist() == [mm.eta(n) for n in nts.tolist()]
                assert rate_row.tolist() == [mm.rate(n) for n in nts.tolist()]
                cells += eta_row.size
        assert rows_to_csv(run_sweep(sc)) == rows_to_csv(reference_sweep(sc))
    return cells


def _grid(mm, cfg):
    return np.arange(1, cfg.n_t_max // 63 + 1, dtype=float) * 63


def _assert_dual_certificate(sol, r0ns, cfg):
    # The dual branch's answer and its optimality certificate (lambda_, kkt_rate).
    assert sol.lambda_ >= 0.0
    assert sol.iterations <= (cfg.n_t_max // 63).bit_length()
    assert sol.feasible
    assert sol.rate >= r0ns * (1 - 1e-6)
    assert sol.kkt_rate >= r0ns * (1 - 1e-6)
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
            nee = snap_to_grid(nt_closed_form(mm.energy.eps_b, mm.energy.eps_fixed, mm.log_p_cw),
                               mm.eta, n_t_max=cfg.n_t_max)[0]
            assert abs(nee - grid_argmax(mm.eta(nts), nts)) <= 63
            nthr = snap_to_grid(nt_closed_form(mm.t_sym, mm.t_oh, mm.log_p_cw),
                                mm.rate, n_t_max=cfg.n_t_max)[0]
            assert abs(nthr - grid_argmax(mm.rate(nts), nts)) <= 63


class TestSnapToGrid:
    def test_clamps_into_range(self):
        assert snap_to_grid(math.inf, lambda n: 0.0, n_t_max=630)[0] == 630
        assert snap_to_grid(1.0, lambda n: -n, n_t_max=630)[0] == 63

    def test_keeps_better_neighbor(self):
        assert snap_to_grid(100.0, lambda n: -abs(n - 126), n_t_max=8190)[0] == 126
        assert snap_to_grid(100.0, lambda n: -abs(n - 63), n_t_max=8190)[0] == 63

    def test_tie_prefers_smaller(self):
        assert snap_to_grid(94.5, lambda n: 0.0, n_t_max=8190)[0] == 63

    def test_returns_the_objective_at_the_snap(self):
        assert snap_to_grid(100.0, lambda n: -abs(n - 126), n_t_max=8190) == (126, 0)
        assert snap_to_grid(math.inf, float, n_t_max=630) == (630, 630.0)
        assert snap_to_grid(10.0, float, n_t_max=63) == (63, 63.0)

    @staticmethod
    def _both_snaps(mm, cfg):
        for per_unit, fixed, objective in ((mm.energy.eps_b, mm.energy.eps_fixed, mm.eta),
                                           (mm.t_sym, mm.t_oh, mm.rate)):
            x = nt_closed_form(per_unit, fixed, mm.log_p_cw)
            yield (snap_to_grid(x, objective, cfg.n_t_max),
                   reference_snap(x, objective, PSDU_CODE.n, cfg.n_t_max), objective)

    def test_matches_three_candidate_reference_on_binding_inputs(self):
        # The (k-1)*63 candidate the reference also tries never wins.
        cfgs = [SolverConfig(n_t_max=n) for n in (63, 8190, 63 * 4096)]
        checked = 0
        for env, _ in binding_envs():
            for mm in env:
                for cfg in cfgs:
                    for (n_t, value), ref, objective in self._both_snaps(mm, cfg):
                        assert n_t == ref and value == objective(n_t)
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
                for (n_t, value), ref, objective in self._both_snaps(mm, cfg):
                    assert n_t == ref and value == objective(n_t)


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
                        _assert_dual_certificate(sol, qos.aggregate_rate, cfg)
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
                        _assert_dual_certificate(sol, rate, cfg)
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
                    assert sol.iterations <= (cfg.n_t_max // 63).bit_length()
            res = cloee(model, d, qos, cfg, chi)
            oracle = exhaustive_search(model, d, qos, cfg, chi)
            assert (res.n_t_star, res.n_cpb_star, res.eta, res.rate, res.feasible) == \
                (oracle.n_t_star, oracle.n_cpb_star, oracle.eta, oracle.rate, oracle.feasible), \
                f"d={d!r}, chi={chi!r}, n_t_max={cfg.n_t_max}, r0={qos.r0!r}, n_s={n_s}"
        assert duals >= 200, f"{duals} dual solves in {rows} binding rows"

    def test_dual_branch_left_of_throughput_optimum_matches_oracle(self):
        # Pulse energy only, headers at one pulse per bit: overhead is cheap
        # in energy but not in time, so the efficiency optimum can sit left of
        # the throughput optimum and the dual bisection runs rightwards.  The
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
            p_b = [mm.p_b for mm in model.env(d)]
            header = HeaderSuccess.at(p_b[0], p_b[0])
            env = tuple(ModeMetrics(m, d, p, header,
                                    EnergyBreakdown(energy_breakdown(m, ep).eps_b, eps_oh, 0.0))
                        for m, p in zip(MODE_TABLE, p_b))
            for mm in env:
                etas, rates = mm.eta(nts), mm.rate(nts)
                i_eta, i_rate = int(np.argmax(etas)), int(np.argmax(rates))
                if i_eta >= i_rate:
                    continue
                # Exact floors, each grid rate strictly between the argmaxes:
                # the certificate's bisection runs leftwards from n_star.
                for rate in rates[i_eta + 1:i_rate].tolist():
                    sol = solve_mode(mm, QosSpec(r0=rate, n_s=1), cfg)
                    assert sol.branch == "dual"
                    _assert_dual_certificate(sol, rate, cfg)
                    exact += 1
                lo, hi = float(rates[i_eta]), float(rates[i_rate])
                n_s = rng.randint(1, 64)
                qos = QosSpec(r0=(lo + rng.uniform(0.02, 0.98) * (hi - lo)) / n_s, n_s=n_s)
                if not lo < qos.aggregate_rate < hi:
                    continue
                cases += 1
                sol = solve_mode(mm, qos, cfg)
                assert sol.branch == "dual" and sol.nee < sol.nthr
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
        builds, calls, losses = [], [], []
        init = ModeMetrics.__init__
        probs, prob = metrics.bit_error_probs, channel._bit_error

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            builds.append(self.distance)

        def counting_probs(d, *args, **kwargs):
            losses.append(d)
            return probs(d, *args, **kwargs)

        def counting_prob(*args):
            calls.append(losses[-1])
            return prob(*args)

        monkeypatch.setattr(ModeMetrics, "__init__", counting_init)
        monkeypatch.setattr(metrics, "bit_error_probs", counting_probs)
        monkeypatch.setattr(channel, "_bit_error", counting_prob)
        distances = (2.0, 6.5, 8.4)
        run_sweep(Scenario(distances=distances, shadowing=True, seed=3,
                           uniform_section_ber=uniform))
        # Six modes and six bit error rates per distance; with section-specific
        # rates the header reuses the payload rates of modes 4 and 32.  The
        # path loss is taken once per distance, in its one bit_error_probs call.
        assert builds == [d for d in distances for _ in range(6)]
        assert sorted(calls) == [d for d in distances for _ in range(bit_errors)]
        assert losses == list(distances)

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
    ])
    def test_csv_equals_per_distance_loop(self, variant, n_t_max, count, strategies):
        distances, statics = [round(1.0 + 0.15 * i, 9) for i in range(count)], {}
        if strategies:
            random.Random(25).shuffle(distances)
            statics = {"strategies": strategies}
        sc = Scenario(solver=SolverConfig(n_t_max=n_t_max), shadowing=True, seed=11,
                      distances=tuple(distances), **statics, **variant)
        assert rows_to_csv(run_sweep(sc)) == rows_to_csv(reference_sweep(sc))

    @pytest.mark.parametrize("n_t_max,calls", [
        (63, 1), (63 * 100 + 5, 3), (63 * 130, 3), (63 * 1024, 23), (63 * 4096, 91),
    ])
    def test_grid_calls_stay_within_one_largest_grid(self, monkeypatch, n_t_max, calls):
        # The 91-distance hospital sweep (default QoS, shadowing on, seed 1)
        # comes in blocks of N_T_MAX_LIMIT // n_t_max distances: 31, 31 and 29
        # at the default 8190.
        cells = []
        grid = optimizer.grid

        def counting_grid(cols, n):
            out = grid(cols, n)
            cells.append(out[1].size)
            return out

        monkeypatch.setattr(optimizer, "grid", counting_grid)
        sc = Scenario(solver=SolverConfig(n_t_max=n_t_max), shadowing=True, seed=1)
        run_sweep(sc)
        assert len(cells) == calls
        assert max(cells) <= len(MODE_TABLE) * (N_T_MAX_LIMIT // 63)
        assert sum(cells) == len(sc.distances) * len(MODE_TABLE) * (n_t_max // 63)

    def test_sweep_solves_no_environment_with_scalar_calls(self, monkeypatch):
        # run_sweep reads cloee, the oracle and the static rows off each
        # block's arrays: outside a dual solve (_dual, the one scalar stage
        # of the block pass) no scalar solve, snap or eta/rate call runs.
        calls, in_dual = [], [False]
        dual = optimizer._dual

        def flagged_dual(*args):
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

        monkeypatch.setattr(optimizer, "_dual", flagged_dual)
        for module in (optimizer, sweep):
            for name in ("solve_env", "snap_to_grid"):
                if hasattr(module, name):
                    watch(module, name)
        for name in ("eta", "rate", "eta_rate"):
            watch(ModeMetrics, name)
        # Each row's p_ppdu is one scalar success call, and nothing else calls it.
        successes = []
        success = ModeMetrics.success

        def counted_success(self, n_t):
            successes.append(n_t)
            return success(self, n_t)

        monkeypatch.setattr(ModeMetrics, "success", counted_success)
        rows = run_sweep(dataclasses.replace(load_scenario(HOSPITAL_CONF), seed=1))
        assert len(rows) == 91 * 7 and calls == []
        assert len(successes) == len(rows)


    def test_search_envs_peak_stays_under_three_block_arrays(self):
        # The first block of the hospital sweep: 31 distances at n_t_max
        # 8190.  numpy reports its buffers to tracemalloc, so the peak is a
        # count of block arrays.  It is reached in metrics._delivered: the
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
            _, (etas,), (rates,) = metrics.grid(columns((env,)), n_t_max)
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
        p_b = metrics_at(model, 6.5, 2).p_b
        header = HeaderSuccess.at(p_b, p_b)
        energy = model.env(6.5)[1].energy
        low = mode_for(2)
        high = dataclasses.replace(mode_for(8), t_sym=low.t_sym)
        env = tuple(ModeMetrics(m, 6.5, p_b, header, energy) for m in (low, high))
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
        header, energy = HeaderSuccess.at(0.0, 0.0), EnergyBreakdown(1.0, 0.0, 0.0)
        slow = dataclasses.replace(mode_for(2), t_sym=mode_for(32).t_sym)
        fast = dataclasses.replace(mode_for(8), t_sym=mode_for(1).t_sym)
        env = tuple(ModeMetrics(m, 1.0, 0.0, header, energy) for m in (slow, fast))
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
