"""End-to-end acceptance suite: one test per criterion, each at its pinned
tolerance, printing a status line (visible with `pytest -rA -s`).

Known red: the link-adaptation range bands in test_c6b_feasible_range_bands.
With the literal detector model (quadratic burst time-bandwidth noise term
and the 15 dB noise-figure + implementation-margin budget), rate feasibility
ends near 6.8 m and the range extension over the static (2, 2616) strategy is
~1.45x; the banded targets (7.3..10.3 m and >= 1.5x) sit just outside what
that model can produce.  The assert states the bands as given; the message
carries the measured values.
"""

import math

import numpy as np
import pytest

from cloee import (
    MODE_TABLE,
    PSDU_CODE,
    EnergyParams,
    LinkModel,
    QosSpec,
    Scenario,
    nt_closed_form,
    run_sweep,
    rows_to_csv,
    solve_mode,
)
from cloee.optimizer import clamp_to_span, snap_to_grid
from helpers import grid_argmax, is_unimodal_max, metrics_at, single_pb_metrics, success

N_DRAWS = 200
DRAW_SEED = 20250808
MC_SEED = 424242


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    return Scenario()


@pytest.fixture(scope="module")
def sweep_rows(scenario):
    return run_sweep(scenario)


@pytest.fixture(scope="module")
def cloee_rows(sweep_rows):
    return sorted((r for r in sweep_rows if r.strategy == "cloee"),
                  key=lambda r: r.distance)


def _random_draws(seed: int = DRAW_SEED, count: int = N_DRAWS):
    """Randomized (distance, mode, energy-parameter) draws, seeded."""
    rng = np.random.default_rng(seed)
    base = EnergyParams()
    for _ in range(count):
        factors = 10.0 ** rng.uniform(-0.3, 0.3, size=8)
        energy = EnergyParams(
            eps_p=base.eps_p * 10.0 ** rng.uniform(-0.5, 0.5),
            p_cor=base.p_cor * factors[0],
            p_adc=base.p_adc * factors[1],
            p_lna=base.p_lna * factors[2],
            p_vga=base.p_vga * factors[3],
            p_syn=base.p_syn * factors[4],
            p_gen=base.p_gen * factors[5],
            t_st=base.t_st * float(rng.uniform(0.5, 2.0)),
        )
        model = LinkModel(energy=energy)
        distance = float(rng.uniform(1.0, 10.0))
        mode = MODE_TABLE[int(rng.integers(0, 6))]
        yield metrics_at(model, distance, mode.n_cpb)


def test_c1_mode_table_reproduction():
    printed = {1: 12.636, 2: 6.318, 4: 3.159, 8: 1.580, 16: 0.790, 32: 0.395}
    worst_abs = 0.0
    worst_rel = 0.0
    for mode in MODE_TABLE:
        coded_mbps = mode.rate_coded / 1e6
        worst_abs = max(worst_abs, abs(coded_mbps - printed[mode.n_cpb]))
        implied = mode.rate_uncoded * 51 / 63
        worst_rel = max(worst_rel, abs(mode.rate_coded - implied) / mode.rate_coded)
    ok = worst_abs <= 1e-3 and worst_rel <= 1e-3
    _report("C1 rate-table reproduction", ok,
            f"max |coded - printed| = {worst_abs:.2e} Mbps (tol 1e-3), "
            f"max |coded - uncoded*51/63| / coded = {worst_rel:.2e} (tol 1e-3)")
    assert worst_abs <= 1e-3
    assert worst_rel <= 1e-3


def test_c2_solver_equals_oracle_on_grid(scenario, sweep_rows):
    assert len(sweep_rows) == 91 * (len(scenario.strategies) + 2)
    by_distance = {}
    for r in sweep_rows:
        if r.strategy in ("cloee", "oracle"):
            by_distance.setdefault(r.distance, {})[r.strategy] = r
    assert len(by_distance) == 91
    worst = 0.0
    for d, pair in by_distance.items():
        a, b = pair["cloee"], pair["oracle"]
        rel = abs(a.eta - b.eta) / max(abs(b.eta), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-9
    _report("C2 solver = oracle over 1..10 m", ok,
            f"max relative efficiency gap = {worst:.2e} (tol 1e-9) at 91 distances")
    assert worst <= 1e-9


def test_c3_closed_forms_match_brute_force():
    nts = np.arange(1, 131, dtype=float) * 63
    checked_stationarity = 0
    for mm in _random_draws():
        nee_cont = nt_closed_form(mm.energy.eps_b, mm.energy.eps_fixed, mm.log_p_cw)
        nee = snap_to_grid(mm, clamp_to_span(nee_cont, 63 * 130), 63 * 130, 0)[0]
        assert abs(nee - grid_argmax(mm.eta(nts), nts)) <= 63
        nthr_cont = nt_closed_form(mm.t_sym, mm.t_oh, mm.log_p_cw)
        nthr = snap_to_grid(mm, clamp_to_span(nthr_cont, 63 * 130), 63 * 130, 1)[0]
        assert abs(nthr - grid_argmax(mm.rate(nts), nts)) <= 63

        c = mm.log_p_cw / PSDU_CODE.n
        for x, per_unit, fixed in ((nee_cont, mm.energy.eps_b, mm.energy.eps_fixed),
                                   (nthr_cont, mm.t_sym, mm.t_oh)):
            if not (63.0 < x < 8190.0) or not math.isfinite(x):
                continue
            terms = (c * x * x * per_unit, c * x * fixed, fixed)
            residual = abs(sum(terms)) / sum(abs(t) for t in terms)
            assert residual < 1e-6
            checked_stationarity += 1
    _report("C3 closed-form optima", True,
            f"{N_DRAWS} draws within one 63-bit step of brute force; "
            f"{checked_stationarity} interior stationarity residuals < 1e-6")


def test_c4_quasiconcavity_over_frame_grid():
    nts = np.arange(1, 131, dtype=float) * 63
    for mm in _random_draws():
        assert is_unimodal_max(mm.eta(nts)), \
            f"efficiency not unimodal at d={mm.distance:.3f}, n_cpb={mm.mode.n_cpb}"
        assert is_unimodal_max(mm.rate(nts)), \
            f"throughput not unimodal at d={mm.distance:.3f}, n_cpb={mm.mode.n_cpb}"
    _report("C4 quasiconcavity", True,
            f"{N_DRAWS} draws: efficiency/throughput first differences change sign "
            "at most once (+ to -)")


def test_c5_dual_branch_kkt(cfg):
    model = LinkModel()
    duals = 0
    worst_slack = 0.0
    for scale in np.geomspace(0.3, 3.0, 25):
        qos = QosSpec(r0=15e3 * float(scale))
        r0ns = qos.aggregate_rate
        for d in np.arange(4.6, 7.41, 0.2):
            for mm in model.env(float(d)):
                sol = solve_mode(mm, qos, cfg)
                if sol.branch == "unconstrained":
                    assert sol.lambda_ == 0.0
                if sol.branch != "dual":
                    continue
                duals += 1
                assert sol.lambda_ >= 0.0
                assert sol.rate >= r0ns * (1 - 1e-6)
                assert sol.kkt_rate >= r0ns * (1 - 1e-6)
                slack = abs(sol.lambda_ * (sol.kkt_rate - r0ns))
                worst_slack = max(worst_slack, slack / r0ns)
                assert slack <= 1e-6 * r0ns
    assert duals >= 8
    _report("C5 KKT / complementary slackness", True,
            f"{duals} dual-branch solves, max |lambda*(R - R0*Ns)| / (R0*Ns) "
            f"= {worst_slack:.2e} (tol 1e-6)")


def test_c6a_burst_order_crossover(cloee_rows):
    d_star = None
    for i, row in enumerate(cloee_rows):
        if row.n_cpb == 32 and all(r.n_cpb == 32 for r in cloee_rows[i:]):
            d_star = row.distance
            break
    ok = d_star is not None and 6.0 <= d_star <= 9.0
    _report("C6a burst-order crossover", ok,
            f"n_cpb* reaches 32 at d* = {d_star} m and stays (band 6..9 m)")
    assert d_star is not None
    assert 6.0 <= d_star <= 9.0


def test_c6b_feasible_range_bands(sweep_rows, cloee_rows):
    d_max = max((r.distance for r in cloee_rows if r.feasible), default=None)
    static2 = [r for r in sweep_rows if r.strategy == "static_2_2616"]
    d_static = max((r.distance for r in static2 if r.feasible), default=None)
    ratio = (d_max / d_static) if (d_max and d_static) else float("nan")
    ok = d_max is not None and 7.3 <= d_max <= 10.3 and ratio >= 1.5
    _report("C6b feasible range", ok,
            f"d_max = {d_max} m (band 7.3..10.3), static(2,2616) limit = {d_static} m, "
            f"extension ratio = {ratio:.3f} (>= 1.5)")
    assert d_max is not None and d_static is not None
    assert 7.3 <= d_max <= 10.3, (
        f"rate feasibility ends at {d_max} m; the banded target is 7.3..10.3 m "
        "(literal detector model is ~0.5 dB short of the band)")
    assert ratio >= 1.5, (
        f"range extension over static (2,2616) is {ratio:.3f}x; target >= 1.5x "
        "(the quadratic burst noise term caps the achievable ratio near 1.45x)")


def test_c6c_short_range_efficiency_gain(sweep_rows, cloee_rows):
    eta_cloee = next(r.eta for r in cloee_rows if r.distance == 1.0)
    eta_static = next(r.eta for r in sweep_rows
                      if r.strategy == "static_32_2616" and r.distance == 1.0)
    ratio = eta_cloee / eta_static
    ok = ratio >= 5.0
    _report("C6c short-range efficiency gain", ok,
            f"eta(cloee)/eta(static 32,2616) at 1 m = {ratio:.2f} (>= 5)")
    assert ratio >= 5.0


def _simulate_ppdu(rng, p_b: float, n_t: int, n_frames: int = 1_000_000,
                   chunk: int = 250_000) -> float:
    """Monte Carlo bit-flip frame simulator, independent of the analytic path.

    Per frame: five 63-bit Kasami sequences (preamble succeeds when any of the
    first four is detected with <= 6 bit errors, the fifth is the SFD), the
    40-bit header block (<= 2 errors) and ceil(n_t/63) codewords (<= 2 errors
    each).  Bit errors are i.i.d., so each block's error count is binomial.
    """
    n_cw = -(-n_t // 63)
    ok = 0
    for start in range(0, n_frames, chunk):
        m = min(chunk, n_frames - start)
        kasami = rng.binomial(63, p_b, size=(m, 5))
        phr = rng.binomial(40, p_b, size=m)
        codewords = rng.binomial(63, p_b, size=(m, n_cw))
        good = ((kasami[:, :4] <= 6).any(axis=1)
                & (kasami[:, 4] <= 6)
                & (phr <= 2)
                & (codewords <= 2).all(axis=1))
        ok += int(good.sum())
    return ok / n_frames


def test_c7_reliability_against_monte_carlo():
    rng = np.random.default_rng(MC_SEED)
    n_frames = 1_000_000
    worst_z = 0.0
    for _ in range(20):
        p_b = float(10.0 ** rng.uniform(math.log10(3e-4), math.log10(0.03)))
        n_t = 63 * int(rng.integers(1, 11))
        analytic = success(single_pb_metrics(p_b), n_t)
        estimate = _simulate_ppdu(rng, p_b, n_t, n_frames)
        se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / n_frames)
        z = abs(estimate - analytic) / se
        worst_z = max(worst_z, z)
        assert z <= 3.0, (
            f"p_b={p_b:.5g}, n_t={n_t}: analytic {analytic:.6f} vs "
            f"simulated {estimate:.6f} is {z:.2f} standard errors apart")
    _report("C7 Monte Carlo reliability", True,
            f"20 points x 1e6 frames, max |z| = {worst_z:.2f} (tol 3)")


def test_c8_sweep_determinism(scenario, sweep_rows):
    first = rows_to_csv(sweep_rows).encode()
    second = rows_to_csv(run_sweep(scenario)).encode()
    ok = first == second
    _report("C8 determinism", ok,
            f"two sweep runs produce byte-identical CSV ({len(first)} bytes)")
    assert first == second
