"""Shared test utilities and reference forms, built on the package's public
API plus optimizer.solve_env, block.search_envs (and the optimizer.snap_to_grid name
that solve_env looks up), metrics._header_success, metrics.ppdu_success,
sweep's three CSV headers and svgplot's layout constants.

The reference tails take any block code (N, t) as a pair; the package's tails
take a reliability.Block, which the tests build with reliability._block."""

import math
from pathlib import Path
from unittest import mock

import numpy as np

from cloee import (
    MODE_TABLE,
    PSDU_CODE,
    LinkModel,
    ModeMetrics,
    OptResult,
    PhyMode,
    QosSpec,
    SweepRow,
    energy_breakdown,
    optimizer,
    solve_mode,
)
from cloee.block import columns, search_envs
from cloee.energy import DEFAULT_ENERGY
from cloee.metrics import _header_success, ppdu_success
from cloee.optimizer import snap_to_grid, solve_env
from cloee.reliability import PSDU_BLOCK, block_log_success
from cloee.svgplot import _H, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _PALETTE, _W, _fmt
from cloee.sweep import CSV_HEADER, CURVE_HEADER, MARKS_HEADER

# Frozen (distance, chi, r0, n_s) inputs whose rate floor binds in some mode,
# read only; they reach all three solve_mode branches.
BINDING_CSV = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "solve_binding.csv"
MODEL_VARIANTS = ({}, {"uniform_section_ber": True}, {"integration_per_pulse": True})


def mode_for(n_cpb: int) -> PhyMode:
    """The MODE_TABLE row with burst order n_cpb."""
    for mode in MODE_TABLE:
        if mode.n_cpb == n_cpb:
            return mode
    raise ValueError(f"no PHY mode with n_cpb={n_cpb}")


def single_pb_metrics(p_b: float, mode: PhyMode = mode_for(1)) -> ModeMetrics:
    """ModeMetrics with every frame section (SHR, PHR, PSDU) at one bit error
    probability; success(it, n_t) is the textbook single-p_b PPDU success."""
    return ModeMetrics(mode=mode, distance=1.0,
                       log_p_cw=block_log_success(p_b, PSDU_BLOCK),
                       header_success=_header_success(p_b, p_b),
                       energy=energy_breakdown(mode, DEFAULT_ENERGY))


def success(mm: ModeMetrics, n_t: int) -> float:
    """P(PPDU delivered) of mm at one integer frame size: ppdu_success of its
    two reliability floats."""
    return ppdu_success(mm.header_success, mm.log_p_cw, n_t)


def metrics_at(model: LinkModel, distance: float, n_cpb: int, chi: float = 0.0) -> ModeMetrics:
    """The n_cpb mode of model.env(distance, chi)."""
    return next(mm for mm in model.env(distance, chi) if mm.mode.n_cpb == n_cpb)


def reference_csv_text(header: str, rows) -> str:
    """output.csv_text's row form: header plus one line per row, each cell by
    the one cell rule (true/false, None empty, str(v) otherwise)."""
    def cell(v) -> str:
        return "true" if v is True else "false" if v is False else "" if v is None else str(v)
    return "".join(line + "\n" for line in [header, *(",".join(map(cell, row)) for row in rows)])


def reference_curve_texts(curves) -> dict[str, str]:
    """curves.csv and curve_marks.csv of sweep.compute_curves' output, written
    a row at a time by reference_csv_text."""
    curve_rows, mark_rows = [], []
    for sol, nts, etas, rates in curves:
        curve_rows += zip([sol.n_cpb_star] * len(nts), nts.tolist(), etas.tolist(), rates.tolist())
        mark_rows.append((sol.n_cpb_star, sol.nee, sol.nthr, sol.n_t_star, sol.branch,
                          sol.feasible))
    return {"curves.csv": reference_csv_text(CURVE_HEADER, curve_rows),
            "curve_marks.csv": reference_csv_text(MARKS_HEADER, mark_rows)}


def parse_rows(text: str) -> list[SweepRow]:
    """SweepRows back from a sweep CSV (the inverse of rows_to_csv)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[:1]}")
    rows = []
    for ln in lines[1:]:
        d, strategy, n_cpb, n_t, eta, rate, p_ppdu, feasible, branch = ln.split(",")
        rows.append(SweepRow(
            distance=float(d), strategy=strategy, n_cpb=int(n_cpb), n_t=int(n_t),
            eta=float(eta), rate=float(rate), p_ppdu=float(p_ppdu),
            feasible=feasible == "true", branch=branch,
        ))
    return rows


def is_unimodal_max(values, rel_tol: float = 1e-12) -> bool:
    """True when first differences go + to - at most once and never - to +."""
    diffs = np.diff(np.asarray(values, dtype=float))
    if diffs.size == 0:
        return True
    scale = float(np.max(np.abs(diffs)))
    if scale == 0.0:
        return True
    falling = False
    for d in diffs:
        if abs(d) <= rel_tol * scale:
            continue
        if d < 0:
            falling = True
        elif falling:
            return False
    return True


def grid_argmax(values, nts) -> int:
    """First-occurrence argmax over a frame-size grid."""
    values = np.asarray(values, dtype=float)
    return int(np.asarray(nts)[int(np.argmax(values))])


def search_env(env, qos, cfg) -> OptResult:
    """exhaustive_search on one environment (LinkModel.env): the package's
    block.search_envs on a block of one."""
    return search_envs(columns((env,)), qos, cfg)[0]


def reference_search_env(env, qos, cfg) -> OptResult:
    """The oracle as a per-mode loop, the reference for search_env.

    Each mode's codeword grid is scanned on its own with array eta/rate
    calls; a later mode replaces the kept point only when strictly better, so
    ties go to the smaller n_cpb, and within a mode to the smaller n_t.
    """
    r0ns = qos.aggregate_rate
    nts = np.arange(1, cfg.n_t_max // 63 + 1) * 63
    best_feas = best_rate = None   # (eta, n_t, rate, n_cpb)
    for mm in env:
        etas, rates = mm.eta(nts), mm.rate(nts)
        feas = rates >= r0ns
        if feas.any():
            i = int(np.argmax(np.where(feas, etas, -np.inf)))
            if best_feas is None or etas[i] > best_feas[0]:
                best_feas = (float(etas[i]), int(nts[i]), float(rates[i]), mm.mode.n_cpb)
        i = int(np.argmax(rates))
        if best_rate is None or rates[i] > best_rate[2]:
            best_rate = (float(etas[i]), int(nts[i]), float(rates[i]), mm.mode.n_cpb)
    (eta, n_t, rate, n_cpb), feasible = \
        (best_feas, True) if best_feas is not None else (best_rate, False)
    return OptResult(n_t, n_cpb, eta, rate, 0.0, feasible, len(nts) * len(env), "exhaustive")


def reference_sweep(scenario) -> list[SweepRow]:
    """run_sweep as one loop over the distances, the reference for its
    blocked oracle: each distance builds its environment and reads its static
    rows, one cloee solve and one oracle search (search_env) from it."""
    model, qos, cfg = scenario.link_model(), scenario.qos, scenario.solver
    rows = []
    for d, chi in zip(scenario.distances, scenario.shadowing_draws()):
        env = model.env(d, chi)
        by_cpb = {mm.mode.n_cpb: mm for mm in env}
        for n_cpb, n_t in scenario.strategies:
            mm = by_cpb[n_cpb]
            eta, rate = mm.eta_rate(n_t)
            rows.append(SweepRow(d, f"static_{n_cpb}_{n_t}", n_cpb, n_t, eta, rate,
                                 success(mm, n_t), rate >= qos.aggregate_rate, "static"))
        for strategy, solve in (("cloee", solve_env), ("oracle", search_env)):
            res = solve(env, qos, cfg)
            rows.append(SweepRow(d, strategy, res.n_cpb_star, res.n_t_star, res.eta, res.rate,
                                 success(by_cpb[res.n_cpb_star], res.n_t_star), res.feasible,
                                 res.branch))
    rows.sort(key=lambda r: (r.distance, r.strategy))
    return rows


def output_diff(old_rows, new_rows) -> tuple[dict, dict]:
    """What moved between two sweeps' rows (SweepRows, or parse_rows of their
    CSVs), for a re-pin's CHANGES.md line: ({(distance, strategy): (old, new)}
    for each row whose decision (n_cpb, n_t, feasible, branch) changed, and
    {column: the largest relative difference |new - old| / |old|} for eta,
    rate and p_ppdu (inf where a 0 moved).  Raises ValueError when the two
    lists do not have the same (distance, strategy) keys, each once."""
    old, new = ({(r.distance, r.strategy): r for r in rows} for rows in (old_rows, new_rows))
    if old.keys() != new.keys() or len(old) + len(new) != len(old_rows) + len(new_rows):
        raise ValueError("the two row lists need the same (distance, strategy) keys, each once")
    moved, worst = {}, dict.fromkeys(("eta", "rate", "p_ppdu"), 0.0)
    for key, a in old.items():
        b = new[key]
        decisions = [(r.n_cpb, r.n_t, r.feasible, r.branch) for r in (a, b)]
        if decisions[0] != decisions[1]:
            moved[key] = tuple(decisions)
        for column in worst:
            x, y = getattr(a, column), getattr(b, column)
            if x != y:
                worst[column] = max(worst[column], abs(y - x) / abs(x) if x else math.inf)
    return moved, worst


def reference_solve_env(env, qos, cfg) -> OptResult:
    """cloee as the selection over every mode's solve_mode result, the
    reference for optimizer.solve_env's eta-bound pruning: the best-eta
    feasible solve, else the best-rate one; max keeps the first of equals, so
    ties go to the earlier mode.  solve_mode is solve_env on one mode, which
    is never pruned; cloee's comparisons with the oracle and acceptance check
    C5 test its answers."""
    sols = [solve_mode(mm, qos, cfg) for mm in env]
    feasible = [sol for sol in sols if sol.feasible]
    if feasible:
        return max(feasible, key=lambda sol: sol.eta)
    return max(sols, key=lambda sol: sol.rate)


def solve_env_pruned(env, qos, cfg) -> tuple[OptResult, int]:
    """(solve_env(env, qos, cfg), the number of its modes pruned by their eta
    bound).  A visited mode's first step is its throughput snap (by=1), so
    the pruned modes are those whose rate solve_env never snapped."""
    rated = set()

    def counting_snap(mm, x, n_t_max, by):
        if by == 1:
            rated.add(id(mm))
        return snap_to_grid(mm, x, n_t_max, by)

    with mock.patch.object(optimizer, "snap_to_grid", counting_snap):
        res = solve_env(env, qos, cfg)
    return res, sum(id(mm) not in rated for mm in env)


def binding_envs(count: int = 256):
    """(environment, qos) for the first count rows of BINDING_CSV under each
    model variant: one LinkModel.env per (row, variant)."""
    lines = BINDING_CSV.read_text().splitlines()
    assert lines[0] == "distance,chi,r0,n_s"
    rows = [line.split(",") for line in lines[1:count + 1]]
    for variant in MODEL_VARIANTS:
        model = LinkModel(**variant)
        for d, chi, r0, n_s in rows:
            yield model.env(float(d), float(chi)), QosSpec(r0=float(r0), n_s=int(n_s))


def grid_multipliers(mm, n_t: int, n_t_max: int, over=None) -> tuple[float, float]:
    """(lam_lo, lam_hi): the multipliers lam >= 0 for which the frame size n_t
    maximizes the Lagrangian eta(m) + lam * R(m) of mm over the frame sizes
    `over`, by default n_t's two codeword neighbours on the grid of n_t_max.
    A frame size with less rate than n_t raises lam_lo to
    (eta(m) - eta*) / (R* - R(m)), one with more rate lowers lam_hi to
    (eta* - eta(m)) / (R(m) - R*), and one with the same rate and more eta
    leaves no lam (lam_lo = inf).  lam_lo <= lam_hi when some lam works."""
    n = PSDU_CODE.n
    if over is None:
        over = [m for m in (n_t - n, n_t + n) if n <= m <= n * (n_t_max // n)]
    eta_star, rate_star = mm.eta_rate(n_t)
    etas, rates = mm.eta_rate(np.asarray(over, dtype=np.int64))
    less, more = rates < rate_star, rates > rate_star
    lo = max([0.0, *((etas[less] - eta_star) / (rate_star - rates[less])).tolist()])
    hi = min([math.inf, *((eta_star - etas[more]) / (rates[more] - rate_star)).tolist()])
    if np.any(etas[rates == rate_star] > eta_star):
        lo = math.inf
    return lo, hi


def reference_snap(x_cont: float, objective, n: int = 63, n_t_max: int = 63 * 130) -> int:
    """The three-candidate snap, the reference for optimizer.snap_to_grid.

    Clamps into [n, n_t_max] and keeps the best of the codeword multiples
    (k-1)*n, k*n and (k+1)*n around x_cont; ties prefer the smaller size.
    """
    k_max = n_t_max // n
    if math.isinf(x_cont) or x_cont >= k_max * n:
        return k_max * n
    k = max(1, min(int(x_cont // n), k_max))
    cands = sorted({k * n, min((k + 1) * n, k_max * n), max(n, (k - 1) * n)})
    best = cands[0]
    best_val = objective(best)
    for c in cands[1:]:
        v = objective(c)
        if v > best_val:
            best, best_val = c, v
    return best


def reference_anchor(p_b: float, n_bits: int, i: int) -> float:
    """T_i = C(N,i) p^i (1-p)^(N-i) for 0 < p_b <= 0.5, as the reliability kernel
    computes its anchors T_0 and T_t: libm's pow of p_b and of q = fl(1 - p_b),
    the latter corrected by (N-i) * eps with 1 - p_b = q * (1 + eps).  For
    i = 0 the factors C(N,0) and p_b**0 are 1.0, so this is the kernel's
    shorter T_0 too."""
    q = 1.0 - p_b
    eps = ((1.0 - q) - p_b) / q
    power = math.pow(q, n_bits - i)
    return (float(math.comb(n_bits, i)) * math.pow(p_b, i)
            * (power + power * ((n_bits - i) * eps)))


def reference_terms(p_b: float, n_bits: int, t: int) -> list[float]:
    """T_0..T_N of code (N, t) for 0 < p_b <= 0.5, every term, each by the term
    recurrence from the nearer anchor: T_1..T_h up from T_0 (h = t // 2),
    T_{t-1}..T_{h+1} down from T_t, and T_{t+1}..T_N up from T_t, each of
    these by one factor ratio * odds.  The odds
    p/(1-p) and each ratio (N-i)/(i+1) or i/(N-i+1) are computed here."""
    odds, h = p_b / (1.0 - p_b), t // 2
    terms = [0.0] * (n_bits + 1)
    terms[0], terms[t] = reference_anchor(p_b, n_bits, 0), reference_anchor(p_b, n_bits, t)
    for i in range(h):
        terms[i + 1] = terms[i] * ((n_bits - i) / (i + 1)) * odds
    for i in range(t, h + 1, -1):
        terms[i - 1] = terms[i] * (i / (n_bits - i + 1)) / odds
    for i in range(t, n_bits):
        terms[i + 1] = terms[i] * ((n_bits - i) / (i + 1) * odds)
    return terms


def reference_direct(terms: list[float], t: int) -> float:
    """D = P(at most t errors) from reference_terms, added one by one in the
    kernel's order: T_0..T_h, then T_t down to T_{h+1}."""
    s = 0.0
    for i in [*range(t // 2 + 1), *range(t, t // 2, -1)]:
        s += terms[i]
    return s


def reference_upper(terms: list[float], p_b: float, t: int) -> float:
    """U = P(more than t errors) from reference_terms, added in ascending i and
    stopped past the binomial mode once a term is at most 2**-54 of the sum."""
    s, peak = 0.0, (len(terms)) * p_b
    for i in range(t + 1, len(terms)):
        s += terms[i]
        if i > peak and terms[i] <= s * 2.0 ** -54:
            break
    return s


def reference_block_success(p_b: float, n_bits: int, t: int) -> float:
    """P(at most t of n_bits bits in error) from reference_terms."""
    if p_b == 0.0:
        return 1.0
    return min(1.0, reference_direct(reference_terms(p_b, n_bits, t), t))


def reference_block_log_success(p_b: float, n_bits: int, t: int) -> float:
    """log1p(-U) when the upper tail U < 0.5, else log(D), from
    reference_terms; U is summed only when D >= 0.5 - 1e-9."""
    if p_b == 0.0:
        return 0.0
    terms = reference_terms(p_b, n_bits, t)
    direct = reference_direct(terms, t)
    if direct >= 0.5 - 1e-9:
        upper = reference_upper(terms, p_b, t)
        if upper < 0.5:
            return math.log1p(-upper)
    return math.log(direct)


def reference_render_lines(series: list[tuple[str, list[float], list[float]]],
                           title: str = "", x_label: str = "", y_label: str = "") -> str:
    """svgplot.render_lines point by point: filter, map and format each
    (x, y) with Python floats; zip truncates xs and ys to the shorter.  A
    constant axis at v runs to v + 1.0, or to the next float up where that
    rounds back to v, or from the next float down where that overflows.
    There is no overflow scaling, so an axis whose span * 4 overflows a
    float gives inf or nan here."""
    lines = [(label, [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)])
             for label, xs, ys in series]
    pts = [p for _, line in lines for p in line]
    if not pts:
        raise ValueError("nothing to plot")
    xs, ys = zip(*pts)
    x_min, x_max, y_min, y_max = min(xs), max(xs), min(ys), max(ys)
    if x_max == x_min:
        x_max = max(x_min + 1.0, math.nextafter(x_min, math.inf))
        if x_max == math.inf:
            x_min, x_max = math.nextafter(x_min, -math.inf), x_min
    if y_max == y_min:
        y_max = max(y_min + 1.0, math.nextafter(y_min, math.inf))
        if y_max == math.inf:
            y_min, y_max = math.nextafter(y_min, -math.inf), y_min

    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes and ticks
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               'fill="none" stroke="#333"/>')
    for i in range(5):
        fx = x_min + (x_max - x_min) * i / 4
        fy = y_min + (y_max - y_min) * i / 4
        out.append(f'<text x="{sx(fx):.1f}" y="{_H - _MARGIN_B + 18}" '
                   f'text-anchor="middle" fill="#333">{_fmt(fx)}</text>')
        out.append(f'<text x="{_MARGIN_L - 6}" y="{sy(fy) + 4:.1f}" '
                   f'text-anchor="end" fill="#333">{_fmt(fy)}</text>')
        if i > 0:
            out.append(f'<line x1="{_MARGIN_L}" y1="{sy(fy):.1f}" x2="{_MARGIN_L + plot_w}" '
                       f'y2="{sy(fy):.1f}" stroke="#ddd"/>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_H - 10}" '
               f'text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.0f})">{y_label}</text>')
    # series
    for i, (label, line) in enumerate(lines):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in line)
        if coords:
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       'stroke-width="1.6"/>')
        ly = _MARGIN_T + 14 + i * 16
        out.append(f'<line x1="{_W - _MARGIN_R + 10}" y1="{ly - 4}" '
                   f'x2="{_W - _MARGIN_R + 30}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MARGIN_R + 34}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
