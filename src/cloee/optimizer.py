"""Joint frame-size / burst-order optimization under a minimum-rate constraint.

The problem: maximize energy efficiency eta(n_t, n_cpb) subject to
throughput R(n_t, n_cpb) >= r0 * n_s, over n_t in [63, n_t_max] and
n_cpb in {1, 2, 4, 8, 16, 32}.

Per burst mode, eta and R are strictly quasiconcave in n_t.  Both are
delivered bits over a cost linear in n_t (energy eps_b * n_t + eps_fixed, time
t_sym * n_t + t_oh), so one closed form, nt_closed_form, gives both
unconstrained maximizers.  solve_env is the CLOEE solver on one distance's
environment, and solve_envs on a block of them.  Each mode they finish takes
one of three branches:

  unconstrained        the efficiency optimum already meets the rate target;
  dual                 the efficiency optimum is rate-infeasible but the
                       throughput optimum is not: the constraint is active,
                       so the answer is the end of the rate-feasible interval
                       of codeword multiples that faces the efficiency optimum,
                       found by bisection; the rate multiplier follows from
                       stationarity at the continuous rate boundary, found by
                       a second bisection.  Both keep a rate-feasible end, so
                       a target equal to the answer's grid rate gives
                       kkt_rate at it, within the bisection tolerance;
  throughput-fallback  no frame size meets the rate target: keep the
                       throughput-optimal size and mark the mode infeasible.

The feasible mode with the best efficiency wins, the first of equals in
environment order; when nothing is feasible the best-throughput fallback is
returned.  Only the modes that can still win are finished.  A mode's
eta bound is its relaxed efficiency x * success_cont(x) / energy.total(x) at
the closed-form optimum x clamped to the grid's span [n, n * (n_t_max // n)],
which is at least every grid eta of the mode: the relaxed and grid objectives
agree on the grid.  Modes are visited in decreasing bound (a stable sort)
until a bound, raised by a 1e-12 relative margin for rounding, is strictly
below the best feasible eta so far, and each visited mode gets its full
three-branch solve.  Nothing skipped could have won or tied.

_decide is the one place this decision and the cross-mode pick are
written, over per-mode values that one of two suppliers gives it.
solve_env computes each value when the decision asks for it (scalar snaps),
so pruning saves work; cloee and solve_mode run it.  solve_envs, the
sweep's block pass, reads them from (environments, modes) arrays of a
block's Columns, and only a mode sent to the dual branch runs scalar code;
each of its results equals solve_env's bit for bit.

solve_mode is solve_env on a one-mode environment, which is always visited
and so gets the full three-branch solve.  exhaustive_search scans the whole
grid and is the oracle the solver is tested against; it is search_envs, which
scans a block of environments from one grid, on a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, is_int
from .frame import PSDU_CODE
from .metrics import Columns, LinkModel, ModeMetrics, QosSpec, columns, grid


# The oracle and the curves scan every codeword multiple up to n_t_max, so
# their memory and time grow with it.  4096 codewords (258,048 bits) is far
# beyond any frame the model favours and keeps a scan to 4096 points per mode.
N_T_MAX_LIMIT = PSDU_CODE.n * 4096


@dataclass(frozen=True)
class SolverConfig:
    """Frame-size search ceiling: n_t ranges over codeword multiples up to n_t_max."""

    n_t_max: int = PSDU_CODE.n * 130

    def __post_init__(self):
        if not is_int(self.n_t_max) or self.n_t_max < PSDU_CODE.n:
            raise ConfigError("solver.n_t_max",
                              f"must be an integer >= {PSDU_CODE.n}, got {self.n_t_max!r}")
        if self.n_t_max > N_T_MAX_LIMIT:
            raise ConfigError("solver.n_t_max", f"must be <= {N_T_MAX_LIMIT}, got {self.n_t_max!r}")


class OptResult(NamedTuple):
    """A solved operating point: the winning mode's own three-branch solve
    (solve_env and cloee; solve_mode is solve_env on one mode) or the grid
    scan's best point (search_envs and exhaustive_search).

    lambda_ and kkt_rate form the optimality certificate of the dual branch:
    kkt_rate is the rate at the continuous constrained optimum, where
    complementary slackness lambda_ * (kkt_rate - r0*n_s) ~ 0 holds.  The
    reported rate/eta belong to the returned integer frame size, which sits
    on the codeword grid and can exceed the rate target by a discrete step.
    iterations counts the dual branch's bisection probes (0 on the other
    branches) or, for exhaustive_search, the evaluated grid points.
    nee and nthr are the mode's efficiency- and throughput-optimal grid
    frame sizes (closed form snapped to the codeword grid) that the branch
    was chosen from; exhaustive_search snaps nothing and leaves them None.
    """

    n_t_star: int
    n_cpb_star: int
    eta: float
    rate: float
    lambda_: float
    feasible: bool
    iterations: int
    branch: str
    kkt_rate: Optional[float] = None
    nee: Optional[int] = None
    nthr: Optional[int] = None


# ---------------------------------------------------------------------------
# closed forms


def nt_closed_form(per_unit: float, fixed: float, log_p_cw: float) -> float:
    """Real-valued frame size maximizing n_t * A * exp(log_p_cw * n_t / n) / cost
    for the linear cost per_unit * n_t + fixed, with n = PSDU_CODE.n.

    Efficiency takes (eps_b, eps_fixed), throughput (t_sym, t_oh).  Returns
    inf when log_p_cw >= 0 (caller clamps to the search ceiling) and 0 when
    log_p_cw = -inf (caller clamps to one codeword).
    """
    if per_unit <= 0:
        raise ValueError(f"per-unit cost must be > 0, got {per_unit}")
    if log_p_cw >= 0.0:
        return math.inf          # error-free codewords: no interior optimum
    if math.isinf(log_p_cw):
        return 0.0               # hopeless codewords: shrink to nothing
    half = fixed / (2.0 * per_unit)
    denom = per_unit * log_p_cw
    if denom == 0.0:
        return math.inf          # log_p_cw underflows: effectively error-free
    return math.sqrt(half * half - PSDU_CODE.n * fixed / denom) - half


def snap_to_grid(x_cont: float, objective: Callable[[int], float],
                 n_t_max: int) -> tuple[int, float]:
    """Round a continuous frame size to the better of the two codeword
    multiples around it; returns (n_t, objective(n_t)).

    Clamps into [n, (n_t_max // n) * n] with n = PSDU_CODE.n; ties prefer the smaller size.
    """
    n = PSDU_CODE.n
    k_max = n_t_max // n
    if math.isinf(x_cont) or x_cont >= k_max * n:
        return k_max * n, objective(k_max * n)
    k = max(1, int(x_cont // n))
    best = (k * n, objective(k * n))
    if k < k_max:
        v = objective((k + 1) * n)
        if v > best[1]:
            best = ((k + 1) * n, v)
    return best


# ---------------------------------------------------------------------------
# per-mode solve


def _rate_boundary(mm: ModeMetrics, r0ns: float, x_in: float, x_out: float) -> float:
    """Crossing of rate_cont = r0ns between a rate-feasible x_in and an infeasible x_out."""
    mid = 0.5 * (x_in + x_out)
    while abs(x_out - x_in) > 1e-9 * max(1.0, abs(mid)):
        if mm.rate_cont(mid) >= r0ns:
            x_in = mid
        else:
            x_out = mid
        mid = 0.5 * (x_in + x_out)
    return mid


def _dual(mm: ModeMetrics, r0ns: float, x_ee: float, nee: int, nthr: int) -> OptResult:
    """The dual result of a mode whose rate peak meets the target and whose
    efficiency optimum (x_ee, clamped to the grid's span) does not."""
    # The grid rate is unimodal with its peak at nthr (C4), so the
    # rate-feasible codeword multiples form an interval around nthr and the
    # infeasible nee lies outside it.  eta is unimodal too, so the constrained
    # optimum is the end of that interval facing nee: bisect for it between
    # k_in (feasible) and k_out (infeasible).
    k_in, k_out, probes = nthr // PSDU_CODE.n, nee // PSDU_CODE.n, 0
    while abs(k_out - k_in) > 1:
        k_mid = (k_in + k_out) // 2
        probes += 1
        if mm.rate(k_mid * PSDU_CODE.n) >= r0ns:
            k_in = k_mid
        else:
            k_out = k_mid
    n_star = k_in * PSDU_CODE.n

    # Exact certificate for the continuous problem: either the efficiency
    # optimum is rate-feasible (the grid constraint was an artifact of
    # rounding, lambda* = 0) or the constraint is active and lambda* follows
    # from stationarity d(eta)/dn + lambda * d(R)/dn = 0 at the boundary.
    if mm.rate_cont(x_ee) >= r0ns:
        lam_star, n_c = 0.0, x_ee
    else:
        n_c = _rate_boundary(mm, r0ns, float(n_star), float(k_out * PSDU_CODE.n))
        lam_star = max(0.0, -mm.eta_cont_grad(n_c) / mm.rate_cont_grad(n_c))

    eta, rate = mm.eta_rate(n_star)
    return OptResult(n_star, mm.mode.n_cpb, eta, rate, lam_star, True, probes,
                     "dual", mm.rate_cont(n_c), nee, nthr)


# ---------------------------------------------------------------------------
# CLOEE


def _decide(env: tuple[ModeMetrics, ...], bounds: list[float], r0ns: float,
            peak: Callable[[int], tuple[int, float]],
            efficiency: Callable[[int], tuple[float, int, float, float]],
            fallback: Callable[[int, int], tuple[int, float]]) -> OptResult:
    """The three-branch solve of each mode of env whose eta bound can still
    win, then the best of them (module docstring), over per-mode values that
    the caller supplies: the eta bounds, then, for a mode m that the decision
    visits, peak(m) = (nthr, rate(nthr)) and efficiency(m) = (x, nee,
    eta(nee), rate(nee)), x being the clamped efficiency closed form, and for
    the all-infeasible fallback fallback(m, nthr) = (nee, eta(nthr))."""
    best, winner, peaks = -math.inf, None, [None] * len(env)
    for m in sorted(range(len(env)), key=bounds.__getitem__, reverse=True):
        if bounds[m] * (1.0 + 1e-12) < best:
            break                    # this mode and every later one lose strictly
        nthr, rate_thr = peaks[m] = peak(m)
        if rate_thr < r0ns:
            continue                 # the grid rate peaks at nthr (C4): infeasible
        x, nee, eta_ee, rate_ee = efficiency(m)
        res = (OptResult(nee, env[m].mode.n_cpb, eta_ee, rate_ee, 0.0, True, 0,
                         "unconstrained", None, nee, nthr) if rate_ee >= r0ns
               else _dual(env[m], r0ns, x, nee, nthr))
        # The best eta wins, the first of equals in mode order.
        if res.eta > best or res.eta == best and m < winner[0]:
            best, winner = res.eta, (m, res)
    if winner:
        return winner[1]
    # No mode can meet the rate target, and every mode was visited: the
    # first with the best rate peak falls back to it.
    m = max(range(len(env)), key=lambda m: peaks[m][1])
    (nthr, rate_thr), (nee, eta_thr) = peaks[m], fallback(m, peaks[m][0])
    return OptResult(nthr, env[m].mode.n_cpb, eta_thr, rate_thr, 0.0, False, 0,
                     "throughput-fallback", None, nee, nthr)


def solve_env(env: tuple[ModeMetrics, ...], qos: QosSpec, cfg: SolverConfig) -> OptResult:
    """cloee on an environment (LinkModel.env, or any tuple of modes): the
    decision over values computed when it asks for them, so a pruned or
    rate-infeasible mode costs no snap it does not need."""
    n_t_max = cfg.n_t_max
    x_lo, x_hi = float(PSDU_CODE.n), float(n_t_max // PSDU_CODE.n * PSDU_CODE.n)
    # Each mode's efficiency closed form, clamped once to the grid's span:
    # the eta bound, the efficiency snap, the fallback's nee and _dual read it.
    xs = [min(max(nt_closed_form(mm.energy.eps_b, mm.energy.eps_fixed, mm.log_p_cw), x_lo), x_hi)
          for mm in env]

    def peak(m):
        mm = env[m]
        return snap_to_grid(nt_closed_form(mm.t_sym, mm.t_oh, mm.log_p_cw), mm.rate, n_t_max)

    def efficiency(m):
        nee, eta_ee = snap_to_grid(xs[m], env[m].eta, n_t_max)
        return xs[m], nee, eta_ee, env[m].rate(nee)

    def fallback(m, nthr):
        return snap_to_grid(xs[m], env[m].eta, n_t_max)[0], env[m].eta(nthr)

    return _decide(env, [x * mm.success_cont(x) / mm.energy.total(x) for mm, x in zip(env, xs)],
                   qos.aggregate_rate, peak, efficiency, fallback)


def solve_mode(mm: ModeMetrics, qos: QosSpec, cfg: SolverConfig) -> OptResult:
    """One burst mode's three-branch solve: solve_env on that mode alone."""
    return solve_env((mm,), qos, cfg)


def _closed_forms(per_unit, fixed, log_p_cw):
    """nt_closed_form over arrays, element for element: the same IEEE
    operations, so the same bits, with an overflow to inf and an inf - inf to
    nan as in Python floats, and inf and 0 where nt_closed_form returns them
    early (those lanes are computed, then overwritten, so nothing warns)."""
    with np.errstate(all="ignore"):
        half = fixed / (2.0 * per_unit)
        denom = per_unit * log_p_cw
        x = np.sqrt(half * half - PSDU_CODE.n * fixed / denom) - half
    # per_unit > 0, so denom >= 0 where log_p_cw >= 0 or denom == 0, and
    # denom = -inf where log_p_cw = -inf.
    np.copyto(x, math.inf, where=denom >= 0.0)
    np.copyto(x, 0.0, where=log_p_cw == -math.inf)
    return x


def solve_envs(cols: Columns, qos: QosSpec, cfg: SolverConfig) -> list[OptResult]:
    """solve_env on each environment of a block, bit for bit: each decision
    reads its values from (environments, modes) arrays of the block's
    Columns, and only a mode the decision sends to the dual branch runs
    scalar code (_dual)."""
    r0ns, n, k_max = qos.aggregate_rate, PSDU_CODE.n, cfg.n_t_max // PSDU_CODE.n
    energy, log_p_cw = cols.energy, cols.log_p_cw
    # Both closed forms on the last axis, efficiency then throughput, clamped
    # to the grid's span: the first is xs.  k = x // n, then k + 1 up to
    # k_max, are snap_to_grid's two candidates (clamping x to n is its
    # max(1, k), and to n * k_max its ceiling; for x >= 0, floor(x) // n is
    # its int(x // n)).
    x = np.minimum(np.maximum(_closed_forms(
        np.concatenate((energy.eps_b, cols.t_sym), axis=1),
        np.concatenate((energy.eps_fixed, np.full_like(cols.t_sym, ModeMetrics.t_oh)), axis=1),
        log_p_cw), float(n)), float(k_max * n))
    xs = x[..., :1]
    # The bounds take libm's exp, as success_cont does, so they are
    # solve_env's to the bit: where the closed form has lost the optimum
    # (ROADMAP item 3) a bound is no bound, and one ulp of it can change
    # which modes the decision visits, and so its answer.
    success = np.fromiter(map(math.exp, (xs * log_p_cw / n).ravel().tolist()), float, xs.size)
    bounds = xs * (cols.header_success * success.reshape(xs.shape)) / energy.total(xs)
    k = x.astype(np.int64) // n
    etas, rates = cols.eta_rate(np.concatenate((k, np.minimum(k + 1, k_max)), axis=2) * n)
    up = np.stack((etas[..., 2] > etas[..., 0], rates[..., 3] > rates[..., 1]), axis=2)
    # The snapped values, [..., 0] at nee and [..., 1] at nthr.  Each
    # decision reads its bounds and rate peaks as lists, and the values of
    # the few modes it solves or falls back to one by one (item gives a
    # Python int or float).
    nts = (k + up) * n
    etas = np.where(up, etas[..., 2:], etas[..., :2])
    rates = np.where(up, rates[..., 2:], rates[..., :2])
    results = []
    for e, (env, bound, nthr, rate_thr) in enumerate(zip(
            cols.envs, bounds[..., 0].tolist(), nts[..., 1].tolist(), rates[..., 1].tolist())):
        results.append(_decide(
            env, bound, r0ns, lambda m: (nthr[m], rate_thr[m]),
            lambda m: (xs.item(e, m, 0), nts.item(e, m, 0), etas.item(e, m, 0),
                       rates.item(e, m, 0)),
            lambda m, _: (nts.item(e, m, 0), etas.item(e, m, 1))))
    return results


def search_envs(cols: Columns, qos: QosSpec, cfg: SolverConfig) -> list[OptResult]:
    """exhaustive_search on each environment of a block, from one grid call on
    its Columns: per environment the best-eta feasible grid point, else the
    best-rate one.  argmax keeps the first maximum of each environment's
    modes in row-major order: ties go to the smaller n_cpb, then n_t."""
    envs = cols.envs
    nts, etas, rates = grid(cols, cfg.n_t_max)
    etas, rates = etas.reshape(len(envs), -1), rates.reshape(len(envs), -1)
    feas = rates >= qos.aggregate_rate
    rows, any_feas = np.arange(len(envs)), feas.any(axis=1)
    # Mask the infeasible etas in place, on the rows with a feasible cell only:
    # a row without one reads its eta at its rate peak.
    np.copyto(etas, -np.inf, where=feas < any_feas[:, None])
    picks = np.where(any_feas, np.argmax(etas, axis=1), np.argmax(rates, axis=1))
    return [OptResult(n_t, env[m].mode.n_cpb, eta, rate, 0.0, feasible, etas.shape[1],
                      "exhaustive")
            for env, m, n_t, eta, rate, feasible in zip(
                envs, (picks // len(nts)).tolist(), nts[picks % len(nts)].tolist(),
                etas[rows, picks].tolist(), rates[rows, picks].tolist(),
                feas[rows, picks].tolist())]


def cloee(model: LinkModel, distance: float, qos: QosSpec = QosSpec(),
          cfg: SolverConfig = SolverConfig(), chi: float = 0.0) -> OptResult:
    """Pick (n_t, n_cpb) maximizing efficiency under the aggregate-rate floor.

    solve_env on the six modes of the environment at distance: the
    best-efficiency feasible mode's own three-branch solve, or the
    best-throughput fallback if no mode is feasible.  Modes that cannot win
    are not solved (module docstring).  Modes are taken in ascending n_cpb
    order and ties go to the first, so results are deterministic.
    """
    return solve_env(model.env(distance, chi), qos, cfg)


def exhaustive_search(model: LinkModel, distance: float, qos: QosSpec = QosSpec(),
                      cfg: SolverConfig = SolverConfig(), chi: float = 0.0) -> OptResult:
    """Scan every (burst mode, codeword multiple) pair; the acceptance oracle."""
    return search_envs(columns((model.env(distance, chi),)), qos, cfg)[0]
