"""Joint frame-size / burst-order optimization under a minimum-rate constraint.

The problem: maximize energy efficiency eta(n_t, n_cpb) subject to
throughput R(n_t, n_cpb) >= r0 * n_s, over n_t in [63, n_t_max] and
n_cpb in {1, 2, 4, 8, 16, 32}.

Per burst mode, eta and R are strictly quasiconcave in n_t.  Both are
delivered bits over a cost linear in n_t (energy eps_b * n_t + eps_fixed, time
t_sym * n_t + t_oh), so one closed form, nt_closed_form, gives both
unconstrained maximizers.  solve_env is the CLOEE solver on one distance's
environment.  Each mode it finishes takes one of three branches:

  unconstrained        the efficiency optimum already meets the rate target;
  dual                 the efficiency optimum is rate-infeasible but the
                       throughput optimum is not: the constraint is active,
                       so the answer is the end of the rate-feasible interval
                       of codeword multiples that faces the efficiency optimum,
                       which the grid rate reads beside the continuous rate
                       boundary; there stationarity gives the rate multiplier,
                       and Newton's method finds it unless lambda* = 0 (a
                       target equal to the answer's grid rate gives kkt_rate
                       at it, within the 1e-9 relative tolerance);
  throughput-fallback  no frame size meets the rate target: keep the
                       throughput-optimal size and mark the mode infeasible.

The feasible mode with the best efficiency wins, the first of equals in
environment order; when nothing is feasible the best-throughput fallback is
returned.  Only the modes that can still win are finished.  A mode's eta
bound is its relaxed efficiency x * success_cont(x) / energy.total(x) at its
efficiency closed form x, clamped to the grid's span [n, n * (n_t_max // n)].
In exact arithmetic it is at least every grid eta of the mode, as the relaxed
and grid objectives agree on the grid; in floats it can sit below the mode's
grid maximum (by up to 4.7e-16 relative on the binding rows), and only a
1e-12 relative margin raises it above (TestEtaRateBudgets holds that).  The
closed form's own rounding moves x, not the bound, to first order: the
gradient vanishes there, and as (log eta)'' lies in [-1/x**2, 0], a relative
error d in x lowers the bound by at most about d**2/2.  Modes
are visited in decreasing bound (a stable sort) until a bound, so raised, is
strictly below the best feasible eta so far, and each visited mode gets its
full three-branch solve.  Nothing skipped could have won or tied.

_decide is the one place this decision and the cross-mode pick are
written, over per-mode values that its caller supplies.  solve_env computes
each value when the decision asks for it (scalar snaps), so pruning saves
work; cloee and solve_mode run it, and block.solve_envs is its block form.
Both clamp each closed form once to the grid's span; a snap takes it so
clamped, reads eta and rate at its two codeword multiples from one
numerator and keeps the better by the objective it snaps for.

solve_mode is solve_env on a one-mode environment, which is always visited
and so gets the full three-branch solve.  exhaustive_search scans the whole
grid and is the oracle the solver is tested against; it is block.search_envs
on a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError, is_int
from .frame import PSDU_CODE
from .metrics import LinkModel, ModeMetrics, QosSpec


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
    scan's best point (block.search_envs and exhaustive_search).

    lambda_ and kkt_rate form the optimality certificate of the dual branch:
    kkt_rate is the rate at the continuous constrained optimum, where
    complementary slackness lambda_ * (kkt_rate - r0*n_s) ~ 0 holds (both
    read at the Newton search's last probe).  The reported rate/eta belong
    to the returned integer frame size, which sits on the codeword grid and
    can exceed the rate target by a discrete step.  iterations counts the
    dual branch's Newton probes (0 when lambda_ = 0 needs no search, and on
    the other branches) or, for exhaustive_search, the evaluated grid points.
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

    Efficiency takes (eps_b, eps_fixed), throughput (t_sym, t_oh).  Returns 0
    when log_p_cw = -inf and inf when per_unit * log_p_cw >= 0, which
    clamp_to_span takes to one codeword and to the search ceiling."""
    if per_unit <= 0:
        raise ValueError(f"per-unit cost must be > 0, got {per_unit}")
    if log_p_cw == -math.inf:
        return 0.0               # hopeless codewords: shrink to nothing
    half = fixed / (2.0 * per_unit)
    denom = per_unit * log_p_cw
    if denom >= 0.0:
        return math.inf          # error-free codewords, or a log that underflows
    return math.sqrt(half * half - PSDU_CODE.n * fixed / denom) - half


def clamp_to_span(x: float, n_t_max: int) -> float:
    """A closed form x clamped to the grid's span [n, n * (n_t_max // n)], n = PSDU_CODE.n."""
    return min(max(x, float(PSDU_CODE.n)), float(n_t_max // PSDU_CODE.n * PSDU_CODE.n))


def snap_to_grid(mm: ModeMetrics, x: float, n_t_max: int, by: int) -> tuple[int, float, float]:
    """Round x, clamped to the grid's span, to the better by eta (by=0) or
    rate (by=1) of k * n and, while k < n_t_max // n, (k + 1) * n, with k =
    x // n and ties to the smaller; returns (n_t, eta, rate) there, both
    from mm.eta_rate's one numerator."""
    n = PSDU_CODE.n
    k = int(x // n)
    best = (k * n, *mm.eta_rate(k * n))
    if k < n_t_max // n:
        up = ((k + 1) * n, *mm.eta_rate((k + 1) * n))
        if up[1 + by] > best[1 + by]:
            best = up
    return best


# ---------------------------------------------------------------------------
# per-mode solve


def _rate_boundary(mm: ModeMetrics, r0ns: float, x_in: float, x_out: float) -> tuple:
    """Crossing of rate_cont = r0ns between a rate-feasible x_in and an infeasible
    x_out, both codeword multiples, so every probe x is >= n and the stop is
    relative to it, by Newton's method kept inside the bracket (rtsafe): each
    probe moves the end that rate >= r0ns says, and the next is the Newton
    step if it lands strictly inside, else the midpoint.  Returns the last
    probe, its rate_cont_slopes and the count, (x, rate, d rate, d eta, probes)."""
    x, probes = 0.5 * (x_in + x_out), 0
    while True:
        rate, slope, eta_slope = mm.rate_cont_slopes(x)
        probes += 1
        if rate >= r0ns:
            x_in = x
        else:
            x_out = x
        step = (rate - r0ns) / slope if slope else math.nan
        if abs(step) <= 1e-9 * x or abs(x_out - x_in) <= 1e-9 * x:
            return x, rate, slope, eta_slope, probes
        x -= step
        if not (x - x_in) * (x - x_out) < 0.0:      # outside, or nan
            x = 0.5 * (x_in + x_out)


def _dual(mm: ModeMetrics, r0ns: float, x_ee: float, nee: int, nthr: int) -> OptResult:
    """The dual result of a mode whose rate peak meets the target and whose
    efficiency optimum (x_ee, clamped to the grid's span) does not."""
    # Exact certificate for the continuous problem: either the efficiency
    # optimum is rate-feasible (the grid constraint was an artifact of
    # rounding, lambda* = 0) or the constraint is active and lambda* follows
    # from stationarity d(eta)/dn + lambda * d(R)/dn = 0 at the boundary x
    # between nthr (grid-feasible) and nee (grid-infeasible).
    x, kkt_rate, lam_star, probes = x_ee, mm.rate_cont(x_ee), 0.0, 0
    if kkt_rate < r0ns:
        x, kkt_rate, rate_grad, eta_grad, probes = _rate_boundary(mm, r0ns, nthr, nee)
        lam_star = max(0.0, -eta_grad / rate_grad)

    # The grid rate is unimodal with its peak at nthr (C4), so the
    # rate-feasible multiples form an interval around nthr, and eta is
    # unimodal too: the answer is that interval's end facing nee, the
    # multiple on nthr's side of x unless the grid rate says otherwise (x is
    # the crossing to 1e-9 relative, and rate_cont at a multiple can be an
    # ulp off the grid rate).  nthr and nee bound the walk, which reads each
    # multiple's (eta, rate) once and keeps the answer's: only a feasible
    # start steps toward nee, as an infeasible one is the multiple past the
    # answer it steps back to.
    n, side = PSDU_CODE.n, 1 if nee > nthr else -1
    k = int(x // n) if side > 0 else int(-(-x // n))
    eta, rate = mm.eta_rate(k * n)
    if rate >= r0ns:
        while (ahead := mm.eta_rate((k + side) * n))[1] >= r0ns:
            k, (eta, rate) = k + side, ahead
    while rate < r0ns:
        k -= side
        eta, rate = mm.eta_rate(k * n)
    return OptResult(k * n, mm.mode.n_cpb, eta, rate, lam_star, True, probes,
                     "dual", kkt_rate, nee, nthr)


# ---------------------------------------------------------------------------
# CLOEE


def _decide(n_cpb: Callable[[int], int], metrics: Callable[[int], ModeMetrics],
            bounds: list[float], r0ns: float, peak: Callable[[int], tuple[int, float, float]],
            efficiency: Callable[[int], tuple[float, int, float, float]]) -> OptResult:
    """The three-branch solve of each mode of an environment whose eta bound
    can still win, then the best of them (module docstring), over per-mode
    values that the caller supplies: the eta bounds, one per mode, then, for
    a mode m that the decision visits, peak(m) = (nthr, eta(nthr),
    rate(nthr)) and efficiency(m) = (x, nee, eta(nee), rate(nee)), x being
    the clamped efficiency closed form, for a dual solve the mode's
    ModeMetrics, metrics(m), and for the result its burst order, n_cpb(m)."""
    best, winner, peaks = -math.inf, None, [None] * len(bounds)
    for m in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if bounds[m] * (1.0 + 1e-12) < best:
            break                    # this mode and every later one lose strictly
        nthr, _, rate_thr = peaks[m] = peak(m)
        if rate_thr < r0ns:
            continue                 # the grid rate peaks at nthr (C4): infeasible
        x, nee, eta_ee, rate_ee = efficiency(m)
        res = (OptResult(nee, n_cpb(m), eta_ee, rate_ee, 0.0, True, 0,
                         "unconstrained", None, nee, nthr) if rate_ee >= r0ns
               else _dual(metrics(m), r0ns, x, nee, nthr))
        # The best eta wins, the first of equals in mode order.
        if res.eta > best or res.eta == best and m < winner[0]:
            best, winner = res.eta, (m, res)
    if winner:
        return winner[1]
    # No mode can meet the rate target, and every mode was visited: the
    # first with the best rate peak falls back to it.
    m = max(range(len(bounds)), key=lambda m: peaks[m][2])
    nthr, eta_thr, rate_thr = peaks[m]
    return OptResult(nthr, n_cpb(m), eta_thr, rate_thr, 0.0, False, 0,
                     "throughput-fallback", None, efficiency(m)[1], nthr)


def solve_env(env: tuple[ModeMetrics, ...], qos: QosSpec, cfg: SolverConfig) -> OptResult:
    """cloee on an environment (LinkModel.env, or any tuple of modes): the
    decision over values computed when it asks for them, so a pruned or
    rate-infeasible mode costs no snap it does not need."""
    n_t_max = cfg.n_t_max
    # Each closed form clamped once to the grid's span: xs, the efficiency
    # ones, for the bounds, their snaps and _dual, and peak's throughput one.
    xs = [clamp_to_span(nt_closed_form(mm.energy.eps_b, mm.energy.eps_fixed, mm.log_p_cw), n_t_max)
          for mm in env]

    def peak(m):
        mm = env[m]
        x = clamp_to_span(nt_closed_form(mm.t_sym, mm.t_oh, mm.log_p_cw), n_t_max)
        return snap_to_grid(mm, x, n_t_max, 1)

    def efficiency(m):
        return (xs[m], *snap_to_grid(env[m], xs[m], n_t_max, 0))

    return _decide(lambda m: env[m].mode.n_cpb, env.__getitem__,
                   [x * mm.success_cont(x) / mm.energy.total(x) for mm, x in zip(env, xs)],
                   qos.aggregate_rate, peak, efficiency)


def solve_mode(mm: ModeMetrics, qos: QosSpec, cfg: SolverConfig) -> OptResult:
    """One burst mode's three-branch solve: solve_env on that mode alone."""
    return solve_env((mm,), qos, cfg)


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
    from .block import columns, search_envs
    return search_envs(columns((model.env(distance, chi),)), qos, cfg)[0]
