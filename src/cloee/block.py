"""The array layer: every array form of the model, for blocks of environments.

channel, reliability, metrics and optimizer are the scalar core, one distance
at a time, and import no numpy at the top.  Each array form here is
repr-equal, element for element, to its scalar twin: the same IEEE
operations in the same order, with libm's functions (numpy's SIMD functions
may round differently) and the model's mapped over the lanes by _map, also
into metrics' own header and PPDU compositions.
Columns is the one array format, a block of environments of one LinkModel,
which solve_envs (the block cloee pass) and search_envs (the oracle) read.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .channel import _SPANS, DEFAULT_CHANNEL, ChannelParams, _gain, _overflow, q_function
from .energy import EnergyBreakdown
from .frame import MODE_TABLE, PSDU_CODE, PhyMode
from .metrics import (_I_PHR, _I_SHR, LinkModel, ModeMetrics, QosSpec, _header_success,
                      ppdu_success)
from .optimizer import N_T_MAX_LIMIT, OptResult, SolverConfig, _decide
from .reliability import PSDU_BLOCK, Block, _check_p, _direct, _upper, shr_success


def _map(f, *args) -> np.ndarray:
    """f over the lanes of arrays of one shape, a number repeated, shaped as
    the first array: the one way a scalar function (libm's or the model's)
    meets a block, each lane a Python float in and out."""
    lanes = next(a for a in args if isinstance(a, np.ndarray))
    return np.fromiter(map(f, *(a.ravel().tolist() if isinstance(a, np.ndarray) else repeat(a)
                                for a in args)), float, lanes.size).reshape(lanes.shape)


def bit_error_array(points, eps_p: float, params: ChannelParams = DEFAULT_CHANNEL,
                    integration_per_pulse: bool = False) -> np.ndarray:
    """bit_error_probs at each (d, chi) of points as a (points, modes) array,
    element for element: the gains point by point, ebn0 and the argument of Q
    with numpy's IEEE operations in the scalar order, and q_function (libm's
    erfc, exp and log) over the lanes.  The first point that fails raises
    bit_error_probs's error.  An argument of Q whose square overflows is inf,
    and Q of it 0, as in bit_error_probs; a lane with ebn0 = 0 is 0.5.
    """
    h_eff = np.array([_gain(d, chi, eps_p, params) for d, chi in points])
    with np.errstate(over="ignore", invalid="ignore"):
        ebn0 = h_eff[:, None] * np.array([m.n_cpb * eps_p for m in MODE_TABLE]) \
            / params.noise_density_joules
        x = np.sqrt(0.5 * ebn0 * ebn0
                    / (ebn0 + np.array(_SPANS[integration_per_pulse]) * params.w_rx))
    overflow = np.isinf(ebn0).any(axis=1)
    if overflow.any():
        raise _overflow(points[overflow.argmax()][0])
    probs = _map(q_function, x)
    probs[ebn0 == 0.0] = 0.5
    return probs


def _inner(p_b: np.ndarray):
    """p_b flat with its lanes at 0 (which the callers set) read as 0.5, and their
    mask; the first p_b outside [0, 0.5], nan included, raises _check_p's error."""
    p = p_b.ravel()
    outside = ~((p >= 0.0) & (p <= 0.5))
    if outside.any():
        _check_p(p[outside.argmax()])
    zeros = p == 0.0
    return np.where(zeros, 0.5, p), zeros


def block_successes(p_b: np.ndarray, block: Block) -> np.ndarray:
    """block_success over an array of p_b in [0, 0.5], element for element."""
    p, zeros = _inner(p_b)
    direct = np.minimum(_direct(p, block, partial(_map, math.pow))[0], 1.0)
    direct[zeros] = 1.0
    return direct.reshape(p_b.shape)


def block_log_successes(p_b: np.ndarray, block: Block) -> np.ndarray:
    """block_log_success over an array of p_b in [0, 0.5], element for element:
    U is summed by _upper on the lanes with D >= 0.5 - 1e-9 only, a term on
    all of them at a time."""
    p, zeros = _inner(p_b)
    direct, top, odds = _direct(p, block, partial(_map, math.pow))
    lanes = np.flatnonzero(direct >= 0.5 - 1e-9)
    upper = _upper(top[lanes], odds[lanes], block, np.ndarray.all)
    # log1p(-U) on the lanes with U < 0.5, else log(D), each in place of D.
    near_one = lanes[upper < 0.5]
    logs = np.full(p.size, True)
    logs[near_one] = False
    direct[logs] = _map(math.log, direct[logs])
    direct[near_one] = _map(math.log1p, -upper[upper < 0.5])
    direct[zeros] = 0.0
    return direct.reshape(p_b.shape)


class Columns(NamedTuple):
    """A block of environments of one LinkModel as (environments, modes, 1)
    columns and per-mode (modes, 1) rows: the one input of the array
    evaluators (grid, search_envs and solve_envs, and the sweep's static
    rows).  The trailing axis takes the frame sizes, and distances[e] is
    environment e's distance."""

    modes: Sequence[PhyMode]
    distances: Sequence[float]
    header_success: np.ndarray
    log_p_cw: np.ndarray
    energy: EnergyBreakdown          # eps_b, eps_oh and eps_st rows
    t_sym: np.ndarray

    def eta_rate(self, nts, out=None):
        """(etas, rates) at the frame sizes nts, an int array broadcast against
        (environments, modes, 1), from one numerator, each element bit for bit
        its mode's scalar eta_rate: the codeword powers are taken in place and
        then scaled by nts * header_success, the scalar product with its
        factors swapped, which commutes exactly.  out, a pair of float arrays
        of the result's shape, takes the etas and the rates, and no other array
        of that shape is made; without it the result is two new arrays and one
        temporary."""
        etas, rates = (None, None) if out is None else out
        delivered = np.multiply(-(-nts // PSDU_CODE.n), self.log_p_cw, out=rates)
        # exp of anything below -745.14 is +0.0, as exp(-inf) is, but numpy's
        # SIMD exp redoes a lane whose result underflows on a slow path, ~20x an
        # in-range lane, and takes -inf on its fast one: the same bits, cheaper
        # on an oracle grid, whose long frames underflow on a bad link.
        np.copyto(delivered, -np.inf, where=delivered < -746.0)
        np.exp(delivered, out=delivered)
        delivered *= np.multiply(nts, self.header_success, out=etas)
        return (np.divide(delivered, self.energy.total(nts), out=etas),
                np.divide(delivered, ModeMetrics.t_oh + nts * self.t_sym, out=delivered))

    def ppdu_success(self, positions, nts) -> np.ndarray:
        """metrics.ppdu_success, with libm's exp over the lanes, of
        environment e at mode position positions[e, j] and frame size
        nts[e, j], two (environments, k) int arrays."""
        envs = np.arange(len(self.log_p_cw))[:, None]
        return ppdu_success(self.header_success[envs, positions, 0],
                            self.log_p_cw[envs, positions, 0], nts, partial(_map, math.exp))

    def metrics(self, e: int, m: int) -> ModeMetrics:
        """Environment e's ModeMetrics of modes[m], from the block's floats: its
        energy breakdown is rebuilt from the energy rows, equal to the mode's."""
        energy = self.energy
        return ModeMetrics(self.modes[m], self.distances[e], self.log_p_cw.item(e, m, 0),
                           self.header_success.item(e, m, 0),
                           EnergyBreakdown(energy.eps_b.item(m, 0), energy.eps_oh.item(m, 0),
                                           energy.eps_st.item(m, 0)))

    def part(self, start: int, stop: int) -> Columns:
        """Environments start..stop-1 as a block of their own (array views)."""
        return self._replace(distances=self.distances[start:stop],
                             header_success=self.header_success[start:stop],
                             log_p_cw=self.log_p_cw[start:stop])


def _columns(modes, breakdowns, distances, header_success, log_p_cw) -> Columns:
    """Columns with each mode's energy breakdown and air time as a (modes, 1)
    row (empty for no modes)."""
    eps_b, eps_oh, eps_st, t_sym = np.array(
        [(b.eps_b, b.eps_oh, b.eps_st, mode.t_sym) for mode, b in zip(modes, breakdowns)]
    ).reshape(-1, 4).T[:, :, None]
    return Columns(modes, distances, header_success, log_p_cw,
                   EnergyBreakdown(eps_b, eps_oh, eps_st), t_sym)


def columns(envs: Sequence[tuple[ModeMetrics, ...]]) -> Columns:
    """The Columns of a block of environments of one LinkModel.

    A mode's energy and air time depend on the mode alone, so they are read
    once, from the first environment, as one row per mode; an environment
    whose j-th mode or energy breakdown differs from the first environment's
    raises ValueError.
    """
    first = envs[0]
    costs = [(mm.mode, mm.energy) for mm in first]
    if any([(mm.mode, mm.energy) for mm in env] != costs for env in envs):
        raise ValueError("a block takes environments of one LinkModel: every environment "
                         "needs the first one's modes and energy breakdowns, in its order")
    # numpy builds an array from a flat list of floats faster than from nested tuples.
    shape = (len(envs), len(first), 1)
    return _columns(*zip(*costs), [env[0].distance for env in envs],
                    np.array([mm.header_success for env in envs for mm in env]).reshape(shape),
                    np.array([mm.log_p_cw for env in envs for mm in env]).reshape(shape))


def link_block(model: LinkModel, points: Sequence[tuple[float, float]]) -> Columns:
    """columns([model.env(d, chi) for d, chi in points]), element for
    element, from arrays: the bit error rates by bit_error_array, the log
    successes by the tail's array form, and by metrics._header_success on it
    one header success per point (or per mode under uniform_section_ber).
    No ModeMetrics is built until Columns.metrics is called; a point that
    env rejects raises env's error.
    """
    p_b = bit_error_array(points, model.energy.eps_p, model.channel,
                          model.integration_per_pulse)
    header = partial(_header_success, success=block_successes, shr=partial(_map, shr_success))
    if model.uniform_section_ber:
        headers = header(p_b, p_b)
    else:
        headers = np.repeat(header(p_b[:, _I_SHR], p_b[:, _I_PHR]), p_b.shape[1]).reshape(p_b.shape)
    return _columns(MODE_TABLE, model.energy.breakdowns, [d for d, _ in points],
                    headers[..., None], block_log_successes(p_b, PSDU_BLOCK)[..., None])


def grid(cols: Columns, n_t_max: int, out=None):
    """(nts, etas, rates) for a block's Columns at every codeword multiple up
    to n_t_max, etas and rates shaped (environments, modes, codeword
    multiples) by Columns.eta_rate, into out's pair of arrays if given."""
    nts = np.arange(1, n_t_max // PSDU_CODE.n + 1) * PSDU_CODE.n
    return (nts, *cols.eta_rate(nts, out))


def _closed_forms(per_unit, fixed, log_p_cw):
    """nt_closed_form over arrays, element for element: the same IEEE
    operations, so the same bits, with an overflow to inf and an inf - inf to
    nan as in Python floats, and inf and 0 where nt_closed_form returns them
    early (those lanes are computed, then overwritten, so nothing warns)."""
    with np.errstate(all="ignore"):
        half = fixed / (2.0 * per_unit)
        denom = per_unit * log_p_cw
        x = np.sqrt(half * half - PSDU_CODE.n * fixed / denom) - half
    np.copyto(x, math.inf, where=denom >= 0.0)
    np.copyto(x, 0.0, where=log_p_cw == -math.inf)
    return x


def solve_envs(cols: Columns, qos: QosSpec, cfg: SolverConfig) -> list[OptResult]:
    """solve_env on each environment of a block, bit for bit: each decision
    reads its values from (environments, modes) arrays of the block's
    Columns, and only a mode the decision sends to the dual branch runs
    scalar code (optimizer._dual)."""
    r0ns, n, k_max = qos.aggregate_rate, PSDU_CODE.n, cfg.n_t_max // PSDU_CODE.n
    energy, log_p_cw = cols.energy, cols.log_p_cw
    # Both closed forms on the last axis, efficiency then throughput, each
    # clamped once to the grid's span as solve_env's are: the first is xs.
    # k = x // n, then k + 1 up to k_max, are optimizer.snap_to_grid's two
    # candidates (for x >= 0, floor(x) // n is its int(x // n)).
    x = np.minimum(np.maximum(_closed_forms(
        np.concatenate((energy.eps_b, cols.t_sym), axis=1),
        np.concatenate((energy.eps_fixed, np.full_like(cols.t_sym, ModeMetrics.t_oh)), axis=1),
        log_p_cw), float(n)), float(k_max * n))
    xs = x[..., :1]
    # The bounds take libm's exp, as success_cont does, so they are
    # solve_env's to the bit: where the closed form has lost the optimum
    # (ROADMAP item 3) a bound is no bound, and one ulp of it can change
    # which modes the decision visits, and so its answer.
    bounds = xs * (cols.header_success * _map(math.exp, xs * log_p_cw / n)) / energy.total(xs)
    k = x.astype(np.int64) // n
    etas, rates = cols.eta_rate(np.concatenate((k, np.minimum(k + 1, k_max)), axis=2) * n)
    up = np.stack((etas[..., 2] > etas[..., 0], rates[..., 3] > rates[..., 1]), axis=2)
    # The snapped values, [..., 0] at nee and [..., 1] at nthr.  Each
    # decision reads its bounds and peaks as lists, and the values of
    # the few modes it solves or falls back to one by one (item gives a
    # Python int or float).
    nts = (k + up) * n
    etas = np.where(up, etas[..., 2:], etas[..., :2])
    rates = np.where(up, rates[..., 2:], rates[..., :2])
    results, n_cpb = [], [mode.n_cpb for mode in cols.modes].__getitem__
    for e, (bound, nthr, eta_thr, rate_thr) in enumerate(zip(
            bounds[..., 0].tolist(), nts[..., 1].tolist(), etas[..., 1].tolist(),
            rates[..., 1].tolist())):
        results.append(_decide(
            n_cpb, lambda m: cols.metrics(e, m), bound, r0ns,
            lambda m: (nthr[m], eta_thr[m], rate_thr[m]),
            lambda m: (xs.item(e, m, 0), nts.item(e, m, 0), etas.item(e, m, 0),
                       rates.item(e, m, 0))))
    return results


def search_envs(cols: Columns, qos: QosSpec, cfg: SolverConfig) -> list[OptResult]:
    """exhaustive_search on each environment of a block: per environment the
    best-eta feasible grid point, else the best-rate one.  argmax keeps the
    first maximum of each environment's modes in row-major order: ties go to
    the smaller n_cpb, then n_t.

    The environments are taken in grid blocks of N_T_MAX_LIMIT // n_t_max
    (at least one), so a grid holds at most 6 * 4096 cells, the grid of one
    environment at the largest n_t_max.  Every grid block is evaluated into
    the same pair of arrays, one allocation made once per call, so no grid
    block faults fresh pages in.  As one chunk, glibc's dynamic thresholds also
    keep it on the heap from call to call instead of trimming it: ~0 minor
    faults per hospital sweep, against ~85 for two chunks and ~240 for a pair
    per grid block.
    """
    n_envs, step = len(cols.log_p_cw), N_T_MAX_LIMIT // cfg.n_t_max
    shape = (min(n_envs, step), len(cols.modes), cfg.n_t_max // PSDU_CODE.n)
    buffers, results = np.empty((2, *shape)), []
    n_cpbs = [mode.n_cpb for mode in cols.modes]
    for start in range(0, n_envs, step):
        part = cols.part(start, start + step)
        size = len(part.log_p_cw)
        nts, etas, rates = grid(part, cfg.n_t_max, buffers[:, :size])
        etas, rates = etas.reshape(size, -1), rates.reshape(size, -1)
        feas = rates >= qos.aggregate_rate
        rows, any_feas = np.arange(size), feas.any(axis=1)
        # Mask the infeasible etas in place, on the rows with a feasible cell
        # only: a row without one reads its eta at its rate peak, and only
        # those rows take the argmax of their rates.
        np.copyto(etas, -np.inf, where=feas < any_feas[:, None])
        picks = np.argmax(etas, axis=1)
        infeasible = np.flatnonzero(~any_feas)
        picks[infeasible] = np.argmax(rates[infeasible], axis=1)
        # The results are made from their columns with tuple.__new__, every
        # field given (OptResult's own __new__ would fill the defaults).
        results += map(tuple.__new__, repeat(OptResult), zip(
            nts[picks % len(nts)].tolist(), map(n_cpbs.__getitem__, (picks // len(nts)).tolist()),
            etas[rows, picks].tolist(), rates[rows, picks].tolist(), repeat(0.0),
            feas[rows, picks].tolist(), repeat(etas.shape[1]), repeat("exhaustive"),
            repeat(None), repeat(None), repeat(None)))
    return results
