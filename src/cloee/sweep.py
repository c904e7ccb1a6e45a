"""Distance sweeps, static-strategy comparison and curves, written through output.

Every evaluation lands in a SweepRow; rows are built in (distance, strategy)
order.  The reserved strategy ids are "cloee" (the solver) and
"oracle" (exhaustive search); static strategies are named static_<n_cpb>_<n_t>.
A sweep builds its environments by block.link_block, from arrays, in blocks
of ENV_BLOCK points, and a ModeMetrics only for a mode that a dual solve reads.
"""

from __future__ import annotations

from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .block import _columns, columns, grid, link_block, search_envs, solve_envs
from .frame import MODE_POSITION, MODE_TABLE
from .metrics import LinkModel, QosSpec
from .optimizer import SolverConfig, solve_mode
from .output import csv_text, with_charts, write_files
from .scenario import Scenario

# A sweep builds, solves and searches its points in blocks of this many.
ENV_BLOCK = 1024

CSV_HEADER = "distance,strategy,n_cpb,n_t,eta_bits_per_joule,rate_bps,p_ppdu,feasible,branch"


class SweepRow(NamedTuple):
    distance: float
    strategy: str
    n_cpb: int
    n_t: int
    eta: float
    rate: float
    p_ppdu: float
    feasible: bool
    branch: str


def run_sweep(scenario: Scenario) -> list[SweepRow]:
    """Evaluate every strategy plus cloee and the oracle on the distance grid.

    The points are taken in environment blocks of ENV_BLOCK.  Each block is
    one link_block, whose Columns cloee (solve_envs), the oracle (search_envs,
    one pair of grid arrays for the block) and the static rows (one
    Columns.eta_rate on a block of the statics' own modes, each at its own
    frame size) share, so the arrays held at once are set by the block size,
    not by the distance count.  The block's rows are made from its columns by
    tuple.__new__, and every row's p_ppdu from one Columns.ppdu_success per
    block: metrics.ppdu_success over the block's lanes.
    Deterministic for a given scenario and seed: shadowing draws are made
    up-front in config order, and rows come out in (distance, strategy) order,
    as the points are taken by (distinct) distance and each distance's rows
    are cloee, the oracle, then the statics by name (every static_ name sorts
    after cloee and oracle).
    """
    model, qos, cfg = scenario.link_model(), scenario.qos, scenario.solver
    points = sorted(zip(scenario.distances, scenario.shadowing_draws()), key=lambda p: p[0])
    r0ns = qos.aggregate_rate
    # Each static as (name, MODE_TABLE position, n_cpb, n_t), by name, with
    # plain-int entries (a Scenario takes numpy's too).
    statics = sorted((f"static_{a}_{b}", MODE_POSITION[a], int(a), int(b))
                     for a, b in scenario.strategies)
    # Static s is read at its mode's position and at the s-th frame size.
    sizes = np.array([n_t for _, _, _, n_t in statics])
    positions = [i for _, i, _, _ in statics]
    modes = [MODE_TABLE[i] for i in positions]
    breakdowns = [model.energy.breakdowns[i] for i in positions]
    rows = []
    for start in range(0, len(points), ENV_BLOCK):
        chunk = points[start:start + ENV_BLOCK]
        distances = [d for d, _ in chunk]
        cols = link_block(model, chunk)
        # The statics as lists, one per static, before the solvers run.
        static_cols = _columns(modes, breakdowns, distances, cols.header_success[:, positions],
                               cols.log_p_cw[:, positions])
        etas, rates = (a[..., 0] for a in static_cols.eta_rate(sizes[:, None]))
        static_values = etas.T.tolist(), rates.T.tolist(), (rates >= r0ns).T.tolist()
        cloees, oracles = solve_envs(cols, qos, cfg), search_envs(cols, qos, cfg)
        # Every row's MODE_TABLE position and frame size, (environments,
        # 2 + statics): cloee's, the oracle's, then the statics'.
        at, frames = np.empty((2, len(chunk), 2 + len(statics)), dtype=np.int64)
        for j, results in enumerate((cloees, oracles)):
            at[:, j] = [MODE_POSITION[res.n_cpb_star] for res in results]
            frames[:, j] = [res.n_t_star for res in results]
        at[:, 2:], frames[:, 2:] = positions, sizes
        p_cloee, p_oracle, *p_statics = cols.ppdu_success(at, frames).T.tolist()
        fields = [_result_fields(distances, "cloee", cloees, p_cloee),
                  _result_fields(distances, "oracle", oracles, p_oracle)]
        fields += [zip(distances, repeat(name), repeat(n_cpb), repeat(n_t), eta, rate, p, feasible,
                       repeat("static"))
                   for (name, _, n_cpb, n_t), eta, rate, feasible, p in zip(
                       statics, *static_values, p_statics)]
        rows += map(tuple.__new__, repeat(SweepRow), chain.from_iterable(zip(*fields)))
    return rows


def _result_fields(distances, strategy, results, p_ppdu):
    """The SweepRow fields of one strategy's OptResults, one tuple per distance."""
    n_t, n_cpb, eta, rate, _, feasible, _, branch, *_ = zip(*results)
    return zip(distances, repeat(strategy), n_cpb, n_t, eta, rate, p_ppdu, feasible, branch)


def rows_to_csv(rows: list[SweepRow]) -> str:
    return csv_text(CSV_HEADER, zip(*rows))


def emit_curves(rows: list[SweepRow], out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Write rows as sweep.csv (plus sweep_eta.svg and sweep_rate.svg for
    fmt="svg"); returns the written paths.

    Refuses to create files for an empty row set.
    """
    if not rows:
        raise ValueError("no rows to emit")
    groups: dict[str, list[SweepRow]] = {}
    for r in rows:
        groups.setdefault(r.strategy, []).append(r)
    tables = [(strat, SweepRow(*zip(*groups[strat]))) for strat in sorted(groups)]

    def series(metric: str) -> list:
        return [(strat, table.distance, getattr(table, metric)) for strat, table in tables]

    return write_files(out_dir, with_charts({"sweep.csv": rows_to_csv(rows)}, fmt, "sweep",
                                            series, "distance", "distance (m)"))


# --------------------------------------------------------------------------
# fixed-distance curves: eta / rate versus frame size for every mode


CURVE_HEADER = "n_cpb,n_t,eta_bits_per_joule,rate_bps"
MARKS_HEADER = "n_cpb,nt_ee,nt_thr,nt_star,branch,feasible"


def compute_curves(model: LinkModel, distance: float, qos: QosSpec,
                   cfg: SolverConfig, chi: float = 0.0):
    """Per-mode eta/rate curves over the codeword grid plus the solution marks.

    Returns one (OptResult, nts, etas, rates) per mode, ascending n_cpb: the
    mode's own three-branch solve (solve_mode, which is solve_env on that
    mode alone, so no mode is pruned) and its row of grid on the block of one
    environment.
    """
    env = model.env(distance, chi)
    nts, etas, rates = grid(columns((env,)), cfg.n_t_max)
    return [(solve_mode(mm, qos, cfg), nts, eta_row, rate_row)
            for mm, eta_row, rate_row in zip(env, etas[0], rates[0])]


def emit_fixed_distance_curves(model: LinkModel, distance: float, qos: QosSpec,
                               cfg: SolverConfig, out_dir: str | Path,
                               fmt: str = "csv", chi: float = 0.0) -> list[Path]:
    """Write curves.csv, by column from the grid's arrays, and curve_marks.csv
    (plus curves_eta.svg and curves_rate.svg for fmt="svg"); returns the paths."""
    n_cpbs, n_ts, mark_rows = [], [], []
    series: dict[str, list] = {"eta": [], "rate": []}
    for sol, nts, etas, rates in compute_curves(model, distance, qos, cfg, chi):
        n_cpb = sol.n_cpb_star
        n_cpbs += [n_cpb] * len(nts)
        n_ts += nts.tolist()
        mark_rows.append((n_cpb, sol.nee, sol.nthr, sol.n_t_star, sol.branch, sol.feasible))
        series["eta"].append((f"n_cpb={n_cpb}", nts, etas))
        series["rate"].append((f"n_cpb={n_cpb}", nts, rates))
    texts = {"curves.csv": csv_text(CURVE_HEADER, [n_cpbs, n_ts, *(np.concatenate(
                 [ys for _, _, ys in series[metric]]).tolist() for metric in ("eta", "rate"))]),
             "curve_marks.csv": csv_text(MARKS_HEADER, zip(*mark_rows))}
    return write_files(out_dir, with_charts(texts, fmt, "curves", series.__getitem__,
                                            f"frame size at {distance} m", "n_t (bits)"))
