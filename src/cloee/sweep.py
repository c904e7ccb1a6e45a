"""Distance sweeps, static-strategy comparison and CSV emission.

Every evaluation lands in a SweepRow; rows are built in (distance, strategy)
order.  The reserved strategy ids are "cloee" (the solver) and
"oracle" (exhaustive search); static strategies are named static_<n_cpb>_<n_t>.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .frame import MODE_POSITION
from .metrics import LinkModel, QosSpec, columns, grid
from .optimizer import N_T_MAX_LIMIT, SolverConfig, search_envs, solve_envs, solve_mode
from .scenario import Scenario
from . import svgplot

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

    Each block of distances is read as one Columns build, which cloee
    (solve_envs), the oracle (search_envs, one grid call) and the static
    rows (one Columns.eta_rate at each static's own frame size) share; the
    block loop builds every row of the block, each p_ppdu from the scalar
    ModeMetrics.success.  A block holds N_T_MAX_LIMIT // n_t_max distances
    (n_t_max <= N_T_MAX_LIMIT, so at least one), so its grid has at most
    6 * 4096 cells, the grid of one distance at the largest n_t_max.
    Deterministic for a given scenario and seed: shadowing draws are made
    up-front in config order, and rows come out in (distance, strategy) order,
    as the points are taken by (distinct) distance and each distance's rows
    are cloee, the oracle, then the statics by name (every static_ name sorts
    after cloee and oracle).
    """
    model, qos, cfg = scenario.link_model(), scenario.qos, scenario.solver
    points = sorted(zip(scenario.distances, scenario.shadowing_draws()), key=lambda p: p[0])
    block, r0ns = N_T_MAX_LIMIT // cfg.n_t_max, qos.aggregate_rate
    # Each static as (name, MODE_TABLE position, n_cpb, n_t), by name, with
    # plain-int entries (a Scenario takes numpy's too).
    statics = sorted((f"static_{a}_{b}", MODE_POSITION[a], int(a), int(b))
                     for a, b in scenario.strategies)
    # Static s is read at its mode's position and at the s-th frame size.
    sizes = np.array([n_t for _, _, _, n_t in statics])
    positions, own = [i for _, i, _, _ in statics], range(len(statics))
    rows = []
    for start in range(0, len(points), block):
        chunk = points[start:start + block]
        cols = columns([model.env(d, chi) for d, chi in chunk])
        # Read the statics before the solvers run: holding these arrays across
        # them makes every block fault the oracle's grid in again (~190 minor
        # faults per hospital sweep instead of ~13, ~0.3 ms).
        static_values = [a[:, positions, own].tolist() for a in cols.eta_rate(sizes)]
        for (d, _), env, cloee, oracle, static_etas, static_rates in zip(
                chunk, cols.envs, solve_envs(cols, qos, cfg), search_envs(cols, qos, cfg),
                *static_values):
            rows += [SweepRow(d, strategy, res.n_cpb_star, res.n_t_star, res.eta, res.rate,
                              env[MODE_POSITION[res.n_cpb_star]].success(res.n_t_star),
                              res.feasible, res.branch)
                     for strategy, res in (("cloee", cloee), ("oracle", oracle))]
            rows += [SweepRow(d, name, n_cpb, n_t, eta, rate, env[i].success(n_t),
                              rate >= r0ns, "static")
                     for (name, i, n_cpb, n_t), eta, rate in zip(statics, static_etas,
                                                                 static_rates)]
    return rows


def _csv(header: str, rows) -> str:
    """header plus one line per row, newline-terminated: the one cell rule of
    every CSV the CLI writes.  True/False are true/false, None is an empty
    cell and any other value is str(v), for a float its shortest repr."""
    # A column at a time: one comprehension per column instead of one per
    # row, which on CPython 3.11 costs a function call each.
    columns = [["true" if v is True else "false" if v is False
                else "" if v is None else str(v) for v in column]
               for column in zip(*rows)]
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def rows_to_csv(rows: list[SweepRow]) -> str:
    return _csv(CSV_HEADER, rows)


def _write(out_dir: str | Path, texts: dict[str, str]) -> list[Path]:
    """Write each named text into out_dir, made if missing; returns the paths
    in the order of texts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text)
    return [out_dir / name for name in texts]


def _with_charts(texts: dict[str, str], fmt: str, prefix: str, series, title: str,
                 x_label: str) -> dict[str, str]:
    """texts plus, for fmt="svg", the eta and rate line charts
    <prefix>_<metric>.svg of series(metric); a fmt other than csv|svg raises."""
    if fmt == "csv":
        return texts
    if fmt != "svg":
        raise ValueError(f"format must be csv|svg, got {fmt!r}")
    return texts | {f"{prefix}_{metric}.svg": svgplot.render_lines(
                        series(metric), title=f"{metric} vs {title}",
                        x_label=x_label, y_label=label)
                    for metric, label in (("eta", "bits/Joule"), ("rate", "bits/s"))}


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
    columns = [(strat, [r.distance for r in groups[strat]], groups[strat])
               for strat in sorted(groups)]

    def series(metric: str) -> list:
        return [(strat, distances, [getattr(r, metric) for r in group])
                for strat, distances, group in columns]

    return _write(out_dir, _with_charts({"sweep.csv": rows_to_csv(rows)}, fmt, "sweep",
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
    """Write curves.csv and curve_marks.csv (plus curves_eta.svg and
    curves_rate.svg for fmt="svg"); returns the written paths."""
    curve_rows, mark_rows = [], []
    series: dict[str, list] = {"eta": [], "rate": []}
    for sol, nts, etas, rates in compute_curves(model, distance, qos, cfg, chi):
        n_cpb = sol.n_cpb_star
        curve_rows += zip([n_cpb] * len(nts), nts.tolist(), etas.tolist(), rates.tolist())
        mark_rows.append((n_cpb, sol.nee, sol.nthr, sol.n_t_star, sol.branch, sol.feasible))
        series["eta"].append((f"n_cpb={n_cpb}", nts, etas))
        series["rate"].append((f"n_cpb={n_cpb}", nts, rates))
    texts = {"curves.csv": _csv(CURVE_HEADER, curve_rows),
             "curve_marks.csv": _csv(MARKS_HEADER, mark_rows)}
    return _write(out_dir, _with_charts(texts, fmt, "curves", series.__getitem__,
                                        f"frame size at {distance} m", "n_t (bits)"))
