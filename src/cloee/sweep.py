"""Distance sweeps, static-strategy comparison and CSV emission.

Every evaluation lands in a SweepRow; rows are sorted by (distance, strategy)
before emission.  The reserved strategy ids are "cloee" (the solver) and
"oracle" (exhaustive search); static strategies are named static_<n_cpb>_<n_t>.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .metrics import LinkModel, ModeMetrics, QosSpec
from .optimizer import OptResult, SolverConfig, search_env, solve_env, solve_mode
from .scenario import Scenario
from . import svgplot

CSV_COLUMNS = ("distance", "strategy", "n_cpb", "n_t", "eta_bits_per_joule",
               "rate_bps", "p_ppdu", "feasible", "branch")
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class SweepRow:
    distance: float
    strategy: str
    n_cpb: int
    n_t: int
    eta: float
    rate: float
    p_ppdu: float
    feasible: bool
    branch: str

    def to_csv(self) -> str:
        return ",".join((
            repr(self.distance), self.strategy, str(self.n_cpb), str(self.n_t),
            repr(self.eta), repr(self.rate), repr(self.p_ppdu),
            "true" if self.feasible else "false", self.branch,
        ))


def parse_rows(text: str) -> list[SweepRow]:
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


def _static_row(mm: ModeMetrics, n_t: int, qos: QosSpec) -> SweepRow:
    rate = mm.rate(n_t)
    return SweepRow(
        distance=mm.distance,
        strategy=f"static_{mm.mode.n_cpb}_{n_t}",
        n_cpb=mm.mode.n_cpb,
        n_t=n_t,
        eta=mm.eta(n_t),
        rate=rate,
        p_ppdu=mm.success(n_t),
        feasible=rate >= qos.aggregate_rate,
        branch="static",
    )


def _result_row(mm: ModeMetrics, strategy: str, res: OptResult) -> SweepRow:
    return SweepRow(
        distance=mm.distance,
        strategy=strategy,
        n_cpb=res.n_cpb_star,
        n_t=res.n_t_star,
        eta=res.eta,
        rate=res.rate,
        p_ppdu=mm.success(res.n_t_star),
        feasible=res.feasible,
        branch=res.branch,
    )


def _distance_rows(scenario: Scenario, model: LinkModel, distance: float,
                   chi: float) -> list[SweepRow]:
    """Every row of one distance, all read from its one environment."""
    env = model.env(distance, chi)
    by_cpb = {mm.mode.n_cpb: mm for mm in env}
    rows = [_static_row(by_cpb[n_cpb], n_t, scenario.qos) for n_cpb, n_t in scenario.strategies]
    for strategy, solve in (("cloee", solve_env), ("oracle", search_env)):
        res = solve(env, scenario.qos, scenario.solver)
        rows.append(_result_row(by_cpb[res.n_cpb_star], strategy, res))
    return rows


def run_sweep(scenario: Scenario) -> list[SweepRow]:
    """Evaluate every strategy plus cloee and the oracle on the distance grid.

    Deterministic for a given scenario and seed: shadowing draws are made
    up-front in distance order and rows are sorted before return.
    """
    model = scenario.link_model()
    rows = [row
            for d, chi in zip(scenario.distances, scenario.shadowing_draws())
            for row in _distance_rows(scenario, model, d, chi)]
    rows.sort(key=lambda r: (r.distance, r.strategy))
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    return "\n".join([CSV_HEADER, *(r.to_csv() for r in rows)]) + "\n"


def emit_curves(rows: list[SweepRow], out_dir: str | Path, basename: str = "sweep",
                fmt: str = "csv") -> list[Path]:
    """Write rows as CSV (and optional SVG line charts); returns written paths.

    Refuses to create files for an empty row set.
    """
    if not rows:
        raise ValueError("no rows to emit")
    if fmt not in ("csv", "svg"):
        raise ValueError(f"format must be csv|svg, got {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    csv_path = out_dir / f"{basename}.csv"
    csv_path.write_text(rows_to_csv(rows))
    paths.append(csv_path)
    if fmt == "svg":
        strategies = sorted({r.strategy for r in rows})
        for metric, label in (("eta", "bits/Joule"), ("rate", "bits/s")):
            series = []
            for strat in strategies:
                pts = [(r.distance, getattr(r, metric)) for r in rows if r.strategy == strat]
                series.append((strat, [p[0] for p in pts], [p[1] for p in pts]))
            svg = svgplot.render_lines(series, title=f"{metric} vs distance",
                                       x_label="distance (m)", y_label=label)
            path = out_dir / f"{basename}_{metric}.svg"
            path.write_text(svg)
            paths.append(path)
    return paths


# --------------------------------------------------------------------------
# fixed-distance curves: eta / rate versus frame size for every mode


CURVE_HEADER = "n_cpb,n_t,eta_bits_per_joule,rate_bps"
MARKS_HEADER = "n_cpb,nt_ee,nt_thr,nt_star,branch,feasible"


def compute_curves(model: LinkModel, distance: float, qos: QosSpec,
                   cfg: SolverConfig, chi: float = 0.0):
    """Per-mode eta/rate curves over the codeword grid plus the solution marks.

    Returns (curve_lines, mark_lines) as CSV strings without headers.
    """
    curve_lines: list[str] = []
    mark_lines: list[str] = []
    for mm in model.env(distance, chi):
        k_max = cfg.n_t_max // mm.n
        for k in range(1, k_max + 1):
            n_t = k * mm.n
            curve_lines.append(
                f"{mm.mode.n_cpb},{n_t},{mm.eta(n_t)!r},{mm.rate(n_t)!r}")
        sol = solve_mode(mm, qos, cfg)
        mark_lines.append(
            f"{mm.mode.n_cpb},{sol.nee},{sol.nthr},{sol.n_t},{sol.branch},"
            f"{'true' if sol.feasible else 'false'}")
    return curve_lines, mark_lines


def emit_fixed_distance_curves(model: LinkModel, distance: float, qos: QosSpec,
                               cfg: SolverConfig, out_dir: str | Path,
                               fmt: str = "csv", chi: float = 0.0) -> list[Path]:
    curve_lines, mark_lines = compute_curves(model, distance, qos, cfg, chi)
    if not curve_lines:
        raise ValueError("no curve points to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves_path = out_dir / "curves.csv"
    curves_path.write_text("\n".join([CURVE_HEADER, *curve_lines]) + "\n")
    marks_path = out_dir / "curve_marks.csv"
    marks_path.write_text("\n".join([MARKS_HEADER, *mark_lines]) + "\n")
    paths = [curves_path, marks_path]
    if fmt == "svg":
        by_mode: dict[int, list[tuple[int, float, float]]] = {}
        for line in curve_lines:
            n_cpb, n_t, eta, rate = line.split(",")
            by_mode.setdefault(int(n_cpb), []).append((int(n_t), float(eta), float(rate)))
        for metric, idx, label in (("eta", 1, "bits/Joule"), ("rate", 2, "bits/s")):
            series = [
                (f"n_cpb={n_cpb}", [p[0] for p in pts], [p[idx] for p in pts])
                for n_cpb, pts in sorted(by_mode.items())
            ]
            svg = svgplot.render_lines(series, title=f"{metric} vs frame size at {distance} m",
                                       x_label="n_t (bits)", y_label=label)
            path = out_dir / f"curves_{metric}.svg"
            path.write_text(svg)
            paths.append(path)
    return paths
