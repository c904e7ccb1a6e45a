"""The three workloads: inputs made from the seed, one op, and its output check.

Each workload is a closed loop with one caller: the next op starts when the
previous one and its check are done.  A run makes a fixed number of ops, one
per input (the inputs wrap when there are fewer), so the ops a run attempts,
and those that fail, are the same on every run with the same arguments.  Ops
look cloee functions up through their modules at call time, so a traced run
sees every call.

  sweep-hospital  one op = run_sweep + rows_to_csv of the 91-distance
                  hospital sweep, shadowing on, each op with its own sweep
                  seed.  A run of n ops runs the sweeps of seeds s..s+n-1
                  (s: the scenario's seed) in the order --seed picks, so every
                  --seed runs the same sweeps, failing ones included.  The
                  paper's headline figure; channel, reliability and metrics do
                  most of the work and the dual branch is almost never reached.
  solve-binding   one op = one cloee() call on a frozen (distance, chi, r0, n_s)
                  whose rate target binds in at least one mode, which sends a
                  per-mode solve into the dual branch; the oracle is the check.
                  A run of n ops solves the first n frozen rows in the order
                  --seed picks, so every seed measures the same work: op
                  costs spread widely (p50 about 6 ms, p90 about 30 ms).
  curves-svg      one op = `cloee curves --format svg` in process at a seeded
                  distance in 4-9 m: scalar eta/rate evaluation, cli, scenario
                  loading, compute_curves, svgplot and four file writes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import source


@dataclasses.dataclass
class Context:
    cloee: object            # the imported package, submodules loaded
    scenario_text: str
    scenario: object         # cloee.scenario.Scenario parsed from scenario_text
    work_dir: Path
    cpus: set[int]           # the CPUs the run may use; it pins itself to one of them

    @property
    def model(self):
        return self.scenario.link_model()


def _same_result(a, b) -> bool:
    return (a.n_t_star, a.n_cpb_star, a.eta, a.feasible) == (b.n_t_star, b.n_cpb_star, b.eta, b.feasible)


def _result_text(r) -> str:
    return f"n_t={r.n_t_star} n_cpb={r.n_cpb_star} eta={r.eta!r} feasible={r.feasible}"


class SweepHospital:
    name = "sweep-hospital"
    traced_ops = 4
    ops_per_s = 4.5     # at the reference host speed (run.CAL_REF_S); sizes a run

    def __init__(self, ctx: Context, seed: int, n: int):
        self.ctx = ctx
        self.inputs = [ctx.scenario.seed + i for i in range(n)]
        random.Random(seed).shuffle(self.inputs)
        self.digest_text = ctx.scenario_text + "\nseeds=" + ",".join(map(str, self.inputs))
        self._reference: tuple[int, str] | None = None   # (seed, sha256 of its CSV)

    def _scenario(self, seed: int):
        return dataclasses.replace(self.ctx.scenario, seed=seed)

    def prepare(self, seed: int):
        scenario = self._scenario(seed)
        sweep = self.ctx.cloee.sweep

        def op():
            rows = sweep.run_sweep(scenario)
            return rows, sweep.rows_to_csv(rows)
        return op

    def check(self, seed: int, result) -> str | None:
        rows, csv = result
        pairs: dict[float, dict[str, object]] = {}
        for r in rows:
            if r.strategy in ("cloee", "oracle"):
                pairs.setdefault(r.distance, {})[r.strategy] = r
        distances = self.ctx.scenario.distances
        if sorted(pairs) != sorted(distances):
            return f"seed={seed}: cloee/oracle rows cover {len(pairs)} of {len(distances)} distances"
        for d, pair in sorted(pairs.items()):
            a, b = pair.get("cloee"), pair.get("oracle")
            if a is None or b is None:
                return f"seed={seed} distance={d!r}: missing cloee or oracle row"
            if (a.n_cpb, a.n_t, a.eta, a.feasible) != (b.n_cpb, b.n_t, b.eta, b.feasible):
                return (f"seed={seed} distance={d!r}: cloee (n_cpb={a.n_cpb} n_t={a.n_t} "
                        f"eta={a.eta!r} feasible={a.feasible}) != oracle (n_cpb={b.n_cpb} "
                        f"n_t={b.n_t} eta={b.eta!r} feasible={b.feasible})")
        if self._reference is None:
            self._reference = (seed, hashlib.sha256(csv.encode()).hexdigest())
        return None

    def describe_failure(self, seed: int, exc: Exception) -> str:
        """Name the first (distance, chi) of the sweep whose solve raises."""
        scenario = self._scenario(seed)
        optimizer = self.ctx.cloee.optimizer
        model = scenario.link_model()
        for d, chi in zip(scenario.distances, scenario.shadowing_draws()):
            for label, solve in (("cloee", optimizer.cloee), ("oracle", optimizer.exhaustive_search)):
                try:
                    solve(model, d, scenario.qos, scenario.solver, chi)
                except Exception as inner:   # noqa: BLE001 - locating a failure
                    return (f"seed={seed} distance={d!r} chi={chi!r} {label}: "
                            f"{type(inner).__name__}: {inner}")
        return f"seed={seed}: {type(exc).__name__}: {exc}"

    def solve_inputs(self, seed: int):
        scenario = self._scenario(seed)
        return [(d, chi, scenario.qos) for d, chi in zip(scenario.distances, scenario.shadowing_draws())]

    def final_checks(self) -> list[str | None]:
        """Re-run the first checked sweep: its CSV must be byte-identical.

        One entry per extra op, None when it passed."""
        if self._reference is None:
            return []
        seed, digest = self._reference
        try:
            _, csv = self.prepare(seed)()
        except Exception as exc:   # noqa: BLE001 - reported as a failed op
            return [f"rerun seed={seed}: {type(exc).__name__}: {exc}"]
        if hashlib.sha256(csv.encode()).hexdigest() != digest:
            return [f"rerun seed={seed}: CSV differs from the first run"]
        return [None]


def load_binding_rows(path: Path = source.BINDING_DATA) -> list[tuple[float, float, float, int]]:
    lines = path.read_text().splitlines()
    if lines[0] != "distance,chi,r0,n_s":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        d, chi, r0, n_s = line.split(",")
        rows.append((float(d), float(chi), float(r0), int(n_s)))
    return rows


class SolveBinding:
    name = "solve-binding"
    traced_ops = 128
    ops_per_s = 90.0

    def __init__(self, ctx: Context, seed: int, n: int):
        self.ctx = ctx
        # The first n rows (all when n is larger; the file is in random order),
        # in the order the seed picks.
        self.inputs = load_binding_rows()[:n]
        random.Random(seed).shuffle(self.inputs)
        self.digest_text = "\n".join(f"{d!r},{chi!r},{r0!r},{n_s}" for d, chi, r0, n_s in self.inputs)
        self._model = ctx.model
        self._qos = ctx.cloee.metrics.QosSpec

    def prepare(self, row):
        d, chi, r0, n_s = row
        qos, model, cfg = self._qos(r0=r0, n_s=n_s), self._model, self.ctx.scenario.solver
        optimizer = self.ctx.cloee.optimizer
        return lambda: optimizer.cloee(model, d, qos, cfg, chi)

    def check(self, row, result) -> str | None:
        d, chi, r0, n_s = row
        oracle = self.ctx.cloee.optimizer.exhaustive_search(
            self._model, d, self._qos(r0=r0, n_s=n_s), self.ctx.scenario.solver, chi)
        if _same_result(result, oracle):
            return None
        return f"input={row}: cloee ({_result_text(result)}) != oracle ({_result_text(oracle)})"

    def describe_failure(self, row, exc: Exception) -> str:
        return f"input={row}: {type(exc).__name__}: {exc}"

    def solve_inputs(self, row):
        d, chi, r0, n_s = row
        return [(d, chi, self._qos(r0=r0, n_s=n_s))]

    def final_checks(self):
        return []


CURVE_FILES = ("curves.csv", "curve_marks.csv", "curves_eta.svg", "curves_rate.svg")


class CurvesSvg:
    name = "curves-svg"
    traced_ops = 32
    ops_per_s = 40.0

    def __init__(self, ctx: Context, seed: int, n: int):
        self.ctx = ctx
        rng = random.Random(seed)
        self.inputs = [round(rng.uniform(4.0, 9.0), 3) for _ in range(n)]
        self.digest_text = ctx.scenario_text + "\ndistances=" + ",".join(map(repr, self.inputs))
        self.config = ctx.work_dir / "hospital.conf"
        self.config.write_text(ctx.scenario_text)
        self.out = ctx.work_dir / "curves"
        self._stdout = io.StringIO()
        scenario = ctx.scenario
        self._chi = scenario.shadowing_draws()[0] if scenario.shadowing else 0.0

    def prepare(self, distance: float):
        for name in CURVE_FILES:
            (self.out / name).unlink(missing_ok=True)
        self._stdout.seek(0)
        self._stdout.truncate()
        argv = ["curves", "--distance", repr(distance), "--format", "svg",
                "--config", str(self.config), "--out", str(self.out)]
        cli, sink = self.ctx.cloee.cli, self._stdout

        def op():
            with contextlib.redirect_stdout(sink):
                return cli.main(argv)
        return op

    def check(self, distance: float, rc) -> str | None:
        where = f"distance={distance!r}"
        if rc != 0:
            return f"{where}: exit code {rc}"
        missing = [n for n in CURVE_FILES if not (self.out / n).is_file()]
        if missing:
            return f"{where}: not written: {', '.join(missing)}"
        target = self.ctx.scenario.qos.aggregate_rate
        by_mode: dict[int, list[tuple[int, float, float]]] = {}
        for line in (self.out / "curves.csv").read_text().splitlines()[1:]:
            n_cpb, n_t, eta, rate = line.split(",")
            by_mode.setdefault(int(n_cpb), []).append((int(n_t), float(eta), float(rate)))
        marks = (self.out / "curve_marks.csv").read_text().splitlines()[1:]
        if sorted(int(m.split(",")[0]) for m in marks) != sorted(by_mode):
            return f"{where}: curve_marks.csv modes differ from curves.csv modes"
        for line in marks:
            n_cpb, _, _, nt_star, *_ = line.split(",")
            feasible = [p for p in by_mode[int(n_cpb)] if p[2] >= target]
            if feasible:
                expect = max(feasible, key=lambda p: p[1])[0]   # first maximum: smallest n_t
            else:
                expect = max(by_mode[int(n_cpb)], key=lambda p: p[2])[0]
            if int(nt_star) != expect:
                return f"{where} n_cpb={n_cpb}: nt_star={nt_star}, argmax over curves.csv is {expect}"
        for name in ("curves_eta.svg", "curves_rate.svg"):
            try:
                ET.fromstring((self.out / name).read_text())
            except ET.ParseError as exc:
                return f"{where}: {name} is not XML: {exc}"
        return None

    def describe_failure(self, distance: float, exc: Exception) -> str:
        return f"distance={distance!r}: {type(exc).__name__}: {exc}"

    def solve_inputs(self, distance: float):
        return [(distance, self._chi, self.ctx.scenario.qos)]

    def final_checks(self):
        return []


WORKLOADS = {w.name: w for w in (SweepHospital, SolveBinding, CurvesSvg)}


def digest(workload) -> str:
    return hashlib.sha256(workload.digest_text.encode()).hexdigest()

