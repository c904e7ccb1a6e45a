"""Smoke test of the benchmark itself: short runs of every workload.

    python3 perfbench/smoke.py

For each workload it makes one untraced run and two traced runs with the same
seed, each of minimum length, and checks that:

  * the last line is the result object, with every end-to-end metric (untraced)
    or per-layer metric (traced) of BENCHMARK.json, each with its unit;
  * every count metric of the two traced runs is the same, and so are their
    attempted and failed ops;
  * sweep-hospital builds 19 ModeMetrics per distance and sends at most 1% of
    its per-mode solves into the dual branch;
  * solve-binding sends at least one per-mode solve of every op into the dual
    branch.

Exits 1 and names each check that failed.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

import source

SEED = 7
COUNT_UNITS = {"calls/op", "calls/distance", "distances/op", "iterations", "spans/op"}
BRANCHES = ("unconstrained", "dual", "throughput-fallback")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(source.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=source.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ops_with_dual(spans: Path) -> tuple[int, int]:
    """(traced ops, traced ops with at least one dual-branch solve) in a spans file."""
    ops, dual = set(), set()
    with gzip.open(spans, "rt") as lines:
        next(lines)
        for line in lines:
            name, _, _, _, op, _ = line.rstrip("\n").split("\t")
            if name == "bench.op":
                ops.add(op)
            elif name == "optimizer.solve_mode.dual":
                dual.add(op)
    return len(ops), len(ops & dual)


def main() -> int:
    spec = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        results = {"untraced": run(workload, 0), "traced": run(workload, 1), "traced again": run(workload, 1)}
        for label, res in results.items():
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} {label}: result keys")
            expect(res["correct"] and res["attempted"] >= 1, f"{workload} {label}: correct outputs")
            wanted = spec["end_to_end" if label == "untraced" else "per_layer"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == {m["name"]: m["unit"] for m in wanted},
                   f"{workload} {label}: every metric of BENCHMARK.json with its unit")
        first, second = results["traced"]["metrics"], results["traced again"]["metrics"]
        counts = sorted(k for k, v in first.items() if v["unit"] in COUNT_UNITS)
        differ = [k for k in counts if first[k]["value"] != second.get(k, {}).get("value")]
        expect(not differ, f"{workload}: {len(counts)} count metrics repeat exactly {differ or ''}")
        ops = [(r["attempted"], r["failed"]) for r in (results["traced"], results["traced again"])]
        expect(ops[0] == ops[1], f"{workload}: attempted and failed repeat exactly {ops}")

        def value(name: str) -> float:
            return first[name]["value"]

        if workload == "sweep-hospital":
            expect(value("metrics.mode_metrics_per_distance") == 19,
                   "sweep-hospital: 19 ModeMetrics builds per distance")
            solves = sum(value(f"optimizer.solve_mode.{b}.calls") for b in BRANCHES)
            expect(value("optimizer.solve_mode.dual.calls") <= 0.01 * solves,
                   "sweep-hospital: dual solves at most 1% of per-mode solves")
        if workload == "solve-binding":
            ops, dual = ops_with_dual(source.OUT_DIR / f"spans-{workload}-seed{SEED}.tsv.gz")
            expect(ops > 0 and dual == ops, f"solve-binding: {dual} of {ops} traced ops reach the dual branch")
    if problems:
        print(f"{len(problems)} smoke check(s) failed")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
