"""The cloee benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload sweep-hospital --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it measures the package in src/.  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
repeat every metric with its unit and sample count, the run record and any
failing inputs.  perfbench/out/ receives the full run record and, for traced
runs, the spans.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import source
from workloads import WORKLOADS, Context, digest

SETUP_RUNS = 11         # cold starts per run; setup_s is their median
WARMUP_OPS = 2
POOL_PAIRS = 3          # serial / workers=2 sweep pairs for sweep.pool_speedup_w2
# Host-speed calibration.  The shared hosts this runs on drift by 20-40% in
# speed over seconds to minutes, and the drift moves op latencies and a fixed
# Python + numpy kernel together.  The kernel runs between ops (never inside
# the timed op) and every reported time is scaled by CAL_REF_S / (kernel time
# next to it): the time the op would take on a host where the kernel takes
# CAL_REF_S, about what it takes on the 2-core Xeon VM where the benchmark was
# tuned.  Raw times are printed beside them and kept in the run record.
CAL_REF_S = 0.0025
CAL_EVERY_S = 0.05      # op time between two kernel runs


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0       # ops that returned an output failing its check
    failures: list[str] = dataclasses.field(default_factory=list)

    def add(self, failure: str | None, raised: bool = False) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.wrong += not raised
            self.failures.append(failure)


# ---------------------------------------------------------------------------
# run record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = source.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = source.ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (source.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((source.SRC / "cloee").rglob("*.py")):
        h.update(path.relative_to(source.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def calibration_kernel() -> float:
    """Fixed work in the mix the workloads do: a scalar Python loop, numpy on
    0-d values, on short arrays and on codeword-grid-sized arrays."""
    import numpy as np

    x = 0.0
    for i in range(3000):
        x += math.exp(-i * 1e-5) * (i % 7)
    y = 0.5
    for _ in range(300):
        y = float(np.exp(np.asarray(y) * -0.5))
    for n, reps in ((64, 150), (8192, 20)):
        a = np.arange(float(n))
        for _ in range(reps):
            a = np.exp(-a * 1e-3) + a * 0.5
        x += float(a[0])
    return x + y


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


@dataclasses.dataclass
class Sample:
    seconds: float          # raw wall time of the op
    passed: bool
    index: int
    cal: float = CAL_REF_S  # kernel time measured next to the op

    @property
    def scaled(self) -> float:
        return self.seconds * CAL_REF_S / self.cal


def measure_setup() -> tuple[list[Sample], dict[str, float]]:
    """Wall time of fresh interpreters doing import + parse + LinkModel."""
    cmd = [sys.executable, str(source.BENCH_DIR / "setup_probe.py"), str(source.SCENARIO)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)   # compile .pyc once
    calibrate()   # imports numpy into this process
    samples, parts = [], []
    for i in range(SETUP_RUNS):
        before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        samples.append(Sample(wall, True, i, (before + calibrate()) / 2))
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    factor = CAL_REF_S / statistics.median(s.cal for s in samples)
    split = {k: statistics.median(p[k] for p in parts) * factor for k in parts[0]}
    return samples, split


def ops_for(workload, seconds: float) -> int:
    """Ops in a loop of `seconds` of op time at the reference host speed.

    A run makes a fixed number of ops rather than stopping on the clock, so
    the ops it attempts and the failures among them depend only on the
    arguments; on a host slower or faster than the reference it takes longer
    or shorter."""
    return max(1, round(seconds * workload.ops_per_s))


def run_op(workload, index: int, tally: Tally, tracer=None) -> Sample:
    """Op number `index` (on input `index`, wrapping), timed, then its untimed check."""
    x = workload.inputs[index % len(workload.inputs)]
    op = workload.prepare(x)
    if tracer is not None:
        tracer.op = index
        op = (lambda f: lambda: tracer.span("bench.op", f))(op)
    t0 = time.perf_counter()
    try:
        result = op()
    except Exception as exc:   # noqa: BLE001 - a raising op is a failed op; the run goes on
        elapsed = time.perf_counter() - t0
        tally.add(workload.describe_failure(x, exc), raised=True)
        return Sample(elapsed, False, index)
    elapsed = time.perf_counter() - t0
    if tracer is None:
        failure = workload.check(x, result)
    else:
        failure = tracer.span("bench.check", workload.check, x, result)
    tally.add(failure)
    return Sample(elapsed, failure is None, index)


def closed_loop(workload, n_ops: int, tally: Tally, tracer=None) -> list[Sample]:
    """`n_ops` back-to-back ops, going round the workload's inputs, with the
    calibration kernel run between ops."""
    samples: list[Sample] = []
    cal_events: list[float] = []
    event_of: list[int] = []     # calibration event that follows each sample
    since_cal = 0.0
    for index in range(n_ops):
        sample = run_op(workload, index, tally, tracer)
        samples.append(sample)
        event_of.append(len(cal_events))
        since_cal += sample.seconds
        if since_cal >= CAL_EVERY_S:
            cal_events.append(calibrate())
            since_cal = 0.0
    if not cal_events or event_of[-1] == len(cal_events):
        cal_events.append(calibrate())
    # One kernel run is itself noisy; each op is scaled by the median of the
    # five runs around the one that followed it.
    for sample, j in zip(samples, event_of):
        sample.cal = statistics.median(cal_events[max(0, j - 2):j + 3])
    return samples


def throughput(samples: list[Sample], scaled: bool = True) -> float:
    """Passed ops per second of op time."""
    busy = sum(s.scaled if scaled else s.seconds for s in samples)
    return sum(s.passed for s in samples) / busy if busy else 0.0


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def paired_solves(ctx: Context, workload, ops: list[int]):
    """Untraced cloee vs exhaustive_search on the solve inputs of the given ops,
    alternating which goes first.  Returns (cloee ms, oracle ms, pairs), scaled
    to the reference host speed."""
    optimizer = ctx.cloee.optimizer
    model, cfg = ctx.model, ctx.scenario.solver
    t_cloee = t_oracle = 0.0
    pairs = 0
    cal_before = calibrate()
    for i in ops:
        for d, chi, qos in workload.solve_inputs(workload.inputs[i % len(workload.inputs)]):
            first, second = ((optimizer.cloee, optimizer.exhaustive_search) if pairs % 2 == 0
                             else (optimizer.exhaustive_search, optimizer.cloee))
            try:
                t0 = time.perf_counter()
                first(model, d, qos, cfg, chi)
                t1 = time.perf_counter()
                second(model, d, qos, cfg, chi)
                t2 = time.perf_counter()
            except Exception:   # noqa: BLE001 - the op itself already counted this input as failed
                continue
            a, b = (t1 - t0, t2 - t1) if pairs % 2 == 0 else (t2 - t1, t1 - t0)
            t_cloee += a
            t_oracle += b
            pairs += 1
    if not pairs:
        return 0.0, 0.0, 0
    scale = 1e3 / pairs * CAL_REF_S / ((cal_before + calibrate()) / 2)
    return t_cloee * scale, t_oracle * scale, pairs


def pool_speedup(ctx: Context, tally: Tally) -> float:
    """Median serial sweep time over median workers=2 time, same seeded sweep
    (the default hospital grid, shadowing off).  Both outputs must match."""
    fields = {f.name for f in dataclasses.fields(ctx.scenario)}
    if "workers" not in fields:
        print("note: Scenario has no workers knob; sweep.pool_speedup_w2 reads 1.0")
        return 1.0
    sweep = ctx.cloee.sweep
    base = dataclasses.replace(ctx.scenario, shadowing=False)
    pinned = os.sched_getaffinity(0) if ctx.cpus else None
    if pinned is not None:
        os.sched_setaffinity(0, ctx.cpus)   # let the pool use every CPU
    times: dict[int, list[float]] = {1: [], 2: []}
    outputs = set()
    for k in range(POOL_PAIRS):
        for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
            scenario = dataclasses.replace(base, workers=workers)
            t0 = time.perf_counter()
            outputs.add(sweep.rows_to_csv(sweep.run_sweep(scenario)))
            times[workers].append(time.perf_counter() - t0)
    if pinned is not None:
        os.sched_setaffinity(0, pinned)
    tally.add(None if len(outputs) == 1 else "pool probe: workers=2 CSV differs from serial CSV")
    return statistics.median(times[1]) / statistics.median(times[2])


# ---------------------------------------------------------------------------
# the run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source.add_src_to_path()
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    if cpus:
        # Ops and the calibration kernel share one CPU, so the kernel sees
        # the speed the ops see.
        os.sched_setaffinity(0, {max(cpus)})
    load_before = os.getloadavg()
    setup, setup_split = measure_setup()

    cloee = source.import_cloee()
    importlib.import_module("cloee.cli")   # the package does not import its CLI
    work_dir = source.OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    text = source.SCENARIO.read_text()
    ctx = Context(cloee=cloee, scenario_text=text,
                  scenario=cloee.scenario.parse_scenario(text, str(source.SCENARIO)),
                  work_dir=work_dir, cpus=cpus)
    kind = WORKLOADS[args.workload]
    # A traced run needs only the inputs of its traced ops; its untraced loop
    # goes round the same ones.
    n_inputs = kind.traced_ops if args.trace else ops_for(kind, args.seconds)
    workload = kind(ctx, args.seed, n_inputs)
    tally = Tally()
    record_samples = []
    try:
        # Warm-up ops are not counted: their inputs are counted in the loop.
        closed_loop(workload, WARMUP_OPS, Tally())
        if args.trace == 0:
            samples = closed_loop(workload, n_inputs, tally)
            metrics, notes = end_to_end(args, setup, samples, tally)
            record_samples = [dataclasses.astuple(s) for s in samples]
        else:
            metrics, notes = traced_run(args, ctx, workload, tally, setup_split)
        for failure in workload.final_checks():
            tally.add(failure)
    finally:
        for path in sorted(work_dir.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        work_dir.rmdir()

    record = run_record()
    record.update(load_before=load_before, load_after=os.getloadavg(),
                  inputs_sha256=digest(workload), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, cal_ref_s=CAL_REF_S,
                  setup_cold_starts=[dataclasses.astuple(s) for s in setup],
                  setup_split_scaled=setup_split, samples=record_samples,
                  sample_fields=[f.name for f in dataclasses.fields(Sample)])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("record " + json.dumps(record, sort_keys=True))
    for line in notes:
        print(line)
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"(failed={tally.failed} attempted={tally.attempted} wrong_outputs={tally.wrong})")
    distinct = collections.Counter(tally.failures)
    for failure, times in list(distinct.items())[:20]:
        print(f"failed: {failure}" + (f" (x{times})" if times > 1 else ""))
    if len(distinct) > 20:
        print(f"failed: ... {len(distinct) - 20} more distinct failures in the run record")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, failures=tally.failures, notes=notes)
    source.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = source.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def end_to_end(args, setup: list[Sample], samples: list[Sample], tally: Tally):
    passed = [s for s in samples if s.passed]
    if not passed:
        raise SystemExit(f"perfbench: no op of {args.workload} passed; failures: {tally.failures[:5]}")
    scaled = sorted(s.scaled for s in passed)
    raw = sorted(s.seconds for s in passed)
    p50, _ = percentile(scaled, 0.50)
    p90, beyond = percentile(scaled, 0.90)
    setup_s = statistics.median(s.scaled for s in setup)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (throughput(samples), "1/s"),
        "p50_ms": (p50 * 1e3, "ms"),
        "p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    cal = statistics.median(s.cal for s in samples) * 1e3
    notes = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    notes[0] += (f" (median of {len(setup)} cold starts; raw "
                 f"{statistics.median(s.seconds for s in setup):.6g} s)")
    notes[1] += (f" ({len(passed)} passed of {len(samples)} timed ops; raw "
                 f"{throughput(samples, scaled=False):.6g} 1/s over "
                 f"{sum(s.seconds for s in samples):.3f} s of op time)")
    notes[2] += f" (samples={len(passed)}; raw {percentile(raw, 0.50)[0] * 1e3:.6g} ms)"
    notes[3] += (f" (samples={len(passed)}, {beyond} beyond p90; raw "
                 f"{percentile(raw, 0.90)[0] * 1e3:.6g} ms)")
    notes.append(f"host calibration: kernel median {cal:.4g} ms against the "
                 f"{CAL_REF_S * 1e3:g} ms reference")
    return metrics, notes


SCALED_UNITS = ("ms", "ms/op")


def traced_run(args, ctx, workload, tally, setup_split):
    from tracer import Tracer, layer_metrics

    # The untraced loop goes round the inputs the traced ops get, so the two
    # throughputs differ by the tracing overhead alone.
    untraced = closed_loop(workload, max(workload.traced_ops, ops_for(workload, args.seconds / 2)), tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(workload, workload.traced_ops, tally, tracer)
    finally:
        tracer.uninstall()
    passed = [s.index for s in traced if s.passed]
    factor = CAL_REF_S / statistics.median(s.cal for s in traced)
    metrics = {k: (v * factor if u in SCALED_UNITS else v, u)
               for k, (v, u) in layer_metrics(tracer, set(passed)).items()}
    cloee_ms, oracle_ms, pairs = paired_solves(ctx, workload, passed)
    metrics.update({
        "optimizer.cloee.ms": (cloee_ms, "ms"),
        "optimizer.exhaustive_search.ms": (oracle_ms, "ms"),
        "optimizer.cloee_over_oracle": (cloee_ms / oracle_ms if oracle_ms else 0.0, "ratio"),
        "sweep.pool_speedup_w2": (pool_speedup(ctx, tally), "ratio"),
        "scenario.parse_scenario.ms": (setup_split["parse_scenario_ms"], "ms"),
        "init.import_s": (setup_split["import_s"], "s"),
        "init.import_numpy_s": (setup_split["import_numpy_s"], "s"),
        "trace.untraced_ops_per_s": (throughput(untraced), "1/s"),
        "trace.traced_ops_per_s": (throughput(traced), "1/s"),
        "trace.overhead_ops_per_s": (throughput(untraced) - throughput(traced), "1/s"),
    })
    spans_path = source.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    notes = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    notes.append(f"traced ops: {len(passed)} passed of {workload.traced_ops}; "
                 f"cloee/oracle base: {pairs} paired solves, oracle {oracle_ms:.4g} ms each; "
                 f"spans: {len(tracer.spans)} in {spans_path.relative_to(source.ROOT)}")
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
