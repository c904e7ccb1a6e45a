"""Spans around calls into each cloee module, recorded from outside the package.

A function is wrapped at every name a caller can look it up by: each module
of the package that holds the function object gets the wrapper in its place,
so `cloee.metrics.bch_block_success` and `cloee.reliability.bch_block_success`
are both traced.  Methods are wrapped on their class.  A target that a later
version of the package no longer has is skipped and reads as zero calls.

Spans are kept in memory as (name id, start ns, end ns, parent index, op id,
value) and written out once the run ends.  A span's self time is its duration
minus the time its child spans cover; calls are single-threaded and nest, so
the children's durations add up to the time they cover.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from pathlib import Path

# (module, attribute, span name)
FUNCTIONS = (
    ("cloee.channel", "link_budget", "channel.link_budget"),
    ("cloee.channel", "bit_error_prob", "channel.bit_error_prob"),
    ("cloee.reliability", "bch_block_success", "reliability.bch_block_success"),
    ("cloee.reliability", "bch_block_log_success", "reliability.bch_block_log_success"),
    ("cloee.reliability", "kasami_success", "reliability.kasami_success"),
    ("cloee.reliability", "shr_success", "reliability.shr_success"),
    ("cloee.reliability", "ppdu_success", "reliability.ppdu_success"),
    ("cloee.optimizer", "solve_mode", "optimizer.solve_mode"),
    ("cloee.optimizer", "dual_inner_max", "optimizer.dual_inner_max"),
    ("cloee.optimizer", "snap_to_grid", "optimizer.snap_to_grid"),
    ("cloee.optimizer", "cloee", "optimizer.cloee"),
    ("cloee.optimizer", "exhaustive_search", "optimizer.exhaustive_search"),
    ("cloee.sweep", "run_sweep", "sweep.run_sweep"),
    ("cloee.sweep", "rows_to_csv", "sweep.rows_to_csv"),
    ("cloee.sweep", "compute_curves", "sweep.compute_curves"),
    ("cloee.sweep", "emit_curves", "sweep.emit_curves"),
    ("cloee.sweep", "emit_fixed_distance_curves", "sweep.emit_fixed_distance_curves"),
    ("cloee.svgplot", "render_lines", "svgplot.render_lines"),
    ("cloee.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("cloee.scenario", "load_scenario", "scenario.load_scenario"),
    ("cloee.cli", "main", "cli.main"),
)

# (module, class, method, span name)
METHODS = (
    ("cloee.metrics", "LinkModel", "mode_metrics", "metrics.mode_metrics"),
    ("cloee.metrics", "ModeMetrics", "__init__", "metrics.ModeMetrics"),
    ("cloee.metrics", "ModeMetrics", "eta", "metrics.eval.eta"),
    ("cloee.metrics", "ModeMetrics", "rate", "metrics.eval.rate"),
    ("cloee.metrics", "ModeMetrics", "success", "metrics.eval.success"),
    ("cloee.metrics", "ModeMetrics", "reliability", "metrics.eval.reliability"),
)


class Tracer:
    """Installs span-recording wrappers; `op` tags the spans of the current op."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrapper(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        nid = self.name_id(name)
        tracer = self
        if name == "optimizer.solve_mode":
            # The branch is known only from the result; dual solves also
            # carry their iteration count.
            def finish(args, kwargs, res):
                return (self.name_id(f"{name}.{getattr(res, 'branch', 'unknown')}"),
                        getattr(res, "iterations", 0))
        elif name == "metrics.ModeMetrics":
            def finish(args, kwargs, res):
                return nid, getattr(args[0], "distance", None)
        elif name.startswith("metrics.eval."):
            scalar, array = self.name_id(name + ".scalar"), self.name_id(name + ".array")

            def finish(args, kwargs, res):
                n_t = args[1] if len(args) > 1 else next(iter(kwargs.values()))
                return (array if getattr(n_t, "ndim", 0) else scalar), None
        else:
            finish = None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, t0, clock(), parent, tracer.op, None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            if finish is None:
                spans[idx] = (nid, t0, t1, parent, tracer.op, None)
            else:
                end_id, value = finish(args, kwargs, res)
                spans[idx] = (end_id, t0, t1, parent, tracer.op, value)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span of its own (the benchmark's op and check)."""
        return self._wrapper(fn, name)(*args)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cloee" or n.startswith("cloee."))]
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(importlib.import_module(mod_name), attr, None)
            if fn is None:
                continue
            wrapper = self._wrapper(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            fn = None if cls is None else cls.__dict__.get(attr)
            if fn is None:
                continue
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrapper(fn, name))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def self_times_ns(self) -> list[int]:
        covered = [0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\tvalue\n")
            for nid, t0, t1, parent, op, value in self.spans:
                out.write(f"{self.names[nid]}\t{t0}\t{t1}\t{parent}\t{op}\t"
                          f"{'' if value is None else value}\n")


def layer_metrics(tracer: Tracer, ops: set[int]) -> dict[str, tuple[float, str]]:
    """Per-op counts and self times over the given (passed, traced) ops."""
    n_ops = max(len(ops), 1)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    dur_ns: dict[str, int] = {}
    distances = set()
    dual_iterations = 0
    # Only the op's own calls count: spans inside a "bench.op" span, not the
    # untimed check after it.
    op_id = tracer.name_id("bench.op")
    in_op: list[bool] = []
    for (nid, t0, t1, parent, op, value), own in zip(tracer.spans, tracer.self_times_ns()):
        in_op.append(nid == op_id or (parent >= 0 and in_op[parent]))
        if op not in ops or not in_op[-1]:
            continue
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        dur_ns[name] = dur_ns.get(name, 0) + (t1 - t0)
        if name == "metrics.ModeMetrics":
            distances.add((op, value))
        elif name == "optimizer.solve_mode.dual":
            dual_iterations += value

    def count(*names):
        return sum(calls.get(n, 0) for n in names) / n_ops

    def self_ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / n_ops

    def prefixed(prefix, suffix=""):
        return [n for n in calls if n.startswith(prefix) and n.endswith(suffix)]

    def mean_ms(name):
        return dur_ns.get(name, 0) / 1e6 / calls[name] if calls.get(name) else 0.0

    builds = calls.get("metrics.ModeMetrics", 0)
    dual = calls.get("optimizer.solve_mode.dual", 0)
    out: dict[str, tuple[float, str]] = {
        "channel.bit_error.calls": (count("channel.bit_error_prob"), "calls/op"),
        "channel.bit_error.self_ms": (self_ms("channel.link_budget", "channel.bit_error_prob"), "ms/op"),
        "reliability.bch_block_success.calls": (count("reliability.bch_block_success"), "calls/op"),
        "reliability.bch_block_log_success.calls": (count("reliability.bch_block_log_success"), "calls/op"),
        "reliability.kasami_success.calls": (count("reliability.kasami_success"), "calls/op"),
        "reliability.self_ms": (self_ms(*prefixed("reliability.")), "ms/op"),
        "metrics.mode_metrics.calls": (count("metrics.ModeMetrics"), "calls/op"),
        "metrics.mode_metrics_per_distance": (builds / len(distances) if distances else 0.0, "calls/distance"),
        "metrics.distances_per_op": (len(distances) / n_ops, "distances/op"),
        "metrics.mode_metrics.self_ms": (self_ms("metrics.mode_metrics", "metrics.ModeMetrics"), "ms/op"),
        "metrics.eval.scalar_calls": (count(*prefixed("metrics.eval.", ".scalar")), "calls/op"),
        "metrics.eval.array_calls": (count(*prefixed("metrics.eval.", ".array")), "calls/op"),
        "metrics.eval.self_ms": (self_ms(*prefixed("metrics.eval.")), "ms/op"),
    }
    for branch in ("unconstrained", "dual", "throughput-fallback"):
        name = f"optimizer.solve_mode.{branch}"
        out[f"{name}.calls"] = (count(name), "calls/op")
        out[f"{name}.self_ms"] = (self_ms(name), "ms/op")
    out.update({
        "optimizer.dual_inner_max.calls": (count("optimizer.dual_inner_max"), "calls/op"),
        "optimizer.dual_inner_max.self_ms": (self_ms("optimizer.dual_inner_max"), "ms/op"),
        "optimizer.dual.iterations_per_solve": (dual_iterations / dual if dual else 0.0, "iterations"),
        "optimizer.snap_to_grid.calls": (count("optimizer.snap_to_grid"), "calls/op"),
        "sweep.run_sweep.ms": (mean_ms("sweep.run_sweep"), "ms"),
        "sweep.rows_to_csv.ms": (mean_ms("sweep.rows_to_csv"), "ms"),
        "sweep.compute_curves.self_ms": (self_ms("sweep.compute_curves"), "ms/op"),
        "sweep.emit.self_ms": (self_ms("sweep.emit_curves", "sweep.emit_fixed_distance_curves"), "ms/op"),
        "svgplot.render_lines.calls": (count("svgplot.render_lines"), "calls/op"),
        "svgplot.render_lines.self_ms": (self_ms("svgplot.render_lines"), "ms/op"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms/op"),
        "trace.spans_per_op": (sum(calls.values()) / n_ops, "spans/op"),
    })
    return out
