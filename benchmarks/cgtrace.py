"""Tracing for the benchmark's traced run, and the per-layer metrics.

The tracer wraps public names of the carnotga package where the calling
module binds them (``carnotga.steering.solve``, ``carnotga.solver.
geometric_product``, ...), so each call across a layer boundary is timed from
outside the program.  Spans stay in memory and are written out at the end.

Two kinds of wrapper exist:

* a span records name, start, end, parent span, op id and the exception it
  ended with, one record per call;
* a leaf serves the geometric-algebra kernel, which the solver calls some
  hundreds of thousands of times in one reference steer.  Leaf calls are
  summed per (leaf, parent span name, op id) into a call count, a time and a
  computed multiply count, and their time is charged to the parent span, so
  self times stay exact without one record per call.

A name that does not exist (a later change may remove or rename it) is
listed as absent and skipped; metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); the module is where the caller looks the
# name up at call time, so the wrapper sees every call made from there
SPANS = (
    ("carnotga.cli", "main", "cli.main"),
    ("carnotga", "steer", "steering.steer"),
    ("carnotga.cli", "steer", "steering.steer"),
    ("carnotga", "report_to_dict", "steering.report"),
    ("carnotga.cli", "report_to_dict", "steering.report"),
    ("carnotga", "verify_report", "steering.verify"),
    ("carnotga.cli", "verify_report", "steering.verify"),
    ("carnotga.steering", "solve", "solver.solve"),
    ("carnotga", "rk4_endpoint", "solver.rk4"),
    ("carnotga.steering", "align_flags", "flags.align"),
    ("carnotga.steering", "frame_flag_36", "flags.frame_flag"),
    ("carnotga.steering", "frame_flag_47", "flags.frame_flag"),
    ("carnotga.steering", "representative_geodesic_36", "models.geodesic"),
    ("carnotga.steering", "representative_geodesic_47", "models.geodesic"),
    ("carnotga.steering", "invariants", "models.invariants"),
)

# geometric-algebra names each calling module imports, and how many scalar
# multiplies one call computes in G_m (a dense product is 4^m)
GA_CALLERS = {
    "solver": ("geometric_product", "grade_project", "inner_product", "outer_product"),
    "models": (
        "geometric_product",
        "grade_project",
        "inner_product",
        "outer_product",
        "pseudoscalar",
        "sandwich",
    ),
    "flags": (
        "dual",
        "geometric_product",
        "grade_project",
        "inner_product",
        "normalize",
        "outer_product",
        "pseudoscalar",
        "reverse",
        "sandwich",
    ),
    "steering": ("sandwich",),
}
_PRODUCTS = {"geometric_product": 1, "outer_product": 1, "inner_product": 1, "dual": 1, "sandwich": 2}


def _mults(fn_name: str):
    factor = _PRODUCTS.get(fn_name, 0)
    if not factor:
        return lambda args: 0
    # sandwich(R, a) takes the dimension from a; the others from their first
    pos = 1 if fn_name == "sandwich" else 0
    return lambda args: factor << (2 * args[pos].dim)


class Tracer:
    """In-memory spans and leaf sums; ``op`` is the id of the running op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op, error, child seconds]
        self.leaves = {}  # (leaf, parent span name, op) -> [calls, seconds, mults]
        self.absent = []
        self.op = None
        self._stack = []
        self._patched = []

    def targets(self):
        yield from SPANS
        for caller, names in GA_CALLERS.items():
            for name in names:
                yield f"carnotga.{caller}", name, None

    @contextmanager
    def installed(self, targets=None):
        """Wrap every target for the duration of the block."""
        for module_name, attr, span_name in targets if targets is not None else self.targets():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if span_name is None:
                caller = module_name.rsplit(".", 1)[-1]
                wrapper = self._leaf(fn, f"ga.{caller}.{attr}", _mults(attr))
            else:
                wrapper = self._span(fn, span_name)
            setattr(module, attr, wrapper)
            self._patched.append((module, attr, fn))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(self._patched):
                setattr(module, attr, fn)
            self._patched.clear()

    def _open(self, name):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]][6] += rec[2] - rec[1]

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def _span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                self._close(rec)

        return wrapper

    def _leaf(self, fn, name, mults):
        spans, stack, leaves = self.spans, self._stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = spans[stack[-1]] if stack else None
                key = (name, parent[0] if parent else None, self.op)
                acc = leaves.get(key)
                if acc is None:
                    acc = leaves[key] = [0, 0.0, 0]
                acc[0] += 1
                acc[1] += dt
                acc[2] += mults(args)
                if parent is not None:
                    parent[6] += dt

        return wrapper

    def dump(self, path):
        """Write spans, leaf sums and absent names as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for i, (name, start, end, parent, op, error, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "span": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": error,
                                     "self": end - start - child}) + "\n")
            for (name, parent, op), (calls, secs, mults) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "parent": parent, "op": op, "calls": calls,
                                     "seconds": secs, "mults": mults}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "ga.calls.solver": "calls/op",
    "ga.calls.steering": "calls/op",
    "ga.calls.models": "calls/op",
    "ga.calls.flags": "calls/op",
    "ga.self_us": "us",
    "ga.mults_computed": "mults/op",
    "models.geodesic.calls": "calls/op",
    "models.geodesic.us": "us",
    "models.invariants.us": "us",
    "solver.solve.s": "s/op",
    "solver.solve.share": "ratio",
    "solver.starts": "starts/steer",
    "solver.converged_ratio": "ratio",
    "solver.roots": "roots/steer",
    "solver.infeasible": "count/op",
    "solver.rk4.s": "s/op",
    "solver.rk4.steps_per_s": "1/s",
    "flags.align.us": "us",
    "flags.frame_flag.us": "us",
    "flags.degenerate": "count/op",
    "steering.steer.self_s": "s/steer",
    "steering.pushforward.us_per_sample": "us",
    "steering.report.us_per_sample": "us",
    "steering.verify.s": "s/op",
    "steering.report_bytes": "bytes/op",
    "cli.main.s": "s/op",
    "cli.self_s": "s/op",
    "op.pushforward_report_rk4_share": "ratio",
    "trace.overhead_frac": "ratio",
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, records, overhead: float) -> dict:
    """Per-layer metrics of one traced pass, per op unless the unit says
    otherwise.  ``records`` are the pass's op records (see cgbench.Record)."""
    n_ops = len(records)
    by_name = {}
    for rec in tracer.spans:
        by_name.setdefault(rec[0], []).append(rec)

    def total(name, parent=None):
        return sum(r[2] - r[1] for r in by_name.get(name, ())
                   if parent is None or (r[3] >= 0 and tracer.spans[r[3]][0] == parent))

    def mean_us(name):
        spans = by_name.get(name, ())
        return _ratio(1e6 * total(name), len(spans))

    def errors(name, error):
        return sum(r[5] == error for r in by_name.get(name, ()))

    def self_total(name):
        return sum(r[2] - r[1] - r[6] for r in by_name.get(name, ()))

    ga_calls = {caller: 0 for caller in GA_CALLERS}
    ga_secs = ga_n = mults = 0
    pushforward_ga = 0.0
    for (leaf, parent, _op), (calls, secs, m) in tracer.leaves.items():
        caller = leaf.split(".")[1]
        ga_calls[caller] += calls
        ga_secs += secs
        ga_n += calls
        mults += m
        if leaf == "ga.steering.sandwich" and parent == "steering.steer":
            pushforward_ga += secs

    steers = [r.info for r in records if "starts_attempted" in r.info]
    starts = sum(i["starts_attempted"] for i in steers)
    steer_ops = {r[4] for r in by_name.get("steering.steer", ())}
    report_ops = {r[4] for r in by_name.get("steering.report", ())}
    samples = {i: rec.info.get("samples", 0) for i, rec in enumerate(records)}
    steer_samples = sum(samples.get(op, 0) for op in steer_ops)
    report_samples = sum(samples.get(op, 0) for op in report_ops)
    rk4_steps = sum(r.info.get("rk4_steps", 0) for r in records)

    pushforward = pushforward_ga + total("models.geodesic", parent="steering.steer")
    report = total("steering.report") + total("bench.json") + total("steering.verify")
    values = {
        **{f"ga.calls.{c}": _ratio(n, n_ops) for c, n in ga_calls.items()},
        "ga.self_us": _ratio(1e6 * ga_secs, ga_n),
        "ga.mults_computed": _ratio(mults, n_ops),
        "models.geodesic.calls": _ratio(len(by_name.get("models.geodesic", ())), n_ops),
        "models.geodesic.us": mean_us("models.geodesic"),
        "models.invariants.us": mean_us("models.invariants"),
        "solver.solve.s": _ratio(total("solver.solve"), n_ops),
        "solver.solve.share": _ratio(total("solver.solve"), total("steering.steer")),
        "solver.starts": _ratio(starts, len(steers)),
        "solver.converged_ratio": _ratio(sum(i["converged"] for i in steers), starts),
        "solver.roots": _ratio(sum(i["roots"] for i in steers), len(steers)),
        "solver.infeasible": _ratio(errors("steering.steer", "InfeasibleTarget"), n_ops),
        "solver.rk4.s": _ratio(total("solver.rk4"), n_ops),
        "solver.rk4.steps_per_s": _ratio(rk4_steps, total("solver.rk4")),
        "flags.align.us": mean_us("flags.align"),
        "flags.frame_flag.us": mean_us("flags.frame_flag"),
        "flags.degenerate": _ratio(errors("flags.frame_flag", "DegenerateConfiguration"), n_ops),
        "steering.steer.self_s": _ratio(self_total("steering.steer"),
                                        len(by_name.get("steering.steer", ()))),
        "steering.pushforward.us_per_sample": _ratio(1e6 * pushforward, steer_samples),
        "steering.report.us_per_sample": _ratio(1e6 * total("steering.report"), report_samples),
        "steering.verify.s": _ratio(total("steering.verify"), n_ops),
        "steering.report_bytes": _ratio(sum(r.info.get("report_bytes", 0) for r in records), n_ops),
        "cli.main.s": _ratio(total("cli.main"), n_ops),
        "cli.self_s": _ratio(self_total("cli.main"), n_ops),
        "op.pushforward_report_rk4_share": _ratio(pushforward + report + total("solver.rk4"),
                                                  total("op")),
        "trace.overhead_frac": overhead,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
