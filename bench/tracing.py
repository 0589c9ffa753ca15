"""Per-layer tracing from outside the program.

The traced run wraps public functions of nevlab's modules from here: each
wrapped call records a span (name, start, end, parent span, job id) or, for
functions too hot for spans, only counters.  Spans stay in memory and are
written out when the run ends.  A wrapper is installed in every module
namespace that binds the function, because `filtration` and `gradedgeom`
import some `linear` functions by name; methods are patched on their class.

Time spent on bookkeeping (scanning a matrix for `const_share`, sizing an
array) runs with the span clock paused, so it lands in no span's self time;
it still shows in the traced wall time and so in `trace.overhead_ratio`.
Per-layer times are measured seconds; only the end-to-end times are scaled
to reference seconds (speed.py).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

MODULES = ("cli", "filtration", "gradedgeom", "linear", "nevanlinna", "algebra")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("linear.row_reduce.calls", "count"),
    ("linear.row_reduce.self_s", "s"),
    ("linear.row_reduce.entries", "count"),
    ("linear.row_reduce.rank_ratio", "ratio"),
    ("linear.row_reduce.const_share", "ratio"),
    ("linear.kernel.self_s", "s"),
    ("linear.solve_row_combinations.calls", "count"),
    ("linear.solve_row_combinations.self_s", "s"),
    ("algebra.RationalFunction.from_fraction.calls", "count"),
    ("linear.preimage_of_subspace.calls", "count"),
    ("linear.preimage_of_subspace.self_s", "s"),
    ("linear.GradedSubspace.from_rows.rows", "count"),
    ("filtration.build_table.self_s", "s"),
    ("filtration.build_table.cells", "count"),
    ("algebra.RationalFunction.arith_ops", "count"),
    ("algebra.RationalFunction.nonconstant_ops", "count"),
    ("algebra.MultiPoly.mul.calls", "count"),
    ("algebra.MultiPoly.shift.calls", "count"),
    ("filtration.stabilization_scan.self_s", "s"),
    ("filtration.filtration_space.calls", "count"),
    ("filtration.filtration_basis.self_s", "s"),
    ("filtration.product_decomposition.self_s", "s"),
    ("gradedgeom.ideal_graded_piece.calls", "count"),
    ("gradedgeom.ideal_graded_piece.self_s", "s"),
    ("gradedgeom.macaulay_rows.rows", "count"),
    ("gradedgeom.macaulay_rows.self_s", "s"),
    ("gradedgeom.piece_cache.hit_ratio", "ratio"),
    ("gradedgeom.admissibility_check.self_s", "s"),
    ("gradedgeom.nullstellensatz_certificate.calls", "count"),
    ("gradedgeom.nullstellensatz_certificate.self_s", "s"),
    ("gradedgeom.witness.success_ratio", "ratio"),
    ("nevanlinna.locate_zeros.calls", "count"),
    ("nevanlinna.locate_zeros.self_s", "s"),
    ("nevanlinna.locate_zeros.zeros", "count"),
    ("nevanlinna.eval_on.calls", "count"),
    ("nevanlinna.eval_on.points", "count"),
    ("nevanlinna.eval_on.points_per_zero", "ratio"),
    ("nevanlinna.compose_form.calls", "count"),
    ("nevanlinna.circle_quadrature.calls", "count"),
    ("nevanlinna.circle_quadrature.samples", "count"),
    ("nevanlinna.circle_quadrature.cap_reached", "count"),
    ("nevanlinna.characteristic_T.calls", "count"),
    ("nevanlinna.characteristic_T.self_s", "s"),
    ("nevanlinna.jensen_check.calls", "count"),
    ("nevanlinna.jensen_check.self_s", "s"),
    ("nevanlinna.jensen_check.max_residual", "ratio"),
    ("nevanlinna.defect_estimate.calls", "count"),
    ("nevanlinna.defect_estimate.self_s", "s"),
    ("nevanlinna.smt_margin.self_s", "s"),
    ("nevanlinna.counting_N.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.parse_problem.self_s", "s"),
    ("cli.emit_report.self_s", "s"),
    ("cli.emit_report.bytes", "B"),
    ("cli.self_s", "s"),
    ("filtration.self_s", "s"),
    ("gradedgeom.self_s", "s"),
    ("linear.self_s", "s"),
    ("nevanlinna.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Functions that must record calls on the workload they are predicted to
# dominate; a traced run that sees none of them has lost its wrappers.
REQUIRED_CALLS = {
    "exact_q": ["linear.row_reduce", "linear.preimage_of_subspace",
                "linear.solve_row_combinations", "filtration.build_table",
                "filtration.stabilization_scan", "filtration.filtration_space",
                "filtration.filtration_basis", "filtration.product_decomposition",
                "gradedgeom.ideal_graded_piece", "gradedgeom.macaulay_rows",
                "gradedgeom.admissibility_check",
                "gradedgeom.nullstellensatz_certificate",
                "cli.main", "cli.parse_problem", "cli.emit_report"],
    "exact_qz": ["linear.row_reduce", "linear.preimage_of_subspace",
                 "filtration.build_table", "filtration.stabilization_scan",
                 "gradedgeom.ideal_graded_piece", "gradedgeom.admissibility_check",
                 "algebra.RationalFunction.nonconstant_ops", "algebra.MultiPoly.mul",
                 "algebra.MultiPoly.shift", "cli.main", "cli.parse_problem",
                 "cli.emit_report"],
    "sweep": ["nevanlinna.locate_zeros", "nevanlinna.eval_on",
              "nevanlinna.compose_form", "nevanlinna.circle_quadrature",
              "nevanlinna.characteristic_T", "nevanlinna.jensen_check",
              "nevanlinna.defect_estimate", "nevanlinna.smt_margin",
              "nevanlinna.counting_N", "cli.main", "cli.parse_problem",
              "cli.emit_report"],
}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    spans is a list of [name, start, end, parent_index, job]; children of one
    span may be given in any order and may overlap.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.active: Counter = Counter()
        self.job: int | None = None
        self.arith_depth = 0
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def record_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrappers ------------------------------------------------------------
    def spanned(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(tracer, args, kwargs, result) adds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            self.active[name] += 1
            self.counts[name + ".calls"] += 1
            rec[1] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.now()
                self.stack.pop()
                self.active[name] -= 1
            if observe is not None:
                with self.paused():
                    observe(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn, observe=None):
        """Count calls of fn under `key` without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                with self.paused():
                    observe(self, args, kwargs, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio."""
        c = self.counts
        selfs = self_times(self.spans)
        by_name: Counter = Counter()
        by_module: Counter = Counter()
        total: Counter = Counter()
        for (name, start, end, _, _), st in zip(self.spans, selfs):
            by_name[name] += st
            by_module[name.split(".", 1)[0]] += st
            total[name] += end - start

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric, _ in PER_LAYER:
            head, _, stat = metric.rpartition(".")
            if metric == "cli.main.s":
                out[metric] = total["cli.main"]
            elif stat == "self_s":
                out[metric] = by_module[head] if head in MODULES else by_name[head]
            else:
                out[metric] = c[metric]
        out["linear.row_reduce.rank_ratio"] = ratio(c["linear.row_reduce.rank"],
                                                    c["linear.row_reduce.rows"])
        out["linear.row_reduce.const_share"] = ratio(c["linear.row_reduce.const"],
                                                     c["linear.row_reduce.calls"])
        hits = c["gradedgeom.piece_cache.hits"]
        out["gradedgeom.piece_cache.hit_ratio"] = ratio(
            hits, hits + c["gradedgeom.piece_cache.misses"])
        out["gradedgeom.witness.success_ratio"] = ratio(
            c["gradedgeom.witness.succeeded"], c["gradedgeom.witness.tried"])
        out["nevanlinna.eval_on.points_per_zero"] = ratio(
            c["nevanlinna.eval_on.points_in_locate"], c["nevanlinna.locate_zeros.zeros"])
        out["nevanlinna.jensen_check.max_residual"] = self.maxima.get(
            "nevanlinna.jensen_check.max_residual", 0.0)
        out.pop("trace.overhead_ratio", None)
        return out

    def missing_calls(self, workload: str) -> list[str]:
        return [name for name in REQUIRED_CALLS[workload]
                if not (self.counts[name + ".calls"] or self.counts[name])]

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")


# ---------------------------------------------------------------------------
# Observers: counters taken from a wrapped call's arguments and result.
# ---------------------------------------------------------------------------

def _obs_row_reduce(t, args, kwargs, result):
    m = args[0]
    t.counts["linear.row_reduce.entries"] += m.rows * m.cols
    t.counts["linear.row_reduce.rows"] += m.rows
    t.counts["linear.row_reduce.rank"] += result[0]
    if m.field == "Q(z)" and all(v.is_constant for row in m.entries for v in row):
        t.counts["linear.row_reduce.const"] += 1


def _obs_from_rows(t, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    t.counts["linear.GradedSubspace.from_rows.rows"] += len(rows)


def _obs_build_table(t, args, kwargs, result):
    t.counts["filtration.build_table.cells"] += len(result.cells)


def _obs_macaulay_rows(t, args, kwargs, result):
    t.counts["gradedgeom.macaulay_rows.rows"] += len(result[0])


def _obs_admissibility(t, args, kwargs, result):
    for rep in result:
        t.counts["gradedgeom.witness.tried"] += len(rep.witnesses_tried)
        t.counts["gradedgeom.witness.succeeded"] += rep.witnesses_succeeded


def _obs_locate(t, args, kwargs, result):
    t.counts["nevanlinna.locate_zeros.zeros"] += result.total()


def _obs_eval_on(t, args, kwargs, result):
    points = np.size(args[1] if len(args) > 1 else kwargs["z"])
    t.counts["nevanlinna.eval_on.points"] += points
    if t.active["nevanlinna.locate_zeros"]:
        t.counts["nevanlinna.eval_on.points_in_locate"] += points


def _obs_jensen(t, args, kwargs, result):
    t.record_max("nevanlinna.jensen_check.max_residual", float(result))


def _obs_emit(t, args, kwargs, result):
    t.counts["cli.emit_report.bytes"] += len(result)


def _graded_piece_wrapper(t, fn):
    @functools.wraps(fn)
    def wrapper(self, k, extra=()):
        if not extra:
            hit = k in getattr(self, "_piece_cache", {})
            t.counts["gradedgeom.piece_cache.hits" if hit
                     else "gradedgeom.piece_cache.misses"] += 1
        return fn(self, k, extra)

    return wrapper


def _quadrature_wrapper(t, fn):
    """Count circle_quadrature calls, samples taken, and returns at the cap
    without convergence, by watching the integrand it is given."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(integrand, *args, **kwargs):
        bound = signature.bind(integrand, *args, **kwargs)
        bound.apply_defaults()
        cap, rel_tol = bound.arguments["cap"], bound.arguments["rel_tol"]
        sizes, means = [], []

        def watched(theta):
            vals = integrand(theta)
            with t.paused():
                sizes.append(len(theta))
                means.append(float(np.mean(vals)))
            return vals

        t.counts["nevanlinna.circle_quadrature.calls"] += 1
        result = fn(watched, *args, **kwargs)
        with t.paused():
            t.counts["nevanlinna.circle_quadrature.samples"] += sum(sizes)
            converged = (len(means) >= 2 and abs(means[-1] - means[-2])
                         <= rel_tol * max(abs(means[-1]), 1.0))
            if sizes and sizes[-1] >= cap and not converged:
                t.counts["nevanlinna.circle_quadrature.cap_reached"] += 1
        return result

    return wrapper


def _arith_wrapper(t, fn):
    """Count Q(z) operator calls made from outside the operators, and
    separately those with a nonconstant operand, which do polynomial
    arithmetic in z.  An operator that calls another (a - b is a + (-b))
    counts once, so the count does not depend on how operators are built
    on each other."""

    @functools.wraps(fn)
    def wrapper(self, *other):
        if t.arith_depth:
            return fn(self, *other)
        t.counts["algebra.RationalFunction.arith_ops"] += 1
        if not (self.is_constant and all(getattr(o, "is_constant", True) for o in other)):
            t.counts["algebra.RationalFunction.nonconstant_ops"] += 1
        t.arith_depth += 1
        try:
            return fn(self, *other)
        finally:
            t.arith_depth -= 1

    return wrapper


def _arith_ops(t, cls):
    ops = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__")
    return {op: _arith_wrapper(t, vars(cls)[op]) for op in ops if op in vars(cls)}


class Instrumentation:
    """Installs the wrappers on nevlab's modules and restores them on exit."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.modules = modules  # short name -> module object
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, make):
        """Replace module.attr in every namespace that binds the same object."""
        original = getattr(self.modules[module], attr)
        wrapper = make(original)
        for mod in self.modules.values():
            if vars(mod).get(attr) is original:
                self._set(mod, attr, wrapper)

    def method(self, cls, attr: str, make):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def __enter__(self):
        t, m = self.tracer, self.modules
        span = t.spanned

        def spans(module, names, observers=None):
            for attr in names:
                obs = (observers or {}).get(attr)
                self.function(module, attr,
                              lambda fn, a=attr, o=obs: span(f"{module}.{a}", fn, o))

        def counts(module, names, observers=None):
            for attr in names:
                obs = (observers or {}).get(attr)
                self.function(module, attr, lambda fn, a=attr, o=obs:
                              t.counted(f"{module}.{a}.calls", fn, o))

        spans("cli", ["main", "parse_problem", "emit_report"],
              {"emit_report": _obs_emit})
        spans("filtration", ["build_table", "stabilization_scan", "filtration_space",
                             "filtration_basis", "product_decomposition"],
              {"build_table": _obs_build_table})
        spans("gradedgeom", ["ideal_graded_piece", "macaulay_rows",
                             "admissibility_check", "nullstellensatz_certificate"],
              {"macaulay_rows": _obs_macaulay_rows,
               "admissibility_check": _obs_admissibility})
        spans("linear", ["row_reduce", "kernel", "solve_row_combinations",
                         "preimage_of_subspace"], {"row_reduce": _obs_row_reduce})
        spans("nevanlinna", ["locate_zeros", "characteristic_T", "jensen_check",
                             "defect_estimate", "smt_margin"],
              {"locate_zeros": _obs_locate, "jensen_check": _obs_jensen})
        counts("nevanlinna", ["eval_on", "compose_form", "counting_N"],
               {"eval_on": _obs_eval_on})
        self.function("nevanlinna", "circle_quadrature",
                      lambda fn: _quadrature_wrapper(t, fn))

        linear, algebra, gradedgeom = m["linear"], m["algebra"], m["gradedgeom"]
        self.method(linear.GradedSubspace, "from_rows",
                    lambda fn: t.counted("linear.GradedSubspace.from_rows.calls",
                                         fn, _obs_from_rows))
        self.method(algebra.RationalFunction, "from_fraction",
                    lambda fn: t.counted("algebra.RationalFunction.from_fraction.calls", fn))
        for op, wrapper in _arith_ops(t, algebra.RationalFunction).items():
            self._set(algebra.RationalFunction, op, wrapper)
        self.method(algebra.MultiPoly, "__mul__",
                    lambda fn: t.counted("algebra.MultiPoly.mul.calls", fn))
        self.method(algebra.MultiPoly, "shift",
                    lambda fn: t.counted("algebra.MultiPoly.shift.calls", fn))
        self.method(gradedgeom.HomogeneousIdeal, "graded_piece",
                    lambda fn: _graded_piece_wrapper(t, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
