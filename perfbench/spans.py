"""Spans around the public quartic_lines functions, for the traced run.

`Tracer.install()` (or `with tracer:`) rebinds each target in every loaded `quartic_lines`
module namespace that holds it (so imported copies such as
`segre.singular_fibers` are wrapped too) and, for methods, on the class.
Each call records a span: target index, start, end, parent span, operation
id, and the target's named counts.  Spans stay in memory; `save` writes
them out when the run ends.  A target that no longer exists is reported as
absent and its metrics are left out, so the traced run survives code
removal.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _field_points(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return spec.size


def _sylvester_dim(args, kwargs, result):
    return len(args[0]) + len(args[1]) - 2


def _term_pairs(args, kwargs, result):
    return len(args[0].terms) * len(args[1].terms)


def _census_candidates(args, kwargs, result):
    from quartic_lines.geometry import count_candidate_lines
    ext = args[1] if len(args) > 1 else kwargs.get("ext", 1)
    return count_candidate_lines(1 << (args[0].spec.degree * ext))


def _search_points(args, kwargs, result):
    """Points of P^3 covered by the search, summed over its levels."""
    k = args[0].spec.degree
    max_ext = args[1] if len(args) > 1 else kwargs.get("max_ext", 6)
    total = 0
    for m in range(1, max_ext + 1):
        if k * m > 16:
            break
        q = 1 << (k * m)
        total += q ** 3 + q ** 2 + q + 1
    return total


def _graph_pairs(args, kwargs, result):
    n = len(args[1])
    return n * (n - 1) // 2


def _result_len(args, kwargs, result):
    return len(result)


def _not_smooth(args, kwargs, result):
    return int(result.kodaira != "smooth")


@dataclass(frozen=True)
class Target:
    """One wrapped public name and the per-layer metrics it yields."""
    metric: str                  # metric prefix, e.g. "field.mul_arr"
    module: str                  # defining module
    qualname: str                # "func" or "Class.method"
    emit: Tuple[str, ...]        # which of calls/s/self_s/<count> to print
    counts: Dict[str, Callable] = field(default_factory=dict)


TARGETS: Tuple[Target, ...] = (
    Target("field.mul_arr", "quartic_lines.field", "FieldSpec.mul_arr",
           ("calls", "elems", "s"), {"elems": _result_size}),
    Target("field.pow_arr", "quartic_lines.field", "FieldSpec.pow_arr",
           ("calls", "elems", "s"), {"elems": _result_size}),
    Target("field.find_roots_int", "quartic_lines.field", "find_roots_int",
           ("calls", "points", "s"), {"points": _field_points}),
    Target("field.embedding_to", "quartic_lines.field",
           "FieldSpec.embedding_to", ("s",)),
    Target("poly.sylvester_resultant", "quartic_lines.poly",
           "sylvester_resultant", ("calls", "dim", "s"),
           {"dim": _sylvester_dim}),
    Target("poly.det_generic", "quartic_lines.poly", "det_generic",
           ("calls", "s")),
    Target("poly.SparsePoly.mul", "quartic_lines.poly", "SparsePoly.__mul__",
           ("calls", "term_pairs", "s"), {"term_pairs": _term_pairs}),
    Target("poly.binary_roots", "quartic_lines.poly", "binary_roots",
           ("calls", "s")),
    Target("poly.squarefree_test", "quartic_lines.poly", "squarefree_test",
           ("calls", "s")),
    Target("poly.divide_by_linear", "quartic_lines.poly", "divide_by_linear",
           ("calls",)),
    Target("geometry.enumerate_lines", "quartic_lines.geometry",
           "enumerate_lines", ("calls", "candidates", "lines", "s"),
           {"candidates": _census_candidates, "lines": _result_len}),
    Target("geometry.singular_point_search", "quartic_lines.geometry",
           "singular_point_search", ("calls", "points", "s"),
           {"points": _search_points}),
    Target("geometry.IntersectionGraph", "quartic_lines.geometry",
           "IntersectionGraph.__init__", ("pairs", "s"),
           {"pairs": _graph_pairs}),
    Target("pencil.singular_fibers", "quartic_lines.pencil",
           "singular_fibers", ("calls", "fibers", "s", "self_s"),
           {"fibers": _result_len}),
    Target("pencil.classify_fiber", "quartic_lines.pencil", "classify_fiber",
           ("calls", "s", "useful_ratio"), {"useful": _not_smooth}),
    Target("pencil.ResidualPencil", "quartic_lines.pencil",
           "ResidualPencil.__init__", ("s",)),
    Target("pencil.ramification_type", "quartic_lines.pencil",
           "ramification_type", ("s",)),
    Target("segre.build_dossier", "quartic_lines.segre", "build_dossier",
           ("calls", "self_s")),
    Target("segre.segre_resultant", "quartic_lines.segre", "segre_resultant",
           ("calls", "s")),
    Target("segre.divisibility_audit", "quartic_lines.segre",
           "divisibility_audit", ("records", "s"), {"records": _result_len}),
    Target("lattice.gram_from_graph", "quartic_lines.lattice",
           "gram_from_graph", ("s",)),
    Target("lattice.rank", "quartic_lines.lattice", "GramLattice.rank",
           ("s",)),
    Target("lattice.span_discriminant", "quartic_lines.lattice",
           "GramLattice.span_discriminant", ("calls", "s")),
    Target("lattice.random_subset_check", "quartic_lines.lattice",
           "GramLattice.random_subset_check", ("s",)),
)

# counts the workloads keep themselves (zero where a workload has none)
WORKLOAD_COUNTS: Tuple[str, ...] = (
    "pencil.flagged_fibers", "geometry.sweep.draws",
    "geometry.sweep.accept_ratio")

# metrics derived from spans across targets, and the workloads' own counts
EXTRA_METRICS: Tuple[Tuple[str, str], ...] = (
    ("pencil.lambda_disc_s", "s"),
    ("pencil.flagged_fibers", "count"),
    ("geometry.sweep.draws", "count"),
    ("geometry.sweep.accept_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def _unit(suffix: str) -> str:
    if suffix in ("s", "self_s"):
        return "s"
    if suffix.endswith("ratio"):
        return "ratio"
    return "count"


def metric_units(targets: Sequence[Target] = TARGETS) -> Dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {f"{t.metric}.{s}": _unit(s) for t in targets for s in t.emit}
    units.update(EXTRA_METRICS)
    return units


# span record: (target index, start, end, parent span, op id, outermost,
#               counts tuple)
Span = Tuple[int, float, float, int, int, bool, Tuple[int, ...]]


class Tracer:
    """Collects spans from wrapped library calls on one thread."""

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = list(targets)
        self.spans: List[Optional[Span]] = []
        self.op = -1
        self.absent: Dict[str, str] = {}   # metric prefix -> note
        self._stack: List[int] = []
        self._depth = [0] * len(self.targets)
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, index: int, fn: Callable) -> Callable:
        counters = list(self.targets[index].counts.values())
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[index] == 0
            stack.append(sid)
            depth[index] += 1
            start = clock()
            counts = ()
            try:
                result = fn(*args, **kwargs)
                counts = tuple(c(args, kwargs, result) for c in counters)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[index] -= 1
                spans[sid] = (index, start, end, parent, self.op, outer,
                              counts)

        return traced

    def install(self) -> None:
        for index, target in enumerate(self.targets):
            try:
                module = importlib.import_module(target.module)
                owner_name, _, attr = target.qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr] if owner_name \
                    else getattr(module, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent[target.metric] = (
                    f"{target.module}.{target.qualname} not found "
                    f"({type(exc).__name__}); its metrics are absent")
                continue
            wrapper = self._wrap(index, original)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if not name.startswith("quartic_lines") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def save(self, path: str) -> None:
        spans = self.spans
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array([t.metric for t in self.targets]),
            target=np.array([s[0] for s in spans], dtype=np.int16),
            start=np.array([s[1] for s in spans], dtype=np.float64),
            end=np.array([s[2] for s in spans], dtype=np.float64),
            parent=np.array([s[3] for s in spans], dtype=np.int64),
            op=np.array([s[4] for s in spans], dtype=np.int64))


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of each (start, end, parent) span: its duration minus the
    part of its interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Aggregate the spans into the per-layer metrics of `metric_units`."""
    spans = tracer.spans
    if None in spans:
        raise RuntimeError("aggregating while spans are still open")
    own = self_times([(s[1], s[2], s[3]) for s in spans])
    n = len(tracer.targets)
    calls = [0] * n
    total = [0.0] * n
    self_total = [0.0] * n
    counts = [dict.fromkeys(t.counts, 0) for t in tracer.targets]
    for span, own_s in zip(spans, own):
        index, start, end, _, _, outer, values = span
        calls[index] += 1
        self_total[index] += own_s
        if outer:
            total[index] += end - start
        for name, value in zip(counts[index], values):
            counts[index][name] += value

    out: Dict[str, float] = {}
    absent = tracer.absent
    for index, target in enumerate(tracer.targets):
        if target.metric in absent:
            continue
        for suffix in target.emit:
            if suffix == "calls":
                value = calls[index]
            elif suffix == "s":
                value = total[index]
            elif suffix == "self_s":
                value = self_total[index]
            elif suffix == "useful_ratio":
                value = counts[index]["useful"] / max(calls[index], 1)
            else:
                value = counts[index][suffix]
            out[f"{target.metric}.{suffix}"] = value

    # time of the resultants taken directly inside singular_fibers: the
    # lambda-discriminant
    by_metric = {t.metric: i for i, t in enumerate(tracer.targets)}
    res_i = by_metric.get("poly.sylvester_resultant")
    fib_i = by_metric.get("pencil.singular_fibers")
    if res_i is not None and fib_i is not None \
            and not {"poly.sylvester_resultant",
                     "pencil.singular_fibers"} & absent.keys():
        out["pencil.lambda_disc_s"] = sum(
            s[2] - s[1] for s in spans
            if s[0] == res_i and s[3] >= 0 and spans[s[3]][0] == fib_i)
    out["trace.spans"] = len(spans)
    return out
