"""Span recorder for the traced run.

The benchmark wraps the public callables that carry each layer's work,
from outside the package: a wrapper records one span per call (name, start,
end, parent span, pass id) in memory, plus a few counts taken at the same
boundary.  Wrapping rebinds the callable in every ``homleibniz`` module that
imported it by name, and patches methods on their class.  Hot helpers
called hundreds of thousands of times per pass (``apply_multimap``,
``tensor_combo``, ``cadd``) are deliberately left alone.

A layer's self time is the time its spans cover minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


# -- probes: counts taken at the wrapped boundary ----------------------------


def _matmul(rec, args, result):
    """Multiplications the dense product performs, and those with two nonzeros."""
    a, b = args
    col_nnz = [0] * a.cols
    for row in a.entries:
        for j, x in enumerate(row):
            if x:
                col_nnz[j] += 1
    useful = sum(n * sum(1 for x in row if x) for n, row in zip(col_nnz, b.entries))
    rec.count["linalg.matmul.useful"] += useful
    rec.count["linalg.matmul.performed"] += a.rows * a.cols * b.cols


def _rank(rec, args, result):
    m = args[0]
    rec.distinct("linalg.rank", (m.rows, m.cols, hash(m)))


def _kernel_basis(rec, args, result):
    rec.count["linalg.kernel_basis.cells"] += args[0].rows * args[0].cols


def _space(rec, args, result):
    rec.count["cochain.space.ambient_max"] = max(rec.count["cochain.space.ambient_max"], args[0].ambient)


def _operator(rec, args, result):
    rec.count["cochain.coboundary_operator.nnz"] += sum(len(col) for col in result.values())


def _cache(table):
    def probe(rec, args):
        complex_, p = args[0], args[1]
        rec.count["cochain.cache.lookups"] += 1
        rec.count["cochain.cache.hits"] += p in getattr(complex_, table)

    return probe


def _residual(rec, args, result):
    md, l = args
    content = (
        repr(md.xi.coeffs[: l + 1]),
        repr(md.eta.coeffs[: l + 1]),
        repr([m.entries for m in md.phis[: l + 1]]),
    )
    rec.distinct("deformation.residual", (l, hash(content)))


# (span name, module, callable, probe before the call, probe after it)
TARGETS = [
    ("linalg.matmul", "linalg", "Matrix.__matmul__", None, _matmul),
    ("linalg.rank", "linalg", "rank", None, _rank),
    ("linalg.kernel_basis", "linalg", "kernel_basis", None, _kernel_basis),
    ("linalg.solve", "linalg", "solve", None, None),
    ("linalg.coords_in_basis", "linalg", "coords_in_basis", None, None),
    ("algebra.check", "algebra", "check_hom_leibniz", None, None),
    ("algebra.check", "algebra", "check_multiplicative", None, None),
    ("algebra.check", "algebra", "check_morphism", None, None),
    ("algebra.check", "algebra", "check_representation", None, None),
    ("cochain.space", "cochain", "CochainSpace.__init__", None, _space),
    ("cochain.coboundary_operator", "cochain", "coboundary_operator", None, _operator),
    ("cochain.coboundary_matrix", "cochain", "coboundary_matrix", None, None),
    ("cochain.convention_passes", "cochain", "convention_passes", None, None),
    ("cochain.calibration_report", "cochain", "calibration_report", None, None),
    ("cochain.complex.space", "cochain", "CochainComplex.space", _cache("_spaces"), None),
    ("cochain.complex.operator", "cochain", "CochainComplex.operator", _cache("_operators"), None),
    ("cochain.complex.delta", "cochain", "CochainComplex.delta", _cache("_matrices"), None),
    ("morphism_complex.d_matrix", "morphism_complex", "MorphismComplex.d_matrix", None, None),
    ("morphism_complex.cohomology_dim", "morphism_complex", "MorphismComplex.cohomology_dim", None, None),
    ("deformation.residual", "deformation", "morphism_order_residual", None, _residual),
    ("deformation.obstruction", "deformation", "obstruction", None, None),
    ("deformation.solve_extension", "deformation", "solve_extension", None, None),
    ("documents.load", "documents", "load_json", None, None),
    ("documents.load", "documents", "parse_algebra", None, None),
    ("documents.load", "documents", "parse_morphism", None, None),
    ("documents.load", "documents", "parse_representation", None, None),
    ("documents.load", "documents", "parse_deformation", None, None),
    ("documents.dump", "documents", "dump_json", None, None),
    ("documents.dump", "documents", "serialize_algebra", None, None),
    ("documents.dump", "documents", "serialize_morphism", None, None),
    ("documents.dump", "documents", "serialize_deformation", None, None),
    ("report.render", "report", "RunReport.render", None, None),
    ("cli.main", "cli", "main", None, None),
]

# Per-layer metrics reported by the traced run, in BENCHMARK.json order.
TIMED = [
    "linalg.matmul", "linalg.rank", "linalg.kernel_basis", "linalg.coords_in_basis",
    "linalg.solve", "cochain.space", "cochain.coboundary_matrix",
    "cochain.coboundary_operator", "cochain.convention_passes",
    "morphism_complex.d_matrix", "deformation.residual", "deformation.obstruction",
    "deformation.solve_extension", "algebra.check", "cli.main",
]
SELF_ONLY = ["documents.load", "documents.dump", "report.render"]


class Recorder:
    """In-memory spans of the wrapped calls, and counts at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, pass id]
        self.stack = []
        self.pass_id = None
        self.count = defaultdict(int)
        self.keys = defaultdict(set)
        self._patched = []

    def distinct(self, name, key):
        # a key counts once per top-level call, so repeats across calls do not
        self.keys[name].add((self.stack[0] if self.stack else -1, key))

    def wrap(self, name, fn, before, after):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(rec, args)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.pass_id]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if after:
                after(rec, args, result)
            return result

        return wrapper

    # -- installing and removing the wrappers -------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "homleibniz" or n.startswith("homleibniz.")]
        for name, module, attr, before, after in TARGETS:
            owner = sys.modules[f"homleibniz.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, method, self.wrap(name, cls.__dict__[method], before, after))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)

    def _set(self, obj, attr, value):
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)

    # -- results ------------------------------------------------------------

    def layer_table(self):
        """{name: (calls, self seconds)} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), inner in zip(self.spans, child):
            table[name][0] += 1
            table[name][1] += end - start - inner
        return table

    def metrics(self):
        """The per-layer metrics, named as in BENCHMARK.json."""
        table = self.layer_table()
        c = self.count
        out = {}
        for name in TIMED:
            calls, self_s = table.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = (table.get(name, (0, 0.0))[1], "s")
        out["morphism_complex.cohomology_dim.calls"] = (table.get("morphism_complex.cohomology_dim", (0, 0))[0], "count")

        def ratio(num, den):
            return num / den if den else 0.0

        out["linalg.matmul.useful_ratio"] = (ratio(c["linalg.matmul.useful"], c["linalg.matmul.performed"]), "ratio")
        for name in ("linalg.rank", "deformation.residual"):
            out[f"{name}.distinct_ratio"] = (ratio(len(self.keys[name]), table.get(name, (0,))[0]), "ratio")
        out["linalg.kernel_basis.cells"] = (c["linalg.kernel_basis.cells"], "count")
        out["cochain.space.ambient_max"] = (c["cochain.space.ambient_max"], "count")
        out["cochain.coboundary_operator.nnz"] = (c["cochain.coboundary_operator.nnz"], "count")
        out["cochain.cache.hit_ratio"] = (ratio(c["cochain.cache.hits"], c["cochain.cache.lookups"]), "ratio")
        return out

    def dump(self, path):
        """Write the spans, times relative to the first span, as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 7), round(e - t0, 7), p, i] for n, s, e, p, i in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "pass"], "spans": rows}, fh)
