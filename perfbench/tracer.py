"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
records a span: layer, start, end, parent span and verdict id.  A function is
replaced everywhere its object is bound: in every ``contactpairs.*`` module
namespace (modules bind names with ``from .x import y``, so patching only the
defining module misses call sites) and, for methods, as the class attribute.
A call made directly inside a span of the same function (recursion, as in
``expressions.partial``) is folded into that span.

Spans stay in memory until ``write`` is called.  Counts of work are taken at
the same boundaries, after the wrapped call returns; the time that takes is
kept out of every layer's self time and reported as ``trace.bookkeeping_s``,
so the self times plus the bookkeeping add up to the traced verdict wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
import time
import zlib
from collections import Counter

import numpy as np

PACKAGE = "contactpairs"

LAYERS = (
    "expressions.evaluate_many",
    "expressions.partial",
    "expressions.parse",
    "fields.FormField.values",
    "fields.FormField.d",
    "fields.SolvedVectorField.values",
    "fields.commutator_values",
    "exterior.wedge_values",
    "exterior.two_form_matrices",
    "contact.least_squares_batch",
    "contact.verify_contact_pair",
    "contact.cartan_class",
    "deformation.DeformationFamily.at",
    "deformation.verify_forward",
    "deformation.verify_converse",
    "deformation.volume_polynomial",
    "deformation.stokes_integrals",
    "deformation.sweep_rows",
    "models.sample_points",
    "models.integrate",
    "jacobi.JacobiSide.solve_hamiltonian",
    "jacobi.JacobiSide.commutator",
    "jacobi.JacobiSide.from_pair",
    "jacobi.JacobiSide.from_contact_form",
    "registry.build_example",
    "config.load_config",
    "cli.main",
    "runner.run",
    "reporting.render_structured",
)

# name -> unit of the counts taken by the hooks below
COUNTS = {
    "expressions.points_evaluated": "count",
    "exterior.wedge_madds": "count",
    "contact.reeb_systems": "count",
    "models.quadrature_nodes": "count",
    "jacobi.grid_points": "count",
    "jacobi.commutator_bytes_computed": "bytes",
}

# ratio name -> layer: share of the layer's calls that repeat, within one
# verdict, a call on equal arguments
REPEAT_RATIOS = {
    "expressions.eval_repeat_ratio": "expressions.evaluate_many",
    "fields.d_repeat_ratio": "fields.FormField.d",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_evaluate_many(tr, args, kwargs, result):
    pts = np.asarray(_arg(args, kwargs, 1, "points"), dtype=float)
    tr.counters["expressions.points_evaluated"] += pts.shape[0]
    key = (_arg(args, kwargs, 0, "e"), pts.shape, zlib.crc32(np.ascontiguousarray(pts)))
    tr.note_repeat("expressions.evaluate_many", key)


def _count_d(tr, args, kwargs, result):
    form = args[0]
    tr.note_repeat("fields.FormField.d", (form.model, form.degree, form.coeffs))


def _count_wedge(tr, args, kwargs, result):
    n, p, q = (_arg(args, kwargs, i, k) for i, k in enumerate("npq"))
    rows = math.comb(n, p) * math.comb(n - p, q)
    tr.counters["exterior.wedge_madds"] += rows * math.prod(result.shape[:-1])


def _count_least_squares(tr, args, kwargs, result):
    tr.counters["contact.reeb_systems"] += np.shape(_arg(args, kwargs, 0, "a"))[0]


def _count_integrate(tr, args, kwargs, result):
    models = sys.modules[f"{PACKAGE}.models"]
    shape = models.grid_shape(_arg(args, kwargs, 0, "model"), _arg(args, kwargs, 2, "resolution"))
    tr.counters["models.quadrature_nodes"] += math.prod(shape)


def _count_side(tr, args, kwargs, result):
    tr.counters["jacobi.grid_points"] += result.points.shape[0]


def _count_commutator(tr, args, kwargs, result):
    # Per grid axis: two central differences (two rolls, a subtraction and a
    # division, each reading and writing whole arrays) and the four array
    # operations that combine them; plus the zeroed output.  From array
    # sizes only: cache effects are not seen.
    side, xv = args[0], np.asarray(_arg(args, kwargs, 1, "xv"))
    points, size = xv.shape[0], xv.size
    axes = len(side.model.coordinate_axes)
    tr.counters["jacobi.commutator_bytes_computed"] += xv.itemsize * (
        size + axes * (26 * size + 2 * points)
    )


_HOOKS = {
    "expressions.evaluate_many": _count_evaluate_many,
    "fields.FormField.d": _count_d,
    "exterior.wedge_values": _count_wedge,
    "contact.least_squares_batch": _count_least_squares,
    "models.integrate": _count_integrate,
    "jacobi.JacobiSide.from_pair": _count_side,
    "jacobi.JacobiSide.from_contact_form": _count_side,
    "jacobi.JacobiSide.commutator": _count_commutator,
}


class Tracer:
    """Spans and counts of one traced run, one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, verdict id, layer index, start, end, bookkeeping]
        self.counters: Counter = Counter()
        self.verdict = -1
        self.missing: list[str] = []
        self._stack: list[tuple[int, int]] = []
        self._next_id = 0
        self._seen: dict[str, set] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin_verdict(self, verdict_id: int) -> None:
        self.verdict = verdict_id
        self._seen = {}

    def note_repeat(self, layer: str, key) -> None:
        seen = self._seen.setdefault(layer, set())
        if key in seen:
            self.counters[layer + ".repeats"] += 1
        else:
            seen.add(key)

    def _wrap(self, index: int, fn, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == index:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append((index, span_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record = [span_id, parent, tracer.verdict, index, start, end, 0.0]
                tracer.spans.append(record)
            if hook is not None:
                hook(tracer, args, kwargs, result)
                record[6] = clock() - end
            return result

        return wrapper

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for index, layer in enumerate(LAYERS):
            module_name, _, qualname = layer.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, name = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if getattr(owner, name, None) is None:
                self.missing.append(layer)
                continue
            hook = _HOOKS.get(layer)
            if owner_name:
                raw = owner.__dict__[name]
                if isinstance(raw, (classmethod, staticmethod)):
                    self._patch(owner, name, type(raw)(self._wrap(index, raw.__func__, hook)))
                else:
                    self._patch(owner, name, self._wrap(index, raw, hook))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(index, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def summary(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit), means over ``passes`` traced passes."""
        calls = Counter()
        self_s = Counter()
        covered = Counter()
        bookkeeping = 0.0
        wall = 0.0
        for span_id, parent, _, index, start, end, extra in self.spans:
            if parent >= 0:
                covered[parent] += end - start + extra
                bookkeeping += extra
            else:
                wall += end - start
        for span_id, _, _, index, start, end, _ in self.spans:
            calls[index] += 1
            self_s[index] += end - start - covered[span_id]
        out = {}
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (calls[index] / passes, "count")
            out[f"{layer}.self_s"] = (self_s[index] / passes, "s")
            out[f"{layer}.self_share"] = (self_s[index] / wall if wall else 0.0, "ratio")
        c = self.counters
        for name, unit in COUNTS.items():
            out[name] = (c[name] / passes, unit)
        for ratio, layer in REPEAT_RATIOS.items():
            made = calls[LAYERS.index(layer)]
            out[ratio] = (c[layer + ".repeats"] / made if made else 0.0, "ratio")
        out["trace.verdict_wall_s"] = (wall / passes, "s")
        out["trace.bookkeeping_s"] = (bookkeeping / passes, "s")
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "fields": ["id", "parent", "verdict", "layer", "start_s", "end_s", "bookkeeping_s"],
                "layers": list(LAYERS),
            }) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
