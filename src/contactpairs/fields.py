"""Form and vector fields over manifold models.

A field stores one coefficient expression per frame multi-index.  On a chart
the coefficients are honest coordinate functions; on a Lie group they are
constants (invariant fields); on products they may depend on the coordinate
block only.  The exterior derivative combines the symbolic coordinate part

    d(f_I e^I) ⊇ sum_a (∂_a f_I) e^a ∧ e^I

with the algebraic part generated by d(e^k) = -sum_{i<j} c[i,j,k] e^i ∧ e^j
extended as a graded derivation, so charts, Lie groups, and mixed products
all go through one formula.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from . import expressions as ex
from .exterior import form_count, index_position, multi_indices, wedge_values
from .models import Model, ProductModel

__all__ = [
    "FormField",
    "VectorField",
    "coframe",
    "constant_form",
    "form_from_expressions",
    "volume_form",
    "vector_from_expressions",
    "pullback_form",
    "pullback_vector",
]


def _as_expr(value, n: int) -> ex.Expr:
    if isinstance(value, ex.Expr):
        return value
    if isinstance(value, str):
        return ex.parse(value, n)
    if not (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
        raise ValueError(f"coefficient must be an expression or a finite number, got {value!r}")
    return ex.const(float(value))


def _check_coefficients(model: Model, exprs):
    allowed = set(model.coordinate_axes)
    for e in exprs:
        used = ex.variables_of(e)
        bad = used - allowed
        if bad:
            raise ValueError(
                f"coefficient uses variable x{min(bad)} which is not a coordinate axis of the model"
            )


class FormField:
    """A degree-p differential form on a model."""

    __slots__ = ("model", "degree", "coeffs", "_d", "_live", "_partials")

    def __init__(self, model: Model, degree: int, coeffs):
        if not 0 <= degree <= model.n:
            raise ValueError(f"degree {degree} out of range for dimension {model.n}")
        coeffs = tuple(_as_expr(c, model.n) for c in coeffs)
        if len(coeffs) != form_count(model.n, degree):
            raise ValueError(
                f"expected {form_count(model.n, degree)} coefficients, got {len(coeffs)}"
            )
        _check_coefficients(model, coeffs)
        self.model = model
        self.degree = degree
        self.coeffs = coeffs
        self._d = None
        self._live = None
        self._partials = {}

    @property
    def live(self) -> tuple[int, ...]:
        """The positions of the coefficients that are not the constant +0.0,
        in order: the components ``live_rows`` evaluates.  A constant -0.0 is
        live, so that its samples keep their sign."""
        if self._live is None:
            self._live = tuple(
                i for i, c in enumerate(self.coeffs)
                if not (isinstance(c, ex.Const) and c.value == 0.0 and math.copysign(1.0, c.value) > 0)
            )
        return self._live

    def partials(self, axis: int) -> tuple:
        """(i, ∂_axis coeffs[i]) for each ``live`` coefficient whose exact
        partial along the coordinate axis is not identically 0, in order,
        derived once per field and axis."""
        found = self._partials.get(axis)
        if found is None:
            found = self._partials[axis] = tuple(
                (i, p) for i in self.live if not ex.is_zero(p := ex.partial(self.coeffs[i], axis))
            )
        return found

    def values(self, points, known: ex.Known | None = None) -> np.ndarray:
        """Coefficient array at a batch of points, shape (P, C(n, p)): the
        view of a component-major (C, P) buffer of the ``live_rows``, the
        other components +0.0."""
        rows = self.live_rows(points, known)
        out = np.zeros((len(self.coeffs), rows.shape[1]))
        out[list(self.live)] = rows
        return out.T

    def live_rows(self, points, known: ex.Known | None = None) -> np.ndarray:
        """The ``live`` coefficients at a batch of points, component-major:
        shape (len(live), P), row j holding coefficient live[j], each call
        node of one structure evaluated once (``ex.Known``)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array (P, n)")
        out = np.empty((len(self.live), pts.shape[0]))
        for i, row in zip(self.live, out):
            c = self.coeffs[i]
            if isinstance(c, ex.Const):  # filled directly, with evaluate_many's guard
                if not math.isfinite(c.value):
                    raise ex.EvaluationError("expression evaluated to a non-finite value")
                row[...] = c.value
            else:
                row[...] = ex.evaluate_many(c, pts, known)
        return out

    def d(self) -> "FormField":
        """Exterior derivative (coordinate partials plus the algebraic term),
        derived once per field."""
        if self._d is None:
            self._d = self._derivative()
        return self._d

    def _derivative(self) -> "FormField":
        model, n, p = self.model, self.model.n, self.degree
        if p >= n:
            raise ValueError("cannot raise degree beyond the ambient dimension")
        out_pos = index_position(n, p + 1)
        out = [ex.const(0.0)] * form_count(n, p + 1)
        for pos, idx in enumerate(multi_indices(n, p)):
            f = self.coeffs[pos]
            if ex.is_zero(f):
                continue
            members = set(idx)
            for a in model.coordinate_axes:
                if a in members:
                    continue
                df = ex.partial(f, a)
                if ex.is_zero(df):
                    continue
                before = sum(1 for i in idx if i < a)
                sign = -1.0 if before % 2 else 1.0
                target = out_pos[tuple(sorted(idx + (a,)))]
                out[target] = ex.add(out[target], ex.mul(ex.const(sign), df))
        structure = _structure_matrix(n, p, model.structure.tobytes())
        if structure is not None:
            rows, cols = np.nonzero(structure)
            for r, c in zip(rows, cols):
                term = ex.mul(ex.const(structure[r, c]), self.coeffs[c])
                out[r] = ex.add(out[r], term)
        return FormField(model, p + 1, out)

    def wedge(self, other: "FormField") -> "FormField":
        if other.model is not self.model:
            raise ValueError("wedge requires fields on the same model")
        n, p, q = self.model.n, self.degree, other.degree
        if p + q > n:
            raise ValueError(f"degree overflow: {p} + {q} > {n}")
        from .exterior import _wedge_table  # sparse product table

        out = [ex.const(0.0)] * form_count(n, p + q)
        for ia, ib, io, sign in _wedge_table(n, p, q):
            term = ex.mul(self.coeffs[ia], other.coeffs[ib])
            if sign < 0:
                term = ex.neg(term)
            out[io] = ex.add(out[io], term)
        return FormField(self.model, p + q, out)

    def __add__(self, other: "FormField") -> "FormField":
        self._check_compatible(other)
        return FormField(
            self.model, self.degree, [ex.add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "FormField") -> "FormField":
        self._check_compatible(other)
        return FormField(
            self.model, self.degree, [ex.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, scalar) -> "FormField":
        s = ex.const(float(scalar))
        return FormField(self.model, self.degree, [ex.mul(s, c) for c in self.coeffs])

    __rmul__ = __mul__

    def _check_compatible(self, other: "FormField"):
        if other.model is not self.model or other.degree != self.degree:
            raise ValueError("field shapes do not match")

    def __repr__(self):
        terms = []
        for idx, c in zip(multi_indices(self.model.n, self.degree), self.coeffs):
            if not ex.is_zero(c):
                label = "^".join(f"e{i}" for i in idx) or "1"
                terms.append(f"({ex.to_string(c)})*{label}")
        return f"<FormField p={self.degree} on {self.model!r}: {' + '.join(terms) or '0'}>"


@lru_cache
def _structure_matrix(n: int, p: int, structure: bytes):
    """The algebraic part of d on p-forms (None when it vanishes), keyed on
    the bytes of the structure constants rather than on a model, so every
    model of one algebra shares an entry and no model is kept alive."""
    c = np.frombuffer(structure).reshape(n, n, n)
    if p == 0 or not np.any(c):
        return None
    # d(e^k) as a 2-form coefficient vector
    pairs = multi_indices(n, 2)
    de = np.zeros((n, len(pairs)))
    for k in range(n):
        for pos, (i, j) in enumerate(pairs):
            de[k, pos] = -c[i, j, k]
    out = np.zeros((form_count(n, p + 1), form_count(n, p)))
    for pos, idx in enumerate(multi_indices(n, p)):
        acc = np.zeros(form_count(n, p + 1))
        for r, axis in enumerate(idx):
            rest = idx[:r] + idx[r + 1 :]
            rest_coeffs = np.zeros(form_count(n, p - 1))
            rest_coeffs[index_position(n, p - 1)[rest]] = 1.0
            term = wedge_values(n, 2, p - 1, de[axis], rest_coeffs)
            acc += (-1.0 if r % 2 else 1.0) * term
        out[:, pos] = acc
    return out


class VectorField:
    """A vector field with one component expression per frame direction."""

    __slots__ = ("model", "comps")

    def __init__(self, model: Model, comps):
        comps = tuple(_as_expr(c, model.n) for c in comps)
        if len(comps) != model.n:
            raise ValueError(f"expected {model.n} components, got {len(comps)}")
        _check_coefficients(model, comps)
        self.model = model
        self.comps = comps

    def values(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.empty((pts.shape[0], self.model.n))
        for i, c in enumerate(self.comps):
            out[:, i] = ex.evaluate_many(c, pts)
        return out


def coframe(model: Model, i: int) -> FormField:
    """The basis 1-form dual to frame direction i."""
    coeffs = [ex.const(0.0)] * model.n
    coeffs[i] = ex.const(1.0)
    return FormField(model, 1, coeffs)


def constant_form(model: Model, degree: int, coeffs) -> FormField:
    return FormField(model, degree, [ex.const(float(c)) for c in np.asarray(coeffs, dtype=float).reshape(-1)])


def form_from_expressions(model: Model, degree: int, entries: dict) -> FormField:
    """Build a field from a mapping of multi-indices to expressions.

    Keys may be tuples of axis indices or single integers for 1-forms.
    """
    coeffs = [ex.const(0.0)] * form_count(model.n, degree)
    pos = index_position(model.n, degree)
    for key, value in entries.items():
        idx = (key,) if isinstance(key, int) else tuple(key)
        if idx not in pos:
            raise ValueError(f"{idx} is not an increasing multi-index for (n={model.n}, p={degree})")
        coeffs[pos[idx]] = _as_expr(value, model.n)
    return FormField(model, degree, coeffs)


def volume_form(model: Model) -> FormField:
    """The coordinate volume element e^0 ∧ .. ∧ e^{n-1}."""
    return FormField(model, model.n, [ex.const(1.0)])


def vector_from_expressions(model: Model, comps) -> VectorField:
    return VectorField(model, comps)


def pullback_form(product: ProductModel, field: FormField, side: str) -> FormField:
    """Pull a factor form back to the product along the factor projection."""
    if not isinstance(product, ProductModel):
        raise ValueError("pullback needs a product model")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    factor = product.left if side == "left" else product.right
    if field.model is not factor:
        raise ValueError(f"field does not live on the {side} factor")
    offset = 0 if side == "left" else product.left.n
    n, p = product.n, field.degree
    coeffs = [ex.const(0.0)] * form_count(n, p)
    pos = index_position(n, p)
    for idx, c in zip(multi_indices(factor.n, p), field.coeffs):
        shifted = tuple(i + offset for i in idx)
        coeffs[pos[shifted]] = ex.shift_variables(c, offset)
    return FormField(product, p, coeffs)


def pullback_vector(product: ProductModel, field: VectorField, side: str) -> VectorField:
    """Extend a factor vector field to the product (zero on the other factor)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    factor = product.left if side == "left" else product.right
    if field.model is not factor:
        raise ValueError(f"field does not live on the {side} factor")
    offset = 0 if side == "left" else product.left.n
    comps = [ex.const(0.0)] * product.n
    for i, c in enumerate(field.comps):
        comps[i + offset] = ex.shift_variables(c, offset)
    return VectorField(product, comps)

