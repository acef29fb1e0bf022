"""Pointwise alternating multilinear algebra at a single tangent space.

Coefficients are indexed by strictly increasing multi-indices in lexicographic
order, shared by every module in the package.  The wedge uses the determinant
(shuffle) convention with no factorial normalization, so
``evaluate(dx^I, e_I) = 1`` and

    (w ∧ h)(v_1..v_{p+q}) = sum over (p,q)-shuffles s of
                            sgn(s) w(v_{s(1..p)}) h(v_{s(p+1..p+q)}).

The ``*_values`` kernels operate on raw coefficient arrays whose last axis is
the coefficient axis; leading axes broadcast, which the field pipelines use to
evaluate at many sample points at once.  They loop over the components on
blocks of points and return a ``(..., C)`` view of a component-major buffer,
so each inner operation runs on contiguous point vectors; the result is
bit-identical to the per-column formula ``out[..., io] += sign * a * b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "DimensionError",
    "FormValue",
    "VectorValue",
    "multi_indices",
    "index_position",
    "form_count",
    "wedge",
    "interior",
    "evaluate",
    "wedge_power",
    "norm_inf",
    "wedge_values",
    "chain",
    "interior_values",
    "two_form_matrices",
    "basis_form",
    "zero_form",
    "basis_vector",
]


class DimensionError(ValueError):
    """Mismatched ambient dimensions or a degree out of range."""


@lru_cache(maxsize=None)
def multi_indices(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing p-tuples in [0, n), lexicographic order."""
    if p < 0 or p > n:
        return ()
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def index_position(n: int, p: int) -> dict[tuple[int, ...], int]:
    return {idx: pos for pos, idx in enumerate(multi_indices(n, p))}


def form_count(n: int, p: int) -> int:
    return math.comb(n, p) if 0 <= p <= n else 0


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _wedge_table(n: int, p: int, q: int) -> tuple[tuple[int, int, int, int], ...]:
    """Sparse product table: (pos_left, pos_right, pos_out, sign)."""
    out_pos = index_position(n, p + q)
    rows = []
    for ia, left in enumerate(multi_indices(n, p)):
        left_set = set(left)
        for ib, right in enumerate(multi_indices(n, q)):
            if left_set & set(right):
                continue
            merged = tuple(sorted(left + right))
            rows.append((ia, ib, out_pos[merged], _merge_sign(left, right)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _interior_table(n: int, p: int) -> tuple[tuple[int, int, int, int], ...]:
    """Contraction table: (axis, pos_in, pos_out, sign), i_X dx^I expansion."""
    out_pos = index_position(n, p - 1)
    rows = []
    for iw, idx in enumerate(multi_indices(n, p)):
        for r, axis in enumerate(idx):
            rest = idx[:r] + idx[r + 1 :]
            rows.append((axis, iw, out_pos[rest], -1 if r % 2 else 1))
    return tuple(rows)


# points per block of the bilinear kernel: keeps its strided reads and its
# one temporary cache-sized
_BLOCK = 4096


def _bilinear(table, count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[..., io] = sum of sign * a[..., ia] * b[..., ib] over the table rows
    (ia, ib, io, sign), in table order; leading axes broadcast.

    Works component by component on blocks of points and returns a
    (..., count) view of a component-major buffer.  With sign = ±1 each
    term is added or subtracted as a * b, which is bit-identical to adding
    (sign * a) * b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    a = np.broadcast_to(a, shape + a.shape[-1:]).reshape(-1, a.shape[-1])
    b = np.broadcast_to(b, shape + b.shape[-1:]).reshape(-1, b.shape[-1])
    points = a.shape[0]
    out = np.zeros((count, points))
    tmp = np.empty(min(points, _BLOCK))
    for lo in range(0, points, _BLOCK):
        hi = min(lo + _BLOCK, points)
        t = tmp[: hi - lo]
        a_cols, b_cols, o_rows = list(a[lo:hi].T), list(b[lo:hi].T), list(out[:, lo:hi])
        for ia, ib, io, sign in table:
            np.multiply(a_cols[ia], b_cols[ib], out=t)
            o = o_rows[io]
            if sign > 0:
                o += t
            else:
                o -= t
    return out.T.reshape(shape + (count,))


def wedge_values(n: int, p: int, q: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge on coefficient arrays; leading axes broadcast."""
    return _bilinear(_wedge_table(n, p, q), form_count(n, p + q), a, b)


def chain(n: int, *factors) -> np.ndarray:
    """Left-to-right wedge of coefficient arrays given as (degree, values)
    pairs: ((f1 ∧ f2) ∧ f3) ∧ ..; leading axes broadcast."""
    (p, acc), *rest = factors
    for q, values in rest:
        acc = wedge_values(n, p, q, acc, values)
        p += q
    return acc


def interior_values(n: int, p: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contraction i_X w on raw arrays; x has component axis last."""
    return _bilinear(_interior_table(n, p), form_count(n, p - 1), x, w)


@lru_cache(maxsize=None)
def _two_form_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions i*n + j and j*n + i in an n x n matrix of each pair
    (i, j) of multi_indices(n, 2), read-only."""
    pairs = np.array(multi_indices(n, 2), dtype=np.intp).reshape(-1, 2)
    upper, lower = pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def two_form_matrices(n: int, coeffs: np.ndarray) -> np.ndarray:
    """Antisymmetric matrices M with M[i, j] = w(e_i, e_j) from 2-form coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    flat = coeffs.reshape(math.prod(coeffs.shape[:-1]), coeffs.shape[-1])
    upper, lower = _two_form_positions(n)
    out = np.zeros((flat.shape[0], n * n))
    out[:, upper] = flat
    out[:, lower] = -flat
    return out.reshape(coeffs.shape[:-1] + (n, n))


@dataclass(frozen=True)
class FormValue:
    """An alternating p-form at one tangent space: C(n, p) real coefficients."""

    n: int
    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 <= self.p <= self.n:
            raise DimensionError(f"degree {self.p} out of range for dimension {self.n}")
        coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if coeffs.shape[0] != form_count(self.n, self.p):
            raise DimensionError(
                f"expected {form_count(self.n, self.p)} coefficients for (n={self.n}, p={self.p}),"
                f" got {coeffs.shape[0]}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def __add__(self, other: "FormValue") -> "FormValue":
        _check_same_shape(self, other)
        return FormValue(self.n, self.p, self.coeffs + other.coeffs)

    def __sub__(self, other: "FormValue") -> "FormValue":
        _check_same_shape(self, other)
        return FormValue(self.n, self.p, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "FormValue":
        return FormValue(self.n, self.p, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "FormValue":
        return FormValue(self.n, self.p, -self.coeffs)


@dataclass(frozen=True)
class VectorValue:
    """A tangent vector: n real components."""

    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float).reshape(-1)
        comps = comps.copy()
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return self.components.shape[0]


def _check_same_shape(a: FormValue, b: FormValue):
    if a.n != b.n or a.p != b.p:
        raise DimensionError(f"shape mismatch: (n={a.n}, p={a.p}) vs (n={b.n}, p={b.p})")


def wedge(a: FormValue, b: FormValue) -> FormValue:
    """Exterior product; raises on dimension mismatch or degree overflow."""
    if a.n != b.n:
        raise DimensionError(f"ambient dimension mismatch: {a.n} vs {b.n}")
    if a.p + b.p > a.n:
        raise DimensionError(f"degree overflow: {a.p} + {b.p} > {a.n}")
    return FormValue(a.n, a.p + b.p, wedge_values(a.n, a.p, b.p, a.coeffs, b.coeffs))


def interior(x: VectorValue, w: FormValue) -> FormValue:
    """Contraction i_X w, the form (v_1..v_{p-1}) -> w(X, v_1..v_{p-1})."""
    if x.n != w.n:
        raise DimensionError(f"ambient dimension mismatch: {x.n} vs {w.n}")
    if w.p < 1:
        raise DimensionError("cannot contract a 0-form")
    return FormValue(w.n, w.p - 1, interior_values(w.n, w.p, x.components, w.coeffs))


def evaluate(w: FormValue, vectors) -> float:
    """Full alternating evaluation w(v_1, .., v_p)."""
    vectors = list(vectors)
    if len(vectors) != w.p:
        raise DimensionError(f"expected {w.p} vectors, got {len(vectors)}")
    if w.p == 0:
        return float(w.coeffs[0])
    mat = np.column_stack([np.asarray(v.components, dtype=float) for v in vectors])
    if mat.shape[0] != w.n:
        raise DimensionError("vector dimension mismatch")
    total = 0.0
    for pos, idx in enumerate(multi_indices(w.n, w.p)):
        c = w.coeffs[pos]
        if c != 0.0:
            total += c * np.linalg.det(mat[list(idx), :])
    return float(total)


def wedge_power(w: FormValue, k: int) -> FormValue:
    """k-fold wedge of a 2-form; k = 0 gives the constant 1."""
    if w.p != 2:
        raise DimensionError(f"wedge_power requires degree 2, got {w.p}")
    if k < 0:
        raise ValueError("power must be nonnegative")
    if 2 * k > w.n:
        raise DimensionError(f"degree overflow: 2*{k} > {w.n}")
    out = FormValue(w.n, 0, np.array([1.0]))
    for _ in range(k):
        out = wedge(out, w)
    return out


def norm_inf(w: FormValue) -> float:
    """Maximum absolute coefficient."""
    return float(np.max(np.abs(w.coeffs)))


def zero_form(n: int, p: int) -> FormValue:
    return FormValue(n, p, np.zeros(form_count(n, p)))


def basis_form(n: int, idx: tuple[int, ...]) -> FormValue:
    """The basis form dx^idx (idx strictly increasing)."""
    idx = tuple(idx)
    coeffs = np.zeros(form_count(n, len(idx)))
    coeffs[index_position(n, len(idx))[idx]] = 1.0
    return FormValue(n, len(idx), coeffs)


def basis_vector(n: int, i: int) -> VectorValue:
    comps = np.zeros(n)
    comps[i] = 1.0
    return VectorValue(comps)
