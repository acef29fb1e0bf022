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
A table row whose term is ±0 at every point (an all-±0 column against a
finite operand) is skipped: adding ±0 to a sum that starts at +0.0 changes no
bit, since such a sum is zero only by exact cancellation, which gives +0.
Which columns are all ±0 comes from a live set the operand carries
(``chain_factor``), or from a scan of an operand that carries none.
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
    "chain_factor",
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


# points per block of the bilinear kernel, which keeps its strided reads and
# its one temporary cache-sized, and of the singular values of the Reeb rows
# in contact, which hold the rows of one block at a time
_BLOCK = 4096


def _per_block(points: int) -> int:
    """How many groups of ``points`` points are formed together: as many as
    fit in ``_BLOCK`` points, and at least one."""
    return max(1, _BLOCK // points)


@lru_cache(maxsize=1024)  # one entry per table and sparsity pattern met
def _live_rows(table_of, dims, states_a, states_b) -> tuple:
    """The rows of table_of(*dims) but those with an all-±0 column and a
    finite partner column (0 * inf and 0 * NaN are NaN), in table order,
    and the sorted output positions of those rows."""
    (fin_a, zero_a), (fin_b, zero_b) = states_a, states_b
    rows = tuple(row for row in table_of(*dims)
                 if not (zero_a[row[0]] and fin_b[row[1]] or zero_b[row[1]] and fin_a[row[0]]))
    return rows, tuple(sorted({row[2] for row in rows}))


@lru_cache(maxsize=None)
def _full_rows(table_of, dims) -> tuple:
    table = table_of(*dims)
    return table, tuple(sorted({row[2] for row in table}))


@lru_cache(maxsize=1024)
def _carried_states(count: int, live: tuple, finite: bool) -> tuple:
    """The column states of an operand with a live set: a column is all ±0
    when it is not live, and finite when the operand's bound is."""
    return bytes([finite] * count), bytes([i not in live for i in range(count)])


def _column_states(x: np.ndarray) -> tuple:
    """The column states of an operand without a live set, from the column
    sums of |x|: 0 only for an all-±0 column, not finite for one with an
    inf or a NaN or whose sum overflows (which only keeps more rows)."""
    x = x.reshape(-1, x.shape[-1])
    with np.errstate(over="ignore"):
        sums = np.ones(len(x)) @ np.abs(x)
    return np.isfinite(sums).tobytes(), (sums == 0).tobytes()


def _states(x: np.ndarray, live) -> tuple:
    """The column states of an operand: from its live set when it carries
    one (``_carried_states``), from a scan otherwise."""
    return _carried_states(x.shape[-1], live[0], bool(live[1] < math.inf)) if live else _column_states(x)


def _rows(table_of, dims, a: np.ndarray, b: np.ndarray, live_a=None, live_b=None) -> tuple:
    """``_live_rows`` for a and b.  An operand with ``live`` = (live
    components, bound), all other components +0.0 and the bound at least
    max |x| (inf when unknown), is not read; one without is scanned, unless
    both operands are nonzero at their first point in every column, which
    gives the full table."""
    count_a, count_b = a.shape[-1], b.shape[-1]
    dense_a = len(live_a[0]) == count_a if live_a else np.count_nonzero(a.reshape(-1, count_a)[:1]) == count_a
    dense_b = len(live_b[0]) == count_b if live_b else np.count_nonzero(b.reshape(-1, count_b)[:1]) == count_b
    if dense_a and dense_b:
        return _full_rows(table_of, dims)
    return _live_rows(table_of, dims, _states(a, live_a), _states(b, live_b))


def _bilinear(table_of, dims, count: int, a: np.ndarray, b: np.ndarray, rows=None):
    """out[..., io] = sum of sign * a[..., ia] * b[..., ib] over the rows
    (ia, ib, io, sign) of ``_rows`` (given, or found from a scan of a and
    b), in table order; leading axes broadcast.

    Works component by component on blocks of points and returns a
    (..., count) view of a component-major buffer.  With sign = ±1 each
    term is added or subtracted as a * b, which is bit-identical to adding
    (sign * a) * b.  A dropped row would add ±0 at every point, which in
    round-to-nearest changes no bit of a sum that starts at +0.0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    table = _rows(table_of, dims, a, b)[0] if rows is None else rows
    shape = a.shape[:-1]
    if b.shape[:-1] != shape:
        shape = np.broadcast_shapes(shape, b.shape[:-1])
        a, b = np.broadcast_to(a, shape + a.shape[-1:]), np.broadcast_to(b, shape + b.shape[-1:])
    a, b = a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1])
    points = a.shape[0]
    out = np.zeros((count, points))
    tmp = np.empty(min(points, _BLOCK))
    for lo in range(0, points if table else 0, _BLOCK):
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


def wedge_values(n: int, p: int, q: int, a: np.ndarray, b: np.ndarray, rows=None) -> np.ndarray:
    """Wedge on coefficient arrays; leading axes broadcast.  ``rows`` are
    the table rows to run (``_rows``; ``chain_factor`` picks them from its
    factors' live sets), found from a scan of a and b when not given."""
    return _bilinear(_wedge_table, (n, p, q), form_count(n, p + q), a, b, rows)


def chain_factor(n: int, *factors) -> tuple:
    """Left-to-right wedge ((f1 ∧ f2) ∧ f3) ∧ .. of factors (degree,
    values) or (degree, values, live), live = (live components, bound) as
    in ``_rows``; leading axes broadcast.  Returns (degree, values, live):
    when every factor has a live set, the product has one, the output
    positions of the rows run and the bound rows * bound_a * bound_b,
    doubled to cover the rounding of the sums; an overflowing bound reads
    as unknown."""
    (p, acc, *live), *rest = factors
    live = live[0] if live else None
    for q, values, *other in rest:
        other = other[0] if other else None
        rows, outputs = _rows(_wedge_table, (n, p, q), acc, values, live, other)
        acc = wedge_values(n, p, q, acc, values, rows)
        if live and other:
            with np.errstate(over="ignore", invalid="ignore"):
                live = outputs, 2.0 * len(rows) * live[1] * other[1]
        else:
            live = None
        p += q
    return p, acc, live


def chain(n: int, *factors) -> np.ndarray:
    """The values of ``chain_factor``."""
    return chain_factor(n, *factors)[1]


def interior_values(n: int, p: int, x: np.ndarray, w: np.ndarray, live_x=None, live_w=None) -> np.ndarray:
    """Contraction i_X w on raw arrays; x has component axis last.  The
    rows run are picked from the live sets of x and w, as in ``_rows``,
    where they are given."""
    rows = _rows(_interior_table, (n, p), x, w, live_x, live_w)[0]
    return _bilinear(_interior_table, (n, p), form_count(n, p - 1), x, w, rows)


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
