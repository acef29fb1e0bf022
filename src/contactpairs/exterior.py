"""Pointwise alternating multilinear algebra at a single tangent space.

Coefficients are indexed by strictly increasing multi-indices in lexicographic
order, shared by every module in the package.  The wedge uses the determinant
(shuffle) convention with no factorial normalization, so
``evaluate(dx^I, e_I) = 1`` and

    (w ∧ h)(v_1..v_{p+q}) = sum over (p,q)-shuffles s of
                            sgn(s) w(v_{s(1..p)}) h(v_{s(p+1..p+q)}).

The kernels operate on raw coefficient arrays whose last axis is the
coefficient axis; leading axes broadcast, which the field pipelines use to
evaluate at many sample points at once.  One kernel (``_bilinear``) runs each
table row once over all points and returns a ``(..., m)`` view of a
component-major buffer holding only the m output components its rows reach;
on component-major operands each operation runs on contiguous point vectors,
and the result is bit-identical to the per-column formula
``out[..., io] += sign * a * b``.
A table row whose term is ±0 at every point (an all-±0 column against a
finite operand) is skipped: adding ±0 to a sum that starts at +0.0 changes no
bit, since such a sum is zero only by exact cancellation, which gives +0.
Which columns are all ±0 comes from a live set the operand carries
(``chain_factor``), or from a scan of an operand that carries none.  Products
hold their live components alone; dense ``(..., C)`` arrays exist only at the
public boundary (``wedge_values``, ``interior_values``, ``chain``,
``FormValue``), built by one scatter into zeros.
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


# points per block: a family's t batches and the quadrature's node blocks
# (``_per_block``), and the ``jacobi`` verdict's structure defects
_BLOCK = 4096


def _per_block(points: int) -> int:
    """How many groups of ``points`` points are formed together: as many as
    fit in ``_BLOCK`` points, and at least one."""
    return max(1, _BLOCK // points)


@lru_cache(maxsize=1024)  # one entry per table, sparsity pattern and layout met
def _live_rows(table_of, dims, states_a, states_b, cols_a, cols_b) -> tuple:
    """The rows of table_of(*dims) but those with an all-±0 column and a
    finite partner column (0 * inf and 0 * NaN are NaN), all without
    states, in table order, and the sorted output positions of those rows.
    Each row (ia, ib, io, sign) gives ia as its place among the columns
    cols_a that a holds (-1 if none), ib alike, io among the outputs."""
    rows = table_of(*dims)
    if states_a:
        (fin_a, zero_a), (fin_b, zero_b) = states_a, states_b
        rows = [row for row in rows if not (zero_a[row[0]] and fin_b[row[1]] or zero_b[row[1]] and fin_a[row[0]])]
    outputs = tuple(sorted({row[2] for row in rows}))
    place = [{c: i for i, c in enumerate(cols)} for cols in (cols_a, cols_b, outputs)]
    return tuple((place[0].get(ia, -1), place[1].get(ib, -1), place[2][io], sign) for ia, ib, io, sign in rows), outputs


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


def _columns(x: np.ndarray, live, count: int):
    """The components the operand x holds: its live ones if compact."""
    return live[0] if live and x.shape[-1] < count else range(count)


def _rows(table_of, dims, a: np.ndarray, b: np.ndarray, live_a=None, live_b=None) -> tuple:
    """``_live_rows`` for a and b.  An operand with ``live`` = (live
    components, bound), all other components +0.0 and the bound at least
    max |x| (inf when unknown), is not read; it holds every component or,
    compact, its live ones alone, in order.  One without is scanned,
    unless both operands are nonzero at their first point in every
    column, which gives the full table."""
    n, p, *q = dims
    operands = (a, live_a, form_count(n, p) if q else n), (b, live_b, form_count(n, q[0] if q else p))
    cols = [_columns(x, live, count) for x, live, count in operands]
    if all(len(live[0]) == count if live else np.count_nonzero(x.reshape(-1, count)[:1]) == count
           for x, live, count in operands):
        return _live_rows(table_of, dims, None, None, *cols)
    # the column states, from a live set (``_carried_states``) or a scan
    states = [_carried_states(count, live[0], bool(live[1] < math.inf)) if live else _column_states(x)
              for x, live, count in operands]
    return _live_rows(table_of, dims, *states, *cols)


@lru_cache(maxsize=1024)
def _reaches(n: int, p: int, axes: tuple, comps: tuple) -> bool:
    """Whether i_X w has a row for X live on axes and w on comps."""
    indices = multi_indices(n, p)
    return any(not set(axes).isdisjoint(indices[c]) for c in comps)


def _bilinear(a: np.ndarray, b: np.ndarray, rows, count: int) -> np.ndarray:
    """out[..., io] = sum of sign * a[..., ia] * b[..., ib] over the rows
    (ia, ib, io, sign) of ``_rows``, in order, for the count outputs of
    those rows; a column -1 reads as +0.0 and leading axes broadcast.

    Runs each row once over all points, through one temporary of P values,
    and returns a (..., count) view of a component-major buffer; without
    rows, it is empty.  Each term is added or subtracted as a * b, which is
    bit-identical to adding (sign * a) * b for sign = ±1.  A dropped row
    would add ±0 at every point, which in round-to-nearest changes no bit
    of a sum that starts at +0.0.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    shape = a.shape[:-1]
    if b.shape[:-1] != shape:
        shape = np.broadcast_shapes(shape, b.shape[:-1])
        a, b = np.broadcast_to(a, shape + a.shape[-1:]), np.broadcast_to(b, shape + b.shape[-1:])
    if not rows:
        return np.zeros(shape + (count,))
    points = math.prod(shape)
    a, b = a.reshape(points, a.shape[-1]), b.reshape(points, b.shape[-1])
    out, t = np.zeros((count, points)), np.empty(points)
    a_cols, b_cols, o_rows = [*a.T, 0.0], [*b.T, 0.0], list(out)
    for ia, ib, io, sign in rows:
        np.multiply(a_cols[ia], b_cols[ib], out=t)
        if sign > 0:
            o_rows[io] += t
        else:
            o_rows[io] -= t
    return out.T.reshape(shape + (count,))


def _scatter(values: np.ndarray, outputs: tuple, count: int) -> np.ndarray:
    """The dense (..., count) array of values held at outputs, +0.0 elsewhere."""
    if values.shape[-1] == count:
        return values
    out = np.zeros(values.shape[:-1] + (count,))
    out[..., outputs] = values
    return out


def wedge_values(n: int, p: int, q: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge on coefficient arrays; leading axes broadcast."""
    rows, outputs = _rows(_wedge_table, (n, p, q), a, b)
    return _scatter(_bilinear(a, b, rows, len(outputs)), outputs, form_count(n, p + q))


def chain_factor(n: int, *factors) -> tuple:
    """Left-to-right wedge ((f1 ∧ f2) ∧ f3) ∧ .. of factors (degree,
    values) or (degree, values, live), live = (live components, bound) as
    in ``_rows``; leading axes broadcast.  Returns (degree, values, live),
    a product's values compact: their last axis holds its live
    components, the output components of the rows run, in order.  Its
    bound is rows * bound_a * bound_b, doubled to cover the rounding of
    the sums, when both factors have a live set, and its max |x|
    otherwise; an overflowing or NaN bound reads as unknown."""
    (p, acc, *live), *rest = factors
    live = live[0] if live else None
    for q, values, *other in rest:
        other = other[0] if other else None
        rows, outputs = _rows(_wedge_table, (n, p, q), acc, values, live, other)
        acc = _bilinear(acc, values, rows, len(outputs))
        with np.errstate(over="ignore", invalid="ignore"):
            bound = 2.0 * len(rows) * live[1] * other[1] if live and other else float(np.abs(acc).max(initial=0.0))
        live = outputs, bound
        p += q
    return p, acc, live


def chain(n: int, *factors) -> np.ndarray:
    """The values of ``chain_factor``, dense."""
    p, values, live = chain_factor(n, *factors)
    return _scatter(values, live and live[0], form_count(n, p))


def _interior(n: int, p: int, x: np.ndarray, w: np.ndarray, live_x=None, live_w=None) -> tuple:
    """Contraction i_X w on raw arrays, x with its component axis last, as
    (values, outputs), compact.  The rows run are picked from the live sets
    of x and w, as in ``_rows``, where they are given."""
    rows, outputs = _rows(_interior_table, (n, p), x, w, live_x, live_w)
    return _bilinear(x, w, rows, len(outputs)), outputs


def interior_values(n: int, p: int, x: np.ndarray, w: np.ndarray, live_x=None, live_w=None) -> np.ndarray:
    """Contraction i_X w on raw arrays, dense (``_interior``)."""
    return _scatter(*_interior(n, p, x, w, live_x, live_w), form_count(n, p - 1))


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
