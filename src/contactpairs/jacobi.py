"""Jacobi structures induced by contact data: exact structure checks at a
side's distinct samples, and brackets on charts' grids.

A side carries its 1-form alpha, its Reeb field E and the operator Λ♯ of
its bivector.  The leaves V of the alpha side of a pair of type (k, l) are
the kernel of beta and d beta (dimension 2k+1); a single contact form on an
odd chart is the degenerate case V = TM.  Each function f gets a
Hamiltonian field X_f in V:

    alpha(X_f) = f,      i_{X_f} (d alpha)|_V = (E.f) alpha|_V - (df)|_V.

With T = beta ∧ (d beta)^l (1 on a contact form), (d beta)^{l+1} = 0 kills
every conormal term in a wedge with T, so the insertion identity gives X_f
with no leaf basis: i_{X_f} vol = (f (d alpha)^k + k alpha ∧ df ∧
(d alpha)^{k-1}) ∧ T for vol = alpha ∧ (d alpha)^k ∧ T, that is X_f = f E +
Λ♯df (``contact._compact_dual``).

The bracket {f, g} = alpha([X_f, X_g]) satisfies the Jacobi identity for
all f, g and h if and only if [Λ, Λ] = 2 E ∧ Λ and L_E Λ = 0 (Lichnerowicz
1978; Kirillov 1976).  The ``jacobi`` verdict checks both pointwise
(``_structure_checks``), from Λ♯, E and their first partials, which are
exact: the product rule over the wedge chains whose vol-duals they are,
with the symbolic partials of the forms (``_jet_wedge``), and the quotient
rule that the Reeb commutator shares (``contact._quotient_rule``).

The library's brackets (``JacobiSide.bracket_values``) are alpha([X, Y])
on the grid, with [X, Y] = Σ_axes x_i dY - y_i dX formed over all n
components; no verdict or CLI path calls them.  All grid derivatives are
second-order central differences with periodic wrap; box axes use
one-sided second-order stencils at the boundary and are excluded from
defect suprema through the interior mask.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import expressions as ex
from .contact import (
    _compact_dual,
    _Field,
    _form_reeb,
    _partials,
    _peaks,
    _product_rule,
    _quotient_rule,
    _top,
    _troughs,
    _wedge,
    passes,
    verify_contact_pair,
)
from .exterior import _BLOCK, _scatter, chain_factor, form_count, two_form_matrices
from .fields import FormField
from .models import Model, _mentioned_nodes, _tensor_points, default_tolerance, grid_nodes

__all__ = [
    "JacobiError",
    "JacobiSide",
    "jacobi_bracket",
    "jacobi_identity_defect",
]


class JacobiError(ValueError):
    """A Jacobi side cannot be built or solved; ``condition`` is "non-finite"
    when a grid value overflowed, with the first such grid point as witness.
    A side's failed gate gives the defect and the threshold it applied."""

    def __init__(self, message: str, condition: str | None = None, witness: dict | None = None,
                 defect: float | None = None, threshold: float | None = None):
        super().__init__(message)
        self.condition = condition
        self.witness = witness or {}
        self.defect, self.threshold = defect, threshold


def _grid_witness(idx: int, points: np.ndarray, shapes=None) -> dict:
    """The witness of row idx of points: its point and, with ``shapes`` =
    (the shape of the points' grid, which holds axes of the grid at their
    first node, the grid's shape), the grid index at which the point first
    occurs, else idx."""
    index = idx if shapes is None else int(np.ravel_multi_index(np.unravel_index(idx, shapes[0]), shapes[1]))
    return {"point": points[idx].tolist(), "index": index}


def _require_finite(what: str, values: np.ndarray, points: np.ndarray, shapes=None) -> None:
    """Raise a witnessed "non-finite" JacobiError unless every row of values
    is finite, the first row that is not being the witness
    (``_grid_witness``)."""
    if np.isfinite(values).all():
        return
    first = int(np.argmin(np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)))
    witness = _grid_witness(first, points, shapes)
    raise JacobiError(f"non-finite {what} at grid point {witness['point']}", "non-finite", witness)


class _SideGrid:
    """A side's tensor grid and the sub-grid of its distinct samples.

    The sub-grid holds at its first node every axis that no coefficient of
    the side's forms mentions, by the quadrature's rule
    (``models._mentioned_nodes``): what is formed pointwise from the forms
    and their partials is constant along it.  Its points are exact copies of
    grid points, in the order in which they first occur in the grid, so a
    first argmin or argmax picks the same point on each.  Only a library
    side (``JacobiSide``) forms the grid's own points.
    """

    def __init__(self, model: Model, resolution, forms):
        if model.algebraic_axes:
            raise JacobiError("Jacobi sides are chart-only (no algebraic directions)")
        self.nodes = grid_nodes(model, resolution)
        sub_nodes, _ = _mentioned_nodes(model, self.nodes, forms)
        self.shape = tuple(len(g) for g in self.nodes)
        self.sub_shape = tuple(len(g) for g in sub_nodes)
        self.sub_points = _tensor_points(model.n, model.coordinate_axes, sub_nodes)

    def require_finite(self, what: str, values: np.ndarray) -> None:
        """``_require_finite`` of sub-grid values, witnessed at a grid index."""
        _require_finite(what, values, self.sub_points, (self.sub_shape, self.shape))

    def witness(self, idx: int) -> dict:
        """The witness of sub-grid row idx, at its grid index (``_grid_witness``)."""
        return _grid_witness(idx, self.sub_points, (self.sub_shape, self.shape))


def _axis_derivative(g: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """Second-order derivative along ``axis`` of an array whose other axes
    are grid or component axes: central differences, with the periodic
    wrap or, on a box axis, the one-sided stencils (-3 g[0] + 4 g[1] -
    g[2]) / 2h and (3 g[-1] - 4 g[-2] + g[-3]) / 2h at the two ends."""
    out = np.empty(g.shape)
    gm, om = np.moveaxis(g, axis, 0), np.moveaxis(out, axis, 0)
    om[1:-1] = (gm[2:] - gm[:-2]) / (2.0 * h)
    if periodic:
        om[0] = (gm[1] - gm[-1]) / (2.0 * h)
        om[-1] = (gm[0] - gm[-2]) / (2.0 * h)
    else:
        om[0] = (-3.0 * gm[0] + 4.0 * gm[1] - gm[2]) / (2.0 * h)
        om[-1] = (3.0 * gm[-1] - 4.0 * gm[-2] + gm[-3]) / (2.0 * h)
    return out


def _jet_wedge(n: int, *jets):
    """The jet of the wedge of ``jets``: a jet is a chain factor followed by
    its partials along the same axes, as chain factors or None for 0, and a
    None jet is the unit 1.  Its value is the wedge of the values
    (``contact._wedge``), each partial the product rule
    (``contact._product_rule``); None when every jet is None."""
    jets = [j for j in jets if j is not None]
    if not jets:
        return None
    return (_wedge(n, *(j[0] for j in jets)),
            *(_product_rule(n, [(j[0], j[a]) for j in jets]) for a in range(1, len(jets[0]))))


def _hamiltonian_operator(n: int, k: int, form, dform, tail=None) -> np.ndarray:
    """Λ♯ of a side followed by its m partials, shape (1 + m, P, n, n),
    C-ordered, from the jets (``_jet_wedge``) ``form`` = alpha, ``dform`` =
    d alpha and ``tail`` = T (None for 1), each a chain factor and its m
    partials: with B = alpha ∧ (d alpha)^{k-1} ∧ T and vol = B ∧ d alpha,
    column j is the vol-dual of k alpha ∧ dx^j ∧ (d alpha)^{k-1} ∧ T =
    -k dx^j ∧ B, formed compact (``contact._compact_dual``), and its
    partials follow by the quotient rule (``contact._quotient_rule``), the
    rows of each spread into Λ♯[i, j] = (Λ♯dx^j)^i (``_spread``).
    Λ♯ = 0 when k = 0."""
    if k == 0:
        return np.zeros((len(form), len(form[0][1]), n, n))

    def columns(b):  # k dx^j ∧ b in row j, as a chain factor, None for 0
        if b is None:
            return None
        _, values, live = chain_factor(n, (1, np.eye(n)), (n - 2, b[1][:, None, :], b[2]))
        values *= k  # a fresh array, scaled in place
        return n - 1, values, live

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the relations gate checks
        b = _jet_wedge(n, form, *[dform] * (k - 1), tail)
        volume = [None if v is None else -_top(v)[:, None] for v in _jet_wedge(n, b, dform)]
        x = _compact_dual(volume[0], columns(b[0]))
        parts = [_quotient_rule(x, volume[0], columns(db), dv) for db, dv in zip(b[1:], volume[1:])]
    return _spread([dict(zip(x.live, x.rows)), *parts], x.rows.shape[1:] + (n,))


def _reeb_partials(n: int, k: int, form, dform, tail, e: np.ndarray) -> np.ndarray:
    """The partials of a side's Reeb field E = e along the m axes of the
    jets (``_jet_wedge``), shape (m, P, n): alpha(E) = 1 and i_E kills d
    alpha and T, so E = ♯c / v for c = (d alpha)^k ∧ T and v = alpha ∧ c
    (the insertion identity), and ∂E = (♯∂c - E ∂v) / v
    (``contact._quotient_rule``) on every component of E, its rows spread
    into zeros (``_spread``)."""
    x = _Field(n, tuple(range(n)), np.moveaxis(e, -1, 0), None)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the caller checks
        c = _jet_wedge(n, *[dform] * k, tail)
        v = [None if f is None else _top(f) for f in _jet_wedge(n, form, c)]
        parts = [_quotient_rule(x, v[0], None if c is None else c[a], v[a]) for a in range(1, len(form))]
    return _spread(parts, e.shape)


def _relation_rows(n: int, form, dform) -> np.ndarray:
    """The rows (alpha; i_. d alpha) of a side's relations (``_relations``)
    per sample, shape (P, n + 1, n), from the chain factors (degree, values)
    or (degree, values, live) of alpha and d alpha, compact or dense
    (``exterior.chain_factor``), scattered dense and C-ordered, as a matmul
    operand: row 1 + i holds (i_{e_j} d alpha)_i = d alpha(e_j, e_i) in
    column j."""
    a, da = (_scatter(f[1], f[2][0] if f[2:] else None, form_count(n, f[0])) for f in (form, dform))
    return np.concatenate([a[:, None, :], np.swapaxes(two_form_matrices(n, da), 1, 2)], axis=1,
                          out=np.empty((len(a), n + 1, n)))


def _spread(parts, shape) -> np.ndarray:
    """The rows {i: row} of each dict of ``parts`` in zeros of shape
    (len(parts), *shape), row i of part a at [a, :, i]."""
    out = np.zeros((len(parts), *shape))
    for target, rows in zip(out, parts):
        for i, row in rows.items():
            target[:, i] = row
    return out


def _relations(lam, e, own_rows, other=None) -> tuple:
    """(the defect per sample, the scale) of the relations of the columns
    L_j = Λ♯dx^j, from the rows (alpha; i_. d alpha) of the side and, on a
    pair side, ``other`` = (the rows (beta; i_. d beta), the chain factor T):

        alpha(L_j) = 0,   (i_{L_j} d alpha + dx^j - E^j alpha) ∧ T = 0,
        beta(L_j) = 0,    i_{L_j} d beta = 0.

    The second is i_{X_f} d alpha = (E.f) alpha - df on V = ker T where f =
    0 and df = dx^j (on a contact form V = TM, and the 1-form vanishes);
    the relations are linear in (f, df), so these decide every f.  The
    threshold is tol times the scale, the peaks of the fields (Λ♯, E) and
    of the forms, each at least 1."""
    n = lam.shape[1]
    r = own_rows @ lam  # row 0: alpha(L_j), row 1 + i: (i_{L_j} d alpha)_i, in column j
    w = np.swapaxes(r[:, 1:], 1, 2) + np.eye(n) - e[:, :, None] * own_rows[:, :1, :]
    parts, forms = [r[:, 0]], [own_rows]
    if other is not None:
        other_rows, (degree, t, live) = other
        _, w, _ = chain_factor(n, (1, w), (degree, t[:, None, :], live))
        parts.append(other_rows @ lam)
        forms += [other_rows, t]
    # w and t may hold their live components alone, +0.0 being the others
    peak = np.max([np.abs(a).reshape(len(a), -1).max(axis=1, initial=0.0) for a in (*parts, w)], axis=0)
    scale = math.prod(max(1.0, *(float(np.abs(a).max(initial=0.0)) for a in arrays)) for arrays in ((lam, e), forms))
    return peak, scale


class _Side(NamedTuple):
    """A side's pointwise data at the distinct samples of its grid
    (``_SideGrid``): its 1-form alpha, its Reeb field E and its operator Λ♯,
    and, for the ``jacobi`` verdict, their partials ``de`` (m, P, n) and
    ``dlam`` (m, P, n, n) along the coordinate ``axes`` that the forms'
    coefficients mention (none otherwise); ``relations`` is what
    ``_relations`` gives of Λ♯ and E."""

    grid: _SideGrid
    leaf_dim: int
    tol: float
    alpha: np.ndarray
    e: np.ndarray
    lam: np.ndarray
    axes: tuple
    de: np.ndarray
    dlam: np.ndarray
    relations: tuple


def _jets(factors, partials: dict) -> tuple:
    """(jets, axes): each form's chain factor of ``factors`` followed by its
    exact partials along the axes of ``partials`` (``contact._partials``;
    empty for none) as compact chain factors, None where identically 0,
    and those axes."""
    return [(f, *(None if p is None else (f[0], p[0].T, p[1]) for p in (column[i] for column in partials.values())))
            for i, f in enumerate(factors)], tuple(partials)


def _structure(grid, k, leaf_dim, tol, jets, axes, e, own_rows, other=None) -> _Side:
    """A side from the jets (form, d form, T) of its forms along ``axes``
    (``_jets``), its Reeb field e and its relations' rows (``_relations``);
    a Λ♯, E or partial that is not finite fails as "non-finite"."""
    n, (form, dform, tail) = len(e[0]), jets
    lam = _hamiltonian_operator(n, k, form, dform, tail)
    grid.require_finite("Hamiltonian operator", np.moveaxis(lam, 0, 1))
    relations = _relations(lam[0], e, own_rows, other)
    de = np.stack(_reeb_partials(n, k, form, dform, tail, e)) if axes else np.zeros((0,) + e.shape)
    grid.require_finite("Reeb field partial", np.moveaxis(de, 0, 1))
    return _Side(grid, leaf_dim, tol, own_rows[:, 0], e, lam[0], axes, de, lam[1:], relations)


def _form_side(alpha: FormField, resolution=None, tol: float | None = None, partials: bool = False) -> _Side:
    """The degenerate side of a single contact form: V = TM, one leaf."""
    model = alpha.model
    n = model.n
    if n % 2 == 0:
        raise JacobiError("a single contact form needs an odd-dimensional model")
    if tol is None:
        tol = default_tolerance(model)
    grid = _SideGrid(model, resolution, (alpha,))
    pts = grid.sub_points
    av, dav = alpha.values(pts), alpha.d().values(pts)
    e, volume, residual = _form_reeb(n, av, dav)
    # an overflow first; where the volume v = alpha ∧ (d alpha)^k is
    # nonzero, A R = 0 gives i_R vol = 0, so the Reeb system has full rank
    grid.require_finite("Reeb system", volume)
    k, scale_a, scale_da = n // 2, float(np.max(np.abs(av))), float(np.max(np.abs(dav)))
    defect, idx, _ = _troughs(volume)[0]
    # the scale of the pair certificate and of classify, whose np.float64
    # power overflows to inf, not to an OverflowError
    with np.errstate(over="ignore"):
        threshold = float(tol * scale_a * np.float64(scale_da) ** k)
    if not passes(defect, threshold, lower=True):
        witness = grid.witness(idx)
        raise JacobiError(
            f"degenerate contact form: the volume alpha ^ (d alpha)^{k} vanishes at grid point "
            f"{witness['point']}", None, witness, defect=defect, threshold=threshold,
        )
    defect, threshold = float(np.max(residual)), tol * max(1.0, scale_a, scale_da)
    if not passes(defect, threshold, lower=False):
        raise JacobiError("Reeb system inconsistent: the form is not contact on the grid",
                          defect=defect, threshold=threshold)
    forms = (alpha, alpha.d())  # with the rows of their live coefficients, which the partials read
    samples = [v.T[list(f.live)] for f, v in zip(forms, (av, dav))]
    factors = (1, av), (2, dav)
    jets, axes = _jets(factors, _partials(forms, samples, pts, grid.require_finite) if partials else {})
    return _structure(grid, k, n, tol, (*jets, None), axes, e, _relation_rows(n, *factors))


def _pair_side(alpha: FormField, beta: FormField, k: int, l: int, side: str = "alpha", resolution=None,
               tol: float | None = None, partials: bool = False) -> _Side:
    """A side of a certified contact pair; the leaf distribution of the
    alpha side is the kernel of beta and d beta (dimension 2k+1), and T is
    beta ∧ (d beta)^l."""
    if side not in ("alpha", "beta"):
        raise ValueError("side must be 'alpha' or 'beta'")
    model = alpha.model
    n = model.n
    if tol is None:
        tol = default_tolerance(model)
    grid = _SideGrid(model, resolution, (alpha, beta))
    cert = verify_contact_pair(alpha, beta, k, l, tol=tol, points=grid.sub_points)
    s, w, powers = cert.sampled, ("alpha", "beta").index(side), (k, l)
    factors = s.factors()  # alpha, beta, d alpha, d beta
    own_rows, other_rows = (_relation_rows(n, factors[i], factors[2 + i]) for i in (w, 1 - w))
    jets, axes = _jets(factors, s.partials() if partials else {})
    with np.errstate(over="ignore", invalid="ignore"):  # the gate checks
        tail = _jet_wedge(n, jets[1 - w], *[jets[3 - w]] * powers[1 - w])
    e = (cert.reeb_alpha_values, cert.reeb_beta_values)[w]
    return _structure(grid, powers[w], 2 * powers[w] + 1, tol, (jets[w], jets[2 + w], tail), axes, e, own_rows,
                      (other_rows, tail[0]))


def _structure_defects(side: _Side) -> tuple:
    """Per sample, max |C + W| and max |L_E Λ| over their components, with
    Λ^{ij} = ``lam[p, i, j]``, ∂_l its partial along axis l and

        C^{abc} = Σ_cyc Σ_l Λ^{la} ∂_l Λ^{bc},   W^{abc} = Σ_cyc E^a Λ^{bc},
        (L_E Λ)^{ij} = E^l ∂_l Λ^{ij} - Λ^{lj} ∂_l E^i - Λ^{il} ∂_l E^j,

    Σ_cyc the sum over the cyclic permutations of (a, b, c) and l over the
    axes of the partials (the others' partials are identically 0).  The
    bracket is a Jacobi bracket exactly where C = -W ([Λ, Λ] = 2 E ∧ Λ) and
    L_E Λ = 0.  The (P, n, n, n) tensors are formed and reduced one
    ``_BLOCK`` of points at a time."""
    lam, e, dlam, de = side.lam, side.e, side.dlam, side.de
    identity, invariance = np.empty(len(lam)), np.empty(len(lam))
    for lo in range(0, len(lam), _BLOCK):
        b = slice(lo, lo + _BLOCK)
        lb, eb = lam[b], e[b]
        t = eb[:, :, None, None] * lb[:, None]  # E^a Λ^{bc}
        lie = np.zeros(lb.shape)
        for i, l in enumerate(side.axes):
            t += lb[:, l, :, None, None] * dlam[i, b][:, None]  # Λ^{la} ∂_l Λ^{bc}
            lie += eb[:, l, None, None] * dlam[i, b]
            lie -= de[i, b][:, :, None] * lb[:, None, l, :]
            lie -= lb[:, :, l, None] * de[i, b][:, None, :]
        t = t + t.transpose(0, 3, 1, 2) + t.transpose(0, 2, 3, 1)
        identity[b] = np.abs(t).reshape(len(t), -1).max(axis=1)
        invariance[b] = np.abs(lie).reshape(len(lie), -1).max(axis=1)
    return identity, invariance


def _structure_checks(side: _Side) -> list:
    """(name, defect, threshold, witness) of each check of the ``jacobi``
    verdict: the relations of Λ♯ (``_relations``) and the two conditions of
    ``_structure_defects``, each the max over the samples, witnessed at the
    first sample that reaches it (``_SideGrid.witness``).  The latter two
    share the threshold tol * scale, scale the product of the peaks of
    |Λ♯|, |E|, |∂Λ♯| and |∂E|, each at least 1."""
    peaks, scale = side.relations
    # peaks without an |.| copy: every value is finite (``_structure``)
    structure = math.prod(max(1.0, a.max(initial=0.0), -a.min(initial=0.0)) for a in (side.lam, side.e, side.dlam, side.de))
    identity, invariance = _structure_defects(side)
    checks = (("hamiltonian_relations_defect", peaks, scale), ("jacobi_identity_defect", identity, structure),
              ("reeb_invariance_defect", invariance, structure))
    return [(name, float(d.max()), side.tol * s, side.grid.witness(int(np.argmax(d)))) for name, d, s in checks]


class JacobiSide:
    """One side of the induced Jacobi data, sampled on a tensor grid.

    The side's pointwise algebra (form, Reeb field E, operator Λ♯) depends
    on its forms only: the constructors compute it and gate it
    (``_relations``) once per sample of the sub-grid.  alpha and E are
    copied to the grid, C-ordered, since einsum sums in a layout-dependent
    order; Λ♯ stays at the sub-grid's samples (``lambda_sharp``), each grid
    point reading row ``source[p]``.
    Every grid operator works on the grid (``points``, of ``grid_shape``):
    a Hamiltonian field X_f = f E + Λ♯df (``solve_hamiltonian``) and the
    bracket alpha([X, Y]) (``bracket_values``), by central differences.
    No verdict forms a library side; criterion 9 tests it.
    """

    def __init__(self, model, side: _Side):
        peaks, scale = side.relations
        (worst, idx), threshold = _peaks(peaks)[0], side.tol * scale
        if not passes(worst, threshold, lower=False):
            point = side.grid.sub_points[idx].tolist()
            raise JacobiError(f"Hamiltonian relations defect {worst:.3e} at {point}", defect=worst, threshold=threshold)
        grid = side.grid
        self.model = model
        self.grid_shape = grid.shape
        self.points = _tensor_points(model.n, model.coordinate_axes, grid.nodes)
        self.steps, self.periodic = [], []
        for i, r in zip(model.coordinate_axes, self.grid_shape):
            a = model.axes[i]
            self.steps.append(a.length / r if a.periodic else a.length / (r - 1))
            self.periodic.append(a.periodic)
        self.leaf_dim = side.leaf_dim
        # the sub-grid sample of each grid point
        sub_index = np.arange(math.prod(grid.sub_shape)).reshape(grid.sub_shape)
        self.source = np.broadcast_to(sub_index, grid.shape).reshape(-1)
        # einsum operands, C-ordered: one contiguous take each
        self.alpha_values = np.take(side.alpha, self.source, axis=0)
        self.e_values = np.take(side.e, self.source, axis=0)
        self.lambda_sharp = side.lam
        self.tol = side.tol
        self.interior_mask = self._build_interior_mask()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_contact_form(cls, alpha: FormField, resolution=None, tol: float | None = None):
        """Degenerate side of a single contact form: V = TM, one leaf."""
        return cls(alpha.model, _form_side(alpha, resolution, tol))

    @classmethod
    def from_pair(cls, alpha: FormField, beta: FormField, k: int, l: int, side: str = "alpha", resolution=None,
                  tol: float | None = None):
        """A side of a certified contact pair; the leaf distribution of the
        alpha side is the kernel of beta and d beta (dimension 2k+1), and T
        is beta ∧ (d beta)^l."""
        return cls(alpha.model, _pair_side(alpha, beta, k, l, side, resolution, tol))

    def _build_interior_mask(self):
        mask = np.ones(self.grid_shape, dtype=bool)
        for d, per in enumerate(self.periodic):
            if per:
                continue
            m = np.moveaxis(mask, d, 0)
            m[0] = False
            m[-1] = False
        return mask.reshape(-1)

    def scalar_data(self, f):
        """Normalize a function to (values, gradient, E.f) on the grid."""
        vals, grad = self._value_and_gradient(f)
        return vals, grad, np.einsum("pi,pi->p", self.e_values, grad)

    def _value_and_gradient(self, f):
        if isinstance(f, str):
            f = ex.parse(f, self.model.n)
        if isinstance(f, ex.Expr):
            vals = self._grid_values(f, "function values")
            grad = np.zeros((self.points.shape[0], self.model.n))
            for a in self.model.coordinate_axes:
                grad[:, a] = self._grid_values(ex.partial(f, a), f"partial along x{a}")
            return vals, grad
        vals = np.asarray(f, dtype=float).reshape(-1)
        if vals.shape[0] != self.points.shape[0]:
            raise ValueError("grid function has the wrong number of samples")
        return vals, self.grid_gradient(vals)

    def _grid_values(self, e, what: str) -> np.ndarray:
        """e on the grid; where it overflows, ``_require_finite`` fails."""
        try:
            return ex.evaluate_many(e, self.points)
        except ex.EvaluationError:
            _require_finite(what, ex._values(e, self.points), self.points)
            raise

    def _axes(self):
        """(grid dimension, axis, step, periodic) of each grid axis."""
        return [(d, *axis) for d, axis in enumerate(zip(self.model.coordinate_axes, self.steps, self.periodic))]

    def grid_gradient(self, values: np.ndarray) -> np.ndarray:
        """Finite-difference gradient of a grid function, shape (P, n)."""
        g = values.reshape(self.grid_shape)
        out = np.zeros((values.shape[0], self.model.n))
        for d, i, h, per in self._axes():
            out[:, i] = _axis_derivative(g, d, h, per).reshape(-1)
        return out

    def solve_hamiltonian(self, f) -> np.ndarray:
        """The Hamiltonian field X_f = f E + Λ♯df on the grid."""
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are caught below
            return self._hamiltonian(*self._value_and_gradient(f))

    def _hamiltonian(self, vals: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """X_f from the grid values and gradient of f, each grid point
        reading Λ♯ at its sub-grid sample."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = vals[:, None] * self.e_values
            x += np.einsum("pij,pj->pi", self.lambda_sharp[self.source], grad)
        _require_finite("Hamiltonian system", x, self.points)
        return x

    def bracket_values(self, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        """alpha([X, Y]) pointwise for grid vector fields X and Y, with
        [X, Y] = Σ_axes x_i dY - y_i dX by central differences."""
        n = self.model.n
        xg, yg = xv.reshape(self.grid_shape + (n,)), yv.reshape(self.grid_shape + (n,))
        out = np.zeros(xv.shape)
        for d, i, h, per in self._axes():
            dx = _axis_derivative(xg, d, h, per).reshape(-1, n)
            dy = _axis_derivative(yg, d, h, per).reshape(-1, n)
            out += xv[:, i : i + 1] * dy - yv[:, i : i + 1] * dx
        return np.einsum("pi,pi->p", self.alpha_values, out)


def jacobi_bracket(f, g, side: JacobiSide) -> np.ndarray:
    """{f, g} = alpha([X_f, X_g]) on the grid."""
    xf = side.solve_hamiltonian(f)
    xg = side.solve_hamiltonian(g)
    return side.bracket_values(xf, xg)


def jacobi_identity_defect(f, g, h, side: JacobiSide) -> float:
    """sup over interior grid points of |{{f,g},h} + {{g,h},f} + {{h,f},g}|,
    with f, g and h solved for once."""
    xf, xg, xh = (side.solve_hamiltonian(u) for u in (f, g, h))
    b1, b2, b3 = (
        side.bracket_values(side.solve_hamiltonian(side.bracket_values(x, y)), z)
        for x, y, z in ((xf, xg, xh), (xg, xh, xf), (xh, xf, xg))
    )
    total = b1 + b2 + b3
    return float(np.max(np.abs(total[side.interior_mask])))
