"""Jacobi structures induced by contact data, tested gridwise on charts.

A side carries a leaf distribution V, the side's 1-form alpha restricted to V
(a contact form on the leaves), and the side's Reeb field E.  For a contact
pair the alpha-side leaves integrate the kernel of the other form and its
differential; a single contact form on an odd chart is the degenerate case
V = TM with one leaf.  Each function f gets a Hamiltonian field X_f in V:

    alpha(X_f) = f,      i_{X_f} (d alpha)|_V = (E.f) alpha|_V - (df)|_V,

the bracket on functions is {f, g} = alpha([X_f, X_g]), and the associated
bivector is recovered through probe functions recentred to vanish at the
evaluation point, so that the correction terms of

    Lambda(df, dg) = {f, g} - f (E.g) + g (E.f)

drop out.  All grid derivatives are second-order central differences with
periodic wrap; box axes use one-sided second-order stencils at the boundary
and are excluded from defect suprema through the interior mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .contact import _contact_reeb, verify_contact_pair
from .exterior import multi_indices, two_form_matrices
from .fields import FormField, ScalarField
from .models import Model, default_tolerance, grid_points, grid_shape

__all__ = [
    "JacobiError",
    "JacobiSide",
    "GridVectorField",
    "BivectorField",
    "hamiltonian_field",
    "jacobi_bracket",
    "build_bivector",
    "jacobi_identity_defect",
    "bivector_contract",
]


class JacobiError(ValueError):
    pass


@dataclass
class GridVectorField:
    """Vector field sampled on a side's tensor grid, components last."""

    model: Model
    grid_shape: tuple
    values: np.ndarray = field(repr=False)


@dataclass
class BivectorField:
    """Bivector field on a side's grid: C(n, 2) coefficients per point,
    antisymmetry is exact by storing increasing pairs only."""

    model: Model
    grid_shape: tuple
    values: np.ndarray = field(repr=False)


def _axis_derivative(g: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """Second-order derivative along one grid axis (array may carry trailing
    component axes; ``axis`` indexes grid dimensions)."""
    out = (np.roll(g, -1, axis=axis) - np.roll(g, 1, axis=axis)) / (2.0 * h)
    if not periodic:
        gm = np.moveaxis(g, axis, 0)
        om = np.moveaxis(out, axis, 0)
        om[0] = (-3.0 * gm[0] + 4.0 * gm[1] - gm[2]) / (2.0 * h)
        om[-1] = (3.0 * gm[-1] - 4.0 * gm[-2] + gm[-3]) / (2.0 * h)
    return out


class JacobiSide:
    """One side of the induced Jacobi data, sampled on a tensor grid."""

    def __init__(self, model, tag, shape, points, steps, periodic, alpha_values, dalpha_mat,
                 e_values, leaf_basis, tol):
        self.model = model
        self.tag = tag
        self.grid_shape = shape
        self.points = points
        self.steps = steps
        self.periodic = periodic
        self.alpha_values = alpha_values
        self.dalpha_mat = dalpha_mat
        self.e_values = e_values
        self.leaf_basis = leaf_basis
        self.leaf_dim = leaf_basis.shape[2]
        self.tol = tol
        self._prepare_solver()
        self._interior_mask = self._build_interior_mask()

    # -- construction -----------------------------------------------------

    @staticmethod
    def _grid_data(model: Model, resolution):
        if model.algebraic_axes:
            raise JacobiError("Jacobi sides are chart-only (no algebraic directions)")
        shape = grid_shape(model, resolution)
        pts = grid_points(model, resolution)
        steps, periodic = [], []
        for i, r in zip(model.coordinate_axes, shape):
            a = model.axes[i]
            steps.append(a.length / r if a.periodic else a.length / (r - 1))
            periodic.append(a.periodic)
        return shape, pts, steps, periodic

    @classmethod
    def from_contact_form(cls, alpha: FormField, resolution=None, tol: float | None = None):
        """Degenerate side of a single contact form: V = TM, one leaf."""
        model = alpha.model
        if model.n % 2 == 0:
            raise JacobiError("a single contact form needs an odd-dimensional model")
        if tol is None:
            tol = default_tolerance(model)
        shape, pts, steps, periodic = cls._grid_data(model, resolution)
        av = alpha.values(pts)
        da_m = two_form_matrices(model.n, alpha.d().values(pts))
        e, residual = _contact_reeb(av, da_m)
        if float(np.max(residual)) > tol * max(1.0, float(np.max(np.abs(av)))):
            raise JacobiError("Reeb system inconsistent: the form is not contact on the grid")
        basis = np.broadcast_to(np.eye(model.n), (pts.shape[0], model.n, model.n)).copy()
        return cls(model, "contact-form", shape, pts, steps, periodic, av, da_m, e, basis, tol)

    @classmethod
    def from_pair(
        cls,
        alpha: FormField,
        beta: FormField,
        k: int,
        l: int,
        side: str = "alpha",
        resolution=None,
        tol: float | None = None,
    ):
        """A side of a certified contact pair; the leaf distribution of the
        alpha side is the kernel of beta and d beta (dimension 2k+1)."""
        if side not in ("alpha", "beta"):
            raise ValueError("side must be 'alpha' or 'beta'")
        model = alpha.model
        if tol is None:
            tol = default_tolerance(model)
        shape, pts, steps, periodic = cls._grid_data(model, resolution)
        cert = verify_contact_pair(alpha, beta, k, l, tol=tol, points=pts,
                                   check_commutator=False, check_rank=False)
        av, bv, (da_m, db_m) = cert.sampled.alpha, cert.sampled.beta, cert.sampled.matrices
        if side == "alpha":
            own, own_d, e, other, other_d, m = av, da_m, cert.reeb_alpha_values, bv, db_m, 2 * k + 1
        else:
            own, own_d, e, other, other_d, m = bv, db_m, cert.reeb_beta_values, av, da_m, 2 * l + 1
        n = model.n
        rows = np.concatenate([other[:, None, :], np.swapaxes(other_d, 1, 2)], axis=1)
        _, s, vt = np.linalg.svd(rows)
        rank = n - m
        sig_max = s[:, 0]
        if np.any(s[:, rank - 1] <= 1e-6 * sig_max) or np.any(s[:, rank] >= 1e-6 * sig_max):
            idx = int(np.argmax(s[:, rank]))
            raise JacobiError(
                f"leaf distribution dimension is not constant ({m} expected); "
                f"witness point {pts[idx].tolist()}"
            )
        basis = np.swapaxes(vt[:, rank:, :], 1, 2)  # (P, n, m), orthonormal columns
        restricted = np.einsum("pi,pim->pm", own, basis)
        if np.any(np.max(np.abs(restricted), axis=1) <= tol):
            idx = int(np.argmin(np.max(np.abs(restricted), axis=1)))
            raise JacobiError(
                f"side form vanishes on its leaf distribution at {pts[idx].tolist()}"
            )
        return cls(model, side, shape, pts, steps, periodic, own, own_d, e, basis, tol)

    # -- solver -----------------------------------------------------------

    def _prepare_solver(self):
        # equations in leaf coordinates x (X = basis @ x):
        #   alpha|_V . x = f
        #   (d alpha)|_V^T x = (E.f) alpha|_V - (df)|_V
        basis = self.leaf_basis
        self._alpha_leaf = np.einsum("pi,pim->pm", self.alpha_values, basis)
        d_leaf = np.einsum("pia,pij,pjb->pab", basis, self.dalpha_mat, basis)
        system = np.concatenate([self._alpha_leaf[:, None, :], np.swapaxes(d_leaf, 1, 2)], axis=1)
        gram = np.einsum("pmi,pmj->pij", system, system)
        self._system = system
        try:
            self._solve_mat = np.linalg.solve(gram, np.swapaxes(system, 1, 2))
        except np.linalg.LinAlgError:
            raise JacobiError("degenerate leaf data: the restricted contact system is singular")

    def _build_interior_mask(self):
        mask = np.ones(self.grid_shape, dtype=bool)
        for d, per in enumerate(self.periodic):
            if per:
                continue
            m = np.moveaxis(mask, d, 0)
            m[0] = False
            m[-1] = False
        return mask.reshape(-1)

    @property
    def interior_mask(self) -> np.ndarray:
        return self._interior_mask

    def scalar_data(self, f):
        """Normalize a function to (values, gradient, E.f) on the grid."""
        if isinstance(f, ScalarField):
            f = f.expr
        if isinstance(f, str):
            f = ex.parse(f, self.model.n)
        if isinstance(f, ex.Expr):
            vals = ex.evaluate_many(f, self.points)
            grad = np.zeros((self.points.shape[0], self.model.n))
            for a in self.model.coordinate_axes:
                grad[:, a] = ex.evaluate_many(ex.partial(f, a), self.points)
        else:
            vals = np.asarray(f, dtype=float).reshape(-1)
            if vals.shape[0] != self.points.shape[0]:
                raise ValueError("grid function has the wrong number of samples")
            grad = self.grid_gradient(vals)
        ef = np.einsum("pi,pi->p", self.e_values, grad)
        return vals, grad, ef

    def grid_gradient(self, values: np.ndarray) -> np.ndarray:
        """Finite-difference gradient of a grid function, shape (P, n)."""
        g = values.reshape(self.grid_shape)
        out = np.zeros((values.shape[0], self.model.n))
        for d, (i, h, per) in enumerate(zip(self.model.coordinate_axes, self.steps, self.periodic)):
            out[:, i] = _axis_derivative(g, d, h, per).reshape(-1)
        return out

    def solve_hamiltonian(self, f) -> np.ndarray:
        vals, grad, ef = self.scalar_data(f)
        grad_leaf = np.einsum("pi,pim->pm", grad, self.leaf_basis)
        rhs = np.concatenate(
            [vals[:, None], ef[:, None] * self._alpha_leaf - grad_leaf], axis=1
        )
        coords = np.einsum("pmr,pr->pm", self._solve_mat, rhs)
        residual = np.einsum("prm,pm->pr", self._system, coords) - rhs
        scale = max(1.0, float(np.max(np.abs(vals))), float(np.max(np.abs(grad))))
        worst = float(np.max(np.abs(residual)))
        if worst > self.tol * scale:
            idx = int(np.argmax(np.max(np.abs(residual), axis=1)))
            raise JacobiError(
                f"leaf-restricted Hamiltonian system residual {worst:.3e} at "
                f"{self.points[idx].tolist()}"
            )
        return np.einsum("pim,pm->pi", self.leaf_basis, coords)

    def commutator(self, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        """[X, Y] of two grid vector fields by central differences."""
        n = self.model.n
        xg = xv.reshape(self.grid_shape + (n,))
        yg = yv.reshape(self.grid_shape + (n,))
        out = np.zeros_like(xv)
        for d, (i, h, per) in enumerate(zip(self.model.coordinate_axes, self.steps, self.periodic)):
            dx = _axis_derivative(xg, d, h, per).reshape(-1, n)
            dy = _axis_derivative(yg, d, h, per).reshape(-1, n)
            out += xv[:, i : i + 1] * dy - yv[:, i : i + 1] * dx
        return out

    def bracket_values(self, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        """alpha([X, Y]) pointwise."""
        return np.einsum("pi,pi->p", self.alpha_values, self.commutator(xv, yv))


def hamiltonian_field(f, side: JacobiSide) -> GridVectorField:
    """Solve for the Hamiltonian field of f, tangent to the side's leaves."""
    return GridVectorField(side.model, side.grid_shape, side.solve_hamiltonian(f))


def jacobi_bracket(f, g, side: JacobiSide) -> np.ndarray:
    """{f, g} = alpha([X_f, X_g]) on the grid."""
    xf = side.solve_hamiltonian(f)
    xg = side.solve_hamiltonian(g)
    return side.bracket_values(xf, xg)


def _probe_basis(side: JacobiSide):
    """Per-axis probe functions and their Hamiltonian fields.

    Recentering sin(x_a - c) (periodic) or (x_a - c) (box) to vanish at the
    evaluation point is a pointwise linear recombination of these globals.
    """
    n = side.model.n
    fields = {}
    layout = []
    const_key = None
    for i in side.model.coordinate_axes:
        if side.model.axes[i].periodic:
            ks, kc = ("sin", i), ("cos", i)
            if ks not in fields:
                fields[ks] = side.solve_hamiltonian(ex.call("sin", ex.variable(i)))
                fields[kc] = side.solve_hamiltonian(ex.call("cos", ex.variable(i)))
            layout.append((i, (ks, kc), "periodic"))
        else:
            kv = ("lin", i)
            if const_key is None:
                const_key = ("one",)
                fields[const_key] = side.solve_hamiltonian(ex.const(1.0))
            if kv not in fields:
                fields[kv] = side.solve_hamiltonian(ex.variable(i))
            layout.append((i, (kv, const_key), "box"))
    return fields, layout


def build_bivector(side: JacobiSide) -> tuple[BivectorField, GridVectorField]:
    """The bivector of the side's Jacobi bracket together with its Reeb field.

    Lambda(dx_a, dx_b)(m) = {p_a, p_b}(m) for probes p vanishing at m with
    dp|_m = dx; expanding the probes over the global fields makes this a
    pointwise bilinear combination of precomputed bracket grids.
    """
    fields, layout = _probe_basis(side)
    pts = side.points
    brackets: dict = {}

    def bracket(ka, kb):
        if (ka, kb) in brackets:
            return brackets[(ka, kb)]
        val = side.bracket_values(fields[ka], fields[kb])
        brackets[(ka, kb)] = val
        brackets[(kb, ka)] = -val
        return val

    def gammas(axis, kind):
        x = pts[:, axis]
        if kind == "periodic":
            return np.cos(x), -np.sin(x)
        return np.ones_like(x), -x

    n = side.model.n
    pairs = multi_indices(n, 2)
    values = np.zeros((pts.shape[0], len(pairs)))
    coord = set(side.model.coordinate_axes)
    info = {axis: (keys, kind) for axis, keys, kind in layout}
    for pos, (a, b) in enumerate(pairs):
        if a not in coord or b not in coord:
            continue
        keys_a, kind_a = info[a]
        keys_b, kind_b = info[b]
        ga = gammas(a, kind_a)
        gb = gammas(b, kind_b)
        acc = np.zeros(pts.shape[0])
        for ca, ka in zip(ga, keys_a):
            for cb, kb in zip(gb, keys_b):
                acc += ca * cb * bracket(ka, kb)
        values[:, pos] = acc
    biv = BivectorField(side.model, side.grid_shape, values)
    e = GridVectorField(side.model, side.grid_shape, side.e_values)
    return biv, e


def bivector_contract(biv: BivectorField, df: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Lambda(df, dg) pointwise from gradient samples."""
    out = np.zeros(biv.values.shape[0])
    for pos, (i, j) in enumerate(multi_indices(biv.model.n, 2)):
        out += biv.values[:, pos] * (df[:, i] * dg[:, j] - df[:, j] * dg[:, i])
    return out


def jacobi_identity_defect(f, g, h, side: JacobiSide) -> float:
    """sup over interior grid points of |{{f,g},h} + {{g,h},f} + {{h,f},g}|."""
    total = (
        jacobi_bracket(jacobi_bracket(f, g, side), h, side)
        + jacobi_bracket(jacobi_bracket(g, h, side), f, side)
        + jacobi_bracket(jacobi_bracket(h, f, side), g, side)
    )
    return float(np.max(np.abs(total[side.interior_mask])))
