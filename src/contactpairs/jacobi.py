"""Jacobi structures induced by contact data, tested gridwise on charts.

A side carries a leaf distribution V, the side's 1-form alpha restricted to V
(a contact form on the leaves), and the side's Reeb field E.  For a contact
pair the alpha-side leaves integrate the kernel of the other form and its
differential; a single contact form on an odd chart is the degenerate case
V = TM with one leaf.  Each function f gets a Hamiltonian field X_f in V:

    alpha(X_f) = f,      i_{X_f} (d alpha)|_V = (E.f) alpha|_V - (df)|_V,

and the bracket on functions is {f, g} = alpha([X_f, X_g]).  All grid
derivatives are second-order central differences with periodic wrap; box
axes use one-sided second-order stencils at the boundary and are excluded
from defect suprema through the interior mask.
"""

from __future__ import annotations

import math

import numpy as np

from . import expressions as ex
from .contact import _form_reeb, verify_contact_pair
from .exterior import _BLOCK, two_form_matrices
from .fields import FormField
from .models import Model, _tensor_points, default_tolerance, grid_nodes

__all__ = [
    "JacobiError",
    "JacobiSide",
    "jacobi_bracket",
    "jacobi_identity_defect",
]


class JacobiError(ValueError):
    """A Jacobi side cannot be built or solved; ``condition`` is "non-finite"
    when a grid value overflowed, with the first such grid point as witness."""

    def __init__(self, message: str, condition: str | None = None, witness: dict | None = None):
        super().__init__(message)
        self.condition = condition
        self.witness = witness or {}


def _require_finite(what: str, values: np.ndarray, points: np.ndarray, grid_index=None) -> None:
    """Raise a witnessed "non-finite" JacobiError unless every row of values
    is finite; ``grid_index`` maps a row of sub-grid values to the grid
    index the witness reports."""
    finite = np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
    if not finite.all():
        idx = int(np.argmin(finite))
        point = points[idx].tolist()
        index = idx if grid_index is None else grid_index(idx)
        raise JacobiError(
            f"non-finite {what} at grid point {point}", "non-finite", {"point": point, "index": index}
        )


class _SideGrid:
    """A side's tensor grid and the sub-grid of its distinct samples.

    The sub-grid takes the nodes of the axes that the side's form
    coefficients mention and holds every other axis at its first node.  Its
    points are exact copies of grid points, in the order in which they first
    occur in the grid, so a first argmin or argmax picks the same point on
    either.  Pointwise algebra of the forms runs on the sub-grid, and
    ``spread`` copies its results to the grid.
    """

    def __init__(self, model: Model, resolution, forms):
        if model.algebraic_axes:
            raise JacobiError("Jacobi sides are chart-only (no algebraic directions)")
        coord = model.coordinate_axes
        nodes = grid_nodes(model, resolution)
        # on a chart d mentions no new variable, so the coefficients decide
        used = set().union(*(ex.variables_of(c) for form in forms for c in form.coeffs))
        sub_nodes = [g if i in used else g[:1] for i, g in zip(coord, nodes)]
        self.shape = tuple(len(g) for g in nodes)
        self.sub_shape = tuple(len(g) for g in sub_nodes)
        self.points = _tensor_points(model.n, coord, nodes)
        self.sub_points = _tensor_points(model.n, coord, sub_nodes)
        # the sub-grid sample of each grid point
        sub_index = np.arange(math.prod(self.sub_shape)).reshape(self.sub_shape)
        self.source = np.broadcast_to(sub_index, self.shape).reshape(-1)
        self.steps, self.periodic = [], []
        for i, r in zip(coord, self.shape):
            a = model.axes[i]
            self.steps.append(a.length / r if a.periodic else a.length / (r - 1))
            self.periodic.append(a.periodic)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Grid samples from sub-grid samples, with the axes of a point in the
        memory order they have in ``values`` (taken in that order, so that
        the take is one contiguous copy)."""
        order = sorted(range(1, values.ndim), key=lambda axis: -values.strides[axis])
        taken = np.take(values.transpose(0, *order), self.source, axis=0)
        return taken.transpose(0, *(np.argsort(order) + 1))

    def grid_index(self, sub_index: int) -> int:
        """The grid index at which a sub-grid sample first occurs."""
        return int(np.ravel_multi_index(np.unravel_index(sub_index, self.sub_shape), self.shape))


def _axis_derivative(g: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """Second-order derivative along one grid axis (array may carry trailing
    component axes; ``axis`` indexes grid dimensions).  The central
    differences are written into one output array, without shifted copies."""
    gm = np.moveaxis(g, axis, 0)
    out = np.empty_like(g)
    om = np.moveaxis(out, axis, 0)
    np.subtract(gm[2:], gm[:-2], out=om[1:-1])
    if periodic:
        np.subtract(gm[1:2], gm[-1:], out=om[:1])
        np.subtract(gm[:1], gm[-2:-1], out=om[-1:])
    out /= 2.0 * h
    if not periodic:
        om[0] = (-3.0 * gm[0] + 4.0 * gm[1] - gm[2]) / (2.0 * h)
        om[-1] = (3.0 * gm[-1] - 4.0 * gm[-2] + gm[-3]) / (2.0 * h)
    return out


class JacobiSide:
    """One side of the induced Jacobi data, sampled on a tensor grid.

    The side's pointwise algebra (Reeb field, leaf basis, restricted solver)
    depends on its forms only: the constructors compute it once per sample
    of the sub-grid and spread it to the grid, keeping the memory layout
    within a point, since einsum sums in a layout-dependent order.  Every
    grid operator works on the grid.
    """

    def __init__(self, model, grid: _SideGrid, alpha_values, e_values, leaf_basis, solver, tol):
        self.model = model
        self.grid_shape = grid.shape
        self.points = grid.points
        self.steps = grid.steps
        self.periodic = grid.periodic
        self.alpha_values = alpha_values
        self.e_values = e_values
        self.leaf_basis = leaf_basis
        self.leaf_dim = leaf_basis.shape[2]
        self._system, self._solve_mat = solver
        self.tol = tol
        self.interior_mask = self._build_interior_mask()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_contact_form(cls, alpha: FormField, resolution=None, tol: float | None = None):
        """Degenerate side of a single contact form: V = TM, one leaf."""
        model = alpha.model
        if model.n % 2 == 0:
            raise JacobiError("a single contact form needs an odd-dimensional model")
        if tol is None:
            tol = default_tolerance(model)
        grid = _SideGrid(model, resolution, (alpha,))
        pts = grid.sub_points
        av = np.ascontiguousarray(alpha.values(pts))  # an einsum operand, C-ordered
        dav = alpha.d().values(pts)
        n = model.n
        e, volume, residual = _form_reeb(n, av, dav)
        # an overflow first; a volume that vanishes is a rank deficiency
        _require_finite("Reeb system", volume, pts, grid.grid_index)
        da_m = two_form_matrices(n, dav)
        solver = cls._prepare_solver(av, da_m, np.broadcast_to(np.eye(n), da_m.shape), tol, pts)
        if not float(np.max(residual)) <= tol * max(1.0, float(np.max(np.abs(av)))):
            raise JacobiError("Reeb system inconsistent: the form is not contact on the grid")
        basis = np.broadcast_to(np.eye(n), (grid.points.shape[0], n, n))  # read-only view
        return cls(model, grid, grid.spread(av), grid.spread(e), basis,
                   [grid.spread(a) for a in solver], tol)

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
        grid = _SideGrid(model, resolution, (alpha, beta))
        pts = grid.sub_points
        cert = verify_contact_pair(alpha, beta, k, l, tol=tol, points=pts)
        # einsum operands, C-ordered as the grid's
        av, bv = (np.ascontiguousarray(v) for v in (cert.sampled.alpha, cert.sampled.beta))
        da_m, db_m = cert.sampled.matrices
        if side == "alpha":
            own, own_d, which, other, other_d, m = av, da_m, 0, bv, db_m, 2 * k + 1
        else:
            own, own_d, which, other, other_d, m = bv, db_m, 1, av, da_m, 2 * l + 1
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
        solver = cls._prepare_solver(own, own_d, basis, tol, pts)
        reeb = (cert.reeb_alpha_values, cert.reeb_beta_values)[which]
        return cls(model, grid, grid.spread(own), grid.spread(reeb), grid.spread(basis),
                   [grid.spread(a) for a in solver], tol)

    # -- solver -----------------------------------------------------------

    @staticmethod
    def _prepare_solver(alpha_values, dalpha_mat, basis, tol, points):
        """(the restricted system, its least-squares solve matrix) for the
        equations in leaf coordinates x (X = basis @ x):
            alpha|_V . x = f
            (d alpha)|_V^T x = (E.f) alpha|_V - (df)|_V
        A system with sigma_min <= tol * sigma_max (smallest and largest
        singular values over the samples) is rank deficient; otherwise the
        solve matrix (AᵀA)⁻¹Aᵀ is the LU solve of the normal equations
        against Aᵀ times the identity.
        """
        alpha_leaf = np.einsum("pi,pim->pm", alpha_values, basis)
        d_leaf = np.swapaxes(basis, 1, 2) @ dalpha_mat @ basis
        system = np.concatenate([alpha_leaf[:, None, :], np.swapaxes(d_leaf, 1, 2)], axis=1)
        # from the system itself: the spectrum of the Gram matrix squares the
        # condition number, so its square root cannot resolve ratios below ~1e-8
        sigma = np.linalg.svd(system, compute_uv=False)
        sigma_min, sigma_max = sigma[:, -1], sigma[:, 0]
        if np.min(sigma_min) <= tol * np.max(sigma_max):
            idx = int(np.argmin(sigma_min))
            raise JacobiError(
                "degenerate leaf data: the restricted contact system is rank deficient "
                f"at {points[idx].tolist()}"
            )
        system_t = np.swapaxes(system, 1, 2)
        return system, np.linalg.solve(system_t @ system, system_t @ np.eye(system.shape[1]))

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
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are caught below
            vals, grad, ef = self.scalar_data(f)
            grad_leaf = np.einsum("pi,pim->pm", grad, self.leaf_basis)
            rhs = np.concatenate(
                [vals[:, None], ef[:, None] * self._system[:, 0] - grad_leaf], axis=1
            )
            coords = np.einsum("pmr,pr->pm", self._solve_mat, rhs)
            residual = np.einsum("prm,pm->pr", self._system, coords) - rhs
        _require_finite("Hamiltonian system", residual, self.points)
        scale = max(1.0, float(np.max(np.abs(vals))), float(np.max(np.abs(grad))))
        worst = float(np.max(np.abs(residual)))
        if not worst <= self.tol * scale:
            idx = int(np.argmax(np.max(np.abs(residual), axis=1)))
            raise JacobiError(
                f"leaf-restricted Hamiltonian system residual {worst:.3e} at "
                f"{self.points[idx].tolist()}"
            )
        return np.einsum("pim,pm->pi", self.leaf_basis, coords)

    def brackets(self, pairs) -> list[np.ndarray]:
        """alpha([X, Y]) pointwise for each pair (X, Y) of grid vector fields.

        [X, Y] = sum over axes of x_i dY - y_i dX, by central differences.
        On each axis every distinct field of ``pairs`` is differentiated
        once, when a pair first needs it, and its derivative is dropped
        after its last pair; each pair adds its term to its own accumulator,
        in axis order, through two temporaries of ``_BLOCK`` rows.
        """
        n = self.model.n
        number: dict[int, int] = {}  # id of each distinct field -> its number
        uses = [[number.setdefault(id(v), len(number)) for v in pair] for pair in pairs]
        last = {k: p for p, ks in enumerate(uses) for k in ks}
        outs = [np.zeros_like(xv) for xv, _ in pairs]
        rows = len(self.points)
        t1, t2 = (np.empty((min(rows, _BLOCK), n)) for _ in range(2))
        for d, (i, h, per) in enumerate(zip(self.model.coordinate_axes, self.steps, self.periodic)):
            derivs: dict[int, np.ndarray] = {}
            for p, ((xv, yv), (a, b), out) in enumerate(zip(pairs, uses, outs)):
                for k, v in ((a, xv), (b, yv)):
                    if k not in derivs:
                        g = v.reshape(self.grid_shape + (n,))
                        derivs[k] = _axis_derivative(g, d, h, per).reshape(-1, n)
                dx, dy = derivs[a], derivs[b]
                for lo in range(0, rows, _BLOCK):
                    hi = min(lo + _BLOCK, rows)
                    u, w = t1[: hi - lo], t2[: hi - lo]
                    np.multiply(xv[lo:hi, i : i + 1], dy[lo:hi], out=u)
                    np.multiply(yv[lo:hi, i : i + 1], dx[lo:hi], out=w)
                    u -= w
                    out[lo:hi] += u
                for k in (a, b):
                    if last[k] == p:
                        derivs.pop(k, None)
        return [np.einsum("pi,pi->p", self.alpha_values, out) for out in outs]

    def bracket_values(self, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        """alpha([X, Y]) pointwise."""
        return self.brackets([(xv, yv)])[0]


def jacobi_bracket(f, g, side: JacobiSide) -> np.ndarray:
    """{f, g} = alpha([X_f, X_g]) on the grid."""
    xf = side.solve_hamiltonian(f)
    xg = side.solve_hamiltonian(g)
    return side.bracket_values(xf, xg)


def _identity_defect(xf, xg, xh, side: JacobiSide, inner=None) -> float:
    """The Jacobi identity defect of f, g, h from their Hamiltonian fields.

    ``inner`` holds the inner brackets {f,g}, {g,h}, {h,f} when the caller
    has them; otherwise they are taken in one shared pass.  Only they are
    solved for again, and each outer bracket is taken on its own, so one
    solved field is alive at a time.
    """
    if inner is None:
        inner = side.brackets([(xf, xg), (xg, xh), (xh, xf)])
    b1, b2, b3 = (
        side.bracket_values(side.solve_hamiltonian(b), x) for b, x in zip(inner, (xh, xf, xg))
    )
    total = b1 + b2 + b3
    return float(np.max(np.abs(total[side.interior_mask])))


def jacobi_identity_defect(f, g, h, side: JacobiSide) -> float:
    """sup over interior grid points of |{{f,g},h} + {{g,h},f} + {{h,f},g}|."""
    xf, xg, xh = (side.solve_hamiltonian(u) for u in (f, g, h))
    return _identity_defect(xf, xg, xh, side)
