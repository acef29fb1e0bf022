"""Jacobi structures induced by contact data, tested gridwise on charts.

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
Λ♯df (``contact._vol_dual``).  The bracket on functions is {f, g} =
alpha([X_f, X_g]), formed on component-major rows of the components of [X_f,
X_g] that alpha reads: the others add alpha_j * 0 = ±0 to the pairing, bit for
bit as when formed (``JacobiSide.brackets``).  All grid derivatives are
second-order central differences with periodic wrap; box axes use one-sided
second-order stencils at the boundary and are excluded from defect suprema
through the interior mask.
"""

from __future__ import annotations

import math

import numpy as np

from . import expressions as ex
from .contact import _form_reeb, _top, _vol_dual, _wedge, verify_contact_pair
from .exterior import _BLOCK, chain_factor, two_form_matrices
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
    when a grid value overflowed, with the first such grid point as witness."""

    def __init__(self, message: str, condition: str | None = None, witness: dict | None = None):
        super().__init__(message)
        self.condition = condition
        self.witness = witness or {}


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
    """A side's tensor grid, its verdict grid and the sub-grid of its
    distinct samples.

    Both smaller grids hold axes at their first node by the quadrature's
    rule (``models._mentioned_nodes``).  The sub-grid keeps the axes that
    the side's form coefficients mention.  The verdict grid also keeps those
    that ``functions`` mention, and every box axis, since a one-sided
    stencil of equal values is not exactly 0, as a periodic central
    difference is; without ``functions`` it is the grid.  Their points are
    exact copies of grid points, in the order in which they first occur in
    the grid, so a first argmin or argmax picks the same point on each.
    Pointwise algebra of the forms runs on the sub-grid, and ``spread``
    copies its results to the verdict grid, where the grid operators run.
    """

    def __init__(self, model: Model, resolution, forms, functions=None):
        if model.algebraic_axes:
            raise JacobiError("Jacobi sides are chart-only (no algebraic directions)")
        coord = model.coordinate_axes
        nodes = grid_nodes(model, resolution)
        sub_nodes, _ = _mentioned_nodes(model, nodes, forms)
        verdict_nodes = nodes
        if functions is not None:
            mentioned, _ = _mentioned_nodes(model, nodes, forms, functions)
            verdict_nodes = [m if model.axes[i].periodic else g for i, g, m in zip(coord, nodes, mentioned)]
        self.shape = tuple(len(g) for g in nodes)
        self.sub_shape = tuple(len(g) for g in sub_nodes)
        self.verdict_shape = tuple(len(g) for g in verdict_nodes)
        self.held = tuple(v < r for v, r in zip(self.verdict_shape, self.shape))
        self.points = _tensor_points(model.n, coord, verdict_nodes)
        self.sub_points = _tensor_points(model.n, coord, sub_nodes)
        # the sub-grid sample of each verdict grid point
        sub_index = np.arange(math.prod(self.sub_shape)).reshape(self.sub_shape)
        self.source = np.broadcast_to(sub_index, self.verdict_shape).reshape(-1)
        self.steps, self.periodic = [], []
        for i, r in zip(coord, self.shape):
            a = model.axes[i]
            self.steps.append(a.length / r if a.periodic else a.length / (r - 1))
            self.periodic.append(a.periodic)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Verdict grid samples from sub-grid samples, with the axes of a point in the
        memory order they have in ``values`` (taken in that order, so that
        the take is one contiguous copy)."""
        order = sorted(range(1, values.ndim), key=lambda axis: -values.strides[axis])
        taken = np.take(values.transpose(0, *order), self.source, axis=0)
        return taken.transpose(0, *(np.argsort(order) + 1))


def _axis_derivative(g: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """Second-order derivative along ``axis`` of an array whose other axes
    are grid or component axes.  The central differences are one flat
    subtraction; at the two ends of each line it mixes in neighbouring lines,
    and the periodic wrap or the one-sided stencil overwrites those values."""
    g = np.ascontiguousarray(g)
    step, out = math.prod(g.shape[axis + 1 :]), np.empty(g.shape)
    np.subtract(g.reshape(-1)[2 * step :], g.reshape(-1)[: -2 * step], out=out.reshape(-1)[step:-step])
    gm, om = np.moveaxis(g, axis, 0), np.moveaxis(out, axis, 0)
    if periodic:
        np.subtract(gm[1:2], gm[-1:], out=om[:1])
        np.subtract(gm[:1], gm[-2:-1], out=om[-1:])
    out /= 2.0 * h
    if not periodic:
        om[0] = (-3.0 * gm[0] + 4.0 * gm[1] - gm[2]) / (2.0 * h)
        om[-1] = (3.0 * gm[-1] - 4.0 * gm[-2] + gm[-3]) / (2.0 * h)
    return out


def _hamiltonian_operator(n: int, k: int, form, dform, tail=None) -> np.ndarray:
    """Λ♯ of a side, shape (P, n, n), C-ordered, from the chain factors
    ``form`` = alpha, ``dform`` = d alpha and ``tail`` = T (None for 1):
    with B = alpha ∧ (d alpha)^{k-1} ∧ T and vol = B ∧ d alpha, column j
    is the ``_vol_dual`` of k alpha ∧ dx^j ∧ (d alpha)^{k-1} ∧ T = -k dx^j ∧
    B.  Λ♯ = 0 when k = 0."""
    if k == 0:
        return np.zeros((len(form[1]), n, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the relations gate checks
        b = _wedge(n, form, *[dform] * (k - 1), tail)
        volume = _top(_wedge(n, b, dform))[:, None]
        _, columns, live = chain_factor(n, (1, np.eye(n)), (n - 2, b[1][:, None, :], b[2]))
        return np.ascontiguousarray(np.swapaxes(_vol_dual(-volume, (n - 1, k * columns, live)), 1, 2))


def _gate(lam, e, own_rows, tol, grid: _SideGrid, other=None) -> None:
    """Raise a JacobiError unless Λ♯ is finite and the relations of its
    columns L_j = Λ♯dx^j hold on the sub-grid, from the rows (alpha; i_.
    d alpha) of the side and, on a pair side, ``other`` = (the rows (beta;
    i_. d beta), the chain factor T):

        alpha(L_j) = 0,   (i_{L_j} d alpha + dx^j - E^j alpha) ∧ T = 0,
        beta(L_j) = 0,    i_{L_j} d beta = 0.

    The second is i_{X_f} d alpha = (E.f) alpha - df on V = ker T where f =
    0 and df = dx^j (on a contact form V = TM, and the 1-form vanishes);
    the relations are linear in (f, df), so these decide every f.  The
    threshold is tol times the peaks of the fields (Λ♯, E) and of the
    forms, each at least 1."""
    pts = grid.sub_points
    _require_finite("Hamiltonian operator", lam, pts, (grid.sub_shape, grid.shape))
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
    worst = float(np.max(peak))
    if not worst <= tol * scale:
        idx = int(np.argmax(peak))
        raise JacobiError(f"Hamiltonian relations defect {worst:.3e} at {pts[idx].tolist()}")


class JacobiSide:
    """One side of the induced Jacobi data, sampled on a tensor grid.

    The side's pointwise algebra (form, Reeb field E, operator Λ♯) depends
    on its forms only: the constructors compute it and gate it (``_gate``)
    once per sample of the sub-grid and spread it to the verdict grid,
    keeping the memory layout within a point, since einsum sums in a
    layout-dependent order.  Every grid operator works on the verdict grid
    (``points``, of ``verdict_shape``); ``grid_shape`` is the grid's.  The
    constructors' ``functions`` are the expressions the side will be given,
    by default any: then the verdict grid is the grid.
    """

    def __init__(self, model, grid: _SideGrid, leaf_dim: int, alpha_values, e_values, lambda_sharp, tol):
        self.model = model
        self.grid_shape = grid.shape
        self.verdict_shape = grid.verdict_shape
        self.held = grid.held
        self.points = grid.points
        self.steps = grid.steps
        self.periodic = grid.periodic
        self.leaf_dim = leaf_dim
        self.alpha_values = grid.spread(alpha_values)
        # the components of alpha that are not ±0 at some point
        self.alpha_live = np.flatnonzero(np.any(alpha_values != 0, axis=0))
        self.e_values = grid.spread(e_values)
        self.lambda_sharp = grid.spread(lambda_sharp)
        self.tol = tol
        self.interior_mask = self._build_interior_mask()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_contact_form(
        cls, alpha: FormField, resolution=None, tol: float | None = None, *, functions=None
    ):
        """Degenerate side of a single contact form: V = TM, one leaf."""
        model = alpha.model
        n = model.n
        if n % 2 == 0:
            raise JacobiError("a single contact form needs an odd-dimensional model")
        if tol is None:
            tol = default_tolerance(model)
        grid = _SideGrid(model, resolution, (alpha,), functions)
        pts = grid.sub_points
        av = np.ascontiguousarray(alpha.values(pts))  # an einsum operand, C-ordered
        dav = alpha.d().values(pts)
        e, volume, residual = _form_reeb(n, av, dav)
        # an overflow first; where the volume v = alpha ∧ (d alpha)^k is
        # nonzero, A R = 0 gives i_R vol = 0, so the Reeb system has full rank
        _require_finite("Reeb system", volume, pts, (grid.sub_shape, grid.shape))
        k = n // 2
        scale = max(1.0, float(np.max(np.abs(av))))
        threshold = tol * scale * max(1.0, float(np.max(np.abs(dav)))) ** k
        idx = int(np.argmin(np.abs(volume)))
        if not abs(float(volume[idx])) > threshold:
            witness = _grid_witness(idx, pts, (grid.sub_shape, grid.shape))
            raise JacobiError(
                f"degenerate contact form: the volume alpha ^ (d alpha)^{k} vanishes at grid point "
                f"{witness['point']}", None, witness,
            )
        if not float(np.max(residual)) <= tol * scale:
            raise JacobiError("Reeb system inconsistent: the form is not contact on the grid")
        lam = _hamiltonian_operator(n, k, (1, av), (2, dav))
        rows = np.concatenate([av[:, None, :], np.swapaxes(two_form_matrices(n, dav), 1, 2)], axis=1)
        _gate(lam, e, rows, tol, grid)
        return cls(model, grid, n, av, e, lam, tol)

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
        *,
        functions=None,
    ):
        """A side of a certified contact pair; the leaf distribution of the
        alpha side is the kernel of beta and d beta (dimension 2k+1), and T
        is beta ∧ (d beta)^l."""
        if side not in ("alpha", "beta"):
            raise ValueError("side must be 'alpha' or 'beta'")
        model = alpha.model
        n = model.n
        if tol is None:
            tol = default_tolerance(model)
        grid = _SideGrid(model, resolution, (alpha, beta), functions)
        cert = verify_contact_pair(alpha, beta, k, l, tol=tol, points=grid.sub_points)
        w, powers, factors = ("alpha", "beta").index(side), (k, l), cert.sampled.factors()
        rows = cert.sampled.reeb_rows()  # alpha, beta, i_. d alpha, i_. d beta
        own_rows, other_rows = (rows[:, [i, *range(2 + i * n, 2 + (i + 1) * n)]] for i in (w, 1 - w))
        with np.errstate(over="ignore", invalid="ignore"):  # the gate checks
            tail = _wedge(n, factors[1 - w], *[factors[3 - w]] * powers[1 - w])
        lam = _hamiltonian_operator(n, powers[w], factors[w], factors[2 + w], tail)
        e = (cert.reeb_alpha_values, cert.reeb_beta_values)[w]
        _gate(lam, e, own_rows, tol, grid, (other_rows, tail))
        return cls(model, grid, 2 * powers[w] + 1, own_rows[:, 0], e, lam, tol)

    def _build_interior_mask(self):
        mask = np.ones(self.verdict_shape, dtype=bool)
        for d, per in enumerate(self.periodic):
            if per:
                continue
            m = np.moveaxis(mask, d, 0)
            m[0] = False
            m[-1] = False
        return mask.reshape(-1)

    def scalar_data(self, f):
        """Normalize a function to (values, gradient, E.f) on the verdict grid."""
        vals, grad = self._value_and_gradient(f)
        return vals, grad, np.einsum("pi,pi->p", self.e_values, grad)

    def _value_and_gradient(self, f):
        if isinstance(f, str):
            f = ex.parse(f, self.model.n)
        if isinstance(f, ex.Expr):
            held = {a for a, h in zip(self.model.coordinate_axes, self.held) if h}
            if ex.variables_of(f) & held:  # its grid values would differ along the axis
                raise ValueError(f"{ex.to_string(f)} mentions an axis that the verdict grid holds")
            vals = self._grid_values(f, "function values")
            grad = np.zeros((self.points.shape[0], self.model.n))
            for _, a, _, _ in self._kept_axes():
                grad[:, a] = self._grid_values(ex.partial(f, a), f"partial along x{a}")
            return vals, grad
        vals = np.asarray(f, dtype=float).reshape(-1)
        if vals.shape[0] != self.points.shape[0]:
            raise ValueError("grid function has the wrong number of samples")
        return vals, self.grid_gradient(vals)

    def _grid_values(self, e, what: str) -> np.ndarray:
        """e on the verdict grid; where it overflows, ``_require_finite`` fails."""
        try:
            return ex.evaluate_many(e, self.points)
        except ex.EvaluationError:
            _require_finite(what, ex._values(e, self.points), self.points, (self.verdict_shape, self.grid_shape))
            raise

    def _kept_axes(self):
        """(grid dimension, axis, step, periodic) of each axis the verdict grid keeps."""
        axes = zip(self.model.coordinate_axes, self.steps, self.periodic, self.held)
        return [(d, i, h, per) for d, (i, h, per, held) in enumerate(axes) if not held]

    def grid_gradient(self, values: np.ndarray) -> np.ndarray:
        """Finite-difference gradient of a verdict grid function, shape (P, n)."""
        g = values.reshape(self.verdict_shape)
        out = np.zeros((values.shape[0], self.model.n))
        for d, i, h, per in self._kept_axes():
            out[:, i] = _axis_derivative(g, d, h, per).reshape(-1)
        return out

    def solve_hamiltonian(self, f) -> np.ndarray:
        """The Hamiltonian field X_f = f E + Λ♯df on the verdict grid."""
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are caught below
            return self._hamiltonian(*self._value_and_gradient(f))

    def _hamiltonian(self, vals: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """X_f from the grid values and gradient of f."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = vals[:, None] * self.e_values
            x += np.einsum("pij,pj->pi", self.lambda_sharp, grad)
        _require_finite("Hamiltonian system", x, self.points, (self.verdict_shape, self.grid_shape))
        return x

    def brackets(self, pairs) -> list[np.ndarray]:
        """alpha([X, Y]) pointwise for each pair (X, Y) of verdict grid vector fields.

        [X, Y] = sum over the kept axes of x_i dY - y_i dX, by central
        differences: along a held axis dX = dY = 0.  Only its components J =
        ``alpha_live`` are formed, on component-major (|J|, P) rows: each
        distinct field's J rows are gathered once, differentiated once per
        axis when a pair first needs them and dropped after its last pair,
        and each pair adds its term to its own accumulator, in axis order,
        through two temporaries of ``_BLOCK`` points.  The einsum reads the
        accumulator scattered into (P, n) zeros: a skipped component adds
        alpha_j * 0 = ±0, as before, unless the fields' peak M leaves 16 M^2
        sum 1/h, twice a bound of |[X, Y]|, not finite (0 * inf = NaN); then
        every component is formed.
        """
        number: dict[int, int] = {}  # id of each distinct field -> its number
        uses = [[number.setdefault(id(v), len(number)) for v in pair] for pair in pairs]
        fields = {k: v for pair, ks in zip(pairs, uses) for k, v in zip(ks, pair)}
        last = {k: p for p, ks in enumerate(uses) for k in ks}
        axes = self._kept_axes()
        peak = float(np.max([(v.max(), -v.min()) for v in fields.values()], initial=0.0))  # NaN stays
        bounded = math.isfinite(16.0 * peak * peak * sum(1.0 / h for _, _, h, _ in axes))
        live = self.alpha_live if bounded else np.arange(self.model.n)
        m, rows = len(live), len(self.points)
        rows_of = {k: v.T[live].reshape((m,) + self.verdict_shape) for k, v in fields.items()}
        outs = [np.zeros((m, rows)) for _ in pairs]
        t1, t2 = (np.empty((m, min(rows, _BLOCK))) for _ in range(2))
        for d, i, h, per in axes:
            derivs: dict[int, np.ndarray] = {}
            for p, ((xv, yv), (a, b), out) in enumerate(zip(pairs, uses, outs)):
                for k in (a, b):
                    if k not in derivs:
                        derivs[k] = _axis_derivative(rows_of[k], d + 1, h, per).reshape(m, -1)
                dx, dy = derivs[a], derivs[b]
                for lo in range(0, rows, _BLOCK):
                    hi = min(lo + _BLOCK, rows)
                    u, w = t1[:, : hi - lo], t2[:, : hi - lo]
                    np.multiply(xv[lo:hi, i], dy[:, lo:hi], out=u)
                    np.multiply(yv[lo:hi, i], dx[:, lo:hi], out=w)
                    u -= w
                    out[:, lo:hi] += u
                for k in (a, b):
                    if last[k] == p:
                        derivs.pop(k, None)
        del rows_of
        full = np.zeros((rows, self.model.n))
        values = []
        for out in outs:
            full[:, live] = out.T
            values.append(np.einsum("pi,pi->p", self.alpha_values, full))
        return values

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
