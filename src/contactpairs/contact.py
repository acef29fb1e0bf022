"""Cartan class, contact-pair certification, and Reeb vector field solving.

A pair (alpha, beta) of 1-forms is a contact pair of type (k, l) on a
2k+2l+2-dimensional model when alpha ∧ (d alpha)^k ∧ beta ∧ (d beta)^l is a
volume form, (d alpha)^{k+1} = 0, and (d beta)^{l+1} = 0.  The associated
Reeb pair (E_alpha, E_beta) is the unique solution of

    alpha(E_alpha) = 1,  beta(E_alpha) = 0,  i_{E_alpha} d alpha = i_{E_alpha} d beta = 0,

and symmetrically for E_beta.  All pointwise checks run over a sample set and
use relative thresholds: a quantity must vanish when it stays at or below
tol * (norm_inf scale of its wedge factors), and must be nonzero when it
stays strictly above that, so t-scaled families certify at any t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .exterior import interior_values, two_form_matrices, wedge_values
from .fields import (
    FormField,
    SolvedVectorField,
    form_from_expressions,
    pullback_form,
)
from .models import (
    Model,
    ProductModel,
    box_chart,
    default_tolerance,
    sample_points,
    torus,
)

__all__ = [
    "ContactPairError",
    "ClassReport",
    "ContactPairCertificate",
    "SingleDeformationReport",
    "cartan_class",
    "verify_contact_pair",
    "reeb_pair",
    "contact_reeb_field",
    "darboux_model",
    "torus_contact",
    "product_contact_pair",
    "verify_single_deformation",
    "least_squares_batch",
]


class ContactPairError(ValueError):
    """A contact condition failed; carries the condition name and a witness.

    ``marginal`` marks failures within a factor 10 of the tolerance, which the
    CLI reports as numerically inconclusive rather than falsified.
    """

    def __init__(
        self,
        condition: str,
        message: str,
        witness: dict | None = None,
        defect: float | None = None,
        marginal: bool = False,
    ):
        super().__init__(message)
        self.condition = condition
        self.witness = witness or {}
        self.defect = defect
        self.marginal = marginal


def _witness(points: np.ndarray, index: int, **extra) -> dict:
    w = {"point": [float(v) for v in points[index]], "index": int(index)}
    w.update(extra)
    return w


def least_squares_batch(a: np.ndarray, b: np.ndarray, compute_sigma: bool = False):
    """Least squares for a batch of small stacked systems.

    a has shape (P, M, N) with M >= N, b shape (M,), (M, R) or, for one
    right-hand side per system, (P, M, R).  Solves the normal equations and
    returns (x, residual_inf, sigma_min, sigma_max); the extreme singular
    values of a are computed only on request and are None otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    a_t = np.swapaxes(a, 1, 2)
    gram = a_t @ a
    rhs = a_t @ b
    try:
        x = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        # rank-deficient somewhere in the batch; minimum-norm solve, the
        # residual and sigma_min diagnostics report the deficiency
        x = np.linalg.pinv(gram, hermitian=True) @ rhs
    residual_inf = np.max(np.abs(a @ x - b), axis=1)
    sigma_min = sigma_max = None
    if compute_sigma:
        # from a itself: the spectrum of the Gram matrix squares the condition
        # number, so its square root cannot resolve sigma ratios below ~1e-8
        sigma = np.linalg.svd(a, compute_uv=False)
        sigma_min = sigma[:, -1]
        sigma_max = sigma[:, 0]
    if squeeze:
        x = x[..., 0]
        residual_inf = residual_inf[..., 0]
    return x, residual_inf, sigma_min, sigma_max


@dataclass
class ClassReport:
    """Result of a Cartan class computation over a sample set.

    ``nonvanishing`` and ``next_power`` carry the per-point norms of
    alpha ∧ (d alpha)^k and (d alpha)^{k+1} for the reported k.
    """

    k: int | None
    min_nonvanishing: float
    max_residual: float
    constant: bool
    tol: float
    witnesses: dict = field(default_factory=dict)
    nonvanishing: np.ndarray | None = field(default=None, repr=False)
    next_power: np.ndarray | None = field(default=None, repr=False)


def _norm_inf_rows(values: np.ndarray) -> np.ndarray:
    return np.max(np.abs(values), axis=-1) if values.shape[-1] else np.zeros(values.shape[:-1])


def cartan_class(alpha: FormField, tol: float | None = None, points=None, rng=None) -> ClassReport:
    """Largest k with alpha ∧ (d alpha)^k nonvanishing and (d alpha)^{k+1} = 0,
    required to be the same k at every sample point."""
    if alpha.degree != 1:
        raise ValueError("cartan_class expects a 1-form")
    model = alpha.model
    n = model.n
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model, rng)
    pts = np.asarray(points, dtype=float)

    av = alpha.values(pts)
    dav = alpha.d().values(pts) if n >= 2 else np.zeros((pts.shape[0], 0))
    scale_a = float(np.max(np.abs(av)))
    scale_da = float(np.max(np.abs(dav))) if dav.size else 0.0

    a_norm = _norm_inf_rows(av)
    vanish = a_norm <= tol * scale_a
    if np.any(vanish):
        idx = int(np.argmax(vanish))
        raise ContactPairError(
            "nonvanishing",
            "form vanishes at a sample point",
            _witness(pts, idx, value=float(a_norm[idx])),
        )

    k_max = (n - 1) // 2
    power = np.ones((pts.shape[0], 1))
    nonvanish = []  # |alpha ∧ (d alpha)^k|_inf per point
    power_norm = []  # |(d alpha)^k|_inf per point
    for k in range(k_max + 1):
        nonvanish.append(_norm_inf_rows(wedge_values(n, 1, 2 * k, av, power)))
        power_norm.append(_norm_inf_rows(power))
        if 2 * (k + 1) <= n:
            power = wedge_values(n, 2 * k, 2, power, dav)
        else:
            power = None
            break
    if power is not None:
        power_norm.append(_norm_inf_rows(power))

    pointwise = np.full(pts.shape[0], -1, dtype=int)
    for k in range(k_max + 1):
        # "nonzero" is strict against the factor-norm scale; "vanishes" is
        # non-strict so that exactly zero data passes at zero scale
        ok_nv = nonvanish[k] > tol * scale_a * scale_da**k
        if k + 1 < len(power_norm):
            ok_z = power_norm[k + 1] <= tol * scale_da ** (k + 1)
        else:
            ok_z = np.ones(pts.shape[0], dtype=bool)
        pointwise = np.where(ok_nv & ok_z, k, pointwise)

    k_lo, k_hi = int(pointwise.min()), int(pointwise.max())
    if k_lo != k_hi or k_lo < 0:
        best = max(k_hi, 0)
        witnesses = {
            "low": _witness(pts, int(np.argmin(pointwise)), pointwise_class=k_lo),
            "high": _witness(pts, int(np.argmax(pointwise)), pointwise_class=k_hi),
            "candidate_k": best,
        }
        return ClassReport(None, float(np.min(nonvanish[best])), float("nan"), False, tol, witnesses)

    k = k_lo
    if k + 1 < len(power_norm):
        max_res = float(np.max(power_norm[k + 1]))
        next_power = power_norm[k + 1]
    else:
        max_res = 0.0
        next_power = np.zeros(pts.shape[0])
    return ClassReport(
        k, float(np.min(nonvanish[k])), max_res, True, tol,
        nonvanishing=nonvanish[k], next_power=next_power,
    )


def _pair_arrays(alpha: FormField, beta: FormField, pts: np.ndarray):
    n = alpha.model.n
    av = alpha.values(pts)
    bv = beta.values(pts)
    dav = alpha.d().values(pts)
    dbv = beta.d().values(pts)
    return av, bv, two_form_matrices(n, dav), two_form_matrices(n, dbv), dav, dbv


def _reeb_system(av, bv, da_m, db_m) -> np.ndarray:
    """Stacked rows (alpha; beta; i_E d alpha; i_E d beta), shape (P, 2n+2, n)."""
    return np.concatenate(
        [av[:, None, :], bv[:, None, :], np.swapaxes(da_m, 1, 2), np.swapaxes(db_m, 1, 2)], axis=1
    )


def _solve_reeb(rows: np.ndarray, compute_sigma: bool):
    b = np.zeros((rows.shape[1], 2))
    b[0, 0] = 1.0
    b[1, 1] = 1.0
    x, residual, sigma_min, sigma_max = least_squares_batch(rows, b, compute_sigma)
    return x[..., 0], x[..., 1], residual, sigma_min, sigma_max


def _reeb_fields(alpha: FormField, beta: FormField):
    """(E_alpha, E_beta) as fields that solve the Reeb system at the points asked for."""

    def solver(which: int):
        def solve(pts: np.ndarray) -> np.ndarray:
            av, bv, da_m, db_m, _, _ = _pair_arrays(alpha, beta, pts)
            return _solve_reeb(_reeb_system(av, bv, da_m, db_m), False)[which]

        return solve

    return SolvedVectorField(alpha.model, solver(0)), SolvedVectorField(alpha.model, solver(1))


def _checked_reeb(rows: np.ndarray, pts: np.ndarray, tol: float, scale: float, check_rank: bool):
    """Solve the stacked Reeb systems; raise when one is inconsistent or,
    with check_rank, rank deficient.  Returns (E_alpha, E_beta, max residual,
    smallest singular value or None)."""
    ea, eb, residual, sigma_min, sigma_max = _solve_reeb(rows, check_rank)
    reeb_residual = float(np.max(residual))
    if reeb_residual >= tol * scale:
        idx = int(np.argmax(np.max(residual, axis=-1)))
        raise ContactPairError(
            "reeb-residual",
            "Reeb defining relations are inconsistent",
            _witness(pts, idx, value=reeb_residual),
            defect=reeb_residual,
            marginal=reeb_residual < 10.0 * tol * scale,
        )
    smin = None
    if check_rank:
        smin = float(np.min(sigma_min))
        if smin <= tol * float(np.max(sigma_max)):
            idx = int(np.argmin(sigma_min))
            raise ContactPairError(
                "reeb-rank",
                "Reeb system is rank deficient (non-unique solution)",
                _witness(pts, idx, value=smin),
            )
    return ea, eb, reeb_residual, smin


def _coordinate_partials(form: FormField, axis: int, pts: np.ndarray):
    """Exact partial along a coordinate axis of the coefficient array of a
    form at pts, or None when it vanishes identically."""
    parts = [ex.partial(c, axis) for c in form.coeffs]
    if all(ex.is_zero(p) for p in parts):
        return None
    out = np.zeros((pts.shape[0], len(parts)))
    for i, p in enumerate(parts):
        if not ex.is_zero(p):
            out[:, i] = ex.evaluate_many(p, pts)
    return out


def _reeb_rows_partial(forms, axis: int, pts: np.ndarray, z: np.ndarray):
    """(∂_axis A) z for the stacked Reeb rows A of forms = (alpha, beta,
    d alpha, d beta), shape (P, 2n+2); None when ∂_axis A vanishes."""
    parts = [_coordinate_partials(f, axis, pts) for f in forms]
    if all(p is None for p in parts):
        return None
    n = z.shape[1]
    out = np.zeros((z.shape[0], 2 * n + 2))
    for row, p in enumerate(parts[:2]):
        if p is not None:
            out[:, row] = np.sum(p * z, axis=1)
    for start, p in zip((2, 2 + n), parts[2:]):
        if p is not None:
            out[:, start : start + n] = interior_values(n, 2, z, p)
    return out


def _reeb_commutator(alpha: FormField, beta: FormField, pts, rows, ea, eb) -> np.ndarray:
    """[E_alpha, E_beta] at pts from the solved Reeb system A E = b.

    Differentiating the consistent system along X gives
    D_X E = -(AᵀA)⁻¹ Aᵀ (D_X A) E, where D_X A = sum_a X^a ∂_a A over the
    coordinate axes and ∂_a A holds the exact partials of alpha, beta,
    d alpha and d beta.  Hence, with c the frame bracket,

        [E_alpha, E_beta] = c(E_alpha, E_beta) - (AᵀA)⁻¹ Aᵀ sum_a (∂_a A) z_a,
        z_a = E_alpha^a E_beta - E_beta^a E_alpha.

    Each ∂_a A is applied to z_a as soon as it is evaluated, so only
    (P, 2n+2) vectors are accumulated.
    """
    model = alpha.model
    out = model.bracket_values(ea, eb)
    if not model.coordinate_axes:
        return out
    forms = (alpha, beta, alpha.d(), beta.d())
    w = np.zeros(rows.shape[:2])
    for a in model.coordinate_axes:
        w_a = _reeb_rows_partial(forms, a, pts, ea[:, a : a + 1] * eb - eb[:, a : a + 1] * ea)
        if w_a is not None:
            w += w_a
    if np.any(w):
        u, _, _, _ = least_squares_batch(rows, w[:, :, None])
        out -= u[..., 0]
    return out


def volume_coefficient_values(av, bv, dav, dbv, k: int, l: int, n: int) -> np.ndarray:
    """Top coefficient of alpha ∧ (d alpha)^k ∧ beta ∧ (d beta)^l per point."""
    acc = av
    deg = 1
    for _ in range(k):
        acc = wedge_values(n, deg, 2, acc, dav)
        deg += 2
    acc = wedge_values(n, deg, 1, acc, bv)
    deg += 1
    for _ in range(l):
        acc = wedge_values(n, deg, 2, acc, dbv)
        deg += 2
    return acc[:, 0]


def wedge_power_values(dv: np.ndarray, power: int, n: int) -> np.ndarray:
    acc = np.ones((dv.shape[0], 1))
    deg = 0
    for _ in range(power):
        acc = wedge_values(n, deg, 2, acc, dv)
        deg += 2
    return acc


@dataclass(repr=False)
class ContactPairCertificate:
    """A verified contact pair with its Reeb pair and solve diagnostics."""

    alpha: FormField
    beta: FormField
    k: int
    l: int
    tol: float
    min_volume: float
    orientation_sign: int
    dalpha_power_residual: float
    dbeta_power_residual: float
    reeb_alpha: SolvedVectorField
    reeb_beta: SolvedVectorField
    reeb_residual: float
    sigma_min: float | None
    commutator_defect: float | None
    sample_count: int
    points: np.ndarray = field(repr=False)
    reeb_alpha_values: np.ndarray = field(repr=False)
    reeb_beta_values: np.ndarray = field(repr=False)

    def __repr__(self):
        return (
            f"<ContactPairCertificate type=({self.k},{self.l}) min|vol|={self.min_volume:.3e} "
            f"sign={self.orientation_sign:+d} reeb_residual={self.reeb_residual:.3e}>"
        )


def verify_contact_pair(
    alpha: FormField,
    beta: FormField,
    k: int,
    l: int,
    tol: float | None = None,
    points=None,
    rng=None,
    check_commutator: bool = True,
    check_rank: bool = True,
) -> ContactPairCertificate:
    """Certify (alpha, beta) as a contact pair of type (k, l).

    Fails with the first violated condition and a witness point.
    """
    model = alpha.model
    if beta.model is not model:
        raise ContactPairError("model", "alpha and beta live on different models")
    n = model.n
    if n != 2 * k + 2 * l + 2:
        raise ContactPairError(
            "dimension", f"type ({k},{l}) needs dimension {2 * k + 2 * l + 2}, model has {n}"
        )
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model, rng)
    pts = np.asarray(points, dtype=float)

    av, bv, da_m, db_m, dav, dbv = _pair_arrays(alpha, beta, pts)
    scale_a = float(np.max(np.abs(av)))
    scale_b = float(np.max(np.abs(bv)))
    scale_da = float(np.max(np.abs(dav)))
    scale_db = float(np.max(np.abs(dbv)))

    for name, vals, scale in (("alpha", av, scale_a), ("beta", bv, scale_b)):
        norms = _norm_inf_rows(vals)
        if np.any(norms <= tol * scale):
            idx = int(np.argmin(norms))
            raise ContactPairError(
                f"{name}-nonvanishing",
                f"{name} vanishes at a sample point",
                _witness(pts, idx, value=float(norms[idx])),
            )

    da_pow = wedge_power_values(dav, k + 1, n) if 2 * (k + 1) <= n else None
    if da_pow is not None:
        res = _norm_inf_rows(da_pow)
        defect = float(np.max(res))
        threshold = tol * scale_da ** (k + 1)
        if defect > threshold:
            idx = int(np.argmax(res))
            raise ContactPairError(
                "dalpha-power",
                f"(d alpha)^{k + 1} does not vanish",
                _witness(pts, idx, value=defect),
                defect=defect,
                marginal=defect < 10.0 * threshold,
            )
        dalpha_res = defect
    else:
        dalpha_res = 0.0

    db_pow = wedge_power_values(dbv, l + 1, n) if 2 * (l + 1) <= n else None
    if db_pow is not None:
        res = _norm_inf_rows(db_pow)
        defect = float(np.max(res))
        threshold = tol * scale_db ** (l + 1)
        if defect > threshold:
            idx = int(np.argmax(res))
            raise ContactPairError(
                "dbeta-power",
                f"(d beta)^{l + 1} does not vanish",
                _witness(pts, idx, value=defect),
                defect=defect,
                marginal=defect < 10.0 * threshold,
            )
        dbeta_res = defect
    else:
        dbeta_res = 0.0

    vol = volume_coefficient_values(av, bv, dav, dbv, k, l, n)
    vol_scale = scale_a * scale_b * scale_da**k * scale_db**l
    abs_vol = np.abs(vol)
    if np.any(abs_vol <= tol * vol_scale):
        idx = int(np.argmin(abs_vol))
        raise ContactPairError(
            "volume",
            "volume coefficient vanishes at a sample point",
            _witness(pts, idx, value=float(vol[idx])),
            defect=float(abs_vol[idx]),
            marginal=bool(abs_vol[idx] > 0.1 * tol * vol_scale),
        )
    if vol.min() < 0.0 < vol.max():
        raise ContactPairError(
            "orientation",
            "volume coefficient changes sign across sample points",
            {
                "negative": _witness(pts, int(np.argmin(vol)), value=float(vol.min())),
                "positive": _witness(pts, int(np.argmax(vol)), value=float(vol.max())),
            },
        )
    orientation = 1 if vol[0] > 0 else -1

    rows = _reeb_system(av, bv, da_m, db_m)
    res_scale = max(1.0, scale_a, scale_b, scale_da, scale_db)
    ea, eb, reeb_residual, smin = _checked_reeb(rows, pts, tol, res_scale, check_rank)

    comm = None
    if check_commutator:
        comm = float(np.max(np.abs(_reeb_commutator(alpha, beta, pts, rows, ea, eb))))
    e_alpha, e_beta = _reeb_fields(alpha, beta)

    return ContactPairCertificate(
        alpha=alpha,
        beta=beta,
        k=k,
        l=l,
        tol=tol,
        min_volume=float(abs_vol.min()),
        orientation_sign=orientation,
        dalpha_power_residual=dalpha_res,
        dbeta_power_residual=dbeta_res,
        reeb_alpha=e_alpha,
        reeb_beta=e_beta,
        reeb_residual=reeb_residual,
        sigma_min=smin,
        commutator_defect=comm,
        sample_count=pts.shape[0],
        points=pts,
        reeb_alpha_values=ea,
        reeb_beta_values=eb,
    )


def reeb_pair(alpha: FormField, beta: FormField, tol: float | None = None, points=None, rng=None):
    """Solve for the Reeb pair of an already verified contact pair.

    Raises when the stacked systems are inconsistent (not a contact pair) or
    rank deficient, or when the solved fields fail to commute.
    """
    model = alpha.model
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model, rng)
    pts = np.asarray(points, dtype=float)
    av, bv, da_m, db_m, dav, dbv = _pair_arrays(alpha, beta, pts)
    rows = _reeb_system(av, bv, da_m, db_m)
    scale = max(1.0, *(float(np.max(np.abs(v))) for v in (av, bv, dav, dbv)))
    ea, eb, _, _ = _checked_reeb(rows, pts, tol, scale, True)
    defect = float(np.max(np.abs(_reeb_commutator(alpha, beta, pts, rows, ea, eb))))
    if defect > tol * scale:
        raise ContactPairError(
            "reeb-commutator",
            "solved Reeb fields fail to commute",
            {"defect": defect},
            defect=defect,
        )
    return _reeb_fields(alpha, beta)


def contact_reeb_field(alpha: FormField) -> SolvedVectorField:
    """The Reeb field of a single contact form: alpha(Z) = 1, i_Z d alpha = 0."""
    model = alpha.model
    d_alpha = alpha.d()

    def solve(pts: np.ndarray) -> np.ndarray:
        av = alpha.values(pts)
        da_m = two_form_matrices(model.n, d_alpha.values(pts))
        rows = np.concatenate([av[:, None, :], np.swapaxes(da_m, 1, 2)], axis=1)
        b = np.zeros(rows.shape[1])
        b[0] = 1.0
        x, _, _, _ = least_squares_batch(rows, b)
        return x

    return SolvedVectorField(model, solve)


def darboux_model(k: int, resolution: int = 7):
    """The box [-1, 1]^{2k+1} with the standard contact form
    dz + sum_i x_i dy_i (axes ordered x_1..x_k, y_1..y_k, z)."""
    if k < 1:
        raise ValueError("darboux model needs k >= 1")
    n = 2 * k + 1
    model = box_chart([(-1.0, 1.0)] * n, resolution=resolution, name=f"darboux{k}")
    entries = {n - 1: ex.const(1.0)}
    for i in range(k):
        entries[k + i] = ex.variable(i)
    return model, form_from_expressions(model, 1, entries)


def torus_contact(resolution: int = 32):
    """T^3 with the contact form cos(x0) dx1 + sin(x0) dx2."""
    model = torus(3, resolution=resolution, name="T3")
    alpha = form_from_expressions(model, 1, {1: "cos(x0)", 2: "sin(x0)"})
    return model, alpha


def product_contact_pair(m1: Model, alpha: FormField, m2: Model, beta: FormField, tol: float | None = None):
    """Build the product model carrying the pulled-back pair (alpha, beta).

    Checks that each factor form is a contact form of maximal constant class
    on its odd-dimensional factor first.
    """
    for name, m, w in (("alpha", m1, alpha), ("beta", m2, beta)):
        if m.n % 2 == 0:
            raise ValueError(f"{name} factor must be odd-dimensional")
        report = cartan_class(w, tol=tol)
        expected = (m.n - 1) // 2
        if not report.constant or report.k != expected:
            raise ContactPairError(
                f"{name}-class",
                f"{name} is not a contact form of class {2 * expected + 1} on its factor",
                report.witnesses,
            )
    product = ProductModel(m1, m2)
    return product, pullback_form(product, alpha, "left"), pullback_form(product, beta, "right")


@dataclass
class SingleDeformationReport:
    """Two-way check of the single-form linear deformation criterion.

    condition_ii: alpha is contact and alpha0 annihilates its Reeb field.
    condition_i: alpha_t = alpha0 + t*alpha has maximal class for every
    positive t on the grid.  The two must agree.
    """

    condition_i: bool
    condition_ii: bool
    agreement: bool
    class_k: int | None
    pairing_defect: float
    per_t: list
    witness: dict = field(default_factory=dict)
    closed_defect: float = 0.0


def verify_single_deformation(
    alpha0: FormField,
    alpha: FormField,
    t_grid=None,
    tol: float | None = None,
    points=None,
    rng=None,
) -> SingleDeformationReport:
    """Check both directions of the deformation criterion for a single form."""
    model = alpha.model
    n = model.n
    if n % 2 == 0:
        raise ValueError("single-form deformation needs an odd-dimensional model")
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model, rng)
    pts = np.asarray(points, dtype=float)
    if t_grid is None:
        t_grid = [10.0**j for j in range(-2, 2)]

    da0 = alpha0.d().values(pts)
    closed_defect = float(np.max(np.abs(da0))) if da0.size else 0.0
    if closed_defect > tol * float(np.max(np.abs(alpha0.values(pts)))):
        raise ContactPairError(
            "alpha0-closed", "alpha0 is not closed", {"defect": closed_defect}, defect=closed_defect
        )

    k_max = (n - 1) // 2
    report = cartan_class(alpha, tol=tol, points=pts)
    maximal = report.constant and report.k == k_max

    pairing_defect = float("nan")
    if maximal:
        z = contact_reeb_field(alpha)
        zv = z.values(pts)
        pairings = np.abs(np.einsum("pi,pi->p", alpha0.values(pts), zv))
        pairing_defect = float(np.max(pairings))
        scale = float(np.max(np.abs(alpha0.values(pts)))) * max(1.0, float(np.max(np.abs(zv))))
        condition_ii = pairing_defect <= tol * scale
        witness_ii = _witness(pts, int(np.argmax(pairings)), value=pairing_defect)
    else:
        condition_ii = False
        witness_ii = {"reason": "alpha does not have maximal constant class", **report.witnesses}

    av = alpha.values(pts)
    a0v = alpha0.values(pts)
    dav = alpha.d().values(pts)
    per_t = []
    condition_i = True
    witness_i = {}
    for t in t_grid:
        t = float(t)
        if t <= 0.0:
            if t == 0.0:
                per_t.append({"t": 0.0, "note": "closed form, class 0", "passed": None})
            continue
        atv = a0v + t * av
        datv = t * dav
        acc = atv
        deg = 1
        for _ in range(k_max):
            acc = wedge_values(n, deg, 2, acc, datv)
            deg += 2
        coeff = acc[:, 0]
        scale = float(np.max(np.abs(coeff)))
        min_abs = float(np.min(np.abs(coeff)))
        sign_change = coeff.min() < 0.0 < coeff.max()
        passed = (min_abs > tol * scale) and not sign_change
        entry = {
            "t": t,
            "min_abs_coefficient": min_abs,
            "min_coefficient": float(coeff.min()),
            "max_coefficient": float(coeff.max()),
            "passed": passed,
        }
        if not passed:
            entry["witness"] = {
                "near_zero": _witness(pts, int(np.argmin(np.abs(coeff))), value=min_abs),
                "negative": _witness(pts, int(np.argmin(coeff)), value=float(coeff.min())),
                "positive": _witness(pts, int(np.argmax(coeff)), value=float(coeff.max())),
            }
            if condition_i:
                witness_i = {"t": t, **entry["witness"]}
            condition_i = False
        per_t.append(entry)

    return SingleDeformationReport(
        condition_i=condition_i,
        condition_ii=condition_ii,
        agreement=condition_i == condition_ii,
        class_k=report.k,
        pairing_defect=pairing_defect,
        per_t=per_t,
        witness={"condition_i": witness_i, "condition_ii": witness_ii},
        closed_defect=closed_defect,
    )
