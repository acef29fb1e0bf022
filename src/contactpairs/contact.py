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
from .exterior import _two_form_positions, chain, interior_values, two_form_matrices
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
    "SampledPair",
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
    residual = a @ x
    residual -= b
    residual_inf = _norm_inf_rows(residual, axis=1)
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


def _norm_inf_rows(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Largest absolute value along one short axis (0 where it is empty).

    A running np.maximum over the slices of that axis: exact in any order,
    and NaN propagates as in np.max, so a NaN row gives NaN.
    """
    values = np.moveaxis(np.asarray(values), axis, 0)
    if not values.shape[0]:
        return np.zeros(values.shape[1:])
    out = np.abs(values[0], out=np.empty(values.shape[1:]))
    tmp = np.empty_like(out)
    for v in values[1:]:
        np.maximum(out, np.abs(v, out=tmp), out=out)
    return out


def cartan_class(alpha: FormField, tol: float | None = None, points=None, rng=None) -> ClassReport:
    """Largest k with alpha ∧ (d alpha)^k nonvanishing and (d alpha)^{k+1} = 0,
    required to be the same k at every sample point."""
    if alpha.degree != 1:
        raise ValueError("cartan_class expects a 1-form")
    model = alpha.model
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model, rng)
    pts = np.asarray(points, dtype=float)
    dav = alpha.d().values(pts) if model.n >= 2 else np.zeros((pts.shape[0], 0))
    return _class_report(alpha.values(pts), dav, pts, tol)


def _class_report(av: np.ndarray, dav: np.ndarray, pts: np.ndarray, tol: float) -> ClassReport:
    """Cartan class from the sampled values of alpha and d alpha."""
    n = av.shape[1]
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
    # (d alpha)^j for j = 0 .. k_max + 1, as far as the degree allows
    powers = [np.ones((pts.shape[0], 1))]
    for j in range(1, min(k_max + 1, n // 2) + 1):
        powers.append(chain(n, (2 * j - 2, powers[-1]), (2, dav)))
    nonvanish = [_norm_inf_rows(chain(n, (1, av), (2 * k, powers[k]))) for k in range(k_max + 1)]
    power_norm = [_norm_inf_rows(p) for p in powers]

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


class SampledPair:
    """alpha, beta, d alpha and d beta evaluated once on a point set.

    ``forms`` holds the four fields the arrays were evaluated from, which the
    exact Reeb commutator differentiates; it is None for arrays formed
    otherwise, such as the samples of a family at one t.
    """

    def __init__(self, points, alpha, beta, dalpha, dbeta, forms=None):
        self.points = points
        self.alpha = alpha
        self.beta = beta
        self.dalpha = dalpha
        self.dbeta = dbeta
        self.forms = forms

    @classmethod
    def of(cls, alpha: FormField, beta: FormField, points) -> "SampledPair":
        """Evaluate two 1-form fields and their derivatives."""
        pts = np.asarray(points, dtype=float)
        forms = (alpha, beta, alpha.d(), beta.d())
        return cls(pts, *(f.values(pts) for f in forms), forms=forms)

    @property
    def n(self) -> int:
        return self.alpha.shape[1]

    @property
    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Antisymmetric matrices of d alpha and d beta, shape (P, n, n) each;
        formed on use, so that a pair kept across a t loop holds none."""
        return two_form_matrices(self.n, self.dalpha), two_form_matrices(self.n, self.dbeta)

    def scales(self) -> tuple:
        """Largest absolute entries of alpha, beta, d alpha and d beta."""
        return tuple(np.max(np.abs(v)) for v in (self.alpha, self.beta, self.dalpha, self.dbeta))

    def reeb_rows(self) -> np.ndarray:
        """Stacked rows (alpha; beta; i_E d alpha; i_E d beta), shape (P, 2n+2, n).

        Row 2 + j of i_E d alpha holds d alpha(e_i, e_j) in column i, so each
        2-form coefficient is scattered straight into its flat positions.
        """
        n = self.n
        rows = np.zeros((self.alpha.shape[0], (2 * n + 2) * n))
        rows[:, :n] = self.alpha
        rows[:, n : 2 * n] = self.beta
        upper, lower = _two_form_positions(n)
        for start, coeffs in ((2 * n, self.dalpha), ((n + 2) * n, self.dbeta)):
            rows[:, start + lower] = coeffs
            rows[:, start + upper] = -coeffs
        return rows.reshape(-1, 2 * n + 2, n)

    def top(self, k: int, l: int, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Top coefficient of w ∧ (d alpha)^k ∧ v ∧ (d beta)^l per point."""
        return chain(self.n, (1, w), *[(2, self.dalpha)] * k, (1, v), *[(2, self.dbeta)] * l)[:, 0]


def _solve_reeb(rows: np.ndarray, compute_sigma: bool):
    # one right-hand side per field: alpha(E_alpha) = 1 and beta(E_beta) = 1
    b = np.eye(rows.shape[1], 2)
    x, residual, sigma_min, sigma_max = least_squares_batch(rows, b, compute_sigma)
    return x[..., 0], x[..., 1], residual, sigma_min, sigma_max


def _reeb_fields(alpha: FormField, beta: FormField):
    """(E_alpha, E_beta) as fields that solve the Reeb system at the points asked for."""

    def solver(which: int):
        return lambda pts: _solve_reeb(SampledPair.of(alpha, beta, pts).reeb_rows(), False)[which]

    return SolvedVectorField(alpha.model, solver(0)), SolvedVectorField(alpha.model, solver(1))


def _checked_reeb(rows: np.ndarray, pts: np.ndarray, tol: float, scale: float, check_rank: bool):
    """Solve the stacked Reeb systems; raise when one is inconsistent or,
    with check_rank, rank deficient.  Returns (E_alpha, E_beta, max residual,
    smallest singular value or None)."""
    ea, eb, residual, sigma_min, sigma_max = _solve_reeb(rows, check_rank)
    reeb_residual = float(np.max(residual))
    if not reeb_residual < tol * scale:  # NaN fails too
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


def _reeb_solution(s: SampledPair, tol: float, scale: float, check_rank: bool, check_commutator: bool):
    """The checked Reeb solve of a sampled pair and, on request, the exact
    commutator gated at tol * scale.  Returns (E_alpha, E_beta, max
    residual, smallest singular value or None, commutator defect or None)."""
    rows = s.reeb_rows()
    ea, eb, reeb_residual, smin = _checked_reeb(rows, s.points, tol, scale, check_rank)
    comm = None
    if check_commutator:
        comm = float(np.max(np.abs(_reeb_commutator(s, rows, ea, eb))))
        if not comm <= tol * scale:
            raise ContactPairError(
                "reeb-commutator",
                "solved Reeb fields fail to commute",
                {"defect": comm},
                defect=comm,
                marginal=comm < 10.0 * tol * scale,
            )
    return ea, eb, reeb_residual, smin, comm


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


def _reeb_commutator(s: SampledPair, rows, ea, eb) -> np.ndarray:
    """[E_alpha, E_beta] at the sample points from the solved Reeb system A E = b.

    Differentiating the consistent system along X gives
    D_X E = -(AᵀA)⁻¹ Aᵀ (D_X A) E, where D_X A = sum_a X^a ∂_a A over the
    coordinate axes and ∂_a A holds the exact partials of alpha, beta,
    d alpha and d beta.  Hence, with c the frame bracket,

        [E_alpha, E_beta] = c(E_alpha, E_beta) - (AᵀA)⁻¹ Aᵀ sum_a (∂_a A) z_a,
        z_a = E_alpha^a E_beta - E_beta^a E_alpha.

    Each ∂_a A is applied to z_a as soon as it is evaluated, so only
    (P, 2n+2) vectors are accumulated.
    """
    model = s.forms[0].model
    out = model.bracket_values(ea, eb)
    if not model.coordinate_axes:
        return out
    w = np.zeros(rows.shape[:2])
    for a in model.coordinate_axes:
        w_a = _reeb_rows_partial(s.forms, a, s.points, ea[:, a : a + 1] * eb - eb[:, a : a + 1] * ea)
        if w_a is not None:
            w += w_a
    if np.any(w):
        u, _, _, _ = least_squares_batch(rows, w[:, :, None])
        out -= u[..., 0]
    return out


@dataclass(repr=False)
class ContactPairCertificate:
    """A verified contact pair with its Reeb pair and solve diagnostics.

    ``sampled`` keeps the evaluated arrays.  The fields (alpha, beta and
    their Reeb fields) are None when the arrays were not evaluated from
    fields, as for a family at one t.
    """

    alpha: FormField | None
    beta: FormField | None
    k: int
    l: int
    tol: float
    min_volume: float
    orientation_sign: int
    dalpha_power_residual: float
    dbeta_power_residual: float
    reeb_alpha: SolvedVectorField | None
    reeb_beta: SolvedVectorField | None
    reeb_residual: float
    sigma_min: float | None
    commutator_defect: float | None
    sample_count: int
    sampled: SampledPair = field(repr=False)
    points: np.ndarray = field(repr=False)
    reeb_alpha_values: np.ndarray = field(repr=False)
    reeb_beta_values: np.ndarray = field(repr=False)

    def __repr__(self):
        return (
            f"<ContactPairCertificate type=({self.k},{self.l}) min|vol|={self.min_volume:.3e} "
            f"sign={self.orientation_sign:+d} reeb_residual={self.reeb_residual:.3e}>"
        )


def _vanishing(condition: str, power: str, res: np.ndarray, threshold, pts) -> float:
    """max res over the points, raising a witnessed failure when the power
    does not vanish (exceeds threshold)."""
    defect = float(np.max(res))
    if defect > threshold:
        idx = int(np.argmax(res))
        raise ContactPairError(
            condition,
            f"{power} does not vanish",
            _witness(pts, idx, value=defect),
            defect=defect,
            marginal=bool(defect < 10.0 * threshold),
        )
    return defect


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
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model, rng)
    return _certify(SampledPair.of(alpha, beta, points), k, l, tol, check_commutator, check_rank)


def _certify(
    s: SampledPair, k: int, l: int, tol: float, check_commutator: bool, check_rank: bool
) -> ContactPairCertificate:
    """The checks of verify_contact_pair on already sampled arrays.

    A sample, scale or wedge chain that is not finite fails as "non-finite"
    before any other check: no comparison can be trusted on it.
    """
    n = s.n
    if n != 2 * k + 2 * l + 2:
        raise ContactPairError(
            "dimension", f"type ({k},{l}) needs dimension {2 * k + 2 * l + 2}, model has {n}"
        )
    pts = s.points
    with np.errstate(over="ignore", invalid="ignore"):
        scale_a, scale_b, scale_da, scale_db = s.scales()
        res_scale = max(1.0, scale_a, scale_b, scale_da, scale_db)
        da_threshold = tol * scale_da ** (k + 1)
        db_threshold = tol * scale_db ** (l + 1)
        vol_scale = scale_a * scale_b * scale_da**k * scale_db**l
        da_res = _norm_inf_rows(chain(n, *[(2, s.dalpha)] * (k + 1)))
        db_res = _norm_inf_rows(chain(n, *[(2, s.dbeta)] * (l + 1)))
        vol = s.top(k, l, s.alpha, s.beta)
        gram_scale = res_scale * res_scale * (2 * n + 2)  # bounds the normal equations
        checked = (vol_scale, da_threshold, db_threshold, gram_scale, da_res, db_res, vol)
    if not all(np.all(np.isfinite(v)) for v in checked):
        raise ContactPairError("non-finite", "a sample, its scale or a wedge chain is not finite")

    for name, vals, scale in (("alpha", s.alpha, scale_a), ("beta", s.beta, scale_b)):
        norms = _norm_inf_rows(vals)
        if np.any(norms <= tol * scale):
            idx = int(np.argmin(norms))
            raise ContactPairError(
                f"{name}-nonvanishing",
                f"{name} vanishes at a sample point",
                _witness(pts, idx, value=float(norms[idx])),
            )
    dalpha_res = _vanishing("dalpha-power", f"(d alpha)^{k + 1}", da_res, da_threshold, pts)
    dbeta_res = _vanishing("dbeta-power", f"(d beta)^{l + 1}", db_res, db_threshold, pts)

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

    ea, eb, reeb_residual, smin, comm = _reeb_solution(
        s, tol, res_scale, check_rank, check_commutator
    )
    alpha, beta = s.forms[:2] if s.forms else (None, None)
    e_alpha, e_beta = _reeb_fields(alpha, beta) if s.forms else (None, None)
    return ContactPairCertificate(
        alpha=alpha,
        beta=beta,
        k=k,
        l=l,
        tol=tol,
        min_volume=float(abs_vol.min()),
        orientation_sign=1 if vol[0] > 0 else -1,
        dalpha_power_residual=dalpha_res,
        dbeta_power_residual=dbeta_res,
        reeb_alpha=e_alpha,
        reeb_beta=e_beta,
        reeb_residual=reeb_residual,
        sigma_min=smin,
        commutator_defect=comm,
        sample_count=pts.shape[0],
        sampled=s,
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
    s = SampledPair.of(alpha, beta, points)
    _reeb_solution(s, tol, max(1.0, *s.scales()), True, True)
    return _reeb_fields(alpha, beta)


def _contact_reeb(av: np.ndarray, da_m: np.ndarray):
    """Reeb field of one contact form from its samples, alpha(Z) = 1 and
    i_Z d alpha = 0; returns (Z, least-squares residual)."""
    rows = np.concatenate([av[:, None, :], np.swapaxes(da_m, 1, 2)], axis=1)
    b = np.zeros(rows.shape[1])
    b[0] = 1.0
    x, residual, _, _ = least_squares_batch(rows, b)
    return x, residual


def contact_reeb_field(alpha: FormField) -> SolvedVectorField:
    """The Reeb field of a single contact form: alpha(Z) = 1, i_Z d alpha = 0."""
    model = alpha.model
    d_alpha = alpha.d()

    def solve(pts: np.ndarray) -> np.ndarray:
        return _contact_reeb(alpha.values(pts), two_form_matrices(model.n, d_alpha.values(pts)))[0]

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
    positive t on the grid.  The two must agree.  A t whose samples overflow
    fails as "non-finite"; with no other failing t, condition_i and agreement
    are then None (undecided).  pairing_defect is None unless alpha has
    maximal class.
    """

    condition_i: bool | None
    condition_ii: bool
    agreement: bool | None
    class_k: int | None
    pairing_defect: float | None
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

    a0v = alpha0.values(pts)
    da0 = alpha0.d().values(pts)
    closed_defect = float(np.max(np.abs(da0))) if da0.size else 0.0
    if closed_defect > tol * float(np.max(np.abs(a0v))):
        raise ContactPairError(
            "alpha0-closed", "alpha0 is not closed", {"defect": closed_defect}, defect=closed_defect
        )

    k_max = (n - 1) // 2
    av = alpha.values(pts)
    dav = alpha.d().values(pts)
    report = _class_report(av, dav, pts, tol)
    maximal = report.constant and report.k == k_max

    pairing_defect = None
    if maximal:
        zv, _ = _contact_reeb(av, two_form_matrices(n, dav))
        pairings = np.abs(np.einsum("pi,pi->p", a0v, zv))
        pairing_defect = float(np.max(pairings))
        scale = float(np.max(np.abs(a0v))) * max(1.0, float(np.max(np.abs(zv))))
        condition_ii = pairing_defect <= tol * scale
        witness_ii = _witness(pts, int(np.argmax(pairings)), value=pairing_defect)
    else:
        condition_ii = False
        witness_ii = {"reason": "alpha does not have maximal constant class", **report.witnesses}

    per_t = []
    condition_i = True  # None: undecided, some t overflowed and none failed
    witness_i = {}
    for t in t_grid:
        t = float(t)
        if t <= 0.0:
            if t == 0.0:
                per_t.append({"t": 0.0, "note": "closed form, class 0", "passed": None})
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = chain(n, (1, a0v + t * av), *[(2, da0 + t * dav)] * k_max)[:, 0]
        if not np.all(np.isfinite(coeff)):
            # an overflow shows nothing about the class of alpha_t
            overflow = {"condition": "non-finite", "t": t}
            per_t.append({"t": t, "passed": False, "witness": overflow})
            if condition_i:
                condition_i, witness_i = None, overflow
            continue
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
            if condition_i is not False:
                witness_i = {"t": t, **entry["witness"]}
            condition_i = False
        per_t.append(entry)

    return SingleDeformationReport(
        condition_i=condition_i,
        condition_ii=condition_ii,
        agreement=None if condition_i is None else condition_i == condition_ii,
        class_k=report.k,
        pairing_defect=pairing_defect,
        per_t=per_t,
        witness={"condition_i": witness_i, "condition_ii": witness_ii},
        closed_defect=closed_defect,
    )
