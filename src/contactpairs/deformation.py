"""Linear deformations of pairs of closed 1-forms into contact pairs.

A family deforms closed, pointwise independent 1-forms (alpha0, beta0) along
directions (alpha, beta):

    alpha_t = alpha0 + t*alpha,   beta_t = beta0 + t*beta.

Expanding the candidate volume form of (alpha_t, beta_t) is exact in t:

    alpha_t ∧ (d alpha_t)^k ∧ beta_t ∧ (d beta_t)^l
        = t^{k+l} (t^2 Q + t L + C) * Omega

for the pointwise quadratic/linear/constant coefficient functions computed by
``volume_polynomial``.  ``verify_forward`` checks that a contact pair
(alpha, beta) whose Reeb pair annihilates alpha0 and beta0 produces contact
pairs (alpha_t, beta_t) with Reeb pair (E_alpha/t, E_beta/t);
``verify_converse`` recovers the deformation data back from the family,
including the vanishing of the constant and linear coefficients and the two
quadrature integrals that force the linear coefficient to vanish on closed
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import (
    ContactPairCertificate,
    ContactPairError,
    SampledPair,
    _certify,
    _norm_inf_rows,
    _solve_reeb,
)
from .exterior import chain, wedge_values
from .fields import FormField, volume_form
from .models import default_tolerance, integrate, sample_points

__all__ = [
    "DeformationFamily",
    "VolumePolynomial",
    "CheckItem",
    "TheoremVerdict",
    "PairSamples",
    "SampledFamily",
    "volume_polynomial",
    "volume_identity_defect",
    "volume_replacement_defects",
    "transverse_wedge_defect",
    "verify_forward",
    "verify_converse",
    "stokes_integrals",
    "sweep_rows",
    "FORWARD_T_GRID",
    "CONVERSE_T_GRID",
]

FORWARD_T_GRID = (-10.0, -1.0, -0.1, -0.01, 0.01, 0.1, 1.0, 10.0)
CONVERSE_T_GRID = (0.01, 0.1, 1.0, 10.0)


class DeformationFamily:
    """alpha_t = alpha0 + t*alpha, beta_t = beta0 + t*beta with closed,
    pointwise independent alpha0, beta0 and a declared target type (k, l)."""

    def __init__(
        self,
        alpha0: FormField,
        beta0: FormField,
        alpha: FormField,
        beta: FormField,
        k: int,
        l: int,
        tol: float | None = None,
        points=None,
        rng=None,
    ):
        model = alpha0.model
        for f in (beta0, alpha, beta):
            if f.model is not model:
                raise ValueError("all four forms must live on one model")
        if any(f.degree != 1 for f in (alpha0, beta0, alpha, beta)):
            raise ValueError("deformation data must be 1-forms")
        if tol is None:
            tol = default_tolerance(model)
        if points is None:
            points = sample_points(model, rng)
        pts = np.asarray(points, dtype=float)

        # kept: the sampled family evaluates them again without re-deriving
        self.dalpha0, self.dbeta0 = alpha0.d(), beta0.d()
        a0v = alpha0.values(pts)
        b0v = beta0.values(pts)
        for name, values, d in (("alpha0", a0v, self.dalpha0), ("beta0", b0v, self.dbeta0)):
            dv = d.values(pts)
            defect = float(np.max(np.abs(dv))) if dv.size else 0.0
            if defect > tol * float(np.max(np.abs(values))):
                raise ValueError(f"{name} is not closed (max |d {name}| = {defect:.3e})")

        indep = _norm_inf_rows(wedge_values(model.n, 1, 1, a0v, b0v))
        if np.any(indep <= tol * float(np.max(np.abs(a0v))) * float(np.max(np.abs(b0v)))):
            idx = int(np.argmin(indep))
            raise ValueError(
                f"alpha0 and beta0 are linearly dependent at sample point {pts[idx].tolist()}"
            )

        self.model = model
        self.alpha0 = alpha0
        self.beta0 = beta0
        self.alpha = alpha
        self.beta = beta
        self.k = int(k)
        self.l = int(l)
        self.tol = tol

    def at(self, t: float) -> tuple[FormField, FormField]:
        """The pair (alpha_t, beta_t)."""
        t = float(t)
        return self.alpha0 + t * self.alpha, self.beta0 + t * self.beta

    def __repr__(self):
        return f"<DeformationFamily type=({self.k},{self.l}) on {self.model!r}>"


@dataclass
class VolumePolynomial:
    """Pointwise coefficients of the volume polynomial t^{k+l}(Q t^2 + L t + C)."""

    volume: FormField
    points: np.ndarray = field(repr=False)
    quad: np.ndarray = field(repr=False)
    lin: np.ndarray = field(repr=False)
    const: np.ndarray = field(repr=False)
    volume_values: np.ndarray = field(repr=False)

    @property
    def max_abs_const(self) -> float:
        return float(np.max(np.abs(self.const)))

    @property
    def lin_range(self) -> tuple[float, float]:
        return float(np.min(self.lin)), float(np.max(self.lin))

    @property
    def quad_range(self) -> tuple[float, float]:
        return float(np.min(self.quad)), float(np.max(self.quad))

    def __repr__(self):
        return (
            f"<VolumePolynomial quad in {self.quad_range}, lin in {self.lin_range}, "
            f"max|const|={self.max_abs_const:.3e}>"
        )


class SampledFamily:
    """The forms of a family and their derivatives, evaluated once on a
    point set.

    Every sampled quantity of (alpha_t, beta_t) is affine in t, so ``at(t)``
    forms its arrays without building or evaluating expressions.  The
    d alpha0 and d beta0 terms are kept: alpha0 and beta0 are closed only to
    within the tolerance.
    """

    def __init__(self, family: DeformationFamily, points):
        self.model = family.model
        self.k, self.l = family.k, family.l
        self.direction = SampledPair.of(family.alpha, family.beta, points)
        self.points = pts = self.direction.points
        closed = (family.alpha0, family.beta0, family.dalpha0, family.dbeta0)
        self.closed = SampledPair(pts, *(f.values(pts) for f in closed))

    def at(self, t: float) -> SampledPair:
        """The samples of (alpha_t, beta_t); entries may overflow for huge t."""
        c, s = self.closed, self.direction
        with np.errstate(over="ignore", invalid="ignore"):
            return SampledPair(
                self.points,
                c.alpha + t * s.alpha,
                c.beta + t * s.beta,
                c.dalpha + t * s.dalpha,
                c.dbeta + t * s.dbeta,
            )

    def volume_polynomial(self, volume: FormField | None = None) -> VolumePolynomial:
        if volume is None:
            volume = volume_form(self.model)
        pts = self.points
        omega = volume.values(pts)[:, 0]
        if np.any(np.abs(omega) <= 1e-14):
            idx = int(np.argmin(np.abs(omega)))
            raise ValueError(f"reference volume vanishes at sample point {pts[idx].tolist()}")
        c, s, k, l = self.closed, self.direction, self.k, self.l
        quad = s.top(k, l, s.alpha, s.beta) / omega
        lin = (s.top(k, l, c.alpha, s.beta) + s.top(k, l, s.alpha, c.beta)) / omega
        const = s.top(k, l, c.alpha, c.beta) / omega
        return VolumePolynomial(volume, pts, quad, lin, const, omega)


def volume_polynomial(
    family: DeformationFamily, volume: FormField | None = None, points=None, rng=None
) -> VolumePolynomial:
    """Sample the three coefficient functions of the volume polynomial."""
    if points is None:
        points = sample_points(family.model, rng)
    return SampledFamily(family, points).volume_polynomial(volume)


def volume_identity_defect(
    family: DeformationFamily, t_values, volume: FormField | None = None, points=None, rng=None
) -> float:
    """Max relative defect between the expanded family volume form and
    t^{k+l}(Q t^2 + L t + C) * Omega over the t sample set."""
    if points is None:
        points = sample_points(family.model, rng)
    sampled = SampledFamily(family, points)
    vp = sampled.volume_polynomial(volume)
    k, l = family.k, family.l
    worst = 0.0
    scale = 1.0
    for t in t_values:
        t = float(t)
        s = sampled.at(t)
        lhs = s.top(k, l, s.alpha, s.beta)
        rhs = t ** (k + l) * (t**2 * vp.quad + t * vp.lin + vp.const) * vp.volume_values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        scale = max(scale, float(np.max(np.abs(lhs))))
    return worst / scale


class PairSamples:
    """Evaluated contact-pair data for repeated pointwise wedge identities;
    reuses the certificate's samples unless other points are given."""

    def __init__(self, cert: ContactPairCertificate, points=None):
        if points is None:
            s, ea, eb = cert.sampled, cert.reeb_alpha_values, cert.reeb_beta_values
        else:
            s = SampledPair.of(cert.alpha, cert.beta, points)
            ea, eb, _, _, _ = _solve_reeb(s.reeb_rows(), False)
        self.cert = cert
        self.sampled = s
        self.pts = s.points
        self.k, self.l = cert.k, cert.l
        self.ea, self.eb = ea, eb
        self.volume = s.top(self.k, self.l, s.alpha, s.beta)

    def _omega_values(self, omega) -> np.ndarray:
        if isinstance(omega, FormField):
            return omega.values(self.pts)
        w = np.asarray(omega, dtype=float)
        if w.ndim == 1:
            w = np.broadcast_to(w, (self.pts.shape[0], w.shape[0]))
        return w

    def replacement_defects(self, omega) -> tuple[float, float]:
        """Defects of the two insertion identities for a 1-form w:

            w ∧ (da)^k ∧ b ∧ (db)^l = w(E_a) * vol,
            w ∧ a ∧ (da)^k ∧ (db)^l = -w(E_b) * vol,

        where vol = a ∧ (da)^k ∧ b ∧ (db)^l.
        """
        s, k, l = self.sampled, self.k, self.l
        w = self._omega_values(omega)
        lhs1 = s.top(k, l, w, s.beta)
        w_ea = np.einsum("pi,pi->p", w, self.ea)
        d1 = float(np.max(np.abs(lhs1 - w_ea * self.volume)))

        lhs2 = chain(s.n, (1, w), (1, s.alpha), *[(2, s.dalpha)] * k, *[(2, s.dbeta)] * l)[:, 0]
        w_eb = np.einsum("pi,pi->p", w, self.eb)
        d2 = float(np.max(np.abs(lhs2 + w_eb * self.volume)))
        scale = max(1.0, float(np.max(np.abs(self.volume))), float(np.max(np.abs(w))))
        return d1 / scale, d2 / scale

    def transverse_defect(self, omega, omega_bar, project: bool = True) -> float:
        """Max |w ∧ (da)^k ∧ w̄ ∧ (db)^l| after projecting both arguments to
        the kernel of E_beta (w -> w - w(E_b) * beta), the hypothesis under
        which the product vanishes identically."""
        s = self.sampled
        w = self._omega_values(omega)
        wb = self._omega_values(omega_bar)
        if project:
            w = w - np.einsum("pi,pi->p", w, self.eb)[:, None] * s.beta
            wb = wb - np.einsum("pi,pi->p", wb, self.eb)[:, None] * s.beta
        acc = s.top(self.k, self.l, w, wb)
        scale = max(1.0, float(np.max(np.abs(w))), float(np.max(np.abs(wb))))
        return float(np.max(np.abs(acc))) / scale


def volume_replacement_defects(cert: ContactPairCertificate, omega, points=None) -> tuple[float, float]:
    return PairSamples(cert, points).replacement_defects(omega)


def transverse_wedge_defect(
    cert: ContactPairCertificate, omega, omega_bar, points=None, project: bool = True
) -> float:
    return PairSamples(cert, points).transverse_defect(omega, omega_bar, project)


@dataclass
class CheckItem:
    """One named pointwise check inside a verdict."""

    name: str
    passed: bool | None
    defect: float | None = None
    threshold: float | None = None
    witness: dict | None = None
    note: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.defect is not None:
            out["defect"] = self.defect
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.witness:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class TheoremVerdict:
    """Hypotheses and conclusions of one theorem direction.

    A failed hypothesis makes the verdict "not applicable", never
    "falsified"; "falsified" needs all hypotheses to pass while some
    conclusion fails.
    """

    direction: str
    hypotheses: list
    conclusions: list

    @property
    def overall(self) -> str:
        if any(item.passed is False for item in self.hypotheses):
            return "not applicable"
        if any(item.passed is None for item in self.hypotheses):
            return "not applicable"
        if all(item.passed for item in self.conclusions):
            return "pass"
        return "falsified"

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "overall": self.overall,
            "hypotheses": [i.to_dict() for i in self.hypotheses],
            "conclusions": [i.to_dict() for i in self.conclusions],
        }


def _cert_item(name: str, make_cert) -> tuple[CheckItem, ContactPairCertificate | None]:
    try:
        cert = make_cert()
        return CheckItem(name, True, defect=cert.reeb_residual, threshold=cert.tol), cert
    except ContactPairError as err:
        return (
            CheckItem(
                name,
                False,
                defect=err.defect,
                witness={"condition": err.condition, **err.witness},
                note=str(err),
            ),
            None,
        )


def _base_item(sampled: SampledFamily, tol):
    return _cert_item(
        "(alpha,beta) is a contact pair",
        lambda: _certify(sampled.direction, sampled.k, sampled.l, tol, False, False),
    )


def _item_at(sampled: SampledFamily, t: float, tol):
    """Certify (alpha_t, beta_t) from the family's samples.  Returns the
    item and the Reeb values (None on failure); the samples at t are
    dropped here.  A non-finite failure names t as its witness."""
    item, cert = _cert_item(
        f"(alpha_t,beta_t) is a contact pair at t={t:g}",
        lambda: _certify(sampled.at(t), sampled.k, sampled.l, tol, False, False),
    )
    if cert is None:
        if item.witness["condition"] == "non-finite":
            item.witness["t"] = t
        return item, None
    return item, (cert.reeb_alpha_values, cert.reeb_beta_values)


def _pairing_items(closed: SampledPair, cert, tol) -> list[CheckItem]:
    names = (
        ("alpha0(E_alpha)", closed.alpha, "ea"),
        ("alpha0(E_beta)", closed.alpha, "eb"),
        ("beta0(E_alpha)", closed.beta, "ea"),
        ("beta0(E_beta)", closed.beta, "eb"),
    )
    if cert is None:
        return [
            CheckItem(f"compatibility {n}=0", None, note="not evaluated (no base certificate)")
            for n, _, _ in names
        ]
    reeb = {"ea": cert.reeb_alpha_values, "eb": cert.reeb_beta_values}
    pts = closed.points
    items = []
    for label, closed_values, key in names:
        vals = np.abs(np.einsum("pi,pi->p", closed_values, reeb[key]))
        defect = float(np.max(vals))
        scale = max(1.0, float(np.max(np.abs(closed_values))) * float(np.max(np.abs(reeb[key]))))
        passed = defect < tol * scale
        idx = int(np.argmax(vals))
        items.append(
            CheckItem(
                f"compatibility {label}=0",
                passed,
                defect=defect,
                threshold=tol * scale,
                witness=None if passed else {"point": [float(v) for v in pts[idx]], "value": defect},
            )
        )
    return items


def verify_forward(
    family: DeformationFamily,
    t_grid=None,
    tol: float | None = None,
    points=None,
    rng=None,
) -> TheoremVerdict:
    """Forward direction: a compatible contact pair of deformation directions
    makes every (alpha_t, beta_t), t != 0, a contact pair of the same type
    with Reeb pair (E_alpha/t, E_beta/t)."""
    model = family.model
    if tol is None:
        tol = family.tol
    if t_grid is None:
        t_grid = FORWARD_T_GRID
    if points is None:
        points = sample_points(model, rng)
    sampled = SampledFamily(family, points)
    pts = sampled.points

    base_item, cert = _base_item(sampled, tol)
    hypotheses = [base_item] + _pairing_items(sampled.closed, cert, tol)

    conclusions = []
    for t in t_grid:
        t = float(t)
        if t == 0.0:
            continue
        item_t, reeb_t = _item_at(sampled, t, tol)
        conclusions.append(item_t)
        if reeb_t is None or cert is None:
            conclusions.append(
                CheckItem(f"Reeb scaling at t={t:g}", None, note="not evaluated (no certificate)")
            )
            continue
        diff = np.maximum(
            np.max(np.abs(t * reeb_t[0] - cert.reeb_alpha_values), axis=1),
            np.max(np.abs(t * reeb_t[1] - cert.reeb_beta_values), axis=1),
        )
        defect = float(np.max(diff))
        scale = max(
            1.0,
            float(np.max(np.abs(cert.reeb_alpha_values))),
            float(np.max(np.abs(cert.reeb_beta_values))),
        )
        passed = defect < tol * scale
        idx = int(np.argmax(diff))
        conclusions.append(
            CheckItem(
                f"Reeb scaling at t={t:g}",
                passed,
                defect=defect,
                threshold=tol * scale,
                witness=None if passed else {"t": t, "point": [float(v) for v in pts[idx]]},
            )
        )
    return TheoremVerdict("forward", hypotheses, conclusions)


def verify_converse(
    family: DeformationFamily,
    t_grid=None,
    tol: float | None = None,
    points=None,
    rng=None,
    integral_resolution=None,
) -> TheoremVerdict:
    """Converse direction: if every (alpha_t, beta_t), t > 0, is a contact
    pair whose Reeb pair scales as (X/t, Y/t), then (alpha, beta) is a
    contact pair with Reeb pair (X, Y) annihilated by alpha0 and beta0.

    Also reports the proof's intermediate facts: the constant coefficient of
    the volume polynomial vanishes pointwise, both quadrature integrals of
    the linear coefficient vanish on closed models, and the linear
    coefficient vanishes pointwise.
    """
    model = family.model
    if tol is None:
        tol = family.tol
    if t_grid is None:
        t_grid = CONVERSE_T_GRID
    t_grid = [float(t) for t in t_grid]
    if any(t <= 0 for t in t_grid):
        raise ValueError("converse t grid must be strictly positive")
    if points is None:
        points = sample_points(model, rng)
    sampled = SampledFamily(family, points)

    hypotheses = []
    scaled_a, scaled_b = [], []
    for t in t_grid:
        item_t, reeb_t = _item_at(sampled, t, tol)
        hypotheses.append(item_t)
        if reeb_t is not None:
            scaled_a.append(t * reeb_t[0])
            scaled_b.append(t * reeb_t[1])

    if len(scaled_a) == len(t_grid):
        defect = 0.0
        for seq in (scaled_a, scaled_b):
            for v in seq[1:]:
                defect = max(defect, float(np.max(np.abs(v - seq[0]))))
        scale = max(1.0, float(np.max(np.abs(scaled_a[0]))), float(np.max(np.abs(scaled_b[0]))))
        hypotheses.append(
            CheckItem(
                "t * E_{alpha_t}, t * E_{beta_t} constant across t",
                defect < tol * scale,
                defect=defect,
                threshold=tol * scale,
            )
        )
        x_vals, y_vals = scaled_a[0], scaled_b[0]
    else:
        hypotheses.append(
            CheckItem(
                "t * E_{alpha_t}, t * E_{beta_t} constant across t",
                None,
                note="not evaluated (some t failed the contact-pair hypothesis)",
            )
        )
        x_vals = y_vals = None

    conclusions = []
    base_item, cert = _base_item(sampled, tol)
    conclusions.append(base_item)
    if cert is not None and x_vals is not None:
        defect = max(
            float(np.max(np.abs(cert.reeb_alpha_values - x_vals))),
            float(np.max(np.abs(cert.reeb_beta_values - y_vals))),
        )
        scale = max(1.0, float(np.max(np.abs(x_vals))), float(np.max(np.abs(y_vals))))
        conclusions.append(
            CheckItem(
                "(E_alpha,E_beta) = (X,Y)", defect < tol * scale, defect=defect, threshold=tol * scale
            )
        )
    else:
        conclusions.append(CheckItem("(E_alpha,E_beta) = (X,Y)", None, note="not evaluated"))
    conclusions.extend(_pairing_items(sampled.closed, cert, tol))

    vp = sampled.volume_polynomial()
    conclusions.append(
        CheckItem(
            "constant volume coefficient vanishes pointwise",
            vp.max_abs_const < tol,
            defect=vp.max_abs_const,
            threshold=tol,
        )
    )
    lin_max = float(np.max(np.abs(vp.lin)))
    conclusions.append(
        CheckItem(
            "linear volume coefficient vanishes pointwise",
            lin_max < tol,
            defect=lin_max,
            threshold=tol,
        )
    )
    if model.is_closed and family.k >= 1 and family.l >= 1:
        da, db = sampled.direction.forms[2:]
        del sampled, cert  # free the samples before the quadrature's own arrays
        i1, i2 = _stokes_integrals(family, da, db, integral_resolution)
        for label, value in (("closed-times-direction", i1), ("direction-times-closed", i2)):
            conclusions.append(
                CheckItem(
                    f"quadrature integral ({label}) vanishes",
                    value < max(tol, 1e-8),
                    defect=value,
                    threshold=max(tol, 1e-8),
                )
            )
    else:
        conclusions.append(
            CheckItem(
                "quadrature integrals vanish",
                None,
                note="skipped (model not closed or type below (1,1))",
            )
        )
    return TheoremVerdict("converse", hypotheses, conclusions)


def stokes_integrals(family: DeformationFamily, resolution=None) -> tuple[float, float]:
    """|∫ alpha0 ∧ (d alpha)^k ∧ beta ∧ (d beta)^l| and
    |∫ alpha ∧ (d alpha)^k ∧ beta0 ∧ (d beta)^l| by tensor quadrature.

    Both integrands are exact forms on closed models (their primitives drop
    one power of d alpha, resp. d beta), so both integrals vanish; this needs
    k >= 1 and l >= 1 and a closed model.
    """
    if not family.model.is_closed:
        raise ValueError("quadrature vanishing checks need a closed model")
    if family.k < 1 or family.l < 1:
        raise ValueError("quadrature vanishing checks need type at least (1,1)")
    return _stokes_integrals(family, family.alpha.d(), family.beta.d(), resolution)


def _stokes_integrals(family: DeformationFamily, da: FormField, db: FormField, resolution):
    da_pow = da.wedge_power(family.k)
    db_pow = db.wedge_power(family.l)
    first = family.alpha0.wedge(da_pow).wedge(family.beta).wedge(db_pow)
    second = family.alpha.wedge(da_pow).wedge(family.beta0).wedge(db_pow)
    return (
        abs(integrate(family.model, first, resolution)),
        abs(integrate(family.model, second, resolution)),
    )


def sweep_rows(family: DeformationFamily, t_grid, points=None, rng=None) -> list[dict]:
    """Per-t sweep of the family: volume coefficient range and Reeb residual.

    Rows are produced for every t, including values where the pair fails to
    be contact (that is what the sweep is for) and values where the samples
    overflow, whose rows then hold non-finite numbers.
    """
    if points is None:
        points = sample_points(family.model, rng)
    sampled = SampledFamily(family, points)
    rows = []
    for t in t_grid:
        t = float(t)
        s = sampled.at(t)
        with np.errstate(over="ignore", invalid="ignore"):
            vol = s.top(family.k, family.l, s.alpha, s.beta)
            _, _, residual, _, _ = _solve_reeb(s.reeb_rows(), False)
        rows.append(
            {
                "t": t,
                "min_volume_coeff": float(np.min(vol)),
                "max_volume_coeff": float(np.max(vol)),
                "max_reeb_residual": float(np.max(residual)),
            }
        )
    return rows
