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

A per-t certificate runs every check of the pair certificate on the
samples at t: the samples and the wedge chains those checks read are formed
a batch of t at a time (``SampledFamily.batches``), and the gates before
the Reeb step run once per batch (``contact._certify``).  Each t's Reeb
pair is one division on the chains its batch already formed, by the
insertion identity (``contact._reeb_pair``), and its residual
max |A E - b|, which checks the identity independently of the formula, is
gated at the certificate's residual threshold.  The "Reeb scaling" and
"t * E constant" items then compare t * E_t with the base pair and with the
first certified t.  The formula divides by the volume coefficient, so the
Reeb column of ``sweep_rows`` grows where that coefficient nears 0 and is
not finite where it is 0.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .contact import (
    CONVERSE_T_GRID,
    CheckItem,
    ContactPairCertificate,
    ContactPairError,
    SampledPair,
    _certificate,
    _certify,
    _gap,
    _gate,
    _live_max,
    _peaks,
    _reeb_pair,
    _reeb_step,
    _require_closed,
    _row_bound,
    _t_batch,
    _troughs,
    passes,
)
from .exterior import _interior, chain, chain_factor, form_count
from .fields import FormField
from .models import _integrals, default_tolerance, sample_points

__all__ = [
    "DeformationFamily",
    "VolumePolynomial",
    "CheckItem",
    "TheoremVerdict",
    "PairSamples",
    "SampledFamily",
    "volume_polynomial",
    "volume_identity_defect",
    "verify_forward",
    "verify_converse",
    "stokes_integrals",
    "sweep_rows",
    "FORWARD_T_GRID",
    "CONVERSE_T_GRID",
]

FORWARD_T_GRID = (-10.0, -1.0, -0.1, -0.01, 0.01, 0.1, 1.0, 10.0)


class DeformationFamily:
    """alpha_t = alpha0 + t*alpha, beta_t = beta0 + t*beta with a declared
    target type (k, l).

    The four 1-forms share one model, of dimension 2k+2l+2; nothing is
    evaluated here.  The theorem's premises, alpha0 and beta0 closed and
    pointwise independent, are decided on the samples of each verdict
    (``SampledFamily``).
    """

    def __init__(self, alpha0: FormField, beta0: FormField, alpha: FormField, beta: FormField, k: int, l: int):
        model = alpha0.model
        for f in (beta0, alpha, beta):
            if f.model is not model:
                raise ValueError("all four forms must live on one model")
        if any(f.degree != 1 for f in (alpha0, beta0, alpha, beta)):
            raise ValueError("deformation data must be 1-forms")
        if model.n != 2 * k + 2 * l + 2:
            raise ValueError(f"type ({k},{l}) needs dimension {2 * k + 2 * l + 2}, model has {model.n}")
        self.model = model
        self.alpha0 = alpha0
        self.beta0 = beta0
        self.alpha = alpha
        self.beta = beta
        self.k = int(k)
        self.l = int(l)

    def at(self, t: float) -> tuple[FormField, FormField]:
        """The pair (alpha_t, beta_t)."""
        t = float(t)
        return self.alpha0 + t * self.alpha, self.beta0 + t * self.beta

    def __repr__(self):
        return f"<DeformationFamily type=({self.k},{self.l}) on {self.model!r}>"


@dataclass
class VolumePolynomial:
    """Pointwise coefficients of the volume polynomial t^{k+l}(Q t^2 + L t + C)
    in units of Omega = e^0 ∧ .. ∧ e^{n-1} (``fields.volume_form``)."""

    quad: np.ndarray
    lin: np.ndarray
    const: np.ndarray

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
    point set, where the family's premises are decided at tol: alpha0 and
    beta0 closed (max |d alpha0| at most tol * max |alpha0|, the same for
    beta0) and pointwise independent (min |alpha0 ∧ beta0| above tol times
    the product of their scales), each decided by ``contact.passes``, or a
    ValueError naming the forms.

    Every sampled quantity of (alpha_t, beta_t) is affine in t, so ``at(t)``
    forms its arrays without building or evaluating expressions, and
    ``batches`` forms those of many t at once.  The d alpha0 and d beta0
    terms are kept: alpha0 and beta0 are closed only to within the
    tolerance.
    """

    def __init__(self, family: DeformationFamily, points, tol: float):
        self.model = family.model
        self.k, self.l = family.k, family.l
        self.direction = SampledPair.of(family.alpha, family.beta, points)
        self.points = pts = self.direction.points
        self.closed = c = SampledPair.of(family.alpha0, family.beta0, pts)
        scale_a, scale_b, scale_da, scale_db = c.scales()
        _require_closed("alpha0", scale_a, scale_da, tol)
        _require_closed("beta0", scale_b, scale_db, tol)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite wedge fails the premise
            _, wedge, (live, _) = chain_factor(c.n, *c.factors()[:2])
        indep, idx, _ = _troughs(_live_max(wedge, live, ()))[0]
        if not passes(indep, tol * float(scale_a) * float(scale_b), lower=True):
            raise ValueError(f"alpha0 and beta0 are linearly dependent at sample point {pts[idx].tolist()}")
        self._plans, self._buffers = {}, {}

    def at(self, t) -> SampledPair:
        """The samples of (alpha_t, beta_t); entries may overflow for huge t.
        An array t of shape (T, 1, 1) gives the samples at T values of t,
        with a leading t axis.

        Each array is formed as component-major rows (U, T, P) (or (U, P))
        of the union U of the components live in the closed or the
        direction pair, row by row t * direction + closed from the pairs'
        own rows (``_plan``), in a buffer from ``np.empty`` of which every
        row is written; every other component is +0.0, since t * (+0) +
        (+0) is +0 for every finite t.  A t that is not finite makes every
        component live (0 * inf is NaN), by a plan formed at the first such
        t.  A buffer is allocated once per plan and shape and formed again
        by the next call, unless an array still refers to it: samples a
        caller holds keep their bytes, and every bit is that of forming t
        alone in a fresh buffer.
        """
        t = np.asarray(t, dtype=float)
        batch = t.shape[:1]  # (T,) for a t axis
        factor = t[:, :, 0] if batch else t
        finite = bool(np.isfinite(t).all())
        if finite not in self._plans:
            self._plans[finite] = _plan(self.closed, self.direction, finite)
        buffers = self._buffers.setdefault((finite, batch), [None] * 4)
        live = []
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (comps, terms) in enumerate(self._plans[finite]):
                if buffers[j] is None or sys.getrefcount(buffers[j]) > 2:  # the list's and the argument's
                    buffers[j] = np.empty((len(comps), *batch, len(self.points)))
                for row, (closed, direction) in zip(buffers[j], terms):
                    np.multiply(factor, direction, out=row)
                    row += closed
                live.append((comps, _row_bound(buffers[j])))
        return SampledPair(self.points, self.model.n, buffers, tuple(live))

    def batches(self, t_values, arrays_of=None):
        """Yield (t, samples, arrays) for each batch of
        ``contact._t_batch(points)`` values of t_values, one value too, in
        order: the batch's values of t, the samples of (alpha_t, beta_t) at
        them, formed by one ``at`` over a t axis of shape (T, 1, 1), and the
        arrays that ``arrays_of`` computes from those samples in one kernel
        pass (their ``certificate_arrays(k, l)`` by default), each with the
        leading t axis.  Slice i of both is bit for bit ``at(t[i])`` and its
        arrays: every bit is that of certifying t alone.  Nothing is kept
        once yielded, so a caller that drops a batch and its arrays (whose
        chains may be views of the samples) before asking for the next
        holds one batch, of at most max(points, ``_BLOCK``) points, and the
        next is formed in its buffers; one that is held keeps them (``at``).
        """
        step = _t_batch(len(self.points))
        for lo in range(0, len(t_values), step):
            t = t_values[lo : lo + step]
            batch = self.at(np.array(t, dtype=float)[:, None, None])
            pending = [(t, batch, batch.certificate_arrays(self.k, self.l) if arrays_of is None else arrays_of(batch))]
            del batch  # held by the caller alone
            yield pending.pop()

    def volume_polynomial(self) -> VolumePolynomial:
        s, c, k, l = self.direction, self.closed, self.k, self.l
        first, second = _lin_terms(s, c, k, l)
        return VolumePolynomial(s.top(k, l, *s.factors()[:2]), first + second, s.top(k, l, *c.factors()[:2]))


def _lin_terms(direction: SampledPair, closed: SampledPair, k: int, l: int) -> tuple:
    """The two terms alpha0 ∧ (d alpha)^k ∧ beta ∧ (d beta)^l and alpha ∧
    (d alpha)^k ∧ beta0 ∧ (d beta)^l of the volume polynomial's L per point,
    from the samples of (alpha, beta) and (alpha0, beta0)."""
    (ca, cb, _, _), (sa, sb, _, _) = closed.factors(), direction.factors()
    return direction.top(k, l, ca, sb), direction.top(k, l, sa, cb)


def _plan(closed: SampledPair, direction: SampledPair, finite: bool) -> tuple:
    """Per array of alpha, beta, d alpha and d beta, what ``SampledFamily.at``
    forms for a finite t or for any t: its live components U (the union of
    the live sets of the two pairs, or all of them) and, per component of
    U, the rows of the closed and of the direction pair that hold it, or
    +0.0 for a pair whose live set misses it; nothing is copied."""
    plan = []
    for j, count in enumerate((closed.n, closed.n, *[form_count(closed.n, 2)] * 2)):
        comps = tuple(sorted({*closed.live[j][0], *direction.live[j][0]})) if finite else tuple(range(count))
        rows = [dict(zip(p.live[j][0], p.rows[j])) for p in (closed, direction)]
        plan.append((comps, [(rows[0].get(c, 0.0), rows[1].get(c, 0.0)) for c in comps]))
    return tuple(plan)


def volume_polynomial(family: DeformationFamily, points=None) -> VolumePolynomial:
    """Sample the three coefficient functions of the volume polynomial."""
    if points is None:
        points = sample_points(family.model)
    return SampledFamily(family, points, default_tolerance(family.model)).volume_polynomial()


def volume_identity_defect(family: DeformationFamily, t_values, points=None) -> float:
    """Max relative defect between the expanded family volume form and
    t^{k+l}(Q t^2 + L t + C) * Omega over the t sample set, whose samples
    are formed and wedged a batch of t at a time
    (``SampledFamily.batches``).  A t at which either side overflows makes
    the defect non-finite (inf or NaN): an overflow shows nothing about
    the identity."""
    if points is None:
        points = sample_points(family.model)
    sampled = SampledFamily(family, points, default_tolerance(family.model))
    vp = sampled.volume_polynomial()
    k, l = family.k, family.l
    worst, scale = 0.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t, batch, (lhs,) in sampled.batches(t_values, lambda b: (b.top(k, l, *b.factors()[:2]),)):
            del batch  # so that the next batch is formed in its buffers
            t = np.array(t, dtype=float)[:, None]
            rhs = t ** (k + l) * (t**2 * vp.quad + t * vp.lin + vp.const)
            # np.maximum, unlike max, keeps a NaN
            worst = np.maximum(worst, np.max(np.abs(lhs - rhs)))
            scale = np.maximum(scale, np.max(np.abs(lhs)))
    return float(worst / scale)


class PairSamples:
    """The certificate's samples and Reeb pair, for repeated pointwise wedge
    identities."""

    def __init__(self, cert: ContactPairCertificate):
        s = self.sampled = cert.sampled
        self.pts = s.points
        self.k, self.l = cert.k, cert.l
        self.ea, self.eb = cert.reeb_alpha_values, cert.reeb_beta_values
        self.volume = s.top(self.k, self.l, *s.factors()[:2])

    def _omega_values(self, omega) -> np.ndarray:
        if isinstance(omega, FormField):
            return np.ascontiguousarray(omega.values(self.pts))  # an einsum operand
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
        lhs1 = s.top(k, l, (1, w), s.factors()[1])
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
        acc = s.top(self.k, self.l, (1, w), (1, wb))
        scale = max(1.0, float(np.max(np.abs(w))), float(np.max(np.abs(wb))))
        return float(np.max(np.abs(acc))) / scale


@dataclass
class TheoremVerdict:
    """Hypotheses and conclusions of one theorem direction.

    A failed hypothesis makes the verdict "not applicable", never
    "falsified"; "falsified" needs all hypotheses to pass while some
    conclusion fails.  A conclusion that was not evaluated (passed None,
    such as the quadrature integrals below type (1,1)) fails nothing.
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
        if any(item.passed is False for item in self.conclusions):
            return "falsified"
        return "pass"

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "overall": self.overall,
            "hypotheses": [i.to_dict() for i in self.hypotheses],
            "conclusions": [i.to_dict() for i in self.conclusions],
        }


def _cert_item(name: str, make_cert) -> tuple[CheckItem, ContactPairCertificate | None]:
    """On a pass, the Reeb residual and the threshold it was gated at; on a
    failure, the defect, threshold and witness of the failed gate."""
    try:
        cert = make_cert()
        defect, threshold, witness, note = cert.reeb_residual, cert.residual_threshold, None, ""
    except ContactPairError as err:
        # the frames of its traceback hold the samples, and a caller's may
        # hold err itself, which makes a cycle that would keep them
        err.__traceback__ = None
        cert, defect, threshold = None, err.defect, err.threshold
        witness, note = {"condition": err.condition, **err.witness}, str(err)
    return CheckItem(name, cert is not None, defect, threshold, witness, note), cert


def _base_item(sampled: SampledFamily, tol):
    s = sampled.direction
    return _cert_item(
        "(alpha,beta) is a contact pair", lambda: _certificate(s, sampled.k, sampled.l, tol, False)
    )


def _gated(sampled: SampledFamily, t_grid, tol):
    """Yield (samples, gate outcome, Reeb pair) for each t of t_grid, in
    order: the gates of the pair certificate run once per batch of
    ``sampled.batches``, on its arrays (``contact._certify``), and the
    batch's Reeb pairs are one division on its chains, their residuals one
    pass and one reduction (``contact._reeb_pair``, ``_peaks``); the arrays
    are dropped then.  Each t's samples and compact Reeb pair are slices
    of its batch's, so the batch is released once the caller drops those
    of its last t."""
    for _, batch, (arrays, chains) in sampled.batches(t_grid):
        outcomes = _certify(batch, sampled.k, sampled.l, tol, arrays)
        ea, eb, residual = _reeb_pair(batch, chains)
        peaks = _peaks(residual)
        pending = [(batch.t_slice(i), gated, (ea.t_slice(i), eb.t_slice(i), peaks[i]))
                   for i, gated in enumerate(outcomes)]
        del batch, arrays, chains, outcomes, ea, eb, residual
        while pending:
            yield pending.pop(0)


def _item_at(s: SampledPair, gated, reeb, t: float):
    """Complete the certificate of (alpha_t, beta_t) on its samples s from
    its gate outcome and Reeb pair (``_gated``).  Returns the item and the
    compact (E_alpha, E_beta) of the certificate (None on failure); the
    samples are dropped here.  A non-finite failure names t as witness."""
    item, cert = _cert_item(f"(alpha_t,beta_t) is a contact pair at t={t:g}", lambda: _reeb_step(s, gated, reeb))
    if cert is None:
        if item.witness["condition"] == "non-finite":
            item.witness["t"] = t
        return item, None
    return item, cert.reeb_fields


def _pairing_items(closed: SampledPair, cert, tol) -> list[CheckItem]:
    """The four compatibility gates w(E) = 0, w = alpha0, beta0 and E =
    E_alpha, E_beta, at tol * max(1, max |w| max |E|), each witnessed at the
    first sample of its largest |w(E)|.  w(E) is the contraction i_E w
    (``exterior._interior``) of the base certificate's compact Reeb rows
    (``_Field``) and the closed pair's rows, with their live sets: sum_i w_i
    E^i, its terms added in component order from +0.0, one whose column is
    all ±0 against a finite partner left out (it adds ±0: no bit changes)."""
    names = [(f"{w}0(E_{e})", i, j) for i, w in enumerate(("alpha", "beta")) for j, e in enumerate(("alpha", "beta"))]
    if cert is None:
        return [CheckItem(f"compatibility {n}=0", None, note="not evaluated (no base certificate)") for n, _, _ in names]
    fields, factors, items = cert.reeb_fields, closed.factors(), []
    bounds = [x.max_abs() for x in fields]
    for label, form, j in names:
        (x, bound), (_, w, live) = (fields[j], bounds[j]), factors[form]
        pairing, outputs = _interior(closed.n, 1, x.rows.T, w, (x.live, bound), live)
        defect, idx = _peaks(np.abs(pairing[:, 0]) if outputs else np.zeros(len(closed.points)))[0]
        scale = max(1.0, live[1] * bound)
        witness = {"point": closed.points[idx].tolist(), "value": defect}
        items.append(_gate(f"compatibility {label}=0", defect, tol * scale, witness))
    return items


def verify_forward(
    family: DeformationFamily,
    t_grid=None,
    tol: float | None = None,
    points=None,
) -> TheoremVerdict:
    """Forward direction: a compatible contact pair of deformation directions
    makes every (alpha_t, beta_t), t != 0, a contact pair of the same type
    with Reeb pair (E_alpha/t, E_beta/t).  The grid's t = 0 are dropped, and
    some t must be left."""
    model = family.model
    if tol is None:
        tol = default_tolerance(model)
    t_grid = [float(t) for t in (FORWARD_T_GRID if t_grid is None else t_grid) if float(t) != 0.0]
    if not t_grid:
        raise ValueError("forward t grid has no t != 0")
    if points is None:
        points = sample_points(model)
    sampled = SampledFamily(family, points, tol)
    pts = sampled.points

    base_item, cert = _base_item(sampled, tol)
    hypotheses = [base_item] + _pairing_items(sampled.closed, cert, tol)
    if cert is not None:
        ea, eb = cert.reeb_fields
        scale = max(1.0, ea.max_abs(), eb.max_abs())

    samples = _gated(sampled, t_grid, tol)  # each t's samples go straight to _item_at
    conclusions = []
    for t in t_grid:
        item_t, reeb_t = _item_at(*next(samples), t)
        conclusions.append(item_t)
        if reeb_t is None or cert is None:
            conclusions.append(
                CheckItem(f"Reeb scaling at t={t:g}", None, note="not evaluated (no certificate)")
            )
            continue
        defect, idx = _peaks(np.maximum(_gap(reeb_t[0].scaled(t), ea), _gap(reeb_t[1].scaled(t), eb)))[0]
        conclusions.append(
            _gate(f"Reeb scaling at t={t:g}", defect, tol * scale, {"t": t, "point": pts[idx].tolist()})
        )
    return TheoremVerdict("forward", hypotheses, conclusions)


def verify_converse(
    family: DeformationFamily,
    t_grid=None,
    tol: float | None = None,
    points=None,
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
        tol = default_tolerance(model)
    t_grid = [float(t) for t in (CONVERSE_T_GRID if t_grid is None else t_grid)]
    if not t_grid:
        raise ValueError("converse t grid is empty")
    if any(t <= 0 for t in t_grid):
        raise ValueError("converse t grid must be strictly positive")
    if points is None:
        points = sample_points(model)
    sampled = SampledFamily(family, points, tol)

    # the first certified t gives (X, Y) = t * (E_{alpha_t}, E_{beta_t}),
    # which every later t is compared with
    hypotheses, drift, x_vals = [], [], None
    samples = _gated(sampled, t_grid, tol)  # each t's samples go straight to _item_at
    for t in t_grid:
        item_t, reeb_t = _item_at(*next(samples), t)
        hypotheses.append(item_t)
        if reeb_t is None:
            continue
        ea, eb = reeb_t[0].scaled(t), reeb_t[1].scaled(t)
        if x_vals is None:
            x_vals, y_vals = ea, eb
        else:
            drift.append(max(float(np.max(_gap(ea, x_vals))), float(np.max(_gap(eb, y_vals)))))

    constant = "t * E_{alpha_t}, t * E_{beta_t} constant across t"
    if all(item.passed for item in hypotheses):
        scale = max(1.0, x_vals.max_abs(), y_vals.max_abs())
        hypotheses.append(_gate(constant, max(drift, default=0.0), tol * scale))
    else:
        hypotheses.append(
            CheckItem(constant, None, note="not evaluated (some t failed the contact-pair hypothesis)")
        )
        x_vals = y_vals = None

    conclusions = []
    base_item, cert = _base_item(sampled, tol)
    conclusions.append(base_item)
    if cert is not None and x_vals is not None:
        ea, eb = cert.reeb_fields
        defect = max(float(np.max(_gap(ea, x_vals))), float(np.max(_gap(eb, y_vals))))
        scale = max(1.0, x_vals.max_abs(), y_vals.max_abs())
        conclusions.append(_gate("(E_alpha,E_beta) = (X,Y)", defect, tol * scale))
    else:
        conclusions.append(CheckItem("(E_alpha,E_beta) = (X,Y)", None, note="not evaluated"))
    conclusions.extend(_pairing_items(sampled.closed, cert, tol))

    vp = sampled.volume_polynomial()
    conclusions.append(_gate("constant volume coefficient vanishes pointwise", vp.max_abs_const, tol))
    conclusions.append(_gate("linear volume coefficient vanishes pointwise", float(np.max(np.abs(vp.lin))), tol))
    if model.is_closed and family.k >= 1 and family.l >= 1:
        del sampled, cert  # free the samples before the quadrature's own arrays
        i1, i2 = stokes_integrals(family)
        for label, value in (("closed-times-direction", i1), ("direction-times-closed", i2)):
            conclusions.append(_gate(f"quadrature integral ({label}) vanishes", value, max(tol, 1e-8)))
    else:
        conclusions.append(
            CheckItem(
                "quadrature integrals vanish",
                None,
                note="skipped (model not closed or type below (1,1))",
            )
        )
    return TheoremVerdict("converse", hypotheses, conclusions)


def stokes_integrals(family: DeformationFamily) -> tuple[float, float]:
    """|∫ alpha0 ∧ (d alpha)^k ∧ beta ∧ (d beta)^l| and
    |∫ alpha ∧ (d alpha)^k ∧ beta0 ∧ (d beta)^l| by tensor quadrature.

    Both integrands are exact forms on closed models (their primitives drop
    one power of d alpha, resp. d beta), so both integrals vanish; this needs
    k >= 1 and l >= 1 and a closed model.  They are the L terms of
    ``_lin_terms`` on the nodes ``models._integrals`` keeps; the premises
    are decided by a verdict on its own samples, not here.
    """
    if not family.model.is_closed:
        raise ValueError("quadrature vanishing checks need a closed model")
    if family.k < 1 or family.l < 1:
        raise ValueError("quadrature vanishing checks need type at least (1,1)")
    f = family

    def terms(pts):
        return _lin_terms(SampledPair.of(f.alpha, f.beta, pts), SampledPair.of(f.alpha0, f.beta0, pts), f.k, f.l)

    first, second = _integrals(f.model, (f.alpha0, f.beta0, f.alpha, f.beta), terms)
    return abs(first), abs(second)


def sweep_rows(family: DeformationFamily, t_grid, points=None, tol: float | None = None) -> list[dict]:
    """Per-t sweep of the family: volume coefficient range and Reeb residual.

    Rows are produced for every t, including values where the pair fails to
    be contact (that is what the sweep is for) and values where the samples
    overflow, whose rows then hold non-finite numbers.  The family's
    premises are decided at tol (the model's default tolerance by default).

    The grid is read in the batches of ``SampledFamily.batches``: a batch's
    wedge chains are one kernel pass, and its Reeb pairs, by the insertion
    identity, one division on them (``contact._reeb_pair``).  The Reeb
    column is the largest residual max |A E - b| of that pair: it grows
    where the volume coefficient nears 0, and is not finite where it is 0.
    """
    if tol is None:
        tol = default_tolerance(family.model)
    if points is None:
        points = sample_points(family.model)
    sampled = SampledFamily(family, points, tol)
    t_grid = [float(t) for t in t_grid]
    k, l = family.k, family.l
    def columns(batch):
        chains = batch.chains(k, l)
        return chains.volume, _reeb_pair(batch, chains)[2]

    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t, batch, (vol, residual) in sampled.batches(t_grid, columns):
            del batch  # so that the next batch is formed in its buffers
            rows += [
                {"t": t_i, "min_volume_coeff": low, "max_volume_coeff": high, "max_reeb_residual": top}
                for t_i, low, high, top in zip(
                    t, vol.min(axis=-1).tolist(), vol.max(axis=-1).tolist(), residual.max(axis=-1).tolist(),
                )
            ]
    return rows
