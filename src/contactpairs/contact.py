"""Cartan class, contact-pair certification, and Reeb vector fields.

A pair (alpha, beta) of 1-forms is a contact pair of type (k, l) on a
2k+2l+2-dimensional model when alpha ∧ (d alpha)^k ∧ beta ∧ (d beta)^l is a
volume form, (d alpha)^{k+1} = 0, and (d beta)^{l+1} = 0.  The associated
Reeb pair (E_alpha, E_beta) is the unique solution of

    alpha(E_alpha) = 1,  beta(E_alpha) = 0,  i_{E_alpha} d alpha = i_{E_alpha} d beta = 0,

and symmetrically for E_beta.  It is computed, not solved for, by the
insertion identity: with vol = alpha ∧ (d alpha)^k ∧ beta ∧ (d beta)^l =
v dx^0 ∧ .. ∧ dx^{n-1},

    i_{E_alpha} vol = (d alpha)^k ∧ beta ∧ (d beta)^l,
    i_{E_beta} vol = -alpha ∧ (d alpha)^k ∧ (d beta)^l,

and a field X with i_X vol = c has X^i = (-1)^i c_î / v, c_î being the
coefficient of c on dx^0 ∧ .. ∧ \\hat{dx^i} ∧ .. ∧ dx^{n-1} (``_vol_dual``).
Both numerators and v are wedge chains the certificate forms anyway
(``SampledPair.chains``).  The residual gate max |A E - b| of the defining
relations then checks the identity independently; a single contact form's
Reeb field is the case c = (d alpha)^k, v = alpha ∧ (d alpha)^k.  All
pointwise checks run over a sample set and use relative thresholds, tol *
(norm_inf scale of the wedge factors), so t-scaled families certify at any
t; one rule (``passes``) decides every such check in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import expressions as ex
from .exterior import _columns, _interior, _per_block, _reaches, _scatter, chain_factor
from .fields import FormField, form_from_expressions, pullback_form
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
    "darboux_model",
    "torus_contact",
    "product_contact_pair",
    "verify_single_deformation",
]


# a failure within this factor of its threshold is numerically inconclusive
MARGINAL_FACTOR = 10.0

# the positive t grid of the converse, of the single-form criterion and of a
# sweep, by default
CONVERSE_T_GRID = (0.01, 0.1, 1.0, 10.0)


def marginal(defect: float | None, threshold: float | None) -> bool:
    """Whether a failed bound is numerically inconclusive: its defect and the
    threshold it applied are both given and within ``MARGINAL_FACTOR`` of
    each other, for an upper bound (defect above) and a lower bound (defect
    below) alike.  A NaN is never marginal."""
    if defect is None or threshold is None:
        return False
    return bool(defect < MARGINAL_FACTOR * threshold and threshold < MARGINAL_FACTOR * defect)


def passes(defect, threshold, *, lower: bool):
    """The pass/fail rule of every gate, elementwise: an upper bound passes
    iff defect <= threshold (zero data passes at zero scale), a lower bound
    iff defect > threshold; a NaN fails both.  An infinite threshold passes
    every finite defect of an upper bound and fails every lower bound."""
    return defect > threshold if lower else defect <= threshold


class ContactPairError(ValueError):
    """A contact condition failed; carries the condition name, a witness and,
    from a bound's gate, the defect and the threshold that gate applied."""

    def __init__(
        self,
        condition: str,
        message: str,
        witness: dict | None = None,
        defect: float | None = None,
        threshold: float | None = None,
    ):
        super().__init__(message)
        self.condition = condition
        self.witness = witness or {}
        self.defect = defect
        self.threshold = threshold


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


def _gate(name: str, defect: float, threshold: float, witness: dict | None = None) -> CheckItem:
    """The verdict item of an upper bound, decided by ``passes``; the
    witness is kept only on failure."""
    passed = bool(passes(defect, threshold, lower=False))
    return CheckItem(name, passed, defect=defect, threshold=threshold, witness=None if passed else witness)


def _witness(points: np.ndarray, index: int, **extra) -> dict:
    return {"point": [float(v) for v in points[index]], "index": int(index), **extra}


@dataclass
class ClassReport:
    """Result of a Cartan class computation over a sample set."""

    k: int | None
    min_nonvanishing: float
    max_residual: float
    constant: bool
    tol: float
    witnesses: dict = field(default_factory=dict)


def _span(live: tuple) -> slice:
    """The components from the first to the last of live."""
    return slice(live[0], live[-1] + 1) if live else slice(0, 0)


def _live_max(values: np.ndarray, live: tuple, axis: tuple | None = None) -> np.ndarray:
    """max |x| of a (..., C) sample array over its live components and over
    the leading axes in ``axis`` (all of them by default; ``()`` gives the
    row maxima), 0 where no component is live.

    Every component outside live is ±0, so this is the maximum over all
    components.  It reads the span of live (``_span``), or all of a
    compact array (``exterior.chain_factor``), a contiguous part of a
    component-major buffer; a transpose, not ``np.moveaxis``, puts the
    components first, since the latter costs several times as much on
    one-point samples.  Exact in any order, and NaN propagates.
    """
    rows = values.transpose((-1, *range(values.ndim - 1)))[_span(live) if values.shape[-1] > len(live) else ...]
    return np.abs(rows).max(axis=None if axis is None else (0, *(a + 1 for a in axis)), initial=0.0)


def _components_last(rows: np.ndarray) -> np.ndarray:
    """The (..., C) view of component-major rows (C, ...)."""
    return rows.transpose((*range(1, rows.ndim), 0))


def _row_bound(rows: np.ndarray) -> np.ndarray:
    """max |x| of component-major rows per leading index of the samples
    (0 where there is no row); exact, and NaN propagates."""
    return np.abs(rows).max(axis=(0, -1), initial=0.0)


def cartan_class(alpha: FormField, tol: float | None = None, points=None) -> ClassReport:
    """Largest k with alpha ∧ (d alpha)^k nonvanishing and (d alpha)^{k+1} = 0,
    required to be the same k at every sample point."""
    if alpha.degree != 1:
        raise ValueError("cartan_class expects a 1-form")
    model = alpha.model
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model)
    pts = np.asarray(points, dtype=float)
    if model.n >= 2:
        dalpha = alpha.d()
        dav, live_da = dalpha.values(pts), dalpha.live
    else:
        dav, live_da = np.zeros((pts.shape[0], 0)), ()
    return _class_report(alpha.values(pts), dav, pts, tol, alpha.live, live_da)


def _class_report(av: np.ndarray, dav: np.ndarray, pts: np.ndarray, tol: float, live_a, live_da) -> ClassReport:
    """Cartan class from the sampled values of alpha and d alpha, whose
    components outside live_a and live_da are +0.0 (``FormField.live``).

    A wedge chain that is not finite at some sample fails as "non-finite"
    with the first such point: no class can be read off an overflow.
    """
    n = av.shape[1]
    scale_a = float(_live_max(av, live_a))
    scale_da = _live_max(dav, live_da)  # np.float64: its powers overflow to inf, not to an OverflowError

    alpha_rows = _live_max(av, live_a, ())
    _bound("nonvanishing", "form vanishes at a sample point", _troughs(alpha_rows)[0], tol * scale_a, pts, lower=True)

    k_max = (n - 1) // 2
    alpha, dalpha = (1, av, (live_a, scale_a)), (2, dav, (live_da, scale_da))
    # (d alpha)^j for j = 0 .. k_max + 1, as far as the degree allows
    powers = [(0, np.ones((pts.shape[0], 1)), ((0,), 1.0))]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite chains are caught below
        for j in range(1, min(k_max + 1, n // 2) + 1):
            powers.append(chain_factor(n, powers[-1], dalpha))
        nonvanish = [_live_max(v, live, ()) for _, v, (live, _) in
                     (chain_factor(n, alpha, powers[k]) for k in range(k_max + 1))]
        power_norm = [_live_max(v, live, ()) for _, v, (live, _) in powers]
    norms = nonvanish + power_norm
    if not all(np.isfinite(np.max(v)) for v in norms):  # the max of norms is NaN or inf if any is
        finite = np.isfinite(norms).all(axis=0)
        raise ContactPairError(
            "non-finite", "a wedge chain is not finite at a sample point",
            _witness(pts, int(np.argmin(finite))),
        )

    pointwise = np.full(pts.shape[0], -1, dtype=int)
    with np.errstate(over="ignore"):
        for k in range(k_max + 1):
            ok_nv = passes(nonvanish[k], tol * scale_a * scale_da**k, lower=True)
            # past the degree, (d alpha)^{k+1} is 0
            ok_z = passes(power_norm[k + 1], tol * scale_da ** (k + 1), lower=False) if k + 1 < len(power_norm) else True
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
    max_res = float(np.max(power_norm[k + 1])) if k + 1 < len(power_norm) else 0.0
    return ClassReport(k, float(np.min(nonvanish[k])), max_res, True, tol)


class SampledPair:
    """alpha, beta, d alpha and d beta evaluated once on a point set, each
    held as component-major rows of its live components alone, as
    ``_Field`` holds a vector field.

    ``rows`` holds the four arrays in that order: row j of one is its
    component live[j] with the samples' leading axes, every other component
    being +0.0.  ``live`` holds, for each, (live components, bound), bound
    being max |x| over them per leading index, the array's ``scales`` entry.
    Every reader takes the rows as they are, most as compact chain factors
    (``factors``): the wedge chains, row maxima and the Reeb pair, the
    relation rows of a Jacobi side and ``deformation.PairSamples``.

    ``forms`` holds the four fields the rows were evaluated from, which the
    exact Reeb commutator and the Jacobi jets differentiate (``partials``);
    it is None for rows formed otherwise, such as the samples of a family
    at one t.  The rows may carry leading axes before the points axis, such
    as the t axis of a family's samples at a batch of t; ``scales``, ``top``
    and ``certificate_arrays`` broadcast over them.  The pair keeps nothing
    it computes from them but its forms' partials.
    """

    def __init__(self, points, n, rows, live, forms=None):
        self.points = points
        self.n = n
        self.rows = tuple(rows)
        self.live = live
        self.forms = forms
        self._partials = None

    @classmethod
    def of(cls, alpha: FormField, beta: FormField, points) -> "SampledPair":
        """Evaluate the live coefficients (``FormField.live``) of two 1-form
        fields and their derivatives, each coefficient and call node of one
        structure once (``ex.Known``)."""
        pts = np.asarray(points, dtype=float)
        forms, known = (alpha, beta, alpha.d(), beta.d()), ex.Known()
        rows = [f.live_rows(pts, known) for f in forms]
        return cls(pts, alpha.model.n, rows, tuple((f.live, _row_bound(r)) for f, r in zip(forms, rows)), forms)

    def scales(self) -> tuple:
        """Largest absolute entries of alpha, beta, d alpha and d beta."""
        return tuple(bound for _, bound in self.live)

    def factors(self) -> tuple:
        """alpha, beta, d alpha and d beta as compact
        ``exterior.chain_factor`` factors (degree, values, live), each live
        set with one bound over all leading indices."""
        return tuple(
            (degree, _components_last(rows), (comps, float(bound if bound.ndim == 0 else bound.max())))
            for degree, rows, (comps, bound) in zip((1, 1, 2, 2), self.rows, self.live)
        )

    def partials(self) -> dict:
        """The exact partials of ``forms`` (``_partials``), evaluated on
        first use and kept."""
        if self._partials is None:
            self._partials = _partials(self.forms, self.rows, self.points, None)
        return self._partials

    def t_slice(self, i: int) -> "SampledPair":
        """The pair at index i of a leading t axis."""
        return SampledPair(self.points, self.n, (r[:, i] for r in self.rows),
                           tuple((comps, bound[i]) for comps, bound in self.live))

    def chains(self, k: int, l: int) -> "_Chains":
        """The wedge chains of a certificate of type (k, l) (``_Chains``),
        with the leading axes of the samples; entries may overflow."""
        n = self.n
        alpha, beta, dalpha, dbeta = self.factors()
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite certificate fails
            pa, pb = _wedge(n, *[dalpha] * k), _wedge(n, *[dbeta] * l)
            m = _wedge(n, pa, pb)
            na = _wedge(n, m, beta)
            return _Chains(pa, pb, m, na, _wedge(n, alpha, m), _top(_wedge(n, alpha, na)))

    def certificate_arrays(self, k: int, l: int) -> tuple:
        """(arrays, chains): the sample arrays that a certificate of type
        (k, l) decides on, and the ``chains`` they were read from.  The
        arrays are the four ``scales``, the row norms of alpha, beta, (d
        alpha)^{k+1} and (d beta)^{l+1}, and the volume coefficient, in
        that order, each with the leading axes of the samples; entries may
        overflow.  Each row norm reads the live components alone."""
        ch = self.chains(k, l)
        n, (alpha, beta, dalpha, dbeta) = self.n, self.factors()
        with np.errstate(over="ignore", invalid="ignore"):
            powers = (_wedge(n, ch.pa, dalpha), _wedge(n, ch.pb, dbeta))  # (d alpha)^{k+1}, (d beta)^{l+1}
            rows = [_live_max(values, live, ()) for _, values, (live, _) in (alpha, beta, *powers)]
        return (*self.scales(), *rows, ch.volume), ch

    def top(self, k: int, l: int, w: tuple, v: tuple) -> np.ndarray:
        """Top coefficient of w ∧ (d alpha)^k ∧ v ∧ (d beta)^l per point, for
        1-form factors w and v given as (1, values) or (1, values, live)
        (``exterior.chain_factor``; ``factors`` gives those of the pair)."""
        _, _, dalpha, dbeta = self.factors()
        return _top(chain_factor(self.n, w, *[dalpha] * k, v, *[dbeta] * l))


class _Chains(NamedTuple):
    """The wedge chains of a pair of type (k, l), as ``exterior.chain_factor``
    outputs (degree, values, live), with None for the unit 1.

    ``pa`` and ``pb`` are (d alpha)^k and (d beta)^l, which give M =
    (d alpha)^k ∧ (d beta)^l and, with one more factor, the power checks.
    By the insertion identity i_{E_alpha} vol = N_alpha and i_{E_beta} vol =
    -N_beta, where

        N_alpha = M ∧ beta = (d alpha)^k ∧ beta ∧ (d beta)^l,
        N_beta = alpha ∧ M = alpha ∧ (d alpha)^k ∧ (d beta)^l,

    and ``volume`` is the coefficient v of vol = alpha ∧ N_alpha.
    """

    pa: tuple | None
    pb: tuple | None
    m: tuple | None
    na: tuple
    nb: tuple
    volume: np.ndarray


def _wedge(n: int, *factors):
    """``exterior.chain_factor`` of the factors that are not None (the unit
    1); None when every factor is."""
    factors = [f for f in factors if f is not None]
    return chain_factor(n, *factors) if factors else None


def _top(factor) -> np.ndarray:
    """The coefficient of a top-degree chain factor per point."""
    return _scatter(factor[1], factor[2] and factor[2][0], 1)[..., 0]


def _vol_dual(volume: np.ndarray, c) -> np.ndarray:
    """The field X with i_X vol = c, for vol = volume * dx^0 ∧ .. ∧ dx^{n-1}
    and an (n-1)-form c: X^i = (-1)^i c_î / volume, where c_î, the
    coefficient on dx^0 ∧ .. ∧ \\hat{dx^i} ∧ .. ∧ dx^{n-1}, sits at position
    n-1-i.  c is a coefficient array or a chain factor, maybe compact
    (``exterior.chain_factor``).  Leading axes broadcast; X is the compact
    vol-dual on every component (``_compact_dual``) made C-ordered, and not
    finite where the volume vanishes."""
    return np.ascontiguousarray(_components_last(_compact_dual(volume, c, True).rows))


def _numerators(c) -> tuple:
    """(n, leading shape, {i: c_î}) of the (n-1)-form c of ``_vol_dual``,
    c_î over the components c holds, each a row of its buffer."""
    degree, values, *live = c if isinstance(c, tuple) else (c.shape[-1] - 1, c)
    held = _columns(values, live and live[0], degree + 1)
    rows = values.transpose((-1, *range(values.ndim - 1)))
    return degree + 1, values.shape[:-1], dict(zip((degree - p for p in held), rows))


def _dual_rows(volume: np.ndarray, numerators: dict, comps, rows) -> None:
    """The one vol-dual division: row j of rows gets X^i = (-1)^i c_î /
    volume for i = comps[j], c_î the row ``numerators`` holds for i or
    +0.0.  An odd row is negated out of place: numpy 2.4's in-place
    ``np.negative`` is wrong on a view whose stride is 8 elements."""
    for i, row in zip(comps, rows):
        if i % 2:
            np.negative(np.divide(numerators.get(i, 0.0), volume), out=row)
        else:
            np.divide(numerators.get(i, 0.0), volume, out=row)


def _compact_dual(volume: np.ndarray, c, every: bool = False) -> "_Field":
    """The vol-dual ♯c / volume (``_vol_dual``) as a compact ``_Field``,
    live where c holds its numerator c_î (+0.0 / volume is ±0 elsewhere),
    or on every component; one contiguous division per row."""
    n, lead, numerators = _numerators(c)
    live = tuple(range(n)) if every else tuple(sorted(numerators))
    rows = np.empty((len(live), *np.broadcast_shapes(volume.shape, lead)))
    _dual_rows(volume, numerators, live, rows)
    return _Field(n, live, rows, volume)


class _Field(NamedTuple):
    """A vector field X as component-major rows of its live components,
    ``rows[j]`` = X^i for i = live[j] with the samples' leading axes, every
    other component ±0, and the volume it is the vol-dual of
    (``_reeb_pair``; None for a ``scaled`` one)."""

    n: int
    live: tuple
    rows: np.ndarray
    volume: np.ndarray | None

    def t_slice(self, i: int) -> "_Field":
        return _Field(self.n, self.live, self.rows[:, i], self.volume[i])

    def scaled(self, t: float) -> "_Field":
        """t X, on the same live set: t * (±0) is ±0 for a finite t."""
        return _Field(self.n, self.live, t * self.rows, None)

    def max_abs(self) -> float:
        return float(np.abs(self.rows).max(initial=0.0))

    def values(self) -> np.ndarray:
        """X dense and C-ordered, (..., n), with (-1)^i (+0.0 / volume) in
        each component outside live: the bits of the formula."""
        x = np.empty(self.rows.shape[1:] + (self.n,))
        cols = x.transpose((-1, *range(x.ndim - 1)))
        dead = [i for i in range(self.n) if i not in self.live]
        _dual_rows(self.volume, {}, dead, [cols[i] for i in dead])
        cols[list(self.live)] = self.rows
        return x


def _gap(x: _Field, y: _Field) -> np.ndarray:
    """max_i |x^i - y^i| per sample, the row maxima of the dense
    difference: over the union of the live sets, a component live in one
    field alone reading |x^i - (±0)| = |x^i| (or |y^i|).  NaN propagates."""
    xs, ys = dict(zip(x.live, x.rows)), dict(zip(y.live, y.rows))
    gap = np.zeros(x.rows.shape[1:])
    for i in xs.keys() | ys.keys():
        np.maximum(gap, np.abs(xs[i] - ys[i] if i in xs and i in ys else xs.get(i, ys.get(i))), out=gap)
    return gap


def _reeb_residual(n: int, fields, forms) -> np.ndarray:
    """max |A E - b| per sample over the Reeb fields E_j of ``fields``,
    each (values, live) with live None when unknown (then scanned), and the
    forms of their defining relations, 1-forms first, as chain factors
    (degree, values) or (degree, values, live): w(E_j) - [w is the j-th
    1-form] for a 1-form w, i_{E_j} w for a 2-form.  NaN propagates.

    A contraction that reaches no output (known without a kernel from
    live sets with finite bounds, ``exterior._reaches``) adds its constant
    part alone: 1 for w(E_j) - 1, else 0."""
    worst = np.zeros(np.broadcast_shapes(fields[0][0].shape[:-1], forms[0][1].shape[:-1]))
    for j, (x, live) in enumerate(fields):
        for i, (degree, values, *form_live) in enumerate(forms):
            form_live, outputs = form_live[0] if form_live else None, ()
            if not all(f and f[1] < math.inf for f in (live, form_live)) or _reaches(n, degree, live[0], form_live[0]):
                rows, outputs = _interior(n, degree, x, values, live, form_live)
            if not outputs:
                np.maximum(worst, float(i == j), out=worst)
                continue
            if i == j:
                rows[..., 0] -= 1.0
            np.maximum(worst, np.abs(rows, out=rows).max(axis=-1), out=worst)
    return worst


def _reeb_pair(s: SampledPair, ch: _Chains) -> tuple:
    """(E_alpha, E_beta, max |A E - b| per sample) of the pair s from its
    chains ``ch`` (``SampledPair.chains``), with the leading axes of s, the
    fields as vol-duals (``_vol_dual``) of N_alpha = i_{E_alpha} vol and
    N_beta = -i_{E_beta} vol.  Where the volume vanishes the pair and its
    residual are not finite.  Each field is compact (``_compact_dual``),
    on every component where some volume is 0 or NaN.  The residual's
    kernels read the rows of those live sets and s's."""
    every = not np.all(np.abs(ch.volume) > 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a non-finite residual fails
        fields = [_compact_dual(volume, c, every) for volume, c in ((ch.volume, ch.na), (-ch.volume, ch.nb))]
        # a NaN bound reads as unknown
        operands = [(_components_last(f.rows), (f.live, f.max_abs())) for f in fields]
        return (*fields, _reeb_residual(s.n, operands, s.factors()))


def _form_reeb(n: int, alpha_values: np.ndarray, dalpha_values: np.ndarray) -> tuple:
    """(R, v, max |A R - b| per sample) of one contact form on odd n = 2k+1
    from its samples: i_R (alpha ∧ (d alpha)^k) = (d alpha)^k, so R is the
    ``_vol_dual`` of c = (d alpha)^k with v = alpha ∧ c, and A R - b holds
    alpha(R) - 1 and i_R d alpha."""
    alpha, dalpha = (1, alpha_values), (2, dalpha_values)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the callers check
        c = _wedge(n, *[dalpha] * ((n - 1) // 2))
        volume = _top(_wedge(n, alpha, c))
        reeb = _vol_dual(volume, c or np.ones_like(alpha_values[..., :1]))
        return reeb, volume, _reeb_residual(n, [(reeb, None)], (alpha, dalpha))


def _t_batch(points: int) -> int:
    """How many values of t a family's samples on ``points`` points are
    formed and certified together (``exterior._per_block``)."""
    return _per_block(points)


_INCONSISTENT = "Reeb defining relations are inconsistent"


def _coordinate_partials(form: FormField, axis: int, pts: np.ndarray, known, require_finite):
    """(rows, (live, bound)) of the exact partial along a coordinate axis of
    the coefficient array of a form at pts, live the components whose
    partial is not identically 0, rows their values, one row per component
    of live (the others are +0.0), and bound max |rows|; None when none is.
    The partials are the form's own (``FormField.partials``), derived once.
    Where a partial is not finite, ``require_finite(what, values)``, unless
    None, raises with its witness; else ``ex.EvaluationError`` is raised."""
    parts = form.partials(axis)
    if not parts:
        return None
    rows = np.empty((len(parts), len(pts)))
    try:
        for row, (_, p) in zip(rows, parts):
            row[...] = ex.evaluate_many(p, pts, known)
    except ex.EvaluationError:
        if require_finite is not None:
            require_finite(f"partial along x{axis}", np.stack([ex._values(p, pts) for _, p in parts], axis=1))
        raise
    return rows, (tuple(i for i, _ in parts), float(np.abs(rows).max()))


def _partials(forms, samples, pts: np.ndarray, require_finite) -> dict:
    """{axis: per form of forms, its ``_coordinate_partials`` along axis or
    None}, over the coordinate axes along which some form's partial is not
    identically 0, in axis order, each evaluated once.  A call node that is
    a live coefficient of a form is read from ``samples``, per form the
    rows of its live coefficients (``ex.Known``); an overflow as in
    ``_coordinate_partials``."""
    known = ex.Known()
    for form, rows in zip(forms, samples):
        for i, row in zip(form.live, rows):
            known.add(form.coeffs[i], row)
    found = {a: [_coordinate_partials(f, a, pts, known, require_finite) for f in forms]
             for a in forms[0].model.coordinate_axes}
    return {a: column for a, column in found.items() if any(p is not None for p in column)}


def _product_rule(n: int, pairs):
    """D(f_1 ∧ .. ∧ f_m) = sum_j f_1 ∧ .. ∧ D f_j ∧ .. ∧ f_m for the pairs
    (f_j, D f_j) of chain factors, f_j None for the unit 1 and D f_j None
    for 0, as a chain factor (degree, values, live); None when every D f_j
    is 0 (``_sum``)."""
    total = None
    for j, (_, df) in enumerate(pairs):
        if df is not None:
            term = _wedge(n, *(f for f, _ in pairs[:j]), df, *(f for f, _ in pairs[j + 1 :]))
            total = term if total is None else _sum(total, term)
    return total


def _sum(a, b) -> tuple:
    """a + b for compact chain factors of one degree, compact on the union
    of their live sets, within the sum of their bounds; terms on one live
    set are added as they are."""
    if a[2][0] == b[2][0]:
        return a[0], a[1] + b[1], (a[2][0], a[2][1] + b[2][1])
    live = tuple(sorted({*a[2][0], *b[2][0]}))
    placed = []
    for _, values, (comps, _) in (a, b):
        term = np.zeros(values.shape[:-1] + (len(live),))
        term[..., [live.index(c) for c in comps]] = values
        placed.append(term)
    return a[0], placed[0] + placed[1], (live, a[2][1] + b[2][1])


def _moved(s: SampledPair, fields) -> list:
    """Per ``_Field`` X of ``fields``, D_X of alpha, beta, d alpha and d
    beta at the samples of s, as compact chain factors (degree, values,
    live), None where 0: sum_a X^a ∂_a over the coordinate axes a, in axis
    order, from the exact partials of s's forms (``SampledPair.partials``).
    An axis outside X's live set is skipped: X^a is ±0 there and every
    partial is finite (``_coordinate_partials``), so its term would add ±0
    to a sum that starts at +0.0, which changes no bit.  A component is
    live where a partial along a kept axis is not identically 0; the values
    are a view of a component-major buffer of the live components."""
    partials, moved = s.partials(), []
    for x in fields:
        rows_of, along = dict(zip(x.live, x.rows)), []
        for f, degree in enumerate((1, 1, 2, 2)):
            terms = [(rows_of[a], column[f]) for a, column in partials.items() if a in rows_of and column[f]]
            live = tuple(sorted({c for _, (_, (comps, _)) in terms for c in comps}))
            rows = np.zeros((len(live), *x.rows.shape[1:]))
            for xa, (values, (comps, _)) in terms:
                rows[[live.index(c) for c in comps]] += values * xa
            along.append((degree, rows.T, (live, float(_live_max(rows.T, live)))) if terms else None)
        moved.append(along)
    return moved


def _reeb_directional(s: SampledPair, ch: _Chains, e: _Field, moved, j: int) -> dict:
    """D_X E for the compact Reeb field E = e of s, E_alpha for j = 0 and
    E_beta for j = 1, from the exact derivative of the insertion identity:
    E is the vol-dual ♯c / v of its numerator c, so D_X E follows by the
    quotient rule (``_quotient_rule``), with D_X c and D_X v by the product
    rule over the factors of the chains ``ch`` of s and ``moved``, D_X of
    its forms (``_moved``).  Returns {i: (D_X E)^i}."""
    n, (alpha, beta, dalpha, dbeta) = s.n, s.factors()
    k, l = (0 if p is None else p[0] // 2 for p in (ch.pa, ch.pb))  # the powers' degrees are 2k and 2l
    da, db, dda, ddb = moved
    dm = _product_rule(n, [(dalpha, dda)] * k + [(dbeta, ddb)] * l)
    dna = _product_rule(n, [(ch.m, dm), (beta, db)])
    dv = _product_rule(n, [(alpha, da), (ch.na, dna)])
    volume, dc = (ch.volume, dna) if j == 0 else (-ch.volume, _product_rule(n, [(alpha, da), (ch.m, dm)]))
    # E_beta is a vol-dual by -v, and -D_X v / -v has the bits of D_X v / v
    return _quotient_rule(e, volume, dc, None if dv is None else _top(dv) if j == 0 else -_top(dv))


def _quotient_rule(x: _Field, volume: np.ndarray, dc, dv) -> dict:
    """D x of the compact vol-dual x = ♯c / volume (``_vol_dual``) from D c,
    a chain factor, and the array D v, each None for 0, by the quotient rule

        D x = (♯D c - x D v) / v,

    as {i: (D x)^i}: the x D v term on x's live set plus ♯D c on its own
    (``_compact_dual``), added in that order.  Every other component is ±0
    where D v / v is finite (where it is not, some live row is not either
    wherever x is nonzero).  Leading axes broadcast."""
    out = {}
    if dv is not None:
        rate = -(dv / volume)
        out = {i: row * rate for i, row in zip(x.live, x.rows)}
    if dc is not None:
        dual = _compact_dual(volume, dc)
        for i, row in zip(dual.live, dual.rows):
            out[i] = out[i] + row if i in out else row
    return out


def _frame_bracket(structure: np.ndarray, x: _Field, y: _Field) -> dict:
    """The frame bracket c(X, Y)^k = sum_ij c^k_ij X^i Y^j of compact fields
    as {k: row}, over the nonzero c^k_ij with i live in X and j in Y, each
    term (c^k_ij X^i) Y^j added in (i, j) order from +0.0: the bits of
    ``Model.bracket_values`` on finite dense fields, whose other terms are ±0."""
    out = {}
    for i, xi in zip(x.live, x.rows):
        for j, yj in zip(y.live, y.rows):
            for k in np.flatnonzero(structure[i, j]).tolist():
                out[k] = out.get(k, 0.0) + structure[i, j, k] * xi * yj
    return out


def _reeb_commutator(s: SampledPair, ch: _Chains, ea: _Field, eb: _Field) -> np.ndarray:
    """max_i |[E_alpha, E_beta]^i| per sample of s, with c the frame bracket,

        [E_alpha, E_beta] = c(E_alpha, E_beta) + D_{E_alpha} E_beta - D_{E_beta} E_alpha,

    c on the live rows of the compact pair (ea, eb) (``_frame_bracket``)
    and the derivatives exact (``_reeb_directional``), each component's
    terms in that order; one that no term reaches is ±0.  NaN propagates."""
    model = s.forms[0].model
    rows = _frame_bracket(model.structure, ea, eb)
    if model.coordinate_axes:
        along_a, along_b = _moved(s, (ea, eb))
        for i, row in _reeb_directional(s, ch, eb, along_a, 1).items():
            rows[i] = rows[i] + row if i in rows else row
        for i, row in _reeb_directional(s, ch, ea, along_b, 0).items():
            rows[i] = rows[i] - row if i in rows else -row
    worst = np.zeros(len(s.points))
    for row in rows.values():
        np.maximum(worst, np.abs(row), out=worst)
    return worst


@dataclass(repr=False)
class ContactPairCertificate:
    """A verified contact pair with its Reeb pair and its diagnostics.

    ``sampled`` keeps the evaluated rows; its ``forms`` are the fields
    they were evaluated from, or None for a family at one t.
    ``residual_threshold`` is tol * max(1, scales), the bound the Reeb
    residual (and the commutator) was gated at.  ``reeb_fields`` holds
    (E_alpha, E_beta) compact (``_Field``), which the package reads;
    ``reeb_alpha_values`` and ``reeb_beta_values``, the library's one dense
    view of a Reeb field, form them dense at each read.
    """

    k: int
    l: int
    tol: float
    residual_threshold: float
    min_volume: float
    orientation_sign: int
    dalpha_power_residual: float
    dbeta_power_residual: float
    reeb_residual: float
    commutator_defect: float | None
    sample_count: int
    sampled: SampledPair = field(repr=False)
    reeb_fields: tuple = field(repr=False)
    reeb_alpha_values = property(lambda self: self.reeb_fields[0].values())
    reeb_beta_values = property(lambda self: self.reeb_fields[1].values())

    def __repr__(self):
        return (
            f"<ContactPairCertificate type=({self.k},{self.l}) min|vol|={self.min_volume:.3e} "
            f"sign={self.orientation_sign:+d} reeb_residual={self.reeb_residual:.3e}>"
        )


def _peaks(res: np.ndarray) -> list:
    """(max, its first index) of res along its last axis, the points, per
    leading index (one pair for a 1-D res), as Python numbers: the defect
    of an upper bound and where it is reached.  One max and one argmax
    serve a whole batch of t; a maximum is exact, so each is that of its
    row alone, and NaN propagates, its first index being the argmax."""
    res = np.atleast_2d(res)
    return list(zip(res.max(axis=-1).tolist(), res.argmax(axis=-1).tolist()))


def _troughs(values: np.ndarray) -> list:
    """(min |values|, its first index, the signed value there) along the
    last axis, the points, per leading index (one triple for 1-D values),
    as Python numbers: the defect of a lower bound, where it is reached and
    its witness value.  One reduction each serves a whole batch of t; a
    NaN is the first minimum, as in np.argmin."""
    values = np.atleast_2d(values)
    idx = np.abs(values).argmin(axis=-1)
    lowest = values[np.arange(len(values)), idx]
    return list(zip(np.abs(lowest).tolist(), idx.tolist(), lowest.tolist()))


def _bound(condition: str, message: str, extremum, threshold, pts, *, lower: bool) -> float:
    """The defect of a bound from its ``_peaks`` entry (max, first argmax)
    for an upper bound or its ``_troughs`` entry (min |values|, first
    argmin, signed value there) for a lower one; unless it ``passes``, a
    failure witnessed at that point with the value there."""
    defect, idx = extremum[0], extremum[1]
    if not passes(defect, threshold, lower=lower):
        witness = _witness(pts, idx, value=extremum[2] if lower else defect)
        raise ContactPairError(condition, message, witness, defect=defect, threshold=threshold)
    return defect


def _require_closed(name: str, scale, dscale, tol: float) -> None:
    """Raise a ValueError, an input error, unless the 1-form ``name`` is
    closed on its samples: max |d name| (``dscale``) ``passes`` as an
    upper bound at tol * max |name| (``scale``)."""
    defect = float(dscale)
    if not passes(defect, tol * float(scale), lower=False):
        raise ValueError(f"{name} is not closed (max |d {name}| = {defect:.3e})")


def verify_contact_pair(
    alpha: FormField, beta: FormField, k: int, l: int, tol: float | None = None, points=None
) -> ContactPairCertificate:
    """Certify (alpha, beta) as a contact pair of type (k, l), with its Reeb
    pair, which must commute (``reeb-commutator``).  Where the volume gate
    passes, the Reeb pair is unique: A X = 0 gives i_X vol = 0, so X = 0.

    Fails with the first violated condition and a witness point.
    """
    model = alpha.model
    if beta.model is not model:
        raise ContactPairError("model", "alpha and beta live on different models")
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model)
    return _certificate(SampledPair.of(alpha, beta, points), k, l, tol, True)


def _certificate(s: SampledPair, k: int, l: int, tol: float, full: bool) -> ContactPairCertificate:
    """The certificate of type (k, l) of the sampled pair s, its gates as a
    batch of one (``_certify``) and then its Reeb step on the chains they
    read; ``full`` as in verify_contact_pair (``_reeb_step``)."""
    if s.n != 2 * k + 2 * l + 2:
        raise ContactPairError(
            "dimension", f"type ({k},{l}) needs dimension {2 * k + 2 * l + 2}, model has {s.n}"
        )
    arrays, chains = s.certificate_arrays(k, l)
    ea, eb, residual = _reeb_pair(s, chains)
    gated = _certify(s, k, l, tol, arrays)[0]
    return _reeb_step(s, gated, (ea, eb, _peaks(residual)[0]), chains if full else None)


class _Gated(NamedTuple):
    """What the gates of ``_certify`` decide of one pair certificate: its
    first fields, in the order of ``ContactPairCertificate``."""

    k: int
    l: int
    tol: float
    residual_threshold: float
    min_volume: float
    orientation_sign: int
    dalpha_power_residual: float
    dbeta_power_residual: float


def _certify(s: SampledPair, k: int, l: int, tol: float, arrays) -> list:
    """The checks of verify_contact_pair up to its Reeb step, on already
    sampled arrays, for each t of a batch: s and ``arrays``, the arrays of
    s's ``certificate_arrays(k, l)``, carry a leading t axis, as a batch of
    ``SampledFamily.batches`` does; a pair without one is a batch of one.  Returns, per t in order, the
    ContactPairError of its first failed check or its ``_Gated`` outcome,
    which ``_reeb_step`` completes.

    Each gate runs once for the whole batch, as a reduction along the
    points axis (``_peaks``, ``_troughs``); then each t walks the gates in
    order on its own reductions and thresholds, the latter in scalar
    arithmetic on that t's scales.  A sample, scale or wedge chain that is
    not finite fails as "non-finite" before any other check: no comparison
    can be trusted on it.  The row norms are at least 0 or NaN, so a
    finite max means a finite row, and the volume is finite where its min
    and max are.
    """
    pts = s.points
    if np.ndim(arrays[0]) == 0:
        arrays = [v[None] for v in arrays]
    scales, (a_rows, b_rows, da_res, db_res, vol) = arrays[:4], arrays[4:]
    alpha, beta, volume = _troughs(a_rows), _troughs(b_rows), _troughs(vol)
    dalpha, dbeta = _peaks(da_res), _peaks(db_res)
    vol_min, vol_max = vol.min(axis=-1).tolist(), vol.max(axis=-1).tolist()
    signs = np.sign(vol[:, 0]).tolist()  # read only where vol is finite and nonzero
    da_message, db_message = f"(d alpha)^{k + 1} does not vanish", f"(d beta)^{l + 1} does not vanish"

    def gate(i, scale_a, scale_b, scale_da, scale_db) -> _Gated:
        res_scale = max(1.0, scale_a, scale_b, scale_da, scale_db)
        da_threshold = tol * scale_da ** (k + 1)
        db_threshold = tol * scale_db ** (l + 1)
        vol_scale = scale_a * scale_b * scale_da**k * scale_db**l
        checked = (vol_scale, da_threshold, db_threshold, dalpha[i][0], dbeta[i][0], vol_min[i], vol_max[i])
        if not all(map(math.isfinite, checked)):
            raise ContactPairError("non-finite", "a sample, its scale or a wedge chain is not finite")
        _bound("alpha-nonvanishing", "alpha vanishes at a sample point", alpha[i], tol * scale_a, pts, lower=True)
        _bound("beta-nonvanishing", "beta vanishes at a sample point", beta[i], tol * scale_b, pts, lower=True)
        dalpha_res = _bound("dalpha-power", da_message, dalpha[i], da_threshold, pts, lower=False)
        dbeta_res = _bound("dbeta-power", db_message, dbeta[i], db_threshold, pts, lower=False)
        min_volume = _bound(
            "volume", "volume coefficient vanishes at a sample point", volume[i], tol * vol_scale, pts, lower=True
        )
        if vol_min[i] < 0.0 < vol_max[i]:
            raise ContactPairError(
                "orientation",
                "volume coefficient changes sign across sample points",
                {
                    "negative": _witness(pts, int(np.argmin(vol[i])), value=vol_min[i]),
                    "positive": _witness(pts, int(np.argmax(vol[i])), value=vol_max[i]),
                },
            )
        return _Gated(k, l, tol, tol * res_scale, min_volume, int(signs[i]), dalpha_res, dbeta_res)

    outcomes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, scales_t in enumerate(zip(*scales)):
            try:
                outcomes.append(gate(i, *scales_t))
            except ContactPairError as err:
                # kept without its traceback, whose frames hold the batch
                outcomes.append(err.with_traceback(None))
    return outcomes


def _reeb_step(s: SampledPair, gated, reeb, chains: _Chains | None = None) -> ContactPairCertificate:
    """The certificate of the pair s from the outcome ``_certify`` gave it:
    its failure raised, or its Reeb step.

    ``reeb`` = (E_alpha, E_beta, peak) is s's compact Reeb pair by the
    insertion identity (``_reeb_pair``) with the ``_peaks`` entry of its
    pointwise residual max |A E - b|, which is gated.  With the pair's ``chains`` (a
    full certificate, as in verify_contact_pair; they need s's ``forms``),
    the exact commutator of the Reeb pair must also vanish
    (``reeb-commutator``).  Without them it is skipped and
    ``commutator_defect`` is None.
    """
    if isinstance(gated, ContactPairError):
        try:
            raise gated
        finally:
            del gated  # a frame of the traceback holding the error is a cycle that would keep s
    pts, res_threshold = s.points, gated.residual_threshold
    ea, eb, peak = reeb
    reeb_residual = _bound("reeb-residual", _INCONSISTENT, peak, res_threshold, pts, lower=False)
    comm = None
    if chains is not None:
        comm = _bound("reeb-commutator", "Reeb fields fail to commute",
                      _peaks(_reeb_commutator(s, chains, ea, eb))[0], res_threshold, pts, lower=False)
    return ContactPairCertificate(
        *gated,
        reeb_residual=reeb_residual,
        commutator_defect=comm,
        sample_count=pts.shape[0],
        sampled=s,
        reeb_fields=(ea, eb),
    )


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
    are then None (undecided).  condition_ii and agreement are None when the
    class of alpha overflows.  pairing_defect is None unless alpha has
    maximal class.
    """

    condition_i: bool | None
    condition_ii: bool | None
    agreement: bool | None
    class_k: int | None
    pairing_defect: float | None
    per_t: list
    witness: dict = field(default_factory=dict)


def verify_single_deformation(
    alpha0: FormField,
    alpha: FormField,
    t_grid=None,
    tol: float | None = None,
    points=None,
) -> SingleDeformationReport:
    """Check both directions of the deformation criterion for a single form;
    the grid needs some t > 0."""
    model = alpha.model
    n = model.n
    if n % 2 == 0:
        raise ValueError("single-form deformation needs an odd-dimensional model")
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model)
    pts = np.asarray(points, dtype=float)
    t_grid = [float(t) for t in (CONVERSE_T_GRID if t_grid is None else t_grid)]
    if not any(t > 0.0 for t in t_grid):
        raise ValueError("single-form t grid has no t > 0")

    # einsum sums in an order that depends on the layout: a0v is C-ordered
    a0v = np.ascontiguousarray(alpha0.values(pts))
    da0 = alpha0.d().values(pts)
    _require_closed("alpha0", _live_max(a0v, alpha0.live), _live_max(da0, alpha0.d().live), tol)

    k_max = (n - 1) // 2
    av = alpha.values(pts)
    dav = alpha.d().values(pts)
    try:
        report = _class_report(av, dav, pts, tol, alpha.live, alpha.d().live)
    except ContactPairError as err:
        if err.condition != "non-finite":
            raise
        report, witness_ii = None, {"condition": err.condition, **err.witness}

    pairing_defect = None
    if report is None:  # an overflow shows nothing about the class of alpha
        condition_ii = None
    elif report.constant and report.k == k_max:
        zv = _form_reeb(n, av, dav)[0]
        pairing_defect, idx = _peaks(np.abs(np.einsum("pi,pi->p", a0v, zv)))[0]
        scale = float(np.max(np.abs(a0v))) * max(1.0, float(np.max(np.abs(zv))))
        condition_ii = passes(pairing_defect, tol * scale, lower=False)
        witness_ii = _witness(pts, idx, value=pairing_defect)
    else:
        condition_ii = False
        witness_ii = {"reason": "alpha does not have maximal constant class", **report.witnesses}

    per_t = []
    condition_i = True  # None: undecided, some t overflowed and none failed
    witness_i = {}
    for t in t_grid:
        if t <= 0.0:
            if t == 0.0:
                per_t.append({"t": 0.0, "note": "closed form, class 0", "passed": None})
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = _top(chain_factor(n, (1, a0v + t * av), *[(2, da0 + t * dav)] * k_max))
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
        passed = passes(min_abs, tol * scale, lower=True) and not sign_change
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
        agreement=None if None in (condition_i, condition_ii) else condition_i == condition_ii,
        class_k=None if report is None else report.k,
        pairing_defect=pairing_defect,
        per_t=per_t,
        witness={"condition_i": witness_i, "condition_ii": witness_ii},
    )
