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

import contextlib
import contextvars
import math
import os
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import expressions as ex
from .exterior import _BLOCK, _two_form_positions, chain, chain_factor, interior_values, two_form_matrices
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
    "least_squares_batch",
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


def _witness(points: np.ndarray, index: int, **extra) -> dict:
    w = {"point": [float(v) for v in points[index]], "index": int(index)}
    w.update(extra)
    return w


class _SingularGram(np.linalg.LinAlgError):
    """Some Gram matrix of a batch solved by LU is exactly singular."""


def least_squares_batch(a: np.ndarray, b: np.ndarray, compute_sigma: bool = False, pinv: bool = False):
    """Least squares for a batch of small stacked systems.

    a has shape (P, M, N) with M >= N, b shape (M, R) or, for one right-hand
    side per system, (P, M, R).  Solves the normal equations and
    returns (x, residual_inf, sigma_min, sigma_max); the extreme singular
    values of a are computed only on request and are None otherwise.

    The normal equations are factored by LU, which raises ``_SingularGram``
    when some Gram matrix is exactly singular; with ``pinv`` they are solved
    by the pseudo-inverse instead.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_t = np.swapaxes(a, 1, 2)
    gram = a_t @ a
    rhs = a_t @ b
    if pinv:
        # rank-deficient somewhere in the batch; minimum-norm solve, the
        # residual and sigma_min diagnostics report the deficiency
        x = np.linalg.pinv(gram, hermitian=True) @ rhs
    else:
        try:
            x = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as err:
            raise _SingularGram(*err.args) from err
    del gram, rhs  # not held through the residual and the singular values
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
    return x, residual_inf, sigma_min, sigma_max


@dataclass
class ClassReport:
    """Result of a Cartan class computation over a sample set."""

    k: int | None
    min_nonvanishing: float
    max_residual: float
    constant: bool
    tol: float
    witnesses: dict = field(default_factory=dict)


def _norm_inf_rows(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Largest absolute value along one short axis (0 where it is empty).

    One reduction over a copy that holds that axis first, so that it runs
    over contiguous vectors: exact in any order, and NaN propagates as in
    np.max, so a NaN row gives NaN.
    """
    values = np.moveaxis(np.asarray(values), axis, 0)
    if not values.shape[0]:
        return np.zeros(values.shape[1:])
    return np.max(np.abs(values, order="C"), axis=0)


def _span(live: tuple) -> slice:
    """The components from the first to the last of live."""
    return slice(live[0], live[-1] + 1) if live else slice(0, 0)


def _live_max(values: np.ndarray, live: tuple, axis: tuple | None = None) -> np.ndarray:
    """max |x| of a (..., C) sample array over its live components and over
    the leading axes in ``axis`` (all of them by default; ``()`` gives the
    row maxima), 0 where no component is live.

    Every component outside live is ±0, so this is the maximum over all
    components.  It reads the span of live (``_span``), a contiguous part
    of a component-major buffer; a transpose, not ``np.moveaxis``, puts the
    components first, since the latter costs several times as much on
    one-point samples.  Exact in any order, and NaN propagates.
    """
    rows = values.transpose((-1, *range(values.ndim - 1)))[_span(live)]
    return np.abs(rows).max(axis=None if axis is None else (0, *(a + 1 for a in axis)), initial=0.0)


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
    scale_da = float(_live_max(dav, live_da))

    alpha_rows = _live_max(av, live_a, ())
    _nonvanishing("nonvanishing", "form vanishes at a sample point", _troughs(alpha_rows)[0], tol * scale_a, pts)

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
    max_res = float(np.max(power_norm[k + 1])) if k + 1 < len(power_norm) else 0.0
    return ClassReport(k, float(np.min(nonvanish[k])), max_res, True, tol)


class SampledPair:
    """alpha, beta, d alpha and d beta evaluated once on a point set.

    ``forms`` holds the four fields the arrays were evaluated from, which the
    exact Reeb commutator differentiates; it is None for arrays formed
    otherwise, such as the samples of a family at one t.

    ``live`` holds, for each of the four arrays, (live components, bound):
    the components that can be nonzero, every other one being +0.0, and
    max |x| over them per leading index, which is the array's ``scales``
    entry.  The wedge chains and row maxima read the live components alone.

    The arrays may carry leading axes before the points axis, such as the t
    axis of a family's samples at a batch of t; ``scales``, ``top`` and
    ``certificate_arrays`` broadcast over them.  The pair keeps nothing it
    computes from them.
    """

    def __init__(self, points, alpha, beta, dalpha, dbeta, live, forms=None):
        self.points = points
        self.alpha = alpha
        self.beta = beta
        self.dalpha = dalpha
        self.dbeta = dbeta
        self.forms = forms
        self.live = live

    @classmethod
    def of(cls, alpha: FormField, beta: FormField, points) -> "SampledPair":
        """Evaluate two 1-form fields and their derivatives, with the live
        components of their coefficients (``FormField.live``)."""
        pts = np.asarray(points, dtype=float)
        forms = (alpha, beta, alpha.d(), beta.d())
        values = [f.values(pts) for f in forms]
        live = tuple((f.live, _live_max(v, f.live)) for f, v in zip(forms, values))
        return cls(pts, *values, live, forms=forms)

    @property
    def n(self) -> int:
        return self.alpha.shape[-1]

    @property
    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Antisymmetric matrices of d alpha and d beta, shape (P, n, n) each;
        formed on use, so that a pair kept across a t loop holds none."""
        return two_form_matrices(self.n, self.dalpha), two_form_matrices(self.n, self.dbeta)

    def scales(self) -> tuple:
        """Largest absolute entries of alpha, beta, d alpha and d beta."""
        return tuple(bound for _, bound in self.live)

    def factors(self) -> tuple:
        """alpha, beta, d alpha and d beta as ``exterior.chain_factor``
        factors (degree, values, live), each live set with one bound over
        all leading indices."""
        arrays = (self.alpha, self.beta, self.dalpha, self.dbeta)
        return tuple(
            (degree, values, (comps, float(bound if bound.ndim == 0 else bound.max())))
            for degree, values, (comps, bound) in zip((1, 1, 2, 2), arrays, self.live)
        )

    def t_slice(self, i: int) -> "SampledPair":
        """The pair at index i of a leading t axis."""
        return SampledPair(
            self.points, self.alpha[i], self.beta[i], self.dalpha[i], self.dbeta[i],
            tuple((comps, bound[i]) for comps, bound in self.live),
        )

    def certificate_arrays(self, k: int, l: int) -> tuple:
        """The sample arrays that a certificate of type (k, l) decides on:
        the four ``scales``, the row norms of alpha, beta, (d alpha)^{k+1}
        and (d beta)^{l+1}, and the volume coefficient (``top``), in that
        order, each with the leading axes of the samples; entries may
        overflow.  Each row norm reads the live components alone."""
        n = self.n
        alpha, beta, dalpha, dbeta = self.factors()
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite certificate fails
            powers = (chain_factor(n, *[dalpha] * (k + 1)), chain_factor(n, *[dbeta] * (l + 1)))
            return (
                *self.scales(),
                *(_live_max(values, live, ()) for _, values, (live, _) in (alpha, beta, *powers)),
                self.top(k, l, alpha, beta),
            )

    def reeb_rows(self, block: slice = slice(None)) -> np.ndarray:
        """Stacked rows (alpha; beta; i_E d alpha; i_E d beta) of the samples
        in ``block``, shape (samples, 2n+2, n); of every sample by default.
        The samples of a leading t axis are taken in t order, so a block
        indexes the T * P samples of a batch.

        Row 2 + j of i_E d alpha holds d alpha(e_i, e_j) in column i, so each
        2-form coefficient is scattered straight into its flat positions.
        """
        n = self.n
        flat = [v.reshape(-1, v.shape[-1])[block] for v in (self.alpha, self.beta, self.dalpha, self.dbeta)]
        rows = np.zeros((flat[0].shape[0], (2 * n + 2) * n))
        rows[:, :n] = flat[0]
        rows[:, n : 2 * n] = flat[1]
        upper, lower = _two_form_positions(n)
        for start, coeffs in ((2 * n, flat[2]), ((n + 2) * n, flat[3])):
            rows[:, start + lower] = coeffs
            rows[:, start + upper] = -coeffs
        return rows.reshape(-1, 2 * n + 2, n)

    def top(self, k: int, l: int, w: tuple, v: tuple) -> np.ndarray:
        """Top coefficient of w ∧ (d alpha)^k ∧ v ∧ (d beta)^l per point, for
        1-form factors w and v given as (1, values) or (1, values, live)
        (``exterior.chain_factor``; ``factors`` gives those of the pair)."""
        _, _, dalpha, dbeta = self.factors()
        return chain(self.n, w, *[dalpha] * k, v, *[dbeta] * l)[..., 0]


def _blocks(points: int) -> list[slice]:
    """The blocks of ``_BLOCK // 2`` points, in order, that a blocked Reeb
    solve takes ``points`` points in (the last one may be shorter)."""
    step = _BLOCK // 2
    return [slice(lo, min(lo + step, points)) for lo in range(0, points, step)]


def _t_batch(points: int) -> int:
    """How many values of t a family's samples on ``points`` points are
    formed and certified together: as many as fit in ``_BLOCK`` points, and
    at least one."""
    return max(1, _BLOCK // points)


def _solve_blocks(rows_of, points: int, b: np.ndarray, compute_sigma: bool, fallback: bool = True):
    """least_squares_batch on the systems ``rows_of(block)`` of ``points``
    points, one block of ``_blocks(points)`` per call, with b of shape
    (M, R) or (P, M, R); the outputs of the blocks are joined in order.

    The calling thread and, with two blocks or more on a process that may
    run on two CPUs or more, one worker thread take the blocks in order, so
    the two blocks in flight hold the rows of one ``_BLOCK``; numpy releases
    the GIL in its batched LAPACK and matmul calls.  The partition depends
    on ``points`` alone, and every batched call treats each system on its
    own, so each solution bit is that of one call on the full stack, on any
    number of CPUs.  The worker runs in a copy of the caller's context, which
    holds numpy's errstate.  Once a block fails no further block starts;
    the caller raises the error of the first failing block, as a serial
    loop would, and an exactly singular Gram matrix there sends the whole
    batch to the pseudo-inverse, or, without ``fallback``, raises
    ``_SingularGram``.
    """
    blocks = _blocks(points)
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    for pinv in (False, True):
        todo, parts, errors, lock = iter(range(len(blocks))), [None] * len(blocks), {}, threading.Lock()

        def solve():
            while not errors:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                block = blocks[i]
                try:
                    parts[i] = least_squares_batch(rows_of(block), b if b.ndim < 3 else b[block], compute_sigma, pinv)
                except BaseException as err:  # re-raised by the caller, or the pinv pass
                    errors[i] = err
                    return

        worker = None
        if min(len(blocks), cpus) > 1:
            worker = threading.Thread(target=contextvars.copy_context().run, args=(solve,))
            worker.start()
        solve()
        if worker is not None:
            worker.join()
        if not errors:
            # joined by this thread: arrays a worker allocated and kept would
            # keep its malloc arena from shrinking
            return [None if v[0] is None else np.concatenate(v) for v in zip(*parts)]
        # blocks are taken in order, so every block before the first failing
        # one was solved
        first = errors[min(errors)]
        if pinv or not (fallback and isinstance(first, _SingularGram)):
            raise first


def _solve_reeb(s: SampledPair, compute_sigma: bool, fallback: bool = True):
    """The Reeb pair of s: (E_alpha, E_beta, residual, sigma_min, sigma_max),
    one system per sample.  The systems of a leading t axis are stacked in
    t order and solved in one ``_solve_blocks`` call, so the outputs are
    flat, (T * P, ...); ``fallback`` is that call's."""
    # one right-hand side per field: alpha(E_alpha) = 1 and beta(E_beta) = 1
    x, residual, sigma_min, sigma_max = _solve_blocks(
        s.reeb_rows, s.alpha.size // s.n, np.eye(2 * s.n + 2, 2), compute_sigma, fallback
    )
    return x[..., 0], x[..., 1], residual, sigma_min, sigma_max


_INCONSISTENT = "Reeb defining relations are inconsistent"


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


def _reeb_derivative(s: SampledPair, z_of_axis) -> np.ndarray:
    """-(AᵀA)⁻¹ Aᵀ sum_a (∂_a A) z_a for the Reeb rows A of s, with z_a =
    z_of_axis(a) of shape (P, n) for each coordinate axis a.

    Differentiating the consistent system A E = b along X gives
    D_X E = -(AᵀA)⁻¹ Aᵀ (D_X A) E, where D_X A = sum_a X^a ∂_a A and ∂_a A
    holds the exact partials of alpha, beta, d alpha and d beta; so
    z_a = X^a E gives D_X E.  Each ∂_a A is applied to z_a as soon as it is
    evaluated, so only (P, 2n+2) vectors are accumulated; A is formed block
    by block, and only when that sum is nonzero.
    """
    w = np.zeros((len(s.points), 2 * s.n + 2))
    for a in s.forms[0].model.coordinate_axes:
        w_a = _reeb_rows_partial(s.forms, a, s.points, z_of_axis(a))
        if w_a is not None:
            w += w_a
    if not np.any(w):
        return np.zeros((len(s.points), s.n))
    u = _solve_blocks(s.reeb_rows, len(s.points), w[:, :, None], False)[0]
    return -u[..., 0]


def _reeb_commutator(s: SampledPair, ea, eb) -> np.ndarray:
    """[E_alpha, E_beta] at the sample points from the solved Reeb system:
    with c the frame bracket,

        [E_alpha, E_beta] = c(E_alpha, E_beta) + D_{E_alpha} E_beta - D_{E_beta} E_alpha,

    one derivative solve with z_a = E_alpha^a E_beta - E_beta^a E_alpha.
    """
    model = s.forms[0].model
    out = model.bracket_values(ea, eb)
    if model.coordinate_axes:
        out += _reeb_derivative(s, lambda a: ea[:, a : a + 1] * eb - eb[:, a : a + 1] * ea)
    return out


@dataclass(repr=False)
class ContactPairCertificate:
    """A verified contact pair with its Reeb pair and solve diagnostics.

    ``sampled`` keeps the evaluated arrays; its ``forms`` are the fields
    they were evaluated from, or None for a family at one t.
    ``residual_threshold`` is tol * max(1, scales), the bound the Reeb
    residual (and the commutator) was gated at.  ``substituted`` is True
    when the Reeb pair is an offered candidate whose residual passed that
    gate, so that no system was solved.
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
    sigma_min: float | None
    commutator_defect: float | None
    sample_count: int
    sampled: SampledPair = field(repr=False)
    reeb_alpha_values: np.ndarray = field(repr=False)
    reeb_beta_values: np.ndarray = field(repr=False)
    substituted: bool = False

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


def _vanishing(condition: str, message: str, peak, threshold, pts) -> float:
    """The max of a quantity over the points, from its peak = (max, first
    argmax) (``_peaks``), raising a failure witnessed at that point unless
    it stays at or below threshold; NaN fails."""
    defect, idx = peak
    if not defect <= threshold:
        witness = _witness(pts, idx, value=defect)
        raise ContactPairError(condition, message, witness, defect=defect, threshold=threshold)
    return defect


def _nonvanishing(condition: str, message: str, trough, threshold, pts) -> float:
    """min |values| over the points, from its trough = (min |values|, first
    argmin, signed value there) (``_troughs``), raising a failure witnessed
    at that point, with the signed value, unless it stays strictly above
    threshold; NaN fails."""
    defect, idx, value = trough
    if not defect > threshold:
        witness = _witness(pts, idx, value=value)
        raise ContactPairError(condition, message, witness, defect=defect, threshold=threshold)
    return defect


def _require_closed(name: str, scale, dscale, tol: float) -> None:
    """Raise a ValueError, an input error, unless the 1-form ``name`` is
    closed on its samples: max |d name| (``dscale``) at or below tol *
    max |name| (``scale``)."""
    defect = float(dscale)
    if defect > tol * float(scale):
        raise ValueError(f"{name} is not closed (max |d {name}| = {defect:.3e})")


def verify_contact_pair(
    alpha: FormField, beta: FormField, k: int, l: int, tol: float | None = None, points=None
) -> ContactPairCertificate:
    """Certify (alpha, beta) as a contact pair of type (k, l), with its Reeb
    pair: unique (``reeb-rank``) and commuting (``reeb-commutator``).

    Fails with the first violated condition and a witness point.
    """
    model = alpha.model
    if beta.model is not model:
        raise ContactPairError("model", "alpha and beta live on different models")
    if tol is None:
        tol = default_tolerance(model)
    if points is None:
        points = sample_points(model)
    s = SampledPair.of(alpha, beta, points)
    return _reeb_step(s, _certify(s, k, l, tol)[0], True)  # its gates as a batch of one


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


def _certify(s: SampledPair, k: int, l: int, tol: float, arrays=None) -> list:
    """The checks of verify_contact_pair up to its Reeb step, on already
    sampled arrays, for each t of a batch: s and ``arrays``, s's
    ``certificate_arrays(k, l)`` (computed here unless the caller has
    them), carry a leading t axis, as a batch of ``SampledFamily.batches``
    does; a pair without one is a batch of one.  Returns, per t in order,
    the ContactPairError of its first failed check or its ``_Gated``
    outcome, which ``_reeb_step`` completes.

    Each gate runs once for the whole batch, as a reduction along the
    points axis (``_peaks``, ``_troughs``); then each t walks the gates in
    order on its own reductions and thresholds, the latter in scalar
    arithmetic on that t's scales.  A sample, scale or wedge chain that is
    not finite fails as "non-finite" before any other check: no comparison
    can be trusted on it.  The row norms are at least 0 or NaN, so a
    finite max means a finite row, and the volume is finite where its min
    and max are.
    """
    n = s.n
    if n != 2 * k + 2 * l + 2:
        raise ContactPairError(
            "dimension", f"type ({k},{l}) needs dimension {2 * k + 2 * l + 2}, model has {n}"
        )
    pts = s.points
    if arrays is None:
        arrays = s.certificate_arrays(k, l)
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
        gram_scale = res_scale * res_scale * (2 * n + 2)  # bounds the normal equations
        checked = (vol_scale, da_threshold, db_threshold, gram_scale, dalpha[i][0], dbeta[i][0], vol_min[i], vol_max[i])
        if not all(map(math.isfinite, checked)):
            raise ContactPairError("non-finite", "a sample, its scale or a wedge chain is not finite")
        _nonvanishing("alpha-nonvanishing", "alpha vanishes at a sample point", alpha[i], tol * scale_a, pts)
        _nonvanishing("beta-nonvanishing", "beta vanishes at a sample point", beta[i], tol * scale_b, pts)
        dalpha_res = _vanishing("dalpha-power", da_message, dalpha[i], da_threshold, pts)
        dbeta_res = _vanishing("dbeta-power", db_message, dbeta[i], db_threshold, pts)
        min_volume = _nonvanishing(
            "volume", "volume coefficient vanishes at a sample point", volume[i], tol * vol_scale, pts
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


def _reeb_step(s: SampledPair, gated, full: bool, candidate=None) -> ContactPairCertificate:
    """The certificate of the pair s from the outcome ``_certify`` gave it:
    its failure raised, or its Reeb step.

    The Reeb systems are solved and their residual gated; with ``full``, the
    smallest singular value of each system must also stay above tol times
    the largest over the points (``reeb-rank``) and the exact commutator of
    the Reeb pair must vanish (``reeb-commutator``, which needs s's
    ``forms``), as in verify_contact_pair.  Without ``full`` both are
    skipped and ``sigma_min`` and ``commutator_defect`` are None.

    ``candidate`` = (E_alpha, E_beta, peak) offers a Reeb pair with the
    ``_peaks`` entry of its pointwise residual max |A E - b|; a candidate
    whose residual passes the Reeb residual gate is certified without a
    solve, otherwise s is solved as without it.  The rank and commutator
    checks need a solve, so a candidate is offered only to certificates
    without ``full``.
    """
    if isinstance(gated, ContactPairError):
        try:
            raise gated
        finally:
            del gated  # a frame of the traceback holding the error is a cycle that would keep s
    pts, res_threshold = s.points, gated.residual_threshold
    substituted, smin, comm = False, None, None
    if candidate is not None:
        with contextlib.suppress(ContactPairError):  # then solved, exactly as without a candidate
            reeb_residual = _vanishing("reeb-residual", _INCONSISTENT, candidate[2], res_threshold, pts)
            ea, eb, substituted = candidate[0], candidate[1], True
    if not substituted:
        ea, eb, residual, sigma_min, sigma_max = _solve_reeb(s, full)
        reeb_residual = _vanishing(
            "reeb-residual", _INCONSISTENT, _peaks(np.max(residual, axis=-1))[0], res_threshold, pts
        )
        if full:
            smin = _nonvanishing(
                "reeb-rank", "Reeb system is rank deficient (non-unique solution)",
                _troughs(sigma_min)[0], gated.tol * float(np.max(sigma_max)), pts,
            )
            comm = _vanishing(
                "reeb-commutator", "solved Reeb fields fail to commute",
                _peaks(_norm_inf_rows(_reeb_commutator(s, ea, eb)))[0], res_threshold, pts,
            )
    return ContactPairCertificate(
        *gated,
        reeb_residual=reeb_residual,
        sigma_min=smin,
        commutator_defect=comm,
        sample_count=pts.shape[0],
        sampled=s,
        reeb_alpha_values=ea,
        reeb_beta_values=eb,
        substituted=substituted,
    )


def _contact_reeb(av: np.ndarray, da_m: np.ndarray):
    """Reeb field of one contact form from its samples, alpha(Z) = 1 and
    i_Z d alpha = 0; returns (Z, least-squares residual)."""

    def rows_of(block: slice) -> np.ndarray:
        return np.concatenate([av[block, None, :], np.swapaxes(da_m[block], 1, 2)], axis=1)

    x, residual, _, _ = _solve_blocks(rows_of, av.shape[0], np.eye(av.shape[1] + 1, 1), False)
    return x[..., 0], residual[..., 0]


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
        agreement=None if None in (condition_i, condition_ii) else condition_i == condition_ii,
        class_k=None if report is None else report.k,
        pairing_defect=pairing_defect,
        per_t=per_t,
        witness={"condition_i": witness_i, "condition_ii": witness_ii},
    )
