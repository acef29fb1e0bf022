"""Properties of the Reeb pair that the insertion identity must keep.

The Reeb pair (E_alpha, E_beta) of a contact pair is intrinsic: it is a
pointwise function of the samples, it swaps when alpha and beta swap, it
scales by 1/c when a form is scaled by a constant c, and on a product pair
it is the pair of the factors' Reeb fields.  The formula
E^i = (-1)^i c_î / v of ``contact._reeb_pair`` and ``contact._form_reeb``
is checked against each of these, bit for bit where the arithmetic is exact
(sub-sampling, scaling by powers of two), and to rounding otherwise.  Each
sample of a verdict or a sweep reaches the formula once.
"""

from pathlib import Path

import numpy as np
import pytest
from test_contact import sheared_t6_pair, t6_pair
from test_reeb_formula import dense_reeb_pair

from contactpairs import contact, deformation
from contactpairs.config import load_config
from contactpairs.contact import (
    SampledPair,
    _form_reeb,
    _row_bound,
    _t_batch,
    _vol_dual,
    product_contact_pair,
    verify_contact_pair,
)
from contactpairs.deformation import (
    CONVERSE_T_GRID,
    FORWARD_T_GRID,
    sweep_rows,
    verify_converse,
    verify_forward,
)
from contactpairs.exterior import FormValue, VectorValue, interior
from contactpairs.models import random_points, sample_points
from contactpairs.registry import build_example, example_names

ROOT = Path(__file__).resolve().parent.parent
PAIRS = [name for name in example_names() if "beta" in build_example(name)]
SINGLE_FORMS = ("torus-contact", "darboux1", "darboux2", "heisenberg3")
# point counts about the kernels' block of 4096 points
COUNTS = (1, 4095, 4096, 4097, 8195)


def _pair(name):
    """(model, alpha, beta, k, l) of a builtin pair or a T^6 pair of the tests."""
    if name == "t6":
        return (*t6_pair(), 1, 1)
    if name == "sheared-t6":
        return (*sheared_t6_pair(), 1, 1)
    objs = build_example(name)
    return objs["model"], objs["alpha"], objs["beta"], objs["k"], objs["l"]


def _points(model, count, seed):
    if model.coordinate_axes:
        return random_points(model, count, np.random.default_rng(seed))
    return sample_points(model)  # a Lie model's one formal point


def _formula(s: SampledPair, k: int, l: int) -> tuple:
    return dense_reeb_pair(s, s.chains(k, l))


def _rescaled(s: SampledPair, a: float, b: float, p=None) -> SampledPair:
    """s with alpha and d alpha times a, beta and d beta times b; at point p
    alone when p is given."""
    rows = [r.copy() for r in s.rows]  # component-major: the points come last
    where = slice(None) if p is None else p
    for r, factor in zip(rows, (a, b, a, b)):
        r[..., where] *= factor
    live = tuple((comps, _row_bound(r)) for r, (comps, _) in zip(rows, s.live))
    return SampledPair(s.points, s.n, rows, live)


def _assert_bits(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, strict=True)


# --- the formula is pointwise ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["t6", "sheared-t6"])
@pytest.mark.parametrize("count", COUNTS)
def test_the_reeb_pair_of_a_subset_is_the_subset_of_the_reeb_pair(name, count):
    # any subset, in any order, on either side of a kernel block boundary
    model, alpha, beta, k, l = _pair(name)
    pts = _points(model, count, 11)
    whole = _formula(SampledPair.of(alpha, beta, pts), k, l)
    idx = np.random.default_rng(12).permutation(count)[: max(1, count // 3)]
    part = _formula(SampledPair.of(alpha, beta, pts[idx]), k, l)
    _assert_bits(part, [v[idx] for v in whole])


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("count", (2, 4097, 8195))
def test_an_overflowing_point_leaves_the_others_alone(where, count):
    # alpha and d alpha times 1e300 at one point: its volume overflows and
    # its residual is not finite; every other point keeps its bits
    model, alpha, beta, k, l = _pair("sheared-t6")
    s = SampledPair.of(alpha, beta, _points(model, count, 13))
    p = {"first": 0, "middle": count // 2, "last": count - 1}[where]
    ea, eb, residual = _formula(s, k, l)
    with np.errstate(over="ignore"):
        broken = _rescaled(s, 1e300, 1.0, p)
    assert np.isinf(broken.chains(k, l).volume[p])
    got = _formula(broken, k, l)
    assert not np.isfinite(got[2][p])
    keep = np.arange(count) != p
    _assert_bits([v[keep] for v in got], [ea[keep], eb[keep], residual[keep]])


# --- the pair is intrinsic ---------------------------------------------------------------------

@pytest.mark.parametrize("name", PAIRS + ["t6", "sheared-t6"])
def test_swapping_the_forms_swaps_the_reeb_pair(name):
    model, alpha, beta, k, l = _pair(name)
    pts = _points(model, 1000, 14)
    ea, eb, residual = _formula(SampledPair.of(alpha, beta, pts), k, l)
    fb, fa, swapped = _formula(SampledPair.of(beta, alpha, pts), l, k)
    scale = max(1.0, float(np.max(np.abs(ea))), float(np.max(np.abs(eb))))
    for got, want in ((fa, ea), (fb, eb)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)
    assert float(np.max(swapped)) <= 1e-13 * scale and float(np.max(residual)) <= 1e-13 * scale


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, -0.5), (2.0**-30, 2.0**40), (-8.0, -8.0)])
@pytest.mark.parametrize("name", PAIRS + ["sheared-t6"])
def test_scaling_by_powers_of_two_divides_the_fields_exactly(name, a, b):
    # (a alpha, b beta) has Reeb pair (E_alpha / a, E_beta / b): every
    # product and quotient is exact.  Each term w(E_j) of the residual is
    # scaled by the factor of w over that of E_j's form, so the residual
    # moves by at most the ratio r of the two factors, exactly
    model, alpha, beta, k, l = _pair(name)
    s = SampledPair.of(alpha, beta, _points(model, 500, 15))
    ea, eb, residual = _formula(s, k, l)
    fa, fb, scaled = _formula(_rescaled(s, a, b), k, l)
    _assert_bits([fa, fb], [ea / a, eb / b])
    r = max(abs(a / b), abs(b / a))
    assert np.all(scaled <= r * residual) and np.all(residual <= r * scaled)


@pytest.mark.parametrize("c", [3.0, -0.1, 1e-6, 7e5])
@pytest.mark.parametrize("name", PAIRS + ["sheared-t6"])
def test_scaling_alpha_by_a_constant_divides_e_alpha(name, c):
    model, alpha, beta, k, l = _pair(name)
    s = SampledPair.of(alpha, beta, _points(model, 500, 16))
    ea, eb, _ = _formula(s, k, l)
    fa, fb, residual = _formula(_rescaled(s, c, 1.0), k, l)
    np.testing.assert_allclose(fa * c, ea, rtol=0, atol=1e-14 * max(1.0, float(np.max(np.abs(ea)))))
    np.testing.assert_allclose(fb, eb, rtol=0, atol=1e-14 * max(1.0, float(np.max(np.abs(eb)))))
    assert float(np.max(residual)) <= 1e-13 * max(1.0, float(np.max(np.abs(fa))))


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e4])
def test_a_scaled_pair_is_certified_in_either_order(c):
    # (c alpha, beta) is a contact pair for every c != 0, and every gate of
    # the certificate scales with c; its Reeb pair is (E_alpha / c, E_beta)
    model, alpha, beta, k, l = _pair("t6-pair-compatible")
    pts = _points(model, 2000, 17)
    cert = verify_contact_pair(alpha, beta, k, l, points=pts)
    ea, eb = cert.reeb_alpha_values, cert.reeb_beta_values
    scaled = verify_contact_pair(c * alpha, beta, k, l, points=pts)
    swapped = verify_contact_pair(beta, c * alpha, l, k, points=pts)
    for fa, fb in ((scaled.reeb_alpha_values, scaled.reeb_beta_values),
                   (swapped.reeb_beta_values, swapped.reeb_alpha_values)):
        assert np.max(np.abs(fa - ea / c)) <= 1e-12 * np.max(np.abs(ea / c))
        assert np.max(np.abs(fb - eb)) <= 1e-12 * np.max(np.abs(eb))


@pytest.mark.parametrize("right", SINGLE_FORMS)
@pytest.mark.parametrize("left", SINGLE_FORMS)
def test_a_product_pair_has_the_reeb_fields_of_its_factors(left, right):
    # on M1 x M2, E_alpha = (R_alpha, 0) and E_beta = (0, R_beta), with R
    # the single-form field of each factor at the projected points
    a, b = build_example(left), build_example(right)
    model, alpha, beta = product_contact_pair(a["model"], a["alpha"], b["model"], b["alpha"])
    pts = _points(model, 200, 17)
    ea, eb, residual = _formula(SampledPair.of(alpha, beta, pts), a["k"], b["k"])
    n1 = a["model"].n
    left_part, right_part = slice(None, n1), slice(n1, None)
    for form, own, field, other in ((a["alpha"], left_part, ea, eb), (b["alpha"], right_part, eb, ea)):
        part = pts[:, own]
        reeb = _form_reeb(form.model.n, form.values(part), form.d().values(part))[0]
        np.testing.assert_allclose(field[:, own], reeb, rtol=0, atol=1e-14)
        np.testing.assert_allclose(other[:, own], 0.0, rtol=0, atol=1e-14)
    assert float(np.max(residual)) <= 1e-14


def _closed_form_reeb(name, pts):
    """The Reeb field of a builtin contact form, by hand: d/dz for
    dz + sum x_i dy_i, (0, cos x0, sin x0) on the torus, and the frame
    vector e2 dual to the Heisenberg form e2*."""
    want = np.zeros_like(pts)
    if name == "torus-contact":
        want[:, 1], want[:, 2] = np.cos(pts[:, 0]), np.sin(pts[:, 0])
    else:
        want[:, -1] = 1.0
    return want


@pytest.mark.parametrize("name", SINGLE_FORMS)
def test_single_form_reeb_field_in_closed_form(name):
    alpha = build_example(name)["alpha"]
    pts = _points(alpha.model, 500, 18)
    reeb, volume, residual = _form_reeb(alpha.model.n, alpha.values(pts), alpha.d().values(pts))
    np.testing.assert_allclose(reeb, _closed_form_reeb(name, pts), rtol=0, atol=1e-15)
    assert np.all(np.abs(volume) > 0.5) and float(np.max(residual)) <= 1e-15


# --- the vol-dual -------------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_vol_dual_inverts_the_insertion_over_leading_axes(n):
    # volume (T, P) and c (T, P, n): i_X (v dx^0 ∧ .. ∧ dx^{n-1}) = c at
    # every (t, p), and negating the volume negates X bit for bit
    rng = np.random.default_rng(19 + n)
    volume = rng.uniform(0.5, 2.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    c = rng.standard_normal((3, 4, n))
    x = _vol_dual(volume, c)
    assert x.shape == c.shape and x.flags.c_contiguous
    for t in range(3):
        for p in range(4):
            top = FormValue(n, n, [volume[t, p]])
            np.testing.assert_allclose(interior(VectorValue(x[t, p]), top).coeffs, c[t, p], rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(_vol_dual(-volume, c), -x, strict=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.any(np.isfinite(_vol_dual(np.zeros(4), c[0])))


@pytest.mark.parametrize("n", range(1, 9))
def test_vol_dual_of_a_compact_numerator_keeps_the_dense_bits(n):
    # a chain factor that holds its live components alone gives the bits
    # of the dense formula, +0 / v for every component it does not hold
    # included: ±0 by the sign of v, and NaN where v is 0
    rng = np.random.default_rng(41 + n)
    volume = rng.uniform(0.5, 2.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    volume[0, 0] = 0.0
    live = tuple(int(i) for i in np.flatnonzero(rng.random(n) < 0.5))
    c = np.zeros((3, 4, n))
    c[..., live] = rng.standard_normal((3, 4, len(live)))
    want = np.empty_like(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(c[..., ::-1], volume[..., None], out=want)
        np.negative(want[..., 1::2], out=want[..., 1::2])
        got = _vol_dual(volume, (n - 1, np.ascontiguousarray(c[..., live].T).T, (live, 1.0)))
    assert got.flags.c_contiguous and np.array_equal(got.view(np.int64), want.view(np.int64))


# --- each sample reaches the formula once ------------------------------------------------------

def _family(name):
    if name == "t6-config":
        return load_config(ROOT / "configs" / "t6_explicit_family.json").families["fam"]
    return build_example(name)["family"]


def _count_samples(monkeypatch):
    """Record the sample count of each call of the Reeb formula, on every
    path that reads it."""
    calls = []
    real = contact._reeb_pair

    def counting(s, ch):
        calls.append(int(np.prod(s.rows[0].shape[1:])))
        return real(s, ch)

    monkeypatch.setattr(contact, "_reeb_pair", counting)
    monkeypatch.setattr(deformation, "_reeb_pair", counting)
    return calls


def _batches(t_count, points):
    return -(-t_count // _t_batch(points))


@pytest.mark.parametrize("task", ["forward", "converse", "sweep"])
@pytest.mark.parametrize("name", ["heisenberg6-pair", "t6-pair-compatible", "t6-pair-incompatible", "t6-config"])
def test_each_sample_of_a_verdict_reaches_the_formula_once(monkeypatch, name, task):
    # the base pair in one call, the t grid in one call per batch of t,
    # whether or not the pair passes at that t
    family = _family(name)
    pts = sample_points(family.model, np.random.default_rng(0), random_count=800)
    p = len(pts)
    calls = _count_samples(monkeypatch)
    if task == "forward":
        verify_forward(family, points=pts)
        grid, base = FORWARD_T_GRID, 1
    elif task == "converse":
        verify_converse(family, points=pts)
        grid, base = CONVERSE_T_GRID, 1
    else:
        sweep_rows(family, FORWARD_T_GRID, points=pts)
        grid, base = FORWARD_T_GRID, 0
    assert sum(calls) == (len(grid) + base) * p
    assert len(calls) == _batches(len(grid), p) + base
