import numpy as np
import pytest

from contactpairs import expressions as ex
from contactpairs.contact import (
    ContactPairError,
    cartan_class,
    contact_reeb_field,
    darboux_model,
    least_squares_batch,
    product_contact_pair,
    reeb_pair,
    torus_contact,
    verify_contact_pair,
    verify_single_deformation,
)
from contactpairs.fields import coframe, form_from_expressions
from contactpairs.models import (
    box_chart,
    grid_points,
    heisenberg3,
    random_points,
    torus,
)


def heisenberg6():
    left = heisenberg3("hl")
    right = heisenberg3("hr")
    return product_contact_pair(left, coframe(left, 2), right, coframe(right, 2))


def t6_pair():
    left, alpha = torus_contact()
    right, beta = torus_contact()
    return product_contact_pair(left, alpha, right, beta)


def sheared_t6_pair():
    # t6_pair pulled back by the torus diffeomorphism x3 -> x3 + 0.3 sin(x1 + x4):
    # still a contact pair, but each Reeb field now varies along the other,
    # so D_{E_alpha} E_beta and D_{E_beta} E_alpha are nonzero and only
    # their difference vanishes
    model = torus(6)
    alpha = form_from_expressions(model, 1, {1: "cos(x0)", 2: "sin(x0)"})
    u = "x3 + 0.3*sin(x1 + x4)"
    beta = form_from_expressions(model, 1, {4: f"cos({u})", 5: f"sin({u})"})
    return model, alpha, beta


# --- cartan class ------------------------------------------------------------

def test_darboux_classes():
    model, alpha = darboux_model(1)
    report = cartan_class(alpha)
    assert report.k == 1 and report.constant
    assert report.min_nonvanishing == pytest.approx(1.0)
    assert report.max_residual == 0.0

    model2, alpha2 = darboux_model(2)
    report2 = cartan_class(alpha2)
    assert report2.k == 2 and report2.constant
    assert report2.min_nonvanishing == pytest.approx(2.0)  # |alpha ^ (d alpha)^2| = 2


def test_closed_form_has_class_zero():
    t3 = torus(3)
    assert cartan_class(coframe(t3, 0)).k == 0


def test_heisenberg_form_class():
    h = heisenberg3()
    assert cartan_class(coframe(h, 2)).k == 1


def test_torus_contact_class():
    _, alpha = torus_contact()
    report = cartan_class(alpha)
    assert report.k == 1 and report.constant


def test_vanishing_form_is_an_error():
    m = box_chart([(-1, 1), (-1, 1), (-1, 1)], resolution=9)
    alpha = form_from_expressions(m, 1, {1: "x0"})  # vanishes at x0 = 0
    with pytest.raises(ContactPairError) as err:
        cartan_class(alpha)
    assert err.value.condition == "nonvanishing"
    assert "point" in err.value.witness


def test_nonconstant_class_is_reported():
    # alpha = dz + (x^2/2) dy degenerates exactly on the x = 0 slice
    m = box_chart([(-1, 1), (-1, 1), (-1, 1)], resolution=9)
    alpha = form_from_expressions(m, 1, {1: "x0^2/2", 2: "1"})
    report = cartan_class(alpha)
    assert report.k is None
    assert not report.constant
    assert report.witnesses["low"]["pointwise_class"] != report.witnesses["high"]["pointwise_class"]


def test_cartan_class_rejects_higher_degree():
    t3 = torus(3)
    with pytest.raises(ValueError):
        cartan_class(coframe(t3, 0).wedge(coframe(t3, 1)))


# --- contact pairs -----------------------------------------------------------

def test_product_darboux_pair():
    m1, a1 = darboux_model(1)
    m2, a2 = darboux_model(1)
    model, alpha, beta = product_contact_pair(m1, a1, m2, a2)
    cert = verify_contact_pair(alpha, beta, 1, 1)
    assert (cert.k, cert.l) == (1, 1)
    assert cert.min_volume == pytest.approx(1.0)


def test_heisenberg6_pair_certificate():
    model, alpha, beta = heisenberg6()
    cert = verify_contact_pair(alpha, beta, 1, 1)
    assert cert.min_volume == pytest.approx(1.0)
    assert cert.orientation_sign == 1
    assert cert.commutator_defect == pytest.approx(0.0, abs=1e-14)
    assert cert.sigma_min > 0.1
    np.testing.assert_allclose(cert.reeb_alpha_values[0], [0, 0, 1, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(cert.reeb_beta_values[0], [0, 0, 0, 0, 0, 1], atol=1e-12)


def test_t2_type00_pair():
    t2 = torus(2)
    cert = verify_contact_pair(coframe(t2, 0), coframe(t2, 1), 0, 0)
    assert (cert.k, cert.l) == (0, 0)
    assert cert.min_volume == pytest.approx(1.0)


def test_dimension_mismatch():
    t2 = torus(2)
    with pytest.raises(ContactPairError) as err:
        verify_contact_pair(coframe(t2, 0), coframe(t2, 1), 1, 1)
    assert err.value.condition == "dimension"


def test_degenerate_pair_fails_with_witness():
    t2 = torus(2)
    with pytest.raises(ContactPairError) as err:
        verify_contact_pair(coframe(t2, 0), coframe(t2, 0), 0, 0)
    assert err.value.condition == "volume"
    assert "point" in err.value.witness


def test_mixed_product_pair():
    hl = heisenberg3("hl")
    tr, beta = torus_contact()
    model, a, b = product_contact_pair(hl, coframe(hl, 2), tr, beta)
    cert = verify_contact_pair(a, b, 1, 1)
    assert cert.min_volume == pytest.approx(1.0)


def test_product_factor_class_check():
    t3 = torus(3)
    m1, a1 = darboux_model(1)
    with pytest.raises(ContactPairError) as err:
        product_contact_pair(m1, a1, t3, coframe(t3, 0))  # closed form, class 0
    assert err.value.condition == "beta-class"


# --- Reeb pairs --------------------------------------------------------------

def test_product_reeb_fields_match_factors():
    m1, a1 = darboux_model(1)
    m2, a2 = darboux_model(1)
    model, alpha, beta = product_contact_pair(m1, a1, m2, a2)
    pts = grid_points(model, resolution=4)
    ea, eb = reeb_pair(alpha, beta, points=pts)
    expect_a = np.zeros((pts.shape[0], 6))
    expect_a[:, 2] = 1.0  # d/dz of the left factor
    expect_b = np.zeros((pts.shape[0], 6))
    expect_b[:, 5] = 1.0
    np.testing.assert_allclose(ea.values(pts), expect_a, atol=1e-8)
    np.testing.assert_allclose(eb.values(pts), expect_b, atol=1e-8)


def test_t6_reeb_fields_match_factors():
    model, alpha, beta = t6_pair()
    pts = random_points(model, 2000, np.random.default_rng(12))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts, check_commutator=False)
    expect = np.zeros_like(cert.reeb_alpha_values)
    expect[:, 1] = np.cos(pts[:, 0])
    expect[:, 2] = np.sin(pts[:, 0])
    np.testing.assert_allclose(cert.reeb_alpha_values, expect, atol=1e-8)


def test_reeb_defining_relations_hold():
    model, alpha, beta = t6_pair()
    pts = random_points(model, 1000, np.random.default_rng(4))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts, check_commutator=False)
    av = alpha.values(pts)
    bv = beta.values(pts)
    ea, eb = cert.reeb_alpha_values, cert.reeb_beta_values
    assert np.max(np.abs(np.einsum("pi,pi->p", av, ea) - 1.0)) < 1e-10
    assert np.max(np.abs(np.einsum("pi,pi->p", bv, eb) - 1.0)) < 1e-10
    assert np.max(np.abs(np.einsum("pi,pi->p", av, eb))) < 1e-10
    assert np.max(np.abs(np.einsum("pi,pi->p", bv, ea))) < 1e-10
    from contactpairs.exterior import two_form_matrices

    for d_form in (alpha.d(), beta.d()):
        mats = two_form_matrices(6, d_form.values(pts))
        for field in (ea, eb):
            assert np.max(np.abs(np.einsum("pi,pij->pj", field, mats))) < 1e-10


def test_reeb_uniqueness_by_perturbation():
    model, alpha, beta = heisenberg6()
    pts = grid_points(model)
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    from contactpairs.contact import SampledPair

    rows = SampledPair.of(alpha, beta, pts).reeb_rows()[0]
    b = np.zeros(rows.shape[0])
    b[0] = 1.0
    base = np.max(np.abs(rows @ cert.reeb_alpha_values[0] - b))
    rng = np.random.default_rng(0)
    for _ in range(15):
        delta = rng.standard_normal(6) * 0.01
        perturbed = np.max(np.abs(rows @ (cert.reeb_alpha_values[0] + delta) - b))
        assert perturbed > base + 1e-6


def test_reeb_pair_on_non_pair_raises():
    t2 = torus(2)
    alpha = coframe(t2, 0)
    beta = form_from_expressions(t2, 1, {0: "1", 1: "x0*0 + 1"})  # alpha ^ beta has rank issues
    with pytest.raises(ContactPairError):
        reeb_pair(alpha, alpha)


def test_reeb_pair_on_sheared_pair_matches_certificate():
    model, alpha, beta = sheared_t6_pair()
    pts = random_points(model, 1000, np.random.default_rng(8))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts, check_commutator=False)
    ea, eb = reeb_pair(alpha, beta, points=pts)
    np.testing.assert_allclose(ea.values(pts), cert.reeb_alpha_values, atol=1e-12)
    np.testing.assert_allclose(eb.values(pts), cert.reeb_beta_values, atol=1e-12)


# --- exact Reeb commutator ---------------------------------------------------

@pytest.mark.parametrize("pair", [t6_pair, sheared_t6_pair])
def test_implicit_reeb_derivative_matches_central_differences(pair):
    from contactpairs.contact import SampledPair, _reeb_rows_partial

    model, alpha, beta = pair()
    pts = random_points(model, 500, np.random.default_rng(9))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts, check_commutator=False)
    rows = SampledPair.of(alpha, beta, pts).reeb_rows()
    forms = (alpha, beta, alpha.d(), beta.d())
    h = 1e-5
    for axis in model.coordinate_axes:
        shift = np.zeros(model.n)
        shift[axis] = h
        for values, field in (
            (cert.reeb_alpha_values, cert.reeb_alpha),
            (cert.reeb_beta_values, cert.reeb_beta),
        ):
            # d_a E = -(A^T A)^-1 A^T (d_a A) E
            w = _reeb_rows_partial(forms, axis, pts, values)
            exact = np.zeros_like(values)
            if w is not None:
                exact = -least_squares_batch(rows, w[:, :, None])[0][..., 0]
            central = (field.values(pts + shift) - field.values(pts - shift)) / (2.0 * h)
            np.testing.assert_allclose(exact, central, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("name", ["t6", "sheared-t6", "heisenberg6", "heisenberg3xT3"])
def test_commutator_defect_is_exact(name):
    if name in ("t6", "sheared-t6"):
        model, alpha, beta = t6_pair() if name == "t6" else sheared_t6_pair()
        pts = random_points(model, 2000, np.random.default_rng(10))
    elif name == "heisenberg6":
        model, alpha, beta = heisenberg6()
        pts = None
    else:
        hl = heisenberg3("hl")
        tr, form = torus_contact()
        model, alpha, beta = product_contact_pair(hl, coframe(hl, 2), tr, form)
        pts = None
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    assert cert.commutator_defect <= 1e-12


def test_commutator_terms_cancel_only_in_the_bracket():
    from contactpairs.contact import SampledPair, _reeb_rows_partial

    model, alpha, beta = sheared_t6_pair()
    pts = random_points(model, 500, np.random.default_rng(15))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    ea, eb = cert.reeb_alpha_values, cert.reeb_beta_values
    rows = SampledPair.of(alpha, beta, pts).reeb_rows()
    forms = (alpha, beta, alpha.d(), beta.d())
    # D_{E_alpha} E_beta alone, one of the two terms of the bracket
    parts = [_reeb_rows_partial(forms, a, pts, ea[:, a : a + 1] * eb) for a in model.coordinate_axes]
    w = sum(p for p in parts if p is not None)
    one_term = least_squares_batch(rows, w[:, :, None])[0]
    assert np.max(np.abs(one_term)) > 0.1
    assert cert.commutator_defect <= 1e-12


# --- rank check on the Reeb least squares ------------------------------------

def _batch_with_singular_values(count, sigma, rng):
    """count 14x6 matrices U diag(sigma) V^T with random orthonormal U, V."""
    u, _ = np.linalg.qr(rng.standard_normal((count, 14, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((count, 6, 6)))
    return (u * np.asarray(sigma)) @ np.swapaxes(v, 1, 2)


def test_rank_check_sees_exact_rank_deficiency():
    # exactly rank 5: the square root of the Gram spectrum put sigma ratios
    # up to ~2e-8 on such systems, above the 1e-8 Lie-backend threshold
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2000, 14, 5)) @ rng.standard_normal((2000, 5, 6))
    _, _, sigma_min, sigma_max = least_squares_batch(a, np.eye(14, 2), compute_sigma=True)
    assert np.all(sigma_min <= 1e-8 * sigma_max)
    assert np.max(sigma_min / sigma_max) < 1e-13


@pytest.mark.parametrize("smallest", [1e-10, 0.1])
def test_rank_check_resolves_smallest_singular_value(smallest):
    rng = np.random.default_rng(12)
    a = _batch_with_singular_values(2000, [3.0, 2.0, 1.5, 1.0, 0.5, smallest], rng)
    _, _, sigma_min, sigma_max = least_squares_batch(a, np.eye(14, 2), compute_sigma=True)
    np.testing.assert_allclose(sigma_min, smallest, rtol=1e-4)
    np.testing.assert_allclose(sigma_max, 3.0, rtol=1e-12)
    assert np.all((sigma_min <= 1e-8 * sigma_max) == (smallest < 1e-8))


def test_least_squares_per_system_right_hand_sides():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((50, 14, 6))
    x = rng.standard_normal((50, 6, 1))
    got, residual, _, _ = least_squares_batch(a, a @ x)
    np.testing.assert_allclose(got, x, atol=1e-12)
    assert np.max(residual) < 1e-12


def test_single_form_reeb():
    _, alpha = torus_contact()
    z = contact_reeb_field(alpha)
    pts = random_points(alpha.model, 500, np.random.default_rng(5))
    vals = z.values(pts)
    expect = np.stack([np.zeros(500), np.cos(pts[:, 0]), np.sin(pts[:, 0])], axis=1)
    np.testing.assert_allclose(vals, expect, atol=1e-10)


# --- single-form deformation criterion ----------------------------------------

def test_single_deformation_compatible():
    t3, alpha = torus_contact()
    report = verify_single_deformation(coframe(t3, 0), alpha)
    assert report.condition_i and report.condition_ii and report.agreement
    assert report.pairing_defect < 1e-10


def test_single_deformation_incompatible_exhibits_t():
    t3, alpha = torus_contact()
    report = verify_single_deformation(coframe(t3, 1), alpha)
    assert not report.condition_ii
    assert not report.condition_i
    assert report.agreement  # both directions fail together
    assert report.pairing_defect == pytest.approx(1.0, abs=1e-8)
    w = report.witness["condition_i"]
    assert w["t"] > 0
    # the volume coefficient -t(t + cos(x0)) changes sign at that t
    assert w["negative"]["value"] < 0 < w["positive"]["value"]


def test_single_deformation_t_zero_grid():
    t3, alpha = torus_contact()
    report = verify_single_deformation(coframe(t3, 0), alpha, t_grid=[0.0])
    assert report.per_t[0]["t"] == 0.0
    assert report.condition_i  # vacuous: no positive t failed


def test_single_deformation_requires_closed():
    t3, alpha = torus_contact()
    not_closed = form_from_expressions(t3, 1, {1: "cos(x0)"})
    with pytest.raises(ContactPairError):
        verify_single_deformation(not_closed, alpha)


def test_orientation_sign_is_constant():
    _, alpha = torus_contact()
    model = alpha.model
    # alpha ^ d alpha = -dx0^dx1^dx2 for the torus contact form
    from contactpairs.exterior import wedge_values

    pts = random_points(model, 200, np.random.default_rng(6))
    av = alpha.values(pts)
    dav = alpha.d().values(pts)
    vol = wedge_values(3, 1, 2, av, dav)[:, 0]
    assert np.all(vol < 0)
    np.testing.assert_allclose(vol, -1.0, atol=1e-12)


# --- component-major Reeb rows and row maxima ----------------------------------------

@pytest.mark.parametrize("make", [t6_pair, heisenberg6])
def test_reeb_rows_equal_the_stacked_matrix_rows(make):
    from contactpairs.contact import SampledPair
    from contactpairs.exterior import two_form_matrices

    model, alpha, beta = make()
    pts = random_points(model, 500, np.random.default_rng(5))
    s = SampledPair.of(alpha, beta, pts)
    contractions = [np.swapaxes(two_form_matrices(6, d), 1, 2) for d in (s.dalpha, s.dbeta)]
    want = np.concatenate([s.alpha[:, None, :], s.beta[:, None, :], *contractions], axis=1)
    got = s.reeb_rows()
    assert got.shape == (pts.shape[0], 14, 6) and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_row_maxima_equal_np_max_and_propagate_nan_and_inf():
    from contactpairs.contact import _norm_inf_rows

    rng = np.random.default_rng(6)
    values = rng.standard_normal((50, 14, 2))
    assert np.array_equal(_norm_inf_rows(values, axis=1), np.max(np.abs(values), axis=1))
    assert np.array_equal(_norm_inf_rows(values[:, :, 0]), np.max(np.abs(values[:, :, 0]), axis=-1))
    assert np.array_equal(_norm_inf_rows(np.zeros((4, 0))), np.zeros(4))
    rows = np.ones((3, 5))
    rows[0, 2] = np.nan
    rows[1, 4] = -np.inf
    rows[2, 0] = np.nan  # NaN first: later finite values must not replace it
    norms = _norm_inf_rows(rows)
    assert np.isnan(norms[0]) and norms[1] == np.inf and np.isnan(norms[2])


def test_reeb_residual_check_fails_on_nan_rows():
    from contactpairs.contact import SampledPair, _checked_reeb

    model, alpha, beta = t6_pair()
    pts = random_points(model, 200, np.random.default_rng(7))
    rows = SampledPair.of(alpha, beta, pts).reeb_rows()
    _checked_reeb(rows, pts, 1e-6, 1.0, False)
    rows[17, 3, :] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(ContactPairError) as err:
            _checked_reeb(rows, pts, 1e-6, 1.0, False)
    assert err.value.condition == "reeb-residual"
    assert err.value.witness["index"] == 17
