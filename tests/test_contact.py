import numpy as np
import pytest

from contactpairs import contact
from contactpairs import expressions as ex
from contactpairs.contact import (
    ContactPairError,
    SampledPair,
    _Field,
    _form_reeb,
    _moved,
    _reeb_commutator,
    _reeb_directional,
    _reeb_pair,
    _sum,
    cartan_class,
    darboux_model,
    product_contact_pair,
    torus_contact,
    verify_contact_pair,
    verify_single_deformation,
)
from contactpairs.exterior import two_form_matrices
from contactpairs.fields import coframe, form_from_expressions
from contactpairs.models import (
    box_chart,
    grid_points,
    heisenberg3,
    random_points,
    torus,
)
from contactpairs.registry import build_example


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
    assert np.linalg.svd(cert.sampled.reeb_rows(), compute_uv=False)[:, -1].min() > 0.1
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
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    expect_a = np.zeros((pts.shape[0], 6))
    expect_a[:, 2] = 1.0  # d/dz of the left factor
    expect_b = np.zeros((pts.shape[0], 6))
    expect_b[:, 5] = 1.0
    np.testing.assert_allclose(cert.reeb_alpha_values, expect_a, atol=1e-8)
    np.testing.assert_allclose(cert.reeb_beta_values, expect_b, atol=1e-8)


def test_t6_reeb_fields_match_factors():
    model, alpha, beta = t6_pair()
    pts = random_points(model, 2000, np.random.default_rng(12))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    expect = np.zeros_like(cert.reeb_alpha_values)
    expect[:, 1] = np.cos(pts[:, 0])
    expect[:, 2] = np.sin(pts[:, 0])
    np.testing.assert_allclose(cert.reeb_alpha_values, expect, atol=1e-8)


def test_reeb_defining_relations_hold():
    model, alpha, beta = t6_pair()
    pts = random_points(model, 1000, np.random.default_rng(4))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    av = alpha.values(pts)
    bv = beta.values(pts)
    ea, eb = cert.reeb_alpha_values, cert.reeb_beta_values
    assert np.max(np.abs(np.einsum("pi,pi->p", av, ea) - 1.0)) < 1e-10
    assert np.max(np.abs(np.einsum("pi,pi->p", bv, eb) - 1.0)) < 1e-10
    assert np.max(np.abs(np.einsum("pi,pi->p", av, eb))) < 1e-10
    assert np.max(np.abs(np.einsum("pi,pi->p", bv, ea))) < 1e-10
    for d_form in (alpha.d(), beta.d()):
        mats = two_form_matrices(6, d_form.values(pts))
        for field in (ea, eb):
            assert np.max(np.abs(np.einsum("pi,pij->pj", field, mats))) < 1e-10


def test_reeb_uniqueness_by_perturbation():
    model, alpha, beta = heisenberg6()
    pts = grid_points(model)
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
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
    with pytest.raises(ContactPairError):
        verify_contact_pair(alpha, alpha, 0, 0)


# --- exact Reeb commutator ---------------------------------------------------

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
    model, alpha, beta = sheared_t6_pair()
    pts = random_points(model, 500, np.random.default_rng(15))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    # D_{E_alpha} E_beta alone, one of the two terms of the bracket
    s = SampledPair.of(alpha, beta, pts)
    one_term = _reeb_directional(s, s.chains(1, 1), cert.reeb_fields[1], _moved(s, cert.reeb_fields[:1])[0], 1)
    assert max(float(np.max(np.abs(row))) for row in one_term.values()) > 0.1
    assert cert.commutator_defect <= 1e-12


def _union_sum(a, b):
    """a + b of compact chain factors, each zero-filled and scattered onto
    the union of the live sets, whether or not they are one set."""
    live = tuple(sorted({*a[2][0], *b[2][0]}))
    placed = []
    for _, values, (comps, _) in (a, b):
        term = np.zeros(values.shape[:-1] + (len(live),))
        term[..., [live.index(c) for c in comps]] = values
        placed.append(term)
    return a[0], placed[0] + placed[1], (live, a[2][1] + b[2][1])


@pytest.mark.parametrize("live_b", [(0, 2, 5), (1, 2)])  # one live set, two
def test_sum_of_compact_factors_equals_the_union_sum_bit_for_bit(live_b):
    rng = np.random.default_rng(3)
    va, vb = rng.normal(size=(2, 7, 3)) * 1e3, rng.normal(size=(2, 7, len(live_b)))
    va[0, 0], vb[0, 0, 0] = [-0.0, np.inf, np.nan], -0.0
    a, b = (2, va, ((0, 2, 5), 1.5)), (2, vb, (live_b, 2.0))
    got, want = _sum(a, b), _union_sum(a, b)
    assert got[0] == want[0] and got[2] == want[2]
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("make", [t6_pair, sheared_t6_pair])
def test_reeb_commutator_equals_the_union_sums_bit_for_bit(monkeypatch, make):
    # every _sum of these pairs adds terms of one live set
    model, alpha, beta = make()
    pts = random_points(model, 300, np.random.default_rng(4))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    s = SampledPair.of(alpha, beta, pts)
    args = (s, s.chains(1, 1), *cert.reeb_fields)
    got = _reeb_commutator(*args)
    monkeypatch.setattr(contact, "_sum", _union_sum)
    assert got.tobytes() == _reeb_commutator(*args).tobytes()


def every_component_live(x: _Field) -> _Field:
    """The compact field x with every component live: no axis is outside
    its live set."""
    return _Field(x.n, tuple(range(x.n)), np.moveaxis(x.values(), -1, 0), x.volume)


@pytest.mark.parametrize("make", [t6_pair, sheared_t6_pair])
def test_skipping_the_axes_outside_a_reeb_field_changes_no_bit(monkeypatch, make):
    # X^a is ±0 off X's live set, so a D_X term along such an axis adds ±0;
    # without the skip every axis is read, as when the fields were dense
    model, alpha, beta = make()
    pts = random_points(model, 300, np.random.default_rng(4))
    s = SampledPair.of(alpha, beta, pts)
    args = (s, s.chains(1, 1), *verify_contact_pair(alpha, beta, 1, 1, points=pts).reeb_fields)
    got, defect = _reeb_commutator(*args), verify_contact_pair(alpha, beta, 1, 1, points=pts).commutator_defect
    monkeypatch.setattr(contact, "_moved", lambda s, fields: _moved(s, [every_component_live(x) for x in fields]))
    want = _reeb_commutator(*args)
    assert np.array_equal(got, want) and np.array_equal(np.abs(got), np.abs(want))
    assert verify_contact_pair(alpha, beta, 1, 1, points=pts).commutator_defect == defect


def test_no_d_x_factor_is_formed_on_a_product_pair(monkeypatch):
    # on t6-pair-compatible the live components of each Reeb field never
    # meet the one axis along which each form's partials run
    objs, formed = build_example("t6-pair-compatible"), []
    monkeypatch.setattr(contact, "_moved", lambda s, fields: formed.append(_moved(s, fields)) or formed[-1])
    verify_contact_pair(objs["alpha"], objs["beta"], 1, 1)
    assert formed == [[[None] * 4, [None] * 4]]


def test_single_form_reeb():
    _, alpha = torus_contact()
    pts = random_points(alpha.model, 500, np.random.default_rng(5))
    vals, volume, residual = _form_reeb(3, alpha.values(pts), alpha.d().values(pts))
    assert np.max(residual) < 1e-12
    np.testing.assert_allclose(volume, -1.0, atol=1e-12)
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
    report = verify_single_deformation(coframe(t3, 0), alpha, t_grid=[0.0, 1.0])
    assert report.per_t[0] == {"t": 0.0, "note": "closed form, class 0", "passed": None}
    assert report.condition_i
    # with no t > 0 left nothing is checked: an error, not a vacuous pass
    for grid in ([0.0], [-1.0, 0.0], []):
        with pytest.raises(ValueError, match="no t > 0"):
            verify_single_deformation(coframe(t3, 0), alpha, t_grid=grid)


def test_single_deformation_requires_closed():
    t3, alpha = torus_contact()
    not_closed = form_from_expressions(t3, 1, {1: "cos(x0)"})
    with pytest.raises(ValueError, match=r"^alpha0 is not closed \(max \|d alpha0\| = "):
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


def test_reeb_residual_check_fails_on_nan_rows():
    from contactpairs.contact import SampledPair, _certify, _peaks, _reeb_step

    model, alpha, beta = t6_pair()
    pts = random_points(model, 200, np.random.default_rng(7))
    s = SampledPair.of(alpha, beta, pts)
    arrays, chains = s.certificate_arrays(1, 1)
    # of the finite samples: only the residual's rows see the NaN
    (gated,), (ea, eb, residual) = _certify(s, 1, 1, 1e-6, arrays), _reeb_pair(s, chains)
    _reeb_step(s, gated, (ea, eb, _peaks(residual)[0]))
    s.rows[2][:, 17] = np.nan  # the live components of d alpha, so the rows of i_E d alpha, at point 17
    with np.errstate(invalid="ignore"):
        residual = _reeb_pair(s, chains)[2]
        with pytest.raises(ContactPairError) as err:
            _reeb_step(s, gated, (ea, eb, _peaks(residual)[0]))
    assert err.value.condition == "reeb-residual"
    assert err.value.witness["index"] == 17
