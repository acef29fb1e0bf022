import json
from pathlib import Path

import numpy as np
import pytest

from contactpairs import expressions as ex
from contactpairs import models
from contactpairs.config import parse_config
from contactpairs.contact import SampledPair, product_contact_pair, torus_contact, verify_contact_pair
from contactpairs.deformation import (
    CONVERSE_T_GRID,
    CheckItem,
    FORWARD_T_GRID,
    DeformationFamily,
    PairSamples,
    SampledFamily,
    TheoremVerdict,
    stokes_integrals,
    sweep_rows,
    verify_converse,
    verify_forward,
    volume_identity_defect,
    volume_polynomial,
)
from contactpairs.exterior import _BLOCK
from contactpairs.fields import FormField, coframe, constant_form, form_from_expressions, pullback_form
from contactpairs.models import (
    box_chart,
    default_tolerance,
    heisenberg3,
    integrate,
    integration_points,
    random_points,
    sample_points,
    torus,
)
from contactpairs.registry import build_example


CLOSED_H6_AXES = (0, 1, 3, 4)  # invariant closed coframe directions of h3 x h3


def heisenberg6_family():
    left = heisenberg3("hl")
    right = heisenberg3("hr")
    model, alpha, beta = product_contact_pair(left, coframe(left, 2), right, coframe(right, 2))
    alpha0 = pullback_form(model, coframe(left, 0), "left")
    beta0 = pullback_form(model, coframe(right, 0), "right")
    return DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)


def t6_family(closed_axis_left=0):
    left, a = torus_contact()
    right, b = torus_contact()
    model, alpha, beta = product_contact_pair(left, a, right, b)
    alpha0 = pullback_form(model, coframe(left, closed_axis_left), "left")
    beta0 = pullback_form(model, coframe(right, 0), "right")
    return DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)


@pytest.fixture(scope="module")
def t6_points():
    fam = t6_family()
    return random_points(fam.model, 4000, np.random.default_rng(100))


# --- the family's premises are decided by the verdict that samples it ----------

SAMPLING_VERDICTS = (verify_forward, verify_converse, lambda fam: sweep_rows(fam, CONVERSE_T_GRID))


@pytest.mark.parametrize("verdict", SAMPLING_VERDICTS, ids=["forward", "converse", "sweep"])
def test_family_requires_closed_forms(verdict):
    left, a = torus_contact()
    right, b = torus_contact()
    model, alpha, beta = product_contact_pair(left, a, right, b)
    fam = DeformationFamily(alpha, pullback_form(model, coframe(right, 0), "right"), alpha, beta, 1, 1)
    with pytest.raises(ValueError, match=r"^alpha0 is not closed \(max \|d alpha0\| = 1\.000e\+00\)$"):
        verdict(fam)


@pytest.mark.parametrize("verdict", SAMPLING_VERDICTS, ids=["forward", "converse", "sweep"])
def test_family_requires_independence(verdict):
    fam = heisenberg6_family()
    fam = DeformationFamily(fam.alpha0, fam.alpha0, fam.alpha, fam.beta, 1, 1)
    with pytest.raises(ValueError, match="^alpha0 and beta0 are linearly dependent at sample point"):
        verdict(fam)


def test_family_type_must_fit_the_model():
    # the t grid's certificate arrays are formed for the declared type
    fam = heisenberg6_family()
    with pytest.raises(ValueError, match=r"^type \(2,1\) needs dimension 8, model has 6$"):
        DeformationFamily(fam.alpha0, fam.beta0, fam.alpha, fam.beta, 2, 1)


def test_family_at_is_linear():
    fam = heisenberg6_family()
    pts = np.zeros((1, 6))
    a0 = fam.at(0.0)[0].values(pts)
    a1 = fam.at(1.0)[0].values(pts)
    a2 = fam.at(2.0)[0].values(pts)
    a3 = fam.at(3.0)[0].values(pts)
    np.testing.assert_allclose(a1 + a2 - a0, a3, atol=1e-14)
    np.testing.assert_allclose(a0, fam.alpha0.values(pts), atol=0)


# --- volume polynomial ----------------------------------------------------------

def test_volume_polynomial_heisenberg():
    vp = volume_polynomial(heisenberg6_family())
    assert vp.quad_range == (1.0, 1.0)
    assert vp.lin_range == (0.0, 0.0)
    assert vp.max_abs_const == 0.0


def test_volume_polynomial_t6_compatible(t6_points):
    fam = t6_family()
    vp = volume_polynomial(fam, points=t6_points)
    np.testing.assert_allclose(vp.quad, 1.0, atol=1e-12)
    np.testing.assert_allclose(vp.lin, 0.0, atol=1e-12)
    assert vp.max_abs_const == 0.0


def test_volume_polynomial_t6_incompatible(t6_points):
    fam = t6_family(1)
    vp = volume_polynomial(fam, points=t6_points)
    # the linear coefficient is the left-factor cos(x0), not constant
    np.testing.assert_allclose(vp.lin, np.cos(t6_points[:, 0]), atol=1e-12)
    assert vp.max_abs_const == 0.0


def test_identity_defect_random_invariant_families():
    rng = np.random.default_rng(2024)
    left = heisenberg3("hl")
    right = heisenberg3("hr")
    model, _, _ = product_contact_pair(left, coframe(left, 2), right, coframe(right, 2))
    t_values = np.linspace(-10.0, 10.0, 8)
    for _ in range(3):
        while True:
            closed = np.zeros((2, 6))
            for row in closed:
                row[list(CLOSED_H6_AXES)] = rng.standard_normal(4)
            alpha0 = constant_form(model, 1, closed[0])
            beta0 = constant_form(model, 1, closed[1])
            alpha = constant_form(model, 1, rng.standard_normal(6))
            beta = constant_form(model, 1, rng.standard_normal(6))
            try:
                fam = DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)
                break
            except ValueError:
                continue
        assert volume_identity_defect(fam, t_values) < 1e-12


def test_identity_defect_chart(t6_points):
    t_values = np.linspace(-10.0, 10.0, 8)
    assert volume_identity_defect(t6_family(), t_values, points=t6_points) < 1e-10
    assert volume_identity_defect(t6_family(1), t_values, points=t6_points) < 1e-10


def test_identity_defect_at_t_zero():
    # k + l >= 1 kills both sides at t = 0
    fam = heisenberg6_family()
    assert volume_identity_defect(fam, [0.0]) == 0.0


def test_identity_defect_forms_its_t_in_batches(monkeypatch, t6_points):
    # one Lie point takes the whole grid in one batch; 2049 chart points
    # take one t per batch; both read as the identity at each t alone
    t_values = [-10.0, -0.5, 0.01, 3.0]
    for fam, pts, shapes_want in (
        (heisenberg6_family(), None, [(4, 1, 1)]),
        (t6_family(1), random_points(t6_family(1).model, 2049, np.random.default_rng(2)), [(1, 1, 1)] * 4),
    ):
        shapes, real_at = [], SampledFamily.at
        monkeypatch.setattr(SampledFamily, "at", lambda self, t: shapes.append(np.shape(t)) or real_at(self, t))
        got = volume_identity_defect(fam, t_values, points=pts)
        monkeypatch.undo()
        assert shapes == shapes_want
        worst = max(volume_identity_defect(fam, [t], points=pts) for t in t_values)
        assert got <= worst * (1 + 1e-12) and got < 1e-10


@pytest.mark.parametrize("t", [1e120, 1e200])
def test_identity_defect_of_an_overflowing_t_is_not_finite(t):
    # at 1e120 both sides overflow (inf - inf is NaN), at 1e200 t^(k+l)
    # does; either way the defect shows the overflow, never a pass of 0.0
    fam = build_example("heisenberg6-pair")["family"]
    for grid in ([t], [1.0, t], [t, 1.0]):
        defect = volume_identity_defect(fam, grid)
        assert not np.isfinite(defect), grid


# --- wedge insertion identities -------------------------------------------------

def test_replacement_identities_trivial_cases():
    fam = heisenberg6_family()
    cert = verify_contact_pair(fam.alpha, fam.beta, 1, 1)
    ctx = PairSamples(cert)
    # w = alpha: both sides coincide since alpha(E_alpha) = 1
    d1, d2 = ctx.replacement_defects(fam.alpha)
    assert d1 < 1e-14 and d2 < 1e-14
    # w = beta: beta(E_alpha) = 0 and the left side repeats a factor
    d1, d2 = ctx.replacement_defects(fam.beta)
    assert d1 < 1e-14 and d2 < 1e-14


def test_replacement_identities_random(t6_points):
    rng = np.random.default_rng(77)
    fam_h = heisenberg6_family()
    cert_h = verify_contact_pair(fam_h.alpha, fam_h.beta, 1, 1)
    ctx_h = PairSamples(cert_h)
    fam_t = t6_family()
    cert_t = verify_contact_pair(fam_t.alpha, fam_t.beta, 1, 1, points=t6_points)
    ctx_t = PairSamples(cert_t)
    for _ in range(25):
        w = rng.standard_normal(6)
        d1, d2 = ctx_h.replacement_defects(w)
        assert max(d1, d2) < 1e-12
        d1, d2 = ctx_t.replacement_defects(w)
        assert max(d1, d2) < 1e-10


def test_transverse_identity(t6_points):
    fam = heisenberg6_family()
    cert = verify_contact_pair(fam.alpha, fam.beta, 1, 1)
    ctx = PairSamples(cert)
    # hypothesis case: alpha annihilates E_beta already
    assert ctx.transverse_defect(fam.alpha, fam.alpha) < 1e-14
    rng = np.random.default_rng(78)
    for _ in range(25):
        w, wb = rng.standard_normal(6), rng.standard_normal(6)
        assert ctx.transverse_defect(w, wb) < 1e-12
    # dropping the projection breaks the identity: w = beta pairs to 1 with E_beta
    unprojected = ctx.transverse_defect(fam.beta, fam.alpha, project=False)
    assert unprojected == pytest.approx(1.0, abs=1e-12)  # equals |quad coefficient|


def test_transverse_identity_chart(t6_points):
    fam = t6_family()
    cert = verify_contact_pair(fam.alpha, fam.beta, 1, 1, points=t6_points)
    ctx = PairSamples(cert)
    rng = np.random.default_rng(79)
    for _ in range(25):
        assert ctx.transverse_defect(rng.standard_normal(6), rng.standard_normal(6)) < 1e-10


# --- forward ---------------------------------------------------------------------

def test_forward_heisenberg_all_t():
    verdict = verify_forward(heisenberg6_family(), t_grid=[-2, -1, -0.5, -0.1, -0.01, 0.01, 0.1, 0.5, 1, 2])
    assert verdict.overall == "pass"
    assert all(i.passed for i in verdict.hypotheses)
    assert all(i.passed for i in verdict.conclusions)


def test_forward_t6_compatible(t6_points):
    verdict = verify_forward(t6_family(), points=t6_points)
    assert verdict.overall == "pass"


def test_forward_incompatible_is_not_applicable(t6_points):
    verdict = verify_forward(t6_family(1), points=t6_points)
    assert verdict.overall == "not applicable"
    failed = [i for i in verdict.hypotheses if i.passed is False]
    assert [i.name for i in failed] == ["compatibility alpha0(E_alpha)=0"]
    assert abs(failed[0].witness["point"][0] % (2 * np.pi)) < 1.0 or True
    assert failed[0].defect == pytest.approx(1.0, abs=1e-3)


def test_forward_flags_exactly_the_broken_pairing(t6_points):
    # beta0 = dx1 on the right factor breaks only beta0(E_beta)
    left, a = torus_contact()
    right, b = torus_contact()
    model, alpha, beta = product_contact_pair(left, a, right, b)
    alpha0 = pullback_form(model, coframe(left, 0), "left")
    beta0 = pullback_form(model, coframe(right, 1), "right")
    fam = DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)
    verdict = verify_forward(fam, points=t6_points)
    failed = [i.name for i in verdict.hypotheses if i.passed is False]
    assert failed == ["compatibility beta0(E_beta)=0"]


def test_forward_verdict_serialization(t6_points):
    verdict = verify_forward(t6_family(), points=t6_points)
    d = verdict.to_dict()
    assert d["direction"] == "forward"
    assert d["overall"] == "pass"
    assert {i["name"] for i in d["hypotheses"]} >= {"(alpha,beta) is a contact pair"}


# --- converse ---------------------------------------------------------------------

def test_converse_heisenberg():
    verdict = verify_converse(heisenberg6_family())
    assert verdict.overall == "pass"
    by_name = {i.name: i for i in verdict.conclusions}
    assert by_name["constant volume coefficient vanishes pointwise"].defect == 0.0
    assert by_name["linear volume coefficient vanishes pointwise"].defect == 0.0


def test_converse_t6_compatible(t6_points):
    verdict = verify_converse(t6_family(), points=t6_points)
    assert verdict.overall == "pass"
    scaling = [i for i in verdict.hypotheses if "constant across t" in i.name][0]
    assert scaling.defect < 1e-6


def test_converse_incompatible_small_t_witness(t6_points):
    verdict = verify_converse(t6_family(1), points=t6_points)
    assert verdict.overall == "not applicable"
    failed = [i for i in verdict.hypotheses if i.passed is False]
    assert failed, "small t must fail the contact-pair hypothesis"
    assert "t=0.01" in failed[0].name
    assert failed[0].witness["condition"] in ("volume", "orientation")


def test_converse_rejects_nonpositive_grid():
    with pytest.raises(ValueError):
        verify_converse(heisenberg6_family(), t_grid=[-1.0, 1.0])


def test_default_converse_grid_spans_two_orders():
    assert min(CONVERSE_T_GRID) > 0
    assert max(CONVERSE_T_GRID) / min(CONVERSE_T_GRID) >= 100.0
    assert len(CONVERSE_T_GRID) >= 4


# --- quadrature checks --------------------------------------------------------------

def test_stokes_integrals_vanish(t6_points):
    fam = t6_family()
    i1, i2 = stokes_integrals(fam)
    assert i1 < 1e-8 and i2 < 1e-8
    # independence from compatibility: the incompatible family integrates to zero too
    fam_i = t6_family(1)
    j1, j2 = stokes_integrals(fam_i)
    assert j1 < 1e-8 and j2 < 1e-8


def test_stokes_integrals_heisenberg_exact():
    i1, i2 = stokes_integrals(heisenberg6_family())
    assert i1 == 0.0 and i2 == 0.0


ROOT = Path(__file__).resolve().parent.parent
# closed forms with coefficients that are not constant: the family mentions
# x0, x1, x3 and x5 of T^3 x T^3
NONCONSTANT_CLOSED = {"alpha0_l": {"0": "1", "1": "0.5*cos(x1)"}, "beta0_r": {"0": "1", "2": "0.25*sin(x2)"}}


def _t6_config_family(coefficients=None):
    doc = json.loads((ROOT / "configs/t6_explicit_family.json").read_text(encoding="utf-8"))
    for form, coeffs in (coefficients or {}).items():
        doc["forms"][form]["coefficients"] = coeffs
    return parse_config(doc).families["fam"]


def _five_axes_family():
    """A family on T^3 x T^3 whose forms mention every axis but x5, with an
    alpha0 that is not closed, so that its first integral is not 0."""
    left, a = torus_contact()
    right, b = torus_contact()
    model, alpha, beta = product_contact_pair(left, a, right, b)
    alpha0 = form_from_expressions(left, 1, {0: "1", 1: "cos(x0)*(1 + 0.5*sin(x2))", 2: "0.2*cos(x1)"})
    beta0 = form_from_expressions(right, 1, {0: "1", 1: "0.25*sin(x1)"})
    return DeformationFamily(
        pullback_form(model, alpha0, "left"), pullback_form(model, beta0, "right"), alpha, beta, 1, 1
    )


def _symbolic_integral(model, integrand: FormField) -> float:
    """The quadrature sum of an expression-tree top form over every node."""
    pts, weight = integration_points(model)
    return float(np.sum(integrand.values(pts)[:, 0]) * weight)


def _symbolic_stokes(family) -> tuple[float, float]:
    """Both integrands of ``stokes_integrals`` wedged as expression trees and
    summed over the full tensor grid: the reference for its sample route."""
    k, l = family.k, family.l
    dalpha, dbeta = family.alpha.d(), family.beta.d()

    def integrand(w, v):
        out = w
        for factor in [dalpha] * k + [v] + [dbeta] * l:
            out = out.wedge(factor)
        return out

    first = integrand(family.alpha0, family.beta)
    second = integrand(family.alpha, family.beta0)
    return tuple(abs(_symbolic_integral(family.model, f)) for f in (first, second))


STOKES_CASES = {
    "heisenberg6-pair": lambda: build_example("heisenberg6-pair")["family"],
    "t6-pair-compatible": lambda: build_example("t6-pair-compatible")["family"],
    "t6-pair-incompatible": lambda: build_example("t6-pair-incompatible")["family"],
    "t6-config": _t6_config_family,
    "t6-config-nonconstant-closed": lambda: _t6_config_family(NONCONSTANT_CLOSED),
    "five-axes": _five_axes_family,
}


@pytest.mark.parametrize("case", STOKES_CASES)
def test_stokes_integrals_equal_the_symbolic_full_grid_sum(case):
    family = STOKES_CASES[case]()
    got, want = stokes_integrals(family), _symbolic_stokes(family)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10 * max(1.0, w)
    if case == "five-axes":  # a reference that is not 0
        assert want[0] > 1.0


def _quadrature_points(monkeypatch, family) -> list:
    """The point arrays on which ``stokes_integrals`` samples (alpha, beta)."""
    seen, of = [], SampledPair.of.__func__

    def recording(cls, alpha, beta, points):
        if alpha is family.alpha:
            seen.append(np.array(points))
        return of(cls, alpha, beta, points)

    monkeypatch.setattr(SampledPair, "of", classmethod(recording))
    stokes_integrals(family)
    return seen


@pytest.mark.parametrize("case, mentioned, nodes", [
    ("t6-pair-compatible", (0, 3), 64),
    ("t6-pair-incompatible", (0, 3), 64),
    ("t6-config-nonconstant-closed", (0, 1, 3, 5), 8**4),
    ("five-axes", (0, 1, 2, 3, 4), 8**5),
])
def test_stokes_integrals_sample_the_mentioned_axes_only(monkeypatch, case, mentioned, nodes):
    family = STOKES_CASES[case]()
    pts = np.concatenate(_quadrature_points(monkeypatch, family))
    assert pts.shape == (nodes, 6)
    held = [i for i in range(6) if i not in mentioned]
    assert np.all(pts[:, held] == 0.0)  # the first node of a periodic axis
    assert all(len(np.unique(pts[:, i])) == 8 for i in mentioned)


@pytest.mark.parametrize("case, blocks", [
    ("t6-pair-compatible", 1),  # 8 first-axis nodes of 8 points each
    ("t6-config-nonconstant-closed", 1),  # 8 of 8^3 points
    ("five-axes", 8),  # 8 of 8^4 points: one node per block of 4096
])
def test_quadrature_takes_first_axis_nodes_in_blocks(monkeypatch, case, blocks):
    family = STOKES_CASES[case]()
    arrays = _quadrature_points(monkeypatch, family)
    assert len(arrays) == blocks
    assert all(len(a) <= _BLOCK for a in arrays)
    # one first-axis node at a time concatenates the same values in the same
    # order, so the sums keep their bits
    got = stokes_integrals(family)
    monkeypatch.setattr(models, "_per_block", lambda points: 1)
    assert len(_quadrature_points(monkeypatch, family)) == 8
    assert stokes_integrals(family) == got


def test_integrate_on_a_box_chart_with_an_unmentioned_axis():
    model = box_chart([(-1.0, 2.0), (0.0, 1.0), (0.5, 3.0)], resolution=6)
    alpha = form_from_expressions(model, 1, {0: "cos(x1)", 2: "x0*x0 + x1"})
    top = alpha.wedge(alpha.d())
    assert 2 not in set().union(*(ex.variables_of(c) for c in top.coeffs))
    want = _symbolic_integral(model, top)
    assert abs(want) > 1.0
    assert abs(integrate(model, top) - want) <= 1e-12 * abs(want)


def test_stokes_requires_closed_model():
    from contactpairs.contact import darboux_model

    m1, a1 = darboux_model(1)
    m2, a2 = darboux_model(1)
    model, alpha, beta = product_contact_pair(m1, a1, m2, a2)
    alpha0 = pullback_form(model, coframe(m1, 2), "left")
    beta0 = pullback_form(model, coframe(m2, 2), "right")
    fam = DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)
    with pytest.raises(ValueError, match="closed"):
        stokes_integrals(fam)


def test_stokes_requires_type_one_one():
    t2 = torus(2)
    fam = DeformationFamily(coframe(t2, 0), coframe(t2, 1), coframe(t2, 1), coframe(t2, 0), 0, 0)
    with pytest.raises(ValueError, match="type"):
        stokes_integrals(fam)


# --- sweep -----------------------------------------------------------------------

def test_sweep_rows(t6_points):
    fam = t6_family(1)
    rows = sweep_rows(fam, [0.01, 0.1, 10.0], points=t6_points)
    assert [r["t"] for r in rows] == [0.01, 0.1, 10.0]
    # small t: the signed volume coefficient straddles zero for the broken family
    assert rows[0]["min_volume_coeff"] < 0 < rows[0]["max_volume_coeff"]
    # at t = 10 the pair is uniformly contact, so the Reeb stack is consistent
    assert rows[2]["min_volume_coeff"] > 1e3
    assert rows[2]["max_reeb_residual"] < 1e-8
    again = sweep_rows(fam, [0.01, 0.1, 10.0], points=t6_points)
    assert rows == again  # deterministic


# --- every certificate item reports the threshold it was gated at ----------------------

def test_t10_certificate_item_reports_the_applied_threshold(capsys):
    from contactpairs.cli import main

    argv = ["deform", "--example", "heisenberg6-pair", "--mode", "forward", "--t-grid=0.01,10"]
    assert main(argv + ["--format", "structured"]) == 0
    conclusions = json.loads(capsys.readouterr().out)["tasks"][0]["result"]["conclusions"]
    (item,) = [c for c in conclusions if c["name"] == "(alpha_t,beta_t) is a contact pair at t=10"]
    assert item["passed"] is True
    assert item["threshold"] == 1e-07  # tol * max(1, scales at t=10) = 1e-08 * 10


def _applied_threshold(s, item, k, l, tol):
    """The threshold of the gate that decided a certificate item on samples s:
    the Reeb residual's on a pass, the failed gate's otherwise."""
    a, b, da, db = s.scales()
    if item.passed:
        return tol * max(1.0, a, b, da, db)
    return {"volume": tol * (a * b * da**k * db**l), "orientation": None}[item.witness["condition"]]


@pytest.mark.parametrize("name", ["heisenberg6-pair", "t6-pair-compatible", "t6-pair-incompatible"])
@pytest.mark.parametrize("verify", [verify_forward, verify_converse])
def test_certificate_items_report_the_applied_threshold(name, verify):
    family = build_example(name)["family"]
    points = sample_points(family.model, np.random.default_rng(0), random_count=2000)
    sampled = SampledFamily(family, points, default_tolerance(family.model))
    verdict = verify(family, points=points)
    samples = {"(alpha,beta) is a contact pair": sampled.direction}
    grid = FORWARD_T_GRID if verify is verify_forward else CONVERSE_T_GRID
    samples.update({f"(alpha_t,beta_t) is a contact pair at t={t:g}": sampled.at(t) for t in grid})
    items = [i for i in verdict.hypotheses + verdict.conclusions if "is a contact pair" in i.name]
    assert sorted(i.name for i in items) == sorted(samples)
    for item in items:
        expected = _applied_threshold(samples[item.name], item, family.k, family.l, default_tolerance(family.model))
        assert item.threshold == expected, item.name
        if item.passed:
            assert item.defect <= item.threshold


# --- a conclusion that was not evaluated fails nothing ---------------------------------

def _heisenberg_times_line_config(path):
    """A type-(1,0) family on h3 x R: alpha = e2, beta = e3 (the line),
    alpha0 = e0, beta0 = e1; its quadrature integrals are skipped."""
    structure = np.zeros((4, 4, 4))
    structure[0, 1, 2], structure[1, 0, 2] = 1.0, -1.0  # [e0, e1] = e2
    forms = {name: {"model": "hxr", "degree": 1, "coefficients": {str(axis): 1}}
             for name, axis in (("alpha", 2), ("beta", 3), ("alpha0", 0), ("beta0", 1))}
    doc = {
        "schema_version": 1,
        "models": {"hxr": {"kind": "lie", "structure": structure.tolist()}},
        "forms": forms,
        "families": {"fam": {"alpha0": "alpha0", "beta0": "beta0", "alpha": "alpha", "beta": "beta",
                             "type": [1, 0]}},
        "tasks": [{"task": "deform-forward", "family": "fam"}, {"task": "deform-converse", "family": "fam"}],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_converse_below_type_one_one_passes_with_the_quadrature_skipped(tmp_path, capsys):
    from contactpairs.cli import main

    config = _heisenberg_times_line_config(tmp_path / "hxr.json")
    statuses = []
    for mode in ("forward", "converse"):
        assert main(["deform", "--mode", mode, "--config", config, "--format", "structured"]) == 0
        (task,) = json.loads(capsys.readouterr().out)["tasks"]
        statuses.append((task["task"], task["status"]))
    assert statuses == [("deform-forward", "pass"), ("deform-converse", "pass")]
    result = task["result"]
    assert result["overall"] == "pass"
    skipped = [i for i in result["conclusions"] if i["passed"] is None]
    assert [i["name"] for i in skipped] == ["quadrature integrals vanish"]
    assert all(i["passed"] for i in result["hypotheses"] + result["conclusions"] if i not in skipped)


@pytest.mark.parametrize("conclusions, overall", [
    ([True, None], "pass"),
    ([None], "pass"),
    ([True, None, False], "falsified"),
    ([False, None], "falsified"),
])
def test_falsified_needs_a_failed_conclusion(conclusions, overall):
    items = [CheckItem(f"c{i}", passed) for i, passed in enumerate(conclusions)]
    assert TheoremVerdict("converse", [CheckItem("h", True)], items).overall == overall
