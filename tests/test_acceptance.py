"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from contactpairs import expressions as ex
from contactpairs import exterior as xt
from contactpairs.contact import (
    product_contact_pair,
    torus_contact,
    verify_contact_pair,
    verify_single_deformation,
)
from contactpairs.deformation import (
    DeformationFamily,
    PairSamples,
    stokes_integrals,
    verify_converse,
    verify_forward,
    volume_identity_defect,
    volume_polynomial,
)
from contactpairs.fields import (
    coframe,
    constant_form,
    form_from_expressions,
    pullback_form,
    pullback_vector,
    vector_from_expressions,
)
from contactpairs.jacobi import JacobiSide, jacobi_bracket, jacobi_identity_defect
from contactpairs.models import (
    LieGroupModel,
    heisenberg3,
    integrate,
    random_points,
    torus,
)

CLOSED_H6_AXES = (0, 1, 3, 4)


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def so3_like():
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return LieGroupModel(c, name="so3")


@pytest.fixture(scope="module")
def heisenberg6():
    left = heisenberg3("hl")
    right = heisenberg3("hr")
    model, alpha, beta = product_contact_pair(left, coframe(left, 2), right, coframe(right, 2))
    alpha0 = pullback_form(model, coframe(left, 0), "left")
    beta0 = pullback_form(model, coframe(right, 0), "right")
    family = DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)
    return {"model": model, "alpha": alpha, "beta": beta, "family": family,
            "left": left, "right": right}


@pytest.fixture(scope="module")
def t6():
    left, alpha_l = torus_contact()
    right, alpha_r = torus_contact()
    model, alpha, beta = product_contact_pair(left, alpha_l, right, alpha_r)
    points = random_points(model, 10000, np.random.default_rng(20240501))
    compatible = DeformationFamily(
        pullback_form(model, coframe(left, 0), "left"),
        pullback_form(model, coframe(right, 0), "right"),
        alpha, beta, 1, 1,
    )
    incompatible = DeformationFamily(
        pullback_form(model, coframe(left, 1), "left"),
        pullback_form(model, coframe(right, 0), "right"),
        alpha, beta, 1, 1,
    )
    return {"model": model, "alpha": alpha, "beta": beta, "left": left, "right": right,
            "points": points, "compatible": compatible, "incompatible": incompatible}


def test_criterion_1_exact_forward_lie(heisenberg6):
    t_grid = [2, -2, 1, -1, 0.5, -0.5, 0.1, -0.1, 0.01, -0.01]
    start = time.perf_counter()
    verdict = verify_forward(heisenberg6["family"], t_grid=t_grid)
    elapsed = time.perf_counter() - start
    defects = [i.defect for i in verdict.hypotheses + verdict.conclusions if i.defect is not None]
    ok = verdict.overall == "pass" and max(defects) < 1e-10 and elapsed < 1.0
    _report(1, ok, f"forward pass={verdict.overall!r}, max defect {max(defects):.3e}, {elapsed:.3f}s")


def test_criterion_2_chart_forward(t6):
    start = time.perf_counter()
    verdict = verify_forward(t6["compatible"], points=t6["points"])
    elapsed = time.perf_counter() - start
    defects = [i.defect for i in verdict.hypotheses + verdict.conclusions if i.defect is not None]
    ok = verdict.overall == "pass" and max(defects) < 1e-8 and elapsed < 10.0
    _report(2, ok, f"forward on 10^4 random points, max defect {max(defects):.3e}, {elapsed:.2f}s")


def test_criterion_3_hypothesis_failure_detection(t6):
    verdict = verify_forward(t6["incompatible"], points=t6["points"])
    failed = [i for i in verdict.hypotheses if i.passed is False]
    compat_witness = failed[0].witness if failed else {}
    witness_x0 = abs(np.cos(compat_witness.get("point", [0.0])[0])) if failed else 0.0
    sign_item = next(
        (i for i in verdict.conclusions if "t=0.01" in i.name and i.passed is False and i.witness),
        None,
    )
    sign_exhibited = False
    if sign_item is not None:
        w = sign_item.witness
        if w.get("condition") == "orientation":
            sign_exhibited = w["negative"]["value"] < 0 < w["positive"]["value"]
        elif w.get("condition") == "volume":
            sign_exhibited = "point" in w
    ok = (
        verdict.overall == "not applicable"
        and failed
        and failed[0].name == "compatibility alpha0(E_alpha)=0"
        and witness_x0 > 0.9
        and sign_exhibited
    )
    _report(3, ok, f"verdict {verdict.overall!r}, witness |cos(x0)|={witness_x0:.4f}, "
                   f"t=0.01 sign change exhibited={sign_exhibited}")


def test_criterion_4_polynomial_identity(heisenberg6, t6):
    t_values = np.linspace(-10.0, 10.0, 8)
    rng = np.random.default_rng(4242)
    model = heisenberg6["model"]
    worst_lie = 0.0
    built = 0
    while built < 10:
        closed = np.zeros((2, 6))
        for row in closed:
            row[list(CLOSED_H6_AXES)] = rng.standard_normal(4)
        try:
            fam = DeformationFamily(
                constant_form(model, 1, closed[0]),
                constant_form(model, 1, closed[1]),
                constant_form(model, 1, rng.standard_normal(6)),
                constant_form(model, 1, rng.standard_normal(6)),
                1, 1,
            )
        except ValueError:
            continue
        built += 1
        worst_lie = max(worst_lie, volume_identity_defect(fam, t_values))
    worst_chart = max(
        volume_identity_defect(t6["compatible"], t_values, points=t6["points"]),
        volume_identity_defect(t6["incompatible"], t_values, points=t6["points"]),
    )
    ok = worst_lie < 1e-12 and worst_chart < 1e-10
    _report(4, ok, f"identity defect: Lie {worst_lie:.3e} (10 random families), "
                   f"chart {worst_chart:.3e}")


def test_criterion_5_lemma_suite(heisenberg6, t6):
    cert_h = verify_contact_pair(heisenberg6["alpha"], heisenberg6["beta"], 1, 1)
    ctx_h = PairSamples(cert_h)
    pts = t6["points"][:4000]
    cert_t = verify_contact_pair(t6["alpha"], t6["beta"], 1, 1, points=pts)
    ctx_t = PairSamples(cert_t)
    rng = np.random.default_rng(555)
    worst_lie = worst_chart = 0.0
    for _ in range(100):
        w = rng.standard_normal(6)
        worst_lie = max(worst_lie, *ctx_h.replacement_defects(w))
        worst_chart = max(worst_chart, *ctx_t.replacement_defects(w))
    for _ in range(100):
        w, wb = rng.standard_normal(6), rng.standard_normal(6)
        worst_lie = max(worst_lie, ctx_h.transverse_defect(w, wb))
        worst_chart = max(worst_chart, ctx_t.transverse_defect(w, wb))
    ok = worst_lie < 1e-12 and worst_chart < 1e-10
    _report(5, ok, f"insertion/transverse defects over 100 seeded inputs: "
                   f"Lie {worst_lie:.3e}, chart {worst_chart:.3e}")


def _sigma_min(cert) -> float:
    """The smallest singular value of the Reeb systems of a certificate's
    samples, which the certificate itself need not take: where its volume
    gate passes, the systems have full rank."""
    return float(np.min(np.linalg.svd(cert.sampled.reeb_rows(), compute_uv=False)[:, -1]))


def test_criterion_6_reeb_correctness(heisenberg6, t6):
    checks = []

    cert_h = verify_contact_pair(heisenberg6["alpha"], heisenberg6["beta"], 1, 1)
    expect_a = np.zeros((cert_h.sample_count, 6))
    expect_a[:, 2] = 1.0
    expect_b = np.zeros((cert_h.sample_count, 6))
    expect_b[:, 5] = 1.0
    match_h = max(
        float(np.max(np.abs(cert_h.reeb_alpha_values - expect_a))),
        float(np.max(np.abs(cert_h.reeb_beta_values - expect_b))),
    )
    checks.append(("heisenberg6", match_h, _sigma_min(cert_h), cert_h.commutator_defect, 1e-8))

    pts = t6["points"][:2000]
    cert_t = verify_contact_pair(t6["alpha"], t6["beta"], 1, 1, points=pts)
    left_reeb = vector_from_expressions(t6["left"], ["0", "cos(x0)", "sin(x0)"])
    right_reeb = vector_from_expressions(t6["right"], ["0", "cos(x0)", "sin(x0)"])
    expect_a = pullback_vector(t6["model"], left_reeb, "left").values(pts)
    expect_b = pullback_vector(t6["model"], right_reeb, "right").values(pts)
    match_t = max(
        float(np.max(np.abs(cert_t.reeb_alpha_values - expect_a))),
        float(np.max(np.abs(cert_t.reeb_beta_values - expect_b))),
    )
    # chart commutator bound pinned at the chart tolerance 1e-6 (it is exact,
    # by implicit differentiation, so it only carries rounding)
    checks.append(("t6", match_t, _sigma_min(cert_t), cert_t.commutator_defect, 1e-6))

    ok = all(m < 1e-8 and s > 0.1 and c < ctol for _, m, s, c, ctol in checks)
    detail = "; ".join(
        f"{n}: reeb match {m:.2e}, sigma_min {s:.2f}, commutator {c:.2e}" for n, m, s, c, _ in checks
    )
    _report(6, ok, detail)


def test_criterion_7_converse_facts(heisenberg6, t6):
    results = []
    for name, family, pts in (
        ("heisenberg6", heisenberg6["family"], None),
        ("t6", t6["compatible"], t6["points"]),
    ):
        vp = volume_polynomial(family, points=pts)
        i1, i2 = stokes_integrals(family)
        verdict = verify_converse(family, points=pts)
        scaling = next(i for i in verdict.hypotheses if "constant across t" in i.name)
        max_lin = max(abs(vp.lin_range[0]), abs(vp.lin_range[1]))
        results.append((name, vp.max_abs_const, i1, i2, max_lin, scaling.defect, verdict.overall))
    ok = all(
        c < 1e-10 and i1 < 1e-8 and i2 < 1e-8 and b < 1e-10 and s < 1e-6 and o == "pass"
        for _, c, i1, i2, b, s, o in results
    )
    detail = "; ".join(
        f"{n}: |C|<={c:.1e}, integrals {i1:.1e}/{i2:.1e}, |B|<={b:.1e}, scaling {s:.1e}"
        for n, c, i1, i2, b, s, _ in results
    )
    _report(7, ok, detail)


def test_criterion_8_single_form_criterion():
    t3, alpha = torus_contact()
    good = verify_single_deformation(coframe(t3, 0), alpha)
    bad = verify_single_deformation(coframe(t3, 1), alpha)
    bad_witness_t = bad.witness["condition_i"].get("t", 0.0)
    ok = (
        good.condition_i and good.condition_ii
        and not bad.condition_ii and not bad.condition_i
        and bad_witness_t > 0.0
    )
    _report(8, ok, f"dx0: both directions hold; dx1: (ii) fails with pairing defect "
                   f"{bad.pairing_defect:.3f} and (i) violated at t={bad_witness_t:g}")


def test_criterion_9_jacobi_suite():
    _, alpha = torus_contact()
    f = ex.parse("sin(x1)*cos(x2)", 3)
    g = ex.parse("sin(x2)", 3)
    h = ex.parse("cos(x1)", 3)
    g_one = ex.parse("cos(x1) + sin(x2)", 3)

    side16 = JacobiSide.from_contact_form(alpha, resolution=16)
    anti = float(np.max(np.abs(jacobi_bracket(f, g, side16) + jacobi_bracket(g, f, side16))))

    def bump(side, center, radius):
        vals = np.ones(side.grid_shape)
        for d, c in enumerate(center):
            idx = np.arange(side.grid_shape[d])
            dist = np.minimum(np.abs(idx - c), side.grid_shape[d] - np.abs(idx - c))
            prof = np.where(dist < radius, np.cos(np.pi * dist / (2 * radius)) ** 2, 0.0)
            sl = [None] * len(side.grid_shape)
            sl[d] = slice(None)
            vals = vals * prof[tuple(sl)]
        return vals.reshape(-1)

    locality = float(
        np.max(np.abs(jacobi_bracket(bump(side16, (3, 3, 3), 3), bump(side16, (11, 11, 11), 3), side16)))
    )

    one_defects, identity_defects = [], []
    for res in (16, 32, 64):
        side = JacobiSide.from_contact_form(alpha, resolution=res)
        _, _, eg = side.scalar_data(g_one)
        one_defects.append(float(np.max(np.abs(jacobi_bracket(ex.const(1.0), g_one, side) - eg))))
        identity_defects.append(jacobi_identity_defect(f, g, h, side))
    one_ratios = (one_defects[0] / one_defects[1], one_defects[1] / one_defects[2])
    id_ratios = (identity_defects[0] / identity_defects[1], identity_defects[1] / identity_defects[2])

    ok = (
        anti == 0.0
        and locality < 1e-9
        and all(r >= 3.5 for r in one_ratios)
        and all(r >= 3.5 for r in id_ratios)
    )
    _report(9, ok, f"antisymmetry {anti:.1e}, locality {locality:.1e}, "
                   f"{{1,g}} ratios {one_ratios[0]:.2f}/{one_ratios[1]:.2f}, "
                   f"identity ratios {id_ratios[0]:.2f}/{id_ratios[1]:.2f}")


def test_criterion_9_identity_converges_for_independent_functions():
    # f, g, h with df ∧ dg ∧ dh not identically 0, unlike those above
    _, alpha = torus_contact()
    f, g, h = (ex.parse(u, 3) for u in ("sin(x0)+0.5*cos(x1)", "cos(x1)*sin(x2)", "sin(x2-x0)"))
    defects = [jacobi_identity_defect(f, g, h, JacobiSide.from_contact_form(alpha, resolution=res))
               for res in (16, 32, 64)]
    assert defects[0] / defects[1] >= 3.5 and defects[1] / defects[2] >= 3.5


def test_criterion_10_exterior_kernel_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(1000)
    worst_comm = worst_assoc = worst_anti = 0.0
    for _ in range(250):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n - p + 1))
        a = xt.FormValue(n, p, rng.standard_normal(xt.form_count(n, p)))
        b = xt.FormValue(n, q, rng.standard_normal(xt.form_count(n, q)))
        d = xt.wedge(a, b).coeffs - (-1.0) ** (p * q) * xt.wedge(b, a).coeffs
        worst_comm = max(worst_comm, float(np.max(np.abs(d))) if d.size else 0.0)
    for _ in range(250):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(0, 2))
        q = int(rng.integers(0, 2))
        r = int(rng.integers(0, max(1, n - p - q)))
        a = xt.FormValue(n, p, rng.standard_normal(xt.form_count(n, p)))
        b = xt.FormValue(n, q, rng.standard_normal(xt.form_count(n, q)))
        c = xt.FormValue(n, r, rng.standard_normal(xt.form_count(n, r)))
        d = xt.wedge(xt.wedge(a, b), c).coeffs - xt.wedge(a, xt.wedge(b, c)).coeffs
        worst_assoc = max(worst_assoc, float(np.max(np.abs(d))) if d.size else 0.0)
    for _ in range(250):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n))
        q = int(rng.integers(1, n - p + 1))  # p <= n-1, so q in [1, n-p] is nonempty
        a = xt.FormValue(n, p, rng.standard_normal(xt.form_count(n, p)))
        b = xt.FormValue(n, q, rng.standard_normal(xt.form_count(n, q)))
        x = xt.VectorValue(rng.standard_normal(n))
        lhs = xt.interior(x, xt.wedge(a, b)).coeffs
        rhs = xt.wedge(xt.interior(x, a), b).coeffs + (-1.0) ** p * xt.wedge(a, xt.interior(x, b)).coeffs
        worst_anti = max(worst_anti, float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0)

    worst_dd_lie = worst_dd_chart = 0.0
    lie_models = [heisenberg3(), so3_like()]
    for i in range(65):
        model = lie_models[i % 2]
        field = constant_form(model, 1, rng.standard_normal(3))
        vals = field.d().d().values(np.zeros((1, 3)))
        worst_dd_lie = max(worst_dd_lie, float(np.max(np.abs(vals))))
    t3 = torus(3, resolution=8)
    chart_pts = random_points(t3, 64, rng)
    basis = ["sin(x0)", "cos(x1)", "sin(x2)", "cos(x0)*sin(x1)", "1", "sin(x1)*cos(x2)"]
    for _ in range(60):
        picks = rng.integers(0, len(basis), size=3)
        w = form_from_expressions(t3, 1, {i: basis[picks[i]] for i in range(3)})
        worst_dd_chart = max(worst_dd_chart, float(np.max(np.abs(w.d().d().values(chart_pts)))))

    worst_stokes = 0.0
    t2 = torus(2, resolution=16)
    for _ in range(125):
        picks = rng.integers(0, len(basis), size=2)
        eta = form_from_expressions(
            t2, 1, {i: basis[picks[i]].replace("x2", "x0") for i in range(2)}
        )
        worst_stokes = max(worst_stokes, abs(integrate(t2, eta.d())))
    elapsed = time.perf_counter() - start

    ok = (
        worst_comm < 1e-12
        and worst_assoc < 1e-12
        and worst_anti < 1e-12
        and worst_dd_lie < 1e-12
        and worst_dd_chart < 1e-10
        and worst_stokes < 1e-8
        and elapsed < 30.0
    )
    _report(10, ok, f"1000 seeded cases: commutativity {worst_comm:.1e}, associativity "
                    f"{worst_assoc:.1e}, antiderivation {worst_anti:.1e}, dd {worst_dd_lie:.1e}/"
                    f"{worst_dd_chart:.1e}, stokes {worst_stokes:.1e}, {elapsed:.1f}s")
