import math
import re

import numpy as np
import pytest

from contactpairs import expressions as ex
from contactpairs import exterior as xt
from contactpairs.fields import (
    FormField,
    coframe,
    constant_form,
    form_from_expressions,
    pullback_form,
    volume_form,
)
from contactpairs.models import (
    ChartModel,
    LieGroupModel,
    ProductModel,
    box_chart,
    grid_points,
    heisenberg3,
    integrate,
    periodic_axis,
    random_points,
    sample_points,
    torus,
)

TWO_PI = 2.0 * math.pi


def so3():
    c = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return LieGroupModel(c, name="so3")


def ce_direct(model, w):
    """Direct alternating-sum differential of an invariant form value:
    (dw)(X_0..X_p) = sum_{r<s} (-1)^{r+s} w([X_r, X_s], .. no X_r, X_s ..)."""
    n, p = model.n, w.p
    out = np.zeros(xt.form_count(n, p + 1))
    for pos, idx in enumerate(xt.multi_indices(n, p + 1)):
        total = 0.0
        for r in range(p + 1):
            for s in range(r + 1, p + 1):
                bracket = xt.VectorValue(model.structure[idx[r], idx[s], :])
                rest = [xt.basis_vector(n, idx[t]) for t in range(p + 1) if t not in (r, s)]
                total += (-1.0) ** (r + s) * xt.evaluate(w, [bracket] + rest)
        out[pos] = total
    return out


# --- model validation -------------------------------------------------------

def test_lie_antisymmetry_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the (1,0,2) = -1 entry
    with pytest.raises(ValueError, match="antisymmetric"):
        LieGroupModel(c)


def test_lie_jacobi_violation():
    c = np.zeros((3, 3, 3))
    for i, j, k, v in [(0, 1, 0, 1.0), (1, 0, 0, -1.0), (0, 2, 1, 1.0), (2, 0, 1, -1.0)]:
        c[i, j, k] = v
    with pytest.raises(ValueError, match="Jacobi"):
        LieGroupModel(c)


def test_chart_needs_reasonable_resolution():
    with pytest.raises(ValueError):
        ChartModel([periodic_axis(3)])


@pytest.mark.parametrize("resolution", [0, 1, 2, 3, (4, 3, 4)])
def test_an_explicit_resolution_below_four_is_rejected(resolution):
    # the rule of Axis, for a resolution given to a grid, scalar or per axis
    t3 = torus(3)
    with pytest.raises(ValueError, match=re.escape(f"at least 4, got {resolution!r}")):
        grid_points(t3, resolution)
    with pytest.raises(ValueError, match="at least 4"):
        integrate(t3, volume_form(t3), resolution=resolution)


def test_an_explicit_resolution_of_four_samples_the_grid():
    t3 = torus(3)
    assert grid_points(t3, 4).shape == (64, 3) and grid_points(t3, (4, 5, 4)).shape == (80, 3)
    assert integrate(t3, volume_form(t3), resolution=4) == pytest.approx(TWO_PI**3, rel=1e-12)


# --- exterior derivative ----------------------------------------------------

def test_heisenberg_derivative():
    h = heisenberg3()
    de2 = coframe(h, 2).d()
    pt = np.zeros((1, 3))
    np.testing.assert_array_equal(de2.values(pt)[0], [-1.0, 0.0, 0.0])  # -e0^e1
    assert np.all(coframe(h, 0).d().values(pt) == 0.0)
    assert np.all(coframe(h, 1).d().values(pt) == 0.0)


@pytest.mark.parametrize("model_factory", [heisenberg3, so3])
def test_derivative_matches_direct_alternating_sum(model_factory):
    model = model_factory()
    pt = np.zeros((1, model.n))
    rng = np.random.default_rng(31)
    for p in (1, 2):
        for _ in range(5):
            coeffs = rng.standard_normal(xt.form_count(model.n, p))
            field = constant_form(model, p, coeffs)
            got = field.d().values(pt)[0]
            want = ce_direct(model, xt.FormValue(model.n, p, coeffs))
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_chart_derivative_example():
    t3 = torus(3)
    w = form_from_expressions(t3, 1, {1: "cos(x0)", 2: "sin(x0)"})
    dw = w.d()
    rng = np.random.default_rng(1)
    pts = random_points(t3, 50, rng)
    vals = dw.values(pts)
    pos = xt.index_position(3, 2)
    np.testing.assert_allclose(vals[:, pos[(0, 1)]], -np.sin(pts[:, 0]), atol=1e-14)
    np.testing.assert_allclose(vals[:, pos[(0, 2)]], np.cos(pts[:, 0]), atol=1e-14)
    np.testing.assert_allclose(vals[:, pos[(1, 2)]], 0.0, atol=1e-14)


def test_d_squared_is_zero():
    rng = np.random.default_rng(8)
    h6 = ProductModel(heisenberg3("l"), heisenberg3("r"))
    for model in (heisenberg3(), so3(), h6):
        pt = np.zeros((1, model.n))
        for _ in range(10):
            coeffs = rng.standard_normal(model.n)
            field = constant_form(model, 1, coeffs)
            assert np.max(np.abs(field.d().d().values(pt))) < 1e-12

    t3 = torus(3)
    pts = random_points(t3, 100, rng)
    basis = ["sin(x0)", "cos(x1)", "sin(x2)", "cos(x0)*sin(x1)", "1"]
    for _ in range(10):
        picks = rng.choice(len(basis), size=3)
        w = form_from_expressions(
            t3, 1, {i: basis[picks[i]] for i in range(3)}
        )
        assert np.max(np.abs(w.d().d().values(pts))) < 1e-10


def test_mixed_product_derivative_leibniz():
    # product of a Lie factor and a chart factor through pulled-back wedges
    h = heisenberg3()
    t1 = torus(2)
    prod = ProductModel(h, t1)
    a = pullback_form(prod, coframe(h, 2), "left")
    b = pullback_form(prod, form_from_expressions(t1, 1, {0: "cos(x0)"}), "right")
    w = a.wedge(b)
    lhs = w.d()
    rhs = a.d().wedge(b) - a.wedge(b.d())  # graded Leibniz, |a| = 1
    pts = grid_points(prod)
    np.testing.assert_allclose(lhs.values(pts), rhs.values(pts), atol=1e-12)


def test_pullback_commutes_with_d():
    tl = torus(3)
    tr = torus(3)
    prod = ProductModel(tl, tr)
    w = form_from_expressions(tr, 1, {1: "cos(x0)", 2: "sin(x0)"})
    pts = random_points(prod, 60, np.random.default_rng(3))
    lhs = pullback_form(prod, w, "right").d().values(pts)
    rhs = pullback_form(prod, w.d(), "right").values(pts)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_field_variable_validation():
    h = heisenberg3()
    with pytest.raises(ValueError, match="coordinate axis"):
        FormField(h, 1, ["x0", 0, 0])


# --- sampling ---------------------------------------------------------------

def test_sample_grid_t1():
    t1 = torus(1, resolution=4)
    pts = grid_points(t1)
    np.testing.assert_allclose(pts[:, 0], [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_lie_sampling_is_singleton():
    assert grid_points(heisenberg3()).shape == (1, 3)
    assert sample_points(heisenberg3()).shape == (1, 3)


def test_product_grid_is_coarse():
    prod = ProductModel(torus(3), torus(3))
    assert grid_points(prod).shape == (8**6, 6)
    pts = sample_points(prod, np.random.default_rng(0), random_count=500)
    assert pts.shape == (500, 6)  # above the grid limit, random sampling


def test_box_grid_includes_endpoints():
    m = box_chart([(-1.0, 1.0)], resolution=5)
    np.testing.assert_allclose(grid_points(m)[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])


# --- integration ------------------------------------------------------------

def test_integrate_cosine_t1():
    t1 = torus(1)
    f = FormField(t1, 1, ["cos(x0)"])
    assert integrate(t1, f) == pytest.approx(0.0, abs=1e-12)


def test_integrate_volume_t3():
    t3 = torus(3)
    assert integrate(t3, volume_form(t3)) == pytest.approx(TWO_PI**3, rel=1e-9)


def test_integrate_requires_top_degree():
    t3 = torus(3)
    with pytest.raises(ValueError):
        integrate(t3, coframe(t3, 0))


def test_grids_without_meshgrid_copies_equal_the_meshgrid_nodes():
    from contactpairs.models import _tensor_points

    rng = np.random.default_rng(0)
    cases = (((5,), (0,)), ((2, 3), (0, 2)), ((4, 1, 3), (1, 2, 3)), ((2, 3, 2, 3), (0, 1, 3, 4)))
    for sizes, coord in cases:
        grids = [rng.standard_normal(s) for s in sizes]
        mesh = np.meshgrid(*grids, indexing="ij")
        want = np.zeros((mesh[0].size, 5))
        for i, m in zip(coord, mesh):
            want[:, i] = m.reshape(-1)
        assert np.array_equal(_tensor_points(5, coord, grids), want)


def test_integrate_by_slices_equals_the_whole_grid_sum():
    from contactpairs.models import integration_points

    integrand = "exp(sin(x0 + 2*x1)) * cos(x2 - x3) + 0.3*sin(x3)"
    models = (torus(4, resolution=6), box_chart([(-1.0, 2.0)] * 4, resolution=5), heisenberg3())
    for model in models:
        form = FormField(model, model.n, [integrand if model.n == 4 else "1.5"])
        pts, weight = integration_points(model)
        assert integrate(model, form) == float(np.sum(form.values(pts)[:, 0]) * weight)


def test_stokes_on_random_closed_models():
    rng = np.random.default_rng(44)
    basis = ["sin(x0)", "cos(x1)", "sin(x0)*cos(x1)", "1", "cos(x0)"]
    t2 = torus(2, resolution=16)
    for _ in range(20):
        picks = rng.choice(len(basis), size=2)
        eta = form_from_expressions(t2, 1, {i: basis[picks[i]] for i in range(2)})
        assert abs(integrate(t2, eta.d())) < 1e-8


# --- frame brackets ------------------------------------------------------------

def test_structure_constant_bracket():
    # [e0, e1] = e2 on the Heisenberg algebra, bilinear and antisymmetric
    h = heisenberg3()
    e = np.eye(3)
    np.testing.assert_array_equal(h.bracket_values(e[0], e[1]), [0.0, 0.0, 1.0])
    x, y = np.random.default_rng(21).standard_normal((2, 50, 3))
    expect = np.zeros((50, 3))
    expect[:, 2] = x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]
    np.testing.assert_allclose(h.bracket_values(x, y), expect, rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(h.bracket_values(y, x), -h.bracket_values(x, y))


def test_mixed_frame_bracket():
    # an invariant direction commutes with the chart direction on a product
    prod = ProductModel(heisenberg3(), torus(1))
    e = np.tile(np.eye(4), (5, 1, 1))  # five points, the frame at each
    np.testing.assert_array_equal(prod.bracket_values(e[:, 0], e[:, 3]), np.zeros((5, 4)))
    # while the Lie block still contributes
    np.testing.assert_array_equal(prod.bracket_values(e[:, 0], e[:, 1]), e[:, 2])


@pytest.mark.parametrize("make", [lambda: torus(3), lambda: ProductModel(torus(3), torus(3))])
def test_bracket_without_structure_constants_is_zero_without_the_product(monkeypatch, make):
    model = make()
    x, y = np.random.default_rng(4).standard_normal((2, 7, model.n))
    want = np.einsum("ijk,...i,...j->...k", model.structure, x, y)

    def refuse(*args, **kwargs):
        raise AssertionError("the bracket of a model without structure constants takes no product")

    monkeypatch.setattr(np, "einsum", refuse)
    got = model.bracket_values(x, y)
    np.testing.assert_array_equal(got, want)
    assert got.shape == want.shape and got.dtype == want.dtype


def test_structure_matrix_cache_does_not_grow_with_models():
    from contactpairs import fields
    from contactpairs.registry import build_example

    def build_and_differentiate():
        objs = build_example("heisenberg6-pair")
        return [f.d().coeffs for f in (objs["alpha"], objs["beta"], objs["alpha0"])]

    first = build_and_differentiate()
    size = fields._structure_matrix.cache_info().currsize
    for _ in range(30):
        again = build_and_differentiate()
    assert fields._structure_matrix.cache_info().currsize == size
    assert again == first  # every model of one algebra gets the same d


def test_constant_coefficients_fill_without_evaluation(monkeypatch):
    t3 = torus(3)
    form = FormField(t3, 1, [ex.const(-0.0), "sin(x0)", 2.5])
    pts = random_points(t3, 7, np.random.default_rng(0))
    evaluated = []
    many = ex.evaluate_many
    monkeypatch.setattr(ex, "evaluate_many", lambda e, p, *known: evaluated.append(e) or many(e, p, *known))
    values = form.values(pts)
    assert evaluated == [form.coeffs[1]]
    assert values.tobytes() == np.stack([many(c, pts) for c in form.coeffs], axis=1).tobytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constant_coefficient_is_an_evaluation_error(value):
    t3 = torus(3)
    form = FormField(t3, 1, [ex.const(value), 0.0, 1.0])
    pts = random_points(t3, 4, np.random.default_rng(0))
    with pytest.raises(ex.EvaluationError) as direct:
        form.values(pts)
    with pytest.raises(ex.EvaluationError) as evaluated:
        ex.evaluate_many(form.coeffs[0], pts)
    assert str(direct.value) == str(evaluated.value) == "expression evaluated to a non-finite value"
