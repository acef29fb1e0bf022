import json
import math

import numpy as np
import pytest
from test_contact import dense_samples, heisenberg6, reeb_rows, t6_pair

from contactpairs import contact, jacobi
from contactpairs import expressions as ex
from contactpairs.cli import main
from contactpairs.contact import (
    SampledPair,
    _form_reeb,
    darboux_model,
    product_contact_pair,
    torus_contact,
    verify_contact_pair,
)
from contactpairs.exterior import multi_indices, two_form_matrices
from contactpairs.fields import coframe, form_from_expressions
from contactpairs.jacobi import (
    JacobiError,
    JacobiSide,
    _axis_derivative,
    _require_finite,
    jacobi_bracket,
    jacobi_identity_defect,
)
from contactpairs.models import (
    ProductModel,
    box_chart,
    default_tolerance,
    grid_points,
    grid_shape,
    heisenberg3,
    random_points,
    torus,
)
from contactpairs.registry import build_example


@pytest.fixture(scope="module")
def t3_side():
    _, alpha = torus_contact()
    return JacobiSide.from_contact_form(alpha, resolution=16)


@pytest.fixture(scope="module")
def pair_side():
    left, a = torus_contact()
    right, b = torus_contact()
    _, alpha, beta = product_contact_pair(left, a, right, b)
    return JacobiSide.from_pair(alpha, beta, 1, 1, side="alpha", resolution=6)


def grid_bump(side, center_cells, radius_cells):
    """Compactly supported cos^2 bump on the grid, periodic distance."""
    shape = side.grid_shape
    vals = np.ones(shape)
    for d, c in enumerate(center_cells):
        idx = np.arange(shape[d])
        dist = np.minimum(np.abs(idx - c), shape[d] - np.abs(idx - c))
        prof = np.where(dist < radius_cells, np.cos(np.pi * dist / (2 * radius_cells)) ** 2, 0.0)
        sl = [None] * len(shape)
        sl[d] = slice(None)
        vals = vals * prof[tuple(sl)]
    return vals.reshape(-1)


# --- construction --------------------------------------------------------------

def test_side_rejects_lie_models():
    h = heisenberg3()
    with pytest.raises(JacobiError, match="chart"):
        JacobiSide.from_contact_form(coframe(h, 2))


def test_side_rejects_even_dimension():
    t2 = torus(2)
    with pytest.raises(JacobiError):
        JacobiSide.from_contact_form(coframe(t2, 0))


def test_side_rejects_non_contact_form():
    # alpha = dz: the Reeb system is consistent (E = d/dz), but d alpha = 0
    t3 = torus(3)
    with pytest.raises(JacobiError, match=r"volume alpha \^ \(d alpha\)\^1 vanishes"):
        JacobiSide.from_contact_form(coframe(t3, 2), resolution=8)


def test_overflowing_form_fails_as_non_finite_with_a_witness(tmp_path, capsys):
    # 1e200 coefficients overflow in the Reeb solve on the grid
    doc = {
        "models": {"t3": {"kind": "chart", "axes": [{"periodic": True}] * 3}},
        "forms": {"a": {"model": "t3", "degree": 1,
                        "coefficients": {"1": "1e200*cos(x0)", "2": "1e200*sin(x0)"}}},
        "tasks": [{"task": "jacobi", "form": "a", "resolution": 6}],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["jacobi", "--config", str(path), "--format", "structured"]) == 1
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["status"] == "fail"
    error = task["result"]["error"]
    assert error["condition"] == "non-finite" and "non-finite" in error["message"]
    assert len(error["point"]) == 3 and str(error["point"]) in error["message"]


def test_jacobi_on_a_closed_form_exits_2(tmp_path, capsys):
    doc = {
        "models": {"t3": {"kind": "chart", "axes": [{"periodic": True}] * 3}},
        "forms": {"a": {"model": "t3", "degree": 1, "coefficients": {"2": "1"}}},
        "tasks": [{"task": "jacobi", "form": "a", "resolution": 6}],
    }
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(doc))
    assert main(["jacobi", "--config", str(path), "--format", "structured"]) == 2
    assert "volume alpha ^ (d alpha)^1 vanishes" in capsys.readouterr().err


@pytest.mark.parametrize("frequency", ["1e150", "1e170"])
def test_a_volume_threshold_that_overflows_ends_in_a_report(tmp_path, capsys, frequency):
    # |d alpha| is about 1e160 at 1e170, so the volume threshold tol |alpha|
    # |d alpha|^2 overflows: it reads as inf, and the form is degenerate on
    # the grid as it is at 1e150, not an OverflowError
    doc = {
        "models": {"box": {"kind": "chart", "axes": [{"lo": -1.0, "hi": 1.0, "resolution": 6}] * 5}},
        "forms": {"a": {"model": "box", "degree": 1,
                        "coefficients": {"2": "x0", "3": f"x1 + 1e-10*cos({frequency}*x0)", "4": "1"}}},
        "tasks": [{"task": "jacobi", "form": "a", "resolution": 6}],
    }
    path = tmp_path / "overflowing_threshold.json"
    path.write_text(json.dumps(doc))
    assert main(["jacobi", "--config", str(path), "--format", "structured"]) == 2
    captured = capsys.readouterr()
    assert "volume alpha ^ (d alpha)^2 vanishes" in captured.err
    assert json.loads(captured.out)["tasks"][0]["status"] == "error"


def test_pair_side_thresholds_that_overflow_fail_as_non_finite():
    # the pair side's thresholds are those of the pair certificate, formed
    # from np.float64 scales: at 1e170 the volume scale |alpha| |beta|
    # |d alpha| |d beta| overflows to inf, which fails as non-finite
    model = ProductModel(torus(3), torus(3))
    alpha = form_from_expressions(model, 1, {1: "cos(x0) + 1e-10*cos(1e170*x0)", 2: "sin(x0)"})
    beta = form_from_expressions(model, 1, {4: "cos(x3) + 1e-10*cos(1e170*x3)", 5: "sin(x3)"})
    with pytest.raises(contact.ContactPairError) as err:
        jacobi._pair_side(alpha, beta, 1, 1, "alpha", 6, partials=True)
    assert err.value.condition == "non-finite"


@pytest.mark.parametrize("scale, degenerate", [(1e-9, True), (1e-5, False)])
def test_rank_gate_sees_a_nearly_degenerate_contact_form(scale, degenerate):
    # scale dz + x0 dx1 on a box is contact (alpha ^ d alpha = scale dx0 dx1 dz)
    # with the consistent Reeb field d/dz / scale; its volume is scale,
    # against the threshold tol |alpha| |d alpha| = 1e-6.  At 1e-9 the Reeb
    # system is far from exactly singular, so a solve alone accepts it.
    model = box_chart([(-1.0, 1.0)] * 3, resolution=8)
    alpha = form_from_expressions(model, 1, {1: "x0", 2: f"{scale}"})
    if degenerate:
        with pytest.raises(JacobiError, match=r"volume alpha \^ \(d alpha\)\^1 vanishes") as err:
            JacobiSide.from_contact_form(alpha, resolution=8)
        assert err.value.condition is None  # an input error, not a non-finite failure
        assert len(err.value.witness["point"]) == 3
        assert (err.value.defect, err.value.threshold) == (scale, 1e-6)  # the gate's, with |alpha| = |d alpha| = 1
    else:
        JacobiSide.from_contact_form(alpha, resolution=8)


@pytest.mark.parametrize("c", [1e-4, 1e-6])
def test_a_scaled_contact_form_passes_jacobi_as_it_passes_classify(tmp_path, capsys, c):
    # c (cos(x0) dx1 + sin(x0) dx2) has volume c^2, which the volume gate
    # reads against tol |alpha| |d alpha| = 1e-6 c^2, as classify does
    doc = {
        "models": {"t3": {"kind": "builtin", "name": "torus3"}},
        "forms": {"a": {"model": "t3", "degree": 1, "coefficients": {"1": f"{c!r}*cos(x0)", "2": f"{c!r}*sin(x0)"}}},
        "tasks": [{"task": "classify", "form": "a"}, {"task": "jacobi", "form": "a"}],
    }
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    tasks = {}
    for command in ("classify", "jacobi"):
        assert main([command, "--config", str(path), "--format", "structured"]) == 0
        (tasks[command],) = json.loads(capsys.readouterr().out)["tasks"]
    assert tasks["classify"]["result"]["class"] == 3
    result = tasks["jacobi"]["result"]
    assert tasks["jacobi"]["status"] == "pass" and "failures" not in result
    for name in ("hamiltonian_relations_defect", "jacobi_identity_defect", "reeb_invariance_defect"):
        assert 0.0 <= result[name] < 1e-12


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_hamiltonian_solve_fails_on_non_finite_grid_values(t3_side, bad):
    values = np.cos(t3_side.points[:, 0])
    values[123] = bad
    with pytest.raises(JacobiError, match="non-finite Hamiltonian system") as err:
        t3_side.solve_hamiltonian(values)
    assert err.value.condition == "non-finite"
    assert err.value.witness["point"] == t3_side.points[err.value.witness["index"]].tolist()


@pytest.mark.parametrize("resolution", [0, 1, 2, 3])
@pytest.mark.parametrize("example", ["darboux1", "t6-pair-compatible"])  # from_contact_form, from_pair
def test_a_side_rejects_a_resolution_below_four(example, resolution):
    with pytest.raises(ValueError, match=f"at least 4, got {resolution}"):
        _library_side(example, "alpha", resolution)


@pytest.mark.parametrize("example", ["darboux1", "t6-pair-compatible"])
def test_a_side_at_resolution_four_takes_brackets(example):
    side = _library_side(example, "alpha", 4)
    assert side.grid_shape == (4,) * side.model.n
    f, g, _ = _task_functions(side)
    assert np.isfinite(jacobi_bracket(f, g, side)).all()


def test_pair_side_leaf_dimension(pair_side, t3_side):
    assert pair_side.leaf_dim == 3 and t3_side.leaf_dim == 3
    # leaves are tangent to the left factor: Λ♯ and E have no right components
    assert np.max(np.abs(pair_side.lambda_sharp[:, 3:, :])) < 1e-12
    assert np.max(np.abs(pair_side.e_values[:, 3:])) < 1e-12
    objs = build_example("t2-pair-type00")
    for name in ("alpha", "beta"):
        side = JacobiSide.from_pair(objs["alpha"], objs["beta"], 0, 0, side=name, resolution=6)
        # 1-dimensional leaves: X_f = f E
        assert side.leaf_dim == 1 and not np.any(side.lambda_sharp)


@pytest.mark.parametrize("example, side_name", [
    ("torus-contact", "alpha"), ("darboux2", "alpha"),
    ("t6-pair-compatible", "alpha"), ("t6-pair-compatible", "beta"),
])
def test_relations_gate_rejects_a_wrong_operator(monkeypatch, example, side_name):
    # half of Λ♯, which doubling d alpha in the operator's chains gives on k = 1
    operator = jacobi._hamiltonian_operator
    monkeypatch.setattr(jacobi, "_hamiltonian_operator", lambda *args: 0.5 * operator(*args))
    objs = build_example(example)
    with pytest.raises(JacobiError, match="Hamiltonian relations defect") as err:
        if "beta" in objs:
            JacobiSide.from_pair(objs["alpha"], objs["beta"], objs["k"], objs["l"],
                                 side=side_name, resolution=4)
        else:
            JacobiSide.from_contact_form(objs["alpha"], resolution=5)
    assert err.value.condition is None  # an input error (exit 2), not a non-finite failure


# --- Hamiltonian fields -----------------------------------------------------------

def test_constant_function_gives_reeb(t3_side, pair_side):
    # X_1 = 1 E + Λ♯0 is E exactly, so the jacobi verdict takes E as X_1
    for side in (t3_side, pair_side):
        assert np.array_equal(side.solve_hamiltonian(ex.const(1.0)), side.e_values)


def test_defining_relation_darboux():
    _, alpha = darboux_model(1, resolution=9)
    side = JacobiSide.from_contact_form(alpha, resolution=9)
    x = side.solve_hamiltonian(ex.variable(2))  # f = z
    pairing = np.einsum("pi,pi->p", side.alpha_values, x)
    np.testing.assert_allclose(pairing, side.points[:, 2], atol=1e-12)


def test_hamiltonian_tangent_to_leaves(pair_side):
    x = pair_side.solve_hamiltonian(ex.parse("sin(x0)*cos(x1)", 6))
    assert np.max(np.abs(x[:, 3:])) < 1e-12


def test_flow_preserves_contact_plane(t3_side):
    # (L_{X_f} alpha) ^ alpha = 0 up to O(h^2): finite-difference Lie derivative
    side = t3_side
    _, alpha = torus_contact()
    dalpha_mat = two_form_matrices(3, alpha.d().values(side.points))
    f = ex.parse("sin(x1)*cos(x2)", 3)
    x = side.solve_hamiltonian(f)
    n = side.model.n
    xg = x.reshape(side.grid_shape + (n,))
    # L_X alpha = i_X d alpha + d(alpha(X)); assemble both terms gridwise
    ax = np.einsum("pi,pi->p", side.alpha_values, x)
    d_ax = side.grid_gradient(ax)
    ixda = np.einsum("pi,pij->pj", x, dalpha_mat)
    lie = ixda + d_ax
    # wedge with alpha: components of the 2-form (lie ^ alpha)
    worst = 0.0
    for i, j in multi_indices(n, 2):
        comp = lie[:, i] * side.alpha_values[:, j] - lie[:, j] * side.alpha_values[:, i]
        worst = max(worst, float(np.max(np.abs(comp[side.interior_mask]))))
    h2 = max(s * s for s in side.steps)
    assert worst < 10.0 * h2


# --- bracket --------------------------------------------------------------------

def test_bracket_antisymmetry_exact(t3_side):
    f = ex.parse("sin(x0)*cos(x1)", 3)
    g = ex.parse("cos(x1) + sin(x2)", 3)
    assert np.max(np.abs(jacobi_bracket(f, f, t3_side))) == 0.0
    b1 = jacobi_bracket(f, g, t3_side)
    b2 = jacobi_bracket(g, f, t3_side)
    assert np.max(np.abs(b1 + b2)) == 0.0


def test_constant_bracket_is_reeb_derivative(t3_side):
    g = ex.parse("cos(x1) + sin(x2)", 3)
    bracket = jacobi_bracket(ex.const(1.0), g, t3_side)
    _, _, eg = t3_side.scalar_data(g)
    h2 = max(s * s for s in t3_side.steps)
    assert np.max(np.abs(bracket - eg)) < 10.0 * h2


def test_locality_of_disjoint_bumps(t3_side):
    f = grid_bump(t3_side, (3, 3, 3), 3)
    g = grid_bump(t3_side, (11, 11, 11), 3)  # supports 2+ cells apart
    assert np.max(np.abs(jacobi_bracket(f, g, t3_side))) < 1e-9


def test_bracket_accepts_grid_functions(t3_side):
    rng = np.random.default_rng(0)
    f = np.sin(t3_side.points[:, 0]) * np.cos(t3_side.points[:, 1])
    g = ex.parse("sin(x2)", 3)
    out = jacobi_bracket(f, g, t3_side)
    assert out.shape == (16**3,)


# --- Jacobi identity ---------------------------------------------------------------

def test_jacobi_identity_with_repeated_argument(t3_side):
    f = ex.parse("sin(x0)*cos(x1)", 3)
    g = ex.parse("sin(x2)", 3)
    assert jacobi_identity_defect(f, f, g, t3_side) < 1e-12


def test_jacobi_identity_with_constant(t3_side):
    f = ex.const(1.0)
    g = ex.parse("sin(x1)*cos(x2)", 3)
    h = ex.parse("sin(x2)", 3)
    h2 = max(s * s for s in t3_side.steps)
    assert jacobi_identity_defect(f, g, h, t3_side) < 10.0 * h2


def test_jacobi_identity_converges():
    _, alpha = torus_contact()
    f = ex.parse("sin(x1)*cos(x2)", 3)
    g = ex.parse("sin(x2)", 3)
    h = ex.parse("cos(x1)", 3)
    defects = []
    for res in (16, 32):
        side = JacobiSide.from_contact_form(alpha, resolution=res)
        defects.append(jacobi_identity_defect(f, g, h, side))
    assert defects[0] / defects[1] >= 3.5


# --- the library identity's stencil sweeps ---------------------------------------------

def _task_functions(side):
    """Functions of two of the side's axes, as the jacobi task once took them."""
    n = side.model.n
    c = list(side.model.coordinate_axes)
    f = ex.parse(f"sin(x{c[1 % len(c)]})*cos(x{c[2 % len(c)]})", n)
    g = ex.parse(f"sin(x{c[2 % len(c)]})", n)
    h = ex.parse(f"cos(x{c[1 % len(c)]})", n)
    return f, g, h


def _library_side(example, side_name, resolution):
    objs = build_example(example)
    if "beta" in objs:
        return JacobiSide.from_pair(objs["alpha"], objs["beta"], objs["k"], objs["l"],
                                    side=side_name, resolution=resolution)
    return JacobiSide.from_contact_form(objs["alpha"], resolution=resolution)


@pytest.mark.parametrize("example, side_name, resolution", [
    ("torus-contact", "alpha", 12),
    ("darboux2", "alpha", 5),
    ("t6-pair-compatible", "alpha", 5),
])
def test_jacobi_identity_defect_makes_fifteen_stencil_sweeps_per_axis(monkeypatch, example, side_name,
                                                                     resolution):
    sweeps, derivative = [], jacobi._axis_derivative
    side = _library_side(example, side_name, resolution)
    n = side.model.n

    def counted_derivative(*args):
        # the grid axes come first: a field keeps its components last
        sweeps.append(args[1])
        return derivative(*args)

    monkeypatch.setattr(jacobi, "_axis_derivative", counted_derivative)
    jacobi_identity_defect(*_task_functions(side), side)
    # f, g, h solved once, 12 + 3 per axis: two fields for each of the six
    # brackets and the gradients of the three inner solves
    assert sorted(sweeps) == sorted(15 * tuple(range(n)))


def test_a_bracket_whose_unread_component_overflows_is_not_finite(t3_side):
    # alpha reads components 1 and 2; component 0 of Y runs -1e308, -1e308,
    # 1e308, 1e308, ... along x0, so its central difference overflows and
    # alpha_0 [X, Y]_0 = 0 * inf is NaN
    x = t3_side.e_values
    y = np.zeros_like(x)
    y[:, 0] = np.where(np.indices(t3_side.grid_shape)[0].reshape(-1) // 2 % 2, 1e308, -1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        got = t3_side.bracket_values(x, y)
        want = _reference_bracket(t3_side, x, y)
    assert np.isnan(got).any() and np.array_equal(got, want, equal_nan=True)


def _reference_bracket(side, xv, yv):
    """alpha([X, Y]) with full-size temporaries, one pair at a time."""
    n = side.model.n
    xg, yg = xv.reshape(side.grid_shape + (n,)), yv.reshape(side.grid_shape + (n,))
    out = np.zeros_like(xv)
    for d, (i, h, per) in enumerate(zip(side.model.coordinate_axes, side.steps, side.periodic)):
        dx = _axis_derivative(xg, d, h, per).reshape(-1, n)
        dy = _axis_derivative(yg, d, h, per).reshape(-1, n)
        out += xv[:, i : i + 1] * dy - yv[:, i : i + 1] * dx
    return np.einsum("pi,pi->p", side.alpha_values, out)


@pytest.mark.parametrize("example, side_name, resolution", [
    ("torus-contact", "alpha", 20),  # periodic
    ("darboux1", "alpha", 9),
    ("darboux2", "alpha", 6),  # box axes with one-sided stencils
    ("t6-pair-compatible", "alpha", 5),  # a pair side
    ("t6-pair-compatible", "beta", 5),
])
def test_bracket_values_equal_the_reference_bracket(example, side_name, resolution):
    _check_brackets(example, side_name, resolution)


def test_brackets_of_grid_function_fields_equal_the_reference_bracket():
    # f, g, h given as grid arrays: their gradients are stencil sweeps too
    _check_brackets("darboux2", "alpha", 6, grid_arrays=True)


def _check_brackets(example, side_name, resolution, grid_arrays=False):
    side = _library_side(example, side_name, resolution)
    f, g, h = _task_functions(side)
    if grid_arrays:
        f, g, h = (ex.evaluate_many(u, side.points) for u in (f, g, h))
    x1, xf, xg, xh = (side.solve_hamiltonian(u) for u in (ex.const(1.0), f, g, h))
    for xv, yv in [(x1, xg), (xf, xg), (xg, xf), (xg, xh), (xh, xf), (xf, xf)]:
        _assert_equal_with_evidence(side.bracket_values(xv, yv), _reference_bracket(side, xv, yv))


def _assert_equal_with_evidence(got, want):
    """``np.array_equal(got, want)``, exact and NaN unequal, as an assert
    that keeps its evidence: on a mismatch it reports how many entries
    differ, the first flat index, both values there as ``float.hex``, and
    each operand's shape, strides and address modulo 64."""
    got, want = np.asarray(got), np.asarray(want)
    if np.array_equal(got, want):
        return
    layout = [(a.shape, a.strides, a.ctypes.data % 64) for a in (got, want)]
    if got.shape != want.shape:
        raise AssertionError(f"shapes differ; (shape, strides, address % 64): {layout}")
    differ = np.flatnonzero(got != want)
    first = int(differ[0])
    raise AssertionError(
        f"{differ.size} of {got.size} entries differ, first at flat index {first}: "
        f"{float(got.flat[first]).hex()} != {float(want.flat[first]).hex()}; "
        f"(shape, strides, address % 64): {layout}"
    )


def test_identity_defect_equals_the_nested_brackets(t3_side):
    f, g, h = _task_functions(t3_side)
    nested = (
        jacobi_bracket(jacobi_bracket(f, g, t3_side), h, t3_side)
        + jacobi_bracket(jacobi_bracket(g, h, t3_side), f, t3_side)
        + jacobi_bracket(jacobi_bracket(h, f, t3_side), g, t3_side)
    )
    assert jacobi_identity_defect(f, g, h, t3_side) == float(np.max(np.abs(nested[t3_side.interior_mask])))


# --- copy-free stencils ------------------------------------------------------------------

def _rolled_derivative(g, axis, h, periodic):
    out = (np.roll(g, -1, axis=axis) - np.roll(g, 1, axis=axis)) / (2.0 * h)
    if not periodic:
        gm = np.moveaxis(g, axis, 0)
        om = np.moveaxis(out, axis, 0)
        om[0] = (-3.0 * gm[0] + 4.0 * gm[1] - gm[2]) / (2.0 * h)
        om[-1] = (3.0 * gm[-1] - 4.0 * gm[-2] + gm[-3]) / (2.0 * h)
    return out


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(7, 5, 6), (4, 9, 5, 3), (3, 4), (3, 4, 9, 5)])
def test_axis_derivative_is_bit_identical_to_shifted_copies(shape, periodic):
    # along every axis, with a field's components last or first
    g = np.random.default_rng(5).normal(size=shape) * 1e3
    for axis in range(len(shape)):
        want = _rolled_derivative(g, axis, 0.37, periodic).tobytes()
        assert _axis_derivative(g, axis, 0.37, periodic).tobytes() == want
        assert _axis_derivative(np.asfortranarray(g), axis, 0.37, periodic).tobytes() == want


# --- pointwise algebra once per distinct sample ------------------------------------------

def _full_grid_reference(objs, side_name, resolution):
    """The arrays a side keeps, computed at every grid point."""
    alpha = objs["alpha"]
    model = alpha.model
    n = model.n
    pts = grid_points(model, resolution)
    tol = default_tolerance(model)
    if "beta" in objs:
        k, l = objs["k"], objs["l"]
        cert = verify_contact_pair(alpha, objs["beta"], k, l, tol=tol, points=pts)
        s = cert.sampled
        fa, fb, fda, fdb = s.factors()
        # the einsum operands are C-ordered, as before the samples were component-major
        if side_name == "alpha":
            own, e, lam = dense_samples(s)[0], cert.reeb_alpha_values, jacobi._hamiltonian_operator(
                n, k, (fa,), (fda,), (contact._wedge(n, fb, *[fdb] * l),))[0]
        else:
            own, e, lam = dense_samples(s)[1], cert.reeb_beta_values, jacobi._hamiltonian_operator(
                n, l, (fb,), (fdb,), (contact._wedge(n, fa, *[fda] * k),))[0]
    else:
        own = np.ascontiguousarray(alpha.values(pts))
        dav = alpha.d().values(pts)
        e = _form_reeb(n, own, dav)[0]
        lam = jacobi._hamiltonian_operator(n, n // 2, ((1, own),), ((2, dav),))[0]
    return {"points": pts, "alpha_values": own, "e_values": e, "lambda_sharp": lam}


def _every_axis_form():
    """A contact form on the box [-1, 1]^3 whose coefficients mention every
    axis: 0.1 y dx + x dy + (1 + 0.1 z) dz, with alpha ^ d alpha = 0.9 (1 + 0.1 z)."""
    model = box_chart([(-1.0, 1.0)] * 3, resolution=9)
    alpha = form_from_expressions(model, 1, {0: "0.1*x1", 1: "x0", 2: "1+0.1*x2"})
    return {"model": model, "alpha": alpha, "k": 1}


@pytest.mark.parametrize("example, side_name, resolution", [
    ("torus-contact", "alpha", 12),
    ("darboux1", "alpha", 9),
    ("darboux2", "alpha", 5),
    ("t2-pair-type00", "alpha", 6),
    ("t2-pair-type00", "beta", 6),
    ("t6-pair-compatible", "alpha", 4),
    ("t6-pair-compatible", "beta", 4),
    ("t6-pair-incompatible", "alpha", 5),
    ("t6-pair-incompatible", "beta", 5),
    ("every-axis", "alpha", 9),
])
def test_sub_grid_side_equals_the_full_grid_reference(example, side_name, resolution):
    objs = _every_axis_form() if example == "every-axis" else build_example(example)
    if "beta" in objs:
        side = JacobiSide.from_pair(objs["alpha"], objs["beta"], objs["k"], objs["l"],
                                    side=side_name, resolution=resolution)
    else:
        side = JacobiSide.from_contact_form(objs["alpha"], resolution=resolution)
    reference = _full_grid_reference(objs, side_name, resolution)
    for name, expected in reference.items():
        kept = getattr(side, name)
        if name == "lambda_sharp":  # kept at the sub-grid's samples, read at row source[p]
            assert kept.flags.c_contiguous and len(kept) == side.source.max() + 1
            kept = kept[side.source]
        assert np.array_equal(kept, expected), name
        # einsum sums in an order that depends on the strides within a point
        assert kept.strides[1:] == expected.strides[1:], name
    assert side.grid_shape == grid_shape(objs["alpha"].model, resolution)
    assert not any(hasattr(side, name) for name in ("dalpha_mat", "leaf_basis", "_system", "_solve_mat"))


def test_overflow_witness_is_the_first_full_grid_point():
    # the coefficients mention x0 only: the sub-grid is x0's six nodes; the
    # amplitude 1e100 + 1e200 sin(x0)^2 keeps alpha ∧ d alpha finite at the
    # first node, x0 = 0, and overflows it at the second
    model = torus(3)
    g = "(1e100 + 1e200*sin(x0)^2)"
    alpha = form_from_expressions(model, 1, {1: f"{g}*cos(x0)", 2: f"{g}*sin(x0)"})
    pts = grid_points(model, 6)
    volume = _form_reeb(3, alpha.values(pts), alpha.d().values(pts))[1]
    assert np.isfinite(volume[0])
    with pytest.raises(JacobiError) as expected:
        _require_finite("Reeb system", volume, pts)
    with pytest.raises(JacobiError) as err:
        JacobiSide.from_contact_form(alpha, resolution=6)
    assert err.value.witness == expected.value.witness
    assert err.value.witness["index"] == 36
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("example, side_name, resolution", [
    ("darboux2", "alpha", 6),  # 7776 points, two blocks of 4096
    ("t6-pair-compatible", "beta", 5),
])
def test_hamiltonian_fields_read_the_sub_grid_operator_bit_for_bit(example, side_name, resolution):
    # Λ♯ stays at the sub-grid's samples; each block takes its rows into the
    # einsum that the spread operator went through
    side = _library_side(example, side_name, resolution)
    f = ex.parse("sin(x0)+0.5*cos(x1)" + "".join(f"+0.25*sin(x{a})*cos(x0)" for a in range(2, side.model.n)),
                 side.model.n)
    vals, grad, _ = side.scalar_data(f)
    spread = np.ascontiguousarray(side.lambda_sharp[side.source])
    assert len(side.lambda_sharp) < len(side.points) == len(spread)
    expected = vals[:, None] * side.e_values + np.einsum("pij,pj->pi", spread, grad)
    assert side.solve_hamiltonian(f).tobytes() == expected.tobytes()


def test_t6_verdict_solves_one_reeb_system_per_distinct_sample(monkeypatch, capsys):
    systems, operators = [], []
    reeb_pair, operator = contact._reeb_pair, jacobi._hamiltonian_operator

    def counted_reeb(s, chains):
        systems.append(np.shape(reeb_rows(s)))
        return reeb_pair(s, chains)

    def counted_operator(*args):
        lam = operator(*args)
        operators.append(lam.shape)
        return lam

    monkeypatch.setattr(contact, "_reeb_pair", counted_reeb)
    monkeypatch.setattr(jacobi, "_hamiltonian_operator", counted_operator)
    assert main(["jacobi", "--example", "t6-pair-compatible"]) == 0
    capsys.readouterr()
    # the forms mention x0 and x3 only: 6 x 6 of the 6^6 grid points, each
    # with one Reeb system and one operator Λ♯ with its partials along x0 and x3
    assert systems == [(36, 14, 6)] and operators == [(3, 36, 6, 6)]


@pytest.mark.parametrize("make", [t6_pair, heisenberg6])
def test_relation_rows_are_the_stacked_reeb_rows(make):
    # a side's rows (alpha; i_. d alpha), from the compact chain factors of
    # the samples or from dense ones, are those of the stacked Reeb rows, bit
    # for bit
    model, alpha, beta = make()
    pts = random_points(model, 500, np.random.default_rng(5))
    s = SampledPair.of(alpha, beta, pts)
    stacked, factors, dense = reeb_rows(s), s.factors(), dense_samples(s)
    for w in (0, 1):
        want = stacked[:, [w, *range(2 + 6 * w, 8 + 6 * w)]]
        for form, dform in ((factors[w], factors[2 + w]), ((1, dense[w]), (2, dense[2 + w]))):
            got = jacobi._relation_rows(6, form, dform)
            assert got.shape == (len(pts), 7, 6) and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


# --- the jacobi verdict: exact structure tensors at the distinct samples ------------------

def _verdict_side(objs, side_name, resolution):
    """The jacobi verdict's side of objs, with the partials of Λ♯ and E."""
    if "beta" in objs:
        return jacobi._pair_side(objs["alpha"], objs["beta"], objs["k"], objs["l"], side_name, resolution,
                                 partials=True)
    return jacobi._form_side(objs["alpha"], resolution, partials=True)


def _jacobi_run(example, side_name, resolution, capsys):
    """(exit code, task) of the CLI jacobi verdict on a builtin example."""
    argv = ["jacobi", "--example", example, "--resolution", str(resolution), "--format", "structured"]
    code = main(argv + (["--side", side_name] if "beta" in build_example(example) else []))
    return code, json.loads(capsys.readouterr().out)["tasks"][0]


@pytest.mark.parametrize("example, resolution, samples, nominal", [
    ("t6-pair-compatible", None, 36, 6 ** 6),  # the forms mention x0 and x3
    ("torus-contact", 32, 32, 32 ** 3),  # x0
    ("darboux1", None, 16, 16 ** 3),  # x; the box axes y and z are held too
    ("darboux2", 10, 100, 10 ** 5),  # x1 and x2
    ("darboux2", None, 256, 16 ** 5),  # the default, 2^20 grid points
])
def test_verdict_forms_only_the_distinct_samples(monkeypatch, capsys, example, resolution, samples, nominal):
    formed, tensor_points = [], jacobi._tensor_points

    def recorded(n, coord, grids):
        formed.append(math.prod(len(g) for g in grids))
        return tensor_points(n, coord, grids)

    monkeypatch.setattr(jacobi, "_tensor_points", recorded)
    argv = ["jacobi", "--example", example, "--format", "structured"]
    assert main(argv + ([] if resolution is None else ["--resolution", str(resolution)])) == 0
    result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
    # the report names the grid; no point of it but the sub-grid's is formed
    assert math.prod(result["grid"]) == nominal and formed == [samples]
    assert set(result) == {"leaf_dimension", "grid", "hamiltonian_relations_defect",
                           "jacobi_identity_defect", "reeb_invariance_defect"}


_DIGEST_SIDES = [
    ("torus-contact", "alpha", 32), ("darboux1", "alpha", 24), ("darboux2", "alpha", 10),
    ("t6-pair-compatible", "alpha", 6), ("t6-pair-compatible", "beta", 6),
    ("t6-pair-incompatible", "alpha", 6), ("t6-pair-incompatible", "beta", 6),
    ("t2-pair-type00", "alpha", 6), ("t2-pair-type00", "beta", 6),
]


def _cyclic(t):
    """t^{abc} + t^{bca} + t^{cab} of a (P, n, n, n) array."""
    return t + t.transpose(0, 3, 1, 2) + t.transpose(0, 2, 3, 1)


@pytest.mark.parametrize("example, side_name, resolution", _DIGEST_SIDES)
def test_structure_defects_are_rounding_errors_of_nonzero_terms(example, side_name, resolution):
    side = _verdict_side(build_example(example), side_name, resolution)
    checks = {name: (defect, threshold) for name, defect, threshold, _ in jacobi._structure_checks(side)}
    assert all(defect <= 1e-8 * threshold for defect, threshold in checks.values())
    # the sign is pinned: C = -W, and W = Σ_cyc E^a Λ^{bc} is no rounding error
    # where Λ♯ is not 0 (every side here but the 1-dimensional leaves of type (0, 0))
    w = np.abs(_cyclic(np.einsum("pa,pbc->pabc", side.e, side.lam))).max()
    assert (w > 0.5) == (example != "t2-pair-type00")


@pytest.mark.parametrize("make, side_name, resolutions", [
    (_every_axis_form, "alpha", (9, 17)),  # every axis mentioned, on a box
    (lambda: _non_constant_volume_pair(), "alpha", (9, 17)),  # a box times T^3
    (lambda: build_example("t6-pair-compatible"), "beta", (16, 32)),
])
def test_exact_partials_are_the_limit_of_central_differences(make, side_name, resolutions):
    # along each axis the forms mention, the central differences of Λ♯ and E
    # at the sub-grid approach the exact partials at second order
    objs, errors = make(), []
    model = objs["alpha"].model
    for resolution in resolutions:
        side = _verdict_side(objs, side_name, resolution)
        assert side.axes and all(side.grid.sub_shape[a] > 1 for a in side.axes)
        worst = 0.0
        for exact, values in ((side.dlam, side.lam), (side.de, side.e)):
            grid = values.reshape(side.grid.sub_shape + values.shape[1:])
            for a, partial in zip(side.axes, exact):
                nodes = side.grid.nodes[a]
                fd = _axis_derivative(grid, a, nodes[1] - nodes[0], model.axes[a].periodic)
                worst = max(worst, float(np.abs(fd.reshape(partial.shape) - partial).max()))
        errors.append(worst)
    assert errors[0] / errors[1] >= 3.5


# --- mutants the verdict must kill -------------------------------------------------------

_OPERATOR, _PRODUCT_RULE = jacobi._hamiltonian_operator, jacobi._product_rule
_PARTIALS, _REEB_PARTIALS, _STRUCTURE = contact._coordinate_partials, jacobi._reeb_partials, jacobi._structure


def _doubled(jet):
    return tuple(None if f is None else (f[0], 2.0 * f[1], *f[2:]) for f in jet)


def _first_term_dropped(n, pairs):
    pairs = list(pairs)
    first = next((i for i, (_, d) in enumerate(pairs) if d is not None), None)
    if first is not None:
        pairs[first] = (pairs[first][0], None)
    return _PRODUCT_RULE(n, pairs)


def _broken_partials(form, axis, pts, *args):
    partial = _PARTIALS(form, axis, pts, *args)
    return None if partial is None else (2.0 * partial[0], (partial[1][0], 2.0 * partial[1][1]))


# (module, name, mutant): the partials are the one helper of both kinds of
# side, the samples' (contact.SampledPair.partials) and a form side's
_MUTANTS = {
    "double d alpha": (jacobi, "_hamiltonian_operator", lambda n, k, form, dform, tail=None: _OPERATOR(
        n, k, form, _doubled(dform), tail)),
    "negate E": (jacobi, "_structure", lambda grid, k, leaf_dim, tol, jets, axes, e, *rows: _STRUCTURE(
        grid, k, leaf_dim, tol, jets, axes, -e, *rows)),
    "transpose Λ♯": (jacobi, "_hamiltonian_operator", lambda *args: np.ascontiguousarray(
        np.swapaxes(_OPERATOR(*args), -1, -2))),
    "drop a product-rule term": (jacobi, "_product_rule", _first_term_dropped),
    "break the coordinate partials": (contact, "_coordinate_partials", _broken_partials),
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
@pytest.mark.parametrize("example, side_name, resolution", [
    ("torus-contact", "alpha", 32), ("darboux1", "alpha", 24), ("darboux2", "alpha", 10),
    ("t6-pair-compatible", "alpha", 6), ("t6-pair-compatible", "beta", 6),
])
def test_the_verdict_kills_each_mutant(monkeypatch, capsys, mutant, example, side_name, resolution):
    monkeypatch.setattr(*_MUTANTS[mutant])
    code, task = _jacobi_run(example, side_name, resolution, capsys)
    assert code == 1 and task["status"] == "fail"
    failures = {item["name"]: item for item in task["result"]["failures"]}
    # the identity of the structure tensors sees every one of them, the
    # relations of Λ♯ those that change Λ♯ or E, each at least 10x its threshold
    assert "jacobi_identity_defect" in failures
    assert ("hamiltonian_relations_defect" in failures) == (mutant in ("double d alpha", "negate E", "transpose Λ♯"))
    for item in failures.values():
        assert item["passed"] is False and item["defect"] >= 10.0 * item["threshold"]
        assert set(item["witness"]) == {"point", "index"} and len(item["witness"]["point"]) == len(task["result"]["grid"])


def _every_axis_doc(resolution):
    return {
        "models": {"box": {"kind": "chart", "axes": [{"lo": -1.0, "hi": 1.0}] * 3}},
        "forms": {"a": {"model": "box", "degree": 1, "coefficients": {"0": "0.1*x1", "1": "x0", "2": "1+0.1*x2"}}},
        "tasks": [{"task": "jacobi", "form": "a", "resolution": resolution}],
    }


def test_only_the_reeb_invariance_sees_a_zero_reeb_partial(monkeypatch, tmp_path, capsys):
    # C and W never read ∂E: with ∂E := 0 the identity passes and L_E Λ
    # fails.  On torus-contact, darboux and the t6 sides this mutant cannot
    # show: there ∂E = 0 (darboux) or Λ^{l.} ∂_l E is symmetric (E turns in
    # the plane of Λ), so the ∂E terms of L_E Λ cancel
    path = tmp_path / "every_axis.json"
    path.write_text(json.dumps(_every_axis_doc(9)))
    argv = ["jacobi", "--config", str(path), "--format", "structured"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(jacobi, "_reeb_partials", lambda *args: [np.zeros_like(d) for d in _REEB_PARTIALS(*args)])
    assert main(argv) == 1
    result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
    (failure,) = result["failures"]
    assert failure["name"] == "reeb_invariance_defect" and failure["defect"] >= 10.0 * failure["threshold"]
    assert result["jacobi_identity_defect"] < 1e-12
    # so it does on the alpha side of a pair whose volume is not constant
    objs = _non_constant_volume_pair()
    checks = jacobi._structure_checks(_verdict_side(objs, "alpha", 5))
    assert [name for name, defect, threshold, _ in checks if not defect < threshold] == ["reeb_invariance_defect"]


@pytest.mark.parametrize("example", ["t6-pair-compatible", "torus-contact"])
def test_an_overflowing_expression_fails_non_finite_with_its_grid_witness(example):
    # exp(1000 sin(x1)) overflows first at the x1 node 2 pi / 6 of the 6^6
    # t6 grid (6^4 rows before it) and at the node pi / 2 of the 8-node
    # torus-contact grid
    objs = build_example(example)
    if example == "torus-contact":
        side, n, first = JacobiSide.from_contact_form(objs["alpha"], resolution=8), 3, 2 * 8
    else:
        side, n, first = JacobiSide.from_pair(objs["alpha"], objs["beta"], 1, 1, resolution=6), 6, 6 ** 4
    with pytest.raises(JacobiError, match="non-finite function values") as err:
        side.solve_hamiltonian(ex.parse("exp(1000*sin(x1))", n))
    assert err.value.condition == "non-finite"
    assert err.value.witness == {"point": side.points[first].tolist(), "index": first}
    # values that stay finite, with a partial along x1 that overflows: its
    # first non-finite row is the witness
    f = ex.parse("1e306*cos(1001*x1)", n)
    with np.errstate(over="ignore", invalid="ignore"):
        partial = ex._values(ex.partial(f, 1), side.points)
    row = int(np.argmin(np.isfinite(partial)))
    assert np.isfinite(ex.evaluate_many(f, side.points)).all() and not np.isfinite(partial[row])
    with pytest.raises(JacobiError, match="non-finite partial along x1") as err:
        side.scalar_data(f)
    assert err.value.witness == {"point": side.points[row].tolist(), "index": row}


def test_a_form_partial_that_overflows_fails_non_finite_with_its_grid_witness():
    # 1e306 cos(1001 x0) dx1 is finite; its partial along x0 overflows first
    # at a sub-grid row of x0 alone, witnessed at its grid index
    model = torus(3)
    form = form_from_expressions(model, 1, {1: "1e306*cos(1001*x0)", 2: "1"})
    grid = jacobi._SideGrid(model, 8, (form,))
    with np.errstate(over="ignore", invalid="ignore"):
        partial = ex._values(ex.partial(form.coeffs[1], 0), grid.sub_points)
    row = int(np.argmin(np.isfinite(partial)))
    assert grid.sub_shape == (8, 1, 1) and not np.isfinite(partial[row])
    samples = [form.live_rows(grid.sub_points)]
    with pytest.raises(JacobiError, match="non-finite partial along x0") as err:
        contact._partials((form,), samples, grid.sub_points, grid.require_finite)
    assert err.value.condition == "non-finite"
    assert err.value.witness == {"point": grid.sub_points[row].tolist(), "index": row * 64}
    assert contact._coordinate_partials(form, 1, grid.sub_points, None, None) is None  # no coefficient mentions x1


def test_a_pair_verdict_takes_each_partial_once(monkeypatch, capsys):
    # the commutator and the jets of a pair side read the partials its
    # samples hold: one evaluation per form and axis, 4 x 6 on T^6
    calls = []

    def counting(form, axis, *args):
        calls.append((id(form), axis))
        return _PARTIALS(form, axis, *args)

    for module in (contact, jacobi):  # every name a side could call the helper by
        monkeypatch.setattr(module, "_coordinate_partials", counting, raising=False)
    code, _ = _jacobi_run("t6-pair-compatible", "alpha", 6, capsys)
    assert code == 0 and len(calls) == len(set(calls)) == 24


# --- an independent reference: the leaf-basis least squares -----------------------------

def _leaf_least_squares(objs, side_name, resolution, f):
    """X_f at every grid point from a leaf basis and the normal equations,
    with no wedge and no vol-dual: the right singular vectors of (beta;
    i_. d beta) for the smallest singular values span the leaves V of the
    alpha side (V = TM on a contact form), and X = basis x solves

        alpha|_V . x = f,   (d alpha)|_V^T x = (E.f) alpha|_V - (df)|_V

    in the least-squares sense, after E itself (f = 1, df = 0)."""
    model = objs["alpha"].model
    n = model.n
    pts = grid_points(model, resolution)
    forms = [objs["alpha"]]
    if "beta" in objs:
        forms = [objs["alpha"], objs["beta"]][:: 1 if side_name == "alpha" else -1]
    own, own_d = forms[0].values(pts), two_form_matrices(n, forms[0].d().values(pts))
    if len(forms) == 2:
        m = 2 * (objs["k"] if side_name == "alpha" else objs["l"]) + 1
        other_d = two_form_matrices(n, forms[1].d().values(pts))
        rows = np.concatenate([forms[1].values(pts)[:, None, :], np.swapaxes(other_d, 1, 2)], axis=1)
        basis = np.swapaxes(np.linalg.svd(rows)[2][:, n - m:, :], 1, 2)
    else:
        basis = np.broadcast_to(np.eye(n), (len(pts), n, n))
    alpha_leaf = np.einsum("pi,pim->pm", own, basis)
    d_leaf = np.swapaxes(basis, 1, 2) @ own_d @ basis
    system = np.concatenate([alpha_leaf[:, None, :], np.swapaxes(d_leaf, 1, 2)], axis=1)
    system_t = np.swapaxes(system, 1, 2)
    gram = system_t @ system

    def solve(rhs):
        return np.einsum("pim,pm->pi", basis, np.linalg.solve(gram, (system_t @ rhs[..., None]))[..., 0])

    e = solve(np.concatenate([np.ones((len(pts), 1)), np.zeros(alpha_leaf.shape)], axis=1))
    vals = ex.evaluate_many(f, pts)
    grad = np.stack([ex.evaluate_many(ex.partial(f, a), pts) for a in range(n)], axis=1)
    ef = np.einsum("pi,pi->p", e, grad)
    rhs = ef[:, None] * alpha_leaf - np.einsum("pi,pim->pm", grad, basis)
    return solve(np.concatenate([vals[:, None], rhs], axis=1))


def _non_constant_volume_pair():
    """The every-axis form times torus-contact: a (1, 1) pair on a box times
    T^3 whose volume 0.9 (1 + 0.1 x2) is not constant."""
    left = _every_axis_form()
    right, b = torus_contact()
    _, alpha, beta = product_contact_pair(left["model"], left["alpha"], right, b)
    return {"alpha": alpha, "beta": beta, "k": 1, "l": 1}


@pytest.mark.parametrize("example, side_name, resolution", [
    ("torus-contact", "alpha", 32),
    ("darboux1", "alpha", 24),
    ("darboux2", "alpha", 10),
    ("t6-pair-compatible", "alpha", 6),
    ("t6-pair-compatible", "beta", 6),
    ("t6-pair-incompatible", "alpha", 6),
    ("t6-pair-incompatible", "beta", 6),
    ("t2-pair-type00", "alpha", 16),
    ("t2-pair-type00", "beta", 16),
    ("every-axis", "alpha", 9),
    ("non-constant-volume", "alpha", 5),
    ("non-constant-volume", "beta", 5),
])
def test_hamiltonian_field_equals_the_leaf_least_squares(example, side_name, resolution):
    # the jacobi sides of the digest matrix at their resolutions, the
    # every-axis form and a pair side whose volume is not constant
    objs = {"every-axis": _every_axis_form, "non-constant-volume": _non_constant_volume_pair}.get(
        example, lambda: build_example(example))()
    if "beta" in objs:
        side = JacobiSide.from_pair(objs["alpha"], objs["beta"], objs["k"], objs["l"],
                                    side=side_name, resolution=resolution)
    else:
        side = JacobiSide.from_contact_form(objs["alpha"], resolution=resolution)
    n = side.model.n
    # a function whose gradient has a component on every axis
    f = ex.parse("sin(x0)+0.5*cos(x1)" + "".join(f"+0.25*sin(x{a})*cos(x0)" for a in range(2, n)), n)
    x = side.solve_hamiltonian(f)
    reference = _leaf_least_squares(objs, side_name, resolution, f)
    assert np.max(np.abs(x - reference)) <= 1e-12 * max(1.0, float(np.max(np.abs(x))))
