import json

import numpy as np
import pytest

from contactpairs import expressions as ex
from contactpairs import runner
from contactpairs.cli import main
from contactpairs.config import parse_config
from contactpairs.contact import darboux_model, product_contact_pair, torus_contact
from contactpairs.exterior import multi_indices
from contactpairs.fields import coframe
from contactpairs.jacobi import (
    JacobiError,
    JacobiSide,
    _axis_derivative,
    bivector_contract,
    build_bivector,
    hamiltonian_field,
    jacobi_bracket,
    jacobi_identity_defect,
)
from contactpairs.models import heisenberg3, torus
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
    t3 = torus(3)
    with pytest.raises(JacobiError, match="contact"):
        JacobiSide.from_contact_form(coframe(t3, 0), resolution=8)


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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_hamiltonian_solve_fails_on_non_finite_grid_values(t3_side, bad):
    values = np.cos(t3_side.points[:, 0])
    values[123] = bad
    with pytest.raises(JacobiError, match="non-finite Hamiltonian system") as err:
        t3_side.solve_hamiltonian(values)
    assert err.value.condition == "non-finite"
    assert err.value.witness["point"] == t3_side.points[err.value.witness["index"]].tolist()


def test_pair_side_leaf_dimension(pair_side):
    assert pair_side.leaf_dim == 3
    # leaves are tangent to the left factor: basis has no right components
    assert np.max(np.abs(pair_side.leaf_basis[:, 3:, :])) < 1e-12


# --- Hamiltonian fields -----------------------------------------------------------

def test_constant_function_gives_reeb(t3_side):
    x1 = t3_side.solve_hamiltonian(ex.const(1.0))
    assert np.max(np.abs(x1 - t3_side.e_values)) < t3_side.tol


def test_defining_relation_darboux():
    _, alpha = darboux_model(1, resolution=9)
    side = JacobiSide.from_contact_form(alpha, resolution=9)
    x = side.solve_hamiltonian(ex.variable(2))  # f = z
    pairing = np.einsum("pi,pi->p", side.alpha_values, x)
    np.testing.assert_allclose(pairing, side.points[:, 2], atol=1e-12)


def test_hamiltonian_field_wrapper(t3_side):
    f = ex.parse("sin(x1)", 3)
    field = hamiltonian_field(f, t3_side)
    assert field.values.shape == (16**3, 3)
    assert field.grid_shape == (16, 16, 16)


def test_hamiltonian_tangent_to_leaves(pair_side):
    x = pair_side.solve_hamiltonian(ex.parse("sin(x0)*cos(x1)", 6))
    assert np.max(np.abs(x[:, 3:])) < 1e-12


def test_flow_preserves_contact_plane(t3_side):
    # (L_{X_f} alpha) ^ alpha = 0 up to O(h^2): finite-difference Lie derivative
    side = t3_side
    f = ex.parse("sin(x1)*cos(x2)", 3)
    x = side.solve_hamiltonian(f)
    n = side.model.n
    xg = x.reshape(side.grid_shape + (n,))
    # L_X alpha = i_X d alpha + d(alpha(X)); assemble both terms gridwise
    ax = np.einsum("pi,pi->p", side.alpha_values, x)
    d_ax = side.grid_gradient(ax)
    ixda = np.einsum("pi,pij->pj", x, side.dalpha_mat)
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


# --- bivector -------------------------------------------------------------------

def test_bivector_consistency_converges():
    _, alpha = torus_contact()
    f = ex.parse("sin(x1)*cos(x2)", 3)
    g = ex.parse("cos(x1) + sin(x2)", 3)
    defects = []
    for res in (16, 32, 64):
        side = JacobiSide.from_contact_form(alpha, resolution=res)
        biv, _ = build_bivector(side)
        fv, df, ef = side.scalar_data(f)
        gv, dg, eg = side.scalar_data(g)
        recon = bivector_contract(biv, df, dg) + fv * eg - gv * ef
        direct = jacobi_bracket(f, g, side)
        defects.append(float(np.max(np.abs(recon - direct))))
    assert defects[0] / defects[1] >= 3.5
    assert defects[1] / defects[2] >= 3.5


def test_bivector_on_pair_side(pair_side):
    biv, _ = build_bivector(pair_side)
    # antisymmetry exact by storage of increasing pairs only
    assert biv.values.shape[1] == len(multi_indices(6, 2))
    # degenerate directions: the alpha-side structure is tangent to its leaves
    bad = [pos for pos, (i, j) in enumerate(multi_indices(6, 2)) if i >= 3 or j >= 3]
    assert np.max(np.abs(biv.values[:, bad])) < 1e-12


def test_bivector_reeb_field(t3_side):
    _, e = build_bivector(t3_side)
    assert np.max(np.abs(e.values - t3_side.e_values)) == 0.0


def test_bivector_on_box_side():
    _, alpha = darboux_model(1, resolution=9)
    side = JacobiSide.from_contact_form(alpha, resolution=9)
    biv, _ = build_bivector(side)
    f = ex.parse("x2", 3)
    g = ex.parse("x0*x1", 3)
    fv, df, ef = side.scalar_data(f)
    gv, dg, eg = side.scalar_data(g)
    recon = bivector_contract(biv, df, dg) + fv * eg - gv * ef
    direct = jacobi_bracket(f, g, side)
    h2 = max(s * s for s in side.steps)
    assert np.max(np.abs((recon - direct)[side.interior_mask])) < 10.0 * h2


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


# --- one solve per function ---------------------------------------------------------

def _task_functions(side):
    """The f, g, h of the jacobi task on this side."""
    n = side.model.n
    c = list(side.model.coordinate_axes)
    f = ex.parse(f"sin(x{c[1 % len(c)]})*cos(x{c[2 % len(c)]})", n)
    g = ex.parse(f"sin(x{c[2 % len(c)]})", n)
    h = ex.parse(f"cos(x{c[1 % len(c)]})", n)
    return f, g, h


def test_jacobi_task_solves_each_hamiltonian_field_once(monkeypatch, capsys):
    calls = []
    solve = JacobiSide.solve_hamiltonian

    def counted(self, f):
        calls.append(f)
        return solve(self, f)

    monkeypatch.setattr(JacobiSide, "solve_hamiltonian", counted)
    for argv in (["--example", "torus-contact", "--resolution", "12"],
                 ["--example", "t6-pair-compatible", "--resolution", "5"]):
        calls.clear()
        assert main(["jacobi", *argv]) == 0
        # 1, f, g, h and the three inner brackets of the Jacobi identity
        assert len(calls) == 7
    capsys.readouterr()


@pytest.mark.parametrize("example, side_name, resolution", [
    ("torus-contact", "alpha", 12),
    ("t6-pair-compatible", "alpha", 5),
    ("t6-pair-compatible", "beta", 5),
])
def test_jacobi_task_equals_the_public_bracket_functions(example, side_name, resolution):
    objs = build_example(example)
    cfg = parse_config({})
    params = {"task": "jacobi", "resolution": resolution, "side": side_name}
    status, data = runner._task_jacobi(cfg, params, objs, None, None)
    if "beta" in objs:
        side = JacobiSide.from_pair(objs["alpha"], objs["beta"], objs["k"], objs["l"],
                                    side=side_name, resolution=resolution)
    else:
        side = JacobiSide.from_contact_form(objs["alpha"], resolution=resolution)
    f, g, h = _task_functions(side)
    one = ex.const(1.0)
    _, _, eg = side.scalar_data(g)
    anti = jacobi_bracket(f, g, side) + jacobi_bracket(g, f, side)
    one_bracket = jacobi_bracket(one, g, side)
    expected = {
        "reeb_as_hamiltonian_defect": float(np.max(np.abs(side.solve_hamiltonian(one) - side.e_values))),
        "bracket_antisymmetry_defect": float(np.max(np.abs(anti))),
        "constant_bracket_defect": float(np.max(np.abs(one_bracket - eg)[side.interior_mask])),
        "jacobi_identity_defect": jacobi_identity_defect(f, g, h, side),
    }
    assert status == "pass"
    assert {key: data[key] for key in expected} == expected


def test_identity_defect_equals_the_nested_brackets(t3_side):
    f, g, h = _task_functions(t3_side)
    nested = (
        jacobi_bracket(jacobi_bracket(f, g, t3_side), h, t3_side)
        + jacobi_bracket(jacobi_bracket(g, h, t3_side), f, t3_side)
        + jacobi_bracket(jacobi_bracket(h, f, t3_side), g, t3_side)
    )
    assert jacobi_identity_defect(f, g, h, t3_side) == float(np.max(np.abs(nested[t3_side.interior_mask])))


# --- copy-free stencils and the identity leaf basis -------------------------------------

def _rolled_derivative(g, axis, h, periodic):
    out = (np.roll(g, -1, axis=axis) - np.roll(g, 1, axis=axis)) / (2.0 * h)
    if not periodic:
        gm = np.moveaxis(g, axis, 0)
        om = np.moveaxis(out, axis, 0)
        om[0] = (-3.0 * gm[0] + 4.0 * gm[1] - gm[2]) / (2.0 * h)
        om[-1] = (3.0 * gm[-1] - 4.0 * gm[-2] + gm[-3]) / (2.0 * h)
    return out


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(7, 5, 6), (4, 9, 5, 3), (3, 4)])
def test_axis_derivative_is_bit_identical_to_shifted_copies(shape, periodic):
    g = np.random.default_rng(5).normal(size=shape) * 1e3
    for axis in range(len(shape) - 1 if len(shape) == 4 else len(shape)):
        new = _axis_derivative(g, axis, 0.37, periodic)
        assert new.tobytes() == _rolled_derivative(g, axis, 0.37, periodic).tobytes()


def test_contact_form_leaf_basis_is_a_read_only_identity(t3_side):
    basis = t3_side.leaf_basis
    assert not basis.flags.writeable
    assert basis.shape == (16**3, 3, 3) and np.array_equal(basis[123], np.eye(3))
