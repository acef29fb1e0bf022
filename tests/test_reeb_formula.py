"""The Reeb pair by the insertion identity.

With vol = alpha ∧ (d alpha)^k ∧ beta ∧ (d beta)^l = v dx^0 ∧ .. ∧ dx^{n-1},
i_{E_alpha} vol = (d alpha)^k ∧ beta ∧ (d beta)^l and i_{E_beta} vol =
-alpha ∧ (d alpha)^k ∧ (d beta)^l, and a field X with i_X vol = c has
X^i = (-1)^i c_î / v.  The package computes every Reeb field so; a least
squares solve of the defining relations, kept here as the reference, must
agree with it to within 1e-12 max(1, |E|), on the builtin pairs, the pairs
of both shipped configs and the single contact forms.  The exact
derivative of the formula, which the commutator of a full certificate
reads, must match central differences of the formula with an error that
falls as h^2.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from test_contact import heisenberg6, reeb_rows, sheared_t6_pair, t6_pair

import contactpairs
from contactpairs.cli import main
from contactpairs.config import load_config
from contactpairs.contact import (
    SampledPair,
    _Field,
    _form_reeb,
    _frame_bracket,
    _gap,
    _moved,
    _product_rule,
    _quotient_rule,
    _reeb_commutator,
    _reeb_directional,
    _reeb_pair,
    _top,
    _vol_dual,
    verify_contact_pair,
)
from contactpairs.deformation import CONVERSE_T_GRID, SampledFamily, sweep_rows
from contactpairs.exterior import FormValue, VectorValue, interior, two_form_matrices, wedge
from contactpairs.fields import form_from_expressions
from contactpairs.models import LieGroupModel, default_tolerance, random_points, sample_points
from contactpairs.registry import build_example, example_names

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("configs/heisenberg6_builtin.json", "configs/t6_explicit_family.json")
PAIRS = [name for name in example_names() if "beta" in build_example(name)]
SINGLE_FORMS = ("torus-contact", "darboux1", "darboux2", "heisenberg3")


def dense_reeb_pair(s: SampledPair, chains) -> tuple:
    """``_reeb_pair`` with its two compact fields formed dense."""
    ea, eb, residual = _reeb_pair(s, chains)
    return ea.values(), eb.values(), residual


def one_shot(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solutions of the stacked systems rows @ x = b, by
    a QR factorization of each: backward stable, so that at small t, where
    the pair's fields grow as 1/t, it does not square the condition number
    as the normal equations would."""
    q, r = np.linalg.qr(rows)
    return np.linalg.solve(r, np.swapaxes(q, -1, -2) @ b)


def assert_agrees(got: np.ndarray, want: np.ndarray) -> None:
    """got within 1e-12 max(1, |want|) of want, |.| the largest entry."""
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def assert_pair_agrees(s: SampledPair, k: int, l: int) -> None:
    """The formula's Reeb pair of s against the least squares of its Reeb
    rows (alpha; beta; i_E d alpha; i_E d beta) = (1, 0; 0, 1; 0; 0), |E|
    the largest entry of either field: where the volume nears 0 both
    fields carry the same conditioning."""
    ea, eb, residual = dense_reeb_pair(s, s.chains(k, l))
    x = one_shot(reeb_rows(s), np.eye(2 * s.n + 2, 2))
    assert_agrees(np.stack((ea, eb), axis=-1), x)
    assert float(np.max(residual)) <= 1e-12 * max(1.0, float(np.max(np.abs(x))))


# --- the formula against a least squares solve ------------------------------------------

def test_vol_dual_inverts_the_insertion():
    # i_X (v dx^0 ∧ .. ∧ dx^{n-1}) = c, one point at a time, by the exterior algebra
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        volume, c = rng.uniform(0.5, 2.0, 4), rng.standard_normal((4, n))
        x = _vol_dual(volume, c)
        assert x.flags.c_contiguous
        for p in range(4):
            top = FormValue(n, n, [volume[p]])
            np.testing.assert_allclose(interior(VectorValue(x[p]), top).coeffs, c[p], rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("name", PAIRS + ["sheared-t6"])
def test_builtin_pairs_agree_with_least_squares(name):
    if name == "sheared-t6":
        model, alpha, beta = sheared_t6_pair()
        k = l = 1
    else:
        objs = build_example(name)
        model, alpha, beta, k, l = objs["alpha"].model, objs["alpha"], objs["beta"], objs["k"], objs["l"]
    pts = sample_points(model, np.random.default_rng(1), random_count=2000)
    assert_pair_agrees(SampledPair.of(alpha, beta, pts), k, l)
    # and the certificate carries that pair
    cert = verify_contact_pair(alpha, beta, k, l, points=pts)
    s = cert.sampled
    assert_agrees(cert.reeb_alpha_values, one_shot(reeb_rows(s), np.eye(2 * s.n + 2, 2))[..., 0])


@pytest.mark.parametrize("name", [name for name in PAIRS if "family" in build_example(name)])
def test_family_pairs_at_each_t_agree_with_least_squares(name):
    family = build_example(name)["family"]
    pts = sample_points(family.model, np.random.default_rng(2), random_count=2000)
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
    for t in CONVERSE_T_GRID:
        assert_pair_agrees(sampled.at(t), family.k, family.l)


@pytest.mark.parametrize("path", CONFIGS)
def test_config_pairs_agree_with_least_squares(path):
    # the families a config declares or names by example, at its grid
    cfg = load_config(ROOT / path)
    families = list(cfg.families.values()) + [
        build_example(task.params["example"])["family"]
        for task in cfg.tasks
        if "example" in task.params and "family" in build_example(task.params["example"])
    ]
    assert families
    for family in families:
        pts = sample_points(family.model, np.random.default_rng(cfg.seed), random_count=cfg.random_count)
        sampled = SampledFamily(family, pts, default_tolerance(family.model))
        assert_pair_agrees(sampled.direction, family.k, family.l)
        for t in cfg.t_grid or CONVERSE_T_GRID:
            assert_pair_agrees(sampled.at(t), family.k, family.l)


@pytest.mark.parametrize("name", SINGLE_FORMS)
def test_single_form_reeb_field_agrees_with_least_squares(name):
    alpha = build_example(name)["alpha"]
    n = alpha.model.n
    pts = sample_points(alpha.model, np.random.default_rng(4), random_count=2000)
    av, dav = alpha.values(pts), alpha.d().values(pts)
    reeb, volume, residual = _form_reeb(n, av, dav)
    # the rows alpha and i_R d alpha, against (1; 0)
    rows = np.concatenate([av[:, None, :], np.swapaxes(two_form_matrices(n, dav), 1, 2)], axis=1)
    x = one_shot(rows, np.eye(n + 1, 1))[..., 0]
    assert_agrees(reeb, x)
    assert float(np.max(residual)) <= 1e-12 * max(1.0, float(np.max(np.abs(x))))
    # the volume is alpha ∧ (d alpha)^k
    k = (n - 1) // 2
    for p in range(0, len(pts), 97):
        top = FormValue(n, 1, av[p])
        for _ in range(k):
            top = wedge(top, FormValue(n, 2, dav[p]))
        assert volume[p] == pytest.approx(top.coeffs[0], rel=1e-13, abs=1e-300)


def test_reeb_rows_of_the_formula_pair_hold_the_defining_relations():
    # a direct check of A E = b on the sheared pair, whose fields vary
    model, alpha, beta = sheared_t6_pair()
    pts = random_points(model, 500, np.random.default_rng(6))
    s = SampledPair.of(alpha, beta, pts)
    ea, eb, residual = dense_reeb_pair(s, s.chains(1, 1))
    got = reeb_rows(s) @ np.stack((ea, eb), axis=-1)
    assert np.max(np.abs(got - np.eye(14, 2))) < 1e-13
    assert np.max(residual) < 1e-13


# --- the exact derivative of the formula ---------------------------------------------------

def scaled_sheared_t6_pair():
    """sheared_t6_pair with alpha scaled by 2 + cos(x1), a function on its
    own factor: still a contact pair, and now the volume coefficient varies
    too, so D_X v is not 0 as it is on the other T^6 pairs."""
    model, alpha, beta = sheared_t6_pair()
    scaled = form_from_expressions(model, 1, {1: "(2 + cos(x1))*cos(x0)", 2: "(2 + cos(x1))*sin(x0)"})
    return model, scaled, beta


@pytest.mark.parametrize("pair", [t6_pair, sheared_t6_pair, scaled_sheared_t6_pair])
def test_derivative_matches_central_differences_with_an_h_squared_error(pair):
    model, alpha, beta = pair()
    pts = random_points(model, 300, np.random.default_rng(9))
    s = SampledPair.of(alpha, beta, pts)
    chains = s.chains(1, 1)
    ea, eb, _ = _reeb_pair(s, chains)
    x = np.random.default_rng(10).standard_normal(6)  # a constant field X
    (moved,) = _moved(s, (_Field(6, tuple(range(6)), np.broadcast_to(x[:, None], (6, len(pts))), None),))
    exact = []
    for j, e in enumerate((ea, eb)):  # each {i: row} spread to a dense (P, 6) array
        rows = _reeb_directional(s, chains, e, moved, j)
        exact.append(np.stack([rows.get(i, np.zeros(len(pts))) for i in range(6)], axis=-1))

    def formula(shifted):
        moved = SampledPair.of(alpha, beta, shifted)
        return dense_reeb_pair(moved, moved.chains(1, 1))[:2]

    errors = []
    for h in (2e-2, 1e-2, 5e-3):
        ahead, behind = formula(pts + h * x), formula(pts - h * x)
        errors.append(max(float(np.max(np.abs(exact[i] - (ahead[i] - behind[i]) / (2 * h)))) for i in (0, 1)))
    assert errors[-1] < 1e-4
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5, errors


def test_the_scaled_pair_commutes_exactly():
    model, alpha, beta = scaled_sheared_t6_pair()
    pts = random_points(model, 2000, np.random.default_rng(13))
    cert = verify_contact_pair(alpha, beta, 1, 1, points=pts)
    assert np.ptp(cert.sampled.chains(1, 1).volume) > 1.0  # the volume varies
    assert cert.commutator_defect <= 1e-12


def dense_quotient_rule(x: np.ndarray, volume: np.ndarray, dc, dv) -> np.ndarray:
    """D x of the dense vol-dual x = ♯c / v from D c, a chain factor, and
    the array D v, each None for 0, over every component: (♯D c - x D v) /
    v, the reference of ``_quotient_rule``."""
    rate = np.zeros_like(volume) if dv is None else dv / volume
    out = x * -rate[..., None]
    if dc is not None:
        out += _vol_dual(volume, dc)
    return out


def reeb_quotients(s: SampledPair, chains, ea: _Field, eb: _Field):
    """Yield (E, volume, D c, D v, sign) for D_{E_beta} E_alpha (sign -1)
    and D_{E_alpha} E_beta (sign +1) of a type (1,1) pair on a chart: the
    operands of the quotient rule, from the product rule."""
    n, (alpha, beta, dalpha, dbeta) = s.n, s.factors()
    for x, e, j in ((ea, eb, 1), (eb, ea, 0)):
        (da, db, dda, ddb), = _moved(s, (x,))
        dm = _product_rule(n, [(dalpha, dda), (dbeta, ddb)])
        dna = _product_rule(n, [(chains.m, dm), (beta, db)])
        dv = _product_rule(n, [(alpha, da), (chains.na, dna)])
        dv = None if dv is None else _top(dv)
        if j == 0:
            yield e, chains.volume, dna, dv, -1.0
        else:
            dc = _product_rule(n, [(alpha, da), (chains.m, dm)])
            yield e, -chains.volume, dc, None if dv is None else -dv, 1.0


def dense_commutator(s: SampledPair, chains, ea: _Field, eb: _Field) -> np.ndarray:
    """max_i |D_{E_alpha} E_beta - D_{E_beta} E_alpha| per sample of a type
    (1,1) pair on a chart, on dense fields: zeros, plus and minus each
    derivative by the dense quotient rule over every component."""
    out = np.zeros((len(s.points), s.n))
    for e, volume, dc, dv, sign in reeb_quotients(s, chains, ea, eb):
        out += sign * dense_quotient_rule(e.values(), volume, dc, dv)  # a - b is a + (-b), bit for bit
    return np.abs(out).max(axis=-1)


@pytest.mark.parametrize("pair", [t6_pair, sheared_t6_pair, scaled_sheared_t6_pair])
def test_the_compact_quotient_rule_equals_the_dense_one(pair):
    # the rule's rows, on the live sets of E and of its numerator's
    # vol-dual, hold the dense rule's values; every other component is 0
    # there
    model, alpha, beta = pair()
    s = SampledPair.of(alpha, beta, random_points(model, 300, np.random.default_rng(12)))
    chains = s.chains(1, 1)
    ea, eb, _ = _reeb_pair(s, chains)
    for e, volume, dc, dv, _ in reeb_quotients(s, chains, ea, eb):
        rows, want = _quotient_rule(e, volume, dc, dv), dense_quotient_rule(e.values(), volume, dc, dv)
        got = np.zeros_like(want)
        for i, row in rows.items():
            got[:, i] = row
        assert np.array_equal(got, want)
        if pair is not t6_pair:
            assert rows


@pytest.mark.parametrize("pair", [t6_pair, sheared_t6_pair, scaled_sheared_t6_pair])
def test_the_compact_commutator_equals_the_dense_one_bit_for_bit(pair):
    # each component adds its terms as the dense arrays did; the ones no
    # term reaches are ±0 there, and a maximum of |.| is exact
    model, alpha, beta = pair()
    s = SampledPair.of(alpha, beta, random_points(model, 300, np.random.default_rng(11)))
    chains = s.chains(1, 1)
    ea, eb, _ = _reeb_pair(s, chains)
    got = _reeb_commutator(s, chains, ea, eb)
    assert got.tobytes() == dense_commutator(s, chains, ea, eb).tobytes()
    if pair is t6_pair:  # no term reads a Reeb row: no D_X factor, and D_X v = 0
        return
    # a NaN in a Reeb row reaches the commutator at its sample, and only there
    ea.rows[0, 7] = np.nan
    got = _reeb_commutator(s, chains, ea, eb)
    assert np.isnan(got[7]) and np.isfinite(np.delete(got, 7)).all()


# --- the frame bracket of a Lie commutator ------------------------------------------------

def two_step_algebra(rng, n: int = 7, center: int = 3) -> LieGroupModel:
    """A random 2-step nilpotent algebra: [e_i, e_j] = sum_k c^k_ij e_k
    with random c^k_ij for i, j below n - center and k in the center, every
    other bracket 0; every bracket is central, so the Jacobi identity holds."""
    c, g = np.zeros((n, n, n)), n - center
    for i in range(g):
        for j in range(i + 1, g):
            c[i, j, g:] = rng.standard_normal(center)
            c[j, i, g:] = -c[i, j, g:]
    return LieGroupModel(c, name="two-step")


def random_field(rng, n: int, live: tuple, points: int) -> _Field:
    """A compact field live on ``live``, random rows over the points, the
    vol-dual by a random volume of either sign."""
    volume = rng.uniform(0.5, 2.0, points) * rng.choice((-1.0, 1.0), points)
    return _Field(n, live, rng.standard_normal((len(live), points)), volume)


@pytest.mark.parametrize("case", ["heisenberg6", "two-step"])
def test_the_compact_frame_bracket_equals_the_dense_one_bit_for_bit(case):
    # no report can show a wrong bracket: on every builtin Lie pair c(E_alpha,
    # E_beta) is 0, heisenberg6-pair's fields being e2 and e5; these fields
    # have a nonzero one
    rng = np.random.default_rng(14)
    model = heisenberg6()[0] if case == "heisenberg6" else two_step_algebra(rng)
    n, points = model.n, 50
    for live_x, live_y in [((0, 1, 2), (1, 3, 4)), (tuple(range(n)), tuple(range(n))), ((0, 3), (1, 4)), ((2,), (5,))]:
        x, y = random_field(rng, n, live_x, points), random_field(rng, n, live_y, points)
        got = np.zeros((points, n))
        for k, row in _frame_bracket(model.structure, x, y).items():
            got[:, k] = row
        want = model.bracket_values(x.values(), y.values())
        assert got.tobytes() == want.tobytes()
        assert np.any(want) == (live_x != (2,))
    if case == "heisenberg6":
        _, alpha, beta = heisenberg6()
        cert = verify_contact_pair(alpha, beta, 1, 1)
        assert [f.live for f in cert.reeb_fields] == [(2,), (5,)]
        assert _frame_bracket(model.structure, *cert.reeb_fields) == {}


# --- the compact Reeb fields ---------------------------------------------------------------

def _compact_case(case):
    """(samples, k, l) of a pair whose Reeb fields are formed compact."""
    if case in ("t6-pair-compatible", "heisenberg6-pair"):
        objs = build_example(case)
        model, alpha, beta, k, l = objs["model"], objs["alpha"], objs["beta"], objs["k"], objs["l"]
    else:
        (model, alpha, beta), k, l = sheared_t6_pair(), 1, 1
    pts = sample_points(model, np.random.default_rng(8), random_count=1000)
    if not model.coordinate_axes:
        assert len(pts) == 1
    return SampledPair.of(alpha, beta, pts), k, l


def _family_batch(t_values):
    """The samples of t6-pair-compatible's family at a batch of t."""
    family = build_example("t6-pair-compatible")["family"]
    pts = random_points(family.model, 300, np.random.default_rng(8))
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
    return sampled.at(np.array(t_values)[:, None, None]), family.k, family.l


@pytest.mark.parametrize("case", ["t6-pair-compatible", "sheared-t6", "heisenberg6-pair", "t=1,1e308", "t=0,1"])
def test_the_compact_reeb_fields_form_the_bits_of_the_formula(case):
    # the dense field formed from a compact one is _vol_dual's (-1)^i c_î / v
    # byte for byte, the signed zero (-1)^i (+0.0 / v) of each component
    # outside its live set included
    if case.startswith("t="):
        s, k, l = _family_batch([float(t) for t in case[2:].split(",")])
    else:
        s, k, l = _compact_case(case)
    chains = s.chains(k, l)
    ea, eb, _ = _reeb_pair(s, chains)
    finite = bool(np.all(np.abs(chains.volume) > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for field, volume, c in ((ea, chains.volume, chains.na), (eb, -chains.volume, chains.nb)):
            want = _vol_dual(volume, c)
            got = field.values()
            assert got.flags.c_contiguous and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            dead = [i for i in range(s.n) if i not in field.live]
            assert np.all(want[..., dead] == 0.0)
            # where some volume is 0 or NaN, every component is live
            assert (len(dead) > 0) == finite
            if s.rows[0].ndim == 3:  # a t batch: each t's slice forms that t's bits
                for i in range(s.rows[0].shape[1]):
                    assert field.t_slice(i).values().tobytes() == want[i].tobytes()
    if case == "t=1,1e308":
        assert not finite and not np.isfinite(chains.volume[1]).all()
    if case == "t=0,1":  # the closed pair's volume is 0
        assert not finite and np.all(chains.volume[0] == 0.0)


def test_compact_comparisons_equal_the_dense_ones():
    # the per-sample max_i |x^i - y^i| of two compact fields equals
    # the row maxima of the dense difference, over differing live sets and
    # a non-finite field too
    s, _, _ = _compact_case("sheared-t6")
    t6, _, _ = _compact_case("t6-pair-compatible")
    batch, _, _ = _family_batch([1.0, 1e308])
    fields = [*_reeb_pair(s, s.chains(1, 1))[:2], *_reeb_pair(t6, t6.chains(1, 1))[:2]]
    family_fields = [f.t_slice(i) for f in _reeb_pair(batch, batch.chains(1, 1))[:2] for i in (0, 1)]
    assert len({f.live for f in fields}) > 1 and any(len(f.live) == 6 for f in family_fields)
    with np.errstate(over="ignore", invalid="ignore"):
        for group in (fields, family_fields):
            for x in group:
                for y in group:
                    for t in (1.0, -0.1, 10.0):
                        diff = t * x.values() - y.values()
                        got = _gap(x.scaled(t), y)
                        assert got.tobytes() == np.abs(diff).max(axis=-1).tobytes()
                        assert np.array_equal(np.max(got), np.max(np.abs(diff)), equal_nan=True)
                    assert np.array_equal(x.max_abs(), np.max(np.abs(x.values())), equal_nan=True)


# --- structure ------------------------------------------------------------------------------

def test_the_t_batch_is_the_one_block_division():
    # every batch of a family's t grid reads contact._t_batch, and it and
    # the quadrature's blocks of first-axis nodes read exterior._per_block
    sites, callers = [], []
    for path in sorted(Path(contactpairs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                nodes = list(ast.walk(function))
                sites += [
                    (path.stem, function.name) for node in nodes
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                    and getattr(node.left, "id", None) == "_BLOCK"
                ]
                callers += [
                    (path.stem, function.name) for node in nodes
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_per_block"
                ]
    assert sites == [("exterior", "_per_block")]
    assert callers == [("contact", "_t_batch"), ("models", "_integrals")]


def test_block_size_is_read_by_the_t_batch_and_the_structure_defects_alone():
    # every load of exterior._BLOCK in the package, by the innermost function
    # that reads it (None at module level): no new private block loop
    readers = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Name) and node.id == "_BLOCK" and isinstance(node.ctx, ast.Load)) or (
                isinstance(node, ast.Attribute) and node.attr == "_BLOCK"):
            readers.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(contactpairs.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert sorted(set(readers)) == [("exterior", "_per_block"), ("jacobi", "_structure_defects")]


# --- the sweep's Reeb column where the volume vanishes ------------------------------------

def test_sweep_reeb_column_grows_where_the_volume_nears_zero():
    # on t6-pair-incompatible the volume coefficient at x0 = 2 pi / 3 has a
    # root at t = 1/2, where it rounds to about 2e-17: the formula divides by
    # it, and the residual check shows how far the pair is from a Reeb pair
    family = build_example("t6-pair-incompatible")["family"]
    pts = np.array([[2 * np.pi / 3, 0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 0.1, 0.2, 0.3, 0.4, 0.5]])
    rows = sweep_rows(family, [0.25, 0.5, 1.0, 10.0], points=pts)
    assert 0.0 < rows[1]["min_volume_coeff"] < 1e-15
    assert rows[1]["max_reeb_residual"] > 1e-3
    assert all(row["max_reeb_residual"] < 1e-12 for row in rows if row["t"] != 0.5)


def test_sweep_row_is_null_where_the_volume_is_zero(tmp_path, capsys):
    # closed directions: d alpha_t = d beta_t = 0, so the volume is 0 at
    # every t and the Reeb pair 0 / 0; the Reeb column reads null, as an
    # overflowing one does, but the sweep passes: it reports where the pair
    # stops being contact, and only a null volume column is an overflow
    doc = json.loads((ROOT / CONFIGS[1]).read_text(encoding="utf-8"))
    for form in ("alpha_l", "beta_r"):
        doc["forms"][form]["coefficients"] = {"1": "1"}
    doc["samples"]["random_count"] = 50
    doc["tasks"] = [task for task in doc["tasks"] if task["task"] == "sweep"]
    path = tmp_path / "closed_directions.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--format", "structured"]) == 0
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["status"] == "pass" and "witness" not in task["result"]
    for row in task["result"]["rows"]:
        assert row["min_volume_coeff"] == row["max_volume_coeff"] == 0.0
        assert row["max_reeb_residual"] is None


def test_sweep_through_t_zero_passes_with_a_null_reeb_column(capsys):
    # at t = 0 a builtin family is its closed pair, whose d-terms are 0
    assert main(["sweep", "--example", "t6-pair-compatible", "--t-grid=-1,0,1", "--format", "structured"]) == 0
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["status"] == "pass" and "witness" not in task["result"]
    rows = task["result"]["rows"]
    assert [row["t"] for row in rows] == [-1.0, 0.0, 1.0]
    assert rows[1] == {"t": 0.0, "min_volume_coeff": 0.0, "max_volume_coeff": 0.0, "max_reeb_residual": None}
    assert all(row["max_reeb_residual"] < 1e-12 for row in (rows[0], rows[2]))
    assert task["result"]["csv"].splitlines()[2] == "0,0,0,"
