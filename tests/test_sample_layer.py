"""The evaluated-sample layer: a pair or family is evaluated once per point
set, and the samples of (alpha_t, beta_t) are affine in t.

The expression path (``DeformationFamily.at(t)`` evaluated by
``verify_contact_pair``) is kept as the reference for the affine arrays.
"""

import json
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from contactpairs import contact, deformation
from contactpairs import expressions as ex
from contactpairs.cli import main
from contactpairs.config import load_config
from contactpairs.contact import (
    ContactPairError,
    SampledPair,
    _solve_reeb,
    product_contact_pair,
    reeb_pair,
    verify_contact_pair,
)
from contactpairs.deformation import (
    CONVERSE_T_GRID,
    FORWARD_T_GRID,
    DeformationFamily,
    SampledFamily,
    sweep_rows,
    verify_converse,
    verify_forward,
)
from contactpairs.exterior import chain
from contactpairs.fields import coframe, form_from_expressions, pullback_form
from contactpairs.models import random_points, sample_points, torus
from contactpairs.registry import build_example
from contactpairs.reporting import render_structured

ROOT = Path(__file__).resolve().parent.parent
FAMILY_EXAMPLES = ("heisenberg6-pair", "t6-pair-compatible", "t6-pair-incompatible")
SWEEP_T_GRID = (-10.0, -0.1, 0.01, 0.1, 1.0, 10.0)


def _config_family():
    return load_config(ROOT / "configs" / "t6_explicit_family.json").families["fam"]


def _constant_factor_family():
    """A t6 family whose coefficients carry constant factors, with a closed
    alpha0 that is not constant."""
    left, right = torus(3), torus(3)
    a = form_from_expressions(left, 1, {1: "2*cos(x0)", 2: "2*sin(x0)"})
    b = form_from_expressions(right, 1, {1: "cos(x0)*3", 2: "3*sin(x0)"})
    model, alpha, beta = product_contact_pair(left, a, right, b)
    alpha0 = pullback_form(model, form_from_expressions(left, 1, {0: "2 + cos(x0)"}), "left")
    beta0 = pullback_form(model, coframe(right, 0), "right")
    return DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)


def _family(name):
    if name == "t6-config":
        return _config_family()
    if name == "constant-factors":
        return _constant_factor_family()
    return build_example(name)["family"]


def _points(family, seed):
    # a Lie model samples its one formal point; charts get 800 random points
    return sample_points(family.model, np.random.default_rng(seed), random_count=800)


def _record_certify(monkeypatch):
    """Record every (samples, certificate or error) of the deformation checks."""
    calls = []
    real = deformation._certify

    def recording(s, *args, **kwargs):
        try:
            cert = real(s, *args, **kwargs)
        except ContactPairError as err:
            calls.append((s, err))
            raise
        calls.append((s, cert))
        return cert

    monkeypatch.setattr(deformation, "_certify", recording)
    return calls


def _reference(family, t, pts):
    """verify_contact_pair on the expression trees of (alpha_t, beta_t)."""
    try:
        return verify_contact_pair(
            *family.at(t), family.k, family.l, tol=family.tol, points=pts,
            check_commutator=False, check_rank=False,
        )
    except ContactPairError as err:
        return err


def _assert_same(s, got, want, rtol):
    close = np.testing.assert_array_equal if rtol == 0 else (
        lambda a, b: np.testing.assert_allclose(a, b, rtol=rtol, atol=0)
    )
    if isinstance(want, ContactPairError):
        assert isinstance(got, ContactPairError), got
        assert got.condition == want.condition
        if rtol == 0:
            assert (str(got), got.witness, got.defect) == (str(want), want.witness, want.defect)
        return
    assert not isinstance(got, ContactPairError), got
    for name in ("alpha", "beta", "dalpha", "dbeta"):
        close(getattr(s, name), getattr(want.sampled, name))
    for name in ("min_volume", "dalpha_power_residual", "dbeta_power_residual", "reeb_residual",
                 "reeb_alpha_values", "reeb_beta_values"):
        close(getattr(got, name), getattr(want, name))
    assert got.orientation_sign == want.orientation_sign
    assert got.sigma_min is None and got.commutator_defect is None


CASES = [(name, 0.0) for name in FAMILY_EXAMPLES + ("t6-config",)] + [("constant-factors", 1e-14)]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_forward_certificates_match_expression_path(monkeypatch, name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    calls = _record_certify(monkeypatch)
    verify_forward(family, points=pts)
    grid = [t for t in FORWARD_T_GRID if t != 0.0]
    assert len(calls) == 1 + len(grid)
    base = verify_contact_pair(family.alpha, family.beta, family.k, family.l, tol=family.tol,
                               points=pts, check_commutator=False, check_rank=False)
    _assert_same(*calls[0], base, rtol)
    for t, (s, got) in zip(grid, calls[1:]):
        _assert_same(s, got, _reference(family, t, pts), rtol)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_converse_certificates_match_expression_path(monkeypatch, name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    calls = _record_certify(monkeypatch)
    verify_converse(family, points=pts)
    assert len(calls) == len(CONVERSE_T_GRID) + 1
    for t, (s, got) in zip(CONVERSE_T_GRID, calls):
        _assert_same(s, got, _reference(family, t, pts), rtol)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_sweep_rows_match_expression_path(name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    rows = sweep_rows(family, SWEEP_T_GRID, points=pts)
    for t, row in zip(SWEEP_T_GRID, rows):
        s = SampledPair.of(*family.at(t), pts)
        vol = s.top(family.k, family.l, s.alpha, s.beta)
        residual = _solve_reeb(s.reeb_rows(), False)[2]
        want = [float(np.min(vol)), float(np.max(vol)), float(np.max(residual))]
        got = [row["min_volume_coeff"], row["max_volume_coeff"], row["max_reeb_residual"]]
        assert row["t"] == t
        if rtol == 0:
            assert got == want
        else:
            # the residual is rounding noise of a consistent system
            np.testing.assert_allclose(got[:2], want[:2], rtol=rtol, atol=0)
            assert got[2] < 1e-12 and want[2] < 1e-12


def test_affine_samples_keep_the_dalpha0_term():
    # alpha0 = dx0 + 1e-9 sin(x1) dx0 is closed only to within the tolerance
    left, right = torus(3), torus(3)
    model, alpha, beta = product_contact_pair(
        left, form_from_expressions(left, 1, {1: "cos(x0)", 2: "sin(x0)"}),
        right, form_from_expressions(right, 1, {1: "cos(x0)", 2: "sin(x0)"}),
    )
    alpha0 = pullback_form(model, form_from_expressions(left, 1, {0: "1 + 1e-9*sin(x1)"}), "left")
    beta0 = pullback_form(model, coframe(right, 0), "right")
    family = DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)
    pts = random_points(model, 300, np.random.default_rng(3))
    sampled = SampledFamily(family, pts)
    assert np.max(np.abs(sampled.closed.dalpha)) > 1e-10
    for t in (0.0, 0.5, -2.0):
        s = sampled.at(t)
        want = SampledPair.of(*family.at(t), pts)
        for name in ("alpha", "beta", "dalpha", "dbeta"):
            np.testing.assert_allclose(getattr(s, name), getattr(want, name), rtol=1e-14, atol=1e-24)


# --- each coefficient is evaluated once ---------------------------------------

def _count_evaluations(monkeypatch, pts):
    key = zlib.crc32(np.ascontiguousarray(pts))
    calls = []
    real = ex.evaluate_many

    def counting(e, points):
        p = np.asarray(points, dtype=float)
        if p.shape == pts.shape and zlib.crc32(np.ascontiguousarray(p)) == key:
            calls.append(e)
        return real(e, points)

    monkeypatch.setattr(ex, "evaluate_many", counting)
    return calls


def _family_forms(family):
    return (family.alpha0, family.beta0, family.alpha, family.beta,
            family.dalpha0, family.dbeta0, family.alpha.d(), family.beta.d())


@pytest.mark.parametrize("name", ["t6-pair-compatible", "heisenberg6-pair"])
@pytest.mark.parametrize("task", ["forward", "converse", "sweep"])
def test_each_coefficient_is_evaluated_once(monkeypatch, name, task):
    family = build_example(name)["family"]
    forms = _family_forms(family)
    if family.model.coordinate_axes:
        pts = random_points(family.model, 500, np.random.default_rng(5))
    else:
        pts = np.ones((2, 6))  # formal points of the Lie model, apart from its quadrature node
    calls = _count_evaluations(monkeypatch, pts)
    if task == "forward":
        verify_forward(family, points=pts)
    elif task == "converse":
        verify_converse(family, points=pts)
    else:
        sweep_rows(family, SWEEP_T_GRID, points=pts)
    slots = sum(len(f.coeffs) for f in forms)
    reference_volume = 1 if task == "converse" else 0
    assert len(calls) == slots + reference_volume
    varying = [c for f in forms for c in f.coeffs if not isinstance(c, ex.Const)]
    assert bool(varying) == bool(family.model.coordinate_axes)
    for c in varying:
        assert sum(e is c for e in calls) == 1, ex.to_string(c)


# --- the commutator is one gate ------------------------------------------------

def test_commutator_gate_in_verify_pair_and_reeb_pair(monkeypatch, capsys):
    monkeypatch.setattr(contact, "_reeb_commutator", lambda s, rows, ea, eb: np.full(ea.shape, 0.5))
    objs = build_example("heisenberg6-pair")
    with pytest.raises(ContactPairError) as err:
        verify_contact_pair(objs["alpha"], objs["beta"], 1, 1)
    assert err.value.condition == "reeb-commutator"
    assert err.value.defect == 0.5
    with pytest.raises(ContactPairError) as err:
        reeb_pair(objs["alpha"], objs["beta"])
    assert err.value.condition == "reeb-commutator"
    # without the check the commutator is neither computed nor gated
    cert = verify_contact_pair(objs["alpha"], objs["beta"], 1, 1, check_commutator=False)
    assert cert.commutator_defect is None

    code = main(["verify-pair", "--example", "heisenberg6-pair", "--format", "structured"])
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert code == 1
    assert task["status"] == "fail"
    assert task["result"]["error"]["condition"] == "reeb-commutator"


# --- t grids are finite numbers ------------------------------------------------

BAD_T = [float("nan"), float("inf"), float("-inf"), "abc"]


@pytest.mark.parametrize("bad", BAD_T, ids=repr)
def test_config_t_grid_must_be_finite(tmp_path, capsys, bad):
    doc = {"schema_version": 1, "t_grid": [0.1, bad],
           "tasks": [{"task": "sweep", "example": "heisenberg6-pair"}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "t_grid[1]: must be a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("bad", BAD_T, ids=repr)
def test_task_t_grid_must_be_finite(tmp_path, capsys, bad):
    doc = {"schema_version": 1,
           "tasks": [{"task": "deform-forward", "example": "heisenberg6-pair", "t_grid": [bad]}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["deform", "--config", str(path)]) == 2
    assert "tasks[0].t_grid[0]: must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc", "0.1,,1"])
def test_cli_t_grid_must_be_finite(capsys, bad):
    code = main(["sweep", "--example", "heisenberg6-pair", f"--t-grid={bad}"])
    assert code == 2
    assert "--t-grid: must be comma-separated finite numbers" in capsys.readouterr().err


# --- an overflowing t never passes ---------------------------------------------

def _run_structured(capsys, argv):
    code = main(argv + ["--format", "structured"])
    return code, json.loads(capsys.readouterr().out)["tasks"][0]


def test_overflowing_sweep_row_fails_with_its_t(capsys):
    code, task = _run_structured(capsys, ["sweep", "--example", "heisenberg6-pair", "--t-grid", "1,1e308"])
    assert code == 1
    assert task["status"] == "fail"
    assert task["result"]["witness"]["t"] == 1e308
    assert len(task["result"]["rows"]) == 2


@pytest.mark.parametrize("mode", ["forward", "converse"])
def test_overflowing_deform_check_fails_with_its_t(capsys, mode):
    code, task = _run_structured(
        capsys, ["deform", "--example", "heisenberg6-pair", "--mode", mode, "--t-grid", "1,1e308"]
    )
    assert code == 1
    assert task["status"] in ("fail", "not-applicable")
    items = task["result"]["hypotheses"] + task["result"]["conclusions"]
    failed = [i for i in items if i["passed"] is False]
    assert [i["name"] for i in failed] == ["(alpha_t,beta_t) is a contact pair at t=1e+308"]
    assert failed[0]["witness"]["condition"] == "non-finite"
    assert failed[0]["witness"]["t"] == 1e308


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


def test_overflowing_single_deform_t_fails_as_non_finite(capsys):
    argv = ["deform", "--mode", "single", "--example", "torus-contact", "--alpha0", "1,0,0",
            "--t-grid", "1,1e308", "--format", "structured"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is guarded, not warned about
        code = main(argv)
    task = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)["tasks"][0]
    assert code == 1 and task["status"] == "fail"
    result = task["result"]
    assert result["per_t"][0]["passed"] is True
    assert result["per_t"][1] == {"t": 1e308, "passed": False,
                                  "witness": {"condition": "non-finite", "t": 1e308}}
    # undecided, not a counterexample to the criterion
    assert result["condition_i"] is None and result["agreement"] is None
    assert result["condition_ii"] is True
    assert result["witness"]["condition_i"] == {"condition": "non-finite", "t": 1e308}


def test_single_deform_keeps_the_dalpha0_term():
    # alpha0 is closed only to within tol, and at small t its d dominates
    # the chain of alpha_t; the expression path is the reference
    model, alpha = contact.torus_contact()
    alpha0 = form_from_expressions(model, 1, {0: "1", 2: "1e-9*sin(x1)"})
    pts = random_points(model, 200, np.random.default_rng(0))
    t = 1e-6
    report = contact.verify_single_deformation(alpha0, alpha, t_grid=[t], points=pts)
    alpha_t = alpha0 + t * alpha
    want = chain(3, (1, alpha_t.values(pts)), (2, alpha_t.d().values(pts)))[:, 0]
    assert report.per_t[0]["min_coefficient"] == pytest.approx(want.min(), rel=1e-9)
    assert report.per_t[0]["max_coefficient"] == pytest.approx(want.max(), rel=1e-9)


def test_single_deform_of_a_closed_alpha_has_no_pairing_defect():
    model = torus(3)
    report = contact.verify_single_deformation(coframe(model, 0), coframe(model, 1), t_grid=[1.0])
    assert report.condition_ii is False and report.pairing_defect is None


@pytest.mark.parametrize("t", [1e100, 1e154, 1e308, -1e308])
def test_overflowing_t_is_a_failed_check(t):
    family = build_example("heisenberg6-pair")["family"]
    verdict = verify_forward(family, t_grid=[t])
    assert verdict.overall == "falsified"
    assert verdict.conclusions[0].witness == {"condition": "non-finite", "t": t}


def test_overflowing_sweep_row_is_strict_json_with_nulls(capsys):
    code = main(["sweep", "--example", "heisenberg6-pair", "--t-grid", "1,1e308", "--format", "structured"])
    task = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)["tasks"][0]
    assert code == 1 and task["status"] == "fail"
    result = task["result"]
    assert result["witness"] == {"t": 1e308}
    assert result["rows"][0] == {"t": 1.0, "min_volume_coeff": 1.0, "max_volume_coeff": 1.0,
                                 "max_reeb_residual": 0.0}
    assert result["rows"][1]["min_volume_coeff"] is None
    assert result["rows"][1]["max_volume_coeff"] is None
    assert result["csv"].splitlines()[2] == "1e+308,,,1"


def test_structured_report_writes_non_finite_numbers_as_null():
    text = render_structured({"a": [1.5, float("nan")], "b": {"c": float("-inf")}, "d": (float("inf"),)})
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert parsed == {"a": [1.5, None], "b": {"c": None}, "d": [None]}
