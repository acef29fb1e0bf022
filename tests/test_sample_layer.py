"""The evaluated-sample layer: a pair or family is evaluated once per point
set, and the samples of (alpha_t, beta_t) are affine in t.

The expression path (``DeformationFamily.at(t)`` evaluated by
``SampledPair.of`` and certified like a deformation item) is kept as the
reference for the affine arrays.
"""

import json
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from test_contact import sheared_t6_pair

from contactpairs import contact, deformation
from contactpairs import expressions as ex
from contactpairs.cli import main
from contactpairs.config import load_config
from contactpairs.contact import (
    ContactPairError,
    SampledPair,
    _certificate,
    _reeb_residual,
    _vol_dual,
    product_contact_pair,
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
from contactpairs.fields import FormField, coframe, form_from_expressions, pullback_form
from contactpairs.models import default_tolerance, random_points, sample_points, torus
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
    """Record every (samples, certificate or error) of the deformation
    checks, the base pair's and each t's, whose gates ran with those of its
    batch: the Reeb step completes each of them."""
    calls = []
    real = contact._reeb_step

    def recording(s, gated, reeb, chains=None):
        try:
            cert = real(s, gated, reeb, chains)
        except ContactPairError as err:
            calls.append((s, err))
            raise
        calls.append((s, cert))
        return cert

    for module in (contact, deformation):
        monkeypatch.setattr(module, "_reeb_step", recording)
    return calls


def _reference(family, t, pts):
    """The deformation item's certificate on the expression trees of
    (alpha_t, beta_t)."""
    try:
        return _certificate(
            SampledPair.of(*family.at(t), pts), family.k, family.l, default_tolerance(family.model), False
        )
    except ContactPairError as err:
        return err


def _assert_same(s, got, want, rtol):
    """The samples, every contact condition and the Reeb pair of a
    certificate match the expression path."""
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
    names = ["min_volume", "dalpha_power_residual", "dbeta_power_residual",
             "reeb_residual", "reeb_alpha_values", "reeb_beta_values"]
    for name in names:
        close(getattr(got, name), getattr(want, name))
    assert got.orientation_sign == want.orientation_sign
    close(got.residual_threshold, want.residual_threshold)
    assert got.commutator_defect is None


CASES = [(name, 0.0) for name in FAMILY_EXAMPLES + ("t6-config",)] + [("constant-factors", 1e-14)]
COMPATIBLE = {"heisenberg6-pair", "t6-pair-compatible", "t6-config", "constant-factors"}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_forward_certificates_match_expression_path(monkeypatch, name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    calls = _record_certify(monkeypatch)
    verdict = verify_forward(family, points=pts)
    scaling = {i.name: i for i in verdict.conclusions if i.name.startswith("Reeb scaling")}
    grid = [t for t in FORWARD_T_GRID if t != 0.0]
    assert len(calls) == 1 + len(grid)
    base = _certificate(SampledPair.of(family.alpha, family.beta, pts), family.k, family.l,
                        default_tolerance(family.model), False)
    s, got = calls[0]
    _assert_same(s, got, base, rtol)
    for t, (s, got) in zip(grid, calls[1:]):
        _assert_same(s, got, _reference(family, t, pts), rtol)
        if name in COMPATIBLE:  # its Reeb pair scales as (E_alpha/t, E_beta/t)
            assert scaling[f"Reeb scaling at t={t:g}"].passed


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_converse_certificates_match_expression_path(monkeypatch, name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    calls = _record_certify(monkeypatch)
    verdict = verify_converse(family, points=pts)
    assert len(calls) == len(CONVERSE_T_GRID) + 1
    for t, (s, got) in zip(CONVERSE_T_GRID, calls):
        _assert_same(s, got, _reference(family, t, pts), rtol)
    if name in COMPATIBLE:
        (item,) = [i for i in verdict.hypotheses if "constant across t" in i.name]
        assert item.passed


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_sweep_rows_match_expression_path(name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    rows = sweep_rows(family, SWEEP_T_GRID, points=pts)
    assert (family.k, family.l) == (1, 1)
    for t, row in zip(SWEEP_T_GRID, rows):
        s = SampledPair.of(*family.at(t), pts)
        # the formula's chains with every factor without a live set, so
        # that each wedge and contraction scans its operands
        m = chain(6, (2, s.dalpha), (2, s.dbeta))
        na, nb = chain(6, (4, m), (1, s.beta)), chain(6, (1, s.alpha), (4, m))
        vol = chain(6, (1, s.alpha), (5, na))[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            fields = [(_vol_dual(vol, na), None), (_vol_dual(-vol, nb), None)]
            forms = ((1, s.alpha), (1, s.beta), (2, s.dalpha), (2, s.dbeta))
            residual = _reeb_residual(6, fields, forms)
        want = [float(np.min(vol)), float(np.max(vol)), float(np.max(residual))]
        got = [row["min_volume_coeff"], row["max_volume_coeff"], row["max_reeb_residual"]]
        assert row["t"] == t
        if rtol == 0:
            assert got == want
        else:
            # the residual is rounding noise of a consistent system
            np.testing.assert_allclose(got[:2], want[:2], rtol=rtol, atol=0)
            assert got[2] < 1e-12 and want[2] < 1e-12


def _nearly_closed_family():
    """alpha0 = (1 + 1e-9 sin(x1)) dx0 is closed only to within the tolerance."""
    left, right = torus(3), torus(3)
    model, alpha, beta = product_contact_pair(
        left, form_from_expressions(left, 1, {1: "cos(x0)", 2: "sin(x0)"}),
        right, form_from_expressions(right, 1, {1: "cos(x0)", 2: "sin(x0)"}),
    )
    alpha0 = pullback_form(model, form_from_expressions(left, 1, {0: "1 + 1e-9*sin(x1)"}), "left")
    beta0 = pullback_form(model, coframe(right, 0), "right")
    return DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)


def test_affine_samples_keep_the_dalpha0_term():
    family = _nearly_closed_family()
    pts = random_points(family.model, 300, np.random.default_rng(3))
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
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

    def counting(e, points, *known):
        p = np.asarray(points, dtype=float)
        if p.shape == pts.shape and zlib.crc32(np.ascontiguousarray(p)) == key:
            calls.append(e)
        return real(e, points, *known)

    monkeypatch.setattr(ex, "evaluate_many", counting)
    return calls


def _family_forms(family):
    return (family.alpha0, family.beta0, family.alpha, family.beta,
            family.alpha0.d(), family.beta0.d(), family.alpha.d(), family.beta.d())


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
    # constant coefficients (and the converse's constant reference volume)
    # are filled in without evaluation
    varying = [c for f in forms for c in f.coeffs if not isinstance(c, ex.Const)]
    assert len(calls) == len(varying)
    assert bool(varying) == bool(family.model.coordinate_axes)
    for c in varying:
        assert sum(e is c for e in calls) == 1, ex.to_string(c)


def test_a_full_certificate_evaluates_each_call_once(monkeypatch):
    # verify-pair on t6-pair-compatible: alpha, beta, d alpha, d beta and
    # the commutator's exact partials are all built from sin and cos of x0
    # and x3, each evaluated once on the sample points
    objs = build_example("t6-pair-compatible")
    pts = random_points(objs["model"], 500, np.random.default_rng(5))
    calls = []

    def counting(name):
        real = getattr(np, name)

        def call(x):
            calls.append((name, zlib.crc32(np.ascontiguousarray(x))))
            return real(x)
        return call

    for name in ("sin", "cos"):
        monkeypatch.setattr(np, name, counting(name))
    cert = verify_contact_pair(objs["alpha"], objs["beta"], objs["k"], objs["l"], points=pts)
    monkeypatch.undo()
    assert cert.commutator_defect is not None
    columns = [zlib.crc32(np.ascontiguousarray(pts[:, a])) for a in (0, 3)]
    assert sorted(calls) == sorted((name, crc) for name in ("sin", "cos") for crc in columns)


def test_a_negative_zero_constant_keeps_its_sign_in_the_samples():
    # sin(-0 x0) and sin(+0 x0) are twins by value, not by structure
    t3 = torus(3)
    alpha = FormField(t3, 1, [ex.Call("sin", ex.Mul(ex.Const(z), ex.Var(0))) for z in (-0.0, 0.0)] + ["1"])
    pts = random_points(t3, 50, np.random.default_rng(2)) + 0.1  # every x0 > 0
    s = SampledPair.of(alpha, alpha, pts)
    assert np.all(s.alpha[:, :2] == 0.0)
    assert np.signbit(s.alpha[:, 0]).all() and not np.signbit(s.alpha[:, 1]).any()
    assert s.alpha.tobytes() == np.column_stack([ex.evaluate_many(c, pts) for c in alpha.coeffs]).tobytes()


# --- the commutator is one gate ------------------------------------------------

def test_commutator_gate_in_verify_pair_and_reeb_pair(monkeypatch, capsys):
    monkeypatch.setattr(contact, "_reeb_commutator", lambda s, chains, ea, eb: np.full(len(s.points), 0.5))
    objs = build_example("heisenberg6-pair")
    with pytest.raises(ContactPairError) as err:
        verify_contact_pair(objs["alpha"], objs["beta"], 1, 1)
    assert err.value.condition == "reeb-commutator"
    assert err.value.defect == 0.5
    assert err.value.witness["index"] == 0
    assert len(err.value.witness["point"]) == 6
    # a deformation item's certificate neither computes nor gates it
    model = objs["alpha"].model
    cert = _certificate(SampledPair.of(objs["alpha"], objs["beta"], sample_points(model)), 1, 1,
                        default_tolerance(model), False)
    assert cert.commutator_defect is None

    code = main(["verify-pair", "--example", "heisenberg6-pair", "--format", "structured"])
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert code == 1
    assert task["status"] == "fail"
    assert task["result"]["error"]["condition"] == "reeb-commutator"
    assert task["result"]["error"]["index"] == 0
    assert len(task["result"]["error"]["point"]) == 6


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc", "0.1,,1", ""])
def test_cli_t_grid_must_be_finite(capsys, bad):
    code = main(["sweep", "--example", "heisenberg6-pair", f"--t-grid={bad}"])
    assert code == 2
    assert "--t-grid: must be comma-separated finite numbers" in capsys.readouterr().err


# --- a t grid leaves some t to check ---------------------------------------------

DEFORM_COMMANDS = (["deform"], ["deform", "--mode", "converse"], ["deform", "--mode", "single"], ["sweep"])


def _example_task(command):
    if command[-1] == "single":
        return {"task": "single-deform", "example": "heisenberg3", "alpha0_coefficients": ["1", "0", "0"]}
    kind = {"deform": "deform-forward", "converse": "deform-converse", "sweep": "sweep"}[command[-1]]
    return {"task": kind, "example": "heisenberg6-pair"}


@pytest.mark.parametrize("command", DEFORM_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("where", ["t_grid", "tasks[0].t_grid"])
def test_empty_t_grid_is_an_input_error(tmp_path, capsys, command, where):
    task = _example_task(command)
    doc = {"schema_version": 1, "tasks": [task]}
    if where == "t_grid":
        doc["t_grid"] = []
    else:
        task["t_grid"] = []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"{where}: must be a non-empty list of finite numbers, got []" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["deform", "--example", "heisenberg6-pair", "--t-grid=0"], "deform-forward: forward t grid has no t != 0"),
    (["deform", "--mode", "single", "--example", "heisenberg3", "--alpha0", "1,0,0", "--t-grid=-1"],
     "single-deform: single-form t grid has no t > 0"),
    (["deform", "--mode", "single", "--example", "heisenberg3", "--alpha0", "1,0,0", "--t-grid=0,-1"],
     "single-deform: single-form t grid has no t > 0"),
])
def test_a_grid_without_a_t_to_check_is_an_input_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"


def test_sweep_and_single_form_default_to_the_converse_grid(capsys):
    assert deformation.CONVERSE_T_GRID is contact.CONVERSE_T_GRID
    code, task = _run_structured(capsys, ["sweep", "--example", "heisenberg6-pair"])
    assert code == 0
    assert [row["t"] for row in task["result"]["rows"]] == list(CONVERSE_T_GRID)
    objs = build_example("heisenberg3")
    report = contact.verify_single_deformation(coframe(objs["model"], 0), objs["alpha"])
    assert [entry["t"] for entry in report.per_t] == list(CONVERSE_T_GRID)


def test_converse_refuses_an_empty_grid():
    # config validation rejects an empty grid; a library call is refused too
    with pytest.raises(ValueError, match="^converse t grid is empty$"):
        verify_converse(build_example("heisenberg6-pair")["family"], t_grid=[])


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
    # the Reeb pair divides by a volume that is not finite, so its
    # residual is not finite either
    assert result["rows"][1]["max_reeb_residual"] is None
    assert result["csv"].splitlines()[2] == "1e+308,,,"


def test_structured_report_writes_non_finite_numbers_as_null():
    text = render_structured({"a": [1.5, float("nan")], "b": {"c": float("-inf")}, "d": (float("inf"),)})
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert parsed == {"a": [1.5, None], "b": {"c": None}, "d": [None]}


# --- the verdicts stay on compact rows ---------------------------------------------

def _sheared_family():
    """A type (1,1) family along test_contact's sheared T^6 pair, whose Reeb
    fields are live on (1, 2, 3) and (3, 4, 5): alpha0 and beta0 are closed
    constant forms live on (1, 2, 3, 4) and (2, 3, 4, 5), so each
    compatibility pairing adds two or three nonzero terms."""
    model, alpha, beta = sheared_t6_pair()
    alpha0 = form_from_expressions(model, 1, {1: "0.3", 2: "0.7", 3: "0.5", 4: "0.4"})
    beta0 = form_from_expressions(model, 1, {2: "0.6", 3: "0.2", 4: "0.9", 5: "0.8"})
    return DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)


def _refuse_dense(*args, **kwargs):
    raise AssertionError("a dense sample, a dense Reeb field or an einsum was formed")


@pytest.mark.parametrize("name", ["t6-pair-compatible", "t6-pair-incompatible", "sheared-t6"])
def test_the_family_verdicts_form_no_dense_sample_or_reeb_field(monkeypatch, name):
    # verify-pair, both deform modes and sweep read the compact rows alone;
    # the verdicts equal those of an unpatched run
    family = _sheared_family() if name == "sheared-t6" else build_example(name)["family"]
    pts = random_points(family.model, 500, np.random.default_rng(3))

    def verdicts():
        cert = verify_contact_pair(family.alpha, family.beta, 1, 1, points=pts)
        return json.dumps([
            [cert.reeb_residual, cert.commutator_defect, cert.min_volume],
            verify_forward(family, points=pts).to_dict(),
            verify_converse(family, points=pts).to_dict(),
            sweep_rows(family, SWEEP_T_GRID, points=pts),
        ])

    want = verdicts()
    monkeypatch.setattr(np, "einsum", _refuse_dense)
    monkeypatch.setattr(contact.SampledPair, "_dense", _refuse_dense)
    monkeypatch.setattr(contact._Field, "values", _refuse_dense)
    assert verdicts() == want
    if name == "sheared-t6":  # alpha0(E_alpha) = 0.3 E^1 + 0.7 E^2 + 0.5 E^3 is not 0
        assert json.loads(want)[1]["overall"] == "not applicable"


def _sequential_pairing(w, e):
    """sum_i w_i e_i of dense (P, n) arrays, in component order from +0.0."""
    total = np.zeros(len(w))
    for i in range(w.shape[-1]):
        total = total + w[:, i] * e[:, i]
    return total


def _einsum_pairing(w, e):
    """The dense pairing of C-ordered samples and Reeb fields that the
    compatibility items read before they ran on compact rows."""
    return np.einsum("pi,pi->p", np.ascontiguousarray(w), np.ascontiguousarray(e))


@pytest.mark.parametrize("name, references", [
    ("sheared-t6", [_sequential_pairing]),
    *[(name, [_sequential_pairing, _einsum_pairing]) for name in FAMILY_EXAMPLES],
])
def test_compatibility_items_equal_the_dense_pairings_bit_for_bit(name, references):
    family = _sheared_family() if name == "sheared-t6" else build_example(name)["family"]
    pts = sample_points(family.model, np.random.default_rng(4))
    tol = default_tolerance(family.model)
    sampled = SampledFamily(family, pts, tol)
    cert = _certificate(sampled.direction, 1, 1, tol, False)
    # at tol 0 every item with a nonzero defect fails and keeps its witness
    items = deformation._pairing_items(sampled.closed, cert, 0.0)
    fields = (cert.reeb_alpha_values, cert.reeb_beta_values)
    pairs = [(w, e) for w in (sampled.closed.alpha, sampled.closed.beta) for e in fields]
    for reference in references:
        for item, (w, e) in zip(items, pairs):
            values = np.abs(reference(w, e))
            defect, idx = float(values.max()), int(values.argmax())
            assert item.defect.hex() == defect.hex(), (reference.__name__, item.name)
            if defect:
                assert item.witness == {"point": pts[idx].tolist(), "value": defect}
    if name == "sheared-t6":  # each item adds two or three nonzero terms
        assert all(item.defect > 0.1 for item in items)
        assert [np.count_nonzero(w[0] * e[0]) for w, e in pairs] == [3, 2, 2, 3]


# --- memory per sample ------------------------------------------------------------

@pytest.mark.parametrize("verdict, bound", [("pair", 330), ("forward", 900), ("converse", 500)])
def test_a_verdict_holds_its_samples_as_live_rows(verdict, bound):
    # the forms are held as rows of their live components alone (on T^6,
    # alpha 2 of 6 and d alpha 2 of 15), and so are the Reeb fields, their
    # commutator and the compatibility pairings: the tracemalloc peak per
    # sample at 5e4 points is about 300 B for the pair, 430 B for the
    # forward and 450 B for the converse verdict, against 500 B for the pair
    # and 530 B for the converse while the commutator and the pairings read
    # dense Reeb fields, and 960 and 1270 B for the first two when every
    # sample array was dense
    objs = build_example("t6-pair-compatible")
    pts = random_points(objs["model"], 50_000, np.random.default_rng(0))
    run = {
        "pair": lambda: verify_contact_pair(objs["alpha"], objs["beta"], 1, 1, points=pts),
        "forward": lambda: verify_forward(objs["family"], points=pts),
        "converse": lambda: verify_converse(objs["family"], points=pts),
    }[verdict]
    run()  # derives d once, outside the measurement
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(pts) < bound
