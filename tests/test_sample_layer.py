"""The evaluated-sample layer: a pair or family is evaluated once per point
set, and the samples of (alpha_t, beta_t) are affine in t.

The expression path (``DeformationFamily.at(t)`` evaluated by
``SampledPair.of`` and certified like a deformation item) is kept as the
reference for the affine arrays.
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
    _certify,
    _peaks,
    _reeb_step,
    _solve_reeb,
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
from contactpairs.fields import coframe, form_from_expressions, pullback_form
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


def _certificate(s, k, l, tol, full):
    """The certificate of one sampled pair: its gates as a batch of one,
    then its Reeb step."""
    return _reeb_step(s, _certify(s, k, l, tol)[0], full)


def _record_certify(monkeypatch):
    """Record every (samples, offered Reeb candidate, certificate or error)
    of the deformation checks, the base pair's and each t's, whose gates
    ran with those of its batch: the Reeb step completes each of them."""
    calls = []
    real = deformation._reeb_step

    def recording(s, gated, full, candidate=None):
        try:
            cert = real(s, gated, full, candidate)
        except ContactPairError as err:
            calls.append((s, candidate, err))
            raise
        calls.append((s, candidate, cert))
        return cert

    monkeypatch.setattr(deformation, "_reeb_step", recording)
    return calls


def _record_residuals(monkeypatch):
    """Record the rows r(t) of every ``_scaled_residuals`` call, by t."""
    rows = {}
    real = deformation._scaled_residuals

    def recording(sampled, x, y, t_values):
        out = real(sampled, x, y, t_values)
        rows.update(zip(t_values, out))
        return out

    monkeypatch.setattr(deformation, "_scaled_residuals", recording)
    return rows


def _fail_every_substitution(monkeypatch):
    """Make every offered Reeb candidate fail its residual gate (NaN)."""
    real = SampledFamily.reeb_terms

    def nan_terms(self, x, y):
        for block, closed, direction in real(self, x, y):
            yield block, np.full_like(closed, np.nan), direction

    monkeypatch.setattr(SampledFamily, "reeb_terms", nan_terms)


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
    """The samples and every contact condition of a certificate match the
    expression path; so does the Reeb pair, unless it was substituted."""
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
    names = ["min_volume", "dalpha_power_residual", "dbeta_power_residual"]
    if not got.substituted:
        names += ["reeb_residual", "reeb_alpha_values", "reeb_beta_values"]
    for name in names:
        close(getattr(got, name), getattr(want, name))
    assert got.orientation_sign == want.orientation_sign
    close(got.residual_threshold, want.residual_threshold)
    assert got.sigma_min is None and got.commutator_defect is None


def _assert_substituted(t, candidate, got, want, witness, tol, residual):
    """A substituted certificate at t: the offered peak is that of r(t),
    the row ``residual``, which is A(t)(X/t, Y/t) - b of the expression
    path to within a few ulps of its scale, and the solve it replaced gives
    t * E_t within the Reeb scaling threshold of (X, Y)."""
    x, y = witness
    assert got.substituted
    assert got.reeb_alpha_values is candidate[0] and got.reeb_beta_values is candidate[1]
    np.testing.assert_array_equal(candidate[0], x / t)
    np.testing.assert_array_equal(candidate[1], y / t)
    assert candidate[2] == _peaks(residual)[0] == (float(np.max(residual)), int(np.argmax(residual)))
    assert got.reeb_residual == candidate[2][0] <= got.residual_threshold

    rows = want.sampled.reeb_rows()
    z = np.stack(candidate[:2], axis=-1)
    direct = np.max(np.abs(rows @ z - np.eye(rows.shape[1], 2)), axis=(1, 2))
    scale = rows.shape[2] * float(np.max(np.abs(rows))) * float(np.max(np.abs(z))) + 1.0
    assert np.max(np.abs(residual - direct)) <= 4 * np.finfo(float).eps * scale

    drift = max(float(np.max(np.abs(t * want.reeb_alpha_values - x))),
                float(np.max(np.abs(t * want.reeb_beta_values - y))))
    assert drift < tol * max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))


CASES = [(name, 0.0) for name in FAMILY_EXAMPLES + ("t6-config",)] + [("constant-factors", 1e-14)]
COMPATIBLE = {"heisenberg6-pair", "t6-pair-compatible", "t6-config", "constant-factors"}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_forward_certificates_match_expression_path(monkeypatch, name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    calls, residuals = _record_certify(monkeypatch), _record_residuals(monkeypatch)
    verdict = verify_forward(family, points=pts)
    scaling = {i.name: i for i in verdict.conclusions if i.name.startswith("Reeb scaling")}
    grid = [t for t in FORWARD_T_GRID if t != 0.0]
    assert len(calls) == 1 + len(grid)
    base = _certificate(SampledPair.of(family.alpha, family.beta, pts), family.k, family.l,
                        default_tolerance(family.model), False)
    s, candidate, got = calls[0]
    assert candidate is None
    _assert_same(s, got, base, rtol)
    # (E_alpha/t, E_beta/t) is offered at every t of a compatible family
    witness = (got.reeb_alpha_values, got.reeb_beta_values)
    for t, (s, candidate, got) in zip(grid, calls[1:]):
        want = _reference(family, t, pts)
        _assert_same(s, got, want, rtol)
        assert (candidate is not None) == (name in COMPATIBLE)
        if name in COMPATIBLE:
            _assert_substituted(t, candidate, got, want, witness, default_tolerance(family.model), residuals[t])
            # the scaling item gates the same backward error
            item = scaling[f"Reeb scaling at t={t:g}"]
            assert item.passed and item.defect == got.reeb_residual


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_converse_certificates_match_expression_path(monkeypatch, name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    calls, residuals = _record_certify(monkeypatch), _record_residuals(monkeypatch)
    verdict = verify_converse(family, points=pts)
    assert len(calls) == len(CONVERSE_T_GRID) + 1
    witness = None
    for t, (s, candidate, got) in zip(CONVERSE_T_GRID, calls):
        want = _reference(family, t, pts)
        _assert_same(s, got, want, rtol)
        assert (candidate is None) == (witness is None)
        if isinstance(got, ContactPairError):
            continue
        if got.substituted:
            _assert_substituted(t, candidate, got, want, witness, default_tolerance(family.model), residuals[t])
        elif witness is None:  # the first t solved gives (X, Y)
            witness = (t * got.reeb_alpha_values, t * got.reeb_beta_values)
    # on a compatible family the solved t = 0.01 gives (X, Y), and every
    # later t substitutes it
    substituted = [getattr(got, "substituted", False) for _, _, got in calls[:-1]]
    assert substituted == [False] + [name in COMPATIBLE] * (len(CONVERSE_T_GRID) - 1)
    if name in COMPATIBLE:
        # the constancy item gates the largest backward error of the later t
        (item,) = [i for i in verdict.hypotheses if "constant across t" in i.name]
        assert item.passed and item.defect == max(got.reeb_residual for _, _, got in calls[1:-1])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
@pytest.mark.parametrize("verify", [verify_forward, verify_converse])
def test_failed_substitution_falls_back_to_the_expression_path_solve(monkeypatch, verify, name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    _fail_every_substitution(monkeypatch)
    calls = _record_certify(monkeypatch)
    verify(family, points=pts)
    if verify is verify_forward:
        grid = [t for t in FORWARD_T_GRID if t != 0.0]
        calls = calls[1:]  # the base pair, checked above
    else:
        grid = CONVERSE_T_GRID
    offered = 0
    for t, (s, candidate, got) in zip(grid, calls):
        offered += candidate is not None
        if not isinstance(got, ContactPairError):
            assert not got.substituted
        _assert_same(s, got, _reference(family, t, pts), rtol)
    if name in COMPATIBLE:
        assert offered
    elif verify is verify_forward:
        assert not offered  # the compatibility hypotheses fail


def _count_reeb_solves(monkeypatch):
    calls = []
    real = contact._solve_reeb

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(contact, "_solve_reeb", counting)
    return calls


# (forward, converse) Reeb solves of a verdict at seeds 0 and 7: a
# compatible family solves the base pair (forward) or the first t and the
# base pair (converse), against 9 and 5 with a solve at every t; the
# incompatible one offers no candidate forward and fails every candidate
# converse, so it solves every t that reaches the Reeb step, as it did
# before substitution
REEB_SOLVES = {
    "t6-pair-compatible": {0: (1, 2), 7: (1, 2)},
    "t6-config": {0: (1, 2), 7: (1, 2)},
    "heisenberg6-pair": {0: (1, 2), 7: (1, 2)},
    "t6-pair-incompatible": {0: (3, 2), 7: (5, 3)},
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(REEB_SOLVES))
def test_reeb_solves_per_verdict(monkeypatch, name, seed):
    family = _family(name)
    pts = _points(family, seed)
    calls = _count_reeb_solves(monkeypatch)
    counts = []
    for verify in (verify_forward, verify_converse):
        calls.clear()
        verify(family, points=pts)
        counts.append(len(calls))
    assert tuple(counts) == REEB_SOLVES[name][seed]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,rtol", CASES)
def test_sweep_rows_match_expression_path(name, rtol, seed):
    family = _family(name)
    pts = _points(family, seed)
    rows = sweep_rows(family, SWEEP_T_GRID, points=pts)
    for t, row in zip(SWEEP_T_GRID, rows):
        s = SampledPair.of(*family.at(t), pts)
        # every factor without a live set, so each wedge scans its operands
        vol = chain(s.n, (1, s.alpha), *[(2, s.dalpha)] * family.k, (1, s.beta), *[(2, s.dbeta)] * family.l)[..., 0]
        residual = _solve_reeb(s, False)[2]
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


@pytest.mark.parametrize("name", ["nearly-closed", "t6-pair-incompatible", "heisenberg6-pair"])
def test_scaled_residual_is_the_residual_of_the_expression_path(name):
    # any pair (X, Y), not only a Reeb pair, so that A0 (X, Y) is not zero;
    # on the nearly closed family the d alpha0 rows carry 1e-9 of it
    family = _nearly_closed_family() if name == "nearly-closed" else _family(name)
    pts = _points(family, 3)
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
    x, y = np.random.default_rng(8).standard_normal((2, len(pts), family.model.n))
    grid = (-10.0, -0.1, 0.01, 1.0, 7.0)
    for t, residual in zip(grid, deformation._scaled_residuals(sampled, x, y, grid)):
        rows = SampledPair.of(*family.at(t), pts).reeb_rows()
        z = np.stack((x / t, y / t), axis=-1)
        direct = np.max(np.abs(rows @ z - np.eye(rows.shape[1], 2)), axis=(1, 2))
        assert np.min(direct) > 1e-3  # a pair far from the Reeb pair
        scale = rows.shape[2] * float(np.max(np.abs(rows))) * float(np.max(np.abs(z))) + 1.0
        assert np.max(np.abs(residual - direct)) <= 4 * np.finfo(float).eps * scale, t


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


# --- the commutator is one gate ------------------------------------------------

def test_commutator_gate_in_verify_pair_and_reeb_pair(monkeypatch, capsys):
    monkeypatch.setattr(contact, "_reeb_commutator", lambda s, ea, eb: np.full(ea.shape, 0.5))
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
    assert cert.commutator_defect is None and cert.sigma_min is None

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
    assert result["csv"].splitlines()[2] == "1e+308,,,1"


def test_structured_report_writes_non_finite_numbers_as_null():
    text = render_structured({"a": [1.5, float("nan")], "b": {"c": float("-inf")}, "d": (float("inf"),)})
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert parsed == {"a": [1.5, None], "b": {"c": None}, "d": [None]}
