"""The family's premises are decided on each verdict's own samples.

A ``DeformationFamily`` is a record of four 1-forms and a type: building one
evaluates nothing.  ``SampledFamily`` decides that alpha0 and beta0 are
closed and pointwise independent on the samples the verdict evaluates anyway
and at the verdict's tolerance, so ``deform`` and ``sweep`` evaluate one
sample bundle, and a family that breaks a premise ends the task that samples
it in exit 2, naming the form.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from contactpairs import deformation, fields
from contactpairs import expressions as ex
from contactpairs.cli import main
from contactpairs.config import load_config
from contactpairs.deformation import DeformationFamily, SampledFamily
from contactpairs.fields import form_from_expressions
from contactpairs.models import sample_points
from contactpairs.registry import build_example

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("configs/heisenberg6_builtin.json", "configs/t6_explicit_family.json")
T6_CONFIG = ROOT / CONFIGS[1]
SAMPLING_COMMANDS = (["deform"], ["deform", "--mode", "converse"], ["sweep"])


def _run(argv):
    """(exit code, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "structured"])
    return code, err.getvalue()


# --- building a family evaluates nothing ------------------------------------------

def _refuse(*args, **kwargs):
    raise AssertionError("a form was evaluated")


def test_building_a_family_evaluates_nothing(monkeypatch):
    monkeypatch.setattr(fields.FormField, "values", _refuse)
    monkeypatch.setattr(fields.FormField, "live_rows", _refuse)
    monkeypatch.setattr(ex, "evaluate_many", _refuse)
    for name in ("heisenberg6-pair", "t6-pair-compatible", "t6-pair-incompatible"):
        assert isinstance(build_example(name)["family"], DeformationFamily)
    for path in CONFIGS:
        load_config(ROOT / path)
    assert isinstance(load_config(T6_CONFIG).families["fam"], DeformationFamily)


@pytest.mark.parametrize("keyword", ["tol", "points"])
def test_a_family_takes_no_tolerance_and_no_points(keyword):
    objs = build_example("heisenberg6-pair")
    forms = [objs[key] for key in ("alpha0", "beta0", "alpha", "beta")]
    with pytest.raises(TypeError):
        DeformationFamily(*forms, 1, 1, **{keyword: None})


# --- one sample bundle per verdict ----------------------------------------------

def _record_point_sets(monkeypatch):
    """Every point array a form is evaluated at (``FormField.live_rows``,
    which ``values`` reads too), each with whether the quadrature of the
    converse asked for it."""
    seen, in_quadrature = [], []
    live_rows, integrate = fields.FormField.live_rows, deformation.stokes_integrals

    def recording(self, points, *args):
        seen.append((np.array(points, dtype=float), bool(in_quadrature)))
        return live_rows(self, points, *args)

    def integrating(*args, **kwargs):
        in_quadrature.append(True)
        try:
            return integrate(*args, **kwargs)
        finally:
            in_quadrature.pop()

    monkeypatch.setattr(fields.FormField, "live_rows", recording)
    monkeypatch.setattr(deformation, "stokes_integrals", integrating)
    return seen


@pytest.mark.parametrize("command", SAMPLING_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("source", ["t6-pair-compatible", "t6-config"])
def test_a_verdict_evaluates_its_own_samples_only(monkeypatch, command, source):
    # seed 7: the task's sample set is not the default one of sample_points
    if source == "t6-config":
        cfg = load_config(T6_CONFIG)
        model, flags = cfg.families["fam"].model, ["--config", str(T6_CONFIG)]
        counts = {"random_count": cfg.random_count, "grid_limit": cfg.grid_limit}
    else:
        model, flags, counts = build_example(source)["model"], ["--example", source], {}
    task_points = sample_points(model, np.random.default_rng(7), **counts)
    assert not np.array_equal(task_points, sample_points(model))
    seen = _record_point_sets(monkeypatch)
    assert _run([*command, *flags, "--seed", "7"])[0] == 0
    bundles = [pts for pts, quadrature in seen if not quadrature]
    assert bundles
    for pts in bundles:
        assert pts.shape == task_points.shape and np.array_equal(pts, task_points)
    assert any(quadrature for _, quadrature in seen) == ("converse" in command)


# --- the premises hold at the verdict's tolerance ----------------------------------

def _t6_config(tmp_path, tolerance=None, beta0=None) -> str:
    """The t6 config with 1e-5 sin(x1) dx2 added to the left factor of
    alpha0, so that max |d alpha0| is about 1e-5, and the given tolerance
    (none: the default 1e-6 of a chart); with ``beta0`` = "alpha0" the family
    deforms (alpha0, alpha0) instead."""
    doc = json.loads(T6_CONFIG.read_text(encoding="utf-8"))
    doc.pop("tolerance")
    if tolerance is not None:
        doc["tolerance"] = tolerance
    if beta0 is None:
        doc["forms"]["alpha0_l"]["coefficients"]["2"] = "1e-5*sin(x1)"
    else:
        doc["families"]["fam"]["beta0"] = beta0
    path = tmp_path / "t6.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_a_nearly_closed_family_gets_verdicts_at_a_looser_tolerance(tmp_path):
    path = _t6_config(tmp_path, tolerance=1e-3)
    for command in (["deform"], ["deform", "--mode", "converse"], ["sweep"]):
        code, err = _run([*command, "--config", path])
        assert code in (0, 1, 3), err


def test_a_non_closed_alpha0_fails_the_tasks_that_sample_the_family(tmp_path):
    path = _t6_config(tmp_path)
    assert _run(["verify-pair", "--config", path])[0] == 0
    for command in SAMPLING_COMMANDS:
        code, err = _run([*command, "--config", path])
        assert code == 2
        assert "alpha0 is not closed (max |d alpha0| = 1.000e-05)" in err


def test_dependent_closed_forms_fail_every_sampling_task(tmp_path):
    path = _t6_config(tmp_path, beta0="alpha0")
    for command in SAMPLING_COMMANDS:
        code, err = _run([*command, "--config", path])
        assert code == 2
        assert "alpha0 and beta0 are linearly dependent at sample point" in err


# alpha0 = beta0 = 1e200 (dx0 + dx3) on T^6: alpha0 ∧ beta0 is inf - inf = NaN
HUGE_DEPENDENT = {"0": "1e200", "3": "1e200"}


def test_a_nan_wedge_of_alpha0_and_beta0_fails_the_independence_premise():
    objs = build_example("t6-pair-compatible")
    closed = form_from_expressions(objs["model"], 1, {int(i): c for i, c in HUGE_DEPENDENT.items()})
    family = DeformationFamily(closed, closed, objs["alpha"], objs["beta"], 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes the premise
        with pytest.raises(ValueError, match=r"alpha0 and beta0 are linearly dependent at sample point \["):
            SampledFamily(family, sample_points(objs["model"]), 1e-6)


@pytest.mark.parametrize("command", SAMPLING_COMMANDS, ids=" ".join)
def test_a_nan_wedge_of_alpha0_and_beta0_ends_every_sampling_task_in_exit_2(tmp_path, command):
    doc = json.loads(T6_CONFIG.read_text(encoding="utf-8"))
    for name in ("alpha0", "beta0"):
        doc["forms"][name] = {"model": "t6", "degree": 1, "coefficients": HUGE_DEPENDENT}
    path = tmp_path / "t6_nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = _run([*command, "--config", str(path)])
    assert code == 2
    assert "alpha0 and beta0 are linearly dependent at sample point [" in err
    assert "Warning" not in err


def test_single_deform_names_a_non_closed_alpha0():
    code, err = _run(["deform", "--mode", "single", "--example", "torus-contact", "--alpha0", "0,cos(x0),0"])
    assert code == 2
    assert err.startswith("single-deform: alpha0 is not closed (max |d alpha0| = ")
