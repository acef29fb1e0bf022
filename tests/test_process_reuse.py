"""What a process keeps between verdicts, and the one-pass JSON renderer.

A builtin example is built once per process (``registry.build_example``)
and its forms keep their exterior derivative and their partials
(``FormField.d``, ``FormField.partials``), so a verdict run again in one
process must give the report body of a fresh process.  The structured
report is written in one pass (``reporting.render_structured``) and must
give the bytes of ``json.dumps(indent=2)`` with the non-finite floats
written as null.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contactpairs import expressions as ex
from contactpairs import fields
from contactpairs.cli import main
from contactpairs.fields import FormField
from contactpairs.registry import build_example, example_names
from contactpairs.reporting import render_structured, strip_timing

SRC = Path(fields.__file__).resolve().parent.parent


# --- builtin examples ---------------------------------------------------------------------

@pytest.mark.parametrize("name", example_names())
def test_each_call_returns_a_new_dict_of_the_same_objects(name):
    first, second = build_example(name), build_example(name)
    assert first is not second and first.keys() == second.keys()
    assert all(first[key] is second[key] for key in first)
    key = next(iter(first))
    kept = first[key]
    del first[key]
    second[key] = None
    third = build_example(name)
    assert third[key] is kept and set(third) == set(second)


def _forms_of(name):
    """Every form of a builtin example and its exterior derivatives, up to
    the top degree."""
    out = []
    for form in build_example(name).values():
        while isinstance(form, FormField):
            out.append(form)
            form = form.d() if form.degree < form.model.n else None
    return out


@pytest.mark.parametrize("name", example_names())
def test_partials_are_the_live_coefficients_nonzero_partials(monkeypatch, name):
    forms = _forms_of(name)
    for form in forms:
        for axis in form.model.coordinate_axes:
            expected = [(i, p) for i in form.live if not ex.is_zero(p := ex.partial(form.coeffs[i], axis))]
            assert [(i, ex.to_string(p)) for i, p in form.partials(axis)] == [
                (i, ex.to_string(p)) for i, p in expected]
    calls = []
    partial = ex.partial
    monkeypatch.setattr(ex, "partial", lambda e, axis: calls.append(axis) or partial(e, axis))
    for form in forms:
        for axis in form.model.coordinate_axes:
            form.partials(axis)
    assert calls == []


def _body(text: str) -> dict:
    return strip_timing(json.loads(text))


@pytest.mark.parametrize("argv", [
    ["verify-pair", "--example", "heisenberg6-pair"],
    ["deform", "--example", "heisenberg6-pair"],
    ["jacobi", "--example", "t6-pair-compatible"],
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_a_verdict_run_again_in_one_process_has_a_fresh_process_body(capsys, argv):
    argv = [*argv, "--format", "structured"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "contactpairs", *argv], env=env, capture_output=True, text=True,
                           timeout=300)
    bodies = []
    for _ in range(2):
        assert main(argv) == fresh.returncode == 0
        bodies.append(_body(capsys.readouterr().out))
    assert bodies[0] == bodies[1] == _body(fresh.stdout)


# --- the renderer against json.dumps --------------------------------------------------------

def _strict(value):
    """``value`` with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _reference(report) -> str:
    return json.dumps(_strict(report), indent=2, sort_keys=False, allow_nan=False) + "\n"


@pytest.mark.parametrize("report", [{}, [], (), {"a": {}, "b": [], "c": ()}, "é\"\\\n\x00 ",
                                    {"x": [-0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324, 10**30]}])
def test_render_structured_gives_the_bytes_of_json_dumps(report):
    assert render_structured(report) == _reference(report)


@pytest.mark.parametrize("report", [{1: 0}, {"a": [{None: 0}]}, {"a": {1.5: 0}}])
def test_a_key_that_is_not_a_str_raises(report):
    with pytest.raises(TypeError):
        render_structured(report)


@pytest.mark.parametrize("report", [{"a": object()}, [b"bytes"], {"a": {1, 2}}])
def test_a_value_json_cannot_write_raises(report):
    with pytest.raises(TypeError):
        _reference(report)
    with pytest.raises(TypeError):
        render_structured(report)
