"""Property test over config documents: a small valid document, mutated with
wrong types, unknown names, non-finite and non-positive numbers, never makes
the CLI raise.  Exit code 2 always explains itself on stderr, and a passing
report is strict JSON.

Resolutions stay <= 8 and sample counts <= 64, and no builtin example with a
large grid is offered, so every run is small.
"""

import contextlib
import copy
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from contactpairs.cli import main  # noqa: E402
from test_task_table import small_doc  # noqa: E402

VALUES = [
    "x", "", "nope", "a", "alpha", "fam", "h", "t3", "left", "chart", "lie",
    "classify", "sweep", "single-deform", "heisenberg3", "darboux1", "t2-pair-type00",
    "heisenberg6-pair", "1e400", "1/(x0-x0)", "exp(x0)", "x9", "cos(x0",
    None, True, False, [], {}, [1], [1, 1], ["a", 1], [0.5, 1e308], {"periodic": True},
    math.nan, math.inf, -math.inf, 10**400, 0, -1, -5, 1.5, 1e-300, 2, 4, 8, 64,
]
# keys a mutation may add; "out" is left out, a sweep would write that file
KEYS = ["example", "t_grid", "resolution", "side", "alpha0_coefficients", "type",
        "tolerance", "kind", "pullback", "grid_limit", "structure", "degree", "seed"]
COMMANDS = [
    ["classify"], ["verify-pair"], ["deform"], ["deform", "--mode", "converse"],
    ["deform", "--mode", "single"], ["jacobi"], ["sweep"],
]


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _value(draw):
    return copy.deepcopy(draw(st.sampled_from(VALUES)))  # VALUES itself stays intact


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(small_doc()))  # no shared sub-objects
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        target = _at(doc, path)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(KEYS))] = _value(draw)
        elif action == "delete" and path:
            del _at(doc, path[:-1])[path[-1]]
        elif path:
            _at(doc, path[:-1])[path[-1]] = _value(draw)
    return doc


def _empty_task_t_grids():
    """small_doc with an empty t grid on each of its deform tasks, which the
    derandomized examples above do not reach."""
    doc = small_doc()
    for task in doc["tasks"]:
        if task["task"] in ("deform-forward", "deform-converse", "single-deform"):
            task["t_grid"] = []
    return doc


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in a passing report")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), command=st.sampled_from(COMMANDS))
@example(doc=_empty_task_t_grids(), command=["deform"])
@example(doc=_empty_task_t_grids(), command=["deform", "--mode", "converse"])
@example(doc=_empty_task_t_grids(), command=["deform", "--mode", "single"])
def test_cli_never_raises_on_a_config_document(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--config", str(path), "--format", "structured"])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().strip()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
