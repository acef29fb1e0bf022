"""The task table and the one validation path: every malformed input ends in
exit code 2 with a field path on stderr, never in a traceback."""

import json

import pytest

from contactpairs import jacobi, registry, runner
from contactpairs.cli import main
from contactpairs.config import JACOBI_GRID_LIMIT, TASKS, ConfigError, parse_config
from contactpairs.expressions import MAX_DEPTH
from contactpairs.registry import list_examples

HEISENBERG_STRUCTURE = [
    [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
]


def small_doc():
    """A valid config with one task of every kind, small enough to run in
    well under a second: Lie models sample one point, the chart is 8^3."""
    return {
        "schema_version": 1,
        "seed": 0,
        "samples": {"random_count": 64, "grid_limit": 512},
        "models": {
            "h": {"kind": "lie", "structure": HEISENBERG_STRUCTURE},
            "prod": {"kind": "product", "left": "h", "right": "h"},
            "t3": {"kind": "chart", "axes": [{"periodic": True, "resolution": 8}] * 3},
        },
        "forms": {
            "a": {"model": "t3", "degree": 1, "coefficients": {"1": "cos(x0)", "2": "sin(x0)"}},
            "a0": {"model": "t3", "degree": 1, "coefficients": [1, 0, 0]},
            "e0": {"model": "h", "degree": 1, "coefficients": [1, 0, 0]},
            "e2": {"model": "h", "degree": 1, "coefficients": [0, 0, 1]},
            "alpha0": {"pullback": {"product": "prod", "of": "e0", "side": "left"}},
            "beta0": {"pullback": {"product": "prod", "of": "e0", "side": "right"}},
            "alpha": {"pullback": {"product": "prod", "of": "e2", "side": "left"}},
            "beta": {"pullback": {"product": "prod", "of": "e2", "side": "right"}},
        },
        "families": {
            "fam": {"alpha0": "alpha0", "beta0": "beta0", "alpha": "alpha", "beta": "beta",
                    "type": [1, 1]},
        },
        "tasks": [
            {"task": "verify-pair", "alpha": "alpha", "beta": "beta", "type": [1, 1]},
            {"task": "classify", "form": "a"},
            {"task": "single-deform", "alpha": "a", "alpha0": "a0"},
            {"task": "jacobi", "form": "a", "resolution": 8},
            {"task": "deform-forward", "family": "fam"},
            {"task": "deform-converse", "family": "fam"},
            {"task": "sweep", "family": "fam", "t_grid": [0.5, 2.0]},
        ],
    }


def run_config(tmp_path, doc, *argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return main([*argv, "--config", str(path), "--format", "structured"])


def test_small_doc_passes_every_task_kind():
    report, code = runner.run(parse_config(small_doc()))
    assert code == 0
    assert {t["task"] for t in report["tasks"]} == set(TASKS)
    assert {t["status"] for t in report["tasks"]} == {"pass"}


def test_handler_table_has_exactly_the_task_kinds():
    assert set(runner._HANDLERS) == set(TASKS)


def test_task_table_names_registry_kinds_only():
    kinds = {e.kind for e in list_examples()}
    assert all(set(examples) <= kinds for _, examples in TASKS.values())


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    return mutate


# (mutation, the field path stderr must name)
BAD_SHAPES = {
    "seed-string": (_set(["seed"], "abc"), "seed"),
    "samples-list": (_set(["samples"], [1]), "samples"),
    "random-count-string": (_set(["samples", "random_count"], "x"), "samples.random_count"),
    "random-count-negative": (_set(["samples", "random_count"], -5), "samples.random_count"),
    "random-count-zero": (_set(["samples", "random_count"], 0), "samples.random_count"),
    "models-list": (_set(["models"], []), "models"),
    "forms-list": (_set(["forms"], []), "forms"),
    "families-list": (_set(["families"], []), "families"),
    "family-string": (_set(["families", "fam"], "alpha"), "families.fam"),
    "pullback-number": (_set(["forms", "alpha", "pullback"], 3), "forms.alpha.pullback"),
    "axes-number": (_set(["models", "t3", "axes"], 5), "models.t3.axes"),
    "axes-entry-number": (_set(["models", "t3", "axes"], [3]), "models.t3.axes[0]"),
    "degree-string": (_set(["forms", "a", "degree"], "1"), "forms.a.degree"),
    "task-type": (_set(["tasks", 0, "type"], ["a", 1]), "tasks[0].type"),
    "family-type": (_set(["families", "fam", "type"], ["a", 1]), "families.fam.type"),
    "axis-resolution-fraction": (_set(["models", "t3", "axes", 0], {"periodic": True, "resolution": 4.5}),
                                 "models.t3.axes[0].resolution"),
    "task-resolution-small": (_set(["tasks", 3, "resolution"], 2), "tasks[3].resolution"),
    "task-resolution-fraction": (_set(["tasks", 3, "resolution"], 4.5), "tasks[3].resolution"),
    "task-side": (_set(["tasks", 3, "side"], "gamma"), "tasks[3].side"),
    "task-two-form": (_set(["forms", "a0", "degree"], 2), "tasks[2].alpha0"),
    "task-kind-list": (_set(["tasks", 0, "task"], ["classify"]), "tasks[0]"),
    "task-example-kind": (_set(["tasks", 1], {"task": "deform-forward", "example": "darboux1"}),
                          "tasks[1].example"),
    "non-finite-literal": (_set(["forms", "a0", "coefficients"], ["1e400", 0, 0]), "forms.a0"),
    "non-finite-number": (_set(["forms", "a0", "coefficients"], [float("inf"), 0, 0]), "forms.a0"),
    "non-finite-structure": (_set(["models", "h", "structure"], [[[float("nan")] * 3] * 3] * 3), "models.h"),
    "coefficient-object": (_set(["forms", "a0", "coefficients"], [{}, 0, 0]), "forms.a0"),
    # a JSON integer too large for a float
    "coefficient-huge-int": (_set(["forms", "a0", "coefficients"], [10**400, 0, 0]), "forms.a0"),
    "axis-huge-int": (_set(["models", "t3", "axes", 0], {"lo": 10**400, "hi": 1}),
                      "models.t3.axes[0].lo"),
    "tolerance-huge-int": (_set(["tolerance"], 10**400), "tolerance"),
    "structure-huge-int": (_set(["models", "h", "structure"], [[[10**400] * 3] * 3] * 3), "models.h"),
}


@pytest.mark.parametrize("name", list(BAD_SHAPES))
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys, name):
    mutate, field = BAD_SHAPES[name]
    doc = small_doc()
    mutate(doc)
    assert run_config(tmp_path, doc, "verify-pair") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"  - {field}" in captured.err


@pytest.mark.parametrize("argv, field", [
    (["verify-pair", "--example", "darboux1"], "tasks[0].example"),
    (["sweep", "--example", "t2-pair-type00"], "tasks[0].example"),
    (["deform", "--mode", "single", "--example", "heisenberg6-pair"], "tasks[0].example"),
    (["deform", "--mode", "single", "--example", "torus-contact"], "tasks[0]"),
    (["jacobi", "--example", "torus-contact", "--resolution", "2"], "tasks[0].resolution"),
    (["classify", "--example", "darboux1", "--seed", "-1"], "--seed"),
])
def test_flag_task_is_validated_without_config(capsys, argv, field):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_flag_task_is_validated_with_config(tmp_path, capsys):
    # the config has no jacobi task, so the flags describe one
    doc = small_doc()
    doc["tasks"] = doc["tasks"][:1]
    assert run_config(tmp_path, doc, "jacobi", "--resolution", "3") == 2
    assert "tasks[0].resolution" in capsys.readouterr().err
    assert run_config(tmp_path, doc, "classify", "--form", "alpha0") == 0


def test_example_kind_is_checked_without_building_it(monkeypatch):
    def refuse():
        raise AssertionError("validation built an example")

    entries = {name: (info, refuse) for name, (info, _) in registry._REGISTRY.items()}
    monkeypatch.setattr(registry, "_REGISTRY", entries)
    parse_config({"tasks": [{"task": "verify-pair", "example": "heisenberg6-pair"}]})
    with pytest.raises(ConfigError, match=r"tasks\[0\]\.example: verify-pair needs a pair or family"):
        parse_config({"tasks": [{"task": "verify-pair", "example": "heisenberg3"}]})


# --- an expression that fails to evaluate is an input error -------------------------------

@pytest.mark.parametrize("coefficient", ["1/(x0-x0)", "exp(exp(exp(x0*100)))", "1e200*1e200"])
def test_evaluation_error_is_an_error_status(tmp_path, capsys, coefficient):
    doc = small_doc()
    doc["forms"]["a"]["coefficients"]["0"] = coefficient
    doc["tasks"] = [{"task": "classify", "form": "a"}]
    assert run_config(tmp_path, doc, "classify") == 2
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["status"] == "error"


def test_evaluation_error_of_flag_coefficients_is_an_error_status(capsys):
    code = main(["deform", "--mode", "single", "--example", "torus-contact",
                 "--alpha0", "1,0,1/0", "--format", "structured"])
    assert code == 2
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["status"] == "error" and "division by zero" in task["result"]["error"]


@pytest.mark.parametrize("coefficient", ["1e400", "2*exp(1000)", "10^400"])
def test_non_finite_literal_is_rejected_when_the_form_is_built(coefficient):
    doc = small_doc()
    doc["forms"]["a"]["coefficients"]["0"] = coefficient
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.errors[0].startswith("forms.a: expression error")



# --- a task flag beside a same-kind config task is an input error ------------------------

@pytest.mark.parametrize("argv, flag", [
    (["jacobi", "--resolution", "6"], "--resolution"),
    (["jacobi", "--side", "alpha"], "--side"),
    (["classify", "--form", "a0"], "--form"),
    (["deform", "--mode", "single", "--alpha0", "1,0,0"], "--alpha0"),
])
def test_task_flag_beside_a_config_task_exits_2(tmp_path, capsys, argv, flag):
    assert run_config(tmp_path, small_doc(), *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[1].startswith(f"  - {flag}: not used beside the ")


def test_config_task_without_flags_still_runs(tmp_path, capsys):
    assert run_config(tmp_path, small_doc(), "jacobi", "--format", "structured") == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["result"]["grid"] == [8, 8, 8]


# --- the Jacobi grid is capped before anything is allocated ------------------------------

def test_huge_jacobi_grid_is_rejected_before_allocation(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(jacobi, "grid_points", refuse)
    monkeypatch.setattr(runner, "build_example", refuse)
    assert main(["jacobi", "--example", "darboux2", "--resolution", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "  - tasks[0].resolution: a 100000x100000x100000x100000x100000 grid has" in captured.err


def test_grid_cap_admits_the_largest_builtin_default():
    assert 16**5 == JACOBI_GRID_LIMIT
    parse_config({"tasks": [{"task": "jacobi", "example": "darboux2"}]})
    parse_config({"tasks": [{"task": "jacobi", "example": "t6-pair-compatible", "resolution": 10}]})
    with pytest.raises(ConfigError, match=r"tasks\[0\]\.resolution: a 17x17x17x17x17 grid"):
        parse_config({"tasks": [{"task": "jacobi", "example": "darboux2", "resolution": 17}]})
    with pytest.raises(ConfigError, match=r"tasks\[0\]\.resolution: a 11x11x11x11x11x11 grid"):
        parse_config({"tasks": [{"task": "jacobi", "example": "t6-pair-compatible", "resolution": 11}]})


def test_grid_cap_on_a_declared_form():
    doc = small_doc()
    doc["tasks"] = [{"task": "jacobi", "form": "a", "resolution": 101}]  # 101^3 points
    parse_config(doc)
    doc["tasks"] = [{"task": "jacobi", "form": "a", "resolution": 102}]
    with pytest.raises(ConfigError, match=r"tasks\[0\]\.resolution: a 102x102x102 grid has 1061208 points"):
        parse_config(doc)


# --- deep expressions are parse errors, never a RecursionError ---------------------------

@pytest.mark.parametrize("coefficient", ["+".join(["x0"] * 3000), "(" * 3000 + "x0" + ")" * 3000])
def test_deep_expression_exits_2_naming_the_form(tmp_path, capsys, coefficient):
    doc = small_doc()
    doc["forms"]["a"]["coefficients"]["0"] = coefficient
    doc["tasks"] = [{"task": "classify", "form": "a"}]
    assert run_config(tmp_path, doc, "classify") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "  - forms.a: expression error: expression " in captured.err


def test_expression_at_the_depth_limit_runs(tmp_path, capsys):
    doc = small_doc()
    doc["forms"]["a"]["coefficients"]["0"] = "+".join(["x0"] * MAX_DEPTH)
    doc["tasks"] = [{"task": "classify", "form": "a"}]
    assert run_config(tmp_path, doc, "classify") in (0, 1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the overflow is the input under test
def test_overflowing_jacobi_and_classify_reports_are_strict_json(tmp_path, capsys):
    # products of 1e200 coefficients overflow in the Reeb and Hamiltonian solves
    doc = small_doc()
    doc["forms"]["a"]["coefficients"] = {"1": "1e200*cos(x0)", "2": "1e200*sin(x0)"}
    doc["tasks"] = [{"task": "jacobi", "form": "a", "resolution": 6}, {"task": "classify", "form": "a"}]

    def refuse(name):
        raise ValueError(f"non-finite number {name} in the report")

    assert run_config(tmp_path, doc, "jacobi", "--format", "structured") == 1
    task = json.loads(capsys.readouterr().out, parse_constant=refuse)["tasks"][0]
    assert task["status"] == "fail" and task["result"]["error"]["condition"] == "non-finite"
    assert run_config(tmp_path, doc, "classify", "--format", "structured") == 1
    task = json.loads(capsys.readouterr().out, parse_constant=refuse)["tasks"][0]
    assert task["status"] == "fail" and task["result"]["max_residual"] is None
