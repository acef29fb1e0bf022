"""One decision rule for every gate, one margin rule.

``contact.passes`` alone compares a defect with a threshold: an upper bound
passes iff defect <= threshold, a lower bound iff defect > threshold, and a
NaN fails both.  The pair certificate's bounds go through its raising
wrapper ``contact._bound``, every numeric item of a deformation or jacobi
verdict through its item wrapper ``contact._gate``, and the premises, the
pointwise class, the single-form criterion and the Jacobi sides' gates call
it directly.  A failure carries the threshold its gate applied, and
``contact.marginal`` alone reads ``contact.MARGINAL_FACTOR`` to grade it.
A NaN defect is never marginal.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from test_contact import reeb_rows

import contactpairs
from contactpairs import runner
from contactpairs.cli import main
from contactpairs.contact import (
    MARGINAL_FACTOR,
    ContactPairError,
    _bound,
    _gate,
    _peaks,
    _troughs,
    marginal,
    passes,
    verify_contact_pair,
)
from contactpairs.fields import form_from_expressions
from contactpairs.models import torus

PTS = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
PACKAGE = Path(contactpairs.__file__).parent


def _sites(matches):
    """(module, enclosing function) of every AST node of the package for
    which ``matches(node)`` holds."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if matches(node):
                sites.append((path.stem, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    return sorted(sites)


def _call_sites(callee: str, keyword: str, positional: int):
    """(module, enclosing function) of every call of ``callee`` in the package
    that passes ``keyword``, by name or as positional argument ``positional``."""

    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        return name == callee and (any(k.arg == keyword for k in node.keywords) or len(node.args) > positional)

    return _sites(matches)


def _mentions_a_threshold(node) -> bool:
    """Whether node mentions ``tol`` or a name containing "threshold"."""
    for n in ast.walk(node):
        name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else ""
        if name == "tol" or "threshold" in name:
            return True
    return False


def test_only_the_rule_compares_with_a_threshold():
    # contact.marginal grades a failure the rule decided; it decides nothing
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

    def compares(node):
        return (isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops)
                and any(map(_mentions_a_threshold, (node.left, *node.comparators))))

    assert set(_sites(compares)) == {("contact", "marginal"), ("contact", "passes")}


NAN = float("nan")
# (defect, threshold, passes as an upper bound, passes as a lower bound)
RULE_CASES = [
    (0.5, 1.0, True, False),
    (1.0, 1.0, True, False),  # equality passes an upper bound and fails a lower one
    (2.0, 1.0, False, True),
    (0.0, 0.0, True, False),  # exactly zero data passes at zero scale
    (NAN, 1.0, False, False),
    (1.0, NAN, False, False),
    (NAN, NAN, False, False),
]


@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("shape", ["scalar", "array"])
def test_the_rule_and_its_wrappers(lower, shape):
    defects, thresholds, upper_ok, lower_ok = (list(c) for c in zip(*RULE_CASES))
    expected = lower_ok if lower else upper_ok
    if shape == "array":
        got = passes(np.array(defects), np.array(thresholds), lower=lower)
        assert got.dtype == bool and got.tolist() == expected
        return
    got = [passes(d, t, lower=lower) for d, t in zip(defects, thresholds)]
    assert [type(g) for g in got] == [bool] * len(got) and got == expected
    # the wrappers decide by the rule alone: a verdict item (an upper bound)
    # and a certificate bound, which returns the defect or raises
    if not lower:
        assert [_gate("check", d, t).passed for d, t in zip(defects, thresholds)] == expected
    for d, t, ok in zip(defects, thresholds, expected):
        extremum = (d, 1, -d) if lower else (d, 1)
        if ok:
            assert _bound("cond", "msg", extremum, t, PTS, lower=lower) == d
        else:
            with pytest.raises(ContactPairError):
                _bound("cond", "msg", extremum, t, PTS, lower=lower)


def test_marginal_factor_is_read_only_by_marginal():
    def reads(node):
        if isinstance(node, ast.Name):
            return node.id == "MARGINAL_FACTOR" and isinstance(node.ctx, ast.Load)
        if isinstance(node, ast.Attribute):
            return node.attr == "MARGINAL_FACTOR"
        return isinstance(node, ast.alias) and node.name == "MARGINAL_FACTOR"  # an import

    assert set(_sites(reads)) == {("contact", "marginal")}


def test_contact_pair_error_has_no_marginal_flag():
    err = ContactPairError("cond", "msg", defect=1.0, threshold=2.0)
    assert not hasattr(err, "marginal")
    assert _call_sites("ContactPairError", "marginal", 5) == []


def _ordering_comparisons(module: str, function: str) -> list[str]:
    """The source of every <, <=, > or >= comparison in a function of the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    (body,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function]
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    return [ast.unparse(n) for n in ast.walk(body)
            if isinstance(n, ast.Compare) and any(isinstance(op, ordering) for op in n.ops)]


def test_jacobi_verdict_decides_through_the_gate_only():
    assert _ordering_comparisons("runner", "_jacobi_verdict") == []


def _package_definitions():
    """({qualified name: (node, module, class)}, {module: namespace}) of the
    package: every top-level function ("module.name"), class
    ("module.Class") and method ("module.Class.name"), and per module the
    names it binds to them or to a package module (``from .m import f``,
    ``from . import m as alias``), anywhere in the module; a name bound to
    anything else maps to None."""
    defined, namespaces = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        names = namespaces[module] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{module}.{node.name}"] = (node, module, None)
                names[node.name] = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        defined[f"{module}.{node.name}.{m.name}"] = (m, module, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.level == 0:
                        names.setdefault(bound, None)
                    elif node.module is None:  # from . import m
                        names.setdefault(bound, f"module:{alias.name}")
                    else:
                        names.setdefault(bound, f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.setdefault(alias.asname or alias.name.split(".")[0], None)
    return defined, namespaces


def _reached_calls(module: str, function: str) -> set:
    """The qualified names (``_package_definitions``) of the functions,
    classes and methods of the package that a call of ``module.function``
    can reach, with the text of each call that names none of them.

    A call is resolved by what it names: a name bound in its module, a
    method of its own class through ``self.`` or ``cls.``, its own class
    through ``cls(...)``, an attribute of a package module or class bound
    in its module.  A class reaches each of its methods, and a package
    function named as a value (a callback) is reached too.  Any other call,
    on an object or by a name bound to nothing of the module (a parameter),
    is resolved by its bare name to every function and method of that
    name, except the methods of ``jacobi.JacobiSide``: those need an
    instance, and the caller is checked not to make one."""
    defined, namespaces = _package_definitions()
    by_name = {}
    for qualified, (_, _, cls) in defined.items():
        if cls != "JacobiSide":
            by_name.setdefault(qualified.rsplit(".", 1)[1], []).append(qualified)

    def named(expr, module) -> list:
        """What a name bound in module, or an attribute of a package module
        or class bound there, is: [its qualified name], or []."""
        names = namespaces[module]
        if isinstance(expr, ast.Name):
            target = names.get(expr.id)
        elif isinstance(expr, ast.Attribute) and names.get(getattr(expr.value, "id", None)):
            target = f"{names[expr.value.id].removeprefix('module:')}.{expr.attr}"
        else:
            return []
        return [target] if target in defined else []

    def resolve(call, module, cls) -> list:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "cls" and cls is not None:
            return [f"{module}.{cls}"]
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if owner in ("self", "cls") and cls is not None and f"{module}.{cls}.{func.attr}" in defined:
            return [f"{module}.{cls}.{func.attr}"]
        if (func.id if isinstance(func, ast.Name) else owner) in namespaces[module]:
            return named(func, module)
        return by_name.get(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None), [])

    start = f"{module}.{function}"
    seen, todo, called = set(), [start], set()
    while todo:
        qualified = todo.pop()
        if qualified in seen:
            continue
        seen.add(qualified)
        called.add(qualified)
        node, module_of, cls = defined[qualified]
        if isinstance(node, ast.ClassDef):
            todo.extend(f"{qualified}.{m.name}" for m in node.body if isinstance(m, ast.FunctionDef))
            continue
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                targets = resolve(n, module_of, cls)
                if not targets:
                    called.add(ast.unparse(n.func))
                todo.extend(targets)
            elif isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                todo.extend(t for t in named(n, module_of) if isinstance(defined[t][0], ast.FunctionDef))
    return called


def test_jacobi_verdict_makes_no_grid_stencil_solve_or_bracket():
    # the verdict reads exact partials at the side's distinct samples: it
    # forms no library side, and so no grid field, sweep or bracket
    called = _reached_calls("runner", "_jacobi_verdict")
    # the walk reaches them, and the frame bracket, which the pair certificate reaches
    assert {"contact.verify_contact_pair", "jacobi._structure_checks", "contact._frame_bracket"} <= called
    assert not called & {"jacobi.JacobiSide", "jacobi.JacobiSide.from_pair", "jacobi.JacobiSide.from_contact_form"}
    # the grid bracket, its entry points and its sweep
    assert not called & {"jacobi._axis_derivative", "jacobi.JacobiSide.grid_gradient", "jacobi.jacobi_bracket",
                         "jacobi.jacobi_identity_defect", "jacobi.JacobiSide.solve_hamiltonian",
                         "jacobi.JacobiSide.bracket_values"}


def test_pair_certificate_decides_its_bounds_through_the_gates_only():
    # the sign change of the volume is no bound: it has no threshold
    assert _ordering_comparisons("contact", "_certify") == ["vol_min[i] < 0.0 < vol_max[i]"]
    assert _ordering_comparisons("contact", "_reeb_step") == []


# --- no solve on a Reeb path, no threads ----------------------------------------------

def test_no_linear_solve_on_a_reeb_path():
    # the Reeb pair and the Hamiltonian fields of a Jacobi side are vol-duals
    # of wedge chains (the insertion identity), so no module solves a system;
    # where the volume is nonzero their systems have full rank, so no module
    # takes singular values either
    def solves(node):
        if isinstance(node, ast.alias):  # svd imported by name
            return node.name.split(".")[-1] == "svd"
        return isinstance(node, ast.Attribute) and (node.attr == "svd" or (
            node.attr in ("solve", "pinv", "lstsq")
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"))

    assert _sites(solves) == []


def test_no_expression_tree_wedge_outside_fields():
    # every verdict wedges sampled arrays (exterior.chain_factor); only
    # fields.py, which defines FormField.wedge, builds expression-tree wedges
    def wedges(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("wedge", "wedge_power"))

    assert [module for module, _ in _sites(wedges) if module != "fields"] == []


def test_no_module_imports_threading_or_contextvars():
    def imports(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] in ("threading", "contextvars") for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("threading", "contextvars")

    assert _sites(imports) == []


# --- one sample layout ------------------------------------------------------------------

def test_the_package_keeps_one_sample_layout():
    # the dense layout of the samples is gone: no SampledPair._dense, no
    # reeb_rows and no dense quotient rule, defined, imported or read
    gone = {"_dense", "reeb_rows", "_dual_derivative"}
    assert _sites(lambda node: gone & {getattr(node, key, None) for key in ("name", "attr", "id")}) == []

    # a call of .values() without points forms a compact Reeb field
    # (contact._Field) dense, unless its receiver is a dict: a name bound to
    # a dict display or comprehension or to a call of a function annotated
    # to return a dict, or a parameter annotated dict.  Only the
    # certificate's two properties form a field so
    makers, dicts, receivers = set(), set(), []

    def makes_a_dict(node):
        if isinstance(node, ast.FunctionDef) and getattr(node.returns, "id", None) == "dict":
            makers.add(node.name)
        return False

    def binds_a_dict(node):
        if isinstance(node, ast.arg) and getattr(node.annotation, "id", None) == "dict":
            dicts.add(node.arg)
        elif isinstance(node, ast.Assign) and (isinstance(node.value, (ast.Dict, ast.DictComp)) or (
                isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) in makers)):
            dicts.update(target.id for target in node.targets if isinstance(target, ast.Name))
        return False

    def forms_a_field_dense(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "values"
                and not node.args and getattr(node.func.value, "id", None) not in dicts):
            receivers.append(ast.unparse(node.func.value))
        return False

    for matches in (makes_a_dict, binds_a_dict, forms_a_field_dense):
        _sites(matches)
    assert sorted(receivers) == ["self.reeb_fields[0]", "self.reeb_fields[1]"]

    # one quotient rule, which the chart commutator and both kinds of
    # Jacobi side reach
    def calls_the_rule(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_quotient_rule"

    assert _sites(calls_the_rule) == [
        ("contact", "_reeb_directional"), ("jacobi", "_hamiltonian_operator"), ("jacobi", "_reeb_partials")]
    for module, function in (("contact", "_reeb_commutator"), ("jacobi", "_form_side"), ("jacobi", "_pair_side")):
        assert "contact._quotient_rule" in _reached_calls(module, function)


def test_a_failure_without_a_gate_reports_no_defect_or_threshold():
    # the orientation check applies no bound: the error keeps only its own keys
    err = ContactPairError("orientation", "volume coefficient changes sign across sample points", {"negative": {}})
    assert runner._witnessed(err) == {
        "condition": "orientation", "message": "volume coefficient changes sign across sample points", "negative": {},
    }


# --- the volume bound, which decides the Reeb rank ----------------------------------

def _thin_pair(thin: float):
    """(dx0, dx0 + (thin + x1) dx1) on T^2, a pair of type (0, 0): both
    forms are closed, and the volume alpha ^ beta = thin + x1 is thinnest
    where x1 = 0."""
    t2 = torus(2)
    return form_from_expressions(t2, 1, {0: "1"}), form_from_expressions(t2, 1, {0: "1", 1: f"{thin!r} + x1"})


@pytest.mark.parametrize("ratio, is_marginal", [(0.2, True), (2e-4, False)])
def test_volume_fails_through_the_lower_bound_gate(ratio, is_marginal):
    # max |beta| = 2 + thin on these points, so the threshold is tol (2 + thin)
    # and the volume at point 1 is ratio times it, to rounding
    tol, pts = 1e-6, np.array([[0.5, 1.0], [2.0, 0.0], [1.0, 2.0]])
    thin = ratio * tol * 2.0
    with pytest.raises(ContactPairError) as err:
        verify_contact_pair(*_thin_pair(thin), 0, 0, tol=tol, points=pts)
    assert err.value.condition == "volume"
    assert str(err.value) == "volume coefficient vanishes at a sample point"
    assert err.value.threshold == tol * (2.0 + thin)
    assert err.value.defect == thin
    assert err.value.witness == {"point": pts[1].tolist(), "index": 1, "value": thin}
    assert marginal(err.value.defect, err.value.threshold) is is_marginal


@pytest.mark.parametrize("ratio", [5.0, 0.2, 2e-4])
def test_the_volume_of_a_type_00_pair_is_the_determinant_of_its_reeb_system(ratio):
    # for type (0, 0) the Reeb rows are (alpha; beta) and two zero blocks, so
    # the product of their singular values is |alpha ^ beta|: the volume
    # gate bounds the rank of the system away from deficiency
    pts = np.array([[0.5, 1.0], [2.0, 0.0], [1.0, 2.0]])
    thin = ratio * 2e-6
    alpha, beta = _thin_pair(thin)
    cert = verify_contact_pair(alpha, beta, 0, 0, tol=0.1 * thin, points=pts)
    sigma = np.linalg.svd(reeb_rows(cert.sampled), compute_uv=False)
    np.testing.assert_allclose(np.prod(sigma, axis=-1), thin + pts[:, 1], rtol=1e-12)
    assert cert.min_volume == thin


def _thin_t2_doc(thin: float) -> dict:
    """(dx0, dx0 + thin dx1) on T^2 at tolerance 1e-6: its volume is thin
    everywhere, and its scales are 1, so the volume threshold is 1e-6."""
    return {
        "schema_version": 1,
        "tolerance": 1e-6,
        "models": {"t2": {"kind": "builtin", "name": "torus2"}},
        "forms": {
            "alpha": {"model": "t2", "degree": 1, "coefficients": [1, 0]},
            "beta": {"model": "t2", "degree": 1, "coefficients": [1, thin]},
        },
        "tasks": [{"task": "verify-pair", "alpha": "alpha", "beta": "beta", "type": [0, 0]}],
    }


@pytest.mark.parametrize("ratio, code, status", [(5.0, 0, "pass"), (0.2, 3, "inconclusive"), (2e-4, 1, "fail")])
def test_verify_pair_grades_the_volume(tmp_path, capsys, ratio, code, status):
    thin = ratio * 1e-6
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(_thin_t2_doc(thin)))
    assert main(["verify-pair", "--config", str(path), "--format", "structured"]) == code
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["status"] == status
    if code == 0:
        assert task["result"]["min_volume"] == thin
    else:
        error = task["result"]["error"]
        assert error["condition"] == "volume"
        assert error["index"] == 0
        # the report shows how close the bound was
        assert error["defect"] == thin
        assert error["threshold"] == 1e-6


# --- contact._gate ----------------------------------------------------------------------

def test_gate_nan_defect_fails_with_its_witness():
    item = _gate("check", float("nan"), 1.0, {"point": [0.0]})
    assert item.passed is False
    assert item.witness == {"point": [0.0]}
    assert math.isnan(item.to_dict()["defect"])


def test_gate_drops_the_witness_on_a_pass():
    item = _gate("check", 0.5, 1.0, {"point": [0.0]})
    assert item.passed is True
    assert item.witness is None
    assert item.to_dict() == {"name": "check", "passed": True, "defect": 0.5, "threshold": 1.0}


@pytest.mark.parametrize("defect", [np.float64(0.5), np.float64(2.0), np.float64("nan")])
def test_gate_passed_is_a_python_bool(defect):
    assert type(_gate("check", defect, np.float64(1.0)).passed) is bool


# --- contact._bound on an upper bound ---------------------------------------------------

def test_vanishing_raises_on_nan():
    with pytest.raises(ContactPairError) as err:
        _bound("cond", "does not vanish", _peaks(np.array([0.0, np.nan, 0.1]))[0], 1.0, PTS, lower=False)
    assert err.value.condition == "cond"
    assert str(err.value) == "does not vanish"
    assert math.isnan(err.value.defect)
    assert err.value.witness["index"] == 1
    assert err.value.witness["point"] == [2.0, 3.0]
    assert err.value.threshold == 1.0
    assert marginal(err.value.defect, err.value.threshold) is False


@pytest.mark.parametrize("defect, is_marginal", [(0.5 * MARGINAL_FACTOR, True), (2.0 * MARGINAL_FACTOR, False)])
def test_vanishing_marks_failures_within_the_marginal_factor(defect, is_marginal):
    with pytest.raises(ContactPairError) as err:
        _bound("cond", "msg", _peaks(np.array([0.0, 0.0, defect]))[0], 1.0, PTS, lower=False)
    assert err.value.defect == defect
    assert err.value.witness == {"point": [4.0, 5.0], "index": 2, "value": defect}
    assert marginal(err.value.defect, err.value.threshold) is is_marginal


# --- contact._bound on a lower bound ----------------------------------------------------

def test_nonvanishing_raises_on_nan():
    with pytest.raises(ContactPairError) as err:
        _bound("cond", "vanishes", _troughs(np.array([3.0, np.nan, 2.0]))[0], 1.0, PTS, lower=True)
    assert err.value.condition == "cond"
    assert str(err.value) == "vanishes"
    assert math.isnan(err.value.defect)
    assert err.value.witness["index"] == 1
    assert err.value.threshold == 1.0
    assert marginal(err.value.defect, err.value.threshold) is False


def test_nonvanishing_passes_strictly_above_the_threshold():
    assert _bound("cond", "msg", _troughs(np.array([3.0, -1.5, 2.0]))[0], 1.0, PTS, lower=True) == 1.5


def test_nonvanishing_witness_is_the_smallest_magnitude_with_its_sign():
    with pytest.raises(ContactPairError) as err:
        _bound("cond", "msg", _troughs(np.array([-0.5, -0.25, 0.75]))[0], 1.0, PTS, lower=True)
    assert err.value.defect == 0.25
    assert err.value.witness == {"point": [2.0, 3.0], "index": 1, "value": -0.25}
    assert marginal(err.value.defect, err.value.threshold) is True


# --- contact._peaks and contact._troughs ---------------------------------------------------

def test_peaks_and_troughs_of_a_batch_are_those_of_each_row():
    # one reduction for a batch of t gives each row's own extremum, its
    # first index and, for a trough, its signed value; NaN comes first
    rows = np.array([
        [0.5, -2.0, 2.0, -0.25, 0.25],
        [1.0, np.nan, 3.0, np.nan, -0.0],
        [np.inf, 1.0, -np.inf, 1.0, 1.0],
        [-0.0, 0.0, 0.0, 4.0, -4.0],
    ])
    peaks, troughs = _peaks(rows), _troughs(rows)
    assert len(peaks) == len(troughs) == len(rows)
    for row, peak, trough in zip(rows, peaks, troughs):
        for got, want in zip(peak, (float(np.max(row)), int(np.argmax(row)))):
            assert type(got) is type(want) and (got == want or (math.isnan(got) and math.isnan(want)))
        idx = int(np.argmin(np.abs(row)))
        want = (float(np.abs(row[idx])), idx, float(row[idx]))
        assert [type(v) for v in trough] == [float, int, float]
        assert np.array(trough[::2]).tobytes() == np.array(want[::2]).tobytes() and trough[1] == want[1]
        assert np.array(_peaks(row)[0]).tobytes() == np.array(peak).tobytes()  # a row alone
        assert np.array(_troughs(row)[0]).tobytes() == np.array(trough).tobytes()
    assert np.signbit(troughs[3][2])  # the first of the zeros, -0.0, keeps its sign


# --- contact.marginal ------------------------------------------------------------------

@pytest.mark.parametrize("defect, expected", [
    # a failed upper bound (defect above a threshold of 1): marginal below 10x
    (1.5, True),
    (np.nextafter(MARGINAL_FACTOR, 0.0), True),
    (MARGINAL_FACTOR, False),
    (2.0 * MARGINAL_FACTOR, False),
    # a failed lower bound (defect below a threshold of 1): marginal above 1/10
    (0.5, True),
    (np.nextafter(1.0 / MARGINAL_FACTOR, 1.0), True),
    (1.0 / MARGINAL_FACTOR, False),
    (0.5 / MARGINAL_FACTOR, False),
    (0.0, False),
])
def test_marginal_is_within_the_factor_on_both_sides(defect, expected):
    assert marginal(defect, 1.0) is expected


@pytest.mark.parametrize("defect, threshold", [
    (None, 1.0), (1.5, None), (None, None),
    (float("nan"), 1.0), (1.5, float("nan")), (float("nan"), float("nan")),
])
def test_marginal_needs_two_numbers(defect, threshold):
    assert marginal(defect, threshold) is False


def test_marginal_matches_the_upper_and_lower_bound_rules():
    rng = np.random.default_rng(0)
    for threshold in 10.0 ** rng.uniform(-12, 3, 200):
        above = threshold * 10.0 ** rng.uniform(0, 2)  # a failed upper bound
        below = threshold * 10.0 ** rng.uniform(-2, 0)  # a failed lower bound
        assert marginal(above, threshold) is bool(above < MARGINAL_FACTOR * threshold)
        assert marginal(below, threshold) is bool(threshold < MARGINAL_FACTOR * below)
