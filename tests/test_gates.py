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


def _reached_calls(module: str, function: str) -> set:
    """The names called by the functions of the package that a call of
    ``module.function`` can reach, a call resolved by its name alone to every
    function, method or class (its methods) of that name, except the methods
    of ``jacobi.JacobiSide``: those need an instance, and the caller is
    checked not to make one."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                defined.setdefault(node.name, []).extend(methods)
                if node.name != "JacobiSide":
                    for m in methods:
                        defined.setdefault(m.name, []).append(m)
            elif isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(node)
                if path.stem == module and node.name == function:
                    start = node
    seen, todo, called = set(), [start], set()
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
            name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
            called.add(name)
            todo.extend(defined.get(name, ()))
    return called


def test_jacobi_verdict_makes_no_grid_stencil_solve_or_bracket():
    # the verdict reads exact partials at the side's distinct samples: it
    # forms no library side, and so no grid field, sweep or bracket
    called = _reached_calls("runner", "_jacobi_verdict")
    assert "verify_contact_pair" in called and "_structure_checks" in called  # the walk reaches them
    assert not called & {"JacobiSide", "from_pair", "from_contact_form"}
    # the grid bracket by its entry points and its sweep: the name
    # bracket_values is also the frame bracket Model.bracket_values, which
    # the pair certificate reaches
    assert not called & {"_axis_derivative", "grid_gradient", "jacobi_bracket", "jacobi_identity_defect",
                         "solve_hamiltonian"}


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
    sigma = np.linalg.svd(cert.sampled.reeb_rows(), compute_uv=False)
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
