"""One gate per bound, one margin rule.

Every upper bound of the pair certificate goes through ``contact._vanishing``,
every lower bound through ``contact._nonvanishing``, and every numeric item
of a deformation or jacobi verdict through ``deformation._gate``.  A failure
carries the threshold its gate applied, and ``contact.marginal`` alone reads
``contact.MARGINAL_FACTOR`` to grade it.  A NaN defect fails every gate and
is never marginal.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import contactpairs
from contactpairs import contact, runner
from contactpairs.cli import main
from contactpairs.contact import (
    MARGINAL_FACTOR,
    ContactPairError,
    _nonvanishing,
    _peaks,
    _troughs,
    _vanishing,
    marginal,
)
from contactpairs.deformation import _gate
from contactpairs.models import default_tolerance
from contactpairs.registry import build_example

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


def test_thresholded_items_come_from_one_gate():
    # _cert_item only reports the certificate's pass, which _vanishing
    # decided; every other item with a threshold is decided by _gate
    assert _call_sites("CheckItem", "threshold", 3) == [
        ("deformation", "_cert_item"),
        ("deformation", "_gate"),
    ]


def test_thresholded_failures_come_from_the_two_bound_gates():
    assert _call_sites("ContactPairError", "threshold", 4) == [
        ("contact", "_nonvanishing"),
        ("contact", "_vanishing"),
    ]


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


def test_pair_certificate_decides_its_bounds_through_the_gates_only():
    # the sign change of the volume is no bound: it has no threshold
    assert _ordering_comparisons("contact", "_certify") == ["vol_min[i] < 0.0 < vol_max[i]"]
    assert _ordering_comparisons("contact", "_reeb_step") == []


# --- no solve on a Reeb path, no threads ----------------------------------------------

def test_no_linear_solve_on_a_reeb_path():
    # the Reeb pair and the Hamiltonian fields of a Jacobi side are vol-duals
    # of wedge chains (the insertion identity), so no module solves a system
    def solves(node):
        return (isinstance(node, ast.Attribute) and node.attr in ("solve", "pinv", "lstsq")
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")

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


# --- the Reeb rank bound -------------------------------------------------------------

def _thin_reeb_system(monkeypatch, index: int, factor: float) -> dict:
    """Make sigma_min of the Reeb system at point ``index`` ``factor`` times
    the rank threshold, tol * max sigma_max; returns that threshold once the
    certificate has taken the singular values."""
    real = contact._reeb_sigma
    seen = {}

    def thin(s):
        sigma_min, sigma_max = real(s)
        seen["threshold"] = default_tolerance(s.forms[0].model) * float(np.max(sigma_max))
        sigma_min = sigma_min.copy()
        sigma_min[index] = factor * seen["threshold"]
        return sigma_min, sigma_max

    monkeypatch.setattr(contact, "_reeb_sigma", thin)
    return seen


@pytest.mark.parametrize("factor, is_marginal", [(0.2, True), (2e-4, False)])
def test_reeb_rank_fails_through_the_lower_bound_gate(monkeypatch, factor, is_marginal):
    objs = build_example("heisenberg6-pair")
    pts = np.arange(18.0).reshape(3, 6)  # left-invariant forms: any points of the Lie model
    seen = _thin_reeb_system(monkeypatch, 1, factor)
    with pytest.raises(ContactPairError) as err:
        contact.verify_contact_pair(objs["alpha"], objs["beta"], 1, 1, points=pts)
    assert err.value.condition == "reeb-rank"
    assert str(err.value) == "Reeb system is rank deficient (non-unique solution)"
    assert err.value.threshold == seen["threshold"] > 0.0
    assert err.value.defect == factor * seen["threshold"]
    assert err.value.witness == {"point": pts[1].tolist(), "index": 1, "value": factor * seen["threshold"]}
    assert marginal(err.value.defect, err.value.threshold) is is_marginal


@pytest.mark.parametrize("factor, code, status", [(5.0, 0, "pass"), (0.2, 3, "inconclusive"), (2e-4, 1, "fail")])
def test_verify_pair_grades_the_reeb_rank(monkeypatch, capsys, factor, code, status):
    seen = _thin_reeb_system(monkeypatch, 0, factor)
    assert main(["verify-pair", "--example", "heisenberg6-pair", "--format", "structured"]) == code
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["status"] == status
    if code == 0:
        assert task["result"]["sigma_min"] == factor * seen["threshold"]
    else:
        error = task["result"]["error"]
        assert error["condition"] == "reeb-rank"
        assert error["index"] == 0
        # the report shows how close the bound was
        assert error["defect"] == factor * seen["threshold"]
        assert error["threshold"] == seen["threshold"]


def test_a_failure_without_a_gate_reports_no_defect_or_threshold():
    # the orientation check applies no bound: the error keeps only its own keys
    err = ContactPairError("orientation", "volume coefficient changes sign across sample points", {"negative": {}})
    assert runner._witnessed(err) == {
        "condition": "orientation", "message": "volume coefficient changes sign across sample points", "negative": {},
    }


# --- deformation._gate -----------------------------------------------------------------

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


def test_gate_is_strict_at_the_threshold():
    assert _gate("check", 1.0, 1.0).passed is False


# --- contact._vanishing ----------------------------------------------------------------

def test_vanishing_raises_on_nan():
    with pytest.raises(ContactPairError) as err:
        _vanishing("cond", "does not vanish", _peaks(np.array([0.0, np.nan, 0.1]))[0], 1.0, PTS)
    assert err.value.condition == "cond"
    assert str(err.value) == "does not vanish"
    assert math.isnan(err.value.defect)
    assert err.value.witness["index"] == 1
    assert err.value.witness["point"] == [2.0, 3.0]
    assert err.value.threshold == 1.0
    assert marginal(err.value.defect, err.value.threshold) is False


def test_vanishing_passes_at_the_threshold():
    assert _vanishing("cond", "msg", _peaks(np.array([0.25, 1.0, 0.5]))[0], 1.0, PTS) == 1.0


@pytest.mark.parametrize("defect, is_marginal", [(0.5 * MARGINAL_FACTOR, True), (2.0 * MARGINAL_FACTOR, False)])
def test_vanishing_marks_failures_within_the_marginal_factor(defect, is_marginal):
    with pytest.raises(ContactPairError) as err:
        _vanishing("cond", "msg", _peaks(np.array([0.0, 0.0, defect]))[0], 1.0, PTS)
    assert err.value.defect == defect
    assert err.value.witness == {"point": [4.0, 5.0], "index": 2, "value": defect}
    assert marginal(err.value.defect, err.value.threshold) is is_marginal


# --- contact._nonvanishing -------------------------------------------------------------

def test_nonvanishing_raises_on_nan():
    with pytest.raises(ContactPairError) as err:
        _nonvanishing("cond", "vanishes", _troughs(np.array([3.0, np.nan, 2.0]))[0], 1.0, PTS)
    assert err.value.condition == "cond"
    assert str(err.value) == "vanishes"
    assert math.isnan(err.value.defect)
    assert err.value.witness["index"] == 1
    assert err.value.threshold == 1.0
    assert marginal(err.value.defect, err.value.threshold) is False


def test_nonvanishing_fails_at_the_threshold():
    with pytest.raises(ContactPairError) as err:
        _nonvanishing("cond", "msg", _troughs(np.array([3.0, -1.0, 2.0]))[0], 1.0, PTS)
    assert err.value.defect == 1.0
    assert err.value.threshold == 1.0


def test_nonvanishing_passes_strictly_above_the_threshold():
    assert _nonvanishing("cond", "msg", _troughs(np.array([3.0, -1.5, 2.0]))[0], 1.0, PTS) == 1.5


def test_nonvanishing_witness_is_the_smallest_magnitude_with_its_sign():
    with pytest.raises(ContactPairError) as err:
        _nonvanishing("cond", "msg", _troughs(np.array([-0.5, -0.25, 0.75]))[0], 1.0, PTS)
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
