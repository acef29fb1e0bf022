"""One gate per kind of check.

Every upper bound of the pair certificate goes through ``contact._vanishing``
and every numeric item of a deformation verdict through
``deformation._gate``; the factor that makes a failure marginal is
``contact.MARGINAL_FACTOR``.  A NaN defect fails either gate.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import contactpairs
from contactpairs.contact import MARGINAL_FACTOR, ContactPairError, _vanishing
from contactpairs.deformation import _gate

PTS = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])


def _call_sites(callee: str, keyword: str, positional: int):
    """(module, enclosing function) of every call of ``callee`` in the package
    that passes ``keyword``, by name or as positional argument ``positional``."""
    sites = []
    for path in sorted(Path(contactpairs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name == callee and (
                    any(k.arg == keyword for k in node.keywords) or len(node.args) > positional
                ):
                    sites.append((path.stem, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    return sorted(sites)


def test_thresholded_items_come_from_one_gate():
    # _cert_item only reports the certificate's pass, which _vanishing
    # decided; every other item with a threshold is decided by _gate
    assert _call_sites("CheckItem", "threshold", 3) == [
        ("deformation", "_cert_item"),
        ("deformation", "_gate"),
    ]


def test_marginal_failures_come_from_the_bound_gate_and_the_volume_check():
    assert _call_sites("ContactPairError", "marginal", 4) == [
        ("contact", "_certify"),  # the volume coefficient, a lower bound
        ("contact", "_vanishing"),
    ]


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
        _vanishing("cond", "does not vanish", np.array([0.0, np.nan, 0.1]), 1.0, PTS)
    assert err.value.condition == "cond"
    assert str(err.value) == "does not vanish"
    assert math.isnan(err.value.defect)
    assert err.value.witness["index"] == 1
    assert err.value.witness["point"] == [2.0, 3.0]
    assert err.value.marginal is False


def test_vanishing_passes_at_the_threshold():
    assert _vanishing("cond", "msg", np.array([0.25, 1.0, 0.5]), 1.0, PTS) == 1.0


@pytest.mark.parametrize("defect, marginal", [(0.5 * MARGINAL_FACTOR, True), (2.0 * MARGINAL_FACTOR, False)])
def test_vanishing_marks_failures_within_the_marginal_factor(defect, marginal):
    with pytest.raises(ContactPairError) as err:
        _vanishing("cond", "msg", np.array([0.0, 0.0, defect]), 1.0, PTS)
    assert err.value.defect == defect
    assert err.value.witness == {"point": [4.0, 5.0], "index": 2, "value": defect}
    assert err.value.marginal is marginal
