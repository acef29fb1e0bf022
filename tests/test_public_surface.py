"""The public surface: the package exports what a verdict or an acceptance
criterion uses, and every name a module lists in ``__all__`` exists.

A name deleted from a module cannot linger in an ``__all__``, and a
re-export cannot come back without this list changing.
"""

import importlib
import pkgutil

import pytest

import contactpairs

EXPORTS = [
    "ChartModel",
    "ClassReport",
    "ContactPairCertificate",
    "ContactPairError",
    "DeformationFamily",
    "FormField",
    "FormValue",
    "JacobiSide",
    "LieGroupModel",
    "ProductModel",
    "TheoremVerdict",
    "VectorField",
    "VectorValue",
    "VolumePolynomial",
    "box_chart",
    "cartan_class",
    "coframe",
    "darboux_model",
    "evaluate",
    "form_from_expressions",
    "grid_points",
    "heisenberg3",
    "integrate",
    "interior",
    "jacobi_bracket",
    "jacobi_identity_defect",
    "norm_inf",
    "product_contact_pair",
    "pullback_form",
    "pullback_vector",
    "random_points",
    "sample_points",
    "stokes_integrals",
    "sweep_rows",
    "torus",
    "torus_contact",
    "verify_contact_pair",
    "verify_converse",
    "verify_forward",
    "verify_single_deformation",
    "volume_form",
    "volume_identity_defect",
    "volume_polynomial",
    "wedge",
    "wedge_power",
]

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(contactpairs.__path__) if m.name != "__main__")


def test_package_exports_are_pinned():
    assert sorted(contactpairs.__all__) == EXPORTS


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_a_module_all_resolves(module):
    names = importlib.import_module(f"contactpairs.{module}").__all__
    namespace = {}
    exec(f"from contactpairs.{module} import *", namespace)  # raises on a missing name
    assert set(names) <= set(namespace)
