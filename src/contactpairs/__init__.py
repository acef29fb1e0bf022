"""Numerical exterior calculus for contact pairs and linear deformations of
pairs of codimension-one foliations.

The package verifies, on concrete manifold models (Lie groups through
structure constants, periodic or box charts, and products), that a pair of
closed nonvanishing 1-forms deforms linearly into contact pairs exactly when
the deformation directions form a contact pair whose Reeb fields annihilate
the closed forms, and it property-tests the Jacobi brackets the contact data
induces on functions.
"""

__version__ = "0.1.0"

import types

from .contact import (
    ClassReport,
    ContactPairCertificate,
    ContactPairError,
    cartan_class,
    darboux_model,
    product_contact_pair,
    torus_contact,
    verify_contact_pair,
    verify_single_deformation,
)
from .deformation import (
    DeformationFamily,
    TheoremVerdict,
    VolumePolynomial,
    stokes_integrals,
    sweep_rows,
    verify_converse,
    verify_forward,
    volume_identity_defect,
    volume_polynomial,
)
from .exterior import (
    FormValue,
    VectorValue,
    evaluate,
    interior,
    norm_inf,
    wedge,
    wedge_power,
)
from .fields import (
    FormField,
    VectorField,
    coframe,
    form_from_expressions,
    pullback_form,
    pullback_vector,
    volume_form,
)
from .jacobi import (
    JacobiSide,
    jacobi_bracket,
    jacobi_identity_defect,
)
from .models import (
    ChartModel,
    LieGroupModel,
    ProductModel,
    box_chart,
    grid_points,
    heisenberg3,
    integrate,
    random_points,
    sample_points,
    torus,
)

__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)
]
