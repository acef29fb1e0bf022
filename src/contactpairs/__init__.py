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

from .contact import (
    ClassReport,
    ContactPairCertificate,
    ContactPairError,
    cartan_class,
    contact_reeb_field,
    darboux_model,
    product_contact_pair,
    reeb_pair,
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
    transverse_wedge_defect,
    verify_converse,
    verify_forward,
    volume_identity_defect,
    volume_polynomial,
    volume_replacement_defects,
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
    ScalarField,
    SolvedVectorField,
    VectorField,
    coframe,
    form_from_expressions,
    frame_vector,
    lie_bracket_fields,
    pullback_form,
    pullback_vector,
    volume_form,
)
from .jacobi import (
    BivectorField,
    JacobiSide,
    build_bivector,
    hamiltonian_field,
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

__all__ = [name for name in dir() if not name.startswith("_")]
