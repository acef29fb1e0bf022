"""Named builtin examples: models, contact forms, pairs, and families."""

from __future__ import annotations

from dataclasses import dataclass

from .contact import darboux_model, torus_contact
from .deformation import DeformationFamily
from .fields import coframe, pullback_form
from .models import ProductModel, heisenberg3, torus

__all__ = ["ExampleInfo", "list_examples", "build_example", "example_names"]


@dataclass(frozen=True)
class ExampleInfo:
    name: str
    dimension: int
    kind: str  # "contact-form" | "pair" | "family"
    type_label: str
    summary: str


def _darboux(k):
    def build():
        model, alpha = darboux_model(k)
        return {"model": model, "alpha": alpha, "k": k}

    return build


def _torus_contact():
    model, alpha = torus_contact()
    return {"model": model, "alpha": alpha, "k": 1}


def _heisenberg_form():
    model = heisenberg3()
    return {"model": model, "alpha": coframe(model, 2), "k": 1}


def _heisenberg_factor(name):
    model = heisenberg3(name)
    return model, coframe(model, 2)


def _family_example(left, alpha_l, right, alpha_r, closed_axis_left: int) -> dict:
    """The type (1,1) family on left x right deforming the closed pair
    (coframe closed_axis_left of left, coframe 0 of right) along the
    pulled-back contact forms.

    The product is built as product_contact_pair builds it, without its
    class check: the factor forms of the builtins are contact by
    construction (the tests check that the check accepts them).
    """
    model = ProductModel(left, right)
    alpha = pullback_form(model, alpha_l, "left")
    beta = pullback_form(model, alpha_r, "right")
    alpha0 = pullback_form(model, coframe(left, closed_axis_left), "left")
    beta0 = pullback_form(model, coframe(right, 0), "right")
    family = DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)
    return {
        "model": model,
        "alpha": alpha,
        "beta": beta,
        "alpha0": alpha0,
        "beta0": beta0,
        "family": family,
        "k": 1,
        "l": 1,
    }


def _t2_pair():
    model = torus(2)
    return {"model": model, "alpha": coframe(model, 0), "beta": coframe(model, 1), "k": 0, "l": 0}


_REGISTRY = {
    "darboux1": (
        ExampleInfo("darboux1", 3, "contact-form", "class 3 (k=1)",
                    "box [-1,1]^3 with dz + x dy, the standard local contact model"),
        _darboux(1),
    ),
    "darboux2": (
        ExampleInfo("darboux2", 5, "contact-form", "class 5 (k=2)",
                    "box [-1,1]^5 with dz + x1 dy1 + x2 dy2"),
        _darboux(2),
    ),
    "torus-contact": (
        ExampleInfo("torus-contact", 3, "contact-form", "class 3 (k=1)",
                    "T^3 with cos(x0) dx1 + sin(x0) dx2"),
        _torus_contact,
    ),
    "heisenberg3": (
        ExampleInfo("heisenberg3", 3, "contact-form", "class 3 (k=1)",
                    "Heisenberg group, invariant contact form e2* with d(e2*) = -e0^e1"),
        _heisenberg_form,
    ),
    "heisenberg6-pair": (
        ExampleInfo("heisenberg6-pair", 6, "family", "type (1,1)",
                    "product of two Heisenberg contact forms, deforming the closed pair (e0*, f0*)"),
        lambda: _family_example(*_heisenberg_factor("h3-left"), *_heisenberg_factor("h3-right"), 0),
    ),
    "t6-pair-compatible": (
        ExampleInfo("t6-pair-compatible", 6, "family", "type (1,1)",
                    "T^3 x T^3 torus contact pair deforming (dx0 left, dx0 right); compatible"),
        lambda: _family_example(*torus_contact(), *torus_contact(), 0),
    ),
    "t6-pair-incompatible": (
        ExampleInfo("t6-pair-incompatible", 6, "family", "type (1,1)",
                    "T^3 x T^3 torus contact pair deforming (dx1 left, dx0 right); "
                    "alpha0(E_alpha) = cos(x0) breaks compatibility"),
        lambda: _family_example(*torus_contact(), *torus_contact(), 1),
    ),
    "t2-pair-type00": (
        ExampleInfo("t2-pair-type00", 2, "pair", "type (0,0)",
                    "T^2 with the closed pair (dx0, dx1)"),
        _t2_pair,
    ),
}


def example_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def list_examples() -> tuple[ExampleInfo, ...]:
    return tuple(info for info, _ in _REGISTRY.values())


def build_example(name: str) -> dict:
    """Instantiate a builtin example by name."""
    if name not in _REGISTRY:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown example {name!r} (known: {known})")
    return _REGISTRY[name][1]()
