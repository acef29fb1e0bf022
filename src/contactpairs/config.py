"""Run configuration: a single JSON document declaring models, forms,
families, and the tasks to execute.

Validation is whole-file: every error is collected and reported together,
with parse positions for malformed expressions.  The schema is documented in
the repository README and versioned through ``schema_version``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expressions as ex
from .deformation import DeformationFamily
from .fields import FormField, form_from_expressions, pullback_form
from .models import (
    ChartModel, LieGroupModel, Model, ProductModel, box_axis, grid_shape, heisenberg3, periodic_axis, torus,
)
from .registry import list_examples

__all__ = ["ConfigError", "TaskSpec", "RunConfig", "TASKS", "load_config", "parse_config", "tolerance_error"]

SCHEMA_VERSION = 1


# Every task kind, once, as (refs, examples).  ``refs`` are the declared
# names a task references: "family" names a family, "type" is the pair type
# [k, l], any other names a 1-form.  ``examples`` are the builtin example
# kinds (``ExampleInfo.kind``) that carry the same objects, for a task given
# an "example" instead.
TASKS = {
    "classify": (("form",), ("contact-form", "pair", "family")),
    "verify-pair": (("alpha", "beta", "type"), ("pair", "family")),
    "deform-forward": (("family",), ("family",)),
    "deform-converse": (("family",), ("family",)),
    "single-deform": (("alpha", "alpha0"), ("contact-form",)),
    "jacobi": (("form",), ("contact-form", "pair", "family")),
    "sweep": (("family",), ("family",)),
}


# Jacobi grids: the default resolution per axis of a pair side and of a
# contact-form side.
JACOBI_RESOLUTION = {"pair": 6, "contact-form": 16}
# The most points one run may ask for: in a Jacobi grid (darboux2 at its
# default, 16^5 = 2^20 points, is the largest builtin grid), in
# samples.random_count and in samples.grid_limit.
POINT_LIMIT = 1 << 20


class ConfigError(ValueError):
    """All validation problems of a configuration, collected."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass
class TaskSpec:
    """A validated task; ``objects`` holds the declared objects it references
    by name (empty for a task on a builtin example, built when it runs)."""

    task: str
    params: dict
    objects: dict = dc_field(default_factory=dict)


@dataclass
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    tolerance: float | None = None
    t_grid: list | None = None
    random_count: int = 10000
    grid_limit: int = 50000
    models: dict = dc_field(default_factory=dict)
    forms: dict = dc_field(default_factory=dict)
    families: dict = dc_field(default_factory=dict)
    tasks: list = dc_field(default_factory=list)


def _finite_number(value) -> bool:
    """An int or float, not a bool, inside the float range (a JSON integer
    can be too large to convert)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def tolerance_error(value, where: str) -> str | None:
    """The validation message for a tolerance that is not a finite number > 0."""
    ok = _finite_number(value) and value > 0
    return None if ok else f"{where}: must be a finite number > 0, got {value!r}"


def t_grid_errors(grid, where: str) -> list[str]:
    """The validation messages for a t grid that is not a non-empty list of
    finite numbers."""
    if not isinstance(grid, list) or not grid:
        return [f"{where}: must be a non-empty list of finite numbers, got {grid!r}"]
    return [
        f"{where}[{i}]: must be a finite number, got {t!r}"
        for i, t in enumerate(grid)
        if not _finite_number(t)
    ]


_WANTED = {
    bool: "true or false",
    int: "an integer",
    float: "a finite number",
    str: "a name",
    list: "a list",
    dict: "an object",
}


def _field(decl: dict, key: str, want: type, where: str, errors, default=None, minimum=None, maximum=None):
    """``decl[key]`` when it is a ``want`` (JSON types; a float must be finite,
    an int is not a bool, a number is at least ``minimum`` and at most
    ``maximum``).  ``default`` when the key is absent or, with an error naming
    the field, when it is wrong."""
    if key not in decl:
        return default
    value = decl[key]
    ok = _finite_number(value) if want is float else type(value) is want
    if ok and (minimum is None or value >= minimum) and (maximum is None or value <= maximum):
        return value
    bound = "" if minimum is None else f" >= {minimum}"
    bound += "" if maximum is None else f" and <= {maximum}"
    errors.append(f"{where}.{key}: must be {_WANTED[want]}{bound}, got {value!r}".lstrip("."))
    return default


def _ref(decl: dict, key: str, declared: dict, what: str, where: str, errors):
    """The declared object named by ``decl[key]``, or None with an error."""
    name = decl.get(key)
    if isinstance(name, str) and name in declared:
        return declared[name]
    errors.append(f"{where}.{key}: unresolved {what} reference {name!r}")
    return None


def _pair_type(decl: dict, where: str, model: Model, errors) -> tuple[int, int] | None:
    """(k, l) from ``decl["type"]``, which must fit the model's dimension."""
    ktype = decl.get("type")
    if not (
        isinstance(ktype, list) and len(ktype) == 2
        and all(type(v) is int and v >= 0 for v in ktype)
    ):
        errors.append(f"{where}.type: must be [k, l] with integers k, l >= 0, got {ktype!r}")
        return None
    k, l = ktype
    if model.n != 2 * k + 2 * l + 2:
        errors.append(f"{where}: type ({k},{l}) needs dimension {2 * k + 2 * l + 2}, model has {model.n}")
        return None
    return k, l


def _builtin_model(name) -> Model | None:
    if name == "heisenberg3":
        return heisenberg3()
    if isinstance(name, str) and name.startswith("torus"):
        try:
            dim = int(name[len("torus"):])
        except ValueError:
            return None
        return torus(dim) if dim >= 1 else None
    return None


def _build_model(name, decl, models, errors) -> Model | None:
    where = f"models.{name}"
    if not isinstance(decl, dict):
        errors.append(f"{where}: declaration must be an object")
        return None
    kind = decl.get("kind")
    try:
        if kind == "builtin":
            model = _builtin_model(decl.get("name"))
            if model is None:
                errors.append(f"{where}: unknown builtin model {decl.get('name')!r}")
            return model
        if kind == "lie":
            return LieGroupModel(np.asarray(decl["structure"], dtype=float), name=name)
        if kind == "chart":
            axes = []
            for i, a in enumerate(_field(decl, "axes", list, where, errors, [])):
                at = f"{where}.axes[{i}]"
                if not isinstance(a, dict):
                    errors.append(f"{at}: must be an object, got {a!r}")
                    return None
                res = _field(a, "resolution", int, at, errors, 32, minimum=4)
                if _field(a, "periodic", bool, at, errors, False):
                    axes.append(periodic_axis(res))
                else:
                    lo, hi = (_field(a, key, float, at, errors, math.nan) for key in ("lo", "hi"))
                    axes.append(box_axis(lo, hi, res))
            if not axes:
                errors.append(f"{where}: chart model needs at least one axis")
                return None
            return ChartModel(axes, name=name)
        if kind == "product":
            left = _ref(decl, "left", models, "factor", where, errors)
            right = _ref(decl, "right", models, "factor", where, errors)
            return None if left is None or right is None else ProductModel(left, right, name=name)
    except (KeyError, ValueError, TypeError, OverflowError) as err:  # OverflowError: huge JSON ints
        errors.append(f"{where}: {err}")
        return None
    errors.append(f"{where}: unknown model kind {kind!r}")
    return None


def _build_form(name, decl, models, forms, errors) -> FormField | None:
    where = f"forms.{name}"
    if not isinstance(decl, dict):
        errors.append(f"{where}: declaration must be an object")
        return None
    try:
        if "pullback" in decl:
            spec = _field(decl, "pullback", dict, where, errors)
            if spec is None:
                return None
            product = _ref(spec, "product", models, "model", f"{where}.pullback", errors)
            base = _ref(spec, "of", forms, "form", f"{where}.pullback", errors)
            if product is None or base is None:
                return None
            return pullback_form(product, base, spec.get("side"))
        model = _ref(decl, "model", models, "model", where, errors)
        degree = _field(decl, "degree", int, where, errors, 1, minimum=0)
        coeffs = decl.get("coefficients")
        if model is None:
            return None
        if isinstance(coeffs, list):
            return FormField(model, degree, coeffs)
        if isinstance(coeffs, dict):
            entries = {}
            for key, value in coeffs.items():
                idx = tuple(int(s) for s in str(key).split(","))
                entries[idx if len(idx) > 1 else idx[0]] = value
            return form_from_expressions(model, degree, entries)
        errors.append(f"{where}: coefficients must be a list or an index-keyed object")
        return None
    except ex.ParseError as err:
        errors.append(f"{where}: expression error: {err}")
        return None
    except ValueError as err:
        errors.append(f"{where}: {err}")
        return None


def _build_family(name, decl, forms, errors) -> DeformationFamily | None:
    where = f"families.{name}"
    if not isinstance(decl, dict):
        errors.append(f"{where}: declaration must be an object")
        return None
    refs = [_ref(decl, key, forms, "form", where, errors) for key in ("alpha0", "beta0", "alpha", "beta")]
    if None in refs:
        return None
    pair = _pair_type(decl, where, refs[0].model, errors)
    if pair is None:
        return None
    try:
        return DeformationFamily(*refs, *pair)
    except ValueError as err:
        errors.append(f"{where}: {err}")
        return None


def _validate_task(i, decl, cfg: RunConfig, errors) -> TaskSpec | None:
    """Check one task against its row of TASKS and resolve the declared
    objects it references.  A builtin example is checked by its registry kind
    only; it is not built here."""
    where = f"tasks[{i}]"
    if not isinstance(decl, dict) or "task" not in decl:
        errors.append(f"{where}: each task needs a 'task' field")
        return None
    kind = decl["task"]
    if not isinstance(kind, str) or kind not in TASKS:
        errors.append(f"{where}: unknown task {kind!r} (known: {', '.join(TASKS)})")
        return None
    refs, example_kinds = TASKS[kind]
    params = dict(decl)
    found = len(errors)
    if "t_grid" in params:
        errors.extend(t_grid_errors(params["t_grid"], f"{where}.t_grid"))
    _field(params, "out", str, where, errors)
    example = params.get("example")
    info = {e.name: e for e in list_examples()}.get(example) if isinstance(example, str) else None
    # a jacobi task on declared forms or a contact-form example has one side
    two_sided = kind == "jacobi" and info is not None and info.kind != "contact-form"
    if "resolution" in params and kind != "jacobi":
        errors.append(f"{where}.resolution: only a jacobi task has a grid resolution")
    else:
        _field(params, "resolution", int, where, errors, minimum=4)
    if "side" in params and not two_sided:
        errors.append(f"{where}.side: only a jacobi task on a pair or family example has a side")
    elif params.get("side", "alpha") not in ("alpha", "beta"):
        errors.append(f"{where}.side: must be 'alpha' or 'beta', got {params['side']!r}")

    objects = {}
    if example is not None:
        if info is None:
            errors.append(f"{where}.example: unknown example {example!r}")
        elif info.kind not in example_kinds:
            errors.append(
                f"{where}.example: {kind} needs a {' or '.join(example_kinds)} example, "
                f"{example!r} is a {info.kind}"
            )
        elif kind == "single-deform" and not isinstance(params.get("alpha0_coefficients"), list):
            errors.append(f"{where}.alpha0_coefficients: single-deform on an example needs a list of coefficients")
    else:
        for key in refs:
            if key == "family":
                objects[key] = _ref(params, key, cfg.families, "family", where, errors)
            elif key != "type":
                form = objects[key] = _ref(params, key, cfg.forms, "form", where, errors)
                if form is not None and form.degree != 1:
                    errors.append(f"{where}.{key}: {params[key]!r} is a {form.degree}-form, not a 1-form")
        if len({f.model for key, f in objects.items() if key != "family" and f}) > 1:
            errors.append(f"{where}: the forms it references live on different models")
        if "type" in refs and len(errors) == found:
            pair = _pair_type(params, where, objects["alpha"].model, errors)
            if pair is not None:
                objects["k"], objects["l"] = pair
    if kind == "jacobi" and len(errors) == found:
        resolution = params.get("resolution", JACOBI_RESOLUTION["pair" if two_sided else "contact-form"])
        if example is None:
            shape = grid_shape(objects["form"].model, resolution)
        else:  # not built: every axis of a builtin chart example is a grid axis
            shape = [resolution] * info.dimension
        points = math.prod(shape)
        if points > POINT_LIMIT:
            errors.append(
                f"{where}.resolution: a {'x'.join(map(str, shape))} grid has {points} points, "
                f"more than the limit {POINT_LIMIT}"
            )
    return TaskSpec(kind, params, objects) if len(errors) == found else None


def parse_config(raw: dict) -> RunConfig:
    """Validate a decoded configuration document, collecting every error."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        errors.append(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")

    samples = _field(raw, "samples", dict, "", errors, {})
    cfg = RunConfig(
        schema_version=SCHEMA_VERSION,
        seed=_field(raw, "seed", int, "", errors, 0, minimum=0),
        tolerance=raw.get("tolerance"),
        t_grid=raw.get("t_grid"),
        random_count=_field(samples, "random_count", int, "samples", errors, 10000, minimum=1, maximum=POINT_LIMIT),
        grid_limit=_field(samples, "grid_limit", int, "samples", errors, 50000, minimum=0, maximum=POINT_LIMIT),
    )
    if cfg.tolerance is not None:
        problem = tolerance_error(cfg.tolerance, "tolerance")
        if problem:
            errors.append(problem)
            cfg.tolerance = None
    if cfg.t_grid is not None:
        problems = t_grid_errors(cfg.t_grid, "t_grid")
        errors.extend(problems)
        cfg.t_grid = None if problems else [float(t) for t in cfg.t_grid]

    for name, decl in _field(raw, "models", dict, "", errors, {}).items():
        model = _build_model(name, decl, cfg.models, errors)
        if model is not None:
            cfg.models[name] = model
    for name, decl in _field(raw, "forms", dict, "", errors, {}).items():
        form = _build_form(name, decl, cfg.models, cfg.forms, errors)
        if form is not None:
            cfg.forms[name] = form
    for name, decl in _field(raw, "families", dict, "", errors, {}).items():
        fam = _build_family(name, decl, cfg.forms, errors)
        if fam is not None:
            cfg.families[name] = fam

    for i, decl in enumerate(_field(raw, "tasks", list, "", errors, [])):
        spec = _validate_task(i, decl, cfg, errors)
        if spec is not None:
            cfg.tasks.append(spec)

    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError([f"cannot read {path}: {err}"])
    except ValueError as err:  # malformed JSON or text that is not UTF-8
        raise ConfigError([f"JSON parse error in {path}: {err}"])
    return parse_config(raw)
