"""Run configuration: a single JSON document declaring models, forms,
families, and the tasks to execute.

Validation is whole-file: every error is collected and reported together,
with parse positions for malformed expressions.  The schema is documented in
the repository README and versioned through ``schema_version``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expressions as ex
from .deformation import DeformationFamily
from .fields import FormField, form_from_expressions, pullback_form
from .models import ChartModel, LieGroupModel, Model, ProductModel, box_axis, periodic_axis, torus, heisenberg3
from .registry import example_names

__all__ = ["ConfigError", "TaskSpec", "RunConfig", "load_config", "parse_config", "tolerance_error"]

SCHEMA_VERSION = 1

TASK_KINDS = (
    "classify",
    "verify-pair",
    "deform-forward",
    "deform-converse",
    "single-deform",
    "jacobi",
    "sweep",
)


class ConfigError(ValueError):
    """All validation problems of a configuration, collected."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass
class TaskSpec:
    task: str
    params: dict


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
    source: dict = dc_field(default_factory=dict)


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def tolerance_error(value, where: str) -> str | None:
    """The validation message for a tolerance that is not a finite number > 0."""
    ok = _finite_number(value) and value > 0
    return None if ok else f"{where}: must be a finite number > 0, got {value!r}"


def t_grid_errors(grid, where: str) -> list[str]:
    """The validation messages for a t grid that is not a list of finite numbers."""
    if not isinstance(grid, list):
        return [f"{where}: must be a list of finite numbers, got {grid!r}"]
    return [
        f"{where}[{i}]: must be a finite number, got {t!r}"
        for i, t in enumerate(grid)
        if not _finite_number(t)
    ]


def _build_builtin_model(name: str, errors, where: str) -> Model | None:
    if name == "heisenberg3":
        return heisenberg3()
    if name.startswith("torus"):
        try:
            dim = int(name[len("torus"):])
            return torus(dim)
        except ValueError:
            pass
    errors.append(f"{where}: unknown builtin model {name!r}")
    return None


def _build_model(name, decl, models, errors) -> Model | None:
    where = f"models.{name}"
    if not isinstance(decl, dict):
        errors.append(f"{where}: declaration must be an object")
        return None
    kind = decl.get("kind")
    if kind == "builtin":
        return _build_builtin_model(decl.get("name", ""), errors, where)
    if kind == "lie":
        try:
            return LieGroupModel(np.asarray(decl["structure"], dtype=float), name=name)
        except (KeyError, ValueError, TypeError) as err:
            errors.append(f"{where}: {err}")
            return None
    if kind == "chart":
        axes = []
        for i, a in enumerate(decl.get("axes", [])):
            try:
                res = int(a.get("resolution", 32))
                if a.get("periodic"):
                    axes.append(periodic_axis(res))
                else:
                    axes.append(box_axis(float(a["lo"]), float(a["hi"]), res))
            except (KeyError, ValueError, TypeError) as err:
                errors.append(f"{where}.axes[{i}]: {err}")
                return None
        if not axes:
            errors.append(f"{where}: chart model needs at least one axis")
            return None
        try:
            return ChartModel(axes, name=name)
        except ValueError as err:
            errors.append(f"{where}: {err}")
            return None
    if kind == "product":
        left = models.get(decl.get("left"))
        right = models.get(decl.get("right"))
        if left is None or right is None:
            errors.append(f"{where}: unresolved factor reference "
                          f"({decl.get('left')!r}, {decl.get('right')!r})")
            return None
        return ProductModel(left, right, name=name)
    errors.append(f"{where}: unknown model kind {kind!r}")
    return None


def _build_form(name, decl, models, forms, errors) -> FormField | None:
    where = f"forms.{name}"
    if not isinstance(decl, dict):
        errors.append(f"{where}: declaration must be an object")
        return None
    if "pullback" in decl:
        spec = decl["pullback"]
        product = models.get(spec.get("product"))
        base = forms.get(spec.get("of"))
        side = spec.get("side")
        if product is None or base is None:
            errors.append(f"{where}: unresolved pullback reference")
            return None
        try:
            return pullback_form(product, base, side)
        except ValueError as err:
            errors.append(f"{where}: {err}")
            return None
    model = models.get(decl.get("model"))
    if model is None:
        errors.append(f"{where}: unresolved model reference {decl.get('model')!r}")
        return None
    degree = decl.get("degree", 1)
    coeffs = decl.get("coefficients")
    try:
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


def _build_family(name, decl, models, forms, errors) -> DeformationFamily | None:
    where = f"families.{name}"
    refs = {}
    for key in ("alpha0", "beta0", "alpha", "beta"):
        f = forms.get(decl.get(key))
        if f is None:
            errors.append(f"{where}: unresolved form reference {key}={decl.get(key)!r}")
            return None
        refs[key] = f
    ktype = decl.get("type")
    if not (isinstance(ktype, list) and len(ktype) == 2):
        errors.append(f"{where}: 'type' must be [k, l]")
        return None
    k, l = int(ktype[0]), int(ktype[1])
    model = refs["alpha0"].model
    if model.n != 2 * k + 2 * l + 2:
        errors.append(
            f"{where}: type ({k},{l}) needs dimension {2 * k + 2 * l + 2}, model has {model.n}"
        )
        return None
    try:
        return DeformationFamily(refs["alpha0"], refs["beta0"], refs["alpha"], refs["beta"], k, l)
    except ValueError as err:
        errors.append(f"{where}: {err}")
        return None


def _validate_task(i, decl, cfg: RunConfig, errors) -> TaskSpec | None:
    where = f"tasks[{i}]"
    if not isinstance(decl, dict) or "task" not in decl:
        errors.append(f"{where}: each task needs a 'task' field")
        return None
    kind = decl["task"]
    if kind not in TASK_KINDS:
        errors.append(f"{where}: unknown task {kind!r} (known: {', '.join(TASK_KINDS)})")
        return None
    params = dict(decl)
    if "t_grid" in params:
        problems = t_grid_errors(params["t_grid"], f"{where}.t_grid")
        if problems:
            errors.extend(problems)
            return None
    example = params.get("example")
    if example is not None and example not in example_names():
        errors.append(f"{where}: unknown example {example!r}")
        return None
    if example is None:
        # resolve references against declared objects
        if kind == "classify" and params.get("form") not in cfg.forms:
            errors.append(f"{where}: unresolved form reference {params.get('form')!r}")
            return None
        if kind == "verify-pair":
            for key in ("alpha", "beta"):
                if params.get(key) not in cfg.forms:
                    errors.append(f"{where}: unresolved form reference {params.get(key)!r}")
                    return None
            ktype = params.get("type")
            if not (isinstance(ktype, list) and len(ktype) == 2):
                errors.append(f"{where}: 'type' must be [k, l]")
                return None
            k, l = int(ktype[0]), int(ktype[1])
            model = cfg.forms[params["alpha"]].model
            if model.n != 2 * k + 2 * l + 2:
                errors.append(
                    f"{where}: type ({k},{l}) needs dimension {2 * k + 2 * l + 2}, "
                    f"model has {model.n}"
                )
                return None
        if kind in ("deform-forward", "deform-converse", "sweep") and params.get("family") not in cfg.families:
            errors.append(f"{where}: unresolved family reference {params.get('family')!r}")
            return None
        if kind == "single-deform":
            for key in ("alpha", "alpha0"):
                if params.get(key) not in cfg.forms:
                    errors.append(f"{where}: unresolved form reference {params.get(key)!r}")
                    return None
        if kind == "jacobi" and params.get("form") not in cfg.forms:
            errors.append(f"{where}: unresolved form reference {params.get('form')!r}")
            return None
    return TaskSpec(kind, params)


def parse_config(raw: dict) -> RunConfig:
    """Validate a decoded configuration document, collecting every error."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        errors.append(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")

    cfg = RunConfig(
        schema_version=SCHEMA_VERSION,
        seed=int(raw.get("seed", 0)),
        tolerance=raw.get("tolerance"),
        t_grid=raw.get("t_grid"),
        random_count=int(raw.get("samples", {}).get("random_count", 10000)),
        grid_limit=int(raw.get("samples", {}).get("grid_limit", 50000)),
        source=raw,
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

    for name, decl in raw.get("models", {}).items():
        model = _build_model(name, decl, cfg.models, errors)
        if model is not None:
            cfg.models[name] = model
    for name, decl in raw.get("forms", {}).items():
        form = _build_form(name, decl, cfg.models, cfg.forms, errors)
        if form is not None:
            cfg.forms[name] = form
    for name, decl in raw.get("families", {}).items():
        fam = _build_family(name, decl, cfg.models, cfg.forms, errors)
        if fam is not None:
            cfg.families[name] = fam

    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list):
        errors.append("tasks must be a list")
        tasks = []
    for i, decl in enumerate(tasks):
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
    except json.JSONDecodeError as err:
        raise ConfigError([f"JSON parse error in {path}: {err}"])
    return parse_config(raw)
