"""Task orchestration: execute a validated configuration and assemble the
machine-readable run report.

Exit codes: 0 all verdicts pass, 1 some verdict falsified or not applicable,
2 input error, 3 numerically inconclusive (every failure sits within a factor
10 of its tolerance).
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import __version__
from . import expressions as ex
from .config import JACOBI_RESOLUTION, RunConfig
from .contact import (
    ContactPairError,
    cartan_class,
    verify_contact_pair,
    verify_single_deformation,
)
from .deformation import sweep_rows, verify_converse, verify_forward
from .fields import FormField
from .jacobi import JacobiError, JacobiSide, _identity_defect
from .models import sample_points
from .registry import build_example
from .reporting import SWEEP_COLUMNS, write_sweep_csv

__all__ = ["run", "exit_code_for"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _points_for(cfg: RunConfig, model, rng):
    return sample_points(model, rng, random_count=cfg.random_count, grid_limit=cfg.grid_limit)


def _witnessed(err: ContactPairError) -> dict:
    return {"condition": err.condition, "message": str(err), **err.witness}


def _verdict_status(verdict) -> str:
    overall = verdict.overall
    if overall == "pass":
        return "pass"
    failed = [
        i
        for i in verdict.hypotheses + verdict.conclusions
        if i.passed is False
    ]
    if overall == "falsified" and failed and all(
        i.defect is not None and i.threshold and i.defect < 10.0 * i.threshold for i in failed
    ):
        return "inconclusive"
    return "not-applicable" if overall == "not applicable" else "fail"


def _task_classify(cfg, params, objs, rng, out_path):
    alpha = objs.get("form") or objs["alpha"]
    pts = _points_for(cfg, alpha.model, rng)
    try:
        report = cartan_class(alpha, tol=cfg.tolerance, points=pts)
    except ContactPairError as err:
        return "fail", {"error": _witnessed(err)}
    data = {
        "k": report.k,
        "class": None if report.k is None else 2 * report.k + 1,
        "constant": report.constant,
        "min_nonvanishing": report.min_nonvanishing,
        "max_residual": report.max_residual,
        "tolerance": report.tol,
        "samples": int(pts.shape[0]),
    }
    if not report.constant:
        data["witnesses"] = report.witnesses
        return "fail", data
    return "pass", data


def _task_verify_pair(cfg, params, objs, rng, out_path):
    alpha, beta = objs["alpha"], objs["beta"]
    k, l = objs["k"], objs["l"]
    pts = _points_for(cfg, alpha.model, rng)
    try:
        cert = verify_contact_pair(alpha, beta, k, l, tol=cfg.tolerance, points=pts)
    except ContactPairError as err:
        status = "inconclusive" if err.marginal else "fail"
        return status, {"error": _witnessed(err)}
    return "pass", {
        "type": [cert.k, cert.l],
        "min_volume": cert.min_volume,
        "orientation_sign": cert.orientation_sign,
        "dalpha_power_residual": cert.dalpha_power_residual,
        "dbeta_power_residual": cert.dbeta_power_residual,
        "reeb_residual": cert.reeb_residual,
        "sigma_min": cert.sigma_min,
        "commutator_defect": cert.commutator_defect,
        "samples": cert.sample_count,
        "tolerance": cert.tol,
    }


def _task_deform(cfg, params, objs, rng, out_path):
    family = objs["family"]
    pts = _points_for(cfg, family.model, rng)
    t_grid = params.get("t_grid", cfg.t_grid)
    verify = verify_forward if params["task"] == "deform-forward" else verify_converse
    verdict = verify(family, t_grid=t_grid, tol=cfg.tolerance, points=pts)
    return _verdict_status(verdict), verdict.to_dict()


def _task_single_deform(cfg, params, objs, rng, out_path):
    alpha = objs["alpha"]
    alpha0 = objs.get("alpha0") or FormField(alpha.model, 1, params["alpha0_coefficients"])
    pts = _points_for(cfg, alpha.model, rng)
    t_grid = params.get("t_grid", cfg.t_grid)
    report = verify_single_deformation(alpha0, alpha, t_grid=t_grid, tol=cfg.tolerance, points=pts)
    data = {
        "condition_i": report.condition_i,
        "condition_ii": report.condition_ii,
        "agreement": report.agreement,
        "class_k": report.class_k,
        "pairing_defect": report.pairing_defect,
        "per_t": report.per_t,
        "witness": report.witness,
    }
    status = "pass" if (report.condition_i and report.condition_ii) else "fail"
    return status, data


def _task_jacobi(cfg, params, objs, rng, out_path):
    """A grid value that overflows fails the task with its witness; other
    Jacobi errors are input errors."""
    try:
        return _jacobi_verdict(cfg, params, objs)
    except JacobiError as err:
        if err.condition != "non-finite":
            raise
        return "fail", {"error": _witnessed(err)}


def _jacobi_verdict(cfg, params, objs):
    tol = cfg.tolerance
    if "beta" in objs:
        resolution = params.get("resolution", JACOBI_RESOLUTION["pair"])
        side = JacobiSide.from_pair(
            objs["alpha"], objs["beta"], objs["k"], objs["l"],
            side=params.get("side", "alpha"), resolution=resolution, tol=tol,
        )
    else:
        resolution = params.get("resolution", JACOBI_RESOLUTION["contact-form"])
        alpha = objs.get("form") or objs["alpha"]
        side = JacobiSide.from_contact_form(alpha, resolution=resolution, tol=tol)
    n = side.model.n
    c = list(side.model.coordinate_axes)
    f = ex.parse(f"sin(x{c[1 % len(c)]})*cos(x{c[2 % len(c)]})", n)
    g = ex.parse(f"sin(x{c[2 % len(c)]})", n)
    h = ex.parse(f"cos(x{c[1 % len(c)]})", n)

    # each function's Hamiltonian field is solved once
    x1, xf, xg, xh = (side.solve_hamiltonian(u) for u in (ex.const(1.0), f, g, h))
    reeb_defect = float(np.max(np.abs(x1 - side.e_values)))
    anti = float(np.max(np.abs(side.bracket_values(xf, xg) + side.bracket_values(xg, xf))))
    _, _, eg = side.scalar_data(g)
    one_defect = float(np.max(np.abs(side.bracket_values(x1, xg) - eg)[side.interior_mask]))
    identity_defect = _identity_defect(xf, xg, xh, side)
    h_sq = max(s * s for s in side.steps)
    data = {
        "leaf_dimension": side.leaf_dim,
        "grid": list(side.grid_shape),
        "reeb_as_hamiltonian_defect": reeb_defect,
        "bracket_antisymmetry_defect": anti,
        "constant_bracket_defect": one_defect,
        "jacobi_identity_defect": identity_defect,
        "grid_step_squared": h_sq,
    }
    ok = (
        reeb_defect < side.tol
        and anti < 1e-12
        and one_defect < 20.0 * h_sq
        and identity_defect < 20.0 * h_sq
    )
    return ("pass" if ok else "fail"), data


def _task_sweep(cfg, params, objs, rng, out_path):
    family = objs["family"]
    t_grid = params.get("t_grid", cfg.t_grid)
    if t_grid is None:
        t_grid = [0.01, 0.1, 1.0, 10.0]
    pts = _points_for(cfg, family.model, rng)
    rows = sweep_rows(family, t_grid, points=pts)
    for row in rows:  # a non-finite entry shows nothing: null in the report, empty in the CSV
        row.update({c: None for c in SWEEP_COLUMNS if not math.isfinite(row[c])})
    target = params.get("out", out_path)
    csv_text = write_sweep_csv(rows, target)
    data = {"rows": rows, "columns": list(SWEEP_COLUMNS)}
    if target is not None and not hasattr(target, "write"):
        data["csv_path"] = str(target)
    else:
        data["csv"] = csv_text
    overflowed = [row["t"] for row in rows if None in row.values()]
    if overflowed:
        data["witness"] = {"t": overflowed[0]}
        return "fail", data
    return "pass", data


# one handler per task kind of config.TASKS, all called as
# handler(cfg, params, objects, rng, out_path)
_HANDLERS = {
    "classify": _task_classify,
    "verify-pair": _task_verify_pair,
    "deform-forward": _task_deform,
    "deform-converse": _task_deform,
    "single-deform": _task_single_deform,
    "jacobi": _task_jacobi,
    "sweep": _task_sweep,
}


def exit_code_for(statuses) -> int:
    statuses = list(statuses)
    if any(s == "error" for s in statuses):
        return EXIT_INPUT
    if any(s in ("fail", "not-applicable") for s in statuses):
        return EXIT_FAIL
    if any(s == "inconclusive" for s in statuses):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def run(cfg: RunConfig, out_path=None) -> tuple[dict, int]:
    """Execute the configured tasks in declaration order."""
    started = time.perf_counter()
    report = {
        "schema_version": cfg.schema_version,
        "tool": "contactpairs",
        "version": __version__,
        "seed": cfg.seed,
        "tasks": [],
    }
    statuses = []
    for spec in cfg.tasks:
        rng = np.random.default_rng(cfg.seed)
        entry = {"task": spec.task}
        example = spec.params.get("example")
        if example:
            entry["example"] = example
        try:
            objs = build_example(example) if example else spec.objects
            status, data = _HANDLERS[spec.task](cfg, spec.params, objs, rng, out_path)
        except (ValueError, ex.EvaluationError) as err:
            status, data = "error", {"error": str(err)}
        entry["status"] = status
        entry["result"] = data
        report["tasks"].append(entry)
        statuses.append(status)
    report["timing"] = {"total_seconds": time.perf_counter() - started}
    return report, exit_code_for(statuses)
