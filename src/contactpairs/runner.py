"""Task orchestration: execute a validated configuration and assemble the
machine-readable run report.

Exit codes: 0 all verdicts pass, 1 some verdict falsified or not applicable,
2 input error, 3 numerically inconclusive (every failure of a verify-pair,
deform or jacobi verdict is ``contact.marginal``: within
``contact.MARGINAL_FACTOR`` of the threshold it applied).
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import __version__
from . import expressions as ex
from .config import JACOBI_RESOLUTION, RunConfig
from .contact import ContactPairError, _gate, cartan_class, marginal, verify_contact_pair, verify_single_deformation
from .deformation import CONVERSE_T_GRID, sweep_rows, verify_converse, verify_forward
from .fields import FormField
from .jacobi import JacobiError, _form_side, _pair_side, _structure_checks
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


def _witnessed(err: ContactPairError | JacobiError) -> dict:
    """The failure's condition, message and witness, with the defect and the
    threshold of the gate that decided it when it has them."""
    gate = {"defect": err.defect, "threshold": err.threshold}
    return {"condition": err.condition, "message": str(err), **err.witness,
            **{key: value for key, value in gate.items() if value is not None}}


def _graded(failures, otherwise: str) -> str:
    """The status of failures given as (defect, threshold) pairs:
    inconclusive when there are some and every one is marginal, else
    ``otherwise``."""
    return "inconclusive" if failures and all(marginal(*f) for f in failures) else otherwise


def _verdict_status(verdict) -> str:
    """A failed hypothesis is graded like a failed conclusion."""
    overall = verdict.overall
    if overall == "pass":
        return "pass"
    failed = [(i.defect, i.threshold) for i in verdict.hypotheses + verdict.conclusions if i.passed is False]
    return _graded(failed, "not-applicable" if overall == "not applicable" else "fail")


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
        return _graded([(err.defect, err.threshold)], "fail"), {"error": _witnessed(err)}
    return "pass", {
        "type": [cert.k, cert.l],
        "min_volume": cert.min_volume,
        "orientation_sign": cert.orientation_sign,
        "dalpha_power_residual": cert.dalpha_power_residual,
        "dbeta_power_residual": cert.dbeta_power_residual,
        "reeb_residual": cert.reeb_residual,
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
    """The structure checks of a Jacobi side at the distinct samples of its
    grid (``jacobi._structure_checks``), each through the gate; a failed
    check is listed with its threshold and witness."""
    alpha = objs.get("form") or objs["alpha"]
    if "beta" in objs:
        resolution = params.get("resolution", JACOBI_RESOLUTION["pair"])
        side = _pair_side(alpha, objs["beta"], objs["k"], objs["l"], params.get("side", "alpha"), resolution,
                          cfg.tolerance, partials=True)
    else:
        resolution = params.get("resolution", JACOBI_RESOLUTION["contact-form"])
        side = _form_side(alpha, resolution, cfg.tolerance, partials=True)
    items = [_gate(*check) for check in _structure_checks(side)]
    data = {"leaf_dimension": side.leaf_dim, "grid": list(side.grid.shape), **{i.name: i.defect for i in items}}
    failed = [i for i in items if not i.passed]
    if failed:
        data["failures"] = [i.to_dict() for i in failed]
    return (_graded([(i.defect, i.threshold) for i in failed], "fail") if failed else "pass"), data


def _task_sweep(cfg, params, objs, rng, out_path):
    family = objs["family"]
    t_grid = params.get("t_grid", cfg.t_grid)
    if t_grid is None:
        t_grid = CONVERSE_T_GRID
    pts = _points_for(cfg, family.model, rng)
    rows = sweep_rows(family, t_grid, points=pts, tol=cfg.tolerance)
    for row in rows:  # a non-finite entry shows nothing: null in the report, empty in the CSV
        row.update({c: None for c in SWEEP_COLUMNS if not math.isfinite(row[c])})
    target = params.get("out", out_path)
    csv_text = write_sweep_csv(rows, target)
    data = {"rows": rows, "columns": list(SWEEP_COLUMNS)}
    if target is not None and not hasattr(target, "write"):
        data["csv_path"] = str(target)
    else:
        data["csv"] = csv_text
    # a null Reeb column alone is a t where the volume is 0 (the Reeb pair
    # is 0 / 0), which the sweep reports; a null volume column is an overflow
    overflowed = [row["t"] for row in rows if None in (row["min_volume_coeff"], row["max_volume_coeff"])]
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
