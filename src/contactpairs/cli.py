"""Command-line interface.

Subcommands: classify, verify-pair, deform, jacobi, sweep, examples.  Each
subcommand either builds a single task from its flags (typically against a
builtin --example) or executes the matching tasks of a --config file.
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    ConfigError,
    RunConfig,
    _validate_task,
    load_config,
    parse_config,
    t_grid_errors,
    tolerance_error,
)
from .registry import list_examples
from .reporting import render_structured, render_text
from .runner import EXIT_INPUT, run

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactpairs",
        description="Verify contact pairs, Reeb fields, and linear deformations "
        "of pairs of codimension-one foliations on concrete manifold models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_example=True):
        p.add_argument("--config", help="JSON configuration file")
        if needs_example:
            p.add_argument("--example", help="builtin example name (see 'examples')")
        p.add_argument("--seed", type=int, help="random seed for sampling")
        p.add_argument("--tol", type=float, help="tolerance override")
        p.add_argument("--t-grid", help="comma-separated deformation parameters")
        p.add_argument("--out", help="output file (report, or CSV for sweep)")
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="report format (default text; structured = JSON)",
        )

    p = sub.add_parser("classify", help="Cartan class of a 1-form")
    common(p)
    p.add_argument("--form", help="form name from the config")

    p = sub.add_parser("verify-pair", help="certify a contact pair of type (k,l)")
    common(p)

    p = sub.add_parser("deform", help="verify a linear deformation family")
    common(p)
    p.add_argument(
        "--mode", choices=("forward", "converse", "single"), default="forward",
        help="theorem direction; 'single' checks one form against one closed form",
    )
    p.add_argument("--alpha0", help="(single mode) comma-separated coefficient expressions")

    p = sub.add_parser("jacobi", help="property-test the induced Jacobi structure")
    common(p)
    p.add_argument("--resolution", type=int, help="grid resolution per axis")
    p.add_argument("--side", choices=("alpha", "beta"), help="pair side (default alpha)")

    p = sub.add_parser("sweep", help="CSV sweep of a family over the t grid")
    common(p)

    p = sub.add_parser("examples", help="list builtin examples")
    p.add_argument(
        "--format", choices=("text", "structured"), default="text", help="listing format"
    )
    return parser


_DEFORM_MODES = {"forward": "deform-forward", "converse": "deform-converse", "single": "single-deform"}

# flags that set a field of the task, by the task field they set
_TASK_FLAGS = {"form": "form", "resolution": "resolution", "side": "side", "alpha0_coefficients": "alpha0"}


def _task_for(args) -> dict:
    """The task declaration the subcommand's flags describe."""
    task = {"task": _DEFORM_MODES[args.mode] if args.command == "deform" else args.command}
    if args.example is not None:
        task["example"] = args.example
    for key, flag in _TASK_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            task[key] = [s.strip() for s in value.split(",")] if flag == "alpha0" else value
    return task


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError([f"--seed: must be an integer >= 0, got {args.seed}"])
        cfg.seed = args.seed
    if args.tol is not None:
        problem = tolerance_error(args.tol, "--tol")
        if problem:
            raise ConfigError([problem])
        cfg.tolerance = args.tol
    if args.t_grid:
        try:
            grid = [float(s) for s in args.t_grid.split(",")]
        except ValueError:
            grid = None
        if grid is None or t_grid_errors(grid, "--t-grid"):
            problem = f"--t-grid: must be comma-separated finite numbers, got {args.t_grid!r}"
            raise ConfigError([problem])
        cfg.t_grid = grid
    return cfg


def _examples_listing(fmt: str) -> str:
    rows = [
        {
            "name": e.name,
            "dimension": e.dimension,
            "kind": e.kind,
            "type": e.type_label,
            "summary": e.summary,
        }
        for e in list_examples()
    ]
    if fmt == "structured":
        return render_structured({"examples": rows})
    width = max(len(r["name"]) for r in rows)
    lines = [
        f"{r['name']:<{width}}  dim {r['dimension']}  {r['kind']:<12} {r['type']:<12} {r['summary']}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "examples":
        sys.stdout.write(_examples_listing(args.format))
        return 0

    if not (args.config or args.example):
        parser.error(f"{args.command}: provide --example or --config")
    try:
        cfg = load_config(args.config) if args.config else parse_config({})
        task = _task_for(args)
        same_kind = [t for t in cfg.tasks if t.task == task["task"]]
        if args.example or not same_kind:
            # the flags describe the task: validate it like a config task
            errors: list = []
            spec = _validate_task(0, task, cfg, errors)
            if errors:
                raise ConfigError(errors)
            cfg.tasks = [spec]
        else:
            # the config's tasks are used: a task flag beside them would be ignored
            unused = [
                f"--{flag}: not used beside the {task['task']} task of --config; set it in that task instead"
                for key, flag in _TASK_FLAGS.items() if key in task
            ]
            if unused:
                raise ConfigError(unused)
            cfg.tasks = same_kind
        cfg = _apply_overrides(cfg, args)
    except ConfigError as err:
        sys.stderr.write(str(err) + "\n")
        return EXIT_INPUT

    out_path = args.out
    sweep = args.command == "sweep"
    report, code = run(cfg, out_path=out_path if sweep else None)
    for task in report["tasks"]:
        if task["status"] == "error":
            sys.stderr.write(f"{task['task']}: {task['result']['error']}\n")
    rendered = render_text(report) if args.format == "text" else render_structured(report)
    if out_path and not sweep:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
