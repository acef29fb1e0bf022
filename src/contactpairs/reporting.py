"""Report rendering: deterministic structured (JSON) and text outputs, CSV
sweeps.  Bodies are byte-identical across runs with the same config and seed;
timing lives in its own top-level field so consumers can strip it."""

from __future__ import annotations

import csv
import io
import json
import math

__all__ = ["render_structured", "render_text", "write_sweep_csv", "strip_timing"]

SWEEP_COLUMNS = ("t", "min_volume_coeff", "max_volume_coeff", "max_reeb_residual")


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing", None)
    return out


def _strict(value):
    """``value`` with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def render_structured(report: dict) -> str:
    """Strict JSON: a non-finite number is written as null, never as NaN."""
    return json.dumps(_strict(report), indent=2, sort_keys=False, allow_nan=False) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return {True: "yes", False: "no", None: "-"}[value]
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render_value(lines, key, value, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render_value(lines, k, v, indent + 1)
    elif isinstance(value, list):
        if value and all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{pad}{key}: [{', '.join(_fmt(v) for v in value)}]")
        else:
            lines.append(f"{pad}{key}:")
            for i, v in enumerate(value):
                _render_value(lines, f"[{i}]", v, indent + 1)
    else:
        lines.append(f"{pad}{key}: {_fmt(value)}")


def render_text(report: dict) -> str:
    lines = []
    for key, value in report.items():
        _render_value(lines, key, value, 0)
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows, out) -> str:
    """Write sweep rows; ``out`` is a path or file object.  Returns the CSV text."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: "" if row[k] is None else format(row[k], ".17g") for k in SWEEP_COLUMNS})
    text = buf.getvalue()
    if out is not None:
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    return text
