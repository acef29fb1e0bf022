"""Report rendering: deterministic structured (JSON) and text outputs, CSV
sweeps.  Bodies are byte-identical across runs with the same config and seed;
timing lives in its own top-level field so consumers can strip it.

The structured output is written by one recursive pass of this module
rather than by ``json.dumps``, whose ``indent`` path runs in pure Python;
its bytes are those of ``json.dumps(..., indent=2)`` with the non-finite
floats written as null."""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring_ascii

__all__ = ["render_structured", "render_text", "write_sweep_csv", "strip_timing"]

SWEEP_COLUMNS = ("t", "min_volume_coeff", "max_volume_coeff", "max_reeb_residual")


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing", None)
    return out


def render_structured(report: dict) -> str:
    """Strict JSON, indented by two spaces: a non-finite number is written
    as null, never as NaN; a key that is not a str raises TypeError."""
    out = []
    _emit(report, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(value, out: list, newline: str) -> None:
    """Append the JSON text of value to out, ``newline`` being the line
    break and indent of the value's own line, each item of a list or dict
    on a line of its own one level deeper; the checks in the order of
    ``json.encoder``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value) else "null")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _emit(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _emit(item, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
