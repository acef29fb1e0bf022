"""Verdict-latency benchmark for contactpairs.

Usage (from the repository root):

    python3 perfbench/run.py --workload torus-pair --seed 3 --seconds 24 --trace 0

One client in one process runs a closed loop: each verdict is an in-process
``contactpairs.cli.main([..., "--format", "structured", "--seed", SEED])``
call with stdout captured, sent only after the previous one returned, so
argparse, config and example building, the runner, the numeric layers and
report rendering are all timed.  The workload seed reaches the program only
through ``--seed``.  ``--seconds`` sets a fixed number of passes over the
workload's verdicts (see ``workloads.py``).  No threads are added beyond the
BLAS default.

The host's speed drifts with its other tenants' load, so every time reported
is scaled to nominal host speed by the probes of ``hostspeed.py``, taken
between verdicts; the unscaled figures and the run's median slowdown are
printed beside them.  ``verdicts_per_s`` is the verdict count over the sum
of the scaled verdict times, so the probes' own time is not counted.
``verdict_s.p50`` is the high median (with an even count, the upper of the
two middle values), so that it is always one verdict's time and never the
mean of the slowest of one kind of verdict and the fastest of the next.

Each run first makes one untimed pass at the reference seed 7, which warms
caches, checks the pinned outcomes at a seed other than the workload seed, and
compares each report body (``strip_timing``) with the digest recorded in
``bodies.json``; differing bodies are counted as ``reporting.report_drift``,
for information.  A verdict whose exit code or task statuses differ from the
pinned ones, or that raises, is failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
passes (rounded up) untraced, then as many traced (see ``tracer.py``), and
prints the per-layer metrics, with ``trace.overhead_frac``: the traced
verdicts' scaled time over the untraced ones', minus 1.  The spans are written to
``perfbench/out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import WINDOW, HostProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEED = 7
SETUP_REPEATS = 5
TAIL_BEYOND = 10
BODIES = HERE / "bodies.json"
OUT_DIR = HERE / "out"

END_TO_END = {
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "verdicts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def check_tree(workload) -> list[str]:
    """Paths the workload needs that this checkout lacks."""
    needed = [ROOT / "src" / "contactpairs" / "cli.py", BODIES]
    needed += [ROOT / path for path in workload.configs()]
    return [str(p) for p in needed if not p.is_file()]


# -- environment ---------------------------------------------------------------

def _blas_threads() -> str:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return str(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, blas {blas_text}, "
        f"nproc {len(os.sched_getaffinity(0))}, blas threads {_blas_threads()}"
    )


# -- verdicts ------------------------------------------------------------------

class Outcome:
    """One verdict as run: when it started, its wall time and whether it matched its pin."""

    __slots__ = ("verdict", "started", "seconds", "body", "ok")

    def __init__(self, verdict, started, seconds, code, body):
        self.verdict = verdict
        self.started = started
        self.seconds = seconds
        self.body = body
        self.ok = False
        if code == verdict.exit_code and body is not None:
            try:
                statuses = tuple(t["status"] for t in json.loads(body)["tasks"])
            except (ValueError, KeyError, TypeError):
                return
            self.ok = statuses == verdict.statuses


def run_verdict(cli, verdict, seed) -> Outcome:
    argv = list(verdict.argv) + ["--format", "structured", "--seed", str(seed)]
    buf = io.StringIO()
    code, body = None, None
    with contextlib.redirect_stdout(buf):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as err:  # a verdict that raises is a failed verdict
            sys.stderr.write(f"verdict {verdict.label!r} raised {err!r}\n")
        seconds = time.perf_counter() - started
    if code is not None:
        body = buf.getvalue()
    return Outcome(verdict, started, seconds, code, body)


def run_passes(cli, workload, seed, passes, probe=None, tracer=None) -> list[Outcome]:
    """Closed loop over ``passes`` passes, probing the host between verdicts."""
    outcomes = []
    for p in range(passes):
        for i, verdict in enumerate(workload.verdicts):
            if probe is not None:
                probe.sample()
            if tracer is not None:
                tracer.begin_verdict(p * len(workload.verdicts) + i)
            outcomes.append(run_verdict(cli, verdict, seed))
    if probe is not None:
        probe.sample(force=True)
    return outcomes


def scaled_seconds(probe, outcomes) -> list[float]:
    return [probe.scaled(o.started, o.seconds) for o in outcomes]


def body_digest(reporting, body: str) -> str:
    canonical = reporting.render_structured(reporting.strip_timing(json.loads(body)))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_drift(reporting, workload, outcomes) -> int:
    recorded = json.loads(BODIES.read_text(encoding="utf-8"))["sha256"][workload.name]
    return sum(
        1 for o in outcomes
        if o.body is None or recorded.get(o.verdict.label) != body_digest(reporting, o.body)
    )


def setup_seconds(workload, probe) -> list[tuple[float, float]]:
    """Set-up time of ``SETUP_REPEATS`` fresh processes, as (started, seconds)."""
    # Several probes per gap: the first after a subprocess finds cold caches.
    out = []
    for _ in range(SETUP_REPEATS):
        for _ in range(WINDOW):
            probe.sample(force=True)
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append((started, float(done.stdout.strip().splitlines()[-1])))
    for _ in range(WINDOW):
        probe.sample(force=True)
    return out


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with ``TAIL_BEYOND`` values beyond it: (value, percentile, beyond)."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    beyond = len(ordered) - 1 - index
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


# -- output --------------------------------------------------------------------

def emit(lines, name, value, unit, note=""):
    lines.append(f"{name} {value!r} {unit}" + (f" ({note})" if note else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = check_tree(workload)
    if missing:
        sys.stderr.write("perfbench: this checkout lacks " + ", ".join(missing) + "\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from contactpairs import cli, reporting

    passes = math.ceil(args.seconds / workload.pass_seconds)
    lines = [
        f"# workload {workload.name}: seed {args.seed}, {len(workload.verdicts)} verdicts per pass, "
        "closed loop, one client, one process",
        f"# env: {environment()}",
    ]
    probe = HostProbe()
    setups = setup_seconds(workload, probe)
    checked = run_passes(cli, workload, REFERENCE_SEED, 1)
    drift = report_drift(reporting, workload, checked)

    e2e, layers = {}, {}
    if args.trace == 0:
        timed = run_passes(cli, workload, args.seed, passes, probe)
        times = scaled_seconds(probe, timed)
        raw = [o.seconds for o in timed]
        value, pct, beyond = tail(times)
        e2e["verdict_s.p50"] = (
            statistics.median_high(times),
            f"high median of {len(times)} verdicts; unscaled {statistics.median_high(raw)!r} s",
        )
        e2e["verdict_s.tail"] = (
            value, f"p{pct:.1f}, {beyond} of {len(times)} verdicts beyond; unscaled {tail(raw)[0]!r} s",
        )
        e2e["verdicts_per_s"] = (
            len(times) / sum(times),
            f"{passes} passes; unscaled {len(raw) / sum(raw)!r} 1/s",
        )
        setup_scaled = [probe.scaled(started, s) for started, s in setups]
        e2e["setup_s"] = (
            statistics.median(setup_scaled),
            f"median of {len(setups)} fresh processes; unscaled {statistics.median(s for _, s in setups)!r} s",
        )
        e2e["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ru_maxrss, including the host probe's 16 MB",
        )
    else:
        from tracer import Tracer

        half = math.ceil(passes / 2)
        plain = run_passes(cli, workload, args.seed, half, probe)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(cli, workload, args.seed, half, probe, tracer)
        finally:
            tracer.uninstall()
        timed = plain + traced
        layers = tracer.summary(half)
        layers["trace.overhead_frac"] = (
            sum(scaled_seconds(probe, traced)) / sum(scaled_seconds(probe, plain)) - 1.0, "ratio",
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        self_total = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
        lines.append(
            f"# traced {half} passes ({len(tracer.spans)} spans, {spans_path.relative_to(ROOT)}); "
            f"self times {self_total!r} s + bookkeeping {layers['trace.bookkeeping_s'][0]!r} s "
            f"= verdict wall {layers['trace.verdict_wall_s'][0]!r} s per pass"
        )
        if tracer.missing:
            lines.append("# layers not found in the program: " + ", ".join(tracer.missing))

    slowdown = statistics.median(probe.slowdowns)
    lines.append(
        f"# host slowdown: median {slowdown!r} over {len(probe.slowdowns)} probes "
        f"(min {min(probe.slowdowns)!r}, max {max(probe.slowdowns)!r}); 1.0 is nominal speed"
    )
    outcomes = checked + timed
    failed = sum(1 for o in outcomes if not o.ok)
    for name, (value, note) in e2e.items():
        emit(lines, name, value, END_TO_END[name], note)
    emit(lines, "failed_frac", failed / len(outcomes), "ratio",
         f"{failed} of {len(outcomes)} verdicts, {len(checked)} of them at seed {REFERENCE_SEED}")
    emit(lines, "reporting.report_drift", drift, "count",
         f"of {len(checked)} report bodies at seed {REFERENCE_SEED}, information only")
    for name, (value, unit) in layers.items():
        emit(lines, name, value, unit)
    for o in outcomes:
        if not o.ok:
            lines.append(f"# FAILED: {o.verdict.label}")

    if args.trace == 0:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in e2e.items()}
    else:
        layers["reporting.report_drift"] = (drift, "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()
                   if not k.endswith(".self_s")}
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
