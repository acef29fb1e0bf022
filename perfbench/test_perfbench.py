"""Self-test of the benchmark: a minimal pass of each workload, both modes.

Run from the repository root:  python3 -m pytest perfbench -q
(The repository's own suite collects only ``tests/``.)
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_pass_prints_every_declared_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac 0.0 ratio" in "\n".join(lines)

    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[0]: line.split() for line in lines if not line.startswith("#")}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert printed[m["name"]][2] == m["unit"]

    if trace == 1:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
        bookkeeping = metrics["trace.bookkeeping_s"] / metrics["trace.verdict_wall_s"]
        assert shares + bookkeeping == pytest.approx(1.0, rel=1e-9)
        assert metrics["cli.main.calls"] == len(WORKLOADS[workload].verdicts)


def test_verdicts_are_scaled_by_the_probes_around_them():
    from hostspeed import HostProbe

    probe = HostProbe()
    probe.times = [float(t) for t in range(10)]
    probe.slowdowns = [1.0] * 5 + [2.0] * 5
    assert probe.scaled(1.5, 1.0) == 1.0
    assert probe.scaled(8.5, 1.0) == 0.5
    # at the change of speed the window holds three probes of each speed
    assert probe.slowdown_at(4.5) == 1.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    for workload in SPEC["workloads"]:
        done = _run(tmp_path, workload["name"], 0)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
