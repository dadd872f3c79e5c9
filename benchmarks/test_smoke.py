"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

    python -m pytest benchmarks/test_smoke.py -q

Each run must exit 0, report exactly the metrics BENCHMARK.json names for
its mode with their units, and count no failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0  # failed_frac is 0
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "grid-tiny", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
