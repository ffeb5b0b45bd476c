"""Tiny-scale runs of every workload, traced and untraced.

Each run must end with the result line, report every metric of
``BENCHMARK.json`` with its unit, and pass its own output checks.
Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str, timeout: float = 170.0):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace),
                "--profile", "tiny")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-3000:]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {item["name"]: item["unit"] for item in listed}
    assert {name: value["unit"] for name, value in
            result["metrics"].items()} == expected
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if not trace:
        for name in expected:
            assert result["metrics"][name]["value"] > 0, name
    elif workload == "reproduce-warm":
        assert result["metrics"]["workloads.generate_s"]["value"] == 0
        assert result["metrics"]["filter.calls"]["value"] == 0
    elif workload == "matrix-store":
        assert result["metrics"]["filter.redundancy"]["value"] == 20


def test_fails_without_the_program(tmp_path):
    """Without ``src/`` the benchmark exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0",
                timeout=60.0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
