"""Smoke run of the benchmark at its smallest op count: one cycle.

    python3 -m pytest bench/test_smoke.py

Not collected by the repository's test suite, which only looks in tests/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402
sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_cycle(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3",
               "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0.0
    assert result["failed"] == 0
    # every probe ran once, after the timed ops, and showed its known
    # defect or passed
    record = json.loads((BENCH / "results" / f"result-{workload}-trace{trace}"
                         "-seed3.json").read_text(encoding="utf-8"))
    assert len(record["run"]["probes"]) == len(
        WORKLOAD_CLASSES[workload](3, BENCH / "work").probes())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work",
                                                  "__pycache__"))
    proc = run(tmp_path, "--workload", "route", "--seed", "3",
               "--seconds", "0", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
