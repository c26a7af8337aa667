"""Tiny-size smoke test of the benchmark: every metric named in BENCHMARK.json
is emitted with its unit and every output check passes. No timing is gated.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workdir: Path, workload: str, trace: int, seed: int = 3, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--workdir", str(workdir)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_every_check_passes(tmp_path, workload, trace):
    detail, result = result_lines(run(tmp_path, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["problems"] == [] and detail["ops_failed_ratio"] == 0.0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_tracing_changes_no_output_byte(tmp_path):
    plain, _ = result_lines(run(tmp_path / "plain", "train", 0))
    traced, _ = result_lines(run(tmp_path / "traced", "train", 1))
    assert plain["digests"] == traced["digests"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = run(tmp_path / "runs", WORKLOADS[0], 0, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
