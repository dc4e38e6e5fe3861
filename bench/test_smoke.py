"""Smoke test for the benchmark: every workload runs at a tiny size, in
both modes, and reports every metric BENCHMARK.json names with its unit
and no failed op. It never checks a timing.

    python -m pytest -q bench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("certify-mix", "extension-mix", "cli-cycle")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    detail, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and detail["failed_share"] == 0, detail["errors"]
    assert result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first_detail, first = _run(workload, 1)
    second_detail, second = _run(workload, 1)
    assert first_detail["input_digest"] == second_detail["input_digest"]
    counts = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH_DIR, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "certify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
