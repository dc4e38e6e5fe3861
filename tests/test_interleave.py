import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "interleave.py")


@pytest.mark.parametrize("workload", ["certify-mix", "extension-mix"])
def test_the_same_tree_on_both_sides_fails_no_op(workload):
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--workload", workload, "--seconds", "0.5",
         "--seed", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])["runs"][0]
    assert result["seed"] == 3
    assert result["attempted"] >= 100
    assert result["failed"] == {"a": 0, "b": 0}
    for side in ("a", "b"):
        assert result[side]["ops_per_s"] > 0
        assert set(result[side]["kinds"]) == set(result["a"]["kinds"])


def test_each_seed_is_one_run_and_the_wins_of_b_are_counted():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--workload", "extension-mix", "--seconds", "0.3",
         "--seed", "5", "3", "8"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert (result["workload"], result["seconds"]) == ("extension-mix", 0.3)
    runs = result["runs"]
    assert [r["seed"] for r in runs] == [5, 3, 8]
    assert all(r["attempted"] > 0 and r["failed"] == {"a": 0, "b": 0} for r in runs)
    won = sum(r["b"]["ops_per_s"] > r["a"]["ops_per_s"] for r in runs)
    assert result["b_won"] == won
    assert lines[-2] == f"b beat a on ops_per_s for {won} of 3 seeds"
    assert [line.split(":")[0] for line in lines if line.startswith("extension-mix, seed")] == [
        "extension-mix, seed 5", "extension-mix, seed 3", "extension-mix, seed 8"]


@pytest.mark.parametrize("seeds", [[], ["3", "-1"]], ids=["none", "negative"])
def test_a_missing_or_negative_seed_is_refused(seeds):
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--workload", "certify-mix", "--seconds", "1",
         "--seed", *seeds],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "--seed" in proc.stderr


def test_a_tree_without_the_package_is_refused(tmp_path):
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, str(tmp_path), "--workload", "certify-mix",
         "--seconds", "1", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "no gleason_lab package" in proc.stderr
