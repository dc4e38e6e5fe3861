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
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 100
    assert result["failed"] == {"a": 0, "b": 0}
    for side in ("a", "b"):
        assert result[side]["ops_per_s"] > 0
        assert set(result[side]["kinds"]) == set(result["a"]["kinds"])


def test_a_tree_without_the_package_is_refused(tmp_path):
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, str(tmp_path), "--workload", "certify-mix",
         "--seconds", "1", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "no gleason_lab package" in proc.stderr
