import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "replay.py")
_spec = importlib.util.spec_from_file_location("replay", _PATH)
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


def report_text(verdict: str, residual: float) -> str:
    """A recorded report: sorted-key JSON without its timestamp line."""
    report = {
        "command": "check-marginal",
        "results": {"certificate": {"verdict": verdict, "rho_hat": [[[0.5, 0.0]]]}},
        "summary": {"linear_residual": residual, "pass": verdict == "marginal"},
        "timestamp": "2026-01-01T00:00:00+00:00",
    }
    return replay.without_timestamp(json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_run(root, verdict="marginal", residual=1e-16, exit_code=0,
              csv_row="check-marginal,1e-16,True"):
    os.makedirs(root / "artifacts", exist_ok=True)
    (root / "check.stdout").write_text(report_text(verdict, residual))
    (root / "check.stderr").write_text("")
    (root / "check.exit").write_text(f"{exit_code}\n")
    (root / "artifacts" / "check.out").write_text(report_text(verdict, residual))
    (root / "suite.stdout").write_text(f"command,summary.residual,summary.pass\n{csv_row}\n")


def compare(tmp_path, capsys):
    code = replay.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")])
    return code, capsys.readouterr().out


def test_identical_directories_pass(tmp_path, capsys):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b")
    code, out = compare(tmp_path, capsys)
    assert code == 0
    assert out.startswith("0 difference(s)")


def test_float_moved_by_1e_15_passes(tmp_path, capsys):
    write_run(tmp_path / "a", residual=0.25)
    write_run(tmp_path / "b", residual=0.25 + 1e-15,
              csv_row="check-marginal,1.000000000000001e-16,True")
    assert (tmp_path / "a" / "check.stdout").read_text() != \
        (tmp_path / "b" / "check.stdout").read_text()
    code, _ = compare(tmp_path, capsys)
    assert code == 0


def test_float_moved_beyond_tolerance_fails(tmp_path, capsys):
    write_run(tmp_path / "a", residual=0.25)
    write_run(tmp_path / "b", residual=0.25 + 1e-9)
    code, out = compare(tmp_path, capsys)
    assert code == 1
    assert "check.stdout.summary.linear_residual" in out


def test_changed_verdict_fails_and_names_every_path(tmp_path, capsys):
    write_run(tmp_path / "a", verdict="marginal")
    write_run(tmp_path / "b", verdict="inconclusive")
    code, out = compare(tmp_path, capsys)
    assert code == 1
    assert "check.stdout.results.certificate.verdict" in out
    assert "check.stdout.summary.pass" in out
    assert os.path.join("artifacts", "check.out") + ".results.certificate.verdict" in out


@pytest.mark.parametrize("change", [
    {"exit_code": 3},
    {"csv_row": "check-marginal,1e-16,False"},
])
def test_exit_code_and_csv_cells_compare_exactly(tmp_path, capsys, change):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b", **change)
    code, _ = compare(tmp_path, capsys)
    assert code == 1


def test_stderr_compares_byte_for_byte(tmp_path, capsys):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b")
    (tmp_path / "b" / "check.stderr").write_text("error: 1e-16\n")
    code, out = compare(tmp_path, capsys)
    assert code == 1
    assert "check.stderr" in out


def test_file_on_one_side_only_fails(tmp_path, capsys):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b")
    (tmp_path / "b" / "extra.stdout").write_text("{}\n")
    code, out = compare(tmp_path, capsys)
    assert code == 1
    assert "extra.stdout: present on one side only" in out
