import contextlib
import io
import json
import math
import os
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gleason_lab.cli
from gleason_lab.cli import main
from gleason_lab.frames import (
    FrameFunction,
    axis_projector,
    axis_table,
    born_backed,
    definite_xz_table,
)
from gleason_lab.measurements import validate_pvm
from gleason_lab.operators import random_density_matrix
from gleason_lab.serialization import frame_to_json, pvm_from_json, pvm_to_json
from gleason_lab.tolerances import TOL


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


@pytest.fixture
def born_frame_file(tmp_path):
    path = tmp_path / "born.json"
    path.write_text(json.dumps(frame_to_json(born_backed(random_density_matrix(2, np.random.default_rng(7))))))
    return str(path)


@pytest.fixture
def xz_frame_file(tmp_path):
    path = tmp_path / "xz.json"
    path.write_text(json.dumps(frame_to_json(definite_xz_table())))
    return str(path)


@pytest.fixture
def x_pvm_file(tmp_path):
    path = tmp_path / "x_pvm.json"
    pvm = validate_pvm([axis_projector("+x"), axis_projector("-x")], labels=["+x", "-x"])
    path.write_text(json.dumps(pvm_to_json(pvm)))
    return str(path)


@pytest.mark.parametrize("command", ["gen-pvm", "eval"])
def test_dim_above_the_cap_exits_2_before_drawing(capsys, born_frame_file, command):
    argv = ["gen-pvm"] if command == "gen-pvm" else ["eval", "--frame", born_frame_file]
    code = main([*argv, "--dim", "65", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "dimension 65 exceeds the configured cap 64" in captured.err


class TestGenPvm:
    def test_writes_valid_pvm_and_reports_residuals(self, capsys, tmp_path):
        out_file = tmp_path / "pvm.json"
        code, report = run_json(
            capsys, "gen-pvm", "--dim", "4", "--ranks", "1,1,2",
            "--seed", "42", "--out", str(out_file),
        )
        assert code == 0
        pvm = pvm_from_json(json.loads(out_file.read_text()))
        assert pvm.ranks == (1, 1, 2)
        assert report["summary"]["max_orthogonality_residual"] <= 1e-12
        assert report["summary"]["completeness_residual"] <= 1e-12
        for check in report["results"]["checks"]:
            assert check["pass"]
            assert "tolerance" in check

    def test_same_seed_gives_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = run(capsys, "gen-pvm", "--dim", "3", "--ranks", "1,2",
                          "--seed", "9", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_partition_mismatch_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, "gen-pvm", "--dim", "3", "--ranks", "1,1",
                      "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert not (tmp_path / "x.json").exists()

    def test_artifact_mode_matches_plain_open(self, capsys, tmp_path):
        out_file = tmp_path / "pvm.json"
        code, _ = run(capsys, "gen-pvm", "--dim", "2", "--seed", "1", "--out", str(out_file))
        assert code == 0
        sibling = tmp_path / "sibling.json"
        with open(sibling, "w"):
            pass
        assert os.stat(out_file).st_mode == os.stat(sibling).st_mode
        assert sorted(os.listdir(tmp_path)) == ["pvm.json", "sibling.json"]

    def test_unwritable_out_exits_1(self, capsys):
        code, _ = run(capsys, "gen-pvm", "--dim", "2", "--seed", "1",
                      "--out", "/nonexistent-dir/pvm.json")
        assert code == 1


class TestEval:
    def test_born_frame_on_generated_pvm(self, capsys, born_frame_file):
        code, report = run_json(
            capsys, "eval", "--frame", born_frame_file, "--dim", "2", "--seed", "11",
        )
        assert code == 0
        assert report["summary"]["pass"]
        assert report["summary"]["normalization_residual"] <= 1e-9
        assert len(report["results"]["values"]) == 2

    def test_pvm_file_input(self, capsys, tmp_path, born_frame_file):
        pvm_file = tmp_path / "pvm.json"
        run(capsys, "gen-pvm", "--dim", "2", "--seed", "3", "--out", str(pvm_file))
        code, report = run_json(
            capsys, "eval", "--frame", born_frame_file, "--pvm", str(pvm_file),
        )
        assert code == 0
        assert report["config"]["pvm_file"] == str(pvm_file)

    def test_table_frame_undefined_on_random_pvm(self, capsys, xz_frame_file):
        code, _ = run(capsys, "eval", "--frame", xz_frame_file, "--dim", "2", "--seed", "5")
        assert code == 2

    def test_unnormalized_table_fails_with_exit_3(self, capsys, tmp_path, x_pvm_file):
        frame_file = tmp_path / "x_table.json"
        frame_file.write_text(json.dumps(frame_to_json(axis_table({"+x": 0.9, "-x": 0.3}))))
        code, report = run_json(capsys, "eval", "--frame", str(frame_file), "--pvm", x_pvm_file)
        assert code == 3
        assert report["summary"]["pass"] is False
        assert report["results"]["normalization"]["pass"] is False

    def test_evaluates_each_element_once(self, capsys, monkeypatch, born_frame_file,
                                         x_pvm_file):
        load = gleason_lab.cli.frame_from_json
        calls = []

        def counting_frame_from_json(obj):
            frame = load(obj)

            class Counting(FrameFunction):
                dim = frame.dim

                def values(self, stack):
                    calls.extend(stack)
                    return frame.values(stack)

            return Counting()

        monkeypatch.setattr(gleason_lab.cli, "frame_from_json", counting_frame_from_json)
        code, _ = run(capsys, "eval", "--frame", born_frame_file, "--pvm", x_pvm_file)
        assert code == 0
        assert len(calls) == 2

    def test_missing_frame_file_exits_1(self, capsys):
        code, _ = run(capsys, "eval", "--frame", "/no/such/file.json", "--dim", "2")
        assert code == 1

    def test_missing_pvm_source_exits_2(self, capsys, born_frame_file):
        code, _ = run(capsys, "eval", "--frame", born_frame_file)
        assert code == 2

    def test_malformed_pvm_file_exits_2_without_traceback(self, capsys, tmp_path,
                                                          born_frame_file):
        pvm_file = tmp_path / "pvm.json"
        pvm_file.write_text(json.dumps({"dim": 2, "elements": 5, "labels": 5}))
        code = main(["eval", "--frame", born_frame_file, "--pvm", str(pvm_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestCheckMarginal:
    def test_born_backed_is_marginal_exit_0(self, capsys, born_frame_file, tmp_path):
        cert_file = tmp_path / "cert.json"
        code, report = run_json(capsys, "check-marginal", "--frame", born_frame_file,
                                "--out", str(cert_file))
        assert code == 0
        cert = json.loads(cert_file.read_text())
        assert cert["verdict"] == "marginal"
        assert report["summary"]["verdict"] == "marginal"

    def test_definite_xz_table_exit_3_with_witness(self, capsys, xz_frame_file):
        code, report = run_json(capsys, "check-marginal", "--frame", xz_frame_file)
        assert code == 3
        witness = report["results"]["certificate"]["witness"]
        assert witness["norm"] == pytest.approx(math.sqrt(2), abs=1e-9)
        assert "1.4142" in report["results"]["witness_text"]

    def test_missing_axis_exits_2(self, capsys, tmp_path):
        partial = axis_table({"+x": 1.0, "-x": 0.0, "+z": 1.0, "-z": 0.0})
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(frame_to_json(partial)))
        code, _ = run(capsys, "check-marginal", "--frame", str(path))
        assert code == 2

    def test_boundary_case_exits_4(self, capsys, tmp_path):
        a = (1.0 + 1e-7) / math.sqrt(2)
        frame = axis_table({
            "+x": (1 + a) / 2, "-x": (1 - a) / 2,
            "+y": (1 + a) / 2, "-y": (1 - a) / 2,
            "+z": 0.5, "-z": 0.5,
        })
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(frame_to_json(frame)))
        code, report = run_json(capsys, "check-marginal", "--frame", str(path))
        assert code == 4
        assert report["summary"]["verdict"] == "inconclusive"

    def test_dim_cross_check(self, capsys, born_frame_file):
        code, _ = run(capsys, "check-marginal", "--frame", born_frame_file, "--dim", "3")
        assert code == 2

    def test_unknown_tolerance_exits_2(self, capsys, born_frame_file):
        # The thresholds are one fixed table: no --tol override is known,
        # so the parser refuses it instead of ignoring it.
        for override in ("bogus=1", "lin=1e-20"):
            with pytest.raises(SystemExit) as exc:
                main(["check-marginal", "--frame", born_frame_file, "--tol", override])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_report_echoes_the_whole_tolerance_table(self, capsys, born_frame_file):
        code, report = run_json(capsys, "check-marginal", "--frame", born_frame_file)
        assert code == 0
        assert report["config"]["tolerances"] == TOL.to_dict()
        assert len(report["config"]["tolerances"]) == 11

    def test_every_printed_tolerance_is_read_by_the_library(self):
        # A field no check reads would be printed in every report while
        # deciding nothing.
        src = pathlib.Path(gleason_lab.__file__).parent
        text = "\n".join(p.read_text() for p in sorted(src.glob("*.py")))
        unread = [f for f in TOL.to_dict() if not re.search(rf"\b(TOL|tol)\.{f}\b", text)]
        assert unread == []


class TestReconstruct:
    def test_reports_candidate_state(self, capsys, xz_frame_file):
        code, report = run_json(capsys, "reconstruct", "--frame", xz_frame_file)
        assert code == 0
        assert report["results"]["spanning_set_id"] == "axes-d2"
        assert report["results"]["linear_residual"]["value"] <= 1e-12
        rho = np.asarray(report["results"]["rho_hat"], dtype=float)
        assert rho.shape == (2, 2, 2)

    def test_inconsistent_frame_exits_3(self, capsys, tmp_path):
        path = tmp_path / "inconsistent.json"
        table = axis_table({"+x": 0.9, "-x": 0.3, "+y": 0.5, "-y": 0.5, "+z": 0.5, "-z": 0.5})
        path.write_text(json.dumps(frame_to_json(table)))
        code, report = run_json(capsys, "reconstruct", "--frame", str(path))
        assert code == 3
        assert report["summary"]["consistent"] is False
        assert report["summary"]["pass"] is False

    @pytest.mark.parametrize("values", [
        {"+x": 0.9, "-x": 0.1, "+y": 0.5, "-y": 0.5, "+z": 0.3, "-z": 0.7},
        {"+x": 1.0, "-x": 0.0, "+y": 0.5, "-y": 0.5, "+z": 1.0, "-z": 0.0},
        {"+x": 0.9, "-x": 0.3, "+y": 0.5, "-y": 0.5, "+z": 0.5, "-z": 0.5},
    ], ids=["marginal", "non-psd", "inconsistent"])
    def test_prints_the_fit_check_marginal_certifies(self, capsys, tmp_path, values):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame_to_json(axis_table(values))))
        _, rec = run_json(capsys, "reconstruct", "--frame", str(path))
        _, chk = run_json(capsys, "check-marginal", "--frame", str(path))
        cert = chk["results"]["certificate"]
        assert rec["results"]["rho_hat"] == cert["rho_hat"]
        assert rec["results"]["linear_residual"]["value"] == cert["linear_residual"]
        assert rec["summary"]["linear_residual"] == chk["summary"]["linear_residual"]


class TestDemoCounterexample:
    def test_default_run_is_non_marginal(self, capsys):
        code, report = run_json(capsys, "demo-counterexample", "--seed", "1")
        assert code == 0
        assert report["summary"]["verdict"] == "non_marginal"
        assert report["summary"]["max_normalization_residual"] == 0.0
        assert report["results"]["normalization"]["pvms_checked"] == 100

    def test_rho_backed_control_is_marginal(self, capsys):
        code, report = run_json(capsys, "demo-counterexample", "--rho-backed", "--seed", "1")
        assert code == 0
        assert report["summary"]["verdict"] == "marginal"

    def test_verdict_is_seed_independent(self, capsys):
        verdicts = set()
        for seed in ("1", "2", "3"):
            _, report = run_json(capsys, "demo-counterexample", "--seed", seed)
            verdicts.add(report["summary"]["verdict"])
        assert verdicts == {"non_marginal"}


class TestDemoIntertwine:
    def test_shared_projector_degree(self, capsys):
        code, report = run_json(capsys, "demo-intertwine", "--n-psi", "10", "--seed", "5")
        assert code == 0
        assert report["summary"]["shared_projector_degree"] == 10
        assert report["summary"]["qubit_max_degree"] == 1
        assert report["summary"]["other_composite_max_degree"] == 1

    def test_single_member(self, capsys):
        # At n = 1 degree n cannot be told apart from degree <= 1, so a
        # pass would have shown nothing: the run is refused instead.
        code = main(["demo-intertwine", "--n-psi", "1", "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--n-psi must be >= 2 (at 1, degree n is the bound 1), got 1" in captured.err

    def test_rejects_zero_members(self, capsys):
        code, _ = run(capsys, "demo-intertwine", "--n-psi", "0")
        assert code == 2


class TestVerifySuite:
    def test_small_run_passes(self, capsys):
        code, report = run_json(capsys, "verify-suite", "--dims", "2,3",
                                "--trials", "5", "--seed", "7")
        assert code == 0
        assert report["summary"]["pass"]
        assert report["summary"]["total_failures"] == 0
        for battery in report["results"]["batteries"]:
            assert battery["pass"]
            assert "tolerance" in battery

    def test_perturbation_injects_failures(self, capsys):
        code, report = run_json(capsys, "verify-suite", "--dims", "2",
                                "--trials", "5", "--seed", "7", "--perturb", "1e-3")
        assert code == 3
        norm_battery = report["results"]["batteries"][0]
        assert norm_battery["name"] == "normalization"
        assert norm_battery["failures"] == 5
        assert norm_battery["max_residual"] == pytest.approx(1e-3, rel=1e-6)

    @pytest.mark.parametrize("argv", [
        ("--dims", "2,3,4", "--trials", "0"),
        ("--dims", "", "--trials", "5"),
    ], ids=["zero-trials", "empty-dims"])
    def test_vacuous_run_exits_2(self, capsys, argv):
        code, out = run(capsys, "verify-suite", *argv, "--seed", "7")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("option", [
        ("--perturb", "nan"),
        ("--perturb", "inf"),
    ], ids=["perturb-nan", "perturb-inf"])
    def test_non_finite_or_non_positive_bound_exits_2(self, capsys, option):
        code, out = run(capsys, "verify-suite", "--dims", "2", "--trials", "3", *option)
        assert code == 2
        assert out == ""

    def test_reports_are_replayable(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = ("verify-suite", "--dims", "2,3", "--trials", "10",
                "--seed", "123", "--out", str(path))
        code, _ = run(capsys, *argv)
        assert code == 0
        first = path.read_text()
        code, _ = run(capsys, *argv)
        assert code == 0
        second = path.read_text()
        assert first != ""
        assert strip_timestamp(first) == strip_timestamp(second)


class TestCommonBehaviour:
    def test_env_seed_matches_explicit_seed(self, capsys, tmp_path, monkeypatch):
        explicit = tmp_path / "explicit.json"
        run(capsys, "gen-pvm", "--dim", "3", "--seed", "77", "--out", str(explicit))
        monkeypatch.setenv("GLEASON_LAB_SEED", "77")
        from_env = tmp_path / "env.json"
        run(capsys, "gen-pvm", "--dim", "3", "--out", str(from_env))
        assert explicit.read_bytes() == from_env.read_bytes()

    def test_csv_format_flattens_summary(self, capsys):
        code, out = run(capsys, "demo-intertwine", "--n-psi", "2", "--seed", "1",
                        "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("command,")
        assert row.startswith("demo-intertwine,")
        assert len(header.split(",")) == len(row.split(","))

    def test_negative_seed_rejected(self, capsys):
        code, _ = run(capsys, "demo-intertwine", "--seed", "-4")
        assert code == 2

    def test_non_integer_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("GLEASON_LAB_SEED", "seven")
        code, out = run(capsys, "demo-intertwine")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00", b"[" * 100_000])
    def test_unreadable_json_exits_2_with_one_error_line(self, capsys, tmp_path, content):
        frame_file = tmp_path / "frame.json"
        frame_file.write_bytes(content)
        code = main(["check-marginal", "--frame", str(frame_file)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")

    def test_program_faults_are_not_reported_as_refused_input(self, capsys, monkeypatch,
                                                              born_frame_file):
        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(gleason_lab.cli, "certify_marginal", broken)
        with pytest.raises(ValueError):
            main(["check-marginal", "--frame", born_frame_file])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3)
    ),
    max_leaves=8,
)
# Well-formed pieces mixed in so that generated files also get past the
# top-level checks and reach the element, entry and value decoders.
MATRICES = JSON_VALUES | st.sampled_from([
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    [[[1.0, 0.0]]],
])
FRAMES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({"repr": st.just("born"), "rho": MATRICES}),
    st.fixed_dictionaries({"repr": st.just("deterministic")}, optional={"rule": JSON_VALUES}),
    st.fixed_dictionaries({"repr": st.just("table"), "entries": JSON_VALUES | st.lists(
        JSON_VALUES | st.fixed_dictionaries({
            "projector": MATRICES, "value": JSON_VALUES | st.floats(0, 1),
        }),
        max_size=4,
    )}),
)
PVMS = JSON_VALUES | st.fixed_dictionaries(
    {"elements": JSON_VALUES | st.lists(MATRICES, max_size=3)},
    optional={"labels": JSON_VALUES},
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["check-marginal", "eval"]), frame=FRAMES, pvm=PVMS)
def test_arbitrary_json_inputs_never_crash_the_cli(command, frame, pvm):
    with tempfile.TemporaryDirectory() as tmp:
        frame_file = os.path.join(tmp, "frame.json")
        pvm_file = os.path.join(tmp, "pvm.json")
        with open(frame_file, "w") as handle:
            json.dump(frame, handle)
        with open(pvm_file, "w") as handle:
            json.dump(pvm, handle)
        argv = [command, "--frame", frame_file]
        if command == "eval":
            argv += ["--pvm", pvm_file]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in {0, 2, 3, 4}
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
