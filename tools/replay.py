#!/usr/bin/env python3
"""Replay a fixed list of seeded gleason-lab CLI runs and record their output.

    python tools/replay.py OUTDIR [--src TREE/src]
    python tools/replay.py --compare DIR_A DIR_B

The runs cover all seven subcommands. For each run, OUTDIR receives
``<name>.stdout`` (stdout without the ``"timestamp"`` line),
``<name>.stderr``, ``<name>.exit`` (the exit code) and, when the run
writes an artifact, ``artifacts/<name>.out`` (without the
``"timestamp"`` line, which a report artifact carries). Everything
else a run prints is fixed by its seed and inputs, so two trees that
behave the same give identical directories:

    python tools/replay.py before --src OLD_TREE/src
    python tools/replay.py after --src src
    diff -r before after

``diff -r`` is the byte gate for a change that must not move any output.
A change that reorders floating-point arithmetic moves the last bits of
printed floats; ``--compare`` checks such a pair numerically instead.
It parses stdout and artifacts as JSON (or, where that fails, as CSV
cells) and requires every value to be equal, except floats, which may
differ by at most 1e-12 absolute; ``.exit`` and ``.stderr`` files must be
byte-identical. It prints every differing path and exits 1 if there is
one, 0 otherwise.

The input frames and PVMs are built here with plain numpy and json,
never with gleason_lab, so both trees read the same bytes. Each run
starts in OUTDIR and names its files by relative path, which keeps the
paths echoed in the reports the same for any OUTDIR. GLEASON_LAB_SEED
is removed from the environment of every run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
AXES = {
    "+x": (1.0, 0.0, 0.0), "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0), "-y": (0.0, -1.0, 0.0),
    "+z": (0.0, 0.0, 1.0), "-z": (0.0, 0.0, -1.0),
}


def matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def random_state(dim: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((dim, dim, 2)) @ np.array([1.0, 1j])
    m = g @ g.conj().T
    return m / np.trace(m).real


def axis_projector(axis: str) -> np.ndarray:
    x, y, z = AXES[axis]
    return 0.5 * (np.eye(2) + x * PAULI[0] + y * PAULI[1] + z * PAULI[2])


def axis_table(values: dict[str, float]) -> dict:
    return {
        "dim": 2,
        "repr": "table",
        "entries": [
            {"projector": matrix_json(axis_projector(a)), "value": v} for a, v in values.items()
        ],
    }


def grid_projectors(dim: int) -> list[np.ndarray]:
    """e_i, then (e_i +- e_j) and (e_i +- i e_j) for each pair i < j, in
    the order of gleason_lab's spanning set for dim >= 3."""
    eye = np.eye(dim, dtype=complex)
    kets = list(eye)
    for j in range(1, dim):
        for i in range(j):
            kets += [eye[i] + c * eye[j] for c in (1.0, -1.0, 1j, -1j)]
    return [np.outer(k, k.conj()) / np.vdot(k, k).real for k in kets]


def grid_table(dim: int, values) -> dict:
    return {
        "dim": dim,
        "repr": "table",
        "entries": [
            {"projector": matrix_json(p), "value": float(v)}
            for p, v in zip(grid_projectors(dim), values)
        ],
    }


def non_psd_operator() -> np.ndarray:
    """Unit-trace Hermitian Q diag(-0.03, 0.33, 0.7) Q^dagger."""
    g = np.random.default_rng(2).standard_normal((3, 3, 2)) @ np.array([1.0, 1j])
    q, _ = np.linalg.qr(g)
    return q @ np.diag([-0.03, 0.33, 0.7]) @ q.conj().T


def random_pvm(dim: int, ranks: list[int], seed: int) -> dict:
    g = np.random.default_rng(seed).standard_normal((dim, dim, 2)) @ np.array([1.0, 1j])
    q, _ = np.linalg.qr(g)
    elements = []
    start = 0
    for r in ranks:
        cols = q[:, start:start + r]
        elements.append(matrix_json(cols @ cols.conj().T))
        start += r
    return {"dim": dim, "elements": elements, "labels": [str(i) for i in range(len(ranks))]}


INPUTS = {
    "born2.json": {"dim": 2, "repr": "born", "rho": matrix_json(random_state(2, 7))},
    "born4.json": {"dim": 4, "repr": "born", "rho": matrix_json(random_state(4, 11))},
    "born2-dim3.json": {"dim": 3, "repr": "born", "rho": matrix_json(random_state(2, 7))},
    "deterministic.json": {"dim": 2, "repr": "deterministic", "rule": "lex-zxy"},
    "xz.json": axis_table({"+x": 1.0, "-x": 0.0, "+y": 0.5, "-y": 0.5, "+z": 1.0, "-z": 0.0}),
    "inconsistent.json": axis_table(
        {"+x": 0.9, "-x": 0.3, "+y": 0.5, "-y": 0.5, "+z": 0.5, "-z": 0.5}
    ),
    "non-psd3.json": grid_table(
        3, [np.trace(p @ non_psd_operator()).real for p in grid_projectors(3)]
    ),
    "uniform3.json": grid_table(3, np.random.default_rng(1).uniform(0, 1, 15)),
    "unnormalized-x.json": axis_table({"+x": 0.9, "-x": 0.3}),
    "pvm-x.json": {
        "dim": 2,
        "elements": [matrix_json(axis_projector("+x")), matrix_json(axis_projector("-x"))],
        "labels": ["+x", "-x"],
    },
    "pvm4.json": random_pvm(4, [2, 1, 1], 6),
    "pvm3.json": random_pvm(3, [1, 1, 1], 5),
}

# (name, argv, writes an artifact)
RUNS = [
    ("verify-suite-2348", ["verify-suite", "--dims", "2,3,4,8", "--trials", "40",
                           "--seed", "31337"], False),
    ("verify-suite-perturb", ["verify-suite", "--dims", "2,5", "--trials", "10", "--seed", "3",
                              "--perturb", "1e-3"], False),
    ("verify-suite-234", ["verify-suite", "--dims", "2,3,4", "--trials", "200",
                          "--seed", "7"], False),
    ("verify-suite-csv", ["verify-suite", "--dims", "3", "--trials", "5", "--seed", "9",
                          "--format", "csv"], False),
    ("gen-pvm-8", ["gen-pvm", "--dim", "8", "--ranks", "1,2,1,3,1", "--seed", "5"], True),
    ("gen-pvm-csv", ["gen-pvm", "--dim", "3", "--seed", "1", "--format", "csv"], True),
    ("eval-generated", ["eval", "--frame", "inputs/born4.json", "--dim", "4", "--seed", "2"],
     True),
    ("eval-pvm", ["eval", "--frame", "inputs/born4.json", "--pvm", "inputs/pvm4.json"], False),
    ("eval-pvm-mismatch", ["eval", "--frame", "inputs/born4.json", "--pvm", "inputs/pvm3.json"],
     False),
    ("eval-unnormalized", ["eval", "--frame", "inputs/unnormalized-x.json", "--pvm",
                           "inputs/pvm-x.json"], False),
    ("check-born2", ["check-marginal", "--frame", "inputs/born2.json"], True),
    ("check-born4", ["check-marginal", "--frame", "inputs/born4.json"], True),
    ("check-deterministic", ["check-marginal", "--frame", "inputs/deterministic.json"], True),
    ("check-xz", ["check-marginal", "--frame", "inputs/xz.json"], True),
    ("check-inconsistent", ["check-marginal", "--frame", "inputs/inconsistent.json"], True),
    ("check-non-psd3", ["check-marginal", "--frame", "inputs/non-psd3.json"], True),
    ("check-uniform3", ["check-marginal", "--frame", "inputs/uniform3.json"], True),
    ("check-born2-dim3", ["check-marginal", "--frame", "inputs/born2-dim3.json"], False),
    ("reconstruct-xz", ["reconstruct", "--frame", "inputs/xz.json"], False),
    ("reconstruct-born4", ["reconstruct", "--frame", "inputs/born4.json"], False),
    ("reconstruct-inconsistent", ["reconstruct", "--frame", "inputs/inconsistent.json"], False),
    ("reconstruct-non-psd3", ["reconstruct", "--frame", "inputs/non-psd3.json"], False),
    ("demo-counterexample", ["demo-counterexample", "--seed", "4"], False),
    ("demo-counterexample-rho", ["demo-counterexample", "--seed", "4", "--rho-backed"], False),
    ("demo-intertwine", ["demo-intertwine", "--n-psi", "15", "--seed", "8"], False),
]


def without_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if '"timestamp"' not in line)


FLOAT_ABS_TOL = 1e-12
EXACT_SUFFIXES = (".exit", ".stderr")


def _cell(text: str) -> str | float:
    """A CSV cell as a float when it is a float literal; integers,
    booleans and words stay strings and compare exactly."""
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _floats_agree(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= FLOAT_ABS_TOL


def _compare_values(a, b, path: str, out: list[str]) -> None:
    """Append to ``out`` every path where two parsed JSON values differ."""
    if isinstance(a, float) and isinstance(b, float):
        if not _floats_agree(a, b):
            out.append(f"{path}: {a!r} != {b!r}")
    elif type(a) is not type(b):
        out.append(f"{path}: {a!r} != {b!r}")
    elif isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}.{key}: present on one side only")
            else:
                _compare_values(a[key], b[key], f"{path}.{key}", out)
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_values(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def _csv_rows(text: str) -> list:
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def compare_texts(rel: str, a: str, b: str) -> list[str]:
    """Differences between two recorded files: exact for exit codes and
    stderr, numeric within FLOAT_ABS_TOL for JSON or CSV content."""
    if a == b:
        return []
    if rel.endswith(EXACT_SUFFIXES):
        return [f"{rel}: contents differ"]
    out: list[str] = []
    try:
        parsed = _json(a), _json(b)
    except ValueError:
        parsed = _csv_rows(a), _csv_rows(b)
    _compare_values(*parsed, rel, out)
    return out


def _json(text: str):
    """Parse a recorded JSON file. A report loses its last line,
    ``"timestamp"``, when recorded, which leaves a comma before the
    closing brace; that comma is dropped."""
    try:
        return json.loads(text)
    except ValueError:
        return json.loads(re.sub(r",(\s*)}\s*$", r"\1}", text))


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root) for name in names
    }


def compare_dirs(dir_a: str, dir_b: str) -> list[str]:
    """Every differing path between two replay directories."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    out = [f"{rel}: present on one side only" for rel in sorted(files_a ^ files_b)]
    for rel in sorted(files_a & files_b):
        with open(os.path.join(dir_a, rel)) as ha, open(os.path.join(dir_b, rel)) as hb:
            out += compare_texts(rel, ha.read(), hb.read())
    return out


def record(outdir: str, src: str) -> None:
    outdir = os.path.abspath(outdir)
    os.makedirs(os.path.join(outdir, "inputs"), exist_ok=True)
    os.makedirs(os.path.join(outdir, "artifacts"), exist_ok=True)
    for name, obj in INPUTS.items():
        with open(os.path.join(outdir, "inputs", name), "w") as handle:
            json.dump(obj, handle, indent=1)

    env = {k: v for k, v in os.environ.items() if k != "GLEASON_LAB_SEED"}
    env["PYTHONPATH"] = os.path.abspath(src)
    for name, cli_args, writes in RUNS:
        out = f"artifacts/{name}.out"
        if writes:
            cli_args = cli_args + ["--out", out]
        proc = subprocess.run([sys.executable, "-m", "gleason_lab.cli", *cli_args],
                              cwd=outdir, env=env, capture_output=True, text=True)
        records = {
            f"{name}.stdout": without_timestamp(proc.stdout),
            f"{name}.stderr": proc.stderr,
            f"{name}.exit": f"{proc.returncode}\n",
        }
        if writes and os.path.exists(os.path.join(outdir, out)):
            with open(os.path.join(outdir, out)) as handle:
                records[out] = without_timestamp(handle.read())
        for rel, text in records.items():
            with open(os.path.join(outdir, rel), "w") as handle:
                handle.write(text)
        print(f"{name}: exit {proc.returncode}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", help="directory to fill; created if missing")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="source directory holding gleason_lab (default: this tree's src)")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two replay directories numerically instead of running")
    args = parser.parse_args(argv)
    if (args.outdir is None) == (args.compare is None):
        parser.error("give either OUTDIR or --compare DIR_A DIR_B")

    if args.compare is not None:
        diffs = compare_dirs(*args.compare)
        for line in diffs:
            print(line)
        print(f"{len(diffs)} difference(s) beyond {FLOAT_ABS_TOL:g} in floats")
        return 1 if diffs else 0
    record(args.outdir, args.src)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
