"""Acceptance battery.

Each test exercises one exit criterion end to end at its stated
tolerance and prints a single PASS/FAIL line (run with -s to see them
all). Expected values are computed from independent oracles inside the
tests, never assumed.
"""

import json
import math
import time

import numpy as np

from gleason_lab.cli import main
from gleason_lab.frames import (
    axis_projector,
    born_backed,
    check_normalization,
    definite_xz_table,
    deterministic_qubit,
    random_qubit_pvm_pair,
)
from gleason_lab.marginality import (
    Verdict,
    certify_marginal,
    spanning_projectors,
    verify_extension,
)
from gleason_lab.measurements import (
    intertwine_graph,
    measurement_family_mpsi,
    projector_key,
    pvm_from_unitary,
    random_rank_partition,
    validate_pvm,
)
from gleason_lab.operators import (
    bloch_of_matrix,
    haar_unitary,
    identity,
    partial_trace_b,
    random_density_matrix,
)

from conftest import random_ket, rank1_projector

# Filled by criterion 3, consumed by criterion 7.
_BORN_STATS = {"trials": 0, "non_marginal": 0}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_pvm_normalization():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(1000):
            rho = random_density_matrix(dim, rng)
            pvm = pvm_from_unitary(haar_unitary(dim, rng), random_rank_partition(dim, rng))
            worst = max(worst, check_normalization(born_backed(rho), pvm))
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1 (normalization over 3000 random PVMs)",
        worst <= 1e-9 and elapsed < 5.0,
        f"max residual {worst:.3e} <= 1e-9, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_definite_xz_counterexample():
    started = time.perf_counter()
    table = definite_xz_table()
    rng = np.random.default_rng(202)
    # random qubit PVMs drawn from the table's domain: a random signed
    # axis pair in random outcome order
    worst = 0.0
    for _ in range(100):
        axis = ("x", "y", "z")[int(rng.integers(3))]
        pair = [axis_projector(f"+{axis}"), axis_projector(f"-{axis}")]
        if rng.integers(2):
            pair.reverse()
        worst = max(worst, check_normalization(table, validate_pvm(pair)))

    cert = certify_marginal(table, spanning_projectors(2))

    # linear-inversion oracle: each axis pair fixes one Bloch component
    # as 2 f(P_+) - 1
    expected_bloch = np.array(
        [
            2 * table(axis_projector("+x")) - 1,
            2 * table(axis_projector("+y")) - 1,
            2 * table(axis_projector("+z")) - 1,
        ]
    )
    bloch = np.array(bloch_of_matrix(cert.rho_hat))
    bloch_err = float(np.max(np.abs(bloch - expected_bloch)))
    target_err = float(np.max(np.abs(expected_bloch - np.array([1.0, 0.0, 1.0]))))
    norm_err = abs(float(np.linalg.norm(bloch)) - math.sqrt(2))
    elapsed = time.perf_counter() - started
    ok = (
        worst == 0.0
        and cert.verdict is Verdict.NON_MARGINAL
        and target_err == 0.0
        and bloch_err <= 1e-9
        and norm_err <= 1e-9
        and elapsed < 1.0
    )
    _report(
        "criterion 2 (definite x/z assignment)",
        ok,
        f"normalization residual {worst}, verdict {cert.verdict.value}, "
        f"Bloch error {bloch_err:.3e} <= 1e-9, norm error {norm_err:.3e} <= 1e-9, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_3_reconstruction_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_err = 0.0
    non_marginal = 0
    trials_per_dim = 1000
    for dim in (2, 3, 4):
        spanning = spanning_projectors(dim)
        for _ in range(trials_per_dim):
            rho = random_density_matrix(dim, rng)
            cert = certify_marginal(born_backed(rho), spanning)
            worst_err = max(
                worst_err, float(np.linalg.norm(cert.rho_hat - rho.matrix, "fro"))
            )
            if cert.verdict is not Verdict.MARGINAL:
                non_marginal += 1
    _BORN_STATS["trials"] += 3 * trials_per_dim
    _BORN_STATS["non_marginal"] += non_marginal
    elapsed = time.perf_counter() - started
    _report(
        "criterion 3 (Born round trip, 3000 states)",
        worst_err <= 1e-9 and non_marginal == 0 and elapsed < 30.0,
        f"max Frobenius error {worst_err:.3e} <= 1e-9, "
        f"{non_marginal} non-marginal verdicts, {elapsed:.2f}s < 30s",
    )


def test_criterion_4_composite_extension():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_pt = 0.0
    worst_dev = 0.0
    for dim_a in (2, 3):
        for dim_b in (2, 3):
            for _ in range(200):
                rho = random_density_matrix(dim_a, rng)
                sigma = random_density_matrix(dim_b, rng)
                projectors = [rank1_projector(dim_a, rng) for _ in range(100)]
                pt_err, dev = verify_extension(rho, sigma, projectors)
                worst_pt = max(worst_pt, pt_err)
                worst_dev = max(worst_dev, dev)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 4 (product extension, 800 instances x 100 projectors)",
        worst_pt <= 1e-12 and worst_dev <= 1e-12 and elapsed < 30.0,
        f"max partial-trace error {worst_pt:.3e} <= 1e-12, "
        f"max probability deviation {worst_dev:.3e} <= 1e-12, {elapsed:.2f}s < 30s",
    )


def test_criterion_5_embedding_trace_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for dim_b in (2, 3):
        for _ in range(500):
            p = rank1_projector(2, rng)
            rho = random_density_matrix(2 * dim_b, rng)
            full = np.trace(np.kron(p.matrix, identity(dim_b)) @ rho.matrix).real
            reduced = np.trace(p.matrix @ partial_trace_b(rho, 2, dim_b).matrix).real
            worst = max(worst, abs(full - reduced))
    elapsed = time.perf_counter() - started
    _report(
        "criterion 5 (embedding trace identity, 1000 pairs)",
        worst <= 1e-12 and elapsed < 5.0,
        f"max deviation {worst:.3e} <= 1e-12, {elapsed:.2f}s < 5s",
    )


def test_criterion_6_intertwining_dichotomy():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    generic = [pvm_from_unitary(haar_unitary(2, rng), [1, 1]) for _ in range(50)]
    generic_graph = intertwine_graph(generic)

    family = [measurement_family_mpsi(random_ket(2, rng)) for _ in range(10)]
    family_graph = intertwine_graph(family)
    pi_degree = family_graph.degree(projector_key(family[0].elements[0].matrix))
    elapsed = time.perf_counter() - started
    _report(
        "criterion 6 (intertwining dichotomy)",
        generic_graph.max_degree() == 1 and pi_degree == 10 and elapsed < 1.0,
        f"generic max degree {generic_graph.max_degree()} == 1, "
        f"shared projector degree {pi_degree} == 10, {elapsed:.2f}s < 1s",
    )


def test_criterion_7_strict_inclusion():
    rng = np.random.default_rng(707)
    exhibit = deterministic_qubit()
    worst = 0.0
    for _ in range(100):
        worst = max(worst, check_normalization(exhibit, random_qubit_pvm_pair(rng)))
    exhibit_cert = certify_marginal(exhibit)

    if _BORN_STATS["trials"] == 0:
        # standalone fallback when criterion 3 did not run first
        for dim in (2, 3, 4):
            spanning = spanning_projectors(dim)
            for _ in range(100):
                cert = certify_marginal(
                    born_backed(random_density_matrix(dim, rng)), spanning
                )
                _BORN_STATS["trials"] += 1
                if cert.verdict is not Verdict.MARGINAL:
                    _BORN_STATS["non_marginal"] += 1

    ok = (
        worst == 0.0
        and exhibit_cert.verdict is Verdict.NON_MARGINAL
        and _BORN_STATS["non_marginal"] == 0
    )
    _report(
        "criterion 7 (strict inclusion of marginal functions)",
        ok,
        f"exhibit normalizes exactly (residual {worst}) yet is "
        f"{exhibit_cert.verdict.value}; {_BORN_STATS['non_marginal']} of "
        f"{_BORN_STATS['trials']} Born-backed functions non-marginal",
    )


def test_criterion_8_verify_suite_determinism(tmp_path, capsys):
    path = tmp_path / "suite.json"
    argv = [
        "verify-suite", "--dims", "2,3,4", "--trials", "25",
        "--seed", "31337", "--out", str(path),
    ]
    assert main(list(argv)) == 0
    first = path.read_text()
    assert main(list(argv)) == 0
    second = path.read_text()
    capsys.readouterr()

    def body(text: str) -> str:
        return "\n".join(l for l in text.splitlines() if '"timestamp"' not in l)

    payload = json.loads(first)
    ok = body(first) == body(second) and payload["summary"]["pass"]
    _report(
        "criterion 8 (verify-suite determinism)",
        ok,
        f"payload bytes identical after timestamp strip: {body(first) == body(second)}, "
        f"suite pass: {payload['summary']['pass']}",
    )
