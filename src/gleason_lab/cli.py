"""Command-line surface.

Subcommands: gen-pvm, eval, check-marginal, reconstruct,
demo-counterexample, demo-intertwine, verify-suite. Every run prints a
report (JSON by default, CSV summary with --format csv) to stdout;
--out writes the command's primary artifact atomically. The environment
variable GLEASON_LAB_SEED supplies a default seed. Every report echoes
the fixed tolerance table ``TOL`` under config.tolerances.

Exit codes follow the report's summary: 0 when its "pass" is true,
4 when it is false with verdict Inconclusive, 3 when it is false
otherwise (a NonMarginal verdict or a failed check, such as reconstruct
on values no unit-trace Hermitian matrix fits). 1 is an I/O failure and
2 a parse or domain failure (including malformed JSON input, a declared
dim that does not match the file's content, --dim above 64, and
verify-suite with no dims, zero trials or a non-finite --perturb, which
would check nothing); neither prints a report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import DimensionMismatch, GleasonLabError, SerializationError, ValueOutOfRange
from .frames import (
    BornFrameFunction,
    DeterministicFrameFunction,
    InducedFrameFunction,
    check_normalization,
    random_qubit_pvm_pair,
)
from .marginality import (
    Verdict,
    certify_marginal,
    marginality_witness,
    spanning_projectors,
    verify_extension,
)
from .measurements import (
    PVM,
    embed_pvm,
    intertwine_graph,
    measurement_family_mpsi,
    projector_key,
    pvm_from_unitary,
    random_rank_partition,
)
from .operators import (
    frobenius,
    haar_unitary,
    partial_trace_b,
    projector_from_ket,
    random_density_matrix,
)
from .report import build_report, checked, render_json, render_report, write_atomic
from .serialization import (
    certificate_to_json,
    frame_from_json,
    graph_to_json,
    matrix_to_json,
    pvm_from_json,
    pvm_to_json,
)
from .tolerances import TOL

ENV_SEED = "GLEASON_LAB_SEED"

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_NON_MARGINAL = 3
EXIT_INCONCLUSIVE = 4


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gleason-lab",
        description="PVM generation, frame-function evaluation and marginality certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${ENV_SEED} or 0)")
        p.add_argument("--out", default=None, help="write the primary artifact to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="stdout/report format")

    p = sub.add_parser("gen-pvm", help="generate a seeded random PVM")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--ranks", type=_int_list, default=None,
                   help="comma-separated projector ranks (default: all 1)")
    common(p)

    p = sub.add_parser("eval", help="evaluate a frame function on a PVM")
    p.add_argument("--frame", required=True, help="frame-function JSON file")
    p.add_argument("--pvm", default=None, help="PVM JSON file (default: generate from dim/ranks/seed)")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--ranks", type=_int_list, default=None)
    common(p)

    p = sub.add_parser("check-marginal", help="certify marginality of a frame function")
    p.add_argument("--frame", required=True)
    p.add_argument("--dim", type=int, default=None, help="expected dimension (cross-check)")
    common(p)

    p = sub.add_parser("reconstruct", help="reconstruct the candidate state from a frame function")
    p.add_argument("--frame", required=True)
    common(p)

    p = sub.add_parser("demo-counterexample",
                       help="non-quantum qubit assignment: normalized everywhere, yet non-marginal")
    p.add_argument("--rho-backed", action="store_true",
                   help="control case: use a Born-backed function instead")
    common(p)

    p = sub.add_parser("demo-intertwine",
                       help="shared-projector degrees for the composite measurement family")
    p.add_argument("--n-psi", type=int, default=10,
                   help="number of family members, at least 2 (at 1 degree n equals the qubit bound 1)")
    common(p)

    p = sub.add_parser("verify-suite", help="run the full invariant battery")
    p.add_argument("--dims", type=_int_list, default=[2, 3, 4])
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="inject this offset into normalization sums (fault mode)")
    common(p)

    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        text = os.environ.get(ENV_SEED, "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueOutOfRange(f"${ENV_SEED} must be an integer, got {text!r}") from None
    if seed < 0:
        raise ValueOutOfRange(f"seed must be non-negative, got {seed}")
    return seed


def _load_json(path: str):
    with open(path, "r") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SerializationError(f"{path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise SerializationError(f"{path} nests too deeply to parse") from None


# A handler returns its config entries, results, summary and the --out
# artifact text (None writes the rendered report); main derives the
# exit code from the summary.
Outcome = tuple[dict, dict, dict, str | None]


def _random_pvm(args, seed: int) -> tuple[PVM, list[int]]:
    """PVM of a seeded Haar unitary in --ranks blocks (default: all rank 1)."""
    u = haar_unitary(args.dim, np.random.default_rng(seed))
    ranks = args.ranks if args.ranks is not None else [1] * args.dim
    return pvm_from_unitary(u, ranks), ranks


def _cmd_gen_pvm(args, seed: int) -> Outcome:
    pvm, ranks = _random_pvm(args, seed)
    max_orth, completeness = pvm.max_orthogonality_residual, pvm.completeness_residual
    pvm_json = pvm_to_json(pvm)
    results = {
        "pvm": pvm_json,
        "checks": [
            checked("max_orthogonality_residual", max_orth, TOL.pvm),
            checked("completeness_residual", completeness, TOL.pvm),
        ],
    }
    summary = {
        "dim": pvm.dim,
        "outcomes": len(pvm),
        "max_orthogonality_residual": max_orth,
        "completeness_residual": completeness,
        "pass": all(c["pass"] for c in results["checks"]),
    }
    return {"dim": args.dim, "ranks": ranks}, results, summary, render_json(pvm_json)


def _cmd_eval(args, seed: int) -> Outcome:
    frame = frame_from_json(_load_json(args.frame))
    if args.pvm is not None:
        pvm = pvm_from_json(_load_json(args.pvm))
        source = {"pvm_file": args.pvm}
    elif args.dim is None:
        raise ValueOutOfRange("eval needs --pvm FILE or --dim (with optional --ranks)")
    else:
        pvm, ranks = _random_pvm(args, seed)
        source = {"dim": args.dim, "ranks": ranks}
    if frame.dim != pvm.dim:
        raise DimensionMismatch(f"frame dim {frame.dim} != PVM dim {pvm.dim}")
    values = frame.values(pvm.stack)
    residual = abs(float(values.sum()) - 1.0)
    results = {
        "values": [
            {"label": label, "value": value}
            for label, value in zip(pvm.labels, values.tolist())
        ],
        "normalization": checked("normalization_residual", residual, TOL.frame),
    }
    summary = {
        "dim": pvm.dim,
        "outcomes": len(pvm),
        "normalization_residual": residual,
        "pass": results["normalization"]["pass"],
    }
    return {"frame_file": args.frame, **source}, results, summary, None


def _cmd_check_marginal(args, seed: int) -> Outcome:
    frame = frame_from_json(_load_json(args.frame))
    if args.dim is not None and args.dim != frame.dim:
        raise DimensionMismatch(f"frame dim {frame.dim} != requested dim {args.dim}")
    cert = certify_marginal(frame)
    cert_json = certificate_to_json(cert)
    results = {"certificate": cert_json}
    if cert.verdict is Verdict.NON_MARGINAL:
        results["witness_text"] = marginality_witness(cert)
    summary = {
        "verdict": cert.verdict.value,
        "linear_residual": cert.linear_residual,
        "min_eig": cert.min_eig,
        "pass": cert.verdict is Verdict.MARGINAL,
    }
    config = {"frame_file": args.frame, "dim": frame.dim}
    return config, results, summary, render_json(cert_json)


def _cmd_reconstruct(args, seed: int) -> Outcome:
    frame = frame_from_json(_load_json(args.frame))
    spanning = spanning_projectors(frame.dim)
    cert = certify_marginal(frame, spanning)
    residual = cert.linear_residual
    results = {
        "rho_hat": matrix_to_json(cert.rho_hat),
        "linear_residual": checked("linear_residual", residual, TOL.lin),
        "spanning_set_id": spanning.set_id,
        "condition_number": spanning.condition_number,
    }
    summary = {
        "dim": frame.dim,
        "linear_residual": residual,
        "consistent": results["linear_residual"]["pass"],
        "pass": results["linear_residual"]["pass"],
    }
    return {"frame_file": args.frame, "dim": frame.dim}, results, summary, None


def _cmd_demo_counterexample(args, seed: int) -> Outcome:
    rng = np.random.default_rng(seed)
    if args.rho_backed:
        frame = BornFrameFunction(random_density_matrix(2, rng))
        expected = Verdict.MARGINAL
    else:
        frame = DeterministicFrameFunction()
        expected = Verdict.NON_MARGINAL
    max_residual = 0.0
    n_pvms = 100
    for _ in range(n_pvms):
        pvm = random_qubit_pvm_pair(rng)
        max_residual = max(max_residual, check_normalization(frame, pvm))
    cert = certify_marginal(frame)
    ok = max_residual <= TOL.frame and cert.verdict is expected
    results = {
        "frame_repr": "born" if args.rho_backed else "deterministic",
        "normalization": {
            "pvms_checked": n_pvms,
            **checked("max_normalization_residual", max_residual, TOL.frame),
        },
        "certificate": certificate_to_json(cert),
    }
    if cert.verdict is Verdict.NON_MARGINAL:
        results["witness_text"] = marginality_witness(cert)
    summary = {
        "verdict": cert.verdict.value,
        "expected_verdict": expected.value,
        "max_normalization_residual": max_residual,
        "pass": ok,
    }
    config = {"rho_backed": bool(args.rho_backed)}
    return config, results, summary, None


def _cmd_demo_intertwine(args, seed: int) -> Outcome:
    n = args.n_psi
    if n < 2:
        raise ValueOutOfRange(f"--n-psi must be >= 2 (at 1, degree n is the bound 1), got {n}")
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(n):
        ket = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        family.append(measurement_family_mpsi(ket / np.linalg.norm(ket)))
    qubit_pvms = [
        pvm_from_unitary(haar_unitary(2, rng), [1, 1]) for _ in range(n)
    ]
    qubit_graph = intertwine_graph(qubit_pvms)
    composite = family + [embed_pvm(m, 2) for m in qubit_pvms]
    graph = intertwine_graph(composite)
    pi_key = projector_key(family[0].stack[0])
    pi_degree = graph.degree(pi_key)
    other_max = max((node.degree for node in graph.nodes if node.key != pi_key), default=0)
    ok = pi_degree == n and qubit_graph.max_degree() <= 1 and other_max <= 1
    results = {
        "qubit_graph": graph_to_json(qubit_graph),
        "composite_graph": graph_to_json(graph),
        "shared_projector_key": pi_key,
    }
    summary = {
        "n_psi": n,
        "shared_projector_degree": pi_degree,
        "qubit_max_degree": qubit_graph.max_degree(),
        "other_composite_max_degree": other_max,
        "pass": ok,
    }
    return {"n_psi": n}, results, summary, None


def _normalization_trial(rng, d, perturb) -> float:
    rho = random_density_matrix(d, rng)
    pvm = pvm_from_unitary(haar_unitary(d, rng), random_rank_partition(d, rng))
    frame = BornFrameFunction(rho)
    total = float(frame.values(pvm.stack).sum()) + perturb
    return abs(total - 1.0)


def _trace_identity_trial(rng, d) -> float:
    rho_ab = random_density_matrix(d * 2, rng)
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    p = projector_from_ket(ket)
    full = InducedFrameFunction(BornFrameFunction(rho_ab), d, 2)(p)
    reduced = BornFrameFunction(partial_trace_b(rho_ab, d, 2))(p)
    return abs(full - reduced)


def _extension_trial(rng, d) -> float:
    rho_f = random_density_matrix(d, rng)
    sigma = random_density_matrix(2, rng)
    projectors = []
    for _ in range(10):
        ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        projectors.append(projector_from_ket(ket))
    pt_err, dev = verify_extension(rho_f, sigma, projectors)
    return max(pt_err, dev)


def _soundness_trial(rng, s) -> tuple[float, bool]:
    rho = random_density_matrix(s.dim, rng)
    cert = certify_marginal(BornFrameFunction(rho), s)
    err = frobenius(cert.rho_hat - rho.matrix)
    return err, cert.verdict is Verdict.MARGINAL


def _run_batteries(dims, trials, rng, perturb) -> list[dict]:
    """Run every battery on every dim, in that order, so the RNG draws
    (battery, then dim, then trial) replay exactly for a fixed seed.

    A battery maps a dim to its trial (soundness looks up its spanning
    set there, once per dim), which returns (residual, marginal); it fails
    when its certificate is not marginal or its residual exceeds the bound.
    """
    table = (
        ("normalization", TOL.frame,
         lambda d: lambda: (_normalization_trial(rng, d, perturb), True)),
        ("embed_trace_identity", 1e-12, lambda d: lambda: (_trace_identity_trial(rng, d), True)),
        ("composite_extension", 1e-12, lambda d: lambda: (_extension_trial(rng, d), True)),
        ("reconstruction_soundness", 1e-9,
         lambda d: functools.partial(_soundness_trial, rng, spanning_projectors(d))),
    )
    batteries = []
    for name, bound, trial_at in table:
        for d in dims:
            trial = trial_at(d)
            failures = 0
            non_marginal = 0
            max_residual = 0.0
            for _ in range(trials):
                residual, marginal = trial()
                max_residual = max(max_residual, residual)
                if not marginal:
                    non_marginal += 1
                if not marginal or residual > bound:
                    failures += 1
            battery = {
                "name": name,
                "dim": d,
                "trials": trials,
                "failures": failures,
                "max_residual": max_residual,
                "tolerance": bound,
                "pass": failures == 0,
            }
            if name == "reconstruction_soundness":
                battery["non_marginal_count"] = non_marginal
            batteries.append(battery)
    return batteries


def _cmd_verify_suite(args, seed: int) -> Outcome:
    dims = args.dims
    trials = args.trials
    if not dims:
        raise ValueOutOfRange("--dims must name at least one dimension")
    if trials < 1:
        raise ValueOutOfRange(f"--trials must be >= 1, got {trials}")
    if not math.isfinite(args.perturb):
        raise ValueOutOfRange(f"--perturb must be finite, got {args.perturb}")
    for d in dims:
        if not 2 <= d <= 8:
            raise ValueOutOfRange(f"--dims entries must be in 2..8, got {d}")
    batteries = _run_batteries(dims, trials, np.random.default_rng(seed), args.perturb)
    failures = sum(b["failures"] for b in batteries)
    total = sum(b["trials"] for b in batteries)
    results = {"batteries": batteries}
    summary = {
        "total_trials": total,
        "total_failures": failures,
        "batteries": len(batteries),
        "pass": failures == 0,
    }
    config = {"dims": list(dims), "trials": trials, "perturb": args.perturb}
    return config, results, summary, None


_HANDLERS = {
    "gen-pvm": _cmd_gen_pvm,
    "eval": _cmd_eval,
    "check-marginal": _cmd_check_marginal,
    "reconstruct": _cmd_reconstruct,
    "demo-counterexample": _cmd_demo_counterexample,
    "demo-intertwine": _cmd_demo_intertwine,
    "verify-suite": _cmd_verify_suite,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = _resolve_seed(args)
        extra, results, summary, artifact_text = _HANDLERS[args.command](args, seed)
        config = {"seed": seed, "format": args.format, "out": args.out,
                  "tolerances": TOL.to_dict(), **extra}
        report = build_report(args.command, config, results, summary)
        rendered = render_report(report, args.format)
        if args.out is not None:
            if artifact_text is None:
                artifact_text = rendered
            write_atomic(artifact_text, args.out)
        sys.stdout.write(rendered)
        if summary["pass"]:
            return EXIT_OK
        if summary.get("verdict") == Verdict.INCONCLUSIVE.value:
            return EXIT_INCONCLUSIVE
        return EXIT_NON_MARGINAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GleasonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
