"""certify-mix and extension-mix: in-process ops, their oracles and runs.

Each op runs the program on one generated input; ``check`` then tests
the result against an oracle outside the timed region. One caller issues
ops in a closed loop: the next op starts only when the previous one has
returned.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
import stats
from tracer import Tracer

# Blocks generated before set-up. A traced run executes exactly these ops,
# and the input digest covers them, so both repeat for a given seed.
PREFIX_BLOCKS = 10
SETUP_SAMPLES = 7
FAST_SHARE = 0.05  # fastest share of each op kind timed; see stats.fastest_per_kind

RECON_BOUND = 1e-9       # Frobenius distance of rho_hat from the generating rho
AUDIT_BOUND = 1e-9       # normalization residual on an audited PVM
WITNESS_BOUND = 1e-9     # Bloch-norm slack for the qubit witnesses
EXTENSION_BOUND = 1e-12  # partial-trace error and embedding deviation


class CertifyMix:
    """Validate a raw input into a frame function, audit its
    normalization on random PVMs when it is defined everywhere, then
    certify it against a spanning set built in set-up."""

    name = "certify-mix"

    def load(self):
        self.gl = importlib.import_module("gleason_lab")

    def prepare(self):
        self.spanning = {d: self.gl.spanning_projectors(d) for d in inputs.CERTIFY_DIMS}

    @staticmethod
    def block(seed: int, k: int) -> list[dict]:
        return inputs.certify_block(seed, k)

    def execute(self, op: dict):
        gl = self.gl
        kind = op["kind"]
        audits = []
        if kind.startswith("born"):
            f = gl.born_backed(gl.make_density(op["rho"]))
            for u, parts in op["audit"]:
                audits.append(gl.check_normalization(f, gl.pvm_from_unitary(u, parts)))
        elif kind == "deterministic":
            f = gl.deterministic_qubit()
            for s in op["audit_seeds"]:
                pvm = gl.random_qubit_pvm_pair(np.random.default_rng(s))
                audits.append(gl.check_normalization(f, pvm))
        elif kind == "definite_xz":
            f = gl.definite_xz_table()
        else:
            d = 4 if kind == "inconsistent4" else 3
            f = gl.tabulated(list(zip(self.spanning[d].projectors, op["values"])))
        return audits, gl.certify_marginal(f, self.spanning[f.dim])

    def check(self, op: dict, result) -> bool:
        gl = self.gl
        audits, cert = result
        if any(r > AUDIT_BOUND for r in audits):
            return False
        kind = op["kind"]
        if kind.startswith("born"):
            err = float(np.linalg.norm(cert.rho_hat - op["rho"], "fro"))
            return cert.verdict is gl.Verdict.MARGINAL and err <= RECON_BOUND
        if kind == "near_boundary3":
            return cert.verdict is gl.Verdict.INCONCLUSIVE
        if cert.verdict is not gl.Verdict.NON_MARGINAL:
            return False
        w = cert.witness
        if kind in ("deterministic", "definite_xz"):
            expected = math.sqrt(3) if kind == "deterministic" else math.sqrt(2)
            return isinstance(w, gl.BlochWitness) and abs(w.norm - expected) <= WITNESS_BOUND
        if kind == "non_psd3":
            return isinstance(w, gl.EigenWitness)
        return isinstance(w, gl.ResidualWitness)


class ExtensionMix:
    """Validate rho and sigma from raw matrices, build rank-1 projectors
    from raw kets, then check the product extension rho x sigma."""

    name = "extension-mix"

    def load(self):
        self.gl = importlib.import_module("gleason_lab")

    def prepare(self):
        pass

    @staticmethod
    def block(seed: int, k: int) -> list[dict]:
        return inputs.extension_block(seed, k)

    def execute(self, op: dict):
        gl = self.gl
        rho = gl.make_density(op["rho"])
        sigma = gl.make_density(op["sigma"])
        projectors = [gl.projector_from_ket(k) for k in op["kets"]]
        return gl.verify_extension(rho, sigma, projectors)

    def check(self, op: dict, result) -> bool:
        pt_err, dev = result
        return pt_err <= EXTENSION_BOUND and dev <= EXTENSION_BOUND


WORKLOADS = {w.name: w for w in (CertifyMix, ExtensionMix)}


def timed_setup(name: str) -> tuple[object, float]:
    """Import the program and build what the workload needs up front."""
    workload = WORKLOADS[name]()
    t0 = time.perf_counter()
    workload.load()
    workload.prepare()
    return workload, time.perf_counter() - t0


def _setup_in_fresh_process(name: str, bench_dir: str, src_dir: str) -> float:
    code = (
        f"import sys; sys.path[:0] = [{bench_dir!r}, {src_dir!r}]; import inproc; "
        f"print(inproc.timed_setup({name!r})[1])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip())


def _run_ops(workload, ops, first_id: int, tracer: Tracer | None = None):
    """Execute ops one after another; return (latencies, passed, errors)."""
    latencies = []
    passed = 0
    errors = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_id + i
        t0 = time.perf_counter()
        try:
            result = workload.execute(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latencies.append(time.perf_counter() - t0)
            errors.append(f"{op['kind']}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - t0)
        if workload.check(op, result):
            passed += 1
        else:
            errors.append(f"{op['kind']}: oracle failed")
    return latencies, passed, errors


def run(name: str, seed: int, seconds: float, trace: bool, bench_dir: str, src_dir: str):
    cls = WORKLOADS[name]
    prefix = [cls.block(seed, k) for k in range(PREFIX_BLOCKS)]
    digest = inputs.digest_ops([op for block in prefix for op in block]).hexdigest()
    detail = {"input_digest": digest, "prefix_ops": sum(len(b) for b in prefix)}
    if trace:
        return _traced(name, prefix, detail)

    # Set-up is repeated in fresh processes spread over the run, so the
    # median does not hang on the host's speed in one short spell.
    workload, first_setup = timed_setup(name)
    setups = [first_setup]
    by_kind: dict[str, list[float]] = {}
    errors = []
    attempted = passed = blocks = 0
    elapsed = 0.0
    while elapsed < seconds:
        ops = prefix[blocks] if blocks < len(prefix) else cls.block(seed, blocks)
        lat, block_passed, errs = _run_ops(workload, ops, attempted)
        for op, t in zip(ops, lat):
            by_kind.setdefault(op["kind"], []).append(t)
        elapsed += sum(lat)
        blocks += 1
        errors += errs
        attempted += len(ops)
        passed += block_passed
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(_setup_in_fresh_process(name, bench_dir, src_dir))
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_in_fresh_process(name, bench_dir, src_dir))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rate, latencies = stats.fastest_per_kind(by_kind, passed / attempted, FAST_SHARE)
    metrics = stats.end_to_end(rate, latencies, setups, peak_mb)
    detail.update(timed_ops=len(latencies),
                  all_ops_per_s=passed / elapsed,
                  median_ms_by_kind={k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
                  setup_samples_s=setups, errors=errors[:20],
                  failed_share=len(errors) / attempted)
    return attempted, len(errors), metrics, detail


def _traced(name: str, prefix: list, detail: dict):
    """Untraced then traced pass over the prefix ops, after one set-up
    whose spanning-set builds are traced as op -1."""
    ops = [op for block in prefix for op in block]
    workload = WORKLOADS[name]()
    workload.load()
    tracer = Tracer()
    tracer.start()
    try:
        workload.prepare()
    finally:
        tracer.stop()
    plain_lat, _, errors = _run_ops(workload, ops, 0)
    tracer.start()
    try:
        traced_lat, _, traced_errors = _run_ops(workload, ops, 0, tracer)
    finally:
        tracer.stop()
    errors += traced_errors
    metrics = stats.per_layer(tracer.layer_metrics())
    metrics.update(stats.idle_process_metrics())
    metrics["trace.overhead_ratio"] = sum(traced_lat) / sum(plain_lat)
    attempted = 2 * len(ops)
    detail.update(spans=len(tracer.spans), errors=errors[:20],
                  failed_share=len(errors) / attempted)
    return attempted, len(errors), metrics, detail
