"""Seeded raw inputs for the benchmark workloads, made with plain numpy.

Nothing here imports gleason_lab: the program under test receives only
the arrays, kets, seeds and JSON files generated here. Ops come in
blocks; block ``k`` of a workload draws from ``default_rng([seed, k])``,
so any block can be regenerated on its own and the same seed always
yields the same op stream. Every block holds the workload's exact mix by
count, shuffled, so throughput does not drift with the mix.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# certify-mix kinds and their count per 100-op block. d = 8, the slowest
# kind, holds 12 % so that p90 falls inside its latencies, not on the
# edge between it and the next kind, where it would jump between them.
CERTIFY_MIX = {
    "born2": 28,
    "born3": 20,
    "born4": 15,
    "born8": 12,
    "deterministic": 5,
    "definite_xz": 5,
    "non_psd3": 5,
    "inconsistent4": 5,
    "near_boundary3": 5,
}
CERTIFY_DIMS = (2, 3, 4, 8)
AUDIT_PVMS = 3

# extension-mix (d_a, d_b) pairs; each block holds every pair equally often.
EXTENSION_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 8), (8, 8))
EXTENSION_REPEATS = 10
EXTENSION_KETS = 20

NEAR_BOUNDARY_EIG = -1e-7


def _rng(seed: int, stream: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, block])


def ginibre_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def rank_partition(rng: np.random.Generator, d: int) -> list[int]:
    parts = []
    remaining = d
    while remaining > 0:
        r = int(rng.integers(1, remaining + 1))
        parts.append(r)
        remaining -= r
    return parts


def spanning_kets(d: int) -> np.ndarray:
    """Unit kets of the d >= 3 spanning set, in the program's documented
    order: e_i, then (e_i + e_j), (e_i - e_j), (e_i + i e_j), (e_i - i e_j)
    for each pair i < j, j ascending."""
    eye = np.eye(d, dtype=complex)
    kets = [eye[i] for i in range(d)]
    for j in range(1, d):
        for i in range(j):
            for s in (1.0, -1.0, 1j, -1j):
                kets.append((eye[i] + s * eye[j]) / math.sqrt(2))
    return np.array(kets)


def _table_values(kets: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ij,kj->k", kets.conj(), h, kets).real


def _values_in_unit_interval(rng, kets, make_h, noise: float = 0.0) -> np.ndarray:
    """Rejection-sample a table whose every value lies in [0, 1].

    Clamping out-of-range values would change which check the table
    fails, so out-of-range draws are redrawn instead.
    """
    while True:
        values = _table_values(kets, make_h(rng))
        if noise:
            values = values + noise * rng.standard_normal(values.shape)
        if np.all((values >= 0.0) & (values <= 1.0)):
            return values


def _spectrum_state(rng, d: int, lowest: float) -> np.ndarray:
    """Unit-trace Hermitian matrix with smallest eigenvalue ``lowest``."""
    rest = rng.uniform(0.2, 1.0, d - 1)
    rest = rest * (1.0 - lowest) / rest.sum()
    u = haar(rng, d)
    return (u * np.concatenate([[lowest], rest])) @ u.conj().T


def certify_block(seed: int, block: int) -> list[dict]:
    rng = _rng(seed, 1, block)
    kinds = [k for k, n in CERTIFY_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    kets = {3: spanning_kets(3), 4: spanning_kets(4)}
    ops = []
    for kind in kinds:
        op: dict = {"kind": kind}
        if kind.startswith("born"):
            d = int(kind[4:])
            op["rho"] = ginibre_density(rng, d)
            op["audit"] = [(haar(rng, d), rank_partition(rng, d)) for _ in range(AUDIT_PVMS)]
        elif kind == "deterministic":
            op["audit_seeds"] = [int(s) for s in rng.integers(0, 2**63, AUDIT_PVMS)]
        elif kind == "non_psd3":
            op["values"] = _values_in_unit_interval(
                rng, kets[3], lambda r: _spectrum_state(r, 3, -r.uniform(0.01, 0.1))
            )
        elif kind == "inconsistent4":
            op["values"] = _values_in_unit_interval(
                rng, kets[4], lambda r: ginibre_density(r, 4), noise=0.02
            )
        elif kind == "near_boundary3":
            op["values"] = _values_in_unit_interval(
                rng, kets[3], lambda r: _spectrum_state(r, 3, NEAR_BOUNDARY_EIG)
            )
        ops.append(op)
    return ops


def extension_block(seed: int, block: int) -> list[dict]:
    rng = _rng(seed, 2, block)
    pairs = [p for p in EXTENSION_PAIRS for _ in range(EXTENSION_REPEATS)]
    order = rng.permutation(len(pairs))
    ops = []
    for i in order:
        d_a, d_b = pairs[i]
        ops.append({
            "kind": f"ext{d_a}x{d_b}",
            "rho": ginibre_density(rng, d_a),
            "sigma": ginibre_density(rng, d_b),
            "kets": rng.standard_normal((EXTENSION_KETS, d_a))
            + 1j * rng.standard_normal((EXTENSION_KETS, d_a)),
        })
    return ops


def digest_ops(ops: list[dict], h=None):
    """Fold a list of ops into a sha256 over kinds and raw array bytes."""
    h = h or hashlib.sha256()
    for op in ops:
        for key in sorted(op):
            value = op[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value).tobytes())
            elif key == "audit":
                for u, parts in value:
                    h.update(np.ascontiguousarray(u).tobytes())
                    h.update(repr(parts).encode())
            else:
                h.update(repr(value).encode())
    return h


# ---- cli-cycle input files --------------------------------------------------

def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _born_json(rho: np.ndarray) -> dict:
    return {"dim": int(rho.shape[0]), "repr": "born", "rho": _matrix_json(rho)}


def _axis_projector(bloch) -> np.ndarray:
    x, y, z = bloch
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def write_cli_inputs(seed: int, directory: str) -> dict[str, str]:
    """Write the cli-cycle input files and return their paths by role."""
    rng = _rng(seed, 3, 0)
    axes = {
        (1.0, 0.0, 0.0): 1.0, (-1.0, 0.0, 0.0): 0.0,
        (0.0, 1.0, 0.0): 0.5, (0.0, -1.0, 0.0): 0.5,
        (0.0, 0.0, 1.0): 1.0, (0.0, 0.0, -1.0): 0.0,
    }
    rho3 = ginibre_density(rng, 3)
    kets3 = spanning_kets(3)[:5]  # a strict subset of the d = 3 spanning set
    u4 = haar(rng, 4)
    payloads = {
        "born2": _born_json(ginibre_density(rng, 2)),
        "born4": _born_json(ginibre_density(rng, 4)),
        "born8": _born_json(ginibre_density(rng, 8)),
        "deterministic": {"dim": 2, "repr": "deterministic", "rule": "lex-zxy"},
        "definite_xz": {"dim": 2, "repr": "table", "entries": [
            {"projector": _matrix_json(_axis_projector(b)), "value": v}
            for b, v in axes.items()
        ]},
        "missing": {"dim": 3, "repr": "table", "entries": [
            {"projector": _matrix_json(np.outer(k, k.conj())),
             "value": float(np.real(k.conj() @ rho3 @ k))}
            for k in kets3
        ]},
        "pvm4": {"dim": 4, "labels": [f"o{i}" for i in range(4)], "elements": [
            _matrix_json(np.outer(u4[:, i], u4[:, i].conj())) for i in range(4)
        ]},
    }
    paths = {}
    for role, payload in payloads.items():
        path = os.path.join(directory, f"{role}.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        paths[role] = path
    return paths


def digest_files(paths: dict[str, str]) -> str:
    h = hashlib.sha256()
    for role in sorted(paths):
        h.update(role.encode())
        with open(paths[role], "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()
