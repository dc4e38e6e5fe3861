import numpy as np
import pytest

from gleason_lab.operators import PAULI_X, PAULI_Y, PAULI_Z, Projector, make_projector


def random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rank1_projector(dim: int, rng: np.random.Generator) -> Projector:
    v = random_ket(dim, rng)
    return make_projector(np.outer(v, v.conj()))


def frobenius_oracle(m: np.ndarray) -> float:
    """Entrywise Frobenius norm, written out longhand."""
    total = 0.0
    for row in np.asarray(m):
        for entry in row:
            total += abs(entry) ** 2
    return total ** 0.5


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Explicit triple-loop matrix product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0 + 0.0j
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def bloch_oracle(m: np.ndarray) -> tuple[float, float, float]:
    """Bloch coordinates in the trace spelling, Tr(M sigma_k).real."""
    return tuple(float(np.trace(m @ p).real) for p in (PAULI_X, PAULI_Y, PAULI_Z))


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Explicit index-summation Kronecker product, A-major convention."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m: np.ndarray, da: int, db: int) -> np.ndarray:
    """Explicit summation (Tr_B m)_ij = sum_k m_(i,k),(j,k)."""
    out = np.zeros((da, da), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                out[i, j] += m[i * db + k, j * db + k]
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
