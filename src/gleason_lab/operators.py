"""Complex matrix algebra foundation: projectors, density matrices,
tensor products, partial traces, Bloch coordinates and Haar unitaries
drawn from an explicit generator.

All public constructors validate their inputs and return immutable
values (numpy arrays are frozen through ``frozen_matrix``), so
every operation here is safe for concurrent use; ``identity`` returns
one cached frozen array per dimension.

The matrices are tiny (dimension <= 64), so a gate's cost is mostly
per-call numpy overhead rather than arithmetic. Each gate here is
written to cost its arithmetic: one finiteness pass, a Frobenius norm
as two real dot products, a tensor product as one broadcast multiply,
the positivity of a product state read from its factors' spectra, and
the finiteness, rank and idempotency of a ket's projector read from the
ket's norm and the projector's trace (within (2d + 4) * 2^-52 of the
computed m @ m - m residual; see projector_from_ket), and the Born
range gate as one min and one max over the values. Every check,
threshold and error class is that of the plain numpy spelling, and every
returned matrix and norm is the same bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    NotHermitian,
    NotIdempotent,
    NotPositive,
    NotUnitTrace,
    ValueOutOfRange,
)
from .tolerances import MAX_COMPOSITE_DIM, TOL


def frozen_matrix(m: np.ndarray) -> np.ndarray:
    """Defensive C-contiguous copy with the write flag cleared; the dtype
    is kept, so real arrays stay real."""
    out = np.array(m, order="C", copy=True)
    out.setflags(write=False)
    return out


PAULI_X = frozen_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = frozen_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = frozen_matrix(np.array([[1, 0], [0, -1]], dtype=complex))


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueOutOfRange(f"{name} contains non-finite entries")
    return arr


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a matrix (Euclidean norm of a vector): the sum
    np.linalg.norm computes, bit for bit, without its dispatch."""
    x = np.asarray(m).ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2, removing round-off asymmetry before eigensolves."""
    return 0.5 * (m + m.conj().T)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a square complex matrix its caller has
    already found Hermitian; the Hermitization drops round-off asymmetry
    and leaves an exactly Hermitian matrix unchanged."""
    return float(np.linalg.eigvalsh(hermitize(h))[0])


def _hermitian(m: np.ndarray) -> np.ndarray:
    """The one Hermitian gate: reject a Frobenius Hermiticity residual
    above TOL.herm."""
    res = frobenius(m - m.conj().T)
    if res > TOL.herm:
        raise NotHermitian(res)
    return m


def _square_hermitian(matrix, what: str) -> np.ndarray:
    """Coerce, require a square shape, then the Hermitian gate."""
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {m.shape}")
    return _hermitian(m)


@functools.cache
def identity(dim: int) -> np.ndarray:
    """The d x d complex identity: one frozen array per dimension, shared
    by every caller."""
    return frozen_matrix(np.eye(dim, dtype=complex))


@dataclass(frozen=True, eq=False)
class Projector:
    """Validated Hermitian idempotent on a d-dimensional space."""

    dim: int
    matrix: np.ndarray
    rank: int


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated non-negative unit-trace Hermitian operator."""

    dim: int
    matrix: np.ndarray


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector of qubit Pauli expectations; may lie outside the ball."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise ValueOutOfRange("Bloch components must be finite")

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _projector(m: np.ndarray, idempotency_residual) -> Projector:
    """The projector gate shared by make_projector and
    projector_from_ket, on a matrix that has passed the Hermitian gate:
    idempotency, then rank. The Frobenius residual of m @ m - m is taken
    from idempotency_residual(m, trace) and rejected above TOL.proj. That
    gate pins every eigenvalue within roughly the residual of {0, 1}, so
    the rank (the count of eigenvalues near 1) equals the rounded trace;
    the trace is what gets computed.
    """
    d = m.shape[0]
    trace = float(m.trace().real)
    res_p = idempotency_residual(m, trace)
    if res_p > TOL.proj:
        raise NotIdempotent(res_p)
    rank = int(round(trace))
    if not 0 <= rank <= d or abs(trace - rank) > d * TOL.eig:
        raise NotIdempotent(res_p)
    return Projector(dim=d, matrix=frozen_matrix(m), rank=rank)


def _product_residual(m: np.ndarray, trace: float) -> float:
    return frobenius(m @ m - m)


def _ket_residual(m: np.ndarray, trace: float) -> float:
    """||m @ m - m|| for m = w w†: m @ m = t m with t = ||w||^2 = Tr m,
    so the residual is |t - 1| * t."""
    return abs(trace - 1.0) * trace


def make_projector(matrix) -> Projector:
    """Validate a matrix as a projector and compute its rank.

    Raises NotHermitian or NotIdempotent with the offending Frobenius
    residual, in that order.
    """
    return _projector(_square_hermitian(matrix, "projector matrix"), _product_residual)


def projector_from_ket(ket) -> Projector:
    """Rank-1 projector |psi><psi| from a (not necessarily normalized) vector.

    A finite ket whose squared norm overflows to inf or underflows to 0
    is first divided by its largest real or imaginary component, so a
    non-zero ket never yields a rank-0 projector; other kets are divided
    by their norm alone.

    The gates are make_projector's, with two read from the ket. After
    the rescale, the norm is finite exactly when every entry is, so a
    non-finite norm raises ValueOutOfRange as a non-finite entry of the
    matrix would. For m = w w† (w the unit ket, t = Tr m = ||w||^2),
    m @ m - m = (t - 1) m has Frobenius norm |t - 1| * t, which stands
    in for the computed residual: the two differ by at most
    (2d + 4) * 2^-52 on the stored matrix (below 3e-14 at d = 64,
    against TOL.proj = 1e-10). The Hermitian gate still runs on the
    built matrix, whose complex products leave m - m† non-zero.
    """
    v = np.asarray(ket, dtype=complex).reshape(-1)
    n = frobenius(v)
    if n == 0 or n == math.inf:
        x = np.ascontiguousarray(v).view(np.float64)
        s = float(np.abs(x).max(initial=0.0))
        if 0.0 < s < math.inf:
            v = (x / s).view(complex)
            n = frobenius(v)
    if n == 0:
        raise ValueOutOfRange("cannot project onto the zero vector")
    if not n < math.inf:
        raise ValueOutOfRange("matrix contains non-finite entries")
    v = v / n
    return _projector(_hermitian(v[:, None] * v.conj()[None, :]), _ket_residual)


def _density(matrix, smallest_eigenvalue) -> DensityMatrix:
    """The density gate shared by make_density and
    marginality.extend_to_composite: Hermitian residual, then unit
    trace, then positivity, with the smallest eigenvalue taken from
    smallest_eigenvalue(m) once the first two gates have passed."""
    m = _square_hermitian(matrix, "density matrix")
    tr = complex(m.trace())
    if abs(tr - 1.0) > TOL.tr:
        raise NotUnitTrace(tr)
    low = smallest_eigenvalue(m)
    if low < -TOL.psd:
        raise NotPositive(low)
    return DensityMatrix(dim=m.shape[0], matrix=frozen_matrix(m))


def make_density(matrix) -> DensityMatrix:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    return _density(matrix, min_eigenvalue)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with subsystem-A-major index convention:
    row (i_a, i_b) maps to i_a * rows_b + i_b. Results larger than
    MAX_COMPOSITE_DIM raise DimensionOverflow.

    One broadcast multiply, entry (i, k, j, l) = a_ij * b_kl, reshaped
    to (i, k) x (j, l): the products np.kron forms, bit for bit.
    """
    ma = as_complex_matrix(a, "tensor operand a")
    mb = as_complex_matrix(b, "tensor operand b")
    rows = ma.shape[0] * mb.shape[0]
    cols = ma.shape[1] * mb.shape[1]
    if max(rows, cols) > MAX_COMPOSITE_DIM:
        raise DimensionOverflow(max(rows, cols), MAX_COMPOSITE_DIM)
    return (ma[:, None, :, None] * mb[None, :, None, :]).reshape(rows, cols)


def partial_trace_b(rho_ab: DensityMatrix, dim_a: int, dim_b: int) -> DensityMatrix:
    """Reduced state of subsystem A: (Tr_B rho)_ij = sum_k rho_(i,k),(j,k)."""
    if rho_ab.dim != dim_a * dim_b:
        raise DimensionMismatch(
            f"composite dimension {rho_ab.dim} is not dim_a * dim_b = {dim_a * dim_b}"
        )
    m = rho_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    return make_density(np.einsum("ikjk->ij", m))


def projector_stack(projectors, dim: int) -> np.ndarray:
    """The matrices of projectors on C^dim as one frozen (n, dim, dim)
    array; an empty list gives shape (0, dim, dim)."""
    for p in projectors:
        if p.dim != dim:
            raise DimensionMismatch(f"projector dim {p.dim} != expected dim {dim}")
    stack = np.array([p.matrix for p in projectors], dtype=complex)
    return frozen_matrix(stack.reshape(len(projectors), dim, dim))


def born_values(stack: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    """Tr(P_n rho) for every matrix of an (n, d, d) stack, clamped into
    [0, 1] after an epsilon sanity check on the whole vector.

    The contraction sum_ij P_ij rho_ji (einsum "nij,ji->n") runs as one
    matrix-vector product of the flattened stack with vec(rho^T), which
    BLAS does several times faster than einsum's generic loop.

    The gates are two reductions, the largest |Im t| and then the least
    and greatest value (a NaN fails); the mask naming the first offender
    is built only to raise. np.clip runs only on a value outside [0, 1];
    otherwise a copy gives np.clip's bits, -0.0 included.
    """
    d = rho.dim
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise DimensionMismatch(f"projectors of shape {stack.shape[1:]} != state dim {d}")
    t = stack.reshape(len(stack), d * d) @ rho.matrix.T.reshape(d * d)
    imag = float(np.abs(t.imag).max(initial=0.0))
    if imag > TOL.herm:
        raise ValueOutOfRange(f"Born trace has imaginary residual {imag:.3e}")
    vals = t.real
    lo, hi = vals.min(initial=0.0), vals.max(initial=1.0)
    if not (lo >= -TOL.prob and hi <= 1.0 + TOL.prob):
        bad = ~((vals >= -TOL.prob) & (vals <= 1.0 + TOL.prob))
        raise ValueOutOfRange(f"Born value {vals[bad][0]} outside [0, 1] beyond tolerance")
    return np.clip(vals, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else vals.copy()


def born_probability(p: Projector, rho: DensityMatrix) -> float:
    """Tr(P rho) for one projector: born_values on a stack of one."""
    return float(born_values(p.matrix[np.newaxis], rho)[0])


def bloch_of_matrix(m: np.ndarray) -> BlochVector:
    """Pauli expectations of an arbitrary 2x2 Hermitian matrix (no
    positivity assumed, e.g. reconstruction candidates)."""
    arr = as_complex_matrix(m)
    if arr.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {arr.shape}")
    return BlochVector(
        x=float(np.trace(arr @ PAULI_X).real),
        y=float(np.trace(arr @ PAULI_Y).real),
        z=float(np.trace(arr @ PAULI_Z).real),
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary drawn from an explicit generator.

    QR of a complex Ginibre matrix; the triangular factor's diagonal is
    rephased to be real-positive, which removes the QR gauge bias.
    Dimensions above MAX_COMPOSITE_DIM raise DimensionOverflow before
    anything is drawn.
    """
    if dim < 1:
        raise ValueOutOfRange(f"dimension must be >= 1, got {dim}")
    if dim > MAX_COMPOSITE_DIM:
        raise DimensionOverflow(dim, MAX_COMPOSITE_DIM)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state G G† / Tr(G G†) from a complex Ginibre draw."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return make_density(m / np.trace(m).real)
