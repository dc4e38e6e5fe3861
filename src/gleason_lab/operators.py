"""Complex matrix algebra foundation: projectors, density matrices,
tensor products, partial traces, Bloch coordinates and Haar unitaries
drawn from an explicit generator.

All public constructors validate their inputs and return immutable
values, so every operation here is safe for concurrent use. The freeze
rule has one way per kind of array: ``frozen_matrix`` copies caller
data, and ``_frozen`` freezes in place an array the library built
(``identity``, the Pauli constants, stacks, spectra, fits).
``identity`` returns one cached frozen array per dimension.

The matrices are tiny (dimension <= 64), so a gate's cost is mostly
per-call numpy overhead rather than arithmetic. Each gate here is
written to cost its arithmetic: one finiteness pass, a Frobenius norm
as two real dot products, a tensor product as one broadcast multiply,
a state's Hermitian residual, trace and spectrum kept from its gates,
a ket projector's gates decided by one proved bound on its trace that
the fixed TOL meets at every ket length (so no trace or gate is
computed; see projector_from_ket), and the Born range gate as
one min and one max over the values. Every check, threshold and error
class is that of the plain numpy spelling, and every returned matrix
and norm is the same bit for bit; a reduced or product state is gated
through the state it comes from.

Every record of the library, the four built-in frame kinds included,
is a slotted ``_Record`` that sets its fields once in an explicit
``__init__``, so the import generates no code; ``__match_args__``
lists the constructor's arguments. Assignment and deletion raise
dataclasses.FrozenInstanceError, ``repr`` is the dataclass text, pickle
and copy rebuild a record through its constructor, and records compare
by identity, ``_Value`` records (Bloch vectors, graph nodes, Bloch and
residual witnesses) by their fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError

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

_U = 2.0**-53   # unit round-off of double precision


def frozen_matrix(m: np.ndarray) -> np.ndarray:
    """Defensive C-contiguous copy with the write flag cleared; the dtype
    is kept, so real arrays stay real."""
    out = np.array(m, order="C", copy=True)
    out.setflags(write=False)
    return out


def _frozen(m: np.ndarray) -> np.ndarray:
    """Freeze in place a C-contiguous array built here; caller data goes
    through frozen_matrix."""
    m.setflags(write=False)
    return m


PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


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


def _square_hermitian(matrix, what: str) -> tuple[np.ndarray, float]:
    """Coerce, require a square shape and freeze a copy, then the
    Hermitian gate on that copy: reject a Frobenius Hermiticity residual
    above TOL.herm. Returns the frozen copy and its residual, so the
    gate's figure is that of the stored matrix."""
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {m.shape}")
    m = frozen_matrix(m)
    res = frobenius(m - m.conj().T)
    if res > TOL.herm:
        raise NotHermitian(res)
    return m, res


@functools.cache
def identity(dim: int) -> np.ndarray:
    """The d x d complex identity: one frozen array per dimension, shared
    by every caller."""
    return _frozen(np.eye(dim, dtype=complex))


class _Record:
    """Immutable slotted record (the record rule is in the module docstring)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class _Value(_Record):
    """A record that compares and hashes by its fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


class Projector(_Record):
    """Validated Hermitian idempotent on a d-dimensional space."""

    __slots__ = __match_args__ = ("dim", "matrix", "rank")

    def __init__(self, dim: int, matrix: np.ndarray, rank: int):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rank", rank)


class DensityMatrix(_Record):
    """Validated non-negative unit-trace Hermitian operator.

    Three figures of the matrix are kept once computed: ``spectrum``,
    the ascending eigvalsh(hermitize(matrix)); ``hermitian_residual``,
    frobenius(matrix - matrix†); and ``trace``, complex(matrix.trace()).
    make_density's gates compute all three and the state keeps them; a
    state built directly, reduced or a product measures each when first
    read. Two threads that read one first at once may each compute it;
    both keep the same bits.
    """

    __slots__ = ("dim", "matrix", "_spectrum", "_hermitian_residual", "_trace")
    __match_args__ = ("dim", "matrix")

    def __init__(self, dim: int, matrix: np.ndarray):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_spectrum", None)
        object.__setattr__(self, "_hermitian_residual", None)
        object.__setattr__(self, "_trace", None)

    @property
    def spectrum(self) -> np.ndarray:
        s = self._spectrum
        if s is None:
            s = _frozen(np.linalg.eigvalsh(hermitize(self.matrix)))
            object.__setattr__(self, "_spectrum", s)
        return s

    @property
    def hermitian_residual(self) -> float:
        r = self._hermitian_residual
        if r is None:
            m = self.matrix
            r = frobenius(m - m.conj().T)
            object.__setattr__(self, "_hermitian_residual", r)
        return r

    @property
    def trace(self) -> complex:
        t = self._trace
        if t is None:
            t = complex(self.matrix.trace())
            object.__setattr__(self, "_trace", t)
        return t


class BlochVector(_Value):
    """Real 3-vector of qubit Pauli expectations; may lie outside the ball."""

    __slots__ = __match_args__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        for c in (x, y, z):
            if not math.isfinite(c):
                raise ValueOutOfRange("Bloch components must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def make_projector(matrix) -> Projector:
    """Validate a matrix as a projector and compute its rank.

    Raises NotHermitian or NotIdempotent with the offending Frobenius
    residual, in that order. A residual of m @ m - m within TOL.proj pins
    every eigenvalue within roughly it of {0, 1}, so the rank (the count
    of eigenvalues near 1) is the trace rounded, within d * TOL.eig.
    """
    m, _ = _square_hermitian(matrix, "projector matrix")
    res_p = frobenius(m @ m - m)
    if res_p > TOL.proj:
        raise NotIdempotent(res_p)
    d, trace = m.shape[0], float(m.trace().real)
    rank = int(round(trace))
    if not 0 <= rank <= d or abs(trace - rank) > d * TOL.eig:
        raise NotIdempotent(res_p)
    return Projector(dim=d, matrix=m, rank=rank)


def projector_from_ket(ket) -> Projector:
    """Rank-1 projector |psi><psi| from a (not necessarily normalized) vector.

    A finite ket whose squared norm overflows to inf or underflows below
    2^-1022 (where it loses precision) is first divided by its largest
    real or imaginary component, so a non-zero ket always yields the
    rank-1 projector; other kets are divided by their norm alone. After
    the rescale, the norm is finite exactly when every entry is, so a
    non-finite norm raises ValueOutOfRange as a non-finite entry of the
    matrix would. A ket longer than MAX_COMPOSITE_DIM raises
    DimensionOverflow before anything is computed.

    The gates are make_projector's, read from the unit ket w and
    t = Tr m for m = w w†. Each stored entry is within sqrt(2) gamma_2
    |w_i| |w_j| of w_i w_j* (Higham, Accuracy and Stability, Lemma 3.5;
    gamma_k = k u / (1 - k u), u = 2^-53), so the Hermitian residual is
    at most 2 sqrt(2) gamma_2 ||w||^2 <= 8u t, the Hermitian gate's
    figure (about 1e-15, against TOL.herm = 1e-10). m @ m - m = (t - 1) m
    has Frobenius norm |t - 1| t, the idempotency gate's figure: it is
    within (2d + 4) 2^-52 of the residual computed on the stored matrix.
    The rank is round(t).

    One bound decides those gates. For a ket of length d,

        |t - 1| <= B = 8 (d + 4) u.

    To first order, t departs from 1 by the relative errors of the two
    dot products of the norm and their sum, (d + 1) u; its square root,
    2u on n^2; each real component of w, the component times the
    rounded 1/n (numpy's complex division by a real scalar; 1/n is
    normal as 2^-511 <= n <= 2^512), 2u on |w_c| and so 4u on ||w||^2;
    and the diagonal products and the trace's sum, (d + 1) u. Underflow
    of the norm's squares adds at most d 2^-1074 to n^2, which is at
    least 2^-1022 (1 - 2u) on the plain branch, a relative 2 d u; after
    the rescale the ket has a unit entry, and underflow in w and in the
    diagonal adds below d 2^-1070 to t. The first-order sum is
    (4d + 8) u <= B/2, so while B <= 1/4 the higher-order terms keep
    |t - 1| below 5 (d + 2) u <= 5B/8. Hence, when 8u (1 + B) <=
    TOL.herm, B (1 + B) <= TOL.proj and B <= min(1/4, d TOL.eig):
    8u t is exact and at most 8u (1 + B); |t - 1| is exact and its
    rounded product with t is below the computed B (1 + B); and t rounds
    to 1 within B. Every gate passes with rank 1, so neither the trace
    nor a gate is computed. Under TOL every d <= 64 meets the three
    conditions (a tier-1 test checks this).
    """
    v = np.asarray(ket, dtype=complex).reshape(-1)
    if len(v) > MAX_COMPOSITE_DIM:
        raise DimensionOverflow(len(v), MAX_COMPOSITE_DIM)
    n = frobenius(v)
    if n < 2.0**-511 or n == math.inf:
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
    return Projector(len(v), _frozen(v[:, None] * v.conj()[None, :]), 1)


def make_density(matrix) -> DensityMatrix:
    """Validate Hermiticity, unit trace and positivity of a density
    matrix, in that order; the state keeps the Hermitian residual, the
    trace and the spectrum its gates computed."""
    m, res = _square_hermitian(matrix, "density matrix")
    tr = complex(m.trace())
    if abs(tr - 1.0) > TOL.tr:
        raise NotUnitTrace(tr)
    state = DensityMatrix(m.shape[0], m)
    object.__setattr__(state, "_hermitian_residual", res)
    object.__setattr__(state, "_trace", tr)
    if state.spectrum[0] < -TOL.psd:
        raise NotPositive(float(state.spectrum[0]))
    return state


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
    """Reduced state of subsystem A: (Tr_B rho)_ij = sum_k rho_(i,k),(j,k),
    not gated again: the partial trace keeps Hermiticity, trace and
    positivity, so a gate could only refuse the reduction of a state."""
    if rho_ab.dim != dim_a * dim_b:
        raise DimensionMismatch(
            f"composite dimension {rho_ab.dim} is not dim_a * dim_b = {dim_a * dim_b}"
        )
    m = rho_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    return DensityMatrix(dim=dim_a, matrix=_frozen(np.einsum("ikjk->ij", m)))


def projector_stack(projectors, dim: int) -> np.ndarray:
    """The matrices of projectors on C^dim as one frozen (n, dim, dim)
    array; an empty list gives shape (0, dim, dim)."""
    for p in projectors:
        if p.dim != dim:
            raise DimensionMismatch(f"projector dim {p.dim} != expected dim {dim}")
    stack = np.array([p.matrix for p in projectors], dtype=complex)
    return _frozen(stack.reshape(len(projectors), dim, dim))


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
