"""Complex matrix algebra foundation: projectors, density matrices,
tensor products, partial traces, Bloch coordinates and Haar unitaries
drawn from an explicit generator.

All public constructors validate their inputs and return immutable
values, so every operation here is safe for concurrent use. The freeze
rule has one way per kind of array: ``frozen_matrix`` copies caller
data, and ``_frozen`` freezes in place an array the library built
(``identity``, the Pauli constants, stacks, spectra, fits, a ket
projector's matrix when it is formed). A ket projector keeps only a
private copy of its gated ket, so a caller's array is never read again.
``identity`` returns one cached frozen array per dimension.

The matrices are tiny (dimension <= 64), so a gate's cost is mostly
per-call numpy overhead rather than arithmetic. Each gate here is
written to cost its arithmetic: one finiteness pass, a Frobenius norm
as two real dot products, a tensor product as one broadcast multiply,
a state's Hermitian residual, trace and spectrum kept from its gates,
a ket projector's gates decided by one proved bound on its trace that
the fixed TOL meets at every ket length (so no trace or gate is
computed; see projector_from_ket) and its branch by one math.hypot (so
no norm is computed for an ordinary ket), a list of ket projectors
formed as one broadcast with every norm from one batched dot
(projector_stack), and the Born range gate as one min and one max over
the values. Every check, threshold and error class is that of the
plain numpy spelling, and every returned matrix and norm is the same bit
for bit; a reduced or product state is gated through the state it comes
from.

Every record of the library, the four built-in frame kinds included,
is a slotted ``_Record`` that sets its fields once in an explicit
``__init__``, so the import generates no code; ``__match_args__``
lists the constructor's arguments. Assignment and deletion raise
dataclasses.FrozenInstanceError, ``repr`` is the dataclass text, pickle
and copy rebuild a record through its constructor (``_rebuilt``, which
freezes a copy of each array field that arrives writeable), and
records compare by identity, ``_Value`` records (graph nodes, Bloch and
residual witnesses) by their fields. A Bloch vector is a plain (x, y, z)
float tuple, read off the matrix entries by ``_bloch_coords``.

Caller input passes two gates, shared by every public call of the
package. An array is read by ``_numbers``: it holds integer, float or
complex numbers, so a ragged nesting raises DimensionMismatch and a
bool, str or object array (a malformed string, None, an int beyond 64
bits) ValueOutOfRange. A dimension is read by ``_dimension``
(operator.index) as an int at or above the call's floor, so a bool,
float, str or an integer below the floor raises UnsupportedDimension.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import FrozenInstanceError

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    NotHermitian,
    NotIdempotent,
    NotPositive,
    NotUnitTrace,
    UnsupportedDimension,
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


def _numbers(x, name: str) -> np.ndarray:
    """x as an array, not copied when it is one, of integer, float or
    complex dtype; a ragged nesting raises DimensionMismatch and any other
    dtype (bool, str, object) ValueOutOfRange."""
    try:
        arr = np.asarray(x)
    except ValueError:
        raise DimensionMismatch(f"{name} is ragged") from None
    if arr.dtype.kind not in "iufc":
        raise ValueOutOfRange(f"{name} holds a value that is not a number")
    return arr


def _dimension(dim, low: int = 1) -> int:
    """dim as a Python int by operator.index; a bool, float, str, None or
    an integer below low raises UnsupportedDimension."""
    if not isinstance(dim, bool):
        try:
            d = operator.index(dim)
        except TypeError:
            pass
        else:
            if d >= low:
                return d
    raise UnsupportedDimension(f"a dimension is an integer >= {low}, got {dim!r}")


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """``_numbers`` as a finite 2-D complex array."""
    arr = _numbers(m, name).astype(complex, copy=False)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:   # cheaper than .all() on small arrays
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
        return _rebuilt, (type(self), *self._fields())


def _rebuilt(cls, *fields):
    """A record rebuilt by pickle or copy from its fields: an array field
    that arrives writeable is copied and frozen, so the twin's arrays are
    frozen and a hand-built record's array stays its caller's."""
    return cls(*(frozen_matrix(f) if isinstance(f, np.ndarray) and f.flags.writeable else f
                 for f in fields))


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
    """Validated Hermitian idempotent on a d-dimensional space.

    A projector built directly keeps the matrix it is given (None raises
    ValueOutOfRange). One from projector_from_ket keeps only its gated
    ket v, and forms ``matrix``, w w-dagger for w = v / frobenius(v),
    when it is first read, frozen and kept; projector_stack forms a list
    of such projectors in one broadcast, with the same bits. ``repr``,
    pickle and copy read ``matrix``, and so form it. Two threads that
    read ``matrix`` first at once may each form it, with the same bits.
    """

    __slots__ = ("dim", "_matrix", "rank", "_ket")
    __match_args__ = ("dim", "matrix", "rank")

    def __init__(self, dim: int, matrix: np.ndarray, rank: int):
        if matrix is None:
            raise ValueOutOfRange("a projector needs its matrix")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "rank", rank)

    @property
    def matrix(self) -> np.ndarray:
        m = self._matrix
        if m is None:
            v = self._ket
            w = v / frobenius(v)
            m = _frozen(w[:, None] * w.conj()[None, :])
            object.__setattr__(self, "_matrix", m)
        return m


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
    DimensionOverflow before anything is computed; the ket is read by
    ``_numbers``.

    Every gate runs here, and no norm is kept. The projector keeps a copy
    of the gated ket v alone, and forms m = w w-dagger, w = v / n for
    n = frobenius(v), only when its ``matrix`` is first read or
    projector_stack forms a list of them at once; both compute the same
    n and spell the same elementwise division and products, so m and the
    bound below are the same whichever forms it.

    The branch is chosen without the norm. h = math.hypot over the 2d
    real components of v is within 1 ulp of the exact norm N (CPython
    3.10 and later), and never overflows or warns: a NaN gives NaN and
    an infinite or too large ket inf. When 2^-510 <= h <= 2^510, N lies
    within 2u of that range, so no partial sum of frobenius's squares
    exceeds N^2 (1 + 2 (d + 1) u) < 2^1021, which cannot overflow, and
    the computed n^2 is at least N^2 (1 - 2 (d + 1) u) less at most
    2d 2^-1075 of underflow, above 2^-1022; so n is finite and at least
    2^-511, and the plain branch, with no rescale and no error, is the
    outcome: no norm is computed. Any other h (a NaN, infinite, zero,
    empty, huge or tiny ket; a NaN compares false) runs the full chain
    on the norm, taken with overflow warnings off, since a finite ket's
    squares may overflow before the rescale. The gate costs Python work
    per component: it is cheaper than frobenius's two dot products below
    about d = 32, above every ket length a workload forms (at most 8).

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
    v = _numbers(ket, "ket").astype(complex)
    if v.ndim != 1:
        v = v.reshape(-1)
    if len(v) > MAX_COMPOSITE_DIM:
        raise DimensionOverflow(len(v), MAX_COMPOSITE_DIM)
    x = v.view(np.float64)
    if not 2.0**-510 <= math.hypot(*x.tolist()) <= 2.0**510:
        with np.errstate(over="ignore"):
            n = frobenius(v)
        if n < 2.0**-511 or n == math.inf:
            s = float(np.abs(x).max(initial=0.0))
            if 0.0 < s < math.inf:
                v = (x / s).view(complex)
                n = frobenius(v)
        if n == 0:
            raise ValueOutOfRange("cannot project onto the zero vector")
        if not n < math.inf:
            raise ValueOutOfRange("matrix contains non-finite entries")
    p = object.__new__(Projector)   # the private path: a gated ket, no matrix yet
    object.__setattr__(p, "dim", len(v))
    object.__setattr__(p, "_matrix", None)
    object.__setattr__(p, "rank", 1)
    object.__setattr__(p, "_ket", v)
    return p


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
    dim_a, dim_b = _dimension(dim_a), _dimension(dim_b)
    if rho_ab.dim != dim_a * dim_b:
        raise DimensionMismatch(
            f"composite dimension {rho_ab.dim} is not dim_a * dim_b = {dim_a * dim_b}"
        )
    m = rho_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    return DensityMatrix(dim=dim_a, matrix=_frozen(np.einsum("ikjk->ij", m)))


def projector_stack(projectors, dim: int) -> np.ndarray:
    """The matrices of projectors on C^dim as one frozen (n, dim, dim)
    array; an empty list gives shape (0, dim, dim). dim is read by
    ``_dimension``.

    When every projector comes from projector_from_ket and none has
    formed its matrix, the stack is formed from their kets V in one
    broadcast, W = V / N and W_i W_i-dagger per row, with no projector's
    matrix formed. The norms N are sqrt(re_i . re_i + im_i . im_i) for
    the real and imaginary rows of V, taken as one batched
    (n, 1, d) @ (n, d, 1) matmul of each: numpy runs a row-by-column
    product as the strided dot that ``ndarray.dot`` runs on frobenius's
    real and imaginary views of one ket, and np.sqrt rounds as
    math.sqrt does, so N holds frobenius's bits, and W and the products
    are ``Projector.matrix``'s elementwise spelling: every byte is the
    same. Any other list is stacked from the matrices.
    """
    dim = _dimension(dim)
    kets = []
    for p in projectors:
        if p.dim != dim:
            raise DimensionMismatch(f"projector dim {p.dim} != expected dim {dim}")
        if p._matrix is None:
            kets.append(p._ket)
    if kets and len(kets) == len(projectors):
        v = np.array(kets)
        re, im = v.real[:, None], v.imag[:, None]
        n = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))
        w = v / n[:, 0]
        return _frozen(w[:, :, None] * w.conj()[:, None, :])
    stack = np.array([p.matrix for p in projectors], dtype=complex)
    return _frozen(stack.reshape(len(projectors), dim, dim))


def born_values(stack: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    """Tr(P_n rho) for every matrix of an (n, d, d) stack, read by
    ``_numbers``, clamped into [0, 1] after an epsilon sanity check on the
    whole vector.

    The contraction sum_ij P_ij rho_ji (einsum "nij,ji->n") runs as one
    matrix-vector product of the flattened stack with vec(rho^T), which
    BLAS does several times faster than einsum's generic loop.

    The gates are two reductions, the largest |Im t| and then the least
    and greatest value (a NaN fails); the mask naming the first offender
    is built only to raise. np.clip runs only on a value outside [0, 1];
    otherwise a copy gives np.clip's bits, -0.0 included.
    """
    stack, d = _numbers(stack, "projector stack"), rho.dim
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


def _bloch_coords(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch coordinates Tr(M sigma_k) of every matrix M of an (n, 2, 2)
    stack, read off the entries: x = Re m01 + Re m10, y = Im m10 - Im m01,
    z = Re m00 - Re m11. These are the bits of the trace spelling
    Tr(M @ PAULI_k).real (a tier-1 test checks random matrices at scales
    1e-300 to 1e300), except that a coordinate that is an exact zero may
    carry the other sign."""
    x = stack[:, 0, 1].real + stack[:, 1, 0].real
    y = stack[:, 1, 0].imag - stack[:, 0, 1].imag
    z = stack[:, 0, 0].real - stack[:, 1, 1].real
    return x, y, z


def bloch_of_matrix(m) -> tuple[float, float, float]:
    """Pauli expectations (x, y, z) of an arbitrary 2x2 matrix (no
    Hermiticity or positivity assumed, e.g. reconstruction candidates),
    read by ``_bloch_coords``. A 2x2 matrix whose coordinates overflow
    raises ValueOutOfRange."""
    arr = as_complex_matrix(m)
    if arr.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {arr.shape}")
    x, y, z = (float(c[0]) for c in _bloch_coords(arr[None]))
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueOutOfRange("Bloch components must be finite")
    return x, y, z


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary drawn from an explicit generator.

    QR of a complex Ginibre matrix; the triangular factor's diagonal is
    rephased to be real-positive, which removes the QR gauge bias.
    Dimensions above MAX_COMPOSITE_DIM raise DimensionOverflow before
    anything is drawn.
    """
    dim = _dimension(dim)
    if dim > MAX_COMPOSITE_DIM:
        raise DimensionOverflow(dim, MAX_COMPOSITE_DIM)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state G G† / Tr(G G†) from a complex Ginibre draw."""
    dim = _dimension(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return make_density(m / np.trace(m).real)
