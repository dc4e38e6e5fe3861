"""Frame functions: probability assignments to projectors that sum to 1
over every PVM.

Three representations are provided. Born-backed functions evaluate
Tr(P rho) and are exactly the quantum assignments. Deterministic
hemisphere functions assign definite 0/1 outcomes to qubit projectors;
they are valid frame functions on a single qubit because each qubit
projector occurs in exactly one measurement, yet they correspond to no
quantum state. Tabulated functions hold finitely many explicit values
and are partial by design.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import (
    ContextualConflict,
    DimensionMismatch,
    UndefinedProjector,
    UnsupportedDimension,
    UnsupportedRank,
    ValueOutOfRange,
)
from .measurements import (
    PVM,
    embed,
    first_match,
    projector_classes,
    projector_coords,
    projector_key,
    validate_pvm,
)
from .operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    DensityMatrix,
    Projector,
    born_probability,
    born_values,
    identity,
    make_projector,
    projector_from_ket,
)


class FrameFunction:
    """Base class; subclasses implement evaluation on projectors."""

    dim: int

    def __call__(self, p: Projector) -> float:
        raise NotImplementedError

    def values(self, projectors: Sequence[Projector], stack: np.ndarray) -> np.ndarray:
        """f on every projector, as a float vector; ``stack`` holds their
        matrices as one (n, d, d) array for kinds that evaluate it whole."""
        return np.array([self(p) for p in projectors], dtype=float)


def lex_zxy_accepts(n: BlochVector) -> bool:
    """The lex-zxy hemisphere rule, an antipodal-exclusive selector on
    Bloch vectors.

    Accepts n when z > 0, or z = 0 and x > 0, or z = x = 0 and y > 0
    (lexicographic sign test on (z, x, y)). Exactly one of {n, -n} is
    accepted for every nonzero n, which makes the induced deterministic
    assignment normalize exactly on every qubit PVM.
    """
    return bool(_lex_zxy(n.x, n.y, n.z))


def _lex_zxy(x, y, z):
    """The lex-zxy sign test on coordinates, elementwise over arrays."""
    return (z > 0.0) | ((z == 0.0) & ((x > 0.0) | ((x == 0.0) & (y > 0.0))))


class BornFrameFunction(FrameFunction):
    """f(P) = Tr(P rho) for a fixed density matrix."""

    def __init__(self, rho: DensityMatrix):
        self.rho = rho
        self.dim = rho.dim

    def __call__(self, p: Projector) -> float:
        return born_probability(p, self.rho)

    def values(self, projectors: Sequence[Projector], stack: np.ndarray) -> np.ndarray:
        return born_values(stack, self.rho)


class DeterministicFrameFunction(FrameFunction):
    """Definite 0/1 qubit assignment driven by the lex-zxy hemisphere
    rule (``lex_zxy_accepts``); ``rule`` names it in the JSON format."""

    dim = 2
    rule = "lex-zxy"

    def __call__(self, p: Projector) -> float:
        return float(self.values((p,), p.matrix[np.newaxis])[0])

    def values(self, projectors: Sequence[Projector], stack: np.ndarray) -> np.ndarray:
        """0 on rank 0, 1 on rank 2, and on rank 1 the lex-zxy rule over
        the Bloch coordinates of the whole stack, read off the entries as
        ``bloch_of_matrix`` sums them: x = Re m01 + Re m10,
        y = Im m10 - Im m01, z = Re m00 - Re m11."""
        for p in projectors:
            if p.dim != 2:
                raise UnsupportedDimension(f"deterministic assignment is qubit-only, got dim {p.dim}")
            if p.rank not in (0, 1, 2):
                raise UnsupportedRank(f"rank {p.rank} projector on a qubit")
        if not len(projectors):
            return np.zeros(0)
        ranks = np.array([p.rank for p in projectors])
        x = stack[:, 0, 1].real + stack[:, 1, 0].real
        y = stack[:, 1, 0].imag - stack[:, 0, 1].imag
        z = stack[:, 0, 0].real - stack[:, 1, 1].real
        return np.where(ranks == 1, _lex_zxy(x, y, z), ranks == 2).astype(float)


class TabulatedFrameFunction(FrameFunction):
    """Finite explicit table over classes of projectors.

    Projectors match when their Hermitized entries differ by at most
    TOL.key in max-abs. Each entry, in input order, joins the class of
    the first earlier representative it matches, or starts a class as
    its representative; an entry whose value differs from its class's
    value raises ContextualConflict. A projector evaluates to the value
    of the first representative it matches, and raises
    UndefinedProjector when it matches none. Errors name a projector
    by its ``projector_key`` label.
    """

    def __init__(self, entries: list[tuple[Projector, float]]):
        if not entries:
            raise ValueOutOfRange("a tabulated frame function needs at least one entry")
        dims = {p.dim for p, _ in entries}
        if len(dims) > 1:
            raise DimensionMismatch(f"tabulated projectors on mixed dimensions {sorted(dims)}")
        self.dim = entries[0][0].dim
        projectors = [p for p, _ in entries]
        vals = np.array([float(v) for _, v in entries])
        coords = projector_coords(np.array([p.matrix for p in projectors], dtype=complex))
        classes = projector_classes(coords)
        bad = ~((vals >= 0.0) & (vals <= 1.0)) | (vals != vals[classes])
        if bad.any():
            i = int(np.argmax(bad))
            if not 0.0 <= vals[i] <= 1.0:
                raise ValueOutOfRange(f"tabulated value {float(vals[i])} outside [0, 1]")
            c = int(classes[i])
            raise ContextualConflict(projector_key(projectors[c]), float(vals[c]), float(vals[i]))
        self._projectors = projectors
        self._reps = np.flatnonzero(classes == np.arange(len(entries)))
        self._coords = coords[self._reps]
        self._values = vals[self._reps]

    @property
    def entries(self) -> tuple[tuple[Projector, float], ...]:
        """(first projector, value) of each class, in input order."""
        return tuple(zip([self._projectors[r] for r in self._reps.tolist()], self._values.tolist()))

    def __call__(self, p: Projector) -> float:
        return float(self.values((p,), p.matrix[np.newaxis])[0])

    def values(self, projectors: Sequence[Projector], stack: np.ndarray) -> np.ndarray:
        if stack.shape[1:] != (self.dim, self.dim):
            if not len(projectors):
                return np.zeros(0)
            raise UndefinedProjector(projector_key(projectors[0]))
        idx = first_match(projector_coords(stack), self._coords)
        missing = idx < 0
        if missing.any():
            raise UndefinedProjector(projector_key(projectors[int(np.argmax(missing))]))
        return self._values[idx]


class InducedFrameFunction(FrameFunction):
    """Subsystem restriction of a composite frame function.

    Evaluates the composite function on P x I_b, i.e. on the local
    measurement outcome as represented in the composite system.
    """

    def __init__(self, composite: FrameFunction, dim_a: int, dim_b: int):
        if composite.dim != dim_a * dim_b:
            raise DimensionMismatch(
                f"composite dim {composite.dim} is not {dim_a} * {dim_b}"
            )
        self.composite = composite
        self.dim = dim_a
        self.dim_b = dim_b

    def __call__(self, p: Projector) -> float:
        if p.dim != self.dim:
            raise DimensionMismatch(f"projector dim {p.dim} != subsystem dim {self.dim}")
        return self.composite(embed(p, self.dim_b))


def born_backed(rho: DensityMatrix) -> BornFrameFunction:
    return BornFrameFunction(rho)


def deterministic_qubit() -> DeterministicFrameFunction:
    return DeterministicFrameFunction()


def tabulated(entries: list[tuple[Projector, float]]) -> TabulatedFrameFunction:
    return TabulatedFrameFunction(entries)


def check_normalization(f: FrameFunction, m: PVM) -> float:
    """|sum_x f(P_x) - 1| over the PVM's outcomes."""
    return abs(float(f.values(m.elements, m.stack).sum()) - 1.0)


AXIS_BLOCH: dict[str, tuple[float, float, float]] = {
    "+x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0),
    "-y": (0.0, -1.0, 0.0),
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
}


@functools.cache
def axis_projector(axis: str) -> Projector:
    """Rank-1 qubit projector along one of the six signed Pauli axes,
    built once per axis and shared: a Projector is immutable."""
    try:
        x, y, z = AXIS_BLOCH[axis]
    except KeyError:
        raise ValueOutOfRange(f"unknown axis {axis!r}; expected one of {sorted(AXIS_BLOCH)}") from None
    m = 0.5 * (identity(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    return make_projector(m)


def axis_table(values: dict[str, float]) -> TabulatedFrameFunction:
    """Tabulated qubit frame function keyed by signed Pauli axes.

    ``values`` maps axis names (subset of +x, -x, +y, -y, +z, -z) to
    probabilities. Antipodal pairs should sum to 1 for the result to be
    a normalized assignment; that is the caller's responsibility.
    """
    entries = [(axis_projector(axis), v) for axis, v in values.items()]
    return tabulated(entries)


def definite_xz_table() -> TabulatedFrameFunction:
    """The classic impossible qubit assignment: definite +x and +z.

    Assigns 1 to the +x and +z outcomes, 0 to their antipodes and 1/2 on
    the y axis. Each axis pair sums to 1, so the table is a valid
    partial frame function, but no density matrix reproduces it: the
    implied Bloch vector (1, 0, 1) has norm sqrt(2) > 1.
    """
    return axis_table({"+x": 1.0, "-x": 0.0, "+y": 0.5, "-y": 0.5, "+z": 1.0, "-z": 0.0})


def random_qubit_pvm_pair(rng: np.random.Generator) -> PVM:
    """Two-outcome qubit PVM {P, I - P} from a random ket.

    The complement is formed by exact subtraction so the two Bloch
    vectors are exactly antipodal in floating point, which makes
    deterministic assignments normalize with residual exactly zero.
    """
    p = projector_from_ket(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return validate_pvm([p, make_projector(identity(2) - p.matrix)])
