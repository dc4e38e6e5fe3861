"""Frame functions: probability assignments to projectors that sum to 1
over every PVM.

Three representations are provided. Born-backed functions evaluate
Tr(P rho) and are exactly the quantum assignments. Deterministic
hemisphere functions assign definite 0/1 outcomes to qubit projectors;
they are valid frame functions on a single qubit because each qubit
projector occurs in exactly one measurement, yet they correspond to no
quantum state. Tabulated functions hold finitely many explicit values
and are partial by design. Induced ones restrict a composite function
through P -> P x I_b. The four kinds are records; ``FrameFunction``
stays open, and its ``values`` gates every stack for ``_values``.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import (
    ContextualConflict,
    DimensionMismatch,
    UndefinedProjector,
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
    DensityMatrix,
    Projector,
    _bloch_coords,
    _dimension,
    _frozen,
    _Record,
    born_values,
    identity,
    make_projector,
    projector_from_ket,
    projector_stack,
)


class FrameFunction:
    """Base class: ``values`` is every kind's stack gate, subclasses
    implement ``_values``, and f(p) is ``values`` on a stack of one."""

    __slots__ = ()
    dim: int

    def __call__(self, p: Projector) -> float:
        return float(self.values(p.matrix[np.newaxis])[0])

    def values(self, stack) -> np.ndarray:
        """f on every matrix of an (n, d, d) projector stack, as a float
        vector; any dtype but integer (read as float), float or complex
        raises ValueOutOfRange, a ragged or other shape DimensionMismatch."""
        d = self.dim
        try:
            s = np.asarray(stack)
        except ValueError:
            raise DimensionMismatch(f"projector stack is ragged, not (n, {d}, {d})") from None
        if s.dtype.kind not in "fc":
            if s.dtype.kind not in "iu":
                raise ValueOutOfRange(f"projector stack must be numeric, got dtype {s.dtype}")
            s = s.astype(float)
        if s.ndim != 3 or s.shape[1:] != (d, d):
            raise DimensionMismatch(f"projector stack must be (n, {d}, {d}), got shape {s.shape}")
        return self._values(s)

    def _values(self, stack: np.ndarray) -> np.ndarray:
        """f on a stack that passed the shape gate of ``values``."""
        raise NotImplementedError


def _lex_zxy(x, y, z):
    """The lex-zxy hemisphere rule, an antipodal-exclusive sign test on
    Bloch coordinates, elementwise over arrays.

    Accepts (x, y, z) when z > 0, or z = 0 and x > 0, or z = x = 0 and
    y > 0 (lexicographic sign test on (z, x, y)). Exactly one of n and
    -n is accepted for every nonzero n, which makes the deterministic
    assignment normalize exactly on every qubit PVM.
    """
    return (z > 0.0) | ((z == 0.0) & ((x > 0.0) | ((x == 0.0) & (y > 0.0))))


class BornFrameFunction(FrameFunction, _Record):
    """f(P) = Tr(P rho) for a fixed density matrix."""

    __slots__ = ("rho", "dim")
    __match_args__ = ("rho",)

    def __init__(self, rho: DensityMatrix):
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "dim", rho.dim)

    def _values(self, stack: np.ndarray) -> np.ndarray:
        return born_values(stack, self.rho)


class DeterministicFrameFunction(FrameFunction, _Record):
    """Definite 0/1 qubit assignment driven by the lex-zxy hemisphere
    rule (``_lex_zxy``); ``rule`` names it in the JSON format."""

    __slots__ = __match_args__ = ()
    dim = 2
    rule = "lex-zxy"

    def _values(self, stack: np.ndarray) -> np.ndarray:
        """0 on rank 0, 1 on rank 2, and on rank 1 the lex-zxy rule over
        the Bloch coordinates of the whole stack, read by ``_bloch_coords``
        as ``bloch_of_matrix`` reads them. A stack with a non-finite entry
        raises ValueOutOfRange; a row's rank is its rounded trace, and the
        first row of another rank raises UnsupportedRank."""
        if not np.isfinite(stack).all():
            raise ValueOutOfRange("projector matrix contains non-finite entries")
        ranks = np.rint(stack[:, 0, 0].real + stack[:, 1, 1].real)
        bad = (ranks < 0.0) | (ranks > 2.0)
        if bad.any():
            k = int(np.argmax(bad))
            raise UnsupportedRank(f"rank {ranks[k]:.0f} projector on a qubit")
        return np.where(ranks == 1, _lex_zxy(*_bloch_coords(stack)), ranks == 2).astype(float)


@functools.cache
def _real_type(t: type) -> bool:
    """A real number type; bool and numpy.bool_ are not."""
    return issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))


class TabulatedFrameFunction(FrameFunction, _Record):
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

    __slots__ = ("dim", "_projectors", "_coords", "_table")
    __match_args__ = ("entries",)

    def __init__(self, entries: list[tuple[Projector, float]]):
        if not entries:
            raise ValueOutOfRange("a tabulated frame function needs at least one entry")
        projectors, raw = zip(*entries)
        dim = projectors[0].dim
        coords = projector_coords(projector_stack(projectors, dim))
        not_real = [t for t in set(map(type, raw)) if not _real_type(t)]
        if not_real:
            v = next(v for v in raw if type(v) in not_real)
            raise ValueOutOfRange(f"tabulated value {v!r} is not a real number")
        try:
            vals = np.array(raw, dtype=float)
        except OverflowError:   # an int or Fraction beyond the float range
            v = next(v for v in raw if not 0 <= v <= 1)
            raise ValueOutOfRange(f"tabulated value {v!r} outside [0, 1]") from None
        classes = projector_classes(coords)
        bad = ~((vals >= 0.0) & (vals <= 1.0)) | (vals != vals[classes])
        if bad.any():
            i = int(np.argmax(bad))
            if not 0.0 <= vals[i] <= 1.0:
                raise ValueOutOfRange(f"tabulated value {float(vals[i])} outside [0, 1]")
            c = int(classes[i])
            raise ContextualConflict(projector_key(projectors[c].matrix), float(vals[c]), float(vals[i]))
        reps = np.flatnonzero(classes == np.arange(len(entries)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_projectors", tuple(map(projectors.__getitem__, reps.tolist())))
        object.__setattr__(self, "_coords", _frozen(coords[reps]))
        object.__setattr__(self, "_table", _frozen(vals[reps]))

    @property
    def entries(self) -> tuple[tuple[Projector, float], ...]:
        """(first projector, value) of each class, in input order."""
        return tuple(zip(self._projectors, self._table.tolist()))

    def _values(self, stack: np.ndarray) -> np.ndarray:
        """Only the path that raises checks more: the first unmatched row
        raises ValueOutOfRange if not finite, else UndefinedProjector."""
        idx = first_match(projector_coords(stack), self._coords)
        if (idx >= 0).all():
            return self._table[idx]
        row = stack[int(np.argmax(idx < 0))]
        if not np.isfinite(row).all():
            raise ValueOutOfRange("projector matrix contains non-finite entries")
        raise UndefinedProjector(projector_key(row))


class InducedFrameFunction(FrameFunction, _Record):
    """Subsystem restriction of a composite frame function.

    Evaluates the composite function on P x I_b, one ``embed`` of the
    whole stack: the local outcome as represented in the composite system.
    """

    __slots__ = __match_args__ = ("composite", "dim", "dim_b")

    def __init__(self, composite: FrameFunction, dim_a: int, dim_b: int):
        dim_a, dim_b = _dimension(dim_a), _dimension(dim_b)
        if dim_b < 2:
            raise DimensionMismatch(f"ancilla dimension must be >= 2, got {dim_b}")
        if composite.dim != dim_a * dim_b:
            raise DimensionMismatch(
                f"composite dim {composite.dim} is not {dim_a} * {dim_b}"
            )
        object.__setattr__(self, "composite", composite)
        object.__setattr__(self, "dim", dim_a)
        object.__setattr__(self, "dim_b", dim_b)

    def _values(self, stack: np.ndarray) -> np.ndarray:
        return self.composite.values(embed(stack, self.dim_b))


# Earlier names of the three kinds, kept as aliases of the classes.
born_backed = BornFrameFunction
deterministic_qubit = DeterministicFrameFunction
tabulated = TabulatedFrameFunction


def check_normalization(f: FrameFunction, m: PVM) -> float:
    """|sum_x f(P_x) - 1| over the PVM's outcomes."""
    return abs(float(f.values(m.stack).sum()) - 1.0)


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
    return TabulatedFrameFunction(entries)


@functools.cache
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
    deterministic assignments normalize with residual exactly zero. I - P
    is a rank-1 projector when P is, so only the pair is validated.
    """
    p = projector_from_ket(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return validate_pvm([p, Projector(dim=2, matrix=_frozen(identity(2) - p.matrix), rank=1)])
