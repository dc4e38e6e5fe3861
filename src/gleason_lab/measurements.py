"""PVM construction and validation, the intertwined three-outcome
measurement family on two qubits, subsystem embedding, and
intertwine-graph analysis over sets of measurements.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    EmptySet,
    Incomplete,
    NotNormalized,
    NotOrthogonal,
    PartitionMismatch,
    ValueOutOfRange,
)
from .operators import (
    Projector,
    _Record,
    _Value,
    _frozen,
    as_complex_matrix,
    frobenius,
    identity,
    make_projector,
    projector_stack,
    tensor,
)
from .tolerances import MAX_COMPOSITE_DIM, TOL


class PVM(_Record):
    """Ordered set of mutually orthogonal projectors summing to identity.

    Element order and labels are part of the operational description and
    are preserved as given; no canonical sorting is applied. The two
    residuals are the Frobenius norms validate_pvm measured: the largest
    pairwise product P_x P_y and the distance of the sum from I.
    ``stack`` holds the element matrices as one (n, d, d) array.
    """

    __slots__ = __match_args__ = ("dim", "elements", "stack", "labels",
                                  "max_orthogonality_residual", "completeness_residual")

    def __init__(self, dim: int, elements: tuple[Projector, ...], stack: np.ndarray,
                 labels: tuple[str, ...], max_orthogonality_residual: float, completeness_residual: float):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "max_orthogonality_residual", max_orthogonality_residual)
        object.__setattr__(self, "completeness_residual", completeness_residual)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def ranks(self) -> tuple[int, ...]:
        return tuple(e.rank for e in self.elements)


def validate_pvm(
    projectors: Sequence[Projector], labels: Sequence[str] | None = None
) -> PVM:
    """Check pairwise orthogonality and completeness, returning a PVM.

    The single-element set {I_d} is admitted: it is the trivial
    measurement that reveals nothing about the preparation.
    """
    elems = tuple(projectors)
    if not elems:
        raise EmptySet("a PVM needs at least one projector")
    dims = {e.dim for e in elems}
    if len(dims) > 1:
        raise DimensionMismatch(f"projectors live on mixed dimensions {sorted(dims)}")
    d = elems[0].dim
    max_orth = 0.0
    for x in range(len(elems)):
        for y in range(x + 1, len(elems)):
            res = frobenius(elems[x].matrix @ elems[y].matrix)
            if res > TOL.pvm:
                raise NotOrthogonal(x, y, res)
            max_orth = max(max_orth, res)
    total = np.zeros((d, d), dtype=complex)
    for e in elems:
        total = total + e.matrix
    completeness = frobenius(total - identity(d))
    if completeness > TOL.pvm:
        raise Incomplete(completeness)
    if sum(e.rank for e in elems) != d:
        raise Incomplete(completeness)
    if labels is None:
        labels = tuple(str(i) for i in range(len(elems)))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(elems):
            raise DimensionMismatch(f"{len(labels)} labels for {len(elems)} elements")
    return PVM(
        dim=d,
        elements=elems,
        stack=projector_stack(elems, d),
        labels=labels,
        max_orthogonality_residual=max_orth,
        completeness_residual=completeness,
    )


def pvm_from_unitary(u, rank_partition: Sequence[int]) -> PVM:
    """Group consecutive columns of a unitary into projector blocks.

    rank_partition gives the block sizes; it must be positive and sum to
    the matrix dimension.
    """
    mat = as_complex_matrix(u, "unitary")
    d = mat.shape[0]
    if mat.shape[1] != d:
        raise DimensionMismatch(f"unitary must be square, got {mat.shape}")
    parts = [int(r) for r in rank_partition]
    if not parts or any(r <= 0 for r in parts) or sum(parts) != d:
        raise PartitionMismatch(f"partition {parts} does not sum to dimension {d}")
    projectors = []
    start = 0
    for r in parts:
        cols = mat[:, start : start + r]
        projectors.append(make_projector(cols @ cols.conj().T))
        start += r
    return validate_pvm(projectors)


def random_rank_partition(dim: int, rng: np.random.Generator) -> list[int]:
    """Random composition of dim into positive parts (for PVM sampling)."""
    parts = []
    remaining = dim
    while remaining > 0:
        r = int(rng.integers(1, remaining + 1))
        parts.append(r)
        remaining -= r
    return parts


def orthogonal_complement_ket(psi: np.ndarray) -> np.ndarray:
    """Canonical unit vector orthogonal to a 2-component unit vector.

    The phase is fixed by making the first component of magnitude above
    1e-12 real and positive, which keeps serialization reproducible.
    """
    a, b = complex(psi[0]), complex(psi[1])
    perp = np.array([-np.conj(b), np.conj(a)], dtype=complex)
    for c in perp:
        if abs(c) > 1e-12:
            perp = perp * (np.conj(c) / abs(c))
            break
    return perp


def measurement_family_mpsi(psi) -> PVM:
    """Three-outcome two-qubit PVM sharing the projector Pi = |0><0| x I.

    Elements: |0><0| x I_2, |1><1| x |psi><psi|, |1><1| x |perp><perp|.
    Every member of the family contains Pi, so distinct members are
    intertwined through it.
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape != (2,):
        raise DimensionMismatch(f"psi must be a 2-component vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-10:
        raise NotNormalized(n)
    perp = orthogonal_complement_ket(v)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    p0 = np.outer(ket0, ket0.conj())
    p1 = np.outer(ket1, ket1.conj())
    elements = [
        make_projector(embed(p0[None], 2)[0]),
        make_projector(tensor(p1, np.outer(v, v.conj()))),
        make_projector(tensor(p1, np.outer(perp, perp.conj()))),
    ]
    return validate_pvm(elements, labels=("pi", "one_psi", "one_perp"))


def embed(stack: np.ndarray, d_b: int) -> np.ndarray:
    """Represent subsystem outcomes on the composite space: P -> P x I_b
    for every matrix of an (n, d, d) stack, as one frozen array.

    Tensoring with the identity is the trivial measurement on the second
    factor, so the embedded outcome carries no information about it.
    Each row equals tensor(P, identity(d_b)) under ==, with +0.0 zeros.
    A non-stack input or d_b < 2 raises DimensionMismatch, and d * d_b
    above MAX_COMPOSITE_DIM raises DimensionOverflow.
    """
    s = np.asarray(stack)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise DimensionMismatch(f"embed needs an (n, d, d) stack, got shape {s.shape}")
    if d_b < 2:
        raise DimensionMismatch(f"ancilla dimension must be >= 2, got {d_b}")
    n, d = s.shape[0], s.shape[1]
    if d * d_b > MAX_COMPOSITE_DIM:
        raise DimensionOverflow(d * d_b, MAX_COMPOSITE_DIM)
    out = np.zeros((n, d, d_b, d, d_b), dtype=complex)
    diag = np.arange(d_b)
    out[:, :, diag, :, diag] = s
    return _frozen(out.reshape(n, d * d_b, d * d_b))


def embed_pvm(m: PVM, d_b: int) -> PVM:
    """Element-wise embedding P_x -> P_x x I_b, with the same labels. The
    embedding of a PVM is a PVM, so it is not validated again: ranks
    scale by d_b and both residuals by sqrt(d_b), as ||X x I_b||_F =
    sqrt(d_b) ||X||_F."""
    stack = embed(m.stack, d_b)
    d, root = stack.shape[1], math.sqrt(d_b)
    elements = tuple(Projector(dim=d, matrix=row, rank=e.rank * d_b) for e, row in zip(m.elements, stack))
    return PVM(dim=d, elements=elements, stack=stack, labels=m.labels,
               max_orthogonality_residual=m.max_orthogonality_residual * root,
               completeness_residual=m.completeness_residual * root)


def projector_key(m: np.ndarray) -> str:
    """Printed label of a projector matrix: its ``projector_coords``
    snapped to a grid of size TOL.key, real entries then imaginary
    entries, hashed with its dimension.

    Labels name a class of projectors in reports and errors; tables and
    intertwine graphs match projectors with ``projector_classes`` and
    ``first_match``, never by comparing labels.
    """
    h = projector_coords(m[None])[0].view(complex) / TOL.key
    grid = np.round([h.real, h.imag]).astype(np.int64)
    digest = hashlib.sha256(str(m.shape[0]).encode() + b"|" + grid.tobytes()).hexdigest()
    return digest[:16]


def projector_coords(stack: np.ndarray) -> np.ndarray:
    """Matching coordinates of an (n, d, d) stack: one row of 2d² floats
    per matrix, the real and imaginary parts of its Hermitization, a real
    stack read as complex."""
    stack = np.asarray(stack, dtype=complex)
    n, d = stack.shape[0], stack.shape[1]
    h = stack + stack.conj().transpose(0, 2, 1)
    h *= 0.5
    return h.reshape(n, d * d).view(np.float64)


# Entries of one Gram block. Matching works through its queries, and
# groups its rows, in blocks of this many Gram entries, so the working
# memory of a match stays a few MB however many projectors it holds.
_GRAM_BLOCK = 1 << 18


def _candidates(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(n_q, n_r) mask of coordinate rows whose squared Euclidean
    distance is <= TOL.key, from one Gram product.

    Every pair within max-abs TOL.key is a candidate: its squared
    distance is <= 2d²·TOL.key², and the product's round-off on
    projector coordinates at d <= 64 is orders of magnitude below the
    cut. ``_within_key`` then checks the candidates exactly.
    """
    sq_q = (q * q).sum(axis=1)
    sq_r = sq_q if r is q else (r * r).sum(axis=1)
    return sq_q[:, None] + sq_r - 2.0 * (q @ r.T) <= TOL.key


def _within_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise max|a - b| <= TOL.key."""
    return np.abs(a - b).max(axis=1, initial=0.0) <= TOL.key


def first_match(queries: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """For each coordinate row of queries, the index of the first row of
    reps within max-abs TOL.key, or -1 where there is none."""
    out = np.full(len(queries), -1, dtype=np.intp)
    step = max(1, _GRAM_BLOCK // max(len(reps), 1))
    for start in range(0, len(queries), step):
        q = queries[start : start + step]
        i, j = np.nonzero(_candidates(q, reps))
        close = _within_key(q[i], reps[j])
        i, j = i[close], j[close]
        first = np.ones(len(i), dtype=bool)
        first[1:] = i[1:] != i[:-1]
        out[start + i[first]] = j[first]
    return out


def projector_classes(coords: np.ndarray) -> np.ndarray:
    """Group coordinate rows, in input order, into classes: a row joins
    the class of the first earlier representative within max-abs
    TOL.key, or starts a class of its own. Returns, per row, the index
    of its class's representative, the class's first row.

    Rows go in blocks. A block's rows first look for the
    representatives of earlier blocks; the rest are grouped among
    themselves, settling representatives in index order, so when one is
    reached every later row near it is either unclaimed or taken by an
    earlier representative. Only representatives with a later candidate
    cost a pass.
    """
    n = len(coords)
    rep = np.arange(n)
    reps = np.zeros(0, dtype=np.intp)   # representatives of earlier blocks, ascending
    step = math.isqrt(_GRAM_BLOCK)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        if len(reps):
            hit = first_match(coords[rows], coords[reps])
            found = hit >= 0
            rep[rows[found]] = reps[hit[found]]
            rows = rows[~found]
        block = coords[rows]
        local = np.arange(len(rows))
        later, earlier = np.nonzero(_candidates(block, block))
        keep = earlier < later
        later, earlier = later[keep], earlier[keep]
        for a in sorted(set(earlier.tolist())):
            if local[a] != a:
                continue
            b = later[earlier == a]
            b = b[local[b] == b]
            local[b[_within_key(block[b], block[a])]] = a
        rep[rows] = rows[local]
        reps = np.concatenate([reps, rows[local == np.arange(len(rows))]])
    return rep


class GraphNode(_Value):
    __slots__ = __match_args__ = ("key", "rank", "degree")

    def __init__(self, key: str, rank: int, degree: int):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)


class IntertwineGraph(_Record):
    """Incidence structure between projector classes and PVMs.

    ``incidence`` keeps one (class key, pvm_index) pair per PVM element,
    in input order; ``nodes`` carries per-class degrees, counting
    distinct PVMs.
    """

    __slots__ = __match_args__ = ("nodes", "incidence")

    def __init__(self, nodes: tuple[GraphNode, ...], incidence: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "incidence", incidence)

    def degree(self, key: str) -> int:
        for node in self.nodes:
            if node.key == key:
                return node.degree
        raise ValueOutOfRange(f"no projector with key {key} in the graph")

    def max_degree(self) -> int:
        return max((n.degree for n in self.nodes), default=0)


def intertwine_graph(pvms: Iterable[PVM]) -> IntertwineGraph:
    """Build the projector/measurement incidence graph for a PVM list.

    The elements of all PVMs, in input order, are grouped into
    ``projector_classes``; a node is a class, keyed by the
    ``projector_key`` of its first projector, and its degree is the
    number of distinct PVMs holding a member of the class. Construction
    is deterministic for a fixed input order.
    """
    pvm_list = list(pvms)
    dims = {m.dim for m in pvm_list}
    if len(dims) > 1:
        raise DimensionMismatch(f"PVMs live on mixed dimensions {sorted(dims)}")
    elements = [e for m in pvm_list for e in m.elements]
    if not elements:
        return IntertwineGraph(nodes=(), incidence=())
    owners = [idx for idx, m in enumerate(pvm_list) for _ in m.elements]
    coords = projector_coords(np.concatenate([m.stack for m in pvm_list]))
    classes = projector_classes(coords).tolist()
    members: dict[int, set[int]] = {}   # representative -> PVM indices, in first-seen order
    for c, idx in zip(classes, owners):
        members.setdefault(c, set()).add(idx)
    keys = {c: projector_key(elements[c].matrix) for c in members}
    return IntertwineGraph(
        nodes=tuple(
            GraphNode(key=keys[c], rank=elements[c].rank, degree=len(s))
            for c, s in members.items()
        ),
        incidence=tuple((keys[c], idx) for c, idx in zip(classes, owners)),
    )
