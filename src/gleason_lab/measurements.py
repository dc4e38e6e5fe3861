"""PVM construction and validation, the intertwined three-outcome
measurement family on two qubits, subsystem embedding, and
intertwine-graph analysis over sets of measurements.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySet,
    Incomplete,
    NotNormalized,
    NotOrthogonal,
    PartitionMismatch,
    ValueOutOfRange,
)
from .operators import (
    Projector,
    as_complex_matrix,
    frobenius,
    frozen_matrix,
    hermitize,
    identity,
    make_projector,
    projector_stack,
    tensor,
)
from .tolerances import TOL


@dataclass(frozen=True, eq=False)
class PVM:
    """Ordered set of mutually orthogonal projectors summing to identity.

    Element order and labels are part of the operational description and
    are preserved as given; no canonical sorting is applied. The two
    residuals are the Frobenius norms validate_pvm measured: the largest
    pairwise product P_x P_y and the distance of the sum from I.
    ``stack`` holds the element matrices as one (n, d, d) array.
    """

    dim: int
    elements: tuple[Projector, ...]
    stack: np.ndarray
    labels: tuple[str, ...]
    max_orthogonality_residual: float
    completeness_residual: float

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
        make_projector(tensor(p0, identity(2))),
        make_projector(tensor(p1, np.outer(v, v.conj()))),
        make_projector(tensor(p1, np.outer(perp, perp.conj()))),
    ]
    return validate_pvm(elements, labels=("pi", "one_psi", "one_perp"))


def embed(p: Projector, d_b: int) -> Projector:
    """Represent a subsystem outcome on the composite space: P -> P x I_b.

    Tensoring with the identity is the trivial measurement on the second
    factor, so the embedded outcome carries no information about it.
    """
    if d_b < 2:
        raise DimensionMismatch(f"ancilla dimension must be >= 2, got {d_b}")
    m = tensor(p.matrix, identity(d_b))
    # Rank scales exactly; residuals are inherited from the validated input.
    return Projector(dim=p.dim * d_b, matrix=frozen_matrix(m), rank=p.rank * d_b)


def embed_pvm(m: PVM, d_b: int) -> PVM:
    """Element-wise embedding; the outcome count is unchanged."""
    elements = tuple(embed(e, d_b) for e in m.elements)
    return validate_pvm(elements, labels=m.labels)


def projector_key(p: Projector) -> str:
    """Stable canonical key for a projector, robust to round-off.

    Entries are Hermitized, snapped to a grid of size TOL.key and hashed;
    projectors within Frobenius distance TOL.key/10 collide on generic
    inputs. Near-boundary adversarial inputs are out of contract.
    """
    m = hermitize(p.matrix)
    scaled = m / TOL.key
    grid_re = np.round(scaled.real).astype(np.int64)
    grid_im = np.round(scaled.imag).astype(np.int64)
    payload = grid_re.tobytes() + grid_im.tobytes()
    digest = hashlib.sha256(str(p.dim).encode() + b"|" + payload).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class GraphNode:
    key: str
    rank: int
    degree: int


@dataclass(frozen=True, eq=False)
class IntertwineGraph:
    """Incidence structure between deduplicated projectors and PVMs.

    ``incidence`` keeps the raw (key, pvm_index) pairs in input order;
    ``nodes`` carries per-projector degrees, counting distinct PVMs.
    """

    nodes: tuple[GraphNode, ...]
    incidence: tuple[tuple[str, int], ...]

    def degree(self, key: str) -> int:
        for node in self.nodes:
            if node.key == key:
                return node.degree
        raise ValueOutOfRange(f"no projector with key {key} in the graph")

    def max_degree(self) -> int:
        return max((n.degree for n in self.nodes), default=0)


def intertwine_graph(pvms: Iterable[PVM]) -> IntertwineGraph:
    """Build the projector/measurement incidence graph for a PVM list.

    A node's degree is the number of distinct PVMs containing a projector
    within the key quantization of it. Construction is a single pass and
    deterministic for a fixed input order.
    """
    pvm_list = list(pvms)
    dims = {m.dim for m in pvm_list}
    if len(dims) > 1:
        raise DimensionMismatch(f"PVMs live on mixed dimensions {sorted(dims)}")
    incidence: list[tuple[str, int]] = []
    nodes: dict[str, tuple[int, set[int]]] = {}   # key -> (rank, PVM indices)
    for idx, m in enumerate(pvm_list):
        for e in m.elements:
            k = projector_key(e)
            incidence.append((k, idx))
            nodes.setdefault(k, (e.rank, set()))[1].add(idx)
    return IntertwineGraph(
        nodes=tuple(GraphNode(key=k, rank=r, degree=len(s)) for k, (r, s) in nodes.items()),
        incidence=tuple(incidence),
    )
