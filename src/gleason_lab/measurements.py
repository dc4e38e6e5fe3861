"""PVM construction and validation, the intertwined three-outcome
measurement family on two qubits, subsystem embedding, and
intertwine-graph analysis over sets of measurements.

A PVM is its frozen (n, d, d) stack and ranks; every reader reads the
stack. A PVM cut from a unitary is gated by one Gram matrix: a bound on
||U^dagger U - I||_F decides every projector and PVM gate when it
passes every tolerance, and its two residual figures are measured when
first read (see pvm_from_unitary). Otherwise, and for every other
constructor, the blocks go through make_projector and the set through
validate_pvm, which stacks them once and measures both figures as it
gates.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
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
    _U,
    Projector,
    _Record,
    _Value,
    _dimension,
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
    are preserved as given; no canonical sorting is applied. ``stack``,
    one frozen (n, d, d) array, owns the matrices and ``ranks`` their
    ranks as ints; ``elements`` builds read-only Projector views of the
    rows on every read. The two residuals are the Frobenius norms
    validate_pvm measures: the largest pairwise product P_x P_y and the
    distance of the sum from I.

    A residual given as None is measured when first read, by the loop
    validate_pvm runs, on the same matrices, and kept; reading either
    measures both. pvm_from_unitary builds its PVMs so when its Gram
    gate decides. Two threads that read first at once may each measure;
    both keep the same bits. ``repr``, pickle, copy and embed_pvm read
    the figures, and so measure them.
    """

    __slots__ = ("dim", "stack", "ranks", "labels", "_orthogonality", "_completeness")
    __match_args__ = ("dim", "stack", "ranks", "labels",
                      "max_orthogonality_residual", "completeness_residual")

    def __init__(self, dim: int, stack: np.ndarray, ranks: tuple[int, ...],
                 labels: tuple[str, ...], max_orthogonality_residual: float | None,
                 completeness_residual: float | None):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_orthogonality", max_orthogonality_residual)
        object.__setattr__(self, "_completeness", completeness_residual)

    def _measured(self) -> tuple[float, float]:
        orth, complete = _residuals(self.stack, self.dim, gate=False)
        if self._orthogonality is None:
            object.__setattr__(self, "_orthogonality", orth)
        if self._completeness is None:
            object.__setattr__(self, "_completeness", complete)
        return self._orthogonality, self._completeness

    @property
    def max_orthogonality_residual(self) -> float:
        r = self._orthogonality
        return self._measured()[0] if r is None else r

    @property
    def completeness_residual(self) -> float:
        r = self._completeness
        return self._measured()[1] if r is None else r

    @property
    def elements(self) -> tuple[Projector, ...]:
        return tuple(Projector(self.dim, row, r) for row, r in zip(self.stack, self.ranks))

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self):
        return iter(self.elements)


def _residuals(mats: np.ndarray, d: int, gate: bool) -> tuple[float, float]:
    """The largest Frobenius norm of P_x P_y over pairs x < y of a stack,
    then that of sum_x P_x - I, summed in element order. With gate, the
    first figure above TOL.pvm raises NotOrthogonal or Incomplete."""
    max_orth = 0.0
    for x in range(len(mats)):
        for y in range(x + 1, len(mats)):
            res = frobenius(mats[x] @ mats[y])
            if gate and res > TOL.pvm:
                raise NotOrthogonal(x, y, res)
            max_orth = max(max_orth, res)
    total = np.zeros((d, d), dtype=complex)
    for m in mats:
        total = total + m
    completeness = frobenius(total - identity(d))
    if gate and completeness > TOL.pvm:
        raise Incomplete(completeness)
    return max_orth, completeness


@functools.lru_cache(maxsize=64)
def _default_labels(n: int) -> tuple[str, ...]:
    """The labels "0", "1", ... of a PVM given none, kept for the
    element counts seen most recently."""
    return tuple(str(i) for i in range(n))


def validate_pvm(
    projectors: Sequence[Projector], labels: Sequence[str] | None = None
) -> PVM:
    """Check pairwise orthogonality and completeness of the projectors'
    stack (projector_stack, the dimension gate), returning a PVM.

    The single-element set {I_d} is admitted: it is the trivial
    measurement that reveals nothing about the preparation.
    """
    elems = tuple(projectors)
    if not elems:
        raise EmptySet("a PVM needs at least one projector")
    d = elems[0].dim
    stack = projector_stack(elems, d)
    max_orth, completeness = _residuals(stack, d, gate=True)
    ranks = tuple(e.rank for e in elems)
    if sum(ranks) != d:
        raise Incomplete(completeness)
    if labels is None:
        labels = _default_labels(len(elems))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(elems):
            raise DimensionMismatch(f"{len(labels)} labels for {len(elems)} elements")
    return PVM(d, stack, ranks, labels, max_orth, completeness)


def pvm_from_unitary(u, rank_partition: Sequence[int]) -> PVM:
    """Group consecutive columns of a unitary into projector blocks.

    rank_partition gives the block sizes: integers (Python or numpy; a
    float such as 1.0 or a string is refused), positive and summing to
    the matrix dimension, or PartitionMismatch is raised. Block x, the
    columns C_x of width r_x, gives P_x = C_x C_x^dagger with the bits
    of ``cols @ cols.conj().T``. When the Gram gate below decides, the
    P_x, written into one stack, become the PVM's frozen stack, and both
    residual figures are left to be measured when first read.

    The gates are decided by one Gram matrix. With E = U^dagger U - I:
    C_x^dagger C_y = E_xy (x != y) and C_x^dagger C_x = I + E_xx, so
    P_x P_y = C_x E_xy C_y^dagger, P_x^2 - P_x = C_x E_xx C_x^dagger,
    sum_x P_x - I = U U^dagger - I, whose Frobenius norm is that of E,
    ||C_x||_2^2 <= 1 + ||E||_F, and |Tr P_x - r_x| = |Tr E_xx|
    <= sqrt(r_x) ||E||_F. So for any eps >= ||E||_F the exact
    idempotency, orthogonality and completeness residuals are at most
    eps (1 + eps), the Hermitian residual is 0, and the trace is
    within sqrt(d) eps of the rank.

    Rounding, with u = 2^-53 (Higham, Accuracy and Stability, Lemma 3.5
    and section 3.6: a complex inner product of length k is computed
    within sqrt(2) gamma_{k+2} |x|^T |y|, gamma_k = k u / (1 - k u)):
    the computed Gram G^ has ||G^ - U^dagger U||_F <= sqrt(2)
    gamma_{d+2} ||U||_F^2 and ||U||_F^2 = d + Tr E <= d + sqrt(d) ||E||_F;
    the subtraction of I and the Frobenius sum move e^ =
    frobenius(G^ - I) by a relative (d^2 + 4) u, below 2.5 (d + 2) d u
    while e^ <= 1/4, and underflow by less than d 2^-511. Hence

        eps = (e^ + 4 (d + 2) d u) / (1 - 4 (d + 2) sqrt(d) u) >= ||E||_F.

    While sqrt(d) eps <= 1/4, ||C_x||_F^2 <= r_x + 1/4 and each stored
    P^_x is within delta_x <= sqrt(2) gamma_{r+2} ||C_x||_F^2 <=
    1.8 (r + 2) r u of P_x. Carrying delta_x through the products, sums
    and norms that make_projector and validate_pvm compute (each product
    adds sqrt(2) gamma_{d+2} ||P^_x||_F ||P^_y||_F, each norm a relative
    (d^2 + 3) u) adds at most 9 (d + 2) d u + 2 u <= 64 d^2 u to every
    residual, and the diagonal products and the trace's sum add at most
    3 d^2 u to |trace - r_x|. So with

        B = eps (1 + eps) + 64 d^2 u,

    if B <= TOL.herm, TOL.proj and TOL.pvm, and sqrt(d) eps + 64 d u <=
    min(1/4, TOL.eig), every residual make_projector and validate_pvm
    would compute is at most B and passes, and each trace rounds to r_x
    within d TOL.eig: the blocks are the projectors those gates accept,
    with ranks r_x, and no gate is run. Rounding in eps and B
    themselves moves them by a few u relative, inside the slack.
    Otherwise, and whenever the Gram is not finite (a finite U may
    overflow it), every block goes through make_projector and the set
    through validate_pvm, so every outcome, error and figure is theirs.
    """
    mat = as_complex_matrix(u, "unitary")
    d = mat.shape[0]
    if mat.shape[1] != d:
        raise DimensionMismatch(f"unitary must be square, got {mat.shape}")
    try:
        parts = [operator.index(r) for r in rank_partition]
    except TypeError:
        raise PartitionMismatch(
            f"partition {rank_partition!r} has a block size that is not an integer") from None
    if not parts or any(r <= 0 for r in parts) or sum(parts) != d:
        raise PartitionMismatch(f"partition {parts} does not sum to dimension {d}")
    stack = np.empty((len(parts), d, d), dtype=complex)
    start = 0
    for x, r in enumerate(parts):
        cols = mat[:, start : start + r]
        np.matmul(cols, cols.conj().T, out=stack[x])
        start += r
    gram = mat.conj().T @ mat
    gram -= identity(d)
    eps = (frobenius(gram) + 4 * (d + 2) * d * _U) / (1 - 4 * (d + 2) * math.sqrt(d) * _U)
    bound = eps * (1 + eps) + 64 * d * d * _U
    tol = TOL
    if not (bound <= tol.herm and bound <= tol.proj and bound <= tol.pvm
            and math.sqrt(d) * eps + 64 * d * _U <= min(0.25, tol.eig)):
        return validate_pvm([make_projector(p) for p in stack])
    return PVM(dim=d, stack=_frozen(stack), ranks=tuple(parts),
               labels=_default_labels(len(parts)),
               max_orthogonality_residual=None, completeness_residual=None)


def random_rank_partition(dim: int, rng: np.random.Generator) -> list[int]:
    """Random composition of dim into positive parts (for PVM sampling)."""
    parts = []
    remaining = _dimension(dim)
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
    d_b = _dimension(d_b)
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
    d_b = _dimension(d_b)
    stack, root = embed(m.stack, d_b), math.sqrt(d_b)
    return PVM(dim=stack.shape[1], stack=stack, ranks=tuple(r * d_b for r in m.ranks), labels=m.labels,
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
    ranks = [r for m in pvm_list for r in m.ranks]
    if not ranks:
        return IntertwineGraph(nodes=(), incidence=())
    owners = [idx for idx, m in enumerate(pvm_list) for _ in m.ranks]
    stack = np.concatenate([m.stack for m in pvm_list])
    classes = projector_classes(projector_coords(stack)).tolist()
    members: dict[int, set[int]] = {}   # representative -> PVM indices, in first-seen order
    for c, idx in zip(classes, owners):
        members.setdefault(c, set()).add(idx)
    keys = {c: projector_key(stack[c]) for c in members}
    return IntertwineGraph(
        nodes=tuple(
            GraphNode(key=keys[c], rank=ranks[c], degree=len(s))
            for c, s in members.items()
        ),
        incidence=tuple((keys[c], idx) for c, idx in zip(classes, owners)),
    )
