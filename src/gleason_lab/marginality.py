"""Marginality certification: reconstruct a candidate state from frame
function values on an informationally complete projector set, decide
whether the assignment is the restriction of some composite-system
frame function, and construct explicit composite extensions.

The decision reduces an existence statement over all ancilla systems to
two finite checks: (a) the values must be linearly consistent with some
unit-trace Hermitian matrix on the spanning set, and (b) that matrix
must be positive semidefinite. Representability by a density matrix is
equivalent to marginality, with the product extension rho x sigma as
the constructive witness, so nothing is lost in the reduction; the
certificate records the spanning set it used.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotApplicable, UnsupportedDimension
from .frames import AXIS_BLOCH, FrameFunction, axis_projector
from .measurements import projector_key
from .operators import (
    DensityMatrix,
    Projector,
    _density,
    bloch_of_matrix,
    born_values,
    frobenius,
    frozen_matrix,
    hermitize,
    identity,
    min_eigenvalue,
    partial_trace_b,
    projector_from_ket,
    projector_stack,
    tensor,
)
from .tolerances import MAX_CONDITION_NUMBER, TOL


class Verdict(str, enum.Enum):
    MARGINAL = "marginal"
    NON_MARGINAL = "non_marginal"
    INCONCLUSIVE = "inconclusive"


def hermitian_coords(m: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Coordinates are (diagonal, sqrt(2) Re upper, sqrt(2) Im upper), so the
    Euclidean dot product of two coordinate vectors equals Tr(A B).
    """
    d = m.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate(
        [np.real(np.diagonal(m)), math.sqrt(2) * np.real(m[iu]), math.sqrt(2) * np.imag(m[iu])]
    )


def traceless_hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) traceless Hermitian basis, shape
    (dim^2 - 1, dim, dim): symmetric and antisymmetric pair matrices
    followed by the diagonal ladder."""
    mats = []
    for j in range(1, dim):
        for i in range(j):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / math.sqrt(2)
            mats.append(sym)
            antisym = np.zeros((dim, dim), dtype=complex)
            antisym[i, j] = -1j / math.sqrt(2)
            antisym[j, i] = 1j / math.sqrt(2)
            mats.append(antisym)
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        scale = 1.0 / math.sqrt(level * (level + 1))
        for k in range(level):
            diag[k, k] = scale
        diag[level, level] = -level * scale
        mats.append(diag)
    return np.stack(mats, axis=0)


@dataclass(frozen=True, eq=False)
class SpanningSet:
    """Projectors whose real span is the full Hermitian space.

    ``condition_number`` is sigma_max / sigma_min of the vectorized
    design matrix (one row of Hermitian coordinates per projector).
    Everything a fit needs besides the frame's values is computed once
    at build time: the projector matrices as one (n, d, d) stack, the
    trace part rank/d of each value, the traceless basis flattened to
    (d^2-1, d^2), the design restricted to that basis and its
    pseudo-inverse.
    """

    dim: int
    projectors: tuple[Projector, ...]
    labels: tuple[str, ...]
    condition_number: float
    set_id: str
    stack: np.ndarray           # projector matrices, (n, d, d)
    offsets: np.ndarray         # rank / d per projector, (n,)
    basis_flat: np.ndarray      # traceless Hermitian basis, (d^2-1, d^2)
    basis_design: np.ndarray    # design restricted to the traceless basis, (n, d^2-1)
    pinv: np.ndarray            # pseudo-inverse of basis_design, (d^2-1, n)

    def __len__(self) -> int:
        return len(self.projectors)


def _spanning_from_projectors(
    dim: int, projectors: list[Projector], labels: list[str], set_id: str
) -> SpanningSet:
    design = np.stack([hermitian_coords(p.matrix) for p in projectors], axis=0)
    singulars = np.linalg.svd(design, compute_uv=False)
    cond = float(singulars[0] / singulars[-1]) if singulars[-1] > 0 else float("inf")
    basis = traceless_hermitian_basis(dim)
    basis_coords = np.stack([hermitian_coords(b) for b in basis], axis=0)
    basis_design = design @ basis_coords.T
    return SpanningSet(
        dim=dim,
        projectors=tuple(projectors),
        labels=tuple(labels),
        condition_number=cond,
        set_id=set_id,
        stack=projector_stack(projectors, dim),
        offsets=frozen_matrix([p.rank / dim for p in projectors]),
        basis_flat=frozen_matrix(basis.reshape(len(basis), dim * dim)),
        basis_design=frozen_matrix(basis_design),
        pinv=frozen_matrix(np.linalg.pinv(basis_design)),
    )


def spanning_projectors(dim: int) -> SpanningSet:
    """Informationally complete rank-1 projector set for 2 <= dim <= 8.

    For dim 2 these are the six signed Pauli-axis projectors. For larger
    dimensions: the basis states e_i, plus (e_i +- e_j)/sqrt(2) and
    (e_i +- i e_j)/sqrt(2) for every pair, which together span the full
    dim^2-dimensional Hermitian space.
    """
    if not 2 <= dim <= 8:
        raise UnsupportedDimension(f"spanning sets cover dimensions 2..8, got {dim}")
    if dim == 2:
        labels = list(AXIS_BLOCH)
        projectors = [axis_projector(axis) for axis in labels]
        return _spanning_from_projectors(2, projectors, labels, "axes-d2")
    projectors = []
    labels = []
    eye = np.eye(dim, dtype=complex)
    for i in range(dim):
        projectors.append(projector_from_ket(eye[i]))
        labels.append(f"e{i}")
    for j in range(1, dim):
        for i in range(j):
            for sign, tag in ((1.0, "+"), (-1.0, "-")):
                projectors.append(projector_from_ket(eye[i] + sign * eye[j]))
                labels.append(f"e{i}{tag}e{j}")
            for sign, tag in ((1j, "+i"), (-1j, "-i")):
                projectors.append(projector_from_ket(eye[i] + sign * eye[j]))
                labels.append(f"e{i}{tag}e{j}")
    return _spanning_from_projectors(dim, projectors, labels, f"grid-d{dim}")


@dataclass(frozen=True)
class BlochWitness:
    """Non-physical qubit reconstruction: Bloch vector outside the ball."""

    bloch: tuple[float, float, float]
    norm: float

    @property
    def excess(self) -> float:
        return self.norm - 1.0


@dataclass(frozen=True, eq=False)
class EigenWitness:
    """Negative direction of the reconstructed operator for dim >= 3."""

    min_eig: float
    eigenvector: np.ndarray


@dataclass(frozen=True)
class ResidualWitness:
    """Spanning-set outcome whose value no Hermitian fit reproduces."""

    projector_key: str
    label: str
    residual: float


Witness = BlochWitness | EigenWitness | ResidualWitness


@dataclass(frozen=True, eq=False)
class MarginalityCertificate:
    verdict: Verdict
    dim: int
    rho_hat: np.ndarray
    linear_residual: float
    min_eig: float
    witness: Witness | None
    spanning_set_id: str


def certify_marginal(f: FrameFunction, s: SpanningSet | None = None) -> MarginalityCertificate:
    """Decide whether a frame function is the marginal of a composite one.

    The fit is the least-squares unit-trace Hermitian matrix rho_hat for
    the values on the spanning set, expanded as I/d plus a traceless
    Hermitian combination, which eliminates the trace constraint instead
    of using multipliers. The linear residual is the max-norm misfit
    over the spanning set, the operationally meaningful per-outcome
    error.

    Marginal: the residual is within TOL.lin and the smallest eigenvalue
    of rho_hat is >= -TOL.psd. NonMarginal: the fit fails, or the
    eigenvalue drops below -TOL.margin. Eigenvalues in the gap give
    Inconclusive, separating round-off from genuine non-positivity.
    """
    if s is None:
        s = spanning_projectors(f.dim)
    if s.condition_number > MAX_CONDITION_NUMBER:
        raise IllConditioned(s.condition_number, MAX_CONDITION_NUMBER)
    values = f.values(s.projectors, s.stack)
    coeffs = s.pinv @ (values - s.offsets)
    fit = identity(s.dim) / s.dim + (coeffs @ s.basis_flat).reshape(s.dim, s.dim)
    rho_hat = frozen_matrix(hermitize(fit))
    misfit = values - (s.offsets + s.basis_design @ coeffs)
    err = np.abs(misfit)
    residual = float(err.max())
    low = min_eigenvalue(rho_hat)
    # Each witness reuses the numbers above. Misfits often tie exactly (an
    # antipodal qubit pair always does), so the residual witness names
    # the first projector within TOL.lin of the linear residual.
    verdict, witness = Verdict.NON_MARGINAL, None
    if residual > TOL.lin:
        worst = int(np.argmax(err >= residual - TOL.lin))
        witness = ResidualWitness(
            projector_key=projector_key(s.projectors[worst]),
            label=s.labels[worst],
            residual=residual,
        )
    elif low >= -TOL.psd:
        verdict = Verdict.MARGINAL
    elif low >= -TOL.margin:
        verdict = Verdict.INCONCLUSIVE
    elif s.dim == 2:
        b = bloch_of_matrix(rho_hat)
        witness = BlochWitness(bloch=b.as_tuple(), norm=b.norm())
    else:
        _, eigvecs = np.linalg.eigh(rho_hat)
        witness = EigenWitness(min_eig=low, eigenvector=frozen_matrix(eigvecs[:, 0]))
    return MarginalityCertificate(
        verdict=verdict,
        dim=s.dim,
        rho_hat=rho_hat,
        linear_residual=residual,
        min_eig=low,
        witness=witness,
        spanning_set_id=s.set_id,
    )


def extend_to_composite(rho_f: DensityMatrix, sigma_b: DensityMatrix) -> DensityMatrix:
    """Product extension rho x sigma on the composite space.

    Its partial trace over the second factor returns rho exactly, so the
    Born frame function it induces restricts to the one of rho; this is
    the constructive existence half of the marginality decision.

    The product passes the Hermitian and trace gates of make_density
    on its own matrix. Its positivity is read from the factors: the
    spectrum of A x B is every product of an eigenvalue of A with one
    of B, so its smallest eigenvalue is the least of the four products
    of the factors' extreme eigenvalues. Hermitizing the factors
    instead of the product moves that figure by at most
    ||(A - A†) x (B - B†)||/4 <= TOL.herm**2/4.
    """
    a, b = rho_f.matrix, sigma_b.matrix

    def smallest_eigenvalue(_product: np.ndarray) -> float:
        ea = np.linalg.eigvalsh(hermitize(a))
        eb = np.linalg.eigvalsh(hermitize(b))
        return float(min(ea[0] * eb[0], ea[0] * eb[-1], ea[-1] * eb[0], ea[-1] * eb[-1]))

    return _density(tensor(a, b), smallest_eigenvalue)


def marginality_witness(cert: MarginalityCertificate) -> str:
    """Human-readable description of why a verdict is NonMarginal."""
    if cert.verdict is not Verdict.NON_MARGINAL:
        raise NotApplicable(f"no witness for verdict {cert.verdict.value}")
    w = cert.witness
    if isinstance(w, BlochWitness):
        return f"Bloch norm {w.norm:.4f}, excess {w.excess:.4f}"
    if isinstance(w, EigenWitness):
        vec = ", ".join(f"{c.real:.4f}{c.imag:+.4f}j" for c in w.eigenvector)
        return f"negative eigenvalue {w.min_eig:.4e} with eigenvector [{vec}]"
    if isinstance(w, ResidualWitness):
        return (
            f"worst projector {w.label} (key {w.projector_key}): "
            f"residual {w.residual:.4e}"
        )
    raise NotApplicable("certificate carries no witness")


def verify_extension(
    rho_f: DensityMatrix,
    sigma_b: DensityMatrix,
    projectors: list[Projector],
) -> tuple[float, float]:
    """Check the product extension against its defining identities.

    Returns (partial-trace error, max embedding-probability deviation):
    the Frobenius distance between Tr_B of the extension and rho_f, and
    the largest |Tr((P x I) rho_F) - Tr(P rho_f)| over the projectors
    (0.0 for none). The embedded projectors P x I are built as one
    stack, entry (n, (i, k), (j, l)) = P_n[i, j] * delta_kl.
    """
    d_a, d_b = rho_f.dim, sigma_b.dim
    rho_big = extend_to_composite(rho_f, sigma_b)
    back = partial_trace_b(rho_big, d_a, d_b)
    pt_err = frobenius(back.matrix - rho_f.matrix)
    stack = projector_stack(projectors, d_a)
    embedded = np.zeros((len(stack), d_a, d_b, d_a, d_b), dtype=complex)
    diag = np.arange(d_b)
    embedded[:, :, diag, :, diag] = stack
    lhs = born_values(embedded.reshape(len(stack), rho_big.dim, rho_big.dim), rho_big)
    rhs = born_values(stack, rho_f)
    return pt_err, float(np.abs(lhs - rhs).max(initial=0.0))
