"""Marginality certification: reconstruct a candidate state from frame
function values on an informationally complete projector set, decide
whether the assignment is the restriction of some composite-system
frame function, and construct explicit composite extensions.

The decision reduces an existence statement over all ancilla systems to
two finite checks: (a) the values must be linearly consistent with some
unit-trace Hermitian matrix on the spanning set, and (b) that matrix
must be positive semidefinite. Representability by a density matrix is
equivalent to marginality, with the product extension rho x sigma as
the constructive witness. The certificate reads f only on the spanning
set it records: complete for a tabulated frame, not for a frame defined
on every projector, which may agree with no state off that set.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import (
    IllConditioned, NotApplicable, NotHermitian, NotPositive, NotUnitTrace, UnsupportedDimension,
)
from .frames import AXIS_BLOCH, FrameFunction, axis_projector
from .measurements import embed, projector_key
from .operators import (
    DensityMatrix,
    Projector,
    _frozen,
    _Record,
    _Value,
    bloch_of_matrix,
    born_values,
    frobenius,
    hermitize,
    identity,
    partial_trace_b,
    projector_stack,
    tensor,
)
from .tolerances import MAX_CONDITION_NUMBER, TOL


class Verdict(str, enum.Enum):
    MARGINAL = "marginal"
    NON_MARGINAL = "non_marginal"
    INCONCLUSIVE = "inconclusive"


def hermitian_coords(stack: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of an (n, d, d) stack of Hermitian
    matrices, one row (diagonal, sqrt(2) Re upper, sqrt(2) Im upper) per
    matrix, so the Euclidean dot product of two rows equals Tr(A B)."""
    d = stack.shape[1]
    i, j = np.triu_indices(d, k=1)
    diag, upper = np.arange(d), stack[:, i, j]
    parts = [stack[:, diag, diag].real, math.sqrt(2) * upper.real, math.sqrt(2) * upper.imag]
    return np.concatenate(parts, axis=1)


def traceless_hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) traceless Hermitian basis, shape
    (dim^2 - 1, dim, dim): for each pair i < j, taken by j then i, its
    symmetric and antisymmetric matrix, followed by the diagonal ladder."""
    j, i = np.tril_indices(dim, -1)
    k, level = 2 * np.arange(len(i)), np.arange(1, dim)
    scale = 1.0 / np.sqrt(level * (level + 1))
    basis = np.zeros((dim * dim - 1, dim, dim), dtype=complex)
    basis[k, i, j] = basis[k, j, i] = 1.0 / math.sqrt(2)
    basis[k + 1, i, j] = -1j / math.sqrt(2)
    basis[k + 1, j, i] = 1j / math.sqrt(2)
    diag = np.arange(dim)
    basis[2 * len(i):, diag, diag] = np.tri(dim - 1, dim) * scale[:, None]
    basis[2 * len(i) + level - 1, level, level] = -level * scale
    return basis


class SpanningSet(_Record):
    """Projectors whose real span is the full Hermitian space.

    ``condition_number`` is sigma_max / sigma_min of the vectorized
    design matrix (one row of Hermitian coordinates per projector).
    Everything a fit needs besides the frame's values is computed once
    at build time: the projector matrices as one (n, d, d) stack, the
    trace part rank/d of each value, the traceless basis flattened to
    (d^2-1, d^2), the design restricted to that basis and its
    pseudo-inverse.
    """

    __slots__ = __match_args__ = ("dim", "projectors", "labels", "condition_number", "set_id",
                                  "stack", "offsets", "basis_flat", "basis_design", "pinv")

    def __init__(self, dim: int, projectors: tuple[Projector, ...], labels: tuple[str, ...],
                 condition_number: float, set_id: str, stack: np.ndarray, offsets: np.ndarray,
                 basis_flat: np.ndarray, basis_design: np.ndarray, pinv: np.ndarray):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "condition_number", condition_number)
        object.__setattr__(self, "set_id", set_id)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "basis_flat", basis_flat)
        object.__setattr__(self, "basis_design", basis_design)
        object.__setattr__(self, "pinv", pinv)

    def __len__(self) -> int:
        return len(self.projectors)


def _spanning_set(
    dim: int, stack: np.ndarray, projectors: list[Projector], labels: list[str], set_id: str
) -> SpanningSet:
    """The set of projectors whose matrices form the frozen stack."""
    design = hermitian_coords(stack)
    singulars = np.linalg.svd(design, compute_uv=False)
    cond = float(singulars[0] / singulars[-1]) if singulars[-1] > 0 else float("inf")
    basis = traceless_hermitian_basis(dim)
    basis_design = design @ hermitian_coords(basis).T
    return SpanningSet(
        dim=dim,
        projectors=tuple(projectors),
        labels=tuple(labels),
        condition_number=cond,
        set_id=set_id,
        stack=stack,
        offsets=_frozen(np.array([p.rank / dim for p in projectors])),
        basis_flat=_frozen(basis.reshape(len(basis), dim * dim)),
        basis_design=_frozen(basis_design),
        pinv=_frozen(np.linalg.pinv(basis_design)),
    )


def spanning_projectors(dim: int) -> SpanningSet:
    """Informationally complete rank-1 projector set for 2 <= dim <= 8.

    For dim 2 these are the six signed Pauli-axis projectors. For larger
    dimensions: the basis states e_i, plus (e_i +- e_j)/sqrt(2) and
    (e_i +- i e_j)/sqrt(2) for every pair, which together span the full
    dim^2-dimensional Hermitian space. Their exact kets are one array,
    projected as one stack that projector_from_ket's bound passes with
    rank 1; the projectors are views of its rows, kept frozen in the set.
    """
    if not 2 <= dim <= 8:
        raise UnsupportedDimension(f"spanning sets cover dimensions 2..8, got {dim}")
    if dim == 2:
        labels = list(AXIS_BLOCH)
        projectors = [axis_projector(axis) for axis in labels]
        return _spanning_set(2, projector_stack(projectors, 2), projectors, labels, "axes-d2")
    eye = np.eye(dim, dtype=complex)
    j, i = np.tril_indices(dim, -1)   # the pairs i < j, by j then i
    pairs = eye[i][:, None] + np.array([1.0, -1.0, 1j, -1j])[:, None] * eye[j][:, None]
    kets = np.concatenate([eye, pairs.reshape(-1, dim)])
    v = kets / np.linalg.norm(kets, axis=1)[:, None]
    stack = _frozen(v[:, :, None] * v.conj()[:, None, :])
    projectors = [Projector(dim, m, 1) for m in stack]
    labels = [f"e{a}" for a in range(dim)] + [
        f"e{a}{tag}e{b}" for a, b in zip(i.tolist(), j.tolist()) for tag in ("+", "-", "+i", "-i")
    ]
    return _spanning_set(dim, stack, projectors, labels, f"grid-d{dim}")


class BlochWitness(_Value):
    """Non-physical qubit reconstruction: Bloch vector outside the ball."""

    __slots__ = __match_args__ = ("bloch", "norm")

    def __init__(self, bloch: tuple[float, float, float], norm: float):
        object.__setattr__(self, "bloch", bloch)
        object.__setattr__(self, "norm", norm)

    @property
    def excess(self) -> float:
        return self.norm - 1.0


class EigenWitness(_Record):
    """Negative direction of the reconstructed operator for dim >= 3."""

    __slots__ = __match_args__ = ("min_eig", "eigenvector")

    def __init__(self, min_eig: float, eigenvector: np.ndarray):
        object.__setattr__(self, "min_eig", min_eig)
        object.__setattr__(self, "eigenvector", eigenvector)


class ResidualWitness(_Value):
    """Spanning-set outcome whose value no Hermitian fit reproduces."""

    __slots__ = __match_args__ = ("projector_key", "label", "residual")

    def __init__(self, projector_key: str, label: str, residual: float):
        object.__setattr__(self, "projector_key", projector_key)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "residual", residual)


Witness = BlochWitness | EigenWitness | ResidualWitness


class MarginalityCertificate(_Record):
    __slots__ = __match_args__ = ("verdict", "dim", "rho_hat", "linear_residual", "min_eig",
                                  "witness", "spanning_set_id")

    def __init__(self, verdict: Verdict, dim: int, rho_hat: np.ndarray, linear_residual: float,
                 min_eig: float, witness: Witness | None, spanning_set_id: str):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rho_hat", rho_hat)
        object.__setattr__(self, "linear_residual", linear_residual)
        object.__setattr__(self, "min_eig", min_eig)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "spanning_set_id", spanning_set_id)


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
    values = f.values(s.stack)
    coeffs = s.pinv @ (values - s.offsets)
    fit = identity(s.dim) / s.dim + (coeffs @ s.basis_flat).reshape(s.dim, s.dim)
    rho_hat = _frozen(hermitize(fit))
    misfit = values - (s.offsets + s.basis_design @ coeffs)
    err = np.abs(misfit)
    residual = float(err.max())
    # rho_hat is exactly Hermitian, so it is eigensolved as it stands.
    low = float(np.linalg.eigvalsh(rho_hat)[0])
    # Each witness reuses the numbers above. Misfits often tie exactly (an
    # antipodal qubit pair always does), so the residual witness names
    # the first projector within TOL.lin of the linear residual.
    verdict, witness = Verdict.NON_MARGINAL, None
    if residual > TOL.lin:
        worst = int(np.argmax(err >= residual - TOL.lin))
        witness = ResidualWitness(
            projector_key=projector_key(s.stack[worst]),
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
        witness = EigenWitness(min_eig=low, eigenvector=_frozen(eigvecs[:, 0].copy()))
    return MarginalityCertificate(
        verdict=verdict,
        dim=s.dim,
        rho_hat=rho_hat,
        linear_residual=residual,
        min_eig=low,
        witness=witness,
        spanning_set_id=s.set_id,
    )


def _least_product_eigenvalue(ea: np.ndarray, eb: np.ndarray) -> float:
    """Least eigenvalue of A x B: the least product of extreme eigenvalues."""
    return float(min(ea[0] * eb[0], ea[0] * eb[-1], ea[-1] * eb[0], ea[-1] * eb[-1]))


def extend_to_composite(rho_f: DensityMatrix, sigma_b: DensityMatrix) -> DensityMatrix:
    """Product extension rho x sigma on the composite space.

    Its partial trace over the second factor returns rho exactly, so the
    Born frame function it induces restricts to the one of rho; this is
    the constructive existence half of the marginality decision.

    A x B is gated through its factors, with make_density's error
    classes, on bounds its gates on them imply, so two states it accepted
    always extend. The factors' Hermitian residuals, traces and spectra
    are those their gates kept (a state built otherwise measures them
    when read). With d the larger factor dimension, a factor has
    Hermitian residual r <= TOL.herm, |Tr - 1| <= TOL.tr and eigenvalues
    in [-TOL.psd, 1 + TOL.tr + (d - 1) TOL.psd], so norm below 1 + 2d
    TOL.psd. Hence A x B - (A x B)† = (A - A†) x B + A† x (B - B†) has
    norm <= r_A ||B|| + ||A|| r_B <= 2 TOL.herm (1 + 2d TOL.psd); Tr(A x B)
    = Tr A Tr B is within (2 + TOL.tr) TOL.tr of 1, plus 2^-50 of
    rounding; and the least eigenvalue of A x B, a product of the
    factors' cached extreme ones, is >= -TOL.psd (1 + TOL.tr + (d - 1)
    TOL.psd), gated at -TOL.psd (1 + d TOL.psd) with room for rounding.
    """
    a, b = rho_f.matrix, sigma_b.matrix
    m = tensor(a, b)
    d = max(rho_f.dim, sigma_b.dim)
    herm = rho_f.hermitian_residual * frobenius(b) + frobenius(a) * sigma_b.hermitian_residual
    if herm > 2 * TOL.herm * (1 + 2 * d * TOL.psd):
        raise NotHermitian(herm)
    tr = rho_f.trace * sigma_b.trace
    if abs(tr - 1.0) > (2 + TOL.tr) * TOL.tr + 2**-50:
        raise NotUnitTrace(tr)
    low = _least_product_eigenvalue(rho_f.spectrum, sigma_b.spectrum)
    if low < -TOL.psd * (1 + d * TOL.psd):
        raise NotPositive(low)
    return DensityMatrix(dim=m.shape[0], matrix=_frozen(m))


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
    (0.0 for none). The embedded projectors P x I are one ``embed``
    stack.
    """
    d_a, d_b = rho_f.dim, sigma_b.dim
    rho_big = extend_to_composite(rho_f, sigma_b)
    back = partial_trace_b(rho_big, d_a, d_b)
    pt_err = frobenius(back.matrix - rho_f.matrix)
    stack = projector_stack(projectors, d_a)
    lhs = born_values(embed(stack, d_b), rho_big)
    rhs = born_values(stack, rho_f)
    return pt_err, float(np.abs(lhs - rhs).max(initial=0.0))
