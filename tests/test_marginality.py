import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gleason_lab import marginality, operators
from gleason_lab.errors import (
    DimensionMismatch,
    DimensionOverflow,
    GleasonLabError,
    IllConditioned,
    NotApplicable,
    NotHermitian,
    NotPositive,
    NotUnitTrace,
    UndefinedProjector,
    UnsupportedDimension,
    ValueOutOfRange,
)
from gleason_lab.frames import (
    AXIS_BLOCH,
    FrameFunction,
    InducedFrameFunction,
    axis_projector,
    axis_table,
    born_backed,
    definite_xz_table,
    deterministic_qubit,
    tabulated,
)
from gleason_lab.marginality import (
    BlochWitness,
    EigenWitness,
    ResidualWitness,
    SpanningSet,
    Verdict,
    certify_marginal,
    extend_to_composite,
    marginality_witness,
    spanning_projectors,
    verify_extension,
)
from gleason_lab.operators import (
    DensityMatrix,
    Projector,
    bloch_of_matrix,
    born_values,
    frobenius,
    haar_unitary,
    hermitize,
    identity,
    make_density,
    make_projector,
    partial_trace_b,
    projector_from_ket,
    projector_stack,
    random_density_matrix,
    tensor,
)
from gleason_lab.serialization import certificate_to_json
from gleason_lab.tolerances import TOL

from conftest import bloch_oracle, kron_oracle, rank1_projector


def design_rank_oracle(projectors) -> int:
    """Rank of the real design matrix, using an independent vectorization
    (stacked real and imaginary parts, no scaling)."""
    rows = []
    for p in projectors:
        m = p.matrix
        rows.append(np.concatenate([m.real.ravel(), m.imag.ravel()]))
    return int(np.linalg.matrix_rank(np.stack(rows), tol=1e-10))


def loop_hermitian_coords(m):
    """Coordinates of one Hermitian matrix, as spelled per matrix."""
    iu = np.triu_indices(m.shape[0], k=1)
    return np.concatenate(
        [np.real(np.diagonal(m)), math.sqrt(2) * np.real(m[iu]), math.sqrt(2) * np.imag(m[iu])]
    )


def loop_traceless_basis(dim):
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


def loop_spanning_reference(dim):
    """A spanning set built one ket and one matrix at a time:
    projector_from_ket per ket, per-matrix coordinates, then np.stack."""
    if dim == 2:
        labels = list(AXIS_BLOCH)
        projectors = [axis_projector(axis) for axis in labels]
    else:
        projectors, labels = [], []
        eye = np.eye(dim, dtype=complex)
        for i in range(dim):
            projectors.append(projector_from_ket(eye[i]))
            labels.append(f"e{i}")
        for j in range(1, dim):
            for i in range(j):
                for sign, tag in ((1.0, "+"), (-1.0, "-"), (1j, "+i"), (-1j, "-i")):
                    projectors.append(projector_from_ket(eye[i] + sign * eye[j]))
                    labels.append(f"e{i}{tag}e{j}")
    design = np.stack([loop_hermitian_coords(p.matrix) for p in projectors], axis=0)
    singulars = np.linalg.svd(design, compute_uv=False)
    basis = loop_traceless_basis(dim)
    basis_design = design @ np.stack([loop_hermitian_coords(b) for b in basis], axis=0).T
    return {
        "projectors": projectors,
        "labels": tuple(labels),
        "condition_number": float(singulars[0] / singulars[-1]),
        "stack": np.stack([p.matrix for p in projectors]),
        "basis_flat": basis.reshape(len(basis), dim * dim),
        "basis_design": basis_design,
        "pinv": np.linalg.pinv(basis_design),
    }


class TestSpanningProjectors:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_the_bits_of_the_loop_spelling(self, dim):
        s, ref = spanning_projectors(dim), loop_spanning_reference(dim)
        assert s.labels == ref["labels"]
        assert s.set_id == ("axes-d2" if dim == 2 else f"grid-d{dim}")
        assert s.condition_number == ref["condition_number"]
        for name in ("stack", "basis_flat", "basis_design", "pinv"):
            got = getattr(s, name)
            assert got.dtype == ref[name].dtype and got.shape == ref[name].shape, name
            assert got.tobytes() == ref[name].tobytes(), name
        assert not s.stack.flags.writeable
        assert len(s.projectors) == len(ref["projectors"])
        for k, (p, q) in enumerate(zip(s.projectors, ref["projectors"])):
            assert p.dim == dim and type(p.rank) is int and p.rank == q.rank
            assert p.matrix.tobytes() == q.matrix.tobytes()
            assert not p.matrix.flags.writeable
            assert np.shares_memory(p.matrix, s.stack[k]) and (dim == 2 or p.matrix.base is s.stack)

    def test_qubit_set_is_the_six_axis_projectors(self):
        s = spanning_projectors(2)
        assert len(s) == 6
        assert s.labels == ("+x", "-x", "+y", "-y", "+z", "-z")
        assert s.set_id == "axes-d2"
        assert design_rank_oracle(s.projectors) == 4

    def test_qutrit_design_rank(self):
        s = spanning_projectors(3)
        assert design_rank_oracle(s.projectors) == 9

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_design_rank_is_dim_squared(self, dim):
        s = spanning_projectors(dim)
        assert design_rank_oracle(s.projectors) == dim * dim
        assert s.condition_number < 1e2

    def test_all_elements_revalidate(self):
        for dim in (2, 3, 4):
            for p in spanning_projectors(dim).projectors:
                again = make_projector(p.matrix)
                assert again.rank == p.rank

    @pytest.mark.parametrize("dim", [1, 9])
    def test_unsupported_dimension(self, dim):
        with pytest.raises(UnsupportedDimension):
            spanning_projectors(dim)

    @pytest.mark.parametrize("dim", [True, False, 2.0, 3.0, np.float64(3.0), "3", None, np.bool_(True)])
    def test_a_dimension_is_an_integer(self, dim):
        with pytest.raises(UnsupportedDimension):
            spanning_projectors(dim)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_one_shared_set_per_dimension(self, dim):
        s = spanning_projectors(dim)
        assert s is spanning_projectors(dim)
        assert spanning_projectors(np.int64(dim)) is s and type(s.dim) is int
        rho = random_density_matrix(dim, np.random.default_rng(dim))
        assert type(certify_marginal(born_backed(rho), spanning_projectors(np.int64(dim))).dim) is int

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_projectors_are_formed_once_from_the_stack(self, dim):
        # test_the_bits_of_the_loop_spelling checks that they are read-only
        # views; at d = 2 they are no longer the cached axis projectors.
        s = spanning_projectors(dim)
        assert s.projectors is s.projectors and len(s) == len(s.projectors) == len(s.stack)
        for label, p in zip(s.labels, s.projectors):
            assert type(p) is Projector and (p.dim, p.rank) == (dim, 1)
            assert dim != 2 or p is not axis_projector(label)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_a_twin_derives_the_same_bytes(self, dim):
        s = spanning_projectors(dim)
        for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert type(twin) is SpanningSet and twin is not s
            assert (twin.dim, twin.labels, twin.set_id) == (s.dim, s.labels, s.set_id)
            assert twin.condition_number.hex() == s.condition_number.hex()
            for name in ("stack", "basis_flat", "basis_design", "pinv"):
                assert getattr(twin, name).tobytes() == getattr(s, name).tobytes(), name
                assert not getattr(twin, name).flags.writeable, name
            assert [p.matrix.tobytes() for p in twin.projectors] == [
                p.matrix.tobytes() for p in s.projectors]


Z_ROWS = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=complex)


class TestSpanningSetConstructor:
    def test_a_writeable_stack_is_copied_and_frozen(self):
        mine = Z_ROWS.copy()
        s = SpanningSet(2, mine, ("+z", "-z"), "z")
        assert s.stack is not mine and not np.shares_memory(s.stack, mine)
        assert not s.stack.flags.writeable
        assert all(not p.matrix.flags.writeable for p in s.projectors)
        pinv = s.pinv.tobytes()
        mine[0] = mine[1]
        assert s.stack.tobytes() == Z_ROWS.tobytes() and s.pinv.tobytes() == pinv

    def test_a_read_only_stack_is_kept_as_given(self):
        frozen = Z_ROWS.copy()
        frozen.setflags(write=False)
        s = SpanningSet(np.int64(2), frozen, ("+z", "-z"), "z")
        assert s.stack is frozen and type(s.dim) is int

    @pytest.mark.parametrize("dim, stack, labels", [
        (3, Z_ROWS, ("+z", "-z")),
        (2, Z_ROWS[0], ("+z",)),
        (2, Z_ROWS[:0], ()),
        (2, Z_ROWS, ("+z",)),
        (2, Z_ROWS, ("+z", "-z", "x")),
    ], ids=["dim", "2-d", "empty", "few-labels", "many-labels"])
    def test_shape_and_labels_must_match(self, dim, stack, labels):
        with pytest.raises(DimensionMismatch):
            SpanningSet(dim, stack, labels, "bad")

    @pytest.mark.parametrize("row", [
        np.eye(2), np.zeros((2, 2)), np.diag([0.5, 0.5]), np.array([[1, 1], [0, 0]]),
        np.array([[np.nan, 0], [0, 0]]),
    ], ids=["rank-2", "zero", "mixed", "not-hermitian", "nan"])
    def test_every_row_is_a_rank1_projector(self, row):
        stack = np.stack([Z_ROWS[0], row.astype(complex)])
        with pytest.raises(ValueOutOfRange):
            SpanningSet(2, stack, ("+z", "bad"), "bad")

    @pytest.mark.parametrize("dim", [2.0, True, "2", None])
    def test_a_dimension_is_an_integer(self, dim):
        with pytest.raises(UnsupportedDimension):
            SpanningSet(dim, Z_ROWS, ("+z", "-z"), "z")


class TestFit:
    def test_born_round_trip(self, rng):
        for dim in (2, 3, 4):
            s = spanning_projectors(dim)
            for _ in range(50):
                rho = random_density_matrix(dim, rng)
                cert = certify_marginal(born_backed(rho), s)
                assert np.linalg.norm(cert.rho_hat - rho.matrix, "fro") <= 1e-9
                assert cert.linear_residual <= 1e-9
                assert abs(np.trace(cert.rho_hat).real - 1.0) <= 1e-12

    def test_deterministic_rule_matches_per_axis_oracle(self):
        f = deterministic_qubit()
        s = spanning_projectors(2)
        cert = certify_marginal(f, s)
        expected = np.array(
            [
                2 * f(axis_projector("+x")) - 1,
                2 * f(axis_projector("+y")) - 1,
                2 * f(axis_projector("+z")) - 1,
            ]
        )
        bloch = np.array(bloch_of_matrix(cert.rho_hat))
        assert np.allclose(bloch, expected, atol=1e-12)
        assert cert.linear_residual <= 1e-12
        # two deterministic axes already push the norm past the ball
        assert np.linalg.norm(bloch) > 1
        assert np.linalg.norm(bloch) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_definite_xz_table_reconstruction(self):
        cert = certify_marginal(definite_xz_table(), spanning_projectors(2))
        x, y, z = bloch_of_matrix(cert.rho_hat)
        assert np.allclose((x, y, z), (1.0, 0.0, 1.0), atol=1e-12)
        assert math.sqrt(x * x + y * y + z * z) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert cert.linear_residual <= 1e-12

    def test_uniform_table_reconstructs_maximally_mixed(self):
        f = axis_table({a: 0.5 for a in ("+x", "-x", "+y", "-y", "+z", "-z")})
        cert = certify_marginal(f, spanning_projectors(2))
        assert np.allclose(cert.rho_hat, identity(2) / 2, atol=1e-12)
        assert cert.linear_residual <= 1e-12

    def test_round_trip_is_idempotent(self, rng):
        s = spanning_projectors(3)
        rho = random_density_matrix(3, rng)
        first = certify_marginal(born_backed(rho), s).rho_hat
        second = certify_marginal(born_backed(make_density(first)), s).rho_hat
        assert np.linalg.norm(second - first, "fro") <= 1e-10

    def test_partial_table_raises_undefined(self):
        f = axis_table({"+x": 1.0, "-x": 0.0})
        with pytest.raises(UndefinedProjector):
            certify_marginal(f, spanning_projectors(2))

    def test_degenerate_set_is_ill_conditioned(self, rng):
        p = rank1_projector(2, rng)
        s = SpanningSet(2, projector_stack([p] * 4, 2), ("a", "b", "c", "d"), "degenerate")
        assert s.condition_number > 1e8
        with pytest.raises(IllConditioned):
            certify_marginal(born_backed(random_density_matrix(2, rng)), s)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_fit_is_exactly_hermitian(self, rng, dim):
        # min_eig is the smallest eigenvalue of rho_hat itself: Hermitizing
        # the fit's output again changes no bit.
        s = spanning_projectors(dim)
        for _ in range(10):
            values = rng.uniform(0.0, 1.0, len(s))
            cert = certify_marginal(tabulated(list(zip(s.projectors, values))), s)
            assert np.array_equal(hermitize(cert.rho_hat), cert.rho_hat)
            assert cert.min_eig == float(np.linalg.eigvalsh(cert.rho_hat)[0])


def _frames_of_every_verdict(dim, rng):
    """A Born frame, a random table (a residual witness) and, at d = 2
    and 3, a frame with a Bloch or an eigen witness."""
    s = spanning_projectors(dim)
    frames = [born_backed(random_density_matrix(dim, rng)),
              tabulated(list(zip(s.projectors, rng.uniform(0, 1, len(s)))))]
    if dim == 2:
        frames += [definite_xz_table(), deterministic_qubit()]
    if dim == 3:
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3, 2)) @ np.array([1.0, 1j]))
        m = q @ np.diag([-0.03, 0.33, 0.7]) @ q.conj().T
        frames.append(tabulated([(p, float(np.trace(p.matrix @ m).real)) for p in s.projectors]))
    return frames


@pytest.mark.parametrize("dim", range(2, 9))
def test_the_default_set_certifies_bit_for_bit(dim):
    rng = np.random.default_rng(40 + dim)
    kinds = set()
    for f in _frames_of_every_verdict(dim, rng):
        a, b = certify_marginal(f), certify_marginal(f, spanning_projectors(dim))
        assert a.verdict is b.verdict and a.spanning_set_id == b.spanning_set_id
        assert a.rho_hat.tobytes() == b.rho_hat.tobytes()
        assert a.linear_residual.hex() == b.linear_residual.hex()
        assert a.min_eig.hex() == b.min_eig.hex()
        assert type(a.witness) is type(b.witness)
        if isinstance(a.witness, EigenWitness):
            assert a.witness.min_eig.hex() == b.witness.min_eig.hex()
            assert a.witness.eigenvector.tobytes() == b.witness.eigenvector.tobytes()
        else:
            assert a.witness == b.witness
        kinds.add(type(a.witness).__name__)
    assert {"NoneType", "ResidualWitness"} <= kinds
    assert dim != 2 or "BlochWitness" in kinds
    assert dim != 3 or "EigenWitness" in kinds


def certify_reference(f, s):
    """certify_marginal's fit in its plain numpy spelling: a fresh np.eye
    for I/d, np.max over the misfit, an eigensolve of the Hermitized fit,
    and the qubit witness's Bloch vector as the traces Tr(rho_hat sigma_k)."""
    values = f.values(s.stack)
    coeffs = s.pinv @ (values - 1 / s.dim)
    fit = np.eye(s.dim, dtype=complex) / s.dim + (coeffs @ s.basis_flat).reshape(s.dim, s.dim)
    rho_hat = hermitize(fit)
    misfit = values - (1 / s.dim + s.basis_design @ coeffs)
    residual = float(np.max(np.abs(misfit)))
    low = float(np.linalg.eigvalsh(hermitize(rho_hat))[0])
    verdict, witness = Verdict.NON_MARGINAL, None
    if residual > TOL.lin:
        worst = int(np.argmax(np.abs(misfit) >= residual - TOL.lin))
        witness = ("residual", s.labels[worst], residual)
    elif low >= -TOL.psd:
        verdict = Verdict.MARGINAL
    elif low >= -TOL.margin:
        verdict = Verdict.INCONCLUSIVE
    elif s.dim == 2:
        x, y, z = bloch_oracle(rho_hat)
        witness = ("bloch", (x, y, z), math.sqrt(x * x + y * y + z * z))
    else:
        witness = ("eigen", low, np.linalg.eigh(rho_hat)[1][:, 0].tobytes())
    return rho_hat.tobytes(), residual, low, verdict, witness


def certificate_bits(cert):
    assert not cert.rho_hat.flags.writeable and cert.rho_hat.flags.c_contiguous
    w = cert.witness
    if isinstance(w, ResidualWitness):
        w = ("residual", w.label, w.residual)
    elif isinstance(w, BlochWitness):
        w = ("bloch", w.bloch, w.norm)
    elif isinstance(w, EigenWitness):
        w = ("eigen", w.min_eig, w.eigenvector.tobytes())
    return cert.rho_hat.tobytes(), cert.linear_residual, cert.min_eig, cert.verdict, w


def _table_frame(s, rng, lowest, noise):
    """Values of a unit-trace Hermitian matrix with smallest eigenvalue
    ``lowest`` on the spanning set, plus Gaussian noise, clamped to [0, 1]."""
    d = s.dim
    rest = rng.uniform(0.2, 1.0, d - 1)
    rest = rest * (1.0 - lowest) / rest.sum()
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    h = (q * np.concatenate([[lowest], rest])) @ q.conj().T
    values = np.einsum("nij,ji->n", s.stack, h).real + noise * rng.standard_normal(len(s))
    return tabulated(list(zip(s.projectors, np.clip(values, 0.0, 1.0))))


class TestFitExactly:
    """certify_marginal returns the bits of the plain spelling of its fit."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_born_frames(self, rng, dim):
        s = spanning_projectors(dim)
        for _ in range(20):
            f = born_backed(random_density_matrix(dim, rng))
            assert certificate_bits(certify_marginal(f, s)) == certify_reference(f, s)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("lowest, noise", [(-0.05, 0.0), (-5e-8, 0.0), (0.1, 0.0), (0.1, 0.02)])
    def test_tabulated_frames(self, rng, dim, lowest, noise):
        s = spanning_projectors(dim)
        for _ in range(10):
            f = _table_frame(s, rng, lowest, noise)
            assert certificate_bits(certify_marginal(f, s)) == certify_reference(f, s)

    @pytest.mark.parametrize(
        "frame", [deterministic_qubit, definite_xz_table], ids=["deterministic", "definite_xz"]
    )
    def test_qubit_counterexamples(self, frame):
        f, s = frame(), spanning_projectors(2)
        assert certificate_bits(certify_marginal(f, s)) == certify_reference(f, s)

    def test_every_verdict_and_witness_is_covered(self, rng):
        seen = set()
        for dim in (3, 4):
            s = spanning_projectors(dim)
            for lowest, noise in [(-0.05, 0.0), (-5e-8, 0.0), (0.1, 0.0), (0.1, 0.02)]:
                cert = certify_marginal(_table_frame(s, rng, lowest, noise), s)
                seen.add((cert.verdict, type(cert.witness)))
        cert = certify_marginal(definite_xz_table(), spanning_projectors(2))
        seen.add((cert.verdict, type(cert.witness)))
        assert seen == {
            (Verdict.MARGINAL, type(None)),
            (Verdict.INCONCLUSIVE, type(None)),
            (Verdict.NON_MARGINAL, ResidualWitness),
            (Verdict.NON_MARGINAL, EigenWitness),
            (Verdict.NON_MARGINAL, BlochWitness),
        }


class TestCertifyMarginal:
    def test_born_backed_is_marginal(self, rng):
        for dim in (2, 3):
            s = spanning_projectors(dim)
            for _ in range(25):
                rho = random_density_matrix(dim, rng)
                cert = certify_marginal(born_backed(rho), s)
                assert cert.verdict is Verdict.MARGINAL
                assert cert.linear_residual <= 1e-9
                assert cert.witness is None

    def test_deterministic_rule_is_non_marginal(self):
        cert = certify_marginal(deterministic_qubit())
        assert cert.verdict is Verdict.NON_MARGINAL
        assert isinstance(cert.witness, BlochWitness)
        assert cert.witness.norm == pytest.approx(math.sqrt(3), abs=1e-9)
        assert cert.min_eig == pytest.approx((1 - math.sqrt(3)) / 2, abs=1e-9)

    def test_definite_xz_table_is_non_marginal(self):
        cert = certify_marginal(definite_xz_table())
        assert cert.verdict is Verdict.NON_MARGINAL
        assert cert.min_eig == pytest.approx((1 - math.sqrt(2)) / 2, abs=1e-9)
        assert isinstance(cert.witness, BlochWitness)
        assert cert.witness.norm == pytest.approx(math.sqrt(2), abs=1e-9)
        assert cert.witness.excess == pytest.approx(math.sqrt(2) - 1, abs=1e-9)

    def test_inconsistent_table_fails_on_residual(self):
        f = axis_table({a: 1.0 for a in ("+x", "-x", "+y", "-y", "+z", "-z")})
        cert = certify_marginal(f)
        assert cert.verdict is Verdict.NON_MARGINAL
        assert cert.linear_residual > 1e-9
        assert isinstance(cert.witness, ResidualWitness)

    def test_boundary_state_is_inconclusive(self):
        # Bloch norm 1 + 1e-7: negative eigenvalue of -5e-8 sits between
        # the accept (-1e-9) and reject (-1e-6) thresholds.
        a = (1.0 + 1e-7) / math.sqrt(2)
        f = axis_table(
            {
                "+x": (1 + a) / 2,
                "-x": (1 - a) / 2,
                "+y": (1 + a) / 2,
                "-y": (1 - a) / 2,
                "+z": 0.5,
                "-z": 0.5,
            }
        )
        cert = certify_marginal(f)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert -1e-6 < cert.min_eig < -1e-9
        assert cert.witness is None

    def test_non_marginal_for_dim_three_gets_eigen_witness(self):
        # Values taken exactly from a unit-trace Hermitian matrix with one
        # negative eigenvalue: linearly consistent, but not a state.
        from gleason_lab.frames import tabulated

        s = spanning_projectors(3)
        v = np.ones(3, dtype=complex) / math.sqrt(3)
        pv = np.outer(v, v.conj())
        low = -0.01
        x = low * pv + (1 - low) * (identity(3) - pv) / 2
        table = [(p, float(np.trace(p.matrix @ x).real)) for p in s.projectors]
        cert = certify_marginal(tabulated(table), s)
        assert cert.verdict is Verdict.NON_MARGINAL
        assert cert.linear_residual <= 1e-9
        assert isinstance(cert.witness, EigenWitness)
        assert cert.witness.min_eig == pytest.approx(low, abs=1e-9)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_residual_witness_reuses_the_fit(self, axis):
        # The misfits of +a and -a tie exactly; the first one is named,
        # and the witness reports the certificate's own linear residual.
        values = {f"{sign}{a}": 0.5 for a in "xyz" for sign in "+-"}
        values[f"+{axis}"], values[f"-{axis}"] = 0.9, 0.3
        cert = certify_marginal(axis_table(values))
        assert cert.verdict is Verdict.NON_MARGINAL
        assert isinstance(cert.witness, ResidualWitness)
        assert cert.witness.label == f"+{axis}"
        assert cert.witness.residual == cert.linear_residual

    def test_eigen_witness_reuses_the_certificate_eigenvalue(self):
        g = np.random.default_rng(2).standard_normal((3, 3, 2)) @ np.array([1.0, 1j])
        q, _ = np.linalg.qr(g)
        m = q @ np.diag([-0.03, 0.33, 0.7]) @ q.conj().T
        s = spanning_projectors(3)
        table = [(p, float(np.trace(p.matrix @ m).real)) for p in s.projectors]
        cert = certify_marginal(tabulated(table), s)
        assert cert.verdict is Verdict.NON_MARGINAL
        assert isinstance(cert.witness, EigenWitness)
        assert cert.witness.min_eig == cert.min_eig
        assert cert.min_eig == pytest.approx(-0.03, abs=1e-12)

    def test_evaluates_the_frame_once_per_spanning_projector(self):
        s = spanning_projectors(3)
        table = tabulated([(p, 1.0) for p in s.projectors])

        class Counting(FrameFunction):
            dim = 3
            calls = 0

            def values(self, stack):
                self.calls += len(stack)
                return table.values(stack)

        f = Counting()
        cert = certify_marginal(f, s)
        assert isinstance(cert.witness, ResidualWitness)
        assert f.calls == len(s)

    def test_certificate_records_spanning_set_and_tolerances(self):
        cert = certify_marginal(definite_xz_table())
        assert cert.spanning_set_id == "axes-d2"
        assert certificate_to_json(cert)["tolerances"]["lin"] == 1e-9

    def test_tolerance_table_is_fixed(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TOL.lin = 1e-20
        cert = certify_marginal(definite_xz_table())
        assert certificate_to_json(cert)["tolerances"] == TOL.to_dict()


class TestTwoDeterministicAxes:
    @pytest.mark.parametrize("axes", [("x", "y"), ("x", "z"), ("y", "z")])
    @pytest.mark.parametrize("signs", [(1, 1), (1, 0), (0, 1), (0, 0)])
    def test_any_two_definite_axes_leave_the_ball(self, axes, signs):
        # Whatever the two definite axes and outcomes, the per-axis
        # inversion lands at Bloch norm sqrt(2) > 1.
        free = ({"x", "y", "z"} - set(axes)).pop()
        values = {f"+{free}": 0.5, f"-{free}": 0.5}
        for axis, one in zip(axes, signs):
            values[f"+{axis}"] = float(one)
            values[f"-{axis}"] = float(1 - one)
        cert = certify_marginal(axis_table(values))
        assert cert.verdict is Verdict.NON_MARGINAL
        assert isinstance(cert.witness, BlochWitness)
        assert cert.witness.norm == pytest.approx(math.sqrt(2), abs=1e-12)


@st.composite
def gate_boundary_matrices(draw, dim):
    """Raw d x d matrices at and inside make_density's three gates: the
    least eigenvalue down to -TOL.psd, the trace within TOL.tr of 1 and
    an anti-Hermitian part of residual up to TOL.herm, boundaries
    included, in a rotated or the computational basis."""
    low = draw(st.sampled_from([-TOL.psd, 0.0]) | st.floats(-TOL.psd, 0.5 / dim))
    offset = draw(st.sampled_from([-TOL.tr, TOL.tr, 0.0]) | st.floats(-TOL.tr, TOL.tr))
    skew = draw(st.sampled_from([TOL.herm, 0.0]) | st.floats(0.0, TOL.herm))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = rng.uniform(0.2, 1.0, dim - 1)
    spectrum = np.concatenate([[low], rest * (1.0 + offset - low) / rest.sum()])
    if dim == 1:
        spectrum = np.array([1.0 + offset])
    if draw(st.booleans()):
        u = haar_unitary(dim, rng)
        m = (u * spectrum) @ u.conj().T
    else:
        m = np.diag(spectrum).astype(complex)
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    k = k - k.conj().T
    return m + k * (skew / (2 * frobenius(k)))


class TestExtendToComposite:
    def test_partial_trace_returns_first_factor(self, rng):
        for d, d_b in ((2, 2), (2, 3), (3, 2), (3, 3)):
            rho = random_density_matrix(d, rng)
            sigma = random_density_matrix(d_b, rng)
            big = extend_to_composite(rho, sigma)
            back = partial_trace_b(big, d, d_b)
            assert np.linalg.norm(back.matrix - rho.matrix, "fro") <= 1e-12

    def test_mixed_with_mixed(self):
        rho = make_density(identity(2) / 2)
        big = extend_to_composite(rho, rho)
        assert np.allclose(big.matrix, identity(4) / 4, atol=0)

    def test_product_at_the_negativity_gate_extends(self):
        # Each factor's smallest eigenvalue, -1e-9, sits on -TOL.psd and
        # passes; the product's, -(1 + 1e-9) * 1e-9, lies beyond -TOL.psd
        # but within the bound the factors' gates imply.
        rho = make_density(np.diag([1 + 1e-9, -1e-9]).astype(complex))
        big = extend_to_composite(rho, rho)
        assert np.linalg.eigvalsh(big.matrix)[0] < -TOL.psd
        assert big.matrix.tobytes() == tensor(rho.matrix, rho.matrix).tobytes()

    def test_product_at_the_trace_gate_extends(self):
        # A trace of 1 + 9e-11 passes TOL.tr; the product's trace is its
        # square, 1 + 1.8e-10, beyond TOL.tr but within (2 + TOL.tr) TOL.tr.
        rho = make_density(np.diag([0.5 + 6e-11, 0.5 + 3e-11]).astype(complex))
        big = extend_to_composite(rho, rho)
        assert abs(np.trace(big.matrix) - 1.0) > TOL.tr
        back = partial_trace_b(big, 2, 2)
        assert frobenius(back.matrix - rho.matrix) <= 2 * TOL.tr

    @pytest.mark.parametrize("matrix, error", [
        (np.array([[0.5, 1e-9], [0.0, 0.5]], dtype=complex), NotHermitian),
        (np.diag([0.5 + 2e-10, 0.5]).astype(complex), NotUnitTrace),
        (np.diag([1 + 2e-9, -2e-9]).astype(complex), NotPositive),
    ])
    def test_products_beyond_the_implied_bounds_are_refused(self, matrix, error):
        # Each factor here is one that make_density refuses with the same
        # error class; its product with itself exceeds the composed bound.
        with pytest.raises(error):
            make_density(matrix)
        rho = DensityMatrix(dim=2, matrix=matrix)
        with pytest.raises(error):
            extend_to_composite(rho, rho)

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 2), (8, 8)])
    def test_gated_factors_lend_their_figures_and_one_tensor_call(self, rng, d_a, d_b, monkeypatch):
        # make_density kept each factor's Hermitian residual and trace, so
        # the only norms taken are of the factors themselves; the product
        # still enters operators.tensor once, which the benchmark tracer
        # counts by that function's code object.
        rho, sigma = random_density_matrix(d_a, rng), random_density_matrix(d_b, rng)
        norms = []
        for module in (marginality, operators):
            monkeypatch.setattr(module, "frobenius", lambda x: norms.append(x) or frobenius(x))
        entries = []
        code = operators.tensor.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                entries.append(frame)

        sys.setprofile(profile)
        try:
            big = extend_to_composite(rho, sigma)
        finally:
            sys.setprofile(None)
        assert len(entries) == 1
        assert [id(x) for x in norms] == [id(sigma.matrix), id(rho.matrix)]
        assert big.matrix.tobytes() == np.kron(rho.matrix, sigma.matrix).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_pair_make_density_accepts_extends(self, data):
        d_a = data.draw(st.integers(1, 64), label="d_a")
        d_b = data.draw(st.integers(1, 64 // d_a), label="d_b")
        raw_a = data.draw(gate_boundary_matrices(d_a), label="a")
        raw_b = data.draw(gate_boundary_matrices(d_b), label="b")
        try:
            rho, sigma = make_density(raw_a), make_density(raw_b)
        except GleasonLabError:
            assume(False)
        big = extend_to_composite(rho, sigma)
        assert big.dim == d_a * d_b
        back = partial_trace_b(big, d_a, d_b)
        assert frobenius(back.matrix - rho.matrix) <= 2 * TOL.tr

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 8), (8, 8)])
    def test_product_bits_are_the_kronecker_products(self, rng, d_a, d_b):
        for _ in range(5):
            rho, sigma = random_density_matrix(d_a, rng), random_density_matrix(d_b, rng)
            big = extend_to_composite(rho, sigma)
            assert big.dim == d_a * d_b
            assert big.matrix.tobytes() == np.kron(rho.matrix, sigma.matrix).tobytes()
            assert not big.matrix.flags.writeable and big.matrix.flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank_a=st.integers(1, 8),
        rank_b=st.integers(1, 8),
    )
    def test_factor_spectrum_minimum_matches_product_eigensolve(self, seed, rank_a, rank_b):
        # The positivity gate reads the product's smallest eigenvalue
        # from the factors; it must agree with an eigensolve of the
        # product itself, including rank-deficient states whose
        # smallest eigenvalue is zero up to round-off.
        rng = np.random.default_rng(seed)
        recorded = []

        def recording(ea, eb):
            recorded.append(least(ea, eb))
            return recorded[-1]

        def state(d, rank):
            shape = (d, min(rank, d))
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            m = g @ g.conj().T
            return make_density(m / np.trace(m).real)

        least = marginality._least_product_eigenvalue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(marginality, "_least_product_eigenvalue", recording)
            for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 8), (8, 8)):
                rho, sigma = state(d_a, rank_a), state(d_b, rank_b)
                big = extend_to_composite(rho, sigma)
                matrix = tensor(rho.matrix, sigma.matrix)
                assert np.array_equal(big.matrix, matrix)
                assert abs(recorded[-1] - np.linalg.eigvalsh(hermitize(matrix))[0]) <= 1e-15
        assert len(recorded) == 7

    def test_embedding_probabilities_agree(self, rng):
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(2, rng)
        projectors = [rank1_projector(2, rng) for _ in range(100)]
        pt_err, dev = verify_extension(rho, sigma, projectors)
        assert pt_err <= 1e-12
        assert dev <= 1e-12

    def test_deviation_matches_per_projector_oracle(self, rng):
        for d_a, d_b in ((2, 2), (2, 3), (3, 2), (4, 2)):
            rho = random_density_matrix(d_a, rng)
            sigma = random_density_matrix(d_b, rng)
            projectors = [rank1_projector(d_a, rng) for _ in range(10)]
            big = kron_oracle(rho.matrix, sigma.matrix)
            expected = max(
                abs(np.trace(kron_oracle(p.matrix, identity(d_b)) @ big).real
                    - np.trace(p.matrix @ rho.matrix).real)
                for p in projectors
            )
            _, dev = verify_extension(rho, sigma, projectors)
            assert abs(dev - expected) <= 1e-14

    def test_wrong_projector_dimension(self, rng):
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(3, rng)
        projectors = [rank1_projector(2, rng), rank1_projector(3, rng)]
        with pytest.raises(DimensionMismatch):
            verify_extension(rho, sigma, projectors)

    def test_matches_the_inline_embedding(self, rng):
        def reference(rho_f, sigma_b, projectors):
            # verify_extension with P x I assigned inline on the ancilla
            # diagonal, entry (n, (i, k), (j, l)) = P_n[i, j] * delta_kl.
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

        for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 8), (8, 8)):
            for n in (0, 1, 20):
                rho = random_density_matrix(d_a, rng)
                sigma = random_density_matrix(d_b, rng)
                projectors = [rank1_projector(d_a, rng) for _ in range(n)]
                got = np.array(verify_extension(rho, sigma, projectors))
                assert got.tobytes() == np.array(reference(rho, sigma, projectors)).tobytes()

    def test_no_projectors_gives_zero_deviation(self, rng):
        rho = random_density_matrix(3, rng)
        pt_err, dev = verify_extension(rho, random_density_matrix(2, rng), [])
        assert pt_err <= 1e-12
        assert dev == 0.0

    def test_composite_cap(self, rng):
        rho = random_density_matrix(8, rng)
        with pytest.raises(DimensionOverflow):
            verify_extension(rho, random_density_matrix(9, rng), [rank1_projector(8, rng)])

    def test_induced_function_agrees_with_original(self, rng):
        # The constructive existence route: extend, then restrict.
        for d_b in (2, 3):
            rho = random_density_matrix(2, rng)
            big = extend_to_composite(rho, random_density_matrix(d_b, rng))
            induced = InducedFrameFunction(born_backed(big), 2, d_b)
            original = born_backed(rho)
            for _ in range(50):
                p = rank1_projector(2, rng)
                assert abs(induced(p) - original(p)) <= 1e-10


class TestMarginalityWitness:
    def test_bloch_text(self):
        cert = certify_marginal(definite_xz_table())
        assert marginality_witness(cert) == "Bloch norm 1.4142, excess 0.4142"

    def test_residual_text_names_worst_projector(self):
        f = axis_table({a: 1.0 for a in ("+x", "-x", "+y", "-y", "+z", "-z")})
        cert = certify_marginal(f)
        text = marginality_witness(cert)
        assert "worst projector" in text
        assert "residual" in text

    def test_marginal_certificate_has_no_witness(self, rng):
        cert = certify_marginal(born_backed(random_density_matrix(2, rng)))
        with pytest.raises(NotApplicable):
            marginality_witness(cert)


class TestStrictInclusion:
    def test_deterministic_function_separates_the_sets(self, rng):
        # Normalizes on every qubit PVM like any quantum assignment, yet
        # no density matrix reproduces it.
        from gleason_lab.frames import check_normalization, random_qubit_pvm_pair

        f = deterministic_qubit()
        for _ in range(100):
            assert check_normalization(f, random_qubit_pvm_pair(rng)) == 0.0
        assert certify_marginal(f).verdict is Verdict.NON_MARGINAL
