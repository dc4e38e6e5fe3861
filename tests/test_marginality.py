import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gleason_lab import marginality
from gleason_lab.errors import (
    DimensionMismatch,
    DimensionOverflow,
    IllConditioned,
    NotApplicable,
    NotPositive,
    NotUnitTrace,
    UndefinedProjector,
    UnsupportedDimension,
)
from gleason_lab.frames import (
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
    Verdict,
    _spanning_from_projectors,
    certify_marginal,
    extend_to_composite,
    marginality_witness,
    spanning_projectors,
    verify_extension,
)
from gleason_lab.operators import (
    bloch_of_matrix,
    hermitize,
    identity,
    make_density,
    make_projector,
    min_eigenvalue,
    partial_trace_b,
    random_density_matrix,
    tensor,
)
from gleason_lab.serialization import certificate_to_json
from gleason_lab.tolerances import TOL

from conftest import kron_oracle, rank1_projector


def design_rank_oracle(projectors) -> int:
    """Rank of the real design matrix, using an independent vectorization
    (stacked real and imaginary parts, no scaling)."""
    rows = []
    for p in projectors:
        m = p.matrix
        rows.append(np.concatenate([m.real.ravel(), m.imag.ravel()]))
    return int(np.linalg.matrix_rank(np.stack(rows), tol=1e-10))


class TestSpanningProjectors:
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
        bloch = np.array(bloch_of_matrix(cert.rho_hat).as_tuple())
        assert np.allclose(bloch, expected, atol=1e-12)
        assert cert.linear_residual <= 1e-12
        # two deterministic axes already push the norm past the ball
        assert np.linalg.norm(bloch) > 1
        assert np.linalg.norm(bloch) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_definite_xz_table_reconstruction(self):
        cert = certify_marginal(definite_xz_table(), spanning_projectors(2))
        bloch = bloch_of_matrix(cert.rho_hat)
        assert np.allclose(bloch.as_tuple(), (1.0, 0.0, 1.0), atol=1e-12)
        assert bloch.norm() == pytest.approx(math.sqrt(2), abs=1e-12)
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
        s = _spanning_from_projectors(2, [p, p, p, p], ["a", "b", "c", "d"], "degenerate")
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


def certify_reference(f, s):
    """certify_marginal's fit in its plain numpy spelling: a fresh np.eye
    for I/d, np.max over the misfit, and min_eigenvalue's eigensolve."""
    values = f.values(s.projectors, s.stack)
    coeffs = s.pinv @ (values - s.offsets)
    fit = np.eye(s.dim, dtype=complex) / s.dim + (coeffs @ s.basis_flat).reshape(s.dim, s.dim)
    rho_hat = hermitize(fit)
    misfit = values - (s.offsets + s.basis_design @ coeffs)
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
        b = bloch_of_matrix(rho_hat)
        witness = ("bloch", b.as_tuple(), b.norm())
    else:
        witness = ("eigen", low, np.linalg.eigh(rho_hat)[1][:, 0].tobytes())
    return rho_hat.tobytes(), residual, low, verdict, witness


def certificate_bits(cert):
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

    @pytest.mark.parametrize("dim", [3, 4])
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

            def __call__(self, p):
                self.calls += 1
                return table(p)

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

    def test_product_below_the_negativity_gate_is_refused(self):
        # Each factor's smallest eigenvalue, -1e-9, sits on -TOL.psd and
        # passes; the product's, -(1 + 1e-9) * 1e-9, lies beyond it.
        rho = make_density(np.diag([1 + 1e-9, -1e-9]).astype(complex))
        with pytest.raises(NotPositive):
            extend_to_composite(rho, rho)

    def test_product_beyond_the_trace_gate_is_refused(self):
        # A trace of 1 + 9e-11 passes TOL.tr; the product's trace is its
        # square, 1 + 1.8e-10, which does not.
        rho = make_density(np.diag([0.5 + 6e-11, 0.5 + 3e-11]).astype(complex))
        with pytest.raises(NotUnitTrace):
            extend_to_composite(rho, rho)

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

        def recording(matrix, smallest_eigenvalue):
            recorded.append((matrix, smallest_eigenvalue(matrix)))
            return density(matrix, smallest_eigenvalue)

        def state(d, rank):
            shape = (d, min(rank, d))
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            m = g @ g.conj().T
            return make_density(m / np.trace(m).real)

        density = marginality._density
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(marginality, "_density", recording)
            for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 8), (8, 8)):
                rho, sigma = state(d_a, rank_a), state(d_b, rank_b)
                big = extend_to_composite(rho, sigma)
                matrix, low = recorded[-1]
                assert np.array_equal(matrix, tensor(rho.matrix, sigma.matrix))
                assert np.array_equal(big.matrix, matrix)
                assert abs(low - min_eigenvalue(matrix)) <= 1e-15
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
