import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gleason_lab.errors import (
    ContextualConflict,
    DimensionMismatch,
    UndefinedProjector,
    UnsupportedDimension,
    ValueOutOfRange,
)
from gleason_lab.frames import (
    InducedFrameFunction,
    axis_projector,
    axis_table,
    born_backed,
    check_normalization,
    definite_xz_table,
    deterministic_qubit,
    lex_zxy_accepts,
    random_qubit_pvm_pair,
    tabulated,
)
from gleason_lab.marginality import spanning_projectors
from gleason_lab.measurements import pvm_from_unitary, random_rank_partition, validate_pvm
from gleason_lab.operators import (
    BlochVector,
    DensityMatrix,
    born_probability,
    haar_unitary,
    identity,
    make_density,
    make_projector,
    partial_trace_b,
    projector_from_ket,
    random_density_matrix,
    tensor,
)
from gleason_lab.tolerances import TOL

from conftest import rank1_projector

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
P0 = make_projector(np.outer(KET0, KET0.conj()))
P1 = make_projector(np.outer(KET1, KET1.conj()))


class TestBornBacked:
    def test_maximally_mixed_is_uniform(self, rng):
        f = born_backed(make_density(identity(2) / 2))
        for _ in range(20):
            assert f(rank1_projector(2, rng)) == pytest.approx(0.5, abs=1e-12)

    def test_pure_state_values(self):
        f = born_backed(make_density(np.outer(KET0, KET0.conj())))
        assert f(P0) == pytest.approx(1.0, abs=1e-15)
        assert f(P1) == pytest.approx(0.0, abs=1e-15)

    def test_normalization_against_direct_trace_sum(self, rng):
        for _ in range(25):
            rho = random_density_matrix(3, rng)
            pvm = pvm_from_unitary(haar_unitary(3, rng), [1, 1, 1])
            f = born_backed(rho)
            direct = sum(np.trace(e.matrix @ rho.matrix).real for e in pvm.elements)
            assert abs(direct - 1.0) <= 1e-10
            assert check_normalization(f, pvm) <= 1e-10


class TestDeterministicQubit:
    def test_axis_values_under_default_rule(self):
        f = deterministic_qubit()
        assert f(axis_projector("+z")) == 1.0
        assert f(axis_projector("-z")) == 0.0
        assert f(axis_projector("+x")) == 1.0
        assert f(axis_projector("-x")) == 0.0
        assert f(axis_projector("+y")) == 1.0
        assert f(axis_projector("-y")) == 0.0

    def test_definite_outcomes_for_noncommuting_observables(self):
        # No quantum state assigns probability 1 to both +x and +z, yet
        # the deterministic function does.
        f = deterministic_qubit()
        assert f(axis_projector("+x")) == 1.0 and f(axis_projector("+z")) == 1.0

    def test_rank_zero_and_rank_two(self):
        f = deterministic_qubit()
        assert f(make_projector(np.zeros((2, 2), dtype=complex))) == 0.0
        assert f(make_projector(identity(2))) == 1.0

    def test_normalizes_exactly_on_complement_pairs(self, rng):
        f = deterministic_qubit()
        for _ in range(200):
            pvm = random_qubit_pvm_pair(rng)
            assert check_normalization(f, pvm) == 0.0

    def test_normalizes_exactly_on_unitary_pvms(self, rng):
        f = deterministic_qubit()
        for _ in range(200):
            pvm = pvm_from_unitary(haar_unitary(2, rng), [1, 1])
            assert check_normalization(f, pvm) == 0.0

    def test_rejects_other_dimensions(self, rng):
        with pytest.raises(UnsupportedDimension):
            deterministic_qubit()(rank1_projector(3, rng))

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(-1, 1, allow_nan=False),
        y=st.floats(-1, 1, allow_nan=False),
        z=st.floats(-1, 1, allow_nan=False),
    )
    def test_rule_is_antipodal_exclusive(self, x, y, z):
        assume((x, y, z) != (0.0, 0.0, 0.0))
        n = BlochVector(x, y, z)
        antipode = BlochVector(-x, -y, -z)
        assert lex_zxy_accepts(n) != lex_zxy_accepts(antipode)


class TestTabulated:
    def test_uniform_axis_table(self):
        f = axis_table({a: 0.5 for a in ("+x", "-x", "+y", "-y", "+z", "-z")})
        assert f(axis_projector("+x")) == 0.5
        assert f.dim == 2

    def test_lookup_uses_the_key_grid_of_tol(self):
        # An off-diagonal of TOL.key/100 rounds onto the cell of +z; one of
        # 10 * TOL.key lies on another cell.
        f = axis_table({"+z": 1.0, "-z": 0.0})
        assert f(projector_from_ket([1.0, TOL.key / 100])) == 1.0
        with pytest.raises(UndefinedProjector):
            f(projector_from_ket([1.0, 10 * TOL.key]))

    def test_contextual_conflict(self):
        with pytest.raises(ContextualConflict):
            tabulated([(P0, 0.3), (P0, 0.7)])

    def test_duplicate_with_equal_value_is_merged(self):
        f = tabulated([(P0, 0.3), (P0, 0.3), (P1, 0.7)])
        assert len(f.entries) == 2

    def test_undefined_projector(self):
        f = tabulated([(P0, 1.0)])
        with pytest.raises(UndefinedProjector):
            f(axis_projector("+x"))

    def test_value_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            tabulated([(P0, 1.2)])

    def test_mixed_dimensions_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            tabulated([(P0, 0.5), (rank1_projector(3, rng), 0.5)])


def _projector_sets(dim, rng):
    """The spanning set of dim and three random PVMs on it, as
    (projectors, stack) pairs."""
    s = spanning_projectors(dim)
    sets = [(s.projectors, s.stack)]
    for _ in range(3):
        pvm = pvm_from_unitary(haar_unitary(dim, rng), random_rank_partition(dim, rng))
        sets.append((pvm.elements, pvm.stack))
    return sets


class TestValues:
    """f.values(projectors, stack) against one __call__ per projector."""

    def _agrees(self, f, sets):
        for projectors, stack in sets:
            got = f.values(projectors, stack)
            assert got.shape == (len(projectors),)
            assert np.max(np.abs(got - [f(p) for p in projectors])) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_born(self, dim, rng):
        for _ in range(5):
            self._agrees(born_backed(random_density_matrix(dim, rng)), _projector_sets(dim, rng))

    def test_deterministic(self, rng):
        self._agrees(deterministic_qubit(), _projector_sets(2, rng))

    def test_tabulated(self, rng):
        s = spanning_projectors(3)
        f = tabulated(list(zip(s.projectors, rng.uniform(0, 1, len(s)))))
        self._agrees(f, [(s.projectors, s.stack)])
        pvm = pvm_from_unitary(haar_unitary(3, rng), [1, 1, 1])
        with pytest.raises(UndefinedProjector):
            f.values(pvm.elements, pvm.stack)

    def test_induced(self, rng):
        for d_b in (2, 3):
            big = born_backed(random_density_matrix(2 * d_b, rng))
            self._agrees(InducedFrameFunction(big, 2, d_b), _projector_sets(2, rng))

    @pytest.mark.parametrize("matrix", [
        np.diag([2.0, -1.0]),               # Born value 2 on |0><0|
        np.array([[0.5, 0.5j], [0.0, 0.5]]),  # imaginary trace on |+><+|
    ])
    def test_unvalidated_state_raises_like_born_probability(self, matrix):
        f = born_backed(DensityMatrix(dim=2, matrix=np.asarray(matrix, dtype=complex)))
        s = spanning_projectors(2)
        with pytest.raises(ValueOutOfRange):
            f.values(s.projectors, s.stack)
        with pytest.raises(ValueOutOfRange):
            for p in s.projectors:
                born_probability(p, f.rho)

    def test_stack_of_wrong_dimension(self, rng):
        s = spanning_projectors(3)
        with pytest.raises(DimensionMismatch):
            born_backed(random_density_matrix(2, rng)).values(s.projectors, s.stack)


class TestCheckNormalization:
    def test_born_on_random_dim_four(self, rng):
        for _ in range(20):
            f = born_backed(random_density_matrix(4, rng))
            pvm = pvm_from_unitary(haar_unitary(4, rng), [1, 1, 1, 1])
            assert check_normalization(f, pvm) <= 1e-10

    def test_underfilled_table(self):
        f = tabulated([(P0, 0.4), (P1, 0.4)])
        residual = check_normalization(f, validate_pvm([P0, P1]))
        assert residual == pytest.approx(0.2, abs=1e-15)

    def test_undefined_projector_propagates(self):
        f = tabulated([(P0, 1.0), (P1, 0.0)])
        pvm = pvm_from_unitary(haar_unitary(2, np.random.default_rng(3)), [1, 1])
        with pytest.raises(UndefinedProjector):
            check_normalization(f, pvm)


class TestInduce:
    def test_product_state_restricts_to_first_factor(self, rng):
        rho_a = random_density_matrix(2, rng)
        rho_b = random_density_matrix(2, rng)
        big = born_backed(make_density(tensor(rho_a.matrix, rho_b.matrix)))
        small = InducedFrameFunction(big, 2, 2)
        direct = born_backed(rho_a)
        for _ in range(100):
            p = rank1_projector(2, rng)
            assert abs(small(p) - direct(p)) <= 1e-12

    def test_bell_state_induces_uniform_function(self, rng):
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / math.sqrt(2)
        big = born_backed(make_density(np.outer(bell, bell.conj())))
        small = InducedFrameFunction(big, 2, 2)
        for _ in range(20):
            assert small(rank1_projector(2, rng)) == pytest.approx(0.5, abs=1e-12)

    def test_induced_function_normalizes(self, rng):
        for _ in range(25):
            big = born_backed(random_density_matrix(4, rng))
            small = InducedFrameFunction(big, 2, 2)
            pvm = pvm_from_unitary(haar_unitary(2, rng), [1, 1])
            assert check_normalization(small, pvm) <= 1e-10

    def test_agrees_with_partial_trace_route(self, rng):
        # Restriction through the embedding against Born on the reduced
        # state; the two routes share no intermediate computation.
        for d_b in (2, 3):
            for _ in range(20):
                rho_big = random_density_matrix(2 * d_b, rng)
                via_embedding = InducedFrameFunction(born_backed(rho_big), 2, d_b)
                via_trace = born_backed(partial_trace_b(rho_big, 2, d_b))
                for _ in range(10):
                    p = rank1_projector(2, rng)
                    assert abs(via_embedding(p) - via_trace(p)) <= 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            InducedFrameFunction(born_backed(random_density_matrix(6, rng)), 2, 2)


class TestDefiniteXzTable:
    def test_values(self):
        f = definite_xz_table()
        assert f(axis_projector("+x")) == 1.0
        assert f(axis_projector("-x")) == 0.0
        assert f(axis_projector("+y")) == 0.5
        assert f(axis_projector("-y")) == 0.5
        assert f(axis_projector("+z")) == 1.0
        assert f(axis_projector("-z")) == 0.0

    def test_normalizes_on_axis_pairs(self):
        f = definite_xz_table()
        for axis in ("x", "y", "z"):
            pvm = validate_pvm([axis_projector(f"+{axis}"), axis_projector(f"-{axis}")])
            assert check_normalization(f, pvm) == 0.0

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueOutOfRange):
            axis_table({"+w": 1.0})
