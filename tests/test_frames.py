import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gleason_lab import frames
from gleason_lab.errors import (
    ContextualConflict,
    DimensionMismatch,
    UndefinedProjector,
    UnsupportedDimension,
    UnsupportedRank,
    ValueOutOfRange,
)
from gleason_lab.frames import (
    AXIS_BLOCH,
    InducedFrameFunction,
    axis_projector,
    axis_table,
    born_backed,
    check_normalization,
    definite_xz_table,
    deterministic_qubit,
    random_qubit_pvm_pair,
    tabulated,
)
from gleason_lab.marginality import spanning_projectors
from gleason_lab.measurements import (
    intertwine_graph,
    projector_key,
    pvm_from_unitary,
    random_rank_partition,
    validate_pvm,
)
from gleason_lab.operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Projector,
    born_values,
    haar_unitary,
    identity,
    make_density,
    make_projector,
    partial_trace_b,
    projector_from_ket,
    projector_stack,
    random_density_matrix,
    tensor,
)
from gleason_lab.tolerances import TOL

from conftest import bloch_oracle, rank1_projector

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
P0 = make_projector(np.outer(KET0, KET0.conj()))
P1 = make_projector(np.outer(KET1, KET1.conj()))


def _shape_error(dim, shape):
    """The pattern of the shape gate's message for a stack of that shape."""
    return re.escape(f"projector stack must be (n, {dim}, {dim}), got shape {tuple(shape)}")


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

    def test_random_pair_is_the_normalized_outer_product(self):
        # The same draw through np.linalg.norm and np.outer gives the
        # same bits, and the complement is I - P subtracted exactly.
        for seed in range(200):
            pvm = random_qubit_pvm_pair(np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            ket = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ket = ket / np.linalg.norm(ket)
            p = np.outer(ket, ket.conj())
            assert np.array_equal(pvm.elements[0].matrix, p)
            assert np.array_equal(pvm.elements[1].matrix, identity(2) - p)
            assert [e.rank for e in pvm.elements] == [1, 1]

    def test_random_pair_is_the_bits_of_the_gated_complement(self):
        # The complement was once gated by make_projector; built as a
        # Projector it has the same stack, residuals and ranks, and the
        # deterministic assignment still normalizes with residual 0.
        def pair_reference(rng):
            p = projector_from_ket(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            return validate_pvm([p, make_projector(identity(2) - p.matrix)])

        f = deterministic_qubit()
        for seed in range(1000):
            pvm = random_qubit_pvm_pair(np.random.default_rng(seed))
            expected = pair_reference(np.random.default_rng(seed))
            assert pvm.stack.tobytes() == expected.stack.tobytes()
            assert pvm.max_orthogonality_residual == expected.max_orthogonality_residual
            assert pvm.completeness_residual == expected.completeness_residual
            assert pvm.ranks == expected.ranks == (1, 1)
            assert not pvm.elements[1].matrix.flags.writeable
            assert check_normalization(f, pvm) == 0.0

    def test_normalizes_exactly_on_unitary_pvms(self, rng):
        f = deterministic_qubit()
        for _ in range(200):
            pvm = pvm_from_unitary(haar_unitary(2, rng), [1, 1])
            assert check_normalization(f, pvm) == 0.0

    def test_rejects_other_dimensions(self, rng):
        with pytest.raises(DimensionMismatch, match=_shape_error(2, (1, 3, 3))):
            deterministic_qubit()(rank1_projector(3, rng))

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(-1, 1, allow_nan=False),
        y=st.floats(-1, 1, allow_nan=False),
        z=st.floats(-1, 1, allow_nan=False),
    )
    def test_rule_is_antipodal_exclusive(self, x, y, z):
        assume((x, y, z) != (0.0, 0.0, 0.0))
        assert frames._lex_zxy(x, y, z) != frames._lex_zxy(-x, -y, -z)


class TestTabulated:
    def test_uniform_axis_table(self):
        f = axis_table({a: 0.5 for a in ("+x", "-x", "+y", "-y", "+z", "-z")})
        assert f(axis_projector("+x")) == 0.5
        assert f.dim == 2

    def test_lookup_matches_within_tol_key(self):
        # An off-diagonal of TOL.key/100 is within TOL.key of +z; one of
        # 10 * TOL.key is not.
        f = axis_table({"+z": 1.0, "-z": 0.0})
        assert f(projector_from_ket([1.0, TOL.key / 100])) == 1.0
        with pytest.raises(UndefinedProjector):
            f(projector_from_ket([1.0, 10 * TOL.key]))

    def test_contextual_conflict(self):
        with pytest.raises(ContextualConflict):
            tabulated([(P0, 0.3), (P0, 0.7)])

    def test_entries_on_both_sides_of_a_grid_edge_form_one_class(self):
        # Off-diagonals of 0.49 and 0.51 TOL.key round to different
        # cells of the key grid but lie 0.02 TOL.key apart.
        p = projector_from_ket([1.0, 0.49 * TOL.key])
        q = projector_from_ket([1.0, 0.51 * TOL.key])
        assert projector_key(p.matrix) != projector_key(q.matrix)
        with pytest.raises(ContextualConflict) as exc:
            tabulated([(p, 0.3), (q, 0.7)])
        assert exc.value.key == projector_key(p.matrix)
        f = tabulated([(p, 0.3), (q, 0.3), (P1, 0.7)])
        assert [e[0] for e in f.entries] == [p, P1]
        assert f(q) == f(p) == 0.3

    def test_entry_joins_the_first_earlier_representative(self):
        # b lies within TOL.key of a and of c, a and c do not: b joins a,
        # and c, which b cannot claim, starts its own class.
        a, b, c = (projector_from_ket([1.0, t * TOL.key]) for t in (0.0, 0.6, 1.2))
        f = tabulated([(a, 0.2), (b, 0.2), (c, 0.9)])
        assert [e[0] for e in f.entries] == [a, c]
        assert f(b) == 0.2
        assert f(projector_from_ket([1.0, 1.1 * TOL.key])) == 0.9

    def test_first_failure_in_input_order_is_raised(self):
        with pytest.raises(ValueOutOfRange):
            tabulated([(P0, 0.3), (P1, 1.5), (P0, 0.7)])
        with pytest.raises(ContextualConflict):
            tabulated([(P0, 0.3), (P0, 0.7), (P1, 1.5)])

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

    def test_the_stack_is_the_one_dimension_gate_and_runs_first(self, rng):
        with pytest.raises(DimensionMismatch, match=r"^projector dim 3 != expected dim 2$"):
            tabulated([(P0, 0.5), (rank1_projector(3, rng), "abc"), (P0, 2.0)])

    @pytest.mark.parametrize("value", ["0.5", "abc", None, True, np.True_, 0.5 + 0j, np.complex128(1)],
                             ids=["numeric-str", "str", "None", "bool", "numpy-bool", "complex", "numpy-complex"])
    def test_a_value_that_is_not_a_real_number_is_refused(self, value):
        # "0.5" and True were read as 0.5 and 1.0; None, "abc" and complex
        # leaked TypeError or ValueError.
        with pytest.raises(ValueOutOfRange, match=re.escape(f"tabulated value {value!r} is not a real number")):
            tabulated([(P0, 0.25), (P1, value), (P0, "0.25")])

    def test_every_real_number_type_is_a_value(self):
        f = tabulated([(P0, 1), (P1, np.float32(0.0)), (axis_projector("+x"), Fraction(1, 2)),
                       (axis_projector("-x"), np.float64(0.5))])
        assert [v for _, v in f.entries] == [1.0, 0.0, 0.5, 0.5]

    @pytest.mark.parametrize("value", [10**400, -10**400, Fraction(10**400, 3)],
                             ids=["huge-int", "huge-negative-int", "huge-fraction"])
    def test_a_value_beyond_the_float_range_is_out_of_range(self, value):
        # Python's OverflowError leaked from the float conversion.
        with pytest.raises(ValueOutOfRange, match=re.escape(f"tabulated value {value!r} outside [0, 1]")):
            tabulated([(P0, 0.25), (P1, value)])
        with pytest.raises(ValueOutOfRange, match=re.escape(f"tabulated value {value!r}")):
            tabulated([(axis_projector("+z"), value)])


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
    """f.values(stack) against one __call__ per projector."""

    def _agrees(self, f, sets):
        for projectors, stack in sets:
            got = f.values(stack)
            assert got.shape == (len(projectors),)
            assert np.max(np.abs(got - [f(p) for p in projectors])) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_born(self, dim, rng):
        for _ in range(5):
            self._agrees(born_backed(random_density_matrix(dim, rng)), _projector_sets(dim, rng))

    def test_deterministic(self, rng):
        self._agrees(deterministic_qubit(), _projector_sets(2, rng))

    def test_deterministic_exactly(self, rng):
        # values, a loop over __call__, and the lex-zxy rule applied to the
        # trace spelling Tr(P sigma_k) one projector at a time agree exactly.
        f = deterministic_qubit()
        s = spanning_projectors(2)
        sets = [(s.projectors, s.stack)]
        for _ in range(100):
            pvm = random_qubit_pvm_pair(rng)
            sets.append((pvm.elements, pvm.stack))
        mixed = [P0, make_projector(np.zeros((2, 2))), make_projector(identity(2)), P1,
                 rank1_projector(2, rng)]
        sets.append((mixed, projector_stack(mixed, 2)))
        rank2 = pvm_from_unitary(haar_unitary(2, rng), [2]).elements
        sets.append((rank2, projector_stack(rank2, 2)))
        sets.append(((), np.zeros((0, 2, 2), dtype=complex)))
        for projectors, stack in sets:
            got = f.values(stack)
            assert got.dtype == float and got.shape == (len(projectors),)
            accepts = [frames._lex_zxy(*bloch_oracle(p.matrix)) for p in projectors]
            oracle = [float(p.rank == 2 or (p.rank == 1 and a)) for p, a in zip(projectors, accepts)]
            assert got.tolist() == [f(p) for p in projectors] == oracle

    def test_deterministic_raises_for_the_first_offender(self, rng):
        # A row's rank is its rounded trace: 3 and -1 here.
        f = deterministic_qubit()
        rank3 = np.diag([2.0, 1.0]).astype(complex)
        rank_neg = np.diag([-1.0, 0.0]).astype(complex)
        qutrit = rank1_projector(3, rng)
        with pytest.raises(UnsupportedRank, match="rank 3 "):
            f.values(np.stack([P0.matrix, rank3, rank_neg]))
        with pytest.raises(UnsupportedRank, match="rank -1 "):
            f.values(np.stack([P0.matrix, rank_neg, rank3]))
        with pytest.raises(DimensionMismatch, match=_shape_error(2, (2, 3, 3))):
            f.values(np.stack([qutrit.matrix, qutrit.matrix]))
        with pytest.raises(UnsupportedRank, match="rank 3 "):
            f(Projector(dim=2, matrix=rank3, rank=3))
        with pytest.raises(DimensionMismatch, match=_shape_error(2, (1, 3, 3))):
            f(qutrit)
        with pytest.raises(DimensionMismatch, match=_shape_error(2, (1, 3, 3))):
            f(Projector(dim=3, matrix=identity(3), rank=5))

    def test_tabulated(self, rng):
        s = spanning_projectors(3)
        f = tabulated(list(zip(s.projectors, rng.uniform(0, 1, len(s)))))
        self._agrees(f, [(s.projectors, s.stack)])
        pvm = pvm_from_unitary(haar_unitary(3, rng), [1, 1, 1])
        with pytest.raises(UndefinedProjector):
            f.values(pvm.stack)

    def test_tabulated_names_the_first_undefined_projector(self, rng):
        s = spanning_projectors(3)
        f = tabulated(list(zip(s.projectors[:-1], rng.uniform(0, 1, len(s) - 1))))
        with pytest.raises(UndefinedProjector) as exc:
            f.values(s.stack)
        assert exc.value.key == projector_key(s.projectors[-1].matrix)

    def test_tabulated_on_another_dimension(self, rng):
        f = tabulated(list(zip(spanning_projectors(3).projectors, rng.uniform(0, 1, 15))))
        for other in (2, 4):
            s = spanning_projectors(other)
            with pytest.raises(DimensionMismatch, match=_shape_error(3, s.stack.shape)):
                f.values(s.stack)
            with pytest.raises(DimensionMismatch, match=_shape_error(3, (1, other, other))):
                f(s.projectors[0])
        with pytest.raises(DimensionMismatch, match=_shape_error(3, (0, 2, 2))):
            f.values(np.zeros((0, 2, 2), dtype=complex))
        assert f.values(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)

    @pytest.mark.filterwarnings("error")
    def test_tabulated_malformed_stacks_raise_library_errors(self):
        f = definite_xz_table()
        for shape in ((1, 2, 3), (1, 3, 2), (2, 2), (0, 2, 3)):
            with pytest.raises(DimensionMismatch):
                f.values(np.zeros(shape, dtype=complex))
        with pytest.raises(DimensionMismatch, match=_shape_error(2, (1, 3, 3))):
            f.values(np.full((1, 3, 3), np.inf))
        with pytest.raises(ValueOutOfRange):
            f.values(np.full((1, 2, 2), np.nan))
        nan_later = np.stack([axis_projector("+x").matrix, np.full((2, 2), np.nan)])
        with pytest.raises(ValueOutOfRange):
            f.values(nan_later)
        undefined_first = np.stack([0.5 * identity(2), np.full((2, 2), np.nan)])
        with pytest.raises(UndefinedProjector):
            f.values(undefined_first)

    def test_tabulated_on_a_real_stack(self, rng):
        s = spanning_projectors(3)
        f = tabulated(list(zip(s.projectors, rng.uniform(0, 1, len(s)))))
        twin = np.array([m for m in s.stack if not m.imag.any()])
        real = np.ascontiguousarray(twin.real)
        assert real.dtype == np.float64 and len(real) == 9
        assert f.values(real).tobytes() == f.values(twin).tobytes()
        stray = projector_from_ket([1.0, 2.0, 0.0]).matrix.real
        with pytest.raises(UndefinedProjector) as exc:
            f.values(np.concatenate([real, stray[np.newaxis]]))
        assert exc.value.key == projector_key(stray)

    def test_tabulated_returns_stored_values_exactly(self, rng):
        s = spanning_projectors(8)
        vals = rng.uniform(0, 1, len(s))
        f = tabulated(list(zip(s.projectors, vals)))
        assert len(f.entries) == len(s) == 120
        assert np.array_equal(f.values(s.stack), vals)
        kets = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        projectors = [projector_from_ket(k) for k in kets]
        vals = rng.uniform(0, 1, 64)
        f = tabulated(list(zip(projectors, vals)))
        assert len(f.entries) == 64
        got = f.values(np.array([p.matrix for p in projectors]))
        assert np.array_equal(got, vals)
        assert [f(p) for p in projectors] == vals.tolist()

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
            f.values(s.stack)
        with pytest.raises(ValueOutOfRange):
            for p in s.projectors:
                f(p)

    def test_stack_of_wrong_dimension(self, rng):
        s = spanning_projectors(3)
        with pytest.raises(DimensionMismatch):
            born_backed(random_density_matrix(2, rng)).values(s.stack)


def _born_of_one(p, rho):
    """Tr(P rho) for one projector, spelled as born_values on a stack of
    one, the spelling f(p) replaced."""
    return float(born_values(p.matrix[np.newaxis], rho)[0])


def _deterministic_reference(projectors, stack):
    """The deterministic rule with dimension and rank read from the
    Projector fields, one projector at a time."""
    for p in projectors:
        if p.dim != 2:
            raise DimensionMismatch(f"projector stack must be (n, 2, 2), got shape {stack.shape}")
        if p.rank not in (0, 1, 2):
            raise UnsupportedRank(f"rank {p.rank} projector on a qubit")
    if not len(projectors):
        return np.zeros(0)
    ranks = np.array([p.rank for p in projectors])
    x = stack[:, 0, 1].real + stack[:, 1, 0].real
    y = stack[:, 1, 0].imag - stack[:, 0, 1].imag
    z = stack[:, 0, 0].real - stack[:, 1, 1].real
    accepted = (z > 0.0) | ((z == 0.0) & ((x > 0.0) | ((x == 0.0) & (y > 0.0))))
    return np.where(ranks == 1, accepted, ranks == 2).astype(float)


def _raised(call):
    """(class, message) of the error call raises."""
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


class TestOnePath:
    """values(stack) and f(p) against spellings that evaluate Projector
    objects one at a time: bit for bit (tobytes), or by error class and
    message."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_born(self, dim, rng):
        for _ in range(3):
            rho = random_density_matrix(dim, rng)
            f = born_backed(rho)
            for projectors, stack in _projector_sets(dim, rng):
                got = f.values(stack)
                assert got.tobytes() == born_values(stack, rho).tobytes()
                loop = np.array([f(p) for p in projectors])
                assert loop.tobytes() == np.array([_born_of_one(p, rho) for p in projectors]).tobytes()
                # One product over n rows and n products over one row sum
                # in different orders, so they agree to round-off only.
                assert np.max(np.abs(got - loop)) <= 1e-15

    def test_deterministic(self, rng):
        f = deterministic_qubit()
        sets = _projector_sets(2, rng)
        for _ in range(50):
            pvm = random_qubit_pvm_pair(rng)
            sets.append((pvm.elements, pvm.stack))
        mixed = [P0, make_projector(np.zeros((2, 2))), make_projector(identity(2)), P1,
                 rank1_projector(2, rng)]
        sets.append((mixed, projector_stack(mixed, 2)))
        sets.append(((), np.zeros((0, 2, 2), dtype=complex)))
        for projectors, stack in sets:
            got = f.values(stack)
            assert got.tobytes() == _deterministic_reference(projectors, stack).tobytes()
            assert got.tobytes() == np.array([f(p) for p in projectors], dtype=float).tobytes()

    def test_deterministic_errors(self, rng):
        f = deterministic_qubit()
        rank3 = Projector(dim=2, matrix=np.diag([2.0, 1.0]).astype(complex), rank=3)
        qutrit = rank1_projector(3, rng)
        for projectors in ([P0, rank3], [qutrit]):
            stack = np.stack([p.matrix for p in projectors])
            expected = _raised(lambda: _deterministic_reference(projectors, stack))
            assert _raised(lambda: f.values(stack)) == expected
            assert _raised(lambda: f(projectors[-1])) == expected

    def test_tabulated(self, rng):
        for dim in (2, 3, 4):
            s = spanning_projectors(dim)
            f = tabulated(list(zip(s.projectors, rng.uniform(0, 1, len(s)))))
            assert f.values(s.stack).tobytes() == np.array([f(p) for p in s.projectors]).tobytes()
            pvm = pvm_from_unitary(haar_unitary(dim, rng), [1] * dim)
            stack = np.concatenate([s.stack, pvm.stack])
            expected = (UndefinedProjector, str(UndefinedProjector(projector_key(pvm.elements[0].matrix))))
            assert _raised(lambda: f.values(stack)) == expected
            assert _raised(lambda: f(pvm.elements[0])) == expected

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_induced(self, d_b, rng):
        for dim in (2, 3):
            rho = random_density_matrix(dim * d_b, rng)
            f = InducedFrameFunction(born_backed(rho), dim, d_b)
            for projectors, stack in _projector_sets(dim, rng):
                tensored = [tensor(p.matrix, identity(d_b)) for p in projectors]
                got = f.values(stack)
                assert got.tobytes() == born_values(np.array(tensored), rho).tobytes()
                one = [float(born_values(t[np.newaxis], rho)[0]) for t in tensored]
                assert np.array([f(p) for p in projectors]).tobytes() == np.array(one).tobytes()
                assert np.max(np.abs(got - one)) <= 1e-15
            qutrit = rank1_projector(dim + 1, rng)
            expected = (
                DimensionMismatch,
                f"projector stack must be (n, {dim}, {dim}), got shape (1, {dim + 1}, {dim + 1})",
            )
            assert _raised(lambda: f(qutrit)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        ket=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rounded_trace_is_the_rank(self, ket, seed):
        # The deterministic kind counts a row's rank as its rounded trace;
        # every qubit projector the constructors return agrees.
        v = np.array(ket[:2]) + 1j * np.array(ket[2:])
        assume(np.linalg.norm(v) > 1e-150)
        rng = np.random.default_rng(seed)
        u = v / np.linalg.norm(v)
        p = projector_from_ket(v)
        projectors = [
            p,
            make_projector(identity(2) - p.matrix),
            make_projector(np.outer(u, u.conj())),
            make_projector(np.zeros((2, 2))),
            make_projector(identity(2)),
            *pvm_from_unitary(haar_unitary(2, rng), [1, 1]).elements,
            *pvm_from_unitary(haar_unitary(2, rng), [2]).elements,
        ]
        stack = projector_stack(projectors, 2)
        ranks = np.rint(stack[:, 0, 0].real + stack[:, 1, 1].real)
        assert ranks.tolist() == [p.rank for p in projectors]


# One frame of each kind on a qubit; each value table holds the six axes.
QUBIT_FRAMES = {
    "born": lambda rng: born_backed(random_density_matrix(2, rng)),
    "deterministic": lambda rng: deterministic_qubit(),
    "tabulated": lambda rng: definite_xz_table(),
    "induced": lambda rng: InducedFrameFunction(born_backed(random_density_matrix(4, rng)), 2, 2),
}


class TestShapeGate:
    """FrameFunction.values is the one shape gate of every kind."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(QUBIT_FRAMES)), seed=st.integers(0, 2**32 - 1))
    def test_malformed_stacks_raise_library_errors(self, kind, seed):
        rng = np.random.default_rng(seed)
        f = QUBIT_FRAMES[kind](rng)
        axes = rng.choice(sorted(AXIS_BLOCH), size=int(rng.integers(1, 7)))
        stack = np.array([axis_projector(a).matrix for a in axes])
        noise = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        for bad in (stack[0], stack[0].ravel(), stack[np.newaxis], noise[:6].reshape(1, 2, 3),
                    noise.reshape(1, 3, 3), np.zeros((0, 3, 3), dtype=complex)):
            with pytest.raises(DimensionMismatch, match=_shape_error(2, bad.shape)):
                f.values(bad)
        nan_row = np.full((1, 2, 2), np.nan, dtype=complex)
        for bad in (np.repeat(nan_row, len(stack), axis=0), np.concatenate([stack, nan_row])):
            with pytest.raises(ValueOutOfRange):
                f.values(bad)
        assert f.values(stack.tolist()).tobytes() == f.values(stack).tobytes()


    @pytest.mark.parametrize("kind", sorted(QUBIT_FRAMES))
    def test_a_ragged_nesting_raises_dimension_mismatch(self, kind):
        # numpy cannot make an array of these; its ValueError once leaked.
        f = QUBIT_FRAMES[kind](np.random.default_rng(5))
        for bad in ([[[1, 0], [0, 0]], [[1, 0]]], [[[1, 0], [0]]], [P0.matrix, P0.matrix[0]]):
            with pytest.raises(DimensionMismatch, match="projector stack is ragged"):
                f.values(bad)


class TestDtypeGate:
    """FrameFunction.values refuses every dtype that is not integer, float
    or complex before any arithmetic, on every kind alike."""

    @pytest.mark.parametrize("kind", sorted(QUBIT_FRAMES))
    def test_non_numeric_stacks_are_refused(self, kind):
        f = QUBIT_FRAMES[kind](np.random.default_rng(5))
        eye = np.eye(2)[np.newaxis]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in ([[["a", "b"], ["c", "d"]]], eye.astype(bool), eye.astype(object),
                        eye.astype(bytes), eye.astype("datetime64[s]"), eye.astype("timedelta64[s]"),
                        np.zeros((1, 2, 2), dtype="V8")):
                with pytest.raises(ValueOutOfRange, match="projector stack holds a value that is not a number"):
                    f.values(bad)

    @pytest.mark.parametrize("kind", sorted(QUBIT_FRAMES))
    def test_integer_and_real_stacks_evaluate_as_complex(self, kind):
        f = QUBIT_FRAMES[kind](np.random.default_rng(5))
        stack = np.array([P0.matrix, P1.matrix])
        want = f.values(stack).tobytes()
        for dtype in (np.int8, np.uint8, np.int64, np.float32, np.float64, np.complex64):
            assert f.values(stack.real.astype(dtype)).tobytes() == want


ROWS = {"rank 0": np.zeros((2, 2), dtype=complex), "rank 1": P0.matrix,
        "rank 2": identity(2)}


@pytest.mark.parametrize("row", sorted(ROWS))
@pytest.mark.parametrize("kind", sorted(QUBIT_FRAMES))
def test_no_value_from_a_row_that_is_not_finite(kind, row):
    # Every kind refuses NaN or +-inf in any real or imaginary part of any
    # entry, whether the rule would read that entry or not.
    f = QUBIT_FRAMES[kind](np.random.default_rng(6))
    for i, j, imag, bad in itertools.product(range(2), range(2), (False, True), (np.nan, np.inf, -np.inf)):
        m = ROWS[row].copy()
        z = m[i, j]
        m[i, j] = complex(z.real, bad) if imag else complex(bad, z.imag)
        for stack in (m[np.newaxis], np.stack([P1.matrix, m])):
            with pytest.raises(ValueOutOfRange):
                f.values(stack)


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

    def test_ancilla_below_two_is_refused(self, rng):
        # (-2)(-1) = 2 matches the composite's dimension; neither ancilla
        # can be embedded.
        f2 = born_backed(random_density_matrix(2, rng))
        for dim_a, dim_b in ((2, 1), (-2, -1)):
            with pytest.raises(UnsupportedDimension):
                InducedFrameFunction(f2, dim_a, dim_b)


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
        for _ in range(2):
            with pytest.raises(ValueOutOfRange):
                axis_projector("+w")

    @pytest.mark.parametrize("axis, pauli, sign", [
        ("+x", 0, 1.0), ("-x", 0, -1.0), ("+y", 1, 1.0), ("-y", 1, -1.0), ("+z", 2, 1.0), ("-z", 2, -1.0),
    ])
    def test_axis_projector_is_built_once(self, axis, pauli, sign):
        p = axis_projector(axis)
        assert axis_projector(axis) is p
        assert definite_xz_table().entries[list(AXIS_BLOCH).index(axis)][0] is p
        assert np.array_equal(p.matrix, 0.5 * (identity(2) + sign * (PAULI_X, PAULI_Y, PAULI_Z)[pauli]))
        assert p.rank == 1
        assert not p.matrix.flags.writeable


class TestPerturbationInvariance:
    """Lookups and intertwine degrees survive perturbations below TOL.key."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_round_off_perturbed_kets_stay_defined(self, dim):
        # 1e-11 on a unit ket moved 2/2000 keys at d = 2 and 11/2000 at
        # d = 4 across a cell edge of the key grid.
        rng = np.random.default_rng(0)
        undefined = 0
        for _ in range(2000):
            ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            ket = ket / np.linalg.norm(ket)
            f = tabulated([(projector_from_ket(ket), 0.5)])
            try:
                f(projector_from_ket(ket + 1e-11 * noise))
            except UndefinedProjector:
                undefined += 1
        assert undefined == 0

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.0, 1.0),
        on_edge=st.booleans(),
    )
    def test_small_perturbation_changes_no_lookup_or_degree(self, dim, seed, scale, on_edge):
        rng = np.random.default_rng(seed)
        kets = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        if on_edge:
            # an off-diagonal entry on a cell edge of the key grid
            kets[0] = 0.0
            kets[0, :2] = 1.0, (int(rng.integers(0, 100)) + 0.5) * TOL.key
        # |delta| <= TOL.key/40 moves each entry of |k><k| by about 2|delta|.
        delta = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        delta *= scale * TOL.key / 40 / np.linalg.norm(delta, axis=1, keepdims=True)
        ps = [projector_from_ket(k) for k in kets]
        qs = [projector_from_ket(k) for k in kets + delta]
        for p, q in zip(ps, qs):
            assert np.max(np.abs(p.matrix - q.matrix)) <= TOL.key / 10

        vals = rng.uniform(0, 1, 4)
        f = tabulated(list(zip(ps, vals)))
        assert f.values(np.array([q.matrix for q in qs])).tolist() == vals.tolist()
        assert [f(q) for q in qs] == vals.tolist()

        def pvms(projectors):
            return [validate_pvm([p, make_projector(identity(dim) - p.matrix)]) for p in projectors]

        before = intertwine_graph(pvms(ps) + pvms(ps))
        after = intertwine_graph(pvms(ps) + pvms(qs))
        assert [n.degree for n in after.nodes] == [n.degree for n in before.nodes]
        assert [n.key for n in after.nodes] == [n.key for n in before.nodes]
        assert after.incidence == before.incidence
