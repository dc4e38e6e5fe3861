import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gleason_lab.errors import (
    DimensionMismatch,
    DimensionOverflow,
    EmptySet,
    GleasonLabError,
    Incomplete,
    NotNormalized,
    NotOrthogonal,
    PartitionMismatch,
)
from gleason_lab import measurements, operators
from gleason_lab.frames import random_qubit_pvm_pair
from gleason_lab.measurements import (
    PVM,
    embed,
    embed_pvm,
    first_match,
    intertwine_graph,
    measurement_family_mpsi,
    orthogonal_complement_ket,
    projector_classes,
    projector_coords,
    projector_key,
    pvm_from_unitary,
    random_rank_partition,
    validate_pvm,
)
from gleason_lab.operators import (
    Projector,
    frobenius,
    haar_unitary,
    hermitize,
    identity,
    make_projector,
    projector_from_ket,
    projector_stack,
    tensor,
)
from gleason_lab.serialization import pvm_from_json, pvm_to_json
from gleason_lab.tolerances import TOL

from conftest import frobenius_oracle, matmul_oracle, random_ket, rank1_projector

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)

P0 = make_projector(np.outer(KET0, KET0.conj()))
P1 = make_projector(np.outer(KET1, KET1.conj()))
P_PLUS = make_projector(np.outer(KET_PLUS, KET_PLUS.conj()))


class TestValidatePvm:
    def test_computational_basis(self):
        pvm = validate_pvm([P0, P1])
        assert pvm.ranks == (1, 1)
        assert pvm.labels == ("0", "1")

    def test_non_orthogonal_pair_reports_residual(self):
        expected = frobenius_oracle(matmul_oracle(P0.matrix, P_PLUS.matrix))
        with pytest.raises(NotOrthogonal) as exc:
            validate_pvm([P0, P_PLUS])
        assert (exc.value.x, exc.value.y) == (0, 1)
        assert exc.value.residual == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_three_outcome_family_on_two_qubits(self):
        pvm = measurement_family_mpsi(KET0)
        assert pvm.dim == 4
        assert pvm.ranks == (2, 1, 1)

    def test_incomplete_set(self):
        with pytest.raises(Incomplete):
            validate_pvm([P0])

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            validate_pvm([])

    def test_mixed_dimensions(self, rng):
        with pytest.raises(DimensionMismatch):
            validate_pvm([P0, rank1_projector(3, rng)])

    def test_the_stack_is_the_one_dimension_gate_and_runs_first(self, rng):
        # P0 twice is not orthogonal and the set is incomplete; the
        # stack's dimension gate still speaks first.
        with pytest.raises(DimensionMismatch, match=r"^projector dim 3 != expected dim 2$"):
            validate_pvm([P0, P0, rank1_projector(3, rng)], labels=["one"])

    def test_trivial_measurement_is_valid(self):
        pvm = validate_pvm([make_projector(identity(3))])
        assert pvm.ranks == (3,)

    @pytest.mark.parametrize("ranks", [None, [1, 2], [1, 1, 1]], ids=["identity", "1-2", "1-1-1"])
    def test_records_its_residuals(self, rng, ranks):
        if ranks is None:
            pvm = validate_pvm([make_projector(identity(3))])
        else:
            pvm = pvm_from_unitary(haar_unitary(3, rng), ranks)
        mats = [e.matrix for e in pvm.elements]
        orth = [
            np.linalg.norm(mats[x] @ mats[y], "fro")
            for x in range(len(mats)) for y in range(x + 1, len(mats))
        ]
        assert pvm.max_orthogonality_residual == max(orth, default=0.0)
        assert pvm.completeness_residual == np.linalg.norm(sum(mats) - np.eye(3), "fro")

    def test_label_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            validate_pvm([P0, P1], labels=["only-one"])


class TestPvmFromUnitary:
    def test_identity_rotation_blocks(self):
        pvm = pvm_from_unitary(identity(4), [1, 1, 2])
        assert np.array_equal(pvm.elements[0].matrix, np.diag([1, 0, 0, 0]).astype(complex))
        assert np.array_equal(pvm.elements[1].matrix, np.diag([0, 1, 0, 0]).astype(complex))
        assert np.array_equal(pvm.elements[2].matrix, np.diag([0, 0, 1, 1]).astype(complex))

    def test_full_partition_gives_trivial_measurement(self):
        pvm = pvm_from_unitary(haar_unitary(3, np.random.default_rng(5)), [3])
        assert len(pvm) == 1
        assert np.allclose(pvm.elements[0].matrix, identity(3), atol=1e-12)

    def test_random_rank_one_partition(self, rng):
        for _ in range(20):
            pvm = pvm_from_unitary(haar_unitary(3, rng), [1, 1, 1])
            assert pvm.ranks == (1, 1, 1)
            for x in range(3):
                for y in range(x + 1, 3):
                    product = pvm.elements[x].matrix @ pvm.elements[y].matrix
                    assert np.linalg.norm(product, "fro") <= 1e-10

    def test_partition_mismatch(self):
        with pytest.raises(PartitionMismatch):
            pvm_from_unitary(identity(3), [1, 1])
        with pytest.raises(PartitionMismatch):
            pvm_from_unitary(identity(3), [1, -1, 3])

    @pytest.mark.parametrize("parts", [[1.7, 1.2], [1.0, 1], ["1", 1], [np.float64(1.0), 1]])
    def test_non_integer_block_sizes_are_refused(self, parts):
        # A block size is an integer, not a value that truncates to one:
        # [1.7, 1.2] once gave ranks (1, 1).
        with pytest.raises(PartitionMismatch, match=r"partition \[.*\] has a block size"):
            pvm_from_unitary(np.eye(2), parts)

    def test_numpy_integer_block_sizes_are_accepted(self):
        pvm = pvm_from_unitary(identity(3), [np.int64(1), np.int32(2)])
        assert pvm.ranks == (1, 2) and all(type(r) is int for r in pvm.ranks)


def _pvm_from_unitary_reference(u, parts):
    """pvm_from_unitary as spelled before its Gram gate: every block
    through make_projector, then the set through validate_pvm."""
    mat = np.asarray(u, dtype=complex)
    projectors = []
    start = 0
    for r in parts:
        cols = mat[:, start : start + r]
        projectors.append(make_projector(cols @ cols.conj().T))
        start += r
    return validate_pvm(projectors)


def _pvm_outcome(fn, *args):
    """Error class and message, or every bit a PVM carries."""
    try:
        pvm = fn(*args)
    except GleasonLabError as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", pvm.stack.tobytes(), tuple(e.matrix.tobytes() for e in pvm), pvm.ranks,
            pvm.labels, pvm.max_orthogonality_residual.hex(), pvm.completeness_residual.hex())


def _gram_bound(u):
    """(eps, B, whether the Gram gate decides), as pvm_from_unitary
    computes them (u = 2^-53)."""
    unit = 2.0**-53
    d = u.shape[0]
    e_hat = np.linalg.norm(u.conj().T @ u - np.eye(d), "fro")
    eps = (e_hat + 4 * (d + 2) * d * unit) / (1 - 4 * (d + 2) * math.sqrt(d) * unit)
    bound = eps * (1 + eps) + 64 * d * d * unit
    tol = measurements.TOL
    fast = bool(bound <= min(tol.herm, tol.proj, tol.pvm)
                and math.sqrt(d) * eps + 64 * d * unit <= min(0.25, tol.eig))
    return eps, bound, fast


def _perturbed_unitary(d, seed, kind, size):
    rng = np.random.default_rng(seed)
    u = haar_unitary(d, rng)
    if kind == "add":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = u + size * g / frobenius(g)
    elif kind == "scale":
        u = u * (1.0 + size)
    return u, random_rank_partition(d, rng)


# The seven Tolerances settings of test_projector_gates_keep_their_order_and_figures.
TOL_SETTINGS = [
    {}, {"herm": 0.0}, {"proj": 0.0}, {"eig": 0.0}, {"proj": 0.0, "eig": 0.0},
    {"herm": 0.0, "proj": 0.0, "eig": 0.0}, {"herm": 1.0, "proj": 1.0},
]


class TestGramGate:
    # pvm_from_unitary decides every projector and PVM gate from one
    # Gram matrix when its bound passes every tolerance, and otherwise
    # runs make_projector per block and validate_pvm; either way the
    # outcome is that of the second spelling, bit for bit.

    def _spies(self, monkeypatch):
        calls = {"make_projector": 0, "validate_pvm": 0, "_residuals": 0}
        for name in calls:
            real = getattr(measurements, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(measurements, name, spy)
        return calls

    def test_the_fast_path_runs_no_gate_and_reading_measures_once(self, rng, monkeypatch):
        calls = self._spies(monkeypatch)
        u = haar_unitary(4, rng)
        pvm = pvm_from_unitary(u, [1, 2, 1])
        assert calls == {"make_projector": 0, "validate_pvm": 0, "_residuals": 0}
        orth, complete = pvm.max_orthogonality_residual, pvm.completeness_residual
        assert calls == {"make_projector": 0, "validate_pvm": 0, "_residuals": 1}
        assert (pvm.max_orthogonality_residual, pvm.completeness_residual) == (orth, complete)
        assert calls["_residuals"] == 1
        expected = _pvm_from_unitary_reference(u, [1, 2, 1])
        assert (orth, complete) == (expected.max_orthogonality_residual,
                                    expected.completeness_residual)

    def test_the_elements_are_views_of_one_frozen_stack(self, rng):
        pvm = pvm_from_unitary(haar_unitary(5, rng), [2, 1, 2])
        assert not pvm.stack.flags.writeable
        for x, e in enumerate(pvm.elements):
            assert e.matrix.base is pvm.stack and not e.matrix.flags.writeable
            assert e.matrix.flags.c_contiguous
            assert np.shares_memory(e.matrix, pvm.stack[x])

    def test_a_zero_pvm_tolerance_takes_the_gate_chain(self, rng, monkeypatch):
        monkeypatch.setattr(measurements, "TOL", dataclasses.replace(TOL, pvm=0.0))
        u = haar_unitary(3, rng)
        expected = _pvm_outcome(_pvm_from_unitary_reference, u, [1, 1, 1])
        calls = self._spies(monkeypatch)
        assert _pvm_outcome(pvm_from_unitary, u, [1, 1, 1]) == expected
        assert calls == {"make_projector": 3, "validate_pvm": 1, "_residuals": 1}

    @pytest.mark.parametrize("scale", [1e200, 1e-200, -1e170])
    def test_an_overflowing_or_vanishing_gram_takes_the_gate_chain(self, rng, scale):
        # 1e200 overflows the Gram to NaN, -1e170 to inf, and 1e-200
        # underflows it to 0, far from I: none of them passes the bound,
        # and every outcome is the gate chain's.
        for d in (1, 2, 3, 8):
            u = haar_unitary(d, rng) * scale
            parts = random_rank_partition(d, rng)
            with np.errstate(all="ignore"):
                assert not _gram_bound(u)[2]
                assert _pvm_outcome(pvm_from_unitary, u, parts) == _pvm_outcome(
                    _pvm_from_unitary_reference, u, parts)

    def test_a_nan_gram_takes_the_gate_chain(self, monkeypatch):
        # A finite U whose Gram is NaN fails the `not (...)` gate.
        calls = self._spies(monkeypatch)
        u = np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex)
        with np.errstate(all="ignore"):
            gram = u.conj().T @ u
            assert np.isnan(gram).any() or np.isinf(gram).any()
            assert _pvm_outcome(pvm_from_unitary, u, [1, 1]) == _pvm_outcome(
                _pvm_from_unitary_reference, u, [1, 1])
        assert calls["make_projector"] >= 1

    @pytest.mark.parametrize("changes", TOL_SETTINGS, ids=lambda c: "-".join(c) or "default")
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.one_of(st.integers(1, 8), st.integers(9, 64)),
        kind=st.sampled_from(["none", "add", "scale"]),
        exponent=st.floats(-17.0, -8.0),
        sign=st.sampled_from([1.0, -1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outcome_is_the_gate_chains_and_its_figures_stay_below_the_bound(
        self, changes, d, kind, exponent, sign, seed
    ):
        u, parts = _perturbed_unitary(d, seed, kind, sign * 10.0**exponent)
        tol = dataclasses.replace(TOL, **changes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measurements, "TOL", tol)
            mp.setattr(operators, "TOL", tol)
            expected = _pvm_outcome(_pvm_from_unitary_reference, u, parts)
            assert _pvm_outcome(pvm_from_unitary, u, parts) == expected
            eps, bound, fast = _gram_bound(u)
        if not fast:
            return
        # Every figure the gate chain computes is within the bound.
        assert expected[0] == "ok"
        pvm = _pvm_from_unitary_reference(u, parts)
        assert pvm.max_orthogonality_residual <= bound
        assert pvm.completeness_residual <= bound
        for e in pvm:
            m = e.matrix
            assert frobenius(m - m.conj().T) <= bound
            assert frobenius(m @ m - m) <= bound
            assert abs(float(m.trace().real) - e.rank) <= math.sqrt(d) * eps + 64 * d * 2.0**-53


class TestMeasurementFamily:
    def test_psi_zero_gives_computational_elements(self):
        pvm = measurement_family_mpsi(KET0)
        shared = tensor(np.outer(KET0, KET0.conj()), identity(2))
        assert np.array_equal(pvm.elements[0].matrix, shared)
        assert np.array_equal(pvm.elements[1].matrix, np.diag([0, 0, 1, 0]).astype(complex))
        assert np.array_equal(pvm.elements[2].matrix, np.diag([0, 0, 0, 1]).astype(complex))
        total = sum(e.matrix for e in pvm.elements)
        assert np.array_equal(total, identity(4))

    def test_psi_plus_middle_element(self):
        pvm = measurement_family_mpsi(KET_PLUS)
        expected = tensor(np.outer(KET1, KET1.conj()), np.outer(KET_PLUS, KET_PLUS.conj()))
        assert np.allclose(pvm.elements[1].matrix, expected, atol=1e-15)
        assert pvm.elements[1].rank == 1

    def test_last_two_elements_orthogonal(self, rng):
        for _ in range(25):
            pvm = measurement_family_mpsi(random_ket(2, rng))
            product = pvm.elements[1].matrix @ pvm.elements[2].matrix
            assert np.linalg.norm(product, "fro") <= 1e-12

    def test_rejects_unnormalized_psi(self):
        with pytest.raises(NotNormalized):
            measurement_family_mpsi(np.array([1.0, 1.0]))

    def test_complement_phase_is_canonical(self, rng):
        for _ in range(50):
            perp = orthogonal_complement_ket(random_ket(2, rng))
            leading = perp[0] if abs(perp[0]) > 1e-12 else perp[1]
            assert abs(leading.imag) <= 1e-12
            assert leading.real > 0

    def test_stack_is_the_bits_of_the_tensor_spelling(self, rng):
        # Pi = |0><0| x I was spelled tensor(p0, identity(2)); embed gives
        # the same bits, signed zeros included, and so does every element.
        def family_reference(psi):
            v = np.asarray(psi, dtype=complex).reshape(-1)
            perp = orthogonal_complement_ket(v)
            p0 = np.outer(KET0, KET0.conj())
            p1 = np.outer(KET1, KET1.conj())
            return validate_pvm([
                make_projector(tensor(p0, identity(2))),
                make_projector(tensor(p1, np.outer(v, v.conj()))),
                make_projector(tensor(p1, np.outer(perp, perp.conj()))),
            ], labels=("pi", "one_psi", "one_perp"))

        for psi in [KET0, KET1, KET_PLUS] + [random_ket(2, rng) for _ in range(200)]:
            pvm = measurement_family_mpsi(psi)
            expected = family_reference(psi)
            assert pvm.stack.tobytes() == expected.stack.tobytes()
            assert pvm.ranks == expected.ranks == (2, 1, 1)
            assert pvm.labels == expected.labels
            assert pvm.max_orthogonality_residual == expected.max_orthogonality_residual
            assert pvm.completeness_residual == expected.completeness_residual


class TestEmbed:
    def test_basis_projector(self):
        embedded = embed(P0.matrix[None], 2)[0]
        assert np.array_equal(embedded, np.diag([1, 1, 0, 0]).astype(complex))
        assert make_projector(embedded).rank == 2

    def test_identity(self):
        embedded = embed(identity(2)[None], 2)[0]
        assert np.array_equal(embedded, identity(4))

    def test_orthogonality_preserved(self, rng):
        for _ in range(20):
            u = haar_unitary(2, rng)
            p = make_projector(np.outer(u[:, 0], u[:, 0].conj()))
            q = make_projector(np.outer(u[:, 1], u[:, 1].conj()))
            product = embed(p.matrix[None], 3)[0] @ embed(q.matrix[None], 3)[0]
            assert np.linalg.norm(product, "fro") <= 1e-12

    def test_sum_homomorphism(self, rng):
        p = rank1_projector(2, rng)
        q_mat = identity(2) - p.matrix
        q = make_projector(q_mat)
        lhs = embed(p.matrix[None], 3)[0] + embed(q.matrix[None], 3)[0]
        rhs = tensor(p.matrix + q.matrix, identity(3))
        assert np.array_equal(lhs, rhs)
        assert np.allclose(lhs, identity(6), atol=1e-15)

    def test_injectivity_on_distinct_inputs(self):
        assert projector_key(embed(P0.matrix[None], 2)[0]) != projector_key(embed(P1.matrix[None], 2)[0])

    def test_dimension_overflow(self, rng):
        with pytest.raises(DimensionOverflow):
            embed(rank1_projector(8, rng).matrix[None], 16)

    def test_rejects_trivial_ancilla(self):
        with pytest.raises(DimensionMismatch):
            embed(P0.matrix[None], 1)

    def test_rows_are_the_tensor_with_identity(self, rng):
        for d in range(1, 33):
            for d_b in range(2, 64 // d + 1):
                stack = np.array([rank1_projector(d, rng).matrix for _ in range(2)])
                out = embed(stack, d_b)
                assert out.shape == (2, d * d_b, d * d_b)
                assert not out.flags.writeable
                for m, row in zip(stack, out):
                    assert (row == tensor(m, identity(d_b))).all()
        assert embed(np.zeros((0, 3, 3)), 2).shape == (0, 6, 6)

    @pytest.mark.parametrize("stack", [
        np.zeros((2, 2)), np.zeros((1, 2, 3)), np.zeros((1, 2, 2, 1)), np.zeros(3), 0.5, [[1.0]],
    ])
    def test_non_stack_input_is_refused(self, stack):
        with pytest.raises(DimensionMismatch):
            embed(stack, 2)

    def test_stack_gates(self):
        for d_b in (1, 0, -2):
            with pytest.raises(DimensionMismatch):
                embed(np.zeros((1, 2, 2)), d_b)
        for d, d_b in ((8, 9), (33, 2), (2, 33)):
            with pytest.raises(DimensionOverflow) as exc:
                embed(np.zeros((0, d, d)), d_b)
            assert exc.value.dim == d * d_b


class TestEmbedPvm:
    def test_computational_basis(self):
        pvm = embed_pvm(validate_pvm([P0, P1]), 2)
        assert np.array_equal(pvm.elements[0].matrix, np.diag([1, 1, 0, 0]).astype(complex))
        assert np.array_equal(pvm.elements[1].matrix, np.diag([0, 0, 1, 1]).astype(complex))

    def test_embedded_pvms_validate(self, rng):
        for _ in range(100):
            pvm = pvm_from_unitary(haar_unitary(2, rng), [1, 1])
            embedded = embed_pvm(pvm, 2)
            assert embedded.dim == 4

    def test_outcome_count_and_labels_preserved(self, rng):
        pvm = pvm_from_unitary(haar_unitary(3, rng), [1, 2])
        embedded = embed_pvm(pvm, 2)
        assert len(embedded) == len(pvm)
        assert embedded.labels == pvm.labels

    @pytest.mark.parametrize("d_b", [2, 3, 8])
    def test_accepted_pvm_near_the_threshold_embeds(self, d_b):
        # Orthogonality 6.0e-11 and completeness 8.5e-11 pass validate_pvm;
        # gated again on the embedded matrices they once failed, as
        # Incomplete (1.2e-10) at d_b = 2 and NotOrthogonal at 3 and 8.
        pvm = validate_pvm([projector_from_ket([1.0, 0.0]), projector_from_ket([6e-11, 1.0])])
        assert pvm.max_orthogonality_residual == pytest.approx(6.0e-11, rel=1e-3)
        assert pvm.completeness_residual == pytest.approx(8.5e-11, rel=1e-2)
        embedded = embed_pvm(pvm, d_b)
        assert embedded.ranks == (d_b, d_b)
        assert embedded.stack.tobytes() == embed(pvm.stack, d_b).tobytes()
        root = math.sqrt(d_b)
        assert embedded.max_orthogonality_residual == pvm.max_orthogonality_residual * root
        assert embedded.completeness_residual == pvm.completeness_residual * root

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 8),
        data=st.data(),
        scale=st.floats(0.0, TOL.pvm),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_accepted_pvm_embeds(self, d, data, scale, seed):
        # A unitary perturbed by up to TOL.pvm in Frobenius norm gives PVMs
        # on both sides of validate_pvm's thresholds; each one it accepts
        # embeds, with the elements' bits and the residuals scaled by
        # sqrt(d_b), which are those of the embedded matrices up to
        # round-off.
        d_b = data.draw(st.integers(2, 64 // d), label="d_b")
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = haar_unitary(d, rng) + scale * g / frobenius(g)
        try:
            pvm = pvm_from_unitary(u, random_rank_partition(d, rng))
        except GleasonLabError:
            assume(False)
        embedded = embed_pvm(pvm, d_b)
        rows = embed(pvm.stack, d_b)
        expected = projector_stack(
            [Projector(dim=d * d_b, matrix=row, rank=e.rank * d_b) for e, row in zip(pvm, rows)],
            d * d_b,
        )
        assert embedded.stack.tobytes() == expected.tobytes()
        assert [e.matrix.tobytes() for e in embedded] == [row.tobytes() for row in rows]
        assert embedded.ranks == tuple(r * d_b for r in pvm.ranks)
        assert embedded.labels == pvm.labels
        orth = max(
            (frobenius(a @ b) for i, a in enumerate(rows) for b in rows[i + 1:]), default=0.0
        )
        complete = frobenius(rows.sum(axis=0) - identity(d * d_b))
        assert abs(embedded.max_orthogonality_residual - orth) <= 1e-13
        assert abs(embedded.completeness_residual - complete) <= 1e-13


class TestProjectorKey:
    def test_tiny_perturbation_same_key(self, rng):
        p = rank1_projector(2, rng)
        noise = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        noise = (noise + noise.conj().T) / 2
        perturbed = p.matrix + 1e-14 * noise
        # re-project onto the dominant eigenvector
        _, vecs = np.linalg.eigh(perturbed)
        top = vecs[:, -1]
        q = make_projector(np.outer(top, top.conj()))
        assert projector_key(p.matrix) == projector_key(q.matrix)

    def test_key_of_the_matrix_is_the_key_of_the_projector(self, rng):
        # The key hashes the matrix's row count where it once hashed the
        # Projector's dim field, so every label is unchanged.
        def key_of_projector(p):
            scaled = hermitize(p.matrix) / TOL.key
            payload = (np.round(scaled.real).astype(np.int64).tobytes()
                       + np.round(scaled.imag).astype(np.int64).tobytes())
            return hashlib.sha256(str(p.dim).encode() + b"|" + payload).hexdigest()[:16]

        for d in range(1, 9):
            for p in [rank1_projector(d, rng), make_projector(identity(d))]:
                assert projector_key(p.matrix) == key_of_projector(p)
            pvm = pvm_from_unitary(haar_unitary(d, rng), [d])
            assert projector_key(pvm.stack[0]) == key_of_projector(pvm.elements[0])

    def test_distinct_projectors_distinct_keys(self):
        assert projector_key(P0.matrix) != projector_key(P1.matrix)

    def test_keys_are_the_bits_of_the_hermitize_spelling(self, rng):
        # projector_key snaps projector_coords where it once snapped its
        # own Hermitization; every key is unchanged.
        for d in range(1, 9):
            ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            matrices = [
                make_projector(np.outer(ket, ket.conj()) / np.vdot(ket, ket).real).matrix,
                make_projector(identity(d)).matrix,
                projector_from_ket(ket).matrix,
                *pvm_from_unitary(haar_unitary(d, rng), random_rank_partition(d, rng)).stack,
            ]
            for m in matrices:
                assert projector_key(m) == _projector_key_reference(m)

    def test_keys_across_a_grid_edge_are_the_reference_keys(self):
        # Two off-diagonals one ulp apart on either side of a rounding
        # boundary of the key grid.
        x = 0.5 * TOL.key
        while _projector_key_reference(_off_diagonal(x)) == _projector_key_reference(
            _off_diagonal(np.nextafter(x, 1.0))
        ):
            x = np.nextafter(x, 1.0)
        pair = [_off_diagonal(x), _off_diagonal(np.nextafter(x, 1.0))]
        keys = [projector_key(m) for m in pair]
        assert keys == [_projector_key_reference(m) for m in pair]
        assert keys[0] != keys[1]

    def test_key_stable_across_serialization(self, rng):
        import json

        pvm = pvm_from_unitary(haar_unitary(3, rng), [1, 1, 1])
        round_tripped = pvm_from_json(json.loads(json.dumps(pvm_to_json(pvm))))
        for before, after in zip(pvm.elements, round_tripped.elements):
            assert projector_key(before.matrix) == projector_key(after.matrix)


def _projector_key_reference(m):
    """projector_key as spelled before it read projector_coords."""
    scaled = hermitize(m) / TOL.key
    payload = (np.round(scaled.real).astype(np.int64).tobytes()
               + np.round(scaled.imag).astype(np.int64).tobytes())
    return hashlib.sha256(str(m.shape[0]).encode() + b"|" + payload).hexdigest()[:16]


def _off_diagonal(x):
    return np.array([[1.0, x], [x, 0.0]], dtype=complex)


def _classes_by_loop(coords):
    """Reference: each row joins the first earlier representative within
    max-abs TOL.key, checked one pair at a time."""
    reps, out = [], []
    for i, x in enumerate(coords):
        near = [r for r in reps if np.max(np.abs(x - coords[r])) <= TOL.key]
        out.append(near[0] if near else i)
        if not near:
            reps.append(i)
    return out


def _first_match_by_loop(queries, reps):
    out = []
    for q in queries:
        near = [j for j, r in enumerate(reps) if np.max(np.abs(q - r)) <= TOL.key]
        out.append(near[0] if near else -1)
    return out


class TestProjectorMatching:
    def _chained_coords(self, dim, rng):
        """Coordinates of random projectors, each followed by copies moved
        along one coordinate in steps of 0.3 to 0.7 TOL.key, so that
        neighbours match and rows further down a chain do not."""
        rows = []
        for _ in range(6):
            base = projector_coords(rank1_projector(dim, rng).matrix[np.newaxis])[0]
            rows.append(base)
            axis = int(rng.integers(0, len(base)))
            offset = 0.0
            for _ in range(int(rng.integers(0, 5))):
                offset += rng.uniform(0.3, 0.7) * TOL.key
                moved = base.copy()
                moved[axis] += offset
                rows.append(moved)
        return np.array(rows)[rng.permutation(len(rows))]

    @pytest.mark.parametrize("block", [None, 1, 16, 40])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_agrees_with_a_pairwise_loop(self, dim, block, rng, monkeypatch):
        # Small Gram blocks split the rows and queries into many blocks.
        if block is not None:
            monkeypatch.setattr(measurements, "_GRAM_BLOCK", block)
        for _ in range(20):
            coords = self._chained_coords(dim, rng)
            classes = projector_classes(coords)
            assert classes.tolist() == _classes_by_loop(coords)
            reps = coords[np.flatnonzero(classes == np.arange(len(coords)))]
            queries = self._chained_coords(dim, rng)
            queries = np.concatenate([queries, coords])
            assert first_match(queries, reps).tolist() == _first_match_by_loop(queries, reps)

    def test_coordinates_are_the_hermitized_entries(self, rng):
        p = rank1_projector(3, rng)
        m = p.matrix + 1e-12j * np.eye(3)    # an anti-Hermitian part Hermitizing removes
        h = 0.5 * (m + m.conj().T)
        coords = projector_coords(m[np.newaxis])
        assert coords.shape == (1, 18)
        assert np.array_equal(coords[0, 0::2], h.real.ravel())
        assert np.array_equal(coords[0, 1::2], h.imag.ravel())

    def test_empty_inputs(self):
        empty = np.zeros((0, 8))
        assert projector_classes(empty).tolist() == []
        assert first_match(empty, np.ones((2, 8))).tolist() == []
        assert first_match(np.ones((2, 8)), empty).tolist() == [-1, -1]


class TestIntertwineGraph:
    def test_generic_qubit_pvms_never_share_projectors(self, rng):
        pvms = [pvm_from_unitary(haar_unitary(2, rng), [1, 1]) for _ in range(50)]
        graph = intertwine_graph(pvms)
        assert graph.max_degree() == 1
        assert len(graph.incidence) == 100

    def test_shared_projector_has_family_degree(self, rng):
        family = [measurement_family_mpsi(random_ket(2, rng)) for _ in range(10)]
        graph = intertwine_graph(family)
        pi_key = projector_key(family[0].elements[0].matrix)
        assert graph.degree(pi_key) == 10
        for node in graph.nodes:
            if node.key != pi_key:
                assert node.degree == 1
        assert sum(node.degree >= 2 for node in graph.nodes) == 1

    def test_empty_list(self):
        graph = intertwine_graph([])
        assert graph.nodes == ()
        assert graph.incidence == ()
        assert graph.max_degree() == 0

    def test_mixed_dimensions_rejected(self, rng):
        qubit = pvm_from_unitary(haar_unitary(2, rng), [1, 1])
        qutrit = pvm_from_unitary(haar_unitary(3, rng), [1, 1, 1])
        with pytest.raises(DimensionMismatch):
            intertwine_graph([qubit, qutrit])

    def test_projectors_across_a_grid_edge_share_a_node(self):
        # Off-diagonals of 0.49 and 0.51 TOL.key round to different cells
        # of the key grid but lie 0.02 TOL.key apart.
        p = projector_from_ket([1.0, 0.49 * TOL.key])
        q = projector_from_ket([1.0, 0.51 * TOL.key])
        assert projector_key(p.matrix) != projector_key(q.matrix)
        pvms = [validate_pvm([x, make_projector(identity(2) - x.matrix)]) for x in (p, q)]
        graph = intertwine_graph(pvms)
        keys = [projector_key(e.matrix) for e in pvms[0].elements]
        assert [(n.key, n.rank, n.degree) for n in graph.nodes] == [(k, 1, 2) for k in keys]
        assert graph.incidence == ((keys[0], 0), (keys[1], 0), (keys[0], 1), (keys[1], 1))

    def test_duplicate_pvm_counts_once_per_pvm(self):
        pvm = validate_pvm([P0, P1])
        graph = intertwine_graph([pvm, pvm])
        assert graph.degree(projector_key(P0.matrix)) == 2
        assert len(graph.incidence) == 4


def _gate_chain_pvm(monkeypatch):
    # Under TOL.pvm = 0 no Gram bound passes, so the blocks go through
    # make_projector and validate_pvm; identity blocks have residuals of 0.
    monkeypatch.setattr(measurements, "TOL", dataclasses.replace(TOL, pvm=0.0))
    return pvm_from_unitary(identity(3), [1, 2])


P_PLUS_PERP = make_projector(identity(2) - P_PLUS.matrix)
PVM_CONSTRUCTORS = {
    "validate_pvm": lambda mp: validate_pvm([P0, P1]),
    "pvm_from_unitary-gram": lambda mp: pvm_from_unitary(haar_unitary(4, np.random.default_rng(1)), [1, 2, 1]),
    "pvm_from_unitary-gate-chain": _gate_chain_pvm,
    "embed_pvm": lambda mp: embed_pvm(measurement_family_mpsi(KET_PLUS), 2),
    "measurement_family_mpsi": lambda mp: measurement_family_mpsi(KET_PLUS),
    "pvm_from_json": lambda mp: pvm_from_json(pvm_to_json(validate_pvm([P_PLUS, P_PLUS_PERP]))),
    "random_qubit_pvm_pair": lambda mp: random_qubit_pvm_pair(np.random.default_rng(2)),
}


@pytest.mark.parametrize("name", sorted(PVM_CONSTRUCTORS))
def test_a_pvm_is_its_stack(name, monkeypatch):
    # One frozen stack owns the matrices; the ranks are ints, and the
    # elements are read-only Projector views of its rows, built per read.
    pvm = PVM_CONSTRUCTORS[name](monkeypatch)
    assert "elements" not in PVM.__slots__
    assert type(pvm.ranks) is tuple and all(type(r) is int for r in pvm.ranks)
    assert pvm.stack.shape == (len(pvm.ranks), pvm.dim, pvm.dim) and not pvm.stack.flags.writeable
    elements = pvm.elements
    assert elements is not pvm.elements and len(elements) == len(pvm)
    for x, e in enumerate(elements):
        assert type(e) is Projector and (e.dim, e.rank) == (pvm.dim, pvm.ranks[x])
        assert e.matrix.ctypes.data == pvm.stack[x].ctypes.data and e.matrix.shape == (pvm.dim, pvm.dim)
        assert np.shares_memory(e.matrix, pvm.stack) and not e.matrix.flags.writeable
