import math

import numpy as np
import pytest

from gleason_lab.errors import (
    DimensionMismatch,
    DimensionOverflow,
    EmptySet,
    Incomplete,
    NotNormalized,
    NotOrthogonal,
    PartitionMismatch,
)
from gleason_lab.measurements import (
    embed,
    embed_pvm,
    intertwine_graph,
    measurement_family_mpsi,
    orthogonal_complement_ket,
    projector_key,
    pvm_from_unitary,
    validate_pvm,
)
from gleason_lab.operators import (
    haar_unitary,
    identity,
    make_projector,
    tensor,
)
from gleason_lab.serialization import pvm_from_json, pvm_to_json

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
        assert pvm.ranks() == (1, 1)
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
        assert pvm.ranks() == (2, 1, 1)

    def test_incomplete_set(self):
        with pytest.raises(Incomplete):
            validate_pvm([P0])

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            validate_pvm([])

    def test_mixed_dimensions(self, rng):
        with pytest.raises(DimensionMismatch):
            validate_pvm([P0, rank1_projector(3, rng)])

    def test_trivial_measurement_is_valid(self):
        pvm = validate_pvm([make_projector(identity(3))])
        assert pvm.ranks() == (3,)

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
            assert pvm.ranks() == (1, 1, 1)
            for x in range(3):
                for y in range(x + 1, 3):
                    product = pvm.elements[x].matrix @ pvm.elements[y].matrix
                    assert np.linalg.norm(product, "fro") <= 1e-10

    def test_partition_mismatch(self):
        with pytest.raises(PartitionMismatch):
            pvm_from_unitary(identity(3), [1, 1])
        with pytest.raises(PartitionMismatch):
            pvm_from_unitary(identity(3), [1, -1, 3])


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


class TestEmbed:
    def test_basis_projector(self):
        embedded = embed(P0, 2)
        assert np.array_equal(embedded.matrix, np.diag([1, 1, 0, 0]).astype(complex))
        assert embedded.rank == 2

    def test_identity(self):
        embedded = embed(make_projector(identity(2)), 2)
        assert np.array_equal(embedded.matrix, identity(4))

    def test_orthogonality_preserved(self, rng):
        for _ in range(20):
            u = haar_unitary(2, rng)
            p = make_projector(np.outer(u[:, 0], u[:, 0].conj()))
            q = make_projector(np.outer(u[:, 1], u[:, 1].conj()))
            product = embed(p, 3).matrix @ embed(q, 3).matrix
            assert np.linalg.norm(product, "fro") <= 1e-12

    def test_sum_homomorphism(self, rng):
        p = rank1_projector(2, rng)
        q_mat = identity(2) - p.matrix
        q = make_projector(q_mat)
        lhs = embed(p, 3).matrix + embed(q, 3).matrix
        rhs = tensor(p.matrix + q.matrix, identity(3))
        assert np.array_equal(lhs, rhs)
        assert np.allclose(lhs, identity(6), atol=1e-15)

    def test_injectivity_on_distinct_inputs(self):
        assert projector_key(embed(P0, 2)) != projector_key(embed(P1, 2))

    def test_dimension_overflow(self, rng):
        with pytest.raises(DimensionOverflow):
            embed(rank1_projector(8, rng), 16)

    def test_rejects_trivial_ancilla(self):
        with pytest.raises(DimensionMismatch):
            embed(P0, 1)


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
        assert projector_key(p) == projector_key(q)

    def test_distinct_projectors_distinct_keys(self):
        assert projector_key(P0) != projector_key(P1)

    def test_key_stable_across_serialization(self, rng):
        import json

        pvm = pvm_from_unitary(haar_unitary(3, rng), [1, 1, 1])
        round_tripped = pvm_from_json(json.loads(json.dumps(pvm_to_json(pvm))))
        for before, after in zip(pvm.elements, round_tripped.elements):
            assert projector_key(before) == projector_key(after)


class TestIntertwineGraph:
    def test_generic_qubit_pvms_never_share_projectors(self, rng):
        pvms = [pvm_from_unitary(haar_unitary(2, rng), [1, 1]) for _ in range(50)]
        graph = intertwine_graph(pvms)
        assert graph.max_degree() == 1
        assert len(graph.incidence) == 100

    def test_shared_projector_has_family_degree(self, rng):
        family = [measurement_family_mpsi(random_ket(2, rng)) for _ in range(10)]
        graph = intertwine_graph(family)
        pi_key = projector_key(family[0].elements[0])
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

    def test_duplicate_pvm_counts_once_per_pvm(self):
        pvm = validate_pvm([P0, P1])
        graph = intertwine_graph([pvm, pvm])
        assert graph.degree(projector_key(P0)) == 2
        assert len(graph.incidence) == 4
