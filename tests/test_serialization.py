import json
import math

import numpy as np
import pytest

from gleason_lab.errors import SerializationError
from gleason_lab.frames import (
    born_backed,
    definite_xz_table,
    deterministic_qubit,
)
from gleason_lab.marginality import certify_marginal
from gleason_lab.measurements import (
    intertwine_graph,
    measurement_family_mpsi,
    pvm_from_unitary,
)
from gleason_lab.operators import (
    haar_unitary,
    random_density_matrix,
)
from gleason_lab.serialization import (
    certificate_to_json,
    frame_from_json,
    frame_to_json,
    graph_to_json,
    matrix_from_json,
    matrix_to_json,
    pvm_from_json,
    pvm_to_json,
)

from conftest import random_ket, rank1_projector


def json_round_trip(obj):
    return json.loads(json.dumps(obj))


class TestMatrixEncoding:
    def test_round_trip_preserves_every_bit(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = matrix_from_json(json_round_trip(matrix_to_json(m)))
        assert np.array_equal(back, m)

    def test_entries_are_re_im_pairs(self):
        data = matrix_to_json(np.array([[1 + 2j]]))
        assert data == [[[1.0, 2.0]]]

    def test_bad_shape_rejected(self):
        with pytest.raises(SerializationError):
            matrix_from_json([[1.0, 2.0]])

    def test_non_numeric_rejected(self):
        with pytest.raises(SerializationError):
            matrix_from_json([[["a", "b"]]])


class TestPvmEncoding:
    def test_round_trip(self, rng):
        pvm = pvm_from_unitary(haar_unitary(4, rng), [1, 1, 2])
        obj = json_round_trip(pvm_to_json(pvm))
        assert set(obj) == {"dim", "elements", "labels"}
        back = pvm_from_json(obj)
        assert back.dim == pvm.dim
        assert back.labels == pvm.labels
        for before, after in zip(pvm.elements, back.elements):
            assert np.array_equal(before.matrix, after.matrix)

    def test_family_round_trip_keeps_labels(self, rng):
        pvm = measurement_family_mpsi(random_ket(2, rng))
        back = pvm_from_json(json_round_trip(pvm_to_json(pvm)))
        assert back.labels == ("pi", "one_psi", "one_perp")

    def test_missing_elements_rejected(self):
        with pytest.raises(SerializationError):
            pvm_from_json({"dim": 2})


class TestFrameEncoding:
    def test_born_round_trip(self, rng):
        f = born_backed(random_density_matrix(3, rng))
        obj = json_round_trip(frame_to_json(f))
        assert obj["repr"] == "born"
        back = frame_from_json(obj)
        assert np.array_equal(back.rho.matrix, f.rho.matrix)
        for _ in range(10):
            p = rank1_projector(3, rng)
            assert back(p) == f(p)

    def test_deterministic_round_trip(self):
        obj = json_round_trip(frame_to_json(deterministic_qubit()))
        assert obj == {"dim": 2, "repr": "deterministic", "rule": "lex-zxy"}
        back = frame_from_json(obj)
        assert back.rule == "lex-zxy"

    def test_unknown_rule_rejected(self):
        with pytest.raises(SerializationError):
            frame_from_json({"dim": 2, "repr": "deterministic", "rule": "lex-xyz"})

    def test_table_round_trip(self, rng):
        f = definite_xz_table()
        obj = json_round_trip(frame_to_json(f))
        assert obj["repr"] == "table"
        assert len(obj["entries"]) == 6
        back = frame_from_json(obj)
        for p, value in f.entries:
            assert back(p) == value

    def test_unknown_repr_rejected(self):
        with pytest.raises(SerializationError):
            frame_from_json({"dim": 2, "repr": "povm"})

    def test_empty_table_rejected(self):
        with pytest.raises(SerializationError):
            frame_from_json({"dim": 2, "repr": "table", "entries": []})


P0_JSON = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
P1_JSON = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("decode, obj", [
    (frame_from_json, {"repr": "table", "entries": 5}),
    (frame_from_json, {"repr": "table", "entries": "ab"}),
    (frame_from_json, {"repr": "table", "entries": [1, 2]}),
    (frame_from_json, {"repr": "table", "entries": [{"projector": P0_JSON, "value": [1]}]}),
    (pvm_from_json, {"dim": 2, "elements": 5}),
    (pvm_from_json, {"dim": 2, "elements": [P0_JSON, P1_JSON], "labels": 5}),
    (pvm_from_json, {"dim": 2, "elements": [P0_JSON, P1_JSON], "labels": {"a": 1}}),
    (pvm_from_json, {"dim": 2, "elements": [P0_JSON, P1_JSON], "labels": [["a"], "b"]}),
    (pvm_from_json, {"dim": 2, "elements": [P0_JSON, P1_JSON], "labels": [None, "b"]}),
    (frame_from_json, {"repr": "born", "rho": [[[10**400, 0.0]]]}),
    (frame_from_json, {"repr": "born", "rho": [[[True, 0.0]]]}),
    (frame_from_json, {"repr": "table", "entries": [
        {"projector": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]], "value": 1.0},
    ]}),
    (frame_from_json, {"dim": 7, "repr": "born", "rho": [[[0.5, 0.0], [0.0, 0.0]],
                                                         [[0.0, 0.0], [0.5, 0.0]]]}),
    (frame_from_json, {"dim": 3, "repr": "deterministic"}),
    (frame_from_json, {"dim": "2", "repr": "table", "entries": [
        {"projector": P0_JSON, "value": 1.0},
    ]}),
    (pvm_from_json, {"dim": 9, "elements": [P0_JSON, P1_JSON]}),
], ids=[
    "entries-int", "entries-str", "entries-of-ints", "value-list",
    "elements-int", "labels-int", "labels-object", "labels-nested", "labels-null", "huge-int",
    "rho-bool", "projector-bool",
    "born-dim-mismatch", "deterministic-dim-mismatch", "table-dim-string", "pvm-dim-mismatch",
])
def test_malformed_containers_and_scalars_rejected(decode, obj):
    with pytest.raises(SerializationError):
        decode(obj)


class TestGraphEncoding:
    def test_nodes_and_incidence(self, rng):
        family = [measurement_family_mpsi(random_ket(2, rng)) for _ in range(3)]
        obj = json_round_trip(graph_to_json(intertwine_graph(family)))
        assert {n["degree"] for n in obj["nodes"]} == {1, 3}
        assert len(obj["incidence"]) == 9
        assert all(len(pair) == 2 for pair in obj["incidence"])


class TestCertificateEncoding:
    def test_non_marginal_certificate_fields(self):
        cert = certify_marginal(definite_xz_table())
        obj = json_round_trip(certificate_to_json(cert))
        assert obj["verdict"] == "non_marginal"
        assert obj["spanning_set_id"] == "axes-d2"
        assert obj["witness"]["norm"] == pytest.approx(math.sqrt(2), abs=1e-9)
        assert obj["witness"]["bloch"] == pytest.approx([1.0, 0.0, 1.0], abs=1e-9)
        assert obj["tolerances"]["psd"] == 1e-9
        back = matrix_from_json(obj["rho_hat"])
        assert np.array_equal(back, cert.rho_hat)

    def test_marginal_certificate_omits_witness(self, rng):
        cert = certify_marginal(born_backed(random_density_matrix(2, rng)))
        obj = certificate_to_json(cert)
        assert "witness" not in obj
        assert obj["verdict"] == "marginal"
