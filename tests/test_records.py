"""The library's record types behave as frozen dataclasses did: they
refuse assignment and deletion, print the dataclass text, build from
positional or keyword arguments, compare by fields (the four value
kinds) or by identity (the rest), and survive pickle and copy. Only
``Tolerances`` is still a dataclass, so importing the library generates
no record code.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import gleason_lab
from gleason_lab.marginality import (
    BlochWitness,
    EigenWitness,
    MarginalityCertificate,
    ResidualWitness,
    SpanningSet,
    Verdict,
)
from gleason_lab.measurements import PVM, GraphNode, IntertwineGraph
from gleason_lab.operators import BlochVector, DensityMatrix, Projector

ARR = np.array([1.0, 2.0])

# (type, field names, field values, the frozen dataclass's repr, compared by fields)
RECORDS = [
    (Projector, ("dim", "matrix", "rank"), (1, ARR, 1),
     "Projector(dim=1, matrix=array([1., 2.]), rank=1)", False),
    (DensityMatrix, ("dim", "matrix"), (1, ARR),
     "DensityMatrix(dim=1, matrix=array([1., 2.]))", False),
    (BlochVector, ("x", "y", "z"), (0.5, 0.0, -0.5),
     "BlochVector(x=0.5, y=0.0, z=-0.5)", True),
    (PVM, ("dim", "elements", "stack", "labels", "max_orthogonality_residual", "completeness_residual"),
     (2, (), ARR, ("a",), 0.0, 1e-17),
     "PVM(dim=2, elements=(), stack=array([1., 2.]), labels=('a',), "
     "max_orthogonality_residual=0.0, completeness_residual=1e-17)", False),
    (GraphNode, ("key", "rank", "degree"), ("k", 1, 2),
     "GraphNode(key='k', rank=1, degree=2)", True),
    (IntertwineGraph, ("nodes", "incidence"), ((), (("k", 0),)),
     "IntertwineGraph(nodes=(), incidence=(('k', 0),))", False),
    (SpanningSet,
     ("dim", "projectors", "labels", "condition_number", "set_id",
      "stack", "offsets", "basis_flat", "basis_design", "pinv"),
     (2, (), ("e0",), 1.5, "grid-d2", ARR, ARR, ARR, ARR, ARR),
     "SpanningSet(dim=2, projectors=(), labels=('e0',), condition_number=1.5, set_id='grid-d2', "
     "stack=array([1., 2.]), offsets=array([1., 2.]), basis_flat=array([1., 2.]), "
     "basis_design=array([1., 2.]), pinv=array([1., 2.]))", False),
    (BlochWitness, ("bloch", "norm"), ((1.0, 0.0, 1.0), 1.5),
     "BlochWitness(bloch=(1.0, 0.0, 1.0), norm=1.5)", True),
    (EigenWitness, ("min_eig", "eigenvector"), (-0.25, ARR),
     "EigenWitness(min_eig=-0.25, eigenvector=array([1., 2.]))", False),
    (ResidualWitness, ("projector_key", "label", "residual"), ("abc", "e0", 0.5),
     "ResidualWitness(projector_key='abc', label='e0', residual=0.5)", True),
    (MarginalityCertificate,
     ("verdict", "dim", "rho_hat", "linear_residual", "min_eig", "witness", "spanning_set_id"),
     (Verdict.MARGINAL, 2, ARR, 0.0, 0.25, None, "axes-d2"),
     "MarginalityCertificate(verdict=<Verdict.MARGINAL: 'marginal'>, dim=2, "
     "rho_hat=array([1., 2.]), linear_residual=0.0, min_eig=0.25, witness=None, "
     "spanning_set_id='axes-d2')", False),
]
IDS = [case[0].__name__ for case in RECORDS]


def _same_fields(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray) and np.array_equal(x, y), name
        else:
            assert x == y, name


@pytest.mark.parametrize("cls, names, values, text, by_fields", RECORDS, ids=IDS)
class TestRecord:
    def test_assignment_and_deletion_are_refused(self, cls, names, values, text, by_fields):
        rec = cls(*values)
        for name in (*names, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, 0)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
        _same_fields(rec, cls(*values), names)

    def test_repr_is_the_dataclass_text(self, cls, names, values, text, by_fields):
        assert repr(cls(*values)) == text

    def test_positional_and_keyword_construction(self, cls, names, values, text, by_fields):
        a, b = cls(*values), cls(**dict(zip(names, values)))
        for name, value in zip(names, values):
            assert getattr(a, name) is value and getattr(b, name) is value

    def test_equality_and_hash(self, cls, names, values, text, by_fields):
        a, b = cls(*values), cls(*values)
        assert a == a
        if by_fields:
            assert a == b and hash(a) == hash(b) == hash(values)
            changed = list(values)
            changed[-1] = 0.125 if changed[-1] != 0.125 else 0.25
            assert a != cls(*changed)
        else:
            assert a != b
            assert hash(a) == object.__hash__(a)

    def test_pickle_and_copy_keep_the_fields(self, cls, names, values, text, by_fields):
        rec = cls(*values)
        for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec)):
            assert type(twin) is cls
            _same_fields(twin, rec, names)


def test_the_kept_spectrum_survives_copy():
    rho = DensityMatrix(dim=2, matrix=np.diag([0.75, 0.25]).astype(complex))
    assert rho.spectrum.tolist() == [0.25, 0.75]
    for twin in (pickle.loads(pickle.dumps(rho)), copy.copy(rho)):
        assert twin.spectrum.tolist() == [0.25, 0.75]


def test_tolerances_is_the_only_dataclass():
    # A dataclass generates and compiles its methods in every process
    # that imports it; the library's records are plain slotted classes.
    found = []
    for info in pkgutil.iter_modules(gleason_lab.__path__):
        module = importlib.import_module(f"gleason_lab.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.append(f"{module.__name__}.{name}")
    assert found == ["gleason_lab.tolerances.Tolerances"]
