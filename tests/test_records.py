"""The library's record types behave as frozen dataclasses did: they
refuse assignment and deletion, print the dataclass text, build from
positional or keyword arguments, compare by fields (the four value
kinds) or by identity (the rest), and survive pickle and copy. The four
built-in frame kinds are records too. Only ``Tolerances`` is still a
dataclass, so importing the library generates no record code.
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
from gleason_lab.errors import GleasonLabError
from gleason_lab.frames import (
    FrameFunction,
    InducedFrameFunction,
    born_backed,
    definite_xz_table,
    deterministic_qubit,
    tabulated,
)
from gleason_lab.marginality import (
    BlochWitness,
    EigenWitness,
    MarginalityCertificate,
    ResidualWitness,
    SpanningSet,
    Verdict,
    certify_marginal,
    spanning_projectors,
)
from gleason_lab.measurements import (
    PVM,
    GraphNode,
    IntertwineGraph,
    intertwine_graph,
    pvm_from_unitary,
    validate_pvm,
)
from gleason_lab.operators import (
    BlochVector,
    DensityMatrix,
    Projector,
    _frozen,
    _Record,
    haar_unitary,
    make_density,
    make_projector,
    projector_from_ket,
    random_density_matrix,
)
from gleason_lab.tolerances import Tolerances

ARR = np.array([1.0, 2.0])
Z_STACK = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])   # two rank-1 qubit projectors
Z_STACK.setflags(write=False)   # a set keeps a read-only stack as given

# (type, field names, field values, the frozen dataclass's repr, compared by fields)
RECORDS = [
    (Projector, ("dim", "matrix", "rank"), (1, ARR, 1),
     "Projector(dim=1, matrix=array([1., 2.]), rank=1)", False),
    (DensityMatrix, ("dim", "matrix"), (1, ARR),
     "DensityMatrix(dim=1, matrix=array([1., 2.]))", False),
    (BlochVector, ("x", "y", "z"), (0.5, 0.0, -0.5),
     "BlochVector(x=0.5, y=0.0, z=-0.5)", True),
    (PVM, ("dim", "stack", "ranks", "labels", "max_orthogonality_residual", "completeness_residual"),
     (2, ARR, (1,), ("a",), 0.0, 1e-17),
     "PVM(dim=2, stack=array([1., 2.]), ranks=(1,), labels=('a',), "
     "max_orthogonality_residual=0.0, completeness_residual=1e-17)", False),
    (GraphNode, ("key", "rank", "degree"), ("k", 1, 2),
     "GraphNode(key='k', rank=1, degree=2)", True),
    (IntertwineGraph, ("nodes", "incidence"), ((), (("k", 0),)),
     "IntertwineGraph(nodes=(), incidence=(('k', 0),))", False),
    (SpanningSet, ("dim", "stack", "labels", "set_id"), (2, Z_STACK, ("+z", "-z"), "z-d2"),
     "SpanningSet(dim=2, stack=array([[[1., 0.],\n        [0., 0.]],\n\n"
     "       [[0., 0.],\n        [0., 1.]]]), labels=('+z', '-z'), set_id='z-d2')", False),
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


STATE_FIGURES = ("hermitian_residual", "trace")


def test_a_gated_state_prints_pickles_and_copies_as_before():
    # make_density keeps its gates' figures in private slots; the record's
    # fields, text and round trips are still those of (dim, matrix), and
    # a twin measures the same figures again.
    matrix = np.array([[0.75, 1e-12j], [-1e-12j, 0.25]])
    rho = make_density(matrix)
    assert DensityMatrix.__match_args__ == ("dim", "matrix")
    assert repr(rho) == f"DensityMatrix(dim=2, matrix={rho.matrix!r})"
    want = [getattr(rho, f) for f in STATE_FIGURES]
    for twin in (pickle.loads(pickle.dumps(rho)), copy.copy(rho), copy.deepcopy(rho)):
        assert type(twin) is DensityMatrix and twin.dim == 2
        assert twin.matrix.tobytes() == rho.matrix.tobytes()
        assert [getattr(twin, f) for f in STATE_FIGURES] == want


def test_kept_state_figures_refuse_assignment_and_deletion():
    for read_first in (False, True):
        for rho in (make_density(np.diag([0.75, 0.25])),
                    DensityMatrix(2, np.diag([0.75, 0.25]).astype(complex))):
            if read_first:
                rho.trace, rho.hermitian_residual
            for name in (*STATE_FIGURES, "_hermitian_residual", "_trace"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(rho, name, 0.0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(rho, name)
            assert (rho.hermitian_residual, rho.trace) == (0.0, 1 + 0j)


FIGURES = ("max_orthogonality_residual", "completeness_residual")


def _unitary_pvm():
    return pvm_from_unitary(haar_unitary(4, np.random.default_rng(7)), [1, 2, 1])


def test_a_unitary_pvm_prints_pickles_and_copies_its_measured_figures():
    # pvm_from_unitary leaves both figures to be measured on first read;
    # repr, pickle and copy read them, bit-equal to validate_pvm's.
    expected = validate_pvm(_unitary_pvm().elements)
    want = tuple(getattr(expected, f).hex() for f in FIGURES)
    pvm = _unitary_pvm()
    assert repr(pvm) == (
        f"PVM(dim=4, stack={pvm.stack!r}, ranks=(1, 2, 1), labels=('0', '1', '2'), "
        f"max_orthogonality_residual={expected.max_orthogonality_residual!r}, "
        f"completeness_residual={expected.completeness_residual!r})"
    )
    for twin in (pickle.loads(pickle.dumps(_unitary_pvm())), copy.copy(_unitary_pvm()), pvm):
        assert tuple(getattr(twin, f).hex() for f in FIGURES) == want
        assert twin.stack.tobytes() == expected.stack.tobytes()


def test_measured_figures_refuse_assignment_and_deletion():
    for read_first in (False, True):
        pvm = _unitary_pvm()
        if read_first:
            pvm.completeness_residual
        for name in (*FIGURES, "_orthogonality", "_completeness"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pvm, name, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(pvm, name)
        assert pvm.max_orthogonality_residual == validate_pvm(pvm.elements).max_orthogonality_residual


def test_a_pvm_given_none_measures_only_what_it_was_not_given():
    expected = validate_pvm(_unitary_pvm().elements)
    stack = expected.stack
    measured = PVM(4, stack, (1, 2, 1), ("a", "b", "c"), None, None)
    assert [getattr(measured, f) for f in FIGURES] == [getattr(expected, f) for f in FIGURES]
    half = PVM(4, stack, (1, 2, 1), ("a", "b", "c"), 0.5, None)
    assert (half.max_orthogonality_residual, half.completeness_residual) == (
        0.5, expected.completeness_residual)
    assert repr(PVM(2, ARR, (1,), ("a",), 0.0, 1e-17)) == RECORDS[3][3]


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


def _frames(rng):
    """(frame, its slot fields) of each built-in kind, on d = 3 where the
    kind allows it."""
    s = spanning_projectors(3)
    fields = {"born": ("rho", "dim"), "deterministic": (),
              "tabulated": ("dim", "_projectors", "_coords", "_table"),
              "induced": ("composite", "dim", "dim_b")}
    frames = {
        "born": born_backed(random_density_matrix(3, rng)),
        "deterministic": deterministic_qubit(),
        "tabulated": tabulated(list(zip(s.projectors, rng.uniform(0, 1, len(s))))),
        "induced": InducedFrameFunction(born_backed(random_density_matrix(6, rng)), 3, 2),
    }
    return {kind: (f, fields[kind]) for kind, f in frames.items()}


FRAME_KINDS = ("born", "deterministic", "tabulated", "induced")


@pytest.mark.parametrize("kind", FRAME_KINDS)
class TestFrameRecord:
    def test_assignment_and_deletion_are_refused(self, kind):
        f, fields = _frames(np.random.default_rng(3))[kind]
        assert not hasattr(f, "__dict__")
        before = {name: getattr(f, name) for name in fields}
        for name in (*fields, *f.__match_args__, "dim", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(f, name)
        assert all(getattr(f, name) is value for name, value in before.items())

    def test_repr_is_the_record_text(self, kind):
        f, _ = _frames(np.random.default_rng(3))[kind]
        fields = ", ".join(f"{name}={getattr(f, name)!r}" for name in f.__match_args__)
        assert repr(f) == f"{type(f).__qualname__}({fields})"

    def test_pickle_and_deepcopy_evaluate_bit_for_bit(self, kind):
        f, _ = _frames(np.random.default_rng(3))[kind]
        stack = spanning_projectors(f.dim).stack
        want = f.values(stack).tobytes()
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert type(twin) is type(f) and twin.dim == f.dim
            assert twin.values(stack).tobytes() == want


def test_tabulated_arrays_are_read_only():
    f, fields = _frames(np.random.default_rng(3))["tabulated"]
    arrays = [getattr(f, name) for name in fields if isinstance(getattr(f, name), np.ndarray)]
    assert len(arrays) == 2
    assert not any(a.flags.writeable for a in arrays)
    assert isinstance(f._projectors, tuple)
    assert f._projectors == tuple(p for p, _ in f.entries)


def test_the_xz_table_is_built_once():
    assert definite_xz_table() is definite_xz_table()


def test_every_exported_class_is_a_record():
    # Errors, the Verdict enum, the open FrameFunction base and the
    # tolerance table are the only exported classes that are not records.
    exported = [obj for obj in vars(gleason_lab).values() if inspect.isclass(obj)]
    assert len(exported) > 20
    loose = [cls.__name__ for cls in exported
             if not (issubclass(cls, (GleasonLabError, _Record)) or cls in (Verdict, FrameFunction, Tolerances))]
    assert loose == []


def _arrays(obj):
    """Every ndarray reachable from obj through record fields and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    if isinstance(obj, _Record):
        return [a for name in obj.__match_args__ for a in _arrays(getattr(obj, name))]
    return []


def _built_records():
    """One record of every kind, as the library builds it."""
    rng = np.random.default_rng(5)
    s3 = spanning_projectors(3)
    pvm = pvm_from_unitary(np.eye(2), [1, 1])
    rho = make_density(np.diag([0.75, 0.25]))
    read = projector_from_ket([0.6, 0.8j])
    read.matrix
    return {
        "ket projector, unread": projector_from_ket([0.6, 0.8j]),
        "ket projector, read": read,
        "make_projector": make_projector(np.diag([1.0, 0.0])),
        "density": rho,
        "bloch": BlochVector(0.5, 0.0, -0.5),
        "pvm_from_unitary": pvm,
        "validate_pvm": validate_pvm(pvm.elements),
        "graph": intertwine_graph([pvm, pvm]),
        "spanning d2": spanning_projectors(2),
        "spanning d3": s3,
        "certificate": certify_marginal(born_backed(random_density_matrix(3, rng))),
        "bloch witness": certify_marginal(definite_xz_table()).witness,
        "eigen witness": EigenWitness(-0.25, _frozen(np.array([1.0, 0.0, 0j]))),
        "residual witness": ResidualWitness("abc", "e0", 0.5),
        "born frame": born_backed(rho),
        "deterministic frame": deterministic_qubit(),
        "tabulated frame": tabulated(list(zip(s3.projectors, rng.uniform(0, 1, len(s3))))),
        "induced frame": InducedFrameFunction(born_backed(random_density_matrix(6, rng)), 3, 2),
        "definite_xz_table": definite_xz_table(),
    }


@pytest.mark.parametrize("kind", list(_built_records()))
def test_pickle_and_copy_keep_every_array_frozen(kind):
    # The arrays of a twin came back writeable from pickle and deepcopy.
    rec = _built_records()[kind]
    assert not any(a.flags.writeable for a in _arrays(rec))
    for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec), copy.copy(rec)):
        assert type(twin) is type(rec)
        arrays = _arrays(twin)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in _arrays(rec)]
        assert not any(a.flags.writeable for a in arrays)


def test_a_hand_built_records_twin_freezes_a_copy():
    # The caller's writeable array stays writeable and unshared.
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = Projector(2, m, 1)
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert not twin.matrix.flags.writeable
        assert not np.shares_memory(twin.matrix, m)
        assert twin.matrix.tobytes() == m.tobytes()
    assert p.matrix is m and m.flags.writeable


def test_an_unread_ket_projector_prints_pickles_and_copies_as_a_read_one():
    ket = [0.6, 0.8j, -0.5]
    read = projector_from_ket(ket)
    want = read.matrix
    assert repr(projector_from_ket(ket)) == repr(read) == (
        f"Projector(dim=3, matrix={want!r}, rank=1)")
    for make_twin in (lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy):
        for twin in (make_twin(projector_from_ket(ket)), make_twin(read)):
            assert type(twin) is Projector and (twin.dim, twin.rank) == (3, 1)
            assert twin.matrix.tobytes() == want.tobytes()
            assert not twin.matrix.flags.writeable
