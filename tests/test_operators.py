import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gleason_lab import operators
from gleason_lab.errors import (
    DimensionMismatch,
    GleasonLabError,
    DimensionOverflow,
    NotHermitian,
    NotIdempotent,
    NotPositive,
    UnsupportedDimension,
    ValueOutOfRange,
)
from gleason_lab.frames import BornFrameFunction, InducedFrameFunction
from gleason_lab.marginality import extend_to_composite, spanning_projectors
from gleason_lab.measurements import embed, embed_pvm, pvm_from_unitary, random_rank_partition
from gleason_lab.operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Projector,
    bloch_of_matrix,
    born_values,
    frobenius,
    haar_unitary,
    identity,
    make_density,
    make_projector,
    partial_trace_b,
    projector_from_ket,
    random_density_matrix,
    tensor,
)

from gleason_lab.tolerances import MAX_COMPOSITE_DIM, TOL

from conftest import (
    bloch_oracle,
    frobenius_oracle,
    kron_oracle,
    matmul_oracle,
    partial_trace_oracle,
    rank1_projector,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


class TestMakeProjector:
    def test_identity_has_full_rank(self):
        p = make_projector(identity(2))
        assert p.rank == 2
        assert p.dim == 2

    def test_computational_basis_rank_one(self):
        p = make_projector(np.diag([1.0, 0.0]).astype(complex))
        assert p.rank == 1

    def test_rejects_non_idempotent_with_residual(self):
        m = np.array([[0.5, 0.5], [0.5, 0.6]], dtype=complex)
        expected = frobenius_oracle(matmul_oracle(m, m) - m)
        with pytest.raises(NotIdempotent) as exc:
            make_projector(m)
        assert exc.value.residual == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_hermitian_with_residual(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitian) as exc:
            make_projector(m)
        assert exc.value.residual == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            make_projector(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("make, base", [
        (make_projector, np.diag([1.0, 0.0]).astype(complex)),
        (make_density, np.diag([0.5, 0.5]).astype(complex)),
    ], ids=["projector", "density"])
    @pytest.mark.parametrize("bad", [
        complex(math.nan, 0.0), complex(math.inf, 0.0),
        complex(0.0, math.nan), complex(0.0, math.inf),
    ], ids=["nan-real", "inf-real", "nan-imag", "inf-imag"])
    def test_non_finite_entry_rejected(self, make, base, bad):
        m = base.copy()
        m[1, 1] = bad
        with pytest.raises(ValueOutOfRange):
            make(m)

    @pytest.mark.parametrize("make, what", [(make_projector, "projector matrix"),
                                             (make_density, "density matrix")],
                             ids=["projector", "density"])
    def test_shape_finiteness_and_hermitian_errors_in_their_order(self, make, what):
        # Class, message and warnings of every shape, finiteness and
        # Hermitian failure equal those of the spelling that checks the
        # rank, then every entry, then the shape, then the residual.
        def reference(matrix):
            m = np.asarray(matrix, dtype=complex)
            if m.ndim != 2:
                raise DimensionMismatch(f"matrix must be 2-D, got shape {m.shape}")
            if not np.isfinite(m).all():
                raise ValueOutOfRange("matrix contains non-finite entries")
            if m.shape[0] != m.shape[1]:
                raise DimensionMismatch(f"{what} must be square, got {m.shape}")
            res = float(np.linalg.norm(m - m.conj().T, "fro"))
            if res > TOL.herm:
                raise NotHermitian(res)
            return "passes"

        def outcome(fn, m):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    fn(m)
                    result = "passes"
                except GleasonLabError as exc:
                    result = (type(exc).__name__, str(exc))
            return result, [str(w.message) for w in caught]

        base = np.diag([0.5, 0.5]).astype(complex)
        inputs = []
        for bad in (math.nan, math.inf, -math.inf):
            for part in (complex(bad, 0.0), complex(0.0, bad)):
                for pos in ((0, 0), (0, 1), (1, 0)):
                    m = base.copy()
                    m[pos] = part
                    inputs.append(m)
                both = base.copy()
                both[0, 1] = both[1, 0] = part
                inputs.append(both)
                inputs.append(np.full((2, 3), part))
        inputs += [np.ones(4), np.ones((2, 2, 2)), np.full(3, math.nan), np.ones((2, 3)),
                   np.array([[0.0, 1e160], [-1e160, 0.0]], dtype=complex),
                   np.array([[1e160, 3e159j], [3e159j, 1e160]], dtype=complex),
                   np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
        for m in inputs:
            got = outcome(make, m)
            assert got[0] != "passes"
            assert got == outcome(reference, m), m

    def test_random_rank_k_projectors_satisfy_invariants(self, rng):
        # rank equals the eigenvalue count near 1, checked against an
        # independent eigendecomposition.
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, d + 1))
            u = haar_unitary(d, rng)
            cols = u[:, :k]
            p = make_projector(cols @ cols.conj().T)
            m = p.matrix
            assert np.linalg.norm(m @ m - m, "fro") <= 1e-10
            assert np.linalg.norm(m - m.conj().T, "fro") <= 1e-10
            eigs = np.linalg.eigvalsh(m)
            assert int(np.sum(np.abs(eigs - 1.0) <= 1e-8)) == p.rank == k
            assert np.all((np.abs(eigs) <= 1e-8) | (np.abs(eigs - 1.0) <= 1e-8))


class TestProjectorFromKet:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("ket, unit", [
        ([1e200, 1e200], [1.0, 1.0]),     # squared norm overflows
        ([1e155, 0.0], [1.0, 0.0]),       # squared norm overflows
        ([1e-200, 1e-200], [1.0, 1.0]),   # squared norm underflows to 0
        ([1e-170j, -1e-170], [1j, -1.0]),  # underflows, complex entries
        ([1e-160, 1e-160], [1.0, 1.0]),   # squared norm is subnormal
        ([3e-155, 0.0], [1.0, 0.0]),      # squared norm is subnormal
    ], ids=["huge-pair", "huge-single", "tiny-pair", "tiny-complex", "subnormal-pair",
            "subnormal-single"])
    def test_extreme_scales_give_the_rank_one_projector(self, ket, unit):
        p = projector_from_ket(ket)
        assert p.rank == 1
        assert np.array_equal(p.matrix, projector_from_ket(unit).matrix)

    def test_ordinary_kets_are_divided_by_their_norm(self, rng):
        for dim in (2, 3, 8, 64):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            u = v / frobenius(v)
            assert np.array_equal(projector_from_ket(v).matrix, u[:, None] * u.conj()[None, :])

    @pytest.mark.parametrize("ket", [[0.0, 0.0], [0j, 0j, 0j], []])
    def test_zero_vector_rejected(self, ket):
        with pytest.raises(ValueOutOfRange):
            projector_from_ket(ket)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("ket", [
        [math.inf, 0.0], [math.nan, 1.0], [1.0, complex(0.0, math.inf)],
        [complex(0.0, math.nan), 0.0], [1e200, math.nan], [1e-200, -math.inf],
        [math.inf, math.nan], [0.0, 0.0, math.nan],
    ])
    def test_non_finite_ket_rejected(self, ket):
        with pytest.raises(ValueOutOfRange):
            projector_from_ket(ket)

    def test_ket_beyond_the_composite_cap_is_refused(self):
        with pytest.raises(DimensionOverflow):
            projector_from_ket(np.ones(MAX_COMPOSITE_DIM + 1))

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 64),
        exponent=st.floats(-150.0, 150.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ket_gates_agree_with_make_projector(self, dim, exponent, seed):
        # The idempotency residual read from the trace, |t - 1| * t, is
        # within the documented (2d + 4) * 2^-52 of the residual that
        # make_projector computes on the stored matrix, and make_projector
        # accepts that matrix with the same rank.
        rng = np.random.default_rng(seed)
        ket = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * 10.0**exponent
        p = projector_from_ket(ket)
        m = p.matrix
        again = make_projector(m)
        assert p.rank == again.rank == 1
        assert np.array_equal(again.matrix, m)
        t = float(m.trace().real)
        derived = abs(t - 1.0) * t
        assert abs(derived - frobenius(m @ m - m)) <= (2 * dim + 4) * 2.0**-52

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 64),
        exponent=st.floats(-200.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hermitian_stand_in_bounds_the_computed_residual(self, dim, exponent, seed):
        # The Hermitian gate reads 8u * Tr m; the residual computed on the
        # stored matrix never exceeds it, and it stays below TOL.herm.
        # Exponents beyond about +-154 take the rescale path. The matrix
        # and rank are the bits of the spelling that gated the matrix.
        rng = np.random.default_rng(seed)
        ket = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * 10.0**exponent
        p = projector_from_ket(ket)
        m = p.matrix
        trace = float(m.trace().real)
        assert frobenius(m - m.conj().T) <= 8 * 2.0**-53 * trace <= TOL.herm
        expected = projector_from_ket_reference(ket)
        assert (p.matrix.tobytes(), p.rank) == (expected.matrix.tobytes(), expected.rank)


def _gates_reference(m):
    """The projector gates as spelled with a residual callback: the
    Hermitian residual, then idempotency, then rank."""
    tol = operators.TOL
    d = m.shape[0]
    trace = float(m.trace().real)
    herm = frobenius(m - m.conj().T)
    if herm > tol.herm:
        raise NotHermitian(herm)
    res_p = frobenius(m @ m - m)
    if res_p > tol.proj:
        raise NotIdempotent(res_p)
    rank = int(round(trace))
    if not 0 <= rank <= d or abs(trace - rank) > d * tol.eig:
        raise NotIdempotent(res_p)
    return rank


def _gate_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (NotHermitian, NotIdempotent) as exc:
        return (type(exc).__name__, exc.residual)


# Tolerances settings that close or open each projector gate in turn.
TOL_SETTINGS = [
    {}, {"herm": 0.0}, {"proj": 0.0}, {"eig": 0.0}, {"proj": 0.0, "eig": 0.0},
    {"herm": 0.0, "proj": 0.0, "eig": 0.0}, {"herm": 1.0, "proj": 1.0},
]


@pytest.mark.parametrize("changes", TOL_SETTINGS, ids=lambda c: "-".join(c) or "default")
def test_projector_gates_keep_their_order_and_figures(rng, monkeypatch, changes):
    monkeypatch.setattr(operators, "TOL", dataclasses.replace(TOL, **changes))
    matrices = [np.diag([0.5, 0.5]).astype(complex), np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
    kets = [[1.0, 1.0, 1.0], [0.6, 0.8j]]
    for d in range(1, 9):
        ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kets.append(ket)
        p = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        matrices += [p, p + 1e-13 * noise, p + 1e-9 * (noise + noise.conj().T)]
    for m in matrices:
        assert _gate_outcome(lambda: make_projector(m).rank) == _gate_outcome(_gates_reference, m)
    # projector_from_ket reads no tolerance: its outcome is the gate
    # chain's under the shipped table, whatever operators.TOL holds.
    for ket in kets:
        assert _ket_outcome(projector_from_ket, ket) == _ket_outcome(_projector_from_ket_chain, ket)


def projector_from_ket_reference(ket):
    """projector_from_ket as it was spelled before its Hermitian gate was
    read from the ket: the residual computed on the built matrix, and a
    defensive copy of it."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    n = frobenius(v)
    if n < 2.0**-511 or n == math.inf:
        x = np.ascontiguousarray(v).view(np.float64)
        s = float(np.abs(x).max(initial=0.0))
        if 0.0 < s < math.inf:
            v = (x / s).view(complex)
            n = frobenius(v)
    v = v / n
    m = v[:, None] * v.conj()[None, :]
    res = frobenius(m - m.conj().T)
    if res > TOL.herm:
        raise NotHermitian(res)
    trace = float(m.trace().real)
    res_p = abs(trace - 1.0) * trace
    if res_p > TOL.proj:
        raise NotIdempotent(res_p)
    return operators.Projector(dim=len(v), matrix=operators.frozen_matrix(m), rank=round(trace))


def _projector_from_ket_chain(ket):
    """projector_from_ket as spelled before its bound decided the gates:
    the trace of the built matrix, the 8u * t Hermitian gate, then the
    idempotency and rank gates on t, every time, under the shipped TOL
    (not operators.TOL, which tests replace)."""
    tol = TOL
    v = np.asarray(ket, dtype=complex).reshape(-1)
    n = frobenius(v)
    if n < 2.0**-511 or n == math.inf:
        x = np.ascontiguousarray(v).view(np.float64)
        s = float(np.abs(x).max(initial=0.0))
        if 0.0 < s < math.inf:
            v = (x / s).view(complex)
            n = frobenius(v)
    if n == 0:
        raise ValueOutOfRange("cannot project onto the zero vector")
    if not n < math.inf:
        raise ValueOutOfRange("matrix contains non-finite entries")
    v = v / n
    m = v[:, None] * v.conj()[None, :]
    m.setflags(write=False)
    d = m.shape[0]
    t = float(m.trace().real)
    herm = 8 * 2**-53 * t
    if herm > tol.herm:
        raise NotHermitian(herm)
    res_p = abs(t - 1.0) * t
    if res_p > tol.proj:
        raise NotIdempotent(res_p)
    rank = int(round(t))
    if not 0 <= rank <= d or abs(t - rank) > d * tol.eig:
        raise NotIdempotent(res_p)
    return operators.Projector(d, m, rank)


def _ket_outcome(fn, ket):
    try:
        with np.errstate(all="ignore"):
            p = fn(ket)
    except GleasonLabError as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", p.matrix.tobytes(), p.rank, p.dim, p.matrix.flags.writeable)


def _ket_bound(d, tol):
    """The bound B on |t - 1| and whether it decides every gate."""
    bound = 8 * (d + 4) * 2.0**-53
    fast = (8 * 2.0**-53 * (1 + bound) <= tol.herm and bound * (1 + bound) <= tol.proj
            and bound <= min(0.25, d * tol.eig))
    return bound, fast


class TestKetGate:
    # projector_from_ket decides its gates from one bound on |Tr m - 1|,
    # which the shipped table passes for every ket length up to
    # MAX_COMPOSITE_DIM; it reads no tolerance, and its outcome is the
    # gate chain's under the shipped table.

    def test_the_shipped_tolerances_meet_the_bounds_premises(self):
        # Editing tolerances.py past the proof in projector_from_ket's
        # docstring fails here.
        for d in range(1, MAX_COMPOSITE_DIM + 1):
            assert _ket_bound(d, TOL)[1], d

    def test_the_default_tolerances_run_no_gate(self, rng, monkeypatch):
        class Unreadable:
            # Holds no attribute, so reading any tolerance raises.
            def __getattr__(self, name):
                raise AssertionError(f"projector_from_ket read TOL.{name}")

        monkeypatch.setattr(operators, "TOL", Unreadable())
        for d in (1, 2, 3, 8, 64):
            ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            assert _ket_outcome(projector_from_ket, ket) == _ket_outcome(
                _projector_from_ket_chain, ket)

    def test_a_zero_idempotency_tolerance_changes_nothing(self, rng, monkeypatch):
        kets = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (1, 2, 3, 8)]
        expected = [_ket_outcome(projector_from_ket, ket) for ket in kets]
        monkeypatch.setattr(operators, "TOL", dataclasses.replace(TOL, proj=0.0))
        for ket, outcome in zip(kets, expected):
            assert _ket_outcome(projector_from_ket, ket) == outcome
            assert outcome == _ket_outcome(_projector_from_ket_chain, ket)

    @pytest.mark.parametrize("changes", TOL_SETTINGS, ids=lambda c: "-".join(c) or "default")
    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 64),
        kind=st.sampled_from(["plain", "scaled", "mixed"]),
        exponent=st.floats(-320.0, 305.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outcome_is_the_gate_chains_and_its_figures_stay_below_the_bound(
        self, changes, d, kind, exponent, seed
    ):
        # "scaled" reaches both rescale branches (a squared norm that
        # overflows or underflows), "mixed" puts entries near or below
        # the subnormal range beside ordinary ones.
        rng = np.random.default_rng(seed)
        ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        with np.errstate(all="ignore"):
            if kind == "scaled":
                ket = ket * 10.0**exponent
            elif kind == "mixed":
                tiny = rng.random(d) < 0.5
                ket[tiny] *= 10.0 ** rng.uniform(-320.0, -150.0, int(tiny.sum()))
                ket = ket * 10.0 ** (exponent / 2)
        expected = _ket_outcome(_projector_from_ket_chain, ket)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "TOL", dataclasses.replace(TOL, **changes))
            assert _ket_outcome(projector_from_ket, ket) == expected
        if expected[0] != "ok":
            return
        # Every figure the gate chain computes is within the bound.
        bound, _ = _ket_bound(d, TOL)
        assert expected[2] == 1
        with np.errstate(all="ignore"):
            m = _projector_from_ket_chain(ket).matrix
        t = float(m.trace().real)
        assert abs(t - 1.0) <= bound
        assert abs(t - 1.0) * t <= bound
        assert 8 * 2**-53 * t <= bound


def _per_ket_matrix(ket):
    """A ket projector's matrix as spelled when projector_from_ket
    formed it per ket: rescale, w = v / n and w w-dagger, frozen."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):
        n = frobenius(v)
    if n < 2.0**-511 or n == math.inf:
        x = np.ascontiguousarray(v).view(np.float64)
        s = float(np.abs(x).max(initial=0.0))
        if 0.0 < s < math.inf:
            v = (x / s).view(complex)
            n = frobenius(v)
    v = v / n
    m = v[:, None] * v.conj()[None, :]
    m.setflags(write=False)
    return m


class TestKetProjectorStack:
    # projector_from_ket runs every gate but forms no matrix; the matrix
    # is formed on first read, or for a whole list by projector_stack in
    # one broadcast, with the per-ket spelling's bytes either way.

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 64),
        n=st.integers(1, 20),
        exponents=st.lists(st.floats(-300.0, 300.0), min_size=20, max_size=20),
        layout=st.lists(st.sampled_from(["lazy", "read-before", "make_projector"]),
                        min_size=20, max_size=20),
        mixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_stack_has_the_per_ket_bytes(self, d, n, exponents, layout, mixed, seed):
        # Exponents beyond about +-154 take a rescale branch. A list of
        # unread ket projectors is formed in one broadcast; a mixed list,
        # with a read or a make_projector row, is stacked from the matrices.
        rng = np.random.default_rng(seed)
        kets = [(rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 10.0**e
                for e in exponents[:n]]
        layout = layout[:n] if mixed else ["lazy"] * n
        want = [_per_ket_matrix(k) for k in kets]
        projectors = []
        for ket, m, how in zip(kets, want, layout):
            p = make_projector(m) if how == "make_projector" else projector_from_ket(ket)
            if how == "read-before":
                assert p.matrix.tobytes() == m.tobytes()
            projectors.append(p)
        stack = operators.projector_stack(projectors, d)
        assert stack.shape == (n, d, d) and stack.dtype == complex
        assert not stack.flags.writeable and stack.flags.c_contiguous
        assert stack.tobytes() == np.array(want).tobytes()
        assert [p.matrix.tobytes() for p in projectors] == [m.tobytes() for m in want]
        assert [p.rank for p in projectors] == [1] * n

    def test_the_batch_runs_only_on_unread_ket_projectors(self, rng):
        kets = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
        unread = [projector_from_ket(k) for k in kets]
        operators.projector_stack(unread, 4)
        assert all(p._matrix is None for p in unread)
        read = [projector_from_ket(k) for k in kets]
        read[1].matrix
        operators.projector_stack(read, 4)
        assert all(p._matrix is not None for p in read)

    @pytest.mark.parametrize("take", ["complex", "column", "real"])
    def test_the_callers_ket_is_copied(self, rng, take):
        # Mutating the caller's ket after the call changes neither the
        # projector nor a stack of it, read first or batched.
        u = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        ket = {"complex": u[0].copy(), "column": u[:, 1], "real": u[2].real.copy()}[take]
        want = _per_ket_matrix(ket.copy())
        single, batched = projector_from_ket(ket), projector_from_ket(ket)
        ket *= 3.0 - 2.0j if take != "real" else -3.0
        ket[0] = 0.0
        assert single.matrix.tobytes() == want.tobytes()
        assert operators.projector_stack([batched, batched], len(want)).tobytes() == (
            np.array([want, want]).tobytes())
        assert not np.shares_memory(single._ket, u)

    def test_the_matrix_is_formed_once_and_frozen(self, rng):
        kets = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4)]
        single = projector_from_ket(kets[0])
        assert single._matrix is None
        batched = [projector_from_ket(k) for k in kets]
        operators.projector_stack(batched, 3)
        assert all(p._matrix is None for p in batched)
        for p in (single, *batched):
            m = p.matrix
            assert not m.flags.writeable and m.flags.c_contiguous
            assert p.matrix is m and p._matrix is m

    def test_a_projector_built_directly_keeps_its_matrix(self):
        m = np.diag([1.0, 0.0])
        p = operators.Projector(2, m, 1)
        assert p.matrix is m and m.flags.writeable
        assert operators.projector_stack([p], 2).tobytes() == m.astype(complex).tobytes()


def _ket_reference(ket):
    """projector_from_ket's outcome as the per-ket spelling gives it: the
    gate chain's error, or the rank-1 projector's matrix bytes."""
    try:
        with np.errstate(all="ignore"):
            _projector_from_ket_chain(ket)
            return ("ok", _per_ket_matrix(ket).tobytes())
    except GleasonLabError as exc:
        return (type(exc).__name__, str(exc))


def _hypot(ket):
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return math.hypot(*v.view(np.float64).tolist())


def _kets_near(edge, d, rng):
    """Kets of length d whose hypot lies within a few ulps of edge, on
    both sides: real, complex and one-entry kets, scaled by 1 + j 2^-52."""
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    shapes = [np.ones(d, dtype=complex), g, np.eye(1, d, d - 1)[0].astype(complex)]
    kets = []
    for shape in shapes:
        base = shape / _hypot(shape) * edge
        kets += [base * (1.0 + j * 2.0**-52) for j in range(-6, 7)]
    return kets


class TestHypotGate:
    # projector_from_ket decides its branch from math.hypot of the ket's
    # components and takes no norm when 2^-510 <= h <= 2^510; every
    # outcome, error or matrix, is the per-ket spelling's.

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edge", [2.0**-510, 2.0**510], ids=["tiny", "huge"])
    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_kets_either_side_of_an_edge_are_the_per_ket_outcome(self, rng, edge, d):
        kets = _kets_near(edge, d, rng)
        sides = {np.sign(_hypot(k) - edge) for k in kets}
        assert {-1.0, 1.0} <= sides
        for ket in kets:
            p = projector_from_ket(ket)
            assert ("ok", p.matrix.tobytes()) == _ket_reference(ket)
            assert p.rank == 1 and p.dim == d
        stack = operators.projector_stack([projector_from_ket(k) for k in kets], d)
        assert stack.tobytes() == np.array([_per_ket_matrix(k) for k in kets]).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ket", [
        [5e-324], [5e-324, 5e-324j], [1e-310, 1.0], [1e-310, -2e-320j, 3e-155],
        [2.0**-1022, 2.0**-1060j] * 4, [1e-300] * 64, [1e-320, 1e-154, 1e154],
    ], ids=["one-subnormal", "two-subnormal", "subnormal-beside-one", "subnormal-and-tiny",
            "normal-edge", "tiny-64", "wide-range"])
    def test_subnormal_entries_are_the_per_ket_outcome(self, ket):
        p = projector_from_ket(ket)
        assert ("ok", p.matrix.tobytes()) == _ket_reference(ket)
        stack = operators.projector_stack([projector_from_ket(ket)] * 3, len(ket))
        assert stack.tobytes() == np.array([_per_ket_matrix(ket)] * 3).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ket", [
        [], [0.0], [0j] * 64, [math.nan], [math.inf], [-math.inf, 1.0],
        [complex(0.0, math.nan), 1.0], [complex(0.0, -math.inf), math.nan],
        [1e300, math.nan], [1e-300, math.inf], [5e-324, math.nan], [math.nan] * 64,
        [1e308, 1e308, -1e308j],
    ], ids=["empty", "zero", "zero-64", "nan", "inf", "minus-inf", "nan-imag",
            "inf-and-nan", "huge-and-nan", "tiny-and-inf", "subnormal-and-nan", "nan-64",
            "finite-with-an-infinite-norm"])
    def test_special_kets_take_the_per_ket_outcome(self, ket):
        def outcome():
            try:
                return ("ok", projector_from_ket(ket).matrix.tobytes())
            except GleasonLabError as exc:
                return (type(exc).__name__, str(exc))

        assert outcome() == _ket_reference(ket)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ket", [[1e300, 1e300j], [1e200, 1.0]])
    def test_a_huge_finite_ket_gives_its_projector_without_a_warning(self, ket):
        p = projector_from_ket(ket)
        assert ("ok", p.matrix.tobytes()) == _ket_reference(ket)
        assert p.rank == 1

    def test_plain_kets_take_no_norm_until_a_matrix_is_read(self, rng, monkeypatch):
        norms = []
        monkeypatch.setattr(operators, "frobenius", lambda x: norms.append(x) or frobenius(x))
        for d in (1, 2, 8, 64):
            kets = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(20)]
            projectors = [projector_from_ket(k) for k in kets]
            stack = operators.projector_stack(projectors, d)
            assert norms == []
            assert stack.tobytes() == np.array([_per_ket_matrix(k) for k in kets]).tobytes()
            assert projectors[0].matrix.tobytes() == stack[0].tobytes()
            assert len(norms) == 1 and norms[0] is projectors[0]._ket
            norms.clear()


def _error_of(fn, *args):
    with pytest.raises(GleasonLabError) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestInputNumpyCannotRead:
    # An input that numpy cannot read as complex ends as a library error:
    # DimensionMismatch when ragged, ValueOutOfRange otherwise.

    @pytest.mark.parametrize("ket, error", [
        ([1, [2, 3]], (DimensionMismatch, "ket is ragged")),
        ([[1, 2], [3]], (DimensionMismatch, "ket is ragged")),
        ("ab", (ValueOutOfRange, "ket holds a value that is not a number")),
        ([object(), 1], (ValueOutOfRange, "ket holds a value that is not a number")),
        ({1: 2}, (ValueOutOfRange, "ket holds a value that is not a number")),
        ([10**400, 1], (ValueOutOfRange, "ket holds a value that is not a number")),
    ], ids=["ragged", "ragged-rows", "malformed-string", "object", "dict", "int-beyond-float"])
    def test_a_ket(self, ket, error):
        assert _error_of(projector_from_ket, ket) == error

    @pytest.mark.parametrize("matrix, error", [
        ([[1, 0], [0]], (DimensionMismatch, "{} is ragged")),
        ([[1, [0, 1]], [0, 1]], (DimensionMismatch, "{} is ragged")),
        ([["a", "b"], ["c", "d"]], (ValueOutOfRange, "{} holds a value that is not a number")),
        ([[object(), 0], [0, 1]], (ValueOutOfRange, "{} holds a value that is not a number")),
        ([[10**400, 0], [0, 1]], (ValueOutOfRange, "{} holds a value that is not a number")),
    ], ids=["ragged", "ragged-entry", "malformed-string", "object", "int-beyond-float"])
    @pytest.mark.parametrize("make, name", [
        (make_projector, "matrix"),
        (make_density, "matrix"),
        (lambda m: tensor(m, np.eye(2)), "tensor operand a"),
        (lambda m: tensor(np.eye(2), m), "tensor operand b"),
    ], ids=["make_projector", "make_density", "tensor-a", "tensor-b"])
    def test_a_matrix(self, matrix, error, make, name):
        assert _error_of(make, matrix) == (error[0], error[1].format(name))


class TestFrobenius:
    # frobenius sums what np.linalg.norm sums, in the same order, so the
    # two agree bit for bit.
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (8, 8), (64, 64)])
    def test_equals_numpy_norm_on_matrices(self, rng, shape):
        for _ in range(20):
            real = rng.standard_normal(shape)
            cplx = real + 1j * rng.standard_normal(shape)
            for m in (real, cplx, real.T, cplx.T, cplx.conj().T):
                assert frobenius(m) == float(np.linalg.norm(m, "fro"))

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_equals_numpy_norm_on_kets(self, rng, dim):
        for _ in range(20):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert frobenius(v) == float(np.linalg.norm(v))
            assert frobenius(v.real) == float(np.linalg.norm(v.real))


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(identity(2), identity(2)), identity(4))

    def test_basis_projector_with_identity(self):
        p0 = np.outer(KET0, KET0.conj())
        assert np.array_equal(tensor(p0, identity(2)), np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))

    def test_matches_index_summation_oracle(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(tensor(a, b), kron_oracle(a, b), atol=1e-14, rtol=0)

    def test_mixed_product_property(self, rng):
        for _ in range(20):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            lhs = matmul_oracle(kron_oracle(a, b), kron_oracle(c, d))
            rhs = kron_oracle(matmul_oracle(a, c), matmul_oracle(b, d))
            assert np.allclose(tensor(a, b) @ tensor(c, d), lhs, atol=1e-12)
            assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((2, 2), (2, 2)), ((3, 3), (2, 2)), ((8, 8), (8, 8)), ((2, 3), (4, 1)),
        ((1, 4), (3, 2)), ((1, 8), (1, 8)), ((8, 1), (8, 1)), ((1, 5), (6, 1)),
        ((1, 1), (7, 7)),
    ])
    def test_equals_kron_and_oracle(self, rng, shape_a, shape_b):
        # Real-valued entries make every product one rounding, so all
        # three agree bit for bit. With complex entries tensor and np.kron
        # still agree bit for bit, but the oracle's scalar complex multiply
        # can round ac - bd differently from numpy's array loop by an ulp.
        a_re, b_re = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        out = tensor(a_re, b_re)
        assert out.dtype == complex and out.flags.c_contiguous
        assert np.array_equal(out, np.kron(a_re, b_re))
        assert np.array_equal(out, kron_oracle(a_re, b_re))
        a = a_re + 1j * rng.standard_normal(shape_a)
        b = b_re + 1j * rng.standard_normal(shape_b)
        out = tensor(a, b)
        assert np.array_equal(out, np.kron(a, b))
        scale = np.kron(np.abs(a), np.abs(b))
        assert np.all(np.abs(out - kron_oracle(a, b)) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((8, 8), (16, 16)), ((1, 65), (1, 1)), ((65, 1), (1, 1)), ((1, 8), (8, 9)),
    ])
    def test_dimension_cap(self, shape_a, shape_b):
        with pytest.raises(DimensionOverflow):
            tensor(np.ones(shape_a), np.ones(shape_b))

    def test_dimension_cap_is_inclusive(self):
        assert tensor(np.ones((1, 8)), np.ones((8, 8))).shape == (8, 64)


class TestPartialTrace:
    def test_product_state_recovers_first_factor(self, rng):
        for _ in range(20):
            rho_a = random_density_matrix(2, rng)
            rho_b = random_density_matrix(3, rng)
            joint = make_density(tensor(rho_a.matrix, rho_b.matrix))
            reduced = partial_trace_b(joint, 2, 3)
            assert np.allclose(reduced.matrix, rho_a.matrix, atol=1e-12)

    def test_maximally_entangled_state_reduces_to_mixed(self):
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / math.sqrt(2)
        rho = make_density(np.outer(bell, bell.conj()))
        reduced = partial_trace_b(rho, 2, 2)
        assert np.allclose(reduced.matrix, identity(2) / 2, atol=1e-12)

    def test_matches_explicit_summation_oracle(self, rng):
        for _ in range(20):
            rho = random_density_matrix(6, rng)
            reduced = partial_trace_b(rho, 2, 3)
            assert np.allclose(reduced.matrix, partial_trace_oracle(rho.matrix, 2, 3), atol=0)

    def test_trace_preserving_and_positive(self, rng):
        for _ in range(50):
            rho = random_density_matrix(6, rng)
            reduced = partial_trace_b(rho, 2, 3)
            assert abs(np.trace(rho.matrix) - np.trace(reduced.matrix)) <= 1e-12
            assert np.linalg.eigvalsh(reduced.matrix)[0] >= -1e-9

    def test_embedding_trace_identity(self, rng):
        # Tr[(P x I) rho] and Tr[P Tr_B rho] computed along separate routes.
        for _ in range(100):
            p = rank1_projector(2, rng)
            rho = random_density_matrix(6, rng)
            full = np.trace(np.kron(p.matrix, identity(3)) @ rho.matrix).real
            reduced = np.trace(p.matrix @ partial_trace_b(rho, 2, 3).matrix).real
            assert abs(full - reduced) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            partial_trace_b(random_density_matrix(6, rng), 2, 2)


class TestBornProbability:
    def test_eigenstate(self):
        p = make_projector(np.outer(KET0, KET0.conj()))
        rho = make_density(np.outer(KET0, KET0.conj()))
        assert born_values(p.matrix[None], rho)[0] == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        p = make_projector(np.outer(KET0, KET0.conj()))
        rho = make_density(identity(2) / 2)
        assert born_values(p.matrix[None], rho)[0] == pytest.approx(0.5, abs=1e-15)

    def test_plus_state_against_explicit_trace(self):
        p = make_projector(np.outer(KET_PLUS, KET_PLUS.conj()))
        rho = make_density(np.outer(KET0, KET0.conj()))
        product = matmul_oracle(p.matrix, rho.matrix)
        expected = sum(product[i, i] for i in range(2)).real
        assert expected == pytest.approx(0.5, abs=1e-15)
        assert born_values(p.matrix[None], rho)[0] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            born_values(rank1_projector(2, rng).matrix[None], random_density_matrix(3, rng))

    def test_range_on_random_inputs(self, rng):
        for _ in range(100):
            value = born_values(rank1_projector(3, rng).matrix[None], random_density_matrix(3, rng))[0]
            assert 0.0 <= value <= 1.0

    def test_round_off_beyond_the_range_is_clamped(self):
        # Unvalidated, so its Born values overshoot [0, 1] by less than TOL.prob.
        rho = DensityMatrix(dim=2, matrix=np.diag([1.0 + 1e-10, -1e-10]).astype(complex))
        p0 = make_projector(np.outer(KET0, KET0.conj()))
        p1 = make_projector(identity(2) - p0.matrix)
        stack = np.stack([p0.matrix, p1.matrix])
        assert list(born_values(stack, rho)) == [1.0, 0.0]
        assert (born_values(p0.matrix[None], rho)[0], born_values(p1.matrix[None], rho)[0]) == (1.0, 0.0)


def born_values_reference(stack, rho):
    """born_values in its plain numpy spelling: np.max over the imaginary
    residual, the full range mask, then np.clip on every call."""
    d = rho.dim
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise DimensionMismatch(f"projectors of shape {stack.shape[1:]} != state dim {d}")
    t = stack.reshape(len(stack), d * d) @ rho.matrix.T.reshape(d * d)
    imag = float(np.max(np.abs(t.imag), initial=0.0))
    if imag > TOL.herm:
        raise ValueOutOfRange(f"Born trace has imaginary residual {imag:.3e}")
    vals = t.real
    bad = ~((vals >= -TOL.prob) & (vals <= 1.0 + TOL.prob))
    if bad.any():
        raise ValueOutOfRange(f"Born value {vals[bad][0]} outside [0, 1] beyond tolerance")
    return np.clip(vals, 0.0, 1.0)


def born_outcome(fn, stack, rho):
    """What a call returns, as bytes, dtype and shape, or the error it raises."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            out = fn(stack, rho)
    except GleasonLabError as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


# Offsets of the state's diagonal around [0, 1]: exact, inside TOL.prob
# (clamped), at its edge and beyond it (refused).
_PROB_OFFSETS = st.sampled_from(
    [0.0, -0.0, 1e-12, 5e-10, 1e-9, 1.0000001e-9, 2e-9, 1e-6, 0.25]
) | st.floats(0.0, 3e-9)


@st.composite
def born_cases(draw):
    """A (stack, rho) pair for born_values: n = 0..64 matrices of size
    d = 1..8, each either a ket projector, a basis projector or a raw
    complex matrix; a validated state or an unvalidated one whose values
    overshoot [0, 1] or carry an imaginary residual; and optionally one
    non-finite or signed-zero entry written into the stack."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["kets", "basis", "raw"]))
    if kind == "kets":
        kets = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        stack = kets[:, :, None] * kets.conj()[:, None, :]
    elif kind == "basis":
        stack = np.zeros((n, d, d), dtype=complex)
        stack[np.arange(n), np.arange(n) % d, np.arange(n) % d] = 1.0
    else:
        scale = draw(st.sampled_from([1e-12, 0.1, 1.0, 10.0]))
        stack = scale * (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    state = draw(st.sampled_from(["valid", "diagonal", "anti_hermitian"]))
    if state == "valid":
        rho = random_density_matrix(d, rng)
    else:
        diag = np.zeros(d)
        diag[0] = 1.0 + draw(_PROB_OFFSETS)
        if d > 1:
            diag[1] = -draw(_PROB_OFFSETS)
        m = np.diag(diag).astype(complex)
        if state == "anti_hermitian":
            # i * eps * I adds i * eps * Tr P to every value.
            m = m + 1j * draw(st.sampled_from([1e-12, 1e-10, 2e-10, 1e-6])) * np.eye(d)
        rho = DensityMatrix(dim=d, matrix=m)
    special = draw(st.sampled_from([None, math.nan, math.inf, -math.inf, -0.0, 1j * math.nan]))
    if special is not None and n:
        stack[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = special
    return stack, rho, special


class TestBornValuesExactly:
    @settings(max_examples=400, deadline=None)
    @given(born_cases())
    def test_same_bits_and_errors_as_the_plain_spelling(self, case):
        stack, rho, special = case
        got = born_outcome(born_values, stack, rho)
        assert got == born_outcome(born_values_reference, stack, rho)
        if special is not None and len(stack) and not np.isfinite(special):
            assert got[0] is ValueOutOfRange

    def test_round_off_takes_the_clip_path(self):
        rho = DensityMatrix(dim=3, matrix=np.diag([1.0 + 5e-10, -5e-10, 0.0]).astype(complex))
        stack = np.eye(3, dtype=complex)[:, :, None] * np.eye(3)[:, None, :]
        out = born_values(stack, rho)
        assert out.tobytes() == born_values_reference(stack, rho).tobytes()
        assert list(out) == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("offset", [1.0000001e-9, 1e-6])
    def test_the_first_offender_is_named(self, offset):
        rho = DensityMatrix(dim=2, matrix=np.diag([1.0 + offset, -offset]).astype(complex))
        p0 = np.diag([1.0, 0.0]).astype(complex)
        stack = np.stack([identity(2) / 2, p0 * 0, identity(2) - p0, p0])
        for fn in (born_values, born_values_reference):
            with pytest.raises(ValueOutOfRange, match=rf"Born value {-offset} outside"):
                fn(stack, rho)

    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise(self, special):
        rho = make_density(identity(2) / 2)
        stack = np.stack([identity(2) / 2, np.full((2, 2), special, dtype=complex)])
        with pytest.raises(ValueOutOfRange), np.errstate(invalid="ignore"):
            born_values(stack, rho)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0), max_size=64))
    def test_in_range_copy_is_the_clip_bit_for_bit(self, reals):
        # The copy born_values returns when no value needs clamping is the
        # array np.clip would return, -0.0 included.
        t = np.array(reals, dtype=float) + 0j
        assert t.real.copy().tobytes() == np.clip(t.real, 0.0, 1.0).tobytes()


class TestBloch:
    def test_center_is_maximally_mixed(self):
        assert bloch_of_matrix(identity(2) / 2) == (0.0, 0.0, 0.0)

    def test_north_pole(self):
        assert bloch_of_matrix(np.outer(KET0, KET0.conj())) == (0.0, 0.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-1, 1, allow_nan=False),
        y=st.floats(-1, 1, allow_nan=False),
        z=st.floats(-1, 1, allow_nan=False),
    )
    def test_round_trip(self, x, y, z):
        assume(x * x + y * y + z * z <= 1.0)
        m = 0.5 * (identity(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
        bx, by, bz = bloch_of_matrix(make_density(m).matrix)
        assert abs(bx - x) <= 1e-12
        assert abs(by - y) <= 1e-12
        assert abs(bz - z) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
    def test_the_entry_reading_is_the_trace_spelling_bit_for_bit(self, scale):
        # Random complex and Hermitian matrices; tobytes tells -0.0 from 0.0.
        rng = np.random.default_rng(27)
        for _ in range(300):
            g = scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for m in (g, 0.5 * (g + g.conj().T)):
                got = bloch_of_matrix(m)
                assert type(got) is tuple and all(type(c) is float for c in got)
                assert np.array(got).tobytes() == np.array(bloch_oracle(m)).tobytes()

    def test_the_gates(self):
        with pytest.raises(DimensionMismatch):
            bloch_of_matrix(identity(3))
        with pytest.raises(ValueOutOfRange):
            bloch_of_matrix([[0, float("nan")], [0, 0]])
        with pytest.raises(ValueOutOfRange), np.errstate(over="ignore"):   # x overflows
            bloch_of_matrix([[0, 1e308], [1e308, 0]])
        assert bloch_of_matrix([[1e308, 1e308], [0, 0]]) == (1e308, 0.0, 1e308)


class TestRandomUnitary:
    def test_unitarity(self):
        for dim, seed in ((2, 1), (3, 99), (4, 2**40)):
            u = haar_unitary(dim, np.random.default_rng(seed))
            assert np.linalg.norm(u.conj().T @ u - identity(dim), "fro") <= 1e-12

    def test_deterministic_for_fixed_seed(self):
        assert np.array_equal(
            haar_unitary(4, np.random.default_rng(1234)),
            haar_unitary(4, np.random.default_rng(1234)),
        )
        assert not np.array_equal(
            haar_unitary(4, np.random.default_rng(1234)),
            haar_unitary(4, np.random.default_rng(1235)),
        )

    def test_dim_one_is_a_phase(self):
        u = haar_unitary(1, np.random.default_rng(5))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_gram_matrix_of_columns(self):
        u = haar_unitary(4, np.random.default_rng(77))
        gram = u.conj().T @ u
        off_diag = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diag)) <= 1e-12

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueOutOfRange):
            haar_unitary(0, np.random.default_rng(1))


class TestMinEigenvalue:
    def test_identity(self):
        assert DensityMatrix(dim=2, matrix=identity(2)).spectrum[0] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert DensityMatrix(dim=2, matrix=np.diag([1.0, -0.25]).astype(complex)).spectrum[0] == pytest.approx(-0.25, abs=1e-12)

    def test_definite_x_and_z_reconstruction(self):
        # Eigenvalues of (I + sigma_x + sigma_z)/2 are (1 +- sqrt(2))/2.
        m = 0.5 * (identity(2) + PAULI_X + PAULI_Z)
        expected = (1.0 - math.sqrt(2)) / 2.0
        assert DensityMatrix(dim=2, matrix=m).spectrum[0] == pytest.approx(expected, abs=1e-12)


STATE4 = random_density_matrix(4, np.random.default_rng(4))
QUBIT_PVM = pvm_from_unitary(identity(2), [1, 1])

# Every public call that takes a dimension, as a function of that one
# dimension; the others are fixed at 2.
DIMENSION_CALLS = {
    "haar_unitary": lambda d: haar_unitary(d, np.random.default_rng(1)),
    "random_density_matrix": lambda d: random_density_matrix(d, np.random.default_rng(1)),
    "partial_trace_b dim_a": lambda d: partial_trace_b(STATE4, d, 2),
    "partial_trace_b dim_b": lambda d: partial_trace_b(STATE4, 2, d),
    "embed": lambda d: embed(QUBIT_PVM.stack, d),
    "embed_pvm": lambda d: embed_pvm(QUBIT_PVM, d),
    "InducedFrameFunction dim_a": lambda d: InducedFrameFunction(BornFrameFunction(STATE4), d, 2),
    "InducedFrameFunction dim_b": lambda d: InducedFrameFunction(BornFrameFunction(STATE4), 2, d),
    "random_rank_partition": lambda d: random_rank_partition(d, np.random.default_rng(1)),
}


@pytest.mark.parametrize("dim", [2.0, True, "2", 2.5], ids=repr)
@pytest.mark.parametrize("call", DIMENSION_CALLS)
def test_a_dimension_is_an_integer_at_every_boundary(call, dim):
    with pytest.raises(UnsupportedDimension):
        DIMENSION_CALLS[call](dim)


@pytest.mark.parametrize("call", DIMENSION_CALLS)
def test_a_numpy_integer_dimension_is_read_as_an_int(call):
    # repr tells np.int64(2) from 2, in a record's dim and in a PVM's ranks.
    got, want = DIMENSION_CALLS[call](np.int64(2)), DIMENSION_CALLS[call](2)
    assert repr(got) == repr(want)
    if isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", range(1, 65))
def test_identity_is_one_frozen_array_per_dimension(dim):
    eye = identity(dim)
    assert identity(dim) is eye
    assert eye.dtype == complex
    assert np.array_equal(eye, np.eye(dim))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0


def test_validated_matrices_are_read_only(rng):
    p = rank1_projector(3, rng)
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 0.0


def test_built_arrays_are_frozen_and_contiguous(rng):
    rho = random_density_matrix(6, rng)
    spanning = [spanning_projectors(d) for d in (2, 3)]
    built = [
        projector_from_ket(rng.standard_normal(3)).matrix,
        rho.spectrum,
        partial_trace_b(rho, 2, 3).matrix,
        operators.projector_stack([rank1_projector(3, rng) for _ in range(4)], 3),
        operators.projector_stack([], 3),
        identity(1),
        identity(5),
        PAULI_X,
        PAULI_Y,
        PAULI_Z,
        *(a for s in spanning for a in (s.basis_flat, s.basis_design, s.pinv)),
    ]
    for a in built:
        assert not a.flags.writeable
        assert a.flags.c_contiguous


@pytest.mark.parametrize("make, matrix", [
    (make_density, np.diag([0.25, 0.75]).astype(complex)),
    (make_projector, np.diag([1.0, 0.0, 1.0]).astype(complex)),
    (projector_from_ket, np.array([0.6, 0.8j])),
])
def test_constructors_neither_freeze_nor_alias_the_callers_array(make, matrix):
    before = matrix.copy()
    result = make(matrix)
    assert matrix.flags.writeable
    matrix[0] = 7.0
    assert np.array_equal(result.matrix, make(before).matrix)
    assert not np.shares_memory(result.matrix, matrix)


def test_a_projector_built_directly_needs_its_matrix():
    # Without a matrix the record had neither a matrix nor a ket, so its
    # matrix, repr and projector_stack raised AttributeError.
    for build in (lambda: Projector(2, None, 1), lambda: Projector(dim=2, matrix=None, rank=1)):
        with pytest.raises(ValueOutOfRange):
            build()
    p = projector_from_ket([0.6, 0.8j])
    assert type(p) is Projector and (p.dim, p.rank) == (2, 1)
    assert operators.projector_stack([p], 2).tobytes() == p.matrix.tobytes()


class TestSpectrum:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_the_bits_of_an_eigensolve_of_the_hermitized_matrix(self, rng, dim):
        for _ in range(5):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            m = m / np.trace(m).real
            expected = np.linalg.eigvalsh(operators.hermitize(m)).tobytes()
            assert make_density(m).spectrum.tobytes() == expected
            assert DensityMatrix(dim=dim, matrix=m).spectrum.tobytes() == expected

    def test_make_density_keeps_its_positivity_gates_eigensolve(self, rng, monkeypatch):
        rho = random_density_matrix(4, rng)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        state = make_density(rho.matrix)
        assert len(calls) == 1
        assert state.spectrum is state.spectrum
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_not_positive_reports_the_least_eigenvalue_of_the_eigensolve(self, rng, dim):
        # The figure is that of eigvalsh(hermitize(m))[0], as spelled when
        # make_density solved before it built the state.
        for _ in range(20):
            eigs = rng.uniform(0.5, 1.0, dim)
            eigs[0] = -rng.uniform(1e-6, 0.25)
            u = haar_unitary(dim, rng)
            m = (u * eigs) @ u.conj().T
            m = m / np.trace(m).real
            expected = float(np.linalg.eigvalsh(operators.hermitize(m))[0])
            assert expected < -TOL.psd
            with pytest.raises(NotPositive) as exc:
                make_density(m)
            assert exc.value.min_eig == expected

    def test_a_directly_built_state_computes_it_once(self):
        rho = DensityMatrix(dim=2, matrix=np.diag([0.75, 0.25]).astype(complex))
        assert rho.spectrum is rho.spectrum
        assert rho.spectrum.tolist() == [0.25, 0.75]


def _figure_bits(state):
    tr = state.trace
    return (state.hermitian_residual.hex(), tr.real.hex(), tr.imag.hex())


class TestKeptStateFigures:
    # A state keeps its Hermitian residual and trace: make_density's
    # gates compute them on the frozen matrix, any other state measures
    # them once, when first read.

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_make_density_keeps_the_figures_of_its_frozen_matrix(self, rng, dim, monkeypatch):
        for layout in ("C", "F", "strided"):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            m = m / np.trace(m).real + 1e-12 / dim * g
            if layout == "F":
                m = np.asfortranarray(m)
            elif layout == "strided":
                wide = np.zeros((dim, 2 * dim), dtype=complex)
                wide[:, ::2] = m
                m = wide[:, ::2]
            state = make_density(m)
            calls = []
            monkeypatch.setattr(operators, "frobenius", lambda x: calls.append(x) or frobenius(x))
            a = state.matrix
            assert _figure_bits(state) == (frobenius(a - a.conj().T).hex(),
                                           complex(a.trace()).real.hex(),
                                           complex(a.trace()).imag.hex())
            assert calls == []
            monkeypatch.undo()

    def test_other_states_measure_each_figure_once_on_first_read(self, rng, monkeypatch):
        rho, sigma = random_density_matrix(3, rng), random_density_matrix(2, rng)
        big = DensityMatrix(6, operators.tensor(rho.matrix, sigma.matrix))
        states = [
            DensityMatrix(dim=2, matrix=np.array([[0.75, 1e-3j], [-1e-3j, 0.25]])),
            partial_trace_b(big, 3, 2),
            extend_to_composite(rho, sigma),
        ]
        calls = []
        monkeypatch.setattr(operators, "frobenius", lambda x: calls.append(x) or frobenius(x))
        for state in states:
            assert state._hermitian_residual is None and state._trace is None
            a = state.matrix
            first = _figure_bits(state)
            assert first == (frobenius(a - a.conj().T).hex(), complex(a.trace()).real.hex(),
                             complex(a.trace()).imag.hex())
            t = state.trace
            assert state.trace is t and _figure_bits(state) == first
        assert len(calls) == len(states)
