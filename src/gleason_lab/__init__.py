"""Desk-scale toolkit for projection-valued measures, qubit frame
functions and marginality certification.

A frame function assigns probabilities to projectors so that every
PVM's outcomes sum to one. On a single qubit this allows assignments no
quantum state can produce; the certifier decides which assignments
survive as restrictions of composite-system frame functions and
reconstructs the unique density matrix for those that do.
"""

from .errors import (
    ContextualConflict,
    DimensionMismatch,
    DimensionOverflow,
    EmptySet,
    GleasonLabError,
    IllConditioned,
    Incomplete,
    NotApplicable,
    NotHermitian,
    NotIdempotent,
    NotNormalized,
    NotOrthogonal,
    NotPositive,
    NotUnitTrace,
    PartitionMismatch,
    SerializationError,
    UndefinedProjector,
    UnsupportedDimension,
    UnsupportedRank,
    ValueOutOfRange,
)
from .frames import (
    AXIS_BLOCH,
    BornFrameFunction,
    DeterministicFrameFunction,
    FrameFunction,
    InducedFrameFunction,
    TabulatedFrameFunction,
    axis_projector,
    axis_table,
    born_backed,
    check_normalization,
    definite_xz_table,
    deterministic_qubit,
    random_qubit_pvm_pair,
    tabulated,
)
from .marginality import (
    BlochWitness,
    EigenWitness,
    MarginalityCertificate,
    ResidualWitness,
    SpanningSet,
    Verdict,
    certify_marginal,
    extend_to_composite,
    marginality_witness,
    spanning_projectors,
    verify_extension,
)
from .measurements import (
    IntertwineGraph,
    PVM,
    embed,
    embed_pvm,
    intertwine_graph,
    measurement_family_mpsi,
    projector_key,
    pvm_from_unitary,
    validate_pvm,
)
from .operators import (
    DensityMatrix,
    Projector,
    born_values,
    haar_unitary,
    make_density,
    make_projector,
    partial_trace_b,
    projector_from_ket,
    projector_stack,
    random_density_matrix,
    tensor,
)
from .tolerances import TOL

__version__ = "0.1.0"
