"""Exception hierarchy shared by all gleason_lab modules."""

from __future__ import annotations


class GleasonLabError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(GleasonLabError):
    def __init__(self, residual: float):
        super().__init__(f"matrix is not Hermitian (Frobenius residual {residual:.3e})")
        self.residual = residual


class NotIdempotent(GleasonLabError):
    def __init__(self, residual: float):
        super().__init__(f"matrix is not idempotent (Frobenius residual {residual:.3e})")
        self.residual = residual


class NotUnitTrace(GleasonLabError):
    def __init__(self, trace: complex):
        super().__init__(f"matrix trace {trace} is not 1 within tolerance")
        self.trace = trace


class NotPositive(GleasonLabError):
    def __init__(self, min_eig: float):
        super().__init__(f"matrix has negative eigenvalue {min_eig:.3e}")
        self.min_eig = min_eig


class DimensionMismatch(GleasonLabError):
    pass


class DimensionOverflow(GleasonLabError):
    def __init__(self, dim: int, max_dim: int):
        super().__init__(f"requested dimension {dim} exceeds the configured cap {max_dim}")
        self.dim = dim
        self.max_dim = max_dim


class NotOrthogonal(GleasonLabError):
    def __init__(self, x: int, y: int, residual: float):
        super().__init__(
            f"projectors {x} and {y} are not orthogonal (Frobenius residual {residual:.3e})"
        )
        self.x = x
        self.y = y
        self.residual = residual


class Incomplete(GleasonLabError):
    def __init__(self, residual: float):
        super().__init__(f"projectors do not sum to the identity (residual {residual:.3e})")
        self.residual = residual


class EmptySet(GleasonLabError):
    pass


class PartitionMismatch(GleasonLabError):
    pass


class NotNormalized(GleasonLabError):
    def __init__(self, norm: float):
        super().__init__(f"state vector norm {norm:.12f} is not 1 within tolerance")
        self.norm = norm


class UnsupportedDimension(GleasonLabError):
    pass


class UnsupportedRank(GleasonLabError):
    pass


class ContextualConflict(GleasonLabError):
    def __init__(self, key: str, v1: float, v2: float):
        super().__init__(
            f"projector key {key} tabulated twice with conflicting values {v1} and {v2}"
        )
        self.key = key
        self.v1 = v1
        self.v2 = v2


class ValueOutOfRange(GleasonLabError):
    pass


class UndefinedProjector(GleasonLabError):
    def __init__(self, key: str):
        super().__init__(f"frame function is not defined on projector with key {key}")
        self.key = key


class IllConditioned(GleasonLabError):
    def __init__(self, condition_number: float, max_condition_number: float):
        super().__init__(
            f"design matrix condition number {condition_number:.3e} "
            f"exceeds {max_condition_number:.0e}"
        )
        self.condition_number = condition_number
        self.max_condition_number = max_condition_number


class NotApplicable(GleasonLabError):
    pass


class SerializationError(GleasonLabError):
    pass
