"""Numerical tolerances used across validation and certification.

Defaults are sized for double precision arithmetic on operators of
dimension at most 64, where accumulated residuals stay below 1e-12;
every default keeps two to three orders of magnitude of headroom.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10        # Hermiticity residual, Frobenius norm
    proj: float = 1e-10        # idempotency residual, Frobenius norm
    eig: float = 1e-8          # eigenvalue proximity to {0, 1} for rank counting
    tr: float = 1e-10          # unit-trace residual
    psd: float = 1e-9          # allowed negativity of density-matrix eigenvalues
    bloch: float = 1e-9        # Bloch-ball membership slack
    prob: float = 1e-9         # probability clamping slack around [0, 1]
    pvm: float = 1e-10         # PVM orthogonality and completeness residuals
    key: float = 1e-8          # quantization grid for projector keys
    frame: float = 1e-9        # frame-function normalization residual
    lin: float = 1e-9          # max-norm reconstruction residual accepted as consistent
    margin: float = 1e-6       # eigenvalue below -margin certifies non-positivity

    def __post_init__(self):
        # A NaN bound makes every "residual > bound" test false, and a key
        # grid of 0 or inf divides by zero or merges every projector.
        for name, value in self.to_dict().items():
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"tolerance {name} must be finite and > 0, got {value}")

    def to_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)

    @classmethod
    def from_overrides(cls, overrides: Mapping[str, float]) -> "Tolerances":
        """Build from a key/value map, rejecting unknown tolerance names."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(f"unknown tolerance names: {', '.join(unknown)}")
        return cls(**{k: float(v) for k, v in overrides.items()})


DEFAULT_TOLERANCES = Tolerances()

# Composite Hilbert spaces larger than this are rejected; everything the
# library demonstrates fits in dimension 8.
MAX_COMPOSITE_DIM = 64

# Spanning sets whose design matrix has a larger condition number are
# refused: a least-squares fit through them amplifies round-off past
# every tolerance above.
MAX_CONDITION_NUMBER = 1e8
