"""The numerical tolerances of validation and certification: one fixed
table, ``TOL``, read directly by the checking code.

The values are sized for double precision arithmetic on operators of
dimension at most 64, where accumulated residuals stay below 1e-12;
every value keeps two to three orders of magnitude of headroom. Every
CLI report echoes the whole table under ``config.tolerances`` and
every certificate under ``tolerances``, so each verdict records the
thresholds that decided it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10        # Hermiticity residual, Frobenius norm
    proj: float = 1e-10        # idempotency residual, Frobenius norm
    eig: float = 1e-8          # eigenvalue proximity to {0, 1} for rank counting
    tr: float = 1e-10          # unit-trace residual
    psd: float = 1e-9          # allowed negativity of density-matrix eigenvalues
    prob: float = 1e-9         # probability clamping slack around [0, 1]
    pvm: float = 1e-10         # PVM orthogonality and completeness residuals
    key: float = 1e-8          # quantization grid for projector keys
    frame: float = 1e-9        # frame-function normalization residual
    lin: float = 1e-9          # max-norm reconstruction residual accepted as consistent
    margin: float = 1e-6       # eigenvalue below -margin certifies non-positivity

    def to_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


TOL = Tolerances()

# Composite Hilbert spaces larger than this are rejected; everything the
# library demonstrates fits in dimension 8.
MAX_COMPOSITE_DIM = 64

# Spanning sets whose design matrix has a larger condition number are
# refused: a least-squares fit through them amplifies round-off past
# every tolerance above.
MAX_CONDITION_NUMBER = 1e8
