"""Dense complex linear algebra helpers for small (dim <= ~64) systems.

Rank decisions cut at the relative threshold ``RANK_RTOL`` times the largest
singular value. The one exception is the OPLM constraint rank
(`oplm._rank`), which also keeps an absolute floor of 1e-10 so that rounding
noise from orthogonal pairs never counts as a constraint.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-8
# Default tolerance for pairwise-orthogonality checks.
ORTHO_TOL = 1e-9


def as_carray(a) -> np.ndarray:
    """Coerce to a complex128 ndarray and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries")
    return m


def svd(m):
    """SVD returning (singular values descending, U, Vh).

    Raises ValueError on non-convergence (diagnostic failure).
    """
    m = as_carray(m)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise ValueError(f"svd did not converge: {exc}") from exc
    return s, u, vh


def numerical_rank(m, rtol: float = RANK_RTOL) -> int:
    """Count of singular values above rtol * sigma_max (0 for the zero matrix)."""
    s, _, _ = svd(m)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))
