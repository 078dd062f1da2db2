"""Shared numerical tolerances and the finite complex array check.

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
