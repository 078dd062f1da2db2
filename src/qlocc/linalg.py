"""The numerical tolerances of qlocc, and the finite complex array check.

This is the one module that says what counts as zero. Every cut that
decides a verdict, a certificate byte or a line of output is named here,
and the other modules import it by name (`from .linalg import SPAN_TOL`),
so each name is one object however many modules bind it. There is one name
per kind of quantity: a cut is named by what it bounds, not by the site
that reads it, so sites that cut the same kind of value share a name. The
one quantity with two cuts is the numeric oracle's residual, which stops
its restarts at EXTENSION_TOL and is compared with the exact check at
ORACLE_TOL.

Cuts are absolute, except that rank decisions cut at RANK_RTOL times the
largest singular value. The OPLM constraint rank (`oplm._rank`) also keeps
the absolute floor NOISE_TOL, so that rounding noise from orthogonal pairs
never counts as a constraint. Only ORTHO_TOL is reachable from the command
line, and only where it is passed as an argument: `--tol` and `QLOCC_TOL`
replace it at the orthogonality gate and in the redundancy check, while
elimination and index occupancy keep its default.
"""

from __future__ import annotations

import numpy as np

# A singular value relative to the largest: below RANK_RTOL * sigma_max it is zero (Schmidt rank, local support, product test, OPLM rank, render).
RANK_RTOL = 1e-8
# An absolute value that is rounding noise: the OPLM rank floor, the overlap guard of `oplm.index_split`, a zero rest outcome I - sum(K).
NOISE_TOL = 1e-10
# An inner product or amplitude of input states, which says two vectors are orthogonal: the gate and redundancy (|<a|b>|, tr(rho_a rho_b)), terminal resolution, elimination (||K psi||), occupied indices, index-aligned projectors, tile cells, overlays.
ORTHO_TOL = 1e-9
# An entry computed after a solve or a product: span membership, OPLM constraints, commutators, survivors' overlaps, completeness, the UPB witness.
SPAN_TOL = 1e-8
# The gap between two computed values that are taken as one: eigenvalue clusters, atoms of union columns, overlaps 1 - |<a|b>| up to local relabeling.
CLUSTER_TOL = 1e-6
# A norm: below it a vector is zero, not a state; within it of 1 a row is left unscaled.
NORM_TOL = 1e-12
# An entry's magnitude: `fixed_phases` makes a row's first entry above it real positive.
PHASE_TOL = 1e-7
# The numeric oracle's residual, a sum of squared overlaps: below it the product extension is exact and the restarts stop.
EXTENSION_TOL = 1e-12
# The same residual against the exact UPB check: the oracle agrees when (residual <= ORACLE_TOL) == extendible; `bench/workloads.py` keeps an equal copy.
ORACLE_TOL = 1e-8
# A residual's drop over one sweep: below it a descent restart has converged.
SWEEP_TOL = 1e-15
# An amplitude's magnitude: `serialize_qset` writes the terms above it.
TERM_TOL = 1e-14
# Interning and dedupe keys round entries to this many decimals: reached sets (`canonical_key`) and union measurements.
KEY_DECIMALS = 9


def as_carray(a) -> np.ndarray:
    """Coerce to a complex128 ndarray and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries")
    return m
