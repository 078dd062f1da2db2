"""The numerical tolerances of qlocc, and the finite complex array check.

This is the one module that says what counts as zero. Every cut that
decides a verdict, a certificate byte or a line of output is named here,
and the other modules import it by name (`from .linalg import SPAN_TOL`),
so each name is one object however many modules bind it. Two sites share a
name only when they decide the same thing.

Cuts are absolute, except that rank decisions cut at RANK_RTOL times the
largest singular value. The OPLM constraint rank (`oplm._rank`) also keeps
the absolute floor NOISE_TOL, so that rounding noise from orthogonal pairs
never counts as a constraint. Only ORTHO_TOL is reachable from the command
line: `--tol` and `QLOCC_TOL` replace it at the orthogonality gate and in
the redundancy check.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-8
# At or below this an absolute value is rounding noise: the OPLM rank floor, the overlap guard of `oplm.index_split`, and a zero rest outcome I - sum(K).
NOISE_TOL = 1e-10
# Pairwise orthogonality |<a|b>| and reduced-state overlap tr(rho_a rho_b): the default of the gate and of redundancy.
ORTHO_TOL = 1e-9
# An entry of a linear test on a measurement counts as zero: span, OPLM constraints, survivors' overlaps, completeness.
SPAN_TOL = 1e-8
# A state whose post-measurement norm is at most this is eliminated by the outcome.
ELIM_TOL = 1e-9
# Two OPLM basis elements commute when every entry of their commutator is within this.
COMM_TOL = 1e-8
# Eigenvalues of a basis element within this of a cluster's lowest share one joint eigenblock.
CLUSTER_TOL = 1e-6
# Two union columns share an atom when their nullspace projections agree entrywise to this.
ATOM_TOL = 1e-6
# A computational-basis entry above this is occupied: index projectors, occupied indices, tile cells, overlays.
INDEX_TOL = 1e-9
# Two states match up to local relabeling when their overlap exceeds 1 - RELABEL_TOL.
RELABEL_TOL = 1e-6
# A UPB extension witness must have overlap at most this with every member of the set.
WITNESS_TOL = 1e-8
# A vector with norm below this is zero, not a state; a norm within this of 1 is left unscaled.
NORM_TOL = 1e-12
# `fixed_phases` makes a row's first entry above this in magnitude real positive.
PHASE_TOL = 1e-7
# A numeric-oracle residual below this is an exact product extension and ends the search.
EXTENSION_TOL = 1e-12
# A descent restart stops after a sweep that lowers its residual by less than this.
SWEEP_TOL = 1e-15
# `serialize_qset` writes an amplitude whose magnitude is above this.
TERM_TOL = 1e-14
# The numeric oracle agrees with the exact UPB check when (residual <= ORACLE_TOL) == extendible.
ORACLE_TOL = 1e-8
# Interning and dedupe keys round entries to this many decimals: reached sets (`canonical_key`) and union measurements.
KEY_DECIMALS = 9


def as_carray(a) -> np.ndarray:
    """Coerce to a complex128 ndarray and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries")
    return m
