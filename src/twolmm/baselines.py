"""Baseline unmixers: fully constrained least squares and its pixel-scaled
relaxation.

``unmix_lmm`` fits each pixel as a convex combination of the endmembers
(nonnegative, sum-to-one abundances). ``unmix_slmm`` drops the sum-to-one
constraint, solves a clipped least-squares problem, and factors the result
into simplex abundances and a per-pixel scale, which absorbs uniform
brightness variation. Neither method estimates per-endmember scales.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (
    AbundanceMatrix,
    EndmemberMatrix,
    HsiImage,
    NormalizationResult,
    _all_finite,
    normalize_abundances,
)
from .solvers import (
    SolverError,
    _arrays,
    _check_full_rank,
    _normal_parts,
    _simplex_qp,
    solve_nnls_clipped,
)
from .trace import UnmixResult, _unmix_result

__all__ = ["unmix_lmm", "unmix_slmm"]


def unmix_lmm(image: HsiImage, endmembers: EndmemberMatrix) -> UnmixResult:
    """Simplex-constrained least squares of every pixel in one batched
    active-set call (no scaling factors); rank-deficient endmembers and
    non-finite normal equations (data whose ``E^T E`` overflows) raise
    :class:`~twolmm.solvers.SolverError`.

    Exact under the plain linear mixing assumption; biased whenever the
    scene carries scaling variability, which the simplex constraint cannot
    absorb.
    """
    e, x = _arrays(endmembers, image)
    _check_full_rank(e)
    k, n = e.shape[1], x.shape[1]
    t0 = time.perf_counter()
    gram, etx = _normal_parts(e, x)
    # The QP would run an overflowing E^T E to its iteration limit.
    if not (_all_finite(gram) and _all_finite(etx)):
        raise SolverError("non-finite normal equations E^T E, E^T X (the data overflow float64)")
    a = _simplex_qp(gram, etx)
    elapsed = time.perf_counter() - t0
    # The columns already lie on the simplex; normalize_abundances would
    # divide them by sums that differ from one in the last bit.
    norm = NormalizationResult(AbundanceMatrix(a, normalized=True), s_x=np.ones(n))
    return _unmix_result(image, e, a, np.ones(k), norm, elapsed)


def unmix_slmm(image: HsiImage, endmembers: EndmemberMatrix) -> UnmixResult:
    """Clipped least squares plus per-pixel normalization.

    The column sums of the clipped fit become the pixel scales s_x; the
    rescaled columns are the abundances. Pixels whose fit collapses to
    zero are reported as degenerate rather than imputed.
    """
    t0 = time.perf_counter()
    a_s = solve_nnls_clipped(endmembers, image)
    norm = normalize_abundances(a_s)
    elapsed = time.perf_counter() - t0
    return _unmix_result(image, endmembers.data, a_s, np.ones(a_s.shape[0]), norm, elapsed)
