"""Baseline unmixers: fully constrained least squares and its pixel-scaled
relaxation.

``unmix_lmm`` fits each pixel as a convex combination of the endmembers
(nonnegative, sum-to-one abundances). ``unmix_slmm`` drops the sum-to-one
constraint, solves a clipped least-squares problem, and factors the result
into simplex abundances and a per-pixel scale, which absorbs uniform
brightness variation. Neither method estimates per-endmember scales.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from .core import (
    AbundanceMatrix,
    EndmemberMatrix,
    HsiImage,
    _index_summary,
    normalize_abundances,
    rmse_a,
)
from .solvers import _simplex_qp, solve_nnls_clipped
from .trace import IterationRecord, SolverTrace, UnmixResult

__all__ = ["unmix_lmm", "unmix_slmm"]


def _check_shapes(image: HsiImage, endmembers: EndmemberMatrix) -> None:
    if image.band_count != endmembers.band_count:
        raise ValueError(
            f"band mismatch: image has {image.band_count}, "
            f"endmembers have {endmembers.band_count}"
        )
    if image.band_count < endmembers.endmember_count:
        raise ValueError("need at least as many bands as endmembers")


def _single_shot_result(
    image: HsiImage,
    abundances,
    s_x: np.ndarray,
    s_e: np.ndarray,
    reconstruction: np.ndarray,
    elapsed: float,
    truth=None,
) -> UnmixResult:
    recon = HsiImage(reconstruction, width=image.width, height=image.height)
    cost = float(np.sum((image.data - reconstruction) ** 2))
    trace = SolverTrace(initial_cost=cost)
    err = rmse_a(truth, abundances) if truth is not None else math.nan
    trace.append(
        IterationRecord(
            iteration=1,
            cost=cost,
            cost_accept=cost,
            step=1.0,
            rel_change_a=0.0,
            rel_change_s=0.0,
            time_s=elapsed,
            rmse_a=err,
        )
    )
    return UnmixResult(
        abundances=abundances,
        s_x=s_x,
        s_e=s_e,
        reconstruction=recon,
        trace=trace,
    )


def unmix_lmm(image: HsiImage, endmembers: EndmemberMatrix, truth=None) -> UnmixResult:
    """Per-pixel simplex-constrained least squares (no scaling factors).

    Exact under the plain linear mixing assumption; biased whenever the
    scene carries scaling variability, which the simplex constraint cannot
    absorb.
    """
    _check_shapes(image, endmembers)
    e = endmembers.data
    k, n = e.shape[1], image.pixel_count
    t0 = time.perf_counter()
    gram = e.T @ e
    gram = 0.5 * (gram + gram.T)
    linear = e.T @ image.data
    a = np.empty((k, n))
    for j in range(n):
        a[:, j] = _simplex_qp(gram, linear[:, j])
    elapsed = time.perf_counter() - t0
    abundances = AbundanceMatrix(a, normalized=True)
    return _single_shot_result(
        image,
        abundances,
        s_x=np.ones(n),
        s_e=np.ones(k),
        reconstruction=e @ a,
        elapsed=elapsed,
        truth=truth,
    )


def unmix_slmm(image: HsiImage, endmembers: EndmemberMatrix, truth=None) -> UnmixResult:
    """Clipped least squares plus per-pixel normalization.

    The column sums of the clipped fit become the pixel scales s_x; the
    rescaled columns are the abundances. Pixels whose fit collapses to
    zero are reported as degenerate rather than imputed.
    """
    _check_shapes(image, endmembers)
    e = endmembers.data
    k, n = e.shape[1], image.pixel_count
    t0 = time.perf_counter()
    a_s = solve_nnls_clipped(endmembers, image)
    norm = normalize_abundances(a_s)
    elapsed = time.perf_counter() - t0
    if norm.degenerate_pixels.size:
        warnings.warn(
            "pixels with zero fitted abundance were flagged degenerate: "
            + _index_summary(norm.degenerate_pixels),
            RuntimeWarning,
            stacklevel=2,
        )
    return _single_shot_result(
        image,
        norm.abundances,
        s_x=norm.s_x,
        s_e=np.ones(k),
        reconstruction=e @ a_s,
        elapsed=elapsed,
        truth=truth,
    )
