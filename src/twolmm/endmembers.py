"""Endmember extraction and identifiability tooling.

Scaling variability moves pixels off the abundance simplex and onto a
cone, which breaks simplex-based extraction. The perspective projection
``x -> x / (x^T v)`` collapses every ray of that cone to a single point,
after which pure-pixel extraction applies again. Extraction can only ever
recover endmembers up to permutation and positive per-endmember scaling,
so :func:`match_endmembers` aligns an estimated set with a reference
before any abundance comparison, and
:func:`check_sufficiently_scattered` tests the abundance-geometry
condition under which that ambiguity is the only one left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK, AbundanceMatrix, EndmemberMatrix, HsiImage, _freeze, _index_summary, sad

__all__ = [
    "ProjectionSpec",
    "perspective_project",
    "vca_extract",
    "MatchResult",
    "match_endmembers",
    "align_abundances",
    "ScatterCheck",
    "check_sufficiently_scattered",
]

# A pixel is usable for projection when |x^T v| clears this fraction of
# ||v|| * max_n ||x_n||; near-orthogonal ("black") spectra blow up the
# division and must be excluded upstream.
PROJECTION_MARGIN = 1e-9

# _leading_subspace uses the band Gram's Cholesky factor only while the
# factor's smallest singular value is at least this share of its largest:
# squaring the data leaves them about eps / ratio^2 of relative precision.
_GRAM_MIN_RATIO = 1e-6


@dataclass(frozen=True)
class ProjectionSpec:
    """Projection vector for the perspective map ``x -> x / (x^T v)``."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _freeze(self.v, flat=True))
        if not np.all(np.isfinite(self.v)) or np.linalg.norm(self.v) == 0.0:
            raise ValueError("projection vector must be finite and nonzero")

    @classmethod
    def for_image(cls, image: HsiImage) -> "ProjectionSpec":
        """The spec of ``image``'s normalized mean spectrum, which maximizes
        the worst-case margin on nonnegative data. Whether every pixel clears
        the margin is checked where the spec is used, by
        :func:`perspective_project` and :func:`vca_extract`."""
        mean = image.data.mean(axis=1)
        norm = np.linalg.norm(mean)
        if norm == 0.0:
            raise ValueError("cannot derive a projection vector from an all-zero image")
        return cls(v=mean / norm)


def _checked_dots(image: HsiImage, spec: ProjectionSpec) -> np.ndarray:
    """Inner products ``x_n^T v`` of every pixel, after checking that each
    clears the projection margin."""
    v = spec.v
    if v.size != image.band_count:
        raise ValueError("projection vector length must match the band count")
    x = image.data
    dots = x.T @ v
    max_norm = max(
        float(np.linalg.norm(x[:, start : start + _BLOCK], axis=0).max())
        for start in range(0, x.shape[1], _BLOCK)
    )
    threshold = PROJECTION_MARGIN * float(np.linalg.norm(v)) * max_norm
    bad = np.flatnonzero(np.abs(dots) <= threshold)
    if bad.size:
        raise ValueError(
            "pixels near-orthogonal to the projection vector: " + _index_summary(bad)
        )
    return dots


def perspective_project(image: HsiImage, spec: ProjectionSpec) -> HsiImage:
    """Divide every pixel by its inner product with the projection vector.

    Output pixels satisfy ``proj(x)^T v = 1``, so positively scaled copies
    of a pixel map to the same point and projecting twice is a no-op.
    Raises listing the offending pixel indices when any ``|x^T v|`` falls
    under the safety margin.
    """
    dots = _checked_dots(image, spec)
    projected = image.data / dots
    projected.flags.writeable = False
    return HsiImage(projected, width=image.width, height=image.height)


def _leading_subspace(y: np.ndarray, k: int, dots: np.ndarray | None = None) -> np.ndarray:
    """The leading ``k`` left singular vectors of ``y``, or of its
    perspective projection ``y / dots`` when ``dots`` is given, from the
    SVD of a P x P triangle instead of the P x N image.

    ``L = cholesky(Y Y^T)`` is the triangle of the LQ factorisation
    ``Y = L Q`` up to column signs, and LAPACK's SVD of a wide image
    (N >= 11P/6 pixels) bidiagonalises exactly that triangle. Column signs
    do not reach the left singular vectors, because a Householder
    reflector maps ``x`` and ``-x`` alike, so on such images the basis
    equals ``np.linalg.svd(y)[0][:, :k]``, signs included; with fewer
    pixels LAPACK bidiagonalises ``Y`` directly and the columns agree only
    up to sign. Squaring leaves the small singular values half their
    precision, so when the factorisation fails (noiseless data, fewer
    pixels than bands) or the triangle's smallest singular value is below
    ``_GRAM_MIN_RATIO`` times its largest, the triangle comes from a
    Householder QR of ``Y^T`` instead; only then is a projection formed.
    The projection's Gram is summed over pixel blocks, each divided into
    one Fortran-ordered P x ``_BLOCK`` buffer that every block reuses, so
    it differs from ``Y @ Y.T`` at the rounding level. Raises when ``y``
    has rank below ``k``.
    """
    p, n = y.shape
    if dots is None:
        gram = y @ y.T
    else:  # the projection's Gram, one block of pixels at a time
        gram = np.zeros((p, p))
        buf = np.empty((p, min(n, _BLOCK)), order="F")
        for start in range(0, n, _BLOCK):
            part = slice(start, start + _BLOCK)
            block = np.divide(y[:, part], dots[part], out=buf[:, : n - start])
            gram += block @ block.T
        del buf, block  # before the factorisations below allocate
    try:
        basis, sv, _ = np.linalg.svd(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:  # the band Gram is singular
        sv = None
    if sv is None or sv[-1] < _GRAM_MIN_RATIO * sv[0]:
        if dots is not None:
            y = y / dots
        basis, sv, _ = np.linalg.svd(np.linalg.qr(y.T, mode="r").T, full_matrices=False)
    if k > sv.size or sv[k - 1] <= max(p, n) * np.finfo(np.float64).eps * sv[0]:
        raise ValueError(f"image rank is below the requested count {k}")
    return basis[:, :k]


def vca_extract(
    image: HsiImage, count: int, seed: int = 0, projection: ProjectionSpec | None = None
) -> tuple[EndmemberMatrix, np.ndarray]:
    """Pure-pixel extraction by successive orthogonal projections.

    Reduces the data to its leading ``count`` left singular vectors (from
    a P x P triangle, see :func:`_leading_subspace`), then repeatedly draws
    a random direction orthogonal to the endmembers found so far and keeps
    the pixel with the largest absolute projection onto it. Returns
    the selected pixel spectra and their column indices; results are
    deterministic for a fixed seed. Negative noise excursions in the
    selected columns are zeroed to meet the endmember nonnegativity
    contract; the indices recover the raw columns when needed.

    With ``projection``, extraction runs on the perspective projection of
    ``image`` (:func:`perspective_project`, which makes the same margin
    check) without forming it: the band Gram is summed over blocks of
    pixels, the reduced data are those of the image divided by each
    pixel's dot product, and the spectra returned are the projected
    columns. The picks are those on the projected image up to rounding;
    tests pin them on the protocol scenes.
    """
    y = image.data
    n = y.shape[1]
    if count < 1:
        raise ValueError("endmember count must be positive")
    if n < count:
        raise ValueError(f"image has {n} pixels, fewer than {count}")
    dots = None if projection is None else _checked_dots(image, projection)
    reduced = _leading_subspace(y, count, dots).T @ y
    if dots is not None:
        reduced /= dots  # the reduced projection, up to rounding

    if count == 1:
        indices = np.array([int(np.argmax(np.abs(reduced[0])))])
    else:
        rng = np.random.default_rng(seed)
        found = np.zeros((count, count))
        found[-1, 0] = 1.0
        picks: list[int] = []
        for i in range(count):
            while True:
                w = rng.standard_normal(count)
                f = w - found @ (np.linalg.pinv(found) @ w)
                norm = np.linalg.norm(f)
                if norm > 1e-12:
                    break
            scores = (f / norm) @ reduced
            idx = int(np.argmax(np.abs(scores)))
            picks.append(idx)
            found[:, i] = reduced[:, idx]
        indices = np.array(picks)
    columns = y[:, indices] if dots is None else y[:, indices] / dots[indices]
    return EndmemberMatrix(np.maximum(columns, 0.0)), indices


@dataclass(frozen=True)
class MatchResult:
    """Alignment of an estimated endmember set with a reference set.

    ``permutation[j]`` is the reference column matched to estimated column
    j, ``scales[j]`` the least-squares factor with
    ``est_j ~ scales[j] * ref_perm[j]``, and ``mean_sad_deg`` the mean
    spectral angle over the matched pairs.
    """

    permutation: np.ndarray
    scales: np.ndarray
    mean_sad_deg: float


def match_endmembers(estimated: EndmemberMatrix, reference: EndmemberMatrix) -> MatchResult:
    """Greedy minimum-angle assignment between two endmember sets.

    Repeatedly pairs the globally closest (estimated, reference) columns
    by spectral angle; ties resolve to the lowest indices. Every benchmark
    aligns abundances through this before computing abundance errors,
    since extraction is only identifiable up to permutation and scaling.
    """
    if estimated.endmember_count != reference.endmember_count:
        raise ValueError("endmember sets must have the same size")
    if estimated.band_count != reference.band_count:
        raise ValueError("endmember sets must share the band count")
    k = estimated.endmember_count
    angles = np.empty((k, k))
    for j in range(k):
        for i in range(k):
            angles[j, i] = sad(estimated.data[:, j], reference.data[:, i])
    perm = np.full(k, -1)
    open_cost = angles.copy()
    for _ in range(k):
        j, i = np.unravel_index(np.argmin(open_cost), open_cost.shape)
        perm[j] = i
        open_cost[j, :] = np.inf
        open_cost[:, i] = np.inf
    scales = np.empty(k)
    matched = np.empty(k)
    for j in range(k):
        ref = reference.data[:, perm[j]]
        scales[j] = float(ref @ estimated.data[:, j]) / float(ref @ ref)
        matched[j] = angles[j, perm[j]]
    return MatchResult(
        permutation=perm, scales=scales, mean_sad_deg=float(matched.mean())
    )


def align_abundances(a_est: np.ndarray, match: MatchResult) -> np.ndarray:
    """Reorder estimated abundance rows into the reference endmember order."""
    a_est = np.atleast_2d(np.asarray(a_est, dtype=np.float64))
    out = np.empty_like(a_est)
    out[match.permutation, :] = a_est
    return out


@dataclass(frozen=True)
class ScatterCheck:
    passed: bool
    witness: np.ndarray | None = None
    residual: float = 0.0


def check_sufficiently_scattered(
    abundances: AbundanceMatrix, directions: int = 500, seed: int = 0
) -> ScatterCheck:
    """Sampled necessary test of the sufficiently-scattered condition.

    Draws unit vectors on the boundary of the second-order cone inscribed
    in the simplex (``||x|| = 1``, ``x^T 1 = sqrt(K-1)``) and verifies each
    lies in the conic hull of the abundance columns via nonnegative
    least-squares feasibility (residual <= 1e-8). Failing directions
    witness that the hull does not cover the inscribed cone; passing all
    samples is necessary but not sufficient for the full condition, and
    a check of no direction is refused rather than passed.
    """
    k = abundances.endmember_count
    if k < 2:
        raise ValueError("the scatter condition needs at least two endmembers")
    if directions < 1:
        raise ValueError(f"the scatter check needs at least one direction, got {directions}")
    # Imported here, not at module level: nothing else in twolmm uses scipy,
    # and loading it would add most of a second to every CLI start.
    import scipy.optimize

    cols = np.asarray(abundances.data)
    rng = np.random.default_rng(seed)
    center = math.sqrt(k - 1) / k
    radial = 1.0 / math.sqrt(k)
    for _ in range(directions):
        while True:
            g = rng.standard_normal(k)
            g -= g.mean()
            norm = np.linalg.norm(g)
            if norm > 1e-12:
                break
        x = center + radial * (g / norm)
        _, resid = scipy.optimize.nnls(cols, x)
        if resid > 1e-8:
            return ScatterCheck(passed=False, witness=x, residual=float(resid))
    return ScatterCheck(passed=True)
