"""Core data model and metrics for spectral unmixing.

Array shape conventions
-----------------------
- Image matrix X: (P, N) with P spectral bands and N pixels; each column is
  one pixel spectrum. Pixels of a width x height grid are flattened in
  row-major order (n = row * width + col).
- Endmember matrix E: (P, K), one column per pure-material spectrum.
- Abundance matrix A: (K, N), one column per pixel.
- Scaling vectors: s_e (K,) scales endmembers globally, s_x (N,) scales
  pixels individually.

All containers convert their payload to float64 in column-major (Fortran)
layout, so per-pixel solves touch contiguous memory, and mark the arrays
read-only. Instances are immutable after construction; every function in
this module is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HsiImage",
    "EndmemberMatrix",
    "AbundanceMatrix",
    "ScalingState",
    "NormalizationResult",
    "rmse_x",
    "rmse_a",
    "sad",
    "normalize_abundances",
]

# Tolerances for constructor validation.
ANC_TOL = 1e-12
ASC_TOL = 1e-9


def _index_summary(indices, limit: int = 8) -> str:
    """``"<count> (first indices [...])"``, naming at most ``limit`` indices
    so that messages stay short on large images."""
    idx = np.asarray(indices).ravel()
    return f"{idx.size} (first indices {idx[:limit].tolist()})"


def _freeze(data: np.ndarray) -> np.ndarray:
    out = np.asfortranarray(data, dtype=np.float64)
    if out is data:
        out = out.copy(order="F")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HsiImage:
    """A hyperspectral image: (P, N) matrix of pixel spectra.

    Values are reflectance-like (dimensionless, typically within [0, ~3]
    when scaling variability is present). ``width * height`` must equal the
    number of pixels; pixel lists without a grid use ``height = 1``.
    """

    data: np.ndarray
    width: int = 0
    height: int = 0

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data))
        if data.ndim != 2:
            raise ValueError("image data must be a 2-D (bands, pixels) array")
        p, n = data.shape
        if p < 1 or n < 1:
            raise ValueError("image must have at least one band and one pixel")
        if not np.all(np.isfinite(data)):
            raise ValueError("image data contains non-finite values")
        width, height = self.width, self.height
        if width == 0 and height == 0:
            width, height = n, 1
        if width * height != n:
            raise ValueError(
                f"width*height = {width}*{height} does not match pixel count {n}"
            )
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))

    @property
    def band_count(self) -> int:
        return self.data.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class EndmemberMatrix:
    """Reference endmember spectra: (P, K) matrix, one column per material.

    Entries must be finite and nonnegative and no column may be all-zero.
    """

    data: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data))
        if data.ndim != 2:
            raise ValueError("endmember data must be a 2-D (bands, K) array")
        if not np.all(np.isfinite(data)):
            raise ValueError("endmember data contains non-finite values")
        if np.any(data < 0):
            raise ValueError("endmember data must be nonnegative")
        norms = np.linalg.norm(data, axis=0)
        if np.any(norms == 0):
            bad = np.flatnonzero(norms == 0).tolist()
            raise ValueError(f"endmember columns {bad} are identically zero")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != data.shape[1]:
                raise ValueError("label count does not match endmember count")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "data", _freeze(data))

    @property
    def band_count(self) -> int:
        return self.data.shape[0]

    @property
    def endmember_count(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AbundanceMatrix:
    """Fractional abundances: (K, N) matrix, one column per pixel.

    Entries must be nonnegative (up to ``ANC_TOL``). When ``normalized`` is
    set, every column must sum to one within ``ASC_TOL``; exactly-zero
    columns are tolerated as degenerate-pixel placeholders (see
    :func:`normalize_abundances`).
    """

    data: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data))
        if data.ndim != 2:
            raise ValueError("abundance data must be a 2-D (K, pixels) array")
        if not np.all(np.isfinite(data)):
            raise ValueError("abundance data contains non-finite values")
        if np.any(data < -ANC_TOL):
            raise ValueError("abundance data violates nonnegativity")
        data = np.maximum(data, 0.0)
        if self.normalized:
            sums = data.sum(axis=0)
            ok = (np.abs(sums - 1.0) <= ASC_TOL) | (sums == 0.0)
            if not np.all(ok):
                raise ValueError(
                    "columns that do not sum to one (normalized flag set): "
                    + _index_summary(np.flatnonzero(~ok))
                )
        object.__setattr__(self, "data", _freeze(data))

    @property
    def endmember_count(self) -> int:
        return self.data.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ScalingState:
    """Scaling factors of a two-step mixing state.

    ``s_e`` holds one global scale per endmember, constrained to
    ``[lower, upper]``; ``s_x`` holds one positive scale per pixel.
    """

    s_e: np.ndarray
    s_x: np.ndarray
    lower: float = 0.2
    upper: float = 5.0

    def __post_init__(self):
        s_e = np.asarray(self.s_e, dtype=np.float64).ravel()
        s_x = np.asarray(self.s_x, dtype=np.float64).ravel()
        if not (np.all(np.isfinite(s_e)) and np.all(np.isfinite(s_x))):
            raise ValueError("scaling vectors contain non-finite values")
        if not (0.0 < self.lower <= self.upper):
            raise ValueError("scaling bounds must satisfy 0 < lower <= upper")
        if np.any(s_e < self.lower) or np.any(s_e > self.upper):
            raise ValueError("endmember scalings violate the box bounds")
        if np.any(s_x <= 0):
            raise ValueError("pixel scalings must be strictly positive")
        for name, v in (("s_e", s_e), ("s_x", s_x)):
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class NormalizationResult:
    """Output of :func:`normalize_abundances`.

    ``degenerate_pixels`` lists the columns whose input summed to zero;
    those columns stay all-zero with ``s_x = 0`` instead of being silently
    imputed, so downstream error metrics are not corrupted.
    """

    abundances: AbundanceMatrix
    s_x: np.ndarray
    degenerate_pixels: np.ndarray = field(default_factory=lambda: np.empty(0, int))


def rmse_x(x_true: HsiImage, x_est: HsiImage) -> float:
    """Root mean square reconstruction error over all bands and pixels.

    Returns ``sqrt(sum_n ||x_n - xhat_n||^2 / (N * P))``. Symmetric in its
    arguments and zero iff the images are identical.
    """
    if x_true.data.shape != x_est.data.shape:
        raise ValueError(
            f"image shapes differ: {x_true.data.shape} vs {x_est.data.shape}"
        )
    diff = x_true.data - x_est.data
    return float(np.sqrt(np.mean(diff * diff)))


def rmse_a(a_true: AbundanceMatrix, a_est: AbundanceMatrix) -> float:
    """Root mean square abundance error over all endmembers and pixels.

    Both inputs must be normalized. The per-pixel squared errors are summed
    over all pixels and divided by K*N before the square root, mirroring
    the structure of :func:`rmse_x`.
    """
    if a_true.data.shape != a_est.data.shape:
        raise ValueError(
            f"abundance shapes differ: {a_true.data.shape} vs {a_est.data.shape}"
        )
    if not (a_true.normalized and a_est.normalized):
        raise ValueError("abundance RMSE requires normalized inputs")
    diff = a_true.data - a_est.data
    return float(np.sqrt(np.mean(diff * diff)))


def sad(e1: np.ndarray, e2: np.ndarray) -> float:
    """Spectral angle distance between two spectra, in degrees.

    Invariant to positive rescaling of either argument.
    """
    v1 = np.asarray(e1, dtype=np.float64).ravel()
    v2 = np.asarray(e2, dtype=np.float64).ravel()
    if v1.shape != v2.shape:
        raise ValueError("spectra must have the same length")
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("spectral angle is undefined for a zero vector")
    cosang = np.clip(np.dot(v1, v2) / (n1 * n2), -1.0, 1.0)
    return float(math.degrees(math.acos(cosang)))


def normalize_abundances(a_s: np.ndarray) -> NormalizationResult:
    """Split non-normalized abundances into simplex columns and pixel scales.

    For each pixel the scale is the column sum, ``s_x[n] = sum_k a_s[k, n]``,
    and the abundance column is ``a_s[:, n] / s_x[n]``. Columns that sum to
    zero are flagged degenerate: they are returned all-zero with
    ``s_x[n] = 0`` so that the recombination identity
    ``a[:, n] * s_x[n] == a_s[:, n]`` holds for every pixel.
    """
    a_s = np.atleast_2d(np.asarray(a_s, dtype=np.float64))
    if np.any(a_s < -ANC_TOL):
        raise ValueError("non-normalized abundances must be nonnegative")
    a_s = np.maximum(a_s, 0.0)
    s_x = a_s.sum(axis=0)
    degenerate = np.flatnonzero(s_x == 0.0)
    safe = np.where(s_x > 0.0, s_x, 1.0)
    a = a_s / safe
    return NormalizationResult(
        abundances=AbundanceMatrix(a, normalized=True),
        s_x=s_x,
        degenerate_pixels=degenerate,
    )
