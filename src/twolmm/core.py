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

All containers hold their payload as float64 in column-major (Fortran)
layout, so per-pixel solves touch contiguous memory, and read-only. Every
value type that takes arrays from its caller stores them through
:func:`_freeze`: a payload that already is such an array and owns its
memory is adopted as it is; any other payload (a writable array, a view,
another layout or dtype) is copied, so that changing the caller's array
never changes a value. twolmm's own producers of P x N arrays (the
scene generators, the perspective projection, the raw-file reader and the
lazy reconstruction of a result) mark their fresh array read-only before
wrapping it, so an image is never copied. An abundance matrix never
adopts its payload: its clamp of tiny negatives to zero always allocates,
and that one fresh array becomes the payload. Instances are immutable
after construction; every function in this module is pure and safe to
call concurrently.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .trace import UnmixResult

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

# Pixels per block of every pass over a P x N image that would otherwise
# need a P x N temporary: finiteness checks, squared errors, the simplex QP.
_BLOCK = 2048


def _index_summary(indices, limit: int = 8) -> str:
    """``"<count> (first indices [...])"``, naming at most ``limit`` indices
    so that messages stay short on large images."""
    idx = np.asarray(indices).ravel()
    return f"{idx.size} (first indices {idx[:limit].tolist()})"


def _warn(message: str) -> None:
    """Issue ``message`` as a ``RuntimeWarning`` at the first stack frame
    outside twolmm's library modules, so that it points at the line that
    called into the library; :mod:`twolmm.cli` counts as such a caller."""
    frame, level = sys._getframe(1), 2
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if not module.startswith("twolmm.") or module == "twolmm.cli":
            break
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _freeze(data, dtype=np.float64, flat: bool = False) -> np.ndarray:
    """How a value type stores an array from its caller: ``data`` itself when
    it is a read-only, Fortran-ordered ``dtype`` array that owns its memory,
    else a read-only Fortran-ordered ``dtype`` copy, flattened in row-major
    order first with ``flat``. Complex data is refused, not truncated."""
    data = np.asarray(data)
    if np.iscomplexobj(data):
        raise ValueError("complex values are not accepted")
    if flat and data.ndim != 1:
        data = data.ravel()
    flags = data.flags
    if data.dtype == dtype and flags.f_contiguous and flags.owndata and not flags.writeable:
        return data
    out = np.array(data, dtype=dtype, order="F")
    out.flags.writeable = False
    return out


def _all_finite(data: np.ndarray) -> bool:
    """Whether every entry of the 2-D ``data`` is finite, checked over
    blocks of columns so that no P x N mask is formed."""
    return all(
        np.isfinite(data[:, start : start + _BLOCK]).all()
        for start in range(0, data.shape[1], _BLOCK)
    )


def _checked_matrix(data, name: str, axes: str, sizes: str) -> np.ndarray:
    """``data`` as a 2-D array, after the checks of all three matrix
    containers: 2-D ``axes``, at least ``sizes``, and finite
    (:func:`_all_finite`). The messages name ``name`` (``"image"``,
    ``"endmember matrix"``) and its data by the first word of ``name``."""
    kind = name.split()[0]
    data = np.atleast_2d(np.asarray(data))
    if data.ndim != 2:
        raise ValueError(f"{kind} data must be a 2-D {axes} array")
    if data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError(f"{name} must have at least {sizes}")
    if not _all_finite(data):
        raise ValueError(f"{kind} data contains non-finite values")
    return data


def _squared_error(x: np.ndarray, b: np.ndarray | None, c: np.ndarray) -> float:
    """``||X - B C||^2`` for ``x`` (P, N), ``b`` (P, K) and ``c`` (K, N), or
    ``||X - C||^2`` for a ``c`` (P, N) when ``b`` is None.

    One Fortran-ordered P x ``_BLOCK`` buffer, allocated once, holds each
    block of pixels in turn: the block's product ``B C[:, block]``, which
    BLAS writes as the C-ordered transpose ``C[:, block]^T B^T`` (or a copy
    of ``C[:, block]``), minus ``X[:, block]`` in place. Each block's
    squares are summed in the buffer's memory order, pixel by pixel, and
    the block sums are added in pixel order; so neither the product nor
    the residual is ever held whole, and the subtraction runs along the
    image's own column-major layout."""
    p, n = x.shape
    buf = np.empty((p, min(n, _BLOCK)), order="F")
    total = 0.0
    for start in range(0, n, _BLOCK):
        part = slice(start, start + _BLOCK)
        resid = buf[:, : n - start]
        if b is None:
            np.copyto(resid, c[:, part])
        else:
            np.matmul(c[:, part].T, b.T, out=resid.T)
        resid -= x[:, part]
        total += float(np.vdot(resid.T, resid.T))
    return total


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
        data = _checked_matrix(self.data, "image", "(bands, pixels)", "one band and one pixel")
        n = data.shape[1]
        width, height = self.width, self.height
        if width < 0 or height < 0:
            raise ValueError(f"grid dimensions must be nonnegative, got {width}x{height}")
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
    """Reference endmember spectra: (P, K) matrix, one column per material,
    named by its column index.

    Entries must be finite and nonnegative and no column may be all-zero
    (a column is zero when every entry compares equal to 0; nothing is
    squared, so tiny and huge columns pass).
    """

    data: np.ndarray

    def __post_init__(self):
        data = _checked_matrix(
            self.data, "endmember matrix", "(bands, K)", "one band and one endmember"
        )
        if np.any(data < 0):
            raise ValueError("endmember data must be nonnegative")
        zero = ~np.any(data != 0, axis=0)
        if np.any(zero):
            bad = np.flatnonzero(zero).tolist()
            raise ValueError(f"endmember columns {bad} are identically zero")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def band_count(self) -> int:
        return self.data.shape[0]

    @property
    def endmember_count(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AbundanceMatrix:
    """Fractional abundances on the simplex: (K, N) matrix, one column per
    pixel.

    Entries must be nonnegative (up to ``ANC_TOL``; tiny negatives are set
    to zero), and every column must sum to one within ``ASC_TOL`` or be
    exactly zero, the placeholder of a degenerate pixel (see
    :func:`normalize_abundances`).
    """

    data: np.ndarray

    def __post_init__(self):
        data = _checked_matrix(
            self.data, "abundance matrix", "(K, pixels)", "one endmember and one pixel"
        )
        if np.any(data < -ANC_TOL):
            raise ValueError("abundance data violates nonnegativity")
        # One copy: _freeze adopts the clamp's fresh read-only Fortran array.
        data = np.maximum(data, 0.0, order="F")
        data.flags.writeable = False
        data = _freeze(data)
        sums = data.sum(axis=0)
        ok = (np.abs(sums - 1.0) <= ASC_TOL) | (sums == 0.0)
        if not np.all(ok):
            bad = _index_summary(np.flatnonzero(~ok))
            raise ValueError(f"columns that do not sum to one: {bad}")
        object.__setattr__(self, "data", data)

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
        for name in ("s_e", "s_x"):
            object.__setattr__(self, name, _freeze(getattr(self, name), flat=True))
        s_e, s_x = self.s_e, self.s_x
        if not (np.all(np.isfinite(s_e)) and np.all(np.isfinite(s_x))):
            raise ValueError("scaling vectors contain non-finite values")
        if not (0.0 < self.lower <= self.upper):
            raise ValueError("scaling bounds must satisfy 0 < lower <= upper")
        if np.any(s_e < self.lower) or np.any(s_e > self.upper):
            raise ValueError("endmember scalings violate the box bounds")
        if np.any(s_x <= 0):
            raise ValueError("pixel scalings must be strictly positive")


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


def rmse_x(x_true: HsiImage, x_est: HsiImage | UnmixResult) -> float:
    """Root mean square reconstruction error over all bands and pixels.

    Returns ``sqrt(sum_n ||x_n - xhat_n||^2 / (N * P))``, accumulated over
    blocks of pixels (:func:`_squared_error`). ``x_est`` is an
    :class:`HsiImage`, or an unmixing result (:class:`twolmm.trace.UnmixResult`),
    whose reconstruction is then evaluated from its ``factors`` without
    being formed. For two images the error is symmetric in its arguments
    and zero iff the images are identical.
    """
    x = x_true.data
    b, c = (None, x_est.data) if isinstance(x_est, HsiImage) else x_est.factors
    shape = c.shape if b is None else (b.shape[0], c.shape[1])
    if x.shape != shape:
        raise ValueError(f"image shapes differ: {x.shape} vs {shape}")
    return math.sqrt(_squared_error(x, b, c) / x.size)


def rmse_a(a_true: AbundanceMatrix, a_est: AbundanceMatrix) -> float:
    """Root mean square abundance error over all endmembers and pixels.

    Both inputs lie on the simplex, as every :class:`AbundanceMatrix` does.
    The per-pixel squared errors are summed over all pixels and divided by
    K*N before the square root, mirroring the structure of :func:`rmse_x`.
    """
    if a_true.data.shape != a_est.data.shape:
        raise ValueError(
            f"abundance shapes differ: {a_true.data.shape} vs {a_est.data.shape}"
        )
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
        abundances=AbundanceMatrix(a),
        s_x=s_x,
        degenerate_pixels=degenerate,
    )
