"""Synthetic scene generation for the benchmark harness.

Builds abundance maps from spatially correlated Gaussian fields, composes
scenes with two-step scaling variability or with topography-induced
variability rendered through a simplified single-scattering reflectance
model, and calibrates additive white Gaussian noise to a requested SNR
(defined on the mean squared entry of the clean image). All generators
are pure functions of their seed.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    _BLOCK, AbundanceMatrix, EndmemberMatrix, HsiImage, ScalingState, _as_real, _freeze,
    _index_summary,
)

__all__ = [
    "GrfSpec",
    "generate_grf_abundances",
    "TwoLmmScene",
    "generate_2lmm_scene",
    "apply_noise",
    "hapke_relative_reflectance",
    "hapke_invert",
    "Dsm",
    "HapkeGeometry",
    "dsm_to_geometry",
    "smoothed_random_dsm",
    "HapkeScene",
    "generate_hapke_scene",
    "synthetic_endmembers",
]

# Contrast applied to the standardized random fields before the softmax;
# high enough that smooth scenes contain near-pure regions for every
# material, which pixel-based extraction needs.
_FIELD_CONTRAST = 6.0

# Spread, as a share of the mean's magnitude, at or below which a field is
# constant: filtered down to its mean, a field keeps a spread of at most
# about 3 machine epsilons of it, which standardizing would blow up into noise.
_FLAT_SPREAD = 8 * 2.0**-52


@dataclass(frozen=True)
class GrfSpec:
    """Parameters of a random abundance map: grid size, spatial correlation
    length in pixels, number of endmembers, and seed."""

    width: int
    height: int
    correlation_length: float = 15.0
    k: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if not (0 < self.correlation_length < math.inf):
            raise ValueError("correlation length must be positive and finite")
        if self.k < 1:
            raise ValueError("endmember count must be positive")


def _smooth_field(rng: np.random.Generator, height: int, width: int, scale: float) -> np.ndarray:
    """White noise filtered with a Gaussian kernel, synthesized spectrally."""
    noise = rng.standard_normal((height, width))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    transfer = np.exp(-2.0 * math.pi**2 * scale**2 * (fx**2 + fy**2))
    field = np.fft.ifft2(np.fft.fft2(noise) * transfer).real
    mean, std = field.mean(), field.std()
    if std <= _FLAT_SPREAD * abs(mean):
        return np.zeros_like(field)
    return (field - mean) / std


def generate_grf_abundances(spec: GrfSpec) -> AbundanceMatrix:
    """Spatially smooth abundance maps on the simplex.

    One Gaussian-filtered white-noise field per endmember, standardized,
    amplified, and mapped to the simplex with a per-pixel softmax. Columns
    are indexed row-major over the grid.
    """
    rng = np.random.default_rng(spec.seed)
    fields = np.stack(
        [
            _smooth_field(rng, spec.height, spec.width, spec.correlation_length).ravel()
            for _ in range(spec.k)
        ]
    )
    logits = _FIELD_CONTRAST * fields
    logits -= logits.max(axis=0, keepdims=True)
    weights = np.exp(logits)
    a = weights / weights.sum(axis=0, keepdims=True)
    return AbundanceMatrix(a)


@dataclass(frozen=True)
class TwoLmmScene:
    """A generated scene with two-step scaling variability.

    ``image`` is the observed (noisy) image, ``scaling`` the drawn
    ground-truth factors, and ``endmembers``/``abundances`` the inputs they
    scale. :attr:`clean`, the noise-free composition, is recomputed from
    these on first access and cached; the noise realization is exactly
    ``image.data - clean.data``.
    """

    image: HsiImage
    scaling: ScalingState
    endmembers: EndmemberMatrix
    abundances: AbundanceMatrix

    @cached_property
    def clean(self) -> HsiImage:
        """``E diag(s_e) A diag(s_x)``, bit for bit the composition the
        noise was added to, composed into a buffer the image adopts
        without a copy."""
        clean = _compose(self.endmembers, self.abundances, self.scaling)
        clean.flags.writeable = False
        return HsiImage(clean, width=self.image.width, height=self.image.height)


def _compose(endmembers: EndmemberMatrix, abundances: AbundanceMatrix, scaling: ScalingState):
    """The product ``E diag(s_e) A diag(s_x)`` as a new Fortran-ordered
    array, written by BLAS as the C-ordered transpose ``(A diag(s_x))^T
    (E diag(s_e))^T``; a test pins it bit for bit to the C-ordered
    ``(E * s_e) @ (A * s_x)`` at a benchmark's size."""
    out = np.empty((endmembers.band_count, abundances.pixel_count), order="F")
    np.matmul((abundances.data * scaling.s_x).T, (endmembers.data * scaling.s_e).T, out=out.T)
    return out


def _check_snr(snr_db: float | None) -> None:
    """Raise unless ``snr_db`` is None, finite or ``+inf``."""
    if snr_db is not None and not (math.isfinite(snr_db) or snr_db == math.inf):
        raise ValueError(f"snr_db must be finite, +inf or None, got {snr_db}")


def _add_noise(out: np.ndarray, snr_db: float | None, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise of the SNR ``snr_db`` (none for None or
    ``inf``) to the image ``out`` in place, and return it read-only.

    ``out`` is taken a block of rows at a time through one C-ordered buffer
    of about ``_BLOCK`` pixels (or one row), allocated once and reused by
    both passes. The first pass squares each block into the buffer and sums
    it with ``np.add.reduce``; the noise power is the mean squared entry
    over the blocks. The second draws each block's noise into the buffer
    with ``rng.standard_normal``, scales it by ``sigma`` in place and adds
    it to the block's rows. So the noise is drawn in C order over the
    (P, N) shape and equals ``rng.normal(0, sigma, size=out.shape)`` bit for
    bit, no more of it is held at a time than the buffer, and no BLAS call
    is made, so the bits do not depend on the BLAS thread count. Callers
    check ``snr_db`` with :func:`_check_snr`.
    """
    if snr_db is not None and snr_db != math.inf:
        p, n = out.shape
        rows = min(p, max(1, _BLOCK * p // max(n, 1)))
        buf = np.empty((rows, n))
        blocks = [(slice(i, i + rows), buf[: min(rows, p - i)]) for i in range(0, p, rows)]
        squares = 0.0
        for part, block in blocks:
            np.square(out[part], out=block)
            squares += float(np.add.reduce(block, axis=None))
        signal_power = squares / out.size
        sigma = math.sqrt(signal_power / 10.0 ** (snr_db / 10.0))
        for part, noise in blocks:
            rng.standard_normal(out=noise)
            noise *= sigma
            out[part] += noise
    out.flags.writeable = False
    return out


def generate_2lmm_scene(
    endmembers: EndmemberMatrix,
    abundances: AbundanceMatrix,
    s_range: tuple[float, float] = (1.0 / 3.0, 3.0),
    snr_db: float | None = 40.0,
    seed: int = 0,
    width: int = 0,
    height: int = 0,
) -> TwoLmmScene:
    """Compose a scene ``E diag(s_e) A diag(s_x)`` plus calibrated noise.

    Draws K + N scaling factors uniformly from ``s_range`` (endmember
    scales first, then pixel scales), mixes, and adds white Gaussian noise
    whose variance realizes the requested SNR. ``snr_db = None`` or ``inf``
    skips the noise entirely; NaN and ``-inf`` raise ``ValueError``.
    """
    _check_snr(snr_db)
    if endmembers.endmember_count != abundances.endmember_count:
        raise ValueError("endmember/abundance sizes are inconsistent")
    lo, hi = s_range
    if not (0.0 < lo <= hi):
        raise ValueError("scaling range must satisfy 0 < lo <= hi")
    k = endmembers.endmember_count
    n = abundances.pixel_count
    rng = np.random.default_rng(seed)
    s_e = rng.uniform(lo, hi, size=k)
    s_x = rng.uniform(lo, hi, size=n)
    s_e.flags.writeable = s_x.flags.writeable = False  # so that the state adopts them
    scaling = ScalingState(s_e=s_e, s_x=s_x, lower=lo, upper=hi)
    noisy = _add_noise(_compose(endmembers, abundances, scaling), snr_db, rng)
    return TwoLmmScene(
        image=HsiImage(noisy, width=width, height=height),
        scaling=scaling,
        endmembers=endmembers,
        abundances=abundances,
    )


def apply_noise(clean: HsiImage, snr_db: float | None, seed: int = 0) -> HsiImage:
    """Add SNR-calibrated white Gaussian noise to a clean image."""
    _check_snr(snr_db)
    rng = np.random.default_rng(seed)
    noisy = _add_noise(np.array(clean.data, order="F"), snr_db, rng)
    return HsiImage(noisy, width=clean.width, height=clean.height)


def _are_cosines(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` lies in (0, 1]."""
    return bool(np.all((x > 0) & (x <= 1)))


def _check_hapke(w: np.ndarray, mu: np.ndarray, mu0: np.ndarray) -> None:
    """Raise unless the albedo ``w`` lies in [0, 1] and the cosines in (0, 1]."""
    if not np.all((w >= 0) & (w <= 1)):
        raise ValueError("single-scattering albedo must lie in [0, 1]")
    if not (_are_cosines(mu) and _are_cosines(mu0)):
        raise ValueError("angle cosines must lie in (0, 1]")


def _render_hapke(w, root, mu, mu0, out=None, tmp=None) -> np.ndarray:
    """The relative reflectance of the albedo ``w`` at the cosines
    ``mu``/``mu0``, given ``root = sqrt(1 - w)``, written into ``out``
    with ``tmp`` as scratch; both must have the broadcast shape, and are
    allocated in the layout numpy gives ``2 mu * root`` when not given.

    The one copy of the formula, with checked inputs: the product
    ``(1 + 2 mu root) (1 + 2 mu0 root)`` is formed in ``out`` and ``w`` is
    divided by it in place, each step the same operation in the same order
    as the expression would take, so the bits do not depend on the buffers.
    """
    # A 0-d product comes back as a scalar, which the steps below cannot write.
    out = np.asarray(np.multiply(2.0 * mu, root, out=out))
    out += 1.0
    tmp = np.asarray(np.multiply(2.0 * mu0, root, out=tmp))
    tmp += 1.0
    out *= tmp
    return np.divide(w, out, out=out)


def hapke_relative_reflectance(w, mu, mu0):
    """Reflectance relative to a white reference panel.

    ``y = w / ((1 + 2 mu sqrt(1-w)) (1 + 2 mu0 sqrt(1-w)))`` where ``w`` is
    the single-scattering albedo in [0, 1] and ``mu``/``mu0`` are the
    cosines of the reflected/incident angles in (0, 1]. Applies
    elementwise over spectra; a perfectly white material maps to 1 for any
    geometry. Scenes render through the same kernel, block by block, and
    check their albedo and cosines once.
    """
    w, mu, mu0 = _as_real(w), _as_real(mu), _as_real(mu0)
    _check_hapke(w, mu, mu0)
    y = _render_hapke(w, np.sqrt(1.0 - w), mu, mu0)
    return y if y.ndim else float(y)


def hapke_invert(y, mu, mu0):
    """Recover the single-scattering albedo from relative reflectance.

    Substituting ``u = sqrt(1-w)`` turns the forward model into the
    quadratic ``(4 y mu mu0 + 1) u^2 + 2 y (mu + mu0) u + (y - 1) = 0``,
    which has exactly one root in [0, 1] for physical inputs; the albedo
    is ``1 - u^2``. Round-trips with the forward model to 1e-12.
    """
    y, mu, mu0 = _as_real(y), _as_real(mu), _as_real(mu0)
    if not np.all((y >= 0) & (y <= 1)):
        raise ValueError("relative reflectance must lie in [0, 1]")
    if not (_are_cosines(mu) and _are_cosines(mu0)):
        raise ValueError("angle cosines must lie in (0, 1]")
    a = 4.0 * y * mu * mu0 + 1.0
    b = 2.0 * y * (mu + mu0)
    c = y - 1.0
    disc = b * b - 4.0 * a * c
    if np.any(disc < 0):
        raise ValueError("no physical albedo exists for these inputs")
    u = (-b + np.sqrt(disc)) / (2.0 * a)
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise ValueError("no albedo root in [0, 1]; input is non-physical")
    u = np.clip(u, 0.0, 1.0)
    w = 1.0 - u * u
    return w if w.ndim else float(w)


@dataclass(frozen=True)
class Dsm:
    """Digital surface model: a height grid (meters) with square cells."""

    heights: np.ndarray
    cell_size: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "heights", _freeze(np.atleast_2d(self.heights)))
        if not (0 < self.cell_size < math.inf):
            raise ValueError("cell size must be positive and finite")


@dataclass(frozen=True)
class HapkeGeometry:
    """Per-pixel view/illumination cosines derived from a surface model.

    ``mu``/``mu0`` are flattened row-major over the grid. ``shadowed``
    marks self-shadowed pixels (incidence cosine <= 0) and pixels facing
    away from the sensor; those carry no usable geometry.
    """

    mu: np.ndarray
    mu0: np.ndarray
    shadowed: np.ndarray

    def __post_init__(self):
        for name, dtype in (("mu", np.float64), ("mu0", np.float64), ("shadowed", bool)):
            object.__setattr__(self, name, _freeze(getattr(self, name), dtype, flat=True))
        mu, mu0, shadowed = self.mu, self.mu0, self.shadowed
        if not (mu.size == mu0.size == shadowed.size):
            raise ValueError("geometry arrays must have equal length")
        keep = ~shadowed
        if not _are_cosines(mu[keep]):
            raise ValueError("retained view cosines must lie in (0, 1]")
        if not _are_cosines(mu0[keep]):
            raise ValueError("retained incidence cosines must lie in (0, 1]")

    @property
    def pixel_count(self) -> int:
        return self.mu.size


def _unit(vec, name: str) -> np.ndarray:
    v = _as_real(vec).ravel()
    if v.size != 3:
        raise ValueError(f"{name} must be a 3-vector")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError(f"{name} must be nonzero")
    return v / norm


def dsm_to_geometry(dsm: Dsm, sun_dir) -> HapkeGeometry:
    """Per-cell illumination/view cosines from central-difference normals.

    The surface normal of each cell is ``(-dz/dx, -dz/dy, 1)`` normalized;
    ``mu0`` is its dot product with the sun direction (cells with
    ``mu0 <= 0`` are marked shadowed) and ``mu`` with the nadir view
    direction ``(0, 0, 1)``, which is the normal's z component. Grids
    smaller than 3x3 are rejected.
    """
    h = dsm.heights
    if h.shape[0] < 3 or h.shape[1] < 3:
        raise ValueError("surface grid must be at least 3x3")
    sun = _unit(sun_dir, "sun direction")
    dz_dy, dz_dx = np.gradient(h, dsm.cell_size)
    denom = np.sqrt(dz_dx**2 + dz_dy**2 + 1.0)
    nx, ny, nz = -dz_dx / denom, -dz_dy / denom, 1.0 / denom
    mu0 = nx * sun[0] + ny * sun[1] + nz * sun[2]
    mu = nz
    shadowed = (mu0 <= 0.0) | (mu <= 0.0)
    mu = np.minimum(mu, 1.0)
    mu0 = np.minimum(mu0, 1.0)
    return HapkeGeometry(mu=mu.ravel(), mu0=mu0.ravel(), shadowed=shadowed.ravel())


def smoothed_random_dsm(
    width: int,
    height: int,
    relief: float = 30.0,
    smoothness: float = 6.0,
    cell_size: float = 10.0,
    seed: int = 0,
) -> Dsm:
    """Synthetic terrain: Gaussian-smoothed white-noise heights.

    ``relief`` sets the height standard deviation in meters and
    ``smoothness`` the correlation length in cells; both must be finite.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    if not (math.isfinite(relief) and math.isfinite(smoothness)):
        raise ValueError("relief and smoothness must be finite")
    rng = np.random.default_rng(seed)
    field = _smooth_field(rng, height, width, smoothness)
    return Dsm(heights=relief * field, cell_size=cell_size)


@dataclass(frozen=True)
class HapkeScene:
    """A scene with topography-induced endmember variability.

    ``image`` is the observed (noisy) image, ``geometry`` the per-pixel
    cosines, ``albedo`` the (P, K) single-scattering albedos of the
    reference endmembers and ``abundances`` the ground truth they are
    mixed with. The oracle arrays are derived from these on first access
    and cached, so a scene holds one image until they are read:
    :attr:`endmembers_per_pixel` (P, K, N) holds the rendered endmember
    matrix of every pixel, and :attr:`clean` is the noise-free mixture,
    bit for bit the one the noise was added to. Both are rendered block by
    block on the calling thread and one helper, as the image was.
    """

    image: HsiImage
    geometry: HapkeGeometry
    albedo: np.ndarray
    abundances: AbundanceMatrix

    @cached_property
    def endmembers_per_pixel(self) -> np.ndarray:
        """The read-only (P, K, N) tensor of rendered endmember spectra,
        rendered block by block in two lanes (:func:`_hapke_lanes`)."""
        p, k = self.albedo.shape
        out = np.empty((p, k, self.geometry.pixel_count))

        def put(part, rendered):
            out[:, :, part] = rendered

        _hapke_lanes(self.albedo, self.geometry, put)
        out.flags.writeable = False
        return out

    @cached_property
    def clean(self) -> HsiImage:
        """The noise-free image, rendered and mixed again block by block
        into a buffer the image adopts without a copy."""
        clean = _hapke_mix(self.albedo, self.geometry, self.abundances)
        clean.flags.writeable = False
        return HsiImage(clean, width=self.image.width, height=self.image.height)


def _hapke_lanes(albedo: np.ndarray, geometry: HapkeGeometry, use) -> None:
    """Call ``use(part, rendered)`` for consecutive slices ``part`` of
    ``max(1, _BLOCK // (2K))`` pixels: ``rendered`` is the (P, K, len(part))
    :func:`hapke_relative_reflectance` of the (P, K) ``albedo`` at those
    pixels' cosines, valid until ``use`` returns. The albedo and cosines
    are checked once, here.

    Even-numbered blocks run on the calling thread and odd-numbered ones on
    one helper thread, which starts only when there are two blocks or more.
    Each lane renders through its own two buffers of one block, allocated
    here before the helper starts, so the two lanes together hold what one
    block of ``_BLOCK // K`` pixels and its scratch would. ``use`` must
    write only what its ``part``
    owns, and neither it nor the kernel calls BLAS. The helper runs in a
    copy of the caller's context, so the caller's ``np.errstate`` governs
    it; it is joined before this returns or raises, and its exception is
    raised here.

    Every block is laid out as a new array of its size with the endmembers
    outermost and the pixels contiguous. numpy's einsum sums a block whose
    K is the contiguous axis in another order when the block is one pixel,
    and the mixture would then differ from that of the whole tensor in its
    last bits (a test pins a lone last pixel at K = 12).
    """
    w = albedo[:, :, None]
    mu, mu0 = geometry.mu, geometry.mu0
    _check_hapke(w, mu, mu0)
    root = np.sqrt(1.0 - w)
    p, k = albedo.shape
    n = geometry.pixel_count
    step = max(1, _BLOCK // (2 * k))
    starts = range(0, n, step)

    def run(lane_starts, out_buf, tmp_buf):
        for start in lane_starts:
            part = slice(start, min(start + step, n))
            shape = (k, p, part.stop - start)
            out, tmp = (
                buf[: math.prod(shape)].reshape(shape).transpose(1, 0, 2)
                for buf in (out_buf, tmp_buf)
            )
            use(part, _render_hapke(w, root, mu[part], mu0[part], out, tmp))

    size = k * p * min(step, n)
    lanes = [
        (starts[first::2], np.empty(size), np.empty(size)) for first in range(min(2, len(starts)))
    ]
    if len(lanes) < 2:
        for lane in lanes:
            run(*lane)
        return
    errors = []

    def helper():
        try:
            run(*lanes[1])
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        run(*lanes[0])
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _hapke_mix(albedo: np.ndarray, geometry: HapkeGeometry, abundances: AbundanceMatrix):
    """The (P, N) mixture ``sum_k E_n[:, k] a[k, n]`` of the rendered
    endmembers as a new Fortran-ordered array, each block mixed into its own
    contiguous columns (:func:`_hapke_lanes`): equal bit for bit to
    ``einsum("pkn,kn->pn")`` over the whole tensor but holding two blocks of
    it at a time."""
    clean = np.empty((albedo.shape[0], geometry.pixel_count), order="F")
    a = abundances.data

    def mix(part, rendered):
        np.einsum("pkn,kn->pn", rendered, a[:, part], out=clean[:, part])

    _hapke_lanes(albedo, geometry, mix)
    return clean


def generate_hapke_scene(
    endmembers: EndmemberMatrix,
    abundances: AbundanceMatrix,
    dsm: Dsm,
    sun_dir=(0.0, 0.0, 1.0),
    snr_db: float | None = 40.0,
    seed: int = 0,
) -> HapkeScene:
    """Render per-pixel endmembers from terrain geometry and mix them.

    The reference endmember reflectances (which must lie in [0, 1]) are
    inverted once to single-scattering albedos at the reference geometry
    ``mu = mu0 = 1``, re-rendered per pixel with the cell's cosines, and
    mixed with the ground-truth abundances; noise is SNR-calibrated. Any
    self-shadowed cell aborts generation with its indices, since clamping
    would fabricate radiometry.

    Rendering and mixing run over blocks of pixels, so the (P, K, N)
    tensor is never formed here: the mixture is written into the image's
    buffer and the noise added in place, so generation holds one image and
    a few blocks, whatever K. The blocks are split between the calling
    thread and one helper thread, which renders and mixes the odd-numbered
    ones with no BLAS call; each block writes only its own columns, so the
    image has the same bits as one thread would give. The scene keeps only
    the noisy image; its clean image and tensor are derived again when
    read.
    """
    _check_snr(snr_db)
    e0 = endmembers.data
    if np.any(e0 > 1.0):
        raise ValueError("reference reflectances must lie in [0, 1] for inversion")
    geom = dsm_to_geometry(dsm, sun_dir)
    n = abundances.pixel_count
    if geom.pixel_count != n:
        raise ValueError(
            f"surface grid has {geom.pixel_count} cells but the scene has {n} pixels"
        )
    if np.any(geom.shadowed):
        raise ValueError(
            "pixels self-shadowed or facing away from the sensor (choose a "
            "gentler surface or a higher sun): "
            + _index_summary(np.flatnonzero(geom.shadowed))
        )
    albedo = hapke_invert(e0, 1.0, 1.0)
    albedo.flags.writeable = False
    rng = np.random.default_rng(seed)
    noisy = _add_noise(_hapke_mix(albedo, geom, abundances), snr_db, rng)
    height, width = dsm.heights.shape
    return HapkeScene(
        image=HsiImage(noisy, width=width, height=height),
        geometry=geom,
        albedo=albedo,
        abundances=abundances,
    )


def synthetic_endmembers(
    bands: int,
    count: int,
    seed: int = 0,
    reflectance_range: tuple[float, float] = (0.05, 0.95),
) -> EndmemberMatrix:
    """Smooth synthetic reflectance spectra.

    Each spectrum is a gentle baseline ramp plus a few Gaussian bumps with
    random centers, widths, and signed amplitudes, then rescaled into
    ``reflectance_range`` (kept inside (0, 1) so the spectra stay in the
    invertible reflectance domain). Topography benchmarks should prefer a
    moderate ceiling: near-white materials carry almost no geometric
    signature in the relative-reflectance model.
    """
    if bands < 2 or count < 1:
        raise ValueError("need at least two bands and one endmember")
    lo, hi = reflectance_range
    if not (0.0 < lo < hi <= 1.0):
        raise ValueError("reflectance range must satisfy 0 < lo < hi <= 1")
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, bands)
    spectra = np.empty((bands, count))
    for k in range(count):
        base = rng.uniform(0.15, 0.55)
        slope = rng.uniform(-0.2, 0.2)
        curve = base + slope * grid
        for _ in range(rng.integers(3, 6)):
            center = rng.uniform(0.0, 1.0)
            sigma = rng.uniform(0.05, 0.2)
            amp = rng.uniform(-0.25, 0.35)
            curve = curve + amp * np.exp(-0.5 * ((grid - center) / sigma) ** 2)
        spectra[:, k] = np.clip(curve, lo, hi)
    span = spectra.max() - spectra.min()
    if span > 0:
        spectra = lo + (spectra - spectra.min()) / span * (hi - lo)
    return EndmemberMatrix(spectra)
