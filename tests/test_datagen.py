"""Synthetic scene generators: random fields, scaling scenes, topography."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twolmm
from twolmm import (
    Dsm,
    GrfSpec,
    HapkeGeometry,
    apply_noise,
    dsm_to_geometry,
    generate_2lmm_scene,
    generate_grf_abundances,
    generate_hapke_scene,
    hapke_invert,
    hapke_relative_reflectance,
    smoothed_random_dsm,
    synthetic_endmembers,
)
from twolmm import datagen
from twolmm.core import _BLOCK
from twolmm.datagen import _add_noise, _smooth_field

from scenes import SHORT_LENGTH, grf_map


def spatial_autocorrelation(field: np.ndarray, lag: int) -> float:
    a = field[:, :-lag].ravel()
    b = field[:, lag:].ravel()
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).mean() / (a.std() * b.std() + 1e-30))


class TestGrfAbundances:
    def test_single_endmember_is_all_ones(self):
        ab = generate_grf_abundances(GrfSpec(width=6, height=5, k=1, seed=0))
        np.testing.assert_array_equal(ab.data, np.ones((1, 30)))

    def test_columns_on_simplex(self):
        ab = generate_grf_abundances(GrfSpec(width=20, height=10, k=4, seed=1))
        assert ab.data.min() >= 0.0
        np.testing.assert_allclose(ab.data.sum(axis=0), 1.0, atol=1e-12)

    def test_spatial_correlation_decays_with_lag(self):
        lag = 5
        near, far = [], []
        for seed in range(10):
            ab = generate_grf_abundances(
                GrfSpec(width=60, height=60, correlation_length=float(lag), k=2, seed=seed)
            )
            field = ab.data[0].reshape(60, 60)
            near.append(spatial_autocorrelation(field, lag))
            far.append(spatial_autocorrelation(field, 4 * lag))
        assert np.mean(near) > np.mean(far)

    def test_deterministic(self):
        spec = GrfSpec(width=12, height=12, k=3, seed=7)
        a1 = generate_grf_abundances(spec)
        a2 = generate_grf_abundances(spec)
        np.testing.assert_array_equal(a1.data, a2.data)

    @pytest.mark.parametrize("length", [math.nan, math.inf, 0.0])
    def test_correlation_length_must_be_positive_and_finite(self, length):
        with pytest.raises(ValueError, match="correlation length"):
            GrfSpec(width=6, height=6, correlation_length=length)

    def test_field_filtered_down_to_its_mean_is_zero(self):
        # The spread left is the inverse FFT's rounding, not a field.
        field = _smooth_field(np.random.default_rng(0), 20, 20, 1e8)
        np.testing.assert_array_equal(field, 0.0)

    def test_faint_field_is_still_standardized(self):
        # At 12 pixels a correlation length of 15 passes the lowest
        # frequencies at about 4e-14: a spread of some 250 machine epsilons
        # of the mean, far above the rounding of a flat field.
        field = _smooth_field(np.random.default_rng(0), 12, 12, 15.0)
        assert abs(field.std() - 1.0) < 1e-3

    @pytest.mark.parametrize("length", [1e3, 1e8])
    def test_correlation_far_beyond_the_grid_is_the_uniform_mixture(self, length):
        ab = generate_grf_abundances(
            GrfSpec(width=20, height=20, correlation_length=length, k=3, seed=0)
        )
        np.testing.assert_array_equal(ab.data, 1.0 / 3.0)


class TestGenerate2lmmScene:
    def test_degenerate_draw_is_exact_lmm(self):
        em = synthetic_endmembers(30, 3, seed=2)
        ab = grf_map(8, 8, 3, seed=3, correlation_length=SHORT_LENGTH)
        scene = generate_2lmm_scene(em, ab, s_range=(1.0, 1.0), snr_db=None, seed=4)
        np.testing.assert_allclose(scene.image.data, em.data @ ab.data, atol=1e-14)
        np.testing.assert_array_equal(scene.scaling.s_e, 1.0)

    def test_recomposition_identity(self):
        # 120 bands x 10 000 pixels takes BLAS's blocked path, as the
        # benchmark scenes do: the Fortran-ordered composition must still
        # equal the C-ordered product bit for bit.
        for bands, side in [(40, 10), (120, 100)]:
            em = synthetic_endmembers(bands, 3, seed=5)
            ab = grf_map(side, side, 3, seed=6, correlation_length=SHORT_LENGTH)
            scene = generate_2lmm_scene(em, ab, snr_db=20.0, seed=7, width=side, height=side)
            rebuilt = (em.data * scene.scaling.s_e) @ (ab.data * scene.scaling.s_x)
            assert "clean" not in vars(scene)  # composed again on first access
            np.testing.assert_array_equal(scene.clean.data, rebuilt)
            assert scene.clean is scene.clean
            noise = scene.image.data - scene.clean.data
            assert np.abs(noise).max() > 0.0

    def test_achieved_snr_within_tolerance(self):
        em = synthetic_endmembers(60, 3, seed=8)
        ab = generate_grf_abundances(GrfSpec(width=100, height=100, k=3, seed=9))
        scene = generate_2lmm_scene(em, ab, snr_db=40.0, seed=10, width=100, height=100)
        noise = scene.image.data - scene.clean.data
        achieved = 10.0 * np.log10(np.mean(scene.clean.data**2) / np.mean(noise**2))
        assert abs(achieved - 40.0) <= 0.2

    def test_scaling_draws_within_range(self):
        em = synthetic_endmembers(20, 3, seed=11)
        ab = generate_grf_abundances(GrfSpec(width=15, height=15, k=3, seed=12))
        scene = generate_2lmm_scene(em, ab, s_range=(0.5, 2.0), snr_db=None, seed=13)
        assert scene.scaling.s_e.min() >= 0.5
        assert scene.scaling.s_e.max() <= 2.0
        assert scene.scaling.s_x.min() >= 0.5
        assert scene.scaling.s_x.max() <= 2.0

    def test_deterministic(self):
        em = synthetic_endmembers(20, 2, seed=14)
        ab = grf_map(6, 6, 2, seed=15, correlation_length=SHORT_LENGTH)
        s1 = generate_2lmm_scene(em, ab, snr_db=30.0, seed=16)
        s2 = generate_2lmm_scene(em, ab, snr_db=30.0, seed=16)
        np.testing.assert_array_equal(s1.image.data, s2.image.data)

    def test_generation_peaks_below_one_and_a_half_images(self):
        # The composition is the image's buffer and the noise is added in
        # place; what else lives is O(K N) and a block of noise or squares.
        em = synthetic_endmembers(120, 3, seed=17)
        ab = generate_grf_abundances(GrfSpec(width=100, height=100, k=3, seed=18))
        tracemalloc.start()
        try:
            scene = generate_2lmm_scene(em, ab, snr_db=40.0, seed=19, width=100, height=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * scene.image.data.nbytes


class TestHapkeModel:
    def test_white_panel_normalization(self):
        assert hapke_relative_reflectance(1.0, 0.7, 0.3) == pytest.approx(1.0)

    def test_black_is_black(self):
        assert hapke_relative_reflectance(0.0, 0.5, 0.5) == 0.0

    def test_hand_evaluated_point(self):
        # w = 0.64 gives sqrt(1-w) = 0.6 and denominator 2.2 * 2.2.
        got = hapke_relative_reflectance(0.64, 1.0, 1.0)
        assert got == pytest.approx(0.64 / 4.84, rel=1e-12)

    def test_inverse_of_hand_point(self):
        w = hapke_invert(0.64 / 4.84, 1.0, 1.0)
        assert w == pytest.approx(0.64, abs=1e-12)

    def test_endpoints(self):
        assert hapke_invert(1.0, 0.8, 0.9) == pytest.approx(1.0)
        assert hapke_invert(0.0, 0.8, 0.9) == pytest.approx(0.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(17)
        w = rng.uniform(0.0, 1.0, size=100)
        mu = rng.uniform(0.05, 1.0, size=100)
        mu0 = rng.uniform(0.05, 1.0, size=100)
        back = hapke_invert(hapke_relative_reflectance(w, mu, mu0), mu, mu0)
        np.testing.assert_allclose(back, w, atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="albedo"):
            hapke_relative_reflectance(1.2, 0.5, 0.5)
        with pytest.raises(ValueError, match="cosines"):
            hapke_relative_reflectance(0.5, 0.0, 0.5)
        with pytest.raises(ValueError, match="reflectance"):
            hapke_invert(1.5, 0.5, 0.5)

    # A NaN compares false with every bound, so each check must ask that a
    # value lies inside its range rather than that it lies outside.
    @pytest.mark.parametrize(
        "model, position",
        [
            (hapke_relative_reflectance, 0),
            (hapke_relative_reflectance, 1),
            (hapke_relative_reflectance, 2),
            (hapke_invert, 0),
            (hapke_invert, 1),
            (hapke_invert, 2),
        ],
        # Each id ends with the range check a NaN used to fail.
        ids=[
            "hapke_relative_reflectance-0-albedo",
            "hapke_relative_reflectance-1-cosines",
            "hapke_relative_reflectance-2-cosines",
            "hapke_invert-0-reflectance",
            "hapke_invert-1-cosines",
            "hapke_invert-2-cosines",
        ],
    )
    def test_nan_argument_rejected(self, model, position):
        args = [0.5, 0.5, 0.5]
        args[position] = math.nan
        with pytest.raises(ValueError, match="^non-finite values are not accepted$"):
            model(*args)

    def test_reflectance_increases_as_incidence_drops(self):
        # At fixed albedo the relative reflectance is monotone in mu0.
        w = 0.5
        values = [hapke_relative_reflectance(w, 1.0, mu0) for mu0 in (0.2, 0.5, 1.0)]
        assert values[0] > values[1] > values[2]


class TestDsmGeometry:
    def test_flat_zenith_sun(self):
        geom = dsm_to_geometry(Dsm(np.zeros((5, 5))), sun_dir=(0, 0, 1))
        np.testing.assert_allclose(geom.mu, 1.0)
        np.testing.assert_allclose(geom.mu0, 1.0)
        assert not geom.shadowed.any()

    def test_flat_oblique_sun(self):
        zen = math.radians(60.0)
        geom = dsm_to_geometry(
            Dsm(np.zeros((4, 4))), sun_dir=(math.sin(zen), 0.0, math.cos(zen))
        )
        np.testing.assert_allclose(geom.mu0, 0.5, atol=1e-12)

    def test_ramp_matches_analytic_cosine(self):
        slope = 0.3  # dz/dx
        cell = 2.0
        cols = np.arange(20) * cell * slope
        heights = np.tile(cols, (20, 1))
        geom = dsm_to_geometry(Dsm(heights, cell_size=cell), sun_dir=(0, 0, 1))
        expected = 1.0 / math.sqrt(1.0 + slope**2)
        mu0 = geom.mu0.reshape(20, 20)[:, 1:-1]  # skip one-sided edges
        np.testing.assert_allclose(mu0, expected, atol=1e-6)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            dsm_to_geometry(Dsm(np.zeros((2, 5))), sun_dir=(0, 0, 1))

    @pytest.mark.parametrize("cell_size", [math.nan, math.inf, 0.0])
    def test_cell_size_must_be_positive_and_finite(self, cell_size):
        with pytest.raises(ValueError, match="cell size"):
            Dsm(np.zeros((5, 5)), cell_size=cell_size)

    @pytest.mark.parametrize("field, match", [("mu", "view"), ("mu0", "incidence")])
    def test_nan_cosine_rejected_on_unshadowed_pixel(self, field, match):
        cosines = {"mu": [0.5, 0.5], "mu0": [0.5, 0.5]}
        cosines[field] = [0.5, math.nan]
        # NaN is refused on every pixel, as in every array twolmm takes.
        for shadowed in ([False, False], [False, True]):
            with pytest.raises(ValueError, match="^non-finite values are not accepted$"):
                HapkeGeometry(**cosines, shadowed=shadowed)
        # A cosine out of range is refused only where the pixel is not shadowed:
        # a shadowed pixel carries no geometry, so its cosine's range is not read.
        cosines[field] = [0.5, -0.5]
        with pytest.raises(ValueError, match=match):
            HapkeGeometry(**cosines, shadowed=[False, False])
        assert HapkeGeometry(**cosines, shadowed=[False, True]).pixel_count == 2

    @pytest.mark.parametrize(
        "relief, smoothness",
        [(30.0, math.nan), (30.0, math.inf), (math.inf, 6.0), (math.nan, 6.0)],
    )
    def test_terrain_parameters_must_be_finite(self, relief, smoothness):
        with pytest.raises(ValueError, match="relief and smoothness must be finite"):
            smoothed_random_dsm(8, 8, relief=relief, smoothness=smoothness)

    @pytest.mark.parametrize("width, height", [(0, 3), (3, 0), (-2, 4)])
    def test_empty_terrain_grid_rejected(self, width, height):
        with pytest.raises(ValueError, match="^grid dimensions must be positive$"):
            smoothed_random_dsm(width, height)

    def test_terrain_smoother_than_the_grid_is_flat_at_zero(self):
        dsm = smoothed_random_dsm(20, 20, relief=30.0, smoothness=1e3)
        np.testing.assert_array_equal(dsm.heights, 0.0)


class TestGenerateHapkeScene:
    def make_inputs(self, width=8, height=8, k=3, seed=18):
        em = synthetic_endmembers(30, k, seed=seed, reflectance_range=(0.05, 0.6))
        ab = grf_map(width, height, k, seed + 1, correlation_length=SHORT_LENGTH)
        return em, ab

    def test_reference_geometry_reduces_to_lmm(self):
        em, ab = self.make_inputs()
        scene = generate_hapke_scene(
            em, ab, Dsm(np.zeros((8, 8))), sun_dir=(0, 0, 1), snr_db=None, seed=19
        )
        np.testing.assert_allclose(scene.clean.data, em.data @ ab.data, atol=1e-12)

    def test_pixel_endmembers_returned_for_oracle_use(self):
        em, ab = self.make_inputs()
        dsm = smoothed_random_dsm(8, 8, relief=15.0, smoothness=3.0, seed=20)
        scene = generate_hapke_scene(
            em, ab, dsm, sun_dir=(0.3, 0.0, 0.954), snr_db=None, seed=21
        )
        rebuilt = np.einsum("pkn,kn->pn", scene.endmembers_per_pixel, ab.data)
        np.testing.assert_array_equal(scene.clean.data, rebuilt)

    def test_spectra_vary_monotonically_along_curved_ramp(self):
        em, ab = self.make_inputs()
        # Quadratic height profile: the slope (and hence mu0) varies
        # monotonically along x, so the rendered spectra must too.
        x = np.arange(8) * 10.0
        dsm = Dsm(np.tile(0.05 * x**2, (8, 1)), cell_size=10.0)
        scene = generate_hapke_scene(
            em, ab, dsm, sun_dir=(0.0, 0.0, 1.0), snr_db=None, seed=22
        )
        mu0 = scene.geometry.mu0.reshape(8, 8)[4, 1:7]
        assert (np.diff(mu0) < 0).all()
        e_tensor = scene.endmembers_per_pixel.reshape(30, 3, 8, 8)
        interior = e_tensor[:, :, 4, 1:7]
        diffs = np.diff(interior, axis=2)
        assert (diffs > 0).all() or (diffs < 0).all()

    # _BLOCK // (2K) pixels a block, even-numbered blocks on the calling
    # thread and odd-numbered ones on the helper: 341 at K = 3, so 11x31 is
    # exactly one block (no helper), 22x31 two, 33x31 three and 40x40 four
    # and 236; 85 at K = 12, so 11x31 is four and a lone pixel on the
    # calling thread, 16x16 three and a lone pixel on the helper, and 20x20
    # ends in 60; 1024 at K = 1, so 8x8 is below one block and 50x50 is
    # 1024 + 1024 + 452.
    @pytest.mark.parametrize(
        "width, height, k",
        [
            (40, 40, 3),
            (8, 8, 3),
            (11, 31, 3),
            (22, 31, 3),
            (33, 31, 3),
            (11, 31, 12),
            (16, 16, 12),
            (20, 20, 12),
            (8, 8, 1),
            (50, 50, 1),
        ],
    )
    def test_blocks_match_the_whole_tensor_bit_for_bit(self, width, height, k):
        em, ab = self.make_inputs(width, height, k)
        dsm = smoothed_random_dsm(width, height, relief=5.0, smoothness=3.0, seed=24)
        sun = (0.2, 0.1, 0.97)
        scene = generate_hapke_scene(em, ab, dsm, sun_dir=sun, snr_db=30.0, seed=25)
        geom = dsm_to_geometry(dsm, sun)
        tensor = hapke_relative_reflectance(
            hapke_invert(em.data, 1.0, 1.0)[:, :, None], geom.mu, geom.mu0
        )
        clean = np.einsum("pkn,kn->pn", tensor, ab.data)
        image = _add_noise(np.asfortranarray(clean), 30.0, np.random.default_rng(25))
        np.testing.assert_array_equal(scene.image.data, image)
        np.testing.assert_array_equal(scene.clean.data, clean)
        np.testing.assert_array_equal(scene.endmembers_per_pixel, tensor)

    def test_lanes_keep_their_bits_under_fast_thread_switching(self):
        # 40x40 at K = 3: five blocks, the helper's two interleaved with the
        # caller's three at every few bytecodes.
        em, ab = self.make_inputs(40, 40, 3)
        dsm = smoothed_random_dsm(40, 40, relief=5.0, smoothness=3.0, seed=36)
        geom = dsm_to_geometry(dsm, (0.0, 0.0, 1.0))
        tensor = hapke_relative_reflectance(
            hapke_invert(em.data, 1.0, 1.0)[:, :, None], geom.mu, geom.mu0
        )
        clean = np.einsum("pkn,kn->pn", tensor, ab.data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                scene = generate_hapke_scene(em, ab, dsm, snr_db=None, seed=37)
                np.testing.assert_array_equal(scene.image.data, clean)
                np.testing.assert_array_equal(scene.endmembers_per_pixel, tensor)
        finally:
            sys.setswitchinterval(interval)

    def test_oracle_arrays_derived_on_first_read(self):
        em, ab = self.make_inputs()
        dsm = smoothed_random_dsm(8, 8, relief=5.0, smoothness=3.0, seed=26)
        scene = generate_hapke_scene(em, ab, dsm, snr_db=30.0, seed=27)
        for name in ("clean", "endmembers_per_pixel"):
            assert name not in vars(scene)
            first = getattr(scene, name)
            assert name in vars(scene)
            assert getattr(scene, name) is first

    @pytest.mark.parametrize("k", [3, 6])
    def test_generation_peaks_below_two_images(self, k):
        # The mixture is the image's buffer and the noise is added in place,
        # beside one rendered block; the (P, K, N) tensor alone would be K
        # image sizes.
        em, ab = self.make_inputs(100, 100, k)
        dsm = smoothed_random_dsm(100, 100, relief=5.0, smoothness=6.0, seed=28)
        tracemalloc.start()
        try:
            scene = generate_hapke_scene(em, ab, dsm, snr_db=40.0, seed=29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * scene.image.data.nbytes

    # 40x40 at K = 3: five blocks, the second and fourth on the helper.
    @pytest.mark.parametrize("lane", ["caller", "helper"])
    def test_lane_exception_reaches_the_caller(self, monkeypatch, lane):
        em, ab = self.make_inputs(40, 40, 3)
        dsm = smoothed_random_dsm(40, 40, relief=5.0, smoothness=3.0, seed=30)
        caller = threading.current_thread()
        render = datagen._render_hapke

        def failing(*args):
            if (threading.current_thread() is caller) == (lane == "caller"):
                raise ArithmeticError(f"block failed on the {lane}")
            return render(*args)

        monkeypatch.setattr(datagen, "_render_hapke", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"^block failed on the {lane}$"):
            generate_hapke_scene(em, ab, dsm, snr_db=30.0, seed=31)
        assert threading.active_count() == before

    def test_caller_errstate_governs_the_helper(self, monkeypatch):
        em, ab = self.make_inputs(40, 40, 3)
        dsm = smoothed_random_dsm(40, 40, relief=5.0, smoothness=3.0, seed=32)
        caller = threading.current_thread()
        render = datagen._render_hapke

        def nan_on_helper(*args):
            out = render(*args)
            if threading.current_thread() is not caller:
                np.sqrt(-out, out=out)
            return out

        monkeypatch.setattr(datagen, "_render_hapke", nan_on_helper)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            generate_hapke_scene(em, ab, dsm, snr_db=30.0, seed=33)

    @pytest.mark.parametrize("width, threads", [(11, 0), (22, 1)])
    def test_one_block_starts_no_thread(self, monkeypatch, width, threads):
        # 11x31 at K = 3 is one block, 22x31 two.
        em, ab = self.make_inputs(width, 31, 3)
        dsm = smoothed_random_dsm(width, 31, relief=5.0, smoothness=3.0, seed=34)
        started = []
        thread = threading.Thread

        def counted(*args, **kwargs):
            started.append(1)
            return thread(*args, **kwargs)

        monkeypatch.setattr(datagen.threading, "Thread", counted)
        scene = generate_hapke_scene(em, ab, dsm, snr_db=None, seed=35)
        scene.endmembers_per_pixel
        assert len(started) == 2 * threads

    def test_self_shadow_rejected_with_indices(self):
        em, ab = self.make_inputs()
        # A steep ramp facing away from a low sun self-shadows.
        steep = np.tile(np.arange(8) * 50.0, (8, 1))
        zen = math.radians(70.0)
        with pytest.raises(ValueError, match="self-shadowed"):
            generate_hapke_scene(
                em,
                ab,
                Dsm(steep, cell_size=10.0),
                sun_dir=(math.sin(zen), 0.0, math.cos(zen)),
                snr_db=None,
                seed=23,
            )

    def test_out_of_range_reflectance_rejected(self):
        em, ab = self.make_inputs()
        bad = type(em)(em.data * 3.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            generate_hapke_scene(bad, ab, Dsm(np.zeros((8, 8))), snr_db=None)


class TestApplyNoise:
    def test_infinite_snr_returns_clean(self):
        em = synthetic_endmembers(20, 2, seed=24)
        ab = grf_map(5, 5, 2, seed=25, correlation_length=SHORT_LENGTH)
        scene = generate_2lmm_scene(em, ab, snr_db=None, seed=26)
        noisy = apply_noise(scene.clean, None, seed=0)
        np.testing.assert_array_equal(noisy.data, scene.clean.data)

    def test_noise_is_seeded(self):
        em = synthetic_endmembers(20, 2, seed=27)
        ab = grf_map(5, 5, 2, seed=28, correlation_length=SHORT_LENGTH)
        scene = generate_2lmm_scene(em, ab, snr_db=None, seed=29)
        n1 = apply_noise(scene.clean, 30.0, seed=5)
        n2 = apply_noise(scene.clean, 30.0, seed=5)
        np.testing.assert_array_equal(n1.data, n2.data)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("snr_db", [25.0, None])
@pytest.mark.parametrize(
    "shape",
    [
        (30, 5000),
        (5, 10001),
        (1, 4099),
        (40, 3),
        (7, 20011),
        (2, 65536),
        (4, 32768),
        (1, 1),
        (3, 5),
        (16384, 8),
    ],
)
def test_noise_writer_matches_the_one_shot_draw(shape, snr_db, order):
    # Row blocks of 12, 1, 1, 40, 1, 1, 1, 1, 3 and 16384 rows: the first
    # splits 30 rows unevenly. The signal power is the sum of each block's
    # squares in C order, whatever the memory order of the image.
    clean = np.random.default_rng(40).random(shape)
    got = _add_noise(np.array(clean, order=order), snr_db, np.random.default_rng(41))
    want = clean
    if snr_db is not None:
        p, n = shape
        rows = min(p, max(1, _BLOCK * p // n))
        squares = sum(float(np.sum(clean[i : i + rows] ** 2)) for i in range(0, p, rows))
        noise_power = squares / clean.size / 10.0 ** (snr_db / 10.0)
        rng = np.random.default_rng(41)
        want = clean + rng.normal(0.0, math.sqrt(noise_power), size=clean.shape)
    np.testing.assert_array_equal(got, want)
    assert got.flags[order + "_CONTIGUOUS"] and got.flags.owndata and not got.flags.writeable


@pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
def test_undefined_snr_rejected_by_every_noise_path(snr_db):
    # Only None and +inf mean "no noise"; -inf and NaN name no noise level.
    em = synthetic_endmembers(20, 2, seed=30, reflectance_range=(0.05, 0.6))
    ab = grf_map(5, 5, 2, seed=31, correlation_length=SHORT_LENGTH)
    clean = generate_2lmm_scene(em, ab, snr_db=math.inf, seed=32).clean
    with pytest.raises(ValueError, match="snr_db"):
        generate_2lmm_scene(em, ab, snr_db=snr_db, seed=32)
    with pytest.raises(ValueError, match="snr_db"):
        generate_hapke_scene(em, ab, Dsm(np.zeros((5, 5))), snr_db=snr_db)
    with pytest.raises(ValueError, match="snr_db"):
        apply_noise(clean, snr_db)


class TestSyntheticEndmembers:
    def test_within_range(self):
        em = synthetic_endmembers(50, 4, seed=30, reflectance_range=(0.1, 0.7))
        assert em.data.min() >= 0.1 - 1e-12
        assert em.data.max() <= 0.7 + 1e-12

    def test_spectra_are_distinct(self):
        from twolmm import sad

        em = synthetic_endmembers(80, 3, seed=31)
        for i in range(3):
            for j in range(i + 1, 3):
                assert sad(em.data[:, i], em.data[:, j]) > 2.0


# Writes the images of a 50x50, 120-band 2LMM scene and a 40x40, 20-band,
# K = 6 Hapke scene to standard output.
_GENERATE_BOTH = """
import sys
from twolmm import *
em = synthetic_endmembers(120, 3, seed=1)
ab = generate_grf_abundances(GrfSpec(width=50, height=50, k=3, seed=2))
sys.stdout.buffer.write(generate_2lmm_scene(em, ab, snr_db=40.0, seed=3).image.data.tobytes())
em = synthetic_endmembers(20, 6, seed=4, reflectance_range=(0.05, 0.6))
ab = generate_grf_abundances(GrfSpec(width=40, height=40, k=6, seed=5))
dsm = smoothed_random_dsm(40, 40, relief=5.0, smoothness=6.0, seed=6)
sys.stdout.buffer.write(generate_hapke_scene(em, ab, dsm, seed=7).image.data.tobytes())
"""


def test_generation_does_not_depend_on_the_blas_thread_count():
    # A BLAS reduction (a dot product for the signal power, say) may split
    # its sum by thread and so change the last bits of the noise.
    src = str(Path(twolmm.__file__).resolve().parents[1])
    images = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _GENERATE_BOTH], env=env, capture_output=True, check=True
        )
        images.append(run.stdout)
    assert len(images[0]) == 8 * (120 * 2500 + 20 * 1600)
    assert images[0] == images[1]
