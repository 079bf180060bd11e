"""Perspective projection, extraction, matching, and the scatter check."""

import itertools

import numpy as np
import pytest

from twolmm import (
    AbundanceMatrix,
    EndmemberMatrix,
    HsiImage,
    ProjectionSpec,
    align_abundances,
    check_sufficiently_scattered,
    match_endmembers,
    perspective_project,
    sad,
    synthetic_endmembers,
    vca_extract,
)
from twolmm import cli
from twolmm import endmembers as endmembers_module
from twolmm.endmembers import _leading_subspace


class TestPerspectiveProject:
    def test_direct_evaluation(self):
        img = HsiImage(np.array([[2.0], [2.0]]))
        spec = ProjectionSpec(v=np.array([1.0, 0.0]))
        out = perspective_project(img, spec)
        np.testing.assert_allclose(out.data[:, 0], [1.0, 1.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 1.0, size=(5, 10))
        img1 = HsiImage(x)
        img7 = HsiImage(7.0 * x)
        spec = ProjectionSpec.for_image(img1)
        np.testing.assert_allclose(
            perspective_project(img1, spec).data,
            perspective_project(img7, spec).data,
            atol=1e-12,
        )

    def test_output_satisfies_affine_constraint(self):
        rng = np.random.default_rng(1)
        img = HsiImage(rng.uniform(0.1, 1.0, size=(6, 20)))
        spec = ProjectionSpec.for_image(img)
        out = perspective_project(img, spec)
        np.testing.assert_allclose(out.data.T @ spec.v, 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        img = HsiImage(rng.uniform(0.1, 1.0, size=(6, 20)))
        spec = ProjectionSpec.for_image(img)
        once = perspective_project(img, spec)
        twice = perspective_project(once, spec)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-12)

    def test_projected_cone_data_drops_rank(self):
        # Conical data from K endmembers becomes affinely (K-1)-dimensional.
        rng = np.random.default_rng(3)
        e = rng.uniform(0.1, 1.0, size=(8, 3))
        a = rng.dirichlet([1, 1, 1], size=50).T
        scales = rng.uniform(0.2, 4.0, size=50)
        img = HsiImage((e @ a) * scales)
        spec = ProjectionSpec.for_image(img)
        proj = perspective_project(img, spec).data
        centered = proj - proj.mean(axis=1, keepdims=True)
        sv = np.linalg.svd(centered, compute_uv=False)
        assert sv[2] <= 1e-9 * sv[0]

    def test_near_orthogonal_pixel_listed(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        img = HsiImage(x)
        spec = ProjectionSpec(v=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match=r"\[1\]"):
            perspective_project(img, spec)
        with pytest.raises(ValueError, match=r"\[1\]"):
            vca_extract(img, 1, projection=spec)

    def test_spec_construction_validates_margin(self):
        # The mean spectrum (0, 0.5) is orthogonal to the first pixel.
        x = np.array([[1.0, -1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"orthogonal.*\[0\]"):
            ProjectionSpec.for_image(HsiImage(x))

    def test_zero_projection_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            ProjectionSpec(v=np.zeros(3))


class TestVcaExtract:
    def plant_scene(self, seed=0, k=4, n=150, scaled=False):
        rng = np.random.default_rng(seed)
        e = synthetic_endmembers(50, k, seed=seed).data
        a = rng.dirichlet(np.full(k, 0.8), size=n).T
        a[:, :k] = np.eye(k)  # guarantee pure pixels
        x = e @ a
        if scaled:
            s_e = rng.uniform(1 / 3, 3, size=k)
            s_x = rng.uniform(1 / 3, 3, size=n)
            x = (e * s_e) @ (a * s_x)
        return HsiImage(x), EndmemberMatrix(e)

    def test_recovers_planted_vertices(self):
        img, em = self.plant_scene(seed=4)
        est, idx = vca_extract(img, 4, seed=0)
        assert sorted(idx.tolist()) == [0, 1, 2, 3]

    def test_scaled_scene_recovered_up_to_scaling(self):
        img, em = self.plant_scene(seed=5, scaled=True)
        spec = ProjectionSpec.for_image(img)
        proj = perspective_project(img, spec)
        est, idx = vca_extract(proj, 4, seed=0)
        match = match_endmembers(est, em)
        for j in range(4):
            angle = sad(est.data[:, j], em.data[:, match.permutation[j]])
            assert angle <= 0.5

    @pytest.mark.parametrize("seed", range(4, 10))
    def test_projection_matches_the_projected_image(self, seed):
        """On the paper's protocol scene (50 x 50, 120 bands, K=3, 40 dB),
        extraction with ``projection`` picks what extraction on the projected
        image picks, and returns the projected columns bit for bit."""
        cfg = cli.ExperimentConfig(
            width=50, height=50, k=3, bands=120, snr_db=40.0, em_source="vca", seed=seed
        )
        img = cli.build_scene(cfg).image
        spec = ProjectionSpec.for_image(img)
        est, idx = vca_extract(img, 3, seed=seed, projection=spec)
        want_est, want_idx = vca_extract(perspective_project(img, spec), 3, seed=seed)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(est.data, want_est.data)

    def test_projection_of_noiseless_data_takes_the_householder_route(self, qr_calls):
        # The planted scene is rank 4 in 50 bands, so the band Gram of the
        # projection is singular and the projection is formed for a QR.
        img, em = self.plant_scene(seed=5, scaled=True)
        spec = ProjectionSpec.for_image(img)
        est, idx = vca_extract(img, 4, seed=0, projection=spec)
        assert qr_calls == [(img.pixel_count, img.band_count)]
        want_est, want_idx = vca_extract(perspective_project(img, spec), 4, seed=0)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(est.data, want_est.data)

    def test_k1_picks_max_projection_pixel(self):
        rng = np.random.default_rng(6)
        e = rng.uniform(0.1, 1.0, size=(10, 1))
        scales = rng.uniform(0.1, 2.0, size=30)
        img = HsiImage(e @ scales[None, :])
        est, idx = vca_extract(img, 1, seed=0)
        assert idx[0] == int(np.argmax(scales))

    def test_output_columns_come_from_input(self):
        img, _ = self.plant_scene(seed=7)
        est, idx = vca_extract(img, 4, seed=1)
        np.testing.assert_array_equal(est.data, img.data[:, idx])

    def test_deterministic_given_seed(self):
        img, _ = self.plant_scene(seed=8)
        _, idx1 = vca_extract(img, 4, seed=9)
        _, idx2 = vca_extract(img, 4, seed=9)
        np.testing.assert_array_equal(idx1, idx2)

    def test_rank_deficiency_rejected(self):
        rng = np.random.default_rng(10)
        e = rng.uniform(0.1, 1.0, size=(10, 2))
        a = rng.dirichlet([1, 1], size=40).T
        img = HsiImage(e @ a)
        with pytest.raises(ValueError, match="rank"):
            vca_extract(img, 3, seed=0)


def full_svd_basis(y, k):
    return np.linalg.svd(y, full_matrices=False)[0][:, :k]


def planted_image(bands, pixels, k=3, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    e = synthetic_endmembers(bands, k, seed=seed).data
    a = rng.dirichlet(np.ones(k), size=pixels).T
    y = (e @ a) * rng.uniform(0.5, 2.0, size=pixels)
    return y + noise * rng.standard_normal(y.shape)


@pytest.fixture
def qr_calls(monkeypatch):
    """Records the calls of ``np.linalg.qr`` (the Householder route)."""
    calls = []
    qr = np.linalg.qr

    def recording_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    return calls


class TestLeadingSubspace:
    # 11P/6 pixels is where LAPACK's SVD of a wide matrix starts from its
    # LQ triangle; below it the signs of a full SVD are not reproduced.
    @pytest.mark.parametrize(
        "y, householder",
        [
            (planted_image(40, 200, noise=0.01, seed=1), False),
            (planted_image(40, 200, seed=2), True),
        ],
        ids=["noisy-cholesky", "noiseless-householder"],
    )
    def test_equals_full_svd_basis_with_signs(self, y, householder, qr_calls):
        basis = _leading_subspace(y, 3)
        assert bool(qr_calls) == householder
        np.testing.assert_allclose(basis, full_svd_basis(y, 3), rtol=0, atol=1e-12)

    def test_fewer_pixels_than_bands_spans_the_full_svd_basis(self, qr_calls):
        y = planted_image(40, 25, noise=0.01, seed=3)
        basis = _leading_subspace(y, 3)
        assert qr_calls
        # Column for column up to sign: LAPACK bidiagonalises such an image
        # directly, so the signs need not match a full SVD.
        overlap = full_svd_basis(y, 3).T @ basis
        np.testing.assert_allclose(np.abs(overlap), np.eye(3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pixels", [100, 25])
    def test_rank_deficiency_rejected(self, pixels):
        y = planted_image(40, pixels, k=2, seed=4)
        with pytest.raises(ValueError, match="rank"):
            _leading_subspace(y, 3)

    def test_extraction_takes_no_svd_of_a_wide_matrix(self, monkeypatch):
        cfg = cli.ExperimentConfig(width=20, height=20, bands=40, em_source="vca", seed=3)
        bundle = cli.build_scene(cfg)
        svd = np.linalg.svd

        def square_or_tall_only(a, *args, **kwargs):
            if a.shape[-1] > a.shape[-2]:
                raise AssertionError(f"SVD of a {a.shape} matrix")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", square_or_tall_only)
        with pytest.raises(AssertionError, match="SVD of a"):
            np.linalg.svd(bundle.image.data)
        _, idx = vca_extract(bundle.image, 3, seed=0)
        assert idx.shape == (3,)
        em = cli.resolve_endmembers(cfg, bundle)
        assert em.endmember_count == 3

    @pytest.mark.parametrize("seed", range(4, 10))
    def test_cli_protocol_picks_match_the_full_svd(self, seed, monkeypatch):
        """The picks of ``twolmm unmix`` on the paper's protocol scene (50 x 50,
        120 bands, K=3, 40 dB) are those of a full-SVD basis."""
        cfg = cli.ExperimentConfig(
            width=50, height=50, k=3, bands=120, snr_db=40.0, em_source="vca", seed=seed
        )
        bundle = cli.build_scene(cfg)
        picks = []
        vca = cli.vca_extract

        def recording_vca(*args, **kwargs):
            em, idx = vca(*args, **kwargs)
            picks.append(idx.tolist())
            return em, idx

        monkeypatch.setattr(cli, "vca_extract", recording_vca)
        em = cli.resolve_endmembers(cfg, bundle)
        monkeypatch.setattr(
            endmembers_module,
            "_leading_subspace",
            lambda y, k, dots=None: full_svd_basis(y if dots is None else y / dots, k),
        )
        monkeypatch.setattr(cli, "_leading_subspace", full_svd_basis)
        expected = cli.resolve_endmembers(cfg, bundle)
        assert picks[0] == picks[1]
        np.testing.assert_allclose(em.data, expected.data, rtol=1e-10, atol=0)


class TestMatchEndmembers:
    def test_permutation_recovered(self):
        em = synthetic_endmembers(30, 3, seed=11)
        swapped = EndmemberMatrix(em.data[:, [2, 0, 1]])
        match = match_endmembers(swapped, em)
        assert match.permutation.tolist() == [2, 0, 1]
        np.testing.assert_allclose(match.scales, 1.0, atol=1e-12)
        assert match.mean_sad_deg == pytest.approx(0.0, abs=1e-5)

    def test_scales_recovered(self):
        em = synthetic_endmembers(30, 3, seed=12)
        scaled = EndmemberMatrix(em.data * np.array([2.0, 0.5, 1.0]))
        match = match_endmembers(scaled, em)
        assert match.permutation.tolist() == [0, 1, 2]
        np.testing.assert_allclose(match.scales, [2.0, 0.5, 1.0], rtol=1e-12)

    def test_matches_exhaustive_assignment_on_noisy_sets(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            em = synthetic_endmembers(40, 3, seed=100 + trial)
            perm = rng.permutation(3)
            noisy = em.data[:, perm] * rng.uniform(0.5, 2.0, size=3)
            noisy = noisy + 0.01 * rng.normal(size=noisy.shape)
            est = EndmemberMatrix(np.abs(noisy))
            match = match_endmembers(est, em)
            best = min(
                np.mean(
                    [sad(est.data[:, j], em.data[:, p[j]]) for j in range(3)]
                )
                for p in itertools.permutations(range(3))
            )
            assert match.mean_sad_deg == pytest.approx(best, abs=1e-9)

    def test_align_abundances_row_order(self):
        em = synthetic_endmembers(30, 3, seed=14)
        swapped = EndmemberMatrix(em.data[:, [1, 2, 0]])
        match = match_endmembers(swapped, em)
        a_est = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        aligned = align_abundances(a_est, match)
        # row j of a_est belongs to true endmember permutation[j]
        for j in range(3):
            np.testing.assert_array_equal(aligned[match.permutation[j]], a_est[j])


class TestCheckSufficientlyScattered:
    def test_pure_pixels_pass(self):
        rng = np.random.default_rng(15)
        cols = np.hstack([np.eye(3), rng.dirichlet([1, 1, 1], size=30).T])
        res = check_sufficiently_scattered(AbundanceMatrix(cols), directions=500, seed=0)
        assert res.passed

    def test_interior_only_fails_with_witness(self):
        rng = np.random.default_rng(16)
        cols = 0.2 + 0.4 * rng.dirichlet([1, 1, 1], size=80).T
        cols /= cols.sum(axis=0, keepdims=True)
        assert cols.min() >= 0.2
        res = check_sufficiently_scattered(AbundanceMatrix(cols), directions=500, seed=0)
        assert not res.passed
        assert res.witness is not None
        assert res.residual > 1e-8

    def test_binary_mixture_grid_passes(self):
        cols = []
        for combo in itertools.product(range(5), repeat=3):
            if sum(combo) == 4 and max(combo) < 4:
                cols.append([c / 4.0 for c in combo])
        grid = np.array(cols).T
        assert grid.shape == (3, 12)
        res = check_sufficiently_scattered(AbundanceMatrix(grid), directions=500, seed=0)
        assert res.passed

    def test_pass_is_monotone_in_columns(self):
        rng = np.random.default_rng(17)
        base = np.hstack([np.eye(3), rng.dirichlet([1, 1, 1], size=10).T])
        extra = np.hstack([base, rng.dirichlet([1, 1, 1], size=10).T])
        r1 = check_sufficiently_scattered(AbundanceMatrix(base), directions=300, seed=3)
        r2 = check_sufficiently_scattered(AbundanceMatrix(extra), directions=300, seed=3)
        assert r1.passed
        assert r2.passed
