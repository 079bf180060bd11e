"""LMM and SLMM baseline unmixers."""

import numpy as np
import pytest

from twolmm import (
    AbundanceMatrix,
    EndmemberMatrix,
    HsiImage,
    generate_2lmm_scene,
    generate_grf_abundances,
    rmse_a,
    rmse_x,
    synthetic_endmembers,
    unmix_lmm,
    unmix_slmm,
)
from twolmm import solvers
from twolmm.datagen import GrfSpec
from twolmm.solvers import QpProblem, SolverError, solve_simplex_qp


def make_exact_scene(seed=0, p=8, k=3, n=40):
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.1, 1.0, size=(p, k))
    a = rng.dirichlet(np.ones(k), size=n).T
    return EndmemberMatrix(e), AbundanceMatrix(a, normalized=True)


class TestUnmixLmm:
    def test_exact_model_recovery(self):
        em, a_gt = make_exact_scene()
        img = HsiImage(em.data @ a_gt.data)
        res = unmix_lmm(img, em)
        assert rmse_a(a_gt, res.abundances) <= 1e-6
        np.testing.assert_array_equal(res.s_x, 1.0)
        np.testing.assert_array_equal(res.s_e, 1.0)

    def test_global_scaling_breaks_lmm_but_not_slmm(self):
        em, a_gt = make_exact_scene(seed=1)
        img = HsiImage(2.0 * (em.data @ a_gt.data))
        res_lmm = unmix_lmm(img, em)
        res_slmm = unmix_slmm(img, em)
        err_lmm = rmse_a(a_gt, res_lmm.abundances)
        err_slmm = rmse_a(a_gt, res_slmm.abundances)
        assert err_lmm > 0.01
        assert err_lmm > err_slmm

    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_invariant_to_the_units_of_the_data(self, k):
        # Reflectance stored times 10 000, say, must give the same abundances.
        em = synthetic_endmembers(120, k, seed=0)
        ab = generate_grf_abundances(GrfSpec(width=20, height=20, k=k, seed=1))
        image = generate_2lmm_scene(em, ab, snr_db=30.0, seed=2, width=20, height=20).image
        base = unmix_lmm(image, em).abundances.data
        for c in (1e-3, 1e4, 1e5, 1e12):
            scaled = unmix_lmm(HsiImage(c * image.data, 20, 20), EndmemberMatrix(c * em.data))
            np.testing.assert_allclose(scaled.abundances.data, base, rtol=0, atol=1e-11)

    def test_pure_pixel(self):
        em, _ = make_exact_scene(seed=2)
        img = HsiImage(em.data[:, [1]])
        res = unmix_lmm(img, em)
        np.testing.assert_allclose(res.abundances.data[:, 0], [0.0, 1.0, 0.0], atol=1e-9)

    def test_abundances_satisfy_constraints_exactly(self):
        em, a_gt = make_exact_scene(seed=3)
        img = HsiImage(em.data @ a_gt.data + 0.01)
        res = unmix_lmm(img, em)
        assert res.abundances.data.min() >= 0.0
        np.testing.assert_allclose(res.abundances.data.sum(axis=0), 1.0, atol=1e-12)

    def test_reconstruction_consistency(self):
        em, a_gt = make_exact_scene(seed=4)
        img = HsiImage(em.data @ a_gt.data + 0.05)
        res = unmix_lmm(img, em)
        rebuilt = (em.data * res.s_e) @ (res.abundances.data * res.s_x)
        np.testing.assert_allclose(res.reconstruction.data, rebuilt, atol=1e-10)

    def test_band_shortage_rejected(self):
        em = EndmemberMatrix(np.ones((2, 3)) + np.eye(2, 3))
        with pytest.raises(ValueError, match="bands"):
            unmix_lmm(HsiImage(np.ones((2, 4))), em)

    def test_rank_deficient_endmembers_rejected(self):
        em, a_gt = make_exact_scene(seed=5)
        img = HsiImage(em.data @ a_gt.data)
        duplicated = EndmemberMatrix(em.data[:, [0, 1, 2, 2]])
        with pytest.raises(SolverError, match="rank deficient"):
            unmix_lmm(img, duplicated)

    def test_matches_per_pixel_solves_across_blocks(self):
        n = 2 * solvers._BLOCK + 5
        rng = np.random.default_rng(11)
        em, a_gt = make_exact_scene(seed=11, n=n)
        x = (em.data @ a_gt.data) * rng.uniform(0.5, 1.5, n) + 0.02 * rng.normal(size=(8, n))
        res = unmix_lmm(HsiImage(x), em)
        gram = em.data.T @ em.data
        gram = 0.5 * (gram + gram.T)
        alone = np.stack(
            [solve_simplex_qp(QpProblem(gram=gram, linear=em.data.T @ px)) for px in x.T],
            axis=1,
        )
        np.testing.assert_allclose(res.abundances.data, alone, rtol=0.0, atol=1e-12)


class TestUnmixSlmm:
    def test_recovers_abundances_and_scales(self):
        # Square invertible endmembers make the clipped fit exact.
        rng = np.random.default_rng(5)
        e = rng.uniform(0.2, 1.0, size=(4, 4)) + np.eye(4)
        a = rng.dirichlet(np.ones(4), size=30).T
        s = rng.uniform(1.0 / 3.0, 3.0, size=30)
        img = HsiImage((e @ a) * s)
        res = unmix_slmm(img, EndmemberMatrix(e))
        assert rmse_a(AbundanceMatrix(a, normalized=True), res.abundances) <= 1e-6
        np.testing.assert_allclose(res.s_x, s, atol=1e-6)

    def test_matches_lmm_on_unscaled_data(self):
        em, a_gt = make_exact_scene(seed=6, n=60)
        img = HsiImage(em.data @ a_gt.data)
        res_lmm = unmix_lmm(img, em)
        res_slmm = unmix_slmm(img, em)
        # Interior pixels: both solve the same fit, one with ASC, one by
        # rescaling; on exact data they agree.
        diff = np.abs(res_lmm.abundances.data - res_slmm.abundances.data).max()
        assert diff <= 1e-3

    def test_zero_pixel_flagged_degenerate(self):
        em, a_gt = make_exact_scene(seed=7, n=3)
        x = em.data @ a_gt.data
        x[:, 1] = 0.0
        with pytest.warns(RuntimeWarning, match="degenerate"):
            res = unmix_slmm(HsiImage(x), em)
        assert res.s_x[1] == 0.0

    def test_degenerate_warning_gives_count_and_first_eight(self):
        em, a_gt = make_exact_scene(seed=7, n=30)
        x = em.data @ a_gt.data
        x[:, 3:23] = 0.0
        with pytest.warns(RuntimeWarning, match="degenerate") as caught:
            unmix_slmm(HsiImage(x), em)
        message = str(caught[0].message)
        assert message.endswith("20 (first indices [3, 4, 5, 6, 7, 8, 9, 10])")

    def test_scale_equivariance(self):
        em, a_gt = make_exact_scene(seed=8)
        rng = np.random.default_rng(9)
        x = em.data @ a_gt.data + 0.01 * rng.uniform(size=(em.band_count, 40))
        r1 = unmix_slmm(HsiImage(x), em)
        r2 = unmix_slmm(HsiImage(3.0 * x), em)
        np.testing.assert_allclose(r2.s_x, 3.0 * r1.s_x, rtol=1e-9)
        np.testing.assert_allclose(
            r2.abundances.data, r1.abundances.data, atol=1e-9
        )

    def test_perfect_reconstruction_on_exact_data(self):
        rng = np.random.default_rng(10)
        e = rng.uniform(0.2, 1.0, size=(6, 3))
        a_s = rng.uniform(0.05, 2.0, size=(3, 25))
        img = HsiImage(e @ a_s)
        res = unmix_slmm(img, EndmemberMatrix(e))
        assert rmse_x(img, res.reconstruction) <= 1e-9
