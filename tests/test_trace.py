"""The result contract shared by every unmixer."""

import warnings

import numpy as np
import pytest

from twolmm import (
    HsiImage,
    generate_2lmm_scene,
    generate_grf_abundances,
    synthetic_endmembers,
    unmix_lmm,
    unmix_slmm,
)
from twolmm.datagen import GrfSpec
from twolmm.twostep import TwoLmmConfig, solve_als, solve_lbfgs

METHODS = {
    "lmm": unmix_lmm,
    "slmm": unmix_slmm,
    "als": lambda x, e: solve_als(x, e, TwoLmmConfig(max_iter=3)),
    "lbfgs": lambda x, e: solve_lbfgs(x, e, TwoLmmConfig(max_iter=3)),
}


def noisy_scene(width=8, height=6, k=3, bands=30):
    em = synthetic_endmembers(bands, k, seed=60)
    ab = generate_grf_abundances(GrfSpec(width=width, height=height, k=k, seed=61))
    scene = generate_2lmm_scene(em, ab, snr_db=40.0, seed=62, width=width, height=height)
    return em, scene.image


@pytest.mark.parametrize("name", sorted(METHODS))
def test_one_result_contract(name):
    em, image = noisy_scene()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = METHODS[name](image, em)
    rebuilt = (em.data * res.s_e) @ (res.abundances.data * res.s_x)
    np.testing.assert_allclose(res.reconstruction.data, rebuilt, rtol=0, atol=1e-10)
    resid = image.data - res.reconstruction.data
    assert res.trace[-1].cost == pytest.approx(float(np.sum(resid * resid)), rel=1e-12)

    x = np.array(image.data)
    x[:, 5:15] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        METHODS[name](HsiImage(x, width=image.width, height=image.height), em)
    degenerate = [w for w in caught if "degenerate" in str(w.message)]
    if name == "lmm":
        # Simplex abundances never sum to zero.
        assert not degenerate
        return
    assert len(degenerate) == 1
    assert str(degenerate[0].message) == (
        "pixels with zero fitted abundance were flagged degenerate: "
        "10 (first indices [5, 6, 7, 8, 9, 10, 11, 12])"
    )
    assert degenerate[0].filename == __file__


def test_lbfgs_keeps_all_zero_pixels_degenerate():
    # The two-loop direction mixes every pixel's coordinates once curvature
    # pairs exist; the solver still keeps an all-zero pixel at a_s = 0.
    em, image = noisy_scene()
    x = np.array(image.data)
    x[:, 5:15] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = solve_lbfgs(
            HsiImage(x, width=image.width, height=image.height), em, TwoLmmConfig(max_iter=10)
        )
    np.testing.assert_array_equal(res.s_x[5:15], 0.0)
    degenerate = [str(w.message) for w in caught if "degenerate" in str(w.message)]
    assert degenerate == [
        "pixels with zero fitted abundance were flagged degenerate: "
        "10 (first indices [5, 6, 7, 8, 9, 10, 11, 12])"
    ]
