"""The result contract shared by every unmixer."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from twolmm import (
    EndmemberMatrix,
    HsiImage,
    generate_2lmm_scene,
    rmse_x,
    synthetic_endmembers,
    unmix_lmm,
    unmix_slmm,
)
from twolmm.solvers import SolverError
from twolmm.trace import IterationRecord, SolverTrace
from twolmm.twostep import TwoLmmConfig, solve_als, solve_lbfgs

from scenes import SHORT_LENGTH, grf_map

METHODS = {
    "lmm": unmix_lmm,
    "slmm": unmix_slmm,
    "als": lambda x, e: solve_als(x, e, TwoLmmConfig(max_iter=3)),
    "lbfgs": lambda x, e: solve_lbfgs(x, e, TwoLmmConfig(max_iter=3)),
}


def noisy_scene(width=8, height=6, k=3, bands=30):
    em = synthetic_endmembers(bands, k, seed=60)
    ab = grf_map(width, height, k, seed=61, correlation_length=SHORT_LENGTH)
    scene = generate_2lmm_scene(em, ab, snr_db=40.0, seed=62, width=width, height=height)
    return em, scene.image


@pytest.mark.parametrize("name", sorted(METHODS))
def test_result_holds_factors_until_the_reconstruction_is_read(name):
    em, image = noisy_scene()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = METHODS[name](image, em)
    b, a_s = res.factors
    held = [res.s_x, res.s_e, res.abundances.data, b, a_s]
    assert max(a.size for a in held) < image.data.size
    assert "reconstruction" not in vars(res)
    np.testing.assert_array_equal(b, em.data * res.s_e)
    recon = res.reconstruction
    assert res.reconstruction is recon
    np.testing.assert_array_equal(recon.data, b @ a_s)
    assert (recon.width, recon.height) == (image.width, image.height)
    assert rmse_x(image, res) == pytest.approx(rmse_x(image, recon), rel=1e-12)


def test_single_shot_cost_is_the_rmse_x_kernel():
    # The result builder and rmse_x sum the same residual in the same
    # order, through one kernel, so they agree bit for bit.
    em, image = noisy_scene(width=64, height=40)
    res = unmix_slmm(image, em)
    assert rmse_x(image, res) == math.sqrt(res.trace[-1].cost / image.data.size)


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


def overflowing_scene(em_unit=1e160, image_unit=1e160):
    """A 6x6, 20-band scene and its endmembers, scaled by default by 1e160:
    every squared error over it overflows to inf."""
    em = synthetic_endmembers(20, 3, seed=0)
    ab = grf_map(6, 6, 3, seed=1, correlation_length=SHORT_LENGTH)
    scene = generate_2lmm_scene(em, ab, snr_db=40.0, seed=2, width=6, height=6)
    return EndmemberMatrix(em.data * em_unit), HsiImage(scene.image.data * image_unit, 6, 6)


@pytest.mark.parametrize("name", ["slmm", "als", "lbfgs"])
def test_non_finite_cost_is_a_solver_error(name):
    em, image = overflowing_scene()
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite cost"):
        METHODS[name](image, em)


def test_overflowing_normal_equations_are_a_solver_error():
    # E^T E overflows to inf; the QP is not run up to its iteration limit,
    # and numpy's "overflow encountered in matmul" no longer reaches the caller.
    for em_unit, image_unit in [(1e160, 1e160), (2.0**530, 1.0)]:
        em, image = overflowing_scene(em_unit, image_unit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="^non-finite normal equations"):
                unmix_lmm(image, em)


def test_append_refuses_a_non_finite_cost_as_a_solver_error():
    trace = SolverTrace(initial_cost=1.0)
    record = IterationRecord(4, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    trace.append(record)
    for cost in (np.inf, np.nan):
        with pytest.raises(SolverError, match="^non-finite cost at iteration 4$"):
            trace.append(replace(record, cost=cost))
    assert trace.records == [record]
