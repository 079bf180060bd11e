"""Property tests of the two-step solvers on random small instances.

Each instance draws K in 2..4 endmembers, at most 20 bands and 30 pixels,
scaling bounds around 1, a curvature memory of 0, 1 or 5, and a two-step
scene inside those bounds, noiseless or with noise of 0.01.
The model's two invariances are checked on the same instances: the cost
does not see the gauge ``a_s[k] / c_k``, ``s_e[k] * c_k``, and SLMM is
equivariant to a global brightness factor. The per-pixel NNLS residual
bounds every final cost from below, and the scale sweep of one ALS step
never raises the cost. On generated scenes, ALS and
memoryless L-BFGS are equivariant, bit for bit, to a power-of-two
brightness factor.
"""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolmm import (
    EndmemberMatrix,
    HsiImage,
    generate_2lmm_scene,
    generate_grf_abundances,
    synthetic_endmembers,
    unmix_slmm,
)
from twolmm.datagen import GrfSpec
from twolmm.twostep import TwoLmmConfig, TwoLmmState, als_step, cost, solve_als, solve_lbfgs

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
# The acceptance inequality is an L-BFGS property only: the clipped ALS step
# can raise the cost. The other properties hold for both solvers.
BOTH_SOLVERS = pytest.mark.parametrize(
    "solver", [solve_lbfgs, solve_als], ids=lambda f: f.__name__
)


@st.composite
def instances(draw):
    k = draw(st.integers(2, 4))
    p = draw(st.integers(k + 1, 20))
    n = draw(st.integers(1, 30))
    lower = draw(st.floats(0.1, 1.0))
    upper = draw(st.floats(1.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.uniform(0.1, 1.0, size=(p, k))
    a = rng.dirichlet(np.ones(k), size=n).T
    s_e = rng.uniform(lower, upper, size=k)
    s_x = rng.uniform(0.3, 3.0, size=n)
    noise = draw(st.sampled_from([0.0, 0.01]))
    x = (e * s_e) @ (a * s_x) + noise * rng.standard_normal((p, n))
    memory = draw(st.sampled_from([0, 1, 5]))
    cfg = TwoLmmConfig(lower=lower, upper=upper, max_iter=200, memory=memory)
    return HsiImage(x), EndmemberMatrix(e), cfg


def _solve(instance, solver=solve_lbfgs):
    image, em, cfg = instance
    return image, em, cfg, solver(image, em, cfg)


@PROPERTY_SETTINGS
@given(instances())
def test_every_accepted_step_meets_the_nonmonotone_bound(instance):
    _, _, _, res = _solve(instance)
    prev = res.trace.initial_cost
    for rec in res.trace:
        assert rec.cost_accept <= (1.0 + math.exp(-rec.iteration)) * prev * (1 + 1e-12)
        prev = rec.cost


@BOTH_SOLVERS
@PROPERTY_SETTINGS
@given(instances())
def test_endmember_scales_stay_in_the_box(solver, instance):
    _, _, cfg, res = _solve(instance, solver)
    assert np.all(res.s_e >= cfg.lower)
    assert np.all(res.s_e <= cfg.upper)


@BOTH_SOLVERS
@PROPERTY_SETTINGS
@given(instances())
def test_scaled_abundances_stay_under_the_upper_bound(solver, instance):
    _, _, cfg, res = _solve(instance, solver)
    assert (res.abundances.data * res.s_x).max() <= cfg.upper + 1e-12


# A near-exact fit (cost about 1e-9 of ||X||^2): the public cost of the
# rebuilt a_s below is 1.8e-12 relative away from the last trace cost.
NEAR_EXACT_FIT = (
    HsiImage(np.array([[5.07492494], [5.89384768], [5.90335019]])),
    EndmemberMatrix(
        np.array([[0.32075178, 0.82625771], [0.641088, 0.19547085], [0.53330138, 0.50523143]])
    ),
    TwoLmmConfig(lower=0.75, upper=7.0, max_iter=200),
)


@BOTH_SOLVERS
@PROPERTY_SETTINGS
@given(instances())
@example(NEAR_EXACT_FIT)
def test_last_trace_cost_is_the_public_cost_of_the_result(solver, instance):
    image, em, _, res = _solve(instance, solver)
    state = TwoLmmState(a_s=res.abundances.data * res.s_x, s_e=res.s_e)
    final = cost(image, em, state)
    assert math.isclose(
        res.trace[-1].cost, final, rel_tol=1e-12, abs_tol=_rounding_slack(image, em, state)
    )


@BOTH_SOLVERS
@PROPERTY_SETTINGS
@given(instances())
def test_last_trace_cost_is_at_least_the_nnls_bound(solver, instance):
    # E diag(s_e) A_s is E times a nonnegative matrix, so no two-step cost
    # falls below the per-pixel NNLS residual.
    image, em, _, res = _solve(instance, solver)
    state = TwoLmmState(a_s=res.abundances.data * res.s_x, s_e=res.s_e)
    j_nnls = sum(scipy.optimize.nnls(em.data, col)[1] ** 2 for col in image.data.T)
    slack = _rounding_slack(image, em, state)
    assert res.trace[-1].cost >= j_nnls * (1.0 - 1e-12) - slack


def _rounding_slack(image, em, state):
    """Bound on the gap between two evaluations of the cost at ``state``, or
    at a state whose ``a_s`` is one ulp away (rebuilding ``a_s`` as
    ``A * s_x`` moves it that far). Each residual entry ``r`` carries an
    error ``delta`` of at most about ``(K + 3) eps`` times
    ``|X| + E diag(s_e) A_s`` (E, s_e and A_s are nonnegative here), so each
    evaluation of ``sum(r^2)`` is off by at most ``sum(2 |r| delta + delta^2)``.
    Near an exact fit this dwarfs ``rel_tol * J``."""
    x = image.data
    fit = (em.data * state.s_e) @ state.a_s
    delta = (em.endmember_count + 3) * np.finfo(np.float64).eps * (np.abs(x) + fit)
    return 2.0 * float(np.sum(2.0 * np.abs(fit - x) * delta + delta * delta))


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 2**32 - 1))
def test_cost_is_invariant_under_the_scale_gauge(instance, seed):
    image, em, _ = instance
    k, n = em.endmember_count, image.pixel_count
    rng = np.random.default_rng(seed)
    a_s = rng.uniform(0.0, 2.0, size=(k, n))
    s_e = rng.uniform(0.2, 5.0, size=k)
    c = rng.uniform(0.1, 10.0, size=k)
    moved = TwoLmmState(a_s=a_s / c[:, None], s_e=s_e * c)
    before = cost(image, em, TwoLmmState(a_s=a_s, s_e=s_e))
    assert math.isclose(cost(image, em, moved), before, rel_tol=1e-12)


@PROPERTY_SETTINGS
@given(instances(), st.floats(0.1, 10.0))
def test_slmm_is_equivariant_to_a_brightness_factor(instance, c):
    image, em, _ = instance
    base = unmix_slmm(image, em)
    scaled = unmix_slmm(HsiImage(c * image.data), em)
    np.testing.assert_allclose(scaled.abundances.data, base.abundances.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(scaled.s_x, c * base.s_x, rtol=1e-12)


@pytest.mark.filterwarnings("ignore:stopped at max_iter:RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "solver, memory", [(solve_als, 5), (solve_lbfgs, 0)], ids=["solve_als", "solve_lbfgs-memory0"]
)
def test_two_step_solvers_are_equivariant_to_a_power_of_two_brightness(solver, memory, seed):
    # An upper bound that never binds A_s, at any of the factors. With
    # curvature pairs, L-BFGS is not equivariant: its two-loop's dot
    # products mix the A_s block, in the units of X, with the unitless s_e.
    em = synthetic_endmembers(40, 3, seed=seed)
    ab = generate_grf_abundances(GrfSpec(width=12, height=12, k=3, seed=seed + 1))
    image = generate_2lmm_scene(em, ab, snr_db=35.0, seed=seed + 2, width=12, height=12).image
    cfg = TwoLmmConfig(upper=1e3, memory=memory)
    base = solver(image, em, cfg)
    for c in (0.25, 2.0, 8.0):
        res = solver(HsiImage(c * image.data), em, cfg)
        assert res.iterations == base.iterations
        np.testing.assert_array_equal(res.s_e, base.s_e)
        np.testing.assert_array_equal(res.abundances.data, base.abundances.data)
        np.testing.assert_array_equal(res.factors[0], base.factors[0])
        np.testing.assert_array_equal(res.factors[1], c * base.factors[1])
        assert [r.cost for r in res.trace] == [c * c * r.cost for r in base.trace]


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 2**32 - 1))
def test_als_scale_sweep_never_raises_the_cost(instance, seed):
    # The solver loop's fallback relies on it: once the abundance half of
    # an ALS step is taken, the Gauss-Seidel sweep over the scales, each an
    # exact least-squares value clipped into the box, does not raise the
    # cost. Near an exact fit both costs are rounding noise, so the two
    # evaluations may differ by the rounding slack.
    image, em, cfg = instance
    rng = np.random.default_rng(seed)
    k, n = em.endmember_count, image.pixel_count
    state = TwoLmmState(a_s=np.zeros((k, n)), s_e=rng.uniform(cfg.lower, cfg.upper, size=k))
    new = als_step(image, em, state, cfg)
    before = cost(image, em, TwoLmmState(a_s=new.a_s, s_e=state.s_e))
    slack = _rounding_slack(image, em, new)
    assert cost(image, em, new) <= before * (1 + 1e-12) + slack
    assert np.all((new.s_e >= cfg.lower) & (new.s_e <= cfg.upper))
