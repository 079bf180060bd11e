"""Property tests of the two-step solvers on random small instances.

Each instance draws K in 2..4 endmembers, at most 20 bands and 30 pixels,
scaling bounds around 1, and a noisy two-step scene inside those bounds.
The model's two invariances are checked on the same instances: the cost
does not see the gauge ``a_s[k] / c_k``, ``s_e[k] * c_k``, and SLMM is
equivariant to a global brightness factor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolmm import EndmemberMatrix, HsiImage, unmix_slmm
from twolmm.twostep import TwoLmmConfig, TwoLmmState, cost, solve_als, solve_lbfgs

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)
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
    x = (e * s_e) @ (a * s_x) + 0.01 * rng.standard_normal((p, n))
    cfg = TwoLmmConfig(lower=lower, upper=upper, max_iter=200)
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


@BOTH_SOLVERS
@PROPERTY_SETTINGS
@given(instances())
def test_last_trace_cost_is_the_public_cost_of_the_result(solver, instance):
    image, em, _, res = _solve(instance, solver)
    state = TwoLmmState(a_s=res.abundances.data * res.s_x, s_e=res.s_e)
    final = cost(image, em, state)
    assert math.isclose(res.trace[-1].cost, final, rel_tol=1e-12)


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
