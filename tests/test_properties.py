"""Property tests of the L-BFGS two-step solver on random small instances.

Each instance draws K in 2..4 endmembers, at most 20 bands and 30 pixels,
scaling bounds around 1, and a noisy two-step scene inside those bounds.
Gauge invariance and SLMM scale equivariance have fixed-instance tests
elsewhere and are not repeated here.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twolmm import EndmemberMatrix, HsiImage
from twolmm.twostep import TwoLmmConfig, TwoLmmState, cost, solve_lbfgs

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


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


def _solve(instance):
    image, em, cfg = instance
    return image, em, cfg, solve_lbfgs(image, em, cfg)


@PROPERTY_SETTINGS
@given(instances())
def test_every_accepted_step_meets_the_nonmonotone_bound(instance):
    _, _, _, res = _solve(instance)
    prev = res.trace.initial_cost
    for rec in res.trace:
        assert rec.cost_accept <= (1.0 + math.exp(-rec.iteration)) * prev * (1 + 1e-12)
        prev = rec.cost


@PROPERTY_SETTINGS
@given(instances())
def test_endmember_scales_stay_in_the_box(instance):
    _, _, cfg, res = _solve(instance)
    assert np.all(res.s_e >= cfg.lower)
    assert np.all(res.s_e <= cfg.upper)


@PROPERTY_SETTINGS
@given(instances())
def test_scaled_abundances_stay_under_the_upper_bound(instance):
    _, _, cfg, res = _solve(instance)
    assert (res.abundances.data * res.s_x).max() <= cfg.upper + 1e-12


@PROPERTY_SETTINGS
@given(instances())
def test_last_trace_cost_is_the_public_cost_of_the_result(instance):
    image, em, _, res = _solve(instance)
    state = TwoLmmState(a_s=res.abundances.data * res.s_x, s_e=res.s_e)
    final = cost(image, em, state)
    assert math.isclose(res.trace[-1].cost, final, rel_tol=1e-12)
