"""Two-step model: cost, gradient, block updates, and both solvers."""

import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.optimize

from twolmm import (
    EndmemberMatrix,
    HsiImage,
    generate_2lmm_scene,
    normalize_abundances,
    rmse_a,
    rmse_x,
    synthetic_endmembers,
)
from twolmm import twostep
from twolmm.cli import ExperimentConfig, build_scene
from twolmm.solvers import SolverError, _normal_parts, _qr_fit
from twolmm.twostep import (
    TwoLmmConfig,
    TwoLmmState,
    als_update_a,
    als_update_se,
    cost,
    gradient,
    precondition,
    solve_als,
    solve_lbfgs,
)

from scenes import SHORT_LENGTH, grf_map


def random_instance(seed, p=10, k=3, n=8):
    rng = np.random.default_rng(seed)
    e = EndmemberMatrix(rng.uniform(0.1, 1.0, size=(p, k)))
    x = HsiImage(rng.uniform(0.1, 1.0, size=(p, n)))
    state = TwoLmmState(
        a_s=rng.uniform(0.05, 2.0, size=(k, n)), s_e=rng.uniform(0.5, 2.0, size=k)
    )
    return x, e, state


def finite_difference_gradient(x, e, state):
    z = state.packed
    k, n = state.a_s.shape
    fd = np.empty_like(z)
    for i in range(z.size):
        h = 1e-6 * (1.0 + abs(z[i]))
        zp = z.copy()
        zp[i] += h
        zm = z.copy()
        zm[i] -= h
        fd[i] = (
            cost(x, e, TwoLmmState.from_packed(zp, k, n))
            - cost(x, e, TwoLmmState.from_packed(zm, k, n))
        ) / (2.0 * h)
    return fd


def exact_scene(
    seed=0, width=12, height=12, k=3, bands=40, snr_db=None, correlation_length=15.0
):
    em = synthetic_endmembers(bands, k, seed=seed)
    ab = grf_map(width, height, k, seed + 1, correlation_length)
    scene = generate_2lmm_scene(
        em, ab, snr_db=snr_db, seed=seed + 2, width=width, height=height
    )
    return em, ab, scene


class TestConfig:
    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="bounds"):
            TwoLmmConfig(lower=2.0, upper=1.0)

    @pytest.mark.parametrize("upper", [0.0, -1.0, -np.inf, np.nan])
    def test_nonpositive_or_nan_upper_rejected(self, upper):
        with pytest.raises(ValueError, match=r"^bounds must satisfy 0 < lower <= upper$"):
            TwoLmmConfig(upper=upper)

    def test_pinned_bounds_allowed(self):
        cfg = TwoLmmConfig(lower=1.0, upper=1.0)
        assert cfg.lower == cfg.upper

    def test_zero_memory_allowed(self):
        assert TwoLmmConfig(memory=0).memory == 0

    @pytest.mark.parametrize("value", [0.0, -1e-6, math.nan])
    def test_thresholds_must_be_positive(self, value):
        with pytest.raises(ValueError, match="thresholds must be positive"):
            TwoLmmConfig(eps=value)

    @pytest.mark.parametrize("field", ["max_iter", "memory"])
    def test_counts_must_be_nonnegative(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative$"):
            TwoLmmConfig(**{field: -1})

    @pytest.mark.parametrize(
        "field, value", [("max_iter", 2.5), ("memory", 1.5), ("max_iter", 500.0), ("memory", "5")]
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            TwoLmmConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = TwoLmmConfig(max_iter=np.int64(7), memory=np.int32(2))
        assert (cfg.max_iter, cfg.memory) == (7, 2)

    def test_backtracking_rule_is_fixed(self):
        names = [f.name for f in fields(TwoLmmConfig)]
        assert names == ["lower", "upper", "eps", "max_iter", "memory", "force_unit_step"]
        cfg = TwoLmmConfig()
        assert (cfg.step_init, cfg.step_shrink, cfg.max_backtracks) == (1.0, 0.5, 30)
        with pytest.raises(TypeError):
            TwoLmmConfig(step_init=0.5)


class TestCost:
    def test_exact_factorization_is_zero(self):
        x, e, state = random_instance(0)
        exact = HsiImage((e.data * state.s_e) @ state.a_s)
        assert cost(exact, e, state) == 0.0

    def test_zero_data_zero_state(self):
        e = EndmemberMatrix(np.ones((4, 2)))
        x = HsiImage(np.zeros((4, 3)))
        state = TwoLmmState(a_s=np.zeros((2, 3)), s_e=np.ones(2))
        assert cost(x, e, state) == 0.0

    def test_matches_triple_loop_oracle(self):
        x, e, state = random_instance(1, p=5, k=2, n=4)
        total = 0.0
        for p_i in range(5):
            for n_i in range(4):
                pred = sum(
                    e.data[p_i, k_i] * state.s_e[k_i] * state.a_s[k_i, n_i]
                    for k_i in range(2)
                )
                total += (x.data[p_i, n_i] - pred) ** 2
        assert cost(x, e, state) == pytest.approx(total, rel=1e-13)


class TestGradient:
    def test_zero_at_exact_factorization(self):
        x, e, state = random_instance(2)
        exact = HsiImage((e.data * state.s_e) @ state.a_s)
        np.testing.assert_allclose(gradient(exact, e, state), 0.0, atol=1e-12)

    def test_matches_central_differences(self):
        for seed in range(5):
            x, e, state = random_instance(100 + seed)
            g = gradient(x, e, state)
            fd = finite_difference_gradient(x, e, state)
            rel = np.abs(fd - g) / np.maximum(np.abs(g), 1.0)
            assert rel.max() <= 1e-5

    def test_gauge_direction_invariance(self):
        # Scaling s_e by c and a_s by 1/c leaves the cost unchanged, so
        # the derivative along that curve must vanish everywhere.
        x, e, state = random_instance(7)
        c = 1.7
        scaled = TwoLmmState(a_s=state.a_s / c, s_e=c * state.s_e)
        assert cost(x, e, scaled) == pytest.approx(cost(x, e, state), rel=1e-12)
        g = gradient(x, e, state)
        k, n = state.a_s.shape
        gauge = np.concatenate([-state.a_s.ravel(order="F"), state.s_e])
        derivative = float(g @ gauge)
        assert abs(derivative) <= 1e-8 * np.linalg.norm(g) * np.linalg.norm(gauge)


class TestAlsUpdateA:
    def test_unit_scales_match_nnls_clipped(self):
        from twolmm import solve_nnls_clipped

        x, e, _ = random_instance(3)
        out = als_update_a(x, e, TwoLmmState.uniform(3, 8), TwoLmmConfig(upper=np.inf))
        np.testing.assert_array_equal(out, solve_nnls_clipped(e, x))

    def test_doubling_scales_halves_preclip_exactly(self):
        x, e, state = random_instance(4)
        unbounded = TwoLmmConfig(upper=np.inf)
        a1 = als_update_a(x, e, state, unbounded)
        a2 = als_update_a(x, e, replace(state, s_e=2.0 * state.s_e), unbounded)
        np.testing.assert_array_equal(a2, a1 / 2.0)

    def test_matches_per_column_oracle_then_clip(self):
        x, e, state = random_instance(5)
        upper = 1.2
        fit = np.linalg.solve(e.data.T @ e.data, e.data.T @ x.data)
        oracle = np.clip(fit / state.s_e[:, None], 0.0, upper)
        out = als_update_a(x, e, state, TwoLmmConfig(upper=upper))
        np.testing.assert_allclose(out, oracle, atol=1e-10)


class TestAlsUpdateSe:
    wide = TwoLmmConfig(lower=0.1, upper=10.0)

    def test_single_endmember_closed_form(self):
        rng = np.random.default_rng(6)
        e = rng.uniform(0.1, 1.0, size=(6, 1))
        a = rng.uniform(0.1, 2.0, size=(1, 10))
        x = HsiImage(rng.uniform(0.1, 1.0, size=(6, 10)))
        got = als_update_se(
            x, EndmemberMatrix(e), TwoLmmState(a, np.ones(1)), TwoLmmConfig(1e-6, 1e6)
        )
        num = sum(a[0, n] * float(e[:, 0] @ x.data[:, n]) for n in range(10))
        den = float(e[:, 0] @ e[:, 0]) * float((a[0] ** 2).sum())
        assert got[0] == pytest.approx(num / den, rel=1e-12)

    def test_one_sweep_exact_for_k1(self):
        rng = np.random.default_rng(7)
        e = rng.uniform(0.1, 1.0, size=(5, 1))
        a = rng.uniform(0.1, 2.0, size=(1, 8))
        truth = 1.7
        x = HsiImage(truth * (e @ a))
        got = als_update_se(x, EndmemberMatrix(e), TwoLmmState(a, np.ones(1)), self.wide)
        assert got[0] == pytest.approx(truth, abs=1e-10)

    def test_repeated_sweeps_converge_to_truth(self):
        rng = np.random.default_rng(8)
        e = rng.uniform(0.1, 1.0, size=(12, 3))
        a = rng.uniform(0.05, 2.0, size=(3, 50))
        truth = np.array([0.6, 1.4, 2.2])
        x = HsiImage((e * truth) @ a)
        em = EndmemberMatrix(e)
        s = np.ones(3)
        for _ in range(200):
            s = als_update_se(x, em, TwoLmmState(a, s), self.wide)
        np.testing.assert_allclose(s, truth, atol=1e-8)

    def test_out_of_bounds_clipped(self):
        rng = np.random.default_rng(9)
        e = rng.uniform(0.1, 1.0, size=(5, 1))
        a = rng.uniform(0.1, 1.0, size=(1, 6))
        x = HsiImage(10.0 * (e @ a))
        got = als_update_se(x, EndmemberMatrix(e), TwoLmmState(a, np.ones(1)))
        assert got[0] == 5.0

    def test_absent_endmember_left_unchanged(self):
        rng = np.random.default_rng(10)
        e = rng.uniform(0.1, 1.0, size=(5, 2))
        a = np.vstack([rng.uniform(0.1, 1.0, size=(1, 6)), np.zeros((1, 6))])
        x = HsiImage(e @ a)
        with pytest.warns(RuntimeWarning, match="absent"):
            got = als_update_se(x, EndmemberMatrix(e), TwoLmmState(a, [1.0, 0.77]), self.wide)
        assert got[1] == 0.77

    def test_absent_warning_gives_count_and_first_eight(self):
        rng = np.random.default_rng(11)
        e = rng.uniform(0.1, 1.0, size=(12, 10))
        a = np.vstack([rng.uniform(0.1, 1.0, size=(1, 6)), np.zeros((9, 6))])
        state = TwoLmmState(a, np.ones(10))
        with pytest.warns(RuntimeWarning, match="absent") as caught:
            als_update_se(HsiImage(e @ a), EndmemberMatrix(e), state, self.wide)
        assert str(caught[0].message).endswith(
            "9 (first indices [1, 2, 3, 4, 5, 6, 7, 8])"
        )
        assert caught[0].filename == __file__

    def test_rank_deficient_endmembers_rejected(self):
        rng = np.random.default_rng(12)
        e = rng.uniform(0.1, 1.0, size=(8, 2))
        e = np.hstack([e, e[:, :1] + e[:, 1:]])
        a = rng.uniform(0.1, 1.0, size=(3, 5))
        state = TwoLmmState(a, np.ones(3))
        with pytest.raises(SolverError, match="rank deficient"):
            als_update_se(HsiImage(e @ a), EndmemberMatrix(e), state, self.wide)

    def test_needs_no_least_squares_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("als_update_se must not fit the abundances")

        rng = np.random.default_rng(13)
        e = EndmemberMatrix(rng.uniform(0.1, 1.0, size=(6, 2)))
        a = rng.uniform(0.1, 1.0, size=(2, 5))
        x = HsiImage((e.data * [0.8, 1.5]) @ a)
        state = TwoLmmState(a, np.ones(2))
        expected = als_update_se(x, e, state, self.wide)
        monkeypatch.setattr(twostep, "_qr_fit", no_fit)
        np.testing.assert_array_equal(als_update_se(x, e, state, self.wide), expected)


class TestStateChecks:
    # The block updates read their inputs from a TwoLmmState, so a value the
    # state refuses never reaches them; as loose arrays, each of these used
    # to pass silently (NaN or zero abundances, scales outside the bounds).
    @pytest.mark.parametrize(
        "helper, field, value, message",
        [
            (als_update_a, "s_e", np.nan, "state contains non-finite values"),
            (als_update_a, "s_e", np.inf, "state contains non-finite values"),
            (als_update_se, "a_s", np.nan, "state contains non-finite values"),
            (als_update_se, "a_s", -0.5, "a_s must be nonnegative"),
            (als_update_se, "s_e", 0.0, "s_e must be strictly positive"),
            (als_update_se, "s_e", -1.0, "s_e must be strictly positive"),
        ],
        ids=["a-nan-s_e", "a-inf-s_e", "se-nan-a_s", "se-neg-a_s", "se-zero-s_e", "se-neg-s_e"],
    )
    def test_helpers_take_the_state_and_its_checks(self, helper, field, value, message):
        x, e, state = random_instance(15)
        cfg = TwoLmmConfig()
        out = helper(x, e, state, cfg)
        low = 0.0 if helper is als_update_a else cfg.lower
        assert np.all((low <= out) & (out <= cfg.upper))
        bad = getattr(state, field).copy()
        bad.flat[0] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            helper(x, e, replace(state, **{field: bad}), cfg)

    def test_a_built_state_cannot_be_changed_in_place(self):
        # A state is checked once, when it is built, so its arrays are read-only.
        x, e, _ = random_instance(15)
        state = TwoLmmState.uniform(3, 8)
        with pytest.raises(ValueError, match="read-only"):
            state.s_e[0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            state.a_s[0, 0] = -1.0
        assert np.all(np.isfinite(als_update_a(x, e, state)))

    def test_helpers_do_not_depend_on_the_layout_of_the_callers_arrays(self):
        # The state holds a_s Fortran-ordered, the layout of the solver's iterate.
        x, e, state = random_instance(16, n=500)
        c_ordered = TwoLmmState(a_s=np.ascontiguousarray(state.a_s), s_e=state.s_e)
        f_ordered = TwoLmmState(a_s=np.asfortranarray(state.a_s), s_e=state.s_e)
        for helper in (cost, gradient, als_update_a, als_update_se, precondition):
            np.testing.assert_array_equal(helper(x, e, c_ordered), helper(x, e, f_ordered))


class TestShapeChecks:
    # 10 bands, 8 pixels, K = 3; the state below has one pixel.
    @pytest.mark.parametrize(
        "call",
        [
            lambda x, e, bad: cost(x, e, bad),
            lambda x, e, bad: gradient(x, e, bad),
            lambda x, e, bad: als_update_a(x, e, bad),
            lambda x, e, bad: als_update_se(x, e, bad),
            lambda x, e, bad: precondition(x, e, bad),
        ],
        ids=["cost", "gradient", "als_update_a", "als_update_se", "precondition"],
    )
    def test_mismatched_state_rejected(self, call):
        x, e, _ = random_instance(14)
        bad = TwoLmmState(a_s=np.ones((3, 1)), s_e=np.ones(3))
        with pytest.raises(ValueError, match="state shape does not match image/endmembers"):
            call(x, e, bad)


class TestPrecondition:
    def test_zero_at_fixed_point(self):
        em, ab, scene = exact_scene(seed=20, width=6, height=6, correlation_length=SHORT_LENGTH)
        norm = normalize_abundances(ab.data * scene.scaling.s_x)
        state = TwoLmmState(
            a_s=ab.data * scene.scaling.s_x, s_e=scene.scaling.s_e
        )
        cfg = TwoLmmConfig(lower=1.0 / 3.0, upper=3.0)
        direction = precondition(scene.image, em, state, cfg)
        assert np.abs(direction).max() <= 1e-10

    def test_matches_single_als_iteration_delta(self):
        x, e, state = random_instance(11)
        cfg = TwoLmmConfig()
        direction = precondition(x, e, state, cfg)
        res = solve_als(x, e, TwoLmmConfig(max_iter=1, eps=1e-30), init=state)
        a_after = res.abundances.data * res.s_x
        delta = np.concatenate(
            [
                (a_after - state.a_s).ravel(order="F"),
                res.s_e - state.s_e,
            ]
        )
        np.testing.assert_allclose(direction, delta, atol=1e-12)

    def test_descent_compatible(self):
        for seed in range(10):
            x, e, state = random_instance(200 + seed)
            cfg = TwoLmmConfig()
            direction = precondition(x, e, state, cfg)
            k, n = state.a_s.shape
            stepped = TwoLmmState.from_packed(state.packed + direction, k, n)
            assert cost(x, e, stepped) <= cost(x, e, state) * (1.0 + 1e-12)


class TestSolveAls:
    def test_truth_initialized_fixed_point(self):
        em, ab, scene = exact_scene(seed=30, width=8, height=8, correlation_length=SHORT_LENGTH)
        init = TwoLmmState(a_s=ab.data * scene.scaling.s_x, s_e=scene.scaling.s_e)
        cfg = TwoLmmConfig(lower=1.0 / 3.0, upper=3.0)
        res = solve_als(scene.image, em, cfg, init=init)
        assert res.iterations <= 2
        assert res.trace.records[-1].cost <= 1e-16

    def test_converged_run_does_not_warn_about_max_iter(self):
        em, ab, scene = exact_scene(seed=30, width=8, height=8, correlation_length=SHORT_LENGTH)
        init = TwoLmmState(a_s=ab.data * scene.scaling.s_x, s_e=scene.scaling.s_e)
        cfg = TwoLmmConfig(lower=1.0 / 3.0, upper=3.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve_als(scene.image, em, cfg, init=init)
            # Meeting the thresholds on the last allowed iteration is convergence.
            solve_als(scene.image, em, replace(cfg, max_iter=res.iterations), init=init)
        assert not [w for w in caught if "max_iter" in str(w.message)]

    def test_max_iter_stop_warns(self):
        em, ab, scene = exact_scene(seed=31, width=8, height=8, correlation_length=SHORT_LENGTH)
        cfg = TwoLmmConfig(max_iter=3, eps=1e-30)
        with pytest.warns(RuntimeWarning, match="max_iter") as caught:
            res = solve_als(scene.image, em, cfg)
        assert res.iterations == 3
        message = [str(w.message) for w in caught if "max_iter" in str(w.message)][0]
        for name in ("max_iter=3", "rel_change_a=", "rel_change_s=", "eps=1e-30"):
            assert name in message
        assert [w.filename for w in caught if "max_iter" in str(w.message)] == [__file__]

    def test_zero_max_iter_returns_init(self):
        x, e, state = random_instance(12)
        res = solve_als(x, e, TwoLmmConfig(max_iter=0), init=state)
        assert res.iterations == 0
        np.testing.assert_allclose(
            res.abundances.data * res.s_x, state.a_s, atol=1e-12
        )
        np.testing.assert_array_equal(res.s_e, state.s_e)

    def test_out_of_bounds_init_rejected(self):
        x, e, state = random_instance(13)
        bad = TwoLmmState(a_s=state.a_s, s_e=np.full(3, 10.0))
        with pytest.raises(ValueError, match="bounds"):
            solve_als(x, e, TwoLmmConfig(), init=bad)

    def test_degenerate_warning_gives_count_and_first_eight(self):
        em, ab, scene = exact_scene(seed=48, width=6, height=5, correlation_length=SHORT_LENGTH)
        x = np.array(scene.image.data)
        x[:, 10:22] = 0.0
        with pytest.warns(RuntimeWarning, match="degenerate") as caught:
            solve_als(HsiImage(x), em, TwoLmmConfig(max_iter=3))
        message = [str(w.message) for w in caught if "degenerate" in str(w.message)][0]
        assert message.endswith("12 (first indices [10, 11, 12, 13, 14, 15, 16, 17])")


class TestSolveLbfgs:
    def test_truth_initialized_recovery(self):
        em, ab, scene = exact_scene(seed=40, width=20, height=20)
        init = TwoLmmState(a_s=ab.data * scene.scaling.s_x, s_e=scene.scaling.s_e)
        res = solve_lbfgs(scene.image, em, TwoLmmConfig(), init=init)
        assert rmse_a(ab, res.abundances) <= 1e-3
        assert rmse_x(scene.image, res.reconstruction) <= 1e-8
        rebuilt = (em.data * res.s_e) @ (res.abundances.data * res.s_x)
        np.testing.assert_allclose(res.reconstruction.data, rebuilt, atol=1e-10)

    def test_uniform_init_reaches_same_cost_basin(self):
        em, ab, scene = exact_scene(seed=41, width=12, height=12)
        init = TwoLmmState(a_s=ab.data * scene.scaling.s_x, s_e=scene.scaling.s_e)
        cfg = TwoLmmConfig(eps=1e-9, max_iter=2000)
        res_truth = solve_lbfgs(scene.image, em, cfg, init=init)
        res_cold = solve_lbfgs(scene.image, em, cfg)
        assert abs(res_cold.trace.records[-1].cost - res_truth.trace.records[-1].cost) <= 1e-6

    def test_faster_than_als_to_equal_cost(self):
        em, ab, scene = exact_scene(seed=42, width=15, height=15)
        cfg = TwoLmmConfig()
        res_als = solve_als(scene.image, em, cfg)
        res_lb = solve_lbfgs(scene.image, em, cfg)
        als_final = res_als.trace.records[-1].cost
        lb_costs = res_lb.trace.costs
        reached = np.flatnonzero(lb_costs <= als_final)
        assert reached.size > 0
        assert reached[0] + 1 < res_als.iterations

    def test_acceptance_inequality_from_trace(self):
        em, ab, scene = exact_scene(seed=43, width=10, height=10, correlation_length=SHORT_LENGTH)
        res = solve_lbfgs(scene.image, em, TwoLmmConfig())
        prev = res.trace.initial_cost
        for rec in res.trace:
            allowance = (1.0 + math.exp(-rec.iteration)) * prev
            assert rec.cost_accept <= allowance * (1.0 + 1e-12)
            prev = rec.cost

    def test_iterates_stay_in_box(self):
        em, ab, scene = exact_scene(seed=44, width=10, height=10, correlation_length=SHORT_LENGTH)
        cfg = TwoLmmConfig(lower=0.5, upper=2.0)
        res = solve_lbfgs(scene.image, em, cfg)
        a_s = res.abundances.data * res.s_x
        assert a_s.min() >= 0.0
        assert a_s.max() <= cfg.upper + 1e-12
        assert res.s_e.min() >= cfg.lower
        assert res.s_e.max() <= cfg.upper

    @pytest.mark.parametrize("memory", [0, 5])
    def test_unit_step_reproduces_als(self, memory):
        em, ab, scene = exact_scene(seed=45, width=8, height=8, correlation_length=SHORT_LENGTH)
        cfg = TwoLmmConfig(
            memory=memory, force_unit_step=True, max_iter=10, eps=1e-30
        )
        res_als = solve_als(scene.image, em, cfg)
        res_lb = solve_lbfgs(scene.image, em, cfg)
        assert len(res_als.trace) == len(res_lb.trace) == 10
        for ra, rb in zip(res_als.trace, res_lb.trace):
            assert ra.cost == rb.cost == rb.cost_accept
            assert ra.step == rb.step == 1.0
            counts = (ra.n_cost_evals, ra.backtracks, ra.pair_skipped, ra.als_fallback)
            assert counts == (rb.n_cost_evals, rb.backtracks, rb.pair_skipped, rb.als_fallback)
            assert counts == (1, 0, False, False)
        np.testing.assert_array_equal(res_als.abundances.data, res_lb.abundances.data)
        np.testing.assert_array_equal(res_als.s_e, res_lb.s_e)
        np.testing.assert_array_equal(res_als.s_x, res_lb.s_x)

    def test_deterministic_trace(self):
        em, ab, scene = exact_scene(seed=46, width=9, height=9, correlation_length=SHORT_LENGTH)
        r1 = solve_lbfgs(scene.image, em, TwoLmmConfig())
        r2 = solve_lbfgs(scene.image, em, TwoLmmConfig())
        assert [r.cost for r in r1.trace] == [r.cost for r in r2.trace]
        assert [r.step for r in r1.trace] == [r.step for r in r2.trace]
        np.testing.assert_array_equal(r1.abundances.data, r2.abundances.data)

    def test_searched_steps_count_their_cost_evaluations(self):
        # Every trial step the test rejects halves the step; the accepted
        # trial and the cost at the clipped point make two more evaluations.
        em, _, scene = exact_scene(seed=40, width=20, height=20, snr_db=30.0)
        cfg = TwoLmmConfig()
        res = solve_lbfgs(scene.image, em, cfg)
        assert not any(r.als_fallback for r in res.trace)
        for rec in res.trace:
            assert rec.n_cost_evals == rec.backtracks + 2
            assert rec.step == cfg.step_init * cfg.step_shrink**rec.backtracks
        assert max(r.backtracks for r in res.trace) >= 5
        # The first iteration has no curvature pair to test.
        assert not res.trace[0].pair_skipped

    def test_exhausted_backtracking_falls_back_to_als_step(self, monkeypatch):
        # With no halvings allowed, any rejected unit step must fall back
        # to the plain ALS step. On a noisy scene (cost floor far above
        # machine zero) the run still satisfies the acceptance inequality
        # and stays feasible.
        em = synthetic_endmembers(40, 3, seed=49)
        ab = grf_map(8, 8, 3, seed=50, correlation_length=2.0)
        scene = generate_2lmm_scene(em, ab, snr_db=30.0, seed=51, width=8, height=8)
        monkeypatch.setattr(TwoLmmConfig, "max_backtracks", 0)
        cfg = TwoLmmConfig(max_iter=40)
        res = solve_lbfgs(scene.image, em, cfg)
        prev = res.trace.initial_cost
        for rec in res.trace:
            assert rec.cost_accept <= (1.0 + math.exp(-rec.iteration)) * prev * (1 + 1e-12)
            prev = rec.cost
        a_s = res.abundances.data * res.s_x
        assert a_s.max() <= cfg.upper + 1e-12
        assert cfg.lower - 1e-12 <= res.s_e.min()
        # A fallback iteration rejects its one trial, then evaluates the ALS
        # step, the scales-only sweep when that step fails, and the iterate;
        # it restarts the step at 1, where a step size shows no backtrack.
        fallbacks = [r for r in res.trace if r.als_fallback]
        assert fallbacks
        for rec in fallbacks:
            assert (rec.backtracks, rec.step) == (1, 1.0)
            assert rec.n_cost_evals in (3, 4)
        for rec in res.trace:
            if not rec.als_fallback:
                assert rec.n_cost_evals == rec.backtracks + 2 == 2

    def test_max_iter_stop_warns(self):
        em, ab, scene = exact_scene(seed=31, width=8, height=8, correlation_length=SHORT_LENGTH)
        cfg = TwoLmmConfig(max_iter=3, eps=1e-30)
        with pytest.warns(RuntimeWarning, match="max_iter") as caught:
            res = solve_lbfgs(scene.image, em, cfg)
        assert res.iterations == 3
        assert [w.filename for w in caught if "max_iter" in str(w.message)] == [__file__]

    def test_out_of_bounds_init_rejected(self):
        x, e, state = random_instance(15)
        bad = TwoLmmState(a_s=state.a_s, s_e=np.full(3, 99.0))
        with pytest.raises(ValueError, match="bounds"):
            solve_lbfgs(x, e, TwoLmmConfig(), init=bad)


def counted_squared_error(monkeypatch):
    """Patch ``twostep._squared_error`` to record the image of every call."""
    images = []
    kernel = twostep._squared_error

    def counted(x, b, c):
        images.append(x)
        return kernel(x, b, c)

    monkeypatch.setattr(twostep, "_squared_error", counted)
    return images


class TestSolverCost:
    def test_matches_public_cost_on_a_noisy_scene(self, monkeypatch):
        em, _, scene = exact_scene(seed=40, snr_db=40.0)
        x = scene.image.data
        _, *qr = _qr_fit(em.data, x)
        images = counted_squared_error(monkeypatch)
        cost_at = twostep._SolverCost(x, *qr)
        rng = np.random.default_rng(0)
        k, n = em.endmember_count, scene.image.pixel_count
        states = [
            TwoLmmState(a_s=rng.uniform(0.0, 5.0, size=(k, n)), s_e=rng.uniform(0.2, 5.0, size=k))
            for _ in range(20)
        ]
        reduced = [cost_at(state.a_s, state.s_e) for state in states]
        assert len(images) == 1 and images[0] is x  # c0 alone sees the image
        for state, value in zip(states, reduced):
            assert value == pytest.approx(cost(scene.image, em, state), rel=1e-13)

    @pytest.mark.parametrize("solver", [solve_als, solve_lbfgs], ids=lambda f: f.__name__)
    def test_solvers_form_no_full_residual_on_a_noisy_scene(self, solver, monkeypatch):
        em, _, scene = exact_scene(seed=41, snr_db=40.0)
        images = counted_squared_error(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = solver(scene.image, em, TwoLmmConfig(max_iter=50))
        assert res.iterations > 1
        assert len(images) == 1 and images[0] is scene.image.data  # c0 only

    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_line_bounds_hold_the_direct_cost(self, k):
        # Random lines from points with scales in the box [0.5, 2] and
        # zeroed pixels at 0, along directions of norm 0.1 to 100 times
        # that of a unit normal: every halving's direct cost lies between
        # the bounds, and the slack is far from vacuous.
        em, _, scene = exact_scene(seed=k, width=20, height=20, k=k, bands=40, snr_db=40.0)
        x = np.array(scene.image.data, order="F")
        x[:, ::37] = 0.0
        n = x.shape[1]
        _, *qr = _qr_fit(em.data, x)
        cost_at = twostep._SolverCost(x, *qr)
        rng = np.random.default_rng(k)
        unit, spare = np.empty((k, n)), np.empty((k, n))
        for _ in range(8):
            a_s = rng.uniform(0.0, 2.0, size=(k, n))
            a_s[:, ~x.any(axis=0)] = 0.0
            z = twostep._pack(a_s, rng.uniform(0.5, 2.0, size=k))
            p = rng.standard_normal(z.size) * 10.0 ** rng.uniform(-1.0, 2.0)
            j = cost_at(*twostep._unpack(z, k, n))
            trial = p + z  # the unit trial, as the loop forms it
            cost_at(*twostep._unpack(trial, k, n), unit)
            bounds = cost_at.line(z, p, j, unit, spare)
            for m in range(31):
                gamma = 2.0**-m
                np.multiply(p, gamma, out=trial)
                trial += z
                direct = cost_at(*twostep._unpack(trial, k, n))
                low, high = bounds(gamma)
                assert low <= direct <= high
                assert high - low <= 2e-9 * direct

    @pytest.mark.parametrize("solver", [solve_als, solve_lbfgs], ids=lambda f: f.__name__)
    def test_one_qr_per_solve(self, solver, monkeypatch):
        em, _, scene = exact_scene(seed=43, snr_db=40.0)
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solver(scene.image, em, TwoLmmConfig(max_iter=5))
        assert len(calls) == 1

    @pytest.mark.parametrize("solver", [solve_als, solve_lbfgs], ids=lambda f: f.__name__)
    def test_noiseless_solve_reads_the_image_once(self, solver, monkeypatch):
        # An exact fit: c0 is at the rounding level, and the loop still
        # takes every cost from Q^T X.
        em, _, scene = exact_scene(seed=42)
        images = counted_squared_error(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = solver(scene.image, em, TwoLmmConfig(max_iter=20))
        assert res.iterations > 1
        assert len(images) == 1 and images[0] is scene.image.data  # c0 only


def nnls_fit(em, image):
    """Per-pixel ``scipy.optimize.nnls`` of the image on E: the nonnegative
    coefficients ``B*`` (K, N) and ``J_nnls``, the sum of squared residuals,
    which bounds every two-step cost from below (``E diag(s_e) A_s`` is
    ``E`` times a nonnegative matrix)."""
    fits = [scipy.optimize.nnls(em.data, col) for col in image.data.T]
    return np.column_stack([b for b, _ in fits]), sum(rnorm**2 for _, rnorm in fits)


def bvls_minimum(em, image, upper):
    """The two-step minimum over the box ``[lower, upper]``: with
    ``B = diag(s_e) A_s`` it is ``min ||X - E B||^2`` over ``0 <= B <=
    upper^2``, whatever ``lower``, one per-pixel bounded least-squares
    problem (``scipy.optimize.lsq_linear`` by BVLS) per column."""
    total = 0.0
    for col in image.data.T:
        fit = scipy.optimize.lsq_linear(em.data, col, bounds=(0.0, upper**2), method="bvls")
        total += float(np.sum((em.data @ fit.x - col) ** 2))
    return total


def box_lbfgs_minimum(em, image, cfg):
    """scipy's L-BFGS-B on the solver's cost and gradient over the packed
    box of ``cfg``, from the uniform start: its final cost."""
    e, x = em.data, image.data
    k, n = em.endmember_count, image.pixel_count
    _, *qr = _qr_fit(e, x)
    cost_at = twostep._SolverCost(x, *qr)
    gram, etx = _normal_parts(e, x)

    def cost_and_gradient(z):
        a_s, s_e = twostep._unpack(z, k, n)
        return cost_at(a_s, s_e), twostep._pack(*twostep._gradient(gram, etx, a_s, s_e))

    res = scipy.optimize.minimize(
        cost_and_gradient,
        TwoLmmState.uniform(k, n).packed,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, cfg.upper)] * (k * n) + [(cfg.lower, cfg.upper)] * k,
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20000},
    )
    return res.fun


class TestNnlsCertificate:
    # Noisy enough that J_nnls is far above rounding; upper^2 = 25 exceeds
    # every B*, so the bound is the minimum of the two-step cost.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_box_lbfgs_on_the_solver_cost_reaches_the_bound(self, seed):
        em, _, scene = exact_scene(seed=seed, width=20, height=20, k=3, bands=30, snr_db=40.0)
        _, j_nnls = nnls_fit(em, scene.image)
        assert box_lbfgs_minimum(em, scene.image, TwoLmmConfig()) == pytest.approx(
            j_nnls, rel=1e-9
        )

    # Boxes whose bound upper^2 binds: the minimum is the per-pixel bounded
    # least-squares value, above J_nnls, and [1, 1] pins every scale.
    @pytest.mark.parametrize("lower, upper", [(0.5, 2.0), (1.0, 1.0)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_box_lbfgs_on_a_binding_box_reaches_the_bvls_minimum(self, seed, lower, upper):
        em, _, scene = exact_scene(seed=seed, width=20, height=20, k=3, bands=30, snr_db=40.0)
        j_bvls = bvls_minimum(em, scene.image, upper)
        assert j_bvls > nnls_fit(em, scene.image)[1] * (1.0 + 1e-6)
        cfg = TwoLmmConfig(lower=lower, upper=upper)
        assert box_lbfgs_minimum(em, scene.image, cfg) == pytest.approx(j_bvls, rel=1e-11)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gauge_point_of_the_nnls_fit_attains_the_bound(self, seed):
        em, _, scene = exact_scene(seed=seed, width=20, height=20, k=3, bands=30, snr_db=40.0)
        cfg = TwoLmmConfig()
        b, j_nnls = nnls_fit(em, scene.image)
        s_e = np.maximum(cfg.lower, b.max(axis=1) / cfg.upper)
        state = TwoLmmState(a_s=b / s_e[:, None], s_e=s_e)
        assert s_e.max() <= cfg.upper
        assert state.a_s.max() <= cfg.upper
        assert cost(scene.image, em, state) == pytest.approx(j_nnls, rel=1e-9)


def traced_peak(call):
    """Peak bytes allocated while ``call()`` runs, under tracemalloc."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryContract:
    # Any P x N array alone would take one image size. What may remain is
    # O(K N) and one block of pixels (P x core._BLOCK, 0.2 image sizes on
    # the 100 x 100 scene).
    @pytest.mark.parametrize(
        "call",
        [
            lambda x, e, state: cost(x, e, state),
            lambda x, e, state: gradient(x, e, state),
            lambda x, e, state: precondition(x, e, state),
            lambda x, e, state: als_update_a(x, e, state),
            lambda x, e, state: als_update_se(x, e, state),
        ],
        ids=["cost", "gradient", "precondition", "als_update_a", "als_update_se"],
    )
    def test_public_helpers_hold_no_image_sized_array(self, call):
        em, _, scene = exact_scene(seed=44, width=100, height=100, bands=120, snr_db=40.0)
        state = TwoLmmState.uniform(em.endmember_count, scene.image.pixel_count)
        peak = traced_peak(lambda: call(scene.image, em, state))
        assert peak < 0.25 * scene.image.data.nbytes

    # Bounds in units of one K x N array: the peaks these solves read when
    # the loop still allocated its temporaries, so a buffer the loop keeps
    # must replace one of them. The ALS peak is set up front, by the block
    # of the pass for c0.
    @pytest.mark.parametrize(
        "kind, solver, bound",
        [
            ("2lmm", solve_als, 12.6),
            ("2lmm", solve_lbfgs, 25.2),
            ("hapke", solve_als, 9.9),
            ("hapke", solve_lbfgs, 17.1),
        ],
        ids=["2lmm-als", "2lmm-lbfgs", "hapke-als", "hapke-lbfgs"],
    )
    def test_noisy_solve_peak_in_kn_arrays(self, kind, solver, bound):
        if kind == "2lmm":
            em, _, scene = exact_scene(seed=44, width=100, height=100, bands=120, snr_db=40.0)
        else:
            cfg = ExperimentConfig(scene_kind="hapke", width=100, height=100, k=6, seed=3)
            scene = build_scene(cfg)
            em = scene.endmembers_truth
        image = scene.image
        peak = traced_peak(lambda: solver(image, em, TwoLmmConfig()))
        assert peak <= bound * em.endmember_count * image.pixel_count * 8

    def test_uniform_start_packs_without_a_copy_of_its_abundances(self):
        # The uniform a_s is built Fortran-ordered and adopted, so packing it
        # allocates only the packed vector beside it.
        k, n = 3, 100_000
        peak = traced_peak(lambda: TwoLmmState.uniform(k, n).packed)
        assert peak < 2.1 * k * n * 8

    @pytest.mark.parametrize("solver", [solve_als, solve_lbfgs], ids=lambda f: f.__name__)
    def test_near_exact_fit_solve_holds_no_image_sized_array(self, solver):
        # Noiseless: c0 is the solve's one pass over the image.
        em, _, scene = exact_scene(seed=45, width=150, height=150, bands=120)
        peak = traced_peak(lambda: solver(scene.image, em, TwoLmmConfig(max_iter=30)))
        assert peak < 0.8 * scene.image.data.nbytes


class TestGaugeProperty:
    def test_normalized_abundances_invariant_to_scalar_gauge(self):
        x, e, state = random_instance(14)
        c = 2.3
        n1 = normalize_abundances(state.a_s)
        n2 = normalize_abundances(state.a_s / c)
        np.testing.assert_allclose(
            n1.abundances.data, n2.abundances.data, atol=1e-12
        )
        assert cost(x, e, state) == pytest.approx(
            cost(x, e, TwoLmmState(a_s=state.a_s / c, s_e=c * state.s_e)), rel=1e-12
        )
