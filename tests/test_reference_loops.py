"""The two-step iteration and the batched simplex QP against frozen copies
of their straightforward versions: every output must match bit for bit.

The references below are the loops as first written, one numpy expression
per formula, allocating freely; the two-step reference also counts the
work of each iteration, as the trace's counter columns do. The library's
loops write into kept buffers and work on Python floats where the
references used numpy scalars; the arithmetic and the order of every
reduction are the same, so the results must be equal to the last bit, not
to a tolerance.
"""

import math
import warnings
from collections import deque
from dataclasses import fields, replace

import numpy as np
import pytest

from twolmm import solvers, twostep
from twolmm.cli import ExperimentConfig, build_scene, resolve_endmembers
from twolmm.core import HsiImage, _squared_error, normalize_abundances
from twolmm.solvers import SolverError, _normal_parts, _qr_fit, _simplex_qp
from twolmm.trace import IterationRecord, SolverTrace, _unmix_result
from twolmm.twostep import TwoLmmConfig, TwoLmmState, _checked, solve_als, solve_lbfgs

# --- frozen reference: the two-step iteration ---------------------------------


def _ref_pack(a_s, s_e):
    return np.concatenate([a_s.ravel(order="F"), s_e])


def _ref_unpack(z, k, n):
    return z[: k * n].reshape((k, n), order="F"), z[k * n :]


def _ref_solver_cost(x, q, r, qtx):
    c0 = _squared_error(x, q, qtx)

    def reduced_cost(a_s, s_e):
        d = (r * s_e) @ a_s
        d -= qtx
        d *= d
        return c0 + float(d.sum())

    return reduced_cost


def _ref_sweep_scales(gram, etx, a_s, s_e, lower, upper):
    b = np.einsum("kn,kn->k", etx, a_s)
    overlap = a_s @ a_s.T
    s = s_e.astype(np.float64).copy()
    for k in range(s.size):
        den = gram[k, k] * overlap[k, k]
        if den == 0.0:
            continue
        cross = 0.0
        for i in range(s.size):
            if i != k:
                cross += gram[k, i] * overlap[k, i] * s[i]
        s[k] = min(max((b[k] - cross) / den, lower), upper)
    return s


def _ref_als_point(fit, gram, etx, s_e, cfg):
    a_new = np.clip(fit / s_e[:, None], 0.0, cfg.upper)
    return _ref_pack(a_new, _ref_sweep_scales(gram, etx, a_new, s_e, cfg.lower, cfg.upper))


def _ref_rel_change(new, old):
    denom = float(np.linalg.norm(old))
    diff = float(np.linalg.norm(new - old))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


def _ref_two_loop(grad_like, history):
    q = grad_like.copy()
    alphas = []
    for s_vec, y_vec, rho in reversed(history):
        alpha = rho * float(s_vec @ q)
        q -= alpha * y_vec
        alphas.append(alpha)
    s_vec, y_vec, _ = history[-1]
    r = (float(s_vec @ y_vec) / float(y_vec @ y_vec)) * q
    for (s_vec, y_vec, rho), alpha in zip(history, reversed(alphas)):
        beta = rho * float(y_vec @ r)
        r += (alpha - beta) * s_vec
    return r


def reference_solve(image, endmembers, cfg):
    e, x = _checked(endmembers, image)
    k, n = e.shape[1], x.shape[1]
    fit, *qr = _qr_fit(e, x)
    gram, etx = _normal_parts(e, x)
    zero_px = ~x.any(axis=0)
    cost_at = _ref_solver_cost(x, *qr)
    z = TwoLmmState.uniform(k, n).packed
    current_cost = cost_at(*_ref_unpack(z, k, n))
    trace = SolverTrace(initial_cost=current_cost)
    history = deque(maxlen=cfg.memory)
    prev_z = prev_dir = None

    for t in range(1, cfg.max_iter + 1):
        a_cur, s_cur = _ref_unpack(z, k, n)
        z_new = _ref_als_point(fit, gram, etx, s_cur, cfg)
        gamma = cfg.step_init
        accept_cost = None
        evals, backtracks, skipped, fallback = 1, 0, False, False
        if not cfg.force_unit_step:
            z_plus = z_new
            precond = z_plus - z
            if cfg.memory and prev_dir is not None:
                s_vec = z - prev_z
                y_vec = -(precond - prev_dir)
                curvature = float(s_vec @ y_vec)
                floor = 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec))
                if curvature > floor:
                    history.append((s_vec, y_vec, 1.0 / curvature))
                else:
                    skipped = True
            direction = -_ref_two_loop(-precond, history) if history else precond

            allowance = (1.0 + math.exp(-t)) * current_cost
            for _ in range(cfg.max_backtracks + 1):
                accept_cost = cost_at(*_ref_unpack(z + gamma * direction, k, n))
                evals += 1
                if accept_cost <= allowance:
                    if gamma != 1.0 or direction is not precond:
                        z_new = z + gamma * direction
                        np.clip(z_new[: k * n], 0.0, cfg.upper, out=z_new[: k * n])
                        np.clip(z_new[k * n :], cfg.lower, cfg.upper, out=z_new[k * n :])
                    break
                backtracks += 1
                gamma *= cfg.step_shrink
            else:
                fallback = True
                accept_cost = cost_at(*_ref_unpack(z_plus, k, n))
                evals += 1
                if accept_cost > allowance:
                    s_swept = _ref_sweep_scales(gram, etx, a_cur, s_cur, cfg.lower, cfg.upper)
                    z_new = _ref_pack(a_cur, s_swept)
                    accept_cost = cost_at(a_cur, s_swept)
                    evals += 1
                gamma = cfg.step_init
                history.clear()
            prev_z, prev_dir = z, precond

        z_new[: k * n].reshape(n, k)[zero_px] = 0.0
        a_new, s_new = _ref_unpack(z_new, k, n)
        rel_a = _ref_rel_change(a_new, a_cur)
        rel_s = _ref_rel_change(s_new, s_cur)
        new_cost = cost_at(a_new, s_new)
        trace.append(
            IterationRecord(
                iteration=t,
                cost=new_cost,
                cost_accept=new_cost if accept_cost is None else accept_cost,
                step=gamma,
                rel_change_a=rel_a,
                rel_change_s=rel_s,
                time_s=0.0,
                n_cost_evals=evals,
                backtracks=backtracks,
                pair_skipped=skipped,
                als_fallback=fallback,
            )
        )
        z = z_new
        current_cost = new_cost
        if rel_a <= cfg.eps and rel_s <= cfg.eps:
            break

    a_s, s_e = _ref_unpack(z, k, n)
    return _unmix_result(image, e, a_s, s_e, normalize_abundances(a_s), trace)


# --- frozen reference: the batched simplex QP ---------------------------------


def reference_simplex_qp(gram, linear):
    k, m = linear.shape
    out = np.empty((k, m))
    kkt_all = np.block([[gram, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
    gscale = max(1.0, np.abs(gram).max())
    for start in range(0, m, solvers._BLOCK):
        f = linear[:, start : start + solvers._BLOCK].T
        cols = np.arange(start, start + f.shape[0])
        tol = 1e-11 * np.maximum(gscale, np.abs(f).max(axis=1))
        a = np.full(f.shape, 1.0 / k)
        free = np.ones(f.shape, dtype=bool)
        for _ in range(50 * k + 50):
            grad = a @ gram - f
            on = np.pad(free, ((0, 0), (0, 1)), constant_values=True)
            kkt = kkt_all * (on[:, :, None] & on[:, None, :])
            kkt[:, :k, :k] += np.eye(k) * ~free[:, None, :]
            rhs = np.pad(np.where(free, -grad, 0.0), ((0, 0), (0, 1)))
            sol = np.linalg.solve(kkt, rhs[:, :, None])[:, :, 0]
            step, nu = sol[:, :k], sol[:, k]
            stationary = np.abs(step).max(axis=1) <= tol / gscale
            mu = np.where(free, np.inf, grad + nu[:, None])
            worst = np.argmin(mu, axis=1)
            done = stationary & (mu.min(axis=1) >= -tol)
            release = stationary & ~done
            free[release, worst[release]] = True
            decreasing = ~stationary[:, None] & (step < -tol[:, None] / gscale)
            limits = np.divide(a, -step, out=np.full(a.shape, np.inf), where=decreasing)
            best = limits.min(axis=1)
            blocked = best < 1.0
            blocking = np.argmax(decreasing & (limits <= best[:, None] + 1e-15), axis=1)
            a += (np.minimum(best, 1.0) * ~stationary)[:, None] * step
            free[blocked, blocking[blocked]] = False
            a = np.where(free, np.maximum(a, 0.0), 0.0)
            out[:, cols[done]] = a[done].T
            a, f, free, tol, cols = (v[~done] for v in (a, f, free, tol, cols))
            if not cols.size:
                break
        else:
            raise SolverError("simplex QP active-set iteration limit exceeded")
    return out


# --- the comparisons ----------------------------------------------------------

# Every trace column but the time.
_COLUMNS = tuple(f.name for f in fields(IterationRecord) if f.name != "time_s")


def assert_bitwise_equal(got, want):
    assert len(got.trace) == len(want.trace)
    assert np.float64(got.trace.initial_cost).tobytes() == np.float64(
        want.trace.initial_cost
    ).tobytes()
    for name in _COLUMNS:
        column = np.array([getattr(r, name) for r in got.trace], dtype=np.float64)
        expected = np.array([getattr(r, name) for r in want.trace], dtype=np.float64)
        assert column.tobytes() == expected.tobytes(), name
    for name in ("s_e", "s_x"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for factor, expected in zip(got.factors, want.factors):
        assert factor.shape == expected.shape
        assert factor.tobytes(order="A") == expected.tobytes(order="A")
    assert got.abundances.data.tobytes() == want.abundances.data.tobytes()


def _scene(kind, k, seed, snr_db=40.0, size=24, bands=60, em_source="truth"):
    cfg = ExperimentConfig(
        scene_kind=kind, width=size, height=size, k=k, bands=bands, snr_db=snr_db,
        em_source=em_source, seed=seed,
    )
    bundle = build_scene(cfg)
    return bundle.image, resolve_endmembers(cfg, bundle)


def _with_zero_pixels(image, count):
    data = np.array(image.data, order="F")
    data[:, np.linspace(0, data.shape[1] - 1, count).astype(int)] = 0.0
    return HsiImage(data, image.width, image.height)


def _compare(image, em, cfg, solver):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = solver(image, em, cfg)
        if solver is solve_als:
            cfg = replace(cfg, force_unit_step=True)
        want = reference_solve(image, em, cfg)
    assert_bitwise_equal(got, want)
    return got


SOLVERS = pytest.mark.parametrize("solver", [solve_als, solve_lbfgs], ids=lambda f: f.__name__)


class TestTwoStepLoopMatchesReference:
    @SOLVERS
    def test_2lmm_k3_with_zeroed_pixels(self, solver):
        image, em = _scene("2lmm", 3, seed=4)
        image = _with_zero_pixels(image, 10)
        res = _compare(image, em, TwoLmmConfig(max_iter=150), solver)
        assert not res.factors[1][:, ~image.data.any(axis=0)].any()

    @SOLVERS
    def test_hapke_k6(self, solver):
        image, em = _scene("hapke", 6, seed=3, size=20)
        _compare(image, em, TwoLmmConfig(max_iter=120), solver)

    def test_hapke_k6_long_searches(self, monkeypatch):
        # Most halvings are rejected on the line's bounds, with no trial
        # point formed and no direct cost, and every output keeps its bits.
        image, em = _scene("hapke", 6, seed=4, size=40)
        direct = []
        call = twostep._SolverCost.__call__

        def counted(self, *args):
            direct.append(1)
            return call(self, *args)

        monkeypatch.setattr(twostep._SolverCost, "__call__", counted)
        res = _compare(image, em, TwoLmmConfig(max_iter=120), solve_lbfgs)
        tested = 1 + sum(r.n_cost_evals for r in res.trace)  # with the initial cost
        assert len(direct) < tested // 2

    def test_memory_zero(self):
        image, em = _scene("2lmm", 3, seed=5)
        _compare(image, em, TwoLmmConfig(max_iter=150, memory=0), solve_lbfgs)

    def test_force_unit_step(self):
        image, em = _scene("2lmm", 3, seed=6)
        _compare(image, em, TwoLmmConfig(max_iter=150, force_unit_step=True), solve_lbfgs)

    def test_exhausted_backtracking(self, monkeypatch):
        # No halving allowed: the fallback to the ALS step, and the
        # scales-only sweep when that step fails the test too.
        image, em = _scene("hapke", 3, seed=8, size=20)
        monkeypatch.setattr(TwoLmmConfig, "max_backtracks", 0)
        res = _compare(image, em, TwoLmmConfig(max_iter=80), solve_lbfgs)
        fallbacks = [r.n_cost_evals for r in res.trace if r.als_fallback]
        # One rejected trial, the ALS step's cost, the sweep's, the final cost.
        assert 3 in fallbacks and 4 in fallbacks

    def test_noiseless_readme_scene(self):
        # The README configuration without noise, VCA endmembers: L-BFGS
        # runs to max_iter at a cost at the rounding level.
        image, em = _scene("2lmm", 3, seed=7, snr_db=None, size=50, bands=120, em_source="vca")
        res = _compare(image, em, TwoLmmConfig(), solve_lbfgs)
        assert len(res.trace) == 500


def _qp_batch(k, seed):
    """``2 * _BLOCK + 5`` columns: the fits of points far outside the
    simplex (many bound coordinates), near a vertex, and on it (early
    finishers)."""
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.05, 0.95, size=(40, k))
    gram, _ = _normal_parts(e, np.zeros((40, 1)))
    m = 2 * solvers._BLOCK + 5
    a = rng.dirichlet(np.full(k, 0.3), size=m).T
    a[:, ::3] = rng.normal(0.0, 2.0, size=(k, a[:, ::3].shape[1]))
    a[:, 1::7] = np.eye(k)[:, rng.integers(0, k, size=a[:, 1::7].shape[1])]
    return gram, gram @ a


class TestSimplexQpMatchesReference:
    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_batches(self, k):
        gram, linear = _qp_batch(k, seed=k)
        got = _simplex_qp(gram, linear)
        assert got.tobytes() == reference_simplex_qp(gram, linear).tobytes()
