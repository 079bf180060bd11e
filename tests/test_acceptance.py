"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 3 and 4 share a fixed five-seed benchmark protocol (50x50 scenes,
40 dB, extraction-based endmembers); the seeds are pinned so the suite is
fully deterministic. Every quasi-Newton trace produced anywhere in this
module is registered and re-checked against the step-acceptance
inequality at the end.
"""

import itertools
import math
import time

import numpy as np
import pytest

import twolmm as t
from twolmm.cli import ExperimentConfig, build_scene, cmd_sweep, resolve_endmembers
from twolmm.twostep import TwoLmmConfig, TwoLmmState, cost, gradient, solve_als, solve_lbfgs

TABLE_SEEDS = (4, 5, 6, 7, 8)

TRACE_REGISTRY: list = []


def register(result):
    TRACE_REGISTRY.append(result.trace)
    return result


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS: {message}")


# ----------------------------------------------------------------------
# Shared five-seed benchmark used by criteria 3 and 4.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_protocol():
    start = time.perf_counter()
    runs = []
    for seed in TABLE_SEEDS:
        cfg = ExperimentConfig(
            width=50, height=50, k=3, bands=120, snr_db=40.0, em_source="vca", seed=seed
        )
        bundle = build_scene(cfg)
        em_used = resolve_endmembers(cfg, bundle)
        match = t.match_endmembers(em_used, bundle.endmembers_truth)
        entry = {"seed": seed}
        for name, solver in [
            ("lmm", lambda: t.unmix_lmm(bundle.image, em_used)),
            ("slmm", lambda: t.unmix_slmm(bundle.image, em_used)),
            ("als2lmm", lambda: solve_als(bundle.image, em_used, cfg.solver)),
            ("lbfgs2lmm", lambda: register(solve_lbfgs(bundle.image, em_used, cfg.solver))),
        ]:
            res = solver()
            aligned = t.align_abundances(res.abundances.data, match)
            entry[name] = t.rmse_a(
                bundle.abundances_truth, t.AbundanceMatrix(aligned)
            )
            entry[name + "_result"] = res
        runs.append(entry)
    elapsed = time.perf_counter() - start
    return {"runs": runs, "elapsed": elapsed}


class TestCriterion01Gradient:
    def test_gradient_matches_central_differences(self):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            e = t.EndmemberMatrix(rng.uniform(0.1, 1.0, size=(10, 3)))
            x = t.HsiImage(rng.uniform(0.1, 1.0, size=(10, 8)))
            state = TwoLmmState(
                a_s=rng.uniform(0.05, 2.0, size=(3, 8)),
                s_e=rng.uniform(0.5, 2.0, size=3),
            )
            g = gradient(x, e, state)
            z = state.packed
            for i in range(z.size):
                h = 1e-6 * (1.0 + abs(z[i]))
                zp = z.copy()
                zp[i] += h
                zm = z.copy()
                zm[i] -= h
                fd = (
                    cost(x, e, TwoLmmState.from_packed(zp, 3, 8))
                    - cost(x, e, TwoLmmState.from_packed(zm, 3, 8))
                ) / (2.0 * h)
                rel = abs(fd - g[i]) / max(abs(g[i]), 1e-12)
                worst = max(worst, rel)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-5
        assert elapsed < 5.0
        report(1, f"gradient vs central differences, worst rel err {worst:.2e} "
                  f"over 20 instances in {elapsed:.2f}s")


class TestCriterion02ExactRecovery:
    def test_noiseless_scene_recovered(self):
        start = time.perf_counter()
        cfg = ExperimentConfig(width=30, height=30, k=3, bands=120, snr_db=None, seed=2)
        bundle = build_scene(cfg)
        init = TwoLmmState(
            a_s=bundle.abundances_truth.data * bundle.scaling.s_x,
            s_e=bundle.scaling.s_e,
        )
        res = register(
            solve_lbfgs(
                bundle.image,
                bundle.endmembers_truth,
                TwoLmmConfig(lower=0.2, upper=5.0),
                init=init,
            )
        )
        rmse_a = t.rmse_a(bundle.abundances_truth, res.abundances)
        rmse_x = t.rmse_x(bundle.image, res.reconstruction)
        elapsed = time.perf_counter() - start
        assert rmse_a <= 1e-3
        assert rmse_x <= 1e-8
        assert elapsed < 10.0
        report(2, f"exact-model recovery rmse_a={rmse_a:.2e}, rmse_x={rmse_x:.2e} "
                  f"in {elapsed:.2f}s")


class TestCriterion03TableOrdering:
    def test_method_ordering_and_absolute_level(self, table_protocol):
        runs = table_protocol["runs"]
        means = {
            m: float(np.mean([r[m] for r in runs]))
            for m in ("lmm", "slmm", "lbfgs2lmm")
        }
        assert means["lbfgs2lmm"] < means["slmm"] < means["lmm"]
        assert means["lbfgs2lmm"] <= 0.08
        assert table_protocol["elapsed"] < 60.0
        report(3, "five-seed means rmse_a: lbfgs2lmm=%.4f < slmm=%.4f < lmm=%.4f "
                  "(%.1fs)" % (means["lbfgs2lmm"], means["slmm"], means["lmm"],
                               table_protocol["elapsed"]))


class TestCriterion04Ablation:
    def test_als_worse_and_slower(self, table_protocol):
        runs = table_protocol["runs"]
        wins = sum(r["als2lmm"] > r["lbfgs2lmm"] for r in runs)
        assert wins >= 4
        for r in runs:
            als_res = r["als2lmm_result"]
            lb_res = r["lbfgs2lmm_result"]
            als_final = als_res.trace.records[-1].cost
            reached = np.flatnonzero(lb_res.trace.costs <= als_final)
            assert reached.size > 0, f"seed {r['seed']}: cost target never reached"
            assert reached[0] + 1 < als_res.iterations
        report(4, f"als2lmm worse in {wins}/5 seeds; lbfgs2lmm reached the final "
                  "ALS cost in fewer iterations on every seed")


class TestCriterion06BoundsSweep:
    def test_fig8_shape(self, tmp_path):
        cfg = ExperimentConfig(
            width=30, height=30, k=3, bands=120, snr_db=40.0, seed=5,
            methods=("lbfgs2lmm",), em_source="truth", out_dir=str(tmp_path),
        )
        rows = cmd_sweep(cfg, "bounds_alpha", [1.0, 3.0, 5.0, 50.0])
        by = {r["value"]: r for r in rows}
        assert by[1.0]["rmse_a"] > by[3.0]["rmse_a"]
        for alpha in (5.0, 50.0):
            assert by[alpha]["rmse_x"] <= 2.0 * by[3.0]["rmse_x"]
        report(6, "bounds sweep: rmse_a(alpha=1)=%.4f > rmse_a(alpha=3)=%.4f; "
                  "rmse_x stays within 2x for alpha >= 3"
                  % (by[1.0]["rmse_a"], by[3.0]["rmse_a"]))


class TestCriterion07NoiseRobustness:
    def test_fig9_shape(self, tmp_path):
        deltas = []
        for seed in range(5):
            cfg = ExperimentConfig(
                width=30, height=30, k=3, bands=120, seed=seed,
                methods=("lbfgs2lmm",), em_source="vca",
                out_dir=str(tmp_path / f"s{seed}"),
            )
            rows = cmd_sweep(cfg, "snr", [50.0, 30.0])
            by = {r["value"]: r["rmse_a"] for r in rows}
            deltas.append(by[30.0] - by[50.0])
        mean_delta = float(np.mean(deltas))
        assert mean_delta <= 0.02
        report(7, f"noise robustness: mean rmse_a increase 50->30 dB = "
                  f"{mean_delta:+.4f} (<= 0.02)")


class TestCriterion08Hapke:
    def test_round_trip_reduction_and_ordering(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        w = rng.uniform(0.0, 1.0, size=100)
        mu = rng.uniform(0.05, 1.0, size=100)
        mu0 = rng.uniform(0.05, 1.0, size=100)
        back = t.hapke_invert(t.hapke_relative_reflectance(w, mu, mu0), mu, mu0)
        round_trip = float(np.abs(back - w).max())
        assert round_trip <= 1e-12

        em = t.synthetic_endmembers(120, 3, seed=11, reflectance_range=(0.03, 0.5))
        ab = t.generate_grf_abundances(t.GrfSpec(width=32, height=32, k=3, seed=12))

        flat = t.generate_hapke_scene(
            em, ab, t.Dsm(np.zeros((32, 32))), sun_dir=(0, 0, 1), snr_db=None, seed=13
        )
        reduction = float(np.abs(flat.clean.data - em.data @ ab.data).max())
        assert reduction <= 1e-12

        dsm = t.smoothed_random_dsm(
            32, 32, relief=20.0, smoothness=6.0, cell_size=10.0, seed=13
        )
        zen = math.radians(40.0)
        scene = t.generate_hapke_scene(
            em, ab, dsm, sun_dir=(math.sin(zen), 0.0, math.cos(zen)),
            snr_db=40.0, seed=14,
        )
        res_lmm = t.unmix_lmm(scene.image, em)
        res_lb = register(solve_lbfgs(scene.image, em, TwoLmmConfig()))
        err_lmm = t.rmse_a(ab, res_lmm.abundances)
        err_lb = t.rmse_a(ab, res_lb.abundances)
        elapsed = time.perf_counter() - start
        assert err_lb < err_lmm
        assert elapsed < 30.0
        report(8, f"reflectance round trip {round_trip:.1e}; flat-terrain scene "
                  f"reduces to plain mixing ({reduction:.1e}); topographic scene "
                  f"ordering lbfgs2lmm={err_lb:.4f} < lmm={err_lmm:.4f} "
                  f"({elapsed:.1f}s)")


class TestCriterion09Identifiability:
    def test_extraction_up_to_permutation_and_scaling(self):
        rng = np.random.default_rng(31)
        em = t.synthetic_endmembers(60, 4, seed=9)
        n = 200
        a = rng.dirichlet([0.7] * 4, size=n).T
        a[:, :4] = np.eye(4)
        s_e = rng.uniform(1 / 3, 3, size=4)
        s_x = rng.uniform(1 / 3, 3, size=n)
        img = t.HsiImage((em.data * s_e) @ (a * s_x))
        spec = t.ProjectionSpec.for_image(img)
        projected = t.perspective_project(img, spec)
        est, _ = t.vca_extract(projected, 4, seed=3)
        match = t.match_endmembers(est, em)
        angles = [
            t.sad(est.data[:, j], em.data[:, match.permutation[j]]) for j in range(4)
        ]
        assert max(angles) <= 0.5
        assert sorted(match.permutation.tolist()) == [0, 1, 2, 3]
        report(9, f"identifiability: endmembers recovered up to permutation and "
                  f"scaling, max sad {max(angles):.2e} deg")


class TestCriterion10OracleEquivalences:
    def test_simplex_qp_vs_grid_search(self):
        rng = np.random.default_rng(33)
        res = 1000
        i = np.arange(res + 1)
        ii, jj = np.meshgrid(i, i, indexing="ij")
        keep = ii + jj <= res
        grid = np.stack([ii[keep], jj[keep], res - ii[keep] - jj[keep]]) / float(res)
        worst_gap = 0.0
        for _ in range(10):
            e = rng.normal(size=(6, 3))
            x = rng.normal(size=6)
            p = t.QpProblem(gram=e.T @ e, linear=e.T @ x)
            a = t.solve_simplex_qp(p)
            obj = lambda v: 0.5 * float(v @ p.gram @ v) - float(p.linear @ v)
            grid_obj = 0.5 * np.einsum("kn,kn->n", grid, p.gram @ grid) - p.linear @ grid
            gap = abs(obj(a) - float(grid_obj.min()))
            worst_gap = max(worst_gap, gap)
        assert worst_gap <= 1e-3
        report(10, f"simplex QP within {worst_gap:.2e} of grid-search optimum; "
                   "degenerate quasi-Newton mode reproduces ALS bit for bit")

    def test_degenerate_mode_reproduces_als(self):
        em = t.synthetic_endmembers(60, 3, seed=50)
        ab = t.generate_grf_abundances(t.GrfSpec(width=12, height=12, k=3, seed=51))
        scene = t.generate_2lmm_scene(em, ab, snr_db=35.0, seed=52, width=12, height=12)
        cfg = TwoLmmConfig(
            memory=0, force_unit_step=True, max_iter=10, eps=1e-30
        )
        res_als = solve_als(scene.image, em, cfg)
        res_lb = solve_lbfgs(scene.image, em, cfg)
        assert len(res_als.trace) == len(res_lb.trace)
        for ra, rb in zip(res_als.trace, res_lb.trace):
            assert ra.cost == rb.cost
        np.testing.assert_array_equal(res_als.abundances.data, res_lb.abundances.data)
        np.testing.assert_array_equal(res_als.s_e, res_lb.s_e)


class TestCriterion11ScatterChecker:
    def test_three_cases(self):
        rng = np.random.default_rng(15)
        pure = np.hstack([np.eye(3), rng.dirichlet([1, 1, 1], size=30).T])
        assert t.check_sufficiently_scattered(
            t.AbundanceMatrix(pure), directions=500, seed=0
        ).passed

        interior = 0.2 + 0.4 * rng.dirichlet([1, 1, 1], size=80).T
        interior /= interior.sum(axis=0, keepdims=True)
        assert interior.min() >= 0.2
        res = t.check_sufficiently_scattered(
            t.AbundanceMatrix(interior), directions=500, seed=0
        )
        assert not res.passed
        assert res.witness is not None

        cols = [
            [c / 4.0 for c in combo]
            for combo in itertools.product(range(5), repeat=3)
            if sum(combo) == 4 and max(combo) < 4
        ]
        grid = np.array(cols).T
        assert t.check_sufficiently_scattered(
            t.AbundanceMatrix(grid), directions=500, seed=0
        ).passed
        report(11, "scatter checker: pure pixels pass, interior-only abundances "
                   "fail with a witness, quarter-fraction mixture grid passes")


class TestCriterion05BacktrackingInvariant:
    """Defined last so every quasi-Newton run above is already registered."""

    def test_acceptance_inequality_on_all_logged_runs(self, table_protocol):
        assert TRACE_REGISTRY, "no traces were registered"
        checked = 0
        for trace in TRACE_REGISTRY:
            prev = trace.initial_cost
            for rec in trace:
                allowance = (1.0 + math.exp(-rec.iteration)) * prev
                assert rec.cost_accept <= allowance * (1.0 + 1e-12)
                prev = rec.cost
                checked += 1
        report(5, f"step-acceptance inequality holds at all {checked} logged "
                  f"iterations across {len(TRACE_REGISTRY)} runs")
