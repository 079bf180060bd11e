"""Constrained least-squares kernels against independent oracles."""

import numpy as np
import pytest

from twolmm import (
    EndmemberMatrix,
    HsiImage,
    QpProblem,
    solve_nnls_clipped,
    solve_simplex_qp,
    unmix_lmm,
    unmix_slmm,
)
from twolmm import solvers
from twolmm.solvers import SolverError, _simplex_qp, solve_least_squares
from twolmm.twostep import (
    TwoLmmState,
    als_step,
    cost,
    gradient,
    solve_als,
    solve_lbfgs,
)


def qp_objective(problem: QpProblem, a: np.ndarray) -> float:
    return 0.5 * float(a @ problem.gram @ a) - float(problem.linear @ a)


def simplex_grid(resolution: int) -> np.ndarray:
    """All points of the 2-simplex on a regular grid (K = 3)."""
    i = np.arange(resolution + 1)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    keep = ii + jj <= resolution
    return np.stack(
        [ii[keep], jj[keep], resolution - ii[keep] - jj[keep]]
    ) / float(resolution)


class TestQpProblem:
    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(gram=np.array([[1.0, 0.5], [0.2, 1.0]]), linear=np.zeros(2))

    def test_indefinite_gram_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            QpProblem(gram=np.array([[1.0, 0.0], [0.0, -1.0]]), linear=np.zeros(2))

    @pytest.mark.parametrize(
        "gram, linear",
        [([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.5]), (np.zeros((2, 2)), [0.3, 0.1])],
    )
    def test_singular_gram_rejected(self, gram, linear):
        # The active-set kernel's KKT systems can be singular for these.
        with pytest.raises(ValueError, match="positive definite"):
            QpProblem(gram=np.array(gram), linear=np.array(linear))

    @pytest.mark.parametrize(
        "gram, linear",
        [
            (np.eye(3), [np.nan, 0.0, 0.0]),
            (np.eye(3), [np.inf, 0.0, 0.0]),
            ([[1.0, np.nan], [np.nan, 1.0]], [0.3, 0.1]),
            ([[np.inf, 0.0], [0.0, 1.0]], [0.3, 0.1]),
        ],
        ids=["nan-linear", "inf-linear", "nan-gram", "inf-gram"],
    )
    def test_non_finite_data_rejected(self, gram, linear):
        with pytest.raises(ValueError, match="non-finite"):
            QpProblem(gram=np.array(gram), linear=np.array(linear))


class TestBandCheck:
    # 6 bands in the endmembers, 5 in the image.
    @pytest.mark.parametrize(
        "call",
        [
            unmix_lmm,
            unmix_slmm,
            solve_als,
            solve_lbfgs,
            lambda x, e: cost(x, e, TwoLmmState.uniform(2, 4)),
            lambda x, e: solve_least_squares(e.data, x.data),
        ],
        ids=["unmix_lmm", "unmix_slmm", "solve_als", "solve_lbfgs", "cost", "least_squares"],
    )
    def test_every_entry_point_gives_one_message(self, call):
        rng = np.random.default_rng(3)
        e = EndmemberMatrix(rng.uniform(0.1, 1.0, size=(6, 2)))
        x = HsiImage(rng.uniform(0.1, 1.0, size=(5, 4)))
        with pytest.raises(ValueError) as caught:
            call(x, e)
        assert str(caught.value) == "band mismatch: image has shape (5, 4), endmembers (6, 2)"


@pytest.mark.parametrize(
    "call",
    [
        lambda x, e: solve_nnls_clipped(e, x),
        lambda x, e: als_step(x, e, TwoLmmState.uniform(2, 4)).a_s,
        lambda x, e: als_step(x, e, (s := TwoLmmState.uniform(2, 4))).packed - s.packed,
    ],
    # The last two read als_step's abundance block and its displacement.
    ids=["nnls_clipped", "als_update_a", "precondition"],
)
def test_bands_checked_once_per_call(call, monkeypatch):
    calls = []
    check = solvers._check_bands
    monkeypatch.setattr(solvers, "_check_bands", lambda e, x: calls.append(1) or check(e, x))
    rng = np.random.default_rng(3)
    e = EndmemberMatrix(rng.uniform(0.1, 1.0, size=(6, 2)))
    call(HsiImage(rng.uniform(0.1, 1.0, size=(6, 4))), e)
    assert len(calls) == 1


class TestContainerCheck:
    # Plain arrays instead of the containers: 5 bands, 3 pixels, K = 2.
    @pytest.mark.parametrize(
        "call",
        [
            unmix_lmm,
            unmix_slmm,
            solve_als,
            solve_lbfgs,
            lambda x, e: cost(x, e, TwoLmmState.uniform(2, 3)),
            lambda x, e: gradient(x, e, TwoLmmState.uniform(2, 3)),
            lambda x, e: als_step(x, e, TwoLmmState.uniform(2, 3)).a_s,
            lambda x, e: als_step(x, e, TwoLmmState.uniform(2, 3)).s_e,
            lambda x, e: als_step(x, e, (s := TwoLmmState.uniform(2, 3))).packed - s.packed,
            lambda x, e: solve_nnls_clipped(e, x),
        ],
        # The als_update_a, als_update_se and precondition cases read
        # als_step's abundance block, its scale block and its displacement.
        ids=[
            "unmix_lmm",
            "unmix_slmm",
            "solve_als",
            "solve_lbfgs",
            "cost",
            "gradient",
            "als_update_a",
            "als_update_se",
            "precondition",
            "nnls_clipped",
        ],
    )
    def test_plain_arrays_rejected_with_one_message(self, call):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.1, 1.0, size=(5, 3))
        e = rng.uniform(0.1, 1.0, size=(5, 2))
        with pytest.raises(TypeError) as caught:
            call(x, e)
        assert str(caught.value) == (
            "image and endmembers must be HsiImage and EndmemberMatrix, got ndarray and ndarray"
        )


class TestSolveSimplexQp:
    def test_point_already_on_simplex(self):
        p = QpProblem(gram=np.eye(2), linear=np.array([0.3, 0.7]))
        np.testing.assert_allclose(solve_simplex_qp(p), [0.3, 0.7], atol=1e-12)

    def test_projection_onto_vertex(self):
        p = QpProblem(gram=np.eye(2), linear=np.array([2.0, 0.0]))
        np.testing.assert_allclose(solve_simplex_qp(p), [1.0, 0.0], atol=1e-12)

    def test_constraints_hold_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            e = rng.normal(size=(5, 3))
            x = rng.normal(size=5)
            a = solve_simplex_qp(QpProblem(gram=e.T @ e, linear=e.T @ x))
            assert a.min() >= 0.0
            assert abs(a.sum() - 1.0) <= 1e-12

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(33)
        grid = simplex_grid(1000)
        for _ in range(10):
            e = rng.normal(size=(5, 3))
            x = rng.normal(size=5)
            p = QpProblem(gram=e.T @ e, linear=e.T @ x)
            a = solve_simplex_qp(p)
            grid_obj = 0.5 * np.einsum("kn,kn->n", grid, p.gram @ grid) - p.linear @ grid
            assert qp_objective(p, a) <= grid_obj.min() + 1e-3

    def test_interior_solution_matches_closed_form(self):
        # With only the equality active, Lagrange elimination gives the
        # minimizer in closed form; compare when it is strictly positive.
        rng = np.random.default_rng(4)
        found = 0
        while found < 10:
            e = rng.normal(size=(6, 3))
            x = e @ rng.dirichlet([5.0, 5.0, 5.0]) + 0.01 * rng.normal(size=6)
            p = QpProblem(gram=e.T @ e, linear=e.T @ x)
            g_inv = np.linalg.inv(p.gram)
            ones = np.ones(3)
            nu = (ones @ g_inv @ p.linear - 1.0) / (ones @ g_inv @ ones)
            closed = g_inv @ (p.linear - nu * ones)
            if closed.min() <= 1e-3:
                continue
            found += 1
            np.testing.assert_allclose(solve_simplex_qp(p), closed, atol=1e-8)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            e = rng.normal(size=(7, 4))
            x = rng.normal(size=7)
            p = QpProblem(gram=e.T @ e, linear=e.T @ x)
            a = solve_simplex_qp(p)
            grad = p.gram @ a - p.linear
            free = a > 1e-12
            if free.any():
                nu = -grad[free].mean()
                residual = np.abs(grad[free] + nu).max()
                assert residual <= 1e-8
                mu = grad[~free] + nu
                assert (mu >= -1e-8).all()

    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_invariant_to_the_units_of_the_data(self, k):
        # E and x in units c scale G and f by c^2, and leave the minimizer.
        gram, linear = random_batch(k, 20, seed=k)
        for j in range(linear.shape[1]):
            base = solve_simplex_qp(QpProblem(gram=gram, linear=linear[:, j]))
            for c in (1e-3, 1e4, 1e12):
                scaled = QpProblem(gram=c * c * gram, linear=c * c * linear[:, j])
                np.testing.assert_allclose(solve_simplex_qp(scaled), base, rtol=0, atol=1e-11)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        e = rng.normal(size=(5, 3))
        x = rng.normal(size=5)
        p = QpProblem(gram=e.T @ e, linear=e.T @ x)
        a1 = solve_simplex_qp(p)
        a2 = solve_simplex_qp(p)
        np.testing.assert_array_equal(a1, a2)


def random_batch(k: int, m: int, seed: int):
    """A positive-definite gram and a (K, M) batch whose minimizers mix
    interior points, faces and vertices of the simplex."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(2 * k, k))
    x = rng.normal(size=(2 * k, m))
    gram = e.T @ e
    return 0.5 * (gram + gram.T), e.T @ x


class TestSimplexQpKernel:
    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_every_column_meets_kkt(self, k):
        gram, linear = random_batch(k, 300, seed=k)
        a = _simplex_qp(gram, linear)
        assert a.min() >= 0.0
        np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-12)
        grad = gram @ a - linear
        for j in range(a.shape[1]):
            support = a[:, j] > 0.0
            nu = -grad[support, j].mean()
            assert np.abs(grad[support, j] + nu).max() <= 1e-8
            assert (grad[~support, j] + nu >= -1e-8).all()

    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_columns_match_solves_alone(self, k):
        gram, linear = random_batch(k, 200, seed=10 + k)
        a = _simplex_qp(gram, linear)
        alone = np.stack(
            [solve_simplex_qp(QpProblem(gram=gram, linear=f)) for f in linear.T], axis=1
        )
        np.testing.assert_allclose(a, alone, rtol=0.0, atol=1e-12)

    def test_single_endmember_is_one(self):
        np.testing.assert_array_equal(_simplex_qp(np.eye(1), np.array([[0.2, -3.0]])), 1.0)

    def test_iteration_limit_raises(self):
        # A NaN right-hand side never reaches a stationary point; QpProblem
        # rejects it, so the kernel is called directly.
        with pytest.raises(SolverError, match="iteration limit"):
            _simplex_qp(np.eye(3), np.array([[np.nan], [0.0], [0.0]]))


class TestSolveNnlsClipped:
    def test_identity_endmembers_nonnegative_data(self):
        x = np.abs(np.random.default_rng(1).normal(size=(3, 4)))
        out = solve_nnls_clipped(EndmemberMatrix(np.eye(3)), HsiImage(x))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_negative_entry_clipped_to_zero(self):
        x = np.array([[0.5, 0.2], [-0.1, 0.3]])
        out = solve_nnls_clipped(EndmemberMatrix(np.eye(2)), HsiImage(x))
        assert out[1, 0] == 0.0
        assert out[0, 0] == pytest.approx(0.5)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(44)
        e = rng.uniform(0.1, 1.0, size=(6, 3))
        x = rng.uniform(0.0, 1.0, size=(6, 4))
        oracle = np.maximum(np.linalg.solve(e.T @ e, e.T @ x), 0.0)
        out = solve_nnls_clipped(EndmemberMatrix(e), HsiImage(x))
        np.testing.assert_allclose(out, oracle, atol=1e-10)

    def test_orthonormal_columns_reduce_to_projection(self):
        basis, _ = np.linalg.qr(np.random.default_rng(5).uniform(0.1, 1.0, (8, 3)))
        x = np.random.default_rng(6).uniform(0.0, 1.0, size=(8, 5))
        fit = solve_least_squares(basis, x)
        np.testing.assert_allclose(fit, basis.T @ x, atol=1e-12)

    def test_rank_deficient_named(self):
        e = np.ones((4, 2))
        with pytest.raises(SolverError, match="singular value"):
            solve_least_squares(e, np.ones((4, 3)))

    def test_no_endmember_columns_rejected(self):
        with pytest.raises(ValueError, match="no columns"):
            solve_least_squares(np.ones((4, 0)), np.ones((4, 3)))

    def test_condition_warning(self):
        e = np.array([[1.0, 1.0], [0.0, 1e-6]])
        with pytest.warns(RuntimeWarning, match="cond"):
            solve_least_squares(e, np.ones((2, 1)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda x, e: solve_least_squares(e.data, x.data),
            unmix_lmm,
            unmix_slmm,
            solve_als,
            solve_lbfgs,
            lambda x, e: als_step(x, e, TwoLmmState(np.ones((2, 1)), np.ones(2))).s_e,
        ],
        ids=[
            "least_squares",
            "unmix_lmm",
            "unmix_slmm",
            "solve_als",
            "solve_lbfgs",
            "als_update_se",
        ],
    )
    def test_condition_warning_points_at_the_caller(self, call):
        e = EndmemberMatrix(np.array([[1.0, 1.0], [0.0, 1e-6]]))
        with pytest.warns(RuntimeWarning, match="cond") as caught:
            call(HsiImage(np.ones((2, 1))), e)
        assert [w.filename for w in caught if "cond" in str(w.message)] == [__file__]
        # The solvers may also stop at max_iter; every warning points here.
        assert {w.filename for w in caught} == {__file__}
