"""Constrained least-squares kernels against independent oracles."""

import numpy as np
import pytest

from twolmm import EndmemberMatrix, HsiImage, QpProblem, solve_nnls_clipped, solve_simplex_qp
from twolmm.solvers import SolverError, solve_least_squares


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

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        e = rng.normal(size=(5, 3))
        x = rng.normal(size=5)
        p = QpProblem(gram=e.T @ e, linear=e.T @ x)
        a1 = solve_simplex_qp(p)
        a2 = solve_simplex_qp(p)
        np.testing.assert_array_equal(a1, a2)


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

    def test_upper_clip(self):
        x = np.array([[3.0], [0.5]])
        out = solve_nnls_clipped(EndmemberMatrix(np.eye(2)), HsiImage(x), hi=1.0)
        np.testing.assert_allclose(out[:, 0], [1.0, 0.5])

    def test_rank_deficient_named(self):
        e = np.ones((4, 2))
        with pytest.raises(SolverError, match="singular value"):
            solve_least_squares(e, np.ones((4, 3)))

    def test_condition_warning(self):
        e = np.array([[1.0, 1.0], [0.0, 1e-6]])
        with pytest.warns(RuntimeWarning, match="cond"):
            solve_least_squares(e, np.ones((2, 1)))
