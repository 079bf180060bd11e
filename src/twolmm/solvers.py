"""Constrained least-squares kernels shared by the unmixers.

Two building blocks live here: an exact active-set solver for the per-pixel
simplex-constrained quadratic program, and a clipped linear least-squares
solve that goes through a QR factorization rather than the normal
equations. Per-pixel solves are independent (shared read-only inputs,
disjoint outputs), so callers may parallelize over pixels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import EndmemberMatrix, HsiImage

__all__ = [
    "SolverError",
    "QpProblem",
    "solve_simplex_qp",
    "solve_least_squares",
    "solve_nnls_clipped",
]

# Condition number of E^T E above which clipped least-squares solutions
# are flagged as untrustworthy.
CONDITION_WARN_THRESHOLD = 1e10


class SolverError(RuntimeError):
    """Raised when an iterative kernel fails to reach its tolerance."""


@dataclass(frozen=True)
class QpProblem:
    """Per-pixel quadratic program data: gram = E^T E, linear = E^T x.

    The gram matrix must be symmetric (to 1e-12 relative to its magnitude)
    and positive semidefinite (smallest eigenvalue >= -1e-10 on the same
    scale). The constraint is always the probability simplex; box
    constraints are handled by the clipped solve below.
    """

    gram: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=np.float64)
        linear = np.asarray(self.linear, dtype=np.float64).ravel()
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be a square matrix")
        if gram.shape[0] != linear.size:
            raise ValueError("gram and linear sizes are inconsistent")
        scale = max(1.0, float(np.abs(gram).max()))
        if np.abs(gram - gram.T).max() > 1e-12 * scale:
            raise ValueError("gram matrix is not symmetric")
        min_eig = float(np.linalg.eigvalsh(gram)[0])
        if min_eig < -1e-10 * scale:
            raise ValueError(
                f"gram matrix is not positive semidefinite (min eigenvalue {min_eig:g})"
            )
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "linear", linear)


def solve_simplex_qp(problem: QpProblem) -> np.ndarray:
    """Minimize ``0.5 a^T G a - f^T a`` over the probability simplex.

    Equivalent to projecting the least-squares fit of one pixel onto
    nonnegative, sum-to-one abundances. Uses a primal active-set method
    with the sum-to-one constraint kept as a permanent equality; ties are
    broken toward the lowest index so the result is deterministic.
    """
    return _simplex_qp(problem.gram, problem.linear)


def _simplex_qp(gram: np.ndarray, linear: np.ndarray) -> np.ndarray:
    k = linear.size
    if k == 1:
        return np.ones(1)
    scale = max(1.0, float(np.abs(gram).max()), float(np.abs(linear).max()))
    tol = 1e-11 * scale
    a = np.full(k, 1.0 / k)
    free = np.ones(k, dtype=bool)
    for _ in range(50 * k + 50):
        grad = gram @ a - linear
        idx = np.flatnonzero(free)
        nf = idx.size
        kkt = np.empty((nf + 1, nf + 1))
        kkt[:nf, :nf] = gram[np.ix_(idx, idx)]
        kkt[:nf, nf] = 1.0
        kkt[nf, :nf] = 1.0
        kkt[nf, nf] = 0.0
        rhs = np.empty(nf + 1)
        rhs[:nf] = -grad[idx]
        rhs[nf] = 0.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        step_f = sol[:nf]
        nu = sol[nf]
        if np.abs(step_f).max(initial=0.0) <= tol:
            bound = np.flatnonzero(~free)
            if bound.size == 0:
                break
            mu = grad[bound] + nu
            worst = np.argmin(mu)
            if mu[worst] >= -tol:
                break
            free[bound[worst]] = True
            continue
        # Full step to the equality-constrained minimizer, capped at the
        # first nonnegativity bound hit along the way. Ties bind the
        # lowest index.
        decreasing = step_f < -tol
        alpha = 1.0
        blocking = -1
        if np.any(decreasing):
            limits = a[idx[decreasing]] / -step_f[decreasing]
            best = float(limits.min())
            if best < 1.0:
                alpha = best
                tied = np.flatnonzero(limits <= best + 1e-15)
                blocking = int(idx[decreasing][tied].min())
        a[idx] += alpha * step_f
        if blocking >= 0:
            free[blocking] = False
        a[~free] = 0.0
        np.maximum(a, 0.0, out=a)
    else:
        raise SolverError("simplex QP active-set iteration limit exceeded")
    a = a.copy()
    a[~free] = 0.0
    return a


def _check_full_rank(e: np.ndarray) -> None:
    """Raise unless the (P, K) matrix ``e`` has full column rank; warn, at
    the caller's caller, when cond(E^T E) exceeds ``CONDITION_WARN_THRESHOLD``."""
    p, k = e.shape
    if p < k:
        raise ValueError(f"need at least as many bands as endmembers ({p} < {k})")
    sv = np.linalg.svd(e, compute_uv=False)
    if sv[-1] <= max(p, k) * np.finfo(np.float64).eps * sv[0]:
        raise SolverError(
            f"endmember matrix is rank deficient (smallest singular value {sv[-1]:g})"
        )
    cond = (sv[0] / sv[-1]) ** 2
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"cond(E^T E) = {cond:.3g} exceeds {CONDITION_WARN_THRESHOLD:g}; "
            "clipped least-squares solutions may be unreliable",
            RuntimeWarning,
            stacklevel=3,
        )


def solve_least_squares(endmembers: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Column-wise least-squares fit ``argmin ||E a - x||`` via QR.

    ``endmembers`` is (P, K) and must have full column rank; ``pixels`` is
    (P, N). Raises :class:`SolverError` naming the smallest singular value
    when E is rank deficient, and warns when cond(E^T E) exceeds
    ``CONDITION_WARN_THRESHOLD``.
    """
    e = np.asarray(endmembers, dtype=np.float64)
    x = np.asarray(pixels, dtype=np.float64)
    if e.ndim != 2 or x.ndim != 2 or e.shape[0] != x.shape[0]:
        raise ValueError("endmember and pixel band counts must match")
    _check_full_rank(e)
    q, r = np.linalg.qr(e)
    return scipy.linalg.solve_triangular(r, q.T @ x)


def solve_nnls_clipped(
    endmembers: EndmemberMatrix, image: HsiImage, hi: float = np.inf
) -> np.ndarray:
    """Least-squares abundances clipped into ``[0, hi]``, per pixel.

    The unconstrained per-column solution is computed first (through QR,
    never by inverting E^T E) and the box is applied afterwards;
    ``hi = inf`` leaves only the projection onto the nonnegative orthant.
    """
    if hi <= 0:
        raise ValueError("upper clip bound must be positive")
    a = solve_least_squares(endmembers.data, image.data)
    return np.clip(a, 0.0, hi)
