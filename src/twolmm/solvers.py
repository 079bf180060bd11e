"""Constrained least-squares kernels shared by the unmixers.

Two building blocks live here: an exact active-set solver for the
simplex-constrained quadratic program, which solves every pixel of an
image in one batched call, and a clipped linear least-squares solve that
goes through a QR factorization rather than the normal equations. Every
check and factorization of the endmember matrix E that the unmixers use
lives here too: the band check, the rank check, the thin QR fit and the
normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _BLOCK, EndmemberMatrix, HsiImage, _as_real, _freeze, _warn

__all__ = [
    "SolverError",
    "QpProblem",
    "solve_simplex_qp",
    "solve_nnls_clipped",
]

# Condition number of E^T E above which clipped least-squares solutions
# are flagged as untrustworthy.
CONDITION_WARN_THRESHOLD = 1e10


class SolverError(RuntimeError):
    """Raised when a solver cannot produce a result: a kernel misses its
    tolerance, E is rank deficient, LMM's normal equations are not finite,
    or a cost is not finite (the check of
    :meth:`twolmm.trace.SolverTrace.append`, and of backtracking)."""


@dataclass(frozen=True)
class QpProblem:
    """Per-pixel quadratic program data: gram = E^T E, linear = E^T x.

    The gram matrix must be symmetric (to 1e-12 relative to its magnitude)
    and positive definite, which keeps every KKT system of the active set
    nonsingular. The constraint is always the probability simplex; the
    clipped solve below imposes nonnegativity alone.
    """

    gram: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gram", _freeze(self.gram))
        object.__setattr__(self, "linear", _freeze(self.linear, flat=True))
        gram, linear = self.gram, self.linear
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be a square matrix")
        if gram.shape[0] != linear.size:
            raise ValueError("gram and linear sizes are inconsistent")
        scale = max(1.0, float(np.abs(gram).max()))
        if np.abs(gram - gram.T).max() > 1e-12 * scale:
            raise ValueError("gram matrix is not symmetric")
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(gram)[0])
            kind = "semidefinite" if min_eig < -1e-10 * scale else "definite"
            raise ValueError(
                f"gram matrix is not positive {kind} (min eigenvalue {min_eig:g})"
            ) from None


def solve_simplex_qp(problem: QpProblem) -> np.ndarray:
    """Minimize ``0.5 a^T G a - f^T a`` over the probability simplex.

    Equivalent to projecting the least-squares fit of one pixel onto
    nonnegative, sum-to-one abundances. Uses a primal active-set method
    with the sum-to-one constraint kept as a permanent equality; ties are
    broken toward the lowest index so the result is deterministic.
    """
    # Row-major, as unmix_lmm's Gram: the kernel's products round by layout.
    return _simplex_qp(np.ascontiguousarray(problem.gram), problem.linear[:, None])[:, 0]


def _simplex_qp(gram: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """Minimizers of ``0.5 a^T G a - f^T a`` over the simplex, one for each
    column f of the (K, M) ``linear``; ``gram`` must be positive definite.

    The columns of a block run the same primal active set in lockstep. A
    bound coordinate's KKT row and column are those of the identity, so
    every KKT system is (K+1) x (K+1) and one stacked solve serves them all.
    Each iteration copies the KKT template of the free problem into the
    stack, writes the identity rows and columns of the bound coordinates,
    and solves against a right-hand side that is zero on them. Finished
    columns leave the block in the iterations where some finish. Blocks of
    ``_BLOCK`` columns keep the memory at O(_BLOCK * K^2).
    """
    k, m = linear.shape
    out = np.empty((k, m))
    kkt_all = np.block([[gram, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
    gscale = max(1.0, np.abs(gram).max())
    for start in range(0, m, _BLOCK):
        f = linear[:, start : start + _BLOCK].T
        cols = np.arange(start, start + f.shape[0])
        # The multipliers are in the units of G and f, the steps in those of
        # the abundances; tol / gscale keeps the step test free of the units.
        tol = 1e-11 * np.maximum(gscale, np.abs(f).max(axis=1))
        a = np.full(f.shape, 1.0 / k)
        free = np.ones(f.shape, dtype=bool)
        for _ in range(50 * k + 50):
            grad = a @ gram - f
            kkt = np.empty((len(a), k + 1, k + 1))
            kkt[:] = kkt_all
            rows, bound = np.nonzero(~free)
            kkt[rows, bound, :] = 0.0
            kkt[rows, :, bound] = 0.0
            kkt[rows, bound, bound] = 1.0
            rhs = np.zeros((len(a), k + 1, 1))
            rhs[:, :k, 0] = np.where(free, -grad, 0.0)
            sol = np.linalg.solve(kkt, rhs)[:, :, 0]
            step, nu = sol[:, :k], sol[:, k]
            # Row extrema are read at the arg-extremum: numpy's min and max
            # along a short last axis cost several times more.
            lane = np.arange(len(a))
            # At the equality-constrained minimizer of the free set, free the
            # bound coordinate with the most negative multiplier, or stop
            # when none is negative. Ties go to the lowest index.
            magnitude = np.abs(step)
            stationary = magnitude[lane, magnitude.argmax(axis=1)] <= tol / gscale
            mu = np.where(free, np.inf, grad + nu[:, None])
            worst = np.argmin(mu, axis=1)
            done = stationary & (mu[lane, worst] >= -tol)
            release = stationary & ~done
            free[release, worst[release]] = True
            # Elsewhere step to that minimizer, stopping at the first
            # nonnegativity bound hit on the way; ties bind the lowest index.
            decreasing = ~stationary[:, None] & (step < -tol[:, None] / gscale)
            with np.errstate(divide="ignore", invalid="ignore"):
                limits = np.divide(a, -step)
            limits[~decreasing] = np.inf
            best = limits[lane, limits.argmin(axis=1)]
            blocked = best < 1.0
            blocking = np.argmax(decreasing & (limits <= best[:, None] + 1e-15), axis=1)
            a += (np.minimum(best, 1.0) * ~stationary)[:, None] * step
            free[blocked, blocking[blocked]] = False
            np.maximum(a, 0.0, out=a)
            a[~free] = 0.0
            if done.any():
                out[:, cols[done]] = a[done].T
                a, f, free, tol, cols = (v[~done] for v in (a, f, free, tol, cols))
                if not cols.size:
                    break
        else:
            raise SolverError("simplex QP active-set iteration limit exceeded")
    return out


def _arrays(endmembers: EndmemberMatrix, image: HsiImage) -> tuple[np.ndarray, np.ndarray]:
    """The (E, X) arrays of the two containers, after :func:`_check_bands`."""
    if not (isinstance(endmembers, EndmemberMatrix) and isinstance(image, HsiImage)):
        got = f"{type(image).__name__} and {type(endmembers).__name__}"
        raise TypeError(f"image and endmembers must be HsiImage and EndmemberMatrix, got {got}")
    _check_bands(endmembers.data, image.data)
    return endmembers.data, image.data


def _check_bands(e: np.ndarray, x: np.ndarray) -> None:
    """Raise unless ``e`` (P, K) and ``x`` (P, N) are matrices with the same P."""
    if e.ndim != 2 or x.ndim != 2 or e.shape[0] != x.shape[0]:
        raise ValueError(f"band mismatch: image has shape {x.shape}, endmembers {e.shape}")


def _check_full_rank(e: np.ndarray) -> None:
    """Raise unless the (P, K) ``e`` has a column and full column rank; warn
    when cond(E^T E) exceeds ``CONDITION_WARN_THRESHOLD``. The callers have
    checked its bands (:func:`_check_bands`)."""
    p, k = e.shape
    if k == 0:
        raise ValueError("endmember matrix has no columns")
    if p < k:
        raise ValueError(f"need at least as many bands as endmembers ({p} < {k})")
    sv = np.linalg.svd(e, compute_uv=False)
    if sv[-1] <= max(p, k) * np.finfo(np.float64).eps * sv[0]:
        raise SolverError(
            f"endmember matrix is rank deficient (smallest singular value {sv[-1]:g})"
        )
    cond = (sv[0] / sv[-1]) ** 2
    if cond > CONDITION_WARN_THRESHOLD:
        _warn(
            f"cond(E^T E) = {cond:.3g} exceeds {CONDITION_WARN_THRESHOLD:g}; "
            "clipped least-squares solutions may be unreliable"
        )


def _qr_fit(e: np.ndarray, x: np.ndarray):
    """``(fit, q, r, qtx)``: the least-squares fit of each column of ``x`` from the
    thin QR ``E = QR`` and ``qtx = Q^T X``, after :func:`_check_full_rank`."""
    _check_full_rank(e)
    q, r = np.linalg.qr(e)
    qtx = q.T @ x
    # Column-major like the images: numpy sums a C-ordered fit in another order.
    return np.asfortranarray(np.linalg.solve(r, qtx)), q, r, qtx


def _normal_parts(e: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(E^T E, E^T X)``, the Gram matrix symmetrized."""
    gram = e.T @ e
    return 0.5 * (gram + gram.T), e.T @ x


def solve_least_squares(endmembers: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Column-wise least-squares fit ``argmin ||E a - x||`` via QR.

    ``endmembers`` is (P, K) and must have full column rank; ``pixels`` is
    (P, N). Raises :class:`SolverError` naming the smallest singular value
    when E is rank deficient, and warns when cond(E^T E) exceeds
    ``CONDITION_WARN_THRESHOLD``.
    """
    e = _as_real(endmembers)
    x = _as_real(pixels)
    _check_bands(e, x)
    return _qr_fit(e, x)[0]


def solve_nnls_clipped(endmembers: EndmemberMatrix, image: HsiImage) -> np.ndarray:
    """Least-squares abundances clipped onto the nonnegative orthant, per pixel.

    The unconstrained per-column solution is computed first (through QR,
    never by inverting E^T E) and the negative entries are set to zero
    afterwards.
    """
    a = _qr_fit(*_arrays(endmembers, image))[0]
    return np.clip(a, 0.0, np.inf)
