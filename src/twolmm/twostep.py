"""Two-step scaling unmixing: cost/gradient, alternating least squares,
and a nonlinearly preconditioned limited-memory quasi-Newton solver.

The model reconstructs an image as ``E diag(s_e) A_s`` where ``s_e`` scales
each endmember once for the whole image and ``A_s`` holds per-pixel
abundances with the pixel scale folded in (``A_s = A diag(s_x)``). Both
blocks live in a box: ``0 <= A_s <= upper`` and ``lower <= s_e <= upper``.
After optimization :func:`twolmm.core.normalize_abundances` splits ``A_s``
back into simplex abundances and pixel scales.

Both solvers run one outer iteration loop:

- :func:`solve_lbfgs` treats the displacement produced by one ALS
  iteration as a gradient substitute inside an L-BFGS two-loop recursion,
  with a non-monotone backtracking rule that accepts any step whose cost
  stays below ``(1 + exp(-t))`` times the current cost. Box bounds are
  enforced when the iterate is formed, not during step selection, so
  trial points may leave the feasible set temporarily. Along a search line
  the cost is a quartic in the step; once the unit trial along a two-loop
  direction is rejected, a halving whose quartic bounds
  (:meth:`_SolverCost.line`) put it above the allowance is rejected
  without forming its trial point.
- :func:`solve_als` is the loop's other step rule, ``force_unit_step``:
  every iterate is the ALS point, so each iteration alternates the
  closed-form block updates (clipped least squares for ``A_s``, a
  Gauss-Seidel sweep for ``s_e``) and evaluates the cost once, with no
  direction, curvature pair or step-size search.

The solver loop evaluates every cost in the K-dimensional coordinates of
the fit (see :class:`_SolverCost`): with the thin QR ``E = QR``,

    ``||X - E diag(s_e) A_s||^2 = c0 + ||Q^T X - R diag(s_e) A_s||^2``,

where ``c0 = ||X - Q Q^T X||^2`` is the part of the image outside the span
of ``E``. ``Q``, ``R`` and ``Q^T X`` are those the solve's least-squares
fit is taken from (:func:`twolmm.solvers._qr_fit`), so a solve factorizes
``E`` once. The loop reads the image only at setup, for ``Q^T X``,
``E^T X``, the mask of all-zero pixels and ``c0``, whose P x N pass is
made over blocks of pixels; each cost after it is O(K^2 N) and is formed
in one K x N buffer. Both terms are nonnegative, so the rounding error
relative to the cost grows like ``eps ||X|| / sqrt(J)``, as for the direct
residual of :func:`cost`: near an exact fit (noiseless data, or about as
many bands as endmembers) either form's cost is at the rounding level.
Every ``||X - B C||^2`` over the image is
:func:`twolmm.core._squared_error`, accumulated over blocks of pixels; the
gradient comes from the normal equations (:func:`_gradient`), so no
function here forms a P x N array.

The outer iterations are sequential; the inner kernels are plain matrix
products and per-column solves, independent across pixels. The loop
writes every K N + K vector of an iteration into a buffer it reuses, and
runs the K^2 scale sweep on Python floats. The bits of a reduction depend
on its call and operand layout, so each keeps one (the Gram ``A_s A_s^T``,
the ``einsum`` row dots, the cost's product and sum, the ``dot`` of each
norm); ``tests/test_reference_loops.py`` holds the loop to a plain
reference bit for bit. The search line's quartic does not change a bit of
it: its bounds carry a slack that covers the rounding of both the quartic
and the direct cost, so they only reject a step whose direct cost would
exceed the allowance too, and every step they cannot decide, like the unit
trial and the accepted step, has its cost evaluated directly.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from .core import (
    EndmemberMatrix,
    HsiImage,
    _freeze,
    _squared_error,
    _warn,
    normalize_abundances,
)
from .solvers import (
    SolverError,
    _arrays,
    _normal_parts,
    _qr_fit,
    solve_least_squares,  # not called here; perfbench's tracer wraps it by this name
)
from .trace import IterationRecord, SolverTrace, UnmixResult, _unmix_result

__all__ = [
    "TwoLmmConfig",
    "TwoLmmState",
    "cost",
    "gradient",
    "als_step",
    "solve_als",
    "solve_lbfgs",
]

_CURVATURE_TOL = 1e-12
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class TwoLmmConfig:
    """Solver settings.

    ``lower``/``upper`` bound the scaling factors (``lower == upper`` pins
    them, which the bounds-sweep harness uses for the alpha = 1 case).
    ``eps`` is the relative-change threshold: iteration stops once the
    relative changes of both blocks are at most ``eps``. ``memory`` is the
    number of curvature pairs the quasi-Newton step keeps; with 0 the
    direction is the ALS displacement, but the step-size search still
    runs. The search is fixed (the class constants below): from step 1 it
    halves the step at most 30 times, then takes the ALS step.
    ``force_unit_step`` is plain ALS, which is how :func:`solve_als` runs:
    every iterate is the ALS point at step 1, no trial point is evaluated,
    ``cost_accept`` equals ``cost``, and ``memory`` is not used.
    """

    lower: float = 0.2
    upper: float = 5.0
    eps: float = 1e-6
    max_iter: int = 500
    memory: int = 5
    force_unit_step: bool = False
    step_init: ClassVar[float] = 1.0
    step_shrink: ClassVar[float] = 0.5
    max_backtracks: ClassVar[int] = 30

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError("bounds must satisfy 0 < lower <= upper")
        if not self.eps > 0:
            raise ValueError("termination thresholds must be positive")
        for name in ("max_iter", "memory"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.memory < 0:
            raise ValueError("memory must be nonnegative")


@dataclass(frozen=True)
class TwoLmmState:
    """Optimization state: scaled abundances ``a_s`` (K, N) and endmember
    scales ``s_e`` (K,), held read-only (:func:`twolmm.core._freeze`), so a
    state stays as checked. ``packed`` concatenates ``vec(a_s)`` (column
    major) and ``s_e`` into the flat iterate the quasi-Newton solver
    works on."""

    a_s: np.ndarray
    s_e: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_s", _freeze(np.atleast_2d(self.a_s)))
        object.__setattr__(self, "s_e", _freeze(self.s_e, flat=True))
        a_s, s_e = self.a_s, self.s_e
        if a_s.ndim != 2:
            raise ValueError("a_s must be a (K, N) array")
        if a_s.shape[0] != s_e.size:
            raise ValueError("a_s row count must match s_e length")
        if np.any(a_s < 0):
            raise ValueError("a_s must be nonnegative")
        if np.any(s_e <= 0):
            raise ValueError("s_e must be strictly positive")

    @property
    def packed(self) -> np.ndarray:
        return _pack(self.a_s, self.s_e)

    @classmethod
    def uniform(cls, k: int, n: int) -> "TwoLmmState":
        a_s = np.full((k, n), 1.0 / k, order="F")
        a_s.flags.writeable = False
        return cls(a_s=a_s, s_e=np.ones(k))

    @classmethod
    def from_packed(cls, z: np.ndarray, k: int, n: int) -> "TwoLmmState":
        a_s, s_e = _unpack(np.asarray(z), k, n)
        return cls(a_s=a_s, s_e=s_e)


def _pack(a_s: np.ndarray, s_e: np.ndarray) -> np.ndarray:
    return np.concatenate([a_s.ravel(order="F"), s_e])


def _unpack(z: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    if z.size != k * n + k:
        raise ValueError(f"packed vector has length {z.size}, expected {k * n + k}")
    return z[: k * n].reshape((k, n), order="F"), z[k * n :]


def _checked(endmembers, image, a_s=None) -> tuple[np.ndarray, np.ndarray]:
    """The (E, X) arrays (:func:`twolmm.solvers._arrays`), after checking
    that ``a_s`` is (K, N) when given."""
    e, x = _arrays(endmembers, image)
    if a_s is not None and a_s.shape != (e.shape[1], x.shape[1]):
        raise ValueError("state shape does not match image/endmembers")
    return e, x


def _gradient(
    gram: np.ndarray, etx: np.ndarray, a_s: np.ndarray, s_e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(grad_a, grad_s)``, the blocks of the gradient of
    ``||X - E diag(s_e) A_s||^2`` from the normal equations ``gram = E^T E``
    and ``etx = E^T X``: with ``W = gram diag(s_e) A_s - etx``, they are
    ``2 diag(s_e) W`` and ``2 diag(W A_s^T)``. The only gradient kernel."""
    w = gram @ (s_e[:, None] * a_s)
    w -= etx
    return 2.0 * s_e[:, None] * w, 2.0 * np.einsum("kn,kn->k", w, a_s)


class _SolverCost:
    """The cost function ``(a_s, s_e) -> J`` of the solver loop, and its
    quartic along a search line (:meth:`line`).

    ``J = c0 + ||Q^T X - R diag(s_e) A_s||^2`` with ``c0 = ||X - Q Q^T X||^2``
    (module docstring), from the thin QR ``E = QR`` and the ``Q^T X`` of the
    solve's least-squares fit (:func:`twolmm.solvers._qr_fit`), so E is not
    factorized again. ``c0`` is the one pass over the image, and ``J``
    agrees with :func:`cost` to rounding, about ``eps ||X|| / sqrt(J)``
    relative. A call forms the reduced residual ``R diag(s_e) A_s - Q^T X``
    in the (K, N) ``resid`` it is given, or else in the K x N buffer the
    object keeps, and squares it into that buffer; so a cost allocates no
    K x N array, and a caller's ``resid`` still holds the residual after it.
    """

    def __init__(self, x: np.ndarray, q: np.ndarray, r: np.ndarray, qtx: np.ndarray):
        self.c0 = _squared_error(x, q, qtx)
        self.r, self.qtx = r, qtx
        self.squares = np.empty(qtx.shape)
        # The sizes a line's rounding slack is stated in: ||R||_F and ||Q^T X||_F.
        self.r_norm = math.sqrt(float(np.vdot(r, r)))
        self.qtx_norm = math.sqrt(float(np.vdot(qtx, qtx)))

    def residual(self, a_s: np.ndarray, s_e: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(self.r * s_e, a_s, out=out)
        return np.subtract(out, self.qtx, out=out)

    def __call__(self, a_s: np.ndarray, s_e: np.ndarray, resid: np.ndarray | None = None) -> float:
        d = self.residual(a_s, s_e, self.squares if resid is None else resid)
        np.multiply(d, d, out=self.squares)
        return self.c0 + float(self.squares.sum())

    def line(
        self, z: np.ndarray, p: np.ndarray, j: float, unit: np.ndarray, spare: np.ndarray
    ) -> Callable[[float], tuple[float, float]]:
        """Bounds on the cost along the line ``z + gamma p`` (both packed,
        K N + K): a function ``gamma -> (low, high)`` such that a call at the
        trial point ``z + gamma * p``, formed as the solver loop forms it,
        returns a value in ``[low, high]`` for every step ``gamma = 2^-m``.

        With ``D0 = R diag(s) A - Q^T X`` at ``z = (A, s)``,
        ``D1 = R (diag(s) p_a + diag(p_s) A)`` and ``D2 = R diag(p_s) p_a``,
        the cost along the line is exactly the quartic
        ``c0 + ||D0 + gamma D1 + gamma^2 D2||^2``. Its constant term is
        anchored on ``j``, the value a call returned at ``z``; six dot
        products of ``D0`` (formed again in the kept buffer), ``D2`` (formed
        in ``spare``, a free (K, N) buffer) and ``D1 = U - D0 - D2`` give the
        others, where ``U`` is the residual a call at ``z + p`` left in
        ``unit``, which is overwritten with ``D1``. After this setup a bound
        costs a few float operations and touches no array.

        The interval is the quartic plus or minus a slack that covers the
        rounding of both evaluations: the first-order bound in the unit
        roundoff ``u``, doubled to cover the higher orders while
        ``K N u`` is small. At a point ``(s_g, A_g)`` of the line every
        residual entry a call forms is off by at most ``(K + 4) u`` times
        the entry of ``|R| diag(|s_g|) |A_g| + |Q^T X|`` (the trial point's
        rounding, the K-term products and the subtraction), so
        ``eta(g) = (K + 4) u w(g)`` bounds the error of the whole residual,
        with ``w(g) = ||R||_F (max|s| + g max|p_s|) (||A||_F + g ||p_a||_F)
        + ||Q^T X||_F``. ``D2`` is off by at most
        ``e2 = (K + 1) u ||R||_F max|p_s| ||p_a||_F`` and ``D1`` by
        ``e1 = eta(1) + eta(0) + e2 + u (2 ||D1|| + ||D2||)``, so the line the
        coefficients describe is within ``e = eta(0) + g e1 + g^2 e2`` of the
        exact one. With ``f = ||D0|| + g ||D1|| + g^2 ||D2|| + 2 e + 2 eta(0)
        + eta(g)`` bounding every residual norm involved, the sums of K N
        squares and products, the Horner evaluation and the additions of
        ``c0`` are off by at most ``(2 K N + 7) u (j + f^2)`` in all, and
        the residuals' errors move the squared norms by at most
        ``2 f (2 eta(0) + e + eta(g))``. The slack is twice their sum; on
        noisy data it is some 1e-11 of the cost, about a thousand times the
        gap it has to cover, and far below the gap between a rejected
        step's cost and the allowance. Where the quartic or its
        slack overflows, the interval is ``(-inf, inf)``; so a call's value
        is finite wherever ``high`` is.
        """
        k, n = self.qtx.shape
        kn = k * n
        a, s = _unpack(z, k, n)
        p_a, p_s = _unpack(p, k, n)
        d0 = self.residual(a, s, self.squares).ravel()
        d2 = np.matmul(self.r * p_s, p_a, out=spare).ravel()
        d1 = np.subtract(unit, self.squares, out=unit).ravel()
        d1 -= d2
        d00, d01, d11 = float(d0.dot(d0)), float(d0.dot(d1)), float(d1.dot(d1))
        d02, d12, d22 = float(d0.dot(d2)), float(d1.dot(d2)), float(d2.dot(d2))
        n0, n1, n2 = math.sqrt(d00), math.sqrt(d11), math.sqrt(d22)
        c1, c2, c3 = 2.0 * d01, d11 + 2.0 * d02, 2.0 * d12

        u = _UNIT_ROUNDOFF
        a_norm, p_norm = math.sqrt(z[:kn].dot(z[:kn])), math.sqrt(p[:kn].dot(p[:kn]))
        s_max, p_max = max(map(abs, s.tolist())), max(map(abs, p_s.tolist()))
        r_norm, qtx_norm = self.r_norm, self.qtx_norm
        e_res = (k + 4) * u

        def eta(g: float) -> float:
            return e_res * (r_norm * (s_max + g * p_max) * (a_norm + g * p_norm) + qtx_norm)

        eta0 = eta(0.0)
        e2 = (k + 1) * u * r_norm * p_max * p_norm
        e1 = eta(1.0) + eta0 + e2 + u * (2.0 * n1 + n2)
        sums = (2 * kn + 7) * u

        def bounds(gamma: float) -> tuple[float, float]:
            q = j + gamma * (c1 + gamma * (c2 + gamma * (c3 + gamma * d22)))
            e = eta0 + gamma * (e1 + gamma * e2)
            eta_g = eta(gamma)
            f = n0 + gamma * (n1 + gamma * n2) + 2.0 * (e + eta0) + eta_g
            slack = 2.0 * (sums * (j + f * f) + 2.0 * f * (2.0 * eta0 + e + eta_g))
            if not q + slack < math.inf:
                return -math.inf, math.inf
            return q - slack, q + slack

        return bounds


def _scaled_clip(fit: np.ndarray, s_e: np.ndarray, upper: float, out: np.ndarray) -> np.ndarray:
    """Abundance block update from the unconstrained fit, written into the
    (K, N) ``out``: divide row k by ``s_e[k]`` and clip into ``[0, upper]``.
    The division runs row by row: broadcast over the column-major fit, it
    would run a length-K inner loop. ``np.clip`` keeps the -0.0 fit of an
    all-zero pixel out of the result, where ``np.maximum`` would not."""
    for row, fit_row, scale in zip(out, fit, s_e.tolist()):
        np.divide(fit_row, scale, out=row)
    return np.clip(out, 0.0, upper, out=out)


def _sweep_scales(
    gram: np.ndarray, etx: np.ndarray, a_s: np.ndarray, s_e: np.ndarray, lower: float, upper: float
) -> list[float]:
    """Gauss-Seidel sweep over the scales (see :func:`als_step`), on Python floats."""
    b = np.einsum("kn,kn->k", etx, a_s).tolist()
    overlap = (a_s @ a_s.T).tolist()
    g = gram.tolist()
    s = s_e.tolist()
    for k in range(len(s)):
        den = g[k][k] * overlap[k][k]
        if den == 0.0:
            continue
        cross = 0.0
        for i in range(len(s)):
            if i != k:
                cross += g[k][i] * overlap[k][i] * s[i]
        s[k] = min(max((b[k] - cross) / den, lower), upper)
    return s


def _als_point(
    fit: np.ndarray,
    gram: np.ndarray,
    etx: np.ndarray,
    s_e: np.ndarray,
    cfg: TwoLmmConfig,
    out: np.ndarray,
) -> np.ndarray:
    """The packed point one ALS iteration reaches from scales ``s_e``, given
    the unconstrained per-column fit, written into ``out`` and returned: the
    scaled-clip abundance update, then one sweep over the scales."""
    a_new, s_new = _unpack(out, *fit.shape)
    _scaled_clip(fit, s_e, cfg.upper, a_new)
    s_new[:] = _sweep_scales(gram, etx, a_new, s_e, cfg.lower, cfg.upper)
    return out


def cost(image: HsiImage, endmembers: EndmemberMatrix, state: TwoLmmState) -> float:
    """Squared Frobenius reconstruction error ``||X - E diag(s_e) A_s||^2``."""
    e, x = _checked(endmembers, image, state.a_s)
    return _squared_error(x, e * state.s_e, state.a_s)


def gradient(image: HsiImage, endmembers: EndmemberMatrix, state: TwoLmmState) -> np.ndarray:
    """Packed analytic gradient of :func:`cost` with respect to
    ``(vec(a_s), s_e)``.

    From the normal equations, with ``W = E^T E diag(s_e) A_s - E^T X``
    (K x N), the blocks are ``2 diag(s_e) W`` and ``2 diag(W A_s^T)``.
    """
    e, x = _checked(endmembers, image, state.a_s)
    return _pack(*_gradient(*_normal_parts(e, x), state.a_s, state.s_e))


def als_step(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    state: TwoLmmState,
    config: TwoLmmConfig | None = None,
) -> TwoLmmState:
    """The state one ALS iteration of the solver loop reaches from ``state``:
    the point :func:`solve_als` takes and, less ``state.packed``, the
    displacement :func:`solve_lbfgs` uses in place of the gradient (zero
    exactly at an ALS fixed point).

    First ``a_s``: the per-column least-squares fit (through QR), row k
    divided by ``state.s_e[k]`` and clipped into ``[0, config.upper]``; of
    ``state.a_s`` only the shape is read. This is the block minimiser only
    when nothing is clipped: the columns of ``E`` are not orthogonal, so
    clipping one coordinate moves the best value of the others, and the
    clipped fit can even raise the cost. With unit scales and an infinite
    ``upper`` it is :func:`twolmm.solvers.solve_nnls_clipped`.

    Then ``s_e``: one Gauss-Seidel sweep given the new ``a_s``, in
    ascending index order. Each scale is set to its exact least-squares
    value given the others (already updated for smaller indices) and
    clipped into ``[config.lower, config.upper]``; an endmember with zero
    total abundance keeps its scale.
    """
    e, x = _checked(endmembers, image, state.a_s)
    k, n = state.a_s.shape
    z = np.empty(k * n + k)
    _als_point(_qr_fit(e, x)[0], *_normal_parts(e, x), state.s_e, config or TwoLmmConfig(), z)
    return TwoLmmState.from_packed(z, k, n)


def _rel_change(new: np.ndarray, old: np.ndarray, scratch: np.ndarray) -> float:
    """``||new - old|| / ||old||`` of two flat blocks, with the difference
    formed in ``scratch``. Each norm is the square root of a ``dot``, as
    ``np.linalg.norm`` takes it."""
    diff = np.subtract(new, old, out=scratch[: new.size])
    denom = math.sqrt(old.dot(old))
    diff = math.sqrt(diff.dot(diff))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


def solve_als(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    config: TwoLmmConfig | None = None,
    init: TwoLmmState | None = None,
) -> UnmixResult:
    """Plain alternating least squares on the two-step model.

    Alternates the closed-form block updates until both relative changes
    are at most ``eps`` or ``max_iter`` is reached. Kept as an
    ablation baseline: it is the loop of :func:`solve_lbfgs` run with
    ``force_unit_step``, whatever ``config`` sets for it, so every iteration
    takes the ALS point and costs one cost evaluation.
    """
    cfg = replace(config or TwoLmmConfig(), force_unit_step=True)
    return _solve(image, endmembers, cfg, init)


def _two_loop(
    q: np.ndarray, history: deque[tuple[np.ndarray, np.ndarray, float]], scratch: np.ndarray
) -> np.ndarray:
    """Standard L-BFGS two-loop recursion on a nonempty history, in place:
    overwrites ``q`` with ``H @ q`` and returns it. ``scratch``, of the
    same size, holds each scaled pair vector."""
    alphas: list[float] = []
    for s_vec, y_vec, rho in reversed(history):
        alpha = rho * float(s_vec @ q)
        q -= np.multiply(y_vec, alpha, out=scratch)
        alphas.append(alpha)
    s_vec, y_vec, _ = history[-1]
    q *= float(s_vec @ y_vec) / float(y_vec @ y_vec)
    for (s_vec, y_vec, rho), alpha in zip(history, reversed(alphas)):
        beta = rho * float(y_vec @ q)
        q += np.multiply(s_vec, alpha - beta, out=scratch)
    return q


def solve_lbfgs(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    config: TwoLmmConfig | None = None,
    init: TwoLmmState | None = None,
) -> UnmixResult:
    """Nonlinearly preconditioned limited-memory quasi-Newton unmixing.

    Each iteration computes the ALS displacement ``d = als(z) - z``, feeds
    ``-d`` through the two-loop recursion in place of the gradient
    (curvature pairs are ``(dz, -dd)`` from successive iterates, skipped
    when ``dz . (-dd)`` is not safely positive), and halves the step from
    1 until the non-monotone test
    ``J(z + step * p) <= (1 + exp(-t)) * J(z)`` accepts; the accepted
    point is then clipped into the box. Once the unit step along a
    two-loop direction is rejected, the cost along the line is known as
    the quartic ``c0 + ||D0 + step D1 + step^2 D2||^2``
    (:meth:`_SolverCost.line`), and a halving whose quartic, less a slack
    that covers the rounding of both the quartic and the direct cost,
    still exceeds the allowance is rejected without forming its trial
    point; every other trial point has its cost evaluated. So each accept
    decision, ``cost_accept`` and the trace's counters are those of
    evaluating every trial point. If 30 halvings do not reach an
    accepted step, the raw ALS step is taken and the curvature history is
    dropped; when that step would itself fail the test, only the
    endmember scales are updated, so every iteration meets the test.
    Every new iterate puts all-zero pixels back at ``a_s = 0``, their
    exact block minimizer, from which the two-loop direction can move them.
    Terminates once the relative changes of both blocks are at most
    ``eps``; stopping at ``max_iter`` instead raises a ``RuntimeWarning``.
    :class:`TwoLmmConfig` documents the settings, ``memory = 0`` and
    ``force_unit_step`` among them.
    """
    return _solve(image, endmembers, config or TwoLmmConfig(), init)


def _solve(image, endmembers, cfg: TwoLmmConfig, init) -> UnmixResult:
    e, x = _checked(endmembers, image, None if init is None else init.a_s)
    z, trace = _iterate(e, x, cfg, init)
    a_s, s_e = _unpack(z, e.shape[1], x.shape[1])
    return _unmix_result(image, e, a_s, s_e, normalize_abundances(a_s), trace)


def _iterate(
    e: np.ndarray, x: np.ndarray, cfg: TwoLmmConfig, init
) -> tuple[np.ndarray, SolverTrace]:
    """The one outer iteration of both solvers (see :func:`solve_lbfgs`):
    returns the final packed iterate and the trace.

    Each K N + K vector of an iteration (the ALS point, the displacement,
    the two-loop direction, the trial point, the curvature pair) is written
    into a buffer, and a buffer the iteration retires goes to ``spare`` for
    the next one, so once the curvature history is full no iteration
    allocates a K x N array. With a two-loop direction the search needs the
    ALS point only in the rare fallback, which forms it again, so the ALS
    point's buffer holds the trial residuals the search line is built from;
    the line's other two (K, N) vectors go to the cost's own buffer and the
    idle trial buffer. The buffers are freed when this returns, before the
    result is normalized.
    """
    k, n = e.shape[1], x.shape[1]
    kn = k * n
    # Unconstrained per-column fit for every abundance update, and its QR for every cost.
    fit, *qr = _qr_fit(e, x)
    gram, etx = _normal_parts(e, x)
    # a_s = 0 minimizes the block of an all-zero pixel; every iterate keeps it.
    zero_px = np.flatnonzero(~x.any(axis=0))
    state = init or TwoLmmState.uniform(k, n)
    if np.any(state.a_s > cfg.upper) or np.any(state.s_e < cfg.lower) or np.any(
        state.s_e > cfg.upper
    ):
        raise ValueError("initial state violates the box bounds")

    cost_at = _SolverCost(x, *qr)
    z = state.packed
    del state  # its K x N abundances are dead; z is the iterate from here on
    current_cost = cost_at(*_unpack(z, k, n))
    trace = SolverTrace(initial_cost=current_cost)
    history: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=cfg.memory)
    # The previous iterate and its ALS displacement, for the curvature pair
    # (kept only when memory > 0).
    prev_z = prev_dir = None
    spare: list[np.ndarray] = []  # retired buffers, taken before a new one is allocated

    def buffer() -> np.ndarray:
        return spare.pop() if spare else np.empty(kn + k)

    for t in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        a_cur, s_cur = _unpack(z, k, n)
        # Plain ALS takes the ALS point, at step 1, and evaluates no trial point.
        z_new = _als_point(fit, gram, etx, s_cur, cfg, buffer())
        gamma = cfg.step_init
        accept_cost = None
        evals, backtracks, skipped, fallback = 1, 0, False, False
        if cfg.force_unit_step:
            scratch = buffer()
            retired = [z, scratch]
        else:
            z_als = z_new
            precond = np.subtract(z_als, z, out=buffer())
            if prev_dir is not None:
                # The pair (dz, -dd), written over the retired iterate and
                # displacement. y is negated after the subtraction, since
                # prev_dir - precond differs from it on signed zeros.
                s_vec = np.subtract(z, prev_z, out=prev_z)
                y_vec = np.negative(np.subtract(precond, prev_dir, out=prev_dir), out=prev_dir)
                curvature = float(s_vec @ y_vec)
                floor = _CURVATURE_TOL * math.sqrt(s_vec.dot(s_vec)) * math.sqrt(y_vec.dot(y_vec))
                if curvature > floor:
                    if len(history) == cfg.memory:
                        spare += history[0][:2]  # the pair the append drops
                    history.append((s_vec, y_vec, 1.0 / curvature))
                else:
                    skipped = True
                    spare += (s_vec, y_vec)
            trial = buffer()
            if history:
                # The trial point is formed only after the recursion, so its
                # buffer serves as the recursion's scratch.
                direction = _two_loop(np.negative(precond, out=buffer()), history, trial)
                np.negative(direction, out=direction)
                # Of the search, only the fallback takes the ALS point, and it
                # forms the point again; its buffer holds the trial residuals.
                resid_buf, z_als = z_als, None
                resid = resid_buf[:kn].reshape(k, n)
            else:
                # The raw ALS displacement: its unit step is seldom rejected,
                # and every trial point along it is evaluated.
                direction, resid_buf, resid = precond, None, None
            line = None  # the bounds along the line, once the unit trial is rejected

            allowance = (1.0 + math.exp(-t)) * current_cost
            for _ in range(cfg.max_backtracks + 1):
                evals += 1
                # A step the line's bound rejects needs no trial point.
                if line is None or line(gamma)[0] <= allowance:
                    np.multiply(direction, gamma, out=trial)
                    trial += z
                    accept_cost = cost_at(*_unpack(trial, k, n), resid)
                    if not math.isfinite(accept_cost):
                        raise SolverError(f"non-finite cost during backtracking at t={t}")
                    if accept_cost <= allowance:
                        # A unit step along the raw ALS displacement is the ALS
                        # point itself, kept verbatim instead of re-adding the delta.
                        if gamma != 1.0 or direction is not precond:
                            np.clip(trial[:kn], 0.0, cfg.upper, out=trial[:kn])
                            np.clip(trial[kn:], cfg.lower, cfg.upper, out=trial[kn:])
                            z_new = trial
                        break
                    if line is None and resid is not None:
                        spare_kn = trial[:kn].reshape(k, n)
                        line = cost_at.line(z, direction, current_cost, resid, spare_kn)
                backtracks += 1
                gamma *= cfg.step_shrink
            else:
                # Backtracking budget exhausted: take the plain ALS step, which
                # is feasible by construction, and drop the curvature history.
                # The clipped abundance update is not an exact block minimizer,
                # so the ALS step can raise the cost; then only the scales move,
                # by the Gauss-Seidel sweep, which never raises it.
                fallback = True
                if z_als is None:
                    z_als, resid_buf = _als_point(fit, gram, etx, s_cur, cfg, resid_buf), None
                z_new = z_als
                accept_cost = cost_at(*_unpack(z_als, k, n))
                evals += 1
                if accept_cost > allowance:
                    z_new = trial
                    z_new[:kn] = z[:kn]
                    z_new[kn:] = _sweep_scales(gram, etx, a_cur, s_cur, cfg.lower, cfg.upper)
                    accept_cost = cost_at(*_unpack(z_new, k, n))
                    evals += 1
                gamma = cfg.step_init
                history.clear()
            # The search buffers not taken retire; the first is the scratch
            # of the relative changes.
            retired = [b for b in (trial, resid_buf, z_als) if b is not None and b is not z_new]
            scratch = retired[0]
            if direction is not precond:
                retired.append(direction)
            if cfg.memory:
                prev_z, prev_dir = z, precond
            else:
                retired += (z, precond)

        if zero_px.size:
            z_new[:kn].reshape(n, k)[zero_px] = 0.0
        rel_a = _rel_change(z_new[:kn], z[:kn], scratch)
        rel_s = _rel_change(z_new[kn:], z[kn:], scratch)
        new_cost = cost_at(*_unpack(z_new, k, n))
        trace.append(
            IterationRecord(
                iteration=t,
                cost=new_cost,
                cost_accept=new_cost if accept_cost is None else accept_cost,
                step=gamma,
                rel_change_a=rel_a,
                rel_change_s=rel_s,
                time_s=time.perf_counter() - t0,
                n_cost_evals=evals,
                backtracks=backtracks,
                pair_skipped=skipped,
                als_fallback=fallback,
            )
        )
        spare += retired
        z = z_new
        current_cost = new_cost
        if rel_a <= cfg.eps and rel_s <= cfg.eps:
            break
    else:
        if cfg.max_iter:
            _warn(
                f"stopped at max_iter={cfg.max_iter} without converging: last "
                f"rel_change_a={rel_a:.3g}, rel_change_s={rel_s:.3g}, eps={cfg.eps:g}"
            )
    return z, trace
