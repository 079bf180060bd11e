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
  trial points may leave the feasible set temporarily.
- :func:`solve_als` is the loop's other step rule, ``force_unit_step``:
  every iterate is the ALS point, so each iteration alternates the
  closed-form block updates (clipped least squares for ``A_s``, a
  Gauss-Seidel sweep for ``s_e``) and evaluates the cost once, with no
  direction, curvature pair or step-size search.

The solver loop evaluates every cost in the K-dimensional coordinates of
the fit (see :func:`_solver_cost`): with the thin QR ``E = QR``,

    ``||X - E diag(s_e) A_s||^2 = c0 + ||Q^T X - R diag(s_e) A_s||^2``,

where ``c0 = ||X - Q Q^T X||^2`` is the part of the image outside the span
of ``E``. ``Q``, ``R`` and ``Q^T X`` are those the solve's least-squares
fit is taken from (:func:`twolmm.solvers._qr_fit`), so a solve factorizes
``E`` once. The loop reads the image only at setup, for ``Q^T X``,
``E^T X``, the mask of all-zero pixels and ``c0``, whose P x N pass is
made over blocks of pixels; each cost after it is O(K^2 N) and allocates
one K x N array. Both terms are nonnegative, so the rounding error
relative to the cost grows like ``eps ||X|| / sqrt(J)``, as for the direct
residual of :func:`cost`: near an exact fit (noiseless data, or about as
many bands as endmembers) either form's cost is at the rounding level.
Every ``||X - B C||^2`` over the image is
:func:`twolmm.core._squared_error`, accumulated over blocks of pixels; the
gradient comes from the normal equations (:func:`_gradient`), so no
function here forms a P x N array.

The outer iterations are sequential; the inner kernels are plain matrix
products and per-column solves, independent across pixels.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .core import (
    EndmemberMatrix,
    HsiImage,
    _index_summary,
    _squared_error,
    _warn,
    normalize_abundances,
)
from .solvers import (
    SolverError,
    _arrays,
    _check_full_rank,
    _normal_parts,
    _qr_fit,
    solve_least_squares,
)
from .trace import IterationRecord, SolverTrace, UnmixResult, _unmix_result

__all__ = [
    "TwoLmmConfig",
    "TwoLmmState",
    "cost",
    "gradient",
    "als_update_a",
    "als_update_se",
    "precondition",
    "solve_als",
    "solve_lbfgs",
]

_CURVATURE_TOL = 1e-12


@dataclass(frozen=True)
class TwoLmmConfig:
    """Solver settings.

    ``lower``/``upper`` bound the scaling factors (``lower == upper`` pins
    them, which the bounds-sweep harness uses for the alpha = 1 case).
    ``eps_a``/``eps_s`` are the relative-change thresholds of the
    termination rule; iteration stops when both fall below their
    threshold. The loop has two step rules. By default it takes a searched
    quasi-Newton step: ``memory`` is the number of curvature pairs kept,
    and with 0 the direction is the ALS displacement, but the step-size
    search still runs, so ``memory = 0`` alone is not plain ALS. The
    step-size search is fixed: from step 1 it halves the step at most 30
    times (the class constants below), then takes the ALS step; the
    acceptance test evaluates the cost at the raw trial point and the box
    projection is applied afterwards. ``force_unit_step`` is plain ALS,
    which is how :func:`solve_als` runs: every iterate is the ALS point,
    the step is 1, no trial point is evaluated, ``cost_accept`` equals
    ``cost``, and ``memory`` is not used.
    """

    lower: float = 0.2
    upper: float = 5.0
    eps_a: float = 1e-6
    eps_s: float = 1e-6
    max_iter: int = 500
    memory: int = 5
    force_unit_step: bool = False
    step_init: ClassVar[float] = 1.0
    step_shrink: ClassVar[float] = 0.5
    max_backtracks: ClassVar[int] = 30

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError("bounds must satisfy 0 < lower <= upper")
        if not (self.eps_a > 0 and self.eps_s > 0):
            raise ValueError("termination thresholds must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.memory < 0:
            raise ValueError("memory must be nonnegative")


@dataclass(frozen=True)
class TwoLmmState:
    """Optimization state: scaled abundances ``a_s`` (K, N) and endmember
    scales ``s_e`` (K,). ``packed`` concatenates ``vec(a_s)`` (column
    major) and ``s_e`` into the flat iterate the quasi-Newton solver
    works on."""

    a_s: np.ndarray
    s_e: np.ndarray

    def __post_init__(self):
        a_s = np.atleast_2d(np.asarray(self.a_s, dtype=np.float64))
        s_e = np.asarray(self.s_e, dtype=np.float64).ravel()
        if a_s.shape[0] != s_e.size:
            raise ValueError("a_s row count must match s_e length")
        if not (np.all(np.isfinite(a_s)) and np.all(np.isfinite(s_e))):
            raise ValueError("state contains non-finite values")
        if np.any(a_s < 0):
            raise ValueError("a_s must be nonnegative")
        if np.any(s_e <= 0):
            raise ValueError("s_e must be strictly positive")
        object.__setattr__(self, "a_s", a_s)
        object.__setattr__(self, "s_e", s_e)

    @property
    def packed(self) -> np.ndarray:
        return _pack(self.a_s, self.s_e)

    @classmethod
    def uniform(cls, k: int, n: int) -> "TwoLmmState":
        return cls(a_s=np.full((k, n), 1.0 / k), s_e=np.ones(k))

    @classmethod
    def from_packed(cls, z: np.ndarray, k: int, n: int) -> "TwoLmmState":
        a_s, s_e = _unpack(np.asarray(z, dtype=np.float64), k, n)
        return cls(a_s=a_s, s_e=s_e)


def _pack(a_s: np.ndarray, s_e: np.ndarray) -> np.ndarray:
    return np.concatenate([a_s.ravel(order="F"), s_e])


def _unpack(z: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    if z.size != k * n + k:
        raise ValueError(f"packed vector has length {z.size}, expected {k * n + k}")
    return z[: k * n].reshape((k, n), order="F"), z[k * n :]


def _checked(endmembers, image, a_s=None, s_e=None) -> tuple[np.ndarray, np.ndarray]:
    """The (E, X) arrays (:func:`twolmm.solvers._arrays`), after checking
    that ``a_s`` is (K, N) and ``s_e`` is (K,) when given."""
    e, x = _arrays(endmembers, image)
    k, n = e.shape[1], x.shape[1]
    if (a_s is not None and a_s.shape != (k, n)) or (s_e is not None and s_e.shape != (k,)):
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


def _solver_cost(x: np.ndarray, q: np.ndarray, r: np.ndarray, qtx: np.ndarray):
    """The cost function ``(a_s, s_e) -> J`` of the solver loop.

    ``J = c0 + ||Q^T X - R diag(s_e) A_s||^2`` with ``c0 = ||X - Q Q^T X||^2``
    (module docstring), from the thin QR ``E = QR`` and the ``Q^T X`` of the
    solve's least-squares fit (:func:`twolmm.solvers._qr_fit`), so E is not
    factorized again. ``c0`` is the one pass over the image, and ``J``
    agrees with :func:`cost` to rounding, about ``eps ||X|| / sqrt(J)``
    relative.
    """
    c0 = _squared_error(x, q, qtx)

    def reduced_cost(a_s: np.ndarray, s_e: np.ndarray) -> float:
        d = (r * s_e) @ a_s
        d -= qtx
        d *= d
        return c0 + float(d.sum())

    return reduced_cost


def _scaled_clip(fit: np.ndarray, s_e: np.ndarray, upper: float) -> np.ndarray:
    """Abundance block update from the unconstrained fit: divide row k by
    ``s_e[k]`` and clip into ``[0, upper]``."""
    return np.clip(fit / s_e[:, None], 0.0, upper)


def _sweep_scales(
    gram: np.ndarray, etx: np.ndarray, a_s: np.ndarray, s_e: np.ndarray, lower: float, upper: float
) -> tuple[np.ndarray, list[int]]:
    """Gauss-Seidel sweep over the scales (see :func:`als_update_se`);
    also returns the endmembers with zero total abundance, whose scales
    it left unchanged."""
    b = np.einsum("kn,kn->k", etx, a_s)
    overlap = a_s @ a_s.T
    s = s_e.astype(np.float64).copy()
    absent = []
    for k in range(s.size):
        den = gram[k, k] * overlap[k, k]
        if den == 0.0:
            absent.append(k)
            continue
        cross = 0.0
        for i in range(s.size):
            if i != k:
                cross += gram[k, i] * overlap[k, i] * s[i]
        s[k] = min(max((b[k] - cross) / den, lower), upper)
    return s, absent


def _als_point(
    fit: np.ndarray, gram: np.ndarray, etx: np.ndarray, s_e: np.ndarray, cfg: TwoLmmConfig
) -> np.ndarray:
    """The packed point one ALS iteration reaches from scales ``s_e``, given
    the unconstrained per-column fit: the scaled-clip abundance update, then
    one sweep over the scales."""
    a_new = _scaled_clip(fit, s_e, cfg.upper)
    s_new, _ = _sweep_scales(gram, etx, a_new, s_e, cfg.lower, cfg.upper)
    return _pack(a_new, s_new)


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


def als_update_a(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    s_e: np.ndarray,
    upper: float = np.inf,
) -> np.ndarray:
    """Scaled-clip update of the scaled abundances.

    Solves the per-column least-squares fit through QR, divides row k by
    ``s_e[k]``, and clips the result into ``[0, upper]``. This is the
    minimiser of the cost over ``a_s`` only when nothing is clipped: the
    columns of ``E`` are not orthogonal, so clipping one coordinate moves
    the best value of the others, and the clipped fit can even raise the
    cost. With unit scales and an infinite bound this reduces to
    :func:`twolmm.solvers.solve_nnls_clipped`.
    """
    s_e = np.asarray(s_e, dtype=np.float64).ravel()
    e, x = _checked(endmembers, image, s_e=s_e)
    if np.any(s_e <= 0):
        raise ValueError("s_e must be strictly positive")
    if not (upper > 0):  # NaN fails too
        raise ValueError(f"upper clip bound must be positive, got {upper}")
    return _scaled_clip(solve_least_squares(e, x), s_e, upper)


def als_update_se(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    a_s: np.ndarray,
    s_e: np.ndarray,
    bounds: tuple[float, float],
) -> np.ndarray:
    """One Gauss-Seidel sweep over the endmember scales.

    Scales are visited in ascending index order; each coordinate is set to
    its exact least-squares value given all the others (already-updated
    values for smaller indices, current values for larger ones) and then
    clipped into ``bounds``. Endmembers with zero total abundance keep
    their current scale and are reported.
    """
    lower, upper = bounds
    if not (0.0 < lower <= upper):
        raise ValueError("bounds must satisfy 0 < lower <= upper")
    a_s = np.atleast_2d(np.asarray(a_s, dtype=np.float64))
    s_e = np.asarray(s_e, dtype=np.float64).ravel()
    e, x = _checked(endmembers, image, a_s, s_e)
    _check_full_rank(e)
    s, absent = _sweep_scales(*_normal_parts(e, x), a_s, s_e, lower, upper)
    if absent:
        _warn("endmembers absent from the scene kept their scales: " + _index_summary(absent))
    return s


def precondition(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    state: TwoLmmState,
    config: TwoLmmConfig | None = None,
) -> np.ndarray:
    """Displacement produced by one full ALS iteration from ``state``.

    Returns ``pack(als(state)) - pack(state)``; zero exactly at an ALS
    fixed point. This vector replaces the gradient inside the
    quasi-Newton solver.
    """
    e, x = _checked(endmembers, image, state.a_s)
    cfg = config or TwoLmmConfig()
    z_plus = _als_point(solve_least_squares(e, x), *_normal_parts(e, x), state.s_e, cfg)
    return z_plus - state.packed


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    denom = float(np.linalg.norm(old))
    diff = float(np.linalg.norm(new - old))
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
    fall below their thresholds or ``max_iter`` is reached. Kept as an
    ablation baseline: it is the loop of :func:`solve_lbfgs` run with
    ``force_unit_step``, whatever ``config`` sets for it, so every iteration
    takes the ALS point and costs one cost evaluation.
    """
    cfg = replace(config or TwoLmmConfig(), force_unit_step=True)
    return _solve(image, endmembers, cfg, init)


def _two_loop(
    grad_like: np.ndarray, history: deque[tuple[np.ndarray, np.ndarray, float]]
) -> np.ndarray:
    """Standard L-BFGS two-loop recursion on a nonempty history: returns
    H @ grad_like."""
    q = grad_like.copy()
    alphas: list[float] = []
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
    point is then clipped into the box. If 30 halvings do not reach an
    accepted step, the raw ALS step is taken and the curvature history is
    dropped; when that step would itself fail the test, only the
    endmember scales are updated, so every iteration meets the test.
    Every new iterate puts all-zero pixels back at ``a_s = 0``, their
    exact block minimizer, from which the two-loop direction can move them.
    Terminates when the relative change of both blocks falls below the
    thresholds; stopping at ``max_iter`` instead raises a
    ``RuntimeWarning``.

    With ``memory = 0`` the direction is the ALS displacement, and the
    step-size search still runs. ``force_unit_step`` drops the direction
    and the search, whatever ``memory`` is, and runs plain ALS, which is
    what :func:`solve_als` does.
    """
    return _solve(image, endmembers, config or TwoLmmConfig(), init)


def _solve(image, endmembers, cfg: TwoLmmConfig, init) -> UnmixResult:
    # The one outer iteration of both solvers (see solve_lbfgs).
    e, x = _checked(endmembers, image, None if init is None else init.a_s)
    k, n = e.shape[1], x.shape[1]
    # Unconstrained per-column fit for every abundance update, and its QR for every cost.
    fit, *qr = _qr_fit(e, x)
    gram, etx = _normal_parts(e, x)
    # a_s = 0 minimizes the block of an all-zero pixel; every iterate keeps it.
    zero_px = ~x.any(axis=0)
    state = init or TwoLmmState.uniform(k, n)
    if np.any(state.a_s > cfg.upper) or np.any(state.s_e < cfg.lower) or np.any(
        state.s_e > cfg.upper
    ):
        raise ValueError("initial state violates the box bounds")

    cost_at = _solver_cost(x, *qr)
    z = state.packed
    del state  # its K x N abundances are dead; z is the iterate from here on
    current_cost = cost_at(*_unpack(z, k, n))
    trace = SolverTrace(initial_cost=current_cost)
    history: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=cfg.memory)
    # The previous iterate and its ALS displacement, for the curvature pair.
    prev_z = prev_dir = None

    for t in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        a_cur, s_cur = _unpack(z, k, n)
        # Plain ALS takes the ALS point, at step 1, and evaluates no trial point.
        z_new = _als_point(fit, gram, etx, s_cur, cfg)
        gamma = cfg.step_init
        accept_cost = None
        if not cfg.force_unit_step:
            z_plus = z_new
            precond = z_plus - z
            if cfg.memory and prev_dir is not None:
                s_vec = z - prev_z
                y_vec = -(precond - prev_dir)
                curvature = float(s_vec @ y_vec)
                floor = _CURVATURE_TOL * float(np.linalg.norm(s_vec)) * float(
                    np.linalg.norm(y_vec)
                )
                if curvature > floor:
                    history.append((s_vec, y_vec, 1.0 / curvature))
            direction = -_two_loop(-precond, history) if history else precond

            allowance = (1.0 + math.exp(-t)) * current_cost
            for _ in range(cfg.max_backtracks + 1):
                accept_cost = cost_at(*_unpack(z + gamma * direction, k, n))
                if not math.isfinite(accept_cost):
                    raise SolverError(f"non-finite cost during backtracking at t={t}")
                if accept_cost <= allowance:
                    # A unit step along the raw ALS displacement is the ALS
                    # point itself, kept verbatim instead of re-adding the delta.
                    if gamma != 1.0 or direction is not precond:
                        z_new = z + gamma * direction
                        np.clip(z_new[: k * n], 0.0, cfg.upper, out=z_new[: k * n])
                        np.clip(z_new[k * n :], cfg.lower, cfg.upper, out=z_new[k * n :])
                    break
                gamma *= cfg.step_shrink
            else:
                # Backtracking budget exhausted: take the plain ALS step, which
                # is feasible by construction, and drop the curvature history.
                # The clipped abundance update is not an exact block minimizer,
                # so the ALS step can raise the cost; then only the scales move,
                # by the Gauss-Seidel sweep, which never raises it.
                accept_cost = cost_at(*_unpack(z_plus, k, n))
                if accept_cost > allowance:
                    s_swept, _ = _sweep_scales(gram, etx, a_cur, s_cur, cfg.lower, cfg.upper)
                    z_new = _pack(a_cur, s_swept)
                    accept_cost = cost_at(a_cur, s_swept)
                gamma = cfg.step_init
                history.clear()
            prev_z, prev_dir = z, precond

        z_new[: k * n].reshape(n, k)[zero_px] = 0.0
        a_new, s_new = _unpack(z_new, k, n)
        rel_a = _rel_change(a_new, a_cur)
        rel_s = _rel_change(s_new, s_cur)
        new_cost = cost_at(a_new, s_new)
        trace.append(
            IterationRecord(
                iteration=t,
                cost=new_cost,
                cost_accept=new_cost if accept_cost is None else accept_cost,
                step=gamma,
                rel_change_a=rel_a,
                rel_change_s=rel_s,
                time_s=time.perf_counter() - t0,
            )
        )
        z = z_new
        current_cost = new_cost
        if rel_a <= cfg.eps_a and rel_s <= cfg.eps_s:
            break
    else:
        if cfg.max_iter:
            _warn(
                f"stopped at max_iter={cfg.max_iter} without converging: last "
                f"rel_change_a={rel_a:.3g}, rel_change_s={rel_s:.3g}, "
                f"thresholds eps_a={cfg.eps_a:g}, eps_s={cfg.eps_s:g}"
            )

    a_s, s_e = _unpack(z, k, n)
    return _unmix_result(image, e, a_s, s_e, normalize_abundances(a_s), trace)
