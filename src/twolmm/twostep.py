"""Two-step scaling unmixing: cost/gradient, alternating least squares,
and a nonlinearly preconditioned limited-memory quasi-Newton solver.

The model reconstructs an image as ``E diag(s_e) A_s`` where ``s_e`` scales
each endmember once for the whole image and ``A_s`` holds per-pixel
abundances with the pixel scale folded in (``A_s = A diag(s_x)``). Both
blocks live in a box: ``0 <= A_s <= upper`` and ``lower <= s_e <= upper``.
After optimization :func:`twolmm.core.normalize_abundances` splits ``A_s``
back into simplex abundances and pixel scales.

Two solvers are provided:

- :func:`solve_als` alternates the closed-form block updates (clipped
  least squares for ``A_s``, a Gauss-Seidel sweep for ``s_e``).
- :func:`solve_lbfgs` treats the displacement produced by one ALS
  iteration as a gradient substitute inside an L-BFGS two-loop recursion,
  with a non-monotone backtracking rule that accepts any step whose cost
  stays below ``(1 + exp(-t))`` times the current cost. Box bounds are
  enforced when the iterate is formed, not during step selection, so
  trial points may leave the feasible set temporarily.

The outer iterations are sequential; the inner kernels are plain matrix
products and per-column solves, independent across pixels.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    AbundanceMatrix,
    EndmemberMatrix,
    HsiImage,
    _index_summary,
    normalize_abundances,
    rmse_a,
)
from .solvers import SolverError, solve_least_squares
from .trace import IterationRecord, SolverTrace, UnmixResult

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
    threshold. ``memory`` is the number of curvature pairs kept by the
    quasi-Newton solver (0 disables it, degenerating to plain ALS).
    Backtracking starts at ``step_init`` and multiplies by
    ``step_shrink`` at most ``max_backtracks`` times; the acceptance test
    evaluates the cost at the raw trial point and the box projection is
    applied afterwards. ``force_unit_step`` skips the step-size search
    entirely (used with ``memory = 0`` to reproduce plain ALS iterates bit
    for bit).
    """

    lower: float = 0.2
    upper: float = 5.0
    eps_a: float = 1e-6
    eps_s: float = 1e-6
    max_iter: int = 500
    memory: int = 5
    step_init: float = 1.0
    step_shrink: float = 0.5
    max_backtracks: int = 30
    force_unit_step: bool = False

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError("bounds must satisfy 0 < lower <= upper")
        if self.eps_a <= 0 or self.eps_s <= 0:
            raise ValueError("termination thresholds must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.memory < 0:
            raise ValueError("memory must be nonnegative")
        if not (0.0 < self.step_shrink < 1.0) or self.step_init <= 0:
            raise ValueError("invalid backtracking parameters")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be nonnegative")


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


def _data(obj) -> np.ndarray:
    return obj.data if hasattr(obj, "data") else np.asarray(obj, dtype=np.float64)


# The residual, cost and gradient below are the only implementations; the
# solver kernel and the public helpers all call them.
def _residual(e: np.ndarray, x: np.ndarray, a_s: np.ndarray, s_e: np.ndarray) -> np.ndarray:
    return (e * s_e) @ a_s - x


def _cost(e: np.ndarray, x: np.ndarray, a_s: np.ndarray, s_e: np.ndarray) -> float:
    resid = _residual(e, x, a_s, s_e)
    return float(np.sum(resid * resid))


def _gradient(e: np.ndarray, x: np.ndarray, a_s: np.ndarray, s_e: np.ndarray) -> np.ndarray:
    et_resid = e.T @ _residual(e, x, a_s, s_e)
    grad_a = 2.0 * s_e[:, None] * et_resid
    grad_s = 2.0 * np.einsum("kn,kn->k", et_resid, a_s)
    return _pack(grad_a, grad_s)


def _scaled_clip(fit: np.ndarray, s_e: np.ndarray, upper: float) -> np.ndarray:
    """Abundance block update from the unconstrained fit: divide row k by
    ``s_e[k]`` and clip into ``[0, upper]``."""
    return np.clip(fit / s_e[:, None], 0.0, upper)


class _Kernel:
    """Cached factorizations and products for a fixed (E, X) pair."""

    def __init__(self, endmembers, image):
        self.e = _data(endmembers)
        self.x = _data(image)
        if self.e.ndim != 2 or self.x.ndim != 2 or self.e.shape[0] != self.x.shape[0]:
            raise ValueError("endmember and image band counts must match")
        self.k = self.e.shape[1]
        self.n = self.x.shape[1]
        # Unconstrained per-column fit; reused by every abundance update.
        self.base_fit = solve_least_squares(self.e, self.x)
        self.etx = self.e.T @ self.x
        gram = self.e.T @ self.e
        self.gram = 0.5 * (gram + gram.T)

    def cost(self, a_s: np.ndarray, s_e: np.ndarray) -> float:
        return _cost(self.e, self.x, a_s, s_e)

    def cost_packed(self, z: np.ndarray) -> float:
        a_s, s_e = _unpack(z, self.k, self.n)
        return self.cost(a_s, s_e)

    def update_s(
        self,
        a_s: np.ndarray,
        s_e: np.ndarray,
        lower: float,
        upper: float,
        report_absent: bool = False,
    ) -> np.ndarray:
        b = np.einsum("kn,kn->k", self.etx, a_s)
        overlap = a_s @ a_s.T
        s = s_e.astype(np.float64).copy()
        absent = []
        for k in range(self.k):
            den = self.gram[k, k] * overlap[k, k]
            if den == 0.0:
                absent.append(k)
                continue
            cross = 0.0
            for i in range(self.k):
                if i != k:
                    cross += self.gram[k, i] * overlap[k, i] * s[i]
            s[k] = min(max((b[k] - cross) / den, lower), upper)
        if absent and report_absent:
            warnings.warn(
                "endmembers absent from the scene kept their scales: "
                + _index_summary(absent),
                RuntimeWarning,
                stacklevel=3,
            )
        return s

    def als_step(
        self, a_s: np.ndarray, s_e: np.ndarray, cfg: TwoLmmConfig
    ) -> tuple[np.ndarray, np.ndarray]:
        a_new = _scaled_clip(self.base_fit, s_e, cfg.upper)
        s_new = self.update_s(a_new, s_e, cfg.lower, cfg.upper)
        return a_new, s_new

    def clip_packed(self, z: np.ndarray, cfg: TwoLmmConfig) -> np.ndarray:
        out = z.copy()
        kn = self.k * self.n
        np.clip(out[:kn], 0.0, cfg.upper, out=out[:kn])
        np.clip(out[kn:], cfg.lower, cfg.upper, out=out[kn:])
        return out


def cost(image: HsiImage, endmembers: EndmemberMatrix, state: TwoLmmState) -> float:
    """Squared Frobenius reconstruction error ``||X - E diag(s_e) A_s||^2``."""
    e, x = _data(endmembers), _data(image)
    if e.shape[0] != x.shape[0]:
        raise ValueError("endmember and image band counts must match")
    if state.a_s.shape != (e.shape[1], x.shape[1]):
        raise ValueError("state shape does not match image/endmembers")
    return _cost(e, x, state.a_s, state.s_e)


def gradient(image: HsiImage, endmembers: EndmemberMatrix, state: TwoLmmState) -> np.ndarray:
    """Packed analytic gradient of :func:`cost` with respect to
    ``(vec(a_s), s_e)``.

    With ``R = E diag(s_e) A_s - X`` the blocks are
    ``2 diag(s_e) E^T R`` and ``2 diag(E^T R A_s^T)``.
    """
    return _gradient(_data(endmembers), _data(image), state.a_s, state.s_e)


def als_update_a(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    s_e: np.ndarray,
    upper: float = np.inf,
) -> np.ndarray:
    """Exact block update of the scaled abundances, then box clipping.

    Solves the per-column least-squares fit through QR, divides row k by
    ``s_e[k]``, and clips the result into ``[0, upper]``. With unit scales
    and an infinite bound this reduces to
    :func:`twolmm.solvers.solve_nnls_clipped`.
    """
    s_e = np.asarray(s_e, dtype=np.float64).ravel()
    if np.any(s_e <= 0):
        raise ValueError("s_e must be strictly positive")
    return _scaled_clip(solve_least_squares(_data(endmembers), _data(image)), s_e, upper)


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
    kernel = _Kernel(endmembers, image)
    a_s = np.atleast_2d(np.asarray(a_s, dtype=np.float64))
    s_e = np.asarray(s_e, dtype=np.float64).ravel()
    if a_s.shape != (kernel.k, kernel.n) or s_e.size != kernel.k:
        raise ValueError("abundance/scale shapes do not match image/endmembers")
    return kernel.update_s(a_s, s_e, lower, upper, report_absent=True)


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
    cfg = config or TwoLmmConfig()
    kernel = _Kernel(endmembers, image)
    a_new, s_new = kernel.als_step(state.a_s, state.s_e, cfg)
    return _pack(a_new, s_new) - state.packed


def _check_init(state: TwoLmmState, cfg: TwoLmmConfig, k: int, n: int) -> None:
    if state.a_s.shape != (k, n):
        raise ValueError(
            f"initial state has shape {state.a_s.shape}, expected {(k, n)}"
        )
    if np.any(state.a_s > cfg.upper) or np.any(state.s_e < cfg.lower) or np.any(
        state.s_e > cfg.upper
    ):
        raise ValueError("initial state violates the box bounds")


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    denom = float(np.linalg.norm(old))
    diff = float(np.linalg.norm(new - old))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


def _iterate_rmse_a(a_s: np.ndarray, truth: AbundanceMatrix | None) -> float:
    if truth is None:
        return math.nan
    return rmse_a(truth, normalize_abundances(a_s).abundances)


def _finalize(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    a_s: np.ndarray,
    s_e: np.ndarray,
    trace: SolverTrace,
) -> UnmixResult:
    norm = normalize_abundances(a_s)
    if norm.degenerate_pixels.size:
        warnings.warn(
            "pixels that ended with zero abundance were flagged degenerate: "
            + _index_summary(norm.degenerate_pixels),
            RuntimeWarning,
            stacklevel=3,
        )
    recon = HsiImage(
        (_data(endmembers) * s_e) @ a_s, width=image.width, height=image.height
    )
    return UnmixResult(
        abundances=norm.abundances,
        s_x=norm.s_x,
        s_e=s_e.copy(),
        reconstruction=recon,
        trace=trace,
    )


def solve_als(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    config: TwoLmmConfig | None = None,
    init: TwoLmmState | None = None,
    truth=None,
) -> UnmixResult:
    """Plain alternating least squares on the two-step model.

    Alternates the closed-form block updates until both relative changes
    fall below their thresholds or ``max_iter`` is reached. Kept as an
    ablation baseline; it shares every kernel with :func:`solve_lbfgs`.
    When ``truth`` (a normalized :class:`~twolmm.core.AbundanceMatrix`)
    is given, each trace record carries the iterate's abundance RMSE.
    """
    cfg = config or TwoLmmConfig()
    kernel = _Kernel(endmembers, image)
    state = init or TwoLmmState.uniform(kernel.k, kernel.n)
    _check_init(state, cfg, kernel.k, kernel.n)

    a_s, s_e = state.a_s, state.s_e
    trace = SolverTrace(initial_cost=kernel.cost(a_s, s_e))
    for t in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        a_new, s_new = kernel.als_step(a_s, s_e, cfg)
        rel_a = _rel_change(a_new, a_s)
        rel_s = _rel_change(s_new, s_e)
        value = kernel.cost(a_new, s_new)
        trace.append(
            IterationRecord(
                iteration=t,
                cost=value,
                cost_accept=value,
                step=1.0,
                rel_change_a=rel_a,
                rel_change_s=rel_s,
                time_s=time.perf_counter() - t0,
                rmse_a=_iterate_rmse_a(a_new, truth),
            )
        )
        a_s, s_e = a_new, s_new
        if rel_a <= cfg.eps_a and rel_s <= cfg.eps_s:
            break
    return _finalize(image, endmembers, a_s, s_e, trace)


def _two_loop(
    grad_like: np.ndarray, history: deque[tuple[np.ndarray, np.ndarray, float]]
) -> np.ndarray:
    """Standard L-BFGS two-loop recursion: returns H @ grad_like."""
    q = grad_like.copy()
    alphas: list[float] = []
    for s_vec, y_vec, rho in reversed(history):
        alpha = rho * float(s_vec @ q)
        q -= alpha * y_vec
        alphas.append(alpha)
    if history:
        s_vec, y_vec, _ = history[-1]
        scale = float(s_vec @ y_vec) / float(y_vec @ y_vec)
    else:
        scale = 1.0
    r = scale * q
    for (s_vec, y_vec, rho), alpha in zip(history, reversed(alphas)):
        beta = rho * float(y_vec @ r)
        r += (alpha - beta) * s_vec
    return r


def solve_lbfgs(
    image: HsiImage,
    endmembers: EndmemberMatrix,
    config: TwoLmmConfig | None = None,
    init: TwoLmmState | None = None,
    truth=None,
) -> UnmixResult:
    """Nonlinearly preconditioned limited-memory quasi-Newton unmixing.

    Each iteration computes the ALS displacement ``d = als(z) - z``, feeds
    ``-d`` through the two-loop recursion in place of the gradient
    (curvature pairs are ``(dz, -dd)`` from successive iterates, skipped
    when ``dz . (-dd)`` is not safely positive), and backtracks from a
    unit step until the non-monotone test
    ``J(z + step * p) <= (1 + exp(-t)) * J(z)`` accepts; the accepted
    point is then clipped into the box. If backtracking exhausts its
    budget, the raw ALS step is taken and the curvature history is
    dropped; when that step would itself fail the test, only the
    endmember scales are updated, so every iteration meets the test.
    Terminates when the relative change of both blocks falls below the
    thresholds.

    With ``memory = 0`` the direction equals the ALS displacement, and
    adding ``force_unit_step`` makes the iterates reproduce
    :func:`solve_als` bit for bit. ``truth`` is as in :func:`solve_als`.
    """
    cfg = config or TwoLmmConfig()
    kernel = _Kernel(endmembers, image)
    state = init or TwoLmmState.uniform(kernel.k, kernel.n)
    _check_init(state, cfg, kernel.k, kernel.n)

    z = state.packed
    current_cost = kernel.cost_packed(z)
    trace = SolverTrace(initial_cost=current_cost)
    history: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=max(cfg.memory, 0))
    prev_z: np.ndarray | None = None
    prev_dir: np.ndarray | None = None

    for t in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        a_cur, s_cur = _unpack(z, kernel.k, kernel.n)
        a_plus, s_plus = kernel.als_step(a_cur, s_cur, cfg)
        z_plus = _pack(a_plus, s_plus)
        precond = z_plus - z

        if prev_dir is not None:
            s_vec = z - prev_z
            y_vec = -(precond - prev_dir)
            curvature = float(s_vec @ y_vec)
            floor = _CURVATURE_TOL * float(np.linalg.norm(s_vec)) * float(
                np.linalg.norm(y_vec)
            )
            if curvature > floor:
                history.append((s_vec, y_vec, 1.0 / curvature))

        direction = -_two_loop(-precond, history)

        allowance = (1.0 + math.exp(-t)) * current_cost
        gamma = cfg.step_init
        accepted = False
        trial_cost = math.inf
        budget = 1 if cfg.force_unit_step else cfg.max_backtracks + 1
        for _ in range(budget):
            trial_cost = kernel.cost_packed(z + gamma * direction)
            if not math.isfinite(trial_cost):
                raise SolverError(f"non-finite cost during backtracking at t={t}")
            if cfg.force_unit_step or trial_cost <= allowance:
                accepted = True
                break
            gamma *= cfg.step_shrink

        if accepted:
            if gamma == cfg.step_init and np.array_equal(direction, precond):
                # Unit step along the raw ALS displacement is the ALS point
                # itself; reuse it verbatim instead of re-adding the delta.
                z_new = z_plus
            else:
                z_new = kernel.clip_packed(z + gamma * direction, cfg)
            accept_cost = trial_cost
        else:
            # Backtracking budget exhausted: take the plain ALS step, which
            # is feasible by construction, and drop the curvature history.
            # The clipped abundance update is not an exact block minimizer,
            # so the ALS step can raise the cost; then only the scales move,
            # by the Gauss-Seidel sweep, which never raises it.
            z_new = z_plus
            accept_cost = kernel.cost_packed(z_plus)
            if accept_cost > allowance:
                s_swept = kernel.update_s(a_cur, s_cur, cfg.lower, cfg.upper)
                z_new = _pack(a_cur, s_swept)
                accept_cost = kernel.cost(a_cur, s_swept)
            gamma = cfg.step_init
            history.clear()

        a_new, s_new = _unpack(z_new, kernel.k, kernel.n)
        rel_a = _rel_change(a_new, a_cur)
        rel_s = _rel_change(s_new, s_cur)
        new_cost = kernel.cost(a_new, s_new)
        if not math.isfinite(new_cost):
            raise SolverError(f"non-finite cost at iteration {t}")
        trace.append(
            IterationRecord(
                iteration=t,
                cost=new_cost,
                cost_accept=accept_cost,
                step=gamma,
                rel_change_a=rel_a,
                rel_change_s=rel_s,
                time_s=time.perf_counter() - t0,
                rmse_a=_iterate_rmse_a(a_new, truth),
            )
        )
        prev_z = z
        prev_dir = precond
        z = z_new
        current_cost = new_cost
        if rel_a <= cfg.eps_a and rel_s <= cfg.eps_s:
            break

    a_s, s_e = _unpack(z, kernel.k, kernel.n)
    return _finalize(image, endmembers, a_s, s_e, trace)
