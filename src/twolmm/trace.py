"""Per-iteration solver traces, the common unmixing result container and
the one function that builds it for every method."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from .core import (
    AbundanceMatrix,
    HsiImage,
    NormalizationResult,
    _index_summary,
    _squared_error,
    _warn,
)
from .fileio import _new_file
from .solvers import SolverError

__all__ = ["IterationRecord", "SolverTrace", "UnmixResult"]


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration, and one row of a trace CSV: the columns are
    these fields, in this order.

    ``cost`` is the objective at the accepted (feasible) iterate;
    ``cost_accept`` is the objective at the point the step-size test
    accepted, before any box projection; it equals ``cost`` when no
    step-size test ran (plain ALS). The two-step solvers evaluate both in
    the K-dimensional coordinates of the fit, without the P x N residual
    (see :mod:`twolmm.twostep`); they agree with
    ``||X - E diag(s_e) A_s||^2`` to rounding, about
    ``eps ||X|| / sqrt(cost)`` relative, so near an exact fit both are at
    the rounding level.
    """

    iteration: int
    cost: float
    cost_accept: float
    step: float
    rel_change_a: float
    rel_change_s: float
    time_s: float


class SolverTrace:
    """Ordered list of :class:`IterationRecord` plus the starting cost;
    :meth:`append` is every method's one check that a recorded cost is
    finite, and raises :class:`twolmm.solvers.SolverError` when it is not."""

    def __init__(self, initial_cost: float):
        self.initial_cost = float(initial_cost)
        self.records: list[IterationRecord] = []

    def append(self, record: IterationRecord) -> None:
        if not math.isfinite(record.cost):
            raise SolverError(f"non-finite cost at iteration {record.iteration}")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i: int) -> IterationRecord:
        return self.records[i]

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    def write_csv(self, path: str | Path) -> None:
        names = [f.name for f in fields(IterationRecord)]
        row = attrgetter(*names)
        lines = [",".join(names)]
        lines += [",".join(map(repr, row(r))) for r in self.records]
        with _new_file(path) as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class UnmixResult:
    """Unmixing output common to all methods.

    ``abundances`` is normalized; ``s_x``/``s_e`` hold the pixel and
    endmember scaling factors (all-ones when a method does not estimate
    them). ``factors`` is the pair ``(E diag(s_e), A_s)`` of (P, K) and
    (K, N) arrays whose product is the reconstruction, with
    ``A_s = A diag(s_x)`` the scaled abundances the method fitted, and
    ``grid`` the image's ``(width, height)``. A result holds no P x N
    array: :attr:`reconstruction` is computed from the factors on first
    access and cached.
    """

    abundances: AbundanceMatrix
    s_x: np.ndarray
    s_e: np.ndarray
    trace: SolverTrace = field(repr=False)
    factors: tuple[np.ndarray, np.ndarray] = field(repr=False)
    grid: tuple[int, int] = field(repr=False)

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @cached_property
    def reconstruction(self) -> HsiImage:
        """``E diag(s_e) A_s``, the image the result models."""
        b, a_s = self.factors
        recon = np.empty((b.shape[0], a_s.shape[1]), order="F")
        np.matmul(b, a_s, out=recon)
        recon.flags.writeable = False
        return HsiImage(recon, *self.grid)


def _unmix_result(
    image: HsiImage,
    e: np.ndarray,
    a_s: np.ndarray,
    s_e: np.ndarray,
    norm: NormalizationResult,
    trace: SolverTrace | float,
) -> UnmixResult:
    """The result of every unmixer, from its scaled abundances ``a_s``
    (K, N), endmember scales ``s_e`` (K,) and ``norm``, the split of ``a_s``
    into simplex abundances and pixel scales. The result keeps ``a_s``
    itself, read-only.

    ``trace`` is the solver's trace; a single-shot method passes its
    elapsed seconds instead and gets one record whose cost is
    ``||X - E diag(s_e) A_s||^2``, accumulated over blocks of pixels.
    Degenerate pixels are reported in one warning.
    """
    if norm.degenerate_pixels.size:
        summary = _index_summary(norm.degenerate_pixels)
        _warn(f"pixels with zero fitted abundance were flagged degenerate: {summary}")
    b = e * s_e
    for factor in (b, a_s):
        factor.flags.writeable = False
    if not isinstance(trace, SolverTrace):
        cost = _squared_error(image.data, b, a_s)
        elapsed, trace = trace, SolverTrace(initial_cost=cost)
        trace.append(
            IterationRecord(
                iteration=1,
                cost=cost,
                cost_accept=cost,
                step=1.0,
                rel_change_a=0.0,
                rel_change_s=0.0,
                time_s=elapsed,
            )
        )
    return UnmixResult(
        abundances=norm.abundances,
        s_x=norm.s_x,
        s_e=s_e.copy(),
        trace=trace,
        factors=(b, a_s),
        grid=(image.width, image.height),
    )
