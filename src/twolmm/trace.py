"""Per-iteration solver traces, the common unmixing result container and
the one function that builds it for every method."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .core import AbundanceMatrix, HsiImage, NormalizationResult, _index_summary, _warn

__all__ = ["IterationRecord", "SolverTrace", "UnmixResult"]


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration, and one row of a trace CSV: the columns are
    these fields, in this order.

    ``cost`` is the objective at the accepted (feasible) iterate;
    ``cost_accept`` is the objective at the point the step-size test
    accepted, before any box projection; it equals ``cost`` when no
    step-size test ran (plain ALS). The two-step solvers evaluate both in
    the K-dimensional coordinates of the fit, without the P x N residual;
    they agree with ``||X - E diag(s_e) A_s||^2`` to rounding, about
    ``eps ||X|| / sqrt(cost)`` relative, and a near-exact fit is evaluated
    from the residual itself (see :mod:`twolmm.twostep`).
    """

    iteration: int
    cost: float
    cost_accept: float
    step: float
    rel_change_a: float
    rel_change_s: float
    time_s: float


class SolverTrace:
    """Ordered list of :class:`IterationRecord` plus the starting cost."""

    def __init__(self, initial_cost: float):
        self.initial_cost = float(initial_cost)
        self.records: list[IterationRecord] = []

    def append(self, record: IterationRecord) -> None:
        if not math.isfinite(record.cost):
            raise ValueError(f"non-finite cost at iteration {record.iteration}")
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
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclass(frozen=True)
class UnmixResult:
    """Unmixing output common to all methods.

    ``abundances`` is normalized; ``s_x``/``s_e`` hold the pixel and
    endmember scaling factors (all-ones when a method does not estimate
    them) and ``reconstruction`` equals ``E diag(s_e) A diag(s_x)``
    recomputed from these factors.
    """

    abundances: AbundanceMatrix
    s_x: np.ndarray
    s_e: np.ndarray
    reconstruction: HsiImage
    trace: SolverTrace = field(repr=False)

    @property
    def iterations(self) -> int:
        return len(self.trace)


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
    into simplex abundances and pixel scales.

    The reconstruction is ``(E * s_e) @ a_s``. ``trace`` is the solver's
    trace; a single-shot method passes its elapsed seconds instead and gets
    one record whose cost is ``||X - reconstruction||^2``. Degenerate pixels
    are reported in one warning.
    """
    if norm.degenerate_pixels.size:
        summary = _index_summary(norm.degenerate_pixels)
        _warn(f"pixels with zero fitted abundance were flagged degenerate: {summary}")
    recon = HsiImage((e * s_e) @ a_s, width=image.width, height=image.height)
    if not isinstance(trace, SolverTrace):
        resid = image.data - recon.data
        cost = float(np.sum(resid * resid))
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
        reconstruction=recon,
        trace=trace,
    )
