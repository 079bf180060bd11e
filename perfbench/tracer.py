"""Span recording around twolmm's public functions, from outside the package.

Each entry of ``WRAPS`` names a function by the module attribute the
program looks it up through at call time (``twolmm.cli.resolve_endmembers``
is what ``cmd_unmix`` calls, ``twolmm.twostep.solve_least_squares`` is what
the solver kernel calls) and the span name it is recorded under. The span
name's first component is the layer: one of twolmm's modules, or ``bench``
for the benchmark's own root span. Nothing under ``src/`` is edited; the
wrappers are installed by assigning module attributes and removed again by
restoring the originals.

A name that no longer resolves is skipped and listed in ``Tracer.missing``
with its span name, so the metrics built on it are reported absent with
that reason instead of the run crashing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    run_id: int
    span_id: int
    parent_id: int  # -1 for a root span
    name: str
    start: float
    end: float


# Count hooks run after the wrapped call returns: hook(tracer, span name,
# positional arguments, result). The CLI passes these arguments positionally.
def _image_pixels(tracer, name, args, result):
    tracer.count(name + ".pixels", args[0].pixel_count)


def _bytes_written(tracer, name, args, result):
    tracer.count("fileio.bytes_written", os.path.getsize(args[1]))


def _bytes_read(tracer, name, args, result):
    tracer.count("fileio.bytes_read", os.path.getsize(args[0]))


def _hapke_tensor(tracer, name, args, result):
    tracer.count("datagen.hapke_tensor_mb", result.endmembers_per_pixel.nbytes / 1e6)


def _trace_rows(tracer, name, args, result):
    tracer.count("trace.rows_written", len(args[0]))


# (module the program looks the name up in, attribute, span name, count hook)
WRAPS = [
    ("twolmm.cli", "cmd_generate", "cli.generate", None),
    ("twolmm.cli", "cmd_unmix", "cli.unmix", None),
    ("twolmm.cli", "build_scene", "cli.build_scene", None),
    ("twolmm.cli", "load_scene", "cli.load_scene", None),
    ("twolmm.cli", "resolve_endmembers", "cli.resolve_endmembers", None),
    ("twolmm.cli", "run_methods", "cli.run_methods", None),
    ("twolmm.cli", "synthetic_endmembers", "datagen.endmembers", None),
    ("twolmm.cli", "generate_grf_abundances", "datagen.abundances", None),
    ("twolmm.cli", "smoothed_random_dsm", "datagen.dsm", None),
    ("twolmm.cli", "generate_2lmm_scene", "datagen.scene", None),
    ("twolmm.cli", "generate_hapke_scene", "datagen.scene", _hapke_tensor),
    ("twolmm.cli", "save_image", "fileio.save", _bytes_written),
    ("twolmm.cli", "save_abundances", "fileio.save", _bytes_written),
    ("twolmm.cli", "save_endmembers", "fileio.save", _bytes_written),
    ("twolmm.cli", "save_scaling_state", "fileio.save", _bytes_written),
    ("twolmm.cli", "load_image", "fileio.load", _bytes_read),
    ("twolmm.cli", "load_abundances", "fileio.load", _bytes_read),
    ("twolmm.cli", "load_endmembers", "fileio.load", _bytes_read),
    ("twolmm.cli", "perspective_project", "endmembers.project", None),
    ("twolmm.cli", "vca_extract", "endmembers.vca", None),
    ("twolmm.cli", "match_endmembers", "endmembers.match", None),
    ("twolmm.cli", "align_abundances", "endmembers.align", None),
    ("twolmm.cli", "unmix_lmm", "baselines.lmm", _image_pixels),
    ("twolmm.cli", "unmix_slmm", "baselines.slmm", _image_pixels),
    ("twolmm.baselines", "solve_nnls_clipped", "solvers.nnls_clipped", None),
    ("twolmm.solvers", "solve_least_squares", "solvers.least_squares", None),
    ("twolmm.twostep", "solve_least_squares", "solvers.least_squares", None),
    ("twolmm.cli", "solve_als", "twostep.als", None),
    ("twolmm.cli", "solve_lbfgs", "twostep.lbfgs", None),
    ("twolmm.baselines", "normalize_abundances", "core.normalize", None),
    ("twolmm.twostep", "normalize_abundances", "core.normalize", None),
    ("twolmm.cli", "rmse_a", "core.rmse", None),
    ("twolmm.cli", "rmse_x", "core.rmse", None),
    ("twolmm.trace", "SolverTrace.write_csv", "trace.write_csv", _trace_rows),
]

def _resolve(module_name: str, attr: str):
    """Return (owner object, final attribute name) or None when gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Tracer:
    """Keeps spans and per-run counts in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[tuple[str, str]] = []  # (lookup name, span name)
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, hook in WRAPS:
            found = _resolve(module_name, attr)
            if found is None:
                self.missing.append((f"{module_name}.{attr}", name))
                continue
            owner, last = found
            original = getattr(owner, last)
            self._saved.append((owner, last, original))
            setattr(owner, last, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, last, original = self._saved.pop()
            setattr(owner, last, original)

    def count(self, key: str, amount: float) -> None:
        self.counts[self.run_id][key] += amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; used for the benchmark's root span."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = Span(tracer.run_id, span_id, parent, name, start, end)
            if hook is not None:
                hook(tracer, name, args, result)
            return result

        return wrapped

    def run_summary(self, run_id: int) -> dict[str, float]:
        """Totals of one run: ``<span>_s`` and ``<span>_calls`` per span
        name, ``<layer>.self_s`` per layer, and the hooks' counts.

        A span's self time is its duration minus that of its direct
        children; a layer's self time sums the self time of its spans.
        """
        spans = [s for s in self.spans if s is not None and s.run_id == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent_id >= 0:
                child_time[s.parent_id] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            duration = s.end - s.start
            out[s.name + "_s"] += duration
            out[s.name + "_calls"] += 1
            out[s.name.split(".")[0] + ".self_s"] += duration - child_time[s.span_id]
        out.update(self.counts.get(run_id, {}))
        return dict(out)

    def write_csv(self, path) -> None:
        lines = ["run_id,span_id,parent_id,name,start,end"]
        for s in self.spans:
            if s is not None:
                lines.append(f"{s.run_id},{s.span_id},{s.parent_id},{s.name},{s.start!r},{s.end!r}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
