"""One fresh process of the benchmark; started by ``perfbench/run.py``.

The job arrives as a JSON object in ``argv[1]``; the result leaves as one
JSON object on the last line of standard output. Modes:

``measure``
    One discarded pass, then warm passes over the scene seeds in the given
    order until ``seconds`` would be exceeded (at least one pass per seed).
    With ``trace`` each slot runs the seed twice, once untraced and once
    under the tracer, alternating which goes first.
``probe``
    Two passes on a small scene; reports when the first one ended, so the
    parent can take start-up plus one-time warm-up.
``record``
    One pass per seed; returns the result rows to store as references.

A pass is exactly what ``twolmm generate`` and ``twolmm unmix`` do: the
configuration goes through ``cli.build_config`` and the work through
``cli.cmd_generate``/``cli.cmd_unmix``. Every pass's outputs are checked
against the recorded reference values and the solver invariants.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import twolmm
from twolmm import cli

from tracer import Tracer

IMPORTED_AT = time.monotonic()

NO_FLAGS = argparse.Namespace(
    seed=None, out=None, methods=None, em_source=None, snr=None, bounds=None
)
COST_CALL_REPEATS = 5


def environment() -> dict:
    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np),
        "scipy_openblas": blas_version(scipy),
        "twolmm": twolmm.__version__,
    }


class Capture:
    """Keeps the two-step solvers' calls of the current pass for the
    output check: (method, image, endmembers, config, result)."""

    NAMES = {"solve_als": ("als2lmm", "twostep.als"), "solve_lbfgs": ("lbfgs2lmm", "twostep.lbfgs")}

    def __init__(self):
        self.calls: list[tuple] = []
        self.missing: list[tuple[str, str]] = []  # (lookup name, span name)
        for attr, (method, span) in self.NAMES.items():
            original = getattr(cli, attr, None)
            if original is None:
                self.missing.append((f"twolmm.cli.{attr}", span))
                continue
            setattr(cli, attr, self._wrap(original, method))

    def _wrap(self, fn, method):
        def captured(image, endmembers, config=None, *args, **kwargs):
            result = fn(image, endmembers, config, *args, **kwargs)
            self.calls.append((method, image, endmembers, config, result))
            return result

        return captured

    def take(self) -> list[tuple]:
        calls, self.calls = self.calls, []
        return calls


def run_pass(workload: dict, seed: int, work: Path) -> list[dict]:
    """One `twolmm generate` (file workloads) plus `twolmm unmix`."""
    entries = dict(
        workload["config"],
        **{"run.seed": str(seed), "run.methods": workload["methods"], "run.out": str(work / "out")},
    )
    if workload["via_files"]:
        scene_dir = work / "scene"
        cli.cmd_generate(cli.build_config(dict(entries, **{"run.out": str(scene_dir)}), NO_FLAGS))
        entries["scene.dir"] = str(scene_dir)
    return cli.cmd_unmix(cli.build_config(entries, NO_FLAGS))


def check_pass(seed, rows, calls, reference, tol) -> list[str]:
    """Compare one pass with the reference values and the solver invariants."""
    problems = []
    expected = reference.get(str(seed))
    if expected is None:
        return [f"seed {seed}: no reference values recorded"]
    seen = set()
    for row in rows:
        method = row["method"]
        seen.add(method)
        if row["error"]:
            problems.append(f"seed {seed} {method}: failed: {row['error']}")
            continue
        want = expected.get(method)
        if want is None:
            problems.append(f"seed {seed} {method}: no reference values recorded")
            continue
        for key in ("rmse_a", "rmse_x"):
            got = row[key]
            if got is None or not math.isclose(got, want[key], rel_tol=tol["rmse_rel"], abs_tol=0.0):
                problems.append(f"seed {seed} {method}: {key} {got!r} != reference {want[key]!r}")
        allowed = max(tol["iters_abs"], tol["iters_rel"] * want["iters"])
        if abs(row["iters"] - want["iters"]) > allowed:
            problems.append(
                f"seed {seed} {method}: {row['iters']} iterations, reference {want['iters']}"
            )
    for method in sorted(set(expected) - seen):
        problems.append(f"seed {seed} {method}: no result row")
    for method, _, _, config, result in calls:
        if np.any(result.s_e < config.lower) or np.any(result.s_e > config.upper):
            problems.append(
                f"seed {seed} {method}: s_e {result.s_e.tolist()} outside "
                f"[{config.lower}, {config.upper}]"
            )
        if method == "lbfgs2lmm":
            violations = []
            prev = result.trace.initial_cost
            for rec in result.trace:
                allowance = (1.0 + math.exp(-rec.iteration)) * prev
                if not rec.cost_accept <= allowance * (1.0 + tol["acceptance_rel"]):
                    violations.append(
                        f"t={rec.iteration}: {rec.cost_accept!r} > (1 + e^-t) * {prev!r}"
                    )
                prev = rec.cost
            if violations:
                problems.append(
                    f"seed {seed} lbfgs2lmm: acceptance inequality fails at "
                    f"{len(violations)} iterations, first {violations[0]}"
                )
    return problems


def end_to_end_sample(seed: int, run_s: float, rows: list[dict]) -> dict:
    sample = {"seed": seed, "run_s": run_s, "attempted": len(rows), "failed": 0}
    for row in rows:
        method = row["method"]
        if row["error"]:
            sample["failed"] += 1
            continue
        sample["method_s." + method] = row["time_s"]
        for key in ("rmse_a", "rmse_x"):
            if row[key] is not None:
                sample[f"{key}.{method}"] = row[key]
    return sample


def _steps_to_backtracks(step: float, config) -> int:
    if step <= 0.0 or step >= config.step_init:
        return 0
    return round(math.log(step / config.step_init) / math.log(config.step_shrink))


def layer_sample(tracer: Tracer, run_id: int, calls: list[tuple]) -> dict:
    """Per-layer figures of one traced pass."""
    sample = tracer.run_summary(run_id)
    for name in ("lmm", "slmm"):
        pixels = sample.get(f"baselines.{name}.pixels", 0)
        if pixels:
            sample[f"baselines.{name}_us_per_px"] = sample[f"baselines.{name}_s"] / pixels * 1e6
    cost_fn = getattr(twolmm.twostep, "cost", None)
    state_cls = getattr(twolmm.twostep, "TwoLmmState", None)
    cost_times = []
    for method, image, endmembers, config, result in calls:
        key = "twostep.als" if method == "als2lmm" else "twostep.lbfgs"
        iters = len(result.trace)
        sample[key + ".iters"] = sample.get(key + ".iters", 0) + iters
        sample[key + ".max_iter_hits"] = sample.get(key + ".max_iter_hits", 0) + int(
            iters >= config.max_iter
        )
        if iters:
            sample[key + ".iter_ms"] = sample[key + "_s"] / iters * 1e3
        if method == "lbfgs2lmm":
            backtracks = sum(_steps_to_backtracks(r.step, config) for r in result.trace)
            sample[key + ".backtracks"] = backtracks
            if iters:
                sample[key + ".unit_step_frac"] = iters / (iters + backtracks)
        if cost_fn is not None and state_cls is not None:
            state = state_cls(a_s=result.abundances.data * result.s_x, s_e=result.s_e)
            for _ in range(COST_CALL_REPEATS):
                t0 = time.perf_counter()
                cost_fn(image, endmembers, state)
                cost_times.append(time.perf_counter() - t0)
    if cost_times:
        sample["twostep.cost_call_ms"] = statistics.median(cost_times) * 1e3
    return sample


def measure(job: dict, workload: dict, work: Path, reference: dict) -> dict:
    order = job["order"]
    tol = job["tolerance"]
    capture = Capture()
    tracer = Tracer() if job["trace"] else None
    out = {"samples": [], "layers": [], "problems": [], "notes": []}
    if capture.missing:
        out["notes"].append(
            "not found, so the invariant checks skip those solvers: "
            + ", ".join(name for name, _ in capture.missing)
        )

    def one_pass(seed: int, traced: bool) -> float:
        """Run and check one pass; returns its wall time (inf if it raised)."""
        if traced:
            tracer.run_id += 1
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                rows = tracer.span("bench.pass", run_pass, workload, seed, work)
            else:
                rows = run_pass(workload, seed, work)
        except Exception:  # a pass boundary: record the failure and go on
            traceback.print_exc()
            out["problems"].append(f"seed {seed}: pass raised {sys.exc_info()[0].__name__}")
            out["samples"].append(
                {"seed": seed, "attempted": len(workload["methods"].split(",")),
                 "failed": len(workload["methods"].split(",")), "traced": traced}
            )
            capture.take()
            return math.inf
        finally:
            if traced:
                tracer.uninstall()
        run_s = time.perf_counter() - t0
        calls = capture.take()
        out["problems"].extend(check_pass(seed, rows, calls, reference, tol))
        sample = end_to_end_sample(seed, run_s, rows)
        sample["traced"] = traced
        out["samples"].append(sample)
        if traced:
            out["layers"].append(dict(layer_sample(tracer, tracer.run_id, calls), seed=seed))
        return run_s

    one_pass(order[0], traced=False)  # discarded: lazy set-up and caches
    out["samples"].clear()
    # Peak memory of a process that has done one run, as a CLI invocation does.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = time.perf_counter()
    last: dict[int, float] = {}
    slot = 0
    while True:
        seed = order[slot % len(order)]
        if slot >= len(order) and time.perf_counter() - start + last[seed] > job["seconds"]:
            break
        if tracer is None:
            last[seed] = one_pass(seed, traced=False)
        else:
            first_traced = slot % 2 == 1
            a = one_pass(seed, traced=first_traced)
            b = one_pass(seed, traced=not first_traced)
            last[seed] = a + b
            if math.isfinite(last[seed]):
                traced_s, plain_s = (a, b) if first_traced else (b, a)
                out["layers"][-1]["bench.trace_overhead_s"] = traced_s - plain_s
        slot += 1
        if math.isinf(last[seed]):
            break

    if tracer is not None:
        spans_path = Path(job["spans_csv"])
        tracer.write_csv(spans_path)
        out["spans_csv"] = str(spans_path)
        out["missing"] = tracer.missing + capture.missing + [
            (f"twolmm.twostep.{name}", "twostep.cost") for name in ("cost", "TwoLmmState")
            if getattr(twolmm.twostep, name, None) is None
        ]
    return out


def probe(job: dict, workload: dict, work: Path) -> dict:
    small = dict(workload, config=dict(
        workload["config"],
        **{"scene.width": str(job["probe_size"]), "scene.height": str(job["probe_size"])},
    ))
    seed = job["order"][0]
    run_pass(small, seed, work)
    ready = time.monotonic()
    t0 = time.perf_counter()
    run_pass(small, seed, work)
    return {"imported": IMPORTED_AT, "ready": ready, "warm_pass_s": time.perf_counter() - t0}


def record(job: dict, workload: dict, work: Path) -> dict:
    capture = Capture()
    reference, problems = {}, []
    for seed in job["order"]:
        rows = run_pass(workload, seed, work)
        expected = {
            row["method"]: {k: row[k] for k in ("rmse_a", "rmse_x", "iters")}
            for row in rows if not row["error"]
        }
        reference[str(seed)] = expected
        problems.extend(check_pass(seed, rows, capture.take(), reference, job["tolerance"]))
    return {"reference": reference, "problems": problems}


def main() -> int:
    job = json.loads(sys.argv[1])
    workload = job["workload"]
    src = Path(job["root"]) / "src"
    if src.resolve() not in Path(twolmm.__file__).resolve().parents:
        raise SystemExit(f"twolmm was imported from {twolmm.__file__}, not from {src}")
    work = Path(job["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    try:
        if job["mode"] == "measure":
            result = measure(job, workload, work, job["reference"])
        elif job["mode"] == "probe":
            result = probe(job, workload, work)
        else:
            result = record(job, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
