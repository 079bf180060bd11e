"""Benchmark of `twolmm generate` and `twolmm unmix`, end to end and per layer.

    python3 perfbench/run.py --workload protocol50 --seed 1 --seconds 30 --trace 0

Runs one workload of ``perfbench/spec.json`` through the same public calls
the CLI makes, from the ``src/`` tree next to this directory, in fresh
worker processes with the BLAS thread count pinned. ``--seed`` fixes the
order in which the workload's scene seeds are run; ``--scene-seeds``
replaces the seed list (for example with the workload's held-out seed).

With ``--trace 0`` it reports the end-to-end metrics: warm-pass times,
set-up time from fresh probe processes, peak memory, failures and the
quality of every method. With ``--trace 1`` every pass is run twice, plain
and under the tracer of ``perfbench/tracer.py``, and it reports the
per-layer metrics and the tracing overhead. Timings are seed-balanced
medians: the median of each scene seed's passes, averaged over the seeds.

Every pass is checked against ``perfbench/reference.json`` and the solver
invariants. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists; the exit code is 1 if the check failed and 2 if
the benchmark could not run. ``--record`` rewrites ``reference.json`` from
the current code. Spans, samples and the environment of each run are kept
under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_worker(job: dict, env: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker process; returns its result and when it was started."""
    job = dict(job, work_dir=str(OUT_DIR / f"work-{os.getpid()}-{time.monotonic_ns()}"))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['mode']} worker did not finish within {timeout} s") from exc
    finally:
        shutil.rmtree(job["work_dir"], ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def seed_balanced(samples: list[dict], key: str, default=None) -> tuple[float | None, int]:
    """Median per scene seed, averaged over the seeds; and the sample count."""
    by_seed = defaultdict(list)
    for sample in samples:
        value = sample.get(key, default)
        if value is not None:
            by_seed[sample["seed"]].append(value)
    if not by_seed:
        return None, 0
    count = sum(len(v) for v in by_seed.values())
    return statistics.fmean(statistics.median(v) for v in by_seed.values()), count


def end_to_end(spec, workload, samples, probes, peak_rss_mb) -> tuple[dict, dict]:
    metrics, notes = {}, {}
    methods = workload["methods"].split(",")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for entry in spec["end_to_end"]:
        name = entry["name"]
        if name == "setup_s":
            metrics[name] = (statistics.median(probes), len(probes))
        elif name == "peak_rss_mb":
            metrics[name] = (peak_rss_mb, 1)
        elif name == "failed_frac":
            metrics[name] = (failed / attempted if attempted else 1.0, attempted)
        elif name == "run_s.tail":
            pooled = sorted(s["run_s"] for s in samples if "run_s" in s)
            if len(pooled) > TAIL_BEYOND:
                rank = len(pooled) - TAIL_BEYOND
                metrics[name] = (pooled[rank - 1], len(pooled))
                notes[name] = f"p{100.0 * rank / len(pooled):.0f} of the pooled samples"
            else:
                notes[name] = f"absent: {len(pooled)} samples, a tail needs more than {TAIL_BEYOND}"
        elif "." in name and name.split(".", 1)[1] not in methods:
            notes[name] = f"absent: {name.split('.', 1)[1]} does not run in this workload"
        else:
            value, count = seed_balanced(samples, name)
            if value is None:
                notes[name] = "absent: no successful run"
                continue
            metrics[name] = (value, count)
            if count < len(samples):
                notes[name] = f"{len(samples) - count} failed runs have no sample"
    return metrics, notes


def per_layer(spec, layers, missing) -> tuple[dict, dict]:
    missing_by_span = defaultdict(list)
    for lookup, span in missing:
        missing_by_span[span].append(lookup)
    metrics, notes = {}, {}
    for entry in spec["per_layer"]:
        name, span = entry["name"], entry.get("span")
        if span in missing_by_span:
            notes[name] = "absent: not found in the program: " + ", ".join(missing_by_span[span])
            continue
        default = 0.0 if entry["kind"] == "total" else None
        value, count = seed_balanced(layers, name, default)
        if value is None:
            notes[name] = "absent: " + entry["absent"]
        else:
            metrics[name] = (value, count)
    return metrics, notes


def print_report(title: str, catalogue: list[dict], metrics: dict, notes: dict) -> None:
    print(title)
    for entry in catalogue:
        name = entry["name"]
        if name in metrics:
            value, count = metrics[name]
            extra = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:32s} {value:14.6g} {entry['unit']:6s} n={count}{extra}")
        else:
            print(f"  {name:32s} {'-':>14s} {entry['unit']:6s} {notes.get(name, 'absent')}")


def record(spec: dict, env: dict) -> int:
    reference, problems = {}, []
    for name, workload in spec["workloads"].items():
        job = {
            "mode": "record", "root": str(ROOT), "workload": workload,
            "order": workload["seeds"] + [workload["held_out_seed"]],
            "tolerance": spec["tolerance"],
        }
        result, _ = run_worker(job, env, timeout=600)
        reference[name] = result["reference"]
        problems += [f"{name}: {p}" for p in result["problems"]]
        print(f"recorded {name}: seeds {sorted(result['reference'], key=int)}", flush=True)
    for problem in problems:
        print("check FAILED:", problem)
    if problems:
        return 1
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0, help="orders the scene seeds")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scene-seeds", help="comma-separated scene seeds")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twolmm" / "__init__.py").is_file():
        raise BenchError(f"no twolmm sources under {ROOT / 'src'}")
    spec = load_json(HERE / "spec.json")
    threads = min(spec["blas_threads"], os.cpu_count() or 1)
    env = child_env(threads)
    OUT_DIR.mkdir(exist_ok=True)
    if args.record:
        return record(spec, env)

    if args.workload not in spec["workloads"]:
        raise BenchError(f"--workload must be one of {sorted(spec['workloads'])}")
    workload = spec["workloads"][args.workload]
    reference = load_json(HERE / "reference.json").get(args.workload, {})
    benchmark = load_json(ROOT / "BENCHMARK.json")
    seeds = workload["seeds"]
    if args.scene_seeds:
        seeds = [int(s) for s in args.scene_seeds.split(",") if s.strip()]
    unknown = [s for s in seeds if str(s) not in reference]
    if unknown:
        raise BenchError(f"no reference values for scene seeds {unknown}; see --record")
    order = list(seeds)
    random.Random(args.seed).shuffle(order)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {
        "mode": "measure", "root": str(ROOT), "workload": workload, "order": order,
        "seconds": args.seconds, "trace": bool(args.trace), "tolerance": spec["tolerance"],
        "reference": reference, "spans_csv": str(OUT_DIR / f"{tag}-spans.csv"),
        "probe_size": spec["probe_size"],
    }
    # Set-up probes go half before and half after the measuring process, so
    # their median spans the machine's speed over the whole run.
    n_probes = 0 if args.trace else spec["setup_probes"]
    setup, imports = [], []

    def run_probes(count: int) -> None:
        for _ in range(count):
            probe, started = run_worker(dict(job, mode="probe"), env, PROBE_TIMEOUT_S)
            setup.append(probe["ready"] - started - probe["warm_pass_s"])
            imports.append(probe["imported"] - started)

    run_probes(n_probes // 2)
    result, _ = run_worker(job, env, WORKER_TIMEOUT_S)
    run_probes(n_probes - n_probes // 2)
    env_info = result["env"]
    samples = [s for s in result["samples"] if not s["traced"]]
    print(f"perfbench {args.workload}: scene seeds in order {order}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()))

    if args.trace:
        catalogue = spec["per_layer"]
        metrics, notes = per_layer(spec, result["layers"], result.get("missing", []))
        if result.get("missing"):
            print("not found (renamed or removed): "
                  + ", ".join(sorted({lookup for lookup, _ in result["missing"]})))
        print_report("per-layer metrics, per traced pass (seed-balanced):", catalogue, metrics, notes)
        print(f"spans: {result['spans_csv']}")
    else:
        catalogue = spec["end_to_end"]
        metrics, notes = end_to_end(spec, workload, samples, setup, result["peak_rss_mb"])
        notes["setup_s"] = f"of which start-up and import {statistics.median(imports):.3f} s"
        print_report("end-to-end metrics:", catalogue, metrics, notes)

    attempted = sum(s["attempted"] for s in result["samples"])
    failed = sum(s["failed"] for s in result["samples"])
    problems = result["problems"]
    for note in result["notes"]:
        print("note:", note)
    for problem in problems:
        print("check FAILED:", problem)
    if not problems:
        print(f"check passed: {len(result['samples'])} passes against reference.json "
              f"(rmse rel {spec['tolerance']['rmse_rel']:g}, iterations "
              f"{spec['tolerance']['iters_rel']:.0%} or {spec['tolerance']['iters_abs']}), "
              f"acceptance inequality and s_e bounds")

    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in listed if m["name"] in metrics
        },
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"result": line, "env": env_info, "order": order, "notes": notes,
         "all_metrics": {k: {"value": v, "n": n} for k, (v, n) in metrics.items()},
         "problems": problems, "samples": result["samples"], "layers": result["layers"]},
        indent=1) + "\n")
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
