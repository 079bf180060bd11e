"""Command-line experiment harness.

Verbs: ``generate`` (write a synthetic scene plus its manifest),
``unmix`` (run a list of methods on a scene and emit a results table plus
per-iteration traces), ``sweep`` (repeat ``unmix`` over scaling-bound or
noise-level values, emitting a long-format CSV), and ``info``.

Configuration is a flat key-value text file with dotted section prefixes
(``scene.width = 50``); command-line flags override file values. All
randomness derives from the single ``--seed``, so every output row can be
re-derived from the manifest and seed. Exit codes: 0 success, 1
configuration error, 2 solver error (a method's row of the results holds
its error, and every output is still written), 3 I/O error.

The scene keys are ``scene.kind`` (``2lmm`` or ``hapke``),
``scene.width``, ``scene.height``, ``scene.k``, ``scene.bands``,
``scene.snr_db`` and ``scene.dir``. Every other scene setting is fixed by
the protocol: abundance correlation length 15 pixels, endmember
reflectances in (0.05, 0.95), scaling factors drawn from (1/3, 3) for
``2lmm``, and for ``hapke`` a terrain of 20 m relief (smoothness 6 cells
of 10 m) lit by a sun 40 degrees from zenith. The generators in
:mod:`twolmm.datagen` take all of these as parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .baselines import unmix_lmm, unmix_slmm
from .core import AbundanceMatrix, EndmemberMatrix, HsiImage, ScalingState, rmse_a, rmse_x
from .datagen import (
    GrfSpec,
    _check_snr,
    apply_noise,
    generate_2lmm_scene,
    generate_grf_abundances,
    generate_hapke_scene,
    smoothed_random_dsm,
    synthetic_endmembers,
)
from .endmembers import (
    MatchResult,
    ProjectionSpec,
    _leading_subspace,
    align_abundances,
    match_endmembers,
    perspective_project,  # not called here; perfbench's tracer wraps it by this name
    vca_extract,
)
from .fileio import (
    FormatError,
    _new_file,
    _read_key_values,
    _write_key_values,
    load_abundances,
    load_endmembers,
    load_image,
    save_abundances,
    save_endmembers,
    save_image,
    save_scaling_state,
)
from .solvers import SolverError
from .trace import SolverTrace
from .twostep import TwoLmmConfig, solve_als, solve_lbfgs

__all__ = ["main", "ConfigError", "ExperimentConfig"]

METHOD_NAMES = ("lmm", "slmm", "als2lmm", "lbfgs2lmm")
EM_SOURCES = ("file", "vca", "truth")
SWEEP_KINDS = ("bounds_alpha", "snr")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class ConfigError(Exception):
    """Invalid configuration file or command-line arguments."""


def _derive_seed(seed: int, stream: int) -> int:
    """Stable per-purpose child seed from the single experiment seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


# Seed streams.
_STREAM_ABUNDANCES = 0
_STREAM_SCENE = 1
_STREAM_DSM = 2
_STREAM_ENDMEMBERS = 3
_STREAM_VCA = 4
_STREAM_NOISE = 5

# Scene protocol: the two hapke settings that differ from the generators'
# defaults (a relief of 30 m and a sun at nadir). Every other scene setting
# is a generator default.
_HAPKE_RELIEF = 20.0  # terrain height standard deviation, meters
# A sun 40 degrees from zenith.
_HAPKE_SUN = (math.sin(math.radians(40.0)), 0.0, math.cos(math.radians(40.0)))


@dataclass
class ExperimentConfig:
    scene_kind: str = "2lmm"
    width: int = 30
    height: int = 30
    k: int = 3
    bands: int = 120
    snr_db: float | None = 40.0
    scene_dir: str | None = None
    methods: tuple[str, ...] = ("lmm", "slmm", "lbfgs2lmm")
    em_source: str = "truth"
    em_file: str | None = None
    solver: TwoLmmConfig = field(default_factory=TwoLmmConfig)
    out_dir: str = "out"
    seed: int = 0

    def validate(self) -> None:
        if self.scene_kind not in ("2lmm", "hapke"):
            raise ConfigError(f"unknown scene kind {self.scene_kind!r}")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be nonnegative, got {self.seed}")
        if not self.methods:
            raise ConfigError("run.methods names no method")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(
                    f"unknown method {m!r}; expected one of {METHOD_NAMES}"
                )
            if self.methods.count(m) > 1:
                raise ConfigError(f"run.methods names {m!r} more than once")
        if self.em_source not in EM_SOURCES:
            raise ConfigError(
                f"unknown endmember source {self.em_source!r}; "
                f"expected one of {EM_SOURCES}"
            )
        if self.em_source == "file":
            if not self.em_file:
                raise ConfigError("em_source=file requires run.em_file")
            if not Path(self.em_file).exists():
                raise ConfigError(f"endmember file {self.em_file} does not exist")
        if self.scene_dir is not None and not Path(self.scene_dir).exists():
            raise ConfigError(f"scene directory {self.scene_dir} does not exist")


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` file with ``#`` comments; a file that
    does not parse is a :class:`ConfigError`."""
    try:
        return _read_key_values(path)
    except FormatError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_snr(text: str) -> float | None:
    if text.lower() in ("inf", "none", ""):
        return None
    return float(text)


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


# Config key -> (field, parser). ``solver.*`` keys name TwoLmmConfig fields,
# every other key an ExperimentConfig field.
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "scene.kind": ("scene_kind", str),
    "scene.width": ("width", int),
    "scene.height": ("height", int),
    "scene.k": ("k", int),
    "scene.bands": ("bands", int),
    "scene.snr_db": ("snr_db", _parse_snr),
    "scene.dir": ("scene_dir", str),
    "run.methods": ("methods", _parse_methods),
    "run.em_source": ("em_source", str),
    "run.em_file": ("em_file", str),
    "run.out": ("out_dir", str),
    "run.seed": ("seed", int),
    "solver.lower": ("lower", float),
    "solver.upper": ("upper", float),
    "solver.eps": ("eps", float),
    "solver.max_iter": ("max_iter", int),
    "solver.memory": ("memory", int),
}

# Command-line flag -> the config key it sets; ``--bounds`` sets two keys.
_FLAG_KEYS = {
    "seed": "run.seed",
    "out": "run.out",
    "methods": "run.methods",
    "em_source": "run.em_source",
    "snr": "scene.snr_db",
}

# The columns of results.csv/.json, and of sweep.csv after its sweep and value.
_RESULT_COLUMNS = ("method", "rmse_a", "rmse_x", "time_s", "iters", "error")


def build_config(entries: dict[str, str], args: argparse.Namespace) -> ExperimentConfig:
    """The configuration of file ``entries`` with the flags in ``args`` set
    over it. An unset flag, an empty ``--methods`` and an empty ``--bounds``
    leave the file's value."""
    flags = {
        key: str(getattr(args, flag))
        for flag, key in _FLAG_KEYS.items()
        if getattr(args, flag, None) is not None
    }
    if flags.get("run.methods") == "":
        del flags["run.methods"]
    if getattr(args, "bounds", None):
        try:
            lo, hi = (float(v) for v in args.bounds.split(","))
        except ValueError as exc:
            raise ConfigError("--bounds expects 'lo,hi'") from exc
        flags["solver.lower"], flags["solver.upper"] = repr(lo), repr(hi)
    cfg = ExperimentConfig()
    solver_kwargs: dict[str, float | int] = {}
    for key, value in [*entries.items(), *flags.items()]:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(f"malformed configuration value for {key}: {exc}") from exc
        if key.startswith("solver."):
            solver_kwargs[name] = parsed
        else:
            setattr(cfg, name, parsed)
    try:
        cfg.solver = TwoLmmConfig(**solver_kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid solver settings: {exc}") from exc
    cfg.validate()
    return cfg


@dataclass
class SceneBundle:
    """A scene plus whatever ground truth is available for scoring, and the
    endmember count ``k`` a loaded scene's manifest records."""

    image: HsiImage
    endmembers_truth: EndmemberMatrix | None = None
    abundances_truth: AbundanceMatrix | None = None
    scaling: ScalingState | None = None
    k: int | None = None


def build_scene(cfg: ExperimentConfig) -> SceneBundle:
    """Generate the configured scene in memory (deterministic in the seed)."""
    endmembers = synthetic_endmembers(
        cfg.bands, cfg.k, seed=_derive_seed(cfg.seed, _STREAM_ENDMEMBERS)
    )
    abundances = generate_grf_abundances(
        GrfSpec(
            width=cfg.width,
            height=cfg.height,
            k=cfg.k,
            seed=_derive_seed(cfg.seed, _STREAM_ABUNDANCES),
        )
    )
    if cfg.scene_kind == "2lmm":
        scene = generate_2lmm_scene(
            endmembers,
            abundances,
            snr_db=cfg.snr_db,
            seed=_derive_seed(cfg.seed, _STREAM_SCENE),
            width=cfg.width,
            height=cfg.height,
        )
        return SceneBundle(
            image=scene.image,
            endmembers_truth=endmembers,
            abundances_truth=abundances,
            scaling=scene.scaling,
        )
    dsm = smoothed_random_dsm(
        cfg.width, cfg.height, relief=_HAPKE_RELIEF, seed=_derive_seed(cfg.seed, _STREAM_DSM)
    )
    scene = generate_hapke_scene(
        endmembers,
        abundances,
        dsm,
        sun_dir=_HAPKE_SUN,
        snr_db=cfg.snr_db,
        seed=_derive_seed(cfg.seed, _STREAM_SCENE),
    )
    return SceneBundle(
        image=scene.image,
        endmembers_truth=endmembers,
        abundances_truth=abundances,
    )


def load_scene(scene_dir: str | Path) -> SceneBundle:
    """Load a scene previously written by ``generate`` from its manifest."""
    scene_dir = Path(scene_dir)
    manifest_path = scene_dir / "manifest.txt"
    if not manifest_path.exists():
        raise ConfigError(f"{scene_dir} has no manifest.txt")
    entries = read_config(manifest_path)
    try:
        image = load_image(scene_dir / entries["image"])
    except KeyError as exc:
        raise ConfigError(f"{manifest_path}: missing 'image' entry") from exc
    bundle = SceneBundle(image=image)
    if "k" in entries:
        try:
            bundle.k = int(entries["k"])
        except ValueError as exc:
            raise ConfigError(f"{manifest_path}: malformed 'k' entry") from exc
    if "abundances" in entries:
        bundle.abundances_truth = load_abundances(scene_dir / entries["abundances"])
    if "endmembers" in entries:
        bundle.endmembers_truth = load_endmembers(scene_dir / entries["endmembers"])
    return bundle


def cmd_generate(cfg: ExperimentConfig) -> Path:
    bundle = build_scene(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_image(bundle.image, out / "scene.hsi")
    save_abundances(bundle.abundances_truth, out / "abundances_gt.abn")
    save_endmembers(bundle.endmembers_truth, out / "endmembers_gt.emm")
    manifest = {
        "kind": cfg.scene_kind,
        "seed": cfg.seed,
        "width": cfg.width,
        "height": cfg.height,
        "k": cfg.k,
        "bands": cfg.bands,
        "snr_db": "inf" if cfg.snr_db is None else "%.17g" % cfg.snr_db,
        "image": "scene.hsi",
        "abundances": "abundances_gt.abn",
        "endmembers": "endmembers_gt.emm",
    }
    if cfg.scene_kind == "2lmm":
        save_scaling_state(bundle.scaling, out / "scalings_gt.txt")
        manifest["scalings"] = "scalings_gt.txt"
    _write_key_values(out / "manifest.txt", manifest)
    return out


def resolve_endmembers(cfg: ExperimentConfig, bundle: SceneBundle) -> EndmemberMatrix:
    """Pick the endmembers a run will unmix with.

    ``vca`` extracts pure-pixel indices on the image's perspective
    projection along its mean direction, so pixel scaling cannot bias the
    selection; :func:`vca_extract` works on that projection without
    forming it. It takes the original (unprojected) pixel columns at those
    indices, so their scale matches the image being unmixed. The columns
    are then projected onto the image's leading rank-k subspace, which
    strips the out-of-subspace noise a single noisy pixel carries
    (negative excursions are zeroed). Both subspaces come from a P x P
    triangle of a band Gram matrix (``endmembers._leading_subspace``), never
    from an SVD of the P x N image, and no P x N array but the image is
    held outside the QR fallback for a singular Gram. A known
    ``bundle.k`` overrides ``cfg.k``.
    """
    if cfg.em_source == "truth":
        if bundle.endmembers_truth is None:
            raise ConfigError("scene has no ground-truth endmembers")
        return bundle.endmembers_truth
    if cfg.em_source == "file":
        return load_endmembers(cfg.em_file)
    k = cfg.k if bundle.k is None else bundle.k
    image = bundle.image
    projection = ProjectionSpec.for_image(image)  # vca_extract checks its margin
    _, indices = vca_extract(
        image, k, seed=_derive_seed(cfg.seed, _STREAM_VCA), projection=projection
    )
    basis = _leading_subspace(image.data, k)
    columns = basis @ (basis.T @ image.data[:, indices])
    return EndmemberMatrix(np.maximum(columns, 0.0))


def _run_method(name: str, image: HsiImage, em: EndmemberMatrix, solver: TwoLmmConfig):
    if name == "lmm":
        return unmix_lmm(image, em)
    if name == "slmm":
        return unmix_slmm(image, em)
    if name == "als2lmm":
        return solve_als(image, em, solver)
    if name == "lbfgs2lmm":
        return solve_lbfgs(image, em, solver)
    raise ConfigError(f"unknown method {name!r}")


def _method_row(
    name: str,
    bundle: SceneBundle,
    em_used: EndmemberMatrix,
    solver: TwoLmmConfig,
    match: MatchResult | None,
) -> tuple[dict, SolverTrace | None]:
    """The results row of one method and its trace (None when it raised a
    :class:`SolverError`). The result itself is dropped on return, so the
    next method runs without it."""
    row = dict.fromkeys(_RESULT_COLUMNS)
    row.update(method=name, iters=0, error="")
    try:
        t0 = time.perf_counter()
        result = _run_method(name, bundle.image, em_used, solver)
    except SolverError as exc:
        row["error"] = str(exc)
        return row, None
    row["time_s"] = time.perf_counter() - t0
    row["iters"] = result.iterations
    if name in ("lmm", "slmm"):
        # A single-shot result's one trace cost is the squared error rmse_x
        # sums, bit for bit; it is not summed again.
        row["rmse_x"] = math.sqrt(result.trace[-1].cost / bundle.image.data.size)
    else:
        row["rmse_x"] = rmse_x(bundle.image, result)
    if match is not None:
        a_est = align_abundances(result.abundances.data, match)
        row["rmse_a"] = rmse_a(bundle.abundances_truth, AbundanceMatrix(a_est))
    return row, result.trace


def run_methods(
    cfg: ExperimentConfig,
    bundle: SceneBundle,
    em_used: EndmemberMatrix,
    out: Path | None = None,
) -> list[dict]:
    """One results row per method. With ``out``, the directory is created and
    each method's trace written to it once every method has run, so a method
    that raises leaves nothing behind; a :class:`SolverError` is a row.
    ``rmse_a`` is scored only with both ground truths, on abundance rows
    aligned to the true endmembers; otherwise it is ``None``."""
    match = None
    if bundle.abundances_truth is not None and bundle.endmembers_truth is not None:
        try:
            match = match_endmembers(em_used, bundle.endmembers_truth)
        except ValueError as exc:
            raise ConfigError(f"endmembers do not fit the scene: {exc}") from exc
    rows = []
    traces = {}
    for name in cfg.methods:
        row, trace = _method_row(name, bundle, em_used, cfg.solver, match)
        rows.append(row)
        if trace is not None:
            traces[name] = trace
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        for name, trace in traces.items():
            trace.write_csv(out / f"trace_{name}.csv")
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    # strings may be error messages; keep the CSV well-formed
    return str(value).replace(",", ";").replace("\n", " ")


def _write_rows(
    rows: list[dict], columns: tuple[str, ...], csv_path: Path, json_path: Path
) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in columns))
    with _new_file(csv_path) as fh:
        fh.write("\n".join(lines) + "\n")
    with _new_file(json_path) as fh:
        fh.write(json.dumps(rows, indent=2) + "\n")


def _scene(cfg: ExperimentConfig) -> SceneBundle:
    """The directory ``scene.dir`` names, else the generated scene."""
    return load_scene(cfg.scene_dir) if cfg.scene_dir else build_scene(cfg)


def cmd_unmix(cfg: ExperimentConfig) -> list[dict]:
    bundle = _scene(cfg)
    em_used = resolve_endmembers(cfg, bundle)
    out = Path(cfg.out_dir)
    rows = run_methods(cfg, bundle, em_used, out=out)
    _write_rows(rows, _RESULT_COLUMNS, out / "results.csv", out / "results.json")
    return rows


def cmd_sweep(cfg: ExperimentConfig, sweep: str, values: list[float]) -> list[dict]:
    if sweep not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {sweep!r}; expected one of {SWEEP_KINDS}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    for value in values:
        if sweep == "snr":
            _check_snr(value)
        elif not 1.0 <= value < math.inf:
            raise ConfigError(f"bounds_alpha values must be finite and >= 1, got {value}")
    if sweep == "snr" and cfg.scene_dir:
        raise ConfigError(
            "an snr sweep adds noise to the generator's clean image, which a "
            f"loaded scene lacks; unset scene.dir ({cfg.scene_dir})"
        )
    rows: list[dict] = []
    if sweep == "bounds_alpha":
        bundle = _scene(cfg)
        em_used = resolve_endmembers(cfg, bundle)
        for alpha in values:
            run_cfg = replace(cfg, solver=replace(cfg.solver, lower=1.0 / alpha, upper=alpha))
            for row in run_methods(run_cfg, bundle, em_used):
                rows.append({"sweep": sweep, "value": alpha, **row})
    else:
        # The noiseless scene's image is the clean composition itself.
        # Endmembers come from it so the sweep isolates solver noise
        # robustness from extraction noise.
        bundle = build_scene(replace(cfg, snr_db=None))
        em_used = resolve_endmembers(cfg, bundle)
        for i, snr in enumerate(values):
            noisy = apply_noise(
                bundle.image, snr, seed=_derive_seed(cfg.seed, _STREAM_NOISE + i)
            )
            noisy_bundle = replace(bundle, image=noisy)
            for row in run_methods(cfg, noisy_bundle, em_used):
                rows.append({"sweep": sweep, "value": snr, **row})

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(rows, ("sweep", "value", *_RESULT_COLUMNS), out / "sweep.csv", out / "sweep.json")
    return rows


def cmd_info() -> None:
    print(f"twolmm {__version__}")
    print(f"methods: {', '.join(METHOD_NAMES)}")
    print(f"endmember sources: {', '.join(EM_SOURCES)}")
    print(f"sweeps: {', '.join(SWEEP_KINDS)}")
    print("file formats: raw-f64 (HSI0/EMM0/ABN0 magic), csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to the config exit code
        raise ConfigError(message)


def _parse_args(argv) -> argparse.Namespace:
    parser = _Parser(prog="twolmm", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", type=int, default=None, help="experiment seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--methods", default=None, help="comma-separated method list")
        p.add_argument("--em-source", dest="em_source", choices=EM_SOURCES, default=None)
        p.add_argument("--bounds", default=None, help="solver scaling bounds 'lo,hi'")
        p.add_argument("--snr", default=None, help="scene SNR in dB ('inf' for none)")

    add_common(sub.add_parser("generate", help="write a synthetic scene"))
    add_common(sub.add_parser("unmix", help="run unmixing methods on a scene"))
    p_sweep = sub.add_parser("sweep", help="run unmix over a parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--sweep", choices=SWEEP_KINDS, required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    sub.add_parser("info", help="print package information")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        if args.verb == "info":
            cmd_info()
            return EXIT_OK
        entries = read_config(args.config) if args.config else {}
        cfg = build_config(entries, args)
        if args.verb == "generate":
            out = cmd_generate(cfg)
            print(f"scene written to {out}")
            return EXIT_OK
        if args.verb == "unmix":
            rows = cmd_unmix(cfg)
            for row in rows:
                print(
                    f"{row['method']}: rmse_a={_cell(row['rmse_a']) or 'n/a'} "
                    f"rmse_x={_cell(row['rmse_x']) or 'n/a'} "
                    f"iters={row['iters']} {row['error']}"
                )
        else:
            values = [float(v) for v in args.values.split(",") if v.strip()]
            rows = cmd_sweep(cfg, args.sweep, values)
            print(f"{len(rows)} sweep rows written to {cfg.out_dir}")
        # A method's SolverError is its row, written with the rest.
        return EXIT_SOLVER if any(row["error"] for row in rows) else EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
