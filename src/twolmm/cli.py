"""Command-line experiment harness.

Verbs: ``generate`` (write a synthetic scene plus its manifest),
``unmix`` (run a list of methods on a scene and emit a results table plus
per-iteration traces), ``sweep`` (repeat ``unmix`` over scaling-bound or
noise-level values, emitting a long-format CSV), and ``info``.

Configuration is a flat key-value text file with dotted section prefixes
(``scene.width = 50``); command-line flags override file values. All
randomness derives from the single ``--seed``, so every output row can be
re-derived from the manifest and seed. Exit codes: 0 success, 1
configuration error, 2 solver error, 3 I/O error.
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
    apply_noise,
    generate_2lmm_scene,
    generate_grf_abundances,
    generate_hapke_scene,
    smoothed_random_dsm,
    synthetic_endmembers,
)
from .endmembers import ProjectionSpec, align_abundances, match_endmembers, perspective_project, vca_extract
from .fileio import (
    FormatError,
    load_abundances,
    load_endmembers,
    load_image,
    save_abundances,
    save_endmembers,
    save_image,
    save_scaling_state,
)
from .solvers import SolverError
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


@dataclass
class ExperimentConfig:
    scene_kind: str = "2lmm"
    width: int = 30
    height: int = 30
    k: int = 3
    bands: int = 120
    correlation_length: float = 15.0
    s_lo: float = 1.0 / 3.0
    s_hi: float = 3.0
    snr_db: float | None = 40.0
    em_lo: float = 0.05
    em_hi: float = 0.95
    relief: float = 20.0
    smoothness: float = 6.0
    cell_size: float = 10.0
    sun_zenith_deg: float = 40.0
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
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(
                    f"unknown method {m!r}; expected one of {METHOD_NAMES}"
                )
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
    """Parse a flat ``key = value`` file with ``#`` comments."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


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
    "scene.correlation_length": ("correlation_length", float),
    "scene.s_lo": ("s_lo", float),
    "scene.s_hi": ("s_hi", float),
    "scene.snr_db": ("snr_db", _parse_snr),
    "scene.em_lo": ("em_lo", float),
    "scene.em_hi": ("em_hi", float),
    "scene.relief": ("relief", float),
    "scene.smoothness": ("smoothness", float),
    "scene.cell_size": ("cell_size", float),
    "scene.sun_zenith_deg": ("sun_zenith_deg", float),
    "scene.dir": ("scene_dir", str),
    "run.methods": ("methods", _parse_methods),
    "run.em_source": ("em_source", str),
    "run.em_file": ("em_file", str),
    "run.out": ("out_dir", str),
    "run.seed": ("seed", int),
    "solver.lower": ("lower", float),
    "solver.upper": ("upper", float),
    "solver.eps_a": ("eps_a", float),
    "solver.eps_s": ("eps_s", float),
    "solver.max_iter": ("max_iter", int),
    "solver.memory": ("memory", int),
}


def build_config(entries: dict[str, str], args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    solver_kwargs: dict[str, float | int] = {}
    try:
        for key, value in entries.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            name, parse = _CONFIG_KEYS[key]
            if key.startswith("solver."):
                solver_kwargs[name] = parse(value)
            else:
                setattr(cfg, name, parse(value))
    except ValueError as exc:
        raise ConfigError(f"malformed configuration value: {exc}") from exc

    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "methods", None):
        cfg.methods = _parse_methods(args.methods)
    if getattr(args, "em_source", None):
        cfg.em_source = args.em_source
    if getattr(args, "snr", None) is not None:
        cfg.snr_db = _parse_snr(args.snr)
    if getattr(args, "bounds", None):
        try:
            lo, hi = (float(v) for v in args.bounds.split(","))
        except ValueError as exc:
            raise ConfigError("--bounds expects 'lo,hi'") from exc
        solver_kwargs["lower"] = lo
        solver_kwargs["upper"] = hi
    try:
        cfg.solver = TwoLmmConfig(**solver_kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid solver settings: {exc}") from exc
    cfg.validate()
    return cfg


@dataclass
class SceneBundle:
    """A scene plus whatever ground truth is available for scoring."""

    image: HsiImage
    clean: HsiImage | None = None
    endmembers_truth: EndmemberMatrix | None = None
    abundances_truth: AbundanceMatrix | None = None
    scaling: ScalingState | None = None


def build_scene(cfg: ExperimentConfig) -> SceneBundle:
    """Generate the configured scene in memory (deterministic in the seed)."""
    endmembers = synthetic_endmembers(
        cfg.bands,
        cfg.k,
        seed=_derive_seed(cfg.seed, _STREAM_ENDMEMBERS),
        reflectance_range=(cfg.em_lo, cfg.em_hi),
    )
    abundances = generate_grf_abundances(
        GrfSpec(
            width=cfg.width,
            height=cfg.height,
            correlation_length=cfg.correlation_length,
            k=cfg.k,
            seed=_derive_seed(cfg.seed, _STREAM_ABUNDANCES),
        )
    )
    if cfg.scene_kind == "2lmm":
        scene = generate_2lmm_scene(
            endmembers,
            abundances,
            s_range=(cfg.s_lo, cfg.s_hi),
            snr_db=cfg.snr_db,
            seed=_derive_seed(cfg.seed, _STREAM_SCENE),
            width=cfg.width,
            height=cfg.height,
        )
        return SceneBundle(
            image=scene.image,
            clean=scene.clean,
            endmembers_truth=endmembers,
            abundances_truth=abundances,
            scaling=scene.scaling,
        )
    zen = math.radians(cfg.sun_zenith_deg)
    sun = (math.sin(zen), 0.0, math.cos(zen))
    dsm = smoothed_random_dsm(
        cfg.width,
        cfg.height,
        relief=cfg.relief,
        smoothness=cfg.smoothness,
        cell_size=cfg.cell_size,
        seed=_derive_seed(cfg.seed, _STREAM_DSM),
    )
    scene = generate_hapke_scene(
        endmembers,
        abundances,
        dsm,
        sun_dir=sun,
        snr_db=cfg.snr_db,
        seed=_derive_seed(cfg.seed, _STREAM_SCENE),
    )
    return SceneBundle(
        image=scene.image,
        clean=scene.clean,
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
    if "abundances" in entries:
        bundle.abundances_truth = load_abundances(scene_dir / entries["abundances"])
    if "endmembers" in entries:
        bundle.endmembers_truth = load_endmembers(scene_dir / entries["endmembers"])
    return bundle


def cmd_generate(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = build_scene(cfg)
    save_image(bundle.image, out / "scene.hsi")
    save_abundances(bundle.abundances_truth, out / "abundances_gt.abn")
    save_endmembers(bundle.endmembers_truth, out / "endmembers_gt.emm")
    manifest = [
        f"kind = {cfg.scene_kind}",
        f"seed = {cfg.seed}",
        f"width = {cfg.width}",
        f"height = {cfg.height}",
        f"k = {cfg.k}",
        f"bands = {cfg.bands}",
        "correlation_length = %.17g" % cfg.correlation_length,
        "snr_db = %s" % ("inf" if cfg.snr_db is None else "%.17g" % cfg.snr_db),
        "image = scene.hsi",
        "abundances = abundances_gt.abn",
        "endmembers = endmembers_gt.emm",
    ]
    if cfg.scene_kind == "2lmm":
        manifest.insert(8, "s_lo = %.17g" % cfg.s_lo)
        manifest.insert(9, "s_hi = %.17g" % cfg.s_hi)
        save_scaling_state(bundle.scaling, out / "scalings_gt.txt")
        manifest.append("scalings = scalings_gt.txt")
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="ascii")
    return out


def resolve_endmembers(
    cfg: ExperimentConfig, bundle: SceneBundle, vca_image: HsiImage | None = None
) -> EndmemberMatrix:
    """Pick the endmembers a run will unmix with.

    ``vca`` projects the image perspectively so pixel scaling cannot bias
    the selection, extracts pure-pixel indices on the projected data, and
    takes the original (unprojected) pixel columns at those indices, so
    their scale matches the image being unmixed. The columns are then
    projected onto the image's leading rank-k subspace, which strips the
    out-of-subspace noise a single noisy pixel carries (negative
    excursions are zeroed).
    """
    if cfg.em_source == "truth":
        if bundle.endmembers_truth is None:
            raise ConfigError("scene has no ground-truth endmembers")
        return bundle.endmembers_truth
    if cfg.em_source == "file":
        return load_endmembers(cfg.em_file)
    source = vca_image if vca_image is not None else bundle.image
    spec = ProjectionSpec.for_image(source)
    projected = perspective_project(source, spec)
    _, indices = vca_extract(projected, cfg.k, seed=_derive_seed(cfg.seed, _STREAM_VCA))
    basis = np.linalg.svd(source.data, full_matrices=False)[0][:, : cfg.k]
    columns = basis @ (basis.T @ source.data[:, indices])
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


def run_methods(
    cfg: ExperimentConfig,
    bundle: SceneBundle,
    em_used: EndmemberMatrix,
    out: Path | None = None,
) -> list[dict]:
    match = None
    if bundle.abundances_truth is not None and bundle.endmembers_truth is not None:
        try:
            match = match_endmembers(em_used, bundle.endmembers_truth)
        except ValueError as exc:
            raise ConfigError(f"endmembers do not fit the scene: {exc}") from exc
    rows = []
    for name in cfg.methods:
        row = {
            "method": name,
            "rmse_a": None,
            "rmse_x": None,
            "time_s": None,
            "iters": 0,
            "error": "",
        }
        try:
            t0 = time.perf_counter()
            result = _run_method(name, bundle.image, em_used, cfg.solver)
            row["time_s"] = time.perf_counter() - t0
            row["iters"] = result.iterations
            row["rmse_x"] = rmse_x(bundle.image, result.reconstruction)
            if bundle.abundances_truth is not None:
                a_est = result.abundances.data
                if match is not None:
                    a_est = align_abundances(a_est, match)
                row["rmse_a"] = rmse_a(
                    bundle.abundances_truth, AbundanceMatrix(a_est, normalized=True)
                )
            if out is not None:
                result.trace.write_csv(out / f"trace_{name}.csv")
        except (SolverError, ValueError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    # strings may be error messages; keep the CSV well-formed
    return str(value).replace(",", ";").replace("\n", " ")


def _write_rows(rows: list[dict], columns: list[str], csv_path: Path, json_path: Path) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in columns))
    csv_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    json_path.write_text(json.dumps(rows, indent=2) + "\n", encoding="ascii")


def cmd_unmix(cfg: ExperimentConfig) -> list[dict]:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = load_scene(cfg.scene_dir) if cfg.scene_dir else build_scene(cfg)
    em_used = resolve_endmembers(cfg, bundle)
    rows = run_methods(cfg, bundle, em_used, out=out)
    _write_rows(
        rows,
        ["method", "rmse_a", "rmse_x", "time_s", "iters", "error"],
        out / "results.csv",
        out / "results.json",
    )
    return rows


def cmd_sweep(cfg: ExperimentConfig, sweep: str, values: list[float]) -> list[dict]:
    if sweep not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {sweep!r}; expected one of {SWEEP_KINDS}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows: list[dict] = []
    if sweep == "bounds_alpha":
        bundle = build_scene(cfg)
        em_used = resolve_endmembers(cfg, bundle)
        for alpha in values:
            if alpha < 1.0:
                raise ConfigError("bounds_alpha values must be >= 1")
            run_cfg = replace(cfg, solver=replace(cfg.solver, lower=1.0 / alpha, upper=alpha))
            for row in run_methods(run_cfg, bundle, em_used):
                rows.append({"sweep": sweep, "value": alpha, **row})
    else:
        clean_cfg = replace(cfg, snr_db=None)
        bundle = build_scene(clean_cfg)
        # Endmembers come from the noise-free image so the sweep isolates
        # solver noise robustness from extraction noise.
        em_used = resolve_endmembers(cfg, bundle, vca_image=bundle.clean)
        for i, snr in enumerate(values):
            noisy = apply_noise(
                bundle.clean, snr, seed=_derive_seed(cfg.seed, _STREAM_NOISE + i)
            )
            noisy_bundle = replace(bundle, image=noisy)
            for row in run_methods(cfg, noisy_bundle, em_used):
                rows.append({"sweep": sweep, "value": snr, **row})

    _write_rows(
        rows,
        ["sweep", "value", "method", "rmse_a", "rmse_x", "time_s", "iters", "error"],
        out / "sweep.csv",
        out / "sweep.json",
    )
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
        elif args.verb == "unmix":
            rows = cmd_unmix(cfg)
            for row in rows:
                print(
                    f"{row['method']}: rmse_a={_cell(row['rmse_a']) or 'n/a'} "
                    f"rmse_x={_cell(row['rmse_x']) or 'n/a'} "
                    f"iters={row['iters']} {row['error']}"
                )
        elif args.verb == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            rows = cmd_sweep(cfg, args.sweep, values)
            print(f"{len(rows)} sweep rows written to {cfg.out_dir}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
