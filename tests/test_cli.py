"""Experiment harness: config handling, pipelines, determinism, exit codes."""

import dataclasses
import json
import linecache
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from twolmm import EndmemberMatrix, HsiImage, apply_noise, cli, fileio, rmse_x
from twolmm.cli import (
    ConfigError,
    ExperimentConfig,
    build_config,
    build_scene,
    cmd_generate,
    cmd_sweep,
    cmd_unmix,
    main,
    read_config,
    resolve_endmembers,
    run_methods,
)
from twolmm.fileio import load_abundances, load_endmembers, load_image, save_image


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


SMALL_SCENE = """
scene.kind = 2lmm
scene.width = 12
scene.height = 12
scene.k = 3
scene.bands = 40
scene.snr_db = 40
run.methods = lmm,slmm,lbfgs2lmm
run.em_source = truth
"""


class TestConfigParsing:
    def test_round_trip_keys(self, tmp_path):
        path = write_config(tmp_path, SMALL_SCENE)
        entries = read_config(path)
        assert entries["scene.width"] == "12"
        assert entries["run.methods"] == "lmm,slmm,lbfgs2lmm"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "scene.wobble = 3\n")
        with pytest.raises(ConfigError, match="wobble"):
            build_config(read_config(path), _args())

    def test_unknown_method_rejected(self, tmp_path):
        path = write_config(tmp_path, "run.methods = lmm,bogus\n")
        with pytest.raises(ConfigError, match="bogus"):
            build_config(read_config(path), _args())

    def test_cli_overrides_file(self, tmp_path):
        path = write_config(tmp_path, SMALL_SCENE)
        cfg = build_config(read_config(path), _args(seed=9, methods="slmm"))
        assert cfg.seed == 9
        assert cfg.methods == ("slmm",)

    def test_bounds_flag(self, tmp_path):
        path = write_config(tmp_path, SMALL_SCENE)
        cfg = build_config(read_config(path), _args(bounds="0.5,2"))
        assert (cfg.solver.lower, cfg.solver.upper) == (0.5, 2.0)

    def test_missing_em_file_rejected(self):
        with pytest.raises(ConfigError, match="em_file"):
            build_config({"run.em_source": "file"}, _args())

    def test_readme_example_config_runs_as_written(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = build_config(read_config(write_config(tmp_path, block)), _args())
        assert (cfg.scene_kind, cfg.snr_db, cfg.em_source) == ("2lmm", 40.0, "vca")
        assert cfg.methods == ("lmm", "slmm", "als2lmm", "lbfgs2lmm")

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"scene.width = 12\nscene.kind = \xff2lmm\n")
        with pytest.raises(ConfigError) as caught:
            read_config(path)
        assert str(caught.value) == f"{path}: not a text file"
        out = tmp_path / "res"
        assert main(["unmix", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"configuration error: {path}: not a text file\n"
        assert not out.exists()

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        path = write_config(tmp_path, "# comment\nscene.width = 12\nscene.height 12\n")
        with pytest.raises(ConfigError) as caught:
            read_config(path)
        assert str(caught.value) == f"{path}:3: expected 'key = value'"

    def test_malformed_value_names_its_key(self):
        with pytest.raises(
            ConfigError,
            match=r"^malformed configuration value for scene\.width: invalid literal for int",
        ):
            build_config({"scene.width": "abc"}, _args())
        with pytest.raises(ConfigError, match=r"^malformed configuration value for scene\.snr_db"):
            build_config({}, _args(snr="loud"))

    def test_every_solver_setting_has_a_key(self):
        from twolmm.cli import _CONFIG_KEYS
        from twolmm.twostep import TwoLmmConfig

        keyed = {name for key, (name, _) in _CONFIG_KEYS.items() if key.startswith("solver.")}
        settable = {f.name for f in dataclasses.fields(TwoLmmConfig)} - {"force_unit_step"}
        assert keyed == settable

    def test_every_scene_and_run_setting_has_one_key(self):
        from twolmm.cli import _CONFIG_KEYS

        keyed = [name for key, (name, _) in _CONFIG_KEYS.items() if not key.startswith("solver.")]
        settable = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "solver"]
        assert sorted(keyed) == sorted(settable)

    def test_protocol_scene_settings_are_not_keys(self, tmp_path, capsys):
        for name in (
            "correlation_length", "s_lo", "s_hi", "em_lo", "em_hi",
            "relief", "smoothness", "cell_size", "sun_zenith_deg",
        ):
            with pytest.raises(ConfigError, match="unknown configuration key"):
                build_config({f"scene.{name}": "1"}, _args())
        path = write_config(tmp_path, SMALL_SCENE + "scene.relief = 30\n")
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "unknown configuration key 'scene.relief'" in capsys.readouterr().err


def _args(**kw):
    class Args:
        seed = kw.get("seed")
        out = kw.get("out")
        methods = kw.get("methods")
        em_source = kw.get("em_source")
        bounds = kw.get("bounds")
        snr = kw.get("snr")

    return Args()


def _snapshot(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _without_time(name: str, data: bytes):
    """A results or trace file's content with its ``time_s`` column dropped."""
    if name.endswith(".json"):
        return [{k: v for k, v in row.items() if k != "time_s"} for row in json.loads(data)]
    rows = [line.split(",") for line in data.decode("ascii").splitlines()]
    col = rows[0].index("time_s")
    return [row[:col] + row[col + 1 :] for row in rows]


def small_cfg(tmp_path, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        width=12,
        height=12,
        k=3,
        bands=40,
        snr_db=40.0,
        methods=("lmm", "slmm", "lbfgs2lmm"),
        em_source="truth",
        out_dir=str(tmp_path / "out"),
        seed=3,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestGenerate:
    def test_writes_five_files_and_manifest_lists_seed(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = cmd_generate(cfg)
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "abundances_gt.abn",
            "endmembers_gt.emm",
            "manifest.txt",
            "scalings_gt.txt",
            "scene.hsi",
        ]
        assert "seed = 3" in (out / "manifest.txt").read_text()

    def test_manifest_lines(self, tmp_path):
        out = cmd_generate(small_cfg(tmp_path))
        assert (out / "manifest.txt").read_text() == (
            "kind = 2lmm\nseed = 3\nwidth = 12\nheight = 12\nk = 3\nbands = 40\n"
            "snr_db = 40\nimage = scene.hsi\nabundances = abundances_gt.abn\n"
            "endmembers = endmembers_gt.emm\nscalings = scalings_gt.txt\n"
        )

    def test_same_seed_byte_identical(self, tmp_path):
        cfg1 = small_cfg(tmp_path, out_dir=str(tmp_path / "a"))
        cfg2 = small_cfg(tmp_path, out_dir=str(tmp_path / "b"))
        out1 = cmd_generate(cfg1)
        out2 = cmd_generate(cfg2)
        assert (out1 / "scene.hsi").read_bytes() == (out2 / "scene.hsi").read_bytes()

    def test_missing_output_dir_created(self, tmp_path):
        cfg = small_cfg(tmp_path, out_dir=str(tmp_path / "deep" / "nested"))
        out = cmd_generate(cfg)
        assert out.exists()

    def test_written_files_load_back(self, tmp_path):
        out = cmd_generate(small_cfg(tmp_path))
        img = load_image(out / "scene.hsi")
        ab = load_abundances(out / "abundances_gt.abn")
        em = load_endmembers(out / "endmembers_gt.emm")
        assert img.pixel_count == ab.pixel_count == 144
        assert em.endmember_count == 3


class TestRerunIntoOneDirectory:
    """Every output is written as a new file over the old one."""

    def test_generate_twice_gives_identical_files(self, tmp_path):
        cfg = small_cfg(tmp_path)
        first = _snapshot(cmd_generate(cfg))
        assert _snapshot(cmd_generate(cfg)) == first

    def unmix(self, cfg) -> dict:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cmd_unmix(cfg)
        out = Path(cfg.out_dir)
        return {name: _without_time(name, data) for name, data in _snapshot(out).items()}

    def test_unmix_twice_gives_identical_outputs_outside_time_s(self, tmp_path):
        cfg = small_cfg(tmp_path, methods=("lmm", "slmm", "als2lmm", "lbfgs2lmm"))
        first = self.unmix(cfg)
        assert sorted(first) == [
            "results.csv",
            "results.json",
            "trace_als2lmm.csv",
            "trace_lbfgs2lmm.csv",
            "trace_lmm.csv",
            "trace_slmm.csv",
        ]
        assert self.unmix(cfg) == first

    def test_stale_symlinked_and_hard_linked_outputs_are_replaced(self, tmp_path):
        fresh = self.unmix(small_cfg(tmp_path, out_dir=str(tmp_path / "fresh")))
        out = tmp_path / "out"
        out.mkdir()
        (out / "results.csv").write_text("method\n" + "stale,row\n" * 1000)
        target = tmp_path / "target.json"
        target.write_text("keep me")
        (out / "results.json").symlink_to(target)
        old_trace = tmp_path / "old_trace.csv"
        old_trace.write_text("old trace")
        os.link(old_trace, out / "trace_lmm.csv")

        assert self.unmix(small_cfg(tmp_path)) == fresh
        assert not (out / "results.json").is_symlink()
        assert target.read_text() == "keep me"
        assert old_trace.read_text() == "old trace"


class TestUnmix:
    def test_method_ordering_on_scaled_scene(self, tmp_path):
        cfg = small_cfg(tmp_path, width=20, height=20, em_source="vca")
        rows = cmd_unmix(cfg)
        by = {r["method"]: r for r in rows}
        assert by["lbfgs2lmm"]["rmse_a"] < by["slmm"]["rmse_a"] < by["lmm"]["rmse_a"]

    def test_outputs_json_csv_identical_numbers(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = cmd_unmix(cfg)
        out = tmp_path / "out"
        jrows = json.loads((out / "results.json").read_text())
        lines = (out / "results.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        for row, line in zip(jrows, lines[1:]):
            cells = line.split(",")
            for col, cell in zip(header, cells):
                if isinstance(row[col], float):
                    assert float(cell) == row[col]
        assert [r["method"] for r in jrows] == [r["method"] for r in rows]

    def test_rmse_x_rows_are_rmse_x_of_each_result(self, tmp_path, monkeypatch):
        # The single-shot rows take rmse_x from the trace cost, bit for bit.
        cfg = small_cfg(tmp_path, methods=("lmm", "slmm", "als2lmm", "lbfgs2lmm"))
        bundle = build_scene(cfg)
        results = {}
        run = cli._run_method

        def kept(name, *args):
            results[name] = run(name, *args)
            return results[name]

        monkeypatch.setattr(cli, "_run_method", kept)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = run_methods(cfg, bundle, bundle.endmembers_truth)
        assert [row["method"] for row in rows] == list(cfg.methods)
        for row in rows:
            assert row["rmse_x"] == rmse_x(bundle.image, results[row["method"]])

    def test_each_method_warns_at_its_own_line(self, tmp_path):
        cfg = small_cfg(tmp_path, methods=("slmm", "als2lmm", "lbfgs2lmm"))
        bundle = build_scene(cfg)
        x = np.array(bundle.image.data)
        x[:, 5:15] = 0.0
        bundle.image = HsiImage(x, width=cfg.width, height=cfg.height)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_methods(cfg, bundle, bundle.endmembers_truth)
        degenerate = [w for w in caught if "degenerate" in str(w.message)]
        assert [w.filename for w in degenerate] == [cli.__file__] * 3
        lines = [linecache.getline(w.filename, w.lineno) for w in degenerate]
        for line, function in zip(lines, ("unmix_slmm", "solve_als", "solve_lbfgs")):
            assert f"return {function}(" in line

    def test_methods_hold_no_image_sized_array(self, tmp_path):
        # Any P x N array alone would take the whole image size; what stays
        # is O(K N) (L-BFGS keeps about 25 K x N vectors) and pixel blocks.
        cfg = small_cfg(tmp_path, width=100, height=100, bands=120, methods=("slmm", "lbfgs2lmm"))
        bundle = build_scene(cfg)
        em = resolve_endmembers(cfg, bundle)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rows = run_methods(cfg, bundle, em)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(row["error"] for row in rows)
        assert peak < 0.8 * bundle.image.data.nbytes

    def test_vca_extraction_holds_no_second_image(self, tmp_path):
        # Extraction works on the perspective projection block by block;
        # what stays is O(K N), a P x P Gram and pixel blocks.
        cfg = small_cfg(tmp_path, width=100, height=100, bands=120, em_source="vca")
        bundle = build_scene(cfg)
        tracemalloc.start()
        try:
            em = resolve_endmembers(cfg, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert em.endmember_count == 3
        assert peak <= 0.75 * bundle.image.data.nbytes

    def test_trace_files_written(self, tmp_path):
        cfg = small_cfg(tmp_path)
        cmd_unmix(cfg)
        out = tmp_path / "out"
        for method in cfg.methods:
            trace = out / f"trace_{method}.csv"
            assert trace.exists()
            header = trace.read_text().splitlines()[0]
            assert header.startswith("iteration,cost")

    def test_missing_manifest_rejected(self, tmp_path):
        from twolmm.cli import load_scene

        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(ConfigError, match="manifest"):
            load_scene(empty)

    def test_unmix_from_generated_directory(self, tmp_path):
        gen_cfg = small_cfg(tmp_path, out_dir=str(tmp_path / "scene"))
        cmd_generate(gen_cfg)
        run_cfg = small_cfg(tmp_path, scene_dir=str(tmp_path / "scene"))
        rows = cmd_unmix(run_cfg)
        direct = cmd_unmix(small_cfg(tmp_path, out_dir=str(tmp_path / "direct")))
        for a, b in zip(rows, direct):
            assert a["rmse_a"] == pytest.approx(b["rmse_a"], rel=1e-12)

    def test_manifest_with_generator_settings_loads(self, tmp_path):
        # Manifests once also recorded correlation_length, s_lo and s_hi.
        scene_dir = tmp_path / "scene"
        cmd_generate(small_cfg(tmp_path, out_dir=str(scene_dir)))
        direct = cmd_unmix(small_cfg(tmp_path, scene_dir=str(scene_dir)))
        manifest = scene_dir / "manifest.txt"
        lines = manifest.read_text().splitlines()
        assert [ln.split(" = ")[0] for ln in lines] == [
            "kind", "seed", "width", "height", "k", "bands", "snr_db",
            "image", "abundances", "endmembers", "scalings",
        ]
        old_lines = ["correlation_length = 15", lines[6], "s_lo = 0.33333333333333331", "s_hi = 3"]
        lines[6:7] = old_lines
        manifest.write_text("\n".join(lines) + "\n")
        rows = cmd_unmix(small_cfg(tmp_path, scene_dir=str(scene_dir)))
        for a, b in zip(rows, direct, strict=True):
            assert (a["rmse_a"], a["rmse_x"]) == (b["rmse_a"], b["rmse_x"])

    def test_vca_extracts_the_manifest_k(self, tmp_path, capsys):
        scene_dir = tmp_path / "scene"
        gen = write_config(tmp_path, SMALL_SCENE.replace("scene.k = 3", "scene.k = 4"))
        assert main(["generate", "--config", str(gen), "--seed", "5", "--out", str(scene_dir)]) == 0
        run = write_config(
            tmp_path, SMALL_SCENE.replace("scene.k = 3\n", f"scene.dir = {scene_dir}\n")
        )
        out = tmp_path / "res"
        code = main(
            ["unmix", "--config", str(run), "--seed", "5", "--out", str(out),
             "--em-source", "vca", "--methods", "slmm"]
        )
        assert code == 0, capsys.readouterr().err
        row = json.loads((out / "results.json").read_text())[0]
        assert row["error"] == "" and row["rmse_a"] is not None

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: fileio._write_raw(path, fileio._MAGIC_ENDMEMBERS, np.zeros((40, 0)), 0),
            lambda path: path.write_text("0,3\n"),
        ],
        ids=["raw", "csv"],
    )
    def test_empty_endmember_file_is_an_io_error_naming_it(self, write, tmp_path, capsys):
        scene_dir = tmp_path / "scene"
        scene_dir.mkdir()
        save_image(HsiImage(np.ones((40, 16)), width=4, height=4), scene_dir / "scene.hsi")
        (scene_dir / "manifest.txt").write_text("image = scene.hsi\n")  # no truth
        em_file = tmp_path / "empty.em"
        write(em_file)
        run = write_config(
            tmp_path,
            f"scene.dir = {scene_dir}\nrun.em_source = file\nrun.em_file = {em_file}\n",
        )
        out = tmp_path / "res"
        assert main(["unmix", "--config", str(run), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            f"i/o error: {em_file}: "
            "endmember matrix must have at least one band and one endmember\n"
        )
        assert not out.exists()

    def test_rmse_a_only_with_the_true_endmembers(self, tmp_path, capsys):
        # Without them, VCA's endmembers come in an arbitrary order that no
        # match aligns, so there is no abundance error to report.
        scene_dir = tmp_path / "scene"
        gen = write_config(tmp_path, SMALL_SCENE)
        argv = ["generate", "--config", str(gen), "--seed", "5", "--out", str(scene_dir)]
        assert main(argv) == 0
        run = write_config(tmp_path, SMALL_SCENE + f"scene.dir = {scene_dir}\n")
        manifest = scene_dir / "manifest.txt"
        full = manifest.read_text()
        for name, text, scored in (
            ("full", full, True),
            ("no_em", full.replace("endmembers = endmembers_gt.emm\n", ""), False),
        ):
            manifest.write_text(text)
            out = tmp_path / name
            argv = ["unmix", "--config", str(run), "--seed", "5", "--out", str(out),
                    "--em-source", "vca", "--methods", "slmm"]
            assert main(argv) == 0
            row = json.loads((out / "results.json").read_text())[0]
            header, values = (out / "results.csv").read_text().splitlines()
            cells = dict(zip(header.split(","), values.split(",")))
            printed = capsys.readouterr().out
            assert row["rmse_x"] is not None
            if scored:
                assert 0.0 < row["rmse_a"] < 0.2
                assert float(cells["rmse_a"]) == row["rmse_a"]
            else:
                assert row["rmse_a"] is None and cells["rmse_a"] == ""
                assert "slmm: rmse_a=n/a " in printed

    def test_truth_noiseless_reconstruction(self, tmp_path):
        from twolmm.twostep import TwoLmmConfig

        cfg = small_cfg(tmp_path, snr_db=None, methods=("lbfgs2lmm",))
        cfg.solver = TwoLmmConfig(eps=1e-9, max_iter=2000)
        rows = cmd_unmix(cfg)
        assert rows[0]["rmse_x"] <= 1e-8

    def test_rederivable_from_manifest_and_seed(self, tmp_path):
        r1 = cmd_unmix(small_cfg(tmp_path, out_dir=str(tmp_path / "r1")))
        r2 = cmd_unmix(small_cfg(tmp_path, out_dir=str(tmp_path / "r2")))
        for a, b in zip(r1, r2):
            assert a["rmse_a"] == b["rmse_a"]
            assert a["rmse_x"] == b["rmse_x"]

    def test_solver_failure_recorded_not_fatal(self, tmp_path, monkeypatch):
        import twolmm.cli as cli

        def boom(*args, **kwargs):
            raise cli.SolverError("synthetic failure")

        monkeypatch.setitem(
            cli.__dict__, "solve_lbfgs", boom
        )
        cfg = small_cfg(tmp_path, methods=("slmm", "lbfgs2lmm"))
        rows = cmd_unmix(cfg)
        assert rows[0]["error"] == ""
        assert "synthetic failure" in rows[1]["error"]
        assert rows[1]["rmse_a"] is None

    def overflowing_run(self, tmp_path):
        """A config that unmixes a 6x6, 20-band scene and its endmembers
        scaled by 1e160 from files."""
        bundle = build_scene(small_cfg(tmp_path, width=6, height=6, bands=20))
        scene_dir = tmp_path / "scene"
        scene_dir.mkdir()
        save_image(HsiImage(bundle.image.data * 1e160, 6, 6), scene_dir / "scene.hsi")
        (scene_dir / "manifest.txt").write_text("image = scene.hsi\n")
        em_file = tmp_path / "em.emm"
        fileio.save_endmembers(EndmemberMatrix(bundle.endmembers_truth.data * 1e160), em_file)
        return write_config(
            tmp_path,
            f"scene.dir = {scene_dir}\nrun.em_source = file\nrun.em_file = {em_file}\n",
        )

    def test_overflowing_cost_is_an_error_row(self, tmp_path, capsys):
        # Scaled by 1e160, every squared error overflows; each method's
        # SolverError is its row, and the run goes on.
        run = self.overflowing_run(tmp_path)
        out = tmp_path / "res"
        argv = ["unmix", "--config", str(run), "--out", str(out),
                "--methods", "slmm,als2lmm,lbfgs2lmm"]
        with np.errstate(all="ignore"):
            assert main(argv) == 2, capsys.readouterr().err
        rows = json.loads((out / "results.json").read_text())
        assert [row["method"] for row in rows] == ["slmm", "als2lmm", "lbfgs2lmm"]
        for row in rows:
            assert row["error"].startswith("non-finite cost"), row
            assert row["rmse_x"] is None

    def test_overflowing_normal_equations_are_an_lmm_error_row(self, tmp_path, capsys):
        run = self.overflowing_run(tmp_path)
        out = tmp_path / "res"
        argv = ["unmix", "--config", str(run), "--out", str(out), "--methods", "lmm"]
        with np.errstate(all="ignore"):
            assert main(argv) == 2, capsys.readouterr().err
        [row] = json.loads((out / "results.json").read_text())
        assert row["method"] == "lmm"
        assert row["error"].startswith("non-finite normal equations"), row
        assert row["rmse_x"] is None


class TestSweep:
    def test_singleton_bounds_sweep_matches_unmix(self, tmp_path):
        cfg = small_cfg(tmp_path, methods=("lbfgs2lmm",))
        alpha = cfg.solver.upper
        sweep_rows = cmd_sweep(cfg, "bounds_alpha", [alpha])
        unmix_rows = cmd_unmix(
            small_cfg(tmp_path, methods=("lbfgs2lmm",), out_dir=str(tmp_path / "u"))
        )
        assert sweep_rows[0]["rmse_a"] == pytest.approx(unmix_rows[0]["rmse_a"], rel=1e-12)

    @pytest.mark.parametrize(
        "sweep, values, named",
        [
            ("bounds_alpha", "3,0.5", ">= 1, got 0.5"),
            ("bounds_alpha", "3,nan", ">= 1, got nan"),
            ("bounds_alpha", "3,inf", ">= 1, got inf"),
            ("snr", "30,nan", "snr_db must be finite, +inf or None, got nan"),
            ("snr", "30,-inf", "snr_db must be finite, +inf or None, got -inf"),
        ],
    )
    def test_sweep_values_checked_before_any_work(
        self, tmp_path, capsys, monkeypatch, sweep, values, named
    ):
        import twolmm.cli as cli

        built = []
        monkeypatch.setitem(cli.__dict__, "build_scene", lambda cfg: built.append(cfg))
        path = write_config(tmp_path, SMALL_SCENE)
        code = main(
            ["sweep", "--config", str(path), "--out", str(tmp_path / "sw"),
             "--sweep", sweep, "--values", values]
        )
        assert code == 1
        assert named in capsys.readouterr().err
        assert built == []
        assert not (tmp_path / "sw").exists()

    def test_bounds_alpha_sweep_runs_on_the_scene_directory(self, tmp_path):
        cmd_generate(small_cfg(tmp_path, out_dir=str(tmp_path / "scene"), seed=5))
        cfg = small_cfg(tmp_path, methods=("slmm",), scene_dir=str(tmp_path / "scene"))
        sweep_rows = cmd_sweep(cfg, "bounds_alpha", [cfg.solver.upper])
        unmix_rows = cmd_unmix(dataclasses.replace(cfg, out_dir=str(tmp_path / "u")))
        assert sweep_rows[0]["rmse_a"] == unmix_rows[0]["rmse_a"]
        assert sweep_rows[0]["rmse_x"] == unmix_rows[0]["rmse_x"]

    def test_snr_sweep_is_run_methods_on_the_noised_noiseless_image(self, tmp_path):
        cfg = small_cfg(tmp_path, methods=("slmm", "lbfgs2lmm"), em_source="vca")
        values = [30.0, 50.0]
        rows = cmd_sweep(cfg, "snr", values)
        noiseless = build_scene(dataclasses.replace(cfg, snr_db=None))
        em = resolve_endmembers(cfg, noiseless)
        expected = []
        for i, snr in enumerate(values):
            seed = cli._derive_seed(cfg.seed, cli._STREAM_NOISE + i)
            noisy = dataclasses.replace(noiseless, image=apply_noise(noiseless.image, snr, seed))
            for row in run_methods(cfg, noisy, em):
                expected.append({"sweep": "snr", "value": snr, **row})
        assert len(rows) == len(expected) == 4
        for got, want in zip(rows, expected):
            assert {**got, "time_s": None} == {**want, "time_s": None}

    def test_snr_sweep_on_a_scene_directory_is_a_config_error(self, tmp_path, capsys):
        scene_dir = tmp_path / "scene"
        cmd_generate(small_cfg(tmp_path, out_dir=str(scene_dir)))
        path = write_config(tmp_path, SMALL_SCENE + f"scene.dir = {scene_dir}\n")
        code = main(
            ["sweep", "--config", str(path), "--out", str(tmp_path / "sw"),
             "--sweep", "snr", "--values", "30"]
        )
        assert code == 1
        assert "scene.dir" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="value"):
            cmd_sweep(small_cfg(tmp_path), "snr", [])

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            cmd_sweep(small_cfg(tmp_path), "gamma", [1.0])

    def test_long_format_columns(self, tmp_path):
        cfg = small_cfg(tmp_path, methods=("slmm",))
        cmd_sweep(cfg, "snr", [30.0, 50.0])
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sweep,value,method,rmse_a,rmse_x,time_s,iters,error"
        assert len(lines) == 3  # header + one row per (value, method)


class TestMainExitCodes:
    def test_info_ok(self, capsys):
        assert main(["info"]) == 0
        assert "methods" in capsys.readouterr().out

    def test_config_error_is_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "run.methods = bogus\n")
        assert main(["unmix", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "verb", [["unmix"], ["sweep", "--sweep", "bounds_alpha", "--values", "2"]],
        ids=["unmix", "sweep"],
    )
    @pytest.mark.parametrize(
        "line, flags, message",
        [
            ("", ["--methods", ","], "run.methods names no method"),
            ("run.methods =\n", [], "run.methods names no method"),
            ("", ["--methods", "lmm,slmm,lmm"], "run.methods names 'lmm' more than once"),
        ],
        ids=["comma-flag", "empty-key", "repeated"],
    )
    def test_empty_or_repeated_method_list_is_config_error(
        self, tmp_path, capsys, verb, line, flags, message
    ):
        path = write_config(tmp_path, SMALL_SCENE + line)
        out = tmp_path / "res"
        assert main([*verb, "--config", str(path), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    # Each configuration refuses the run before any output. {dir} is a scene
    # directory; a given manifest is written there beside a 4x4 image.
    @pytest.mark.parametrize(
        "lines, manifest, message",
        [
            ("scene.kind = bogus\n", None, "unknown scene kind 'bogus'"),
            (
                "run.em_source = bogus\n",
                None,
                "unknown endmember source 'bogus'; expected one of ('file', 'vca', 'truth')",
            ),
            (
                "run.em_source = file\nrun.em_file = {dir}/absent.csv\n",
                None,
                "endmember file {dir}/absent.csv does not exist",
            ),
            ("scene.dir = {dir}/absent\n", None, "scene directory {dir}/absent does not exist"),
            (
                "scene.dir = {dir}\n",
                "k = 3\n",
                "{dir}/manifest.txt: missing 'image' entry",
            ),
            (
                "scene.dir = {dir}\n",
                "image = scene.hsi\nk = three\n",
                "{dir}/manifest.txt: malformed 'k' entry",
            ),
            (
                "scene.dir = {dir}\nrun.em_source = truth\n",
                "image = scene.hsi\n",
                "scene has no ground-truth endmembers",
            ),
        ],
        ids=[
            "scene-kind", "em-source", "em-file", "scene-dir", "no-image", "malformed-k",
            "truth-without-endmembers",
        ],
    )
    def test_config_error_before_any_output(self, tmp_path, capsys, lines, manifest, message):
        scene_dir = tmp_path / "scene"
        scene_dir.mkdir()
        if manifest is not None:
            image = build_scene(small_cfg(tmp_path, width=4, height=4, bands=10)).image
            save_image(image, scene_dir / "scene.hsi")
            (scene_dir / "manifest.txt").write_text(manifest)
        path = write_config(tmp_path, "run.methods = lmm\n" + lines.format(dir=scene_dir))
        out = tmp_path / "res"
        assert main(["unmix", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message.format(dir=scene_dir)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, table",
        [(["unmix"], "results"), (["sweep", "--sweep", "bounds_alpha", "--values", "2"], "sweep")],
        ids=["unmix", "sweep"],
    )
    def test_error_row_is_two_with_every_output_written(self, tmp_path, capsys, verb, table):
        run = TestUnmix().overflowing_run(tmp_path)
        out = tmp_path / "res"
        argv = [*verb, "--config", str(run), "--out", str(out), "--methods", "lmm,slmm"]
        with np.errstate(all="ignore"):
            assert main(argv) == 2, capsys.readouterr().err
        rows = json.loads((out / f"{table}.json").read_text())
        assert [row["method"] for row in rows] == ["lmm", "slmm"]
        assert rows[0]["error"].startswith("non-finite normal equations"), rows
        assert rows[1]["error"].startswith("non-finite cost"), rows
        assert (out / f"{table}.csv").read_text().count("non-finite") == 2

    def test_missing_config_is_io_error(self, capsys):
        assert main(["unmix", "--config", "/nonexistent/x.cfg"]) == 3

    def test_bad_usage_is_config_error(self, capsys):
        assert main(["sweep", "--sweep", "nope", "--values", "1"]) == 1

    def test_refused_endmember_file_is_io_error_naming_it(self, tmp_path, capsys):
        em_path = tmp_path / "em.csv"
        em = np.full((40, 3), 0.5)
        em[7, 1] = -0.1
        fileio._write_csv(em_path, em)
        cfg_path = write_config(tmp_path, SMALL_SCENE + f"run.em_file = {em_path}\n")
        out = tmp_path / "res"
        argv = ["unmix", "--config", str(cfg_path), "--out", str(out), "--em-source", "file"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"i/o error: {em_path}: endmember data must be nonnegative\n"
        )
        assert not out.exists()

    def test_refused_scene_abundances_are_io_error_naming_them(self, tmp_path, capsys):
        scene_dir = tmp_path / "scene"
        cmd_generate(small_cfg(tmp_path, out_dir=str(scene_dir)))
        abn = scene_dir / "abundances_gt.abn"
        a = load_abundances(abn).data.copy()
        a[:, 0] *= 0.5
        cfg_path = write_config(tmp_path, SMALL_SCENE + f"scene.dir = {scene_dir}\n")
        out = tmp_path / "res"
        # The auxiliary field does not matter: the columns are checked.
        for aux in (0, 1):
            fileio._write_raw(abn, fileio._MAGIC_ABUNDANCES, a, aux)
            assert main(["unmix", "--config", str(cfg_path), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            reason = "columns that do not sum to one: 1 (first indices [0])"
            assert err == f"i/o error: {abn}: {reason}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "header, reason",
        [
            ("40,-3", "negative dimension in header line: '40,-3'"),
            ("40,1000000000000", "row 1 has 3 values, expected 1000000000000"),
        ],
    )
    def test_bad_csv_header_is_io_error_naming_the_file(
        self, header, reason, tmp_path, capsys
    ):
        em_path = tmp_path / "em.csv"
        em_path.write_text(header + "\n" + "0.5,0.5,0.5\n" * 40)
        cfg_path = write_config(tmp_path, SMALL_SCENE + f"run.em_file = {em_path}\n")
        out = tmp_path / "res"
        argv = ["unmix", "--config", str(cfg_path), "--out", str(out), "--em-source", "file"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"i/o error: {em_path}: {reason}\n"
        assert not out.exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"^run\.seed must be nonnegative, got -1$"):
            build_config({"run.seed": "-1"}, _args())
        with pytest.raises(ConfigError, match=r"^run\.seed must be nonnegative, got -2$"):
            build_config({}, _args(seed=-2))
        path = write_config(tmp_path, SMALL_SCENE)
        out = tmp_path / "res"
        assert main(["unmix", "--config", str(path), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: run.seed must be nonnegative, got -1\n"
        )
        assert not out.exists()

    def test_endmember_count_mismatch_is_config_error_before_any_method(
        self, tmp_path, capsys
    ):
        from twolmm.core import EndmemberMatrix
        from twolmm.fileio import save_endmembers

        bundle = build_scene(small_cfg(tmp_path))
        em_path = tmp_path / "two.emm"
        save_endmembers(EndmemberMatrix(bundle.endmembers_truth.data[:, :2]), em_path)
        cfg_path = write_config(
            tmp_path, SMALL_SCENE.replace("run.em_source = truth", f"run.em_file = {em_path}")
        )
        out = tmp_path / "res"
        code = main(
            ["unmix", "--config", str(cfg_path), "--seed", "3", "--out", str(out),
             "--em-source", "file"]
        )
        assert code == 1
        assert "same size" in capsys.readouterr().err
        assert not list(out.glob("trace_*.csv"))
        assert not (out / "results.csv").exists()

    def test_value_error_in_a_method_is_not_a_table_row(self, tmp_path, capsys, monkeypatch):
        import twolmm.cli as cli

        def boom(*args, **kwargs):
            raise ValueError("synthetic programming error")

        path = write_config(tmp_path, SMALL_SCENE)
        reused = tmp_path / "reused"
        assert main(["unmix", "--config", str(path), "--out", str(reused)]) == 0
        before = _snapshot(reused)
        monkeypatch.setitem(cli.__dict__, "unmix_slmm", boom)
        # lmm runs and succeeds before slmm raises.
        for out in (tmp_path / "res", reused):
            argv = ["unmix", "--config", str(path), "--out", str(out), "--methods", "lmm,slmm"]
            assert main(argv) == 1
            assert "synthetic programming error" in capsys.readouterr().err
        # A failed run writes nothing: no new directory, no file changed.
        assert not (tmp_path / "res").exists()
        assert _snapshot(reused) == before

    def test_generate_and_unmix_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_SCENE)
        out = str(tmp_path / "files")
        assert main(["generate", "--config", str(path), "--seed", "4", "--out", out]) == 0
        assert (
            main(
                [
                    "unmix",
                    "--config",
                    str(path),
                    "--seed",
                    "4",
                    "--out",
                    str(tmp_path / "res"),
                    "--methods",
                    "slmm",
                ]
            )
            == 0
        )
        assert (tmp_path / "res" / "results.csv").exists()


class TestResolveEndmembers:
    def test_truth_returns_scene_endmembers(self, tmp_path):
        cfg = small_cfg(tmp_path)
        bundle = build_scene(cfg)
        em = resolve_endmembers(cfg, bundle)
        assert em is bundle.endmembers_truth

    def test_vca_columns_live_in_image_range(self, tmp_path):
        cfg = small_cfg(tmp_path, width=20, height=20, em_source="vca")
        bundle = build_scene(cfg)
        em = resolve_endmembers(cfg, bundle)
        assert em.band_count == bundle.image.band_count
        assert em.endmember_count == cfg.k

    def test_vca_checks_projection_margin_once(self, tmp_path, monkeypatch):
        from twolmm import endmembers

        calls = []
        checked_dots = endmembers._checked_dots

        def counting(image, spec):
            calls.append(1)
            return checked_dots(image, spec)

        monkeypatch.setattr(endmembers, "_checked_dots", counting)
        cfg = small_cfg(tmp_path, width=20, height=20, em_source="vca")
        resolve_endmembers(cfg, build_scene(cfg))
        assert len(calls) == 1

    def test_file_source_round_trips(self, tmp_path):
        from twolmm.fileio import save_endmembers

        cfg = small_cfg(tmp_path)
        bundle = build_scene(cfg)
        path = tmp_path / "ems.emm"
        save_endmembers(bundle.endmembers_truth, path)
        cfg2 = small_cfg(tmp_path, em_source="file", em_file=str(path))
        em = resolve_endmembers(cfg2, bundle)
        np.testing.assert_array_equal(em.data, bundle.endmembers_truth.data)


def test_importing_the_cli_loads_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, twolmm.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
