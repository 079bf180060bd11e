"""Experiment harness: config handling, pipelines, determinism, exit codes."""

import json

import numpy as np
import pytest

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
)
from twolmm.fileio import load_abundances, load_endmembers, load_image


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


def _args(**kw):
    class Args:
        seed = kw.get("seed")
        out = kw.get("out")
        methods = kw.get("methods")
        em_source = kw.get("em_source")
        bounds = kw.get("bounds")
        snr = kw.get("snr")

    return Args()


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

    def test_truth_noiseless_reconstruction(self, tmp_path):
        from twolmm.twostep import TwoLmmConfig

        cfg = small_cfg(tmp_path, snr_db=None, methods=("lbfgs2lmm",))
        cfg.solver = TwoLmmConfig(eps_a=1e-9, eps_s=1e-9, max_iter=2000)
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


class TestSweep:
    def test_singleton_bounds_sweep_matches_unmix(self, tmp_path):
        cfg = small_cfg(tmp_path, methods=("lbfgs2lmm",))
        alpha = cfg.solver.upper
        sweep_rows = cmd_sweep(cfg, "bounds_alpha", [alpha])
        unmix_rows = cmd_unmix(
            small_cfg(tmp_path, methods=("lbfgs2lmm",), out_dir=str(tmp_path / "u"))
        )
        assert sweep_rows[0]["rmse_a"] == pytest.approx(unmix_rows[0]["rmse_a"], rel=1e-12)

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

    def test_missing_config_is_io_error(self, capsys):
        assert main(["unmix", "--config", "/nonexistent/x.cfg"]) == 3

    def test_bad_usage_is_config_error(self, capsys):
        assert main(["sweep", "--sweep", "nope", "--values", "1"]) == 1

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

    def test_file_source_round_trips(self, tmp_path):
        from twolmm.fileio import save_endmembers

        cfg = small_cfg(tmp_path)
        bundle = build_scene(cfg)
        path = tmp_path / "ems.emm"
        save_endmembers(bundle.endmembers_truth, path)
        cfg2 = small_cfg(tmp_path, em_source="file", em_file=str(path))
        em = resolve_endmembers(cfg2, bundle)
        np.testing.assert_array_equal(em.data, bundle.endmembers_truth.data)
