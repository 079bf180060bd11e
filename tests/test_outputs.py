"""The CLI's output tables, how its flags set configuration keys, and the
settings it refuses."""

import argparse
import csv
import json
import warnings
from dataclasses import fields

import pytest

from twolmm.cli import (
    _RESULT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    build_config,
    build_scene,
    cmd_unmix,
    main,
)
from twolmm.fileio import _read_key_values
from twolmm.trace import IterationRecord, SolverTrace

from scenes import assert_contrast

SCENE = """
scene.kind = 2lmm
scene.width = 14
scene.height = 14
scene.k = 3
scene.bands = 20
scene.snr_db = 40
run.methods = lmm,slmm
run.em_source = truth
"""


def flags(**kw):
    names = ("seed", "out", "methods", "em_source", "bounds", "snr")
    return argparse.Namespace(**{name: kw.get(name) for name in names})


def test_scene_has_abundance_contrast(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SCENE)
    assert_contrast(build_scene(build_config(_read_key_values(path), flags())).abundances_truth)


def test_every_table_takes_its_columns_from_one_place(tmp_path, monkeypatch):
    written = {}
    write_csv = SolverTrace.write_csv

    def capture(trace, path):
        written[path.name] = trace
        write_csv(trace, path)

    monkeypatch.setattr(SolverTrace, "write_csv", capture)
    cfg = ExperimentConfig(
        width=14,
        height=14,
        bands=20,
        methods=("lmm", "slmm", "als2lmm", "lbfgs2lmm"),
        out_dir=str(tmp_path),
        seed=1,
    )
    assert_contrast(build_scene(cfg).abundances_truth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cmd_unmix(cfg)

    names = [f.name for f in fields(IterationRecord)]
    assert sorted(written) == sorted(f"trace_{m}.csv" for m in cfg.methods)
    for filename, trace in written.items():
        header, *rows = list(csv.reader(open(tmp_path / filename)))
        assert header == names
        assert len(rows) == len(trace) > 0
        for row, record in zip(rows, trace):
            assert row == [repr(getattr(record, n)) for n in names]

    header = next(csv.reader(open(tmp_path / "results.csv")))
    assert tuple(header) == _RESULT_COLUMNS
    rows = json.loads((tmp_path / "results.json").read_text())
    assert [tuple(row) for row in rows] == [_RESULT_COLUMNS] * len(cfg.methods)


class TestFlags:
    def test_flags_set_their_keys_over_the_file(self):
        entries = {"run.seed": "1", "run.out": "a", "scene.snr_db": "40", "run.em_source": "truth"}
        cfg = build_config(
            entries, flags(seed=0, out="b", snr="inf", em_source="vca", bounds="0.25,4")
        )
        assert (cfg.seed, cfg.out_dir, cfg.snr_db, cfg.em_source) == (0, "b", None, "vca")
        assert (cfg.solver.lower, cfg.solver.upper) == (0.25, 4.0)

    def test_empty_methods_and_bounds_keep_the_file_values(self):
        entries = {"run.methods": "slmm", "solver.lower": "0.5"}
        cfg = build_config(entries, flags(methods="", bounds=""))
        assert cfg.methods == ("slmm",)
        assert cfg.solver.lower == 0.5

    @pytest.mark.parametrize("bounds", ["1", "1,2,3", "a,b"])
    def test_malformed_bounds_named(self, bounds):
        with pytest.raises(ConfigError, match="--bounds expects 'lo,hi'"):
            build_config({}, flags(bounds=bounds))

    def test_malformed_file_value_overridden_by_a_flag_still_rejected(self):
        with pytest.raises(ConfigError, match="malformed configuration value"):
            build_config({"run.seed": "x"}, flags(seed=3))


@pytest.mark.parametrize(
    "extra, argv, named",
    [
        ("solver.eps = nan\n", [], "thresholds must be positive"),
        # The retired pair of thresholds has no alias.
        ("solver.eps_a = 1e-6\n", [], "unknown configuration key 'solver.eps_a'"),
        ("solver.eps_s = 1e-6\n", [], "unknown configuration key 'solver.eps_s'"),
        ("scene.snr_db = -inf\n", [], "snr_db"),
        ("scene.snr_db = nan\n", [], "snr_db"),
        ("", ["--snr=-inf"], "snr_db"),
    ],
)
def test_undefined_settings_exit_with_a_configuration_error(
    tmp_path, capsys, extra, argv, named
):
    path = tmp_path / "exp.cfg"
    path.write_text(SCENE + extra)
    out = tmp_path / "res"
    for verb in ("unmix", "generate"):
        code = main([verb, "--config", str(path), "--out", str(out), *argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and named in err
        # A failed run leaves no output directory behind, not even an empty one.
        assert not out.exists()
