"""File format round trips, malformed-input handling, and how outputs are
written."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import twolmm
from twolmm import fileio
from twolmm import (
    AbundanceMatrix,
    EndmemberMatrix,
    FormatError,
    HsiImage,
    ScalingState,
    load_abundances,
    load_endmembers,
    load_image,
    load_scaling_state,
    save_abundances,
    save_endmembers,
    save_image,
    save_scaling_state,
)
from twolmm.trace import IterationRecord, SolverTrace


@pytest.fixture
def image():
    rng = np.random.default_rng(17)
    return HsiImage(rng.uniform(0.0, 2.5, size=(4, 6)), width=3, height=2)


class TestRawFormat:
    def test_image_round_trip_bit_identical(self, image, tmp_path):
        path = tmp_path / "img.hsi"
        save_image(image, path, fmt="raw-f64")
        back = load_image(path)
        np.testing.assert_array_equal(back.data, image.data)
        assert (back.width, back.height) == (image.width, image.height)

    def test_header_is_sixteen_bytes(self, image, tmp_path):
        path = tmp_path / "img.hsi"
        save_image(image, path)
        blob = path.read_bytes()
        assert blob[:4] == b"HSI0"
        assert len(blob) == 16 + image.data.size * 8

    def test_bad_magic_rejected(self, image, tmp_path):
        path = tmp_path / "img.hsi"
        save_image(image, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_image(path)  # sniffed as CSV, whose reader refuses it

    def test_truncated_payload_rejected(self, image, tmp_path):
        path = tmp_path / "img.hsi"
        save_image(image, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="payload"):
            load_image(path)

    def test_truncated_header_names_the_file(self, tmp_path):
        path = tmp_path / "em.emm"
        path.write_bytes(fileio._MAGIC_ENDMEMBERS + bytes(4))
        with pytest.raises(FormatError) as caught:
            load_endmembers(path)
        assert str(caught.value) == f"{path}: truncated header"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.hsi"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="empty"):
            load_image(path)

    def test_endmembers_round_trip(self, tmp_path):
        em = EndmemberMatrix(np.random.default_rng(3).uniform(0.1, 1.0, (5, 3)))
        path = tmp_path / "em.emm"
        save_endmembers(em, path)
        np.testing.assert_array_equal(load_endmembers(path).data, em.data)

    def test_stored_width_that_does_not_divide_the_pixels_names_the_file(self, tmp_path):
        path = tmp_path / "img.hsi"
        fileio._write_raw(path, fileio._MAGIC_IMAGE, np.ones((2, 6)), 4)
        with pytest.raises(FormatError) as caught:
            load_image(path)
        assert str(caught.value) == f"{path}: width*height = 4*1 does not match pixel count 6"

    def test_abundances_round_trip_with_flag(self, tmp_path):
        a = AbundanceMatrix(
            np.random.default_rng(4).dirichlet([1, 1, 1], size=5).T, normalized=True
        )
        path = tmp_path / "a.abn"
        save_abundances(a, path)
        back = load_abundances(path)
        np.testing.assert_array_equal(back.data, a.data)
        assert back.normalized


class TestCsvFormat:
    def test_round_trip_exact(self, image, tmp_path):
        path = tmp_path / "img.csv"
        save_image(image, path, fmt="csv")
        back = load_image(path)
        np.testing.assert_array_equal(back.data, image.data)
        assert (back.width, back.height) == (image.width, image.height)

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,3\n1,2,3\n4,5\n")
        with pytest.raises(FormatError, match="row 2"):
            load_image(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,2\n1,2\n3,4\n")
        with pytest.raises(FormatError, match="rows"):
            load_image(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_image(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("width,height\n")
        with pytest.raises(FormatError, match="header"):
            load_image(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("1,-3\n0.5\n", "negative dimension in header line: '1,-3'"),
            ("-1,3\n", "negative dimension in header line: '-1,3'"),
            # Refused before a 1 x 10^12 matrix (7.28 TiB) is allocated.
            ("1,1000000000000\n0.5\n", "row 1 has 1 values, expected 1000000000000"),
            ("2,2\n0.5,0.5\n0.5\n", "row 2 has 1 values, expected 2"),
            ("1\n0.5\n", "header must list at least two dimensions"),
        ],
    )
    def test_header_that_does_not_fit_the_data_names_the_file(self, text, reason, tmp_path):
        path = tmp_path / "em.csv"
        path.write_text(text)
        with pytest.raises(FormatError) as caught:
            load_endmembers(path)
        assert str(caught.value) == f"{path}: {reason}"

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n1.0,oops\n")
        with pytest.raises(FormatError, match="row 1"):
            load_image(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n1.0,nan\n")
        with pytest.raises(FormatError, match="finite"):
            load_image(path)

    def test_negative_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,6,-2,-3\n" + "1,1,1,1,1,1\n" * 3)
        with pytest.raises(ValueError, match="nonnegative"):
            load_image(path)


class TestFormatSniffing:
    def test_sniff_raw_vs_csv(self, image, tmp_path):
        raw = tmp_path / "a.hsi"
        csv = tmp_path / "a.csv"
        save_image(image, raw, fmt="raw-f64")
        save_image(image, csv, fmt="csv")
        np.testing.assert_array_equal(load_image(raw).data, load_image(csv).data)

    @pytest.mark.parametrize(
        "load, magic",
        [(load_image, b"HSI0"), (load_endmembers, b"EMM0"), (load_abundances, b"ABN0")],
        ids=["image", "endmembers", "abundances"],
    )
    def test_raw_file_of_another_kind_names_its_magic(self, load, magic, tmp_path):
        files = {
            b"HSI0": (save_image, HsiImage(np.ones((3, 4)))),
            b"EMM0": (save_endmembers, EndmemberMatrix(np.eye(3))),
            b"ABN0": (save_abundances, AbundanceMatrix(np.full((3, 4), 0.25))),
        }
        for other, (save, obj) in files.items():
            if other == magic:
                continue
            path = tmp_path / other.decode()
            save(obj, path)
            with pytest.raises(FormatError) as caught:
                load(path)
            assert str(caught.value).endswith(f"bad magic {other!r}, expected {magic!r}")

    def test_unknown_format_rejected(self, image, tmp_path):
        with pytest.raises(FormatError, match="unsupported"):
            save_image(image, tmp_path / "x", fmt="npz")


class TestScalingStateFile:
    def test_round_trip(self, tmp_path):
        state = ScalingState(
            s_e=np.array([0.5, 2.0]), s_x=np.array([1.0, 0.7, 3.0]), lower=0.2, upper=5.0
        )
        path = tmp_path / "scalings.txt"
        save_scaling_state(state, path)
        back = load_scaling_state(path)
        np.testing.assert_array_equal(back.s_e, state.s_e)
        np.testing.assert_array_equal(back.s_x, state.s_x)
        assert (back.lower, back.upper) == (state.lower, state.upper)

    def test_missing_entries_rejected(self, tmp_path):
        path = tmp_path / "scalings.txt"
        path.write_text("bounds = 0.2,5\n")
        with pytest.raises(FormatError, match="malformed"):
            load_scaling_state(path)


    def test_non_text_file_names_the_file(self, tmp_path):
        path = tmp_path / "scalings.txt"
        path.write_bytes(b"bounds = 0.2,5\n\xff\xfe\n")
        with pytest.raises(FormatError) as caught:
            load_scaling_state(path)
        assert str(caught.value) == f"{path}: not a text file"

    def test_parsed_like_a_configuration(self, tmp_path):
        # UTF-8, whole-line comments, and a later key wins; a line without
        # '=' is named by its number.
        path = tmp_path / "scalings.txt"
        path.write_text("# r\u00e9glage\nbounds = 1,1\nbounds = 0.2,5\ns_e = 2\ns_x = 1,3\n")
        state = load_scaling_state(path)
        assert (state.lower, state.upper) == (0.2, 5.0)
        np.testing.assert_array_equal(state.s_x, [1.0, 3.0])
        path.write_text("bounds = 0.2,5\ns_e 2\n")
        with pytest.raises(FormatError) as caught:
            load_scaling_state(path)
        assert str(caught.value) == f"{path}:2: expected 'key = value'"


# A file that does not load: (writer, loader, the reason given after its path).
# All but the last hold data that the container refuses; the readers check
# only the file, so an empty or non-finite matrix is the container's to refuse.
NEGATIVE_ENDMEMBERS = np.array([[1.0, 0.5], [-0.25, 0.5]])
HALF_COLUMN = np.array([[0.25, 0.5], [0.25, 0.5]])
BAD_FILES = {
    "endmembers-raw": (
        lambda path: fileio._write_raw(path, fileio._MAGIC_ENDMEMBERS, NEGATIVE_ENDMEMBERS, 0),
        load_endmembers,
        "endmember data must be nonnegative",
    ),
    "endmembers-csv": (
        lambda path: fileio._write_csv(path, NEGATIVE_ENDMEMBERS),
        load_endmembers,
        "endmember data must be nonnegative",
    ),
    "abundances-raw": (
        lambda path: fileio._write_raw(path, fileio._MAGIC_ABUNDANCES, HALF_COLUMN, 1),
        load_abundances,
        "columns that do not sum to one (normalized flag set): 1 (first indices [0])",
    ),
    "abundances-csv": (
        lambda path: fileio._write_csv(path, HALF_COLUMN, (1,)),
        load_abundances,
        "columns that do not sum to one (normalized flag set): 1 (first indices [0])",
    ),
    "image-csv": (
        lambda path: fileio._write_csv(path, np.ones((2, 3)), (2, 2)),
        load_image,
        "width*height = 2*2 does not match pixel count 3",
    ),
    "scalings": (
        lambda path: path.write_text("bounds = 0.2,5\ns_e = 9\ns_x = 1\n"),
        load_scaling_state,
        "endmember scalings violate the box bounds",
    ),
    "endmembers-empty-raw": (
        lambda path: fileio._write_raw(path, fileio._MAGIC_ENDMEMBERS, np.zeros((2, 0)), 0),
        load_endmembers,
        "endmember matrix must have at least one band and one endmember",
    ),
    "endmembers-empty-csv": (
        lambda path: path.write_text("0,3\n"),
        load_endmembers,
        "endmember matrix must have at least one band and one endmember",
    ),
    "image-non-finite-raw": (
        lambda path: fileio._write_raw(path, fileio._MAGIC_IMAGE, np.array([[1.0, np.nan]]), 0),
        load_image,
        "image data contains non-finite values",
    ),
    "endmembers-non-finite-csv": (
        lambda path: path.write_text("1,2\n1.0,inf\n"),
        load_endmembers,
        "endmember data contains non-finite values",
    ),
    "reader-error": (
        lambda path: path.write_text("1,2\n1.0,oops\n"),
        load_endmembers,
        "row 1 contains a non-numeric value",
    ),
}


class TestContainerErrorsNameTheFile:
    @pytest.mark.parametrize("write, load, reason", BAD_FILES.values(), ids=BAD_FILES.keys())
    def test_format_error_names_the_file_once(self, write, load, reason, tmp_path):
        path = tmp_path / "data"
        write(path)
        with pytest.raises(FormatError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: {reason}"

    def test_raw_image_refused_by_its_container(self, tmp_path, monkeypatch):
        # The raw reader already checks all that a stored image can break,
        # so stand in a container that refuses it.
        def refuse(*args, **kwargs):
            raise ValueError("synthetic refusal")

        path = tmp_path / "img.hsi"
        save_image(HsiImage(np.ones((2, 3))), path)
        monkeypatch.setattr(fileio, "HsiImage", refuse)
        with pytest.raises(FormatError, match=r"img\.hsi: synthetic refusal$"):
            load_image(path)


def _state():
    return ScalingState(s_e=np.array([0.5, 2.0]), s_x=np.array([1.0, 3.0]), lower=0.2, upper=5.0)


def _trace():
    trace = SolverTrace(initial_cost=2.0)
    trace.append(IterationRecord(1, 1.0, 1.0, 1.0, 0.5, 0.25, 0.0))
    return trace


# One writer per format: text, raw-f64, CSV, and the trace CSV.
WRITERS = {
    "text": lambda path: save_scaling_state(_state(), path),
    "raw": lambda path: save_image(HsiImage(np.full((3, 4), 0.5)), path),
    "csv": lambda path: save_image(HsiImage(np.full((3, 4), 0.5)), path, fmt="csv"),
    "trace": lambda path: _trace().write_csv(path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
class TestWritesReplaceTheFile:
    """Every writer replaces an existing path with a new file."""

    def expected(self, write, tmp_path):
        fresh = tmp_path / "fresh"
        write(fresh)
        return fresh.read_bytes()

    def test_a_longer_stale_file_leaves_no_tail(self, write, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"stale " * 1000)
        write(path)
        assert path.read_bytes() == self.expected(write, tmp_path)

    def test_a_symlink_is_replaced_and_its_target_kept(self, write, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(b"keep me")
        path = tmp_path / "out"
        path.symlink_to(target)
        write(path)
        assert not path.is_symlink()
        assert path.read_bytes() == self.expected(write, tmp_path)
        assert target.read_bytes() == b"keep me"

    def test_a_hard_link_keeps_the_old_bytes(self, write, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old bytes")
        link = tmp_path / "link"
        os.link(path, link)
        write(path)
        assert path.read_bytes() == self.expected(write, tmp_path)
        assert link.read_bytes() == b"old bytes"


def _mode(call: ast.Call) -> str | None:
    """The mode argument of an ``open`` call: its text, ``"r"`` when
    omitted, or None when it is not a literal. ``path.open(mode)`` takes it
    first, ``open(path, mode)`` and ``os.open(path, flags)`` second."""
    func = call.func
    receiver = getattr(func, "value", None)
    pos = 0 if receiver is not None and getattr(receiver, "id", None) not in ("io", "os") else 1
    given = call.args[pos] if len(call.args) > pos else None
    given = next((kw.value for kw in call.keywords if kw.arg == "mode"), given)
    if given is None:
        return "r"
    return given.value if isinstance(given, ast.Constant) else None


def test_every_write_goes_through_new_file():
    """The package writes files only through ``fileio._new_file``."""
    writes, helper_opens = [], 0
    for path in sorted(Path(twolmm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helpers = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_new_file"
        ]
        inside = {id(n) for h in helpers for n in ast.walk(h)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "open":
                mode = _mode(node)
                if mode is not None and not set(mode) & set("wax+"):
                    continue
                if id(node) in inside and mode in ("x", "xb"):
                    helper_opens += 1
                    continue
            elif name not in ("write_text", "write_bytes", "tofile"):
                continue
            writes.append(f"{path.name}:{node.lineno}: {name}")
    assert writes == []
    assert helper_opens == 2
