"""File formats for images, endmembers, abundances, and scaling factors.

Two interchangeable formats are supported:

raw-f64
    A 16-byte header (4-byte magic ``HSI0``/``EMM0``/``ABN0``, then two
    32-bit little-endian unsigned dimensions giving the payload rows and
    columns, then one 32-bit auxiliary field) followed by rows*columns
    little-endian float64 values in column-major (pixel-major) order. The
    auxiliary field stores the grid width for images (0 = no grid), is 1
    for abundances (which are always on the simplex; the loader ignores
    it), and is zero for endmembers. Round trips are bit-exact.

csv
    A header line ``rows,cols[,width,height]`` followed by ``rows`` lines
    of ``cols`` comma-separated values in full-precision scientific
    notation (``%.16e``, 17 significant digits), which round-trips
    float64 exactly.

The loaders sniff the format from the file; only the savers take ``fmt``.

Configurations, scene manifests and scaling files share one UTF-8
``key = value`` syntax, read by :func:`_read_key_values` and written by
:func:`_write_key_values`.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .core import AbundanceMatrix, EndmemberMatrix, HsiImage, ScalingState

__all__ = [
    "FormatError",
    "load_image",
    "save_image",
    "load_endmembers",
    "save_endmembers",
    "load_abundances",
    "save_abundances",
    "load_scaling_state",
    "save_scaling_state",
]

FORMATS = ("raw-f64", "csv")

_MAGIC_IMAGE = b"HSI0"
_MAGIC_ENDMEMBERS = b"EMM0"
_MAGIC_ABUNDANCES = b"ABN0"
_MAGICS = (_MAGIC_IMAGE, _MAGIC_ENDMEMBERS, _MAGIC_ABUNDANCES)
_HEADER = struct.Struct("<4sIII")


class FormatError(ValueError):
    """Raised when a file does not conform to a supported format, or holds
    data that its container refuses."""


def _new_file(path: str | Path, binary: bool = False):
    """Open ``path`` for writing as a new file, ASCII text unless ``binary``;
    every file the package writes is opened here.

    An existing file at ``path`` is unlinked first, and the new one is
    opened in exclusive-create mode, so the write lands on a fresh inode.
    Truncating a file that holds data and writing it again makes ext4 flush
    it on close (its ``auto_da_alloc`` default): about 55 ms per file,
    against 0.02-0.3 ms for a new file, measured on an ext4 root filesystem.
    Writing a temporary file and renaming it over the old one costs the
    same. So a symlink at ``path`` is replaced rather than followed, a hard
    link keeps the old bytes, the old mode is not kept, and the directory
    must be writable. A crash mid-write leaves a partial file.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    if binary:
        return open(path, "xb")
    return open(path, "x", encoding="ascii")


def _write_raw(path: str | Path, magic: bytes, matrix: np.ndarray, aux: int) -> None:
    rows, cols = matrix.shape
    payload = np.asfortranarray(matrix, dtype="<f8")
    with _new_file(path, binary=True) as fh:
        fh.write(_HEADER.pack(magic, rows, cols, aux))
        # The transpose of the column-major payload is row-major, which
        # the file writes straight from memory.
        fh.write(payload.T)


def _read_raw(path: Path, magic: bytes) -> tuple[np.ndarray, int]:
    """The payload matrix, read straight into a read-only Fortran-ordered
    array that the containers adopt without a copy, and the auxiliary field."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        got_magic, rows, cols, aux = _HEADER.unpack(fh.read(_HEADER.size))
        if got_magic != magic:
            raise FormatError(
                f"{path}: bad magic {got_magic!r}, expected {magic!r}"
            )
        if size != _HEADER.size + rows * cols * 8:
            raise FormatError(
                f"{path}: payload size {size - _HEADER.size} does not match "
                f"{rows}x{cols} float64 matrix"
            )
        matrix = np.empty((rows, cols), dtype="<f8", order="F")
        fh.readinto(matrix.T)
    matrix.flags.writeable = False
    return matrix, aux


def _write_csv(path: str | Path, matrix: np.ndarray, extras: tuple[int, ...] = ()) -> None:
    rows, cols = matrix.shape
    header = ",".join(str(v) for v in (rows, cols) + extras)
    with _new_file(path) as fh:
        fh.write(header + "\n")
        for r in range(rows):
            # 17 significant digits in scientific form round-trips float64.
            fh.write(",".join("%.16e" % v for v in matrix[r]) + "\n")


def _read_text(path: str | Path, encoding: str) -> str:
    try:
        return Path(path).read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file") from exc


def _read_csv(path: Path) -> tuple[np.ndarray, tuple[int, ...]]:
    lines = [ln for ln in _read_text(path, "ascii").splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file")
    try:
        head = tuple(int(tok) for tok in lines[0].split(","))
    except ValueError as exc:
        raise FormatError(f"{path}: malformed header line: {lines[0]!r}") from exc
    if len(head) < 2:
        raise FormatError(f"{path}: header must list at least two dimensions")
    rows, cols = head[0], head[1]
    if rows < 0 or cols < 0:
        raise FormatError(f"{path}: negative dimension in header line: {lines[0]!r}")
    if len(lines) - 1 != rows:
        raise FormatError(
            f"{path}: expected {rows} data rows, found {len(lines) - 1}"
        )
    # Every row's width is checked before the header's shape is allocated,
    # so the allocation is bounded by the file's size.
    for r, line in enumerate(lines[1:], start=1):
        values = line.count(",") + 1
        if values != cols:
            raise FormatError(f"{path}: row {r} has {values} values, expected {cols}")
    matrix = np.empty((rows, cols))
    for r, line in enumerate(lines[1:], start=1):
        try:
            matrix[r - 1] = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise FormatError(f"{path}: row {r} contains a non-numeric value") from exc
    return matrix, head[2:]


def _read_key_values(path: str | Path) -> dict[str, str]:
    """The entries of a UTF-8 ``key = value`` file (a configuration, a scene
    manifest or a scalings file). Blank lines and lines that start with
    ``#`` are skipped, and a later key wins."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path, "utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _write_key_values(path: str | Path, entries: dict[str, object]) -> None:
    """Write ``entries`` in order as ``key = value`` lines, the syntax that
    :func:`_read_key_values` reads."""
    with _new_file(path) as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in entries.items()))


def _contain(path: Path, container, data: np.ndarray, **kwargs):
    """``container(data, **kwargs)`` for the data read from ``path``; a
    ``ValueError`` from the container's checks (an empty or non-finite
    matrix among them) is raised as a :class:`FormatError` that names the
    file."""
    try:
        return container(data, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _sniff(path: Path) -> str:
    """``raw-f64`` for a file that starts with any raw magic (so that
    :func:`_read_raw` names a wrong one) or with a non-ASCII byte."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head in _MAGICS or any(b > 127 for b in head):
        return "raw-f64"
    return "csv"


def _save(
    path: str | Path, fmt: str, magic: bytes, matrix: np.ndarray, extras: tuple[int, ...] = ()
) -> None:
    """Write ``matrix`` in ``fmt``: CSV writes ``extras`` after ``rows,cols``,
    and raw-f64 keeps the first of them (0 when there is none) in its
    header's auxiliary field."""
    if fmt not in FORMATS:
        raise FormatError(f"unsupported format {fmt!r}; expected one of {FORMATS}")
    if fmt == "raw-f64":
        _write_raw(path, magic, matrix, extras[0] if extras else 0)
    else:
        _write_csv(path, matrix, extras)


def _load(path: str | Path, magic: bytes) -> tuple[Path, np.ndarray, tuple[int, ...]]:
    """``path``, the matrix it holds and the header fields after its shape,
    as :func:`_save` wrote them, in the format sniffed from the file. The
    readers check only the file's structure and tokens; what the numbers
    must satisfy, finiteness included, is the container's check
    (:func:`_contain`). A raw image stores only its width, so the height is
    the pixel count over it (0 for the width 0, no grid), and ``HsiImage``
    refuses a width that does not divide the pixel count."""
    path = Path(path)
    if _sniff(path) == "csv":
        return path, *_read_csv(path)
    matrix, aux = _read_raw(path, magic)
    if magic == _MAGIC_IMAGE:
        return path, matrix, (aux, matrix.shape[1] // aux if aux else 0)
    return path, matrix, (aux,)


def save_image(image: HsiImage, path: str | Path, fmt: str = "raw-f64") -> None:
    """Write an image; ``fmt`` is ``"raw-f64"`` or ``"csv"``."""
    _save(path, fmt, _MAGIC_IMAGE, image.data, (image.width, image.height))


def load_image(path: str | Path) -> HsiImage:
    """Read an image; the format is sniffed from the file."""
    path, matrix, extras = _load(path, _MAGIC_IMAGE)
    if len(extras) not in (0, 2):
        raise FormatError(f"{path}: image header must be rows,cols[,width,height]")
    return _contain(path, HsiImage, matrix, **dict(zip(("width", "height"), extras)))


def save_endmembers(em: EndmemberMatrix, path: str | Path, fmt: str = "raw-f64") -> None:
    _save(path, fmt, _MAGIC_ENDMEMBERS, em.data)


def load_endmembers(path: str | Path) -> EndmemberMatrix:
    path, matrix, _ = _load(path, _MAGIC_ENDMEMBERS)
    return _contain(path, EndmemberMatrix, matrix)


def save_abundances(ab: AbundanceMatrix, path: str | Path, fmt: str = "raw-f64") -> None:
    """Write abundances; the field after their shape is the constant 1."""
    _save(path, fmt, _MAGIC_ABUNDANCES, ab.data, (1,))


def load_abundances(path: str | Path) -> AbundanceMatrix:
    """Read abundances, whatever the field after their shape; columns off the
    simplex are a :class:`FormatError` naming the file."""
    path, matrix, _ = _load(path, _MAGIC_ABUNDANCES)
    return _contain(path, AbundanceMatrix, matrix)


def save_scaling_state(state: ScalingState, path: str | Path) -> None:
    """Write scaling factors as a small key-value text file."""
    values = {"bounds": (state.lower, state.upper), "s_e": state.s_e, "s_x": state.s_x}
    _write_key_values(path, {k: ",".join("%.17g" % x for x in v) for k, v in values.items()})


def load_scaling_state(path: str | Path) -> ScalingState:
    entries = _read_key_values(path)
    try:
        lower, upper = (float(v) for v in entries["bounds"].split(","))
        s_e = np.array([float(v) for v in entries["s_e"].split(",")])
        s_x = np.array([float(v) for v in entries["s_x"].split(",")])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: missing or malformed scaling entries") from exc
    return _contain(path, ScalingState, s_e, s_x=s_x, lower=lower, upper=upper)
