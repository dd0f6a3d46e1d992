"""Point-set containers, node generators, and dense pairwise distances.

Everything here is O(N^2) dense on purpose: the interpolation scheme this
feeds is global, so spatial indexing would buy nothing.  Coordinates, values
and bounds are read by the number rule of ``kernels``, counts by :func:`_as_int`.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .kernels import _FILL_BLOCK, _number, _numbers

HALTON_BASES = (2, 3, 5, 7, 11, 13)

# Fixed CSV precision: 17 significant digits round-trip float64 exactly.
FLOAT_FMT = "%.17g"

# CSV tables are written this many rows per format call and write.
_ROWS_PER_BLOCK = 2048


def _as_int(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int, the one count rule: ConfigError if
    ``operator.index`` refuses it (4.0 too) or it is below ``least``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and count < least:
        raise ConfigError(f"{name} must be >= {least}, got {count}")
    return count


def _as_bool(name: str, value) -> bool:
    """``value`` as a Python bool, the one flag rule: ConfigError unless a bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointSet:
    """N points in s-dimensional space, optionally with one value per point."""

    coords: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        coords = _numbers(self.coords, ConfigError, "coords must be numbers, got %s", ndmin=2)
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise ConfigError("coords must be a nonempty N x s matrix")
        if not np.all(np.isfinite(coords)):
            raise ConfigError("coords must be finite")
        object.__setattr__(self, "coords", _freeze(coords))
        if self.values is not None:
            values = _numbers(self.values, ConfigError, "values must be numbers, got %s").ravel()
            if values.shape[0] != coords.shape[0]:
                raise ConfigError(
                    f"got {values.shape[0]} values for {coords.shape[0]} points"
                )
            if not np.all(np.isfinite(values)):
                raise ConfigError("values must be finite")
            object.__setattr__(self, "values", _freeze(values))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def with_values(self, values) -> "PointSet":
        return PointSet(self.coords, values)


class EvaluationGrid(PointSet):
    """A PointSet built by :func:`make_evaluation_grid`, with ``points`` as a
    read-only name for ``coords`` (perfbench's franke-rms reads it)."""

    @property
    def points(self) -> np.ndarray:
        return self.coords


def _as_coords(obj) -> np.ndarray:
    """``obj`` as an N x s float matrix (a vector is one point), or DomainError."""
    if isinstance(obj, PointSet):
        return obj.coords
    # A view of float64 input, not a copy: callers only read coordinates.
    coords = _numbers(obj, DomainError, "coordinates must be numbers, got %s", copy=None, ndmin=2)
    if coords.ndim != 2:
        raise DomainError(f"coordinates must be an N x s matrix, got shape {coords.shape}")
    return coords


def make_tensor_grid(
    points_per_side: int, dim: int, lower: float = 0.0, upper: float = 1.0
) -> PointSet:
    """Equispaced k**s tensor grid on [lower, upper]**s, endpoints included.

    Row-major ordering: the last coordinate varies fastest.
    """
    k, s = _as_int("points_per_side", points_per_side, 2), _as_int("dim", dim, 1)
    message, shown = "lower and upper must be numbers, got %r and %r", (lower, upper)
    lo, hi = _number(lower, ConfigError, message, shown), _number(upper, ConfigError, message, shown)
    if not hi > lo:
        raise ConfigError(f"need upper > lower, got [{lower}, {upper}]")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"[{lower}, {upper}] has no finite width")
    axis = np.linspace(lo, hi, k)
    mesh = np.meshgrid(*([axis] * s), indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    return PointSet(coords)


def make_evaluation_grid(
    points_per_side: int, dim: int = 2, lower: float = 0.0, upper: float = 1.0
) -> EvaluationGrid:
    """Tensor grid as an EvaluationGrid, without values (default use: 40 x 40)."""
    return EvaluationGrid(make_tensor_grid(points_per_side, dim, lower, upper).coords)


def _radical_inverse(index: int, base: int) -> float:
    inv, denom = 0.0, 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        inv += digit / denom
    return inv


def make_halton_set(n: int, dim: int) -> PointSet:
    """First n Halton points (indices 1..n) with prime bases 2, 3, 5, ...

    Deterministic: equal arguments produce bitwise-equal coordinates.
    """
    n, dim = _as_int("n", n, 1), _as_int("dim", dim)
    if not 1 <= dim <= len(HALTON_BASES):
        raise ConfigError(f"dim must lie in [1, {len(HALTON_BASES)}], got {dim}")
    coords = np.empty((n, dim))
    for j, base in enumerate(HALTON_BASES[:dim]):
        coords[:, j] = [_radical_inverse(i, base) for i in range(1, n + 1)]
    return PointSet(coords)


def pairwise_distances(a, b) -> np.ndarray:
    """Dense |a| x |b| matrix of Euclidean distances.

    Computed as sqrt of the squared coordinate differences summed in
    coordinate order, so the self-distance matrix is exactly symmetric with
    an exactly zero diagonal.  The rows are done in blocks of _FILL_BLOCK
    cells (at least one row), as ``kernels._fill`` does: each block's sum
    accumulates one coordinate at a time in the output, so the only
    temporary is one block of scratch.  A distance that is not finite
    (far-apart points overflow) raises DomainError, so every matrix
    returned is finite.
    """
    av, bv = _as_coords(a), _as_coords(b)
    if av.shape[1] != bv.shape[1]:
        raise DomainError(
            f"dimension mismatch: {av.shape[1]} vs {bv.shape[1]} coordinates"
        )
    (m, s), n = av.shape, bv.shape[0]
    out = np.zeros((m, n))
    if s == 0:
        return out
    step = max(1, _FILL_BLOCK // max(1, n))
    tmp = np.empty((min(step, m), n) if s > 1 else 0)
    # An overflow gives inf without a warning; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, step):
            rows = slice(start, start + step)
            block = out[rows]
            scratch = tmp[: block.shape[0]]
            np.subtract.outer(av[rows, 0], bv[:, 0], out=block)
            block *= block
            for j in range(1, s):
                np.subtract.outer(av[rows, j], bv[:, j], out=scratch)
                scratch *= scratch
                block += scratch
            np.sqrt(block, out=block)
            if not np.isfinite(block).all():
                raise DomainError("all distances must be finite")
    return out


def min_separation(points: PointSet) -> float:
    """Minimum off-diagonal pairwise distance; 0 signals duplicates."""
    if points.n < 2:
        raise DomainError("min_separation needs at least 2 points")
    return _min_off_diagonal(pairwise_distances(points, points))


def _min_off_diagonal(d: np.ndarray) -> float:
    """Smallest off-diagonal entry of a square matrix; overwrites its diagonal."""
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def _csv_header(dim: int, with_values: bool) -> list[str]:
    cols = [f"x{j + 1}" for j in range(dim)]
    if with_values:
        cols.append("value")
    return cols


@contextmanager
def _opened(target, mode: str):
    """Yield ``(file, name)``: ``target`` itself if it is a stream, else the
    file it names, opened as CSV text (UTF-8, no newline translation), where
    a byte sequence that is not UTF-8 raises ConfigError naming the file."""
    if hasattr(target, "write" if mode == "w" else "read"):
        yield target, "<stream>"
    else:
        path = Path(target)
        with open(path, mode, encoding="utf-8", newline="") as fh:
            try:
                yield fh, str(path)
            except UnicodeDecodeError:
                raise ConfigError(f"{path}: not UTF-8 text") from None


def _write_table(target, names, *columns) -> None:
    """Write a float table as CSV: the header row, then one row per entry.

    Each column is 1-D or 2-D with one entry per row; a 2-D one is split
    into its 1-D columns.  The header is quoted and CRLF-terminated as
    ``csv.writer`` writes it.  Rows are formatted ``_ROWS_PER_BLOCK`` at a
    time with one ``%`` and one write, so only a block of text is held.
    ``%.17g`` of a float never contains a delimiter, quote or line break,
    and writes a whole number as ``%d`` does, so the rows equal what
    ``csv.writer`` writes for the same 17-digit fields.  A repeating column
    (see :func:`_distinct_text`) is formatted once per distinct value, and
    each block looks its fields up and writes them through ``%s``.
    """
    fields = []
    for column in columns:
        column = np.asarray(column, dtype=np.float64)
        fields.extend(column.T if column.ndim == 2 else [column])
    tables = [_distinct_text(field) for field in fields]
    template = ",".join(FLOAT_FMT if table is None else "%s" for table in tables) + "\r\n"
    n = len(columns[0])
    with _opened(target, "w") as (fh, _):
        csv.writer(fh).writerow(names)
        for start in range(0, n, _ROWS_PER_BLOCK):
            rows = slice(start, start + _ROWS_PER_BLOCK)
            block = np.empty((min(_ROWS_PER_BLOCK, n - start), len(fields)), dtype=object)
            for j, (field, table) in enumerate(zip(fields, tables)):
                if table is None:
                    block[:, j] = field[rows]
                else:
                    keys, text = table
                    block[:, j] = text[np.searchsorted(keys, field[rows].view(np.int64))]
            fh.write((template * block.shape[0]) % tuple(block.ravel().tolist()))


def _distinct_text(field: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(keys, text)`` for a repeating column: its sorted distinct float64
    bit patterns and their ``%.17g`` strings; None for another column.

    A column repeats when its first block holds at most half as many
    distinct bit patterns as rows (a grid's coordinates, say).  Patterns,
    not values, are compared, so -0.0 and 0.0 and NaNs of two payloads stay
    apart.  Building the table holds one sorted copy of the column.
    """
    bits = field.view(np.int64)
    head = bits[:_ROWS_PER_BLOCK]
    if head.size == 0 or 2 * np.unique(head).size > head.size:
        return None
    keys = np.unique(bits)
    return keys, np.array([FLOAT_FMT % v for v in keys.view(np.float64).tolist()], dtype=object)


def _header_row(fh) -> tuple[list[str] | None, int]:
    """The first CSV record of ``fh`` (None for an empty file) and its line
    count, read through ``readline``: ``fh`` is left just past it with
    ``tell`` still working, which iterating a text file would turn off."""
    reader = csv.reader(iter(fh.readline, ""))
    return next(reader, None), reader.line_num


def _float_table(fh, name: str, width: int, header_lines: int) -> np.ndarray:
    """The rows of ``fh`` below a header of ``header_lines`` lines, from
    where it stands, as a (rows, width) float table.

    numpy's C tokenizer parses them first.  It converts each field with
    ``PyOS_string_to_double``, the routine ``float`` uses, and accepts a
    subset of what ``float`` and ``csv.reader`` accept (no ``_``, no
    non-ASCII digit, no whitespace-only line), so a table it returns at the
    header's width equals the csv path's bit for bit.  When numpy raises,
    returns another width, or the stream cannot seek, :func:`_float_rows`
    parses the rows again from where they begin, so every error is its own.
    """
    try:
        start = fh.tell() if fh.seekable() else None
    except OSError:  # a text file the caller iterated refuses tell()
        start = None
    if start is not None:
        try:
            with warnings.catch_warnings():
                # A header-only table is a table, not a fault.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape[1] == width:
                return table
        fh.seek(start)
    return _float_rows(csv.reader(fh), name, width, header_lines)


def _float_rows(reader, name: str, width: int, header_lines: int) -> np.ndarray:
    """The remaining rows of a ``csv.reader`` as a (rows, width) float table.

    Blank and whitespace-only lines are skipped.  A row with another field
    count, or a field ``float`` rejects, raises ConfigError with the 1-based
    physical line it ends on, counted from the header's first line: a quoted
    field may hold a line break.  Rows stream into one flat array, so no
    per-row Python list outlives its line.
    """
    last = [0, None]  # line number and fields of the last row handed out

    def rows():
        for row in reader:
            lineno = header_lines + reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != width:
                raise ConfigError(f"{name}:{lineno}: expected {width} fields, got {len(row)}")
            last[:] = lineno, row
            yield row

    try:
        flat = np.fromiter(map(float, itertools.chain.from_iterable(rows())), float)
    except UnicodeDecodeError:
        raise  # the file's fault, not a field's: its opener names the file
    except ValueError:
        raise ConfigError(f"{name}:{last[0]}: non-numeric field in {last[1]!r}") from None
    return flat.reshape(-1, width)


def write_points_csv(target, points: PointSet) -> None:
    """Write a PointSet as CSV: header ``x1,...,xs[,value]``, one row per point."""
    columns = (points.coords,) if points.values is None else (points.coords, points.values)
    _write_table(target, _csv_header(points.dim, points.values is not None), *columns)


def read_points_table(source) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a points CSV into (coords, values-or-None); may be empty.

    The header fixes the arity.  Blank and whitespace-only lines are
    skipped; a row with a different field count, or a field ``float``
    refuses, is rejected with its 1-based line number.
    """
    with _opened(source, "r") as (fh, name):
        return _read_table(fh, name)


def _read_table(fh, name: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Check the ``x1,...,xs[,value]`` header, then read the rows with
    :func:`_float_table`.  Without a value column its table is returned
    as it is; with one, it is split into contiguous coords and values."""
    header, header_lines = _header_row(fh)
    if header is None:
        raise ConfigError(f"{name}: empty file, expected a header line")
    header = [h.strip() for h in header]
    with_values = bool(header) and header[-1] == "value"
    dim = len(header) - (1 if with_values else 0)
    if dim < 1 or header[:dim] != _csv_header(dim, False):
        raise ConfigError(
            f"{name}:1: header must be x1,...,xs[,value], got {','.join(header)!r}"
        )
    table = _float_table(fh, name, len(header), header_lines)
    if not with_values:
        return table, None
    return np.ascontiguousarray(table[:, :dim]), table[:, dim].copy()


def read_points_csv(source) -> PointSet:
    """Read a nonempty PointSet from CSV (see :func:`write_points_csv`)."""
    with _opened(source, "r") as (fh, name):
        coords, values = _read_table(fh, name)
    if coords.shape[0] == 0:
        raise ConfigError(f"{name}: no data rows")
    return PointSet(coords, values)


def points_to_csv_text(points: PointSet) -> str:
    buf = io.StringIO()
    write_points_csv(buf, points)
    return buf.getvalue()
