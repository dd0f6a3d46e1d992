"""Point-set containers, node generators, and dense pairwise distances.

Everything here is O(N^2) dense on purpose: the interpolation scheme this
feeds is global, so spatial indexing would buy nothing.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError

HALTON_BASES = (2, 3, 5, 7, 11, 13)

# Fixed CSV precision: 17 significant digits round-trip float64 exactly.
FLOAT_FMT = "%.17g"

# CSV tables are written this many rows per format call and write.
_ROWS_PER_BLOCK = 2048


def _as_int(name: str, value) -> int:
    """``value`` as a Python int; ConfigError if ``operator.index`` refuses it (4.0 too)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointSet:
    """N points in s-dimensional space, optionally with one value per point."""

    coords: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float, ndmin=2)
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise ConfigError("coords must be a nonempty N x s matrix")
        if not np.all(np.isfinite(coords)):
            raise ConfigError("coords must be finite")
        object.__setattr__(self, "coords", _freeze(coords))
        if self.values is not None:
            values = np.array(self.values, dtype=float).ravel()
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
    if isinstance(obj, PointSet):
        return obj.coords
    # A view of float64 input, not a copy: callers only read coordinates.
    return np.atleast_2d(np.asarray(obj, dtype=float))


def make_tensor_grid(
    points_per_side: int, dim: int, lower: float = 0.0, upper: float = 1.0
) -> PointSet:
    """Equispaced k**s tensor grid on [lower, upper]**s, endpoints included.

    Row-major ordering: the last coordinate varies fastest.
    """
    k, s = _as_int("points_per_side", points_per_side), _as_int("dim", dim)
    if k < 2:
        raise ConfigError(f"points_per_side must be >= 2, got {points_per_side}")
    if s < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if not upper > lower:
        raise ConfigError(f"need upper > lower, got [{lower}, {upper}]")
    axis = np.linspace(lower, upper, k)
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
    n, dim = _as_int("n", n), _as_int("dim", dim)
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
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
    an exactly zero diagonal.  The sum accumulates one coordinate at a time
    in the output buffer, so the only temporary is one |a| x |b| scratch
    buffer.  A distance that is not finite (far-apart points overflow)
    raises DomainError, so every matrix returned is finite.
    """
    av, bv = _as_coords(a), _as_coords(b)
    if av.shape[1] != bv.shape[1]:
        raise DomainError(
            f"dimension mismatch: {av.shape[1]} vs {bv.shape[1]} coordinates"
        )
    s = av.shape[1]
    out = np.zeros((av.shape[0], bv.shape[0]))
    if s == 0:
        return out
    # An overflow gives inf without a warning; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract.outer(av[:, 0], bv[:, 0], out=out)
        out *= out
        tmp = np.empty_like(out) if s > 1 else None
        for j in range(1, s):
            np.subtract.outer(av[:, j], bv[:, j], out=tmp)
            tmp *= tmp
            out += tmp
    np.sqrt(out, out=out)
    if not np.all(np.isfinite(out)):
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

    Each column is 1-D or 2-D with one entry per row.  The header is quoted
    and CRLF-terminated as ``csv.writer`` writes it.  Rows are formatted
    ``_ROWS_PER_BLOCK`` at a time with one ``%`` and one write, so only a
    block is ever stacked.  ``%.17g`` of a float never contains a delimiter,
    quote or line break, and writes a whole number as ``%d`` does, so the
    rows equal what ``csv.writer`` writes for the same 17-digit fields.
    """
    with _opened(target, "w") as (fh, _):
        csv.writer(fh).writerow(names)
        for start in range(0, len(columns[0]), _ROWS_PER_BLOCK):
            block = np.column_stack([c[start : start + _ROWS_PER_BLOCK] for c in columns])
            template = ",".join([FLOAT_FMT] * block.shape[1]) + "\r\n"
            fh.write((template * block.shape[0]) % tuple(block.ravel().tolist()))


def _header_row(fh) -> list[str] | None:
    """The first CSV record of ``fh`` (None for an empty file), read through
    ``readline``: ``fh`` is left just past it with ``tell`` still working,
    which iterating a text file would turn off."""
    return next(csv.reader(iter(fh.readline, "")), None)


def _float_table(fh, name: str, width: int) -> np.ndarray:
    """The rows of ``fh`` from where it stands as a (rows, width) float table.

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
    return _float_rows(csv.reader(fh), name, width)


def _float_rows(reader, name: str, width: int) -> np.ndarray:
    """The remaining rows of a ``csv.reader`` as a (rows, width) float table.

    Blank and whitespace-only lines are skipped.  A row with another field
    count, or a field ``float`` rejects, raises ConfigError with its 1-based
    line number (the header is line 1).  Rows stream into one flat array, so
    no per-row Python list outlives its line.
    """
    last = [0, None]  # line number and fields of the last row handed out

    def rows():
        for lineno, row in enumerate(reader, start=2):
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
    header = _header_row(fh)
    if header is None:
        raise ConfigError(f"{name}: empty file, expected a header line")
    header = [h.strip() for h in header]
    with_values = bool(header) and header[-1] == "value"
    dim = len(header) - (1 if with_values else 0)
    if dim < 1 or header[:dim] != _csv_header(dim, False):
        raise ConfigError(
            f"{name}:1: header must be x1,...,xs[,value], got {','.join(header)!r}"
        )
    table = _float_table(fh, name, len(header))
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
