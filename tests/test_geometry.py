import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybridrbf import (
    ConfigError,
    DomainError,
    PointSet,
    make_evaluation_grid,
    make_halton_set,
    make_tensor_grid,
    min_separation,
    pairwise_distances,
    read_points_csv,
    write_points_csv,
)
from hybridrbf import geometry
from hybridrbf.geometry import (
    _ROWS_PER_BLOCK,
    FLOAT_FMT,
    _csv_header,
    _float_table,
    _read_table,
    points_to_csv_text,
    read_points_table,
)


def test_tensor_grid_corners():
    pts = make_tensor_grid(2, 2)
    assert sorted(map(tuple, pts.coords.tolist())) == [
        (0.0, 0.0),
        (0.0, 1.0),
        (1.0, 0.0),
        (1.0, 1.0),
    ]


def test_tensor_grid_ordering_last_coordinate_fastest():
    pts = make_tensor_grid(2, 2)
    assert pts.coords.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]


def test_tensor_grid_five_by_five():
    pts = make_tensor_grid(5, 2)
    assert pts.n == 25
    assert min_separation(pts) == pytest.approx(0.25, abs=1e-12)


def test_tensor_grid_one_dimensional():
    pts = make_tensor_grid(3, 1)
    assert pts.coords.ravel().tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("k,s", [(2, 1), (3, 2), (4, 2), (2, 3)])
def test_tensor_grid_count_and_spacing(k, s):
    pts = make_tensor_grid(k, s, lower=-1.0, upper=3.0)
    assert pts.n == k**s
    assert min_separation(pts) == pytest.approx(4.0 / (k - 1), abs=1e-12)


def test_tensor_grid_rejects_small_k():
    with pytest.raises(ConfigError):
        make_tensor_grid(1, 2)
    # counts are checked, not truncated; numpy integers count as integers
    for make, args, message in (
        (make_tensor_grid, (2.7, 2), "points_per_side must be an integer, got 2.7"),
        (make_tensor_grid, (3, 2.0), "dim must be an integer, got 2.0"),
        (make_evaluation_grid, (2.7,), "points_per_side must be an integer, got 2.7"),
        (make_evaluation_grid, ("40",), "points_per_side must be an integer, got '40'"),
    ):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            make(*args)
    assert np.array_equal(make_tensor_grid(np.int64(3), np.int32(2)).coords,
                          make_tensor_grid(3, 2).coords)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, 0), "dim must be >= 1, got 0"),
        ((3, 2, 1.0, 1.0), r"need upper > lower, got \[1.0, 1.0\]"),
        ((3, 2, 2.0, -1.0), r"need upper > lower, got \[2.0, -1.0\]"),
    ],
)
def test_tensor_grid_rejects_no_dimension_and_an_empty_box(args, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        make_tensor_grid(*args)


def test_evaluation_grid_points_are_its_coords():
    """perfbench's franke-rms workload reads ``make_evaluation_grid(k).points``;
    the name must stay the grid's coordinates, bit for bit, until it reads
    ``.coords``."""
    grid = make_evaluation_grid(7, dim=3, lower=-1.0, upper=2.0)
    assert isinstance(grid, PointSet) and grid.values is None
    assert grid.points is grid.coords
    assert grid.coords.tobytes() == make_tensor_grid(7, 3, -1.0, 2.0).coords.tobytes()


def test_halton_oracle_values():
    assert make_halton_set(1, 1).coords.tolist() == [[0.5]]
    assert make_halton_set(3, 1).coords.ravel().tolist() == [0.5, 0.25, 0.75]
    two_d = make_halton_set(2, 2).coords
    assert two_d[0].tolist() == [0.5, pytest.approx(1 / 3, abs=1e-16)]
    assert two_d[1].tolist() == [0.25, pytest.approx(2 / 3, abs=1e-16)]


def test_halton_deterministic_bitwise():
    a = make_halton_set(200, 3).coords
    b = make_halton_set(200, 3).coords
    assert np.array_equal(a, b)


def test_halton_rejects_high_dim():
    with pytest.raises(ConfigError):
        make_halton_set(10, 7)
    with pytest.raises(ConfigError):
        make_halton_set(0, 2)
    with pytest.raises(ConfigError, match="^n must be an integer, got 10.5$"):
        make_halton_set(10.5, 2)
    with pytest.raises(ConfigError, match="^dim must be an integer, got 2.0$"):
        make_halton_set(10, 2.0)
    assert np.array_equal(make_halton_set(np.int64(10), np.int64(2)).coords,
                          make_halton_set(10, 2).coords)


def test_pairwise_three_four_five():
    pts = PointSet([[0.0, 0.0], [3.0, 4.0]])
    assert pairwise_distances(pts, pts).tolist() == [[0.0, 5.0], [5.0, 0.0]]


def test_pairwise_single_point():
    pts = PointSet([[1.0, 1.0]])
    assert pairwise_distances(pts, pts).tolist() == [[0.0]]


def test_pairwise_one_dimensional_line():
    pts = PointSet([[0.0], [1.0], [2.0]])
    expected = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    assert pairwise_distances(pts, pts).tolist() == expected


def test_pairwise_dimension_mismatch():
    with pytest.raises(DomainError):
        pairwise_distances(PointSet([[0.0, 0.0]]), PointSet([[0.0]]))


def test_pairwise_self_matrix_exactly_symmetric():
    rng = np.random.default_rng(5)
    pts = PointSet(rng.uniform(-2, 2, (60, 3)))
    d = pairwise_distances(pts, pts)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def broadcast_distances(a, b):
    """Slow oracle: the N x M x s broadcast that pairwise_distances replaced."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_pairwise_bit_equal_to_broadcast_oracle(s):
    rng = np.random.default_rng(100 + s)
    a = rng.uniform(-3.0, 5.0, (41, s))
    b = rng.normal(size=(17, s)) * 10.0 ** rng.integers(-3, 4, size=(17, 1))
    for x, y in ((a, a), (a, b), (b, a)):
        assert np.array_equal(pairwise_distances(x, y), broadcast_distances(x, y))
    d = pairwise_distances(a, a)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_pairwise_bit_equal_to_broadcast_oracle_on_node_sets():
    halton = make_halton_set(300, 2).coords
    grid = make_tensor_grid(12, 2).coords
    for x, y in ((halton, halton), (grid, grid), (grid, halton)):
        assert np.array_equal(pairwise_distances(x, y), broadcast_distances(x, y))


_coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def point_pairs(draw):
    s = draw(st.integers(1, 6))
    a = draw(arrays(float, (draw(st.integers(1, 12)), s), elements=_coords))
    b = draw(arrays(float, (draw(st.integers(1, 12)), s), elements=_coords))
    return a, b


@settings(max_examples=200, deadline=None)
@given(point_pairs())
def test_pairwise_property_oracle_symmetry_zero_diagonal(pair):
    a, b = pair
    assert np.array_equal(pairwise_distances(a, b), broadcast_distances(a, b))
    d = pairwise_distances(a, a)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(17)
    pts = PointSet(rng.uniform(0, 1, (30, 2)))
    d = pairwise_distances(pts, pts)
    idx = rng.integers(0, 30, size=(200, 3))
    for i, j, k in idx:
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_min_separation_simple():
    assert min_separation(PointSet([[0.0, 0.0], [1.0, 0.0]])) == 1.0


def test_min_separation_duplicates():
    assert min_separation(PointSet([[0.0, 0.0], [0.0, 0.0]])) == 0.0


def test_min_separation_needs_two_points():
    with pytest.raises(DomainError):
        min_separation(PointSet([[0.0, 0.0]]))


def test_distances_that_are_not_finite_raise_without_a_warning(recwarn):
    """Points 1e200 apart square past the float range, and infinite raw
    coordinates give inf - inf: one DomainError, no RuntimeWarning."""
    far = PointSet([[0.0, 0.0], [1e200, 0.0], [0.0, 1.0]])
    for call in (
        lambda: pairwise_distances(far, far),
        lambda: pairwise_distances([[0.5, 0.5]], far),
        lambda: min_separation(far),
        lambda: pairwise_distances([[np.inf, 0.0]], [[np.inf, 1.0], [0.0, 0.0]]),
    ):
        with pytest.raises(DomainError, match="^all distances must be finite$"):
            call()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_pointset_validation():
    for coords in (np.empty((0, 2)), np.empty((3, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ConfigError, match="^coords must be a nonempty N x s matrix$"):
            PointSet(coords)
    with pytest.raises(ConfigError):
        PointSet([[0.0, np.inf]])
    with pytest.raises(ConfigError):
        PointSet([[0.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ConfigError):
        PointSet([[0.0]], [np.nan])


@pytest.mark.parametrize(
    "coords, values, message",
    [
        ("abc", None, "coords must be numbers, got 'abc'"),
        ([[0.0, "x"]], None, "coords must be numbers, got [[0.0, 'x']]"),
        ([[0.0, 1.0]], ["x"], "values must be numbers, got ['x']"),
    ],
)
def test_a_pointset_of_no_numbers_is_a_config_error(coords, values, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        PointSet(coords, values)


def test_csv_round_trip_with_values(tmp_path):
    rng = np.random.default_rng(23)
    pts = PointSet(rng.uniform(0, 1, (15, 2)), rng.normal(size=15))
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    again = read_points_csv(path)
    assert np.array_equal(again.coords, pts.coords)
    assert np.array_equal(again.values, pts.values)


def test_csv_round_trip_without_values(tmp_path):
    pts = make_tensor_grid(3, 2)
    path = tmp_path / "grid.csv"
    write_points_csv(path, pts)
    again = read_points_csv(path)
    assert again.values is None
    assert np.array_equal(again.coords, pts.coords)


def test_csv_rejects_inconsistent_arity(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,value\n0,0,1\n0,1\n")
    with pytest.raises(ConfigError, match=":3"):
        read_points_csv(path)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,0\n")
    with pytest.raises(ConfigError, match="header"):
        read_points_csv(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,value\n0,one\n")
    with pytest.raises(ConfigError, match=":2"):
        read_points_csv(path)


def test_csv_empty_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x1,x2\n")
    coords, values = read_points_table(path)
    assert coords.shape == (0, 2) and values is None
    with pytest.raises(ConfigError, match="no data rows"):
        read_points_csv(path)
    with pytest.raises(ConfigError, match="^<stream>: no data rows$"):
        read_points_csv(io.StringIO("x1,x2\n"))


# --- CSV I/O against the row-at-a-time implementations it replaced ----------


def _write_points_oracle(fh, points):
    """The csv.writer loop the blocked writer replaced: one row per point."""
    writer = csv.writer(fh)
    writer.writerow(_csv_header(points.dim, points.values is not None))
    for i in range(points.n):
        row = [FLOAT_FMT % c for c in points.coords[i]]
        if points.values is not None:
            row.append(FLOAT_FMT % points.values[i])
        writer.writerow(row)


def _read_table_oracle(fh, name):
    """The list-per-row reader the streaming reader replaced."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{name}: empty file, expected a header line") from None
    header = [h.strip() for h in header]
    with_values = bool(header) and header[-1] == "value"
    dim = len(header) - (1 if with_values else 0)
    if dim < 1 or header[:dim] != _csv_header(dim, False):
        raise ConfigError(
            f"{name}:1: header must be x1,...,xs[,value], got {','.join(header)!r}"
        )
    coords_rows, values_rows = [], []
    for row in reader:
        lineno = reader.line_num  # the physical line the row ends on
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ConfigError(
                f"{name}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            nums = [float(c) for c in row]
        except ValueError:
            raise ConfigError(f"{name}:{lineno}: non-numeric field in {row!r}") from None
        coords_rows.append(nums[:dim])
        if with_values:
            values_rows.append(nums[dim])
    coords = np.array(coords_rows, dtype=float).reshape(len(coords_rows), dim)
    values = np.array(values_rows, dtype=float) if with_values else None
    return coords, values


def _oracle_text(points):
    buf = io.StringIO(newline="")
    _write_points_oracle(buf, points)
    return buf.getvalue()


def _bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


def _assert_bit_equal(got, want):
    assert _bits(got) == _bits(want)
    if got is not None:
        assert got.flags.c_contiguous


@pytest.mark.parametrize("with_values", [False, True])
@pytest.mark.parametrize(
    "n", [1, _ROWS_PER_BLOCK - 1, _ROWS_PER_BLOCK, _ROWS_PER_BLOCK + 1, 3 * _ROWS_PER_BLOCK + 17]
)
def test_csv_writer_bytes_equal_row_writer_oracle(tmp_path, n, with_values):
    rng = np.random.default_rng(n)
    coords = rng.normal(scale=1e3, size=(n, 3)) ** 3
    pts = PointSet(coords, rng.normal(size=n) if with_values else None)
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    assert path.read_bytes() == _oracle_text(pts).encode("utf-8")
    assert points_to_csv_text(pts) == _oracle_text(pts)
    again = read_points_csv(path)
    _assert_bit_equal(again.coords, pts.coords)
    _assert_bit_equal(again.values, pts.values)


def test_csv_writer_golden_bytes(tmp_path):
    pts = PointSet([[0.1, -0.0], [1e-300, 2.5]], [1.0 / 3.0, -7.0])
    path = tmp_path / "golden.csv"
    write_points_csv(path, pts)
    assert path.read_bytes() == (
        b"x1,x2,value\r\n"
        b"0.10000000000000001,-0,0.33333333333333331\r\n"
        b"1e-300,2.5,-7\r\n"
    )


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def _point_sets(draw):
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 6))
    coords = draw(arrays(np.float64, (n, dim), elements=_finite))
    values = draw(st.none() | arrays(np.float64, (n,), elements=_finite))
    return PointSet(coords, values)


@settings(max_examples=150, deadline=None)
@given(_point_sets())
def test_csv_property_bytes_and_bit_exact_round_trip(pts):
    text = points_to_csv_text(pts)
    assert text == _oracle_text(pts)
    again = read_points_csv(io.StringIO(text, newline=""))
    _assert_bit_equal(again.coords, pts.coords)
    _assert_bit_equal(again.values, pts.values)


def _table_oracle(names, columns) -> str:
    """``csv.writer`` rows of ``%.17g`` fields, one row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(names)
    flat = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    writer.writerows([FLOAT_FMT % v for v in row] for row in flat.tolist())
    return buf.getvalue()


# Values a drawn column takes its repeats from: both zeros, NaNs of three
# bit patterns, both infinities, subnormals and 17-digit edge cases.
_NAN_PAYLOAD = float(np.array(0x7FF8000000000001).view(np.float64))
_SPECIAL = (0.0, -0.0, np.nan, -np.nan, _NAN_PAYLOAD, np.inf, -np.inf, 5e-324, -2.5e-310,
            1e16, 1e17, 1.0 / 3.0)


_TABLE_ROWS = st.sampled_from(
    (0, 1, _ROWS_PER_BLOCK - 1, _ROWS_PER_BLOCK, _ROWS_PER_BLOCK + 1, 2 * _ROWS_PER_BLOCK + 1)
)
# (kind, width): width 0 is a 1-D column; "repeating-head" repeats for one
# block, then takes new values.
_TABLE_COLUMNS = st.lists(
    st.tuples(st.sampled_from(("repeating", "distinct", "repeating-head")), st.integers(0, 2)),
    min_size=1,
    max_size=3,
)


@st.composite
def _tables(draw):
    """Tables that mix repeating and distinct 1-D and 2-D columns, at row
    counts about the writer's block."""
    n = draw(_TABLE_ROWS)
    palette = np.array(draw(st.lists(st.sampled_from(_SPECIAL) | st.floats(), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind, width in draw(_TABLE_COLUMNS):
        shape = (n, width) if width else (n,)
        column = rng.normal(scale=1e3, size=shape) ** 3
        column.reshape(n, width or 1)[: palette.size, 0] = palette[:n]
        repeats = rng.choice(palette, size=shape)
        if kind == "repeating":
            column = repeats
        elif kind == "repeating-head":
            column[:_ROWS_PER_BLOCK] = repeats[:_ROWS_PER_BLOCK]
        columns.append(column)
    return columns


@settings(max_examples=40, deadline=None)
@given(_tables())
@example([np.tile([0.0, -0.0, np.nan, np.inf], _ROWS_PER_BLOCK // 2)])
def test_table_writer_bytes_equal_the_row_writer_oracle(columns):
    names = [f"c{j}" for j in range(sum(c.shape[1] if c.ndim == 2 else 1 for c in columns))]
    buf = io.StringIO(newline="")
    geometry._write_table(buf, names, *columns)
    # rows, not the whole text: pytest's diff of two long strings takes minutes
    assert buf.getvalue().split("\r\n") == _table_oracle(names, columns).split("\r\n")


def test_a_column_repeats_when_its_first_block_holds_at_most_half_as_many_values():
    grid = make_tensor_grid(60, 2).coords
    assert all(geometry._distinct_text(column) is not None for column in grid.T)
    assert geometry._distinct_text(np.random.default_rng(3).uniform(size=3000)) is None
    half = np.repeat(np.arange(1024.0), 2)
    assert geometry._distinct_text(half) is not None
    assert geometry._distinct_text(np.concatenate([half[:-2], [5000.0, 5001.0]])) is None
    keys, text = geometry._distinct_text(np.tile([0.0, -0.0, np.nan, _NAN_PAYLOAD], 4))
    assert keys.size == 4 and sorted(text) == ["-0", "0", "nan", "nan"]


_READER_INPUTS = {
    "blank lines LF": "x1,x2,value\n\n0,1,2\n\n \n3,4,5\n\n",
    "blank lines CRLF": "x1,x2,value\r\n\r\n0,1,2\r\n\r\n3,4,5\r\n\r\n",
    "one column with blanks": "x1\n1\n\n  \n2\n",
    "short row": "x1,x2,value\n0,1,2\n3,4\n",
    "trailing comma": "x1,x2\n0,1,\n",
    "non-numeric after good rows": "x1,x2,value\n0,1,2\n3,4,5\n6,seven,8\n9,10,11\n",
    "non-numeric first field": "x1,x2\nabc,1\n",
    "quoted numbers": 'x1,x2,value\n"0.5","1e-3",2\n',
    "padded numbers": "x1 , x2,value \n 0.5 ,\t1e-3 ,  2\n",
    "header only": "x1,x2,value\n",
    "header only no values": "x1,x2\n",
    "empty file": "",
    "bad header": "a,b\n0,0\n",
    "header out of order": "x2,x1\n0,0\n",
    "value only": "value\n1\n",
    "overflow": "x1,value\n1e400,-1e400\n",
    "whitespace-only line in one column": "x1\r\n1\r\n \t \r\n2\r\n",
    "underscore in a number": "x1,x2\n1_0,2\n",
    "non-ASCII digit": "x1\n\u0661\n",
    "digit after a closing quote": 'x1,value\n"1"2,3\n',
    "every row one field short": "x1,x2,value\n0,1\n2,3\n",
    "CR line ends": "x1,value\r0,1\r\r2,3\r",
    "bad row after many rows": "x1,value\n" + "0.5,1e-3\n" * 60_000 + "2,x\n",
    "header spanning two lines": '"x1\n",value\n1,2\n3,x\n',
    "row spanning two lines": 'x1,value\n"1\n",2\n3,x\n',
}


def _outcome(reader, fh):
    try:
        return reader(fh, "in.csv"), None
    except ConfigError as exc:
        return None, str(exc)


def _assert_same_outcome(got, want):
    assert got[1] == want[1]
    if want[1] is None:
        _assert_bit_equal(got[0][0], want[0][0])
        _assert_bit_equal(got[0][1], want[0][1])


def _assert_reader_matches_oracle(text):
    _assert_same_outcome(
        _outcome(_read_table, io.StringIO(text, newline="")),
        _outcome(_read_table_oracle, io.StringIO(text, newline="")),
    )


@pytest.mark.parametrize("text", _READER_INPUTS.values(), ids=_READER_INPUTS.keys())
def test_csv_reader_matches_list_reader_oracle(text):
    _assert_reader_matches_oracle(text)


@pytest.mark.parametrize("key", ["header spanning two lines", "row spanning two lines"])
def test_csv_errors_name_the_physical_line_of_the_row(key):
    # "3,x" is on line 4 though it is the third record
    with pytest.raises(ConfigError, match=r"^in\.csv:4: non-numeric field in \['3', 'x'\]$"):
        _read_table(io.StringIO(_READER_INPUTS[key], newline=""), "in.csv")


# Pieces of fields that float(), csv.reader and numpy's tokenizer may treat
# differently: signs, exponents, quotes, padding, "_", non-ASCII digits.
_FIELD_PIECES = st.sampled_from(
    ["0", "1", "25", ".", "-", "+", "e", "E-3", "e400", "inf", "nan", '"', '""',
     " ", "\t", "_", "\u0661", "\u00a0", "x"]
)
_PADDING = st.sampled_from(["", " ", "\t", '"', '""', "\u00a0"])
_NUMBERS = st.one_of(
    _finite.map(repr), st.tuples(_PADDING, _finite.map(repr), _PADDING).map("".join)
)
_FIELDS = st.one_of(_NUMBERS, st.lists(_FIELD_PIECES, max_size=4).map("".join))
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _table_texts(draw):
    # Half the tables hold only numbers, so that numpy accepts many of them.
    header = _csv_header(draw(st.integers(1, 3)), draw(st.booleans()))
    awkward = draw(st.booleans())
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "] if awkward else [""])))
        else:
            count = len(header) + (draw(st.sampled_from([0, 0, -1, 1])) if awkward else 0)
            fields = st.lists(_FIELDS if awkward else _NUMBERS, min_size=count, max_size=count)
            lines.append(",".join(draw(fields)))
    ends = draw(st.lists(_LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, deadline=None)
@given(_table_texts())
def test_csv_reader_property_matches_list_reader_oracle(text):
    _assert_reader_matches_oracle(text)


class _Unseekable(io.BytesIO):
    def seekable(self):
        return False


@pytest.mark.parametrize(
    "key",
    ["blank lines CRLF", "short row", "quoted numbers", "whitespace-only line in one column",
     "bad row after many rows"],
)
def test_csv_reader_on_files_and_unseekable_streams_matches_oracle(tmp_path, key):
    # A preamble line is skipped before the table: by readline, or by next(),
    # after which a text file refuses tell().
    text = _READER_INPUTS[key]
    data = ("# preamble\n" + text).encode("utf-8")
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    want = _outcome(_read_table_oracle, io.StringIO(text, newline=""))
    readline = io.TextIOWrapper.readline
    for opened, skip in (
        (open(path, encoding="utf-8", newline=""), readline),
        (open(path, encoding="utf-8", newline=""), next),
        (io.TextIOWrapper(_Unseekable(data), encoding="utf-8", newline=""), readline),
    ):
        with opened as fh:
            skip(fh)
            _assert_same_outcome(_outcome(_read_table, fh), want)


def test_csv_reader_without_values_returns_the_table(monkeypatch):
    # Without a value column the parsed table is handed out, not copied,
    # whether numpy parsed it or the csv path did (the whitespace-only line).
    parsed = []

    def recorded(*args):
        parsed.append(_float_table(*args))
        return parsed[-1]

    monkeypatch.setattr(geometry, "_float_table", recorded)
    for text in ("x1,x2\n0,1\n2,3\n", "x1,x2\n0,1\n \n2,3\n"):
        coords, values = read_points_table(io.StringIO(text))
        assert values is None and coords is parsed[-1]
        assert coords.flags.c_contiguous
        assert coords.tolist() == [[0.0, 1.0], [2.0, 3.0]]


def test_csv_io_memory_stays_near_one_table(tmp_path):
    n = 200_000
    rng = np.random.default_rng(5)
    pts = PointSet(rng.uniform(size=(n, 2)), rng.normal(size=n))
    table_bytes = n * 3 * 8  # 4.8 MB
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_points_csv(path, pts)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        coords, values = read_points_table(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert write_peak < 1_000_000
    assert read_peak < 3 * table_bytes
    assert np.array_equal(coords, pts.coords) and np.array_equal(values, pts.values)
