import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybridrbf import (
    ConfigError,
    DomainError,
    PointSet,
    make_halton_set,
    make_tensor_grid,
    min_separation,
    pairwise_distances,
    read_points_csv,
    write_points_csv,
)
from hybridrbf.geometry import read_points_table


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


def test_pointset_validation():
    with pytest.raises(ConfigError):
        PointSet([[0.0, np.inf]])
    with pytest.raises(ConfigError):
        PointSet([[0.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ConfigError):
        PointSet([[0.0]], [np.nan])


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
