import numpy as np
import pytest

from hybridrbf import (
    AssembledSystem,
    ConfigError,
    DegenerateInputError,
    DomainError,
    KernelSpec,
    PointSet,
    SingularSystemError,
    assemble,
    evaluate,
    fit,
    inverse_diagonal,
    load_model,
    make_evaluation_grid,
    make_tensor_grid,
    save_model,
    spectral_report,
    write_points_csv,
)
from hybridrbf.bench import franke
from hybridrbf.interpolation import model_from_text, model_to_text

E_INV = 0.36787944117144233
TWO_POINT_C = (1.1565176427496657, -0.4254590641196608)  # analytic 2x2 solve


def linear_data(k: int) -> PointSet:
    grid = make_tensor_grid(k, 2)
    return grid.with_values((grid.coords[:, 0] + grid.coords[:, 1]) / 2.0)


def franke_data(k: int) -> PointSet:
    grid = make_tensor_grid(k, 2)
    return grid.with_values(franke(grid.coords[:, 0], grid.coords[:, 1]))


def test_assemble_single_point():
    system = assemble(PointSet([[0.3, 0.4]], [7.0]), KernelSpec.gaussian(2.0))
    assert system.matrix.tolist() == [[1.0]]
    assert system.rhs.tolist() == [7.0]


def test_assemble_two_points_gaussian():
    system = assemble(PointSet([[0.0], [1.0]], [1.0, 0.0]), KernelSpec.gaussian(1.0))
    assert system.matrix[0, 0] == 1.0 and system.matrix[1, 1] == 1.0
    assert system.matrix[0, 1] == pytest.approx(E_INV, abs=1e-16)
    assert system.matrix[0, 1] == system.matrix[1, 0]


def test_assemble_augmented_block_structure():
    pts = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0])
    system = assemble(pts, KernelSpec.gaussian(1.0), augmented=True)
    assert system.matrix.shape == (6, 6)
    assert np.all(system.matrix[3:, 3:] == 0.0)
    # polynomial columns ordered constant, x, y
    assert np.array_equal(system.matrix[:3, 3], np.ones(3))
    assert np.array_equal(system.matrix[:3, 4], pts.coords[:, 0])
    assert np.array_equal(system.matrix[:3, 5], pts.coords[:, 1])
    assert np.array_equal(system.rhs, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0])


def test_assemble_exactly_symmetric():
    rng = np.random.default_rng(9)
    pts = PointSet(rng.uniform(0, 1, (25, 2)), rng.normal(size=25))
    for augmented in (False, True):
        system = assemble(pts, KernelSpec.hybrid(2.0, 0.6, 0.4), augmented=augmented)
        assert np.array_equal(system.matrix, system.matrix.T)


def test_assemble_rejects_duplicates():
    pts = PointSet([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        assemble(pts, KernelSpec.gaussian(1.0))


def test_assemble_requires_values():
    with pytest.raises(ConfigError):
        assemble(make_tensor_grid(3, 2), KernelSpec.gaussian(1.0))


def test_fit_single_point():
    model = fit(PointSet([[0.5, 0.5]], [5.0]), KernelSpec.gaussian(1.0))
    assert model.coeffs.tolist() == [5.0]
    assert evaluate(model, [[0.5, 0.5]]).tolist() == [5.0]


def test_fit_two_points_analytic():
    model = fit(PointSet([[0.0], [1.0]], [1.0, 0.0]), KernelSpec.gaussian(1.0))
    assert model.coeffs[0] == pytest.approx(TWO_POINT_C[0], rel=1e-14)
    assert model.coeffs[1] == pytest.approx(TWO_POINT_C[1], rel=1e-14)


def test_interpolation_property_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        pts = PointSet(rng.uniform(0, 1, (n, 2)), rng.normal(size=n))
        model = fit(pts, KernelSpec.hybrid(float(rng.uniform(1, 5)), 0.8, 0.2))
        if model.condition_estimate > 1e12:
            continue
        residual = np.max(np.abs(evaluate(model, pts) - pts.values))
        assert residual <= 1e-8 * (1.0 + np.max(np.abs(pts.values)))


def test_patch_test_linear_reproduction():
    pts = linear_data(9)
    model = fit(pts, KernelSpec.hybrid(1.0, 0.7, 1e-7), augmented=True)
    grid = make_evaluation_grid(40)
    truth = (grid.points[:, 0] + grid.points[:, 1]) / 2.0
    rms = float(np.sqrt(np.mean((evaluate(model, grid) - truth) ** 2)))
    assert rms <= 1e-12
    # pointwise too, anywhere in the square
    assert np.max(np.abs(evaluate(model, grid) - truth)) <= 1e-10


def test_augmented_side_conditions():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(6, 30))
        pts = PointSet(rng.uniform(0, 1, (n, 2)), rng.normal(size=n))
        model = fit(pts, KernelSpec.hybrid(2.0, 0.7, 0.3), augmented=True)
        bound = 1e-8 * max(1.0, float(np.max(np.abs(model.coeffs))))
        assert abs(model.coeffs.sum()) <= bound
        assert np.max(np.abs(model.coeffs @ pts.coords)) <= bound


def test_permutation_equivariance():
    # a well-conditioned instance, so the 1e-12 tolerance measures the
    # permutation contract rather than pivoting noise
    rng = np.random.default_rng(13)
    n = 12
    pts = PointSet(rng.uniform(0, 1, (n, 2)), rng.normal(size=n))
    kernel = KernelSpec.hybrid(5.0, 0.5, 0.5)
    model = fit(pts, kernel)
    perm = rng.permutation(n)
    permuted = PointSet(pts.coords[perm], pts.values[perm])
    model_p = fit(permuted, kernel)
    assert np.max(np.abs(model_p.coeffs - model.coeffs[perm])) <= 1e-12
    grid = make_evaluation_grid(10)
    assert np.max(np.abs(evaluate(model_p, grid) - evaluate(model, grid))) <= 1e-12


def test_fit_collinear_augmented_reports_unisolvency():
    line = np.linspace(0.0, 1.0, 6)
    pts = PointSet(np.column_stack([line, line]), line)
    with pytest.raises(SingularSystemError, match="unisolvent"):
        fit(pts, KernelSpec.gaussian(1.0), augmented=True)


def test_fit_flat_gaussian_singular_carries_index():
    pts = franke_data(5)
    with pytest.raises(SingularSystemError) as err:
        fit(pts, KernelSpec.gaussian(1e-4))
    assert err.value.index is not None


def test_evaluate_dimension_mismatch():
    model = fit(PointSet([[0.0, 0.0]], [1.0]), KernelSpec.gaussian(1.0))
    with pytest.raises(DomainError):
        evaluate(model, [[0.0]])


def test_evaluate_reproduces_values_at_centers():
    pts = franke_data(7)
    model = fit(pts, KernelSpec.hybrid(3.0, 0.8, 1e-4))
    residual = np.max(np.abs(evaluate(model, pts) - pts.values))
    assert residual <= 1e-8 * (1.0 + np.max(np.abs(pts.values)))


def test_spectral_report_identity():
    system = AssembledSystem(np.eye(4), np.zeros(4), n_centers=4, n_poly=0)
    report = spectral_report(system)
    assert np.allclose(report.eigenvalues, 1.0)
    assert report.condition_number == 1.0
    assert report.negative_count == 0


def test_spectral_report_sorted_ascending():
    pts = franke_data(5)
    report = spectral_report(assemble(pts, KernelSpec.hybrid(2.0, 0.5, 0.5)))
    assert np.all(np.diff(report.eigenvalues) >= 0.0)


def test_spectral_report_gaussian_positive_definite():
    for k in (5, 10, 20):
        pts = franke_data(k)
        report = spectral_report(assemble(pts, KernelSpec.gaussian(2.0)))
        assert report.negative_count == 0


def test_spectral_report_saddle_inertia():
    # brute-force oracle: [A P; P^T 0] with A positive definite and P full
    # rank has exactly s + 1 = 3 negative eigenvalues on a 10-point instance
    rng = np.random.default_rng(42)
    pts = PointSet(rng.uniform(0, 1, (10, 2)), rng.normal(size=10))
    report = spectral_report(assemble(pts, KernelSpec.gaussian(2.0), augmented=True))
    assert report.negative_count == 3


def test_spectral_report_rejects_asymmetric():
    system = AssembledSystem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), 2, 0)
    with pytest.raises(DomainError):
        spectral_report(system)


def test_inverse_diagonal_identity_and_diagonal():
    eye = AssembledSystem(np.eye(3), np.zeros(3), 3, 0)
    assert inverse_diagonal(eye).tolist() == [1.0, 1.0, 1.0]
    diag = AssembledSystem(np.diag([2.0, 4.0]), np.zeros(2), 2, 0)
    assert inverse_diagonal(diag).tolist() == [0.5, 0.25]


def test_inverse_diagonal_two_by_two_kernel():
    system = assemble(PointSet([[0.0], [1.0]], [1.0, 0.0]), KernelSpec.gaussian(1.0))
    diag = inverse_diagonal(system)
    assert diag[0] == pytest.approx(1.1565176427496657, rel=1e-14)
    assert diag[1] == pytest.approx(1.1565176427496657, rel=1e-14)


def test_inverse_diagonal_matches_explicit_inverse():
    rng = np.random.default_rng(19)
    pts = PointSet(rng.uniform(0, 1, (30, 2)), rng.normal(size=30))
    system = assemble(pts, KernelSpec.hybrid(2.0, 0.7, 0.3))
    expected = np.diag(np.linalg.inv(system.matrix))
    assert np.allclose(inverse_diagonal(system), expected, rtol=1e-9)


def test_inverse_diagonal_rejects_augmented():
    pts = franke_data(3)
    system = assemble(pts, KernelSpec.gaussian(2.0), augmented=True)
    with pytest.raises(ConfigError):
        inverse_diagonal(system)


def test_model_round_trip_bit_exact(tmp_path):
    pts = franke_data(5)
    model = fit(pts, KernelSpec.hybrid(2.5, 0.75, 1e-5), augmented=True)
    path = tmp_path / "model.txt"
    save_model(model, path)
    again = load_model(path)
    assert again.kernel == model.kernel
    assert np.array_equal(again.coeffs, model.coeffs)
    assert np.array_equal(again.poly_coeffs, model.poly_coeffs)
    assert np.array_equal(again.centers.coords, model.centers.coords)
    assert np.array_equal(again.centers.values, model.centers.values)
    assert again.condition_estimate == model.condition_estimate
    grid = make_evaluation_grid(9)
    assert np.array_equal(evaluate(again, grid), evaluate(model, grid))


def test_model_text_round_trip_is_stable():
    pts = franke_data(4)
    model = fit(pts, KernelSpec.gaussian(3.0))
    text = model_to_text(model)
    assert model_to_text(model_from_text(text)) == text


def test_model_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        model_from_text("not a model\n")


def test_overflowing_distances_raise_domain_error(recwarn):
    far = PointSet([[0.0, 0.0], [1e200, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0])
    kernel = KernelSpec.hybrid(2.0, 0.7, 0.1)
    for augmented in (False, True):
        with pytest.raises(DomainError, match="finite"):
            fit(far, kernel, augmented=augmented)
    model = fit(franke_data(3), kernel)
    with pytest.raises(DomainError, match="finite"):
        evaluate(model, [[0.5, 0.5], [0.0, -1e200]])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_model_file_is_lf_only_and_old_crlf_centers_still_load(tmp_path):
    model = fit(franke_data(3), KernelSpec.hybrid(3.0, 0.8, 0.1), augmented=True)
    path = tmp_path / "model.txt"
    save_model(model, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    start, stop = text.index("centers:\n") + 9, text.index("end-centers")
    crlf = text[:start] + text[start:stop].replace("\n", "\r\n") + text[stop:]
    assert model_to_text(model_from_text(crlf)) == text
    # points CSVs keep their CRLF rows
    write_points_csv(tmp_path / "points.csv", model.centers)
    assert (tmp_path / "points.csv").read_bytes().count(b"\r\n") == model.centers.n + 1


@pytest.mark.parametrize("marker", ["end-centers", "end-coeffs", "end-poly-coeffs"])
def test_model_parse_requires_section_end(marker):
    model = fit(franke_data(3), KernelSpec.hybrid(3.0, 0.8, 0.1), augmented=True)
    lines = model_to_text(model).splitlines(keepends=True)
    lines.remove(marker + "\n")
    with pytest.raises(ConfigError, match=marker):
        model_from_text("".join(lines))
