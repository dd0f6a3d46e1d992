import io
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    loocv_cost_rippa,
    make_evaluation_grid,
    make_halton_set,
    make_tensor_grid,
    save_model,
    spectral_report,
    write_points_csv,
)
from hybridrbf import interpolation
from hybridrbf.bench import franke
from hybridrbf.geometry import pairwise_distances
from hybridrbf.interpolation import (
    _INVDIAG_BLOCK,
    InterpolationModel,
    _factorize,
    _fit_distances,
    _inverse_diagonal,
    _invert_triangle,
    _poly_block,
    _predict,
    _system,
    model_from_text,
    model_to_text,
)
from hybridrbf.kernels import _FILL_BLOCK, KERNEL_KINDS, HybridParams
from kernel_oracle import phi

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
    truth = (grid.coords[:, 0] + grid.coords[:, 1]) / 2.0
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


@pytest.mark.parametrize("kind", ("cubic", "hybrid", "multiquadric"))
def test_predict_blocks_agree_with_the_unblocked_oracle(monkeypatch, kind):
    """Block edges around a patched block of 7 rows, with both distance sources."""
    pts = franke_data(6)
    model = fit(pts, KernelSpec(kind, HybridParams(4.0, 0.6, 0.4)), augmented=True)
    step = 7
    monkeypatch.setattr(interpolation, "_FILL_BLOCK", step * pts.n)
    fills = []
    fill = interpolation._fill

    def counted_fill(*args, **kwargs):
        fills.append(args)
        return fill(*args, **kwargs)

    monkeypatch.setattr(interpolation, "_fill", counted_fill)
    rng = np.random.default_rng(17)
    for m in (1, step - 1, step, step + 1, 3 * step + 5):
        targets = rng.uniform(0.0, 1.0, size=(m, 2))
        distances = pairwise_distances(targets, pts)
        fills.clear()
        blocked = _predict(model, targets)
        assert len(fills) == -(-m // step)
        assert np.array_equal(_predict(model, targets, distances), blocked)
        kernel_values, poly = phi(kind, model.kernel.params, distances), _poly_block(targets)
        oracle = kernel_values @ model.coeffs
        oracle += poly @ model.poly_coeffs
        # BLAS sums a block in another order than the whole matrix; bound the
        # difference relative to the sum of the terms' magnitudes.
        scale = np.abs(kernel_values) @ np.abs(model.coeffs)
        scale += np.abs(poly) @ np.abs(model.poly_coeffs)
        assert np.all(np.abs(blocked - oracle) <= 1e-13 * scale)


def evaluation_peak(model: InterpolationModel, targets) -> int:
    tracemalloc.start()
    try:
        evaluate(model, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_evaluation_memory_is_one_block_beside_the_output():
    """The fault pipeline's shape: 251,001 targets against 78 centers."""
    centers = make_halton_set(78, 2)
    values = franke(*centers.coords.T)
    model = fit(centers.with_values(values), KernelSpec.hybrid(3.0, 0.6, 0.4))
    targets = make_tensor_grid(501, 2).coords
    m, dim = targets.shape
    assert evaluation_peak(model, targets) < m * (dim + 1) * 8 + 4 * 2**20
    # An ndarray of targets is read in place, not copied.
    assert evaluation_peak(model, targets) < m * 8 + 4 * 2**20
    # The polynomial tail is added one block at a time.
    augmented = fit(centers.with_values(values), KernelSpec.hybrid(3.0, 0.6, 0.4), True)
    assert evaluation_peak(augmented, targets) < m * (dim + 1) * 8 + 4 * 2**20


@pytest.mark.parametrize("step", (1, 2, 7))
def test_augmented_tail_bit_equal_to_the_whole_tail(monkeypatch, step):
    """Per-block tails, one-row blocks included, give the bits of one
    product over every target added to the plain blocked values."""
    pts = franke_data(6)
    model = fit(pts, KernelSpec.hybrid(4.0, 0.6, 0.4), augmented=True)
    plain = replace(model, poly_coeffs=None)
    monkeypatch.setattr(interpolation, "_FILL_BLOCK", step * pts.n)
    rng = np.random.default_rng(23)
    for m in (*range(1, 3 * step + 3), 61):
        targets = rng.uniform(0.0, 1.0, size=(m, 2))
        whole = _predict(plain, targets) + _poly_block(targets) @ model.poly_coeffs
        assert np.array_equal(_predict(model, targets), whole)


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


# --- the in-place inverse diagonal against the identity-solve oracle ----------


def identity_solve_invdiag(matrix: np.ndarray) -> np.ndarray:
    """Diagonal of the inverse by solving identity columns, 256 at a time."""
    n = matrix.shape[0]
    factors = sla.lu_factor(matrix.copy(), check_finite=False)
    diag = np.empty(n)
    for start in range(0, n, 256):
        stop = min(start + 256, n)
        width = stop - start
        unit = np.zeros((n, width))
        unit[np.arange(start, stop), np.arange(width)] = 1.0
        x = sla.lu_solve(factors, unit, check_finite=False)
        diag[start:stop] = x[np.arange(start, stop), np.arange(width)]
    return diag


def old_factorize(matrix: np.ndarray):
    """The factorization before it ran in place: LU of a copy, then gecon.

    A singular matrix makes ``lu_factor`` warn; the old factorization
    ignored that warning and judged the pivots itself.  The estimate comes
    from the package's ``_dgecon``: scipy's own wrapper gives estimates an
    ulp apart for one LU, by where the heap puts its work array.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(matrix.copy(), check_finite=False)
    rcond, info = interpolation._dgecon(lu, np.linalg.norm(matrix, 1))
    assert info == 0
    return lu, piv, float("inf") if rcond == 0.0 else 1.0 / rcond


B = _INVDIAG_BLOCK
INVDIAG_SIZES = (1, 2, 3, B - 1, B, B + 1, 2 * B, 2 * B + 17, 300, 1024)


def pivoting_system(n: int, kind: str) -> AssembledSystem:
    """A plain system whose LU pivots wherever partial pivoting can.

    Up to three points lie on a line where an off-diagonal entry beats the
    diagonal (hybrid) or where the second Schur step swaps rows (Gaussian);
    larger sets are Halton points, with a Gaussian narrow enough beyond 300
    points to keep the condition estimate below 1e10.  A 1- or 2-point
    Gaussian system never pivots: its diagonal is the largest entry of every
    column.
    """
    if n <= 3:
        line = np.array([0.0, 1.0, 1.1])[:n] * (2.0 if kind == "hybrid" else 1.0)
        pts = PointSet(line[:, None], np.cos(np.arange(n)))
        kernel = KernelSpec.gaussian(1.0)
    else:
        pts = make_halton_set(n, 2).with_values(np.cos(np.arange(n)))
        kernel = KernelSpec.gaussian(8.0 if n <= 300 else 16.0)
    if kind == "hybrid":
        kernel = KernelSpec.hybrid(3.0, 0.5, 0.5)
    return assemble(pts, kernel)


@pytest.mark.parametrize("kind", ("hybrid", "gaussian"))
@pytest.mark.parametrize("n", INVDIAG_SIZES)
def test_inverse_diagonal_matches_identity_solve_oracle(n, kind):
    system = pivoting_system(n, kind)
    _, piv, cond = old_factorize(system.matrix)
    if n >= (2 if kind == "hybrid" else 3):
        assert not np.array_equal(piv, np.arange(n))
    assert cond <= 1e10
    expected = identity_solve_invdiag(system.matrix)
    got = inverse_diagonal(system)
    assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-10


@settings(max_examples=40, deadline=None)
@example(seed=0, n=1, dim=1, epsilon=1.0, beta=1.0)  # the 1 x 1 zero matrix
@example(seed=0, n=2, dim=1, epsilon=1.0, beta=1.0)  # pure cubic: inverse diagonal is 0
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 70),
    dim=st.integers(1, 3),
    epsilon=st.floats(0.5, 20.0),
    beta=st.floats(0.0, 1.0),
)
def test_inverse_diagonal_property_against_oracle(seed, n, dim, epsilon, beta):
    pts = PointSet(np.random.default_rng(seed).uniform(0.0, 1.0, (n, dim)), np.ones(n))
    alpha = 1.0 if beta == 0.0 else 1.0 - beta
    system = assemble(pts, KernelSpec.hybrid(epsilon, alpha, beta))
    try:
        _, _, cond = old_factorize(system.matrix)
        _factorize(system.matrix.copy())
    except SingularSystemError:
        with pytest.raises(SingularSystemError):
            inverse_diagonal(system)
        return
    expected = identity_solve_invdiag(system.matrix)
    got = inverse_diagonal(system)
    if cond <= 1e10:
        # Elementwise |got - expected| <= 1e-10 |expected|: an exact zero
        # (two points, pure cubic) must come back as an exact zero.
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)


def test_inverse_diagonal_leaves_system_unchanged():
    system = pivoting_system(300, "hybrid")
    before = system.matrix.copy()
    inverse_diagonal(system)
    assert np.array_equal(system.matrix, before)


def test_triangular_inverse_failure_raises_singular():
    lu = np.array([[1.0, 2.0], [0.5, 0.0]], order="F")  # U has a zero pivot
    with pytest.raises(SingularSystemError) as err:
        _inverse_diagonal((lu, np.array([0, 1], dtype=np.int32)))
    assert err.value.index == 1


@pytest.mark.parametrize("lower", (0, 1))
@pytest.mark.parametrize("kind", ("hybrid", "gaussian"))
@pytest.mark.parametrize("n", INVDIAG_SIZES)
def test_invert_triangle_matches_dtrtri(n, kind, lower):
    lu, _, _ = old_factorize(pivoting_system(n, kind).matrix)
    expected, info = sla.lapack.dtrtri(
        lu.copy(order="F"), lower=lower, unitdiag=lower, overwrite_c=1
    )
    assert info == 0
    got = lu.copy(order="F")
    _invert_triangle(got, 0, n, lower)
    opposite = np.triu_indices(n, 1) if lower else np.tril_indices(n, -1)
    assert np.array_equal(got[opposite], lu[opposite])
    if n <= B:
        assert np.array_equal(got, expected)
    else:
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_zero_pivot_in_a_later_block_raises_the_global_index():
    lu, piv, _ = old_factorize(pivoting_system(300, "hybrid").matrix)
    lu[200, 200] = 0.0  # inside the base block of rows 150..224
    with pytest.raises(SingularSystemError) as err:
        _inverse_diagonal((lu, piv))
    assert err.value.index == 200


# --- the in-place factorization contract -------------------------------------


@pytest.mark.parametrize("augmented", (False, True))
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_system_matrix_exactly_symmetric(kind, augmented):
    """The transposed, in-place LU relies on A == A.T entry for entry.

    So does the condition estimate: _factorize takes the 1-norm of matrix.T
    with LAPACK dlange, which must equal numpy's norm of matrix bit for bit.
    """
    kernel = KernelSpec(kind, HybridParams(2.7, 0.6, 0.4))
    side = int(np.sqrt(_FILL_BLOCK))
    for n in (5, side, side + 1, 2 * side):
        pts = make_halton_set(n, 2).with_values(np.zeros(n))
        matrix = _system(pts, _fit_distances(pts, augmented), kernel, augmented).matrix
        assert np.array_equal(matrix, matrix.T)
        assert sla.lapack.dlange("1", matrix.T) == np.linalg.norm(matrix, 1)


@pytest.mark.parametrize("kind", ("hybrid", "gaussian"))
def test_factorize_in_place_bit_equal_to_copy(kind):
    for n in (3, _INVDIAG_BLOCK + 1, 300):
        matrix = pivoting_system(n, kind).matrix
        lu0, piv0, cond0 = old_factorize(matrix)
        owned = matrix.copy()
        (lu, piv), cond = _factorize(owned)
        assert np.shares_memory(lu, owned)
        assert np.array_equal(lu, lu0) and np.array_equal(piv, piv0)
        assert cond == cond0


@pytest.mark.parametrize("kind", ("hybrid", "gaussian"))
def test_condition_estimate_does_not_follow_the_heap(kind):
    # Each work-sized array held here moves where the next one can go.
    # scipy's gecon wrapper gave two estimates an ulp apart over these 16
    # layouts, for both kinds at N = 300.
    for n in (300, 1024):
        matrix = pivoting_system(n, kind).matrix
        estimates, held = set(), []
        for k in range(16):
            held.append(np.empty(4 * n + k))
            estimates.add(_factorize(matrix.copy())[1])
        assert len(estimates) == 1


@pytest.mark.parametrize("n", (1, 2, 3))
def test_dgecon_agrees_with_scipy_wrapper(n):
    for kind in ("hybrid", "gaussian"):
        matrix = pivoting_system(n, kind).matrix
        lu, _ = sla.lu_factor(matrix, check_finite=False)
        anorm = np.linalg.norm(matrix, 1)
        assert interpolation._dgecon(lu, anorm) == sla.lapack.dgecon(lu, anorm, norm="1")
    zero = np.zeros((n, n), order="F")
    assert interpolation._dgecon(zero, 1.0) == (0.0, 0)


@pytest.mark.parametrize("augmented", (False, True))
def test_fit_bit_equal_to_factoring_a_copy(augmented):
    pts = make_halton_set(150, 2).with_values(np.sin(np.arange(150.0)))
    kernel = KernelSpec.hybrid(5.5, 0.7, 1e-3)
    system = assemble(pts, kernel, augmented=augmented)
    lu, piv, cond = old_factorize(system.matrix)
    solution = sla.lu_solve((lu, piv), system.rhs, check_finite=False)
    model = fit(pts, kernel, augmented=augmented)
    assert np.array_equal(model.coeffs, solution[: pts.n])
    if augmented:
        assert np.array_equal(model.poly_coeffs, solution[pts.n :])
    assert model.condition_estimate == cond


def test_singular_kernel_raises_the_old_pivot_index():
    pts = franke_data(5)
    kernel = KernelSpec.gaussian(1e-4)
    lu, _ = sla.lu_factor(assemble(pts, kernel).matrix.copy(), check_finite=False)
    expected = int(np.argmin(np.abs(np.diag(lu))))
    calls = (
        lambda: fit(pts, kernel),
        lambda: inverse_diagonal(assemble(pts, kernel)),
        lambda: loocv_cost_rippa(pts, kernel),
    )
    for call in calls:
        with pytest.raises(SingularSystemError) as err:
            call()
        assert err.value.index == expected


@pytest.mark.parametrize(
    "matrix",
    (
        [[0.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]],  # row 3 = row 1 + row 2
    ),
)
def test_exact_zero_pivot_raises_the_old_pivot_index_without_a_warning(matrix):
    matrix = np.array(matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, _ = sla.lu_factor(matrix.copy(), check_finite=False)
    expected = int(np.argmin(np.abs(np.diag(lu))))
    assert lu[expected, expected] == 0.0
    system = AssembledSystem(matrix, np.ones(len(matrix)), n_centers=len(matrix), n_poly=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: _factorize(matrix.copy()),
            lambda: _factorize(matrix.copy(), estimate=False),
            lambda: inverse_diagonal(system),
        ):
            with pytest.raises(SingularSystemError) as err:
                call()
            assert err.value.index == expected


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


def test_model_saves_to_a_stream_and_reloads():
    model = fit(franke_data(4), KernelSpec.hybrid(2.5, 0.75, 1e-5), augmented=True)
    stream = io.StringIO()
    save_model(model, stream)
    text = stream.getvalue()
    assert text == model_to_text(model)
    assert "\r" not in text
    stream.seek(0)
    assert model_to_text(load_model(stream)) == text


def test_model_text_round_trip_is_stable():
    pts = franke_data(4)
    model = fit(pts, KernelSpec.gaussian(3.0))
    text = model_to_text(model)
    assert model_to_text(model_from_text(text)) == text


_model_floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def _models(draw):
    n = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 3))
    augmented = draw(st.booleans())
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.floats(0.0, 1.0).filter(lambda b: b > 0.0 or alpha > 0.0))
    kernel = KernelSpec(
        draw(st.sampled_from(KERNEL_KINDS)),
        HybridParams(draw(st.floats(0.0, 1e300)), alpha, beta),
    )
    return InterpolationModel(
        centers=PointSet(
            draw(arrays(np.float64, (n, dim), elements=_model_floats)),
            draw(arrays(np.float64, (n,), elements=_model_floats)),
        ),
        kernel=kernel,
        coeffs=draw(arrays(np.float64, (n,), elements=_model_floats)),
        poly_coeffs=(
            draw(arrays(np.float64, (dim + 1,), elements=_model_floats)) if augmented else None
        ),
        condition_estimate=draw(st.floats(allow_nan=False)),
    )


def _model_bits(model):
    arrays_ = (model.centers.coords, model.centers.values, model.coeffs, model.poly_coeffs)
    return (
        model.kernel.to_record(),
        model.augmented,
        np.float64(model.condition_estimate).tobytes(),
        tuple(None if a is None else (a.shape, a.tobytes()) for a in arrays_),
    )


@settings(max_examples=150, deadline=None)
@given(_models())
def test_model_text_property_bit_exact_round_trip(model):
    text = model_to_text(model)
    again = model_from_text(text)
    assert _model_bits(again) == _model_bits(model)
    assert model_to_text(again) == text


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda dim: arrays(
            np.float64,
            st.tuples(st.integers(1, 10), st.just(dim)),
            elements=st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1e3]),
        )
    )
)
def test_duplicate_detection_matches_brute_force_row_scan(coords):
    n = coords.shape[0]
    duplicate = any(
        np.array_equal(coords[i], coords[j]) for i in range(n) for j in range(i + 1, n)
    )
    points = PointSet(coords, np.zeros(n))
    if duplicate:
        with pytest.raises(DegenerateInputError):
            _fit_distances(points, augmented=False)
    else:
        assert _fit_distances(points, augmented=False).shape == (n, n)


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


@pytest.mark.parametrize("flag", ["yes", "True", "1", ""])
def test_model_parse_requires_augmented_true_or_false(flag):
    model = fit(franke_data(3), KernelSpec.hybrid(3.0, 0.8, 0.1), augmented=True)
    text = model_to_text(model).replace("augmented: true\n", f"augmented: {flag}\n")
    with pytest.raises(ConfigError, match="augmented must be true or false"):
        model_from_text(text)


def test_model_parse_refuses_a_polynomial_tail_in_a_plain_model():
    model = fit(franke_data(3), KernelSpec.hybrid(3.0, 0.8, 0.1), augmented=True)
    text = model_to_text(model).replace("augmented: true\n", "augmented: false\n")
    with pytest.raises(ConfigError, match="poly-coeffs section but augmented: false"):
        model_from_text(text)
    empty_tail = "poly-coeffs:\nend-poly-coeffs\n"
    plain = model_to_text(fit(franke_data(3), KernelSpec.hybrid(3.0, 0.8, 0.1)))
    with pytest.raises(ConfigError, match="poly-coeffs section but augmented: false"):
        model_from_text(plain + empty_tail)


def test_augmented_fit_needs_one_point_more_than_the_dimension():
    pts = PointSet([[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0])
    with pytest.raises(ConfigError, match="^augmented fit needs at least 3 points, got 2$"):
        fit(pts, KernelSpec.hybrid(3.0, 0.8, 0.1), augmented=True)


@pytest.mark.parametrize(
    "case, message",
    [
        ("bad-number", "bad numeric line in model coeffs section: 'abc'"),
        ("stray-end", "model file has 'end-centers' outside its section"),
        ("missing-field", "model file missing field 'kernel'"),
        ("no-centers", "model file has no centers"),
        ("coeff-count", "model file has 8 coefficients for 9 centers"),
        ("poly-count", "model file has 2 polynomial coefficients, expected 3"),
    ],
)
def test_model_parse_names_what_is_wrong(case, message):
    model = fit(franke_data(3), KernelSpec.hybrid(3.0, 0.8, 0.1), augmented=True)
    lines = model_to_text(model).splitlines()
    at = lines.index
    if case == "bad-number":
        lines[at("coeffs:") + 1] = "abc"
    elif case == "stray-end":
        lines.insert(at("coeffs:"), "end-centers")
    elif case == "missing-field":
        lines = [line for line in lines if not line.startswith("kernel:")]
    elif case == "no-centers":
        del lines[at("centers:") + 2 : at("end-centers")]  # keep the CSV header
    elif case == "coeff-count":
        del lines[at("coeffs:") + 1]
    else:
        del lines[at("poly-coeffs:") + 1]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        model_from_text("\n".join(lines) + "\n")
