import itertools
import threading

import numpy as np
import pytest

from hybridrbf import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    KernelSpec,
    ObjectiveSpec,
    PointSet,
    SENTINEL_COST,
    NumericalBreakdownError,
    PsoConfig,
    SingularSystemError,
    assemble,
    evaluate,
    fit,
    kernel_objective,
    loocv_cost_brute,
    loocv_cost_rippa,
    make_evaluation_grid,
    make_halton_set,
    make_tensor_grid,
    objective_value,
    pso_minimize,
    rms_error,
)
from hybridrbf import interpolation, kernels, objectives
from hybridrbf import pso as pso_module
from hybridrbf.bench import franke, synthetic_fault_surface
from hybridrbf.objectives import _trial_cost, prepare_search

E_INV = 0.36787944117144233


def franke_data(k: int) -> PointSet:
    grid = make_tensor_grid(k, 2)
    return grid.with_values(franke(grid.coords[:, 0], grid.coords[:, 1]))


def test_rms_zero_when_model_is_truth():
    pts = franke_data(5)
    model = fit(pts, KernelSpec.hybrid(3.0, 0.8, 1e-3))
    grid = PointSet(pts.coords)
    assert rms_error(model, grid, pts.values) <= 1e-10


def test_rms_constant_residual():
    # model fitted to zeros predicts zero everywhere
    model = fit(PointSet([[0.5]], [0.0]), KernelSpec.gaussian(1.0))
    grid = PointSet(np.linspace(0, 1, 7)[:, None])
    assert rms_error(model, grid, np.full(7, -0.1)) == pytest.approx(0.1, rel=1e-14)


def test_rms_hand_value():
    model = fit(PointSet([[0.5]], [0.0]), KernelSpec.gaussian(1.0))
    grid = PointSet([[0.0], [1.0]])
    # residuals (3, 4) over M = 2: sqrt(12.5)
    assert rms_error(model, grid, [-3.0, -4.0]) == pytest.approx(
        3.5355339059327378, rel=1e-15
    )


def test_rms_length_mismatch():
    model = fit(PointSet([[0.5]], [0.0]), KernelSpec.gaussian(1.0))
    grid = PointSet([[0.0], [1.0]])
    with pytest.raises(DomainError):
        rms_error(model, grid, [1.0])


def test_rms_reads_its_grid_as_evaluate_does():
    model = fit(PointSet([[0.5]], [0.0]), KernelSpec.gaussian(1.0))
    grid = PointSet([[0.0], [1.0]])
    # a coordinate array, or a vector as one point, scores as its PointSet
    assert rms_error(model, grid.coords, [-3.0, -4.0]) == rms_error(model, grid, [-3.0, -4.0])
    assert rms_error(model, [0.0], [2.0]) == rms_error(model, PointSet([[0.0]]), [2.0])
    for junk, message in (
        ([["a"]], r"^coordinates must be numbers, got \[\['a'\]\]$"),
        (np.zeros((2, 1, 1)), r"^coordinates must be an N x s matrix, got shape \(2, 1, 1\)$"),
        ([[0.0, 1.0]], r"^dimension mismatch: model has 1 coordinates, grid has 2$"),
    ):
        with pytest.raises(DomainError, match=message):
            rms_error(model, junk, [1.0])
    with pytest.raises(DomainError, match=r"^truth values must be numbers, got \['x'\]$"):
        rms_error(model, grid, ["x"])
    with pytest.raises(DomainError, match="^rms_error needs at least one evaluation point$"):
        rms_error(model, np.empty((0, 1)), [])


def test_an_overflowing_rms_is_inf_without_a_warning(recwarn):
    model = fit(PointSet([[0.5]], [0.0]), KernelSpec.gaussian(1.0))
    assert rms_error(model, PointSet([[0.0], [1.0]]), [1e300, -1e300]) == np.inf
    assert not recwarn.list


def test_rms_invariant_under_grid_permutation():
    pts = franke_data(4)
    model = fit(pts, KernelSpec.hybrid(2.0, 0.7, 0.1))
    grid = make_evaluation_grid(8)
    truth = franke(grid.coords[:, 0], grid.coords[:, 1])
    rng = np.random.default_rng(3)
    perm = rng.permutation(grid.n)
    shuffled = PointSet(grid.coords[perm])
    assert rms_error(model, shuffled, truth[perm]) == pytest.approx(
        rms_error(model, grid, truth), rel=1e-12
    )


def test_rippa_two_point_symmetry():
    pts = PointSet([[-1.0], [1.0]], [1.0, 1.0])
    cost = loocv_cost_rippa(pts, KernelSpec.gaussian(1.0))
    assert cost.per_point_errors[0] == pytest.approx(cost.per_point_errors[1], rel=1e-14)


def test_brute_two_point_oracle():
    pts = PointSet([[0.0], [1.0]], [1.0, 0.0])
    cost = loocv_cost_brute(pts, KernelSpec.gaussian(1.0))
    # leave-one-out fits are single-kernel models, solvable by hand
    assert cost.per_point_errors[0] == pytest.approx(1.0, abs=1e-15)
    assert cost.per_point_errors[1] == pytest.approx(-E_INV, abs=1e-15)
    assert cost.value == pytest.approx(np.hypot(1.0, E_INV), rel=1e-15)


def test_rippa_matches_brute_on_random_points():
    rng = np.random.default_rng(77)
    pts = PointSet(rng.uniform(0, 1, (25, 2)), rng.normal(size=25))
    kernel = KernelSpec.hybrid(3.0, 0.7, 0.3)
    shortcut = loocv_cost_rippa(pts, kernel).per_point_errors
    brute = loocv_cost_brute(pts, kernel).per_point_errors
    rel = np.max(np.abs(shortcut - brute)) / np.max(np.abs(brute))
    assert rel <= 1e-8


def test_loocv_positive_for_constant_data_gaussian():
    pts = make_tensor_grid(4, 2).with_values(np.ones(16))
    cost = loocv_cost_rippa(pts, KernelSpec.gaussian(2.0))
    assert cost.value > 0.0


def test_brute_zero_data_zero_cost():
    pts = PointSet([[0.0], [1.0]], [0.0, 0.0])
    assert loocv_cost_brute(pts, KernelSpec.gaussian(1.0)).value == 0.0


def test_loocv_minimum_sizes():
    single = PointSet([[0.0]], [1.0])
    with pytest.raises(DomainError):
        loocv_cost_rippa(single, KernelSpec.gaussian(1.0))
    small = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        loocv_cost_brute(small, KernelSpec.gaussian(1.0), augmented=True)


def test_loocv_cost_invariant_under_relabeling():
    rng = np.random.default_rng(8)
    pts = PointSet(rng.uniform(0, 1, (16, 2)), rng.normal(size=16))
    kernel = KernelSpec.hybrid(2.0, 0.8, 0.2)
    base = loocv_cost_rippa(pts, kernel)
    perm = rng.permutation(16)
    permuted = PointSet(pts.coords[perm], pts.values[perm])
    cost = loocv_cost_rippa(permuted, kernel)
    assert cost.value == pytest.approx(base.value, rel=1e-9)
    assert np.allclose(cost.per_point_errors, base.per_point_errors[perm], rtol=1e-8, atol=1e-12)


def test_objective_value_rms_path():
    pts = franke_data(4)
    grid = PointSet(pts.coords)
    spec = ObjectiveSpec.rms(grid, pts.values)
    assert objective_value(spec, pts, KernelSpec.hybrid(3.0, 0.8, 1e-3)) <= 1e-10


def test_objective_value_sentinel_on_singular():
    pts = franke_data(5)
    spec = ObjectiveSpec.loocv()
    assert objective_value(spec, pts, KernelSpec.gaussian(1e-4)) == SENTINEL_COST
    spec_rms = ObjectiveSpec.rms(PointSet(pts.coords), pts.values)
    assert objective_value(spec_rms, pts, KernelSpec.gaussian(1e-4)) == SENTINEL_COST


def test_rippa_breaks_down_on_a_zero_inverse_diagonal():
    """A pure cubic on two points, [[0, r^3], [r^3, 0]], has an inverse
    diagonal of exactly zero: Rippa's quotient raises, and a trial costs the
    sentinel."""
    pts = PointSet([[0.0], [1.0]], [1.0, 2.0])
    with pytest.raises(
        NumericalBreakdownError, match="^inverse diagonal entry 0 has magnitude 0.000e"
    ):
        loocv_cost_rippa(pts, KernelSpec.cubic())
    assert objective_value(ObjectiveSpec.loocv(), pts, KernelSpec.cubic()) == SENTINEL_COST


def test_a_tiny_cubic_scale_costs_what_the_unit_cubic_costs_without_a_warning():
    """Rippa's cost does not change with the kernel's scale.  At beta near
    3e-206 some inverse-triangle products outside the diagonal sum overflow;
    they are discarded, so the cost is the unit cubic's, with no warning."""
    pts = synthetic_fault_surface(13)
    tiny = KernelSpec("hybrid", 0.5, 0.0, 2.6685214877570287e-206)
    want = loocv_cost_rippa(pts, KernelSpec.cubic()).value
    assert loocv_cost_rippa(pts, tiny).value == pytest.approx(want, rel=1e-12)


def huge_halton_data() -> PointSet:
    """Values whose leave-one-out errors are finite but whose norm overflows."""
    pts = make_halton_set(20, 2)
    return pts.with_values(1e200 * np.sin(7 * pts.coords[:, 0]))


def test_a_cost_that_overflows_costs_the_sentinel():
    pts = huge_halton_data()
    spec, kernel = ObjectiveSpec.loocv(), KernelSpec.hybrid(3.0, 0.8, 0.1)
    assert _trial_cost(spec, pts, kernel, prepare_search(spec, pts)) == np.inf
    assert objective_value(spec, pts, kernel) == SENTINEL_COST


def test_an_overflowing_loocv_norm_is_inf_without_a_warning(recwarn):
    pts, kernel = huge_halton_data(), KernelSpec.hybrid(3.0, 0.8, 0.1)
    for cost in (
        loocv_cost_rippa(pts, kernel),
        loocv_cost_brute(pts, kernel),
        loocv_cost_brute(pts, kernel, augmented=True),
    ):
        assert cost.value == np.inf
        assert np.all(np.isfinite(cost.per_point_errors))
    for augmented in (False, True):
        assert objective_value(ObjectiveSpec.loocv(augmented), pts, kernel) == SENTINEL_COST
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_every_finite_cost_ranks_below_the_sentinel():
    """LOOCV costs near 1e32 are finite costs of working trials, so a search
    that also meets singular trials keeps the least finite cost as its best."""
    pts = make_halton_set(20, 2)
    pts = pts.with_values(1e32 * np.sin(7 * pts.coords[:, 0]))
    spec = ObjectiveSpec.loocv()
    assert 1e31 < objective_value(spec, pts, KernelSpec.hybrid(3.0, 0.8, 0.1)) < SENTINEL_COST
    objective, costs = kernel_objective(spec, pts), []

    def recorded(position):
        costs.append(objective(position))
        return costs[-1]

    bounds = ((0.01, 0.5), (0.0, 1.0), (0.0, 1e-9))
    result = pso_minimize(recorded, PsoConfig(swarm_size=4, generations=2, bounds=bounds, seed=8))
    finite = [c for c in costs if c != SENTINEL_COST]
    assert SENTINEL_COST in costs and finite
    assert result.best_value == min(finite)


def test_objective_value_loocv_ordering_matches_brute():
    pts = franke_data(5)
    spec = ObjectiveSpec.loocv()
    good = KernelSpec.hybrid(3.0, 0.8, 0.01)
    bad = KernelSpec.hybrid(15.0, 1.0, 0.0)  # too spiky, but still solvable
    brute_good = loocv_cost_brute(pts, good).value
    brute_bad = loocv_cost_brute(pts, bad).value
    assert brute_good < brute_bad
    assert objective_value(spec, pts, good) < objective_value(spec, pts, bad)


def test_objective_value_loocv_augmented_uses_brute():
    pts = franke_data(4)
    spec = ObjectiveSpec.loocv(augmented=True)
    kernel = KernelSpec.hybrid(2.0, 0.7, 0.1)
    assert objective_value(spec, pts, kernel) == pytest.approx(
        loocv_cost_brute(pts, kernel, augmented=True).value, rel=1e-12
    )


def test_objective_value_always_finite():
    pts = franke_data(4)
    spec = ObjectiveSpec.loocv()
    rng = np.random.default_rng(12)
    for _ in range(20):
        kernel = KernelSpec.hybrid(
            float(rng.uniform(1e-4, 20)), float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        )
        value = objective_value(spec, pts, kernel)
        assert np.isfinite(value)


def test_objective_spec_validation():
    with pytest.raises(ConfigError):
        ObjectiveSpec("rms")
    with pytest.raises(ConfigError):
        ObjectiveSpec("nope")
    grid = make_evaluation_grid(3)
    with pytest.raises(ConfigError):
        ObjectiveSpec.rms(grid, np.zeros(5))


def test_objective_spec_stores_only_what_its_kind_reads():
    grid = make_evaluation_grid(4)
    truth = np.arange(16.0)
    for augmented in (False, True):
        rms = ObjectiveSpec("rms", grid, truth, augmented)
        assert (rms.kind, rms.grid, rms.augmented) == ("rms", grid, augmented)
        assert np.array_equal(rms.truth_values, truth)
        # a loocv spec drops the grid and truth it does not read
        loocv = ObjectiveSpec("loocv", grid, truth, augmented)
        assert loocv == ObjectiveSpec.loocv(augmented)
        assert (loocv.grid, loocv.truth_values) == (None, None)
    with pytest.raises(ConfigError):
        ObjectiveSpec("rms", augmented=True)
    with pytest.raises(ConfigError):
        ObjectiveSpec("mse", grid, truth)


def test_objective_spec_stores_its_flag_as_a_python_bool():
    for flag in (np.True_, np.False_):
        assert ObjectiveSpec.loocv(flag).augmented is bool(flag)
    for flag in (1, "no", None, np.zeros(2)):
        with pytest.raises(ConfigError, match="^augmented must be a bool, got "):
            ObjectiveSpec.loocv(flag)


def test_kernel_objective_zero_weights_sentinel():
    pts = franke_data(4)
    objective = kernel_objective(ObjectiveSpec.loocv(), pts)
    assert objective(np.array([1.0, 0.0, 0.0])) == SENTINEL_COST
    assert objective(np.array([3.0, 0.8, 0.01])) < SENTINEL_COST


@pytest.mark.parametrize("dims", [1, 2, 4])
def test_the_default_mapping_refuses_a_box_that_is_not_three_numbers(dims):
    # an error on the first trial, not a search that costs the sentinel
    objective, calls = kernel_objective(ObjectiveSpec.loocv(), franke_data(4)), []
    config = PsoConfig(swarm_size=2, generations=1, bounds=((0.5, 5.0),) * dims)
    message = rf"^a position must be \(epsilon, alpha, beta\), got shape \({dims},\)$"
    with pytest.raises(DomainError, match=message):
        pso_minimize(lambda x: calls.append(x) or objective(x), config)
    assert len(calls) == 1


# --- the per-trial path against the compositions it replaced ---------------


def brute_refit_errors(points: PointSet, kernel: KernelSpec, augmented: bool) -> np.ndarray:
    """Leave-one-out errors from public fit and evaluate on fresh distances."""
    errors = np.empty(points.n)
    for k in range(points.n):
        keep = np.arange(points.n) != k
        model = fit(PointSet(points.coords[keep], points.values[keep]), kernel, augmented)
        errors[k] = points.values[k] - evaluate(model, points.coords[k : k + 1])[0]
    return errors


def brute_refit_oracle(points: PointSet, kernel: KernelSpec, augmented: bool) -> float:
    return float(np.linalg.norm(brute_refit_errors(points, kernel, augmented)))


def composed_cost(spec: ObjectiveSpec, points: PointSet, kernel: KernelSpec) -> float:
    """What one trial cost before the search data was shared between trials."""
    try:
        if spec.kind == "rms":
            model = fit(points, kernel, augmented=spec.augmented)
            cost = rms_error(model, spec.grid, spec.truth_values)
        elif spec.augmented:
            cost = brute_refit_oracle(points, kernel, augmented=True)
        else:
            cost = loocv_cost_rippa(points, kernel).value
    except (SingularSystemError, NumericalBreakdownError):
        return SENTINEL_COST
    return cost if np.isfinite(cost) else SENTINEL_COST


def halton_franke(n: int) -> PointSet:
    pts = make_halton_set(n, 2)
    return pts.with_values(franke(pts.coords[:, 0], pts.coords[:, 1]))


def trial_kernels(seed: int) -> list[KernelSpec]:
    rng = np.random.default_rng(seed)
    kernels = [
        KernelSpec.hybrid(float(rng.uniform(0.5, 12)), float(rng.uniform(0, 1)), float(b))
        for b in rng.uniform(0, 1, 4)
    ]
    return kernels + [KernelSpec.hybrid(1e-4, 1.0, 0.0)]  # flat Gaussian: singular


def trial_specs() -> dict[str, tuple[ObjectiveSpec, PointSet]]:
    grid = make_evaluation_grid(9)
    truth = franke(grid.coords[:, 0], grid.coords[:, 1])
    return {
        "rms": (ObjectiveSpec.rms(grid, truth), franke_data(5)),
        "rms-augmented": (ObjectiveSpec.rms(grid, truth, augmented=True), halton_franke(30)),
        "loocv": (ObjectiveSpec.loocv(), halton_franke(40)),
        "loocv-augmented": (ObjectiveSpec.loocv(augmented=True), halton_franke(20)),
    }


@pytest.mark.parametrize("name", sorted(trial_specs()))
def test_trial_cost_bit_equal_to_composition(name):
    spec, pts = trial_specs()[name]
    objective = kernel_objective(spec, pts)
    costs = []
    for kernel in trial_kernels(seed=len(name)):
        expected = composed_cost(spec, pts, kernel)
        assert objective(np.array([kernel.epsilon, kernel.alpha, kernel.beta])) == expected
        assert objective_value(spec, pts, kernel) == expected
        costs.append(expected)
    assert costs[-1] == SENTINEL_COST
    assert all(c < SENTINEL_COST for c in costs[:-1])


def test_trial_cost_bit_equal_when_evaluation_is_chunked(monkeypatch):
    spec, pts = trial_specs()["rms-augmented"]
    monkeypatch.setattr(kernels, "_FILL_BLOCK", 7 * pts.n)  # 12 blocks of 7 rows
    data = prepare_search(spec, pts)
    for kernel in trial_kernels(seed=4)[:-1]:
        assert objective_value(spec, pts, kernel, data) == composed_cost(spec, pts, kernel)


def sqrt_values(points: PointSet) -> PointSet:
    return points.with_values(np.arange(points.n) ** 0.5)


def test_brute_loocv_bit_equal_to_refit_oracle():
    """One fill per trial, cut into blocks per refit, against N fresh public fits.

    The sets span dimensions 1 to 3.  The smallest ones, N = 2 plain and
    N = dim + 2 augmented, meet empty blocks in the refits that leave out
    the first or the last point.
    """
    larger = (
        halton_franke(20), sqrt_values(make_halton_set(12, 3)), sqrt_values(make_halton_set(9, 1))
    )
    larger_cases = list(itertools.product(larger, (False, True)))
    smallest_cases = [
        (sqrt_values(make_halton_set(n, dim)), augmented)
        for dim in (1, 2, 3)
        for n, augmented in ((2, False), (dim + 2, True))
    ]
    *kernels, singular = trial_kernels(seed=9)
    for pts, augmented in larger_cases + smallest_cases:
        for kernel in kernels:
            cost = loocv_cost_brute(pts, kernel, augmented=augmented)
            errors = brute_refit_errors(pts, kernel, augmented)
            assert np.array_equal(cost.per_point_errors, errors)
            assert cost.value == float(np.linalg.norm(errors))
    for pts, augmented in larger_cases:
        with pytest.raises(SingularSystemError):
            brute_refit_errors(pts, singular, augmented)
        with pytest.raises(SingularSystemError, match="excluding point 0"):
            loocv_cost_brute(pts, singular, augmented=augmented)
        assert objective_value(ObjectiveSpec.loocv(augmented), pts, singular) == SENTINEL_COST


def test_brute_loocv_names_a_singular_refit_past_the_first():
    """Only the refit without point 2 leaves three collinear points."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [2.0, 0.0]])
    pts = PointSet(coords, np.array([1.0, 2.0, 0.5, 3.0]))
    kernel = KernelSpec.hybrid(1.0, 0.5, 0.1)
    for k in (0, 1, 3):  # each of the other refits is unisolvent
        keep = np.arange(pts.n) != k
        fit(PointSet(coords[keep], pts.values[keep]), kernel, augmented=True)
    match = r"^leave-one-out refit failed excluding point 2: .*\(augmented system is singular"
    with pytest.raises(SingularSystemError, match=match):
        loocv_cost_brute(pts, kernel, augmented=True)
    assert objective_value(ObjectiveSpec.loocv(augmented=True), pts, kernel) == SENTINEL_COST


def test_duplicate_points_raise_degenerate_everywhere():
    pts = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], np.arange(5.0))
    kernel = KernelSpec.hybrid(2.0, 0.7, 0.1)
    grid = make_evaluation_grid(3)
    for augmented in (False, True):
        with pytest.raises(DegenerateInputError):
            fit(pts, kernel, augmented=augmented)
        with pytest.raises(DegenerateInputError):
            assemble(pts, kernel, augmented=augmented)
        with pytest.raises(DegenerateInputError):
            loocv_cost_brute(pts, kernel, augmented=augmented)
        for spec in (ObjectiveSpec.loocv(augmented), ObjectiveSpec.rms(grid, np.zeros(9), augmented)):
            with pytest.raises(DegenerateInputError):
                objective_value(spec, pts, kernel)
            with pytest.raises(DegenerateInputError):
                kernel_objective(spec, pts)
    with pytest.raises(DegenerateInputError):
        loocv_cost_rippa(pts, kernel)


def test_overflowing_distances_raise_domain_error(recwarn):
    far = PointSet([[0.0, 0.0], [1e200, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0, 4.0])
    near = franke_data(3)
    far_grid = PointSet([[0.5, 0.5], [-1e200, 0.0]])
    kernel = KernelSpec.hybrid(2.0, 0.7, 0.1)
    for augmented in (False, True):
        with pytest.raises(DomainError, match="finite"):
            kernel_objective(ObjectiveSpec.loocv(augmented), far)
        with pytest.raises(DomainError, match="finite"):
            kernel_objective(ObjectiveSpec.rms(far_grid, [0.0, 0.0], augmented), near)
        with pytest.raises(DomainError, match="finite"):
            objective_value(ObjectiveSpec.loocv(augmented), far, kernel)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_overflowing_kernel_values_break_down_before_the_lu(recwarn):
    """A kernel matrix holding inf fails fit with one clear error, and a
    search trial on it costs the sentinel."""
    far = PointSet([[0.0, 0.0], [1e103, 0.0], [0.0, 1e103], [1e103, 1e103]], [1.0, 2.0, 3.0, 4.0])
    grid = PointSet([[0.5, 0.5], [1.0, 0.0]])
    for kernel in (KernelSpec.cubic(), KernelSpec.hybrid(1.0, 0.5, 0.5)):
        for augmented in (False, True):
            with pytest.raises(NumericalBreakdownError, match="kernel values overflow"):
                fit(far, kernel, augmented=augmented)
            for spec in (
                ObjectiveSpec.loocv(augmented),
                ObjectiveSpec.rms(grid, [0.0, 0.0], augmented),
            ):
                assert objective_value(spec, far, kernel) == SENTINEL_COST
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# --- search trials skip the condition estimate -------------------------------


def trial_outcome(spec: ObjectiveSpec, pts: PointSet, kernel: KernelSpec):
    """A trial's cost bits, or its exception's type, message and index."""
    try:
        return np.float64(_trial_cost(spec, pts, kernel, prepare_search(spec, pts))).tobytes()
    except (SingularSystemError, NumericalBreakdownError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


@pytest.mark.parametrize("path", ("rms", "loocv", "loocv-augmented"))
def test_trial_without_the_estimate_matches_one_with_it(monkeypatch, path):
    """Ok, singular and overflowing trials on the RMS, Rippa and brute paths
    give the same cost bits, or the same error, whether or not the LU's
    condition estimate is computed."""
    grid = PointSet([[0.5, 0.5], [0.2, 0.9], [1.0, 0.0]])
    far = PointSet(
        [[0.0, 0.0], [1e103, 0.0], [0.0, 1e103], [1e103, 1e103], [5e102, 5e102]],
        np.arange(5.0),
    )
    spec = {
        "rms": ObjectiveSpec.rms(grid, franke(*grid.coords.T)),
        "loocv": ObjectiveSpec.loocv(),
        "loocv-augmented": ObjectiveSpec.loocv(augmented=True),
    }[path]
    cases = {
        "ok": (halton_franke(20), KernelSpec.hybrid(3.0, 0.8, 0.1)),
        "singular": (halton_franke(20), KernelSpec.hybrid(1e-4, 1.0, 0.0)),
        "overflow": (far, KernelSpec.cubic()),
    }
    skipped = {name: trial_outcome(spec, *case) for name, case in cases.items()}
    factorize = interpolation._factorize

    def with_estimate(matrix, estimate=True):
        return factorize(matrix, True)

    monkeypatch.setattr(interpolation, "_factorize", with_estimate)
    monkeypatch.setattr(objectives, "_factorize", with_estimate)
    for name, case in cases.items():
        assert skipped[name] == trial_outcome(spec, *case), name
    assert isinstance(skipped["ok"], bytes)
    assert skipped["singular"][0] is SingularSystemError
    assert skipped["singular"][2] is not None
    assert skipped["overflow"][0] is NumericalBreakdownError


def test_search_computes_no_condition_estimate_and_fit_one(monkeypatch):
    calls = []
    dgecon = interpolation._dgecon

    def counted_dgecon(*args, **kwargs):
        calls.append(args)
        return dgecon(*args, **kwargs)

    monkeypatch.setattr(interpolation, "_dgecon", counted_dgecon)
    grid = make_evaluation_grid(6)
    truth = franke(*grid.coords.T)
    config = PsoConfig(swarm_size=4, generations=2, seed=3)
    for spec, pts in (
        (ObjectiveSpec.rms(grid, truth), franke_data(5)),
        (ObjectiveSpec.rms(grid, truth, augmented=True), franke_data(5)),
        (ObjectiveSpec.loocv(), halton_franke(30)),
        (ObjectiveSpec.loocv(augmented=True), halton_franke(12)),
    ):
        pso_minimize(kernel_objective(spec, pts), config)
    assert calls == []
    model = fit(halton_franke(30), KernelSpec.hybrid(3.0, 0.8, 0.1))
    assert len(calls) == 1
    assert np.isfinite(model.condition_estimate)


@pytest.mark.parametrize("cpus", (1, 2))
def test_searches_give_equal_traces_at_one_and_two_workers(monkeypatch, cpus):
    """Pooled trials fill the matrix their worker thread maps; the traces
    are those of the serial search, bit for bit, at 1 and 2 workers."""
    grid = make_evaluation_grid(12)
    truth = franke(*grid.coords.T)
    config = PsoConfig(swarm_size=4, generations=2, seed=5)
    cases = (
        (ObjectiveSpec.rms(grid, truth), franke_data(12)),
        (ObjectiveSpec.rms(grid, truth, augmented=True), franke_data(12)),
        (ObjectiveSpec.loocv(), halton_franke(300)),
        (ObjectiveSpec.loocv(augmented=True), halton_franke(20)),
    )
    monkeypatch.setattr(pso_module, "_available_cpus", lambda: 1)
    serial = [pso_minimize(kernel_objective(spec, pts), config) for spec, pts in cases]
    monkeypatch.setattr(pso_module, "_POOL_MIN_OVERLAP", 0.0)
    monkeypatch.setattr(pso_module, "_available_cpus", lambda: cpus)
    threads = set()
    for (spec, pts), want in zip(cases, serial):
        objective = kernel_objective(spec, pts)

        def recorded(x, objective=objective):
            threads.add(threading.current_thread())
            return objective(x)

        got = pso_minimize(recorded, config)
        assert got.trace.gbest_val.tobytes() == want.trace.gbest_val.tobytes()
        assert got.trace.gbest_pos.tobytes() == want.trace.gbest_pos.tobytes()
    assert (threads != {threading.main_thread()}) == (cpus > 1)


def test_the_78_point_fault_search_stays_serial(monkeypatch):
    """On two CPUs its particles 0 and 1 run together, but their trials hold
    the GIL too much of the time to overlap: their summed thread CPU time
    read at most 1.18 times their wall time on a 2-vCPU VM, under
    pso._POOL_MIN_OVERLAP = 1.3, and a busy host only lowers it.  So every
    later trial of each seed's search runs on the calling thread."""
    monkeypatch.setattr(pso_module, "_available_cpus", lambda: 2)
    caller = threading.current_thread()
    for seed in range(3):
        trial, threads = kernel_objective(ObjectiveSpec.loocv(), synthetic_fault_surface(78)), []

        def objective(x, trial=trial, threads=threads):
            threads.append(threading.current_thread())
            return trial(x)

        pso_minimize(objective, PsoConfig(swarm_size=20, generations=1, seed=seed))
        assert len(threads) == 40
        assert threads[2:] == [caller] * 38, f"seed {seed}"
