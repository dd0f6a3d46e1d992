"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line so the suite output doubles as the sign-off record."""

import time

import numpy as np

from hybridrbf import (
    KernelSpec,
    PointSet,
    PsoConfig,
    SingularSystemError,
    assemble,
    evaluate,
    fit,
    loocv_cost_brute,
    loocv_cost_rippa,
    make_evaluation_grid,
    make_tensor_grid,
    pso_minimize,
    spectral_report,
)
from hybridrbf.bench import ExperimentSpec, franke, run_study


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{extra}]" if extra else ""
    print(f"ACCEPTANCE {num:>2} {name:<34} {status}{suffix}")


def _linear_grid(k: int) -> PointSet:
    grid = make_tensor_grid(k, 2)
    return grid.with_values((grid.coords[:, 0] + grid.coords[:, 1]) / 2.0)


def _franke_grid(k: int) -> PointSet:
    grid = make_tensor_grid(k, 2)
    return grid.with_values(franke(grid.coords[:, 0], grid.coords[:, 1]))


EPS_SAMPLES = (0.1, 0.5, 1.0, 2.0)
GRID40 = make_evaluation_grid(40)
LINEAR_TRUTH40 = (GRID40.coords[:, 0] + GRID40.coords[:, 1]) / 2.0


def test_criterion_1_patch_test():
    points = _linear_grid(9)
    start = time.perf_counter()
    worst = 0.0
    for eps in EPS_SAMPLES:
        for alpha in (1.0, 0.37):
            for beta in (1e-9, 1e-7, 1e-6):
                model = fit(points, KernelSpec.hybrid(eps, alpha, beta), augmented=True)
                rms = float(np.sqrt(np.mean((evaluate(model, GRID40) - LINEAR_TRUTH40) ** 2)))
                worst = max(worst, rms)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "patch test (hybrid+poly, 9x9)", ok, f"worst rms {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_gaussian_non_reproduction():
    points = _linear_grid(9)
    start = time.perf_counter()
    best = np.inf
    singular = 0
    for eps in EPS_SAMPLES:
        try:
            model = fit(points, KernelSpec.gaussian(eps))
        except SingularSystemError:
            # the flattest settings refuse to solve at all under the pivot
            # contract, which is non-reproduction a fortiori
            singular += 1
            continue
        rms = float(np.sqrt(np.mean((evaluate(model, GRID40) - LINEAR_TRUTH40) ** 2)))
        best = min(best, rms)
    elapsed = time.perf_counter() - start
    ok = best > 1e-12 and singular < len(EPS_SAMPLES) and elapsed < 1.0
    _report(
        2,
        "gaussian non-reproduction",
        ok,
        f"best rms {best:.2e}, {singular} singular eps, {elapsed:.2f}s",
    )
    assert best > 1e-12
    assert singular < len(EPS_SAMPLES)
    assert elapsed < 1.0


def test_criterion_3_franke_convergence():
    spec = ExperimentSpec(
        study="franke",
        node_counts=(81, 625),
        variants=("hybrid",),
        objective="rms",
        pso=PsoConfig(swarm_size=40, generations=5),
        seed=0,
    )
    report = run_study(spec)
    coarse = report.cell("hybrid", 81)
    fine = report.cell("hybrid", 625)
    ok = fine.rms <= 1e-4 and fine.rms < coarse.rms and 3.0 <= fine.epsilon <= 8.0
    _report(
        3,
        "franke convergence (swarm 40 x 5)",
        ok,
        f"rms(625) {fine.rms:.2e} vs rms(81) {coarse.rms:.2e}, eps {fine.epsilon:.3f}",
    )
    assert fine.rms <= 1e-4
    assert fine.rms < coarse.rms
    assert 3.0 <= fine.epsilon <= 8.0


def test_criterion_4_rippa_identity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    kept, tried, worst = 0, 0, 0.0
    while kept < 20:
        tried += 1
        assert tried < 500, "could not draw 20 well-conditioned instances"
        n = int(rng.integers(5, 51))
        points = PointSet(rng.uniform(0, 1, (n, 2)), rng.normal(size=n))
        kernel = KernelSpec.hybrid(
            float(rng.uniform(1.0, 6.0)),
            float(rng.uniform(0.2, 1.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        model = fit(points, kernel)
        if model.condition_estimate > 1e10:
            continue
        shortcut = loocv_cost_rippa(points, kernel).per_point_errors
        brute = loocv_cost_brute(points, kernel).per_point_errors
        worst = max(worst, float(np.max(np.abs(shortcut - brute)) / np.max(np.abs(brute))))
        kept += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    _report(4, "rippa identity (20 instances)", ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8


def test_criterion_5_conditioning_relief():
    points = _franke_grid(25)
    gauss = spectral_report(assemble(points, KernelSpec.gaussian(1.0)))
    hybrid = spectral_report(assemble(points, KernelSpec.hybrid(1.0, 1.0, 1e-6)))
    factor = gauss.condition_number / hybrid.condition_number
    ok = hybrid.condition_number < gauss.condition_number
    _report(
        5,
        "conditioning relief (N=625, eps=1)",
        ok,
        f"cond {gauss.condition_number:.2e} -> {hybrid.condition_number:.2e}, factor {factor:.2e}",
    )
    assert hybrid.condition_number < gauss.condition_number


def test_criterion_6_saddle_point_spectrum():
    spec = ExperimentSpec(
        study="spectra",
        node_counts=(25, 81, 196),
        params_per_n={n: (3.0, 0.8, 1e-6) for n in (25, 81, 196)},
    )
    report = run_study(spec)
    augmented_counts = [report.cell("hybrid+poly", n).negative_count for n in (25, 81, 196)]
    gaussian_counts = []
    for k in (5, 10, 20):  # N = 25, 100, 400
        points = _franke_grid(k)
        gaussian_counts.append(
            spectral_report(assemble(points, KernelSpec.gaussian(2.0))).negative_count
        )
    ok = all(c >= 1 for c in augmented_counts) and all(c == 0 for c in gaussian_counts)
    _report(
        6,
        "saddle-point spectrum",
        ok,
        f"augmented negatives {augmented_counts}, gaussian negatives {gaussian_counts}",
    )
    assert all(c >= 1 for c in augmented_counts)
    assert all(c == 0 for c in gaussian_counts)


def test_criterion_7_side_conditions():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 40))
        points = PointSet(rng.uniform(0, 1, (n, 2)), rng.normal(size=n))
        kernel = KernelSpec.hybrid(
            float(rng.uniform(0.5, 4.0)),
            float(rng.uniform(0.1, 1.0)),
            float(rng.uniform(1e-8, 1.0)),
        )
        model = fit(points, kernel, augmented=True)
        tail = np.hstack([np.ones((n, 1)), points.coords])
        residual = float(np.max(np.abs(tail.T @ model.coeffs)))
        bound = 1e-8 * max(1.0, float(np.max(np.abs(model.coeffs))))
        worst = max(worst, residual / bound)
    ok = worst <= 1.0
    _report(7, "side conditions (50 instances)", ok, f"worst residual/bound {worst:.2e}")
    assert worst <= 1.0


def test_criterion_8_pso_sanity():
    start = time.perf_counter()
    config = PsoConfig(
        swarm_size=20, generations=100, bounds=((-5.0, 5.0),) * 3, seed=7
    )
    result = pso_minimize(lambda x: float(np.sum(np.asarray(x) ** 2)), config)
    elapsed = time.perf_counter() - start
    monotone = bool(np.all(np.diff(result.trace.gbest_val) <= 0.0))
    ok = result.best_value <= 1e-4 and monotone and elapsed < 1.0
    _report(8, "pso sanity (sphere 3-D)", ok, f"gbest {result.best_value:.2e}, {elapsed:.2f}s")
    assert result.best_value <= 1e-4
    assert monotone
    assert elapsed < 1.0


def test_criterion_9_cost_scaling():
    start = time.perf_counter()
    spec = ExperimentSpec(study="scaling", node_counts=(400, 900, 1600))
    report = run_study(spec)
    elapsed = time.perf_counter() - start
    slope_cell = next(c for c in report.cells if c.variant == "slope")
    slope = slope_cell.slope
    ok = slope is not None and 2.0 <= slope <= 3.5 and elapsed < 120.0
    _report(9, "cost scaling (N=400..1600)", ok, f"slope {slope:.3f}, {elapsed:.1f}s")
    assert slope is not None
    assert 2.0 <= slope <= 3.5
    assert elapsed < 120.0


def test_criterion_10_fault_pipeline(tmp_path):
    # desk-scale stand-in for the unavailable field dataset: 78 scattered
    # inputs reconstructed at 501 x 501 = 251001 regular locations
    spec = ExperimentSpec(
        study="fault",
        pso=PsoConfig(swarm_size=8, generations=3),
        fault_points=78,
        fault_grid_n=501,
        output_dir=tmp_path,
        seed=0,
    )
    report = run_study(spec)
    cell = report.cells[0]
    recon = tmp_path / f"fault-reconstruction-{report.digest}.csv"
    rows = len(recon.read_text().splitlines()) - 1
    ok = report.all_ok and cell.n == 78 and rows == 251001
    _report(10, "synthetic-fault pipeline", ok, f"{cell.n} inputs -> {rows} outputs")
    assert report.all_ok
    assert rows == 251001
    assert np.isfinite(cell.loocv_cost)
