import numpy as np
import pytest

from hybridrbf import (
    ConfigError,
    HybridParams,
    KernelSpec,
    PsoConfig,
    assemble,
    fit,
    loocv_cost_brute,
    loocv_cost_rippa,
    make_evaluation_grid,
    rms_error,
    spectral_report,
)
from hybridrbf.bench import (
    DESK_NODE_COUNTS,
    FULL_NODE_COUNTS,
    VARIANTS,
    ExperimentSpec,
    FAULT_STEP,
    fault_elevation,
    fault_side,
    franke,
    linear_truth,
    read_report_csv,
    run_study,
    spec_digest,
    synthetic_fault_surface,
    write_report_csv,
)
from hybridrbf.geometry import make_tensor_grid

QUICK_PSO = PsoConfig(swarm_size=8, generations=3)


def test_franke_oracle_value():
    # direct evaluation oracle of the standard-sign formula
    assert franke(0.5, 0.5) == pytest.approx(0.3257620892806842, abs=1e-15)


def test_franke_dip_term_peak():
    # the subtracted exponential peaks at (4/9, 7/9) with weight 0.2
    x, y = 4.0 / 9.0, 7.0 / 9.0
    dip = 0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2)
    assert dip == 0.2
    assert franke(x, y) == pytest.approx(0.0038216053739345, abs=1e-15)


def test_franke_finite_positive_sweep():
    axis = np.linspace(0.0, 1.0, 101)
    xs, ys = np.meshgrid(axis, axis)
    values = franke(xs, ys)
    assert np.all(np.isfinite(values))
    assert np.all(values > 0.0)


def test_linear_truth_value():
    assert linear_truth(0.2, 0.4) == pytest.approx(0.3, rel=1e-15)


def test_node_count_tables():
    assert DESK_NODE_COUNTS == FULL_NODE_COUNTS[: len(DESK_NODE_COUNTS)]
    assert max(DESK_NODE_COUNTS) <= 1296


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(study="nope")
    with pytest.raises(ConfigError):
        ExperimentSpec(study="franke", node_counts=())
    with pytest.raises(ConfigError):
        ExperimentSpec(study="franke", node_counts=(24,))
    with pytest.raises(ConfigError):
        ExperimentSpec(study="franke", variants=())
    with pytest.raises(ConfigError):
        ExperimentSpec(study="franke", variants=("quartic",))
    with pytest.raises(ConfigError):
        ExperimentSpec(study="franke", objective="mad")


def test_spec_digest_tracks_content():
    a = ExperimentSpec(study="franke", node_counts=(25,), pso=QUICK_PSO)
    b = ExperimentSpec(study="franke", node_counts=(25,), pso=QUICK_PSO, seed=1)
    c = ExperimentSpec(study="franke", node_counts=(25,), pso=QUICK_PSO, output_dir="x")
    assert spec_digest(a) != spec_digest(b)
    assert spec_digest(a) == spec_digest(c)  # output location is not content
    # Every report file name carries the digest, so a change to the spec
    # fields renames them all.
    assert spec_digest(a) == "f9711d9198"
    fault = ExperimentSpec(
        study="fault", pso=PsoConfig(swarm_size=6, generations=2), fault_grid_n=101
    )
    assert spec_digest(fault) == "10ecc86cd0"


def test_linear_reproduction_study_cells():
    spec = ExperimentSpec(
        study="linear-reproduction", node_counts=(25, 81), pso=QUICK_PSO, seed=3
    )
    report = run_study(spec)
    assert len(report.cells) == 6  # 3 variants x 2 node counts
    assert report.all_ok
    for n in (25, 81):
        assert report.cell("hybrid+poly", n).rms <= 1e-12
        assert report.cell("gaussian", n).rms > 1e-12
        assert report.cell("hybrid+poly", n).negative_count >= 1
        # the gaussian variant searches epsilon only
        assert report.cell("gaussian", n).alpha == 1.0
        assert report.cell("gaussian", n).beta == 0.0


def test_linear_reproduction_deterministic():
    spec = ExperimentSpec(
        study="linear-reproduction", node_counts=(25,), variants=("hybrid",),
        pso=QUICK_PSO, seed=6,
    )
    a, b = run_study(spec), run_study(spec)
    ca, cb = a.cells[0], b.cells[0]
    assert (ca.epsilon, ca.alpha, ca.beta, ca.rms) == (cb.epsilon, cb.alpha, cb.beta, cb.rms)


def test_franke_study_convergence_and_sweep():
    spec = ExperimentSpec(
        study="franke", node_counts=(25, 81), variants=("hybrid",),
        pso=PsoConfig(swarm_size=10, generations=4), seed=2, sweep_points=4,
    )
    report = run_study(spec)
    assert report.cell("hybrid", 25).rms > report.cell("hybrid", 81).rms
    sweep = [c for c in report.cells if c.variant.startswith("sweep:")]
    assert len(sweep) == 12  # 4 epsilons x 3 kernels at N = 81
    assert all(c.n == 81 for c in sweep)
    eps_values = sorted({c.epsilon for c in sweep})
    assert len(eps_values) == 4


def test_report_cells_are_self_describing():
    # refitting with a cell's stored parameters must reproduce its rms
    spec = ExperimentSpec(
        study="franke", node_counts=(49,), variants=("hybrid",), pso=QUICK_PSO, seed=7
    )
    report = run_study(spec)
    cell = report.cell("hybrid", 49)
    points = make_tensor_grid(7, 2)
    points = points.with_values(franke(points.coords[:, 0], points.coords[:, 1]))
    from hybridrbf import fit, make_evaluation_grid, rms_error

    model = fit(points, KernelSpec.hybrid(cell.epsilon, cell.alpha, cell.beta))
    grid = make_evaluation_grid(40)
    rms = rms_error(model, grid, franke(grid.points[:, 0], grid.points[:, 1]))
    assert rms == pytest.approx(cell.rms, abs=1e-12)


def test_cubic_condition_below_gaussian_at_franke_optimum():
    grid = make_tensor_grid(25, 2)
    points = grid.with_values(franke(grid.coords[:, 0], grid.coords[:, 1]))
    cubic = spectral_report(assemble(points, KernelSpec.cubic()))
    gauss = spectral_report(assemble(points, KernelSpec.gaussian(5.5)))
    assert cubic.condition_number < gauss.condition_number


def test_plain_hybrid_tiny_beta_positive_definite_at_625():
    points = make_tensor_grid(25, 2)
    points = points.with_values(franke(points.coords[:, 0], points.coords[:, 1]))
    report = spectral_report(
        assemble(points, KernelSpec.hybrid(5.5434, 0.6749, 4.915e-07))
    )
    assert report.negative_count == 0


def test_cross_study_condition_consistency():
    spec = ExperimentSpec(
        study="franke", node_counts=(25,), variants=("hybrid",), pso=QUICK_PSO, seed=9
    )
    report = run_study(spec)
    cell = report.cell("hybrid", 25)
    spectra_spec = ExperimentSpec(
        study="spectra", node_counts=(25,),
        params_per_n={25: (cell.epsilon, cell.alpha, cell.beta)},
    )
    spectra = run_study(spectra_spec)
    recomputed = spectra.cell("hybrid", 25).condition_number
    assert recomputed == pytest.approx(cell.condition_number, rel=1e-6)


def test_spectra_study_counts_and_files(tmp_path):
    spec = ExperimentSpec(
        study="spectra", node_counts=(25, 49),
        params_per_n={25: (3.0, 0.8, 1e-6), 49: (3.0, 0.8, 1e-6)},
        output_dir=tmp_path,
    )
    report = run_study(spec)
    assert report.all_ok
    for n in (25, 49):
        assert report.cell("hybrid+poly", n).negative_count >= 1
    plain = tmp_path / f"spectra-{report.digest}-n25-plain.csv"
    augmented = tmp_path / f"spectra-{report.digest}-n25-augmented.csv"
    assert plain.exists() and augmented.exists()
    assert len(plain.read_text().splitlines()) == 26  # header + 25 eigenvalues
    assert len(augmented.read_text().splitlines()) == 29  # header + 25 + 3


def test_objective_comparison_shared_seeds():
    spec = ExperimentSpec(
        study="objective-comparison", node_counts=(25, 81), variants=("hybrid",),
        pso=PsoConfig(swarm_size=12, generations=4), seed=5,
    )
    report = run_study(spec)
    assert len(report.cells) == 4
    for n in (25, 81):
        rms_cell = report.cell("hybrid", n, objective="rms")
        loocv_cell = report.cell("hybrid", n, objective="loocv")
        for cell in (rms_cell, loocv_cell):
            assert 0.01 <= cell.epsilon <= 20.0
            assert 0.0 <= cell.alpha <= 1.0
            assert 0.0 <= cell.beta <= 1.0
        # directly optimizing the reported metric cannot lose with shared seeds
        assert rms_cell.rms <= loocv_cell.rms


def test_fault_surface_generator():
    pts = synthetic_fault_surface(78, seed=0)
    assert pts.n == 78
    again = synthetic_fault_surface(78, seed=0)
    assert np.array_equal(pts.coords, again.coords)
    assert np.array_equal(pts.values, again.values)
    side = fault_side(pts.coords)
    foot = pts.values[side < 0]
    hang = pts.values[side >= 0]
    assert foot.size and hang.size
    assert foot.min() - hang.max() >= FAULT_STEP


def test_fault_surface_straddling_pairs_step():
    rng = np.random.default_rng(1)
    coords = rng.uniform(0.0, 50.0, size=(500, 2))
    values = fault_elevation(coords)
    side = fault_side(coords)
    assert values[side < 0].min() - values[side >= 0].max() >= FAULT_STEP


def test_fault_surface_rejects_tiny_sets():
    with pytest.raises(ConfigError):
        synthetic_fault_surface(5)


def test_fault_study_pipeline(tmp_path):
    spec = ExperimentSpec(
        study="fault", pso=PsoConfig(swarm_size=6, generations=2),
        fault_points=30, fault_grid_n=21, output_dir=tmp_path, seed=4,
    )
    report = run_study(spec)
    assert report.all_ok
    cell = report.cells[0]
    assert cell.n == 30 and cell.loocv_cost is not None
    recon = tmp_path / f"fault-reconstruction-{report.digest}.csv"
    assert recon.exists()
    assert len(recon.read_text().splitlines()) == 21 * 21 + 1


def test_scaling_study_slope_row():
    spec = ExperimentSpec(study="scaling", node_counts=(25, 49, 121))
    report = run_study(spec)
    fits = [c for c in report.cells if c.variant == "fit"]
    assert len(fits) == 3
    times = {c.n: c.wall_time_s for c in fits}
    assert times[121] >= times[25]  # more work is never faster on warmed runs
    slope = next(c for c in report.cells if c.variant == "slope")
    assert slope.slope is not None or slope.status == "failed"


def test_scaling_study_requires_span():
    with pytest.raises(ConfigError):
        run_study(ExperimentSpec(study="scaling", node_counts=(25, 36)))
    with pytest.raises(ConfigError):
        ExperimentSpec(study="scaling", node_counts=())


def test_report_csv_round_trip(tmp_path):
    spec = ExperimentSpec(
        study="linear-reproduction", node_counts=(25,), variants=("hybrid",),
        pso=QUICK_PSO, seed=8,
    )
    report = run_study(spec)
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    cells = read_report_csv(path)
    assert len(cells) == len(report.cells)
    for got, want in zip(cells, report.cells):
        assert got.variant == want.variant
        assert got.n == want.n
        assert got.rms == want.rms
        assert got.condition_number == want.condition_number
        assert got.negative_count == want.negative_count
        assert got.status == want.status


def test_report_files_emitted(tmp_path):
    spec = ExperimentSpec(
        study="linear-reproduction", node_counts=(25,), variants=("hybrid",),
        pso=QUICK_PSO, output_dir=tmp_path,
    )
    report = run_study(spec)
    csv_path = tmp_path / f"linear-reproduction-{report.digest}.csv"
    txt_path = tmp_path / f"linear-reproduction-{report.digest}.txt"
    assert csv_path.exists() and txt_path.exists()
    text = txt_path.read_text()
    assert "linear-reproduction" in text and "hybrid" in text


SMALL_PSO = PsoConfig(swarm_size=4, generations=2)


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(study="linear-reproduction", node_counts=(25,), pso=SMALL_PSO),
        ExperimentSpec(
            study="franke", node_counts=(25,), variants=VARIANTS, pso=SMALL_PSO,
            sweep_points=4,
        ),
        ExperimentSpec(
            study="objective-comparison", node_counts=(25,),
            variants=("hybrid", "hybrid+poly"), pso=SMALL_PSO,
        ),
        ExperimentSpec(study="fault", pso=SMALL_PSO, fault_points=30, fault_grid_n=11),
    ],
    ids=lambda spec: spec.study,
)
def test_cells_match_the_public_fit_chain(spec):
    # Cells fit, take the spectrum and the LOOCV cost on one distance matrix;
    # each number must equal what the public calls give for the cell's kernel.
    report = run_study(spec)
    if spec.study == "fault":
        points = synthetic_fault_surface(spec.fault_points, seed=spec.seed)
        grid = None
    else:
        truth = linear_truth if spec.study == "linear-reproduction" else franke
        k = int(round(np.sqrt(spec.node_counts[0])))
        points = make_tensor_grid(k, 2)
        points = points.with_values(truth(points.coords[:, 0], points.coords[:, 1]))
        grid = make_evaluation_grid(spec.eval_grid_n)
        truth_values = truth(grid.points[:, 0], grid.points[:, 1])
    checked = [c for c in report.cells if c.status == "ok"]
    assert checked
    for cell in checked:
        variant = cell.variant.removeprefix("sweep:")
        augmented = variant.endswith("+poly")
        kind = variant.removesuffix("+poly")
        kernel = KernelSpec(kind, HybridParams(cell.epsilon, cell.alpha, cell.beta))
        model = fit(points, kernel, augmented=augmented)
        spectrum = spectral_report(assemble(points, kernel, augmented=augmented))
        assert cell.condition_number == spectrum.condition_number
        assert cell.negative_count == spectrum.negative_count
        if grid is None:
            assert cell.rms is None
        else:
            assert cell.rms == rms_error(model, grid, truth_values)
        if cell.variant.startswith("sweep:"):
            assert cell.loocv_cost is None
            continue
        if augmented:
            loocv = loocv_cost_brute(points, kernel, augmented=True)
        else:
            loocv = loocv_cost_rippa(points, kernel)
        assert cell.loocv_cost == loocv.value
