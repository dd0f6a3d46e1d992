import io
import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blas_threads import blas_counts
from hybridrbf import (
    ConfigError,
    KernelSpec,
    NumericalBreakdownError,
    ObjectiveSpec,
    PsoConfig,
    SingularSystemError,
    assemble,
    fit,
    loocv_cost_brute,
    loocv_cost_rippa,
    make_evaluation_grid,
    make_halton_set,
    rms_error,
    spectral_report,
)
from hybridrbf import bench
from hybridrbf.bench import (
    DESK_NODE_COUNTS,
    FULL_NODE_COUNTS,
    STUDIES,
    VARIANTS,
    _STUDY_TABLE,
    CellRecord,
    ExperimentReport,
    ExperimentSpec,
    FAULT_STEP,
    fault_elevation,
    fault_side,
    franke,
    linear_truth,
    read_report_csv,
    report_text,
    run_study,
    spec_digest,
    synthetic_fault_surface,
    write_report_csv,
)
from hybridrbf.geometry import FLOAT_FMT, make_tensor_grid
from hybridrbf.objectives import prepare_search

QUICK_PSO = PsoConfig(swarm_size=8, generations=3)
SMALL_PSO = PsoConfig(swarm_size=4, generations=2)


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
    # a scalar broadcasts against a vector
    assert linear_truth(0.2, [0.4, 0.6]) == pytest.approx([0.3, 0.4], rel=1e-15)


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
    for n in (-4, 0, 1):  # no float square root: negative counts raise too
        with pytest.raises(ConfigError, match=f"node count {n} is not a perfect square"):
            ExperimentSpec(study="franke", node_counts=(n,))
    with pytest.raises(ConfigError):
        ExperimentSpec(study="franke", variants=())
    with pytest.raises(ConfigError):
        ExperimentSpec(study="franke", variants=("quartic",))
    with pytest.raises(ConfigError):
        ExperimentSpec(study="franke", objective="mad")
    with pytest.raises(ConfigError, match="^sweep_points must be >= 0, got -3$"):
        ExperimentSpec(study="franke", sweep_points=-3)
    with pytest.raises(ConfigError, match="^eval_grid_n must be >= 2, got 1$"):
        ExperimentSpec(study="franke", eval_grid_n=1)
    # Node counts are checked, not truncated; a numpy integer keeps the digest.
    for counts in ((25.7,), (25.0,), (25, "36")):
        with pytest.raises(ConfigError, match="^node count must be an integer, got "):
            ExperimentSpec(study="franke", node_counts=counts)
    spec = ExperimentSpec(study="franke", node_counts=(np.int64(25), np.int32(36)))
    assert spec.node_counts == (25, 36) and all(type(n) is int for n in spec.node_counts)
    assert spec_digest(spec) == spec_digest(ExperimentSpec(study="franke", node_counts=(25, 36)))
    # So are the PSO sizes and seed (4.0 too), on one line, when the spec's
    # PsoConfig is built.
    for settings, message in (
        ({"swarm_size": 4.0}, "swarm_size must be an integer, got 4.0"),
        ({"generations": 2.5, "seed": 1.5},
         "generations must be an integer, got 2.5; seed must be an integer, got 1.5"),
    ):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentSpec(study="franke", pso=PsoConfig(**settings))
    numpy_sized = ExperimentSpec(study="franke", pso=PsoConfig(swarm_size=np.int64(4)))
    sized = ExperimentSpec(study="franke", pso=PsoConfig(swarm_size=4))
    assert spec_digest(numpy_sized) == spec_digest(sized)
    # Each pinned triple is checked when the spec is built, on one line.
    for pinned, message in (
        ({25: (1.0, 0.5)}, r"params_per_n\[25\] = \(1.0, 0.5\): not enough values"),
        ({25: (-1.0, 0.5, 0.1)}, r"params_per_n\[25\] = .*: epsilon must be finite and >= 0"),
        ({25: (1.0, 0.5, 0.1, 0.0)}, r"params_per_n\[25\] = .*: too many values"),
        ({25: ("x", 0.5, 0.1)}, r"params_per_n\[25\] = .*: epsilon, alpha and beta must be numbers, got 'x', 0.5, 0.1$"),
        ({36: (1.0, 0.5, 0.1)}, r"params_per_n key 36 not in node_counts \(25,\)"),
    ):
        with pytest.raises(ConfigError, match=message) as err:
            ExperimentSpec(study="spectra", node_counts=(25,), params_per_n=pinned)
        assert "\n" not in str(err.value)


def test_spec_checks_its_seed_when_built():
    for seed, message in (
        (-1, "seed must be >= 0, got -1"),
        (2.0, "seed must be an integer, got 2.0"),
        ("7", "seed must be an integer, got '7'"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(
                study="linear-reproduction", node_counts=(16,), variants=("cubic",), seed=seed
            )
    numpy_seeded = ExperimentSpec(study="franke", seed=np.int64(3))
    assert type(numpy_seeded.seed) is int
    assert spec_digest(numpy_seeded) == spec_digest(ExperimentSpec(study="franke", seed=3))


# An empty box is refused by PsoConfig itself (tests/test_pso.py).
@pytest.mark.parametrize("bounds", [((0.01, 20.0), (0.0, 1.0)), ((0.01, 20.0),), ((0.0, 1.0),) * 4])
def test_spec_refuses_a_pso_box_that_is_not_three_pairs(bounds):
    message = "pso.bounds must be three (lower, upper) pairs, for epsilon, alpha and beta; got "
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        ExperimentSpec(study="franke", node_counts=(16,), pso=PsoConfig(bounds=bounds))


@pytest.mark.parametrize("output_dir", [3, b"reports", ["reports"]])
def test_spec_refuses_an_output_dir_that_is_no_path(output_dir):
    with pytest.raises(ConfigError, match=f"^output_dir must be a path, got {re.escape(repr(output_dir))}$"):
        ExperimentSpec(study="scaling", output_dir=output_dir)


def test_equal_pso_configs_give_equal_digests():
    default = ExperimentSpec(study="franke")
    assert spec_digest(default) == "34fa4ab502"
    for pso in (
        PsoConfig(bounds=((0.01, 20), (0, 1), (0, 1))),
        PsoConfig(bounds=[[0.01, 20.0], [0.0, 1.0], [0.0, 1.0]]),
        PsoConfig(bounds=np.array([[0.01, 20.0], [0.0, 1.0], [0.0, 1.0]])),
    ):
        spec = ExperimentSpec(study="franke", pso=pso)
        assert spec == default and hash(spec) == hash(default)
        assert spec_digest(spec) == spec_digest(default)
    given = ExperimentSpec(study="franke", pso=PsoConfig(c1=1, c2=1, inertia_w=np.float32(0.5)))
    stored = ExperimentSpec(study="franke", pso=PsoConfig(c1=1.0, c2=1.0, inertia_w=0.5))
    assert spec_digest(given) == spec_digest(stored)


def test_spec_refuses_a_pso_that_is_not_a_psoconfig():
    with pytest.raises(ConfigError, match=r"^pso must be a PsoConfig, got \{'swarm_size': 2\}$"):
        ExperimentSpec(
            study="franke", node_counts=(16,), variants=("gaussian",), pso={"swarm_size": 2}
        )


@pytest.mark.parametrize(
    "name, value", [("objective", "loocv"), ("eval_grid_n", 30), ("pso", PsoConfig(swarm_size=5))]
)
def test_pinned_spectra_refuse_search_fields_no_cell_reads(name, value):
    pinned = {16: (2.0, 0.8, 1e-4)}
    with pytest.raises(
        ConfigError, match=f"^every node count is pinned .* {name} must keep its default, got "
    ):
        ExperimentSpec(study="spectra", node_counts=(16,), params_per_n=pinned, **{name: value})
    # A searched node count reads the field; the defaults, given or not, keep the digest.
    ExperimentSpec(study="spectra", node_counts=(16, 25), params_per_n=pinned, **{name: value})
    defaults = dict(objective="rms", eval_grid_n=40, pso=PsoConfig())
    for given_fields in ({}, defaults):
        spec = ExperimentSpec(
            study="spectra", node_counts=(16,), params_per_n=pinned, **given_fields
        )
        assert spec_digest(spec) == "27fbd51bb3"


@pytest.mark.parametrize(
    "entries, message",
    [
        (dict(node_counts=(16, 25, 16)), "node_counts repeats 16"),
        (dict(node_counts=(np.int64(16), 16)), "node_counts repeats 16"),
        (dict(variants=("hybrid", "cubic", "hybrid")), "variants repeats 'hybrid'"),
    ],
)
@pytest.mark.parametrize("study", ["franke", "spectra"])
def test_spec_refuses_a_repeated_node_count_or_variant(study, entries, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}; each entry may appear once$"):
        ExperimentSpec(study=study, **entries)


def test_spec_stores_pinned_triples_as_int_to_floats():
    spec = ExperimentSpec(
        study="spectra", node_counts=(25, 49),
        params_per_n={np.int64(25): (3, np.float32(0.5), 0), np.uint8(49): [1, 1, 1]},
    )
    assert spec.params_per_n == {25: (3.0, 0.5, 0.0), 49: (1.0, 1.0, 1.0)}
    for n, triple in spec.params_per_n.items():
        assert type(n) is int and all(type(t) is float for t in triple)
    assert spec_digest(spec) == spec_digest(
        ExperimentSpec(study="spectra", node_counts=(25, 49),
                       params_per_n={49: (1.0, 1.0, 1.0), 25: (3.0, 0.5, 0.0)})
    )


@pytest.mark.parametrize(
    "study, name, count",
    [("franke", "eval_grid_n", 40), ("franke", "sweep_points", 3),
     ("fault", "fault_points", 78), ("fault", "fault_grid_n", 101)],
)
def test_spec_counts_are_integers(study, name, count):
    for value in (float(count), count + 0.5, str(count)):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got ") as err:
            ExperimentSpec(study=study, **{name: value})
        assert "\n" not in str(err.value)
    spec = ExperimentSpec(study=study, **{name: np.int64(count)})
    assert type(getattr(spec, name)) is int
    assert spec == ExperimentSpec(study=study, **{name: count})
    assert spec_digest(spec) == spec_digest(ExperimentSpec(study=study, **{name: count}))


def test_spec_digest_tracks_content():
    a = ExperimentSpec(study="franke", node_counts=(25,), pso=QUICK_PSO)
    b = ExperimentSpec(study="franke", node_counts=(25,), pso=QUICK_PSO, seed=1)
    c = ExperimentSpec(study="franke", node_counts=(25,), pso=QUICK_PSO, output_dir="x")
    assert spec_digest(a) != spec_digest(b)
    assert spec_digest(a) == spec_digest(c)  # output location is not content
    # Every report file name carries the digest, so a change to the spec
    # fields renames them all.
    assert spec_digest(a) == "14cd1a3055"
    fault = ExperimentSpec(
        study="fault", pso=PsoConfig(swarm_size=6, generations=2), fault_grid_n=101
    )
    assert spec_digest(fault) == "4e8f7ebecf"


def test_spec_fills_study_defaults_and_refuses_fields_the_study_does_not_read():
    assert ExperimentSpec(study="franke") == ExperimentSpec(
        study="franke", node_counts=DESK_NODE_COUNTS, variants=VARIANTS
    )
    assert ExperimentSpec(study="objective-comparison").variants == ("hybrid",)
    assert ExperimentSpec(study="spectra").variants == ("hybrid", "hybrid+poly")
    scaling = ExperimentSpec(study="scaling")
    assert (scaling.node_counts, scaling.variants) == ((400, 900, 1600), None)
    fault = ExperimentSpec(study="fault")
    assert (fault.node_counts, fault.variants) == (None, None)
    for study, field_values in (
        ("fault", {"node_counts": (25,)}),
        ("fault", {"node_counts": ()}),
        ("fault", {"variants": ("gaussian",)}),
        ("scaling", {"variants": ("hybrid",)}),
    ):
        (name,) = field_values
        with pytest.raises(ConfigError, match=f"the {study} study takes no {name}"):
            ExperimentSpec(study=study, **field_values)


# Fields every study reads; each other field belongs to the _STUDY_TABLE rows.
COMMON_FIELDS = {"study", "pso", "seed", "output_dir"}

# A value differing from every study's default, for each settable field.
OTHER_VALUES = {
    "node_counts": (25, 100),
    "variants": ("hybrid+poly",),
    "objective": "loocv",
    "pso": PsoConfig(swarm_size=6),
    "eval_grid_n": 12,
    "seed": 3,
    "sweep_points": 5,
    "params_per_n": {25: (3.0, 0.8, 1e-6)},
    "fault_points": 30,
    "fault_grid_n": 11,
}


@pytest.mark.parametrize("study", STUDIES)
@pytest.mark.parametrize(
    "name", [f.name for f in fields(ExperimentSpec) if f.name not in COMMON_FIELDS]
)
def test_study_row_names_every_field_the_study_takes(study, name):
    reads = _STUDY_TABLE[study][1]
    if name in reads:
        explicit = ExperimentSpec(study=study, **{name: reads[name]})
        assert explicit == ExperimentSpec(study=study)
        assert spec_digest(explicit) == spec_digest(ExperimentSpec(study=study))
    else:
        assert getattr(ExperimentSpec(study=study), name) is None
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(study=study, **{name: OTHER_VALUES[name]})
        assert str(err.value) == f"the {study} study takes no {name}, got {OTHER_VALUES[name]!r}"


def settable_values_in_digest(study: str) -> list[str]:
    """The fields a study's spec accepts a value for that changes its digest."""
    base = spec_digest(ExperimentSpec(study=study))
    reaching = []
    for name, value in OTHER_VALUES.items():
        try:
            spec = ExperimentSpec(study=study, **{name: value})
        except ConfigError:
            continue
        if spec_digest(spec) != base:
            reaching.append(name)
    return reaching


def test_digest_hashes_only_the_fields_a_study_reads():
    assert set(OTHER_VALUES) == {f.name for f in fields(ExperimentSpec)} - {"study", "output_dir"}
    counts = {}
    for study in STUDIES:
        reaching = settable_values_in_digest(study)
        # pso and seed reach every digest; scaling reads neither
        assert set(reaching) == set(_STUDY_TABLE[study][1]) | {"pso", "seed"}
        counts[study] = len(reaching)
        # but not pso.seed: each cell seeds its search from seed
        reseeded = ExperimentSpec(study=study, pso=PsoConfig(seed=7))
        assert spec_digest(reseeded) == spec_digest(ExperimentSpec(study=study))
    assert counts == {
        "linear-reproduction": 6, "franke": 7, "spectra": 7,
        "objective-comparison": 5, "fault": 4, "scaling": 3,
    }
    assert sum(counts.values()) == 32


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
    # sweep:hybrid+poly is wider than the default variant column; every row's
    # N field still ends where the header's N does
    lines = report_text(report).splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("variant"))
    n_end = lines[header].index(" N ") + 2
    rows = lines[header + 2 : header + 2 + len(report.cells)]
    assert [row[n_end - 7 : n_end + 1] for row in rows] == [
        f" {c.n:>6} " for c in report.cells
    ]


def test_report_cell_lookup_names_a_missing_cell():
    cells = [CellRecord("franke", "hybrid", 16, "rms")]
    report = ExperimentReport("franke", "0123456789", 0, (), cells)
    assert report.cell("hybrid", 16, "rms") is report.cells[0]
    with pytest.raises(KeyError, match="no cell variant='hybrid' n=25 objective=None"):
        report.cell("hybrid", 25)


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
    rms = rms_error(model, grid, franke(grid.coords[:, 0], grid.coords[:, 1]))
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


def test_spectra_files_hold_the_spectrum_at_17_digits_with_crlf(tmp_path):
    spec = ExperimentSpec(study="spectra", node_counts=(25,), pso=SMALL_PSO, output_dir=tmp_path)
    report = run_study(spec)
    assert report.all_ok
    points = make_tensor_grid(5, 2)
    points = points.with_values(franke(points.coords[:, 0], points.coords[:, 1]))
    for cell in report.cells:
        augmented = cell.variant == "hybrid+poly"
        kernel = KernelSpec.hybrid(cell.epsilon, cell.alpha, cell.beta)
        expected = spectral_report(assemble(points, kernel, augmented=augmented)).eigenvalues
        tag = "augmented" if augmented else "plain"
        raw = (tmp_path / f"spectra-{report.digest}-n25-{tag}.csv").read_bytes()
        assert raw.count(b"\n") == raw.count(b"\r\n") == len(expected) + 1
        rows = raw.decode().splitlines()
        assert rows[0] == "index,eigenvalue"
        assert rows[1:] == [f"{i},{FLOAT_FMT % ev}" for i, ev in enumerate(expected)]


@pytest.mark.parametrize("study", ["franke", "spectra"])
def test_unstable_pso_settings_raise_one_line_before_any_cell(study):
    with pytest.raises(ConfigError) as info:
        run_study(ExperimentSpec(study=study, node_counts=(25,), pso=PsoConfig(c1=3.0, c2=2.0)))
    assert str(info.value).startswith("stability requires 0 < c1 + c2 < 4, got c1 + c2 = 5; ")
    assert "\n" not in str(info.value)


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


def test_scaling_study_fits_at_one_blas_thread_and_restores_the_count(monkeypatch):
    before = blas_counts()
    seen = []

    def counted_fit(*args):
        seen.append(blas_counts())
        return fit(*args)

    monkeypatch.setattr(bench, "fit", counted_fit)
    report = run_study(ExperimentSpec(study="scaling", node_counts=(25, 121)))
    assert seen == [[1, 1]] * 8  # one warm-up and three timed fits per N
    assert blas_counts() == before
    slope = next(c for c in report.cells if c.variant == "slope")
    assert slope.detail.endswith("at 1 BLAS thread")


def test_scaling_study_fails_a_cell_whose_fit_raises_and_then_its_slope(monkeypatch):
    def singular_fit(points, kernel):
        raise SingularSystemError("numerically singular system at pivot 3", index=3)

    monkeypatch.setattr(bench, "fit", singular_fit)
    report = run_study(ExperimentSpec(study="scaling", node_counts=(25, 121)))
    *fits, slope = report.cells
    for cell in fits:
        assert (cell.status, cell.detail) == ("failed", "numerically singular system at pivot 3")
        assert cell.wall_time_s is None
    assert (slope.variant, slope.status, slope.slope) == ("slope", "failed", None)
    assert slope.detail == "fewer than two timing cells above resolution"


def test_scaling_study_flags_fits_below_timing_resolution(monkeypatch):
    monkeypatch.setattr(bench, "perf_counter", lambda: 12.5)  # every fit takes 0 s
    report = run_study(ExperimentSpec(study="scaling", node_counts=(25, 121)))
    *fits, slope = report.cells
    for cell in fits:
        assert cell.status == "flagged: below timing resolution"
        assert cell.ok and cell.wall_time_s == 0.0
    assert (slope.status, slope.detail) == ("failed", "fewer than two timing cells above resolution")
    assert not report.all_ok


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


def _report(cells) -> ExperimentReport:
    return ExperimentReport(
        study="franke", digest="0123456789", seed=0, notes=("a note",), cells=cells
    )


def _same(a, b) -> bool:
    """Equal and of one type; floats compared bit for bit."""
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


_opt_int = st.none() | st.integers(min_value=-(2**63), max_value=2**63)
_opt_float = st.none() | st.floats(allow_nan=False)
_cells = st.builds(
    CellRecord,
    study=st.sampled_from(STUDIES),
    variant=st.text(),
    n=_opt_int,
    objective=st.text(),
    epsilon=_opt_float,
    alpha=_opt_float,
    beta=_opt_float,
    rms=_opt_float,
    loocv_cost=_opt_float,
    condition_number=_opt_float,
    negative_count=_opt_int,
    wall_time_s=_opt_float,
    slope=_opt_float,
    status=st.text(),
    detail=st.text(),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cells=st.lists(_cells, max_size=4))
@example(cells=[CellRecord(study="fault", variant="", status="", detail="")])
@example(
    cells=[
        CellRecord(
            study="spectra", variant="sweep:hybrid+poly", n=-1, condition_number=float("inf"),
            negative_count=0, detail='a, "quoted"\r\nline\nbreak,',
        )
    ]
)
def test_report_csv_round_trips_every_field(tmp_path, cells):
    path = tmp_path / "report.csv"
    write_report_csv(path, _report(cells))
    got = read_report_csv(path)
    assert len(got) == len(cells)
    for a, b in zip(got, cells):
        for f in fields(CellRecord):
            assert _same(getattr(a, f.name), getattr(b, f.name)), f.name


def _rewritten(tmp_path, cells, edit):
    """Path of a report CSV of ``cells`` whose lines ``edit`` rewrote."""
    path = tmp_path / "report.csv"
    write_report_csv(path, _report(cells))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return path


def test_report_csv_rejects_malformed_rows(tmp_path):
    cells = [
        CellRecord(study="franke", variant="hybrid", n=25),
        CellRecord(study="franke", variant="cubic", n=49),
    ]
    # lines: 2 notes, header, then the rows
    short = _rewritten(tmp_path, cells, lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]])
    with pytest.raises(ConfigError, match=r"report\.csv:5: expected 15 fields, got 14"):
        read_report_csv(short)
    bad_n = _rewritten(tmp_path, cells, lambda lines: lines[:4] + [lines[4].replace(",49,", ",x,")])
    with pytest.raises(ConfigError, match=r"report\.csv:5: bad numeric field in .*'x'"):
        read_report_csv(bad_n)


def test_report_csv_goes_to_a_stream_as_to_a_file(tmp_path):
    report = _report([CellRecord(study="franke", variant="hybrid", n=25, rms=0.125)])
    stream = io.StringIO()
    write_report_csv(stream, report)
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    assert stream.getvalue().encode("utf-8") == path.read_bytes()
    stream.seek(0)
    assert read_report_csv(stream) == read_report_csv(path) == report.cells


def test_report_csv_that_is_not_utf8_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(path, _report([CellRecord(study="franke", variant="h\u00e9", n=25)]))
    path.write_bytes(path.read_bytes().replace("\u00e9".encode("utf-8"), b"\xe9"))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
        read_report_csv(path)


@pytest.mark.parametrize(
    "text", ["", "# study: franke\n", "x1,x2\r\n0,1\r\n", "study,variant\r\nfranke,hybrid\r\n"]
)
def test_read_report_csv_refuses_a_file_that_is_not_a_report(tmp_path, text):
    path = tmp_path / "points.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not a report CSV$"):
        read_report_csv(path)


def test_augmented_rms_cell_above_the_brute_force_cap_takes_no_loocv_cost():
    n = 17 * 17
    assert n > bench._BRUTE_LOOCV_MAX_N
    spec = ExperimentSpec(
        study="franke", node_counts=(n,), variants=("hybrid+poly",), eval_grid_n=5,
        pso=PsoConfig(swarm_size=2, generations=1),
    )
    (cell,) = run_study(spec).cells
    assert cell.ok and cell.rms is not None and cell.loocv_cost is None


@pytest.mark.parametrize("variant", ["cubic", "gaussian", "hybrid"])
def test_a_search_that_finds_no_finite_cost_raises(variant):
    # every leave-one-out error is finite, but their norm overflows
    points = make_halton_set(20, 2)
    points = points.with_values(1e200 * np.sin(7 * points.coords[:, 0]))
    spec = ObjectiveSpec.loocv()
    data = prepare_search(spec, points)
    with pytest.raises(NumericalBreakdownError, match="^the search found no finite cost: its best"):
        bench._optimize_variant(points, data, spec, SMALL_PSO, variant, seed=0)


def test_an_rms_cell_reports_its_search_best_cost_bit_for_bit(monkeypatch):
    bests, search = [], bench.pso_minimize

    def recorded(objective, config):
        result = search(objective, config)
        bests.append(result.best_value)
        return result

    monkeypatch.setattr(bench, "pso_minimize", recorded)
    spec = ExperimentSpec(
        study="franke", node_counts=(25,), variants=("gaussian", "hybrid", "hybrid+poly"),
        eval_grid_n=10, pso=SMALL_PSO,
    )
    cells = run_study(spec).cells
    assert len(bests) == 3 and all(cell.ok for cell in cells)
    for cell, best in zip(cells, bests):
        assert _same(cell.rms, best), cell.variant


def test_loocv_garnish_of_a_kernel_that_breaks_down_is_none():
    points = bench._truth_grid(4, franke)
    flat = KernelSpec.hybrid(1e-4, 1.0, 0.0)  # a flat Gaussian: singular
    data = prepare_search(ObjectiveSpec.loocv(), points)
    assert bench._loocv_garnish(points, data, flat, False) is None


def test_sweep_without_a_hybrid_cell_anchors_on_default_weights():
    spec = ExperimentSpec(
        study="franke", node_counts=(16,), variants=("cubic",), eval_grid_n=5, sweep_points=2
    )
    sweep = [c for c in run_study(spec).cells if c.variant.startswith("sweep:hybrid")]
    assert len(sweep) == 4
    assert all((c.alpha, c.beta) == (0.7, 1e-6) for c in sweep)


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
        ExperimentSpec(study="spectra", node_counts=(25,), pso=SMALL_PSO),
        ExperimentSpec(study="spectra", node_counts=(25,), params_per_n={25: (3.0, 0.8, 1e-6)}),
        pytest.param(
            ExperimentSpec(
                study="spectra", node_counts=(25,), variants=("gaussian",), pso=SMALL_PSO
            ),
            id="spectra-gaussian",
        ),
        pytest.param(
            ExperimentSpec(
                study="spectra", node_counts=(25,), variants=("gaussian",),
                params_per_n={25: (3.0, 0.8, 1e-6)},
            ),
            id="spectra-gaussian-pinned",
        ),
    ],
    ids=lambda spec: spec.study + ("-pinned" if spec.params_per_n else ""),
)
def test_cells_match_the_public_fit_chain(spec):
    # Cells fit, take the spectrum and the LOOCV cost on one distance matrix;
    # each number must equal what the public calls give for the cell's kernel.
    # Spectra cells take only the spectrum.
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
        truth_values = truth(grid.coords[:, 0], grid.coords[:, 1])
    checked = [c for c in report.cells if c.status == "ok"]
    assert checked
    if spec.study == "spectra":
        assert [c.variant for c in report.cells] == list(spec.variants)
    for cell in checked:
        variant = cell.variant.removeprefix("sweep:")
        augmented = variant.endswith("+poly")
        kind = variant.removesuffix("+poly")
        kernel = KernelSpec(kind, cell.epsilon, cell.alpha, cell.beta)
        model = fit(points, kernel, augmented=augmented)
        spectrum = spectral_report(assemble(points, kernel, augmented=augmented))
        assert cell.condition_number == spectrum.condition_number
        assert cell.negative_count == spectrum.negative_count
        if spec.study == "spectra":
            assert cell.rms is None and cell.loocv_cost is None
            continue
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
