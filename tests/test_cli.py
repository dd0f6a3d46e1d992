import csv
import io
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hybridrbf
from hybridrbf import KernelSpec, PsoConfig, bench, cli, geometry
from hybridrbf.cli import build_parser, main
from hybridrbf.geometry import (
    PointSet,
    make_tensor_grid,
    min_separation,
    read_points_csv,
    write_points_csv,
)
from hybridrbf.interpolation import evaluate, fit, load_model
from hybridrbf.bench import synthetic_fault_surface

TWO_POINT_C = (1.1565176427496657, -0.4254590641196608)


def write_two_point_csv(path):
    write_points_csv(path, PointSet([[0.0], [1.0]], [1.0, 0.0]))


def test_fit_matches_analytic_solution(tmp_path, capsys):
    data = tmp_path / "two.csv"
    model_path = tmp_path / "model.txt"
    write_two_point_csv(data)
    rc = main([
        "fit", "--input", str(data), "--output", str(model_path),
        "--kernel", "gaussian", "--epsilon", "1.0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual max" in out and "condition estimate" in out
    model = load_model(model_path)
    assert model.coeffs[0] == pytest.approx(TWO_POINT_C[0], rel=1e-14)
    assert model.coeffs[1] == pytest.approx(TWO_POINT_C[1], rel=1e-14)


def test_fit_rejects_duplicate_rows(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    write_points_csv(data, PointSet([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0]))
    rc = main(["fit", "--input", str(data), "--output", str(tmp_path / "m.txt")])
    assert rc == 1
    assert "duplicate" in capsys.readouterr().err


def test_fit_missing_input_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    rc = main(["fit", "--input", str(missing), "--output", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing.csv" in err


def test_eval_unwritable_output_is_one_error_line(tmp_path, capsys):
    data, model_path = tmp_path / "two.csv", tmp_path / "model.txt"
    write_two_point_csv(data)
    assert main(["fit", "--input", str(data), "--output", str(model_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "no-such-dir" / "values.csv"
    rc = main(["eval", "--model", str(model_path), "--input", str(data), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "values.csv" in err


def test_fit_rejects_malformed_csv_with_line_number(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("x1,value\n0,1\n1\n")
    rc = main(["fit", "--input", str(data), "--output", str(tmp_path / "m.txt")])
    assert rc == 2
    assert ":3" in capsys.readouterr().err


def test_fit_augmented_patch_test(tmp_path):
    grid = make_tensor_grid(9, 2)
    data = tmp_path / "linear.csv"
    write_points_csv(data, grid.with_values((grid.coords[:, 0] + grid.coords[:, 1]) / 2))
    model_path = tmp_path / "model.txt"
    rc = main([
        "fit", "--input", str(data), "--output", str(model_path),
        "--kernel", "hybrid", "--epsilon", "1.0", "--alpha", "0.8",
        "--beta", "1e-7", "--augment",
    ])
    assert rc == 0
    model = load_model(model_path)
    probe = make_tensor_grid(13, 2)
    truth = (probe.coords[:, 0] + probe.coords[:, 1]) / 2
    assert np.max(np.abs(evaluate(model, probe) - truth)) <= 1e-10


def test_eval_reproduces_training_values(tmp_path):
    data = tmp_path / "two.csv"
    model_path = tmp_path / "model.txt"
    out_path = tmp_path / "out.csv"
    write_two_point_csv(data)
    assert main(["fit", "--input", str(data), "--output", str(model_path),
                 "--kernel", "gaussian", "--epsilon", "1.0"]) == 0
    assert main(["eval", "--model", str(model_path), "--input", str(data),
                 "--output", str(out_path)]) == 0
    result = read_points_csv(out_path)
    assert np.allclose(result.values, [1.0, 0.0], atol=1e-12)


def test_eval_empty_targets(tmp_path, capsys):
    data = tmp_path / "two.csv"
    model_path = tmp_path / "model.txt"
    write_two_point_csv(data)
    main(["fit", "--input", str(data), "--output", str(model_path),
          "--kernel", "gaussian", "--epsilon", "1.0"])
    empty = tmp_path / "targets.csv"
    empty.write_text("x1\n")
    out_path = tmp_path / "out.csv"
    rc = main(["eval", "--model", str(model_path), "--input", str(empty),
               "--output", str(out_path)])
    assert rc == 0
    assert out_path.read_text() == "x1,value\n"


def test_eval_empty_targets_header_is_crlf_like_every_values_csv(tmp_path):
    data, model_path = tmp_path / "two.csv", tmp_path / "model.txt"
    write_two_point_csv(data)
    main(["fit", "--input", str(data), "--output", str(model_path),
          "--kernel", "gaussian", "--epsilon", "1.0"])
    outputs = {}
    for name, targets in (("empty", "x1\n"), ("one", "x1\n0.5\n")):
        path = tmp_path / f"{name}.csv"
        path.write_text(targets)
        out = tmp_path / f"values-{name}.csv"
        assert main(["eval", "--model", str(model_path), "--input", str(path),
                     "--output", str(out)]) == 0
        outputs[name] = out.read_bytes()
    assert outputs["empty"] == b"x1,value\r\n"
    assert outputs["one"].startswith(outputs["empty"])


def test_eval_dimension_mismatch(tmp_path, capsys):
    data = tmp_path / "two.csv"
    model_path = tmp_path / "model.txt"
    write_two_point_csv(data)
    main(["fit", "--input", str(data), "--output", str(model_path),
          "--kernel", "gaussian", "--epsilon", "1.0"])
    wrong = tmp_path / "wrong.csv"
    write_points_csv(wrong, PointSet([[0.0, 0.0]]))
    rc = main(["eval", "--model", str(model_path), "--input", str(wrong),
               "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    assert "dimension" in capsys.readouterr().err
    # a header-only target file takes the same check
    wrong.write_text("x1,x2,x3\n")
    rc = main(["eval", "--model", str(model_path), "--input", str(wrong),
               "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: dimension mismatch: model has 1 coordinates, grid has 3\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_optimize_on_fault_data(tmp_path, capsys):
    data = tmp_path / "fault.csv"
    write_points_csv(data, synthetic_fault_surface(30, seed=2))
    best = tmp_path / "best.csv"
    trace = tmp_path / "trace.csv"
    rc = main([
        "optimize", "--input", str(data), "--objective", "loocv",
        "--swarm", "6", "--generations", "2", "--seed", "11",
        "--output", str(best), "--trace", str(trace),
    ])
    assert rc == 0
    header, row = best.read_text().splitlines()
    assert header == "epsilon,alpha,beta,cost"
    eps, alpha, beta, cost = map(float, row.split(","))
    assert 0.01 <= eps <= 20.0 and 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0
    assert np.isfinite(cost)
    trace_lines = trace.read_text().splitlines()
    assert trace_lines[0] == "generation,gbest_val,epsilon,alpha,beta"
    assert len(trace_lines) == 4  # header + generations 0..2


def test_optimize_is_reproducible(tmp_path):
    data = tmp_path / "fault.csv"
    write_points_csv(data, synthetic_fault_surface(25, seed=3))
    outputs = []
    for tag in ("a", "b"):
        best = tmp_path / f"best-{tag}.csv"
        rc = main([
            "optimize", "--input", str(data), "--objective", "loocv",
            "--swarm", "5", "--generations", "2", "--seed", "42",
            "--output", str(best),
        ])
        assert rc == 0
        outputs.append(best.read_bytes())
    assert outputs[0] == outputs[1]
    # 17-digit CRLF rows, byte for byte what csv.writer writes for them
    rows = list(csv.reader(io.StringIO(outputs[0].decode("utf-8"), newline="")))
    assert rows[0] == ["epsilon", "alpha", "beta", "cost"]
    oracle = io.StringIO(newline="")
    writer = csv.writer(oracle)
    writer.writerow(rows[0])
    writer.writerow(["%.17g" % float(field) for field in rows[1]])
    assert outputs[0] == oracle.getvalue().encode("utf-8")


@pytest.mark.parametrize("flags", [[], ["--augment"]])
def test_optimize_that_finds_no_finite_cost_is_one_error_line(tmp_path, capsys, recwarn, flags):
    # every leave-one-out error is finite, but their norm overflows
    points = hybridrbf.make_halton_set(20, 2)
    data, best, trace = tmp_path / "huge.csv", tmp_path / "best.csv", tmp_path / "trace.csv"
    write_points_csv(data, points.with_values(1e200 * np.sin(7 * points.coords[:, 0])))
    rc = main(["optimize", "--input", str(data), "--output", str(best), "--trace", str(trace),
               "--swarm", "4", "--generations", "2", *flags])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the search found no finite cost: its best trial cost the sentinel\n"
    assert not best.exists() and not trace.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_optimize_whose_trace_cannot_be_written_leaves_no_parameters(tmp_path, capsys):
    # fit reads best.csv, so a run that fails must not leave one behind
    best, trace = tmp_path / "best.csv", tmp_path / "nodir" / "trace.csv"
    rc = main(["optimize", "--truth", "linear", "--nodes", "16", "--swarm", "2",
               "--generations", "1", "--output", str(best), "--trace", str(trace)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not best.exists() and not trace.exists()


def test_optimize_rejects_unstable_config(tmp_path, capsys):
    data = tmp_path / "fault.csv"
    write_points_csv(data, synthetic_fault_surface(20, seed=1))
    rc = main([
        "optimize", "--input", str(data), "--c1", "3", "--c2", "2",
        "--output", str(tmp_path / "best.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "c1 + c2 < 4" in err
    # both violations on one error line
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "; stability requires (c1 + c2)/2 - 1 < w < 1" in err


def test_bench_rejects_unstable_config_on_one_error_line(tmp_path, capsys):
    out = tmp_path / "reports"
    rc = main([
        "bench", "--study", "franke", "--nodes", "25", "--out", str(out),
        "--c1", "3", "--c2", "2",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "c1 + c2 < 4" in err and "; stability requires (c1 + c2)/2 - 1 < w < 1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--truth", "franke", "--nodes", "-4", "--output", "{out}/best.csv"],
        ["bench", "--study", "franke", "--nodes", "-4", "--out", "{out}"],
    ],
    ids=["optimize", "bench"],
)
def test_negative_node_count_is_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main([arg.format(out=out) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: node count -4 is not a perfect square >= 4 (tensor grids)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--truth", "franke", "--nodes", "25", "--output", "{out}"],
        ["bench", "--study", "franke", "--nodes", "25", "--out", "{out}"],
    ],
    ids=["optimize", "bench"],
)
def test_negative_eps_min_is_one_error_line_before_any_search(
    tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.setattr(cli, "pso_minimize", None)  # a search would raise TypeError
    monkeypatch.setattr(bench, "pso_minimize", None)
    out = tmp_path / "out"
    for box, message in (
        (["--eps-min", "-5", "--eps-max", "-1"], "--eps-min must be >= 0, got -5"),
        (["--eps-min=-1e308", "--eps-max", "1e308"], "--eps-min must be >= 0, got -1e+308"),
        # a box of infinite width is refused too, not left to overflow the draw
        (["--eps-max", "inf"], "bounds[0] from 0.01 to inf has no finite width"),
        (["--eps-min", "inf", "--eps-max", "inf"], "bounds[0] from inf to inf has no finite width"),
    ):
        flags = box + ["--swarm", "2", "--generations", "1"]
        rc = main([arg.format(out=out) for arg in argv] + flags)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--fault-grid-n", "1"], "points_per_side must be >= 2, got 1"),
        (["--fault-points", "5"], "n_points must be >= 10, got 5"),
    ],
    ids=["grid-n", "points"],
)
def test_bad_fault_settings_fail_before_the_search(tmp_path, capsys, monkeypatch, flags, message):
    searches = []
    original = bench.pso_minimize

    def counting(*args, **kwargs):
        searches.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "pso_minimize", counting)
    out = tmp_path / "reports"
    argv = ["bench", "--study", "fault", "--swarm", "4", "--generations", "1", "--out", str(out)]
    assert main(argv + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not searches and not out.exists()


def test_optimize_rms_needs_truth(tmp_path, capsys):
    data = tmp_path / "fault.csv"
    write_points_csv(data, synthetic_fault_surface(20, seed=1))
    rc = main([
        "optimize", "--input", str(data), "--objective", "rms",
        "--output", str(tmp_path / "best.csv"),
    ])
    assert rc == 2
    assert "truth" in capsys.readouterr().err


def test_optimize_rms_needs_two_coordinates(tmp_path, capsys):
    data = tmp_path / "line.csv"
    write_points_csv(data, PointSet([[0.0], [0.5], [1.0]], [1.0, 2.0, 3.0]))
    rc = main([
        "optimize", "--input", str(data), "--objective", "rms", "--truth", "franke",
        "--output", str(tmp_path / "best.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2 coordinates" in err


def test_optimize_synthetic_franke(tmp_path):
    best = tmp_path / "best.csv"
    rc = main([
        "optimize", "--truth", "franke", "--nodes", "25", "--objective", "rms",
        "--swarm", "8", "--generations", "3", "--seed", "1",
        "--grid-n", "20", "--output", str(best),
    ])
    assert rc == 0
    assert best.exists()


def test_bench_linear_cell_count(tmp_path):
    rc = main([
        "bench", "--study", "linear-reproduction", "--nodes", "25,81",
        "--swarm", "6", "--generations", "2", "--out", str(tmp_path),
    ])
    assert rc == 0
    csvs = list(tmp_path.glob("linear-reproduction-*.csv"))
    assert len(csvs) == 1
    rows = [
        line for line in csvs[0].read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(rows) == 1 + 6  # header + 3 variants x 2 node counts


def test_bench_spectra_row_counts(tmp_path):
    rc = main([
        "bench", "--study", "spectra", "--nodes", "25",
        "--swarm", "4", "--generations", "2", "--out", str(tmp_path),
    ])
    assert rc == 0
    plain = next(tmp_path.glob("spectra-*-n25-plain.csv"))
    augmented = next(tmp_path.glob("spectra-*-n25-augmented.csv"))
    assert len(plain.read_text().splitlines()) == 1 + 25
    assert len(augmented.read_text().splitlines()) == 1 + 28


def test_bench_scaling_slope_row(tmp_path):
    rc = main([
        "bench", "--study", "scaling", "--nodes", "25,121", "--out", str(tmp_path),
    ])
    assert rc == 0
    csv_path = next(tmp_path.glob("scaling-*.csv"))
    assert any("slope" in line for line in csv_path.read_text().splitlines())


def _capture_specs(monkeypatch) -> list:
    """Stub ``run_study`` in the CLI; return the list the specs it gets land in."""
    specs = []

    def capture(spec):
        specs.append(spec)
        return bench.ExperimentReport(spec.study, "", spec.seed, (), [])

    monkeypatch.setattr(cli, "run_study", capture)
    return specs


@pytest.mark.parametrize("study", bench.STUDIES)
def test_bench_holds_no_study_defaults(tmp_path, monkeypatch, study):
    specs = _capture_specs(monkeypatch)
    assert main(["bench", "--study", study, "--out", str(tmp_path)]) == 0
    assert specs == [
        bench.ExperimentSpec(study=study, pso=PsoConfig(), seed=0, output_dir=str(tmp_path))
    ]


@pytest.mark.parametrize(
    "study, flags, field",
    [
        ("fault", ["--variants", "hybrid"], "variants"),
        ("fault", ["--nodes", "25"], "node_counts"),
        ("fault", ["--full"], "node_counts"),
        ("scaling", ["--variants", "hybrid"], "variants"),
        ("fault", ["--objective", "rms"], "objective"),
        ("fault", ["--grid-n", "7"], "eval_grid_n"),
        ("fault", ["--sweep-points", "4"], "sweep_points"),
        ("fault", ["--objective", "rms", "--grid-n", "7", "--sweep-points", "4"], "eval_grid_n"),
        ("scaling", ["--objective", "rms"], "objective"),
        ("scaling", ["--fault-points", "30"], "fault_points"),
        ("objective-comparison", ["--objective", "rms"], "objective"),
        ("franke", ["--fault-grid-n", "11"], "fault_grid_n"),
        ("linear-reproduction", ["--sweep-points", "4"], "sweep_points"),
    ],
    ids=[
        "fault-variants", "fault-nodes", "fault-full", "scaling-variants", "fault-objective",
        "fault-grid-n", "fault-sweep-points", "fault-three-flags", "scaling-objective",
        "scaling-fault-points", "objective-comparison-objective", "franke-fault-grid-n",
        "linear-reproduction-sweep-points",
    ],
)
def test_bench_refuses_flags_the_study_does_not_read(
    tmp_path, capsys, monkeypatch, study, flags, field
):
    searches = []
    monkeypatch.setattr(bench, "pso_minimize", lambda *args, **kwargs: searches.append(1))
    out = tmp_path / "out"
    # a small target grid, should a fault case get as far as the reconstruction
    small = ["--fault-grid-n", "11"] if study == "fault" else []
    rc = main(["bench", "--study", study, *flags, "--swarm", "2", "--generations", "1",
               *small, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {study} study takes no {field}, got ")
    assert err.count("\n") == 1
    assert not out.exists() and not searches


@pytest.mark.parametrize(
    "entry, field, value",
    [("objective = rms", "objective", "'rms'"), ("nodes = 25", "node_counts", "(25,)")],
    ids=["objective", "nodes"],
)
def test_bench_refuses_config_entries_the_study_does_not_read(
    tmp_path, capsys, entry, field, value
):
    config = tmp_path / "run.cfg"
    config.write_text(entry + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(config), "bench", "--study", "fault", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: the fault study takes no {field}, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "study, key",
    [("franke", "grid_n"), ("franke", "sweep_points"),
     ("fault", "fault_points"), ("fault", "fault_grid_n")],
)
@pytest.mark.parametrize("value", ["40.0", "2.5"])
def test_bench_refuses_a_non_integer_config_count(tmp_path, capsys, study, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    argv = ["--config", str(config), "bench", "--study", study, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {config}:1: bad value for {key}: '{value}'\n"
    assert not out.exists()


def test_optimize_still_reads_a_config_objective(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("objective = rms\n")
    data = tmp_path / "fault.csv"
    write_points_csv(data, synthetic_fault_surface(20, seed=1))
    argv = ["optimize", "--input", str(data), "--output", str(tmp_path / "best.csv")]
    # optimize defaults to loocv; the entry turns it to rms, which needs a truth
    assert main(["--config", str(config), *argv]) == 2
    assert capsys.readouterr().err == "error: rms objective needs --truth to define the error\n"


def test_bench_unknown_study_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench", "--study", "nonsense", "--out", "x"])
    assert err.value.code == 2


def test_config_file_precedence(tmp_path):
    data = tmp_path / "two.csv"
    write_two_point_csv(data)
    config = tmp_path / "run.cfg"
    config.write_text("kernel = hybrid\nepsilon = 2.5\nalpha = 0.8\nbeta = 1e-6\n")
    model_path = tmp_path / "model.txt"
    rc = main(["--config", str(config), "fit", "--input", str(data),
               "--output", str(model_path)])
    assert rc == 0
    assert load_model(model_path).kernel.epsilon == 2.5
    # explicit flags beat config entries
    rc = main(["--config", str(config), "fit", "--input", str(data),
               "--output", str(model_path), "--epsilon", "9.0"])
    assert rc == 0
    assert load_model(model_path).kernel.epsilon == 9.0


@pytest.mark.parametrize("entry, augmented", [("augment = true", True), ("augment = False", False)])
def test_config_augment_entry_is_applied(tmp_path, entry, augmented):
    data, model_path = tmp_path / "fault.csv", tmp_path / "model.txt"
    write_points_csv(data, synthetic_fault_surface(12, seed=1))
    config = tmp_path / "run.cfg"
    config.write_text(entry + "\n")
    rc = main(["--config", str(config), "fit", "--input", str(data), "--output", str(model_path)])
    assert rc == 0
    assert load_model(model_path).augmented is augmented


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    data = tmp_path / "two.csv"
    write_two_point_csv(data)
    config = tmp_path / "run.cfg"
    config.write_text("bogus = 1\n")
    rc = main(["--config", str(config), "fit", "--input", str(data),
               "--output", str(tmp_path / "m.txt")])
    assert rc == 2
    assert "unknown flag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, argv",
    [
        ("study = foo", ["bench", "--out", "reports"]),
        ("truth = foo", ["optimize", "--nodes", "25", "--output", "best.csv"]),
    ],
)
def test_config_file_values_obey_flag_choices(tmp_path, capsys, entry, argv):
    config = tmp_path / "run.cfg"
    config.write_text(f"# choices apply to config values too\n{entry}\n")
    rc = main(["--config", str(config), *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:2: ") and err.count("\n") == 1
    assert "'foo'" in err


@pytest.mark.parametrize("entry", ["nodes = 25,36", "truth = foo", "grid_n = x"])
def test_config_entry_only_another_command_takes_is_left_unused(tmp_path, entry):
    data = tmp_path / "two.csv"
    write_two_point_csv(data)
    config = tmp_path / "run.cfg"
    config.write_text(entry + "\n")
    rc = main(["--config", str(config), "fit", "--input", str(data),
               "--output", str(tmp_path / "m.txt")])
    assert rc == 0


def test_config_entry_is_read_as_the_running_command_reads_its_flag(tmp_path, capsys, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("nodes = 16,25\n")
    specs = _capture_specs(monkeypatch)
    argv = ["--config", str(config), "bench", "--study", "franke", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert specs[0].node_counts == (16, 25)
    # optimize's --nodes is one integer, so the same entry is refused there
    assert main(["--config", str(config), "optimize", "--truth", "franke",
                 "--output", str(tmp_path / "best.csv")]) == 2
    assert capsys.readouterr().err == f"error: {config}:1: bad value for nodes: '16,25'\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        ("augment = yes", "augment must be true or false"),
        ("epsilon 2.5", "expected 'flag = value'"),
        ("= 2.5", "expected 'flag = value'"),
    ],
)
def test_config_line_errors_name_the_line(tmp_path, capsys, entry, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"# fit settings\n{entry}\n")
    model = tmp_path / "m.txt"
    rc = main(["--config", str(config), "fit", "--input", "two.csv", "--output", str(model)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {config}:2: {message}\n"
    assert not model.exists()


@pytest.mark.parametrize("command", ["fit", "optimize"])
def test_points_without_a_value_column_are_one_error_line(tmp_path, capsys, command):
    data = tmp_path / "sites.csv"
    write_points_csv(data, PointSet([[0.0], [1.0], [2.0]]))
    out = tmp_path / "out.txt"
    assert main([command, "--input", str(data), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {data}: {command} needs a value column\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--truth", "franke"], ["--nodes", "25"]])
def test_optimize_without_data_is_one_error_line(tmp_path, capsys, flags):
    out = tmp_path / "best.csv"
    assert main(["optimize", *flags, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: optimize needs --input, or --truth together with --nodes\n"
    assert not out.exists()


def test_fit_augment_with_too_few_points_is_one_error_line(tmp_path, capsys):
    data = tmp_path / "two.csv"
    write_points_csv(data, PointSet([[0.0, 0.0], [1.0, 0.5]], [1.0, 2.0]))
    model = tmp_path / "m.txt"
    assert main(["fit", "--input", str(data), "--output", str(model), "--augment"]) == 2
    assert capsys.readouterr().err == "error: augmented fit needs at least 3 points, got 2\n"
    assert not model.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nodes", "25,x"], "expected comma-separated integers, got '25,x'"),
        (["--nodes", "16,16", "--variants", "hybrid,hybrid"],
         "node_counts repeats 16; each entry may appear once"),
        (["--nodes", "16", "--variants", "hybrid,cubic,hybrid"],
         "variants repeats 'hybrid'; each entry may appear once"),
    ],
    ids=["not-integers", "repeated-node-count", "repeated-variant"],
)
def test_bad_bench_lists_are_one_error_line_before_any_work(
    tmp_path, capsys, monkeypatch, flags, message
):
    monkeypatch.setattr(bench, "pso_minimize", None)  # a search would raise TypeError
    out = tmp_path / "out"
    assert main(["bench", "--study", "spectra", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bench_prints_each_failed_cell_and_exits_one(tmp_path, capsys):
    # a Gaussian box pinned at epsilon = 0 makes every trial singular
    rc = main(["bench", "--study", "franke", "--nodes", "16", "--variants", "gaussian",
               "--eps-min", "0", "--eps-max", "0", "--swarm", "2", "--generations", "1",
               "--grid-n", "5", "--out", str(tmp_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err.startswith("cell failed: variant=gaussian n=16: the search found no finite cost")
    assert err.count("\n") == 1
    assert out.count("wrote ") == 2  # the report still lists the failed cell


def test_bench_scaling_below_timing_resolution_fails_its_slope_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "perf_counter", lambda: 12.5)  # every fit takes 0 s
    rc = main(["bench", "--study", "scaling", "--nodes", "4,16", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "cell failed: variant=slope n=None: fewer than two timing cells above resolution\n"


@pytest.mark.parametrize(
    "kind, record",
    [
        ("gaussian", "gaussian,2.5,1.0,0.0"),
        ("cubic", "cubic,0.0,0.0,1.0"),
        ("hybrid", "hybrid,2.5,0.8,1e-06"),
        ("multiquadric", "multiquadric,2.5,1.0,0.0"),
        ("inverse-multiquadric", "inverse-multiquadric,2.5,1.0,0.0"),
        ("thin-plate-spline", "thin-plate-spline,0.0,1.0,0.0"),
        ("wendland", "wendland,2.5,1.0,0.0"),
    ],
)
def test_fit_kernel_keeps_the_parameters_its_kind_reads(tmp_path, kind, record):
    data, model_path = tmp_path / "fault.csv", tmp_path / "model.txt"
    write_points_csv(data, synthetic_fault_surface(30, seed=4))
    rc = main([
        "fit", "--input", str(data), "--output", str(model_path), "--kernel", kind,
        "--epsilon", "2.5", "--alpha", "0.8", "--beta", "1e-6",
    ])
    assert rc == 0
    assert f"kernel: {record}" in model_path.read_text().splitlines()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kernel", "cubic", "--epsilon", "-1"], "epsilon must be finite and >= 0, got -1.0"),
        (["--kernel", "gaussian", "--alpha", "0", "--beta", "0"],
         "alpha and beta cannot both be zero (zero kernel)"),
        (["--kernel", "thin-plate-spline", "--beta", "2"], "beta must lie in [0, 1], got 2.0"),
    ],
    ids=["cubic-epsilon", "gaussian-weights", "thin-plate-spline-beta"],
)
def test_fit_checks_every_kernel_flag_its_kind_ignores(tmp_path, capsys, flags, message):
    data, model_path = tmp_path / "fault.csv", tmp_path / "model.txt"
    write_points_csv(data, synthetic_fault_surface(30, seed=4))
    assert main(["fit", "--input", str(data), "--output", str(model_path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model_path.exists()


def test_eval_output_round_trips_through_reader(tmp_path):
    grid = make_tensor_grid(4, 2)
    data = tmp_path / "data.csv"
    write_points_csv(data, grid.with_values(grid.coords[:, 0] + grid.coords[:, 1]))
    model_path = tmp_path / "model.txt"
    out_path = tmp_path / "out.csv"
    main(["fit", "--input", str(data), "--output", str(model_path),
          "--kernel", "hybrid", "--epsilon", "2.0", "--alpha", "0.8", "--beta", "0.1"])
    main(["eval", "--model", str(model_path), "--input", str(data),
          "--output", str(out_path)])
    again = read_points_csv(out_path)
    assert again.n == 16 and again.values is not None


def count_distance_calls(monkeypatch) -> list:
    """Count pairwise_distances calls through every hybridrbf namespace."""
    calls = []
    original = geometry.pairwise_distances

    def counting(a, b):
        result = original(a, b)
        calls.append(result.shape)
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("hybridrbf") and getattr(module, "pairwise_distances", None) is original:
            monkeypatch.setattr(module, "pairwise_distances", counting)
    return calls


@pytest.mark.parametrize("augment", [False, True])
def test_fit_builds_one_distance_matrix_and_prints_the_same(tmp_path, capsys, monkeypatch, augment):
    points = synthetic_fault_surface(30, seed=4)
    data, model_path = tmp_path / "fault.csv", tmp_path / "model.txt"
    write_points_csv(data, points)
    kernel = KernelSpec.hybrid(2.5, 0.8, 1e-3)
    flags = ["--epsilon", "2.5", "--alpha", "0.8", "--beta", "0.001"]
    # The printout of one fit, evaluate and min_separation, each on its own matrix.
    model = fit(points, kernel, augmented=augment)
    residual = float(np.max(np.abs(evaluate(model, points) - points.values)))
    expected = (
        f"fit: n=30 dim=2 kernel={kernel.to_record()}\n"
        f"min separation: {min_separation(points):.6g}\n"
        f"data-site residual max: {residual:.6g}\n"
        f"condition estimate: {model.condition_estimate:.6g}\n"
        f"model written to {model_path}\n"
    )
    calls = count_distance_calls(monkeypatch)
    argv = ["fit", "--input", str(data), "--output", str(model_path), *flags]
    assert main(argv + (["--augment"] if augment else [])) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == expected
    assert np.array_equal(load_model(model_path).coeffs, model.coeffs)


def test_searched_spectra_builds_one_data_distance_matrix_per_cell(tmp_path, monkeypatch):
    calls = count_distance_calls(monkeypatch)
    argv = ["bench", "--study", "spectra", "--nodes", "81", "--swarm", "4", "--generations", "1"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    # each cell's search builds the 81 x 81 data distances; its spectrum reuses them
    assert calls.count((81, 81)) == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_code_blocks(section: str, language: str) -> list[str]:
    """The fenced ``language`` blocks of the README section titled ``section``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    end = text.find("\n## ", start + 1)
    return re.findall(rf"^```{language}\n(.*?)^```", text[start:end], flags=re.S | re.M)


def test_readme_commands_parse(monkeypatch):
    commands = []
    for block in readme_code_blocks("Command line", "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "hybridrbf":
                commands.append(words[1:])
    assert len(commands) == 10  # fit, eval, two optimize runs, six bench studies
    parser = build_parser()
    specs = _capture_specs(monkeypatch)
    for words in commands:
        args = parser.parse_args(words)
        assert args.command == words[0]
        if args.command == "bench":
            # the spec the command builds must pass its checks
            assert args.func(args) == 0
    assert [spec.study for spec in specs] == list(bench.STUDIES)


def readme_default(value) -> str:
    """How the README's study table writes a default: a run of the full
    node-count table as its ends, no pinned triples as 'none pinned'."""
    if value == {}:
        return "none pinned"
    if not isinstance(value, tuple):
        return str(value)
    if len(value) > 3 and value[0] in bench.FULL_NODE_COUNTS:
        if value == tuple(n for n in bench.FULL_NODE_COUNTS if value[0] <= n <= value[-1]):
            return f"{value[0]} … {value[-1]}"
    return ", ".join(map(str, value))


def test_readme_study_table_matches_the_study_table():
    text = README.read_text(encoding="utf-8")
    start = text.index("| study | reads (default) |\n|---|---|\n")
    rows = {}
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("| "):
            break
        study, reads = (cell.strip() for cell in line.strip("|").split("|"))
        rows[study] = dict(re.findall(r"(\w+) \(([^)]*)\)", reads))
    assert rows == {
        study: {name: readme_default(default) for name, default in reads.items()}
        for study, (_, reads) in bench._STUDY_TABLE.items()
    }


def test_readme_library_example_runs():
    (block,) = readme_code_blocks("Library example", "python")
    namespace = {}
    exec(block, namespace)
    assert namespace["surface"].shape == (40 * 40,)


def run_fresh_python(*args, **env) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this package's source tree, with
    ``env`` added to the environment."""
    src = str(Path(hybridrbf.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


def test_overflowing_distances_are_one_error_line(tmp_path):
    data = tmp_path / "far.csv"
    write_points_csv(data, PointSet([[0.0, 0.0], [1e200, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0]))
    result = run_fresh_python(
        "-m", "hybridrbf", "fit", "--input", str(data), "--output", str(tmp_path / "m.txt")
    )
    assert result.returncode == 1
    assert result.stderr == "error: all distances must be finite\n"


# Prints the scipy modules a fresh interpreter has loaded.  In-process tests
# cannot see this: pytest imports scipy.linalg for its filterwarnings.
_PRINT_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_loads_no_scipy():
    """Importing scipy.linalg costs more than the rest of start-up, so the
    package imports it at its first factorization, not at its own import."""
    result = run_fresh_python(
        "-c", f"import sys, hybridrbf; {_PRINT_SCIPY}; import hybridrbf.cli; {_PRINT_SCIPY}"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]


def _fitted_model(tmp_path) -> tuple[Path, Path]:
    grid = make_tensor_grid(4, 2)
    data, model = tmp_path / "data.csv", tmp_path / "model.txt"
    write_points_csv(data, grid.with_values(np.sin(3 * grid.coords[:, 0]) + grid.coords[:, 1]))
    assert main(["fit", "--input", str(data), "--output", str(model),
                 "--kernel", "hybrid", "--epsilon", "2", "--alpha", "0.7", "--beta", "0.1"]) == 0
    return data, model


def test_help_eval_and_config_errors_load_no_scipy(tmp_path):
    data, model = _fitted_model(tmp_path)
    targets, out = tmp_path / "targets.csv", tmp_path / "values.csv"
    write_points_csv(targets, make_tensor_grid(9, 2))
    assert main(["eval", "--model", str(model), "--input", str(targets),
                 "--output", str(tmp_path / "expected.csv")]) == 0
    script = f"""
import contextlib, io, sys
from hybridrbf.cli import main
model, targets, out, data = sys.argv[1:]
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit as exc:
        codes.append(exc.code)
    codes.append(main(["eval", "--model", model, "--input", targets, "--output", out]))
    codes.append(main(["fit", "--input", data, "--output", out + ".model",
                       "--kernel", "cubic", "--epsilon", "-1"]))
print(codes)
{_PRINT_SCIPY}
"""
    result = run_fresh_python("-c", script, str(model), str(targets), str(out), str(data))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[0, 0, 2]", "[]"]
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_fit_in_a_fresh_interpreter_loads_scipy_and_writes_the_same_model(tmp_path):
    data, model = _fitted_model(tmp_path)
    fresh = tmp_path / "fresh.txt"
    script = """
import sys
from hybridrbf.cli import main
data, out = sys.argv[1:]
assert main(["fit", "--input", data, "--output", out,
             "--kernel", "hybrid", "--epsilon", "2", "--alpha", "0.7", "--beta", "0.1"]) == 0
print("scipy.linalg" in sys.modules)
"""
    result = run_fresh_python("-c", script, str(data), str(fresh))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True"
    assert fresh.read_bytes() == model.read_bytes()


def test_one_blas_thread_restores_the_count_of_a_first_scipy_load():
    """bench._one_blas_thread loads scipy itself when nothing has yet; on
    leaving, scipy's OpenBLAS runs at the count it started with."""
    threads = "ctypes.CDLL(_lapack().library).scipy_openblas_get_num_threads()"
    two = {"OPENBLAS_NUM_THREADS": "2"}  # a start count other than 1 where the host has 2 CPUs
    baseline = run_fresh_python(
        "-c", f"import ctypes; from hybridrbf.interpolation import _lapack; print({threads})", **two
    )
    assert baseline.returncode == 0, baseline.stderr
    script = f"""
import ctypes, sys
from hybridrbf import bench
from hybridrbf.interpolation import _lapack
{_PRINT_SCIPY}
with bench._one_blas_thread() as words:
    print(words, {threads})
print({threads})
"""
    result = run_fresh_python("-c", script, **two)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "1 BLAS thread 1", baseline.stdout.strip()]


def test_overflowing_kernel_values_are_one_error_line(tmp_path):
    data = tmp_path / "far.csv"
    write_points_csv(data, PointSet([[0.0, 0.0], [1e103, 0.0], [0.0, 1e103]], [1.0, 2.0, 3.0]))
    result = run_fresh_python(
        "-m", "hybridrbf", "fit", "--kernel", "cubic",
        "--input", str(data), "--output", str(tmp_path / "m.txt"),
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


def test_eval_overflowing_kernel_values_is_one_error_line(tmp_path, capsys):
    grid = make_tensor_grid(3, 2)
    data, model_path = tmp_path / "data.csv", tmp_path / "model.txt"
    write_points_csv(data, grid.with_values(grid.coords[:, 0]))
    assert main(["fit", "--input", str(data), "--output", str(model_path),
                 "--kernel", "cubic"]) == 0
    far = tmp_path / "far.csv"
    write_points_csv(far, PointSet([[1e105, 0.5]]))  # r**3 overflows
    out = tmp_path / "values.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        rc = main(["eval", "--model", str(model_path), "--input", str(far),
                   "--output", str(out)])
    # an overflow is a numerical failure, not a bad input: exit 1, no file
    assert rc == 1
    assert capsys.readouterr().err == "error: 1 of 1 evaluated values are not finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["fit", "--input", "{data}", "--output", "{out}"], "data"),
        (["optimize", "--input", "{data}", "--objective", "loocv", "--output", "{out}"], "data"),
        (["eval", "--model", "{model}", "--input", "{data}", "--output", "{out}"], "data"),
        (["eval", "--model", "{model}", "--input", "{data}", "--output", "{out}"], "model"),
        (["--config", "{config}", "fit", "--input", "{data}", "--output", "{out}"], "config"),
    ],
    ids=["fit-input", "optimize-input", "eval-input", "eval-model", "config"],
)
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, argv, bad):
    paths = {name: tmp_path / f"{name}.txt" for name in ("data", "model", "config", "out")}
    # 300 rows put the bad byte in the CSV reader's second decoded chunk,
    # after the header has been read
    write_points_csv(paths["data"], synthetic_fault_surface(300, seed=4))
    assert main(["fit", "--input", str(paths["data"]), "--output", str(paths["model"])]) == 0
    paths["config"].write_text("epsilon = 2.5\n")
    text = paths[bad].read_bytes()
    assert bad == "config" or len(text) > 16_384
    paths[bad].write_bytes(text[:-8] + b"\xff" + text[-8:])
    capsys.readouterr()
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {paths[bad]}: not UTF-8 text\n"
