"""Tests of the benchmark itself, at tiny sizes."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import hybridrbf  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402

TINY = {
    "franke-rms": {"grid": 5, "truth": 6, "swarm": 3, "generations": 1},
    "loocv-halton": {"n": 30, "swarm": 3, "generations": 1, "brute_points": 3},
    "loocv-augmented": {"n": 12, "swarm": 3, "generations": 1},
    "fault-pipeline": {"n": 20, "targets": 9, "swarm": 3, "generations": 1},
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _no_fresh_interpreters(monkeypatch):
    """Skip the fresh-interpreter import inside set-up; tested once below."""
    monkeypatch.setattr(harness, "import_seconds", lambda: 0.0)


def _run(name, tmp_path, trace):
    return harness.run_workload(name, 3, 0, trace, tmp_path, sizes=TINY[name])


def test_import_seconds_starts_a_fresh_interpreter(monkeypatch):
    monkeypatch.undo()
    assert harness.import_seconds() > 0.0


def test_metric_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == harness.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == harness.PER_LAYER


def test_workload_names_agree_everywhere():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    described = json.loads((HERE / "workloads.json").read_text())
    assert names == list(workloads.WORKLOADS)
    assert names == [w["name"] for w in described["workloads"]]
    assert set(names) == set(workloads.SIZES) == set(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_completes(name, tmp_path):
    plain = _run(name, tmp_path, trace=False)
    assert plain["correct"], plain["failures"]
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == list(harness.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = _run(name, tmp_path, trace=True)
    assert traced["correct"], traced["failures"]
    assert list(traced["metrics"]) == list(harness.PER_LAYER)
    assert (tmp_path / f"{name}-seed3-spans.csv").is_file()
    assert traced["metrics"]["objectives.objective_value.calls"]["value"] > 0


def test_traced_job_is_bit_identical(tmp_path):
    inputs = workloads.franke_rms_setup(TINY["franke-rms"], 5, tmp_path)
    plain = workloads.franke_rms_job(inputs)
    with Tracer() as tracer:
        traced = workloads.franke_rms_job(inputs)
    assert plain.digest() == traced.digest()
    assert {s[3] for s in tracer.spans} >= {"pso.pso_minimize", "interpolation.fit"}


def _module_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "hybridrbf" or name.startswith("hybridrbf.")
        for attr, value in vars(module).items()
    }


def test_tracer_rebinds_every_namespace_and_restores():
    before = _module_bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            # `from .interpolation import fit` copied the binding into objectives
            assert hybridrbf.objectives.fit is not before[("hybridrbf.objectives", "fit")]
            assert hybridrbf.fit.__wrapped_layer__ == "interpolation.fit"
            assert hybridrbf.cli.main.__wrapped_layer__ == "cli.main"
            raise RuntimeError("leave the block early")
    assert tracer.restored()
    after = _module_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_stopwatch_scales_by_reference_samples_and_restores_sigalrm():
    class TwiceAsSlow:
        samples = 0

        def sample(self):
            self.samples += 1
            return 2.0

    speed = TwiceAsSlow()
    handler = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.Stopwatch(speed)
    clock.start()
    time.sleep(3.5 * hostspeed.SEGMENT_S)
    clock.stop()
    clock.close()
    assert speed.samples >= 4  # start, three timer segments, stop
    assert clock.raw_s >= 3.5 * hostspeed.SEGMENT_S
    assert clock.scaled_s == pytest.approx(clock.raw_s / 2.0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_self_time_excludes_children():
    spans = [
        [0, -1, -1, "outer", 0.0, 10.0, 0],
        [1, 0, -1, "inner", 1.0, 4.0, 5],
        [2, 0, -1, "inner", 5.0, 6.0, 7],
    ]
    totals = layer_totals(spans)
    assert totals["outer"]["self_s"] == pytest.approx(6.0)
    assert totals["inner"] == {"calls": 2, "work": 12, "self_s": pytest.approx(4.0)}


def _nudged(reference):
    def wrong(*args):
        return np.nextafter(reference(*args), np.inf)

    return wrong


WRONG_REFERENCES = {
    "franke-rms": ("franke_rms_reference", _nudged),
    "loocv-halton": (
        "loocv_halton_reference",
        lambda ref: lambda *args: ref(*args) * (1.0 + 1e-3),
    ),
    "loocv-augmented": ("loocv_augmented_reference", _nudged),
    "fault-pipeline": ("fault_pipeline_reference", lambda ref: lambda *args: ref(*args) + 1),
}


@pytest.mark.parametrize("name", list(TINY))
def test_wrong_reference_fails_the_check(name, tmp_path, monkeypatch):
    attr, corrupt = WRONG_REFERENCES[name]
    monkeypatch.setattr(workloads, attr, corrupt(getattr(workloads, attr)))
    record = _run(name, tmp_path, trace=False)
    assert not record["correct"]
    assert record["failed"] >= 1
    assert record["failures"]
    assert not any("Traceback" in failure for failure in record["failures"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "franke-rms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_predictions_name_declared_metrics():
    described = json.loads((HERE / "workloads.json").read_text())
    names = {w["name"] for w in described["workloads"]}
    end_to_end = set(harness.END_TO_END)
    for prediction in described["predictions"]:
        assert set(prediction["layer_metrics"]) <= set(harness.PER_LAYER)
        for workload, metrics in prediction["moves"].items():
            assert workload in names
            assert set(metrics) <= end_to_end | set(harness.PER_LAYER)
