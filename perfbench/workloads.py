"""The four benchmark workloads: inputs, one timed job, and its output check.

Every call into the program goes through a ``hybridrbf`` module attribute
(``hb.fit``, ``hb.cli.main``), never through a name bound here, so the
tracer's rebinding sees the benchmark's own calls as well as the program's
internal ones.  Each workload's reference function is the slow path its
check compares against.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hybridrbf as hb
import hybridrbf.cli  # noqa: F401  (hb.cli.main is a traced layer)
from hostspeed import Stopwatch
from hybridrbf.bench import franke, synthetic_fault_surface

# Criterion 4's tolerance on max |rippa - brute| / max |brute|, and the
# condition estimate up to which criterion 4 applies it: beyond about 1e10
# neither path keeps eight correct digits.
RIPPA_RTOL = 1e-8
RIPPA_MAX_CONDITION = 1e10

# Sizes are chosen so that one job takes one to five seconds on a 2-core
# machine, so a 25-second run repeats it four to fifteen times.  The fault
# pipeline's search is 20 x 60 rather than criterion 10's 20 x 5: its trials
# take about a millisecond each, and only a search of a second or more gives
# a trial rate that repeats from run to run.
SIZES = {
    "franke-rms": {"grid": 25, "truth": 40, "swarm": 4, "generations": 2},
    "loocv-halton": {"n": 1024, "swarm": 4, "generations": 2, "brute_points": 3},
    "loocv-augmented": {"n": 100, "swarm": 6, "generations": 2},
    "fault-pipeline": {"n": 78, "targets": 501, "swarm": 20, "generations": 60},
}

# A mid-box kernel for warm-up trials.
WARMUP_POSITION = (5.5, 0.7, 1e-6)


@dataclass
class Job:
    """What one timed job did: times, counts and the numbers it produced.

    ``wall_s`` and ``search_s`` are raw seconds; ``ref_wall_s`` and
    ``ref_search_s`` the same at the reference host speed (``hostspeed``).
    """

    wall_s: float
    ref_wall_s: float
    trials: int
    search_s: float
    ref_search_s: float
    sentinel: int = 0
    operations: int = 0
    failed_operations: int = 0
    eval_points: int = 0
    eval_s: float = 0.0
    outcome: dict = field(default_factory=dict)

    def digest(self) -> str:
        """SHA-256 over the outcome, bit for bit."""
        h = hashlib.sha256()
        for key in sorted(self.outcome):
            value = self.outcome[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
        return h.hexdigest()


class CountingObjective:
    """The objective callable plus the benchmark's trial and sentinel counts."""

    def __init__(self, objective):
        self.objective = objective
        self.trials = 0
        self.sentinel = 0

    def __call__(self, position) -> float:
        cost = self.objective(position)
        self.trials += 1
        if cost == hb.SENTINEL_COST:
            self.sentinel += 1
        return cost


@dataclass
class SearchInputs:
    points: object
    spec: object
    sizes: dict
    seed: int
    brute_indices: np.ndarray | None = None


def _franke_points(nodes):
    return nodes.with_values(franke(nodes.coords[:, 0], nodes.coords[:, 1]))


def job_seed(run_seed: int, index: int) -> int:
    """PSO seed of a run's index-th job.

    Trial cost depends on where the swarm goes (for one, exp(-(eps r)^2)
    underflows to subnormals at large epsilon), and one 18-trial path costs
    up to a fifth more than another.  Giving every job of a run its own path
    makes a run's median a median over paths, not one path repeated.
    """
    return 1000 * run_seed + index


def _search(inputs: SearchInputs, index: int):
    counted = CountingObjective(hb.kernel_objective(inputs.spec, inputs.points))
    config = hb.PsoConfig(
        swarm_size=inputs.sizes["swarm"],
        generations=inputs.sizes["generations"],
        seed=job_seed(inputs.seed, index),
    )
    return hb.pso_minimize(counted, config), counted


def _search_outcome(result) -> dict:
    return {
        "best_position": result.best_position,
        "best_value": result.best_value,
        "gbest_val": result.trace.gbest_val,
        "gbest_pos": result.trace.gbest_pos,
    }


def _search_job(inputs: SearchInputs, tail, index: int, clock: Stopwatch | None) -> Job:
    clock = clock or Stopwatch()
    clock.start()
    result, counted = _search(inputs, index)
    clock.lap()
    search_s, ref_search_s = clock.raw_s, clock.scaled_s
    outcome = _search_outcome(result)
    if tail is not None:
        outcome.update(tail(inputs, hb.KernelSpec.hybrid(*result.best_position)))
    clock.stop()
    return Job(
        wall_s=clock.raw_s,
        ref_wall_s=clock.scaled_s,
        trials=counted.trials,
        search_s=search_s,
        ref_search_s=ref_search_s,
        sentinel=counted.sentinel,
        operations=counted.trials,
        outcome=outcome,
    )


def _warm_up(inputs: SearchInputs) -> None:
    hb.kernel_objective(inputs.spec, inputs.points)(np.array(WARMUP_POSITION))


def _best_kernel(outcome):
    return hb.KernelSpec.hybrid(*outcome["best_position"])


# --- franke-rms --------------------------------------------------------------


def franke_rms_setup(sizes, seed, workdir) -> SearchInputs:
    points = _franke_points(hb.make_tensor_grid(sizes["grid"], 2))
    grid = hb.make_evaluation_grid(sizes["truth"])
    truth = franke(grid.points[:, 0], grid.points[:, 1])
    inputs = SearchInputs(points, hb.ObjectiveSpec.rms(grid, truth), sizes, seed)
    _warm_up(inputs)
    return inputs


def _franke_rms_tail(inputs, kernel) -> dict:
    model = hb.fit(inputs.points, kernel)
    spectrum = hb.spectral_report(hb.assemble(inputs.points, kernel))
    rms = hb.rms_error(model, inputs.spec.grid, inputs.spec.truth_values)
    return {"coeffs": model.coeffs, "eigenvalues": spectrum.eigenvalues, "rms": rms}


def franke_rms_job(inputs, index=0, clock=None) -> Job:
    return _search_job(inputs, _franke_rms_tail, index, clock)


def franke_rms_reference(inputs, kernel) -> float:
    """RMS error of a fresh fit at the given kernel."""
    model = hb.fit(inputs.points, kernel)
    return hb.rms_error(model, inputs.spec.grid, inputs.spec.truth_values)


def franke_rms_check(inputs, outcome) -> list[str]:
    expected = franke_rms_reference(inputs, _best_kernel(outcome))
    if outcome["best_value"] != expected:
        return [f"best cost {outcome['best_value']!r} != fresh-fit rms {expected!r}"]
    return []


# --- loocv-halton ------------------------------------------------------------


def loocv_halton_setup(sizes, seed, workdir) -> SearchInputs:
    n = sizes["n"]
    points = _franke_points(hb.make_halton_set(n, 2))
    picks = np.random.default_rng(seed).choice(n, sizes["brute_points"], replace=False)
    inputs = SearchInputs(points, hb.ObjectiveSpec.loocv(), sizes, seed, np.sort(picks))
    _warm_up(inputs)
    return inputs


def _loocv_halton_tail(inputs, kernel) -> dict:
    model = hb.fit(inputs.points, kernel)
    return {"coeffs": model.coeffs, "condition": model.condition_estimate}


def loocv_halton_job(inputs, index=0, clock=None) -> Job:
    return _search_job(inputs, _loocv_halton_tail, index, clock)


def loocv_halton_reference(inputs, kernel, indices) -> np.ndarray:
    """Leave-one-out errors at ``indices`` by refitting without each point."""
    points = inputs.points
    errors = np.empty(len(indices))
    for j, k in enumerate(indices):
        keep = np.arange(points.n) != k
        model = hb.fit(hb.PointSet(points.coords[keep], points.values[keep]), kernel)
        errors[j] = points.values[k] - hb.evaluate(model, points.coords[k : k + 1])[0]
    return errors


def loocv_halton_check(inputs, outcome) -> list[str]:
    kernel = _best_kernel(outcome)
    rippa = hb.loocv_cost_rippa(inputs.points, kernel)
    failures = []
    if rippa.value != outcome["best_value"]:
        failures.append(f"best cost {outcome['best_value']!r} != rippa cost {rippa.value!r}")
    if outcome["condition"] > RIPPA_MAX_CONDITION:
        return failures
    brute = loocv_halton_reference(inputs, kernel, inputs.brute_indices)
    shortcut = rippa.per_point_errors[inputs.brute_indices]
    # Criterion 4 scales by the largest error over all N points.  Refitting
    # all N is too slow, so the shortcut's own vector stands in for that
    # scale; scaling by the sampled points alone would turn rounding on a
    # sample of tiny errors into a false failure.
    rel = float(np.max(np.abs(shortcut - brute)) / np.max(np.abs(rippa.per_point_errors)))
    if not rel <= RIPPA_RTOL:
        failures.append(f"rippa vs brute-force refit: relative error {rel:.3e} > {RIPPA_RTOL:g}")
    return failures


# --- loocv-augmented ---------------------------------------------------------


def loocv_augmented_setup(sizes, seed, workdir) -> SearchInputs:
    points = _franke_points(hb.make_halton_set(sizes["n"], 2))
    inputs = SearchInputs(points, hb.ObjectiveSpec.loocv(augmented=True), sizes, seed)
    _warm_up(inputs)
    return inputs


def loocv_augmented_job(inputs, index=0, clock=None) -> Job:
    return _search_job(inputs, None, index, clock)


def loocv_augmented_reference(inputs, kernel) -> float:
    return hb.loocv_cost_brute(inputs.points, kernel, augmented=True).value


def loocv_augmented_check(inputs, outcome) -> list[str]:
    expected = loocv_augmented_reference(inputs, _best_kernel(outcome))
    if outcome["best_value"] != expected:
        return [f"best cost {outcome['best_value']!r} != brute-force loocv {expected!r}"]
    return []


# --- fault-pipeline ----------------------------------------------------------


@dataclass
class PipelineInputs:
    workdir: Path
    sizes: dict
    seed: int

    def path(self, name: str) -> str:
        return str(self.workdir / name)


def _cli(argv) -> tuple[int, str]:
    """Run one in-process CLI command; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hb.cli.main([str(a) for a in argv])
    return code, err.getvalue()


def _read_best(path) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1]


def _pipeline(
    inputs: PipelineInputs, targets: str, swarm: int, generations: int, index: int, clock=None
) -> Job:
    """optimize, then fit at the best parameters, then eval; stops at a failure."""
    clock = clock or Stopwatch()
    p = inputs.path
    clock.start()
    codes = [
        _cli(["optimize", "--input", p("data.csv"), "--objective", "loocv",
              "--swarm", swarm, "--generations", generations,
              "--seed", job_seed(inputs.seed, index), "--output", p("best.csv")])
    ]
    clock.lap()
    search_s, ref_search_s = clock.raw_s, clock.scaled_s
    eval_s = 0.0
    if codes[-1][0] == 0:
        eps, alpha, beta, _cost = _read_best(p("best.csv"))
        codes.append(_cli(["fit", "--input", p("data.csv"), "--output", p("model.txt"),
                           "--kernel", "hybrid", "--epsilon", eps, "--alpha", alpha,
                           "--beta", beta]))
    clock.lap()
    if codes[-1][0] == 0 and len(codes) == 2:
        before = clock.raw_s
        codes.append(_cli(["eval", "--model", p("model.txt"), "--input", targets,
                           "--output", p("values.csv")]))
    clock.stop()
    if len(codes) == 3:
        eval_s = clock.raw_s - before
    outcome = {"exit_codes": [c for c, _ in codes], "stderr": [e for _, e in codes]}
    for name in ("best.csv", "model.txt", "values.csv"):
        if Path(p(name)).exists():
            outcome[name] = hashlib.sha256(Path(p(name)).read_bytes()).hexdigest()
    return Job(
        wall_s=clock.raw_s,
        ref_wall_s=clock.scaled_s,
        trials=swarm * (generations + 1),
        search_s=search_s,
        ref_search_s=ref_search_s,
        operations=3,
        failed_operations=sum(c != 0 for c, _ in codes) + 3 - len(codes),
        eval_points=inputs.sizes["targets"] ** 2 if eval_s else 0,
        eval_s=eval_s,
        outcome=outcome,
    )


def fault_pipeline_setup(sizes, seed, workdir) -> PipelineInputs:
    inputs = PipelineInputs(Path(workdir), sizes, seed)
    inputs.workdir.mkdir(parents=True, exist_ok=True)
    for name in ("best.csv", "model.txt", "values.csv"):
        Path(inputs.path(name)).unlink(missing_ok=True)
    hb.write_points_csv(inputs.path("data.csv"), synthetic_fault_surface(sizes["n"], seed=seed))
    lo, hi = hb.bench.FAULT_DOMAIN
    hb.write_points_csv(
        inputs.path("targets.csv"), hb.make_tensor_grid(sizes["targets"], 2, lo, hi)
    )
    hb.write_points_csv(inputs.path("warm.csv"), hb.make_tensor_grid(2, 2, lo, hi))
    warm = _pipeline(inputs, inputs.path("warm.csv"), swarm=2, generations=1, index=0)
    if warm.failed_operations:
        raise RuntimeError(f"warm-up pipeline failed: {warm.outcome['stderr']}")
    return inputs


def fault_pipeline_job(inputs, index=0, clock=None) -> Job:
    sizes = inputs.sizes
    return _pipeline(
        inputs, inputs.path("targets.csv"), sizes["swarm"], sizes["generations"], index, clock
    )


def fault_pipeline_reference(inputs) -> int:
    """Rows the eval command must write: one per target point."""
    return inputs.sizes["targets"] ** 2


def fault_pipeline_check(inputs, outcome) -> list[str]:
    failures = [
        f"command {i} exited {code}: {err.strip()}"
        for i, (code, err) in enumerate(zip(outcome["exit_codes"], outcome["stderr"]))
        if code != 0
    ]
    if len(outcome["exit_codes"]) != 3:
        failures.append(f"only {len(outcome['exit_codes'])} of 3 commands ran")
        return failures
    with open(inputs.path("values.csv"), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x1", "x2", "value"]:
        failures.append(f"values.csv header {rows[0]!r}")
    values = np.array([float(r[2]) for r in rows[1:]])
    expected = fault_pipeline_reference(inputs)
    if values.shape[0] != expected:
        failures.append(f"values.csv has {values.shape[0]} rows, expected {expected}")
    if not np.all(np.isfinite(values)):
        failures.append("values.csv holds non-finite values")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    job: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("franke-rms", franke_rms_setup, franke_rms_job, franke_rms_check),
        Workload("loocv-halton", loocv_halton_setup, loocv_halton_job, loocv_halton_check),
        Workload(
            "loocv-augmented", loocv_augmented_setup, loocv_augmented_job, loocv_augmented_check
        ),
        Workload(
            "fault-pipeline", fault_pipeline_setup, fault_pipeline_job, fault_pipeline_check
        ),
    )
}
