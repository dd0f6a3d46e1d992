"""Benchmark harness: accuracy, conditioning, spectra, and cost studies.

Six studies, all seeded and deterministic, all emitting one CSV row per
experiment cell plus a human-readable table:

* linear-reproduction: optimized kernels interpolating f(x, y) = (x + y)/2;
  the polynomial-augmented hybrid reproduces it to machine precision.
* franke: convergence of optimized kernels on the Franke surface, with an
  optional epsilon sweep at fixed weights.
* spectra: full eigenvalue spectra of plain and augmented hybrid systems.
* objective-comparison: RMS-optimized versus LOOCV-optimized parameters
  from identical starting swarms.
* fault: LOOCV-tuned reconstruction of a synthetic normal-fault surface.
* scaling: wall-time of single fits across N with a log-log slope row.

linear-reproduction, franke and objective-comparison run one loop of
optimized cells.  Each cell's search builds and checks the data distances
once; after it, the cell fits, takes the spectrum and, for rms cells, the
LOOCV cost on those same distances.

The Franke surface here uses the standard Franke (1979) signs: every
exponential argument is negative.
"""

from __future__ import annotations

import csv
import hashlib
import json
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, ToolkitError
from .geometry import (
    EvaluationGrid,
    FLOAT_FMT,
    PointSet,
    make_evaluation_grid,
    make_tensor_grid,
    write_points_csv,
)
from .interpolation import (
    InterpolationModel,
    _fit,
    _fit_distances,
    _system,
    assemble,
    evaluate,
    fit,
    spectral_report,
)
from .kernels import HybridParams, KernelSpec
from .objectives import (
    ObjectiveSpec,
    SearchData,
    _loocv_brute,
    _loocv_rippa,
    kernel_objective,
    objective_value,
    prepare_search,
    rms_error,
)
from .pso import PsoConfig, pso_minimize

FULL_NODE_COUNTS = (25, 49, 81, 144, 196, 400, 625, 1296, 2401, 4096)
# Desk-scale default: the two largest grids cost minutes each under PSO.
DESK_NODE_COUNTS = (25, 49, 81, 144, 196, 400, 625, 1296)

STUDIES = (
    "linear-reproduction",
    "franke",
    "spectra",
    "objective-comparison",
    "fault",
    "scaling",
)

VARIANTS = ("gaussian", "cubic", "hybrid", "hybrid+poly")

FRANKE_NOTE = (
    "franke variant: standard Franke (1979) signs, all exponential arguments "
    "negative"
)

# Guaranteed minimum elevation gap across the synthetic fault trace.
FAULT_STEP = 50.0
FAULT_DOMAIN = (0.0, 50.0)

_TIMING_RESOLUTION = 1e-5  # seconds; cells faster than this are flagged

# Brute-force LOOCV refits N systems; keep that as report garnish only on
# small augmented cells.
_BRUTE_LOOCV_MAX_N = 256


def franke(x, y):
    """Standard two-dimensional Franke test surface (vectorized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f1 = 0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4)
    f2 = 0.75 * np.exp(-((9 * x + 1) ** 2) / 49 - (9 * y + 1) / 10)
    f3 = 0.50 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4)
    f4 = 0.20 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2)
    return f1 + f2 + f3 - f4


def linear_truth(x, y):
    """The linear patch-test surface f(x, y) = (x + y)/2."""
    return (np.asarray(x, dtype=float) + np.asarray(y, dtype=float)) / 2.0


@dataclass(frozen=True)
class ExperimentSpec:
    """One study request: which cells to run and with what budgets."""

    study: str
    node_counts: tuple[int, ...] = DESK_NODE_COUNTS
    variants: tuple[str, ...] = ("gaussian", "hybrid", "hybrid+poly")
    objective: str = "rms"
    pso: PsoConfig = field(default_factory=lambda: PsoConfig(swarm_size=20, generations=5))
    eval_grid_n: int = 40
    seed: int = 0
    sweep_points: int = 0
    params_per_n: Mapping[int, tuple] | None = None
    fault_points: int = 78
    fault_grid_n: int = 501
    include_optimize_timing: bool = False
    output_dir: str | Path | None = None

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; expected one of {STUDIES}")
        object.__setattr__(self, "node_counts", tuple(int(n) for n in self.node_counts))
        object.__setattr__(self, "variants", tuple(self.variants))
        if self.study != "fault":
            if not self.node_counts:
                raise ConfigError("node_counts must not be empty")
            for n in self.node_counts:
                k = int(round(np.sqrt(n)))
                if k * k != n or k < 2:
                    raise ConfigError(
                        f"node count {n} is not a perfect square >= 4 (tensor grids)"
                    )
        if not self.variants:
            raise ConfigError("at least one kernel variant is required")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; expected one of {VARIANTS}")
        if self.objective not in ("rms", "loocv"):
            raise ConfigError(f"objective must be rms or loocv, got {self.objective!r}")
        if self.eval_grid_n < 2:
            raise ConfigError(f"eval_grid_n must be >= 2, got {self.eval_grid_n}")


@dataclass
class CellRecord:
    """One report row; optional fields stay None where not applicable."""

    study: str
    variant: str
    n: int | None = None
    objective: str = ""
    epsilon: float | None = None
    alpha: float | None = None
    beta: float | None = None
    rms: float | None = None
    loocv_cost: float | None = None
    condition_number: float | None = None
    negative_count: int | None = None
    wall_time_s: float | None = None
    slope: float | None = None
    status: str = "ok"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok" or self.status.startswith("flagged")


@dataclass
class ExperimentReport:
    study: str
    digest: str
    seed: int
    notes: tuple[str, ...]
    cells: list[CellRecord]
    files: list[Path] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def cell(self, variant: str, n: int | None = None, objective: str | None = None):
        for c in self.cells:
            if c.variant != variant:
                continue
            if n is not None and c.n != n:
                continue
            if objective is not None and c.objective != objective:
                continue
            return c
        raise KeyError(f"no cell variant={variant!r} n={n} objective={objective!r}")


def spec_digest(spec: ExperimentSpec) -> str:
    """Short stable hash of everything that influences the numbers."""
    payload = asdict(spec)
    payload.pop("output_dir", None)
    if payload.get("params_per_n") is not None:
        payload["params_per_n"] = {
            str(k): _coerce_json(v) for k, v in payload["params_per_n"].items()
        }
    text = json.dumps(payload, sort_keys=True, default=_coerce_json)
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _coerce_json(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_coerce_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _coerce_json(v) for k, v in value.items()}
    return value


def _cell_seed(spec: ExperimentSpec, *key) -> int:
    parts = [spec.seed] + [
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key
    ]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _grid_data(n: int, truth: Callable) -> PointSet:
    k = int(round(np.sqrt(n)))
    pts = make_tensor_grid(k, 2)
    return pts.with_values(truth(pts.coords[:, 0], pts.coords[:, 1]))


def _truth_grid(points_per_side: int, truth: Callable, dim: int = 2):
    """Evaluation grid on the unit cube and the truth at its first two coordinates."""
    grid = make_evaluation_grid(points_per_side, dim=dim)
    return grid, truth(grid.points[:, 0], grid.points[:, 1])


def _variant_augmented(variant: str) -> bool:
    return variant.endswith("+poly")


def _optimize_variant(
    points: PointSet, ospec: ObjectiveSpec, pso: PsoConfig, variant: str, seed: int
) -> tuple[KernelSpec, float, SearchData]:
    """Best kernel of one variant, its cost and the search's checked data.

    cubic has nothing to search.
    """
    data = prepare_search(ospec, points)
    if variant == "cubic":
        kernel = KernelSpec.cubic()
        return kernel, objective_value(ospec, points, kernel, data), data
    if variant == "gaussian":
        cfg = replace(pso, bounds=(pso.bounds[0],), seed=seed)
        to_kernel = lambda p: KernelSpec.gaussian(p[0])
    else:
        cfg = replace(pso, seed=seed)
        to_kernel = lambda p: KernelSpec.hybrid(p[0], p[1], p[2])
    result = pso_minimize(kernel_objective(ospec, points, to_kernel, data), cfg)
    return to_kernel(result.best_position), result.best_value, data


@contextmanager
def _timed(cell: CellRecord, failure: str = "failed"):
    """Time the block into ``cell.wall_time_s``; a ToolkitError in it sets
    ``cell.status`` to ``failure`` and ``cell.detail`` to the message."""
    start = perf_counter()
    try:
        yield
    except ToolkitError as exc:
        cell.status = failure
        cell.detail = str(exc)
    cell.wall_time_s = perf_counter() - start


def _fit_step(
    cell: CellRecord, points: PointSet, distances: np.ndarray, kernel: KernelSpec, augmented: bool
) -> InterpolationModel:
    """Fit on checked data distances; record the kernel and spectrum in ``cell``.

    The private steps of ``fit`` and ``assemble`` on one distance matrix give
    the same model and spectrum, bit for bit, as the public calls.
    """
    model = _fit(points, distances, kernel, augmented)
    spectrum = spectral_report(_system(points, distances, kernel, augmented))
    cell.epsilon = kernel.params.epsilon
    cell.alpha = kernel.params.alpha
    cell.beta = kernel.params.beta
    cell.condition_number = spectrum.condition_number
    cell.negative_count = spectrum.negative_count
    return model


def _loocv_garnish(
    points: PointSet, distances: np.ndarray, kernel: KernelSpec, augmented: bool
) -> float | None:
    """LOOCV cost of an rms-tuned kernel; node counts >= 4 suit either path."""
    try:
        if not augmented:
            return _loocv_rippa(points, distances, kernel).value
        if points.n <= _BRUTE_LOOCV_MAX_N:
            return _loocv_brute(points, distances, kernel, augmented=True).value
    except ToolkitError:
        return None
    return None


def _optimized_cell(
    spec: ExperimentSpec,
    points: PointSet,
    grid: EvaluationGrid,
    truth_values: np.ndarray,
    variant: str,
    objective: str,
    seed: int,
) -> CellRecord:
    cell = CellRecord(study=spec.study, variant=variant, n=points.n, objective=objective)
    with _timed(cell):
        augmented = _variant_augmented(variant)
        ospec = ObjectiveSpec.from_kind(objective, grid, truth_values, augmented)
        kernel, best_cost, data = _optimize_variant(points, ospec, spec.pso, variant, seed)
        model = _fit_step(cell, points, data.distances, kernel, augmented)
        cell.rms = rms_error(model, grid, truth_values)
        cell.loocv_cost = (
            best_cost
            if objective == "loocv"
            else _loocv_garnish(points, data.distances, kernel, augmented)
        )
    return cell


def _finish(spec: ExperimentSpec, cells: list[CellRecord], notes: tuple[str, ...]) -> ExperimentReport:
    report = ExperimentReport(
        study=spec.study,
        digest=spec_digest(spec),
        seed=spec.seed,
        notes=notes,
        cells=cells,
    )
    if spec.output_dir is not None:
        emit_report(report, spec.output_dir)
    return report


# --- studies --------------------------------------------------------------


# Truth surface and report notes of each study made of optimized cells.
_OPTIMIZED_STUDIES = {
    "linear-reproduction": (linear_truth, ("truth: f(x, y) = (x + y)/2 on the unit square",)),
    "franke": (franke, (FRANKE_NOTE,)),
    "objective-comparison": (franke, (FRANKE_NOTE, "seeds shared between objectives")),
}


def _optimized_study(spec: ExperimentSpec) -> ExperimentReport:
    """Optimized cells per node count and kernel variant.

    objective-comparison runs both objectives from one seed per cell; franke
    adds the epsilon sweep.
    """
    truth, notes = _OPTIMIZED_STUDIES[spec.study]
    grid, truth_values = _truth_grid(spec.eval_grid_n, truth)
    compare = spec.study == "objective-comparison"
    cells = []
    for n in spec.node_counts:
        points = _grid_data(n, truth)
        for variant in spec.variants:
            for objective in ("rms", "loocv") if compare else (spec.objective,):
                key = (n, variant) if compare else (n, variant, objective)
                seed = _cell_seed(spec, spec.study, *key)
                cells.append(
                    _optimized_cell(spec, points, grid, truth_values, variant, objective, seed)
                )
    if spec.study == "franke" and spec.sweep_points > 0:
        cells.extend(_epsilon_sweep(spec, grid, truth_values, cells))
    return _finish(spec, cells, notes)


def _epsilon_sweep(
    spec: ExperimentSpec,
    grid: EvaluationGrid,
    truth_values: np.ndarray,
    cells: list[CellRecord],
) -> list[CellRecord]:
    """Error-versus-epsilon curves at the largest N, weights held fixed."""
    n_max = max(spec.node_counts)
    try:
        anchor = next(
            c for c in cells if c.variant == "hybrid" and c.n == n_max and c.ok
        )
        alpha, beta = anchor.alpha, anchor.beta
    except StopIteration:
        alpha, beta = 0.7, 1e-6  # no optimized hybrid cell to anchor on
    points = _grid_data(n_max, franke)
    # One matrix serves plain and augmented cells: a square >= 4 passes both checks.
    distances = _fit_distances(points, augmented=True)
    out = []
    for eps in np.geomspace(0.05, 20.0, spec.sweep_points):
        for base in ("gaussian", "hybrid", "hybrid+poly"):
            augmented = _variant_augmented(base)
            kernel = KernelSpec.from_name(base.removesuffix("+poly"), eps, alpha, beta)
            cell = CellRecord(
                study=spec.study,
                variant=f"sweep:{base}",
                n=n_max,
                epsilon=float(eps),
                alpha=kernel.params.alpha,
                beta=kernel.params.beta,
            )
            # sweeping into the flat regime is expected to hit singular
            # systems; that is the curve's story, not a failed cell
            with _timed(cell, failure="flagged: unsolvable at this epsilon"):
                model = _fit_step(cell, points, distances, kernel, augmented)
                cell.rms = rms_error(model, grid, truth_values)
            out.append(cell)
    return out


def spectra_study(spec: ExperimentSpec) -> ExperimentReport:
    """Eigenvalue spectra of plain and augmented hybrid systems per N."""
    grid, truth_values = _truth_grid(spec.eval_grid_n, franke)
    cells: list[CellRecord] = []
    files: list[Path] = []
    digest = spec_digest(spec)
    for n in spec.node_counts:
        points = _grid_data(n, franke)
        for variant in ("hybrid", "hybrid+poly"):
            augmented = _variant_augmented(variant)
            params = _spectra_params(spec, points, grid, truth_values, n, variant)
            cell = CellRecord(study=spec.study, variant=variant, n=n)
            with _timed(cell):
                kernel = KernelSpec.hybrid(*params)
                system = assemble(points, kernel, augmented=augmented)
                spectrum = spectral_report(system)
                cell.epsilon, cell.alpha, cell.beta = params
                cell.condition_number = spectrum.condition_number
                cell.negative_count = spectrum.negative_count
                if spec.output_dir is not None:
                    tag = "augmented" if augmented else "plain"
                    path = Path(spec.output_dir) / f"spectra-{digest}-n{n}-{tag}.csv"
                    _write_spectrum_csv(path, spectrum.eigenvalues)
                    files.append(path)
                    cell.detail = f"spectrum: {path.name}"
            cells.append(cell)
    report = _finish(spec, cells, (FRANKE_NOTE,))
    report.files.extend(files)
    return report


def _spectra_params(
    spec: ExperimentSpec,
    points: PointSet,
    grid: EvaluationGrid,
    truth_values: np.ndarray,
    n: int,
    variant: str,
) -> tuple[float, float, float]:
    if spec.params_per_n is not None and n in spec.params_per_n:
        entry = spec.params_per_n[n]
        if isinstance(entry, Mapping):
            entry = entry[variant]
        if isinstance(entry, HybridParams):
            return entry.epsilon, entry.alpha, entry.beta
        return tuple(float(v) for v in entry)
    augmented = _variant_augmented(variant)
    ospec = ObjectiveSpec.from_kind(spec.objective, grid, truth_values, augmented)
    seed = _cell_seed(spec, spec.study, n, variant, spec.objective)
    kernel, _, _ = _optimize_variant(points, ospec, spec.pso, variant, seed)
    p = kernel.params
    return p.epsilon, p.alpha, p.beta


def _write_spectrum_csv(path: Path, eigenvalues: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,eigenvalue\n")
        for i, ev in enumerate(eigenvalues):
            fh.write(f"{i},{FLOAT_FMT % ev}\n")


def fault_side(coords) -> np.ndarray:
    """Signed distance direction across the synthetic fault trace (< 0: footwall)."""
    c = np.asarray(coords, dtype=float)
    return c[:, 0] - (25.0 + 0.15 * (c[:, 1] - 25.0))


def fault_elevation(coords) -> np.ndarray:
    """Elevation model: quiet footwall, two-basin hanging wall, sharp step.

    Footwall values stay in [98.5, 101.5] and hanging-wall values in
    [20, 45], so any two points on opposite sides of the trace differ by
    more than FAULT_STEP.
    """
    c = np.asarray(coords, dtype=float)
    x, y = c[:, 0], c[:, 1]
    foot = 100.0 + 1.5 * np.sin(2 * np.pi * x / 50.0) * np.cos(2 * np.pi * y / 50.0)
    basin1 = 14.0 * np.exp(-(((x - 32.0) ** 2) + (y - 15.0) ** 2) / 60.0)
    basin2 = 11.0 * np.exp(-(((x - 40.0) ** 2) + (y - 38.0) ** 2) / 80.0)
    hang = 45.0 - basin1 - basin2
    return np.where(fault_side(c) < 0.0, foot, hang)


def synthetic_fault_surface(n_points: int = 78, seed: int = 0) -> PointSet:
    """Scattered synthetic elevations around a normal-fault step.

    Points are uniform over the [0, 50] km square; values follow
    :func:`fault_elevation`.  Deterministic per seed.
    """
    if n_points < 10:
        raise ConfigError(f"n_points must be >= 10, got {n_points}")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(FAULT_DOMAIN[0], FAULT_DOMAIN[1], size=(n_points, 2))
    return PointSet(coords, fault_elevation(coords))


def fault_study(spec: ExperimentSpec) -> ExperimentReport:
    """LOOCV-tuned hybrid reconstruction of the synthetic fault surface."""
    cell = CellRecord(study=spec.study, variant="hybrid", n=spec.fault_points, objective="loocv")
    cells = [cell]
    files: list[Path] = []
    with _timed(cell):
        points = synthetic_fault_surface(spec.fault_points, seed=spec.seed)
        ospec = ObjectiveSpec.loocv()
        seed = _cell_seed(spec, spec.study, spec.fault_points)
        kernel, best_cost, data = _optimize_variant(points, ospec, spec.pso, "hybrid", seed)
        model = _fit_step(cell, points, data.distances, kernel, False)
        target = make_evaluation_grid(
            spec.fault_grid_n, dim=2, lower=FAULT_DOMAIN[0], upper=FAULT_DOMAIN[1]
        )
        values = evaluate(model, target)
        cell.loocv_cost = best_cost
        cell.detail = f"reconstructed {target.m} locations"
        if spec.output_dir is not None:
            digest = spec_digest(spec)
            path = Path(spec.output_dir) / f"fault-reconstruction-{digest}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_points_csv(path, PointSet(target.points, values))
            files.append(path)
    report = _finish(spec, cells, ("synthetic fault: step > %g across the trace" % FAULT_STEP,))
    report.files.extend(files)
    return report


def scaling_study(spec: ExperimentSpec) -> ExperimentReport:
    """Wall-time of single fits across N, with a log-log slope row."""
    counts = sorted(spec.node_counts)
    if max(counts) < 4 * min(counts):
        raise ConfigError(
            f"node counts must span at least a 4x range, got {min(counts)}..{max(counts)}"
        )
    kernel = KernelSpec.hybrid(5.5, 0.7, 1e-6)
    cells = []
    timed: list[tuple[int, float]] = []
    for n in counts:
        points = _grid_data(n, franke)
        cell = CellRecord(study=spec.study, variant="fit", n=n)
        try:
            fit(points, kernel)  # warm caches and BLAS threads
            best = min(_timed_fit(points, kernel) for _ in range(3))
            cell.wall_time_s = best
            if best < _TIMING_RESOLUTION:
                cell.status = "flagged: below timing resolution"
            else:
                timed.append((n, best))
        except ToolkitError as exc:
            cell.status = "failed"
            cell.detail = str(exc)
        cells.append(cell)
        if spec.include_optimize_timing:
            cells.append(_timed_optimize_cell(spec, points, n))
    slope_cell = CellRecord(study=spec.study, variant="slope")
    if len(timed) >= 2:
        (n0, t0), (n1, t1) = timed[0], timed[-1]
        slope_cell.slope = float(np.log(t1 / t0) / np.log(n1 / n0))
        slope_cell.detail = f"between N={n0} and N={n1} on warmed runs"
    else:
        slope_cell.status = "failed"
        slope_cell.detail = "fewer than two timing cells above resolution"
    cells.append(slope_cell)
    return _finish(spec, cells, (FRANKE_NOTE,))


def _timed_fit(points: PointSet, kernel: KernelSpec) -> float:
    start = perf_counter()
    fit(points, kernel)
    return perf_counter() - start


def _timed_optimize_cell(spec: ExperimentSpec, points: PointSet, n: int) -> CellRecord:
    ospec = ObjectiveSpec.rms(*_truth_grid(spec.eval_grid_n, franke))
    cell = CellRecord(study=spec.study, variant="optimize", n=n, objective="rms")
    cfg = replace(spec.pso, generations=1, seed=_cell_seed(spec, spec.study, n, "optimize"))
    with _timed(cell):
        _optimize_variant(points, ospec, cfg, "hybrid", cfg.seed)
    return cell


_STUDY_FUNCS = {
    "linear-reproduction": _optimized_study,
    "franke": _optimized_study,
    "spectra": spectra_study,
    "objective-comparison": _optimized_study,
    "fault": fault_study,
    "scaling": scaling_study,
}


def run_study(spec: ExperimentSpec) -> ExperimentReport:
    """Dispatch a study by its spec.study name."""
    return _STUDY_FUNCS[spec.study](spec)


# --- report I/O -----------------------------------------------------------

# How the CSV reader parses a field, by its CellRecord annotation.
_PARSERS = {
    "str": str,
    "int | None": lambda text: int(text) if text else None,
    "float | None": lambda text: float(text) if text else None,
}

# The report columns: CellRecord's fields, in order, each with its parser.
# A field whose annotation has no parser fails here, at import.
_COLUMNS = {f.name: _PARSERS[f.type] for f in fields(CellRecord)}

# The text table: (header, CellRecord field, width) per column.  Text fields
# are left-aligned, numbers right-aligned; the detail follows the row.
_TEXT_TABLE = (
    ("variant", "variant", 16), ("N", "n", 6), ("obj", "objective", 6),
    ("epsilon", "epsilon", 12), ("alpha", "alpha", 10), ("beta", "beta", 12),
    ("rms", "rms", 12), ("loocv", "loocv_cost", 12), ("cond", "condition_number", 12),
    ("neg", "negative_count", 4), ("time[s]", "wall_time_s", 10), ("status", "status", 8),
)


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def write_report_csv(path, report: ExperimentReport) -> None:
    """One CSV row per cell, preceded by '#' header notes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# study: {report.study}  digest: {report.digest}  seed: {report.seed}\n")
        for note in report.notes:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for cell in report.cells:
            writer.writerow([_format_field(getattr(cell, name)) for name in _COLUMNS])


def read_report_csv(path) -> list[CellRecord]:
    """Read back a report CSV written by :func:`write_report_csv`.

    A row with the wrong field count, or a field its column's type rejects,
    raises ConfigError naming the line the row ends on.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not rows or tuple(rows[0][1]) != tuple(_COLUMNS):
        raise ConfigError(f"{path}: not a report CSV")
    cells = []
    for lineno, row in rows[1:]:
        if len(row) != len(_COLUMNS):
            raise ConfigError(f"{path}:{lineno}: expected {len(_COLUMNS)} fields, got {len(row)}")
        try:
            values = {name: parse(text) for (name, parse), text in zip(_COLUMNS.items(), row)}
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad numeric field in {row!r}") from None
        cells.append(CellRecord(**values))
    return cells


def _text_field(value, name: str, width: int) -> str:
    """One text-table entry or header: '-' for None, 4 significant digits
    for a float; text fields left-aligned, numbers right-aligned."""
    if value is None:
        value = "-"
    elif isinstance(value, float):
        value = f"{value:.4g}"
    return f"{value:<{width}}" if _COLUMNS[name] is str else f"{value:>{width}}"


def report_text(report: ExperimentReport) -> str:
    """Human-readable fixed-width table of the report cells; the variant
    column widens to the longest variant."""
    widths = {name: width for _, name, width in _TEXT_TABLE}
    widths["variant"] = max([widths["variant"]] + [len(c.variant) for c in report.cells])
    lines = [
        f"study: {report.study}   digest: {report.digest}   seed: {report.seed}",
    ]
    lines.extend(f"note: {note}" for note in report.notes)
    header = " ".join(_text_field(h, name, widths[name]) for h, name, _ in _TEXT_TABLE)
    lines.append(header)
    lines.append("-" * len(header))
    for c in report.cells:
        row = " ".join(
            _text_field(getattr(c, name), name, widths[name]) for _, name, _ in _TEXT_TABLE
        )
        lines.append(row + (f"  {c.detail}" if c.detail else ""))
    for c in report.cells:
        if c.slope is not None:
            lines.append(f"log-log slope: {c.slope:.4g} ({c.detail})")
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, output_dir) -> tuple[Path, Path]:
    """Write the CSV and text renderings; file names carry the spec digest."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{report.study}-{report.digest}.csv"
    txt_path = out / f"{report.study}-{report.digest}.txt"
    write_report_csv(csv_path, report)
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(report_text(report))
    report.files.extend([csv_path, txt_path])
    return csv_path, txt_path
