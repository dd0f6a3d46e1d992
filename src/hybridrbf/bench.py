"""Benchmark harness: accuracy, conditioning, spectra, and cost studies.

Six studies, all seeded and deterministic, all emitting one CSV row per
experiment cell plus a human-readable table:

* linear-reproduction: optimized kernels interpolating f(x, y) = (x + y)/2;
  the polynomial-augmented hybrid reproduces it to machine precision.
* franke: convergence of optimized kernels on the Franke surface, with an
  optional epsilon sweep at fixed weights.
* spectra: full eigenvalue spectra of each variant's plain or augmented
  system.
* objective-comparison: RMS-optimized versus LOOCV-optimized parameters
  from identical starting swarms.
* fault: LOOCV-tuned reconstruction of a synthetic normal-fault surface.
* scaling: wall-time of single fits across N, with a log-log slope row.

``_STUDY_TABLE`` names the fields each study reads, with their defaults.
``run_study`` runs every study at one BLAS thread, as every search runs, so
a report follows its spec, not the BLAS library's thread count.

linear-reproduction, franke, spectra and objective-comparison run one loop
of cells, with the truth, notes and cell step of their table rows.  The loop
builds and checks each node count's data distances, and the grid distances
if a cell reads them, once before that count's first cell; the cells and the
epsilon sweep only read them.  A cell reports its search's best cost and
scores its other cost as a search trial does (``objectives._trial_cost``),
then takes the spectrum; a spectra cell takes the spectrum alone.  The
epsilon sweep scores rms so too, at the largest node count.

The Franke surface here uses the standard Franke (1979) signs: every
exponential argument is negative.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DomainError, ToolkitError
from .geometry import (
    FLOAT_FMT,
    PointSet,
    _as_coords,
    _as_int,
    _opened,
    _write_table,
    make_tensor_grid,
    write_points_csv,
)
from .interpolation import (
    SpectralReport,
    _fit,
    _one_blas_thread,
    _system,
    evaluate,
    fit,
    spectral_report,
)
from .kernels import KernelSpec, _numbers
from .objectives import (
    ObjectiveSpec,
    SearchData,
    _require_found,
    _trial_cost,
    kernel_objective,
    objective_value,
    prepare_search,
)
from .pso import PsoConfig, pso_minimize

FULL_NODE_COUNTS = (25, 49, 81, 144, 196, 400, 625, 1296, 2401, 4096)
# Desk-scale default: the two largest grids cost minutes each under PSO.
DESK_NODE_COUNTS = (25, 49, 81, 144, 196, 400, 625, 1296)

VARIANTS = ("gaussian", "cubic", "hybrid", "hybrid+poly")

FRANKE_NOTE = (
    "franke variant: standard Franke (1979) signs, all exponential arguments "
    "negative"
)

# Guaranteed minimum elevation gap across the synthetic fault trace.
FAULT_STEP = 50.0
FAULT_DOMAIN = (0.0, 50.0)
# The truth box of _xy is [-TRUTH_BOUND, TRUTH_BOUND]^2: it holds the unit
# square and FAULT_DOMAIN twice over, and its largest exponent, Franke's second
# term at (-1/9, -100), is about 89.9, far below exp's overflow at 709.78.
TRUTH_BOUND = 100.0

_TIMING_RESOLUTION = 1e-5  # seconds; cells faster than this are flagged

# Brute-force LOOCV refits N systems; keep that as report garnish only on
# small augmented cells.
_BRUTE_LOOCV_MAX_N = 256


def _xy(x, y) -> list[np.ndarray]:
    """A truth surface's x and y as float arrays, under the number rule;
    DomainError unless their shapes broadcast and every value lies in
    [-TRUTH_BOUND, TRUTH_BOUND] (so NaN and inf are refused too)."""
    xy = [_numbers(v, DomainError, "x and y must be numbers, got %s", copy=None) for v in (x, y)]
    try:
        np.broadcast_shapes(*(v.shape for v in xy))
    except ValueError:
        shapes = " and ".join(str(v.shape) for v in xy)
        raise DomainError(f"x and y must broadcast, got shapes {shapes}") from None
    if not all((np.abs(v) <= TRUTH_BOUND).all() for v in xy):
        raise DomainError(f"x and y must lie in [{-TRUTH_BOUND:g}, {TRUTH_BOUND:g}]")
    return xy


def franke(x, y):
    """Standard two-dimensional Franke test surface on the truth box (vectorized)."""
    x, y = _xy(x, y)
    f1 = 0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4)
    f2 = 0.75 * np.exp(-((9 * x + 1) ** 2) / 49 - (9 * y + 1) / 10)
    f3 = 0.50 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4)
    f4 = 0.20 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2)
    return f1 + f2 + f3 - f4


def linear_truth(x, y):
    """The linear patch-test surface f(x, y) = (x + y)/2 on the truth box."""
    x, y = _xy(x, y)
    return (x + y) / 2.0


@dataclass(frozen=True)
class ExperimentSpec:
    """One study request, checked whole here, so a spec that builds runs
    without a ConfigError.  study, pso, seed and output_dir are common to all
    studies; None in any other field takes its ``_STUDY_TABLE`` row's default,
    and a field the row does not name refuses a value.  Each cell seeds its
    search from seed (``_cell_seed``), so pso is stored with seed 0."""

    study: str
    node_counts: tuple[int, ...] | None = None
    variants: tuple[str, ...] | None = None
    objective: str | None = None
    pso: PsoConfig = field(default_factory=PsoConfig)
    eval_grid_n: int | None = None
    seed: int = 0
    sweep_points: int | None = None
    # Spectra: N -> one pinned (epsilon, alpha, beta) triple, no search.
    params_per_n: Mapping[int, tuple[float, float, float]] | None = None
    fault_points: int | None = None
    fault_grid_n: int | None = None
    output_dir: str | Path | None = None

    def __post_init__(self):
        if not isinstance(self.study, str) or self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; expected one of {STUDIES}")
        if not isinstance(self.pso, PsoConfig):
            raise ConfigError(f"pso must be a PsoConfig, got {self.pso!r}")
        if len(self.pso.bounds) != 3:
            raise ConfigError(
                "pso.bounds must be three (lower, upper) pairs, for epsilon, alpha "
                f"and beta; got {self.pso.bounds!r}"
            )
        object.__setattr__(self, "pso", replace(self.pso, seed=0))
        object.__setattr__(self, "seed", _as_int("seed", self.seed, 0))
        if self.output_dir is not None and not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"output_dir must be a path, got {self.output_dir!r}")
        reads = _STUDY_TABLE[self.study][1]
        for name in _STUDY_FIELDS:
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, reads.get(name))
            elif name not in reads:
                raise ConfigError(f"the {self.study} study takes no {name}, got {value!r}")
        for name, least in _COUNT_FIELDS.items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_int(name, value, least))
        if self.node_counts is not None:
            counts = tuple(_as_int("node count", n) for n in _entries("node_counts", self.node_counts))
            object.__setattr__(self, "node_counts", counts)
            if not self.node_counts:
                raise ConfigError("node_counts must not be empty")
            for n in self.node_counts:
                _grid_side(n)
            if self.study == "scaling" and max(counts) < 4 * min(counts):
                raise ConfigError(
                    f"node counts must span at least a 4x range, got {min(counts)}..{max(counts)}"
                )
        if self.variants is not None:
            object.__setattr__(self, "variants", _entries("variants", self.variants))
            if not self.variants:
                raise ConfigError("at least one kernel variant is required")
            for v in self.variants:
                if not isinstance(v, str) or v not in VARIANTS:
                    raise ConfigError(f"unknown variant {v!r}; expected one of {VARIANTS}")
        for name in ("node_counts", "variants"):
            entries = getattr(self, name) or ()
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise ConfigError(f"{name} repeats {entry!r}; each entry may appear once")
        if not isinstance(self.objective, str | None) or self.objective not in ("rms", "loocv", None):
            raise ConfigError(f"objective must be rms or loocv, got {self.objective!r}")
        if self.params_per_n is not None:
            if not isinstance(self.params_per_n, Mapping):
                raise ConfigError(f"params_per_n must be a mapping, got {self.params_per_n!r}")
            pinned = {}
            for key, triple in self.params_per_n.items():
                n = _as_int("node count", key)
                if n not in self.node_counts:
                    raise ConfigError(f"params_per_n key {n!r} not in node_counts {self.node_counts}")
                try:
                    epsilon, alpha, beta = triple
                    kernel = KernelSpec.hybrid(epsilon, alpha, beta)  # raises on a bad triple
                except (TypeError, ValueError, ConfigError) as exc:
                    raise ConfigError(f"params_per_n[{n!r}] = {triple!r}: {exc}") from None
                pinned[n] = (kernel.epsilon, kernel.alpha, kernel.beta)
            object.__setattr__(self, "params_per_n", pinned)
            if set(self.node_counts) <= set(pinned):
                # No cell searches, so the search fields must keep their
                # defaults: equal cells then get one digest.
                searched = {**reads, "pso": PsoConfig()}
                for name in ("objective", "eval_grid_n", "pso"):
                    value = getattr(self, name)
                    if value != searched[name]:
                        raise ConfigError(
                            f"every node count is pinned in params_per_n, so no cell "
                            f"searches and {name} must keep its default, got {value!r}"
                        )


def _entries(name: str, value) -> tuple:
    """``value`` as a tuple; ConfigError if it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence, got {value!r}") from None


_STUDY_FIELDS = sorted({f.name for f in fields(ExperimentSpec)} - {"study", "pso", "seed", "output_dir"})
# Each count field's least value; counts are stored as ints, so equal counts digest equally.
_COUNT_FIELDS = {"eval_grid_n": 2, "sweep_points": 0, "fault_points": 10, "fault_grid_n": 2}


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
            if c.variant == variant and n in (None, c.n) and objective in (None, c.objective):
                return c
        raise KeyError(f"no cell variant={variant!r} n={n} objective={objective!r}")


def spec_digest(spec: ExperimentSpec) -> str:
    """Short stable hash of everything that influences the numbers."""
    payload = asdict(spec)
    payload.pop("output_dir")
    # Every field is stored as a Python value when the spec is built.
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _cell_seed(spec: ExperimentSpec, *key) -> int:
    parts = [spec.seed] + [
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key
    ]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _grid_side(n: int) -> int:
    """Side k of the square grid of n nodes; ConfigError unless n = k*k, k >= 2."""
    k = math.isqrt(max(n, 0))
    if k < 2 or k * k != n:
        raise ConfigError(f"node count {n} is not a perfect square >= 4 (tensor grids)")
    return k


def _truth_grid(points_per_side: int, truth: Callable, dim: int = 2) -> PointSet:
    """Tensor grid on the unit cube valued by the truth at its first two
    coordinates: a study's data nodes, or its evaluation grid and the truth."""
    grid = make_tensor_grid(points_per_side, dim)
    return grid.with_values(truth(grid.coords[:, 0], grid.coords[:, 1]))


def _variant(name: str) -> tuple[str, bool]:
    """A variant's kernel kind, and whether its system is augmented."""
    kind = name.removesuffix("+poly")
    return kind, kind != name


def _optimize_variant(
    points: PointSet, data: SearchData, ospec: ObjectiveSpec, pso: PsoConfig, kind: str, seed: int
) -> tuple[KernelSpec, float]:
    """Best kernel of one kind and its cost, searched on ``data``.

    cubic has nothing to search; gaussian searches epsilon alone, on the
    first bound.  NumericalBreakdownError if no trial found a finite cost.
    """
    if kind == "cubic":
        kernel = KernelSpec.cubic()
        return kernel, _require_found(objective_value(ospec, points, kernel, data))
    bounds = pso.bounds[:1] if kind == "gaussian" else pso.bounds
    to_kernel = lambda position: KernelSpec(kind, *position)
    result = pso_minimize(
        kernel_objective(ospec, points, to_kernel, data), replace(pso, bounds=bounds, seed=seed)
    )
    return to_kernel(result.best_position), _require_found(result.best_value)


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


def _spectrum_step(
    cell: CellRecord, points: PointSet, distances: np.ndarray, kernel: KernelSpec, augmented: bool
) -> SpectralReport:
    """Spectrum of the system on checked data distances, bit for bit that of
    ``assemble``; record the kernel and the spectrum's summary in ``cell``."""
    spectrum = spectral_report(_system(points, distances, kernel, augmented))
    cell.epsilon, cell.alpha, cell.beta = kernel.epsilon, kernel.alpha, kernel.beta
    cell.condition_number = spectrum.condition_number
    cell.negative_count = spectrum.negative_count
    return spectrum


def _loocv_garnish(
    points: PointSet, data: SearchData, kernel: KernelSpec, augmented: bool
) -> float | None:
    """LOOCV cost of an rms-tuned kernel, as a loocv search trial scores it."""
    if augmented and points.n > _BRUTE_LOOCV_MAX_N:
        return None
    try:
        return _trial_cost(ObjectiveSpec.loocv(augmented), points, kernel, data)
    except ToolkitError:
        return None


def _optimized_cell(
    spec: ExperimentSpec,
    points: PointSet,
    data: SearchData,
    grid: PointSet,
    variant: str,
    objective: str,
    seed: int,
    files: list[Path],
) -> CellRecord:
    cell = CellRecord(study=spec.study, variant=variant, n=points.n, objective=objective)
    with _timed(cell):
        kind, augmented = _variant(variant)
        ospec = ObjectiveSpec(objective, grid, grid.values, augmented)
        kernel, best_cost = _optimize_variant(points, data, ospec, spec.pso, kind, seed)
        if objective == "rms":
            costs = best_cost, _loocv_garnish(points, data, kernel, augmented)
        else:
            rms_spec = ObjectiveSpec("rms", grid, grid.values, augmented)
            costs = _trial_cost(rms_spec, points, kernel, data), best_cost
        _spectrum_step(cell, points, data.distances, kernel, augmented)
        cell.rms, cell.loocv_cost = costs
    return cell


def _spectra_cell(
    spec: ExperimentSpec,
    points: PointSet,
    data: SearchData,
    grid: PointSet,
    variant: str,
    objective: str,
    seed: int,
    files: list[Path],
) -> CellRecord:
    """Eigenvalue spectrum of one variant's system, with an output directory
    also as an ``index,eigenvalue`` CSV listed in ``files``: the kernel takes
    ``spec.params_per_n[N]`` if given, else is searched in the cell."""
    kind, augmented = _variant(variant)
    cell = CellRecord(study=spec.study, variant=variant, n=points.n)
    with _timed(cell):
        if points.n in spec.params_per_n:
            kernel = KernelSpec(kind, *spec.params_per_n[points.n])
        else:
            ospec = ObjectiveSpec(objective, grid, grid.values, augmented)
            kernel, _ = _optimize_variant(points, data, ospec, spec.pso, kind, seed)
        spectrum = _spectrum_step(cell, points, data.distances, kernel, augmented)
        if spec.output_dir is not None:
            tag = "augmented" if augmented else "plain"
            if kind != "hybrid":
                tag = f"{kind}-{tag}"
            path = Path(spec.output_dir) / f"spectra-{spec_digest(spec)}-n{points.n}-{tag}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            index = np.arange(len(spectrum.eigenvalues))
            _write_table(path, ["index", "eigenvalue"], index, spectrum.eigenvalues)
            files.append(path)
            cell.detail = f"spectrum: {path.name}"
    return cell


def _finish(
    spec: ExperimentSpec, cells: list[CellRecord], notes: tuple[str, ...], files=()
) -> ExperimentReport:
    """The study's report.  With an output directory, its CSV and text go
    there, named by the spec digest, and it lists them before ``files``."""
    report = ExperimentReport(
        study=spec.study,
        digest=spec_digest(spec),
        seed=spec.seed,
        notes=notes,
        cells=cells,
    )
    if spec.output_dir is not None:
        out = Path(spec.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path, txt_path = (out / f"{report.study}-{report.digest}{ext}" for ext in (".csv", ".txt"))
        write_report_csv(csv_path, report)
        with _opened(txt_path, "w") as (fh, _):
            fh.write(report_text(report))
        report.files.extend([csv_path, txt_path, *files])
    return report


# --- studies --------------------------------------------------------------


def _optimized_study(
    truth: Callable, notes: tuple[str, ...], spec: ExperimentSpec, cell_step: Callable = _optimized_cell
) -> ExperimentReport:
    """One ``cell_step`` per node count and kernel variant on data sampled
    from ``truth`` and scored on an evaluation grid valued by it; the steps
    add the files they write to this run's list.  Each count's search data is
    built once, before its first cell: a square of >= 4 nodes passes the plain
    and augmented checks.

    objective-comparison runs both objectives from one seed per cell; franke
    adds the epsilon sweep, run right after the largest count's cells.
    """
    grid = _truth_grid(spec.eval_grid_n, truth)
    compare = spec.study == "objective-comparison"
    cells, sweep = [], []
    files: list[Path] = []
    for n in spec.node_counts:
        points = _truth_grid(_grid_side(n), truth)
        # Every cell reads the grid distances but a spectra cell pinned or searched for loocv.
        gridless = spec.study == "spectra" and (spec.objective == "loocv" or n in spec.params_per_n)
        ospec = ObjectiveSpec("loocv" if gridless else "rms", grid, grid.values, augmented=True)
        data = prepare_search(ospec, points)
        for variant in spec.variants:
            for objective in ("rms", "loocv") if compare else (spec.objective,):
                key = (n, variant) if compare else (n, variant, objective)
                seed = _cell_seed(spec, spec.study, *key)
                cells.append(
                    cell_step(spec, points, data, grid, variant, objective, seed, files)
                )
        if spec.sweep_points and n == max(spec.node_counts):  # only franke reads sweep_points
            sweep = _epsilon_sweep(spec, grid, points, data, cells)
        del data  # freed before the next count's build, so one count's matrices live at a time
    return _finish(spec, cells + sweep, notes, files)


def _epsilon_sweep(
    spec: ExperimentSpec, grid: PointSet, points: PointSet, data: SearchData, cells: list[CellRecord]
) -> list[CellRecord]:
    """Error-versus-epsilon curves at the largest N, weights held fixed."""
    try:
        anchor = next(
            c for c in cells if c.variant == "hybrid" and c.n == points.n and c.ok
        )
        alpha, beta = anchor.alpha, anchor.beta
    except StopIteration:
        alpha, beta = 0.7, 1e-6  # no optimized hybrid cell to anchor on
    rms_specs = {a: ObjectiveSpec("rms", grid, grid.values, a) for a in (False, True)}
    out = []
    for eps in np.geomspace(0.05, 20.0, spec.sweep_points):
        for base in ("gaussian", "hybrid", "hybrid+poly"):
            kind, augmented = _variant(base)
            kernel = KernelSpec(kind, eps, alpha, beta)
            cell = CellRecord(
                study=spec.study,
                variant=f"sweep:{base}",
                n=points.n,
                epsilon=float(eps),
                alpha=kernel.alpha,
                beta=kernel.beta,
            )
            # sweeping into the flat regime is expected to hit singular
            # systems; that is the curve's story, not a failed cell
            with _timed(cell, failure="flagged: unsolvable at this epsilon"):
                rms = _trial_cost(rms_specs[augmented], points, kernel, data)
                _spectrum_step(cell, points, data.distances, kernel, augmented)
                cell.rms = rms
            out.append(cell)
    return out


def fault_side(coords) -> np.ndarray:
    """Signed distance direction across the synthetic fault trace (< 0: footwall).

    DomainError unless ``coords`` is an N x 2 matrix whose columns pass the
    truth-box rule of :func:`_xy`.
    """
    c = _as_coords(coords)
    if c.shape[1] != 2:
        raise DomainError(f"fault coordinates must be an N x 2 matrix, got shape {c.shape}")
    x, y = _xy(c[:, 0], c[:, 1])
    return x - (25.0 + 0.15 * (y - 25.0))


def fault_elevation(coords) -> np.ndarray:
    """Elevation model: quiet footwall, two-basin hanging wall, sharp step.

    Footwall values stay in [98.5, 101.5] and hanging-wall values in
    [20, 45], so any two points on opposite sides of the trace differ by
    more than FAULT_STEP.  The coordinates are checked as by
    :func:`fault_side`.
    """
    c = _as_coords(coords)
    side = fault_side(c)  # checks c
    x, y = c.T
    foot = 100.0 + 1.5 * np.sin(2 * np.pi * x / 50.0) * np.cos(2 * np.pi * y / 50.0)
    basin1 = 14.0 * np.exp(-(((x - 32.0) ** 2) + (y - 15.0) ** 2) / 60.0)
    basin2 = 11.0 * np.exp(-(((x - 40.0) ** 2) + (y - 38.0) ** 2) / 80.0)
    hang = 45.0 - basin1 - basin2
    return np.where(side < 0.0, foot, hang)


def synthetic_fault_surface(n_points: int = 78, seed: int = 0) -> PointSet:
    """Scattered synthetic elevations around a normal-fault step.

    Points are uniform over the [0, 50] km square; values follow
    :func:`fault_elevation`.  Deterministic per seed.
    """
    n_points = _as_int("n_points", n_points, 10)
    rng = np.random.default_rng(_as_int("seed", seed, 0))
    coords = rng.uniform(FAULT_DOMAIN[0], FAULT_DOMAIN[1], size=(n_points, 2))
    return PointSet(coords, fault_elevation(coords))


def fault_study(spec: ExperimentSpec) -> ExperimentReport:
    """LOOCV-tuned hybrid reconstruction of the synthetic fault surface."""
    points = synthetic_fault_surface(spec.fault_points, seed=spec.seed)
    target = make_tensor_grid(spec.fault_grid_n, 2, *FAULT_DOMAIN)
    cell = CellRecord(study=spec.study, variant="hybrid", n=spec.fault_points, objective="loocv")
    files: list[Path] = []
    with _timed(cell):
        ospec = ObjectiveSpec.loocv()
        data = prepare_search(ospec, points)
        seed = _cell_seed(spec, spec.study, spec.fault_points)
        kernel, best_cost = _optimize_variant(points, data, ospec, spec.pso, "hybrid", seed)
        model = _fit(points, data.distances, kernel, False, estimate=False)
        _spectrum_step(cell, points, data.distances, kernel, False)
        values = evaluate(model, target)
        cell.loocv_cost = best_cost
        cell.detail = f"reconstructed {target.n} locations"
        if spec.output_dir is not None:
            path = Path(spec.output_dir) / f"fault-reconstruction-{spec_digest(spec)}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_points_csv(path, target.with_values(values))
            files.append(path)
    return _finish(spec, [cell], ("synthetic fault: step > %g across the trace" % FAULT_STEP,), files)


def scaling_study(spec: ExperimentSpec) -> ExperimentReport:
    """Wall-time of single fits across N, with a log-log slope row.

    The fits run at one BLAS thread, so the slope follows the fit's own
    cost, not how well the host's cores share the larger LUs; the study's own
    ``_one_blas_thread`` (nested in run_study's) names the count.
    """
    counts = sorted(spec.node_counts)
    kernel = KernelSpec.hybrid(5.5, 0.7, 1e-6)
    cells = []
    timed: list[tuple[int, float]] = []
    with _one_blas_thread() as threads:
        for n in counts:
            points = _truth_grid(_grid_side(n), franke)
            cell = CellRecord(study=spec.study, variant="fit", n=n)
            try:
                fit(points, kernel)  # warm caches
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
    slope_cell = CellRecord(study=spec.study, variant="slope")
    if len(timed) >= 2:
        (n0, t0), (n1, t1) = timed[0], timed[-1]
        slope_cell.slope = float(np.log(t1 / t0) / np.log(n1 / n0))
        slope_cell.detail = f"between N={n0} and N={n1} on warmed runs at {threads}"
    else:
        slope_cell.status = "failed"
        slope_cell.detail = "fewer than two timing cells above resolution"
    cells.append(slope_cell)
    return _finish(spec, cells, (FRANKE_NOTE,))


def _timed_fit(points: PointSet, kernel: KernelSpec) -> float:
    start = perf_counter()
    fit(points, kernel)
    return perf_counter() - start


# Each study's runner and the study-specific fields it reads, with their
# defaults.  ExperimentSpec refuses a value for a field the row does not name.
# A looped study's runner binds its truth, its report notes and, for spectra, its cell step.
_SEARCHED = dict(node_counts=DESK_NODE_COUNTS, objective="rms", eval_grid_n=40)
_STUDY_TABLE = {
    "linear-reproduction": (
        partial(_optimized_study, linear_truth, ("truth: f(x, y) = (x + y)/2 on the unit square",)),
        {**_SEARCHED, "variants": ("gaussian", "hybrid", "hybrid+poly")},
    ),
    "franke": (
        partial(_optimized_study, franke, (FRANKE_NOTE,)),
        {**_SEARCHED, "variants": VARIANTS, "sweep_points": 0},
    ),
    "spectra": (
        partial(_optimized_study, franke, (FRANKE_NOTE,), cell_step=_spectra_cell),
        {**_SEARCHED, "variants": ("hybrid", "hybrid+poly"), "params_per_n": {}},
    ),
    "objective-comparison": (
        partial(_optimized_study, franke, (FRANKE_NOTE, "seeds shared between objectives")),
        dict(node_counts=DESK_NODE_COUNTS, variants=("hybrid",), eval_grid_n=40),
    ),
    "fault": (fault_study, dict(fault_points=78, fault_grid_n=501)),
    "scaling": (scaling_study, dict(node_counts=(400, 900, 1600))),
}

STUDIES = tuple(_STUDY_TABLE)


def run_study(spec: ExperimentSpec) -> ExperimentReport:
    """Run the study its spec names, at one BLAS thread (``_one_blas_thread``)."""
    with _one_blas_thread():
        return _STUDY_TABLE[spec.study][0](spec)


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


def write_report_csv(target, report: ExperimentReport) -> None:
    """One CSV row per cell, preceded by '#' header notes, to a path or stream."""
    with _opened(target, "w") as (fh, _):
        fh.write(f"# study: {report.study}  digest: {report.digest}  seed: {report.seed}\n")
        for note in report.notes:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for cell in report.cells:
            writer.writerow([_format_field(getattr(cell, name)) for name in _COLUMNS])


def read_report_csv(source) -> list[CellRecord]:
    """Read back a report CSV written by :func:`write_report_csv`.

    A row with the wrong field count, or a field its column's type rejects,
    raises ConfigError naming the line the row ends on.
    """
    with _opened(source, "r") as (fh, name):
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not rows or tuple(rows[0][1]) != tuple(_COLUMNS):
        raise ConfigError(f"{name}: not a report CSV")
    cells = []
    for lineno, row in rows[1:]:
        if len(row) != len(_COLUMNS):
            raise ConfigError(f"{name}:{lineno}: expected {len(_COLUMNS)} fields, got {len(row)}")
        try:
            values = {col: parse(text) for (col, parse), text in zip(_COLUMNS.items(), row)}
        except ValueError:
            raise ConfigError(f"{name}:{lineno}: bad numeric field in {row!r}") from None
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
