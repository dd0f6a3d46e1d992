"""Objective functions for kernel-parameter search.

Two costs are supported: the exact RMS error against a known truth on an
evaluation grid, and the leave-one-out cross-validation (LOOCV) cost, which
needs no truth.  LOOCV errors come from Rippa's shortcut

    e_k = c_k / (A**-1)_kk

using one full-data factorization.  A trial factors, solves and inverts
inside the one N x N kernel matrix it filled: the LU overwrites the matrix,
and the diagonal of A**-1 comes from the two triangular factors, each
inverted in place by recursive halving, so the solve for c runs before the
inverse.  No trial computes the LU's condition estimate: no cost depends on
it.  Augmented LOOCV refits N reduced systems instead, from one fill of
the full system: each refit copies the four blocks around row and column k
into a fresh matrix, so a refit costs little more than its LU.  That
brute-force path is kept because the perfbench loocv-augmented check
compares a search's cost with it bit for bit; an augmented shortcut needs
that check to accept a tolerance first.  It also serves as the independent
oracle for the plain shortcut.

``_trial_cost`` alone picks Rippa's shortcut or brute force: a search's
trials and the bench report's LOOCV cost both call it, and the public
``loocv_cost_*`` each run one path.  A cost is the 2-norm of the
leave-one-out errors; a norm that overflows is inf, without a warning, so
the trial costs SENTINEL_COST.  A search whose best cost is the sentinel
found no finite cost, and its callers report that as a failure.

A parameter search repeats one problem with different kernels, so
:func:`prepare_search` computes the kernel-independent part once -- the data
distances, the input checks and, for RMS, the grid-to-center distances -- and
every trial reuses it through the same private steps that ``fit`` and
``evaluate`` run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NumericalBreakdownError,
    SingularSystemError,
)
from .geometry import PointSet, pairwise_distances
from .interpolation import (
    AssembledSystem,
    InterpolationModel,
    _factorize,
    _fit,
    _fit_distances,
    _inverse_diagonal,
    _lu_solve,
    _predict,
    _solve,
    _system,
    evaluate,
    fit,  # noqa: F401  (kept importable from this module)
)
from .kernels import KernelSpec, _check_distances

# Cost assigned to parameter trials whose linear algebra fails; finite so a
# swarm can keep moving through bad regions of the search box.
SENTINEL_COST = 1e30

# |A^-1_kk| at or below this magnitude makes Rippa's quotient meaningless.
_BREAKDOWN_TOL = 1e-300


@dataclass(frozen=True)
class CostValue:
    """Scalar cost plus, for LOOCV, the signed per-point error vector."""

    value: float
    per_point_errors: np.ndarray | None = None


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which cost to minimize and the data it needs.

    kind "rms" requires an evaluation grid with truth values; kind "loocv"
    uses only the data's own values.  augmented selects the polynomial-tail
    fit for rms and the brute-force path for loocv.
    """

    kind: str
    grid: PointSet | None = None
    truth_values: np.ndarray | None = None
    augmented: bool = False

    def __post_init__(self):
        if self.kind not in ("rms", "loocv"):
            raise ConfigError(f"objective kind must be rms or loocv, got {self.kind!r}")
        if self.kind == "rms":
            if self.grid is None or self.truth_values is None:
                raise ConfigError("rms objective requires grid and truth_values")
            truth = np.asarray(self.truth_values, dtype=float).ravel()
            if truth.shape[0] != self.grid.n:
                raise ConfigError(
                    f"got {truth.shape[0]} truth values for {self.grid.n} grid points"
                )
            object.__setattr__(self, "truth_values", truth)

    @classmethod
    def rms(cls, grid: PointSet, truth_values, augmented: bool = False):
        return cls("rms", grid=grid, truth_values=truth_values, augmented=augmented)

    @classmethod
    def loocv(cls, augmented: bool = False):
        return cls("loocv", augmented=augmented)

    @classmethod
    def from_kind(cls, kind: str, grid=None, truth_values=None, augmented: bool = False):
        """The objective named by ``kind``; loocv ignores grid and truth."""
        if kind == "rms":
            return cls(kind, grid, truth_values, augmented)
        return cls(kind, augmented=augmented)


def _rms(values: np.ndarray, truth: np.ndarray) -> float:
    residual = values - truth
    return float(np.sqrt(np.mean(residual**2)))


def rms_error(model: InterpolationModel, grid: PointSet, truth_values) -> float:
    """Root mean square error of the interpolant over the grid."""
    truth = np.asarray(truth_values, dtype=float).ravel()
    if truth.shape[0] != grid.n:
        raise DomainError(
            f"got {truth.shape[0]} truth values for {grid.n} evaluation points"
        )
    return _rms(evaluate(model, grid), truth)


def _loocv_rippa(points: PointSet, distances: np.ndarray, kernel: KernelSpec) -> CostValue:
    system = _system(points, distances, kernel, augmented=False)
    factors, _ = _factorize(system.matrix, estimate=False)
    # Solve first: the inverse diagonal overwrites the factors.
    coeffs = _lu_solve(factors, system.rhs)
    diag = _inverse_diagonal(factors)
    if np.any(np.abs(diag) <= _BREAKDOWN_TOL):
        k = int(np.argmin(np.abs(diag)))
        raise NumericalBreakdownError(
            f"inverse diagonal entry {k} has magnitude {abs(diag[k]):.3e}"
        )
    errors = coeffs / diag
    with np.errstate(over="ignore"):  # an overflowing norm is inf; a trial costs the sentinel
        return CostValue(float(np.linalg.norm(errors)), errors)


def loocv_cost_rippa(points: PointSet, kernel: KernelSpec) -> CostValue:
    """LOOCV cost from one full-data factorization (plain systems only), on
    inputs checked as ``prepare_search`` checks them for a loocv search."""
    return _loocv_rippa(points, prepare_search(ObjectiveSpec.loocv(), points).distances, kernel)


def _loocv_brute(
    points: PointSet, distances: np.ndarray, kernel: KernelSpec, augmented: bool
) -> CostValue:
    """Refit without each point in turn, from one fill of the full system.

    Kernel entries depend only on their own distance, so deleting row and
    column k of the full system gives exactly the system a refit without
    point k would assemble, and row k gives the kernel values that predict
    point k.  The reduced matrix is the four blocks of the full one around
    row and column k; the right-hand side and the prediction row are the two
    pieces on either side of entry k.
    """
    n = points.n
    full = _system(points, distances, kernel, augmented)
    a, rhs, size = full.matrix, full.rhs, full.size - 1
    errors = np.empty(n)
    for k in range(n):
        matrix = np.empty((size, size))
        matrix[:k, :k] = a[:k, :k]
        matrix[:k, k:] = a[:k, k + 1 :]
        matrix[k:, :k] = a[k + 1 :, :k]
        matrix[k:, k:] = a[k + 1 :, k + 1 :]
        reduced = AssembledSystem(
            matrix, np.concatenate((rhs[:k], rhs[k + 1 :])), n - 1, full.n_poly
        )
        try:
            solution, _ = _solve(reduced, estimate=False)
        except SingularSystemError as exc:
            raise SingularSystemError(
                f"leave-one-out refit failed excluding point {k}: {exc}",
                index=exc.index,
            ) from exc
        # The same two products as evaluate: one 2-D kernel row times the
        # coefficients, plus the polynomial row times its coefficients.
        row = np.concatenate((a[k, :k], a[k, k + 1 : n]))[None, :]
        prediction = row @ solution[: n - 1]
        if augmented:
            prediction += a[k : k + 1, n:] @ solution[n - 1 :]
        errors[k] = points.values[k] - prediction[0]
    with np.errstate(over="ignore"):  # an overflowing norm is inf; a trial costs the sentinel
        return CostValue(float(np.linalg.norm(errors)), errors)


def loocv_cost_brute(
    points: PointSet, kernel: KernelSpec, augmented: bool = False
) -> CostValue:
    """LOOCV cost by refitting each leave-one-out subset (the oracle path), on
    inputs checked as ``prepare_search`` checks them for a loocv search."""
    distances = prepare_search(ObjectiveSpec.loocv(augmented), points).distances
    return _loocv_brute(points, distances, kernel, augmented)


@dataclass(frozen=True)
class SearchData:
    """The kernel-independent part of one objective on one point set.

    distances is the checked N x N data distance matrix.  grid_distances is
    the M x N grid-to-center matrix of an rms objective (None for loocv);
    a search holds it throughout, M * N * 8 bytes.
    """

    distances: np.ndarray
    grid_distances: np.ndarray | None = None


def prepare_search(spec: ObjectiveSpec, points: PointSet) -> SearchData:
    """Compute once what every trial of ``spec`` on ``points`` shares.

    Raises the input errors a trial would raise: DomainError for too few
    LOOCV points, a grid of the wrong dimension or distances that overflow,
    ConfigError for missing values, DegenerateInputError for duplicate
    points.
    """
    if spec.kind == "loocv":
        minimum = points.dim + 2 if spec.augmented else 2
        if points.n < minimum:
            raise DomainError(f"loocv needs at least {minimum} points, got {points.n}")
    distances = _fit_distances(points, spec.augmented)
    if spec.kind == "rms":
        grid_distances = pairwise_distances(spec.grid, points)
        _check_distances(grid_distances)
        return SearchData(distances, grid_distances)
    return SearchData(distances)


def _trial_cost(
    spec: ObjectiveSpec, points: PointSet, kernel: KernelSpec, data: SearchData
) -> float:
    if spec.kind == "rms":
        model = _fit(points, data.distances, kernel, spec.augmented, estimate=False)
        values = _predict(model, spec.grid.coords, data.grid_distances)
        return _rms(values, spec.truth_values)
    if spec.augmented:
        return _loocv_brute(points, data.distances, kernel, augmented=True).value
    return _loocv_rippa(points, data.distances, kernel).value


def objective_value(
    spec: ObjectiveSpec,
    points: PointSet,
    kernel: KernelSpec,
    data: SearchData | None = None,
) -> float:
    """Cost of one parameter trial; numerical failures become SENTINEL_COST.

    Configuration errors still propagate: only singular systems, numerical
    breakdowns, and non-finite costs are mapped to the sentinel, so an
    optimizer can keep sampling while misuse stays loud.  ``data`` is
    ``prepare_search(spec, points)``; a search passes it to every trial, and
    without it the call prepares its own.
    """
    if data is None:
        data = prepare_search(spec, points)
    try:
        cost = _trial_cost(spec, points, kernel, data)
    except (SingularSystemError, NumericalBreakdownError):
        return SENTINEL_COST
    if not np.isfinite(cost):
        return SENTINEL_COST
    return cost


def _require_found(best_value: float) -> float:
    """A search's best cost; NumericalBreakdownError if it is SENTINEL_COST,
    that is, if no trial found a finite cost."""
    if best_value == SENTINEL_COST:
        raise NumericalBreakdownError(
            f"the search found no finite cost: its best trial cost the sentinel {SENTINEL_COST:g}"
        )
    return best_value


def kernel_objective(
    spec: ObjectiveSpec, points: PointSet, to_kernel=None, data: SearchData | None = None
):
    """Bind an objective to a position -> KernelSpec mapping for an optimizer.

    The default mapping reads a position as the hybrid triple
    (epsilon, alpha, beta).  Positions that fail kernel construction (for
    example both weights clamped to zero) cost SENTINEL_COST rather than
    raising, since they are optimizer trials, not user configuration.
    ``data`` is ``prepare_search(spec, points)``; without it the search data
    is prepared here, once, so input errors raise here too.
    """
    if to_kernel is None:
        to_kernel = lambda pos: KernelSpec.hybrid(pos[0], pos[1], pos[2])
    if data is None:
        data = prepare_search(spec, points)

    def objective(position) -> float:
        try:
            kernel = to_kernel(np.asarray(position, dtype=float))
        except ConfigError:
            return SENTINEL_COST
        return objective_value(spec, points, kernel, data)

    return objective
