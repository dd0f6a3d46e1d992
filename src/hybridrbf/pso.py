"""Global-best particle swarm optimization over a bounded box.

The velocity update keeps an inertia weight w alongside the two attraction
terms:

    v <- w*v + c1*rand*(pbest - x) + c2*rand*(gbest - x)
    x <- x + v

and positions are clamped to the box after every move, zeroing the velocity
component that hit a wall.  The swarm is stable only when

    0 < c1 + c2 < 4        and        (c1 + c2)/2 - 1 < w < 1

(Perez and Behdinan); the defaults c1 = c2 = 1.49445, w = 0.729 satisfy
both.  Each generation moves the whole swarm as (swarm, dims) arrays.  The
trace bits rest on one substream per particle, spawned from the single seed,
that gives its start and then r1 then r2 each generation: so results never
depend on evaluation scheduling, and equal a per-particle loop's bit for bit.
A generation's trials are independent of one another, so a search whose
first two trials are slow enough runs every trial after them on a thread
pool (Schutte, Reinbolt, Fregly, Haftka and George, Int. J. Numer. Meth.
Eng. 61, 2004) with the same iterates.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import ConfigError, ToolkitError
from .geometry import _as_int, _float_table, _header_row, _opened, _write_table
from .interpolation import _available_cpus, _lowest_first, _one_blas_thread
from .kernels import _number

DEFAULT_C1 = 1.49445
DEFAULT_C2 = 1.49445
DEFAULT_INERTIA = 0.729

# Default search box for the kernel parameter triple (epsilon, alpha, beta).
# The weights are constrained to [0, 1]; epsilon only needs to be >= 0, and
# the cap at 20 comfortably covers the optima seen on unit-square problems.
DEFAULT_BOUNDS = ((0.01, 20.0), (0.0, 1.0), (0.0, 1.0))

# A search whose first two trials each take at least this long runs every
# later trial on a thread pool.  Two, so that a one-off cost of a first call
# (a lazily built objective, an import) cannot pool a cheap search.  A
# trial holds the GIL for its Python steps, and handing it to a thread
# costs some microseconds, so short trials gain nothing: on a 2-vCPU x86-64
# VM, 20 x 5 LOOCV searches on Halton points ran 7-13 % slower pooled at
# 90 points (0.34-0.42 ms a trial) and 6-9 % faster at 120 (0.64-0.68 ms).
_POOL_MIN_TRIAL_S = 5e-4


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 20
    generations: int = 5
    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2
    inertia_w: float = DEFAULT_INERTIA
    bounds: tuple[tuple[float, float], ...] = DEFAULT_BOUNDS
    seed: int = 0

    def __post_init__(self):
        """Check stability, sizes, seed and bounds; one ConfigError names
        every violation, joined by "; ".  The counts are stored as int, the
        factors as float and the bounds as (float, float) pairs, so equal
        configs hold equal values."""
        violations = []
        for name in ("c1", "c2", "inertia_w"):
            message = f"{name} must be a number, got %s"
            try:
                object.__setattr__(self, name, _number(getattr(self, name), ConfigError, message))
            except ConfigError as exc:
                violations.append(str(exc))
        if not violations:  # the stability region needs all three factors
            csum = self.c1 + self.c2
            if not 0.0 < csum < 4.0:
                violations.append(
                    f"stability requires 0 < c1 + c2 < 4, got c1 + c2 = {csum:g}"
                )
            lower_w = csum / 2.0 - 1.0
            if not lower_w < self.inertia_w < 1.0:
                violations.append(
                    "stability requires (c1 + c2)/2 - 1 < w < 1, got "
                    f"w = {self.inertia_w:g} with (c1 + c2)/2 - 1 = {lower_w:g}"
                )
        for name, least in (("swarm_size", 1), ("generations", 1), ("seed", 0)):
            try:
                object.__setattr__(self, name, _as_int(name, getattr(self, name), least))
            except ConfigError as exc:
                violations.append(str(exc))
        message, shown = "bounds must be (lower, upper) pairs of numbers, got %r", (self.bounds,)
        real = lambda value: _number(value, ConfigError, message, shown)
        try:
            bounds = tuple((real(lo), real(hi)) for lo, hi in self.bounds)
        except (TypeError, ValueError, ConfigError):  # no pairs, or no numbers
            violations.append(message % shown)
            bounds = ()
        else:
            if not bounds:
                violations.append(f"bounds must hold at least one pair, got {self.bounds!r}")
        object.__setattr__(self, "bounds", bounds)
        for i, (lo, hi) in enumerate(bounds):
            if not lo <= hi:
                violations.append(f"bounds[{i}] has lower {lo:g} > upper {hi:g}")
            elif not math.isfinite(hi - lo):
                violations.append(f"bounds[{i}] from {lo:g} to {hi:g} has no finite width")
        if violations:
            raise ConfigError("; ".join(violations))


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-generation history; index 0 is the state right after seeding."""

    gbest_val: np.ndarray
    gbest_pos: np.ndarray


@dataclass(frozen=True)
class PsoResult:
    best_position: np.ndarray
    best_value: float
    trace: OptimizationTrace


def _cost(objective, index: int, position: np.ndarray) -> float:
    """objective(position) as a float; ToolkitError, naming the particle
    and its position, if it is no finite real number."""
    value = objective(position)
    message = "objective returned %s for particle %d at position %s; costs must be finite"
    shown = value, index, position.tolist()
    cost = _number(value, ToolkitError, message, shown)
    if not math.isfinite(cost):
        raise ToolkitError(message % shown)
    return cost


def _costs(objective, positions: np.ndarray, pool, helpers: int, first: int = 0) -> np.ndarray:
    """The costs of particles ``first`` onward of one generation, mapped by
    ``interpolation._lowest_first`` over the calling thread and, with a
    pool, ``helpers`` pool threads."""
    values = np.empty(len(positions) - first)

    def cost(i: int) -> None:
        values[i - first] = _cost(objective, i, positions[i])

    _lowest_first(cost, range(first, len(positions)), pool, helpers)
    return values


def pso_minimize(objective, config: PsoConfig) -> PsoResult:
    """Minimize objective(position) over the config's box.

    objective takes a length-D position array and returns a finite cost
    (numerical failures should already be mapped to a large sentinel); a
    value that is not finite raises ToolkitError naming the particle and
    its position.  It gets a row view of the swarm's positions, once per
    particle per generation.  The search runs at one BLAS thread (see
    ``interpolation._one_blas_thread``), and particles 0 and 1 run first,
    on the calling thread.  When each of the two takes at least
    _POOL_MIN_TRIAL_S, every later trial, from particle 2 of the first
    generation on, runs on the calling thread and W - 1 pool threads, W
    being the available CPUs capped at the swarm size, so the objective
    must then be thread-safe and is no longer called in index order; the
    pool is closed on return.  Otherwise every trial runs in index order on
    the calling thread.  An exception from a trial propagates unchanged,
    the lowest index's first.

    Deterministic: equal (objective, config) give bitwise-equal traces,
    whatever W, as long as each cost depends on its position alone.
    """
    lo, hi = np.array(config.bounds, dtype=float).reshape(-1, 2).T
    seeds = np.random.SeedSequence(config.seed).spawn(config.swarm_size)
    rngs = [np.random.default_rng(s) for s in seeds]
    workers = min(_available_cpus(), config.swarm_size)

    positions = np.array([rng.uniform(lo, hi) for rng in rngs])
    velocities = np.zeros_like(positions)
    pbest_pos = positions.copy()
    pbest_val = np.empty(config.swarm_size)
    with ExitStack() as stack:
        stack.enter_context(_one_blas_thread())
        timed = min(2, config.swarm_size)
        stamps = [perf_counter()]
        for i in range(timed):
            pbest_val[i] = _cost(objective, i, positions[i])
            stamps.append(perf_counter())
        pool = None
        if workers > 1 and min(np.diff(stamps)) >= _POOL_MIN_TRIAL_S:
            from concurrent.futures import ThreadPoolExecutor

            pool = stack.enter_context(ThreadPoolExecutor(workers - 1))
        pbest_val[timed:] = _costs(objective, positions, pool, workers - 1, timed)
        g = int(np.argmin(pbest_val))
        gbest_pos, gbest_val = pbest_pos[g].copy(), float(pbest_val[g])
        hist_val, hist_pos = [gbest_val], [gbest_pos]

        for _ in range(config.generations):
            r1, r2 = np.stack([rng.random((2, lo.size)) for rng in rngs], axis=1)
            velocities = (
                config.inertia_w * velocities
                + config.c1 * r1 * (pbest_pos - positions)
                + config.c2 * r2 * (gbest_pos - positions)
            )
            positions = positions + velocities
            hit_wall = (positions < lo) | (positions > hi)
            # Only a position that left the box moves: np.clip can turn +0.0
            # into a -0.0 bound, or not, with the array's shape.
            positions = np.where(hit_wall, np.clip(positions, lo, hi), positions)
            velocities[hit_wall] = 0.0
            values = _costs(objective, positions, pool, workers - 1)
            # strict improvement only; the global best is the first index of the
            # least personal best below it, as an index-order scan would pick
            improved = values < pbest_val
            pbest_val[improved] = values[improved]
            pbest_pos[improved] = positions[improved]
            better = np.flatnonzero(pbest_val < gbest_val)
            if better.size:
                g = better[np.argmin(pbest_val[better])]
                gbest_pos, gbest_val = pbest_pos[g].copy(), float(pbest_val[g])
            hist_val.append(gbest_val)
            hist_pos.append(gbest_pos)

    trace = OptimizationTrace(gbest_val=np.array(hist_val), gbest_pos=np.array(hist_pos))
    return PsoResult(gbest_pos, gbest_val, trace)


def write_trace_csv(target, trace: OptimizationTrace, param_names=None) -> None:
    """Export the gbest history: generation, gbest_val, one column per dim."""
    dims = trace.gbest_pos.shape[1]
    names = list(param_names) if param_names is not None else [f"x{i + 1}" for i in range(dims)]
    if len(names) != dims:
        raise ConfigError(f"got {len(names)} column names for {dims} dimensions")
    generations = np.arange(trace.gbest_val.shape[0])
    _write_table(
        target, ["generation", "gbest_val", *names], generations, trace.gbest_val, trace.gbest_pos
    )


def read_trace_csv(source) -> OptimizationTrace:
    """Read back a trace CSV written by :func:`write_trace_csv`.

    Rows are read by the same table reader as points files: blank and
    whitespace-only lines are skipped, and a row with a different field
    count than the header, or a field ``float`` refuses (generation
    included), is rejected with its 1-based line number.
    """
    with _opened(source, "r") as (fh, name):
        header, header_lines = _header_row(fh)
        if header is None or len(header) < 3 or header[:2] != ["generation", "gbest_val"]:
            raise ConfigError("not a trace CSV (expected generation,gbest_val,... header)")
        table = _float_table(fh, name, len(header), header_lines)
    return OptimizationTrace(
        gbest_val=table[:, 1].copy(), gbest_pos=np.ascontiguousarray(table[:, 2:])
    )
