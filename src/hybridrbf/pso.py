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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import _as_int, _float_table, _header_row, _opened, _write_table

DEFAULT_C1 = 1.49445
DEFAULT_C2 = 1.49445
DEFAULT_INERTIA = 0.729

# Default search box for the kernel parameter triple (epsilon, alpha, beta).
# The weights are constrained to [0, 1]; epsilon only needs to be >= 0, and
# the cap at 20 comfortably covers the optima seen on unit-square problems.
DEFAULT_BOUNDS = ((0.01, 20.0), (0.0, 1.0), (0.0, 1.0))


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
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except (TypeError, ValueError):
                violations.append(f"{name} must be a number, got {getattr(self, name)!r}")
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
                value = _as_int(name, getattr(self, name))
            except ConfigError as exc:
                violations.append(str(exc))
                continue
            object.__setattr__(self, name, value)
            if value < least:
                violations.append(f"{name} must be >= {least}, got {value}")
        try:
            bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        except (TypeError, ValueError):
            violations.append(
                f"bounds must be (lower, upper) pairs of numbers, got {self.bounds!r}"
            )
            bounds = ()
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


def pso_minimize(objective, config: PsoConfig) -> PsoResult:
    """Minimize objective(position) over the config's box.

    objective takes a length-D position array and returns a finite cost
    (numerical failures should already be mapped to a large sentinel).  It
    is called once per particle, in index order, and gets a row view of the
    swarm's positions.  Deterministic: equal (objective, config) give
    bitwise-equal traces.
    """
    lo, hi = np.array(config.bounds, dtype=float).reshape(-1, 2).T
    seeds = np.random.SeedSequence(config.seed).spawn(config.swarm_size)
    rngs = [np.random.default_rng(s) for s in seeds]

    positions = np.array([rng.uniform(lo, hi) for rng in rngs])
    velocities = np.zeros_like(positions)
    pbest_pos = positions.copy()
    pbest_val = np.array([float(objective(x)) for x in positions])
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
        positions = np.clip(positions, lo, hi)
        velocities[hit_wall] = 0.0
        values = np.array([float(objective(x)) for x in positions])
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
