"""Global-best particle swarm optimization over a bounded box.

The velocity update keeps an inertia weight w alongside the two attraction
terms:

    v <- w*v + c1*rand*(pbest - x) + c2*rand*(gbest - x)
    x <- x + v

and positions are clamped to the box after every move, zeroing the velocity
component that hit a wall.  The swarm is stable only when

    0 < c1 + c2 < 4        and        (c1 + c2)/2 - 1 < w < 1

(Perez and Behdinan); the defaults c1 = c2 = 1.49445, w = 0.729 satisfy
both.  Randomness is split one substream per particle, spawned from the
single seed, so results never depend on evaluation scheduling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import _float_rows, _opened, _write_table

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


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-generation history; index 0 is the state right after seeding.

    positions is (generations + 1, swarm, dims) when recording was requested,
    else None.
    """

    gbest_val: np.ndarray
    gbest_pos: np.ndarray
    positions: np.ndarray | None = None


@dataclass(frozen=True)
class PsoResult:
    best_position: np.ndarray
    best_value: float
    trace: OptimizationTrace


def validate_config(config: PsoConfig) -> list[str]:
    """Check stability inequalities and bound sanity; empty list means valid."""
    violations = []
    csum = config.c1 + config.c2
    if not 0.0 < csum < 4.0:
        violations.append(
            f"stability requires 0 < c1 + c2 < 4, got c1 + c2 = {csum:g}"
        )
    lower_w = csum / 2.0 - 1.0
    if not lower_w < config.inertia_w < 1.0:
        violations.append(
            "stability requires (c1 + c2)/2 - 1 < w < 1, got "
            f"w = {config.inertia_w:g} with (c1 + c2)/2 - 1 = {lower_w:g}"
        )
    if config.swarm_size < 1:
        violations.append(f"swarm_size must be >= 1, got {config.swarm_size}")
    if config.generations < 1:
        violations.append(f"generations must be >= 1, got {config.generations}")
    for i, (lo, hi) in enumerate(config.bounds):
        if not lo <= hi:
            violations.append(f"bounds[{i}] has lower {lo:g} > upper {hi:g}")
    return violations


def require_valid_config(config: PsoConfig) -> None:
    """Raise one ConfigError naming every violation of ``config``, joined by "; "."""
    violations = validate_config(config)
    if violations:
        raise ConfigError("; ".join(violations))


def pso_minimize(objective, config: PsoConfig, record_positions: bool = False) -> PsoResult:
    """Minimize objective(position) over the config's box.

    objective takes a length-D position array and returns a finite cost
    (numerical failures should already be mapped to a large sentinel).
    Deterministic: equal (objective, config) give bitwise-equal traces.
    """
    require_valid_config(config)
    lo = np.array([b[0] for b in config.bounds], dtype=float)
    hi = np.array([b[1] for b in config.bounds], dtype=float)
    dims = lo.shape[0]
    swarm = config.swarm_size
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(swarm)]

    positions = np.empty((swarm, dims))
    for i, rng in enumerate(rngs):
        positions[i] = rng.uniform(lo, hi)
    velocities = np.zeros((swarm, dims))
    values = np.array([float(objective(positions[i])) for i in range(swarm)])

    pbest_pos = positions.copy()
    pbest_val = values.copy()
    g = int(np.argmin(pbest_val))
    gbest_pos = pbest_pos[g].copy()
    gbest_val = float(pbest_val[g])

    hist_val = [gbest_val]
    hist_pos = [gbest_pos.copy()]
    hist_particles = [positions.copy()] if record_positions else None

    for _ in range(config.generations):
        for i, rng in enumerate(rngs):
            r1 = rng.random(dims)
            r2 = rng.random(dims)
            velocities[i] = (
                config.inertia_w * velocities[i]
                + config.c1 * r1 * (pbest_pos[i] - positions[i])
                + config.c2 * r2 * (gbest_pos - positions[i])
            )
            positions[i] = positions[i] + velocities[i]
            clamped_low = positions[i] < lo
            clamped_high = positions[i] > hi
            positions[i] = np.clip(positions[i], lo, hi)
            velocities[i][clamped_low | clamped_high] = 0.0
        values = np.array([float(objective(positions[i])) for i in range(swarm)])
        # barrier update, strict improvement only, deterministic index order
        for i in range(swarm):
            if values[i] < pbest_val[i]:
                pbest_val[i] = values[i]
                pbest_pos[i] = positions[i].copy()
            if pbest_val[i] < gbest_val:
                gbest_val = float(pbest_val[i])
                gbest_pos = pbest_pos[i].copy()
        hist_val.append(gbest_val)
        hist_pos.append(gbest_pos.copy())
        if record_positions:
            hist_particles.append(positions.copy())

    trace = OptimizationTrace(
        gbest_val=np.array(hist_val),
        gbest_pos=np.array(hist_pos),
        positions=np.array(hist_particles) if record_positions else None,
    )
    return PsoResult(gbest_pos.copy(), gbest_val, trace)


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

    Rows are read as points rows are: blank lines are skipped, and a row with
    a different field count than the header, or a non-numeric field
    (generation included), is rejected with its 1-based line number.
    """
    with _opened(source, "r") as (fh, name):
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 3 or header[:2] != ["generation", "gbest_val"]:
            raise ConfigError("not a trace CSV (expected generation,gbest_val,... header)")
        table = _float_rows(reader, name, len(header))
    return OptimizationTrace(
        gbest_val=table[:, 1].copy(), gbest_pos=np.ascontiguousarray(table[:, 2:])
    )
