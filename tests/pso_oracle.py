"""Per-particle PSO loop: the oracle the whole-swarm step must equal bit for bit.

Each particle moves, is clamped and updates its personal and the global best
in index order, one row at a time, with the same substreams and draws as
``pso.pso_minimize``.
"""

import numpy as np

from hybridrbf.pso import OptimizationTrace, PsoConfig, PsoResult


def pso_minimize(objective, config: PsoConfig) -> PsoResult:
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
            positions[i][clamped_low] = lo[clamped_low]
            positions[i][clamped_high] = hi[clamped_high]
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

    trace = OptimizationTrace(gbest_val=np.array(hist_val), gbest_pos=np.array(hist_pos))
    return PsoResult(gbest_pos.copy(), gbest_val, trace)
