"""Whole-array kernel formulas: the oracle the blocked fill must equal bit for bit.

Each expression runs the ufuncs ``kernels._fill`` runs, in the same order, on
the whole array at once.
"""

import numpy as np

from hybridrbf.kernels import KernelSpec


def phi(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    kind, eps, alpha, beta = spec.kind, spec.epsilon, spec.alpha, spec.beta
    if kind == "gaussian":
        return np.exp(-((eps * r) ** 2))
    if kind == "cubic":
        return r * r * r
    if kind == "hybrid":
        return alpha * np.exp(-((eps * r) ** 2)) + beta * (r * r * r)
    if kind == "multiquadric":
        return np.sqrt(1.0 + (eps * r) ** 2)
    if kind == "inverse-multiquadric":
        return 1.0 / np.sqrt(1.0 + (eps * r) ** 2)
    if kind == "thin-plate-spline":
        # r**2 * log(r), with the limit value 0 at r = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r > 0.0, r * r * np.log(r), 0.0)
    if kind == "wendland":
        cut = np.maximum(1.0 - eps * r, 0.0)
        c2 = cut * cut
        return c2 * c2 * (4.0 * eps * r + 1.0)
    raise ValueError(f"unknown kernel kind {kind!r}")
