"""Whole-array kernel formulas: the oracle the blocked fill must equal bit for bit.

Each kind has its own expression, written apart from ``kernels._fill`` but
with the ufuncs it runs, in the same order, on the whole array at once.  A
hybrid term whose weight is 0 is left out, as the fill leaves it out, so an
overflowing cube never meets a zero beta.
"""

import numpy as np

from hybridrbf.kernels import KernelSpec


@np.errstate(over="ignore")
def phi(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    kind, eps, alpha, beta = spec.kind, spec.epsilon, spec.alpha, spec.beta
    if kind == "gaussian":
        return np.exp(-((eps * r) ** 2))
    if kind == "cubic":
        return r * r * r
    if kind == "hybrid":
        if beta == 0.0:
            return alpha * np.exp(-((eps * r) ** 2))
        if alpha == 0.0:
            return beta * (r * r * r)
        return alpha * np.exp(-((eps * r) ** 2)) + beta * (r * r * r)
    raise ValueError(f"unknown kernel kind {kind!r}")
