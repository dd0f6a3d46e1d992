"""Radial kernels, including the hybrid Gaussian-cubic kernel.

A radial kernel is a univariate function phi applied to the Euclidean
distance r >= 0 between an evaluation point and a center.  The hybrid kernel

    phi(r) = alpha * exp(-(epsilon * r)**2) + beta * r**3

blends the infinitely smooth Gaussian with the shape-parameter-free cubic:
a small cubic admixture tames the ill-conditioning of flat Gaussians while
the Gaussian part keeps the fast convergence on smooth data.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

KERNEL_KINDS = ("gaussian", "cubic", "hybrid")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel kind plus its parameter triple (epsilon, alpha, beta).

    epsilon is the inverse-length shape parameter and must be >= 0; alpha
    and beta weight the Gaussian and cubic parts and live in [0, 1], and
    not both are 0 (the zero kernel).  The whole triple is checked for every
    kind; then gaussian stores (epsilon, 1, 0) and cubic (0, 0, 1), the two
    ends of the hybrid.  So specs that differ only in what their kind
    ignores are equal, and gaussian(eps) equals hybrid(eps, 1, 0) bit for bit.
    """

    kind: str
    epsilon: float
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        try:
            eps, alpha, beta = float(self.epsilon), float(self.alpha), float(self.beta)
        except (TypeError, ValueError, OverflowError):
            triple = f"{self.epsilon!r}, {self.alpha!r}, {self.beta!r}"
            raise ConfigError(f"epsilon, alpha and beta must be numbers, got {triple}") from None
        if not np.isfinite(eps) or eps < 0.0:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if alpha == 0.0 and beta == 0.0:
            raise ConfigError("alpha and beta cannot both be zero (zero kernel)")
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(
                f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}"
            )
        if self.kind == "cubic":
            eps, alpha, beta = 0.0, 0.0, 1.0
        elif self.kind == "gaussian":
            alpha, beta = 1.0, 0.0
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def gaussian(cls, epsilon: float) -> "KernelSpec":
        return cls("gaussian", epsilon)

    @classmethod
    def cubic(cls) -> "KernelSpec":
        return cls("cubic", 0.0)

    @classmethod
    def hybrid(cls, epsilon: float, alpha: float, beta: float) -> "KernelSpec":
        return cls("hybrid", epsilon, alpha, beta)

    def to_record(self) -> str:
        """Serialize as ``kind,epsilon,alpha,beta`` with round-trip floats."""
        return f"{self.kind},{self.epsilon!r},{self.alpha!r},{self.beta!r}"

    @classmethod
    def from_record(cls, record: str) -> "KernelSpec":
        parts = [s.strip() for s in record.strip().split(",")]
        if len(parts) != 4:
            raise ConfigError(
                f"kernel record must have 4 comma-separated fields, got {record!r}"
            )
        kind = parts[0].lower()
        try:
            eps, alpha, beta = (float(s) for s in parts[1:])
        except ValueError as exc:
            raise ConfigError(f"bad numeric field in kernel record {record!r}") from exc
        return cls(kind, eps, alpha, beta)


def _numbers(obj, message: str) -> np.ndarray:
    """``obj`` as a float array; DomainError ``message`` if it holds anything but numbers."""
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{message}, got {reprlib.repr(obj)}") from None


def eval_kernel(spec: KernelSpec, r: float) -> float:
    """Evaluate phi(r) at a single nonnegative radius."""
    rv = _numbers(r, "radius must be a number")
    if rv.ndim != 0:
        raise DomainError("eval_kernel expects a scalar radius; use eval_kernel_batch")
    if not np.isfinite(rv) or rv < 0.0:
        raise DomainError(f"radius must be finite and >= 0, got {r}")
    # A one-element array runs the ufunc loops a batch runs, where numpy's
    # scalar arithmetic could round differently.
    return float(_fill(spec, rv.reshape(1))[0])


def eval_kernel_batch(spec: KernelSpec, distances) -> np.ndarray:
    """Evaluate phi elementwise on a matrix of nonnegative distances.

    Runs the fill :func:`eval_kernel` runs, so batch entries match the scalar
    path bit for bit.
    """
    d = _numbers(distances, "distances must be numbers")
    if not np.all(np.isfinite(d)):
        raise DomainError("all distances must be finite")
    if np.any(d < 0.0):
        raise DomainError("all distances must be >= 0")
    return _fill(spec, d)


# Cells per block of the in-place fill and of evaluation: 32k float64 cells
# are 256 KB, so a block and its scratch stay in L2 cache between passes.
_FILL_BLOCK = 32_768


@np.errstate(over="ignore")
def _fill(spec: KernelSpec, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """phi on checked distances: alpha * exp(-(epsilon * r)**2) + beta * r**3
    at the spec's stored triple, the one formula every kind runs.

    A term whose weight is 0 is skipped, so a gaussian never meets an
    overflowing cube, and a weight of 1 is not multiplied.  The ufuncs run
    in place on one block of the output at a time, with one block of
    scratch; the cube is two multiplications, whose bits no SIMD dispatch
    changes.  The output is ``out`` when given (a C-contiguous float array
    of ``r``'s shape, which may be ``r`` itself: each block's cube is taken
    before the Gaussian overwrites its distances), else a new array.
    Overflow gives inf without a warning; ``_factorize`` rejects a kernel
    matrix holding it.
    """
    eps, alpha, beta = spec.epsilon, spec.alpha, spec.beta
    if out is None:
        out = np.empty(r.shape)
    flat_r, flat_out = r.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(_FILL_BLOCK, flat_r.size) if beta != 0.0 else 0)
    for start in range(0, flat_r.size, _FILL_BLOCK):
        src = flat_r[start : start + _FILL_BLOCK]
        dst = flat_out[start : start + _FILL_BLOCK]
        if beta != 0.0:
            cube = np.multiply(src, src, out=scratch[: src.size])
            cube = np.multiply(cube, src, out=dst if alpha == 0.0 else cube)
            if beta != 1.0:
                cube *= beta
        if alpha != 0.0:
            np.multiply(eps, src, out=dst)
            np.square(dst, out=dst)
            np.negative(dst, out=dst)
            np.exp(dst, out=dst)
            if alpha != 1.0:
                dst *= alpha
            if beta != 0.0:
                dst += cube
    return out
