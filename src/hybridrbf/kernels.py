"""Radial kernels, including the hybrid Gaussian-cubic kernel.

A radial kernel is a univariate function phi applied to the Euclidean
distance r >= 0 between an evaluation point and a center.  The hybrid kernel

    phi(r) = alpha * exp(-(epsilon * r)**2) + beta * r**3

blends the infinitely smooth Gaussian with the shape-parameter-free cubic:
a small cubic admixture tames the ill-conditioning of flat Gaussians while
the Gaussian part keeps the fast convergence on smooth data.

The kernel is defined for real numbers only, so every real-number input is
read by one rule, :func:`_number` (scalars) or :func:`_numbers` (arrays): what
``float`` converts, less a complex value, which numpy would cast to its real part.
"""

from __future__ import annotations

import math
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
        shown = self.epsilon, self.alpha, self.beta
        message = "epsilon, alpha and beta must be numbers, got %r, %r, %r"
        eps = _number(self.epsilon, ConfigError, message, shown)
        alpha = _number(self.alpha, ConfigError, message, shown)
        beta = _number(self.beta, ConfigError, message, shown)
        if not math.isfinite(eps) or eps < 0.0:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if alpha == 0.0 and beta == 0.0:
            raise ConfigError("alpha and beta cannot both be zero (zero kernel)")
        if not isinstance(self.kind, str) or self.kind not in KERNEL_KINDS:
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
        return cls(parts[0].lower(), *parts[1:])  # the number rule reads numeric text


def _is_complex(obj) -> bool:
    """Whether ``obj`` is a complex, or a list, tuple or array holding one."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind == "c" or obj.dtype.kind == "O" and any(map(_is_complex, obj.flat))
    if isinstance(obj, (list, tuple)):
        return any(map(_is_complex, obj))
    return isinstance(obj, (complex, np.complexfloating))


def _number(value, error: type[Exception], message: str, shown=None) -> float:
    """``float(value)`` unless that fails or ``value`` is complex: then
    ``error(message % shown)``, ``shown`` defaulting to ``value``'s repr."""
    if isinstance(value, float) or not _is_complex(value):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(message % (reprlib.repr(value) if shown is None else shown)) from None


def _numbers(obj, error: type[Exception], message: str, **kwargs) -> np.ndarray:
    """``np.array(obj, dtype=float, **kwargs)`` under the rule of :func:`_number`."""
    if not _is_complex(obj):
        try:
            return np.array(obj, dtype=float, **kwargs)
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(message % reprlib.repr(obj)) from None


def eval_kernel(spec: KernelSpec, r: float) -> float:
    """Evaluate phi(r) at a single nonnegative radius."""
    rv = _numbers(r, DomainError, "radius must be a number, got %s", copy=None)
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
    d = _numbers(distances, DomainError, "distances must be numbers, got %s", copy=None)
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
