"""Radial kernels, including the hybrid Gaussian-cubic kernel.

A radial kernel is a univariate function phi applied to the Euclidean
distance r >= 0 between an evaluation point and a center.  The hybrid kernel

    phi(r) = alpha * exp(-(epsilon * r)**2) + beta * r**3

blends the infinitely smooth Gaussian with the shape-parameter-free cubic:
a small cubic admixture tames the ill-conditioning of flat Gaussians while
the Gaussian part keeps the fast convergence on smooth data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

KERNEL_KINDS = (
    "gaussian",
    "cubic",
    "hybrid",
    "multiquadric",
    "inverse-multiquadric",
    "thin-plate-spline",
    "wendland",
)


@dataclass(frozen=True)
class HybridParams:
    """Kernel parameter triple (epsilon, alpha, beta).

    epsilon is the inverse-length shape parameter and must be >= 0; alpha
    and beta weight the Gaussian and cubic parts and live in [0, 1].  The
    pair alpha = beta = 0 would give the zero kernel and is rejected.
    """

    epsilon: float
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        eps, alpha, beta = float(self.epsilon), float(self.alpha), float(self.beta)
        if not np.isfinite(eps) or eps < 0.0:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if alpha == 0.0 and beta == 0.0:
            raise ConfigError("alpha and beta cannot both be zero (zero kernel)")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def normalized(cls, epsilon: float, beta: float) -> "HybridParams":
        """Two-parameter convenience form with alpha tied to 1 - beta."""
        return cls(epsilon=epsilon, alpha=1.0 - float(beta), beta=beta)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel kind plus its parameters.

    cubic and thin-plate-spline ignore epsilon; alpha and beta are read only
    by the hybrid kind.  gaussian(eps) evaluates identically to
    hybrid(eps, alpha=1, beta=0).
    """

    kind: str
    params: HybridParams

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(
                f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}"
            )

    @classmethod
    def gaussian(cls, epsilon: float) -> "KernelSpec":
        return cls("gaussian", HybridParams(epsilon, 1.0, 0.0))

    @classmethod
    def cubic(cls) -> "KernelSpec":
        return cls("cubic", HybridParams(0.0, 0.0, 1.0))

    @classmethod
    def hybrid(cls, epsilon: float, alpha: float, beta: float) -> "KernelSpec":
        return cls("hybrid", HybridParams(epsilon, alpha, beta))

    @classmethod
    def normalized_hybrid(cls, epsilon: float, beta: float) -> "KernelSpec":
        return cls("hybrid", HybridParams.normalized(epsilon, beta))

    @classmethod
    def from_name(
        cls, kind: str, epsilon: float, alpha: float, beta: float
    ) -> "KernelSpec":
        """Kernel ``kind`` holding only the parameters its formula reads.

        hybrid takes all three; cubic and thin-plate-spline read none and
        get fixed parameters; every other kind reads epsilon alone.
        """
        if kind == "hybrid":
            return cls.hybrid(epsilon, alpha, beta)
        if kind == "cubic":
            return cls.cubic()
        if kind == "thin-plate-spline":
            return cls(kind, HybridParams(0.0, 1.0, 0.0))
        return cls(kind, HybridParams(epsilon, 1.0, 0.0))

    def to_record(self) -> str:
        """Serialize as ``kind,epsilon,alpha,beta`` with round-trip floats."""
        p = self.params
        return f"{self.kind},{p.epsilon!r},{p.alpha!r},{p.beta!r}"

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
        return cls(kind, HybridParams(eps, alpha, beta))


def eval_kernel(spec: KernelSpec, r: float) -> float:
    """Evaluate phi(r) at a single nonnegative radius."""
    rv = np.asarray(r, dtype=float)
    if rv.ndim != 0:
        raise DomainError("eval_kernel expects a scalar radius; use eval_kernel_batch")
    if not np.isfinite(rv) or rv < 0.0:
        raise DomainError(f"radius must be finite and >= 0, got {r}")
    # A one-element array runs the ufunc loops a batch runs, where numpy's
    # scalar arithmetic could round differently.
    return float(_fill(spec, rv.reshape(1))[0])


def _check_distances(d: np.ndarray) -> None:
    """Raise DomainError unless every distance is finite and >= 0."""
    if not np.all(np.isfinite(d)):
        raise DomainError("all distances must be finite")
    if np.any(d < 0.0):
        raise DomainError("all distances must be >= 0")


def eval_kernel_batch(spec: KernelSpec, distances) -> np.ndarray:
    """Evaluate phi elementwise on a matrix of nonnegative distances.

    Runs the fill :func:`eval_kernel` runs, so batch entries match the scalar
    path bit for bit.
    """
    d = np.asarray(distances, dtype=float)
    _check_distances(d)
    return _fill(spec, d)


# Cells per block of the in-place fill and of evaluation: 32k float64 cells
# are 256 KB, so a block and its scratch stay in L2 cache between passes.
_FILL_BLOCK = 32_768


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fill(spec: KernelSpec, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """phi on checked distances: the one place each kernel formula is written.

    Each kind's ufuncs run in place on one block at a time of one output, so
    a fill holds the output plus one block of scratch.  Powers are products:
    the cube is two multiplications and wendland's fourth power two squares,
    whose bits no SIMD dispatch changes.  The output is ``out`` when given (a
    C-contiguous float array of ``r``'s shape), else a new array.  Values
    that overflow become inf or nan without a warning; ``_factorize``
    rejects a kernel matrix holding them.
    """
    kind, params = spec.kind, spec.params
    eps, alpha, beta = params.epsilon, params.alpha, params.beta
    if out is None:
        out = np.empty(r.shape)
    flat_r, flat_out = r.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(_FILL_BLOCK, flat_r.size))
    for start in range(0, flat_r.size, _FILL_BLOCK):
        src = flat_r[start : start + _FILL_BLOCK]
        dst = flat_out[start : start + _FILL_BLOCK]
        tmp = scratch[: src.size]
        if kind in ("cubic", "thin-plate-spline"):
            np.multiply(src, src, out=dst)
            if kind == "cubic":
                dst *= src
            else:  # r**2 * log(r), with the limit value 0 at r = 0
                np.log(src, out=tmp)
                dst *= tmp
                dst[~(src > 0.0)] = 0.0
            continue
        np.multiply(eps, src, out=dst)
        if kind == "wendland":  # (1 - eps*r)_+**4 * (4*eps*r + 1)
            np.subtract(1.0, dst, out=dst)
            np.maximum(dst, 0.0, out=dst)
            np.square(dst, out=dst)
            np.square(dst, out=dst)
            np.multiply(4.0 * eps, src, out=tmp)
            tmp += 1.0
            dst *= tmp
            continue
        np.square(dst, out=dst)
        if kind in ("multiquadric", "inverse-multiquadric"):  # (1 + (eps*r)**2)**(+-1/2)
            dst += 1.0
            np.sqrt(dst, out=dst)
            if kind == "inverse-multiquadric":
                np.divide(1.0, dst, out=dst)
            continue
        np.negative(dst, out=dst)  # gaussian exp(-(eps*r)**2), and hybrid adds beta*r**3
        np.exp(dst, out=dst)
        if kind == "hybrid":
            dst *= alpha
            np.multiply(src, src, out=tmp)
            tmp *= src
            tmp *= beta
            dst += tmp
    return out
