"""Thread counts of the two OpenBLAS copies the package calls, read from
each library itself rather than through the package's own loader."""

import ctypes

from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack


def blas_counts() -> list[int]:
    """[scipy's count, numpy's count]."""
    return [
        getattr(ctypes.CDLL(path), name)()
        for path, name in (
            (_flapack.__file__, "scipy_openblas_get_num_threads"),
            (_umath_linalg.__file__, "scipy_openblas_get_num_threads64_"),
        )
    ]
