"""Dense interpolation systems: assembly, solving, evaluation, spectra.

The plain system is A c = y with A[j, k] = phi(||x_j - x_k||).  The
augmented system appends a linear polynomial tail [1, x_1, ..., x_s] and its
side conditions, giving the symmetric saddle-point block form

    [ A   P ] [ c ]   [ y ]
    [ P^T 0 ] [ d ] = [ 0 ]

which guarantees nonsingularity for conditionally positive definite kernels
on unisolvent nodes and makes the interpolant reproduce linear data exactly.

The LAPACK and BLAS routines come from scipy, which :func:`_lapack` imports
at the first factorization: importing ``scipy.linalg`` costs more than the
rest of the package, and assembling, evaluating, spectra and model files
never need it.  The condition estimate and the triangular inverses call
their routines by pointer, so they release the GIL and copy no block, and
:func:`_one_blas_thread` runs scipy's and numpy's OpenBLAS at one thread
for a search or a timed fit.  ``fit`` and ``assemble`` fill the kernel
matrix over the distance matrix they build.  :func:`_lowest_first` is the
one thread-pool map: search trials and ``evaluate``'s row blocks run on it.
"""

from __future__ import annotations

import contextvars
import ctypes
import io
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    EigensolverError,
    NumericalBreakdownError,
    SingularSystemError,
)
from .geometry import (
    PointSet,
    _as_bool,
    _as_coords,
    _opened,
    pairwise_distances,
    points_to_csv_text,
    read_points_table,
)
from .kernels import KernelSpec, _block_rows, _fill, _number

# A factorization whose smallest |U_kk| falls below this fraction of the
# largest is treated as numerically singular.
PIVOT_RTOL = 1e-14


def _routine(module, name: str, options: int, pointers: int):
    """LAPACK or BLAS routine ``name`` of scipy's ``cython_lapack`` or
    ``cython_blas`` module, as a ctypes function.

    Every argument is a pointer: ``options`` one-letter strings, then
    ``pointers`` addresses.  A ctypes call releases the GIL, which scipy's
    f2py wrappers of these routines hold.
    """
    capsule = module.__pyx_capi__[name]
    api, obj = ctypes.pythonapi, ctypes.py_object
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))
    get = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    argtypes = [ctypes.c_char_p] * options + [ctypes.c_void_p] * pointers
    return ctypes.CFUNCTYPE(None, *argtypes)(get(capsule, get_name(capsule)))


# The thread-count getter and setter each OpenBLAS copy exports: scipy's,
# which runs the LAPACK calls, and numpy's (64-bit integers), which runs
# its products, norms and eigvalsh.
_BLAS_THREADS = (
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


@cache
def _lapack() -> SimpleNamespace:
    """scipy's float64 LAPACK and BLAS routines, imported and bound once.

    Every matrix the package factors is float64, so the routines are bound
    here rather than looked up on each call.  ``dgecon``, ``dtrtri_at`` and
    ``dtrmm_at`` are called by pointer (see :func:`_routine`).
    ``blas_threads`` holds a (getter, setter) pair of thread-count functions
    for each of scipy's and numpy's OpenBLAS copies that exports one.
    """
    import scipy.linalg as sla
    from numpy.linalg import _umath_linalg
    from scipy.linalg import _flapack, cython_blas, cython_lapack

    threads = []
    for path, names in zip((_flapack.__file__, _umath_linalg.__file__), _BLAS_THREADS):
        library = ctypes.CDLL(path)  # finds the functions among its libraries
        if hasattr(library, names[1]):
            get, set_ = (getattr(library, name) for name in names)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            threads.append((get, set_))
    lapack = sla.lapack
    return SimpleNamespace(
        dgetrf=lapack.dgetrf, dgetrs=lapack.dgetrs, dlange=lapack.dlange,
        dtrtri=lapack.dtrtri, dlaswp=lapack.dlaswp,
        dgecon=_routine(cython_lapack, "dgecon", 1, 8),
        dtrtri_at=_routine(cython_lapack, "dtrtri", 2, 4),
        dtrmm_at=_routine(cython_blas, "dtrmm", 4, 7),
        blas_threads=tuple(threads),
    )


@contextmanager
def _one_blas_thread():
    """Run scipy's and numpy's OpenBLAS at one thread each, where they
    export a setter, restoring the caller's counts after; yields the count
    run at, in words.  The setters are read after ``_lapack`` has loaded
    scipy, so a first load here restores the count scipy started with."""
    threads = _lapack().blas_threads
    before = [get() for get, _ in threads]
    for _, set_ in threads:
        set_(1)
    try:
        yield "1 BLAS thread" if threads else "the BLAS library's own thread count"
    finally:
        for (_, set_), count in zip(threads, before):
            set_(count)


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _lowest_first(task, indices: range, pool=None, helpers: int = 0) -> None:
    """Call ``task(i)`` for each i of ``indices``: in order on the calling
    thread without a pool, else on the calling thread and ``helpers`` pool
    threads, each taking the lowest index left.  The one pool mechanism of
    the package: search trials and evaluation blocks both run through it.

    Each helper runs in a copy of the caller's context, so numpy's error
    state holds there too.  After a task raises, no thread takes another
    index; every lower index has already been taken, so the exception of
    the lowest failing index is raised, unchanged, once all have stopped.
    """
    if pool is None:
        for i in indices:
            task(i)
        return
    from concurrent.futures import wait

    left = list(reversed(indices))  # popped lowest first
    failed: dict[int, Exception] = {}
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                if not left:
                    return
                i = left.pop()
            try:
                task(i)
            except Exception as exc:
                with lock:
                    failed[i] = exc
                    left.clear()
                return

    running = [pool.submit(contextvars.copy_context().run, drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        with lock:
            left.clear()  # an interrupt here stops the helpers too
        wait(running)
    for future in running:
        future.result()  # what drain does not catch
    if failed:
        raise failed[min(failed)]


def _dgecon(lu: np.ndarray, anorm: float) -> tuple[float, int]:
    """LAPACK dgecon in the 1-norm on an LU from dgetrf: (rcond, info).

    The estimate's last bits follow the offset of dgecon's work array modulo
    64 bytes, which scipy's wrapper leaves to the heap.  Here the array
    starts on a 64-byte boundary, so one LU gives one estimate at a given
    BLAS thread count.
    """
    n = lu.shape[0]
    work = np.empty(4 * n + 8)
    work = work[(-work.ctypes.data % 64) // 8 :]
    ints = np.array([n, max(1, n), 0], dtype=np.intc)  # n, lda, info
    reals = np.array([anorm, 0.0])  # anorm, rcond
    a, iwork = np.asfortranarray(lu, np.float64), np.empty(n, np.intc)
    _lapack().dgecon(
        b"1", ints.ctypes.data, a.ctypes.data, ints[1:].ctypes.data, reals.ctypes.data,
        reals[1:].ctypes.data, work.ctypes.data, iwork.ctypes.data, ints[2:].ctypes.data,
    )
    return float(reals[1]), int(ints[2])


# Block size of the inverse diagonal.  A triangle of at most this many rows
# is inverted by LAPACK dtrtri, a larger one by halving (see
# _invert_triangle); the two inverses are then combined this many rows at a
# time, each block holding B x N scratch (see _inverse_diagonal).
_INVDIAG_BLOCK = 128

_UNISOLVENCY_HINT = (
    "augmented system is singular; if the kernel block is positive definite "
    "this usually means the nodes all lie on one hyperplane (not unisolvent "
    "for linear polynomials)"
)


@dataclass(frozen=True)
class AssembledSystem:
    """Symmetric interpolation matrix plus right-hand side.

    n_poly is 0 for the plain system and s + 1 for the augmented one; the
    matrix is (n_centers + n_poly) square.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    n_centers: int
    n_poly: int

    @property
    def augmented(self) -> bool:
        return self.n_poly > 0

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class InterpolationModel:
    """Fitted interpolant: centers, kernel, and solved coefficients.

    poly_coeffs, present iff the fit was augmented, is ordered as
    (constant, one coefficient per coordinate).
    """

    centers: PointSet
    kernel: KernelSpec
    coeffs: np.ndarray
    poly_coeffs: np.ndarray | None = None
    condition_estimate: float = float("nan")

    @property
    def augmented(self) -> bool:
        return self.poly_coeffs is not None


@dataclass(frozen=True)
class SpectralReport:
    """Full symmetric eigenvalue spectrum with conditioning summary.

    condition_number is max|lambda| / min|lambda|; negative_count counts
    eigenvalues below -1e-12 * max|lambda| so that solver-level noise around
    zero is not reported as indefiniteness.
    """

    eigenvalues: np.ndarray
    condition_number: float
    negative_count: int


def _poly_block(coords: np.ndarray) -> np.ndarray:
    n = coords.shape[0]
    return np.hstack([np.ones((n, 1)), coords])


def _fit_distances(points: PointSet, augmented: bool) -> np.ndarray:
    """Data self-distances, after the input checks every fit makes.

    Distinct points have positive distances and the diagonal is exactly
    zero, so duplicates exist exactly when more than n entries are zero.
    ``pairwise_distances`` has checked them finite, so kernel fills on them
    need no check of their own.
    """
    _as_bool("augmented", augmented)
    if points.values is None:
        raise ConfigError("assemble needs points with values")
    n, s = points.n, points.dim
    d = pairwise_distances(points, points)
    if np.count_nonzero(d == 0.0) > n:
        raise DegenerateInputError("duplicate points: minimum pairwise distance is 0")
    if augmented and n < s + 1:
        raise ConfigError(f"augmented fit needs at least {s + 1} points, got {n}")
    return d


def _system(
    points: PointSet,
    distances: np.ndarray,
    kernel: KernelSpec,
    augmented: bool,
    out: np.ndarray | None = None,
) -> AssembledSystem:
    """Kernel fill on checked self-distances (see :func:`_fit_distances`).

    The kernel block is filled into ``out`` when given: an N x N
    C-contiguous float array the caller owns, which may be ``distances``.
    """
    n, s = points.n, points.dim
    a = _fill(kernel, distances, out)
    if not augmented:
        return AssembledSystem(a, points.values.copy(), n_centers=n, n_poly=0)
    p = _poly_block(points.coords)
    matrix = np.block([[a, p], [p.T, np.zeros((s + 1, s + 1))]])
    rhs = np.concatenate([points.values, np.zeros(s + 1)])
    return AssembledSystem(matrix, rhs, n_centers=n, n_poly=s + 1)


def assemble(points: PointSet, kernel: KernelSpec, augmented: bool = False) -> AssembledSystem:
    """Build the (plain or augmented) interpolation system for given data.

    The kernel values overwrite the distance matrix built here.
    """
    distances = _fit_distances(points, augmented)
    return _system(points, distances, kernel, augmented, out=distances)


def _factorize(matrix: np.ndarray, estimate: bool = True):
    """LU-factor with partial pivoting; returns ((lu, piv), condition estimate).

    The factors overwrite ``matrix``, which the caller must own and which
    must be exactly symmetric: LAPACK factors ``matrix.T``, the same matrix
    in Fortran order, without a copy.  Raises SingularSystemError, carrying
    the failing pivot index, when the smallest |U_kk| drops below PIVOT_RTOL
    times the largest, and NumericalBreakdownError, before the LU, when the
    matrix holds kernel values that overflowed.

    The 1-norm condition estimate (LAPACK ``dgecon``, several triangular
    solves) is computed only when ``estimate`` is true; otherwise nan takes
    its place.  No cost depends on it, so search trials, LOOCV costs and the
    inverse diagonal skip it, while ``fit`` keeps it for the model.
    """
    lapack = _lapack()
    # The 1-norm of matrix.T (its row sums) is that of matrix: no temporary.
    anorm = lapack.dlange("1", matrix.T)
    if not math.isfinite(anorm):
        raise NumericalBreakdownError("kernel matrix is not finite: kernel values overflow")
    lu, piv, info = lapack.dgetrf(matrix.T, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    # info > 0 flags an exact zero pivot, which the check below rejects.
    absdiag = np.abs(lu.diagonal())
    max_pivot = float(absdiag.max())
    if max_pivot == 0.0 or absdiag.min() <= PIVOT_RTOL * max_pivot:
        index = int(np.argmin(absdiag))
        raise SingularSystemError(
            f"numerically singular system: pivot {index} has magnitude "
            f"{absdiag[index]:.3e} <= {PIVOT_RTOL:g} * {max_pivot:.3e}",
            index=index,
        )
    if not estimate:
        return (lu, piv), float("nan")
    rcond, info = _dgecon(lu, anorm)
    if info != 0:
        raise SingularSystemError(f"condition estimation failed (info={info})")
    cond = float("inf") if rcond == 0.0 else 1.0 / float(rcond)
    return (lu, piv), cond


def _lu_solve(factors, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs from the factors of :func:`_factorize`; rhs is kept."""
    lu, piv = factors
    x, info = _lapack().dgetrs(lu, piv, rhs)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrs")
    return x


def _solve(system: AssembledSystem, estimate: bool = True) -> tuple[np.ndarray, float]:
    """Solve an assembled system; returns (solution, condition estimate).

    The factorization overwrites ``system.matrix`` (see :func:`_factorize`,
    which also says what ``estimate`` skips).
    """
    try:
        factors, cond = _factorize(system.matrix, estimate)
    except SingularSystemError as exc:
        if system.augmented:
            raise SingularSystemError(
                f"{exc} ({_UNISOLVENCY_HINT})", index=exc.index
            ) from exc
        raise
    return _lu_solve(factors, system.rhs), cond


def _fit(
    points: PointSet,
    distances: np.ndarray,
    kernel: KernelSpec,
    augmented: bool,
    estimate: bool = True,
    out: np.ndarray | None = None,
) -> InterpolationModel:
    """Solve the system built on checked self-distances.

    With ``estimate`` false the model's condition_estimate is nan.  ``out``
    is as for :func:`_system`; a plain system's LU overwrites it.
    """
    system = _system(points, distances, kernel, augmented, out)
    solution, cond = _solve(system, estimate)
    n = points.n
    return InterpolationModel(
        centers=points,
        kernel=kernel,
        coeffs=solution[:n],
        poly_coeffs=solution[n:] if augmented else None,
        condition_estimate=cond,
    )


def fit(points: PointSet, kernel: KernelSpec, augmented: bool = False) -> InterpolationModel:
    """Solve the interpolation system and return the fitted model.

    The kernel values, then a plain system's LU, overwrite the distance
    matrix built here.
    """
    distances = _fit_distances(points, augmented)
    return _fit(points, distances, kernel, augmented, out=distances)


def _predict(
    model: InterpolationModel,
    targets: np.ndarray,
    distances: np.ndarray | None = None,
    pool=None,
    helpers: int = 0,
) -> np.ndarray:
    """Interpolant values at target coordinates, one row block at a time.

    A block is :func:`_block_rows` rows; its kernel values fill a buffer
    the thread reuses, whose product with the coefficients goes straight
    into the output, and an augmented model adds the block's polynomial
    tail there too.  distances, when given, is the full target-to-center
    matrix from ``pairwise_distances``; otherwise each block's distances
    are computed as it is reached.  Both give the same blocks, so the
    values agree bit for bit.  With a pool the blocks run on the calling
    thread and ``helpers`` pool threads (:func:`_lowest_first`), one buffer
    per thread, each block computed as on one thread.  Kernel values that
    overflow give non-finite results without a warning; callers that need
    finite values check them.
    """
    m, n = targets.shape[0], model.centers.n
    out = np.empty(m)
    step = _block_rows(n)
    scratch = threading.local()

    def block(start: int) -> None:
        stop = min(start + step, m)
        if not hasattr(scratch, "kernel_values"):
            scratch.kernel_values = np.empty((min(step, m), n))
        if distances is None:
            rows = pairwise_distances(targets[start:stop], model.centers)
        else:
            rows = distances[start:stop]
        values = _fill(model.kernel, rows, out=scratch.kernel_values[: stop - start])
        np.matmul(values, model.coeffs, out=out[start:stop])
        if model.augmented:
            # A one-row product rounds differently from a taller one, so
            # a one-row block takes its tail from two rows when m allows.
            lo = min(start, max(0, stop - 2))
            hi = max(stop, min(m, lo + 2))
            tail = _poly_block(targets[lo:hi]) @ model.poly_coeffs
            out[start:stop] += tail[start - lo : stop - lo]

    with np.errstate(over="ignore", invalid="ignore"):
        _lowest_first(block, range(0, m, step), pool, helpers)
    return out


def evaluate(model: InterpolationModel, grid) -> np.ndarray:
    """Evaluate the interpolant at each grid point (in row blocks, order preserved).

    Called on the main thread with targets of two blocks or more, the
    blocks run on the calling thread and W - 1 pool threads, W being the
    available CPUs capped at the block count; the values do not depend on
    W.  Elsewhere, a search trial's worker say, they run on the caller.
    """
    targets = _as_coords(grid)
    if targets.shape[1] != model.centers.dim:
        raise DomainError(
            f"dimension mismatch: model has {model.centers.dim} coordinates, "
            f"grid has {targets.shape[1]}"
        )
    blocks = -(-targets.shape[0] // _block_rows(model.centers.n))
    workers = min(_available_cpus(), blocks)
    if workers < 2 or threading.current_thread() is not threading.main_thread():
        return _predict(model, targets)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        return _predict(model, targets, pool=pool, helpers=workers - 1)


def spectral_report(system: AssembledSystem) -> SpectralReport:
    """Full eigenvalue spectrum of the symmetric system matrix."""
    matrix = system.matrix
    if not np.array_equal(matrix, matrix.T):
        raise DomainError("spectral_report requires an exactly symmetric matrix")
    try:
        eigenvalues = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc
    absev = np.abs(eigenvalues)
    amax, amin = float(absev.max()), float(absev.min())
    cond = float("inf") if amin == 0.0 else amax / amin
    negative_count = int(np.sum(eigenvalues < -1e-12 * amax))
    return SpectralReport(eigenvalues, cond, negative_count)


def _invert_triangle(a: np.ndarray, lo: int, hi: int, lower: int) -> None:
    """Invert one triangle of ``a[lo:hi, lo:hi]`` in place, by halves.

    ``a`` is Fortran-ordered, as dgetrf leaves it.  The upper triangle
    (lower=0) is inverted with its diagonal, the lower one (lower=1) as unit
    triangular.  Blocks of at most _INVDIAG_BLOCK rows go to LAPACK
    ``dtrtri``; a larger block inverts both halves and then joins them with
    two level-3 ``dtrmm`` products (Elmroth, Gustavson, Jonsson and
    Kagstrom, SIAM Review 46, 2004):

        U12 <- -U11**-1 U12 U22**-1,    L21 <- -L22**-1 L21 L11**-1.

    ``dtrmm`` reads only the named triangle, so the opposite triangle of
    ``a`` is left unchanged.  The blocks are passed by pointer, with ``a``'s
    leading dimension, so no block is copied and the GIL is released; only
    a whole matrix of at most _INVDIAG_BLOCK rows goes through scipy's
    wrapper, which costs less per call.  A zero pivot raises
    SingularSystemError with its index in ``a``.
    """
    lapack, n = _lapack(), a.shape[0]
    if hi - lo == n <= _INVDIAG_BLOCK:  # f2py inverts the whole matrix in place
        _, info = lapack.dtrtri(a, lower=lower, unitdiag=lower, overwrite_c=1)
        _check_pivot(info, lo)
        return
    if a.dtype != np.float64 or a.shape != (n, n) or not a.flags.f_contiguous:
        raise ValueError("the triangles must be those of a square Fortran-order float64 matrix")
    uplo, diag = (b"L", b"U") if lower else (b"U", b"N")
    ld = ctypes.byref(ctypes.c_int(n))

    def at(i: int, j: int) -> int:
        return a.ctypes.data + a.itemsize * (i + j * n)

    if hi - lo <= _INVDIAG_BLOCK:
        status = ctypes.c_int()
        size = ctypes.byref(ctypes.c_int(hi - lo))
        lapack.dtrtri_at(uplo, diag, size, at(lo, lo), ld, ctypes.byref(status))
        _check_pivot(status.value, lo)
        return
    mid = lo + (hi - lo) // 2
    _invert_triangle(a, lo, mid, lower)
    _invert_triangle(a, mid, hi, lower)
    # The off-diagonal block at (r, c) is multiplied by the inverted diagonal
    # block at c on its right, then at r on its left.
    r, c = (mid, lo) if lower else (lo, mid)
    m, k = (hi - mid, mid - lo) if lower else (mid - lo, hi - mid)
    shape = ctypes.byref(ctypes.c_int(m)), ctypes.byref(ctypes.c_int(k))
    for side, alpha, d in ((b"R", 1.0, c), (b"L", -1.0, r)):
        lapack.dtrmm_at(
            side, uplo, b"N", diag, *shape,
            ctypes.byref(ctypes.c_double(alpha)), at(d, d), ld, at(r, c), ld,
        )


def _check_pivot(info: int, lo: int) -> None:
    """SingularSystemError for a dtrtri ``info`` that flags a zero pivot in
    the block starting at row ``lo``."""
    if info != 0:
        raise SingularSystemError(
            f"triangular inverse failed (info={info})", index=lo + max(info - 1, 0)
        )


def _inverse_diagonal(factors) -> np.ndarray:
    """Diagonal of A**-1 from the LU factors of A, overwriting the factors.

    With A = P L U, A**-1 = U**-1 L**-1 P**T.  Two in-place triangular
    inverses (:func:`_invert_triangle`) leave U**-1 on and above the
    diagonal of ``lu`` and L**-1 (unit diagonal) below it.  P**T A = A[rows],
    where ``rows`` is 0..n-1 with the interchanges of ``piv`` applied, and q
    inverts it (rows[q_k] = k), so

        (A**-1)_kk = sum over j >= max(k, q_k) of (U**-1)_kj (L**-1)_j,q_k

    which is summed _INVDIAG_BLOCK rows at a time.  A product outside the
    sum may overflow unread; an overflowing entry raises NumericalBreakdownError.
    """
    lu, piv = factors
    n = lu.shape[0]
    _invert_triangle(lu, 0, n, lower=0)  # U**-1
    _invert_triangle(lu, 0, n, lower=1)  # L**-1, with its unit diagonal
    rows = _lapack().dlaswp(np.arange(n, dtype=float)[:, None], piv)[:, 0]
    q = np.empty(n, dtype=np.intp)
    q[rows.astype(np.intp)] = np.arange(n)
    k = np.arange(n)
    # The j = q_k term, where (L**-1)_q_k,q_k = 1 is not stored, comes
    # first; every later j has both factors stored in lu.
    diag = np.where(q >= k, lu[k, q], 0.0)
    first = np.maximum(k, q + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _INVDIAG_BLOCK):
            stop = min(start + _INVDIAG_BLOCK, n)
            terms = lu.T[q[start:stop], start:]
            terms *= lu[start:stop, start:]
            diag[start:stop] += np.add.reduce(
                terms, axis=1, where=k[start:] >= first[start:stop, None]
            )
    if not np.all(np.isfinite(diag)):
        raise NumericalBreakdownError("the inverse diagonal overflows")
    return diag


def inverse_diagonal(system: AssembledSystem) -> np.ndarray:
    """Diagonal of A**-1 for a plain system, from a single factorization.

    Factors a copy of the matrix, so ``system`` is left unchanged, and
    inverts the two triangular factors in place by recursive halving.
    """
    if system.augmented:
        raise ConfigError("inverse_diagonal is defined for plain systems only")
    factors, _ = _factorize(system.matrix.copy(), estimate=False)
    return _inverse_diagonal(factors)


# --- model serialization -------------------------------------------------

_MODEL_MAGIC = "hybridrbf-model v1"


def model_to_text(model: InterpolationModel) -> str:
    """Serialize a fitted model; floats round-trip bit-exactly."""
    lines = [
        _MODEL_MAGIC,
        f"kernel: {model.kernel.to_record()}",
        f"augmented: {'true' if model.augmented else 'false'}",
        f"condition_estimate: {float(model.condition_estimate)!r}",
        "centers:",
        *points_to_csv_text(model.centers).splitlines(),
        "end-centers",
        "coeffs:",
    ]
    lines.extend(repr(float(c)) for c in model.coeffs)
    lines.append("end-coeffs")
    if model.augmented:
        lines.append("poly-coeffs:")
        lines.extend(repr(float(d)) for d in model.poly_coeffs)
        lines.append("end-poly-coeffs")
    return "\n".join(lines) + "\n"


def _parse_float(text: str, section: str) -> float:
    return _number(text, ConfigError, "bad numeric line in model %s section: %r", (section, text))


def model_from_text(text: str) -> InterpolationModel:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MODEL_MAGIC:
        raise ConfigError(f"not a model file (missing {_MODEL_MAGIC!r} header)")
    fields: dict[str, str] = {}
    centers_csv: list[str] = []
    coeffs: list[float] = []
    poly: list[float] = []
    section = None
    sections = set()
    for line in lines[1:]:
        stripped = line.strip()
        if stripped in ("centers:", "coeffs:", "poly-coeffs:"):
            if section is not None:
                raise ConfigError(f"model file is missing 'end-{section}'")
            section = stripped[:-1]
            sections.add(section)
            continue
        if stripped in ("end-centers", "end-coeffs", "end-poly-coeffs"):
            if stripped != f"end-{section}":
                raise ConfigError(f"model file has {stripped!r} outside its section")
            section = None
            continue
        if section == "centers":
            centers_csv.append(line)
        elif section == "coeffs":
            coeffs.append(_parse_float(stripped, "coeffs"))
        elif section == "poly-coeffs":
            poly.append(_parse_float(stripped, "poly-coeffs"))
        elif stripped:
            key, _, value = stripped.partition(":")
            fields[key.strip()] = value.strip()
    if section is not None:
        raise ConfigError(f"model file is missing 'end-{section}'")
    try:
        kernel = KernelSpec.from_record(fields["kernel"])
        flag = fields["augmented"]
        cond = _parse_float(fields["condition_estimate"], "header")
    except KeyError as exc:
        raise ConfigError(f"model file missing field {exc}") from exc
    if flag not in ("true", "false"):
        raise ConfigError(f"model file field augmented must be true or false, got {flag!r}")
    augmented = flag == "true"
    if not augmented and "poly-coeffs" in sections:
        raise ConfigError("model file has a poly-coeffs section but augmented: false")
    coords, values = read_points_table(io.StringIO("\n".join(centers_csv) + "\n"))
    if coords.shape[0] == 0:
        raise ConfigError("model file has no centers")
    centers = PointSet(coords, values)
    if len(coeffs) != centers.n:
        raise ConfigError(
            f"model file has {len(coeffs)} coefficients for {centers.n} centers"
        )
    if augmented and len(poly) != centers.dim + 1:
        raise ConfigError(
            f"model file has {len(poly)} polynomial coefficients, "
            f"expected {centers.dim + 1}"
        )
    return InterpolationModel(
        centers=centers,
        kernel=kernel,
        coeffs=np.array(coeffs),
        poly_coeffs=np.array(poly) if augmented else None,
        condition_estimate=cond,
    )


def save_model(model: InterpolationModel, path) -> None:
    with _opened(path, "w") as (fh, _):
        fh.write(model_to_text(model))


def load_model(path) -> InterpolationModel:
    """Read a model file; a ConfigError names the file, as CSV errors do."""
    with _opened(path, "r") as (fh, name):
        text = fh.read()
    try:
        return model_from_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
