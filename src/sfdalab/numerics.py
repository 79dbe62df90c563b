"""Dense float64 matrix kernels, probability-simplex utilities, the
central-difference gradient oracle, the guard that runs OpenBLAS on
one thread for the duration of a run, and the ``as_*`` checkers, which
hold each rule a setting obeys once and raise ConfigError naming it.

All operations are pure functions on numpy arrays (double precision,
row-major). Matrices here are plain ``np.ndarray``; the helpers below
enforce the invariants (finiteness, simplex membership) at operation
boundaries instead of wrapping arrays in classes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import numbers
import operator
import os
import threading
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidInputError, OracleError, ShapeError

# Work arrays up to this many entries (16 MiB of float64) are kept per
# thread and reused; larger ones are allocated fresh on every call.
SCRATCH_MAX_ENTRIES = 1 << 21

# Rows per block in the kernels that compare each query row with all n
# candidates (SND, KNN), so their work arrays hold at most 128 x n
# entries, not n x n.
_BLOCK_ROWS = 128

_scratch = threading.local()

# Below this norm the squared norm of a row underflows the normal float range.
_MIN_SAFE_NORM = math.sqrt(np.finfo(np.float64).tiny)


def scratch(name: str, shape) -> np.ndarray:
    """Uninitialised C-contiguous float64 work array of ``shape``.

    Calls passing the same ``name`` from the same thread share memory, so
    a kernel called again, or once per row block, skips the allocation
    and page-fault cost of a fresh array. The caller must write every
    entry before reading it and must not keep the array past its own call.
    """
    shape = tuple(int(d) for d in shape)
    size = math.prod(shape)
    if size > SCRATCH_MAX_ENTRIES:
        return np.empty(shape)
    pool = getattr(_scratch, "pool", None)
    if pool is None:
        pool = _scratch.pool = {}
    flat = pool.get(name)
    if flat is None or flat.size < size:
        flat = pool[name] = np.empty(size)
    return flat[:size].reshape(shape)


def row_blocks(n: int):
    """(lo, hi) bounds of consecutive row blocks covering range(n).

    No block holds a single row unless n == 1: numpy computes a one-row
    matmul with a matrix-vector BLAS kernel, whose sums can differ in the
    last bit from the matrix-matrix kernel that computes larger blocks.
    """
    step = max(_BLOCK_ROWS, 2)
    lo = 0
    while lo < n:
        hi = min(lo + step, n)
        if hi == n - 1:
            hi = n
        yield lo, hi
        lo = hi


# (get, set) thread-count entry points of the OpenBLAS builds numpy ships
# (64-bit-integer scipy-openblas wheels) and of a plain system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _loaded_openblas_paths() -> list[str]:
    """Files of every OpenBLAS mapped into this process, else the ones in
    numpy's bundled library directory (loaded with numpy itself)."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(None, 5)
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        pass
    if paths:
        return sorted(paths)
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    return sorted(glob.glob(os.path.join(libdir, "*openblas*")))


@functools.cache
def _openblas():
    """(get, set) ctypes functions for the loaded OpenBLAS thread count, or
    None when no OpenBLAS with those entry points is loaded."""
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# The thread count is process-wide: the first of any overlapping guards
# (nested, or in several Python threads) saves it, and the last one out
# restores it.
_blas_guard_lock = threading.Lock()
_blas_guard_users = 0
_blas_guard_saved = 0


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the previous
    count, also when the body raises.

    Every matmul in this package has an inner dimension no larger than a
    layer width, too small for a second BLAS thread to pay for its
    synchronisation: it doubles CPU time and gains no wall time. Nested
    and concurrent use are safe. Without a loaded OpenBLAS this does
    nothing. Also usable as a function decorator.
    """
    global _blas_guard_users, _blas_guard_saved
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _blas_guard_lock:
        if _blas_guard_users == 0:
            _blas_guard_saved = get()
            set_(1)
        _blas_guard_users += 1
    try:
        yield
    finally:
        with _blas_guard_lock:
            _blas_guard_users -= 1
            if _blas_guard_users == 0:
                set_(_blas_guard_saved)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a C-contiguous float64 2-D array with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def as_index(value, name: str, least: int) -> int:
    """``value`` as an int, unless it is not an integer (a Python or numpy
    integer, not an integral float) or is below ``least``."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if index < least:
        raise ConfigError(f"{name} must be >= {least}, got {index}")
    return index


def as_real(value, name: str, least=None):
    """``value`` itself, unless it is not a real number that a float can
    hold (a Python or numpy int or float, not a string nor 10**400) or,
    when ``least`` is given, is not >= ``least``: NaN fails, +inf passes."""
    # a float (numpy float64 too) settles the common case about 20x faster
    # than the ABC test alone, which every SGD step would pay
    if not isinstance(value, float):
        if not isinstance(value, (int, numbers.Real)):
            raise ConfigError(f"{name} must be a real number, got {value!r}")
        try:
            held = float(value)
        except OverflowError:
            held = math.inf
        if math.isinf(held) and held != value:   # a finite value past the largest float
            raise ConfigError(f"{name} must be a real number that a float can hold")
    if least is not None and not value >= least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    return value


def as_positive(value, name: str):
    """``value`` itself, unless it is not a finite real number > 0."""
    if not (math.isfinite(as_real(value, name)) and value > 0):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    return value


def as_momentum(value):
    """``value`` itself, unless it is not a real number in [0, 1)."""
    if not 0.0 <= as_real(value, "momentum") < 1.0:
        raise ConfigError(f"momentum must be in [0, 1), got {value!r}")
    return value


def require_simplex_rows(P: np.ndarray, tol: float = 1e-6, name: str = "P") -> np.ndarray:
    """Check every row of ``P`` lies on the probability simplex within ``tol``."""
    P = as_matrix(P, name)
    if P.min(initial=np.inf) < -tol:
        raise InvalidInputError(f"{name} has negative entries")
    dev = np.abs(P.sum(axis=1) - 1.0).max(initial=-np.inf)
    if dev > tol:
        raise InvalidInputError(f"{name} rows do not sum to 1 (max dev {dev:.3g})")
    return P


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    M = as_matrix(logits, "logits")
    shifted = M - M.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def rescaled_rows(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, norms): ``M`` with each row whose squared norm leaves the
    normal float range (a norm below 1.5e-154, or one that overflows)
    divided by its largest magnitude, and the Euclidean norm of every row
    of the result.

    Scaling a row leaves its direction, and so every cosine, unchanged;
    zero rows stay zero. ``M`` itself is returned when every row is in
    range, otherwise a copy. A norm is ``sqrt(add.reduce(row * row))``,
    the arithmetic of ``np.linalg.norm(M, axis=1)`` for real input, so
    the bits are the same and a row's norm does not depend on the rows
    around it.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(M * M, axis=1))
    if norms.min(initial=np.inf) >= _MIN_SAFE_NORM and norms.max(initial=0.0) < np.inf:
        return M, norms
    bad = np.flatnonzero((norms < _MIN_SAFE_NORM) | (norms == np.inf))
    M = M.copy()
    peak = np.abs(M[bad]).max(axis=1, keepdims=True, initial=0.0)
    M[bad] /= np.where(peak > 0.0, peak, 1.0)
    norms[bad] = np.linalg.norm(M[bad], axis=1)
    return M, norms


def unit_rows(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, zero): each row of the finite matrix ``M`` divided by its
    Euclidean norm, and the mask of its zero rows, which stay zero.

    Rows are rescaled first as in ``rescaled_rows``, so a row with tiny or
    huge entries comes out a finite unit row, without underflow or overflow.
    """
    rows, norms = rescaled_rows(M)
    zero = norms == 0.0
    norms[zero] = 1.0
    return rows / norms[:, None], zero


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Coordinate k gets (f(x + h*e_k) - f(x - h*e_k)) / (2h). Used as the
    independent oracle for every analytic gradient in the package.
    """
    if h <= 0:
        raise InvalidInputError("finite_diff_grad requires h > 0")
    x = np.asarray(x, dtype=np.float64).ravel().copy()
    g = np.empty_like(x)
    for k in range(x.size):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleError(f"non-finite probe value at coordinate {k}")
        g[k] = (fp - fm) / (2.0 * h)
    return g


def max_relative_error(approx, exact, floor: float = 1e-8) -> float:
    """Max over coordinates of |approx - exact| / max(floor, |exact|)."""
    a = np.asarray(approx, dtype=np.float64).ravel()
    b = np.asarray(exact, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError("operands must have equal lengths")
    denom = np.maximum(np.abs(b), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
