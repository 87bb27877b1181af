"""Dense linear-algebra kernels used by every other module.

Thin contracts over scipy/numpy: the matrix exponential (scaling-and-squaring
with Pade approximants), symmetric eigendecomposition and SVD.  The wrappers
pin down the conventions the rest of the package relies on -- finite input
only, ascending eigenvalues, descending singular values, ``V`` returned such
that ``M = U @ diag(s) @ V.T`` -- and enforce the symmetry tolerance for
eigendecompositions of analytically-symmetric matrices that carry roundoff.

``one_blas_thread`` runs a block with every loaded OpenBLAS pool on one
thread; the command line enters it around each command.
"""

import contextlib
import ctypes
import os

import numpy as np
import scipy.linalg

from .errors import ContractError

__all__ = ["expm", "sym_eig", "svd", "require_finite", "blas_pools", "one_blas_thread"]

# Thread-count (setter, getter) names an OpenBLAS build may export: the
# ILP64 wheel build numpy ships, the LP64 one scipy ships, a plain build.
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# Input to sym_eig may deviate from exact symmetry by this much (relative to
# max(1, ||M||_max)); larger deviations indicate a bug upstream, not roundoff.
SYM_TOL = 1e-9


def require_finite(M, name="matrix"):
    """Raise ContractError if M contains NaN or Inf."""
    if not np.all(np.isfinite(M)):
        raise ContractError("%s contains non-finite entries" % name)


def expm(M):
    """Matrix exponential e^M of a square real or complex matrix.

    Delegates to scipy's scaling-and-squaring Pade implementation; double
    precision throughout.  An exponential that overflows raises
    ContractError rather than passing Inf or NaN on.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractError("expm requires a square matrix, got shape %s" % (M.shape,))
    require_finite(M, "expm input")
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(M)
    require_finite(E, "expm output")
    return E


def sym_eig(M):
    """Eigendecomposition of a (numerically) symmetric matrix.

    Parameters
    ----------
    M : (n, n) array
        Symmetric up to roundoff: ``max|M - M.T| <= 1e-9 * max(1, max|M|)``.
        Matrices such as X e^{dz A} are symmetric analytically but carry
        floating-point asymmetry; the kernel symmetrizes via (M + M.T)/2
        before decomposing.

    Returns
    -------
    w : (n,) ndarray
        Eigenvalues in ascending order.
    V : (n, n) ndarray
        Orthonormal eigenvectors as columns, ``M = V diag(w) V.T``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractError("sym_eig requires a square matrix, got shape %s" % (M.shape,))
    require_finite(M, "sym_eig input")
    asym = np.max(np.abs(M - M.T)) if M.size else 0.0
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    if asym > SYM_TOL * scale:
        raise ContractError(
            "sym_eig input asymmetry %.3e exceeds tolerance %.3e" % (asym, SYM_TOL * scale)
        )
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return w, V


def svd(M):
    """Singular value decomposition ``M = U @ diag(s) @ V.T``.

    Returns (U, s, V) with s nonnegative descending and V (not V^T) holding
    right singular vectors as columns.
    """
    M = np.asarray(M)
    require_finite(M, "svd input")
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    return U, s, Vh.conj().T


def blas_pools():
    """The OpenBLAS libraries mapped into this process, with thread controls.

    Returns (path, set_num_threads, get_num_threads) per library, found from
    /proc/self/maps; empty where that file or OpenBLAS is absent.
    """
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(None, 5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                    paths.add(fields[5].strip())
    except OSError:
        return []
    pools = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_API:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                pools.append((path, setter, getter))
                break
    return pools


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS pool on one thread.

    The kernels here are products, exponentials and factorizations of
    matrices of order 10-800, where threading costs more than it saves, and
    a threaded product sums in a different order, so one thread also keeps
    outputs the same across machines.  Each pool's earlier count is restored
    on exit, error exits included.  Without OpenBLAS this does nothing.
    """
    saved = [(setter, getter()) for _, setter, getter in blas_pools()]
    for setter, _ in saved:
        setter(1)
    try:
        yield
    finally:
        for setter, count in saved:
            setter(count)
