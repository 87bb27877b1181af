"""Dense linear-algebra kernels used by every other module.

Thin contracts over numpy: the matrix exponential (Higham's
scaling-and-squaring Pade method, written out here so that numpy is the only
runtime dependency), symmetric eigendecomposition and SVD.  The wrappers
pin down the conventions the rest of the package relies on -- finite input
only, ascending eigenvalues, descending singular values, ``V`` returned such
that ``M = U @ diag(s) @ V^H`` -- and enforce the symmetry tolerance for
eigendecompositions of analytically-symmetric matrices that carry roundoff.

``one_blas_thread`` runs a block with every loaded OpenBLAS pool on one
thread; the command line enters it around each command.
"""

import contextlib
import ctypes
import math
import os

import numpy as np

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

# Higham (2005), Table 2.3: the [m/m] Pade approximant of e^A is accurate to
# double precision for ||A||_1 <= theta_m.  Above theta_13, A is scaled by
# 2^-s into range and the result squared s times.
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152


def require_finite(M, name="matrix"):
    """Raise ContractError if M contains NaN or Inf."""
    if not np.all(np.isfinite(M)):
        raise ContractError("%s contains non-finite entries" % name)


def _abs_max(A):
    """max|A|, 0 for an empty A; for a real A read as max(A.max(), -A.min()),
    bitwise the same value with no |A| temporary."""
    if np.iscomplexobj(A):
        return float(np.abs(A).max(initial=0.0))
    return float(max(A.max(initial=0.0), -A.min(initial=0.0)))


def _pade(A, m):
    """Odd and even parts (U, V) of the degree-m Pade numerator p(A) = V + U.

    p has the coefficients b_j = (2m - j)! / (j! (m - j)!) (so b_m = 1), and
    the denominator is p(-A) = V - U.  The identity terms b_1 I and b_0 I are
    added on the diagonal in place.
    """
    f = math.factorial
    b = [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]
    diag = np.s_[::A.shape[0] + 1]
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        odd = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
    else:
        powers = [A2]  # A^2, A^4, ..., A^(m-1)
        while len(powers) < m // 2:
            powers.append(powers[-1] @ A2)
        odd = sum(b[2 * k + 3] * P for k, P in enumerate(powers))
        V = sum(b[2 * k + 2] * P for k, P in enumerate(powers))
    odd.flat[diag] += b[1]
    V.flat[diag] += b[0]
    return A @ odd, V


def expm(M):
    """Matrix exponential e^M of a square real or complex matrix.

    Scaling and squaring with Pade approximants (N. J. Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005), Algorithm 2.3): the lowest degree
    m in 3, 5, 7, 9 whose theta_m bounds ||M||_1, otherwise degree 13 on
    M / 2^s with the result squared s times.  Double precision throughout.
    An exponential that overflows raises ContractError rather than passing
    Inf or NaN on.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractError("expm requires a square matrix, got shape %s" % (M.shape,))
    require_finite(M, "expm input")
    A = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.max(np.sum(np.abs(A), axis=0), initial=0.0))
        if not math.isfinite(norm):
            raise ContractError("expm input 1-norm overflows")
        degree = next((m for m, theta in _PADE_THETA if norm <= theta), 13)
        squarings = 0
        if degree == 13 and norm > _THETA_13:
            squarings = math.ceil(math.log2(norm / _THETA_13))
            A = A * 2.0 ** -squarings
        U, V = _pade(A, degree)
        E = np.linalg.solve(V - U, V + U)
        for _ in range(squarings):
            E = E @ E
    require_finite(E, "expm output")
    return E


def sym_eig(M):
    """(w, V) with M = V diag(w) V^H, w ascending, V orthonormal columns.

    M is real symmetric or complex Hermitian up to roundoff, max|M - M^H| <=
    SYM_TOL max(1, max|M|): matrices such as X e^{dz A} are symmetric
    analytically but carry floating-point asymmetry, so (M + M^H)/2 is
    decomposed.  An exactly symmetric M (such as S @ S.T, which numpy forms
    by a symmetric rank-k update) is that average bitwise and goes to the
    solver as it is; the average of any other M reuses the one array its
    asymmetry is read from, and a real M's max|M| and max|M - M^T| are read
    with no |.| temporary.  V is complex exactly when M is.
    """
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractError("sym_eig requires a square matrix, got shape %s" % (M.shape,))
    require_finite(M, "sym_eig input")
    H = M.conj().T
    if not np.array_equal(M, H):
        scale = max(1.0, _abs_max(M))
        D = M - H
        asym = _abs_max(D)
        if asym > SYM_TOL * scale:
            raise ContractError(
                "sym_eig input asymmetry %.3e exceeds tolerance %.3e" % (asym, SYM_TOL * scale)
            )
        M = np.add(M, H, out=D)
        M *= 0.5
    w, V = np.linalg.eigh(M)
    return w, V


def svd(M):
    """Singular value decomposition ``M = U @ diag(s) @ V^H`` (V^T for a real M).

    Returns (U, s, V) with s nonnegative descending and V (not V^H) holding
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
