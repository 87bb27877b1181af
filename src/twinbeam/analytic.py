"""Structure-exploiting decomposition routes and symmetry diagnostics.

The generic factorization in blochmessiah works for any symplectic input.
The routes here instead use the block structure of the twin-beam generator.
A fixed 2N unitary W on the complex amplitudes (a_S, a_I) embeds as an
orthogonal symplectic 4N basis B = embed_unitary(W) that splits every domain
generator Q into B^T Q B = diag(C, -C^T), so the composed propagator splits
the same way and its upper-left 2N block is a reduced propagator.  The
blocks C have closed forms in the coupling matrices, and the reduced
propagators are read off the complex Bogoliubov matrix that
propagator.compose builds:

* In the SGVM regime (H = -G), W = (1/sqrt 2) [[I, -iI], [-iI, I]] is the
  walk-off basis, C = [[-F, G], [-G, -F]] and the reduced propagator A-hat
  is embed_unitary(M), M the N x N Bogoliubov matrix.  For any poling the
  SVD of A-hat gives the factors directly.  The return trip is the adjoint
  of the pass, so the matched double pass has block A-hat^T A-hat,
  symmetric positive definite: input equals output modes.

* Away from SGVM, W = (1/sqrt 2) [[0, I - iJ], [I - iJ, 0]] (J the bin
  exchange) is the exchange basis.  It splits the generator, with
  C = [[H J, -F J], [-F J, G J]], whenever F is centrosymmetric and G, H
  anticentrosymmetric (an even pump on a mirror grid).  The reduced
  propagator is C-hat = Re(V^H T V), T the 2N Bogoliubov matrix on
  (a_S, a_I^+) and V the rows of W with the idler rows conjugated.

When the poling reads the same reversed, X times the reduced propagator is
symmetric (X the half-swap for SGVM, diag(J, J) otherwise), and the
factorization drops out of one real symmetric eigenproblem whose
eigenvalues give the (lam, 1/lam) ladder directly.  A real 2N factor R of
the reduced block is the complex factor W R of the full propagator.

All routes return the same BlochMessiahResult contract as the generic
factorization after a shared canonicalization step, and each checks its
factors against the 4N Propagator.matrix, so they can be compared against
the generic route mode by mode.  A route applied outside its regime raises
RegimeError carrying the violated residual.
"""

import numpy as np

from . import numerics
from .blochmessiah import BlochMessiahResult, _polish_unitary, checked_factors
from .errors import ConfigError, DecompositionError, RegimeError
from .model import build_coupled_matrices, flip_matrix
from .propagator import compose, embed_unitary

__all__ = [
    "block_reduce", "canonical_factors", "symmetrized_eig_route", "svd_route",
    "general_block_route", "structure_checks",
]

BLOCK_TOL = 1e-9


def _walkoff_unitary(n):
    """W = (1/sqrt 2) [[I, -iI], [-iI, I]]: embed_unitary(W) splits SGVM generators."""
    i = np.eye(n)
    return np.block([[i, -1j * i], [-1j * i, i]]) / np.sqrt(2.0)


def _exchange_unitary(n):
    """W = (1/sqrt 2) [[0, I - iJ], [I - iJ, 0]]: embed_unitary(W) splits even-pump generators."""
    a = np.eye(n) - 1j * flip_matrix(n)
    z = np.zeros((n, n))
    return np.block([[z, a], [a, z]]) / np.sqrt(2.0)


def block_reduce(matrices):
    """Real 2N block C of a generator Q in its regime's splitting basis W.

    embed_unitary(W)^T Q embed_unitary(W) = diag(C, -C^T).  SGVM input gives
    [[-F, G], [-G, -F]] in the walk-off basis; otherwise [[H J, -F J],
    [-F J, G J]] in the exchange basis, which needs J F J = F, J G J = -G and
    J H J = -H.  Half the largest violation is the generator's off-block
    residual in that basis; above BLOCK_TOL * max(1, max|F|, |G|, |H|)
    RegimeError is raised with it, e.g. for a pump without frequency symmetry.
    """
    F, G, H = matrices.F, matrices.G, matrices.H
    if matrices.sgvm:
        return np.block([[-F, G], [-G, -F]])
    # J M J reverses rows and columns, M J reverses columns: both exact.
    off = 0.5 * max(float(np.max(np.abs(F[::-1, ::-1] - F))),
                    float(np.max(np.abs(G[::-1, ::-1] + G))),
                    float(np.max(np.abs(H[::-1, ::-1] + H))))
    scale = max(1.0, *(float(np.max(np.abs(M))) for M in (F, G, H)))
    if off > BLOCK_TOL * scale:
        raise RegimeError(
            "generator does not block-diagonalize in the exchange basis "
            "(residual %.3e); needs a mirror grid and an even pump" % off,
            residual=off,
        )
    FJ = -F[:, ::-1]
    return np.block([[H[:, ::-1], FJ], [FJ, G[:, ::-1]]])


def canonical_factors(Z_raw, lam_raw, Z_tilde_raw):
    """Normalize raw complex factors to the descending, lam >= 1 convention.

    Z_raw and Z_tilde_raw are nearly unitary complex matrices whose
    embeddings give S = O diag(lam_raw, 1/lam_raw) O_tilde^T.  Modes with
    lam < 1 are inverted by multiplying their complex column by i in both
    factors (a quarter rotation in the mode's (X, P) plane), which swaps the
    mode's lam and 1/lam slots without changing the product; modes are then
    stably sorted by descending lam.  Factors are polished to exact unitaries
    on the way out; when Z_tilde_raw is Z_raw, once, and the result's
    Z_tilde is its Z.
    """
    lam = np.asarray(lam_raw, dtype=float).copy()
    h = lam.size
    if Z_raw.shape != (h, h) or Z_tilde_raw.shape != (h, h):
        raise ConfigError("factor shapes do not match the lam vector")
    if np.any(lam <= 0):
        raise DecompositionError("raw lam values must be positive")
    flip = lam < 1.0
    lam[flip] = 1.0 / lam[flip]
    order = np.argsort(-lam, kind="stable")

    def factor(raw, context):
        U = np.array(raw, dtype=complex)
        U[:, flip] *= 1j
        return _polish_unitary(U[:, order], context)

    Z = factor(Z_raw, "active factor")
    Z_tilde = Z if Z_tilde_raw is Z_raw else factor(Z_tilde_raw, "passive factor")
    return BlochMessiahResult(Z=Z, lam=lam[order], Z_tilde=Z_tilde)


def _require_sgvm(medium, route):
    if not medium.sgvm():
        ks, ki = medium.kappa_signal, medium.kappa_idler
        resid = abs(ks + ki) / max(abs(ks), abs(ki), 1e-300)
        raise RegimeError(
            "%s needs the SGVM regime; kappa mismatch %.3e relative" % (route, resid),
            residual=resid,
        )


def _reduced(prop, grid, pump, medium, poling, matrices=None):
    """(X, W, M = X block, K) of a composed propagator in its regime's basis W.

    SGVM: X the half-swap, W the walk-off basis, block A-hat the
    embed_unitary of the Bogoliubov matrix and K the exchange pair, which
    commutes with M.  Otherwise: X = diag(J, J), W the exchange basis, block
    C-hat = Re(V^H T V) and K None; raises RegimeError (with the residual)
    when a domain generator of the poling does not split in the exchange
    basis, checked once on the sign +1 matrices (negating F moves neither the
    residual nor its scale; G, H alone always split, so sign 0 needs none).
    matrices are those sign +1 matrices when the caller has built them.
    """
    n = grid.n
    i, z, j = np.eye(n), np.zeros((n, n)), flip_matrix(n)
    if prop.sgvm:
        X = np.block([[z, i], [i, z]])
        return (X, _walkoff_unitary(n), X @ embed_unitary(prop.bogoliubov),
                np.block([[z, j], [j, z]]))
    if poling.signs.any():
        block_reduce(matrices or build_coupled_matrices(grid, pump, medium, sign=1))
    W = _exchange_unitary(n)
    V = np.vstack([W[:n], W[n:].conj()])  # T acts on a_I^+, not a_I
    X = np.block([[j, z], [z, j]])
    return X, W, X @ (V.conj().T @ prop.bogoliubov @ V).real, None


def _asymmetry(M):
    """max |M - M^T|, and whether it is within BLOCK_TOL of max(1, max |M|)."""
    asym = float(np.max(np.abs(M - M.T)))
    return asym, asym <= BLOCK_TOL * max(1.0, float(np.max(np.abs(M))))


def _factors(W, left, lam_raw, right, S, context):
    """Checked canonical factors of S from real block factors in the basis W;
    when right is left they share one array."""
    Z_raw = W @ left
    Z_tilde_raw = Z_raw if right is left else W @ right
    return checked_factors(canonical_factors(Z_raw, lam_raw, Z_tilde_raw), S, context)


def _symmetric_factors(X, W, M, S, context):
    """Factor S through the real symmetric eigenproblem of M = X block.

    Eigenvalues come in (w, -w) pairs; the left factor absorbs the signs,
    giving block = (X Gamma Sigma) diag|w| Gamma^T, and each |w| appears twice,
    once per sign, which is exactly the two-mode degeneracy of the final
    spectrum.
    """
    asym, symmetric = _asymmetry(M)
    if not symmetric:
        raise RegimeError(
            "%s: X times the reduced propagator is not symmetric (residual "
            "%.3e); the poling sequence must read the same reversed"
            % (context, asym),
            residual=asym,
        )
    w, Gamma = numerics.sym_eig(M)
    if np.min(np.abs(w)) == 0.0:
        raise DecompositionError("singular block propagator")
    return _factors(W, (X @ Gamma) * np.sign(w), np.abs(w), Gamma, S, context)


def symmetrized_eig_route(grid, pump, medium, poling):
    """Factorization through one real symmetric eigenproblem (SGVM).

    Valid whenever X A-hat is symmetric, A-hat the 2N block propagator and X
    the half-swap; this holds for palindromic polings such as a single
    uniform domain or an odd-count alternating grating.
    """
    _require_sgvm(medium, "symmetrized eigenproblem route")
    prop = compose(grid, pump, medium, poling)
    X, W, M, _ = _reduced(prop, grid, pump, medium, poling)
    return _symmetric_factors(X, W, M, prop.matrix, "symmetrized eigenproblem route")


def svd_route(grid, pump, medium, poling, double=False, prop=None, total=None):
    """Factorization through the SVD of the 2N block propagator (SGVM, any poling).

    Single pass: A-hat = M D V^T maps directly onto the factors with raw
    spectrum (D, 1/D).  Matched double pass: the return trip is the adjoint,
    so the total block is A-hat^T A-hat = V D^2 V^T, symmetric positive
    definite, and input and output factors coincide (perfect inline squeezer).
    prop is the forward pass and total the matched double pass, the one
    the factors are checked against, when the caller has already built them.
    """
    _require_sgvm(medium, "SVD route")
    prop = prop or compose(grid, pump, medium, poling)
    W = _walkoff_unitary(grid.n)
    left, s, right = numerics.svd(embed_unitary(prop.bogoliubov))
    if double:
        S = (total or prop.return_trip().after(prop)).matrix
        return _factors(W, right, s**2, right, S, "SVD route")
    return _factors(W, left, s, right, prop.matrix, "SVD route")


def general_block_route(grid, pump, medium, poling):
    """Factorization in the exchange basis, no SGVM assumption.

    Needs an even pump on a mirror grid, so that every domain generator
    splits in the exchange basis, and a palindromic poling, so that J-tilde
    C-hat is symmetric (J-tilde = diag(J, J), C-hat the reduced propagator
    read off the composed one).  Then C-hat = (J-tilde Gamma Sigma)
    diag|w| Gamma^T and the |w| come in (lam, 1/lam) pairs; the shared
    canonicalization folds them into the degenerate pairs of the final
    spectrum.
    """
    if medium.sgvm():
        raise RegimeError(
            "medium is SGVM; use the SGVM routes for the reduced comparison",
            residual=0.0,
        )
    prop = compose(grid, pump, medium, poling)
    X, W, M, _ = _reduced(prop, grid, pump, medium, poling)
    return _symmetric_factors(X, W, M, prop.matrix, "general block route")


def _flip_classes(w, V, K, rtol=1e-8):
    """Count flip-even and flip-odd eigenvectors, cluster by cluster.

    K commutes with the decomposed matrix, so each eigen-cluster splits into
    K = +1 and K = -1 subspaces whose dimensions follow from the trace of K
    restricted to the cluster, which is basis independent.
    """
    n_even = n_odd = 0
    i = 0
    m = w.size
    while i < m:
        j = i + 1
        while j < m and abs(w[j] - w[i]) <= rtol * max(1.0, abs(w[i])):
            j += 1
        sub = V[:, i:j]
        t = float(np.trace(sub.T @ K @ sub))
        size = j - i
        even = int(round(0.5 * (size + t)))
        n_even += even
        n_odd += size - even
        i = j
    return n_even, n_odd


def structure_checks(grid, pump, medium, poling, prop=None, matrices=None):
    """Symmetry diagnostics of the model, returned as a JSON-able dict.

    Reports the centrosymmetry residual of F, the symmetry residual of the
    block propagator in the applicable reduced basis, and the flip-parity
    class sizes of the symmetric block spectrum (expected to split evenly).
    prop is the forward pass and matrices the sign +1 coupling matrices
    when the caller has already built them.
    """
    matrices = matrices or build_coupled_matrices(grid, pump, medium, sign=1)
    F = matrices.F
    f_resid = float(np.max(np.abs(F - F[::-1, ::-1])))
    report = {
        "f_max": float(np.max(np.abs(F))),
        "f_centrosymmetry_residual": f_resid,
        "sgvm": bool(medium.sgvm()),
        "block_symmetry_residual": None,
        "flip_even": None,
        "flip_odd": None,
    }
    prop = prop or compose(grid, pump, medium, poling)
    try:
        _, _, M, K = _reduced(prop, grid, pump, medium, poling, matrices)
    except RegimeError as exc:
        report["block_symmetry_residual"] = exc.residual
        return report
    asym, symmetric = _asymmetry(M)
    report["block_symmetry_residual"] = asym
    if symmetric and K is not None:
        w, V = numerics.sym_eig(M)
        report["flip_even"], report["flip_odd"] = _flip_classes(w, V, K)
    return report
