"""Structure-exploiting decomposition routes and symmetry diagnostics.

The generic factorization in blochmessiah works for any symplectic input.
The routes here instead use the block structure of the twin-beam generator.
A fixed orthogonal 4N basis B splits every domain generator into
diag(block, -block^T), so the composed propagator S splits the same way and
its upper-left 2N block is a reduced propagator.  Reduced blocks are views of
the one propagator that propagator.compose builds:

* In the SGVM regime (H = -G) B is the walk-off splitting basis and the
  reduced propagator A-hat is Propagator.block.  For any poling the SVD of
  A-hat gives the factors directly.  The return trip is the adjoint of the
  pass, so the matched double pass has block A-hat^T A-hat, symmetric
  positive definite: input equals output modes.

* Away from SGVM, the exchange basis (general_split_basis) splits the
  generator whenever the pump coupling is centrosymmetric (even pump on a
  mirror grid); C-hat is the upper-left 2N block of B^T S B.

When the poling reads the same reversed, X times the reduced propagator is
symmetric (X the half-swap for SGVM, diag(J, J) with J the bin exchange
otherwise), and the factorization drops out of one real symmetric
eigenproblem whose eigenvalues give the (lam, 1/lam) ladder directly.

All routes return the same BlochMessiahResult contract as the generic
factorization after a shared canonicalization step, so they can be compared
against it mode by mode.  A route applied outside its regime raises
RegimeError carrying the violated residual.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .blochmessiah import (
    BlochMessiahResult, _complex_rep_avg, _polish_unitary, checked_factors,
    embed_unitary,
)
from .errors import ConfigError, DecompositionError, RegimeError
from .model import build_coupled_matrices, build_generator, flip_matrix
from .propagator import compose

__all__ = [
    "BlockReduction", "block_reduce", "general_split_basis",
    "canonical_factors", "symmetrized_eig_route", "svd_route",
    "general_block_route", "structure_checks",
]

BLOCK_TOL = 1e-9


def _sgvm_split_basis(n):
    """Orthogonal 4N basis that block-diagonalizes every SGVM generator.

    B = (1/sqrt 2) [[I,0,0,I],[0,I,I,0],[0,-I,I,0],[-I,0,0,I]] in the
    (X_S, X_I, P_S, P_I) ordering; B^T Q B = diag(A, -A^T) whenever H = -G.
    """
    i = np.eye(n)
    z = np.zeros((n, n))
    return np.block([
        [i, z, z, i],
        [z, i, i, z],
        [z, -i, i, z],
        [-i, z, z, i],
    ]) / np.sqrt(2.0)


def general_split_basis(n):
    """Orthogonal 4N basis reducing the generator when F is centrosymmetric.

    B2 = (1/sqrt 2) [[0,I,0,J],[I,0,J,0],[0,-J,0,I],[-J,0,I,0]] with J the
    bin-exchange matrix; B2^T Q B2 = diag(C, -C^T) for mirror grids with an
    even pump, with no SGVM requirement.
    """
    i = np.eye(n)
    z = np.zeros((n, n))
    j = flip_matrix(n)
    return np.block([
        [z, i, z, j],
        [i, z, j, z],
        [z, -j, z, i],
        [-j, z, i, z],
    ]) / np.sqrt(2.0)


@dataclass(frozen=True)
class BlockReduction:
    """B^T Q B = diag(block, -block^T) for an orthogonal splitting basis B."""

    basis: np.ndarray
    block: np.ndarray
    kind: str  # "sgvm" or "general"


def block_reduce(matrices):
    """Reduce a generator to its 2N block, picking the basis by regime.

    SGVM input uses the walk-off splitting basis with the closed-form block;
    otherwise the exchange-symmetric basis is tried and the reduction is
    verified numerically, raising RegimeError (with the residual) when the
    generator does not actually block-diagonalize, e.g. for a pump without
    frequency symmetry.
    """
    n = matrices.G.shape[0]
    if matrices.sgvm:
        F, G = matrices.F, matrices.G
        return BlockReduction(basis=_sgvm_split_basis(n),
                              block=np.block([[-F, G], [-G, -F]]), kind="sgvm")
    Q = build_generator(matrices)
    B2 = general_split_basis(n)
    T = B2.T @ Q @ B2
    h = 2 * n
    C = T[:h, :h]
    scale = max(1.0, float(np.max(np.abs(Q))))
    off = max(
        float(np.max(np.abs(T[:h, h:]))),
        float(np.max(np.abs(T[h:, :h]))),
        float(np.max(np.abs(T[h:, h:] + C.T))),
    )
    if off > BLOCK_TOL * scale:
        raise RegimeError(
            "generator does not block-diagonalize in the exchange basis "
            "(residual %.3e); needs a mirror grid and an even pump" % off,
            residual=off,
        )
    return BlockReduction(basis=B2, block=C, kind="general")


def canonical_factors(O_raw, lam_raw, O_tilde_raw):
    """Normalize raw factors to the descending, lam >= 1 convention.

    Modes with lam < 1 are inverted by a quarter rotation in their (X, P)
    plane applied to both factors (multiplying the complex mode column by i),
    which swaps the mode's lam and 1/lam slots without changing the product;
    modes are then stably sorted by descending lam.  Factors are polished to
    exact embedded unitaries on the way out; when O_tilde_raw is O_raw, once,
    and the result's O_tilde is its O.
    """
    lam = np.asarray(lam_raw, dtype=float).copy()
    h = lam.size
    if O_raw.shape != (2 * h, 2 * h) or O_tilde_raw.shape != (2 * h, 2 * h):
        raise ConfigError("factor shapes do not match the lam vector")
    if np.any(lam <= 0):
        raise DecompositionError("raw lam values must be positive")
    flip = lam < 1.0
    lam[flip] = 1.0 / lam[flip]
    order = np.argsort(-lam, kind="stable")

    def factor(raw, context):
        U = _complex_rep_avg(raw, h)
        U[:, flip] *= 1j
        return embed_unitary(_polish_unitary(U[:, order], context))

    O = factor(O_raw, "active factor")
    O_tilde = O if O_tilde_raw is O_raw else factor(O_tilde_raw, "passive factor")
    return BlochMessiahResult(O=O, lam=lam[order], O_tilde=O_tilde)


def _require_sgvm(medium, route):
    if not medium.sgvm():
        ks, ki = medium.kappa_signal, medium.kappa_idler
        resid = abs(ks + ki) / max(abs(ks), abs(ki), 1e-300)
        raise RegimeError(
            "%s needs the SGVM regime; kappa mismatch %.3e relative" % (route, resid),
            residual=resid,
        )


def _doubled(M):
    h = M.shape[0]
    out = np.zeros((2 * h, 2 * h))
    out[:h, :h] = M
    out[h:, h:] = M
    return out


def _reduced(prop, grid, pump, medium, poling):
    """(X, B, M = X block, K) of a composed propagator in its regime's basis.

    SGVM: X the half-swap, B the walk-off splitting basis, block A-hat =
    prop.block and K the exchange pair, which commutes with M.  Otherwise:
    X = diag(J, J), B the exchange basis, block C-hat the upper-left 2N block
    of B^T S B and K None; raises RegimeError (with the residual) when a
    domain generator of the poling does not split in the exchange basis.
    """
    n = grid.n
    if prop.sgvm:
        i, z, j = np.eye(n), np.zeros((n, n)), flip_matrix(n)
        X = np.block([[z, i], [i, z]])
        return X, _sgvm_split_basis(n), X @ prop.block, np.block([[z, j], [j, z]])
    for sign in {s for _, s in poling.domains}:
        block_reduce(build_coupled_matrices(grid, pump, medium, sign=sign))
    B2 = general_split_basis(n)
    half = B2[:, :2 * n]
    X = _doubled(flip_matrix(n))
    return X, B2, X @ (half.T @ prop.matrix @ half), None


def _asymmetry(M):
    """max |M - M^T|, and whether it is within BLOCK_TOL of max(1, max |M|)."""
    asym = float(np.max(np.abs(M - M.T)))
    return asym, asym <= BLOCK_TOL * max(1.0, float(np.max(np.abs(M))))


def _factors(B, left, lam_raw, right, S, context):
    """Checked canonical factors of S; when right is left they share one array."""
    O_raw = B @ _doubled(left)
    O_tilde_raw = O_raw if right is left else B @ _doubled(right)
    return checked_factors(canonical_factors(O_raw, lam_raw, O_tilde_raw), S, context)


def _symmetric_factors(X, B, M, S, context):
    """Factor S through the real symmetric eigenproblem of M = X block.

    Eigenvalues come in (w, -w) pairs; the left factor absorbs the signs,
    giving block = (X Gamma Sigma) |W| Gamma^T, and each |w| appears twice,
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
    return _factors(B, (X @ Gamma) * np.sign(w), np.abs(w), Gamma, S, context)


def symmetrized_eig_route(grid, pump, medium, poling):
    """Factorization through one real symmetric eigenproblem (SGVM).

    Valid whenever X A-hat is symmetric, A-hat the 2N block propagator and X
    the half-swap; this holds for palindromic polings such as a single
    uniform domain or an odd-count alternating grating.
    """
    _require_sgvm(medium, "symmetrized eigenproblem route")
    prop = compose(grid, pump, medium, poling)
    X, B, M, _ = _reduced(prop, grid, pump, medium, poling)
    return _symmetric_factors(X, B, M, prop.matrix, "symmetrized eigenproblem route")


def svd_route(grid, pump, medium, poling, double=False):
    """Factorization through the SVD of the 2N block propagator (SGVM, any poling).

    Single pass: A-hat = M D V^T maps directly onto the factors with raw
    spectrum (D, 1/D).  Matched double pass: the return trip is the adjoint,
    so the total block is A-hat^T A-hat = V D^2 V^T, symmetric positive
    definite, and input and output factors coincide (perfect inline squeezer).
    """
    _require_sgvm(medium, "SVD route")
    prop = compose(grid, pump, medium, poling)
    B = _sgvm_split_basis(grid.n)
    left, s, right = numerics.svd(prop.block)
    if double:
        S = prop.return_trip().after(prop).matrix
        return _factors(B, right, s**2, right, S, "SVD route")
    return _factors(B, left, s, right, prop.matrix, "SVD route")


def general_block_route(grid, pump, medium, poling):
    """Factorization in the exchange basis, no SGVM assumption.

    Needs an even pump on a mirror grid, so that every domain generator
    splits in the exchange basis, and a palindromic poling, so that J-tilde
    C-hat is symmetric (J-tilde = diag(J, J), C-hat the reduced propagator
    read off the composed one).  Then C-hat = (J-tilde Gamma Sigma) |W|
    Gamma^T and the |w| come in (lam, 1/lam) pairs; the shared
    canonicalization folds them into the degenerate pairs of the final
    spectrum.
    """
    if medium.sgvm():
        raise RegimeError(
            "medium is SGVM; use the SGVM routes for the reduced comparison",
            residual=0.0,
        )
    prop = compose(grid, pump, medium, poling)
    X, B, M, _ = _reduced(prop, grid, pump, medium, poling)
    return _symmetric_factors(X, B, M, prop.matrix, "general block route")


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


def structure_checks(grid, pump, medium, poling):
    """Symmetry diagnostics of the model, returned as a JSON-able dict.

    Reports the centrosymmetry residual of F, the symmetry residual of the
    block propagator in the applicable reduced basis, and the flip-parity
    class sizes of the symmetric block spectrum (expected to split evenly).
    """
    matrices = build_coupled_matrices(grid, pump, medium, sign=1)
    j = flip_matrix(grid.n)
    F = matrices.F
    f_resid = float(np.max(np.abs(F - j @ F @ j)))
    report = {
        "f_max": float(np.max(np.abs(F))),
        "f_centrosymmetry_residual": f_resid,
        "sgvm": bool(medium.sgvm()),
        "block_symmetry_residual": None,
        "flip_even": None,
        "flip_odd": None,
    }
    prop = compose(grid, pump, medium, poling)
    try:
        _, _, M, K = _reduced(prop, grid, pump, medium, poling)
    except RegimeError as exc:
        report["block_symmetry_residual"] = exc.residual
        return report
    asym, symmetric = _asymmetry(M)
    report["block_symmetry_residual"] = asym
    if symmetric and K is not None:
        w, V = numerics.sym_eig(M)
        report["flip_even"], report["flip_odd"] = _flip_classes(w, V, K)
    return report
