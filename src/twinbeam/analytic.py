"""Structure-exploiting decomposition routes and symmetry diagnostics.

The generic factorization in blochmessiah works for any symplectic input.
The routes here instead use the block structure of the twin-beam generator:

* In the SGVM regime (H = -G) the 4N generator reduces to a 2N block A, and
  for polings whose block propagator has X A-hat symmetric (a single domain,
  or an odd-count alternating grating) the factorization drops out of one
  real symmetric eigenproblem.  For any SGVM poling the SVD of the block
  propagator gives the factors directly; for the matched double pass the
  block is symmetric positive definite and input equals output modes.

* Away from SGVM, a second fixed basis reduces the generator whenever the
  pump coupling is centrosymmetric (even pump on a mirror grid); there the
  symmetric eigenproblem involves the bin-exchange matrix and produces the
  (lam, 1/lam) ladder directly.

All routes return the same BlochMessiahResult contract as the generic
factorization after a shared canonicalization step, so they can be compared
against it mode by mode.  A route applied outside its regime raises
RegimeError carrying the violated residual.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .blochmessiah import (
    BlochMessiahResult, _complex_rep_avg, _polish_unitary, checked_factors,
    embed_unitary,
)
from .errors import ConfigError, DecompositionError, RegimeError
from .model import build_coupled_matrices, build_generator, flip_matrix
from .propagator import Propagator, compose

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
    exact embedded unitaries on the way out.
    """
    lam = np.asarray(lam_raw, dtype=float).copy()
    h = lam.size
    if O_raw.shape != (2 * h, 2 * h) or O_tilde_raw.shape != (2 * h, 2 * h):
        raise ConfigError("factor shapes do not match the lam vector")
    if np.any(lam <= 0):
        raise DecompositionError("raw lam values must be positive")
    U = _complex_rep_avg(O_raw, h)
    Ut = _complex_rep_avg(O_tilde_raw, h)
    flip = lam < 1.0
    lam[flip] = 1.0 / lam[flip]
    U[:, flip] *= 1j
    Ut[:, flip] *= 1j
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    U = U[:, order]
    Ut = Ut[:, order]
    return BlochMessiahResult(
        O=embed_unitary(_polish_unitary(U, "active factor")),
        lam=lam,
        O_tilde=embed_unitary(_polish_unitary(Ut, "passive factor")),
    )


def _require_sgvm(medium, route):
    if not medium.sgvm():
        ks, ki = medium.kappa_signal, medium.kappa_idler
        resid = abs(ks + ki) / max(abs(ks), abs(ki), 1e-300)
        raise RegimeError(
            "%s needs the SGVM regime; kappa mismatch %.3e relative" % (route, resid),
            residual=resid,
        )


def _exchange_pair(n):
    """The flip that commutes with X A-hat on the SGVM block space."""
    j = flip_matrix(n)
    z = np.zeros((n, n))
    return np.block([[z, j], [j, z]])


def _swap_blocks(n):
    i = np.eye(n)
    z = np.zeros((n, n))
    return np.block([[z, i], [i, z]])


def symmetrized_eig_route(grid, pump, medium, poling):
    """Factorization through one real symmetric eigenproblem (SGVM).

    Valid whenever X A-hat is symmetric, A-hat the 2N block propagator and X
    the half-swap; this covers a single uniform domain and odd-count
    alternating gratings.  Eigenvalues come in (w, -w) pairs; the left factor
    absorbs the signs, giving A-hat = (X Gamma Sigma) |W| Gamma^T, and each
    |w| appears twice, once per sign, which is exactly the two-mode
    degeneracy of the final spectrum.
    """
    _require_sgvm(medium, "symmetrized eigenproblem route")
    prop = compose(grid, pump, medium, poling)
    A_hat = prop.block
    X = _swap_blocks(grid.n)
    M = X @ A_hat
    asym = float(np.max(np.abs(M - M.T)))
    if asym > BLOCK_TOL * max(1.0, float(np.max(np.abs(M)))):
        raise RegimeError(
            "X A-hat is not symmetric (residual %.3e); the poling sequence "
            "must be palindromic under orientation flip" % asym,
            residual=asym,
        )
    w, Gamma = numerics.sym_eig(M)
    if np.min(np.abs(w)) == 0.0:
        raise DecompositionError("singular block propagator")
    signs = np.sign(w)
    left = (X @ Gamma) * signs
    B = _sgvm_split_basis(grid.n)
    O_raw = B @ _doubled(left)
    O_tilde_raw = B @ _doubled(Gamma)
    result = canonical_factors(O_raw, np.abs(w), O_tilde_raw)
    return checked_factors(result, prop.matrix, "symmetrized eigenproblem route")


def _doubled(M):
    h = M.shape[0]
    out = np.zeros((2 * h, 2 * h))
    out[:h, :h] = M
    out[h:, h:] = M
    return out


def svd_route(grid, pump, medium, poling, double=False):
    """Factorization through the SVD of the 2N block propagator (SGVM, any poling).

    Single pass: A-hat = M D V^T maps directly onto the factors with raw
    spectrum (D, 1/D).  Matched double pass: the total block is A-hat^T A-hat
    = V D^2 V^T, symmetric positive definite, so the input and output factors
    coincide, which is the perfect inline-squeezer property.
    """
    _require_sgvm(medium, "SVD route")
    prop = compose(grid, pump, medium, poling)
    A_hat = prop.block
    B = _sgvm_split_basis(grid.n)
    left, s, right = numerics.svd(A_hat)
    if double:
        O_raw = O_tilde_raw = B @ _doubled(right)
        lam_raw = s**2
        M = prop.bogoliubov
        S_full = Propagator(M.conj().T @ M, grid.n).matrix
    else:
        O_raw = B @ _doubled(left)
        O_tilde_raw = B @ _doubled(right)
        lam_raw = s
        S_full = prop.matrix
    result = canonical_factors(O_raw, lam_raw, O_tilde_raw)
    return checked_factors(result, S_full, "SVD route")


def general_block_route(grid, pump, medium, poling):
    """Factorization in the exchange basis, no SGVM assumption.

    Requires J-tilde C-hat symmetric (J-tilde = diag(J, J), C-hat the reduced
    propagator), which holds for a single uniform domain with an even pump.
    C-hat = (J-tilde Gamma Sigma) |W| Gamma^T and the |w| come in (lam, 1/lam)
    pairs; the shared canonicalization folds them into the degenerate pairs
    of the final spectrum.
    """
    if medium.sgvm():
        raise RegimeError(
            "medium is SGVM; use the SGVM routes for the reduced comparison",
            residual=0.0,
        )
    J_tilde = _doubled(flip_matrix(grid.n))
    M = J_tilde @ _reduced_product(grid, pump, medium, poling)
    asym = float(np.max(np.abs(M - M.T)))
    if asym > BLOCK_TOL * max(1.0, float(np.max(np.abs(M)))):
        raise RegimeError(
            "J-tilde C-hat is not symmetric (residual %.3e)" % asym,
            residual=asym,
        )
    w, Gamma = numerics.sym_eig(M)
    if np.min(np.abs(w)) == 0.0:
        raise DecompositionError("singular block propagator")
    signs = np.sign(w)
    left = (J_tilde @ Gamma) * signs
    B2 = general_split_basis(grid.n)
    O_raw = B2 @ _doubled(left)
    O_tilde_raw = B2 @ _doubled(Gamma)
    S_full = compose(grid, pump, medium, poling).matrix
    result = canonical_factors(O_raw, np.abs(w), O_tilde_raw)
    return checked_factors(result, S_full, "general block route")


def _reduced_product(grid, pump, medium, poling):
    """Ordered product C-hat of the exchange-basis domain exponentials (non-SGVM).

    Raises RegimeError when a domain generator does not reduce.
    """
    blocks = {s: block_reduce(build_coupled_matrices(grid, pump, medium, sign=s)).block
              for s in {s for _, s in poling.domains}}
    C_hat = np.eye(2 * grid.n)
    for width, sign in poling.domains:
        C_hat = numerics.expm(width * blocks[sign]) @ C_hat
    return C_hat


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
    if prop.block is not None:
        M = _swap_blocks(grid.n) @ prop.block
        K = _exchange_pair(grid.n)
    else:
        try:
            M = _doubled(j) @ _reduced_product(grid, pump, medium, poling)
        except RegimeError as exc:
            report["block_symmetry_residual"] = exc.residual
            return report
        K = None
    asym = float(np.max(np.abs(M - M.T)))
    report["block_symmetry_residual"] = asym
    if asym <= BLOCK_TOL * max(1.0, float(np.max(np.abs(M)))):
        w, V = numerics.sym_eig(M)
        if K is not None:
            even, odd = _flip_classes(w, V, K)
            report["flip_even"] = even
            report["flip_odd"] = odd
    return report
