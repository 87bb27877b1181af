"""Structure-exploiting decomposition routes and symmetry diagnostics.

The factorization in blochmessiah works for any twin-beam propagator (in
its pair form) and any symplectic 4N array.  The routes here use the block
structure of the twin-beam generator: a fixed 2N unitary W on (a_S, a_I)
embeds as an orthogonal symplectic 4N basis B = embed_unitary(W) that
splits every domain generator Q into
B^T Q B = diag(C, -C^T), so the composed propagator splits the same way and
its upper-left 2N block is a reduced propagator.  The blocks C have closed
forms in the coupling matrices (block_reduce):

* In the SGVM regime (H = -G), W = (1/sqrt 2) [[I, -iI], [-iI, I]] is the
  walk-off basis, C = [[-F, G], [-G, -F]] and the reduced propagator A-hat
  is embed_unitary(M), M the N x N Bogoliubov view of the composed pass.
  For any poling the SVD M = P s Q^H gives the factors directly, as A-hat =
  embed(P) diag(s, s) embed(Q)^T, so svd_route works at N x N and forms the
  2N factors last.  The return trip is the adjoint of the pass, so the
  matched double pass has block embed(M^H M) = embed(Q s^2 Q^H): input =
  output = Q of the forward pass; its blocks are formed from the forward
  pass's, no double pass is composed.

* Away from SGVM, W = (1/sqrt 2) [[0, I - iJ], [I - iJ, 0]] (J the bin
  exchange) is the exchange basis.  It splits the generator, with
  C = [[H J, -F J], [-F J, G J]], whenever F is centrosymmetric and G, H
  anticentrosymmetric (an even pump on a mirror grid).  The reduced
  propagator C-hat is the stored exchange-basis matrix with its beam halves
  swapped (_reduced); no original-basis view is formed.

When the poling reads the same reversed, X times the reduced propagator is
symmetric (X the half-swap for SGVM, diag(J, J) otherwise), and the
factorization drops out of one real symmetric eigenproblem whose
eigenvalues give the (lam, 1/lam) ladder directly.  A real 2N factor R of
the reduced block is the complex factor W R of the full propagator.  W, X
and the exchange pair are applied by indexing, never as dense products.

Each route composes its pass once and reads its block once (_reduced, or
M for svd_route).  All routes return the BlochMessiahResult contract of
bloch_messiah after the same canonicalization, so the two compare mode by
mode.  The eigenproblem routes check their factors against the real 2N
diagonal blocks of B^T S B, the block they factored and its inverse
transpose (_block_checked); svd_route checks the N x N equivalents; both
go through blochmessiah's one residual check, and none reads the 4N
Propagator.matrix.  A route outside its regime raises RegimeError
carrying the violated residual.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import numerics
from .blochmessiah import BlochMessiahResult, _checked, _polish_unitary
from .errors import ConfigError, DecompositionError, RegimeError
from .model import build_coupled_matrices
from .propagator import _exchange, compose, embed_unitary

__all__ = [
    "block_reduce", "canonical_factors", "symmetrized_eig_route", "svd_route",
    "general_block_route", "structure_checks",
]

BLOCK_TOL = 1e-9
# The entries of W are +-C and +-iC.
_C = 1.0 / np.sqrt(2.0)


class _Basis(NamedTuple):
    """W = C (P_a - i P_b) and X = P_x, P_r the symmetric row permutation R -> R[r]."""

    a: np.ndarray
    b: np.ndarray
    x: np.ndarray

    def full(self, R):  # W @ R; for a real R bitwise the dense product
        return _C * (R[self.a] - 1j * R[self.b])

    def reduced(self, Z):  # W^H @ Z
        return _C * (Z[self.a] + 1j * Z[self.b])


def _basis(n, sgvm):
    """Walk-off basis and half-swap X (SGVM), else exchange basis and X = diag(J, J)."""
    rows = np.arange(2 * n)
    swap, reverse = np.roll(rows, n), rows[::-1]
    if sgvm:
        return _Basis(rows, swap, swap)
    return _Basis(swap, reverse, np.roll(reverse, n))


def block_reduce(matrices):
    """Real 2N block C of a generator Q in its regime's splitting basis W.

    embed_unitary(W)^T Q embed_unitary(W) = diag(C, -C^T).  SGVM input gives
    [[-F, G], [-G, -F]] in the walk-off basis; otherwise [[H J, -F J],
    [-F J, G J]] in the exchange basis, which needs J F J = F, g[::-1] = -g and
    h[::-1] = -h (G = diag(g), H = diag(h)).  Half the largest violation is
    the generator's off-block residual in that basis; above BLOCK_TOL *
    max(1, max|F|, |g|, |h|) RegimeError is raised with it, e.g. for a pump
    without frequency symmetry.
    """
    F, g, h = matrices.F, matrices.g, matrices.h
    G = np.diag(g)
    if matrices.sgvm:
        return np.block([[-F, G], [-G, -F]])
    # J M J reverses rows and columns, M J reverses columns: both exact.
    off = 0.5 * max(float(np.max(np.abs(F[::-1, ::-1] - F))),
                    float(np.max(np.abs(g[::-1] + g))), float(np.max(np.abs(h[::-1] + h))))
    scale = max(1.0, *(float(np.max(np.abs(M))) for M in (F, g, h)))
    if off > BLOCK_TOL * scale:
        raise RegimeError(
            "generator does not block-diagonalize in the exchange basis "
            "(residual %.3e); needs a mirror grid and an even pump" % off,
            residual=off,
        )
    FJ = -F[:, ::-1]
    return np.block([[np.diag(h)[:, ::-1], FJ], [FJ, G[:, ::-1]]])


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
    return _canonical(Z_raw, lam_raw, Z_tilde_raw)[0]


def _canonical(Z_raw, lam_raw, Z_tilde_raw):
    """(canonical_factors, lam_raw in the canonical order)."""
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
        U = np.asarray(raw, dtype=complex)[:, order]
        U[:, flip[order]] *= 1j
        return _polish_unitary(U, context)

    Z = factor(Z_raw, "active factor")
    Z_tilde = Z if Z_tilde_raw is Z_raw else factor(Z_tilde_raw, "passive factor")
    return (BlochMessiahResult(Z=Z, lam=lam[order], Z_tilde=Z_tilde),
            np.asarray(lam_raw, dtype=float)[order])


def _require_regime(medium, sgvm, route):
    """RegimeError, carrying the relative kappa mismatch, unless medium.sgvm() is sgvm."""
    if medium.sgvm() != sgvm:
        ks, ki = medium.kappa_signal, medium.kappa_idler
        resid = abs(ks + ki) / max(abs(ks), abs(ki), 1e-300)
        regime = "the SGVM regime" if sgvm else "a medium outside the SGVM regime"
        raise RegimeError("%s needs %s; kappa mismatch %.3e relative" % (route, regime, resid),
                          residual=resid)


def _reduced(grid, pump, medium, poling):
    """(pass, basis, block): the composed pass, read in its regime's basis W (_basis).

    SGVM: block A-hat, the embed_unitary of the Bogoliubov matrix.  Otherwise
    C-hat = Re(V^H T V), V the rows of W with the idler rows conjugated (T
    acts on a_I^+), and V = e^{-i pi/4} U P (U the exchange basis, P the beam
    swap) makes it Re(P X P).  Raises RegimeError (with the residual) when a
    domain generator of the poling does not split in the exchange basis,
    checked once on the sign +1 matrices (negating F moves neither the
    residual nor its scale; G, H alone always split, so sign 0 needs none).
    """
    prop = compose(grid, pump, medium, poling)
    basis = _basis(grid.n, prop.sgvm)
    if prop.sgvm:
        return prop, basis, embed_unitary(prop.bogoliubov)
    if poling.signs.any():
        block_reduce(build_coupled_matrices(grid, pump, medium, sign=1))
    return prop, basis, prop.exchange[basis.a][:, basis.a].real


def _symmetrized(basis, block):
    """(M = X block, max |M - M^T|, whether that is within BLOCK_TOL of max(1, max |M|))."""
    M = block[basis.x]
    asym = float(np.max(np.abs(M - M.T)))
    return M, asym, asym <= BLOCK_TOL * max(1.0, float(np.max(np.abs(M))))


def _factors(basis, left, lam_raw, right):
    """_canonical factors from real block factors in the basis W; when right
    is left they share one array.  The raw complex factors die here, before
    the caller checks the result."""
    Z_raw = basis.full(left)
    return _canonical(Z_raw, lam_raw, Z_raw if right is left else basis.full(right))[0]


def _diagonal_blocks(prop, block):
    """(block, block^-T), the diagonal blocks of B^T S B, S = prop.matrix.

    In SGVM media block = embed_unitary(M), so block^-T = embed_unitary(conj(M^-T)),
    M^-T = U^H X^-T U with X^-T cached on prop; otherwise block is inverted.
    """
    if prop.sgvm:
        return block, embed_unitary(_exchange(prop._inverse_transpose, prop.n).conj())
    return block, np.linalg.inv(block).T


def _block_checked(result, basis, blocks, context):
    """result, checked (_checked) against the real 2N blocks, not the 4N S.

    blocks are the diagonal blocks (block, block^-T) of B^T S B, B =
    embed_unitary(W) (_diagonal_blocks).  With Y = W^H Z, Y~ = W^H Z_tilde
    and Lam = diag(lam), those of B^T O D O_tilde^T B are
        Re(Y) Lam Re(Y~)^T + Im(Y) Lam^-1 Im(Y~)^T,
        Im(Y) Lam Im(Y~)^T + Re(Y) Lam^-1 Re(Y~)^T,
    that is [Re Y, Im Y] diag(d) [Re Y~, Im Y~]^T with d = (lam, 1/lam) and
    d = (1/lam, lam); the columns canonical_factors turned by i are the
    imaginary ones, so an error in the lam < 1 directions shows, amplified
    by lam, in the second.  The off-diagonal blocks pair real with imaginary
    columns and vanish by construction.  The factor residuals are those of Z
    and Z_tilde.
    """
    L, R = (np.hstack([Y.real, Y.imag])
            for Y in (basis.reduced(result.Z), basis.reduced(result.Z_tilde)))
    lam = result.lam
    pieces = [(L, np.concatenate(d), R, target)
              for d, target in zip(((lam, 1.0 / lam), (1.0 / lam, lam)), blocks)]
    return replace(result, residuals=_checked(pieces, ((result.Z,), (result.Z_tilde,)), context))


def _symmetric_factors(grid, pump, medium, poling, context):
    """Factor block, the composed pass's reduced propagator, through the real
    symmetric eigenproblem of M = X block.

    Eigenvalues come in (w, -w) pairs; the left factor absorbs the signs,
    giving block = (X Gamma Sigma) diag|w| Gamma^T, and each |w| appears twice,
    once per sign, which is exactly the two-mode degeneracy of the final
    spectrum.
    """
    prop, basis, block = _reduced(grid, pump, medium, poling)
    M, asym, symmetric = _symmetrized(basis, block)
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
    result = _factors(basis, Gamma[basis.x] * np.sign(w), np.abs(w), Gamma)
    return _block_checked(result, basis, _diagonal_blocks(prop, block), context)


def symmetrized_eig_route(grid, pump, medium, poling):
    """Factorization through one real symmetric eigenproblem (SGVM).

    Valid whenever X A-hat is symmetric, A-hat the 2N block propagator and X
    the half-swap; this holds for palindromic polings such as a single
    uniform domain or an odd-count alternating grating.
    """
    _require_regime(medium, True, "symmetrized eigenproblem route")
    return _symmetric_factors(grid, pump, medium, poling, "symmetrized eigenproblem route")


def svd_route(grid, pump, medium, poling, double=False):
    """Factorization through the SVD of the N x N Bogoliubov view M (SGVM, any poling).

    The block A-hat is embed_unitary(M), so M = P s Q^H gives A-hat =
    embed(P) diag(s, s) embed(Q)^T and every step stays N x N.  Single pass:
    the raw spectrum is s, once per real column.  Matched double pass: the
    return trip is the adjoint, so the block is embed(M^H M) =
    embed(Q s^2 Q^H): input = output = Q of the forward pass (the perfect
    inline squeezer).  P and Q are canonicalized at N x N (_canonical: sorted
    by lam = max(s, 1/s), a column turned by i where s < 1, polished), which
    leaves P s Q^H as it is.  _block_checked's two diagonal blocks become
    P s Q^H - M and P s^-1 Q^H - M^-H (double pass: Q s^+-2 Q^H against M^H M
    and M^-1 M^-H), checked (_checked) with the factors P and Q in place of
    Z and Z_tilde.  The 2N factors are built last, by index maps
    (_walkoff_factor).
    """
    _require_regime(medium, True, "SVD route")
    prop = compose(grid, pump, medium, poling)
    M = prop.bogoliubov
    left, s, right = numerics.svd(M)
    targets = (M, _exchange(prop._inverse_transpose, prop.n).conj())  # M, M^-H
    if double:  # one factor, Q, on both sides
        left, s, targets = right, s**2, tuple(T.conj().T @ T for T in targets)
    result, d = _canonical(left, s, right)
    P, Q = result.Z, result.Z_tilde
    residuals = _checked([(P, e, Q, T) for e, T in zip((d, 1.0 / d), targets)], ((P,), (Q,)),
                         "SVD route")
    sign = np.where(d < 1.0, -_C, _C)
    Z = _walkoff_factor(P, sign)
    return BlochMessiahResult(Z, np.repeat(result.lam, 2),
                              Z if Q is P else _walkoff_factor(Q, sign), residuals)


def _walkoff_factor(P, sign):
    """The 2N factor W embed_unitary(P0) = C [[conj P0, -i conj P0], [-i P0, P0]]
    (W the walk-off basis) of an N x N factor, columns k and N + k at 2k and
    2k + 1, both turned by i where _canonical turned column k of P = P0 (or
    i P0).  In terms of P the idler rows keep that form and the signal rows
    change sign where it turned, so sign is -C there and C elsewhere."""
    n = P.shape[0]
    Z = np.empty((2 * n, 2 * n), dtype=complex)
    Z[:n, 0::2], Z[n:, 1::2] = P.conj() * sign, _C * P
    Z[:n, 1::2], Z[n:, 0::2] = -1j * Z[:n, 0::2], -1j * Z[n:, 1::2]
    return Z


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
    _require_regime(medium, False, "general block route")
    return _symmetric_factors(grid, pump, medium, poling, "general block route")


def _flip_classes(w, V, rtol=1e-8):
    """Count flip-even and flip-odd eigenvectors, cluster by cluster.

    The exchange pair K, the 2N reversal, commutes with the decomposed matrix,
    so each eigen-cluster splits into K = +1 and K = -1 subspaces whose
    dimensions follow from the trace of K restricted to the cluster.
    """
    n_even = n_odd = 0
    i = 0
    m = w.size
    while i < m:
        j = i + 1
        while j < m and abs(w[j] - w[i]) <= rtol * max(1.0, abs(w[i])):
            j += 1
        sub = V[:, i:j]
        t = float(np.vdot(sub[::-1], sub))  # trace(sub^T K sub)
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
    class sizes of the symmetric block spectrum (expected to split evenly),
    on the forward pass compose builds (or has memoized).
    """
    F = build_coupled_matrices(grid, pump, medium, sign=1).F
    f_resid = float(np.max(np.abs(F - F[::-1, ::-1])))
    report = {
        "f_max": float(np.max(np.abs(F))),
        "f_centrosymmetry_residual": f_resid,
        "sgvm": bool(medium.sgvm()),
        "block_symmetry_residual": None,
        "flip_even": None,
        "flip_odd": None,
    }
    try:
        _, basis, block = _reduced(grid, pump, medium, poling)
    except RegimeError as exc:
        report["block_symmetry_residual"] = exc.residual
        return report
    M, asym, symmetric = _symmetrized(basis, block)
    report["block_symmetry_residual"] = asym
    if symmetric and report["sgvm"]:
        w, V = numerics.sym_eig(M)
        report["flip_even"], report["flip_odd"] = _flip_classes(w, V)
    return report
