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
  For any poling one factorization of the exchange matrix X (M = U X U^H,
  U the exchange basis) gives the factors: svd_route runs decompose's SGVM
  front end (blochmessiah._sgvm_factors) on the forward pass, so on a single
  pass the two are one computation.  The return trip is the adjoint of the
  pass, so the matched double pass has input = output = B of the forward
  pass's SVD conj X = A s B^H, and no double pass is composed: an
  independent factorization of what decompose reads off the Hermitian
  double pass by one eigenproblem.

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
In SGVM media structure_checks reads the flip classes of that block off
the parity of M, with no eigenproblem: K's two N-dimensional eigenspaces
(K the 2N reversal) when M = J conj(M) J, as for an even pump, else None.

Each route composes its pass once and reads its block once (_reduced, or
X for svd_route).  The eigenproblem routes are test oracles, run by no
command: they return bloch_messiah's BlochMessiahResult after one shared
canonicalization and check their 2N factors against the pass's 4N matrix
with checked_factors, so the block read, the basis map and the
factorization are tested against the pass itself.  svd_route, which verify
runs, returns decompose's Decomposition, checked at N x N by the SGVM front
end with no 4N matrix built; every route goes
through blochmessiah's one residual check (_checked), and the routes compare
mode by mode.  A route outside its regime raises RegimeError carrying the
violated residual.
"""

from typing import NamedTuple

import numpy as np

from . import numerics
from .blochmessiah import (BlochMessiahResult, _ladder, _polish_unitary, _sgvm_factors,
                           checked_factors, pass_name)
from .errors import ConfigError, DecompositionError, RegimeError
from .model import build_coupled_matrices
from .propagator import _embedded_max, _exchange, compose, embed_unitary

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
    stably sorted by descending lam (_ladder).  Factors are polished to exact
    unitaries on the way out.
    """
    lam, order, turned = _ladder(lam_raw)
    if Z_raw.shape != (lam.size,) * 2 or Z_tilde_raw.shape != (lam.size,) * 2:
        raise ConfigError("factor shapes do not match the lam vector")

    def factor(raw, context):
        return _polish_unitary(_turned(np.asarray(raw, dtype=complex)[:, order], turned), context)

    return BlochMessiahResult(Z=factor(Z_raw, "active factor"), lam=lam,
                              Z_tilde=factor(Z_tilde_raw, "passive factor"))


def _turned(U, turned):
    """U with its turned columns multiplied by i, in place."""
    U[:, turned] *= 1j
    return U


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
    asym = numerics._abs_max(M - M.T)
    return M, asym, asym <= BLOCK_TOL * max(1.0, numerics._abs_max(M))


def _symmetric_factors(grid, pump, medium, poling, context):
    """Factor block, the composed pass's reduced propagator, through the real
    symmetric eigenproblem of M = X block.

    Eigenvalues come in (w, -w) pairs; the left factor absorbs the signs,
    giving block = (X Gamma Sigma) diag|w| Gamma^T, and each |w| appears twice,
    once per sign, which is exactly the two-mode degeneracy of the final
    spectrum.  The complex factors W R are checked against prop.matrix
    (checked_factors).
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
    result = canonical_factors(basis.full(Gamma[basis.x] * np.sign(w)), np.abs(w),
                               basis.full(Gamma))
    return checked_factors(result, prop.matrix, context)


def symmetrized_eig_route(grid, pump, medium, poling):
    """Factorization through one real symmetric eigenproblem (SGVM).

    Valid whenever X A-hat is symmetric, A-hat the 2N block propagator and X
    the half-swap; this holds for palindromic polings such as a single
    uniform domain or an odd-count alternating grating.
    """
    _require_regime(medium, True, "symmetrized eigenproblem route")
    return _symmetric_factors(grid, pump, medium, poling, "symmetrized eigenproblem route")


def svd_route(grid, pump, medium, poling, double=False):
    """The Decomposition of a pass from its N x N exchange matrix X (SGVM, any poling).

    decompose's SGVM front end (blochmessiah._sgvm_factors) on the forward
    pass, its errors naming the pass as the commands do (pass_name).
    Matched double pass: the return trip is the adjoint, so conj X_d = conj
    X^H conj X = B s^2 B^H from the SVD conj X = A s B^H of the forward pass,
    input = output = B (the perfect inline squeezer).
    """
    _require_regime(medium, True, "SVD route")
    return _sgvm_factors(compose(grid, pump, medium, poling), pass_name(pump.g0, double),
                         double)


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


def structure_checks(grid, pump, medium, poling):
    """Symmetry diagnostics of the model, returned as a JSON-able dict.

    Reports the centrosymmetry residual of F, the symmetry residual of the
    block propagator in the applicable reduced basis, and the flip-parity
    class sizes of the symmetric block, on the forward pass compose builds
    (or has memoized).  In SGVM media the block X A-hat is [[Im T, Re T],
    [Re T, -Im T]], T = U X U^H formed here (not cached on the pass): its
    asymmetry is max(max|Re(T - T^T)|, max|Im(T - T^T)|), bitwise the 2N
    value, and the flip K, the 2N reversal, commutes with it exactly when T
    = J conj(T) J (Re T centrosymmetric, Im T anticentrosymmetric), as an
    even pump makes it bitwise.  The flip classes are then K's two
    eigenspaces, N each; None when K does not commute (a lopsided pump), when
    the block is not symmetric, and away from SGVM media.
    """
    F = build_coupled_matrices(grid, pump, medium, sign=1).F
    report = {
        "f_max": float(np.max(np.abs(F))),
        "f_centrosymmetry_residual": float(np.max(np.abs(F - F[::-1, ::-1]))),
        "sgvm": bool(medium.sgvm()),
        "block_symmetry_residual": None,
        "flip_even": None,
        "flip_odd": None,
    }
    if report["sgvm"]:
        T = _exchange(compose(grid, pump, medium, poling).exchange, grid.n, -1)
        report["block_symmetry_residual"] = asym = _embedded_max(T - T.T)
        if asym <= BLOCK_TOL * max(1.0, _embedded_max(T)) and np.array_equal(
                T, T[::-1, ::-1].conj()):
            report["flip_even"] = report["flip_odd"] = grid.n
        return report
    try:
        _, basis, block = _reduced(grid, pump, medium, poling)
    except RegimeError as exc:
        report["block_symmetry_residual"] = exc.residual
        return report
    report["block_symmetry_residual"] = _symmetrized(basis, block)[1]
    return report
