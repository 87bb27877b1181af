"""Bloch-Messiah structure of twin-beam propagators.

Factors a symplectic propagator as S = O D O-tilde^T with O, O-tilde
orthogonal symplectic and D = diag(lam, 1/lam), then rearranges the
doubly-degenerate spectrum into independent two-mode squeezers, one signal
mode paired with one idler mode each, and extracts the complex input/output
mode functions.

The factorization route is polar: P = (S S^T)^{1/2} is diagonalized by an
orthogonal symplectic O = [[X, -Y], [Y, X]] built from the unitary Z = X + iY,
and the passive remainder K = P^{-1} S supplies O-tilde = K^T O.  The
eigenvectors of S S^T above lam = 1 give the active columns z_k of Z; a
dense symmetric solver mixes them freely inside degenerate clusters, which is
harmless because each cluster subspace is isotropic in any basis.  Their
partners below lam = 1 are i z_k, so the unit cluster's unitary half is the
complex complement of span{z_k}: Z is completed by a QR of its active
columns, with no factorization of the cluster itself.  A thin unitary polish
of the active columns and a full one of O-tilde scrub the remaining roundoff
so both factors meet tight orthogonality and symplectic residuals.  The
polish is a Newton-Schulz iteration to the polar (Lowdin) factor, two
products a step, in place of an SVD; it refuses an input with ||Z^H Z - I||_F
>= 0.75, beyond which the steps need not converge.
"""

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import numerics
from .errors import ConfigError, ContractError, DecompositionError
from .propagator import (
    Propagator, compose, double_pass, free_path, symplectic_residual,
)

__all__ = [
    "BlochMessiahResult", "SchmidtMode", "Decomposition", "bloch_messiah",
    "two_mode_rearrange", "embed_unitary", "pair_mixer", "decompose",
    "checked_factors", "tune_gain", "solve_increasing",
]

# Relative symplectic-defect allowance on inputs, scaled by max|S|^2.
INPUT_SYMPLECTIC_TOL = 1e-9
# Reciprocal-pairing tolerance on eigenvalues of S S^T.
PAIRING_RTOL = 1e-6
# Width of the lam = 1 cluster treated as passive (on lam^2).
UNIT_CTOL = 1e-9
# Degeneracy tolerance for the two-mode pairing of the lam spectrum.
PAIR_RTOL = 1e-8
# Residual allowances on the recovered factors and the reconstruction.
FACTOR_TOL = 1e-9
RECON_RTOL = 1e-8
# Squeezing below this is reported as exactly passive.  A squeezer's mode
# vectors carry roundoff of about 3e-16 / r (reordering the domain product
# moves the flip overlaps of r ~ 1e-9 squeezers by 4e-7), so at this floor
# every reported mode stays within about FACTOR_TOL of the exact one.
R_CLAMP = 1e-6
# Unitary polish target max|Z^H Z - I|, and its step cap (seven suffice).
POLISH_TOL = 1e-14
POLISH_STEPS = 8
# Beam-support leakage above this marks a mode pair as mixed.
MIX_TOL = 1e-6
# Doublings of the upper end allowed while bracketing a target.
BRACKET_DOUBLINGS = 60


@dataclass(frozen=True)
class BlochMessiahResult:
    """S = O diag(lam, 1/lam) O_tilde^T, lam descending, lam >= 1.

    residuals is filled in by checked_factors once the factors are checked
    against S.
    """

    O: np.ndarray
    lam: np.ndarray
    O_tilde: np.ndarray
    residuals: Optional[dict] = None

    def D(self):
        return np.diag(np.concatenate([self.lam, 1.0 / self.lam]))

    def reconstruct(self):
        d = np.concatenate([self.lam, 1.0 / self.lam])
        return (self.O * d) @ self.O_tilde.T


def checked_factors(result, S, context):
    """Attach and enforce the factor residuals of S = O D O_tilde^T.

    residuals holds the reconstruction residual relative to max(1, max|S|),
    then the orthogonality and symplectic residual of O and of O_tilde (one
    computation, reported under both names, when O_tilde is O).
    Raises DecompositionError when one exceeds RECON_RTOL or FACTOR_TOL.
    """
    eye = np.eye(S.shape[0])
    residuals = {"reconstruction": float(np.max(np.abs(result.reconstruct() - S)))
                 / max(1.0, float(np.max(np.abs(S))))}
    for name, M in (("O", result.O), ("O_tilde", result.O_tilde)):
        if name == "O" or M is not result.O:  # else O_tilde reuses O's pair
            pair = float(np.max(np.abs(M.T @ M - eye))), symplectic_residual(M)
        residuals[name + "_orthogonal"], residuals[name + "_symplectic"] = pair
    for name, value in residuals.items():
        limit = RECON_RTOL if name == "reconstruction" else FACTOR_TOL
        if value > limit:
            raise DecompositionError(
                "%s: %s residual %.3e exceeds %.1e" % (context, name, value, limit)
            )
    return replace(result, residuals=residuals)


def embed_unitary(Z):
    """Real orthogonal symplectic [[X, -Y], [Y, X]] from a unitary Z = X + iY."""
    X, Y = Z.real, Z.imag
    return np.block([[X, -Y], [Y, X]])


def _complex_rep(O, h):
    """Inverse of embed_unitary for an exactly embedded matrix."""
    return O[:h, :h] + 1j * O[h:, :h]


def _complex_rep_avg(M, h):
    """Complex representative of a nearly embedded matrix, block-averaged."""
    X = 0.5 * (M[:h, :h] + M[h:, h:])
    Y = 0.5 * (M[h:, :h] - M[:h, h:])
    return X + 1j * Y


def _polish_unitary(Z, context):
    """Polar (Lowdin) factor Z (Z^H Z)^{-1/2} of a nearly unitary Z, tall or square.

    Newton-Schulz steps Z <- Z - Z E / 2, E = Z^H Z - I (two products, the
    error squared), until max|E| <= POLISH_TOL; an input already there comes
    back unchanged.  Raises DecompositionError when ||E||_F >= 0.75 on entry
    (below it every singular value lies in (0.5, sqrt 1.75), where the steps
    converge) or when POLISH_STEPS steps do not reach POLISH_TOL.
    """
    eye = np.eye(Z.shape[1])
    E = Z.conj().T @ Z - eye
    defect = float(np.linalg.norm(E))
    for step in range(POLISH_STEPS + 1):
        if np.max(np.abs(E), initial=0.0) <= POLISH_TOL:
            return Z
        if defect >= 0.75 or step == POLISH_STEPS:
            raise DecompositionError(
                "%s: candidate unitary does not polish (||Z^H Z - I||_F = %.3e on "
                "entry, %d steps)" % (context, defect, step))
        Z = Z - 0.5 * (Z @ E)
        E = Z.conj().T @ Z - eye


def bloch_messiah(S):
    """Decompose a symplectic S into O diag(lam, 1/lam) O_tilde^T.

    Raises ContractError if S is not symplectic to working tolerance and
    DecompositionError if the spectrum does not pair reciprocally or a factor
    fails its residual checks.
    """
    S = np.asarray(S, dtype=float)
    dim = S.shape[0]
    if S.shape != (dim, dim) or dim % 2:
        raise ConfigError("symplectic input must be square with even dimension")
    h = dim // 2
    smax = float(np.max(np.abs(S)))
    resid = symplectic_residual(S)
    if resid > INPUT_SYMPLECTIC_TOL * max(1.0, smax**2):
        raise ContractError(
            "input is not symplectic: residual %.3e exceeds tolerance" % resid
        )

    w, V = numerics.sym_eig(S @ S.T)
    if w[0] <= 0:
        raise DecompositionError("S S^T has a non-positive eigenvalue %.3e" % w[0])
    products = w * w[::-1]
    worst = float(np.max(np.abs(products - 1.0)))
    if worst > PAIRING_RTOL:
        raise DecompositionError(
            "eigenvalues of S S^T do not pair reciprocally (worst defect %.3e)" % worst
        )

    w_desc = w[::-1]
    V_desc = V[:, ::-1]
    n_above = int(np.sum(w_desc > 1.0 + UNIT_CTOL))
    n_below = int(np.sum(w_desc < 1.0 - UNIT_CTOL))
    if n_above != n_below:
        raise DecompositionError(
            "unit-cluster imbalance: %d eigenvalues above 1, %d below" % (n_above, n_below)
        )
    n_unit = dim - n_above - n_below
    m_unit = n_unit // 2

    # Active directions: eigenvectors are isotropic per cluster, so their
    # complex forms z_k are orthonormal up to roundoff; a thin polish scrubs it.
    top = V_desc[:, :n_above]
    Z = _polish_unitary(top[:h, :] + 1j * top[h:, :], "active factor")
    if m_unit:
        # The lam < 1 partners of the active directions are i z_k, so the
        # unit cluster's unitary half is exactly the complex complement of
        # span{z_k}: the trailing columns of a complete QR of Z.  It depends
        # on the active columns alone, not on how the eigensolver rotated the
        # cluster, and with no active columns it is the bin basis (S = I
        # yields O = O_tilde = I).
        Z = np.hstack([Z, np.linalg.qr(Z, mode="complete")[0][:, n_above:]])
    O = embed_unitary(Z)
    lam = np.concatenate([np.sqrt(w_desc[:n_above]), np.ones(m_unit)])

    # Passive remainder via the exact (uncluttered) spectral data of P.
    P_inv = (V * (1.0 / np.sqrt(w))) @ V.T
    K = P_inv @ S
    O_tilde_raw = K.T @ O
    Z_tilde = _complex_rep_avg(O_tilde_raw, h)
    embed_defect = float(np.max(np.abs(O_tilde_raw - embed_unitary(Z_tilde))))
    if embed_defect > 1e-6:
        raise DecompositionError("passive factor is far from orthogonal symplectic "
                                 "(defect %.3e)" % embed_defect)
    O_tilde = embed_unitary(_polish_unitary(Z_tilde, "passive factor"))

    return checked_factors(BlochMessiahResult(O=O, lam=lam, O_tilde=O_tilde), S,
                           "generic route")


def pair_mixer(n_pairs):
    """Block-diagonal unitary of 50:50 pair mixers w = (1/sqrt2) [[1, i], [i, 1]].

    Applied on the right of the active complex basis, it turns each
    degenerate lam pair of single-mode squeezers into one two-mode squeezer.
    two_mode_rearrange applies it column pair by column pair (_mix_pairs).
    """
    w = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    B = np.zeros((2 * n_pairs, 2 * n_pairs), dtype=complex)
    for k in range(n_pairs):
        B[2 * k:2 * k + 2, 2 * k:2 * k + 2] = w
    return B


def _mix_pairs(U):
    """U @ pair_mixer(U.shape[1] // 2), mixing each column pair (a, b) directly."""
    a, b = U[:, 0::2], U[:, 1::2]
    return np.stack([a + 1j * b, 1j * a + b], axis=2).reshape(U.shape) / np.sqrt(2.0)


def two_mode_rearrange(bm):
    """Pair the degenerate lam spectrum and mix into two-mode squeezers.

    Returns (U_out, U_in, r): complex mode matrices (columns 2k, 2k+1 belong
    to squeezer k) and the per-squeezer parameters r_k, tiny values clamped
    to zero.  Raises DecompositionError when the spectrum does not come in
    degenerate pairs (not a twin-beam propagator).
    """
    lam = bm.lam
    h = lam.size
    if h % 2:
        raise DecompositionError("odd active dimension cannot pair into squeezers")
    a, b = lam[0::2], lam[1::2]
    defect = np.abs(a - b) / np.maximum(1.0, np.maximum(a, b))
    if np.max(defect) > PAIR_RTOL:
        k = int(np.argmax(defect))
        raise DecompositionError(
            "lam spectrum is not doubly degenerate at pair %d: %r vs %r"
            % (k, a[k], b[k])
        )
    U_out = _mix_pairs(_complex_rep(bm.O, h))
    U_in = _mix_pairs(_complex_rep(bm.O_tilde, h))
    r = 0.5 * (np.log(a) + np.log(b))
    r[r < R_CLAMP] = 0.0
    return U_out, U_in, r


@dataclass(frozen=True)
class SchmidtMode:
    """One squeezer mode function on the stacked (signal, idler) bin space."""

    k: int                    # squeezer index, 0-based, descending r
    beam: str                 # "signal" or "idler"
    direction: str            # "in" or "out"
    r: float
    amplitudes: np.ndarray    # complex, length 2N
    mixed: bool

    def beam_amplitudes(self, n):
        """The N amplitudes on this mode's own beam."""
        return self.amplitudes[:n] if self.beam == "signal" else self.amplitudes[n:]


@dataclass(frozen=True)
class Decomposition:
    """Full two-mode squeezer structure of one propagator."""

    grid: object
    lam: np.ndarray
    r: np.ndarray
    O: np.ndarray
    O_tilde: np.ndarray
    U_out: np.ndarray
    U_in: np.ndarray
    modes: List[SchmidtMode]
    mixed_pairs: List[int]
    residuals: dict           # checked_factors residuals of the factorized matrix

    def active_pairs(self):
        """Squeezers with r > 0; two_mode_rearrange sets every r < R_CLAMP to 0."""
        return [k for k, r in enumerate(self.r) if r > 0.0]

    def pair_modes(self, k, direction):
        """(signal_mode, idler_mode) of squeezer k for one direction."""
        found = {m.beam: m for m in self.modes if m.k == k and m.direction == direction}
        if len(found) != 2:
            raise ConfigError("no such squeezer: k=%r direction=%r" % (k, direction))
        return found["signal"], found["idler"]


def _beam_support(u, n):
    return float(np.sum(np.abs(u[:n]) ** 2))


def _gauge_fix(u, n, beam):
    """Rotate the column phase so its central beam amplitude is real positive."""
    sl = u[:n] if beam == "signal" else u[n:]
    c = (n - 1) // 2
    anchor = sl[c]
    if abs(anchor) <= 1e-12 * np.linalg.norm(sl):
        anchor = sl[int(np.argmax(np.abs(sl)))]
    if abs(anchor) == 0.0:
        return u
    return u * (abs(anchor) / anchor)


def _extract_modes(U_out, U_in, r, n):
    """Classify each squeezer's columns by beam and gauge them for reporting."""
    modes = []
    mixed_pairs = []
    for k in range(r.size):
        pair_mixed = False
        for direction, U in (("out", U_out), ("in", U_in)):
            ua, ub = U[:, 2 * k].copy(), U[:, 2 * k + 1].copy()
            sa, sb = _beam_support(ua, n), _beam_support(ub, n)
            if sa >= sb:
                sig, idl, s_sig, s_idl = ua, ub, sa, sb
            else:
                sig, idl, s_sig, s_idl = ub, ua, sb, sa
            leak = max(1.0 - s_sig, s_idl)
            if leak > MIX_TOL:
                pair_mixed = True
            for beam, u in (("signal", sig), ("idler", idl)):
                modes.append(SchmidtMode(
                    k=k, beam=beam, direction=direction, r=float(r[k]),
                    amplitudes=_gauge_fix(u, n, beam), mixed=leak > MIX_TOL,
                ))
        if pair_mixed:
            mixed_pairs.append(k)
    return modes, mixed_pairs


def decompose(prop, grid, medium=None, double=False, remove_free_phase=False):
    """Squeezer structure of a Propagator built on the given grid.

    remove_free_phase strips the walk-off phases each beam accumulates over
    the pass path from the output side before factorizing (input modes are
    untouched); this needs the medium.  The double flag must match how the
    propagator was built, since the return pass swaps the beam velocities.
    """
    n = prop.n
    if grid.n != n:
        raise ConfigError("grid size %d does not match propagator bins %d" % (grid.n, n))
    if remove_free_phase:
        if medium is None:
            raise ConfigError("remove_free_phase needs the medium")
        # the path is diagonal and passive: its inverse is its conjugate
        prop = Propagator(free_path(grid, medium, double).bogoliubov.conj(), n).after(prop)
    bm = bloch_messiah(prop.matrix)
    U_out, U_in, r = two_mode_rearrange(bm)
    modes, mixed_pairs = _extract_modes(U_out, U_in, r, n)
    return Decomposition(
        grid=grid, lam=bm.lam, r=r, O=bm.O, O_tilde=bm.O_tilde,
        U_out=U_out, U_in=U_in, modes=modes, mixed_pairs=mixed_pairs,
        residuals=bm.residuals,
    )


def tune_gain(grid, pump, medium, poling, target, double=False, gain2_scale=1.0,
              tol=1e-4):
    """Find g0 such that the mean signal photon number hits the target.

    The photon number is increasing in g0 and exactly 0 at g0 = 0, so
    solve_increasing searches up from [0, max(|g0|, 1)] without building a
    propagator at zero gain.  Returns (g0, achieved); a zero target gives
    (0.0, 0.0).  Uses the trace of S S^T, so no mode decomposition is
    performed per evaluation.
    """
    if not (target >= 0):
        raise ConfigError("target photon number must be nonnegative")

    def photons(g0):
        if g0 == 0.0:
            return 0.0
        p = replace(pump, g0=g0)
        prop = (double_pass(grid, p, medium, poling, gain2_scale=gain2_scale)
                if double else compose(grid, p, medium, poling))
        return prop.mean_photons()[0]

    return solve_increasing(photons, target, 0.0, max(abs(pump.g0), 1.0), tol)


def solve_increasing(fn, target, lo, hi, tol):
    """Root of fn(x) = target for fn increasing on [lo, infinity).

    Doubles hi, moving lo up behind it, until fn(hi) >= target, then narrows
    the bracket by false position with the Illinois rule: an end that stays
    put for two steps in a row has its value halved.  Returns (x, fn(x))
    for the first point within tol of the target.  Raises ContractError
    when the target lies below fn(lo), when BRACKET_DOUBLINGS doublings do
    not reach it, or when the next point does not fall strictly inside the
    bracket (a stall).
    """
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo > target:
        raise ContractError("target %g below the value %g at %g" % (target, f_lo, lo))
    for _ in range(BRACKET_DOUBLINGS):
        if f_hi >= target:
            break
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        f_hi = fn(hi)
    if not f_hi >= target:
        raise ContractError("bracket end %g stays below the target %g" % (hi, target))
    x, fx = (lo, f_lo) if abs(f_lo - target) <= tol else (hi, f_hi)
    # d_prev is the previous step's residual: same sign twice halves the
    # value at the end that stayed.  Each step moves one end strictly
    # inside the bracket, so the loop ends.
    d_lo, d_hi, d_prev = f_lo - target, f_hi - target, 0.0
    while abs(fx - target) > tol:
        x = hi - d_hi * (hi - lo) / (d_hi - d_lo)
        if not lo < x < hi:
            raise ContractError("search stalled in [%r, %r] (target %g)" % (lo, hi, target))
        fx = fn(x)
        d = fx - target
        if d < 0:
            lo, d_lo, d_hi = x, d, d_hi * (0.5 if d_prev < 0 else 1.0)
        else:
            hi, d_hi, d_lo = x, d, d_lo * (0.5 if d_prev > 0 else 1.0)
        d_prev = d
    return x, fx
