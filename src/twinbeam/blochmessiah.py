"""Bloch-Messiah structure of twin-beam propagators.

Factors a symplectic propagator as S = O D O-tilde^T with O, O-tilde
orthogonal symplectic and D = diag(lam, 1/lam), then rearranges the
doubly-degenerate spectrum into independent two-mode squeezers, one signal
mode paired with one idler mode each.  A BlochMessiahResult stores lam and
the complex 2N unitaries Z, Z_tilde with O = embed_unitary(Z) and
O_tilde = embed_unitary(Z_tilde); a Decomposition stores only lam, r and the
complex mode matrices U_out, U_in.  The 4N real factors and each squeezer's
gauged input/output modes are derived from them on demand.

The factorization route is polar: P = (S S^T)^{1/2} is diagonalized by an
orthogonal symplectic O = [[X, -Y], [Y, X]] built from the unitary Z = X + iY,
and since O is orthogonal the input factor is O-tilde = S^T O D^{-1}.  The
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

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import numerics
from .errors import ConfigError, ContractError, DecompositionError
from .propagator import (
    compose, double_pass, embed_unitary, free_path, symplectic_residual,
)

__all__ = [
    "BlochMessiahResult", "SchmidtMode", "Decomposition", "bloch_messiah",
    "two_mode_rearrange", "pair_mixer", "decompose",
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
# Squeezing below this is reported as exactly passive (reordering the domain
# product moved the flip overlaps of r ~ 1e-9 squeezers by 4e-7).  Modes above
# it still carry roundoff: a 1e-16 relative change of the domain exponentials
# moved those of r = 2.9e-6 (N = 201 QPM) by 2.2e-5, while r_k agreed to 2e-14.
R_CLAMP = 1e-6
# Unitary polish target max|Z^H Z - I|, and its step cap (seven suffice).
POLISH_TOL = 1e-14
POLISH_STEPS = 8
# Beam-support leakage above this marks a mode pair as mixed.
MIX_TOL = 1e-6
# Steps up allowed while bracketing a target.
BRACKET_DOUBLINGS = 60


@dataclass(frozen=True)
class BlochMessiahResult:
    """S = O diag(lam, 1/lam) O_tilde^T, lam descending, lam >= 1.

    Z and Z_tilde are the complex 2N unitaries with O = embed_unitary(Z) and
    O_tilde = embed_unitary(Z_tilde).  residuals is filled in by
    checked_factors once the factors are checked against S.
    """

    Z: np.ndarray
    lam: np.ndarray
    Z_tilde: np.ndarray
    residuals: Optional[dict] = None

    def reconstruct(self):
        d = np.concatenate([self.lam, 1.0 / self.lam])
        return (embed_unitary(self.Z) * d) @ embed_unitary(self.Z_tilde).T


def checked_factors(result, S, context):
    """Attach and enforce the factor residuals of S = O D O_tilde^T.

    residuals holds the reconstruction residual relative to max(1, max|S|),
    then the orthogonality and symplectic residual of O and of O_tilde (one
    computation, reported under both names, when Z_tilde is Z).  Both come
    from complex 2N products: embed_unitary is multiplicative, embed(Z)^T =
    embed(Z^H) and Omega = embed(-iI), so with O = embed(Z)
        O^T O - I = embed(Z^H Z - I),  O Omega O^T - Omega = embed(-i (Z Z^H - I)),
    and max|embed(E)| = max|embed(-iE)| = max(max|Re E|, max|Im E|).
    Raises DecompositionError when one exceeds RECON_RTOL or FACTOR_TOL.
    """
    residuals = {"reconstruction": float(np.max(np.abs(result.reconstruct() - S)))
                 / max(1.0, float(np.max(np.abs(S))))}

    def defect(gram):  # max|embed_unitary(gram - I)|
        gram[np.diag_indices_from(gram)] -= 1.0
        return float(max(np.max(np.abs(gram.real)), np.max(np.abs(gram.imag))))

    for name, Z in (("O", result.Z), ("O_tilde", result.Z_tilde)):
        if name == "O" or Z is not result.Z:  # else O_tilde reuses O's pair
            pair = defect(Z.conj().T @ Z), defect(Z @ Z.conj().T)
        residuals[name + "_orthogonal"], residuals[name + "_symplectic"] = pair
    for name, value in residuals.items():
        limit = RECON_RTOL if name == "reconstruction" else FACTOR_TOL
        if value > limit:
            raise DecompositionError(
                "%s: %s residual %.3e exceeds %.1e" % (context, name, value, limit)
            )
    return replace(result, residuals=residuals)


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

    # S = O D O_tilde^T with O orthogonal, so O_tilde = S^T O D^-1.
    O_tilde_raw = (S.T @ O) / np.concatenate([lam, 1.0 / lam])
    Z_tilde = _complex_rep_avg(O_tilde_raw, h)
    embed_defect = float(np.max(np.abs(O_tilde_raw - embed_unitary(Z_tilde))))
    if embed_defect > 1e-6:
        raise DecompositionError("passive factor is far from orthogonal symplectic "
                                 "(defect %.3e)" % embed_defect)
    Z_tilde = _polish_unitary(Z_tilde, "passive factor")
    return checked_factors(BlochMessiahResult(Z, lam, Z_tilde), S, "generic route")


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
    if lam.size % 2:
        raise DecompositionError("odd active dimension cannot pair into squeezers")
    a, b = lam[0::2], lam[1::2]
    defect = np.abs(a - b) / np.maximum(1.0, np.maximum(a, b))
    if np.max(defect) > PAIR_RTOL:
        k = int(np.argmax(defect))
        raise DecompositionError(
            "lam spectrum is not doubly degenerate at pair %d: %r vs %r"
            % (k, a[k], b[k])
        )
    r = 0.5 * (np.log(a) + np.log(b))
    r[r < R_CLAMP] = 0.0
    return _mix_pairs(bm.Z), _mix_pairs(bm.Z_tilde), r


@dataclass(frozen=True)
class SchmidtMode:
    """One squeezer mode function on the stacked (signal, idler) bin space."""

    beam: str                 # "signal" or "idler"
    r: float
    amplitudes: np.ndarray    # complex, length 2N
    mixed: bool

    def beam_amplitudes(self, n):
        """The N amplitudes on this mode's own beam."""
        return self.amplitudes[:n] if self.beam == "signal" else self.amplitudes[n:]


@dataclass(frozen=True)
class Decomposition:
    """Two-mode squeezer structure of one propagator, stored once.

    O, O_tilde and pair_modes are derived from U_out and U_in on each access.
    """

    grid: object
    lam: np.ndarray
    r: np.ndarray
    U_out: np.ndarray
    U_in: np.ndarray
    residuals: dict           # checked_factors residuals of the factorized matrix

    @property
    def O(self):
        """Output factor of S = O D O_tilde^T: U_out times pair_mixer^-1 = its conjugate."""
        return embed_unitary(_mix_pairs(self.U_out.conj()).conj())

    @property
    def O_tilde(self):
        """Input factor of S = O D O_tilde^T, from U_in as O is from U_out."""
        return embed_unitary(_mix_pairs(self.U_in.conj()).conj())

    def without_free_phase(self, medium, double=False):
        """This structure with the free walk-off phases stripped from the output.

        The free path P (over both passes when double) is diagonal and passive,
        so P^H S = (P^H O) D O_tilde^T: only each bin's row of U_out turns back.
        """
        n, p = self.grid.n, np.diag(free_path(self.grid, medium, double).bogoliubov)
        # (a_S, a_I) turn by (conj M, M) for SGVM media, else by (p_S, conj p_I+)
        phase = np.concatenate([p.conj(), p] if p.size == n else [p[:n], p[n:].conj()])
        return replace(self, U_out=phase.conj()[:, None] * self.U_out)

    def active_pairs(self):
        """Squeezers with r > 0; two_mode_rearrange sets every r < R_CLAMP to 0."""
        return [k for k, r in enumerate(self.r) if r > 0.0]

    def pair_modes(self, k, direction):
        """(signal_mode, idler_mode) of squeezer k, direction "out" or "in".

        The column heavier on the signal bins is the signal mode; both are
        mixed when either column leaks more than MIX_TOL onto the other beam.
        """
        if direction not in ("out", "in") or not 0 <= k < self.r.size:
            raise ConfigError("no such squeezer: k=%r direction=%r" % (k, direction))
        n = self.grid.n
        U = self.U_out if direction == "out" else self.U_in
        sig, idl = U[:, 2 * k].copy(), U[:, 2 * k + 1].copy()
        s_sig, s_idl = (float(np.sum(np.abs(u[:n]) ** 2)) for u in (sig, idl))
        if s_sig < s_idl:
            sig, idl, s_sig, s_idl = idl, sig, s_idl, s_sig
        mixed = max(1.0 - s_sig, s_idl) > MIX_TOL
        return tuple(
            SchmidtMode(beam=beam, r=float(self.r[k]),
                        amplitudes=_gauge_fix(u, n, beam), mixed=mixed)
            for beam, u in (("signal", sig), ("idler", idl)))


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


def decompose(prop, grid):
    """Squeezer structure of a Propagator built on the given grid."""
    if grid.n != prop.n:
        raise ConfigError("grid size %d does not match propagator bins %d"
                          % (grid.n, prop.n))
    bm = bloch_messiah(prop.matrix)
    U_out, U_in, r = two_mode_rearrange(bm)
    return Decomposition(grid=grid, lam=bm.lam, r=r, U_out=U_out, U_in=U_in,
                         residuals=bm.residuals)


def tune_gain(grid, pump, medium, poling, target, double=False, gain2_scale=1.0,
              tol=1e-4, return_pass=False):
    """Find g0 such that the mean signal photon number hits the target.

    The photon number is increasing in g0 and exactly 0 at g0 = 0, so
    solve_increasing searches up from [0, max(|g0|, 1)] without building a
    propagator at zero gain; its first two steps scale the latest gain by
    _spectral_scale.  Photon numbers are read off the complex Bogoliubov
    matrix.  Returns (g0, achieved), (0.0, 0.0) for a target within tol of
    zero; return_pass appends the forward pass composed at g0 (None at 0).
    """
    if not (target >= 0):
        raise ConfigError("target photon number must be nonnegative")
    passes = {}  # g0: (forward pass, evaluated pass); the root is one of the last two

    def photons(g0):
        if g0 == 0.0:
            return 0.0
        p = replace(pump, g0=g0)
        first = compose(grid, p, medium, poling)
        prop = double_pass(grid, p, medium, poling, gain2_scale=gain2_scale,
                           first=first) if double else first
        passes[g0] = first, prop
        for old in list(passes)[:-2]:
            del passes[old]
        return prop.mean_photons()[0]

    g0, achieved = solve_increasing(
        photons, target, 0.0, max(abs(pump.g0), 1.0), tol,
        guess=lambda g: g * _spectral_scale(passes[g][1], target))
    return (g0, achieved, passes.get(g0, (None,))[0]) if return_pass else (g0, achieved)


def _spectral_scale(prop, target):
    """The x with sum_k sinh^2(x r_k) = target > 0, r_k the squeezing of prop.

    r_k = |log s_k(M)| in SGVM media, else asinh s_k(B), B the upper right N
    block, so sum_k sinh^2 r_k is prop's photon number.  The sum reaches the
    target by x0 = asinh(sqrt(target)) / max r_k, so solving on [0, x0] with
    each term divided by the target cannot overflow.  Infinite when x0 is.
    """
    n, T = prop.n, prop.bogoliubov
    s = np.linalg.svd(T if prop.sgvm else T[:n, n:], compute_uv=False)
    r = np.abs(np.log(s)) if prop.sgvm else np.arcsinh(s)
    amp, r_max = math.sqrt(target), float(np.max(r))
    x0 = math.asinh(amp) / r_max if r_max > 0.0 else math.inf
    if not math.isfinite(x0):
        return x0
    return solve_increasing(lambda x: float(np.sum((np.sinh(x * r) / amp) ** 2)),
                            1.0, 0.0, x0, 1e-9)[0]


def _cut(a, b, target, wa=1.0, wb=1.0):
    """x where the line through a, b = (x, fn(x)) meets the target.

    In (log x, log fn) when all these and the target are positive (exact for
    a power law), else in (x, fn); wa, wb weight the residuals.  None when
    the weighted residuals are equal.
    """
    f = math.log if min(*a, *b, target) > 0.0 else float
    ua, va, ub, vb, vt = map(f, (*a, *b, target))
    da, db = wa * (va - vt), wb * (vb - vt)
    if da == db:
        return None
    u = ub + db * (ua - ub) / (db - da)
    return u if f is float else math.exp(min(u, 709.0))


def solve_increasing(fn, target, lo, hi, tol, guess=None):
    """Root of fn(x) = target for fn increasing on [lo, infinity), hi > max(lo, 0).

    Steps from lo and hi to where the secant through the last two points
    meets the target (_cut); guess(x), if given, proposes the first two
    steps instead, each from the latest point x.  Below the target a step
    moves up at most 16-fold, else (or from within tol) doubles.  Once
    bracketed, a step that leaves the bracket or follows one that did not
    halve the residual gives way to false position between the ends with
    the Illinois rule: an end that stays put twice in a row has its residual
    weight halved.  Returns (x, fn(x)) for the first point within tol of the
    target (the bracket's lower end first).  Raises ContractError when the
    target lies below fn(lo), when BRACKET_DOUBLINGS steps up do not reach
    it, or when false position stalls at an end.
    """
    f_lo = fn(lo)
    if f_lo > target:
        raise ContractError("target %g below the value %g at %g" % (target, f_lo, lo))
    if abs(f_lo - target) <= tol:
        return lo, f_lo
    prev, (x, fx), guesses = (lo, f_lo), (hi, fn(hi)), 2 if guess else 0
    for _ in range(BRACKET_DOUBLINGS):
        if fx >= target:
            break
        if guesses:
            step, guesses = guess(x), guesses - 1
        else:
            step = _cut(prev, (x, fx), target) if abs(fx - target) > tol else None
        step = min(step, 16.0 * x) if step is not None and step > x else 2.0 * x
        prev, lo, f_lo = (x, fx), x, fx
        x, fx = step, fn(step)
    if not fx >= target:
        raise ContractError("bracket end %g stays below the target %g" % (x, target))
    if abs(f_lo - target) <= tol:
        return lo, f_lo
    # Each step moves one end strictly inside the bracket, so the loop ends.
    hi, f_hi, w_lo, w_hi, slow = x, fx, 1.0, 1.0, False
    while abs(fx - target) > tol:
        if guesses:
            step, guesses = guess(x), guesses - 1
        else:
            step = None if slow else _cut(prev, (x, fx), target)
        if step is None or not lo < step < hi:
            step = _cut((lo, f_lo), (hi, f_hi), target, w_lo, w_hi)
            if not lo < step < hi:
                raise ContractError("search stalled in [%r, %r] (target %g)"
                                    % (lo, hi, target))
        prev, (x, fx) = (x, fx), (step, fn(step))
        slow = abs(fx - target) > 0.5 * abs(prev[1] - target)
        if fx < target:
            lo, f_lo, w_lo, w_hi = x, fx, 1.0, w_hi * (0.5 if prev[1] < target else 1.0)
        else:
            hi, f_hi, w_hi, w_lo = x, fx, 1.0, w_lo * (0.5 if prev[1] >= target else 1.0)
    return x, fx
