"""Bloch-Messiah structure of twin-beam propagators.

Factors a symplectic propagator as S = O D O-tilde^T with O, O-tilde
orthogonal symplectic and D = diag(lam, 1/lam) into two-mode squeezers, one
signal mode paired with one idler mode each.  A Propagator gives a
Decomposition: lam, r and, per side, the exchange-basis factors of its pair
form below, one N x N factor per beam, real for an even pump; squeezer k's
complex modes (column k of each beam's mode matrix), the whole mode
matrices, the 2N complex and 4N real factors and the gauged modes are
formed on read.  analytic.svd_route gives one too, through the SGVM tail
below (_sgvm_factors).  A raw 4N array gives a BlochMessiahResult: lam and
the complex 2N unitaries Z, Z_tilde with O = embed_unitary(Z), O_tilde =
embed_unitary(Z_tilde), whose doubly-degenerate spectrum two_mode_rearrange
mixes into squeezers.

A Propagator is factored in its 2N pair form Y = U^H T U (propagator module
docstring), real for an even pump, once its cached symplectic residual
passes the input guard against max|S| (Propagator.matrix_max); in SGVM
media both are read at N x N off X, and the residual measures only the
roundoff of X^-T.  Signal couples only to the idler's conjugate, so
Y = diag(Q_S, Q_I) [[ch, sh], [sh, ch]] diag(P_S, P_I)^H with one N x N
unitary per beam and side, ch = cosh r, sh = sinh r (Christ et al., NJP 15,
053038 (2013)).  Away from SGVM media the route is polar: the
Gram Y Y^H has the eigenvalues e^{+-2 r_k}, with eigenvectors (Q_S e_k,
+-Q_I e_k) / sqrt 2.  Y Sigma Y^H = Sigma, so Sigma = diag(I, -I) maps each
eigenspace above 1 onto its partner below, and each beam half of an active
eigenvector w_k holds half its weight, in degenerate clusters too: sqrt 2
times its halves are the active columns of Q_S and Q_I, and those of Y^H
w_k / e^{r_k} are the columns of P_S and P_I.  The unit cluster (r = 0) is
each beam's complement of its active columns, one N x N QR per beam, mapped
to the input side by the beam's own diagonal block of Y^H; its cross-beam
part, roundoff, is checked.  Each N x N factor is polished, and the factors
are checked in the small form: Y against its four N x N blocks, and Q^H Q -
I and Q Q^H - I of each factor under the names of O and O_tilde.

In SGVM media the exchange matrix X is N x N and Y = [[J P J, J Q], [Q J,
P]] with P, Q = (conj X +- X^-T) / 2, that is Y = D H diag(conj X, X^-T) H D
with D = diag(J, I) and H = [[I, I], [I, -I]] / sqrt 2.  So conj X = A
diag(s) B^H, which makes X^-T = A diag(1/s) B^H, gives, with rho = log s,
    Y = diag(J A, A) [[cosh rho, sinh rho], [sinh rho, cosh rho]] diag(J B, B)^H:
Q_S = J A, Q_I = A sgn(rho), P_S = J B, P_I = B sgn(rho) and r = |rho|.
A comes from two N x N Gram eigenproblems, conj X conj X^H for its columns
with s > 1 and X^-T (X^-T)^H for those with s < 1, so every r_k is read off
a Gram eigenvalue above 1, and the two spectra merged must pair
reciprocally; the unit cluster is the complement of the active columns.  B
is conj X^H A / s where s >= 1 and s (X^-T)^H A where s < 1.  A and B are
polished and checked in the same terms (_sgvm_factors, which svd_route
reaches from one SVD of conj X): conj X and X^-T rebuilt, and A's
residuals under the names of O, B's under those of O_tilde.  Squeezer k's
signal mode is U_S Q_S e_k and its idler mode i conj(U_I Q_I e_k), U_S,I =
e^{i pi/4} (I -+ iJ) / sqrt 2, index maps only, formed for the columns
read.  The matched SGVM double pass is a perfect inline squeezer: X =
X_f^T X_f is symmetric positive definite (X_f^H X_f, Hermitian, for a
lopsided pump), so A = B and its input modes equal its output modes.

A raw 4N array takes the same polar route on S S^T, the independent oracle
of the pair route: P = (S S^T)^{1/2} is diagonalized by an orthogonal
symplectic O = [[X, -Y], [Y, X]] built from the unitary Z = X + iY, and
since O is orthogonal the input factor is O-tilde = S^T O D^{-1}.  The
eigenvectors of S S^T above lam = 1 give the active columns z_k of Z; a
dense symmetric solver mixes them freely inside degenerate clusters, which is
harmless because each cluster subspace is isotropic in any basis.  Their
partners below lam = 1 are i z_k, so the unit cluster's unitary half is the
complex complement of span{z_k}: Z is completed by a QR of its active
columns, with no factorization of the cluster itself.  A thin unitary polish
of the active columns and a full one of O-tilde scrub the remaining roundoff
so both factors meet tight orthogonality and symplectic residuals.

The polish is a Newton-Schulz iteration to the polar (Lowdin) factor, two
products a step, in place of an SVD; it refuses an input with ||Z^H Z - I||_F
>= 0.75, beyond which the steps need not converge.

Every route, the analytic ones too, checks its factors in one place
(_checked) against one limit table (limit), and every Gram spectrum pairs
reciprocally to PAIR_RTOL, the limit verify reports it against.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import numerics
from .errors import ConfigError, ContractError, DecompositionError
from .propagator import (
    _PHASE, Propagator, _embedded_max, _free_phases, _signal_basis, compose,
    double_pass, embed_unitary, symplectic_residual,
)

__all__ = [
    "BlochMessiahResult", "SchmidtMode", "Decomposition", "bloch_messiah",
    "two_mode_rearrange", "pair_mixer", "decompose",
    "checked_factors", "limit", "tune_gain", "solve_increasing",
]

# Relative symplectic-defect allowance on inputs, scaled by max|S|^2.
INPUT_SYMPLECTIC_TOL = 1e-9
# Width of the lam = 1 cluster treated as passive (on lam^2).
UNIT_CTOL = 1e-9
# Limit on every route's reciprocal pairing of its Gram spectrum (_spectrum),
# and degeneracy tolerance of two_mode_rearrange's pairing of a lam spectrum.
PAIR_RTOL = 1e-8
# Residual allowances on the recovered factors and the reconstruction (limit).
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


def limit(name):
    """The largest value the factor residual name may take: RECON_RTOL for
    the reconstruction, PAIR_RTOL for the pairing, else FACTOR_TOL."""
    return {"reconstruction": RECON_RTOL, "pairing": PAIR_RTOL}.get(name, FACTOR_TOL)


def _checked(blocks, factors, context, pairing=None):
    """The residuals of a factorization, once none exceeds its limit(name).

    blocks holds (L, d, R, T), L diag(d) R^H the factored form of T: the
    reconstruction residual is the largest max|L diag(d) R^H - T| / max(1,
    max|T|), each block against its own scale.  factors is (the output
    factors, the input factors), unitaries F whose Gram defects
    max|F^H F - I| and max|F F^H - I|, the largest on each side, are the
    orthogonality and symplectic residuals of O and of O_tilde.  pairing,
    when given, is the Gram spectrum's reciprocal-pairing defect.  Every
    max|E| is that of E's real embedding, max(max|Re E|, max|Im E|), so a
    complex residual reads as the 4N one: with O = embed_unitary(Z),
        O^T O - I = embed(Z^H Z - I),  O Omega O^T - Omega = embed(-i (Z Z^H - I)).
    Raises DecompositionError, naming context, when one exceeds its limit.
    """
    worst = 0.0
    for L, d, R, T in blocks:
        E = (L * d) @ R.conj().T
        E -= T
        worst = max(worst, _embedded_max(E) / max(1.0, _embedded_max(T)))
        del E  # before the next block's product
    residuals = {"reconstruction": worst}
    for name, side in zip(("O", "O_tilde"), factors):
        for kind in ("orthogonal", "symplectic"):
            worst = 0.0
            for F in side:
                gram = F.conj().T @ F if kind == "orthogonal" else F @ F.conj().T
                gram[np.diag_indices_from(gram)] -= 1.0
                worst = max(worst, _embedded_max(gram))
                del gram
            residuals[name + "_" + kind] = worst
    if pairing is not None:
        residuals["pairing"] = pairing
    for name, value in residuals.items():
        if value > limit(name):
            raise DecompositionError(
                "%s: %s residual %.3e exceeds %.1e" % (context, name, value, limit(name))
            )
    return residuals


def checked_factors(result, S, context):
    """result with the residuals (_checked) of S = O D O_tilde^T attached: the
    4N product against S, and the complex 2N Grams of Z and of Z_tilde."""
    d = np.concatenate([result.lam, 1.0 / result.lam])
    blocks = [(embed_unitary(result.Z), d, embed_unitary(result.Z_tilde), S)]
    return replace(result, residuals=_checked(blocks, ((result.Z,), (result.Z_tilde,)), context))


def _polish_unitary(Z, context):
    """Polar (Lowdin) factor Z (Z^H Z)^{-1/2} of a nearly unitary Z, tall or square.

    Newton-Schulz steps Z <- Z - Z E / 2, E = Z^H Z - I (two products, the
    error squared), until max|E| <= POLISH_TOL; an input already there comes
    back unchanged.  Raises DecompositionError when ||E||_F >= 0.75 on entry
    (below it every singular value lies in (0.5, sqrt 1.75), where the steps
    converge) or when POLISH_STEPS steps do not reach POLISH_TOL.  The first
    step copies Z, the later ones step that copy in place.
    """
    E = Z.conj().T @ Z
    diag = np.diag_indices_from(E)
    E[diag] -= 1.0
    defect = float(np.linalg.norm(E))
    for step in range(POLISH_STEPS + 1):
        if numerics._abs_max(E) <= POLISH_TOL:
            return Z
        if defect >= 0.75 or step == POLISH_STEPS:
            raise DecompositionError(
                "%s: candidate unitary does not polish (||Z^H Z - I||_F = %.3e on "
                "entry, %d steps)" % (context, defect, step))
        W = Z @ E
        W *= 0.5
        Z = Z - W if step == 0 else np.subtract(Z, W, out=Z)
        del W
        np.matmul(Z.conj().T, Z, out=E)
        E[diag] -= 1.0


def _spectrum(w, gram):
    """(number of eigenvalues above the unit cluster, pairing defect) of an
    ascending Gram spectrum w of a symplectic matrix, named gram in errors.

    The spectrum is closed under w -> 1/w, so w * w[::-1] - 1 is roundoff;
    raises DecompositionError when its largest magnitude exceeds PAIR_RTOL
    or when the clusters above and below 1 + -UNIT_CTOL differ in size.
    """
    if w[0] <= 0:
        raise DecompositionError("%s has a non-positive eigenvalue %.3e" % (gram, w[0]))
    worst = float(np.max(np.abs(w * w[::-1] - 1.0)))
    if worst > PAIR_RTOL:
        raise DecompositionError(
            "eigenvalues of %s do not pair reciprocally (worst defect %.3e)" % (gram, worst)
        )
    n_above = int(np.sum(w > 1.0 + UNIT_CTOL))
    n_below = int(np.sum(w < 1.0 - UNIT_CTOL))
    if n_above != n_below:
        raise DecompositionError(
            "unit-cluster imbalance: %d eigenvalues above 1, %d below" % (n_above, n_below)
        )
    return n_above, worst


def _guard(resid, smax):
    """ContractError unless the symplectic residual is within
    INPUT_SYMPLECTIC_TOL max(1, max|S|^2), S the 4N matrix; smax() returns
    max|S| and is called only for a residual above INPUT_SYMPLECTIC_TOL."""
    if resid > INPUT_SYMPLECTIC_TOL and resid > INPUT_SYMPLECTIC_TOL * max(1.0, smax()**2):
        raise ContractError(
            "input is not symplectic: residual %.3e exceeds tolerance" % resid
        )


def _pair_factors(prop):
    """bloch_messiah of a Propagator, read off its 2N pair form Y (module docstring).

    SGVM passes are factored at N x N through X (_exchange_factors), others
    through the 2N Gram Y Y^H (_gram_factors); each checks its factors
    (_checked), with the output factors under the names of O, the input
    factors under those of O_tilde, and its Gram spectrum's pairing defect.
    """
    _guard(prop.symplectic_residual, prop.matrix_max)
    return (_exchange_factors if prop.sgvm else _gram_factors)(prop)


def _decomposition(lam, factors, residuals):
    """The Decomposition of squeezing e^{r_k} = lam (N, descending) with
    factors ((Q_S, Q_I), (P_S, P_I)); every r < R_CLAMP is set to 0."""
    r = np.log(lam)
    r[r < R_CLAMP] = 0.0
    return Decomposition(np.repeat(lam, 2), r, *factors, residuals)


def _gram_factors(prop):
    """The Decomposition from the eigenproblem of the 2N Gram Y Y^H; the
    reconstruction is Y's four N x N blocks."""
    n, Y = prop.n, prop.pair_form()
    Yh = Y.conj().T
    w, V = numerics.sym_eig(Y @ Yh)
    k, pairing = _spectrum(w, "Y Y^H")
    top = V[:, ::-1][:, :k]
    lam = np.concatenate([np.sqrt(w[::-1][:k]), np.ones(n - k)])
    # each beam half of an active eigenvector holds half its weight
    out = math.sqrt(2.0) * top
    into = (math.sqrt(2.0) / lam[:k]) * (Yh @ top)
    beams = (np.s_[:n], np.s_[n:])
    factors = []
    for name, own, other in (("signal", *beams), ("idler", *beams[::-1])):
        # the unit cluster: the complement of the active columns, and its
        # input columns through the beam's own block, with no squeezing
        Q = np.linalg.qr(out[own], mode="complete")[0][:, k:]
        leak = _embedded_max(Yh[other, own] @ Q)
        if leak > 1e-6:
            raise DecompositionError("%s unit cluster leaks onto the other beam "
                                     "(defect %.3e)" % (name, leak))
        factors += [_polish_unitary(np.hstack([out[own], Q]), "%s O factor" % name),
                    _polish_unitary(np.hstack([into[own], Yh[own, own] @ Q]),
                                    "%s O_tilde factor" % name)]
    QS, PS, QI, PI = factors
    ch, sh = 0.5 * (lam + 1.0 / lam), 0.5 * (lam - 1.0 / lam)
    blocks = [(Q, d, P, Y[beams[rows], beams[cols]])
              for rows, cols, Q, P, d in ((0, 0, QS, PS, ch), (0, 1, QS, PI, sh),
                                          (1, 0, QI, PS, sh), (1, 1, QI, PI, ch))]
    residuals = _checked(blocks, ((QS, QI), (PS, PI)), "pair route", pairing)
    return _decomposition(lam, ((QS, QI), (PS, PI)), residuals)


def _exchange_factors(prop):
    """The Decomposition of an SGVM pass from conj X = A diag(s) B^H (_sgvm_factors).

    The Gram conj X conj X^H gives the columns of A with s > 1 and that of
    X^-T the columns with s < 1, each at an eigenvalue above 1 (s^2 and
    s^-2); the unit cluster is their complement.  B is conj X^H A / s where
    s >= 1 and s (X^-T)^H A where s < 1.  The residuals add the pairing
    defect of the two Gram spectra merged.
    """
    n, down, up = prop.n, prop.exchange.conj(), prop._inverse_transpose
    spectra, active = [], []
    for M in (down, up):
        w, V = numerics.sym_eig(M @ M.conj().T)
        m = int(np.sum(w > 1.0 + UNIT_CTOL))
        spectra.append(w)
        active.append((w[::-1][:m], V[:, ::-1][:, :m]))
    k, pairing = _spectrum(np.sort(np.concatenate(spectra)), "the Gram pair of X")
    (w_up, V_up), (w_down, V_down) = active
    w = np.concatenate([w_up, w_down])
    order = np.argsort(-w, kind="stable")
    lam = np.concatenate([np.sqrt(w[order]), np.ones(n - k)])
    grows = np.concatenate([order < w_up.size, np.ones(n - k, bool)])  # s >= 1
    A = np.hstack([V_up, V_down])[:, order]
    A = _polish_unitary(np.hstack([A, np.linalg.qr(A, mode="complete")[0][:, k:]]),
                        "output factor")
    s = np.where(grows, lam, 1.0 / lam)
    B = np.empty(A.shape, np.result_type(A, up))
    B[:, grows] = (prop.exchange.T @ A[:, grows]) / s[grows]  # conj X^H = X^T
    B[:, ~grows] = (up.conj().T @ A[:, ~grows]) * s[~grows]
    B = _polish_unitary(B, "input factor")
    return _sgvm_factors(lam, s, A, B, (down, up), "pair route", pairing)


def _sgvm_factors(lam, s, A, B, targets, context, pairing=None):
    """The Decomposition of conj X = A diag(s) B^H, lam = max(s, 1/s) descending.

    A and B are polished unitaries (B may be A), targets is (conj X, X^-T).
    _checked rebuilds both from A diag(s^+-1) B^H, with A's residuals under
    the names of O and B's under those of O_tilde.  The factors are Q_S =
    J A, Q_I = A sgn, P_S = J B and P_I = B sgn, sgn = -1 where s < 1
    (module docstring): one tuple for both sides when B is A.
    """
    residuals = _checked([(A, s, B, targets[0]), (A, 1.0 / s, B, targets[1])], ((A,), (B,)),
                         context, pairing)
    sign = np.where(s < 1.0, -1.0, 1.0)
    out = (A[::-1], A * sign)
    return _decomposition(lam, (out, out if B is A else (B[::-1], B * sign)), residuals)


def _beam_modes(QS, QI):
    """(U_S Q_S, i conj(U_I Q_I)), U_S,I = e^{i pi/4} (I -+ iJ) / sqrt 2: column
    k holds squeezer k's signal and idler mode; index maps and elementwise
    products only, so a column or a vector of factor columns gives those
    columns bitwise."""
    return _signal_basis(QS), 1j * (_PHASE * (QI + 1j * QI[::-1])).conj()


def bloch_messiah(S):
    """Decompose a symplectic S into O diag(lam, 1/lam) O_tilde^T.

    S is a Propagator, factored in its 2N pair form and guarded by its cached
    symplectic_residual into a Decomposition (_pair_factors), or a 4N array,
    factored through the eigenproblem of S S^T and guarded by its 4N residual
    into a BlochMessiahResult; the 4N route is the independent oracle of the
    pair route.  Raises ContractError if S is not symplectic to working
    tolerance and DecompositionError if the spectrum does not pair
    reciprocally or a factor fails its residual checks.
    """
    if isinstance(S, Propagator):
        return _pair_factors(S)
    S = np.asarray(S, dtype=float)
    dim = S.shape[0]
    if S.shape != (dim, dim) or dim % 2:
        raise ConfigError("symplectic input must be square with even dimension")
    _guard(symplectic_residual(S), lambda: numerics._abs_max(S))
    h = dim // 2
    w, V = numerics.sym_eig(S @ S.T)
    k = _spectrum(w, "S S^T")[0]
    lam = np.concatenate([np.sqrt(w[::-1][:k]), np.ones(h - k)])
    # Active directions: eigenvectors are isotropic per cluster, so their
    # complex forms z_k are orthonormal up to roundoff; a thin polish scrubs it.
    top = V[:, ::-1][:, :k]
    Z = _polish_unitary(top[:h] + 1j * top[h:], "active factor")
    # The unit cluster's unitary half is the complex complement of span{z_k}
    # (module docstring), whatever the eigensolver did inside the cluster.
    Z = np.hstack([Z, np.linalg.qr(Z, mode="complete")[0][:, k:]])
    # O_tilde = S^T O D^-1, O orthogonal, and its complex form, block-averaged
    O_tilde = S.T @ embed_unitary(Z) / np.concatenate([lam, 1.0 / lam])
    Z_tilde = (0.5 * (O_tilde[:h, :h] + O_tilde[h:, h:])
               + 0.5j * (O_tilde[h:, :h] - O_tilde[:h, h:]))
    embed_defect = float(np.abs(embed_unitary(Z_tilde) - O_tilde).max())
    if embed_defect > 1e-6:
        raise DecompositionError("passive factor is far from orthogonal symplectic "
                                 "(defect %.3e)" % embed_defect)
    Z_tilde = _polish_unitary(Z_tilde, "passive factor")
    return checked_factors(BlochMessiahResult(Z, lam, Z_tilde), S, "generic route")


def pair_mixer(n_pairs):
    """Block-diagonal unitary of 50:50 pair mixers w = (1/sqrt2) [[1, i], [i, 1]].

    Applied on the right of the active complex basis, it turns each
    degenerate lam pair of single-mode squeezers into one two-mode squeezer.
    """
    return np.kron(np.eye(n_pairs), np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0))


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
    w = pair_mixer(lam.size // 2)
    return bm.Z @ w, bm.Z_tilde @ w, r


@dataclass(frozen=True)
class SchmidtMode:
    """One squeezer mode function on the N frequency bins of its own beam."""

    beam: str                 # "signal" or "idler"
    r: float
    amplitudes: np.ndarray    # complex, length N


@dataclass(frozen=True)
class Decomposition:
    """Two-mode squeezer structure of one propagator, stored per beam.

    factors_out and factors_in are the exchange-basis factors (Q_S, Q_I) and
    (P_S, P_I) of the pair form (module docstring), real for an even pump,
    one tuple when the input modes are the output modes; phase, when set,
    turns each output bin (signal bins, then idler bins).  The complex
    (signal, idler) mode matrices modes_out and modes_in, column k squeezer
    k's mode on its own beam's bins, are formed from them on each access
    (mode_columns), and U_out, U_in, the BlochMessiahResult factors Z and
    Z_tilde, O and O_tilde from those; pair_modes forms one column of each
    beam.
    """

    lam: np.ndarray           # 2N: each squeezer's e^{r_k} twice
    r: np.ndarray             # N, descending, every r < R_CLAMP set to 0
    factors_out: tuple        # (Q_S, Q_I), N x N each
    factors_in: tuple         # (P_S, P_I), N x N each
    residuals: dict           # bloch_messiah's residuals of the factored propagator
    phase: Optional[np.ndarray] = None  # 2N, set by without_free_phase

    def mode_columns(self, direction, cols=slice(None)):
        """(signal, idler) columns cols (an index or a slice) of direction's
        mode matrices, "out" or "in": the factors' columns taken to the
        original basis (_beam_modes), on the output side turned by phase."""
        QS, QI = self.factors_out if direction == "out" else self.factors_in
        sig, idl = _beam_modes(QS[:, cols], QI[:, cols])
        if direction == "in" or self.phase is None:
            return sig, idl
        n, back = self.r.size, self.phase if sig.ndim == 1 else self.phase[:, None]
        return back[:n] * sig, back[n:] * idl

    @property
    def modes_out(self):
        """The (signal, idler) N x N output mode matrices."""
        return self.mode_columns("out")

    @property
    def modes_in(self):
        """The (signal, idler) N x N input mode matrices."""
        return self.mode_columns("in")

    @property
    def U_out(self):
        """The output modes in two_mode_rearrange's 2N layout (_interleaved)."""
        return _interleaved(self.modes_out)

    @property
    def U_in(self):
        """The input modes in two_mode_rearrange's 2N layout (_interleaved)."""
        return _interleaved(self.modes_in)

    @property
    def Z(self):
        """The complex 2N output factor, O = embed_unitary(Z): U_out times
        pair_mixer^-1 = its conjugate."""
        return self.U_out @ pair_mixer(self.r.size).conj()

    @property
    def Z_tilde(self):
        """The complex 2N input factor, from U_in as Z is from U_out."""
        return self.U_in @ pair_mixer(self.r.size).conj()

    reconstruct = BlochMessiahResult.reconstruct

    @property
    def O(self):
        """Output factor of S = O D O_tilde^T."""
        return embed_unitary(self.Z)

    @property
    def O_tilde(self):
        """Input factor of S = O D O_tilde^T."""
        return embed_unitary(self.Z_tilde)

    def without_free_phase(self, grid, medium, double=False):
        """This structure with the free walk-off phases stripped from the output.

        The free path P (over both passes when double) is diagonal and passive,
        so P^H S = (P^H O) D O_tilde^T: only each bin's row of the output mode
        matrices turns back, which phase records; the factors are shared.
        Raises ConfigError for a grid of another size.
        """
        n, p = self.r.size, _free_phases(grid, medium, medium.length, double)
        if grid.n != n:
            raise ConfigError("grid size %d does not match decomposition bins %d" % (grid.n, n))
        # (a_S, a_I) turn by (conj M, M) for SGVM media, else by (p_S, conj p_I+)
        back = np.concatenate([p, p.conj()] if p.size == n else [p[:n].conj(), p[n:]])
        return replace(self, phase=back if self.phase is None else back * self.phase)

    def active_pairs(self):
        """Squeezers with r > 0; bloch_messiah sets every r < R_CLAMP to 0."""
        return [k for k, r in enumerate(self.r) if r > 0.0]

    def pair_modes(self, k, direction):
        """(signal_mode, idler_mode) of squeezer k, direction "out" or "in":
        the gauge-fixed column k of each beam's mode matrix, formed alone."""
        if direction not in ("out", "in") or not 0 <= k < self.r.size:
            raise ConfigError("no such squeezer: k=%r direction=%r" % (k, direction))
        r = float(self.r[k])
        return tuple(SchmidtMode(b, r, _gauge_fix(u))
                     for b, u in zip(("signal", "idler"), self.mode_columns(direction, k)))


def _interleaved(modes):
    """Signal column k in rows :N of column 2k, idler column k in rows N: of
    column 2k + 1, exact zeros elsewhere."""
    sig, idl = modes
    n = sig.shape[0]
    U = np.zeros((2 * n, 2 * n), dtype=complex)
    U[:n, 0::2], U[n:, 1::2] = sig, idl
    return U


def _gauge_fix(u):
    """A copy of u turned in phase so its central amplitude, else (when that
    is negligible) its largest, is real positive."""
    anchor = u[(u.size - 1) // 2]
    if abs(anchor) <= 1e-12 * np.linalg.norm(u):
        anchor = u[int(np.argmax(np.abs(u)))]
    return u * (abs(anchor) / anchor) if anchor else u.copy()


def decompose(prop, grid):
    """Squeezer structure (bloch_messiah) of a Propagator built on the given grid."""
    if grid.n != prop.n:
        raise ConfigError("grid size %d does not match propagator bins %d"
                          % (grid.n, prop.n))
    return bloch_messiah(prop)


def tune_gain(grid, pump, medium, poling, target, double=False, gain2_scale=1.0,
              tol=1e-4):
    """Find g0 such that the mean signal photon number hits the target.

    The photon number is increasing in g0 and exactly 0 at g0 = 0, so
    solve_increasing searches up from [0, max(|g0|, 1)] without building a
    propagator at zero gain; its first two steps scale the latest gain by
    _spectral_scale of the pass just evaluated, composed again from the
    memo.  Photon numbers are read off the pass's pair form.
    Returns (g0, achieved), (0.0, 0.0) for a target within tol of zero.
    """
    if not (target >= 0):
        raise ConfigError("target photon number must be nonnegative")

    def device(g0):
        p = replace(pump, g0=g0)
        return double_pass(grid, p, medium, poling, gain2_scale=gain2_scale) if double \
            else compose(grid, p, medium, poling)

    return solve_increasing(
        lambda g0: device(g0).mean_photons()[0] if g0 else 0.0,
        target, 0.0, max(abs(pump.g0), 1.0), tol,
        guess=lambda g: g * _spectral_scale(device(g), target))


def _spectral_scale(prop, target):
    """The x with sum_k sinh^2(x r_k) = target > 0, r_k the squeezing of prop.

    The singular values of X are e^{+-r_k}: each r_k = |log s(X)| appears once
    in SGVM media (X is N x N) and twice otherwise, so the sum over s(X)
    weighted by w = N / len(X) is prop's photon number at x = 1.  It reaches
    the target by x0 = asinh(sqrt(target / w)) / max r_k, so solving on
    [0, x0] with each term divided by target / w cannot overflow
    (roundoff-sized r_k underflow to zero).  Infinite when x0 is.
    """
    r = np.abs(np.log(np.linalg.svd(prop.exchange, compute_uv=False)))
    amp, r_max = math.sqrt(target * r.size / prop.n), float(np.max(r))
    x0 = math.asinh(amp) / r_max if r_max > 0.0 else math.inf
    if not math.isfinite(x0):
        return x0
    with np.errstate(under="ignore"):
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
