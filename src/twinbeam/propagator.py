"""Bogoliubov propagation through piecewise-constant poling.

Signal couples only to the idler's conjugate.  On the complex amplitudes
a_S = X_S + i P_S and a_I^+ = X_I - i P_I of each frequency bin the
equations of motion read

    d a_S / dz   =  i G a_S + i F a_I^+
    d a_I^+ / dz = -i F a_S - i H a_I^+

so a uniform domain of width dz propagates by expm(dz * K), K = i [[G, F],
[-F, -H]].  In the SGVM regime (H = -G) a_S - i a_I^+ evolves by conj(M) and
a_S + i a_I^+ by M^{-T}, M = expm(dz (-F - iG)), so the N x N M holds the
domain.  This original-basis matrix T (M, else the 2N matrix on
(a_S, a_I^+)) is the Bogoliubov matrix.

A Propagator stores one matrix, X = U^H T U in the exchange basis
U = e^{i pi/4} (I - iJ') / sqrt 2, J' = J (the bin flip) in SGVM media, else
diag(J, -J).  U is unitary and block-diagonal per beam, so photon numbers
and squeezing spectra are read off X.  An even pump on a mirror grid makes
F centrosymmetric and G, H anticentrosymmetric, bitwise, so U^H K U, every
domain exponential and product, and X are real; other pumps run in complex.
A device is the ordered (left-multiplied) product of its domains, which
`compose` forms.  The return trip (domains reversed, walk-offs exchanged)
is the adjoint of the pass: M^H, so X^H, in SGVM media, else Sigma P T^H P
Sigma (Sigma = diag(I, -I), P the beam swap), which U^H Sigma P U = iK (K the
2N index reversal) turns into K X^H K.  So a double pass costs one domain
product.  The 2N matrix on (a_S, a_I^+) reads as Y = U^H T U: X outside
SGVM media, in them [[J P J, J Q], [Q J, P]], P, Q = (conj X +- X^-T) / 2.
Photon numbers, max|S| and the symplectic residual read Y's N x N beam blocks
(`pair_blocks`), or in SGVM media X and X^-T themselves, so no command
assembles the 2N Y there; only the 4N export does (`pair_form`).  T itself
(`bogoliubov`) is a view formed once per propagator, for the tests and the
SGVM eigenproblem oracle; no command caches it.  embed_unitary(Z) =
[[Re Z, -Im Z], [Im Z, Re Z]] is the one bridge from complex matrices to
real views; the 4N x 4N real symplectic matrix on
(X_S, X_I, P_S, P_I) is the embedding of the 2N matrix on (a_S, a_I^+) with
the P_I rows and columns negated.  Cached arrays are read-only and
`compose` memoizes its passes, so a caller that needs one composes it again.
"""

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import numerics
from .errors import ConfigError, ContractError
from .model import _frozen, build_coupled_matrices

__all__ = [
    "Propagator", "segment_propagator", "compose", "double_pass",
    "free_propagator", "symplectic_residual", "embed_unitary",
    "mean_photons", "load_matrix",
]

# Relative agreement required between poling total width and medium length.
LENGTH_MATCH_RTOL = 1e-9
# Passes compose keeps: a sweep's last row composes again the pass its upper
# search ended on, 22 passes earlier at the default 21 points (24 SGVM passes,
# each a real 101 x 101 X, hold 1.96 MB at N = 101).
COMPOSE_MEMO = 24
# e^{i pi/4} / sqrt 2, the phase of the exchange basis U
_PHASE = complex(0.5, 0.5)


def symplectic_residual(S):
    """max |S Omega S^T - Omega|, zero for an exact symplectic matrix."""
    h, odd = divmod(S.shape[0], 2)
    if odd:
        raise ConfigError("symplectic dimension must be even, got %d" % S.shape[0])
    # S Omega swaps the column halves, negating one; Omega comes off in place.
    P = np.hstack([-S[:, h:], S[:, :h]]) @ S.T
    P[:h, h:].flat[::h + 1] -= 1.0
    P[h:, :h].flat[::h + 1] += 1.0
    return float(max(P.max(), -P.min()))


def _embedded_max(E):
    """max|embed_unitary(E)| = max(max|Re E|, max|Im E|), 0 for an empty E; each
    part read as max(P.max(), -P.min()), with no |P| temporary and no zero
    imaginary part for a real E."""
    worst = 0.0
    for P in ((E.real, E.imag) if np.iscomplexobj(E) else (E,)) if E.size else ():
        worst = np.maximum(np.maximum(P.max(), -P.min()), worst)
    return float(worst)


def embed_unitary(Z):
    """Real [[X, -Y], [Y, X]] of a complex Z = X + iY; orthogonal symplectic for a unitary Z."""
    X, Y = Z.real, Z.imag
    h, w = X.shape
    E = np.empty((2 * h, 2 * w), dtype=X.dtype)  # filled in place: no block temporaries
    E[:h, :w] = E[h:, w:] = X
    E[h:, :w] = Y
    np.negative(Y, out=E[:h, w:])
    return E


def _real_if_exact(X):
    """X of real dtype when its imaginary part is exactly zero: a contiguous
    copy of X.real, which neither pins X's complex buffer nor strides."""
    return X if X.imag.any() else X.real.copy()


@dataclass(frozen=True)
class Propagator:
    """Bogoliubov propagator of one device: exchange is X = U^H T U (module docstring).

    Propagators compose by multiplying X (`after`).  Photon numbers, max|S|
    and the symplectic residual (computed once) read Y's beam blocks, in
    SGVM media at N x N; matrix (the 4N x 4N real symplectic export, built
    on first use) reads the assembled pair form Y.
    """

    exchange: np.ndarray
    n: int

    def __post_init__(self):
        if self.exchange.shape not in ((self.n, self.n), (2 * self.n, 2 * self.n)):
            raise ContractError("Bogoliubov matrix shape %r does not match n=%d"
                                % (self.exchange.shape, self.n))

    @classmethod
    def from_bogoliubov(cls, T, n):
        """The propagator of an original-basis matrix T, real dtype when U^H T U is."""
        return cls(_real_if_exact(_exchange(np.asarray(T), n)), n)

    @property
    def sgvm(self):
        return self.exchange.shape[0] == self.n

    def after(self, earlier):
        """The propagator of `earlier` followed by this one."""
        return Propagator(self.exchange @ earlier.exchange, self.n)

    def return_trip(self):
        """This pass traversed backwards: X^H in SGVM media, else K X^H K (module docstring)."""
        back = self.exchange.conj().T
        return Propagator(back if self.sgvm else np.ascontiguousarray(back[::-1, ::-1]),
                          self.n)

    @cached_property
    def bogoliubov(self):
        """The original-basis matrix T = U X U^H."""
        return _frozen(_exchange(self.exchange, self.n, -1))

    @cached_property
    def _inverse_transpose(self):  # X^-T in SGVM media, inverted once for all its readers
        try:
            return _frozen(np.linalg.inv(self.exchange).T)
        except np.linalg.LinAlgError as exc:  # its e^{-r} lost below roundoff of its e^{r}
            raise ContractError("the pass X (max|X| = %.3e) is singular to working precision: "
                                "its gain is past what a pass can hold"
                                % _embedded_max(self.exchange)) from exc

    def pair_blocks(self):
        """Y's beam blocks ((Y_SS, Y_SI), (Y_IS, Y_II)), Y = U^H T U the 2N matrix on
        (a_S, a_I^+): X's quarters away from SGVM media, in them index reversals of
        P, Q = (conj X +- X^-T) / 2, N x N each (module docstring)."""
        n, X = self.n, self.exchange
        if not self.sgvm:
            return (X[:n, :n], X[:n, n:]), (X[n:, :n], X[n:, n:])
        down, up = X.conj(), self._inverse_transpose
        P, Q = 0.5 * (down + up), 0.5 * (down - up)
        return (P[::-1, ::-1], Q[::-1]), (Q[:, ::-1], P)

    def pair_form(self):
        """Y = U^H T U: X away from SGVM media, in them the 2N array assembled
        from pair_blocks() on each call.  Only matrix reads it there."""
        if not self.sgvm:
            return self.exchange
        (SS, SI), (IS, II) = self.pair_blocks()
        return np.block([[SS, SI], [IS, II]])

    @cached_property
    def matrix(self):
        """The 4N x 4N real symplectic matrix on (X_S, X_I, P_S, P_I).

        (a_S, a_I^+) has real part (X_S, X_I) and imaginary part (P_S, -P_I),
        so this is embed_unitary of T = U Y U^H (Y = pair_form()) with the
        P_I row and column blocks negated.  No command builds it: it is the
        tests' reference, and the oracle routes check against it.
        """
        n = self.n
        S = embed_unitary(_exchange(self.pair_form(), n, -1))
        S[3 * n:] *= -1.0
        S[:, 3 * n:] *= -1.0
        return _frozen(S)

    def matrix_max(self):
        """max|matrix| = max(max|Re T|, max|Im T|), read one beam block of T =
        _exchange(Y, n, -1) at a time, each exchanged with its beams' signs:
        bitwise the value of the whole T, which is never formed."""
        return max(_embedded_max(_exchange(B, self.n, -1, (a, b)))
                   for a, row in zip((1.0, -1.0), self.pair_blocks())
                   for b, B in zip((1.0, -1.0), row))

    @cached_property
    def symplectic_residual(self):
        """symplectic_residual(self.matrix), read off X once per propagator.

        matrix is R embed_unitary(T) R, R negating P_I, so S Omega S^T - Omega
        is R embed_unitary(-iE) R with E = T Sigma T^H - Sigma = U (Y Sigma Y^H -
        Sigma) U^H: Sigma commutes with U.  Away from SGVM media Y is X and U
        is block-diagonal per beam, so a beam's block row of U E U^H needs only
        that block row of E; each is formed in turn and exchanged with its
        beam's signs, so the value is bitwise that of the whole E.  In SGVM
        media Y = D H diag(conj X, X^-T) H D (blochmessiah module docstring),
        so Y Sigma Y^H - Sigma = D H [[0, Delta], [Delta^H, 0]] H D with
        Delta = conj(X X^-1) - I.  As U_S J = -i U_I and U_I = i U_S^H, its
        exchanged beam blocks are +-V_h and +-i V_a, the Hermitian and
        anti-Hermitian parts of V = U_S^H Delta U_S = _exchange(Delta, n):
        the residual is the larger max of the two, from one N x N product,
        the 4N value in exact arithmetic.  Y Sigma Y^H = Sigma holds there
        for any invertible X: this residual, verify's propagator_symplectic
        and its photon_balance measure only the inversion roundoff, not the
        pass.
        """
        n = self.n
        if self.sgvm:
            K = self.exchange @ self._inverse_transpose.T
            if np.iscomplexobj(K):
                np.conjugate(K, out=K)
            K.flat[::n + 1] -= 1.0
            W = _exchange(K, n)
            del K
            return max(_embedded_max(0.5 * (W + s * W.conj().T)) for s in (1.0, -1.0))
        Y = self.exchange
        sigma, bins, worst, Yh = np.repeat([1.0, -1.0], n), np.arange(n), 0.0, Y.conj().T
        for beam, s in enumerate((1.0, -1.0)):
            E = (Y[beam * n:(beam + 1) * n] * sigma) @ Yh
            E[bins, beam * n + bins] -= s
            worst = max(worst, _embedded_max(_exchange(E, n, -1, (s, sigma))))
        return worst

    def mean_photons(self):
        """mean_photons(self.matrix, n), read off Y: a beam with rows [A B] of T
        holds (||A||_F^2 + ||B||_F^2 - N) / 2 = ||B||_F^2, as A A^H - B B^H = I,
        and U is unitary per beam, so the squared norms of Y's off-diagonal
        blocks (in SGVM media Q with its rows, then its columns, reversed),
        with no cancellation.  Each is summed in Y's element order."""
        (_, SI), (IS, _) = self.pair_blocks()
        return tuple(float(np.linalg.norm(np.ascontiguousarray(B)) ** 2) for B in (SI, IS))


def mean_photons(S, n):
    """Per-beam mean photon numbers (N_signal, N_idler) of a 4N S from vacuum input.

    Vacuum covariance is I/2, so diag(S S^T)/2 holds the quadrature second
    moments and each beam contributes (sum of its X and P diagonals)/4 - N/2.
    """
    row_power = np.sum(S * S, axis=1)
    sig = float(np.sum(row_power[0:n]) + np.sum(row_power[2 * n:3 * n]))
    idl = float(np.sum(row_power[n:2 * n]) + np.sum(row_power[3 * n:4 * n]))
    return sig / 4.0 - n / 2.0, idl / 4.0 - n / 2.0


def _generator(m):
    """The complex domain generator on (a_S, a_I^+), or on a_S - i a_I^+ in SGVM media."""
    G = np.diag(m.g)
    return -m.F - 1j * G if m.sgvm else 1j * np.block([[G, m.F], [-m.F, -np.diag(m.h)]])


def _domain_expm(generator, dz, g0):
    """expm(dz * generator), naming the domain when the exponential overflows."""
    try:
        return numerics.expm(dz * generator)
    except ContractError as exc:
        raise ContractError("domain exponential (width %g, g0 = %g): %s" % (dz, g0, exc)) from exc


def segment_propagator(matrices, dz):
    """Propagator of one uniform domain of width dz: expm(dz * generator)."""
    if not (dz > 0):
        raise ConfigError("segment width must be positive")
    return Propagator.from_bogoliubov(_domain_expm(_generator(matrices), dz, matrices.g0),
                                      matrices.F.shape[0])


def _exchange(X, n, sign=1, signs=None):
    """U^H X U (sign 1) or U X U^H (sign -1): [X + J'XJ' + sign i (J'X - XJ')] / 2.

    J' reverses each beam's bins (a view) and negates a_I^+; signs = (rows,
    cols), scalars or one per row or column, default those of a square X,
    let a block of a larger matrix give that block of its exchange.  Each
    part P of X adds (P + J'PJ') / 2 to its own part of the result and
    +-(J'P - PJ') / 2 to the other, in real temporaries: bitwise the complex
    expression.
    """
    rows, cols = signs or (np.repeat([1.0, -1.0], n)[:len(X)],) * 2
    (b, c), out = (m // n for m in X.shape), np.zeros(X.shape, dtype=complex)
    rows = np.broadcast_to(rows, b * n).reshape(b, n, 1, 1)
    cols = np.broadcast_to(cols, c * n).reshape(c, n)
    PJ, T = np.empty((b, n, c, n)), np.empty((b, n, c, n))
    for P, own, other, turn in zip((X.real, X.imag) if np.iscomplexobj(X) else (X,),
                                   (out.real, out.imag), (out.imag, out.real), (sign, -sign)):
        P = P.reshape(b, n, c, n)
        np.multiply(P[..., ::-1], cols, out=PJ)
        np.multiply(PJ[:, ::-1], rows, out=T)  # J'PJ'
        own += np.multiply(np.add(T, P, out=T), 0.5, out=T).reshape(X.shape)
        np.multiply(P[:, ::-1], rows, out=T)  # J'P
        # (J'P - PJ') / 2 where turn > 0, else (PJ' - J'P) / 2
        other += np.multiply(np.subtract(*(T, PJ)[::turn], out=T), 0.5, out=T).reshape(X.shape)
    return out


def _signal_basis(Q):
    """U_S Q, U_S = e^{i pi/4} (I - iJ) / sqrt 2 (U in SGVM media): Q's columns
    taken from the exchange basis to the original one, by index maps."""
    return _PHASE * (Q - 1j * Q[::-1])


def _opposite_sign(E, n):
    """The exchange-basis domain exponential of E's width for the opposite poling sign.

    Negating F maps K to Sigma K Sigma (Sigma = diag(I, -I) commutes with U),
    so E to Sigma E Sigma, bitwise; in SGVM media to -conj(K), and U^H conj(X)
    U = J conj(U^H X U) J, so E to J conj(E)^-1 J, equal to roundoff.
    """
    if E.shape[0] == n:
        return np.ascontiguousarray(np.linalg.inv(E.conj())[::-1, ::-1])
    sigma = np.repeat([1.0, -1.0], n)
    return sigma[:, None] * E * sigma


@lru_cache(maxsize=COMPOSE_MEMO)
def compose(grid, pump, medium, poling):
    """Total propagator of one pass through the poled medium, memoized.

    Later domains multiply from the left, in the exchange basis, in real
    arithmetic when the generators are real.  Domains of equal width and sign
    share one exponential; the opposite sign's is derived (_opposite_sign).
    The product is reduced pairwise by levels, later @ earlier, an odd last
    block carried up.  A block is keyed by the run of domains it spans, so a
    run that recurs at an aligned position is multiplied once per level: a
    periodic grating of m domains takes about log2(m) products, the
    169-domain apodized grating 36.  At zero gain F = 0 for every sign, so
    every domain is keyed unpoled: one exponential, and a run of equal widths
    is one block per level.  The generator and exponential tables
    are released before the reduction and each block as its pair is
    multiplied, so it holds only the distinct blocks of two adjacent levels.
    The last product is the pass's X; equal (frozen) arguments return the
    same Propagator.
    """
    if abs(poling.length - medium.length) > LENGTH_MATCH_RTOL * max(
        poling.length, medium.length
    ):
        raise ConfigError(
            "poling spans %g but medium length is %g"
            % (poling.length, medium.length)
        )
    domains = poling.domains if pump.g0 else tuple((width, 0) for width, _ in poling.domains)
    generators, segments = {}, {}
    for width, sign in domains:
        if (width, sign) in segments:
            continue
        if sign and (width, -sign) in segments:
            segments[width, sign] = _opposite_sign(segments[width, -sign], grid.n)
        else:
            if sign not in generators:
                m = build_coupled_matrices(grid, pump, medium, sign=sign)
                generators[sign] = _real_if_exact(_exchange(_generator(m), grid.n))
            segments[width, sign] = _domain_expm(generators[sign], width, pump.g0)
    level = [segments[d] for d in domains]
    del generators, segments
    span = 1
    while len(level) > 1:
        products = {}
        paired = []
        for i in range(0, len(level) - 1, 2):
            key = domains[i * span:(i + 2) * span]
            if key not in products:
                products[key] = level[i + 1] @ level[i]
            paired.append(products[key])
            level[i] = level[i + 1] = None
        level = paired + level[2 * len(paired):]
        span *= 2
    return Propagator(_frozen(level[0]), grid.n)


def double_pass(grid, pump, medium, poling, gain2_scale=1.0):
    """Forward pass followed by its return trip (`Propagator.return_trip`).

    gain2_scale multiplies the pump amplitude of the second pass only
    (imperfect double-pass modeling); at 1.0 both are one memoized pass.
    """
    first = compose(grid, pump, medium, poling)
    back = compose(grid, replace(pump, g0=pump.g0 * gain2_scale), medium, poling)
    return back.return_trip().after(first)


def _free_phases(grid, medium, length, double=False):
    """The pump-off Bogoliubov matrix's diagonal: a_S of bin n picks up
    exp(i kappa_S d_n length), a_I^+ exp(-i kappa_I d_n length) (M the first
    N); when double, times that of a second pass with the walk-offs exchanged."""
    d = grid.detunings
    if double:
        return _free_phases(grid, medium.swapped(), length) * _free_phases(grid, medium, length)
    if medium.sgvm():
        return np.exp(-1j * medium.kappa_signal * d * length)
    return np.concatenate([np.exp(1j * medium.kappa_signal * d * length),
                           np.exp(-1j * medium.kappa_idler * d * length)])


def free_propagator(grid, medium, length, double=False):
    """Propagator with the pump off over length, or over both passes of a double
    pass when double (_free_phases); X real, negative lengths allowed."""
    phases = _free_phases(grid, medium, length, double)
    return Propagator.from_bogoliubov(np.diag(phases), grid.n)


def load_matrix(path):
    """Read a matrix file: a `rows cols` header line, then one row of finite
    numbers per line."""
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ConfigError("%s: expected `rows cols` header" % path)
            rows, cols = int(header[0]), int(header[1])
            data = np.loadtxt(fh, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read matrix file %s: %s" % (path, exc)) from exc
    if data.shape != (rows, cols):
        raise ConfigError(
            "%s: header promises %dx%d but body is %r" % (path, rows, cols, data.shape)
        )
    if not np.isfinite(data).all():
        raise ConfigError("%s: entries must be finite" % path)
    return data
