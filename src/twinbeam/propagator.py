"""Bogoliubov propagation through piecewise-constant poling.

Signal couples only to the idler's conjugate.  On the complex amplitudes
a_S = X_S + i P_S and a_I^+ = X_I - i P_I of each frequency bin the
equations of motion read

    d a_S / dz   =  i G a_S + i F a_I^+
    d a_I^+ / dz = -i F a_S - i H a_I^+

so a uniform domain of width dz propagates by expm(dz * K) with the 2N x 2N
complex generator K = i [[G, F], [-F, -H]].  In the SGVM regime (H = -G)
this splits further: a_S - i a_I^+ evolves under the N x N generator -F + iG
and a_S + i a_I^+ under F + iG, so one N x N complex matrix
M = expm(dz (-F - iG)) holds the whole domain (the first combination
evolves by conj(M), the second by M^{-T}).  Each poling domain has
z-independent coupling matrices and a device is the ordered (left-multiplied)
product of its domain matrices.  `compose` forms that product by pairing
adjacent blocks level by level, so a run of domains that recurs at an aligned
position is multiplied once.  The return trip (domains reversed, v_S and v_I
exchanged) is the adjoint of the forward pass: M^H for SGVM media, and
otherwise T^-1 = Sigma T^H Sigma (Sigma = diag(I, -I)) with the beams
exchanged.  So a double pass costs one domain product, and for SGVM it is
the Hermitian M^H M, whose input and output modes coincide.

Only these complex matrices are built and multiplied, and photon numbers
are read off them.  A complex matrix Z = X + iY acts on real and imaginary
parts as embed_unitary(Z) = [[X, -Y], [Y, X]], the one bridge to real views
(a unitary Z embeds as an orthogonal symplectic matrix).  The 4N x 4N real
symplectic matrix on the quadratures (X_S, X_I, P_S, P_I) is the embedding
of the 2N matrix on (a_S, a_I^+) with the P_I rows and columns negated; it
feeds the generic factorization and the symplectic residual.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numerics
from .errors import ConfigError, ContractError
from .model import build_coupled_matrices

__all__ = [
    "Propagator", "segment_propagator", "compose", "double_pass",
    "free_propagator", "free_path", "symplectic_residual", "embed_unitary",
    "mean_photons", "load_matrix",
]

# Relative agreement required between poling total width and medium length.
LENGTH_MATCH_RTOL = 1e-9


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


def embed_unitary(Z):
    """Real [[X, -Y], [Y, X]] of a complex Z = X + iY; orthogonal symplectic for a unitary Z."""
    X, Y = Z.real, Z.imag
    return np.block([[X, -Y], [Y, X]])


@dataclass(frozen=True)
class Propagator:
    """Complex Bogoliubov propagator of one device.

    bogoliubov is the N x N matrix M (SGVM media) or the 2N x 2N matrix on
    (a_S, a_I^+) (all other media); see the module docstring.  Propagators
    compose by multiplying these complex matrices (`after`) and count
    photons on them (`mean_photons`).  matrix is the 4N x 4N real symplectic
    export, built on first use for the generic factorization and the
    symplectic checks.
    """

    bogoliubov: np.ndarray
    n: int

    def __post_init__(self):
        if self.bogoliubov.shape not in ((self.n, self.n), (2 * self.n, 2 * self.n)):
            raise ContractError(
                "Bogoliubov matrix shape %r does not match n=%d"
                % (self.bogoliubov.shape, self.n)
            )

    @property
    def sgvm(self):
        return self.bogoliubov.shape[0] == self.n

    def after(self, earlier):
        """The propagator of `earlier` followed by this one."""
        return Propagator(self.bogoliubov @ earlier.bogoliubov, self.n)

    def return_trip(self):
        """This pass traversed backwards: domains reversed, v_S and v_I exchanged."""
        n, T = self.n, self.bogoliubov.conj().T
        if self.sgvm:
            return Propagator(T, n)
        # [[A, B], [C, D]] -> [[D^H, -B^H], [-C^H, A^H]]
        return Propagator(np.block([[T[n:, n:], -T[n:, :n]], [-T[:n, n:], T[:n, :n]]]), n)

    def _pair_matrix(self):
        """The 2N matrix on (a_S, a_I^+); in SGVM media assembled from M."""
        T = self.bogoliubov
        if self.sgvm:
            # a_S - i a_I^+ evolves by conj(M), a_S + i a_I^+ by M^{-T}.
            down, up = T.conj(), np.linalg.inv(T).T
            A, B = 0.5 * (up + down), 0.5j * (up - down)
            T = np.block([[A, B], [-B, A]])
        return T

    @cached_property
    def matrix(self):
        """The 4N x 4N real symplectic matrix on (X_S, X_I, P_S, P_I).

        (a_S, a_I^+) has real part (X_S, X_I) and imaginary part (P_S, -P_I),
        so this is embed_unitary of the 2N matrix on (a_S, a_I^+) with the
        P_I row and column blocks negated.
        """
        n = self.n
        S = embed_unitary(self._pair_matrix())
        S[3 * n:] *= -1.0
        S[:, 3 * n:] *= -1.0
        return S

    def symplectic_residual(self):
        """symplectic_residual(self.matrix), read off the 2N matrix T.

        matrix is R embed_unitary(T) R, R negating P_I, so S Omega S^T - Omega
        is R embed_unitary(-iE) R with E = T Sigma T^H - Sigma.
        """
        T, sigma = self._pair_matrix(), np.repeat([1.0, -1.0], self.n)
        E = (T * sigma) @ T.conj().T
        E.flat[::2 * self.n + 1] -= sigma
        return float(max(np.max(np.abs(E.real)), np.max(np.abs(E.imag))))

    def mean_photons(self):
        """mean_photons(self.matrix, n), read off the complex matrix.

        A beam with rows [A B] holds (||A||_F^2 + ||B||_F^2 - N) / 2.  For SGVM
        media (A, B from M as in matrix) Re tr(M^-1 M) = N turns that into
        ||M^-T - conj M||_F^2 / 4, which subtracts no N.
        """
        n, T = self.n, self.bogoliubov
        if self.sgvm:
            ns = float(np.linalg.norm(np.linalg.inv(T).T - T.conj()) ** 2) / 4.0
            return ns, ns
        return tuple(float(np.linalg.norm(rows) ** 2 - n) / 2.0 for rows in (T[:n], T[n:]))


def mean_photons(S, n):
    """Per-beam mean photon numbers (N_signal, N_idler) from vacuum input.

    Vacuum covariance is I/2, so diag(S S^T)/2 holds the quadrature second
    moments and each beam contributes (sum of its X and P diagonals)/4 - N/2.
    """
    row_power = np.sum(S * S, axis=1)
    sig = float(np.sum(row_power[0:n]) + np.sum(row_power[2 * n:3 * n]))
    idl = float(np.sum(row_power[n:2 * n]) + np.sum(row_power[3 * n:4 * n]))
    return sig / 4.0 - n / 2.0, idl / 4.0 - n / 2.0


def segment_propagator(matrices, dz):
    """Propagator of one uniform domain of width dz: expm(dz * generator)."""
    if not (dz > 0):
        raise ConfigError("segment width must be positive")
    G, H, F = matrices.G, matrices.H, matrices.F
    if matrices.sgvm:
        generator = -F - 1j * G
    else:
        generator = 1j * np.block([[G, F], [-F, -H]])
    try:
        E = numerics.expm(dz * generator)
    except ContractError as exc:
        raise ContractError("domain exponential (width %g, g0 = %g): %s"
                            % (dz, matrices.g0, exc)) from exc
    return Propagator(E, G.shape[0])


def _opposite_sign(E, n):
    """The domain exponential of E's width for the opposite poling sign.

    Negating F maps the generator K to Sigma K Sigma, Sigma = diag(I, -I), so
    E to Sigma E Sigma, bitwise; in SGVM media it maps -F - iG to F - iG =
    -conj(-F - iG), so M to conj(M)^-1, which is equal to roundoff.
    """
    if E.shape[0] == n:
        return np.linalg.inv(E.conj())
    sigma = np.repeat([1.0, -1.0], n)
    return sigma[:, None] * E * sigma


def compose(grid, pump, medium, poling):
    """Total propagator of one pass through the poled medium.

    Later domains multiply from the left.  The product is reduced pairwise by
    levels: level 0 holds the domain exponentials (domains of equal width and
    sign share one), and each later level multiplies adjacent aligned pairs,
    later @ earlier, carrying an odd last block up unchanged.  A block is
    keyed by the run of domains it spans, so a run that recurs at an aligned
    position is multiplied once per level: a periodic grating of m domains
    takes about log2(m) products, the 169-domain apodized grating 36.  A
    domain whose width recurs with the opposite sign takes its exponential
    from that one (_opposite_sign) instead of a second expm.
    """
    if abs(poling.length - medium.length) > LENGTH_MATCH_RTOL * max(
        poling.length, medium.length
    ):
        raise ConfigError(
            "poling spans %g but medium length is %g"
            % (poling.length, medium.length)
        )
    domains = poling.domains
    matrices = {}
    segments = {}
    for width, sign in domains:
        if (width, sign) in segments:
            continue
        if sign and (width, -sign) in segments:
            segments[width, sign] = _opposite_sign(segments[width, -sign], grid.n)
        else:
            if sign not in matrices:
                matrices[sign] = build_coupled_matrices(grid, pump, medium, sign=sign)
            segments[width, sign] = segment_propagator(matrices[sign], width).bogoliubov
    level = [segments[d] for d in domains]
    span = 1
    while len(level) > 1:
        products = {}
        paired = []
        for i in range(0, len(level) - 1, 2):
            key = domains[i * span:(i + 2) * span]
            if key not in products:
                products[key] = level[i + 1] @ level[i]
            paired.append(products[key])
        level = paired + level[2 * len(paired):]
        span *= 2
    return Propagator(level[0], grid.n)


def double_pass(grid, pump, medium, poling, gain2_scale=1.0, first=None):
    """Forward pass followed by its return trip (`Propagator.return_trip`).

    gain2_scale multiplies the pump amplitude of the second pass only
    (imperfect double-pass modeling); at 1.0 both passes share one product.
    first is the forward pass when the caller has already composed it.
    """
    first = first or compose(grid, pump, medium, poling)
    back = first if gain2_scale == 1.0 else compose(
        grid, replace(pump, g0=pump.g0 * gain2_scale), medium, poling)
    return back.return_trip().after(first)


def free_propagator(grid, medium, length):
    """Propagator with the pump off: a diagonal walk-off phase per bin.

    a_S of bin n picks up exp(i kappa_S d_n length) and a_I^+ picks up
    exp(-i kappa_I d_n length).  Negative lengths are allowed.
    """
    d = grid.detunings
    if medium.sgvm():
        return Propagator(np.diag(np.exp(-1j * medium.kappa_signal * d * length)), grid.n)
    return Propagator(np.diag(np.concatenate([
        np.exp(1j * medium.kappa_signal * d * length),
        np.exp(-1j * medium.kappa_idler * d * length),
    ])), grid.n)


def free_path(grid, medium, double=False):
    """Free propagator over one pass, or over both passes of a double pass."""
    path = free_propagator(grid, medium, medium.length)
    if double:
        path = free_propagator(grid, medium.swapped(), medium.length).after(path)
    return path


def load_matrix(path):
    """Read a matrix file: a `rows cols` header line, then one row of numbers per line."""
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
    return data
