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

Only these complex matrices are built and multiplied.  The 4N x 4N real
symplectic matrix on the quadratures (X_S, X_I, P_S, P_I) is an export view
assembled from the real and imaginary parts of the N x N blocks; it feeds
the generic factorization, the symplectic residual and the matrix files.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import ConfigError, ContractError
from .model import build_coupled_matrices

__all__ = [
    "Propagator", "segment_propagator", "compose", "double_pass",
    "free_propagator", "free_path", "symplectic_form", "symplectic_residual",
    "mean_photons", "save_matrix", "load_matrix",
]

# Relative agreement required between poling total width and medium length.
LENGTH_MATCH_RTOL = 1e-9


def symplectic_form(dim):
    """Omega = [[0, I], [-I, 0]] for an even total dimension."""
    if dim % 2:
        raise ConfigError("symplectic dimension must be even, got %d" % dim)
    h = dim // 2
    omega = np.zeros((dim, dim))
    omega[:h, h:] = np.eye(h)
    omega[h:, :h] = -np.eye(h)
    return omega


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


@dataclass(frozen=True)
class Propagator:
    """Complex Bogoliubov propagator of one device.

    bogoliubov is the N x N matrix M (SGVM media) or the 2N x 2N matrix on
    (a_S, a_I^+) (all other media); see the module docstring.  Propagators
    compose by multiplying these complex matrices (`after`).  matrix is the
    4N x 4N real symplectic export, built on first use; block is the 2N real
    representation of M that the SGVM oracles in analytic work on.
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

    @property
    def block(self):
        """SGVM only: the 2N real representation [[Re M, -Im M], [Im M, Re M]]."""
        if not self.sgvm:
            return None
        M = self.bogoliubov
        return np.block([[M.real, -M.imag], [M.imag, M.real]])

    @cached_property
    def matrix(self):
        """The 4N x 4N real symplectic matrix on (X_S, X_I, P_S, P_I).

        Built from the N x N complex blocks of a_S -> A a_S + B a_I^+ and
        a_I^+ -> C a_S + D a_I^+.
        """
        n, T = self.n, self.bogoliubov
        if self.sgvm:
            # a_S - i a_I^+ evolves by conj(M), a_S + i a_I^+ by M^{-T}.
            down, up = T.conj(), np.linalg.inv(T).T
            A = D = 0.5 * (up + down)
            B = 0.5j * (up - down)
            C = -B
        else:
            A, B, C, D = T[:n, :n], T[:n, n:], T[n:, :n], T[n:, n:]
        return np.block([
            [A.real, B.real, -A.imag, B.imag],
            [C.real, D.real, -C.imag, D.imag],
            [A.imag, B.imag, A.real, -B.real],
            [-C.imag, -D.imag, -C.real, D.real],
        ])

    def mean_photons(self):
        return mean_photons(self.matrix, self.n)


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


def compose(grid, pump, medium, poling):
    """Total propagator of one pass through the poled medium.

    Later domains multiply from the left.  The product is reduced pairwise by
    levels: level 0 holds the domain exponentials (domains of equal width and
    sign share one), and each later level multiplies adjacent aligned pairs,
    later @ earlier, carrying an odd last block up unchanged.  A block is
    keyed by the run of domains it spans, so a run that recurs at an aligned
    position is multiplied once per level: a periodic grating of m domains
    takes about log2(m) products, the 169-domain apodized grating 36.
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
        if (width, sign) not in segments:
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
        grid, pump.scaled(gain2_scale), medium, poling)
    return back.return_trip().after(first)


def free_propagator(grid, medium, length):
    """Propagator with the pump off: a diagonal walk-off phase per bin.

    a_S of bin n picks up exp(i kappa_S d_n length) and a_I^+ picks up
    exp(-i kappa_I d_n length).  Negative lengths are allowed (used to strip
    accumulated phases).
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


def save_matrix(M, path):
    """Text dump: `rows cols` header then one row per line, full precision."""
    M = np.asarray(M)
    with open(path, "w") as fh:
        fh.write("%d %d\n" % M.shape)
        for row in M:
            fh.write(" ".join(repr(float(x)) for x in row))
            fh.write("\n")


def load_matrix(path):
    """Read a matrix file written by save_matrix."""
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
