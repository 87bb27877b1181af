"""Physical problem construction.

Builds the ingredients of the twin-beam model: mirror-symmetric frequency
grids, pump spectra, media (signal and idler walk-offs), poling
configurations g(z), and from them the discretized coupling model (walk-off
vectors g, h and pump coupling F) and the quadrature-basis generator Q of the
equations of motion.

Conventions
-----------
hbar = 1.  Frequencies are detunings from the degenerate point (signal and
idler at omega-bar, the pump at 2 omega-bar), the model's one frequency
origin, and a medium enters only through its walk-offs kappa_j = 1/v_j -
1/v_P.  The natural unit system takes the pump bandwidth sigma = 1 and
lengths such that kappa*sigma*L is the dimensionless walk-off.  The pump
prefactor (nonlinearity, pump power, photon energy) is collapsed into the
single real scalar g0.

Quadrature ordering is (X_S, X_I, P_S, P_I), each block of length N.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "FrequencyGrid", "PumpSpec", "TabulatedEnvelope", "MediumSpec", "Poling",
    "CoupledMatrices", "build_grid", "default_half_width", "pump_amplitude",
    "build_coupled_matrices", "build_generator", "qpm_poling",
    "apodized_poling", "demodulate_poling", "pmf", "save_poling",
    "load_poling", "flip_matrix",
]

# Coupling-matrix sets kept: one per gain of a double pass, which verify and
# the analytic routes read again.
MATRICES_MEMO = 2
# Whole domains a generated grating may have: building one takes about
# 150 bytes and 0.8 us per domain, so this caps it near 150 MB and 1 s.
MAX_DOMAINS = 10 ** 6
# Frequency bins a grid may have: the N x N matrices of one pass grow as N^2,
# and one complex N x N array at this limit takes 268 MB.
MAX_BINS = 4096
# Largest walk-off phase max(|kappa_S|, |kappa_I|) * half_width * L: the
# error of verify's zero-gain double pass, up to about 1.7e-16 * phase (4e-17
# * phase in SGVM media, stored with kappa_I = -kappa_S exactly), first fails
# its absolute 1e-12 near 6e3.
MAX_WALKOFF_PHASE = 1e3


def _frozen(a):
    """a, made read-only where it is built."""
    a.setflags(write=False)
    return a


def flip_matrix(n):
    """The n x n exchange (flip) matrix J with ones on the anti-diagonal."""
    return np.eye(n)[::-1].copy()


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of N signal/idler detunings, mirror symmetric about zero.

    Detunings are built from integer index arithmetic, d_i = k_i * (delta/(N-1))
    with integer k_i = 2i - (N-1), so that d_i + d_{N-1-i} = 0 holds exactly in
    floating point, not just to roundoff.
    """

    n: int
    half_width: float
    detunings: np.ndarray = field(repr=False, compare=False)  # derived from the rest

    def __init__(self, n, half_width):
        n = int(n)
        if n < 3:
            raise ConfigError("frequency grid needs N >= 3, got %d" % n)
        if n > MAX_BINS:
            raise ConfigError("grid.N = %d is above the limit of %d bins (one complex N x N "
                              "array would take %.3g MB)" % (n, MAX_BINS, 16e-6 * n * n))
        if not (half_width > 0):
            raise ConfigError("frequency grid half_width must be positive")
        k = 2 * np.arange(n) - (n - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "half_width", float(half_width))
        object.__setattr__(self, "detunings", _frozen(k * (float(half_width) / (n - 1))))

    @property
    def spacing(self):
        """Bin spacing Delta-omega = 2 delta / (N - 1)."""
        return 2.0 * self.half_width / (self.n - 1)


def build_grid(n, half_width=1.0):
    """Construct a FrequencyGrid; see FrequencyGrid for the exactness guarantee."""
    return FrequencyGrid(n, half_width)


def default_half_width(medium, sigma=1.0):
    """Default grid half-width 5*sigma*max(1, 1/(|kappa| sigma L)).

    Captures the Schmidt-mode support: the phase-matching width in detuning
    scales like 1/(kappa L), so weak walk-off needs a wider window.
    """
    kappa = max(abs(medium.kappa_signal), abs(medium.kappa_idler))
    x = kappa * sigma * medium.length
    if x <= 0:
        return 5.0 * sigma
    return 5.0 * sigma * max(1.0, 1.0 / x)


@dataclass(frozen=True, eq=False)
class TabulatedEnvelope:
    """Pump spectral envelope sampled on a sum-frequency detuning grid.

    Linear interpolation between samples, zero outside; tables compare by
    identity.  frequency_symmetric declares evenness about zero detuning,
    validated against the samples here since the flip analysis needs an
    even pump; such a table is read at |omega|, which makes it even
    bitwise, as the Gaussian is.
    """

    frequencies: np.ndarray
    values: np.ndarray
    frequency_symmetric: bool = False

    def __init__(self, frequencies, values, frequency_symmetric=False):
        try:
            f, v = np.asarray(frequencies), np.asarray(values)
        except ValueError as exc:
            raise ConfigError("tabulated envelope samples must be numbers: %s" % exc) from exc
        # strings, booleans and None are not numbers, though float() takes some
        if f.dtype.kind not in "iuf" or v.dtype.kind not in "iuf":
            raise ConfigError("tabulated envelope samples must be numbers")
        f, v = f.astype(float), v.astype(float)
        if f.ndim != 1 or f.shape != v.shape or f.size < 2:
            raise ConfigError("tabulated envelope needs matching 1-d frequency/value arrays")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(v))):
            raise ConfigError("tabulated envelope samples must be finite")
        if np.any(np.diff(f) <= 0):
            raise ConfigError("tabulated envelope frequencies must be strictly increasing")
        if frequency_symmetric:
            mirrored = np.interp(-f, f, v, left=0.0, right=0.0)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
            if np.max(np.abs(mirrored - v)) > tol:
                raise ConfigError(
                    "tabulated envelope declared frequency_symmetric but samples are not "
                    "even about zero detuning"
                )
        object.__setattr__(self, "frequencies", _frozen(f))
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "frequency_symmetric", bool(frequency_symmetric))

    def __call__(self, omega_sum):
        if self.frequency_symmetric:
            omega_sum = np.abs(omega_sum)
        return np.interp(omega_sum, self.frequencies, self.values, left=0.0, right=0.0)


@dataclass(frozen=True)
class PumpSpec:
    """Pump pulse: bandwidth sigma, dimensionless peak gain g0, and spectral
    envelope, centered at twice the degenerate signal/idler frequency.

    envelope is either the string "gaussian" or a TabulatedEnvelope.  g0 is
    real by assumption (the model takes gamma * beta_P real); it absorbs the
    nonlinearity and pump-power prefactors, so only g0 * envelope is physical.
    """

    sigma: float = 1.0
    g0: float = 1.0
    envelope: Union[str, TabulatedEnvelope] = "gaussian"

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ConfigError("pump bandwidth sigma must be positive")
        try:  # pump_amplitude takes sigma^2 in Python floats, which raise on overflow
            square = float(self.sigma) ** 2
        except OverflowError:
            square = math.inf
        if not 0.0 < square < math.inf:
            raise ConfigError("pump.sigma = %r is out of range: its square %s"
                              % (self.sigma, "overflows" if square else "underflows to 0"))
        if not np.isfinite(self.g0):
            raise ConfigError("pump amplitude g0 must be finite and real")
        if isinstance(self.envelope, str) and self.envelope != "gaussian":
            raise ConfigError("unknown pump envelope %r" % (self.envelope,))

    @property
    def frequency_symmetric(self):
        if isinstance(self.envelope, str):
            return True  # gaussian is even by construction
        return self.envelope.frequency_symmetric


def pump_amplitude(pump, omega_sum):
    """Pump spectral amplitude at the given sum-frequency detuning.

    Gaussian: g0 * (pi sigma^2)^(-1/4) * exp(-omega_sum^2 / (2 sigma^2)).
    Tabulated: g0 * linear interpolation, zero outside the table.
    """
    omega_sum = np.asarray(omega_sum, dtype=float)
    if isinstance(pump.envelope, str):
        norm = (np.pi * pump.sigma**2) ** (-0.25)
        return pump.g0 * norm * np.exp(-(omega_sum**2) / (2.0 * pump.sigma**2))
    return pump.g0 * pump.envelope(omega_sum)


@dataclass(frozen=True)
class MediumSpec:
    """Nonlinear medium: signal and idler walk-offs kappa_j = 1/v_j - 1/v_P
    and length L.

    The SGVM regime has kappa_S = -kappa_I: signal and idler walk off from
    the pump at equal and opposite rates.  Walk-offs opposite within 1e-12
    relative are stored as SGVM, kappa_I = -kappa_S exactly, so every reader
    sees one regime and its bitwise structure.
    """

    kappa_signal: float
    kappa_idler: float
    length: float

    def __post_init__(self):
        if not (np.isfinite(self.kappa_signal) and np.isfinite(self.kappa_idler)):
            raise ConfigError("medium walk-offs must be finite")
        if not (self.length > 0):
            raise ConfigError("medium length must be positive")
        ks, ki = self.kappa_signal, self.kappa_idler
        if abs(ks + ki) <= 1e-12 * max(abs(ks), abs(ki)):
            object.__setattr__(self, "kappa_idler", -ks)

    def sgvm(self):
        """True when kappa_I = -kappa_S, as stored (__post_init__)."""
        return self.kappa_idler == -self.kappa_signal

    def swapped(self):
        """Medium with signal and idler walk-offs exchanged (second pass)."""
        return MediumSpec(self.kappa_idler, self.kappa_signal, self.length)


@dataclass(frozen=True)
class Poling:
    """Ordered nonlinear domains (width, orientation sign) describing g(z).

    Widths and their total are positive and finite; signs are -1, 0, +1
    (equal to those integers), and zero marks a dead region that propagates
    freely.
    """

    domains: Tuple[Tuple[float, int], ...]

    def __init__(self, domains):
        cleaned = []
        for width, sign in domains:
            width = float(width)
            if not (0 < width < math.inf):
                raise ConfigError("poling domain widths must be positive and finite, got %r"
                                  % width)
            if sign not in (-1, 0, 1):  # 0.7 is not truncated to 0
                raise ConfigError("poling signs must be -1, 0 or +1, got %r" % (sign,))
            cleaned.append((width, int(sign)))
        if not cleaned:
            raise ConfigError("poling needs at least one domain")
        if not math.isfinite(sum(w for w, _ in cleaned)):
            raise ConfigError("poling total length overflows")
        object.__setattr__(self, "domains", tuple(cleaned))

    @property
    def length(self):
        return float(sum(w for w, _ in self.domains))

    @property
    def widths(self):
        return np.array([w for w, _ in self.domains])

    @property
    def signs(self):
        return np.array([s for _, s in self.domains], dtype=int)

    def reversed_(self):
        """Domains traversed from the far end (the second pass sees this order)."""
        return Poling(self.domains[::-1])

    @classmethod
    def unpoled(cls, length):
        return cls([(length, 1)])


@dataclass(frozen=True)
class CoupledMatrices:
    """Discretized coupling matrices of the equations of motion.

    g, h are the walk-off phases kappa_S * omega_n and kappa_I * omega_n of
    signal and idler per bin, the diagonals of the walk-off matrices G, H; F
    is the (signed) pump-mediated coupling.  g0 records the peak gain the F
    entries were built with; sgvm records that the medium is SGVM, so that
    h = -g bitwise, and downstream code can take the block fast path.
    """

    g: np.ndarray
    h: np.ndarray
    F: np.ndarray
    sgvm: bool
    g0: float


@lru_cache(maxsize=MATRICES_MEMO)
def build_coupled_matrices(grid, pump, medium, sign=1):
    """Build g, h, F on the grid for one poling orientation, memoized.

    g_n = kappa_S * omega_n; h_n = kappa_I * omega_n;
    F_nm = sign * (dw / sqrt(2 pi)) * pump_amplitude(omega_n + omega_m).

    F is evaluated on detuning sums so that an even pump gives exact
    centrosymmetry, J F J = F, bitwise.  The arrays are read-only: equal
    (frozen) arguments return the same matrices.  A walk-off phase
    max(|g|, |h|) * L = max(|kappa_S|, |kappa_I|) * half_width * L above
    MAX_WALKOFF_PHASE is a ConfigError.
    """
    sign = int(sign)
    if sign not in (-1, 0, 1):
        raise ConfigError("poling sign must be -1, 0 or +1")
    # in Python floats, which overflow to inf without a warning
    kappa = float(max(abs(medium.kappa_signal), abs(medium.kappa_idler)))
    phase = kappa * grid.half_width * medium.length
    if not phase <= MAX_WALKOFF_PHASE:
        raise ConfigError("walk-off phase max(|kappa_S|, |kappa_I|) * grid.half_width * L of "
                          "medium.vS, vI, vP at half_width %g and L %g is %.3g, above the limit "
                          "%g" % (grid.half_width, medium.length, phase, MAX_WALKOFF_PHASE))
    d = grid.detunings
    g, h = medium.kappa_signal * d, medium.kappa_idler * d
    if sign == 0 or pump.g0 == 0.0:
        F = np.zeros((grid.n, grid.n))
    else:
        sums = d[:, None] + d[None, :]
        F = sign * (grid.spacing / np.sqrt(2.0 * np.pi)) * pump_amplitude(pump, sums)
    return CoupledMatrices(g=_frozen(g), h=_frozen(h), F=_frozen(F), sgvm=medium.sgvm(),
                           g0=float(pump.g0))


def build_generator(matrices):
    """Quadrature-basis generator of d r / dz, r = (X_S, X_I, P_S, P_I).

    Q = [[0, 0, -G, F], [0, 0, F, -H], [G, F, 0, 0], [F, H, 0, 0]] with
    G = diag(g), H = diag(h).  Omega Q is symmetric (Hamiltonian property),
    which is what makes every segment propagator symplectic.
    """
    G, H, F = np.diag(matrices.g), np.diag(matrices.h), matrices.F
    Z = np.zeros_like(F)
    return np.block([
        [Z, Z, -G, F],
        [Z, Z, F, -H],
        [G, F, Z, Z],
        [F, H, Z, Z],
    ])


def _tile(length, width):
    """Whole domains of the width filling length, then a remainder above 1e-12 length."""
    count = length / width + 1e-9
    if not count < MAX_DOMAINS + 1:
        raise ConfigError("length L = %g holds %.3g domains of width %g, more than the "
                          "%d a grating may have" % (length, count, width, MAX_DOMAINS))
    rem = length - int(count) * width
    return [width] * int(count) + ([rem] if rem > 1e-12 * length else [])


def qpm_poling(length, period):
    """Alternating +1/-1 domains of width period/2 (quasi-phase matching).

    The domain count is kept odd (symmetric poling): if the natural
    construction ends on an even count, the final domain is trimmed off and
    its width folded into the previous one, preserving the total length.
    """
    if not (period > 0):
        raise ConfigError("poling period must be positive")
    if length < period:
        raise ConfigError("length %g shorter than one poling period %g" % (length, period))
    widths = _tile(length, 0.5 * period)
    if len(widths) % 2 == 0:
        widths[-2:] = [widths[-2] + widths[-1]]
    signs = [1 if p % 2 == 0 else -1 for p in range(len(widths))]
    return Poling(list(zip(widths, signs)))


def _domain_carrier_integral(z0, width, dk):
    """Closed form of the single-domain integral of e^{i dk z} over [z0, z0+width]."""
    # w * e^{i dk (z0 + w/2)} * sinc(dk w / 2); the sinc form is exact and
    # stable through dk = 0 (np.sinc carries the pi convention).
    return width * np.exp(1j * dk * (z0 + 0.5 * width)) * np.sinc(dk * width / (2.0 * np.pi))


def apodized_poling(length, domain_width, pmf_width=None):
    """Domain-engineered poling whose PMF approximates a Gaussian envelope.

    Greedy tracker: domain signs are chosen one by one so the running integral
    of g(z) e^{i dk-bar z} (dk-bar = 2 pi / period the QPM carrier, period =
    2 * domain_width) follows the cumulative target amplitude -- an
    error-function profile for a Gaussian PMF of the requested width, a linear
    ramp for pmf_width=None (constant envelope, which reproduces plain QPM
    alternation).  Ties break toward +1.

    The returned signs are carrier-laden (alternation encodes full duty); for
    simulation on a degenerate-operation grid use demodulate_poling, which
    strips the carrier and leaves the slow orientation profile.
    """
    if not (domain_width > 0):
        raise ConfigError("domain_width must be positive")
    if length < domain_width:
        raise ConfigError("length shorter than one domain")
    widths = _tile(length, domain_width)
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    dk_bar = np.pi / domain_width

    # Cumulative target T(z) = i (2/pi) * integral_0^z env(z') dz'; 2/pi is the
    # largest carrier amplitude a +-1 grating can track, i the direction the
    # per-domain carrier integrals point.
    if pmf_width is None:
        def cumulative(z):
            return 1j * (2.0 / np.pi) * z
    else:
        if not (pmf_width > 0):
            raise ConfigError("pmf_width must be positive")
        sigma_z = 1.0 / float(pmf_width)
        mid = 0.5 * length

        def cumulative(z):
            a = math.erf((z - mid) / (np.sqrt(2.0) * sigma_z))
            b = math.erf((0.0 - mid) / (np.sqrt(2.0) * sigma_z))
            return 1j * (2.0 / np.pi) * sigma_z * np.sqrt(np.pi / 2.0) * (a - b)

    if abs(cumulative(length)) == 0.0:
        raise ConfigError("degenerate apodization target (identically zero)")

    signs = []
    running = 0.0 + 0.0j
    for p, w in enumerate(widths):
        seg = _domain_carrier_integral(edges[p], w, dk_bar)
        target = cumulative(edges[p + 1])
        if abs(running + seg - target) <= abs(running - seg - target):
            signs.append(1)
            running += seg
        else:
            signs.append(-1)
            running -= seg
    return Poling(list(zip(widths, signs)))


def demodulate_poling(poling):
    """Strip the QPM carrier: s_p -> (-1)^p s_p, widths unchanged.

    Perfect alternation maps to a uniformly oriented (unpoled-like) profile;
    an apodized grating maps to the slow duty-cycle envelope actually seen by
    the degenerate-operation model.
    """
    return Poling([
        (w, s if p % 2 == 0 else -s) for p, (w, s) in enumerate(poling.domains)
    ])


def pmf(poling, dk):
    """Phase-matching function Phi(dk) = (1/L) sum_p s_p int_domain e^{i dk z} dz.

    Evaluated in closed form per domain; dk may be a scalar or array.
    """
    dk = np.asarray(dk, dtype=float)
    total = np.zeros(dk.shape, dtype=complex)
    z = 0.0
    for width, sign in poling.domains:
        if sign != 0:
            total = total + sign * _domain_carrier_integral(z, width, dk)
        z += width
    return total / poling.length


def save_poling(poling, path):
    """Write one `width sign` line per domain."""
    with open(path, "w") as fh:
        for width, sign in poling.domains:
            fh.write("%s %d\n" % (repr(width), sign))


def load_poling(path):
    """Read a poling file written by save_poling."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read poling file %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("poling file %s is not UTF-8 text: %s" % (path, exc)) from exc
    domains = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError("%s:%d: expected `width sign`" % (path, lineno))
        try:
            width = float(parts[0])
            sign = int(parts[1])
        except ValueError as exc:
            raise ConfigError("%s:%d: %s" % (path, lineno, exc)) from exc
        domains.append((width, sign))
    return Poling(domains)
