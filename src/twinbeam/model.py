"""Physical problem construction.

Builds the ingredients of the twin-beam model: mirror-symmetric frequency
grids, pump spectra, medium (group-velocity) parameters, poling
configurations g(z), and from them the discretized coupling matrices G, H, F
and the quadrature-basis generator Q of the equations of motion.

Conventions
-----------
hbar = 1.  Frequencies are handled as detunings from the degenerate central
frequency; the natural unit system takes the pump bandwidth sigma = 1 and
lengths such that kappa*sigma*L is the dimensionless walk-off.  The pump
prefactor (nonlinearity, pump power, photon energy) is collapsed into the
single real scalar g0.

Quadrature ordering is (X_S, X_I, P_S, P_I), each block of length N.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "FrequencyGrid", "PumpSpec", "TabulatedEnvelope", "MediumSpec", "Poling",
    "CoupledMatrices", "build_grid", "default_half_width", "pump_amplitude",
    "build_coupled_matrices", "build_generator", "qpm_poling",
    "apodized_poling", "demodulate_poling", "pmf", "save_poling",
    "load_poling", "flip_matrix",
]

CENTER_MATCH_RTOL = 1e-12


def flip_matrix(n):
    """The n x n exchange (flip) matrix J with ones on the anti-diagonal."""
    return np.eye(n)[::-1].copy()


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of N signal/idler detunings, mirror symmetric about the center.

    Detunings are built from integer index arithmetic, d_i = k_i * (delta/(N-1))
    with integer k_i = 2i - (N-1), so that d_i + d_{N-1-i} = 0 holds exactly in
    floating point, not just to roundoff.
    """

    n: int
    center: float
    half_width: float
    detunings: np.ndarray = field(repr=False)

    def __init__(self, n, center, half_width):
        n = int(n)
        if n < 3:
            raise ConfigError("frequency grid needs N >= 3, got %d" % n)
        if not (half_width > 0):
            raise ConfigError("frequency grid half_width must be positive")
        k = 2 * np.arange(n) - (n - 1)
        d = k * (float(half_width) / (n - 1))
        d.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "center", float(center))
        object.__setattr__(self, "half_width", float(half_width))
        object.__setattr__(self, "detunings", d)

    @property
    def spacing(self):
        """Bin spacing Delta-omega = 2 delta / (N - 1)."""
        return 2.0 * self.half_width / (self.n - 1)

    @property
    def omegas(self):
        """Absolute frequencies center + detunings."""
        return self.center + self.detunings


def build_grid(n, center=0.0, half_width=1.0):
    """Construct a FrequencyGrid; see FrequencyGrid for the exactness guarantee."""
    return FrequencyGrid(n, center, half_width)


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


@dataclass(frozen=True)
class TabulatedEnvelope:
    """Pump spectral envelope sampled on a sum-frequency grid.

    Linear interpolation between samples, zero outside.  frequency_symmetric
    declares evenness about the pump center and is validated against the
    samples at construction (the structure results of the flip analysis
    require an even pump, so the flag must be honest).
    """

    frequencies: np.ndarray
    values: np.ndarray
    frequency_symmetric: bool = False

    def __init__(self, frequencies, values, frequency_symmetric=False, center=None):
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
            if center is None:
                center = 0.5 * (f[0] + f[-1])
            mirrored = np.interp(2.0 * center - f, f, v, left=0.0, right=0.0)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
            if np.max(np.abs(mirrored - v)) > tol:
                raise ConfigError(
                    "tabulated envelope declared frequency_symmetric but samples are not "
                    "even about %r" % center
                )
        f.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "frequency_symmetric", bool(frequency_symmetric))

    def __call__(self, omega_sum):
        return np.interp(omega_sum, self.frequencies, self.values, left=0.0, right=0.0)


@dataclass(frozen=True)
class PumpSpec:
    """Pump pulse: center frequency (= 2 omega-bar for the degenerate process),
    bandwidth sigma, dimensionless peak gain g0, and spectral envelope.

    envelope is either the string "gaussian" or a TabulatedEnvelope.  g0 is
    real by assumption (the model takes gamma * beta_P real); it absorbs the
    nonlinearity and pump-power prefactors, so only g0 * envelope is physical.
    """

    center: float = 0.0
    sigma: float = 1.0
    g0: float = 1.0
    envelope: Union[str, TabulatedEnvelope] = "gaussian"

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ConfigError("pump bandwidth sigma must be positive")
        if not np.isfinite(self.g0):
            raise ConfigError("pump amplitude g0 must be finite and real")
        if isinstance(self.envelope, str) and self.envelope != "gaussian":
            raise ConfigError("unknown pump envelope %r" % (self.envelope,))

    def scaled(self, factor):
        """Same pump with g0 multiplied by factor (used for second-pass gain)."""
        return PumpSpec(self.center, self.sigma, self.g0 * factor, self.envelope)

    @property
    def frequency_symmetric(self):
        if isinstance(self.envelope, str):
            return True  # gaussian is even about the center by construction
        return self.envelope.frequency_symmetric


def pump_amplitude(pump, omega_sum):
    """Pump spectral amplitude at the given (absolute) sum frequency.

    Gaussian: g0 * (pi sigma^2)^(-1/4) * exp(-(omega_sum - center)^2 / (2 sigma^2)).
    Tabulated: g0 * linear interpolation, zero outside the table.
    """
    omega_sum = np.asarray(omega_sum, dtype=float)
    if isinstance(pump.envelope, str):
        norm = (np.pi * pump.sigma**2) ** (-0.25)
        detuning = omega_sum - pump.center
        return pump.g0 * norm * np.exp(-(detuning**2) / (2.0 * pump.sigma**2))
    return pump.g0 * pump.envelope(omega_sum)


@dataclass(frozen=True)
class MediumSpec:
    """Nonlinear medium: group velocities of pump/signal/idler and length L.

    Walk-offs are inverse-velocity differences kappa_j = 1/v_j - 1/v_P.  The
    SGVM regime has kappa_S = -kappa_I: signal and idler walk off from the
    pump at equal and opposite rates.
    """

    v_pump: float
    v_signal: float
    v_idler: float
    length: float

    def __post_init__(self):
        for name in ("v_pump", "v_signal", "v_idler"):
            if not (getattr(self, name) > 0):
                raise ConfigError("%s must be positive" % name)
        if not (self.length > 0):
            raise ConfigError("medium length must be positive")

    @property
    def kappa_signal(self):
        return 1.0 / self.v_signal - 1.0 / self.v_pump

    @property
    def kappa_idler(self):
        return 1.0 / self.v_idler - 1.0 / self.v_pump

    def sgvm(self):
        """True when kappa_S = -kappa_I within 1e-12 relative."""
        ks, ki = self.kappa_signal, self.kappa_idler
        scale = max(abs(ks), abs(ki))
        if scale == 0.0:
            return True
        return abs(ks + ki) <= 1e-12 * scale

    def swapped(self):
        """Medium with signal and idler velocities exchanged (second pass)."""
        return MediumSpec(self.v_pump, self.v_idler, self.v_signal, self.length)

    @classmethod
    def from_walkoffs(cls, kappa_signal, kappa_idler, length, v_pump=0.1):
        """Build a medium from walk-offs; v_pump sets the overall velocity scale."""
        inv_p = 1.0 / v_pump
        inv_s = inv_p + kappa_signal
        inv_i = inv_p + kappa_idler
        if inv_s <= 0 or inv_i <= 0:
            raise ConfigError(
                "walk-offs too large for v_pump=%g: inverse velocities must stay positive"
                % v_pump
            )
        return cls(v_pump, 1.0 / inv_s, 1.0 / inv_i, length)


@dataclass(frozen=True)
class Poling:
    """Ordered nonlinear domains (width, orientation sign) describing g(z).

    Signs are -1, 0, +1; zero marks a dead region that propagates freely.
    """

    domains: Tuple[Tuple[float, int], ...]

    def __init__(self, domains):
        cleaned = []
        for width, sign in domains:
            width = float(width)
            sign = int(sign)
            if not (width > 0):
                raise ConfigError("poling domain widths must be positive")
            if sign not in (-1, 0, 1):
                raise ConfigError("poling signs must be -1, 0 or +1, got %r" % sign)
            cleaned.append((width, sign))
        if not cleaned:
            raise ConfigError("poling needs at least one domain")
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

    G, H are the diagonal walk-off phase matrices of signal and idler; F is
    the (signed) pump-mediated coupling.  sign and g0 record the poling
    orientation and peak gain the F entries were built with; sgvm records
    whether H = -G holds by construction so downstream code can take the
    block fast path.
    """

    G: np.ndarray
    H: np.ndarray
    F: np.ndarray
    sign: int
    sgvm: bool
    g0: float


def build_coupled_matrices(grid, pump, medium, sign=1):
    """Build G, H, F on the grid for one poling orientation.

    G_nn = kappa_S * (omega_n - center); H_nn = kappa_I * (omega_n - center);
    F_nm = sign * (dw / sqrt(2 pi)) * pump_amplitude(omega_n + omega_m).

    The pump center must equal twice the grid center (degenerate operation).
    F is evaluated on detuning sums so that an even pump gives exact
    centrosymmetry, J F J = F, bitwise.
    """
    sign = int(sign)
    if sign not in (-1, 0, 1):
        raise ConfigError("poling sign must be -1, 0 or +1")
    two_center = 2.0 * grid.center
    scale = max(1.0, abs(pump.center), abs(two_center))
    if abs(pump.center - two_center) > CENTER_MATCH_RTOL * scale:
        raise ConfigError(
            "pump center %r does not match twice the grid center %r"
            % (pump.center, two_center)
        )
    d = grid.detunings
    G = np.diag(medium.kappa_signal * d)
    is_sgvm = medium.sgvm()
    if is_sgvm:
        H = -G  # exact, so the SGVM block structure holds bitwise
    else:
        H = np.diag(medium.kappa_idler * d)
    if sign == 0 or pump.g0 == 0.0:
        F = np.zeros((grid.n, grid.n))
    else:
        sums = d[:, None] + d[None, :]
        F = sign * (grid.spacing / np.sqrt(2.0 * np.pi)) * pump_amplitude(
            pump, pump.center + sums
        )
        F = np.asarray(F)
    return CoupledMatrices(G=G, H=H, F=F, sign=sign, sgvm=is_sgvm, g0=float(pump.g0))


def build_generator(matrices):
    """Quadrature-basis generator of d r / dz, r = (X_S, X_I, P_S, P_I).

    Q = [[0, 0, -G, F], [0, 0, F, -H], [G, F, 0, 0], [F, H, 0, 0]].
    Omega Q is symmetric (Hamiltonian property), which is what makes every
    segment propagator symplectic.
    """
    G, H, F = matrices.G, matrices.H, matrices.F
    n = G.shape[0]
    Z = np.zeros((n, n))
    return np.block([
        [Z, Z, -G, F],
        [Z, Z, F, -H],
        [G, F, Z, Z],
        [F, H, Z, Z],
    ])


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
    half = 0.5 * period
    n_full = int(np.floor(length / half + 1e-9))
    rem = length - n_full * half
    widths = [half] * n_full
    if rem > 1e-12 * length:
        widths.append(rem)
    if len(widths) % 2 == 0:
        tail = widths.pop()
        widths[-1] += tail
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
    n_full = int(np.floor(length / domain_width + 1e-9))
    rem = length - n_full * domain_width
    widths = [domain_width] * n_full
    if rem > 1e-12 * length:
        widths.append(rem)
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
