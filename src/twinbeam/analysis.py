"""Physics-level diagnostics on decomposed propagators.

Mode fidelities and flip overlaps, the second-pass gain-robustness sweep,
and an independent low-gain oracle that predicts the Schmidt structure from
the pump-times-PMF pair amplitude alone (no propagation, no factorization),
used to cross-check the full route in the weak-pump limit.
"""

import functools
from dataclasses import dataclass, replace
from typing import List

import numpy as np

from . import numerics
from .blochmessiah import SchmidtMode, decompose, solve_increasing, tune_gain
from .errors import ConfigError
from .model import pmf, pump_amplitude
from .propagator import double_pass, embed_unitary

__all__ = [
    "mode_fidelity", "flip_overlap", "SweepPoint", "SweepResult",
    "gain_variation_sweep", "JsaOracle", "lowgain_jsa_oracle",
    "subspace_overlaps",
]


def _vectors(u, v, what):
    """The amplitude vectors of two modes (raw vectors or SchmidtModes of one beam)."""
    if isinstance(u, SchmidtMode) and isinstance(v, SchmidtMode) and u.beam != v.beam:
        raise ConfigError("%s compares modes of one beam, got %s vs %s"
                          % (what, u.beam, v.beam))
    a, b = (np.asarray(m.amplitudes if isinstance(m, SchmidtMode) else m) for m in (u, v))
    if a.shape != b.shape:
        raise ConfigError("mode shapes differ: %r vs %r" % (a.shape, b.shape))
    return a, b


def _unit(v, what):
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ConfigError("%s has zero norm" % what)
    return v / norm


def mode_fidelity(u, v):
    """|<u, v>|^2 between unit-normalized mode vectors.

    Accepts raw complex vectors or SchmidtMode objects of one beam (their
    own-beam amplitudes).  Symmetric in its arguments and invariant under
    global phases of either mode.
    """
    a, b = _vectors(u, v, "mode fidelity")
    a, b = _unit(a, "first mode"), _unit(b, "second mode")
    return float(np.abs(np.vdot(a, b)) ** 2)


def flip_overlap(u_in, u_out):
    """|sum_n (J u_out)_n (u_in)_n^*|^2: fidelity against the bin-reversed output.

    Both modes must live on the same beam.
    """
    a, b = _vectors(u_in, u_out, "flip overlap")
    a, b = _unit(a, "input mode"), _unit(b, "output mode")
    return float(np.abs(np.sum(b[::-1] * np.conj(a))) ** 2)


@dataclass(frozen=True)
class SweepPoint:
    gain2_scale: float
    mean_ns: float
    fidelity_k1: float
    r: np.ndarray


@dataclass(frozen=True)
class SweepResult:
    """Gain-robustness sweep: second-pass gain varied around the matched point."""

    points: List[SweepPoint]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("gain2_scale,mean_NS,fidelity_k1,r1,r2,r3\n")
            for p in self.points:
                r = np.concatenate([p.r, np.zeros(3)])
                fh.write("%s,%s,%s,%s,%s,%s\n" % (
                    repr(p.gain2_scale), repr(p.mean_ns), repr(p.fidelity_k1),
                    repr(float(r[0])), repr(float(r[1])), repr(float(r[2])),
                ))


def gain_variation_sweep(grid, pump, medium, poling, base_target=5.0,
                         span=(0.5, 1.5), points=21, jobs=1):
    """Sweep the second-pass gain around the matched double pass.

    The base gain is tuned so the equal-gain double pass reaches base_target
    signal photons; base_target None keeps pump.g0 untuned and takes that
    pass's photon number as the base.  solve_increasing then finds the sweep
    endpoints, the second-pass scales at which the photon number hits
    span[0] * base_target and span[1] * base_target, searching up from
    [0, 1].  The scale axis is sampled linearly in between.  Each point
    records the photon number, the first-squeezer input/output fidelity, and
    the top of the r spectrum.  Every pass pairs the forward pass at the base
    gain with one return trip, and the searches' and the rows' forward and
    return passes come from compose's memo, so each scale is composed once.
    Raises ConfigError unless base_target exceeds the tolerance 1e-6 * max(1, base_target).
    """
    if points < 1:
        raise ConfigError("sweep needs at least one point")
    tuned = base_target is not None
    if not tuned:
        base_target, _ = double_pass(grid, pump, medium, poling).mean_photons()
    tol = 1e-6 * max(1.0, base_target)
    if not base_target > tol:
        raise ConfigError("base target %g photons is within the sweep tolerance %g "
                          "of zero" % (base_target, tol))
    if tuned:
        g0, _ = tune_gain(grid, pump, medium, poling, base_target, double=True, tol=tol)
        pump = replace(pump, g0=g0)

    @functools.lru_cache(maxsize=None)
    def ns_at(scale):
        return double_pass(grid, pump, medium, poling, gain2_scale=scale).mean_photons()[0]

    # Both searches evaluate scales 0 and 1 first; the cache shares them.
    s_lo, _ = solve_increasing(ns_at, span[0] * base_target, 0.0, 1.0, tol)
    s_hi, _ = solve_increasing(ns_at, span[1] * base_target, 0.0, 1.0, tol)
    # The equal-gain point is the reference (identical passes), so for an odd
    # point count the ladder is built as two half-ramps meeting at scale 1.
    if points % 2 and s_lo < 1.0 < s_hi:
        half = (points - 1) // 2
        scales = np.concatenate([
            np.linspace(s_lo, 1.0, half + 1),
            np.linspace(1.0, s_hi, half + 1)[1:],
        ])
    else:
        scales = np.linspace(s_lo, s_hi, points)

    def run_point(scale):
        prop = double_pass(grid, pump, medium, poling, gain2_scale=scale)
        ns, _ = prop.mean_photons()
        decomp = decompose(prop, grid)
        sig_out, sig_in = (decomp.pair_modes(0, d)[0] for d in ("out", "in"))
        return SweepPoint(gain2_scale=float(scale), mean_ns=float(ns),
                          fidelity_k1=mode_fidelity(sig_out, sig_in), r=decomp.r.copy())

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by a serial sweep

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_point, scales))
    else:
        results = [run_point(s) for s in scales]
    return SweepResult(points=results)


def subspace_overlaps(U_a, U_b, values, value_rtol=1e-6, active=None):
    """Worst-case column overlaps between two bases, degeneracy aware.

    Columns are grouped into clusters of equal `values` (relative tolerance);
    within a cluster the individual columns of the two bases are only defined
    up to unitary mixing, so the comparison uses the singular values of the
    cross-overlap block, read off its real embedding: their squared minimum
    is the worst overlap any mode of the cluster can achieve.  Returns a
    list of (cluster_indices, min_overlap_squared).  `active` optionally
    masks columns out entirely.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if U_a.shape[1] != m or U_b.shape[1] != m:
        raise ConfigError("basis widths do not match the value vector")
    if active is None:
        active = np.ones(m, dtype=bool)
    out = []
    i = 0
    while i < m:
        j = i + 1
        while j < m and abs(values[j] - values[i]) <= value_rtol * max(1.0, abs(values[i])):
            j += 1
        idx = [p for p in range(i, j) if active[p]]
        if idx:
            cross = U_a[:, idx].conj().T @ U_b[:, idx]
            # its real embedding has each of its singular values twice, and
            # takes no complex LAPACK call
            sigma = np.linalg.svd(embed_unitary(cross), compute_uv=False)
            out.append((idx, float(sigma[-1] ** 2)))
        i = j
    return out


@dataclass(frozen=True)
class JsaOracle:
    """Low-gain pair amplitude and its Schmidt data on the propagation grid."""

    jsa: np.ndarray
    schmidt_coeffs: np.ndarray
    signal_modes: np.ndarray
    idler_modes: np.ndarray

    @property
    def purity(self):
        """sum c_k^4: heralded-state purity of the normalized coefficients."""
        return float(np.sum(self.schmidt_coeffs**4))


def lowgain_jsa_oracle(grid, pump, medium, poling):
    """First-order pair amplitude J and its Schmidt decomposition.

    J_{nm} = Phi(dk_S(omega_n) + dk_I(omega_m)) * pump_amplitude(omega_n +
    omega_m) with Phi the phase-matching function of the poling as
    propagated; the SVD of J gives the low-gain Schmidt coefficients
    (normalized to unit square sum) and the signal/idler mode functions.
    The overall gain scale drops out, only the shape is meaningful.
    """
    d = grid.detunings
    dk = medium.kappa_signal * d[:, None] + medium.kappa_idler * d[None, :]
    J = pmf(poling, dk) * pump_amplitude(pump, d[:, None] + d[None, :])
    scale = np.linalg.norm(J)
    if scale == 0.0:
        raise ConfigError("pair amplitude is identically zero")
    U, s, V = numerics.svd(J)
    coeffs = s / np.linalg.norm(s)
    return JsaOracle(
        jsa=J, schmidt_coeffs=coeffs, signal_modes=U, idler_modes=V.conj(),
    )
