"""Batch front-end.

Subcommands: simulate (decompose one configured device), sweep-gain
(second-pass gain robustness), verify (invariant battery), poling
(grating generation and PMF evaluation).  Configuration is strict JSON;
unknown keys are rejected.  All outputs are deterministic: identical
configs produce byte-identical files.  Each command runs with every
OpenBLAS pool on one thread (numerics.one_blas_thread), which is faster at
these matrix sizes and keeps the files independent of the machine's thread
setting; the pools get their earlier counts back when the command ends.

Exit codes: 0 success, 2 configuration error, 3 numerical contract
violation.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .analysis import (
    flip_overlap, gain_variation_sweep, mode_fidelity, subspace_overlaps,
)
from .analytic import structure_checks, svd_route
from .blochmessiah import decompose, limit, pass_name, symplectic_tolerance, tune_gain
from .errors import ConfigError, ContractError, TwinbeamError
from .model import (
    FrequencyGrid, MediumSpec, Poling, PumpSpec, TabulatedEnvelope,
    apodized_poling, build_coupled_matrices, build_grid,
    default_half_width, demodulate_poling, load_poling, pmf, qpm_poling,
    save_poling,
)
from .numerics import one_blas_thread
from .propagator import (
    compose, double_pass, free_propagator, load_matrix, symplectic_residual,
)

__all__ = ["RunConfig", "load_config", "main"]

# Relative signal/idler photon-number imbalance allowed by verify.
PHOTON_BALANCE_TOL = 1e-8
# Most mismatch points poling eval writes (about 100 MB of pmf.csv).
MAX_DK_POINTS = 10**6
# Most gain points sweep-gain runs: each composes and decomposes one double
# pass (about 9 ms at the README's N = 101, so 1.5 min at the limit) and keeps
# its r spectrum (N floats, 0.33 GB at the limit on model.MAX_BINS bins).
MAX_SWEEP_POINTS = 10**4
# Empty the memos of compose and build_coupled_matrices; bound at import, as a
# wrapper over either has no cache_clear.
_clear_compose_memo = compose.cache_clear
_clear_matrices_memo = build_coupled_matrices.cache_clear


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with model objects already built."""

    grid: FrequencyGrid
    pump: PumpSpec
    target_ns: Optional[float]
    medium: MediumSpec
    device_poling: Poling
    sim_poling: Poling
    double: bool
    gain2_scale: float
    remove_free_phase: bool


def _check_keys(obj, allowed, required, context):
    if not isinstance(obj, dict):
        raise ConfigError("%s must be an object" % context)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError("%s: unknown keys %s" % (context, sorted(unknown)))
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError("%s: missing keys %s" % (context, sorted(missing)))


def _number(obj, key, context, default=None, positive=False):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError("%s: missing %s" % (context, key))
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("%s.%s must be a number" % (context, key))
    if not abs(v) <= sys.float_info.max:  # JSON's Infinity and NaN, or too large an integer
        raise ConfigError("%s.%s must be finite" % (context, key))
    if positive and not (v > 0):
        raise ConfigError("%s.%s must be positive" % (context, key))
    return float(v)


def _build_poling(cfg, medium, base_dir):
    """Returns (device grating, profile used for propagation)."""
    _check_keys(cfg, {"kind", "period", "domain_width", "pmf_width", "path"},
                {"kind"}, "poling")
    kind = cfg["kind"]
    L = medium.length
    if kind == "unpoled":
        _check_keys(cfg, {"kind"}, {"kind"}, "poling")
        device = Poling.unpoled(L)
        return device, device
    if kind == "qpm":
        _check_keys(cfg, {"kind", "period"}, {"kind", "period"}, "poling")
        device = qpm_poling(L, _number(cfg, "period", "poling", positive=True))
        return device, device
    if kind == "apodized":
        _check_keys(cfg, {"kind", "domain_width", "pmf_width"},
                    {"kind", "domain_width"}, "poling")
        width = _number(cfg, "domain_width", "poling", positive=True)
        pw = cfg.get("pmf_width")
        if pw is not None:
            pw = _number(cfg, "pmf_width", "poling", positive=True)
        device = apodized_poling(L, width, pw)
        # The grating alternates at the QPM carrier; the degenerate-operation
        # model sees the slow orientation profile, so propagation uses the
        # demodulated signs.  Files and PMF evaluation keep the carrier.
        return device, demodulate_poling(device)
    if kind == "file":
        _check_keys(cfg, {"kind", "path"}, {"kind", "path"}, "poling")
        path = cfg["path"]
        if not isinstance(path, str):
            raise ConfigError("poling.path must be a string")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        device = load_poling(path)
        if abs(device.length - L) > 1e-9 * max(device.length, L):
            raise ConfigError(
                "poling file spans %g but medium length is %g" % (device.length, L)
            )
        return device, device
    raise ConfigError("poling.kind must be unpoled, qpm, apodized or file")


def load_config(path):
    """Parse and validate a JSON run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config %s is not UTF-8 text: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from exc
    base_dir = os.path.dirname(os.path.abspath(path))
    _check_keys(raw, {"grid", "pump", "medium", "poling", "pass_mode", "options"},
                {"grid", "pump", "medium", "poling"}, "config")

    mcfg = raw["medium"]
    _check_keys(mcfg, {"vP", "vS", "vI", "L"}, {"vP", "vS", "vI", "L"}, "medium")
    inverse = {}  # walk-offs kappa_j = 1/v_j - 1/v_P are finite when these are
    for key in ("vP", "vS", "vI"):
        inverse[key] = 1.0 / _number(mcfg, key, "medium", positive=True)
        if np.isinf(inverse[key]):
            raise ConfigError("medium.%s = %r makes the walk-offs infinite" % (key, mcfg[key]))
    medium = MediumSpec(inverse["vS"] - inverse["vP"], inverse["vI"] - inverse["vP"],
                        _number(mcfg, "L", "medium", positive=True))

    pcfg = raw["pump"]
    _check_keys(pcfg, {"sigma", "g0", "target_NS", "envelope"}, set(), "pump")
    if ("g0" in pcfg) == ("target_NS" in pcfg):
        raise ConfigError("pump: exactly one of g0 / target_NS must be given")
    sigma = _number(pcfg, "sigma", "pump", default=1.0, positive=True)
    envelope = pcfg.get("envelope", "gaussian")
    if isinstance(envelope, dict):
        _check_keys(envelope, {"frequencies", "values", "frequency_symmetric"},
                    {"frequencies", "values"}, "pump.envelope")
        symmetric = envelope.get("frequency_symmetric", False)
        if not isinstance(symmetric, bool):
            raise ConfigError("pump.envelope.frequency_symmetric must be a boolean")
        envelope = TabulatedEnvelope(envelope["frequencies"], envelope["values"],
                                     frequency_symmetric=symmetric)
    elif envelope != "gaussian":
        raise ConfigError("pump.envelope must be \"gaussian\" or a table object")
    target_ns = None
    if "target_NS" in pcfg:
        target_ns = _number(pcfg, "target_NS", "pump", positive=True)
        g0 = 1.0
    else:
        g0 = _number(pcfg, "g0", "pump")
        if g0 < 0:
            raise ConfigError("pump.g0 must be nonnegative")
    pump = PumpSpec(sigma=sigma, g0=g0, envelope=envelope)

    gcfg = raw["grid"]
    _check_keys(gcfg, {"N", "half_width"}, {"N"}, "grid")
    n = gcfg["N"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError("grid.N must be an integer")
    if "half_width" in gcfg:
        half_width = _number(gcfg, "half_width", "grid", positive=True)
    else:
        half_width = default_half_width(medium, sigma)
    grid = build_grid(n, half_width=half_width)

    device, sim = _build_poling(raw["poling"], medium, base_dir)

    pm = raw.get("pass_mode", "single")
    if isinstance(pm, str):
        pm = {"kind": pm}
    _check_keys(pm, {"kind", "gain2_scale"}, {"kind"}, "pass_mode")
    if pm["kind"] not in ("single", "double"):
        raise ConfigError("pass_mode.kind must be single or double")
    double = pm["kind"] == "double"
    gain2_scale = _number(pm, "gain2_scale", "pass_mode", default=1.0)
    if not double and "gain2_scale" in pm:
        raise ConfigError("pass_mode: gain2_scale only applies to double")

    ocfg = raw.get("options", {})
    _check_keys(ocfg, {"remove_free_phase"}, set(), "options")
    remove_free_phase = ocfg.get("remove_free_phase", False)
    if not isinstance(remove_free_phase, bool):
        raise ConfigError("options.remove_free_phase must be a boolean")

    return RunConfig(
        grid=grid, pump=pump, target_ns=target_ns, medium=medium,
        device_poling=device, sim_poling=sim, double=double,
        gain2_scale=gain2_scale, remove_free_phase=remove_free_phase,
    )


def _resolve_pump(cfg):
    """(pump with a concrete g0, achieved N_S or None, device pass); a target tunes g0."""
    pump, achieved = cfg.pump, None
    if cfg.target_ns is not None:
        g0, achieved = tune_gain(
            cfg.grid, cfg.pump, cfg.medium, cfg.sim_poling, cfg.target_ns,
            double=cfg.double, gain2_scale=cfg.gain2_scale,
            tol=1e-6 * max(1.0, cfg.target_ns),
        )
        pump = replace(cfg.pump, g0=g0)
    prop = double_pass(cfg.grid, pump, cfg.medium, cfg.sim_poling, cfg.gain2_scale) \
        if cfg.double else compose(cfg.grid, pump, cfg.medium, cfg.sim_poling)
    return pump, achieved, prop


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _modes_csv(path, grid, pairs):
    """One row per bin of each mode of the (k, direction, (signal, idler)) pairs."""
    # "bin,omega_detuning" is the same for every mode; format it once.
    bins = ["%d,%r" % (b + 1, x) for b, x in enumerate(grid.detunings.tolist())]
    with open(path, "w") as fh:
        fh.write("k,beam,direction,bin,omega_detuning,re,im,r_k\n")
        for k, direction, modes in pairs:
            for mode in modes:
                amps = mode.amplitudes
                head = "%d,%s,%s," % (k + 1, mode.beam, direction)
                tail = ",%r\n" % float(mode.r)
                rows = map(",".join, zip(bins, map(repr, amps.real.tolist()),
                                         map(repr, amps.imag.tolist())))
                fh.write(head + (tail + head).join(rows) + tail)


def cmd_simulate(cfg, out_dir):
    pump, achieved, prop = _resolve_pump(cfg)
    # flip overlaps read the raw modes, fidelities and modes.csv the stripped
    # ones; decomposed first, as its input guard refuses a pass whose photon
    # count would overflow
    raw = decompose(prop, cfg.grid, pass_name(pump.g0, cfg.double))
    ns, ni = prop.mean_photons()
    decomp = raw.without_free_phase(cfg.grid, cfg.medium, cfg.double) \
        if cfg.remove_free_phase else raw

    squeezers, pairs = [], []
    for k in decomp.active_pairs():
        sig_in, idl_in = modes_in = decomp.pair_modes(k, "in")
        sig_out, idl_out = modes_out = decomp.pair_modes(k, "out")
        pairs += [(k, "in", modes_in), (k, "out", modes_out)]
        raw_out = sig_out if raw is decomp else raw.pair_modes(k, "out")[0]
        squeezers.append({
            "k": k + 1,
            "r": float(decomp.r[k]),
            "fidelity_signal": mode_fidelity(sig_out, sig_in),
            "fidelity_idler": mode_fidelity(idl_out, idl_in),
            "flip_overlap_signal": flip_overlap(sig_in, raw_out),
        })
    summary = {
        "mean_NS": float(ns),
        "mean_NI": float(ni),
        "symplectic_residual": prop.symplectic_residual,
        "reconstruction_residual": decomp.residuals["reconstruction"],
        "r": [sq["r"] for sq in squeezers],
        "squeezers": squeezers,
        "passive": not squeezers,
        "gain": {
            "g0": float(pump.g0),
            "target_NS": cfg.target_ns,
            "achieved_NS": achieved if achieved is None else float(achieved),
        },
        "pass_mode": "double" if cfg.double else "single",
        "remove_free_phase": cfg.remove_free_phase,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    _modes_csv(os.path.join(out_dir, "modes.csv"), cfg.grid, pairs)
    return summary


def _svg_plot(points, path, xlabel, ylabel):
    """Minimal polyline plot; points are (x, y) pairs already sorted by x."""
    width, height = 640, 400
    left, right, top, bottom = 70, 620, 30, 350
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):
        return left + (right - left) * (x - x0) / (x1 - x0)

    def sy(y):
        return bottom - (bottom - top) * (y - y0) / (y1 - y0)

    pts = " ".join("%.2f,%.2f" % (sx(x), sy(y)) for x, y in points)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">' % (width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (left, bottom, right, bottom),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (left, bottom, left, top),
    ]
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4.0
        fy = y0 + (y1 - y0) * i / 4.0
        lines.append(
            '<text x="%.2f" y="%d" font-size="12" text-anchor="middle">%.4g</text>'
            % (sx(fx), bottom + 18, fx)
        )
        lines.append(
            '<text x="%d" y="%.2f" font-size="12" text-anchor="end">%.6g</text>'
            % (left - 6, sy(fy) + 4, fy)
        )
    lines.append(
        '<text x="%d" y="%d" font-size="14" text-anchor="middle">%s</text>'
        % ((left + right) // 2, height - 8, xlabel)
    )
    lines.append(
        '<text x="16" y="%d" font-size="14" text-anchor="middle" '
        'transform="rotate(-90 16 %d)">%s</text>' % ((top + bottom) // 2, (top + bottom) // 2, ylabel)
    )
    lines.append('<polyline points="%s" fill="none" stroke="#1f77b4" stroke-width="2"/>' % pts)
    for x, y in points:
        lines.append('<circle cx="%.2f" cy="%.2f" r="3" fill="#1f77b4"/>' % (sx(x), sy(y)))
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def cmd_sweep_gain(cfg, out_dir, jobs, points):
    if not cfg.double:
        raise ConfigError("sweep-gain needs a double-pass configuration")
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1, got %d" % jobs)
    if not 1 <= points <= MAX_SWEEP_POINTS:
        raise ConfigError("--points must be between 1 and %d, got %d" % (MAX_SWEEP_POINTS, points))
    base = cfg.target_ns
    if base is None and cfg.gain2_scale != 1.0:  # the sweep tunes its equal gains to this
        base, _ = _resolve_pump(cfg)[2].mean_photons()
    result = gain_variation_sweep(  # base None: a fixed g0 is the base gain
        cfg.grid, cfg.pump, cfg.medium, cfg.sim_poling,
        base_target=base, points=points, jobs=jobs,
    )
    result.to_csv(os.path.join(out_dir, "sweep.csv"))
    curve = sorted((p.mean_ns, p.fidelity_k1) for p in result.points)
    _svg_plot(curve, os.path.join(out_dir, "sweep.svg"),
              "mean signal photons", "first-mode fidelity")
    return result


def _check(checks, name, value, threshold, ok=None):
    if ok is None:
        ok = bool(value <= threshold)
    if not (value is None or isinstance(value, (bool, str))):
        value = float(value)
        if not np.isfinite(value):  # strict JSON has no NaN or Infinity
            value = repr(value)
    checks.append({
        "name": name,
        "value": value,
        "threshold": threshold,
        "pass": bool(ok),
    })


def _route_checks(checks, decomp, lam, modes):
    """Compare svd_route's lam and (signal, idler) output modes of its k
    active squeezers with the pair route's, beam by beam: the active
    squeezers lead, as lam is descending, so the decomposition forms only
    its first k output mode columns (Decomposition.mode_columns) too.
    """
    r_gen = np.log(decomp.lam)
    _check(checks, "route_r_agreement", float(np.max(np.abs(r_gen - np.log(lam)))), 1e-8)
    k = modes[0].shape[1]
    worst = min((overlap for own, theirs in zip(decomp.mode_columns("out", np.s_[:k]), modes)
                 for _, overlap in subspace_overlaps(own, theirs, r_gen[0:2 * k:2])),
                default=1.0)
    _check(checks, "route_mode_overlap", 1.0 - worst, 1e-8)


def cmd_verify(cfg, out_dir, propagator_path):
    checks = []
    grid, medium = cfg.grid, cfg.medium
    pump, _, prop = _resolve_pump(cfg)
    n, name = grid.n, pass_name(pump.g0, cfg.double)

    report_struct = structure_checks(grid, pump, medium, cfg.sim_poling)
    matrices = build_coupled_matrices(grid, pump, medium, sign=1)
    F, g = matrices.F, matrices.g
    _check(checks, "F_symmetric", float(np.max(np.abs(F - F.T))), 0.0,
           ok=np.array_equal(F, F.T))
    if pump.frequency_symmetric:  # max|F - JFJ| of a finite F is 0 exactly when they are equal
        _check(checks, "F_centrosymmetric", report_struct["f_centrosymmetry_residual"], 0.0)
    _check(checks, "G_anticentrosymmetric", float(np.max(np.abs(g[::-1] + g))),
           0.0, ok=np.array_equal(g[::-1], -g))

    # max|S| of the 4N matrix S = embed(T), T = U Y U^H, read blockwise, and
    # each beam's vacuum photon count (||its rows of Y||_F^2 - N) / 2, one N x
    # 2N row block at a time: the 4N form's diag(S S^T) count (U is unitary
    # per beam), independent of prop.mean_photons, which reads only Y's
    # off-diagonal blocks
    smax = prop.matrix_max()
    # read off the small form once; decompose's input guard reuses it
    _check(checks, "propagator_symplectic", prop.symplectic_residual,
           symplectic_tolerance(smax, name))

    ns, ni = ((float(np.linalg.norm(np.hstack(rows)) ** 2) - n) / 2
              for rows in prop.pair_blocks())
    balance = abs(ns - ni) / max(1.0, abs(ns))
    _check(checks, "photon_balance", balance, PHOTON_BALANCE_TOL)

    # svd_route runs before the decomposition is held, and only its lam and
    # its active squeezers' output modes outlive it; its error, like the
    # decomposition's, is one failed check
    routed = None
    if medium.sgvm() and (not cfg.double or cfg.gain2_scale == 1.0):
        try:
            route = svd_route(grid, pump, medium, cfg.sim_poling, double=cfg.double)
        except ContractError as exc:
            _check(checks, "route_decomposition", str(exc), None, ok=False)
        else:
            routed = route.lam, route.mode_columns("out", np.s_[:len(route.active_pairs())])
            del route
    # nothing below reads a memoized pass (the zero-gain pass composes afresh),
    # so a double pass's forward pass is not held through the decomposition
    _clear_compose_memo()

    try:
        decomp = decompose(prop, grid, name)
        # away from SGVM media the pair route doubles lam itself: what it can
        # fail on is the reciprocal pairing of its Gram spectrum, reported last
        for name, value in decomp.residuals.items():
            _check(checks, "lam_pair_degeneracy" if name == "pairing" else "bm_" + name,
                   value, limit(name))
    except ContractError as exc:
        decomp = None
        _check(checks, "bm_decomposition", str(exc), None, ok=False)

    if routed is not None and decomp is not None:
        _route_checks(checks, decomp, *routed)
    del routed, decomp, prop  # nothing below reads the device pass

    # X A-hat is symmetric only when the propagation poling reads the same
    # reversed; other polings keep the residual under "structure" only.
    if medium.sgvm() and cfg.sim_poling == cfg.sim_poling.reversed_():
        _check(checks, "block_propagator_symmetry",
               report_struct["block_symmetry_residual"],
               1e-9 * max(1.0, smax))
        if report_struct["flip_even"] is not None:
            _check(checks, "flip_classes_balanced",
                   "%d/%d" % (report_struct["flip_even"], report_struct["flip_odd"]),
                   None, ok=report_struct["flip_even"] == report_struct["flip_odd"] == n)

    if cfg.double:
        zero = double_pass(grid, replace(pump, g0=0.0), medium, cfg.sim_poling)
        free = free_propagator(grid, medium, medium.length, double=True)
        _check(checks, "double_pass_zero_gain_free",
               float(np.max(np.abs(zero.exchange - free.exchange))), 1e-12)

    if propagator_path is not None:
        M = load_matrix(propagator_path)
        if M.shape[0] != M.shape[1] or M.shape[0] % 4:
            _check(checks, "file_propagator_shape", "%dx%d" % M.shape, None, ok=False)
        else:
            try:
                tol = symplectic_tolerance(float(np.max(np.abs(M))), propagator_path)
            except ContractError as exc:
                _check(checks, "file_propagator_symplectic", str(exc), None, ok=False)
            else:
                _check(checks, "file_propagator_symplectic", symplectic_residual(M), tol)

    report = {
        "checks": checks,
        "failed": [c["name"] for c in checks if not c["pass"]],
        "structure": report_struct,
    }
    _write_json(os.path.join(out_dir, "verify.json"), report)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if report["failed"]:
        raise ContractError("invariants failed: %s" % ", ".join(report["failed"]))
    return report


def cmd_poling(cfg, out_dir, action, dk_max, dk_points):
    device = cfg.device_poling
    if action == "gen":
        path = os.path.join(out_dir, "poling.txt")
        save_poling(device, path)
        return path
    if action == "eval":
        if dk_max is None:
            dk_max = max(1.5 * np.pi / float(np.min(device.widths)), 40.0 / device.length)
        if not (np.isfinite(dk_max) and dk_max > 0):
            raise ConfigError("--dk-max must be positive and finite, got %r" % dk_max)
        if not 2 <= dk_points <= MAX_DK_POINTS:
            raise ConfigError("--dk-points must be between 2 and %d, got %d"
                              % (MAX_DK_POINTS, dk_points))
        dk = np.linspace(-dk_max, dk_max, dk_points)
        phi = pmf(device, dk)
        path = os.path.join(out_dir, "pmf.csv")
        with open(path, "w") as fh:
            fh.write("dk,re,im,abs\n")
            for x, z in zip(dk, phi):
                fh.write("%r,%r,%r,%r\n" % (float(x), float(z.real), float(z.imag),
                                            float(abs(z))))
        return path
    raise ConfigError("poling action must be gen or eval")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="Twin-beam squeezer simulation and mode decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("simulate", help="decompose the configured device")
    common(p)
    p = sub.add_parser("sweep-gain", help="second-pass gain robustness sweep")
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep points")
    p.add_argument("--points", type=int, default=21, help="sweep point count")
    p = sub.add_parser("verify", help="run the invariant battery")
    common(p)
    p.add_argument("--propagator", default=None,
                   help="matrix file to check for symplecticity")
    p = sub.add_parser("poling", help="generate or evaluate a grating")
    p.add_argument("action", choices=["gen", "eval"])
    common(p)
    p.add_argument("--dk-max", type=float, default=None,
                   help="half-width of the mismatch window for eval")
    p.add_argument("--dk-points", type=int, default=801)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    _clear_compose_memo()  # no pass composed before this command reaches its files
    _clear_matrices_memo()
    try:
        with one_blas_thread():
            cfg = load_config(args.config)
            out_dir = args.out or "."
            os.makedirs(out_dir, exist_ok=True)
            if args.command == "simulate":
                cmd_simulate(cfg, out_dir)
            elif args.command == "sweep-gain":
                cmd_sweep_gain(cfg, out_dir, jobs=args.jobs, points=args.points)
            elif args.command == "verify":
                cmd_verify(cfg, out_dir, propagator_path=args.propagator)
            elif args.command == "poling":
                cmd_poling(cfg, out_dir, args.action,
                           dk_max=args.dk_max, dk_points=args.dk_points)
        return 0
    except ConfigError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 2
    except TwinbeamError as exc:
        sys.stderr.write("contract violation: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
