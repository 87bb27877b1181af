"""Acceptance battery at bench scale (101 bins, 169-domain grating).

One test per headline property, each printing a single pass/fail line with
the governing number; run with -s to see them on passing runs.  Shared
propagators and tuned gains come from the session fixture in conftest.
"""

import numpy as np
import pytest

from twinbeam import (
    MediumSpec,
    Poling,
    PumpSpec,
    compose,
    decompose,
    gain_variation_sweep,
    general_block_route,
    lowgain_jsa_oracle,
    mean_photons,
    mode_fidelity,
    flip_overlap,
    structure_checks,
    subspace_overlaps,
    svd_route,
    symmetrized_eig_route,
    symplectic_residual,
    tune_gain,
    two_mode_rearrange,
    qpm_poling,
)

from conftest import BENCH_L, BENCH_N

POLINGS = ("apodized", "unpoled", "qpm")


def report(label, ok, detail):
    print("%s: %s (%s)" % (label, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (label, detail)


def first_pair_fidelity(decomp):
    worst = 1.0
    for beam in (0, 1):
        m_out = decomp.pair_modes(0, "out")[beam]
        m_in = decomp.pair_modes(0, "in")[beam]
        worst = min(worst, mode_fidelity(m_out, m_in))
    return worst


def test_1_double_pass_modes_coincide(lab):
    worst = 1.0
    for name in POLINGS:
        worst = min(worst, first_pair_fidelity(lab.decomp(name, double=True)))
    report("1 double-pass input/output mode match", worst >= 1.0 - 1e-6,
           "min fidelity %.12f over %s" % (worst, ", ".join(POLINGS)))


def test_2_single_pass_modes_differ_but_flip(lab):
    worst_fid = 0.0
    worst_flip = 1.0
    for name in POLINGS:
        # intrinsic mode chirp: compare with the passive rotation removed
        fid = first_pair_fidelity(lab.decomp(name, remove_free_phase=True))
        worst_fid = max(worst_fid, fid)
        raw = lab.decomp(name)
        sig_in, _ = raw.pair_modes(0, "in")
        sig_out, _ = raw.pair_modes(0, "out")
        worst_flip = min(worst_flip, flip_overlap(sig_in, sig_out))
    ok = worst_fid <= 0.99 and worst_flip >= 1.0 - 1e-6
    report("2 single-pass mismatch with flip structure", ok,
           "max fidelity %.6f, min flip overlap %.12f" % (worst_fid, worst_flip))


def test_3_second_pass_gain_robustness(lab):
    sweep = gain_variation_sweep(lab.grid, lab.pump, lab.medium,
                                 lab.poling_for("apodized"), base_target=5.0,
                                 span=(0.5, 1.5), points=21)
    ns = np.array([p.mean_ns for p in sweep.points])
    fid = np.array([p.fidelity_k1 for p in sweep.points])
    ok = (len(sweep.points) == 21 and abs(ns[0] - 2.5) < 1e-4
          and abs(ns[-1] - 7.5) < 1e-4 and float(np.min(fid)) > 0.99)
    report("3 gain robustness across +/-50% photon number", ok,
           "N_S %.4f..%.4f, min fidelity %.6f" % (ns[0], ns[-1], np.min(fid)))


def test_4_velocity_mismatch_breaks_the_match(lab):
    fid = first_pair_fidelity(lab.decomp("skew", double=True))
    report("4 double pass without matched walk-offs", fid < 0.99,
           "fidelity %.6f" % fid)


def test_5_decomposition_contracts_on_all_configs(lab):
    configs = [(n, False) for n in POLINGS] + [(n, True) for n in POLINGS]
    configs.append(("skew", True))
    worst = {"symplectic": 0.0, "recon": 0.0, "pairs": 0.0, "factor": 0.0,
             "balance": 0.0}
    for name, double in configs:
        S = lab.propagator(name, double=double).matrix
        d = lab.decomp(name, double=double)
        smax = float(np.max(np.abs(S)))
        worst["symplectic"] = max(worst["symplectic"], symplectic_residual(S))
        D = np.diag(np.concatenate([d.lam, 1.0 / d.lam]))
        recon = float(np.max(np.abs(d.O @ D @ d.O_tilde.T - S))) / smax
        worst["recon"] = max(worst["recon"], recon)
        pair = float(np.max(np.abs(d.lam[0::2] - d.lam[1::2])
                            / np.maximum(1.0, d.lam[0::2])))
        worst["pairs"] = max(worst["pairs"], pair)
        eye = np.eye(4 * BENCH_N)
        for M in (d.O, d.O_tilde):
            worst["factor"] = max(worst["factor"],
                                  float(np.max(np.abs(M.T @ M - eye))),
                                  symplectic_residual(M))
        ns, ni = mean_photons(S, BENCH_N)
        worst["balance"] = max(worst["balance"], abs(ns - ni) / abs(ns))
    ok = (worst["symplectic"] <= 1e-9 and worst["recon"] <= 1e-8
          and worst["pairs"] <= 1e-8 and worst["factor"] <= 1e-9
          and worst["balance"] <= 1e-8)
    report("5 decomposition contracts on all 7 configs", ok,
           "symplectic %.2e, recon %.2e, pairs %.2e, factor %.2e, "
           "N_S balance %.2e" % (worst["symplectic"], worst["recon"],
                                 worst["pairs"], worst["factor"],
                                 worst["balance"]))


def test_6_analytic_routes_match_generic(lab):
    skew_medium = lab.medium_skew
    skew_pump = PumpSpec(sigma=1.0, g0=2.0)
    runs = [
        ("symmetrized unpoled", lambda: symmetrized_eig_route(
            lab.grid, lab.pump_at("unpoled"), lab.medium,
            lab.poling_for("unpoled")), lab.decomp("unpoled")),
        ("symmetrized qpm", lambda: symmetrized_eig_route(
            lab.grid, lab.pump_at("qpm"), lab.medium, lab.poling_for("qpm")),
            lab.decomp("qpm")),
        ("svd apodized", lambda: svd_route(
            lab.grid, lab.pump_at("apodized"), lab.medium,
            lab.poling_for("apodized")), lab.decomp("apodized")),
        ("svd double", lambda: svd_route(
            lab.grid, lab.pump_at("apodized", double=True), lab.medium,
            lab.poling_for("apodized"), double=True),
            lab.decomp("apodized", double=True)),
        ("general skew", lambda: general_block_route(
            lab.grid, skew_pump, skew_medium, Poling.unpoled(BENCH_L)),
            decompose(compose(lab.grid, skew_pump, skew_medium,
                              Poling.unpoled(BENCH_L)), lab.grid)),
    ]
    worst_dr = 0.0
    worst_ov = 1.0
    for label, route_fn, ref in runs:
        U_out, U_in, r = two_mode_rearrange(route_fn())
        worst_dr = max(worst_dr, float(np.max(np.abs(r - ref.r))))
        active = np.repeat(ref.r > 1e-6, 2)
        values = np.repeat(ref.r, 2)
        for U_a, U_b in ((U_out, ref.U_out), (U_in, ref.U_in)):
            for _, ov in subspace_overlaps(U_a, U_b, values, active=active):
                worst_ov = min(worst_ov, ov)
    ok = worst_dr <= 1e-8 and worst_ov >= 1.0 - 1e-8
    report("6 analytic routes vs generic factorization", ok,
           "max |dr| %.2e, worst mode overlap 1-%.2e over 5 routes"
           % (worst_dr, 1.0 - worst_ov))


def test_7_lowgain_matches_pair_amplitude_oracle(lab):
    target = 1e-3
    g0 = lab.g0("apodized", target=target, tol=1e-9)
    decomp = lab.decomp("apodized", target=target)
    oracle = lowgain_jsa_oracle(lab.grid, lab.pump_at("apodized", target=target),
                                lab.medium, lab.poling_for("apodized"))
    c = oracle.schmidt_coeffs
    kmax = int(np.sum(c > 1e-6 * c[0]))
    worst_fid = 1.0
    for k in range(int(np.sum(c > 1e-3 * c[0]))):
        sig, idl = decomp.pair_modes(k, "out")
        worst_fid = min(
            worst_fid,
            mode_fidelity(sig.amplitudes, oracle.signal_modes[:, k]),
            mode_fidelity(idl.amplitudes, oracle.idler_modes[:, k]),
        )
    rn = decomp.r[:kmax] / np.linalg.norm(decomp.r[:kmax])
    cn = c[:kmax] / np.linalg.norm(c[:kmax])
    spec_err = float(np.max(np.abs(rn - cn))) / float(np.max(cn))
    ok = worst_fid >= 0.999 and spec_err <= 0.01
    report("7 low-gain structure vs pair-amplitude oracle", ok,
           "N_S 1e-3 at g0 %.6f: min mode fidelity %.8f, spectrum error "
           "%.2e over %d modes" % (g0, worst_fid, spec_err, kmax))


def test_8_gain_tuning_hits_target(lab):
    g0, achieved = tune_gain(lab.grid, lab.pump, lab.medium,
                             lab.poling_for("apodized"), 10.5)
    report("8 gain tuning to 10.5 photons", abs(achieved - 10.5) <= 1e-4,
           "achieved %.8f at g0 %.6f" % (achieved, g0))


def test_9_model_symmetries(lab):
    single = structure_checks(lab.grid, lab.pump, lab.medium,
                              Poling.unpoled(BENCH_L))
    qpm = structure_checks(lab.grid, lab.pump, lab.medium,
                           qpm_poling(BENCH_L, 2.0 * BENCH_L / 9.0))
    ok = (single["f_centrosymmetry_residual"] <= 1e-14 * single["f_max"]
          and single["block_symmetry_residual"] <= 1e-9
          and qpm["block_symmetry_residual"] <= 1e-9
          and (single["flip_even"], single["flip_odd"]) == (BENCH_N, BENCH_N)
          and (qpm["flip_even"], qpm["flip_odd"]) == (BENCH_N, BENCH_N))
    report("9 pump/propagator symmetries and flip classes", ok,
           "F centro %.2e of %.2e, block sym %.2e / %.2e, classes %d/%d"
           % (single["f_centrosymmetry_residual"], single["f_max"],
              single["block_symmetry_residual"], qpm["block_symmetry_residual"],
              single["flip_even"], single["flip_odd"]))
