"""Diagnostics: fidelities, overlaps, the gain sweep, and the low-gain oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (
    MediumSpec,
    Poling,
    PumpSpec,
    apodized_poling,
    build_grid,
    decompose,
    default_half_width,
    demodulate_poling,
    double_pass,
    flip_overlap,
    gain_variation_sweep,
    lowgain_jsa_oracle,
    mode_fidelity,
    qpm_poling,
    subspace_overlaps,
    tune_gain,
)
from twinbeam import analysis
from twinbeam.blochmessiah import SchmidtMode
from twinbeam.errors import ConfigError

N = 9
L = 1.0


def small_setup(g0=1.0):
    return build_grid(N, 5.0), PumpSpec(g0=g0), \
        MediumSpec(8.0, -8.0, L)


def rand_vec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def haar(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_mode(amplitudes, beam="signal", r=0.3):
    return SchmidtMode(beam=beam, r=r, amplitudes=np.asarray(amplitudes, dtype=complex))


# ---------------------------------------------------------------- fidelities

def test_mode_fidelity_self_and_orthogonal():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    assert mode_fidelity(u, u) == 1.0
    assert mode_fidelity(u, v) == 0.0


def test_mode_fidelity_normalizes_and_symmetric():
    rng = np.random.default_rng(5)
    u, v = rand_vec(rng, 7), rand_vec(rng, 7)
    assert abs(mode_fidelity(3.0 * u, u) - 1.0) < 1e-14
    assert abs(mode_fidelity(u, v) - mode_fidelity(v, u)) < 1e-15


@given(theta=st.floats(-np.pi, np.pi))
@settings(max_examples=40, deadline=None)
def test_mode_fidelity_phase_invariant(theta):
    rng = np.random.default_rng(11)
    u, v = rand_vec(rng, 6), rand_vec(rng, 6)
    assert abs(mode_fidelity(u, np.exp(1j * theta) * v)
               - mode_fidelity(u, v)) < 1e-14


def test_mode_fidelity_accepts_schmidt_modes():
    rng = np.random.default_rng(7)
    a = rand_vec(rng, 2 * N)
    assert abs(mode_fidelity(make_mode(a), make_mode(2j * a)) - 1.0) < 1e-14


def test_mode_fidelity_bad_inputs():
    with pytest.raises(ConfigError):
        mode_fidelity(np.ones(3), np.ones(4))
    with pytest.raises(ConfigError):
        mode_fidelity(np.zeros(3), np.ones(3))


def test_flip_overlap_of_reversed_mode_is_one():
    rng = np.random.default_rng(3)
    u = rand_vec(rng, 11)
    assert abs(flip_overlap(u, u[::-1]) - 1.0) < 1e-14


def test_flip_overlap_manual_formula():
    rng = np.random.default_rng(13)
    a, b = rand_vec(rng, 8), rand_vec(rng, 8)
    an = a / np.linalg.norm(a)
    bn = b / np.linalg.norm(b)
    expect = abs(np.sum(bn[::-1] * np.conj(an))) ** 2
    assert abs(flip_overlap(a, b) - expect) < 1e-14


def test_flip_overlap_reads_schmidt_modes_own_beam_amplitudes():
    rng = np.random.default_rng(17)
    own = rand_vec(rng, N)
    m_in = make_mode(own)
    m_out = make_mode(own[::-1])
    assert abs(flip_overlap(m_in, m_out) - 1.0) < 1e-14


def test_flip_overlap_rejects_beam_mismatch():
    rng = np.random.default_rng(19)
    a, b = rand_vec(rng, N), rand_vec(rng, N)
    with pytest.raises(ConfigError):
        flip_overlap(make_mode(a, beam="signal"), make_mode(b, beam="idler"))


def test_mode_fidelity_rejects_beam_mismatch():
    # each mode holds its own beam's N amplitudes, so a signal and an idler
    # mode of one shape no longer overlap by zero through disjoint support
    rng = np.random.default_rng(23)
    a, b = rand_vec(rng, N), rand_vec(rng, N)
    with pytest.raises(ConfigError, match="one beam"):
        mode_fidelity(make_mode(a, beam="signal"), make_mode(b, beam="idler"))


# ---------------------------------------------------------------- subspace overlaps

def test_subspace_overlaps_identical_bases():
    rng = np.random.default_rng(37)
    U = haar(rng, 4)
    out = subspace_overlaps(U, U, [4.0, 3.0, 2.0, 1.0])
    assert [idx for idx, _ in out] == [[0], [1], [2], [3]]
    assert all(ov > 1.0 - 1e-14 for _, ov in out)


def test_subspace_overlaps_degenerate_mixing_tolerated():
    rng = np.random.default_rng(41)
    U_a = haar(rng, 4)
    theta = 0.7
    mix = np.eye(4, dtype=complex)
    mix[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                   [np.sin(theta), np.cos(theta)]]
    U_b = U_a @ mix
    clustered = subspace_overlaps(U_a, U_b, [3.0, 3.0, 1.0, 0.5])
    assert all(ov > 1.0 - 1e-12 for _, ov in clustered)
    # with distinct values the same rotation is a genuine disagreement
    distinct = subspace_overlaps(U_a, U_b, [3.0, 2.0, 1.0, 0.5])
    assert distinct[0][1] < np.cos(theta) ** 2 + 1e-12


def test_subspace_overlaps_active_mask():
    rng = np.random.default_rng(43)
    U_a = haar(rng, 3)
    U_b = U_a.copy()
    U_b[:, 2] = haar(rng, 3)[:, 0]  # ruin an inactive column
    out = subspace_overlaps(U_a, U_b, [2.0, 1.5, 0.0],
                            active=np.array([True, True, False]))
    assert [idx for idx, _ in out] == [[0], [1]]
    assert all(ov > 1.0 - 1e-14 for _, ov in out)


@pytest.mark.parametrize("seed", range(12))
def test_subspace_overlaps_match_the_complex_svd_in_real_arithmetic(monkeypatch, seed):
    # random complex clusters of width 1-3, each read off the singular values
    # of its cross block's real embedding, which takes only a real SVD
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 4, size=4)
    values = np.repeat(np.arange(widths.size, 0, -1.0), widths)
    U_a, U_b = (haar(rng, 12)[:, :values.size] for _ in range(2))
    svd, kinds = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda M, **kw: kinds.append(M.dtype.kind) or svd(M, **kw))
    out = subspace_overlaps(U_a, U_b, values)
    assert kinds and set(kinds) == {"f"}
    assert [len(idx) for idx, _ in out] == list(widths)
    for idx, overlap in out:
        cross = U_a[:, idx].conj().T @ U_b[:, idx]
        assert abs(overlap - svd(cross, compute_uv=False)[-1] ** 2) <= 1e-15


def test_subspace_overlaps_bad_widths():
    with pytest.raises(ConfigError):
        subspace_overlaps(np.eye(3), np.eye(3), [1.0, 2.0])


# ---------------------------------------------------------------- gain sweep

def test_gain_variation_sweep_small():
    grid, pump, medium = small_setup()
    poling = Poling.unpoled(L)
    sweep = gain_variation_sweep(grid, pump, medium, poling,
                                 base_target=0.5, span=(0.5, 1.5), points=5)
    assert len(sweep.points) == 5
    ns = np.array([p.mean_ns for p in sweep.points])
    scales = np.array([p.gain2_scale for p in sweep.points])
    assert np.all(np.diff(scales) > 0)
    assert scales[2] == 1.0
    assert np.all(np.diff(ns) > 0)
    assert abs(ns[0] - 0.25) < 1e-5
    assert abs(ns[-1] - 0.75) < 1e-5
    assert abs(ns[2] - 0.5) < 1e-5
    # identical passes: the first squeezer reenters its own input mode
    assert sweep.points[2].fidelity_k1 > 1.0 - 1e-8
    assert all(p.fidelity_k1 <= 1.0 + 1e-12 for p in sweep.points)


def test_gain_variation_sweep_builds_the_forward_pass_once(monkeypatch, compose_evaluations):
    # each sweep point pairs the one tuned forward pass with its return trip
    grid, pump, medium = small_setup()
    tuned = []

    def recording_tune_gain(*args, **kwargs):
        tuned.append(tune_gain(*args, **kwargs))
        return tuned[-1]

    monkeypatch.setattr(analysis, "tune_gain", recording_tune_gain)
    sweep = gain_variation_sweep(grid, pump, medium, Poling.unpoled(L),
                                 base_target=0.5, span=(0.5, 1.5), points=5)
    # the sweep's passes at the tuned gain are the one tuning composed there
    (g0, _), = tuned
    assert sweep.points and compose_evaluations.count(g0) == 1


def test_gain_variation_sweep_keeps_a_fixed_gain_untuned(monkeypatch):
    # base_target None: the base is the photon number at pump.g0, below 1 too
    grid, pump, medium = small_setup()
    poling = Poling.unpoled(L)
    monkeypatch.setattr(analysis, "tune_gain", None)  # never called
    for g0 in (0.4, 1.3):
        base = replace(pump, g0=g0)
        sweep = gain_variation_sweep(grid, base, medium, poling, base_target=None,
                                     span=(0.9, 1.1), points=3)
        matched = double_pass(grid, base, medium, poling).mean_photons()[0]
        assert sweep.points[1].gain2_scale == 1.0
        assert sweep.points[1].mean_ns == matched


def test_gain_variation_sweep_threaded_matches_serial():
    grid, pump, medium = small_setup()
    poling = Poling.unpoled(L)
    kw = dict(base_target=0.3, span=(0.8, 1.2), points=3)
    serial = gain_variation_sweep(grid, pump, medium, poling, jobs=1, **kw)
    threaded = gain_variation_sweep(grid, pump, medium, poling, jobs=3, **kw)
    for a, b in zip(serial.points, threaded.points):
        assert a.gain2_scale == b.gain2_scale
        assert abs(a.mean_ns - b.mean_ns) < 1e-12
        assert abs(a.fidelity_k1 - b.fidelity_k1) < 1e-12


def test_gain_variation_sweep_csv(tmp_path):
    grid, pump, medium = small_setup()
    sweep = gain_variation_sweep(grid, pump, medium, Poling.unpoled(L),
                                 base_target=0.3, span=(0.9, 1.1), points=3)
    path = tmp_path / "sweep.csv"
    sweep.to_csv(path)
    rows = np.genfromtxt(path, delimiter=",", names=True)
    assert rows.dtype.names == ("gain2_scale", "mean_NS", "fidelity_k1",
                                "r1", "r2", "r3")
    assert rows.shape == (3,)
    np.testing.assert_allclose(rows["mean_NS"],
                               [p.mean_ns for p in sweep.points], rtol=1e-15)


def test_gain_variation_sweep_rejects_empty():
    grid, pump, medium = small_setup()
    with pytest.raises(ConfigError):
        gain_variation_sweep(grid, pump, medium, Poling.unpoled(L), points=0)


@pytest.mark.parametrize("base_target", [0.0, 5e-7, -1.0])
def test_gain_variation_sweep_rejects_a_target_within_its_tolerance(base_target):
    # no matched point to sweep around: the tuned gain would be 0
    grid, pump, medium = small_setup()
    with pytest.raises(ConfigError, match="within the sweep tolerance 1e-06 of zero"):
        gain_variation_sweep(grid, pump, medium, Poling.unpoled(L),
                             base_target=base_target)


@pytest.mark.parametrize("points", [4, 1])
def test_gain_variation_sweep_even_point_count_hits_both_endpoints(points):
    # an even ladder has no scale-1 midpoint: one linear ramp between the
    # ends; a single point is the lower end
    grid, pump, medium = small_setup()
    sweep = gain_variation_sweep(grid, pump, medium, Poling.unpoled(L),
                                 base_target=0.5, span=(0.5, 1.5), points=points)
    scales = np.array([p.gain2_scale for p in sweep.points])
    ns = np.array([p.mean_ns for p in sweep.points])
    assert scales.size == points and 1.0 not in scales
    assert abs(ns[0] - 0.25) <= 1e-6
    if points > 1:
        np.testing.assert_allclose(np.diff(scales), (scales[-1] - scales[0]) / 3,
                                   rtol=1e-12)
        assert abs(ns[-1] - 0.75) <= 1e-6


@pytest.mark.parametrize("target", [1e-3, 1.0, 50.0, 5000.0])
def test_perfect_inline_squeezing_holds_across_gain(target):
    # matched walk-off: the double pass returns the first squeezer to its input
    # mode at any gain and for any grating; a 40% mismatch breaks that
    medium = MediumSpec(8.0, -8.0, L)
    grid, pump = build_grid(51, default_half_width(medium)), PumpSpec()
    apodized = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    cases = [(medium, apodized), (medium, Poling.unpoled(L)),
             (medium, qpm_poling(L, 2 * L / 9)),
             (MediumSpec(8.0, -4.8, L), apodized)]
    fidelities = []
    for m, poling in cases:
        g0, _ = tune_gain(grid, pump, m, poling, target, double=True,
                          tol=1e-6 * max(1.0, target))
        decomp = decompose(double_pass(grid, replace(pump, g0=g0), m, poling), grid)
        fidelities.append(mode_fidelity(decomp.pair_modes(0, "out")[0],
                                        decomp.pair_modes(0, "in")[0]))
    assert min(fidelities[:3]) >= 1.0 - 1e-6
    assert fidelities[3] < 0.99


# ---------------------------------------------------------------- low-gain oracle

def test_jsa_oracle_coefficients_normalized_descending():
    grid, pump, medium = small_setup()
    oracle = lowgain_jsa_oracle(grid, pump, medium, Poling.unpoled(L))
    c = oracle.schmidt_coeffs
    assert abs(np.sum(c**2) - 1.0) < 1e-12
    assert np.all(np.diff(c) <= 1e-15)
    assert 0.0 < oracle.purity <= 1.0


def test_jsa_oracle_gain_scale_drops_out():
    grid, _, medium = small_setup()
    a = lowgain_jsa_oracle(grid, PumpSpec(g0=1.0), medium, Poling.unpoled(L))
    b = lowgain_jsa_oracle(grid, PumpSpec(g0=3.7), medium, Poling.unpoled(L))
    np.testing.assert_allclose(a.schmidt_coeffs, b.schmidt_coeffs, atol=1e-12)
    np.testing.assert_allclose(b.jsa, 3.7 * a.jsa, rtol=1e-12)


def test_jsa_oracle_modes_reconstruct_the_amplitude():
    grid, pump, medium = small_setup()
    oracle = lowgain_jsa_oracle(grid, pump, medium, Poling.unpoled(L))
    s_raw = oracle.schmidt_coeffs * np.linalg.norm(oracle.jsa)
    recon = oracle.signal_modes @ np.diag(s_raw) @ oracle.idler_modes.T
    np.testing.assert_allclose(recon, oracle.jsa, atol=1e-12)


def test_jsa_oracle_rejects_dark_pump():
    grid, _, medium = small_setup()
    with pytest.raises(ConfigError):
        lowgain_jsa_oracle(grid, PumpSpec(g0=0.0), medium, Poling.unpoled(L))
