"""Grids, pump spectra, media, poling constructors and the coupling matrices."""

import re

import numpy as np
import pytest
import scipy.integrate

from twinbeam import (
    MediumSpec,
    Poling,
    PumpSpec,
    TabulatedEnvelope,
    apodized_poling,
    build_coupled_matrices,
    build_generator,
    build_grid,
    default_half_width,
    demodulate_poling,
    flip_matrix,
    load_poling,
    pmf,
    pump_amplitude,
    qpm_poling,
    save_poling,
)
from twinbeam import model
from twinbeam.errors import ConfigError
from twinbeam.numerics import expm


def test_flip_matrix():
    J = flip_matrix(4)
    np.testing.assert_array_equal(J @ J, np.eye(4))
    np.testing.assert_array_equal(J @ np.arange(4.0), np.arange(4.0)[::-1])


# ---------------------------------------------------------------- grid

def test_build_grid_three_bins():
    g = build_grid(3, 1.0)
    np.testing.assert_array_equal(g.detunings, [-1.0, 0.0, 1.0])
    assert g.spacing == 1.0


def test_grid_mirror_symmetry_is_exact():
    # d_i + d_{N-1-i} = 0 bitwise, by integer index construction
    for n in (3, 16, 101, 501):
        g = build_grid(n, 3.7)
        assert np.all(g.detunings + g.detunings[::-1] == 0.0)
        assert g.detunings.size == n


def test_build_grid_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        build_grid(2, 1.0)
    with pytest.raises(ConfigError, match="above the limit"):
        build_grid(model.MAX_BINS + 1, 1.0)
    with pytest.raises(ConfigError):
        build_grid(5, 0.0)


def test_default_half_width():
    strong = MediumSpec(8.0, -8.0, 1.0)
    assert default_half_width(strong) == 5.0
    weak = MediumSpec(0.5, -0.5, 1.0)
    assert default_half_width(weak) == pytest.approx(10.0)


# ---------------------------------------------------------------- pump

def test_pump_amplitude_peak_and_width():
    p = PumpSpec(sigma=1.0, g0=1.0)
    peak = (np.pi * 1.0) ** (-0.25)
    assert pump_amplitude(p, 0.0) == pytest.approx(peak, rel=1e-15)
    assert pump_amplitude(p, 1.0) == pytest.approx(peak * np.exp(-0.5), rel=1e-14)
    assert pump_amplitude(p, -1.0) == pump_amplitude(p, 1.0)


def test_pump_amplitude_even_about_center():
    p = PumpSpec(sigma=0.7, g0=2.0)
    x = np.linspace(0.0, 5.0, 11)
    np.testing.assert_array_equal(pump_amplitude(p, x), pump_amplitude(p, -x))


def test_pump_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        PumpSpec(sigma=0.0)
    for sigma in (1e160, 1e-200, np.inf):  # sigma^2 overflows or underflows to 0
        with pytest.raises(ConfigError, match="pump.sigma"):
            PumpSpec(sigma=sigma)
    for sigma in (1e150, 1e-150):
        assert pump_amplitude(PumpSpec(sigma=sigma), 0.0) > 0.0
    with pytest.raises(ConfigError):
        PumpSpec(g0=np.nan)
    with pytest.raises(ConfigError):
        PumpSpec(envelope="lorentzian")


def test_tabulated_envelope_interpolation():
    env = TabulatedEnvelope([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    p = PumpSpec(sigma=1.0, g0=0.5, envelope=env)
    assert pump_amplitude(p, 0.5) == pytest.approx(0.5 * 1.0)
    assert pump_amplitude(p, 3.0) == 0.0  # zero outside the table
    assert not p.frequency_symmetric


def test_tabulated_envelope_symmetry_flag_is_validated():
    TabulatedEnvelope([-1.0, 0.0, 1.0], [0.5, 2.0, 0.5], frequency_symmetric=True)
    with pytest.raises(ConfigError):
        TabulatedEnvelope([-1.0, 0.0, 1.0], [0.5, 2.0, 0.6], frequency_symmetric=True)
    with pytest.raises(ConfigError):
        TabulatedEnvelope([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])  # not increasing


def test_declared_even_table_is_read_folded_about_its_center():
    f = np.linspace(-12.0, 12.0, 241)
    even = TabulatedEnvelope(f, np.exp(-(f ** 2) / 2.0), frequency_symmetric=True)
    # between the nodes, where np.interp at s and -s differs in the last bit
    s = np.linspace(0.0, 12.5, 101)
    np.testing.assert_array_equal(even(-s), even(s))
    np.testing.assert_array_equal(even(s), np.interp(s, f, even.values, right=0.0))
    # evenness is about zero detuning, the degenerate point: a table even
    # about another frequency is rejected
    with pytest.raises(ConfigError, match="even about zero"):
        TabulatedEnvelope(np.arange(-2.0, 5.0), [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0],
                          frequency_symmetric=True)


def test_value_objects_compare_and_hash():
    # the derived detunings take no part in comparison; tables compare by identity
    assert build_grid(5) == build_grid(5) and build_grid(5) != build_grid(7)
    assert hash(build_grid(5)) == hash(build_grid(5))
    env = TabulatedEnvelope([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    twin = TabulatedEnvelope([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    assert env == env and env != twin
    assert PumpSpec(envelope=env) == PumpSpec(envelope=env)
    assert PumpSpec(envelope=env) != PumpSpec(envelope=twin)
    assert len({PumpSpec(), PumpSpec(), PumpSpec(envelope=env), PumpSpec(envelope=env)}) == 2


# ---------------------------------------------------------------- medium

def test_medium_walkoffs_and_sgvm():
    m = MediumSpec(8.0, -8.0, 1.0)
    assert m.kappa_signal == pytest.approx(8.0, rel=1e-12)
    assert m.kappa_idler == pytest.approx(-8.0, rel=1e-12)
    assert m.sgvm()
    assert not MediumSpec(8.0, -4.8, 1.0).sgvm()


def test_medium_within_the_sgvm_tolerance_is_stored_sgvm():
    snapped, exact = MediumSpec(8.0, -8.0 * (1 + 5e-13), 1.0), MediumSpec(8.0, -8.0, 1.0)
    assert snapped == exact and hash(snapped) == hash(exact)
    assert snapped.kappa_idler == -8.0 and snapped.sgvm()


def test_medium_outside_the_sgvm_tolerance_keeps_its_walkoffs():
    kappa_i = -8.0 * (1 + 2e-12)
    m = MediumSpec(8.0, kappa_i, 1.0)
    assert m.kappa_idler == kappa_i and not m.sgvm()


def test_swapped_snapped_medium_is_sgvm():
    # kappa_S of vS = 0.05555555555556 at vP = 0.1, and kappa_I 1.8e-13
    # relative away from -kappa_S
    m = MediumSpec(1 / 0.05555555555556 - 10.0, -8.0, 1.0)
    s = m.swapped()
    assert m.kappa_idler == -m.kappa_signal != -8.0
    assert s.kappa_idler == -s.kappa_signal and s.sgvm()
    assert s.swapped() == m


def test_medium_swapped():
    m = MediumSpec(8.0, -4.8, 2.0)
    s = m.swapped()
    assert (s.kappa_signal, s.kappa_idler) == (m.kappa_idler, m.kappa_signal)
    assert s.length == m.length


def test_medium_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        MediumSpec(np.nan, -8.0, 1.0)
    with pytest.raises(ConfigError):
        MediumSpec(8.0, -np.inf, 1.0)
    with pytest.raises(ConfigError):
        MediumSpec(8.0, -8.0, 0.0)


# ---------------------------------------------------------------- coupling matrices

@pytest.fixture()
def small_setup():
    medium = MediumSpec(8.0, -8.0, 1.0)
    grid = build_grid(9, 5.0)
    pump = PumpSpec(sigma=1.0, g0=1.0)
    return grid, pump, medium


def test_coupled_matrices_values(small_setup):
    grid, pump, medium = small_setup
    m = build_coupled_matrices(grid, pump, medium)
    d = grid.detunings
    np.testing.assert_array_equal(m.g, medium.kappa_signal * d)
    np.testing.assert_array_equal(m.h, -m.g)  # SGVM gives h = -g bitwise
    expected = grid.spacing / np.sqrt(2 * np.pi) * pump_amplitude(
        pump, d[:, None] + d[None, :]
    )
    np.testing.assert_allclose(m.F, expected, rtol=1e-15)
    assert m.sgvm


def test_coupled_matrices_zero_cases(small_setup):
    grid, pump, medium = small_setup
    off = build_coupled_matrices(grid, PumpSpec(g0=0.0), medium)
    np.testing.assert_array_equal(off.F, 0.0)
    matched = MediumSpec(0.0, 8.0, 1.0)  # v_S = v_P, so no signal walk-off
    np.testing.assert_array_equal(
        build_coupled_matrices(grid, pump, matched).g, 0.0
    )
    dead = build_coupled_matrices(grid, pump, medium, sign=0)
    np.testing.assert_array_equal(dead.F, 0.0)


def test_f_symmetries(small_setup):
    grid, pump, medium = small_setup
    m = build_coupled_matrices(grid, pump, medium)
    J = flip_matrix(grid.n)
    assert np.max(np.abs(m.F - m.F.T)) == 0.0
    # persymmetry F_{n,m} = F_{N-m+1,N-n+1}: gaussian pump on a mirror grid
    assert np.max(np.abs(m.F - J @ m.F.T @ J)) == 0.0
    assert np.max(np.abs(m.F - J @ m.F @ J)) <= 1e-14 * np.max(np.abs(m.F))
    np.testing.assert_array_equal(m.g[::-1], -m.g)


def test_coupled_matrices_sign_flip(small_setup):
    grid, pump, medium = small_setup
    plus = build_coupled_matrices(grid, pump, medium, sign=1)
    minus = build_coupled_matrices(grid, pump, medium, sign=-1)
    np.testing.assert_array_equal(minus.F, -plus.F)
    np.testing.assert_array_equal(minus.g, plus.g)


def test_coupled_matrices_are_memoized_and_read_only(small_setup):
    # equal (frozen) arguments return the same matrices, which no reader may
    # change under the next
    grid, pump, medium = small_setup
    m = build_coupled_matrices(grid, pump, medium, sign=1)
    assert build_coupled_matrices(grid, PumpSpec(sigma=1.0, g0=1.0), medium, sign=1) is m
    assert build_coupled_matrices.cache_info().misses == 1
    for a in (m.g, m.h, m.F):
        with pytest.raises(ValueError):
            a[...] = 1.0


def test_a_memoized_set_is_f_and_two_walkoff_vectors():
    # the walk-offs are diagonal, so F is the set's one N x N array
    n = 101
    m = build_coupled_matrices(build_grid(n, 5.0), PumpSpec(g0=1.0), MediumSpec(8.0, -4.8, 1.0))
    arrays = [a for a in vars(m).values() if isinstance(a, np.ndarray)]
    assert [a.shape for a in arrays] == [(n,), (n,), (n, n)]
    assert not any(a.flags.writeable for a in arrays)
    assert sum(a.nbytes for a in arrays) == 8 * (n * n + 2 * n)


@pytest.mark.parametrize("kappa_signal", [1.0001 * model.MAX_WALKOFF_PHASE / 5.0, 1e308,
                                          -1e308], ids=["just-past", "inf", "-inf"])
def test_a_walkoff_phase_past_the_limit_is_a_config_error(kappa_signal):
    # the phase is |kappa_S| * 5.0 here, and one that overflows is caught too
    with pytest.raises(ConfigError, match="walk-off phase .* above the limit 1000"):
        build_coupled_matrices(build_grid(9, 5.0), PumpSpec(g0=1.0),
                               MediumSpec(kappa_signal, 1.0, 1.0))


def test_generator_layout_and_hamiltonian_property(small_setup):
    grid, pump, medium = small_setup
    m = build_coupled_matrices(grid, pump, medium)
    Q = build_generator(m)
    n = grid.n
    Z, G, H = np.zeros((n, n)), np.diag(m.g), np.diag(m.h)
    expected = np.block([
        [Z, Z, -G, m.F],
        [Z, Z, m.F, -H],
        [G, m.F, Z, Z],
        [m.F, H, Z, Z],
    ])
    np.testing.assert_array_equal(Q, expected)
    eye = np.eye(2 * n)
    zero = np.zeros((2 * n, 2 * n))
    omega = np.block([[zero, eye], [-eye, zero]])
    OQ = omega @ Q
    assert np.max(np.abs(OQ - OQ.T)) <= 1e-14 * np.max(np.abs(Q))


def test_generator_free_limit_is_block_rotation(small_setup):
    grid, _, medium = small_setup
    m = build_coupled_matrices(grid, PumpSpec(g0=0.0), medium)
    S = expm(medium.length * build_generator(m))
    n = grid.n
    ts = medium.kappa_signal * grid.detunings * medium.length
    ti = medium.kappa_idler * grid.detunings * medium.length
    theta = np.concatenate([ts, ti])
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    expected = np.block([[c, -s], [s, c]])
    np.testing.assert_allclose(S, expected, atol=1e-13)


# ---------------------------------------------------------------- poling

def test_qpm_poling_basic():
    p = qpm_poling(3.0, 2.0)
    np.testing.assert_allclose(p.widths, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(p.signs, [1, -1, 1])
    assert p.length == pytest.approx(3.0, rel=1e-12)


def test_qpm_poling_odd_count():
    for length, period in ((1.0, 2.0 / 9.0), (4.0, 2.0), (1.0, 0.3), (2.5, 0.4)):
        p = qpm_poling(length, period)
        assert len(p.domains) % 2 == 1
        assert p.length == pytest.approx(length, rel=1e-12)
        assert set(np.unique(p.signs)) <= {-1, 1}


def test_qpm_poling_even_count_folds_tail():
    # L = 4, period = 2 naturally ends on 4 half-period domains; the final one
    # is folded into its neighbor to keep the count odd and the length exact
    p = qpm_poling(4.0, 2.0)
    np.testing.assert_allclose(p.widths, [1.0, 1.0, 2.0])
    np.testing.assert_array_equal(p.signs, [1, -1, 1])


def test_qpm_poling_rejects_bad_args():
    with pytest.raises(ConfigError):
        qpm_poling(1.0, 2.0)
    with pytest.raises(ConfigError):
        qpm_poling(1.0, 0.0)


def test_poling_validation():
    with pytest.raises(ConfigError):
        Poling([(0.0, 1)])
    with pytest.raises(ConfigError):
        Poling([(1.0, 2)])
    with pytest.raises(ConfigError):
        Poling([])
    p = Poling([(1.0, 1), (0.5, -1)])
    assert p.reversed_().domains == ((0.5, -1), (1.0, 1))
    assert Poling([(0.5, 1.0), (0.5, np.int64(-1))]).domains == ((0.5, 1), (0.5, -1))


@pytest.mark.parametrize("domains, cause", [
    ([(np.inf, 1)], "positive and finite"),
    ([(np.nan, 1)], "positive and finite"),
    ([(1e308, 1), (1e308, -1)], "total length overflows"),
    ([(0.5, 0.7)], "signs must be -1, 0 or +1, got 0.7"),
    ([(0.5, -0.5)], "signs must be -1, 0 or +1"),
], ids=["infinite-width", "nan-width", "overflowing-total", "fractional-sign",
        "negative-fractional-sign"])
def test_poling_rejects_non_finite_lengths_and_fractional_signs(domains, cause):
    # inf passed the width check and 0.7 was truncated to sign 0
    with pytest.raises(ConfigError, match=re.escape(cause)):
        Poling(domains)


def test_generated_gratings_are_capped_at_max_domains(monkeypatch):
    # the count is checked before any domain list is allocated
    monkeypatch.setattr(model, "MAX_DOMAINS", 10)
    assert len(qpm_poling(1.0, 0.2).domains) == 9
    assert len(apodized_poling(1.0, 0.1).domains) == 10
    for build in (lambda: qpm_poling(1.1, 0.2), lambda: apodized_poling(1.1, 0.1)):
        with pytest.raises(ConfigError, match="L = 1.1 holds 11 domains of width 0.1"):
            build()


def test_apodized_constant_target_reduces_to_qpm():
    # pmf_width None tracks a linear ramp, which the alternating grating
    # follows exactly; compare with plain QPM of the same pitch
    ap = apodized_poling(1.0, 0.05)
    qpm = qpm_poling(1.0, 0.1)
    np.testing.assert_array_equal(ap.signs, [1 if p % 2 == 0 else -1
                                             for p in range(len(ap.domains))])
    assert np.array_equal(ap.signs[: len(qpm.signs) - 1],
                          qpm.signs[:-1])


def test_apodized_greedy_matches_naive_tracker():
    """Re-derive the sign choices with quadrature integrals instead of the
    closed form; both trackers must commit to the same sequence."""
    length, width, pmf_width = 1.0, 1.0 / 8, 3.0
    produced = apodized_poling(length, width, pmf_width=pmf_width)
    dk = np.pi / width
    sigma_z = 1.0 / pmf_width

    def cumulative(z):
        from scipy.special import erf
        a = erf((z - 0.5 * length) / (np.sqrt(2) * sigma_z))
        b = erf((-0.5 * length) / (np.sqrt(2) * sigma_z))
        return 1j * (2 / np.pi) * sigma_z * np.sqrt(np.pi / 2) * (a - b)

    edges = np.linspace(0.0, length, 9)
    running = 0.0 + 0.0j
    signs = []
    for p in range(8):
        re, _ = scipy.integrate.quad(lambda z: np.cos(dk * z), edges[p], edges[p + 1])
        im, _ = scipy.integrate.quad(lambda z: np.sin(dk * z), edges[p], edges[p + 1])
        seg = re + 1j * im
        target = cumulative(edges[p + 1])
        if abs(running + seg - target) <= abs(running - seg - target):
            signs.append(1)
            running += seg
        else:
            signs.append(-1)
            running -= seg
    np.testing.assert_array_equal(produced.signs, signs)


def test_apodized_gaussian_pmf_fit():
    # 200 domains, target width 8: the demodulated grating's low-frequency
    # PMF should be Gaussian to a few percent (least-squares amplitude fit)
    w = 8.0
    demod = demodulate_poling(apodized_poling(1.0, 1.0 / 200, pmf_width=w))
    dk = np.linspace(-2.5 * w, 2.5 * w, 401)
    amp = np.abs(pmf(demod, dk))
    target = np.exp(-(dk**2) / (2.0 * w * w))
    a = np.dot(amp, target) / np.dot(target, target)
    err = np.linalg.norm(amp - a * target) / np.linalg.norm(amp)
    assert err <= 0.05


def test_apodized_thousand_domains():
    p = apodized_poling(1.0, 1.0 / 1000, pmf_width=8.0)
    assert len(p.domains) == 1000
    assert p.length == pytest.approx(1.0, rel=1e-12)


def test_apodized_rejects_bad_args():
    with pytest.raises(ConfigError):
        apodized_poling(1.0, 0.0)
    with pytest.raises(ConfigError):
        apodized_poling(0.01, 0.05)
    with pytest.raises(ConfigError):
        apodized_poling(1.0, 0.1, pmf_width=-1.0)


def test_demodulate_poling_sign_law():
    device = apodized_poling(1.0, 1.0 / 12, pmf_width=4.0)
    demod = demodulate_poling(device)
    np.testing.assert_array_equal(demod.widths, device.widths)
    alt = np.array([1 if p % 2 == 0 else -1 for p in range(len(device.domains))])
    np.testing.assert_array_equal(demod.signs, device.signs * alt)


def test_bench_grating_demodulates_to_palindrome():
    # the 169-domain bench grating: demodulated signs read the same in both
    # directions, which downstream symmetry results rely on
    device = apodized_poling(1.0, 1.0 / 169, pmf_width=8.0)
    signs = demodulate_poling(device).signs
    np.testing.assert_array_equal(signs, signs[::-1])


# ---------------------------------------------------------------- pmf

def test_pmf_unpoled():
    p = Poling.unpoled(2.0)
    assert pmf(p, 0.0) == pytest.approx(1.0)
    dk = np.linspace(-40.0, 40.0, 37)
    np.testing.assert_allclose(
        np.abs(pmf(p, dk)), np.abs(np.sinc(dk * 2.0 / (2 * np.pi))), atol=1e-14
    )


def test_pmf_qpm_carrier_amplitude():
    period = 2.0 / 9.0
    p = qpm_poling(1.0, period)
    assert abs(pmf(p, 2 * np.pi / period)) == pytest.approx(2.0 / np.pi, rel=1e-12)


def test_pmf_dead_domains_do_not_contribute():
    a = Poling([(0.5, 1), (0.5, 0)])
    b = Poling([(0.5, 1), (0.5, 1)])
    assert abs(pmf(a, 0.0)) == pytest.approx(0.5)
    assert abs(pmf(b, 0.0)) == pytest.approx(1.0)


# ---------------------------------------------------------------- serialization

def test_poling_file_round_trip(tmp_path):
    p = apodized_poling(1.0, 1.0 / 7, pmf_width=2.0)
    path = tmp_path / "poling.txt"
    save_poling(p, path)
    q = load_poling(path)
    np.testing.assert_array_equal(q.widths, p.widths)
    np.testing.assert_array_equal(q.signs, p.signs)


def test_load_poling_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5 1\n0.5\n")
    with pytest.raises(ConfigError):
        load_poling(path)
