"""Generic decomposition: factors, pairing, mode extraction, gain tuning."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeam import (
    Decomposition,
    MediumSpec,
    Poling,
    Propagator,
    PumpSpec,
    bloch_messiah,
    apodized_poling,
    build_grid,
    compose,
    decompose,
    default_half_width,
    demodulate_poling,
    double_pass,
    free_propagator,
    mean_photons,
    qpm_poling,
    tune_gain,
    two_mode_rearrange,
)
from twinbeam import blochmessiah, propagator
from twinbeam.blochmessiah import (
    FACTOR_TOL,
    BlochMessiahResult,
    checked_factors,
    R_CLAMP,
    RECON_RTOL,
    _polish_unitary,
    pair_mixer,
    solve_increasing,
)
from twinbeam.errors import ConfigError, ContractError, DecompositionError
from twinbeam.propagator import embed_unitary, free_path

N = 9
L = 1.0


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def paired_symplectic(r_values, rng):
    """S = O D O_tilde^T with a doubly degenerate spectrum and random factors."""
    lam = np.repeat(np.exp(np.sort(r_values)[::-1]), 2)
    h = lam.size
    O = embed_unitary(haar_unitary(h, rng))
    Ot = embed_unitary(haar_unitary(h, rng))
    D = np.diag(np.concatenate([lam, 1.0 / lam]))
    return O @ D @ Ot.T, lam


@pytest.fixture()
def setup():
    medium = MediumSpec.from_walkoffs(8.0, -8.0, L)
    grid = build_grid(N, 0.0, 5.0)
    pump = PumpSpec(g0=1.0)
    return grid, pump, medium


def test_identity_decomposes_to_identity():
    # the whole spectrum is the passive cluster; its aligned unitary half is
    # the bin basis itself
    for n in (1, 2, 9, 21):
        bm = bloch_messiah(np.eye(4 * n))
        np.testing.assert_array_equal(embed_unitary(bm.Z), np.eye(4 * n))
        np.testing.assert_array_equal(embed_unitary(bm.Z_tilde), np.eye(4 * n))
        np.testing.assert_array_equal(bm.lam, np.ones(2 * n))


def near_unitary(shape, defect, rng):
    """A Haar unitary's leading columns plus a complex perturbation of max size defect."""
    Q = haar_unitary(shape[0], rng)[:, :shape[1]]
    P = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return Q + defect * P / np.max(np.abs(P))


@pytest.mark.parametrize("shape", [(16, 16), (24, 6)], ids=["square", "tall"])
@pytest.mark.parametrize("defect", [1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2])
def test_polish_unitary_matches_the_svd_lowdin_factor(shape, defect):
    Z = near_unitary(shape, defect, np.random.default_rng(int(-np.log10(defect))))
    E = Z.conj().T @ Z - np.eye(shape[1])
    assert 0.1 * defect < np.max(np.abs(E)) < 10 * defect
    u, _, vh = np.linalg.svd(Z, full_matrices=False)
    polished = _polish_unitary(Z, "test factor")
    assert np.max(np.abs(polished - u @ vh)) <= 1e-13
    assert np.max(np.abs(polished.conj().T @ polished - np.eye(shape[1]))) <= 1e-14


@pytest.mark.parametrize("e", [0.74, -0.74])
def test_polish_unitary_converges_at_the_edge_of_its_guard(e):
    # one singular value sqrt(1 + e), so ||Z^H Z - I||_F = |e| just below 0.75;
    # e < 0 is the slowest case and needs seven steps
    rng = np.random.default_rng(3)
    Q1, Q2 = haar_unitary(10, rng), haar_unitary(10, rng)
    s = np.ones(10)
    s[0] = np.sqrt(1.0 + e)
    polished = _polish_unitary((Q1 * s) @ Q2, "edge factor")
    assert np.max(np.abs(polished - Q1 @ Q2)) <= 1e-13


def test_polish_unitary_rejects_far_inputs(monkeypatch):
    rng = np.random.default_rng(4)
    Q = haar_unitary(8, rng)
    rank_deficient = Q.copy()
    rank_deficient[:, 3] = rank_deficient[:, 2]
    s = np.ones(8)
    s[0] = np.sqrt(1.76)  # ||Z^H Z - I||_F = 0.76
    for Z in (rank_deficient, Q[:, :5] * s[:5], Q * s):
        with pytest.raises(DecompositionError, match="far factor"):
            _polish_unitary(Z, "far factor")
    # an accepted input that the step cap cannot finish
    monkeypatch.setattr(blochmessiah, "POLISH_STEPS", 1)
    with pytest.raises(DecompositionError, match="slow factor.*1 steps"):
        _polish_unitary(near_unitary((8, 8), 1e-2, rng), "slow factor")


def test_polish_unitary_returns_an_exactly_unitary_input_unchanged():
    phases = np.array([1.0, 1j, -1.0, -1j, 1.0])
    for Z in (np.eye(5, dtype=complex), np.eye(5)[:, ::-1] * phases,
              np.eye(7, 3, dtype=complex), np.zeros((4, 0), dtype=complex)):
        polished = _polish_unitary(Z, "exact factor")
        assert polished is Z


def test_reconstruct_matches_the_dense_diagonal_product_bitwise(setup):
    grid, pump, _ = setup
    skew = MediumSpec.from_walkoffs(8.0, -4.8, L)
    poling = demodulate_poling(apodized_poling(L, L / 12, pmf_width=4.0))
    for S in (paired_symplectic([0.7, 0.2], np.random.default_rng(5))[0],
              compose(grid, pump, skew, poling).matrix):
        bm = bloch_messiah(S)
        O, O_tilde = embed_unitary(bm.Z), embed_unitary(bm.Z_tilde)
        D = np.diag(np.concatenate([bm.lam, 1 / bm.lam]))
        assert np.array_equal(bm.reconstruct(), O @ D @ O_tilde.T)


def noisy_factors(rng, h=8, noise=1e-11):
    """A BlochMessiahResult on Haar unitaries carrying non-unitary noise of max size noise."""
    def noisy():
        P = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
        return haar_unitary(h, rng) + noise * P / np.max(np.abs(P))
    lam = np.repeat(np.exp(np.linspace(0.9, 0.0, h // 2)), 2)
    return BlochMessiahResult(Z=noisy(), lam=lam, Z_tilde=noisy())


@pytest.mark.parametrize("seed", range(4))
def test_factor_residuals_are_the_4n_residuals_of_the_embedding(seed):
    # embed(Z)^T embed(Z) - I = embed(Z^H Z - I) and the symplectic defect of
    # embed(Z) is embed(-i (Z Z^H - I)); at noise 1e-11 the Gram products'
    # own roundoff (~2e-16) is ~2e-5 of the residual, while the two Gram
    # products of one Z differ by percents, so swapping them fails
    bm = noisy_factors(np.random.default_rng(seed))
    residuals = checked_factors(bm, bm.reconstruct(), "noisy factors").residuals
    assert residuals["reconstruction"] < 1e-15
    for name, Z in (("O", bm.Z), ("O_tilde", bm.Z_tilde)):
        O = embed_unitary(Z)
        orthogonal = float(np.max(np.abs(O.T @ O - np.eye(O.shape[0]))))
        symplectic = propagator.symplectic_residual(O)
        assert 1e-12 < orthogonal < FACTOR_TOL
        np.testing.assert_allclose(residuals[name + "_orthogonal"], orthogonal, rtol=1e-4)
        np.testing.assert_allclose(residuals[name + "_symplectic"], symplectic, rtol=1e-4)
        assert abs(orthogonal - symplectic) > 1e-2 * orthogonal


def test_checked_factors_forms_no_4n_residual(monkeypatch):
    bm = noisy_factors(np.random.default_rng(7))
    spy = counted(propagator.symplectic_residual)
    monkeypatch.setattr(blochmessiah, "symplectic_residual", spy)
    checked_factors(bm, bm.reconstruct(), "noisy factors")
    assert spy.calls == 0


def test_known_squeezer_recovered():
    rng = np.random.default_rng(0)
    S, lam = paired_symplectic([0.5], rng)
    bm = bloch_messiah(S)
    np.testing.assert_allclose(bm.lam, lam, atol=1e-10)
    np.testing.assert_allclose(bm.reconstruct(), S, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    active=st.lists(st.one_of(st.floats(0.05, 4.0), st.sampled_from([0.5, 4.0])),
                    min_size=1, max_size=4),
    n_passive=st.integers(0, 20),
)
# mostly passive: one active pair out of 21
@example(seed=1, active=[0.9], n_passive=20)
# exactly degenerate active pairs, with and without a passive cluster
@example(seed=2, active=[0.7, 0.7, 0.2], n_passive=0)
@example(seed=3, active=[4.0, 4.0], n_passive=3)
# the top of the range, no passive cluster at all
@example(seed=4, active=[4.0, 1.5, 0.05], n_passive=0)
def test_construct_then_decompose_round_trip(seed, active, n_passive):
    rng = np.random.default_rng(seed)
    r_values = np.concatenate([active, np.zeros(n_passive)])
    S, _ = paired_symplectic(r_values, rng)
    bm = bloch_messiah(S)
    _, _, r = two_mode_rearrange(bm)
    np.testing.assert_allclose(r, np.sort(r_values)[::-1], rtol=0, atol=1e-12)
    assert bm.residuals["reconstruction"] <= RECON_RTOL
    assert max(v for k, v in bm.residuals.items() if k != "reconstruction") <= FACTOR_TOL


def test_spectrum_is_doubly_degenerate(setup):
    grid, pump, medium = setup
    S = compose(grid, pump, medium, Poling.unpoled(L))
    bm = bloch_messiah(S.matrix)
    a, b = bm.lam[0::2], bm.lam[1::2]
    assert np.max(np.abs(a - b) / a) < 1e-8


def test_rejects_nonsymplectic():
    with pytest.raises(ContractError):
        bloch_messiah(1.1 * np.eye(8))


def test_rejects_odd_or_nonsquare():
    with pytest.raises(ConfigError):
        bloch_messiah(np.eye(3))


def test_two_mode_rearrange_needs_pairs():
    # single-mode squeezer: symplectic, but the spectrum cannot pair
    S = np.diag([2.0, 1.0, 0.5, 1.0])
    bm = bloch_messiah(S)
    with pytest.raises(DecompositionError):
        two_mode_rearrange(bm)


def test_pair_mixer_is_orthogonal_symplectic():
    from twinbeam.propagator import symplectic_residual
    W = embed_unitary(pair_mixer(3))
    assert np.max(np.abs(W.T @ W - np.eye(12))) < 1e-15
    assert symplectic_residual(W) < 1e-15


def test_two_mode_squeezer_core():
    # W^T diag(e^r, e^r, e^-r, e^-r) W has cosh on the diagonal and -sinh on
    # the X-P cross antidiagonals: one two-mode squeezer
    r = 0.3
    W = embed_unitary(pair_mixer(1))
    D = np.diag(np.exp([r, r, -r, -r]))
    M = W.T @ D @ W
    expected = np.cosh(r) * np.eye(4)
    for i, j in ((0, 3), (1, 2), (2, 1), (3, 0)):
        expected[i, j] = -np.sinh(r)
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_rearrange_preserves_product(setup):
    grid, pump, medium = setup
    # the column-pair mixing equals the dense product with pair_mixer
    bm = bloch_messiah(compose(grid, pump, medium, qpm_poling(L, 2 * L / 9)).matrix)
    h = bm.lam.size
    U_out, U_in, _ = two_mode_rearrange(bm)
    B = pair_mixer(h // 2)
    np.testing.assert_allclose(U_out, bm.Z @ B, rtol=0, atol=1e-15)
    np.testing.assert_allclose(U_in, bm.Z_tilde @ B, rtol=0, atol=1e-15)

    rng = np.random.default_rng(5)
    S, _ = paired_symplectic([0.8, 0.3], rng)
    bm = bloch_messiah(S)
    U_out, U_in, r = two_mode_rearrange(bm)
    assert np.all(np.diff(r) <= 0)
    # the rearranged factors with the mixed core give back the same S
    W = embed_unitary(pair_mixer(bm.lam.size // 2))
    O_w = embed_unitary(bm.Z) @ W
    Ot_w = embed_unitary(bm.Z_tilde) @ W
    D = np.diag(np.concatenate([bm.lam, 1 / bm.lam]))
    np.testing.assert_allclose(O_w @ (W.T @ D @ W) @ Ot_w.T, S, atol=1e-9)
    np.testing.assert_allclose(np.repeat(np.exp(r), 2), bm.lam, atol=1e-10)


def test_zero_squeezing_pairs_are_clamped(setup):
    grid, _, medium = setup
    d = decompose(free_propagator(grid, medium, L), grid)
    assert np.all(d.r == 0.0)
    assert d.active_pairs() == []
    for k in range(d.r.size):
        for direction in ("out", "in"):
            assert all(m.r == 0.0 for m in d.pair_modes(k, direction))
    # with all r zero the factor product alone reconstructs the propagator
    np.testing.assert_allclose(
        d.O @ d.O_tilde.T, free_propagator(grid, medium, L).matrix, atol=1e-9
    )


def three_bin_decomposition(U):
    """Three squeezers on a 3-bin grid with U as both mode matrices."""
    r = np.array([1.0, 0.5, 0.2])
    return Decomposition(grid=build_grid(3, 0.0, 5.0), lam=np.repeat(np.exp(r), 2),
                         r=r, U_out=U, U_in=U, residuals={})


def test_pair_modes_identity_factor_gives_bin_basis():
    d = three_bin_decomposition(np.eye(6, dtype=complex))
    for k in range(3):
        for direction in ("out", "in"):
            for m in d.pair_modes(k, direction):
                one_hot = np.zeros(6)
                one_hot[np.argmax(np.abs(m.amplitudes))] = 1.0
                np.testing.assert_allclose(m.amplitudes, one_hot, atol=1e-15)


def test_pair_modes_flags_cross_beam_support():
    n = 3
    U = np.eye(2 * n, dtype=complex)
    # squeezer 0's first column straddles the beams equally
    U[:, 0] = 0.0
    U[0, 0] = U[n, 0] = 1.0 / np.sqrt(2.0)
    U[:, 1] = 0.0
    U[1, 1] = 1.0
    d = three_bin_decomposition(U)
    for direction in ("out", "in"):
        assert all(m.mixed for m in d.pair_modes(0, direction))


def test_pair_modes_rejects_unknown_squeezer():
    d = three_bin_decomposition(np.eye(6, dtype=complex))
    for k, direction in ((-1, "out"), (d.r.size, "in"), (0, "both")):
        with pytest.raises(ConfigError):
            d.pair_modes(k, direction)


def test_decomposition_factors_undo_the_pair_mixing(setup):
    grid, pump, medium = setup
    S = compose(grid, pump, medium, qpm_poling(L, 2 * L / 9))
    d = decompose(S, grid)
    bm = bloch_messiah(S.matrix)
    np.testing.assert_allclose(d.O, embed_unitary(bm.Z), rtol=0, atol=1e-15)
    np.testing.assert_allclose(d.O_tilde, embed_unitary(bm.Z_tilde), rtol=0, atol=1e-15)


def test_decompose_modes_unitary_and_single_beam(setup):
    grid, pump, medium = setup
    S = compose(grid, pump, medium, Poling.unpoled(L))
    d = decompose(S, grid)
    np.testing.assert_allclose(d.U_out.conj().T @ d.U_out, np.eye(2 * N), atol=1e-9)
    np.testing.assert_allclose(d.U_in.conj().T @ d.U_in, np.eye(2 * N), atol=1e-9)
    for k in d.active_pairs():
        for direction in ("out", "in"):
            sig, idl = d.pair_modes(k, direction)
            assert not (sig.mixed or idl.mixed)
            assert np.sum(np.abs(sig.beam_amplitudes(N)) ** 2) > 1.0 - 1e-6
            assert np.sum(np.abs(idl.beam_amplitudes(N)) ** 2) > 1.0 - 1e-6
            np.testing.assert_allclose(np.linalg.norm(sig.amplitudes), 1.0,
                                       atol=1e-12)


def test_gauge_anchor_is_real_nonnegative(setup):
    grid, pump, medium = setup
    d = decompose(compose(grid, pump, medium, Poling.unpoled(L)), grid)
    c = (N - 1) // 2
    for k in d.active_pairs():
        sig, idl = d.pair_modes(k, "out")
        for m in (sig, idl):
            anchor = m.beam_amplitudes(N)[c]
            if abs(anchor) > 1e-10:
                assert anchor.imag == pytest.approx(0.0, abs=1e-12)
                assert anchor.real >= 0.0


def test_remove_free_phase_keeps_spectrum():
    # stripping the free path P only turns the rows of U_out: the spectrum,
    # the input modes and the residuals of the raw factorization stay bitwise,
    # and the factors now reconstruct P^-1 S = F^T S
    grid, pump, poling = build_grid(N, 0.0, 5.0), PumpSpec(g0=1.0), Poling.unpoled(L)
    for walkoff_i, double in ((-8.0, False), (-8.0, True), (-4.8, False), (-4.8, True)):
        medium = MediumSpec.from_walkoffs(8.0, walkoff_i, L)
        S = double_pass(grid, pump, medium, poling) if double \
            else compose(grid, pump, medium, poling)
        raw = decompose(S, grid)
        stripped = raw.without_free_phase(medium, double)
        for name in ("lam", "r", "U_in"):
            np.testing.assert_array_equal(getattr(stripped, name), getattr(raw, name))
        assert stripped.residuals == raw.residuals
        # a matched SGVM double pass has (to roundoff) no free phase
        moved = np.max(np.abs(stripped.U_out - raw.U_out))
        assert moved < 1e-14 if double and walkoff_i == -8.0 else moved > 1e-3
        F = free_path(grid, medium, double).matrix
        d = np.concatenate([stripped.lam, 1.0 / stripped.lam])
        np.testing.assert_allclose((stripped.O * d) @ stripped.O_tilde.T,
                                   F.T @ S.matrix, atol=1e-12)


def test_decompose_grid_mismatch(setup):
    grid, pump, medium = setup
    S = compose(grid, pump, medium, Poling.unpoled(L))
    with pytest.raises(ConfigError):
        decompose(S, build_grid(11, 0.0, 5.0))


def test_photon_sum_rule(setup):
    # sum sinh^2 r_k = (Tr S S^T - 4N) / 8, both exactly the mean photons
    grid, pump, medium = setup
    S = compose(grid, pump, medium, qpm_poling(L, 2 * L / 9))
    d = decompose(S, grid)
    lhs = np.sum(np.sinh(d.r) ** 2)
    rhs = (np.trace(S.matrix @ S.matrix.T) - 4 * N) / 8.0
    assert lhs == pytest.approx(rhs, abs=1e-8)
    ns, ni = mean_photons(S.matrix, N)
    assert ns == pytest.approx(lhs, abs=1e-8)
    assert ni == pytest.approx(lhs, abs=1e-8)


def test_spectrum_descending_and_photons(setup):
    grid, pump, medium = setup
    S = compose(grid, pump, medium, Poling.unpoled(L))
    d = decompose(S, grid)
    assert np.all(np.diff(d.r) <= 0)
    assert np.sum(np.sinh(d.r) ** 2) == pytest.approx(S.mean_photons()[0], abs=1e-8)


def test_tune_gain_contracts(setup):
    grid, pump, medium = setup
    poling = Poling.unpoled(L)
    assert tune_gain(grid, pump, medium, poling, 0.0) == (0.0, 0.0)
    g1, a1 = tune_gain(grid, pump, medium, poling, 1.0)
    assert abs(a1 - 1.0) <= 1e-4
    g2, a2 = tune_gain(grid, pump, medium, poling, 2.0)
    assert g2 > g1
    assert abs(a2 - 2.0) <= 1e-4
    with pytest.raises(ConfigError):
        tune_gain(grid, pump, medium, poling, -1.0)


def test_tune_gain_double_pass(setup):
    grid, pump, medium = setup
    g, a = tune_gain(grid, pump, medium, Poling.unpoled(L), 0.5, double=True)
    assert abs(a - 0.5) <= 1e-4
    # two passes reach the same photon number at lower pump amplitude
    g_single, _ = tune_gain(grid, pump, medium, Poling.unpoled(L), 0.5)
    assert g < g_single


def counted(fn):
    """fn with a call counter in .calls."""
    def wrapped(*args, **kwargs):
        wrapped.calls += 1
        return fn(*args, **kwargs)
    wrapped.calls = 0
    return wrapped


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.1, 10.0), b=st.floats(0.1, 3.0), c=st.floats(0.0, 2.0),
    lo=st.floats(0.0, 1.0), width=st.floats(1e-3, 2.0),
    rise=st.floats(0.0, 1e4), rtol=st.floats(1e-9, 1e-3),
)
def test_solve_increasing_meets_tolerance(a, b, c, lo, width, rise, rtol):
    fn = counted(lambda x: a * np.sinh(b * x) ** 2 + c * x)
    target = fn(lo) + rise
    tol = rtol * max(1.0, target)
    fn.calls = 0
    x, fx = solve_increasing(fn, target, lo, lo + width, tol)
    assert abs(fx - target) <= tol
    assert fx == fn(x)
    assert x >= lo
    assert fn.calls <= 40


@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 3.0), lo=st.floats(0.1, 1.0),
       drop=st.floats(1e-6, 1.0))
def test_solve_increasing_rejects_target_below_start(a, b, lo, drop):
    fn = lambda x: a * np.sinh(b * x) ** 2
    with pytest.raises(ContractError, match="below"):
        solve_increasing(fn, (1.0 - drop) * fn(lo), lo, lo + 1.0, 1e-12)


@given(a=st.floats(0.1, 10.0), b=st.floats(1e-3, 3.0), excess=st.floats(1e-6, 10.0))
def test_solve_increasing_rejects_unreachable_target(a, b, excess):
    # increasing towards the asymptote a, which it never passes
    fn = counted(lambda x: a * -np.expm1(-b * x))
    with pytest.raises(ContractError, match="stays below"):
        solve_increasing(fn, a * (1.0 + excess), 0.0, 1.0, 1e-6)
    assert fn.calls == blochmessiah.BRACKET_DOUBLINGS + 2


def test_solve_increasing_reports_a_stall():
    # a jump across the target: the bracket shrinks onto x = 1 and no point
    # ever lands within tol
    with pytest.raises(ContractError, match="stalled"):
        solve_increasing(lambda x: 2.0 * (x >= 1.0), 1.0, 0.0, 3.0, 0.5)


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("poling", [
    Poling.unpoled(L),
    demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0)),
], ids=["unpoled", "apodized"])
def test_tune_gain_evaluation_count(monkeypatch, matrix_builds, poling, double):
    medium = MediumSpec.from_walkoffs(8.0, -8.0, L)
    grid = build_grid(21, 0.0, default_half_width(medium))
    for name in ("compose", "double_pass"):
        monkeypatch.setattr(blochmessiah, name,
                            counted(getattr(blochmessiah, name)))
    # the domain products double_pass builds inside the propagator module
    monkeypatch.setattr(propagator, "compose", counted(propagator.compose))
    _, achieved = tune_gain(grid, PumpSpec(g0=1.0), medium, poling, 5.0,
                            double=double, tol=5e-6)
    assert abs(achieved - 5.0) <= 5e-6
    # each evaluation composes one forward pass, and a matched double pass
    # turns it into its return trip
    assert blochmessiah.compose.calls <= 8
    assert blochmessiah.double_pass.calls == (blochmessiah.compose.calls if double else 0)
    # one domain product per evaluation, single or double pass
    assert blochmessiah.compose.calls + propagator.compose.calls <= 8
    # photons are read off the complex matrix: no 4N view is built
    assert matrix_builds == []


def _counting_passes(monkeypatch):
    """A list that grows by one entry (the gain) per forward pass tune_gain composes."""
    gains = []

    def counting(grid, pump, medium, poling):
        gains.append(pump.g0)
        return compose(grid, pump, medium, poling)

    monkeypatch.setattr(blochmessiah, "compose", counting)
    return gains


def test_tune_gain_readme_config_pass_count(monkeypatch):
    # the README device at N = 101 took 11 passes with doubling and Illinois
    medium = MediumSpec.from_walkoffs(8.0, -8.0, L)
    grid = build_grid(101, 0.0, default_half_width(medium))
    poling = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    gains = _counting_passes(monkeypatch)
    g0, achieved, first = tune_gain(grid, PumpSpec(g0=1.0), medium, poling, 5.0,
                                    double=True, tol=5e-6, return_pass=True)
    assert abs(achieved - 5.0) <= 5e-6
    assert len(gains) <= 7
    # the pass handed back is the forward pass at the root
    assert gains[-1] == g0
    root = compose(grid, PumpSpec(g0=g0), medium, poling)
    np.testing.assert_array_equal(first.bogoliubov, root.bogoliubov)


def test_tune_gain_pass_count_over_devices_and_targets(monkeypatch):
    # 40 cases: unpoled and apodized, SGVM and 40% walk-off mismatch, single
    # and double pass, N_S from 1e-3 to 1e3; doubling and Illinois took 507
    # passes, 24 at worst
    apodized = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    gains = _counting_passes(monkeypatch)
    for poling in (Poling.unpoled(L), apodized):
        for kappa_i in (-8.0, -4.8):
            medium = MediumSpec.from_walkoffs(8.0, kappa_i, L)
            grid = build_grid(21, 0.0, default_half_width(medium))
            for double in (False, True):
                for target in (1e-3, 0.5, 5.0, 50.0, 1000.0):
                    tol = 1e-6 * max(1.0, target)
                    _, achieved = tune_gain(grid, PumpSpec(g0=1.0), medium, poling,
                                            target, double=double, tol=tol)
                    assert abs(achieved - target) <= tol
    assert len(gains) <= 355


@pytest.mark.parametrize("g0, poling, target", [
    (40.0, Poling.unpoled(L), 0.3),
    (1.0, qpm_poling(L, 2 * L / 9), 3e4),
], ids=["trial-far-above", "steep-climb"])
def test_tune_gain_reaches_targets_where_linear_false_position_stalled(g0, poling, target):
    # false position on (g0, N_S) crept along a curve this convex until its
    # point fell on a bracket end ("search stalled")
    medium = MediumSpec.from_walkoffs(8.0, -8.0, L)
    grid = build_grid(9, 0.0, default_half_width(medium))
    tol = 1e-6 * max(1.0, target)
    _, achieved = tune_gain(grid, PumpSpec(g0=g0), medium, poling, target, double=True,
                            tol=tol)
    assert abs(achieved - target) <= tol


@pytest.mark.parametrize("target", [1e-300, 1e-3, 5.0, 1e300])
def test_spectral_scale_solves_without_overflow(target):
    # sum_k sinh^2(x r_k) = target on a known spectrum, at extreme targets
    r = np.array([0.8, 0.3, 0.05, 0.0])
    n = r.size
    T = np.block([[np.diag(np.cosh(r)), np.diag(np.sinh(r))],
                  [np.diag(np.sinh(r)), np.diag(np.cosh(r))]]).astype(complex)
    with np.errstate(all="raise"):
        x = blochmessiah._spectral_scale(Propagator(T, n), target)
        assert blochmessiah._spectral_scale(Propagator(np.diag(np.exp(-r)), n),
                                            target) == pytest.approx(x, rel=1e-9)
    # sinh^2 of the largest term dominates from about N_S = 10 up
    got = np.sum(np.sinh(x * r[:3]) ** 2) if target < 1e200 else \
        np.exp(2 * x * r[0] - np.log(4 * target))
    assert got == pytest.approx(target if target < 1e200 else 1.0, rel=1e-8)


def test_tuning_does_not_import_scipy_optimize(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochmessiah.__file__)))
    code = (
        "import sys, twinbeam\n"
        "from twinbeam import MediumSpec, Poling, PumpSpec, build_grid, tune_gain\n"
        "medium = MediumSpec.from_walkoffs(8.0, -8.0, 1.0)\n"
        "tune_gain(build_grid(9, 0.0, 5.0), PumpSpec(g0=1.0), medium,\n"
        "          Poling.unpoled(1.0), 1.0, double=True)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        "import json\n"
        "from twinbeam.cli import main\n"
        "tmp = %r\n"
        "cfg = {'grid': {'N': 9, 'half_width': 5.0}, 'pump': {'target_NS': 1.0},\n"
        "       'medium': {'vP': 0.1, 'vS': 1 / 18, 'vI': 0.5, 'L': 1.0},\n"
        "       'poling': {'kind': 'apodized', 'domain_width': 1 / 12, 'pmf_width': 4.0}}\n"
        "json.dump(cfg, open(tmp + '/run.json', 'w'))\n"
        "assert main(['simulate', '--config', tmp + '/run.json', '--out', tmp]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "cfg['pass_mode'] = 'double'\n"
        "json.dump(cfg, open(tmp + '/run.json', 'w'))\n"
        "import contextlib, io\n"
        "for args in (['verify'], ['sweep-gain', '--points', '3'], ['poling', 'eval']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(args + ['--config', tmp + '/run.json', '--out', tmp]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    ) % str(tmp_path)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    # numpy is the only runtime dependency: tuning, the apodized grating, a
    # whole simulate run, and verify, sweep-gain and poling eval after it
    # load no scipy module at all
    assert out.split() == ["[]", "[]", "[]"]
