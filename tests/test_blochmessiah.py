"""Generic decomposition: factors, pairing, mode extraction, gain tuning."""

import os
import subprocess
import sys
from dataclasses import replace

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
    TabulatedEnvelope,
    bloch_messiah,
    apodized_poling,
    build_grid,
    compose,
    decompose,
    default_half_width,
    demodulate_poling,
    double_pass,
    flip_overlap,
    free_propagator,
    mean_photons,
    mode_fidelity,
    qpm_poling,
    subspace_overlaps,
    tune_gain,
    two_mode_rearrange,
)
from conftest import traced_peak
from twinbeam import blochmessiah, numerics, propagator
from twinbeam.analytic import svd_route
from twinbeam.blochmessiah import (
    FACTOR_TOL,
    BlochMessiahResult,
    checked_factors,
    POLISH_TOL,
    R_CLAMP,
    RECON_RTOL,
    _gauge_fix,
    _polish_unitary,
    pair_mixer,
    solve_increasing,
)
from twinbeam.errors import ConfigError, ContractError, DecompositionError
from twinbeam.propagator import _PHASE, embed_unitary

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
    medium = MediumSpec(8.0, -8.0, L)
    grid = build_grid(N, 5.0)
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
    E = polished.conj().T @ polished - np.eye(shape[1])
    assert np.max(np.abs(E)) <= 1e-14


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


def polish_out_of_place(Z):
    """_polish_unitary's Newton-Schulz steps, each on a new array."""
    eye = np.eye(Z.shape[1])
    E = Z.conj().T @ Z - eye
    while np.max(np.abs(E), initial=0.0) > POLISH_TOL:
        Z = Z - 0.5 * (Z @ E)
        E = Z.conj().T @ Z - eye
    return Z


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(16, 16), (24, 6), (51, 51)], ids=["square", "tall", "n51"])
@pytest.mark.parametrize("defect", [1e-12, 1e-6, 1e-2])
def test_polish_unitary_steps_its_own_copy_in_place(shape, defect, real):
    # bitwise the out-of-place steps, and the caller's array is left as it was
    rng = np.random.default_rng(int(-np.log10(defect)))
    Z = near_unitary(shape, defect, rng)
    Z = np.ascontiguousarray(np.linalg.qr(Z.real)[0] + defect * Z.imag) if real else Z
    given_ = Z.copy()
    polished = _polish_unitary(Z, "test factor")
    np.testing.assert_array_equal(Z, given_)
    assert polished is not Z and polished.dtype == Z.dtype
    np.testing.assert_array_equal(polished, polish_out_of_place(Z))


def test_polish_unitary_peak_memory_in_factors():
    # a real 101 x 101 factor: the Gram E, one product Z E / 2 and the copy
    # Z steps in place, with |E| for the stopping test, 3.1 factors above
    # entry (5.0 when each step formed new Z, Z E, Z E / 2 and E)
    rng = np.random.default_rng(7)
    Z = np.linalg.qr(rng.normal(size=(101, 101)))[0] + 1e-6 * rng.normal(size=(101, 101)) / 101
    _polish_unitary(Z, "warm-up")
    assert traced_peak(lambda: _polish_unitary(Z, "test factor")) <= 3.5 * Z.nbytes


def test_polish_unitary_returns_an_exactly_unitary_input_unchanged():
    phases = np.array([1.0, 1j, -1.0, -1j, 1.0])
    for Z in (np.eye(5, dtype=complex), np.eye(5)[:, ::-1] * phases,
              np.eye(7, 3, dtype=complex), np.zeros((4, 0), dtype=complex)):
        polished = _polish_unitary(Z, "exact factor")
        assert polished is Z


def test_reconstruct_matches_the_dense_diagonal_product_bitwise(setup):
    grid, pump, _ = setup
    skew = MediumSpec(8.0, -4.8, L)
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


@pytest.mark.parametrize("walkoff_i", [-8.0, -4.8], ids=["sgvm", "skew"])
def test_generic_route_residuals_are_checked_factors_bitwise(walkoff_i):
    # the route's residuals are checked_factors' on the factors it returns:
    # the same products on the same arrays, so bitwise the same values
    medium = MediumSpec(8.0, walkoff_i, L)
    grid, pump = build_grid(N, 5.0), PumpSpec(g0=1.5)
    S = double_pass(grid, pump, medium, qpm_poling(L, 2 * L / 9)).matrix
    bm = bloch_messiah(S)
    fresh = checked_factors(replace(bm, residuals=None), S, "generic route")
    assert fresh.residuals == bm.residuals
    assert bm.residuals["O_tilde_orthogonal"] > 0.0


def test_bloch_messiah_guards_a_propagator_with_its_cached_residual(monkeypatch):
    # a Propagator is factored in its pair form, guarded by its own residual;
    # a raw 4N array keeps the 4N guard and route, and the two agree
    medium = MediumSpec(8.0, -8.0, L)
    prop = double_pass(build_grid(N, 5.0), PumpSpec(g0=1.5), medium,
                       qpm_poling(L, 2 * L / 9))
    spy = counted(propagator.symplectic_residual)
    monkeypatch.setattr(blochmessiah, "symplectic_residual", spy)
    handed = bloch_messiah(prop)
    assert spy.calls == 0
    raw = bloch_messiah(prop.matrix)
    assert spy.calls == 1
    np.testing.assert_allclose(handed.lam, raw.lam, rtol=1e-12)
    d = np.concatenate([handed.lam, 1.0 / handed.lam])
    np.testing.assert_allclose((handed.O * d) @ handed.O_tilde.T, prop.matrix, rtol=0,
                               atol=1e-13)
    assert set(handed.residuals) == set(raw.residuals)  # an SGVM pass has no Gram to pair
    bent = Propagator.from_bogoliubov(np.eye(2 * N) + 1e-3 * np.ones((2 * N, 2 * N)), N)
    with pytest.raises(ContractError, match="not symplectic"):
        bloch_messiah(bent)


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


def three_bin_decomposition(signal, idler):
    """Three squeezers on a 3-bin grid with (signal, idler) as both sides'
    mode matrices, stored as the exchange-basis factors Q_S = U_S^H signal
    and Q_I = U_I^H (i conj idler), U_S,I = e^{i pi/4} (I -+ iJ) / sqrt 2:
    exact for entries 0 and 1, whose products with e^{+-i pi/4} / sqrt 2 are
    dyadic."""
    r, turn = np.array([1.0, 0.5, 0.2]), np.conj(_PHASE)
    V = 1j * idler.conj()
    factors = (turn * (signal + 1j * signal[::-1]), turn * (V - 1j * V[::-1]))
    return Decomposition(lam=np.repeat(np.exp(r), 2), r=r, factors_out=factors,
                         factors_in=factors, residuals={})


def test_pair_modes_identity_factor_gives_bin_basis():
    # squeezer k pairs signal bin k with idler bin 2 - k; each mode is its
    # beam's column k, and U_out, U_in interleave the two beams' columns
    eye = np.eye(3, dtype=complex)
    d = three_bin_decomposition(eye, eye[::-1])
    interleaved = np.zeros((6, 6))
    interleaved[[0, 1, 2], [0, 2, 4]] = interleaved[[5, 4, 3], [1, 3, 5]] = 1.0
    for k in range(3):
        for direction in ("out", "in"):
            sig, idl = d.pair_modes(k, direction)
            assert (sig.beam, idl.beam) == ("signal", "idler")
            np.testing.assert_array_equal(sig.amplitudes, eye[k])
            np.testing.assert_array_equal(idl.amplitudes, eye[2 - k])
    for U in (d.U_out, d.U_in):
        np.testing.assert_array_equal(U, interleaved)


def test_pair_modes_rejects_unknown_squeezer():
    eye = np.eye(3, dtype=complex)
    d = three_bin_decomposition(eye, eye)
    for k, direction in ((-1, "out"), (d.r.size, "in"), (0, "both")):
        with pytest.raises(ConfigError):
            d.pair_modes(k, direction)


@pytest.mark.parametrize("walkoff_i", [-8.0, -4.8], ids=["sgvm", "skew"])
def test_pair_modes_are_gauged_own_beam_slices_of_their_columns(walkoff_i):
    # pair_modes(k, direction) is the gauge-fixed column k of each beam's matrix
    grid, c = build_grid(N, 5.0), (N - 1) // 2
    medium = MediumSpec(8.0, walkoff_i, L)
    d = decompose(compose(grid, PumpSpec(g0=1.0), medium, Poling.unpoled(L)), grid)
    assert d.active_pairs()
    for k in d.active_pairs():
        for direction, modes in (("out", d.modes_out), ("in", d.modes_in)):
            for m, U in zip(d.pair_modes(k, direction), modes):
                assert m.amplitudes.shape == (N,)
                phase = np.vdot(U[:, k], m.amplitudes)
                assert abs(abs(phase) - 1.0) <= 1e-12
                np.testing.assert_allclose(m.amplitudes, phase * U[:, k], rtol=0, atol=1e-14)
                amps = m.amplitudes
                anchor = amps[c] if abs(amps[c]) > 1e-12 else amps[np.argmax(np.abs(amps))]
                assert anchor.real > 0.0 and abs(anchor.imag) <= 1e-15


@pytest.mark.parametrize("walkoff_i", [-8.0, -4.8], ids=["sgvm", "skew"])
def test_decomposition_stores_real_factors_and_no_complex_mode_matrix(walkoff_i):
    # an even pump: four real N x N exchange-basis factors, half the bytes
    # of four complex mode matrices, and no complex N x N array, raw or
    # stripped (the free phase is one 2N vector, the factors are shared);
    # the mode matrices and their 2N layouts are formed on each read, the
    # layouts exactly zero off the beam pattern
    n = 51
    grid, medium = build_grid(n, 5.0), MediumSpec(8.0, walkoff_i, L)
    raw = decompose(compose(grid, PumpSpec(g0=1.0), medium, qpm_poling(L, 2 * L / 9)), grid)
    stripped = raw.without_free_phase(grid, medium)
    assert stripped.factors_out is raw.factors_out and stripped.factors_in is raw.factors_in
    assert raw.phase is None and stripped.phase.shape == (2 * n,)
    for d in (raw, stripped):
        factors = d.factors_out + d.factors_in
        assert all(F.shape == (n, n) and F.dtype == float for F in factors)
        assert sum(F.size for F in factors) == 4 * n**2
        held = [a for a in vars(d).values() if isinstance(a, np.ndarray)] + list(factors)
        assert not [a for a in held if np.iscomplexobj(a) and a.ndim == 2]
        for U, (signal, idler) in ((d.U_out, d.modes_out), (d.U_in, d.modes_in)):
            assert signal.dtype == idler.dtype == complex
            np.testing.assert_array_equal(U[:n, 0::2], signal)
            np.testing.assert_array_equal(U[n:, 1::2], idler)
            assert not U[n:, 0::2].any() and not U[:n, 1::2].any()


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("walkoff_i", [-8.0, -4.8], ids=["sgvm", "skew"])
def test_mode_columns_are_the_mode_matrices_columns_bitwise(walkoff_i, double):
    # pair_modes(k) gauge-fixes column k, formed alone, and mode_columns of
    # an index or a slice are those columns of modes_out and modes_in,
    # bitwise, stripped and raw
    n = 21
    grid, medium = build_grid(n, 5.0), MediumSpec(8.0, walkoff_i, L)
    prop = (double_pass if double else compose)(grid, PumpSpec(g0=1.5), medium,
                                                 qpm_poling(L, 2 * L / 9))
    raw = decompose(prop, grid)
    for d in (raw, raw.without_free_phase(grid, medium, double)):
        for direction, modes in (("out", d.modes_out), ("in", d.modes_in)):
            for k in range(n):
                for m, u, U in zip(d.pair_modes(k, direction), d.mode_columns(direction, k),
                                   modes):
                    np.testing.assert_array_equal(u, U[:, k])
                    np.testing.assert_array_equal(m.amplitudes, _gauge_fix(U[:, k]))
            for k in (0, 5, n):
                for u, U in zip(d.mode_columns(direction, np.s_[:k]), modes):
                    np.testing.assert_array_equal(u, U[:, :k])


def test_decomposition_factors_undo_the_pair_mixing(setup):
    # O and O_tilde are the interleaved mode matrices times pair_mixer^-1
    grid, pump, medium = setup
    S = compose(grid, pump, medium, qpm_poling(L, 2 * L / 9))
    d = decompose(S, grid)
    B = pair_mixer(N)
    np.testing.assert_allclose(d.O, embed_unitary(d.U_out @ B.conj().T), rtol=0, atol=1e-15)
    np.testing.assert_allclose(d.O_tilde, embed_unitary(d.U_in @ B.conj().T), rtol=0,
                               atol=1e-15)


def matches_the_4n_oracle(prop, grid):
    """decompose(prop), checked against the 4N route on prop.matrix: r to
    1e-12, the mode subspaces, in and out, to 1 - overlap <= 1e-12, and d.O D
    d.O_tilde^T = S within RECON_RTOL of max(1, max|S|).  A mode is set only
    to roundoff of max|S| over its squeezer's gap to the others, so squeezers
    whose r lie within 1e-9 max(1, max|S|) of their cluster's largest are
    compared as one subspace: near-degenerate ones together, and the weak
    ones with the passive cluster, the complement of all stronger modes."""
    d = decompose(prop, grid)
    S = prop.matrix
    U_out, U_in, r = two_mode_rearrange(bloch_messiah(S))
    assert np.max(np.abs(d.r - r)) <= 1e-12
    gap = 1e-9 * max(1.0, np.max(np.abs(S)))
    for mine, oracle in ((d.U_out, U_out), (d.U_in, U_in)):
        for _, overlap in subspace_overlaps(mine, oracle, np.repeat(r, 2), value_rtol=gap):
            assert 1.0 - overlap <= 1e-12
    assert rebuilds(d, S)
    return d


def rebuilds(d, S):
    """Whether d.O D d.O_tilde^T = S within RECON_RTOL of max(1, max|S|)."""
    D = np.concatenate([d.lam, 1.0 / d.lam])
    return np.max(np.abs((d.O * D) @ d.O_tilde.T - S)) <= RECON_RTOL * max(1.0, np.max(np.abs(S)))


@pytest.mark.parametrize("name, double", [(name, False) for name in ("apodized", "unpoled", "qpm")]
                         + [(name, True) for name in ("apodized", "unpoled", "qpm", "skew")])
def test_pair_route_matches_the_4n_oracle_on_the_acceptance_configs(lab, name, double):
    d = matches_the_4n_oracle(lab.propagator(name, double=double), lab.grid)
    assert d.r[0] > 1.0
    # a matched SGVM double pass, the README's among them, holds one factor tuple
    assert (d.factors_in is d.factors_out) == (double and name != "skew")


LOPSIDED = np.linspace(-12.0, 12.0, 241)


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("kappa_i, g0", [(-8.0, 3.0), (-4.8, 1.5)], ids=["sgvm", "skew"])
def test_pair_route_matches_the_4n_oracle_for_a_lopsided_pump(kappa_i, g0, double):
    # a pump without frequency symmetry: the pair form is complex
    envelope = TabulatedEnvelope(LOPSIDED, np.exp(-((LOPSIDED - 1.5) ** 2) / 2.0))
    grid, medium, pump = build_grid(31, 5.0), MediumSpec(8.0, kappa_i, L), \
        PumpSpec(g0=g0, envelope=envelope)
    poling = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    prop = (double_pass if double else compose)(grid, pump, medium, poling)
    assert np.iscomplexobj(prop.pair_form())
    assert matches_the_4n_oracle(prop, grid).active_pairs()


# mismatched passes at g0 10 whose S S^T spectrum no longer pairs to PAIR_RTOL
# (defects 1.7e-6 to 4e6, r_1 6.0 to 13.3), so the 4N oracle refuses them
PAST_THE_ORACLE = {("unpoled", "even", "double"), ("unpoled", "even", "0.9"),
                   ("unpoled", "lopsided", "single"), ("unpoled", "lopsided", "double"),
                   ("unpoled", "lopsided", "0.9"), ("qpm", "lopsided", "double"),
                   ("qpm", "lopsided", "0.9")}


@pytest.mark.parametrize("g0", [2.5, 10.0])
@pytest.mark.parametrize("pump", ["even", "lopsided"])
@pytest.mark.parametrize("pass_mode", ["single", "double", "0.9"])
@pytest.mark.parametrize("kind", ["apodized", "unpoled", "qpm"])
def test_block_route_matches_the_4n_oracle_on_mismatched_passes(kind, pass_mode, pump, g0):
    # at 40% walk-off mismatch one SVD of Y_SI gives r and Q_S, P_I, and the
    # diagonal blocks give P_S and Q_I: single, matched double and
    # gain2_scale 0.9 double passes, even and lopsided (complex Y) pumps,
    # agree with the 4N oracle wherever its own Gram pairs (at most 6.3e-14
    # in r and 1.1e-14 in 1 - overlap, measured at N = 31), and past that
    # the block route still rebuilds S within RECON_RTOL
    envelope = TabulatedEnvelope(LOPSIDED, np.exp(-((LOPSIDED - 1.5) ** 2) / 2.0)) \
        if pump == "lopsided" else "gaussian"
    grid, medium = build_grid(31, 5.0), MediumSpec(8.0, -4.8, L)
    poling = {"apodized": demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0)),
              "unpoled": Poling.unpoled(L), "qpm": qpm_poling(L, 2 * L / 9)}[kind]
    p = PumpSpec(g0=g0, envelope=envelope)
    prop = compose(grid, p, medium, poling) if pass_mode == "single" else \
        double_pass(grid, p, medium, poling, gain2_scale=0.9 if pass_mode == "0.9" else 1.0)
    assert not prop.sgvm and np.iscomplexobj(prop.pair_form()) == (pump == "lopsided")
    if g0 == 10.0 and (kind, pump, pass_mode) in PAST_THE_ORACLE:
        with pytest.raises(DecompositionError, match=r"S S\^T"):
            bloch_messiah(prop.matrix)
        d = decompose(prop, grid)
        assert d.r[0] > 6.0 and rebuilds(d, prop.matrix)
    else:
        d = matches_the_4n_oracle(prop, grid)
    assert d.active_pairs() and d.factors_in is not d.factors_out


@pytest.mark.parametrize("lopsided", [False, True], ids=["even", "lopsided"])
@pytest.mark.parametrize("kind", ["apodized", "unpoled", "qpm"])
def test_sgvm_double_pass_is_one_factor_object_only_when_matched(kind, lopsided):
    # double_pass makes the matched pass X_f^H X_f Hermitian bitwise, so one
    # eigenproblem gives one factor tuple for both sides; at gain2_scale 0.9
    # it is not Hermitian and one SVD gives two.  Both match the 4N oracle.
    envelope = TabulatedEnvelope(LOPSIDED, np.exp(-((LOPSIDED - 1.5) ** 2) / 2.0)) \
        if lopsided else "gaussian"
    grid, medium, pump = build_grid(31, 5.0), MediumSpec(8.0, -8.0, L), \
        PumpSpec(g0=3.0, envelope=envelope)
    poling = {"apodized": demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0)),
              "unpoled": Poling.unpoled(L), "qpm": qpm_poling(L, 2 * L / 9)}[kind]
    for scale in (1.0, 0.9):
        prop = double_pass(grid, pump, medium, poling, gain2_scale=scale)
        assert np.iscomplexobj(prop.exchange) == lopsided
        assert np.array_equal(prop.exchange, prop.exchange.conj().T) == (scale == 1.0)
        d = matches_the_4n_oracle(prop, grid)
        assert d.active_pairs()
        assert (d.factors_in is d.factors_out) == (scale == 1.0)


def test_double_pass_average_changes_no_bit_of_a_real_pass():
    # numpy forms the real X_f^T X_f symmetric, and x + x halved is x
    grid, medium = build_grid(31, 5.0), MediumSpec(8.0, -8.0, L)
    poling = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    X = compose(grid, PumpSpec(g0=6.28), medium, poling).exchange
    assert X.dtype == float
    np.testing.assert_array_equal(
        double_pass(grid, PumpSpec(g0=6.28), medium, poling).exchange, X.T @ X)


def random_grating(rng, domains):
    """domains random widths (summing to L) with random signs in {-1, 0, +1}."""
    widths = rng.uniform(0.05, 1.0, domains)
    return Poling(zip(L * widths / widths.sum(), rng.choice([-1, 0, 1], domains)))


@pytest.mark.parametrize("seed", range(5))
def test_single_pass_reversal_identity(seed):
    # In SGVM media a grating P and its reversal squeeze alike, and P's input
    # modes are the bin-reversed output modes of reversed P (measured: |dr|
    # <= 1.2e-15, 1 - flip <= 8.9e-16).  P's own input and output modes are
    # flipped only when P reads the same reversed: on these gratings 1 - flip
    # of the first pair is 0.47-1.0, so acceptance test 2's own-grating flip
    # needs its palindromic gratings.
    rng = np.random.default_rng(seed)
    grid, pump, medium = build_grid(61, 5.0), PumpSpec(g0=3.0), MediumSpec(8.0, -8.0, L)
    poling = random_grating(rng, int(rng.integers(3, 40)))
    assert poling.domains != poling.reversed_().domains
    d, e = (decompose(compose(grid, pump, medium, p), grid)
            for p in (poling, poling.reversed_()))
    np.testing.assert_allclose(d.r, e.r, rtol=0, atol=1e-13)
    active = d.r > 0.0
    assert active.sum() > 20
    for own, theirs in zip(d.modes_in, e.modes_out):
        for _, overlap in subspace_overlaps(own, theirs[::-1], d.r, active=active):
            assert overlap >= 1.0 - 1e-12
    sig_in, sig_out = d.pair_modes(0, "in")[0], d.pair_modes(0, "out")[0]
    assert flip_overlap(sig_in, sig_out) <= 0.9


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), domains=st.integers(3, 39), lopsided=st.booleans())
def test_matched_double_pass_is_perfect_on_any_grating(seed, domains, lopsided):
    # The matched SGVM double pass is X = X_f^T X_f (X_f^H X_f for a lopsided
    # pump), so its input modes equal its output modes whatever the grating
    # (measured: 1 - F <= 4.4e-16 on 40 gratings); the grating sets only r_k.
    envelope = TabulatedEnvelope(LOPSIDED, np.exp(-((LOPSIDED - 1.5) ** 2) / 2.0))
    pump = PumpSpec(g0=2.0, envelope=envelope) if lopsided else PumpSpec(g0=2.0)
    grid, medium = build_grid(61, 5.0), MediumSpec(8.0, -8.0, L)
    poling = random_grating(np.random.default_rng(seed), domains)
    d = decompose(double_pass(grid, pump, medium, poling), grid)
    for k in d.active_pairs():
        for out, into in zip(d.pair_modes(k, "out"), d.pair_modes(k, "in")):
            assert 1.0 - mode_fidelity(out, into) <= 1e-12


@pytest.mark.parametrize("kappa_i", [-8.0, -4.8], ids=["sgvm", "skew"])
def test_pair_route_at_zero_gain_is_passive(kappa_i):
    grid = build_grid(N, 5.0)
    prop = compose(grid, PumpSpec(g0=0.0), MediumSpec(8.0, kappa_i, L),
                   qpm_poling(L, 2 * L / 9))
    d = matches_the_4n_oracle(prop, grid)
    assert not d.active_pairs()
    np.testing.assert_array_equal(d.lam, np.ones(2 * N))


@pytest.mark.parametrize("dtype", [float, complex])
def test_pair_route_matches_the_4n_oracle_inside_degenerate_clusters(dtype):
    # Y = diag(Q_S, Q_I) [[ch, sh], [sh, ch]] diag(P_S, P_I)^H with r = 0.8
    # three times, 0.3 twice and four passive modes: the eigensolver mixes
    # each cluster freely, and each beam half still holds half its weight
    rng = np.random.default_rng(11)
    r = np.array([0.8, 0.8, 0.8, 0.3, 0.3, 0.0, 0.0, 0.0, 0.0])

    def factor():
        U = haar_unitary(N, rng)
        return U if dtype is complex else np.linalg.qr(rng.normal(size=(N, N)))[0]

    (QS, QI, PS, PI), ch, sh = (factor() for _ in range(4)), np.cosh(r), np.sinh(r)
    Y = np.block([[(QS * ch) @ PS.conj().T, (QS * sh) @ PI.conj().T],
                  [(QI * sh) @ PS.conj().T, (QI * ch) @ PI.conj().T]])
    d = matches_the_4n_oracle(Propagator(Y, N), build_grid(N, 5.0))
    np.testing.assert_allclose(d.r, r, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dtype", [float, complex])
def test_sgvm_factors_match_the_4n_oracle_inside_degenerate_clusters(dtype):
    # conj X = A diag(s) B^H with r = 0.8 three times and 0.3 twice, each
    # cluster holding squeezers of both signs of log s (s above and below 1),
    # and four passive modes: the N x N route pairs them as the 4N route does
    rng = np.random.default_rng(12)
    rho = np.array([0.8, -0.8, 0.8, -0.3, 0.3, 0.0, 0.0, 0.0, 0.0])

    def factor():
        return haar_unitary(N, rng) if dtype is complex else \
            np.linalg.qr(rng.normal(size=(N, N)))[0]

    A, B = factor(), factor()
    X = ((A * np.exp(rho)) @ B.conj().T).conj()
    d = matches_the_4n_oracle(Propagator(X, N), build_grid(N, 5.0))
    np.testing.assert_allclose(d.r, np.sort(np.abs(rho))[::-1], rtol=0, atol=1e-14)


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("kappa_i", [-8.0, -4.8], ids=["sgvm", "skew"])
def test_pair_route_factors_a_pass_once_at_n_by_n_in_sgvm_media(monkeypatch, kappa_i, double):
    # a single SGVM pass takes one N x N SVD of conj X and a matched double
    # pass, Hermitian, one N x N eigenproblem; a 40%-mismatch pass, with no
    # N x N split of Y, one N x N SVD of its signal-idler block; none a Gram
    grid, medium = build_grid(N, 5.0), MediumSpec(8.0, kappa_i, L)
    prop = (double_pass if double else compose)(grid, PumpSpec(g0=1.0), medium,
                                                qpm_poling(L, 2 * L / 9))
    calls = []
    for name in ("sym_eig", "svd"):
        monkeypatch.setattr(numerics, name, lambda M, fn=getattr(numerics, name), name=name:
                            calls.append((name, M.shape)) or fn(M))
    assert bloch_messiah(prop).active_pairs()
    assert calls == [("sym_eig" if prop.sgvm and double else "svd", (N, N))]


def test_pair_route_reaches_g0_30_with_the_4n_route():
    # the N = 61 README medium, single pass: r_1 = 5.20, Gram eigenvalues
    # up to e^10.4, where both routes still pair their spectra
    medium = MediumSpec(8.0, -8.0, L)
    grid = build_grid(61, default_half_width(medium))
    poling = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    d = matches_the_4n_oracle(compose(grid, PumpSpec(sigma=1.0, g0=30.0), medium, poling),
                              grid)
    assert 5.19 < d.r[0] < 5.21


def test_decompose_modes_unitary_and_single_beam(setup):
    grid, pump, medium = setup
    S = compose(grid, pump, medium, Poling.unpoled(L))
    d = decompose(S, grid)
    np.testing.assert_allclose(d.U_out.conj().T @ d.U_out, np.eye(2 * N), atol=1e-9)
    np.testing.assert_allclose(d.U_in.conj().T @ d.U_in, np.eye(2 * N), atol=1e-9)
    for k in d.active_pairs():
        for direction in ("out", "in"):
            sig, idl = d.pair_modes(k, direction)
            assert np.sum(np.abs(sig.amplitudes) ** 2) > 1.0 - 1e-6
            assert np.sum(np.abs(idl.amplitudes) ** 2) > 1.0 - 1e-6
            np.testing.assert_allclose(np.linalg.norm(sig.amplitudes), 1.0,
                                       atol=1e-12)


def test_gauge_anchor_is_real_nonnegative(setup):
    grid, pump, medium = setup
    d = decompose(compose(grid, pump, medium, Poling.unpoled(L)), grid)
    c = (N - 1) // 2
    for k in d.active_pairs():
        sig, idl = d.pair_modes(k, "out")
        for m in (sig, idl):
            anchor = m.amplitudes[c]
            if abs(anchor) > 1e-10:
                assert anchor.imag == pytest.approx(0.0, abs=1e-12)
                assert anchor.real >= 0.0


def test_remove_free_phase_keeps_spectrum():
    # stripping the free path P only turns the rows of the output modes: the
    # spectrum, the input modes and the residuals of the raw factorization
    # stay bitwise, and the factors now reconstruct P^-1 S = F^T S
    grid, pump, poling = build_grid(N, 5.0), PumpSpec(g0=1.0), Poling.unpoled(L)
    for walkoff_i, double in ((-8.0, False), (-8.0, True), (-4.8, False), (-4.8, True)):
        medium = MediumSpec(8.0, walkoff_i, L)
        S = double_pass(grid, pump, medium, poling) if double \
            else compose(grid, pump, medium, poling)
        raw = decompose(S, grid)
        stripped = raw.without_free_phase(grid, medium, double)
        for name in ("lam", "r", "U_in"):
            np.testing.assert_array_equal(getattr(stripped, name), getattr(raw, name))
        assert stripped.residuals == raw.residuals
        for a, b in zip(stripped.modes_in, raw.modes_in):
            np.testing.assert_array_equal(a, b)
        # a matched SGVM double pass has (to roundoff) no free phase
        moved = max(np.max(np.abs(a - b)) for a, b in zip(stripped.modes_out, raw.modes_out))
        assert moved < 1e-14 if double and walkoff_i == -8.0 else moved > 1e-3
        F = free_propagator(grid, medium, L, double).matrix
        d = np.concatenate([stripped.lam, 1.0 / stripped.lam])
        np.testing.assert_allclose((stripped.O * d) @ stripped.O_tilde.T,
                                   F.T @ S.matrix, atol=1e-12)
    with pytest.raises(ConfigError, match="grid size 11"):
        raw.without_free_phase(build_grid(11, 5.0), medium, double)


def test_readme_library_sketch_runs_as_its_comments_say(capsys):
    # the README's library example, executed as written: r is descending and
    # the double pass's input signal mode is its output signal mode
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(sketch.split("```", 1)[0], namespace)
    dec, sig_in, sig_out = namespace["dec"], namespace["sig_in"], namespace["sig_out"]
    assert capsys.readouterr().out.startswith("[")
    assert dec.r[0] > 0.0 and np.all(np.diff(dec.r) <= 0.0)
    assert (sig_in.beam, sig_out.beam) == ("signal", "signal")
    assert mode_fidelity(sig_in, sig_out) >= 1.0 - 1e-9


def test_decompose_grid_mismatch(setup):
    grid, pump, medium = setup
    S = compose(grid, pump, medium, Poling.unpoled(L))
    with pytest.raises(ConfigError):
        decompose(S, build_grid(11, 5.0))


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


@pytest.mark.parametrize("double, gain2_scale", [(False, 1.0), (True, 1.0), (True, 1.3)])
def test_tune_gain_leaves_its_root_pass_in_the_memo(setup, compose_evaluations, double,
                                                    gain2_scale):
    # the device at the root, composed again, is the pass tuning evaluated
    # last: no new evaluation, and its photon number is the one returned
    grid, pump, medium = setup
    poling = Poling.unpoled(L)
    g0, achieved = tune_gain(grid, pump, medium, poling, 0.5, double=double,
                             gain2_scale=gain2_scale)
    evaluated = list(compose_evaluations)
    root = PumpSpec(g0=g0)
    prop = double_pass(grid, root, medium, poling, gain2_scale=gain2_scale) if double \
        else compose(grid, root, medium, poling)
    assert compose_evaluations == evaluated and g0 in evaluated
    assert prop.mean_photons()[0] == achieved


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
def test_tune_gain_evaluation_count(matrix_builds, compose_evaluations, poling, double):
    medium = MediumSpec(8.0, -8.0, L)
    grid = build_grid(21, default_half_width(medium))
    _, achieved = tune_gain(grid, PumpSpec(g0=1.0), medium, poling, 5.0,
                            double=double, tol=5e-6)
    assert abs(achieved - 5.0) <= 5e-6
    # one domain product per evaluation, single or double pass: a matched
    # double pass and the steps' spectral guesses find the pass in the memo
    assert len(compose_evaluations) <= 8
    # photons are read off the complex matrix: no 4N view is built
    assert matrix_builds == []


def test_tune_gain_readme_config_pass_count(compose_evaluations):
    # the README device at N = 101 took 11 passes with doubling and Illinois
    medium = MediumSpec(8.0, -8.0, L)
    grid = build_grid(101, default_half_width(medium))
    poling = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    g0, achieved = tune_gain(grid, PumpSpec(g0=1.0), medium, poling, 5.0,
                             double=True, tol=5e-6)
    assert abs(achieved - 5.0) <= 5e-6
    assert len(compose_evaluations) <= 7
    assert compose_evaluations[-1] == g0  # the root is the last pass evaluated


def test_tune_gain_pass_count_over_devices_and_targets(compose_evaluations):
    # 40 cases: unpoled and apodized, SGVM and 40% walk-off mismatch, single
    # and double pass, N_S from 1e-3 to 1e3; doubling and Illinois took 507
    # passes, 24 at worst.  Each case starts from an empty memo, so the count
    # is of the passes each search evaluates, not of those cases share.
    apodized = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    for poling in (Poling.unpoled(L), apodized):
        for kappa_i in (-8.0, -4.8):
            medium = MediumSpec(8.0, kappa_i, L)
            grid = build_grid(21, default_half_width(medium))
            for double in (False, True):
                for target in (1e-3, 0.5, 5.0, 50.0, 1000.0):
                    tol = 1e-6 * max(1.0, target)
                    propagator.compose.cache_clear()
                    _, achieved = tune_gain(grid, PumpSpec(g0=1.0), medium, poling,
                                            target, double=double, tol=tol)
                    assert abs(achieved - target) <= tol
    assert len(compose_evaluations) <= 355


@pytest.mark.parametrize("g0, poling, target", [
    (40.0, Poling.unpoled(L), 0.3),
    (1.0, qpm_poling(L, 2 * L / 9), 3e4),
], ids=["trial-far-above", "steep-climb"])
def test_tune_gain_reaches_targets_where_linear_false_position_stalled(g0, poling, target):
    # false position on (g0, N_S) crept along a curve this convex until its
    # point fell on a bracket end ("search stalled")
    medium = MediumSpec(8.0, -8.0, L)
    grid = build_grid(9, default_half_width(medium))
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
        x = blochmessiah._spectral_scale(Propagator.from_bogoliubov(T, n), target)
        assert blochmessiah._spectral_scale(
            Propagator.from_bogoliubov(np.diag(np.exp(-r)), n),
            target) == pytest.approx(x, rel=1e-9)
    # sinh^2 of the largest term dominates from about N_S = 10 up
    got = np.sum(np.sinh(x * r[:3]) ** 2) if target < 1e200 else \
        np.exp(2 * x * r[0] - np.log(4 * target))
    assert got == pytest.approx(target if target < 1e200 else 1.0, rel=1e-8)


def two_formula_sum(prop, target):
    """sum_k sinh^2(x r_k) / target as _spectral_scale had it: r_k = |log s(X)|
    in SGVM media, else asinh s(B), B the upper right N block of X."""
    n, X = prop.n, prop.exchange
    s = np.linalg.svd(X if prop.sgvm else X[:n, n:], compute_uv=False)
    r = np.abs(np.log(s)) if prop.sgvm else np.arcsinh(s)
    return lambda x: float(np.sum(np.sinh(x * r) ** 2)) / target


@pytest.mark.parametrize("kappa_i, g0", [(-8.0, 6.28), (-4.8, 2.5)],
                         ids=["readme", "mismatch-40pct"])
@pytest.mark.parametrize("target", [0.5, 5.0, 50.0])
def test_spectral_scale_reads_one_formula_in_both_regimes(monkeypatch, kappa_i, g0, target):
    # the README double pass and the 40% mismatch one at N = 101: the 2N
    # singular values e^{+-r_k} of X, weighted by 1/2, give the sum the N
    # values sinh r_k of its upper right block gave, to 1e-12 at every point
    # the search visits.  The roots agree to the search's stopping
    # tolerance, 1e-9 on the sum: the bracket ends differ away from SGVM
    medium = MediumSpec(8.0, kappa_i, L)
    poling = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    prop = double_pass(build_grid(101, 5.0), PumpSpec(g0=g0), medium, poling)
    assert prop.sgvm == (kappa_i == -8.0)
    visited, solve = [], blochmessiah.solve_increasing

    def recording(fn, *args):
        def spy(x):
            visited.append((x, fn(x)))
            return visited[-1][1]
        return solve(spy, *args)

    monkeypatch.setattr(blochmessiah, "solve_increasing", recording)
    x = blochmessiah._spectral_scale(prop, target)
    old = two_formula_sum(prop, target)
    assert len(visited) > 3
    for at, value in visited:
        assert value == pytest.approx(old(at), rel=1e-12)
    assert x == pytest.approx(solve(old, 1.0, 0.0, 2.0 * x, 1e-9)[0], rel=1e-9)


def test_tuning_does_not_import_scipy_optimize(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochmessiah.__file__)))
    code = (
        "import sys, twinbeam\n"
        "from twinbeam import MediumSpec, Poling, PumpSpec, build_grid, tune_gain\n"
        "medium = MediumSpec(8.0, -8.0, 1.0)\n"
        "tune_gain(build_grid(9, 5.0), PumpSpec(g0=1.0), medium,\n"
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


@pytest.fixture(scope="module")
def readme_double_pass_n51():
    """(grid, pump, medium, poling, matched double pass) of the README grating
    at N = 51 and g0 = 6.28; one 4N array is 333 KB."""
    medium = MediumSpec(8.0, -8.0, L)
    grid, pump = build_grid(51, 5.0), PumpSpec(g0=6.28)
    poling = demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))
    return grid, pump, medium, poling, double_pass(grid, pump, medium, poling)


@pytest.mark.parametrize("route, arrays", [("decompose", 0.23), ("svd_route", 0.45)])
def test_factorization_peak_memory_in_4n_arrays(readme_double_pass_n51, route, arrays):
    # Measured above entry, the 4N matrix and the pass's cached symplectic
    # residual already built: decompose 0.20 arrays (one eigenproblem of the
    # Hermitian double pass, its one real factor polished in place and
    # checked one block at a time; 0.46 with the N x N Grams of conj X and
    # X^-T and two factors A and B, 1.02 when it also formed the complex
    # mode matrices and each polish step and check block a new array),
    # svd_route(double=True) 0.39 (the real N x N SVD of conj X, released
    # before the polish, and decompose's SGVM tail, which checks against
    # conj X and X^-T and forms no complex factor; the single pass reads
    # 0.33, one N x N factor above its own tail's 0.27; 0.52 with the
    # complex P built last, 1.22 with the checks against the complex M^H M
    # and M^-1 M^-H and the 2N Z built last, 1.58 on the SVD of the complex
    # view M); each bound leaves 15%.  Building the residual
    # alone, X^-T included, reads 0.70, off the N x N conj(X X^-1) - I
    # (1.33 one beam's block row of the 2N pair form's E at a time, 2.72
    # when E was exchanged whole, and decompose read 2.91 when it built
    # it).  decompose read 1.73
    # on the 2N Gram Y Y^H with each beam's factors, svd_route 3.86 on the
    # real SVD of the 2N embedding of M; decompose read 2.51 with pair-mixed
    # 2N mode matrices, 4.02 on the 4N route, and 7.28 while its
    # eigenvectors, O and S^T O / d lived through the check.
    grid, pump, medium, poling, total = readme_double_pass_n51
    unit = total.matrix.nbytes
    if route == "decompose":
        fresh = Propagator(total.exchange, total.n)
        assert traced_peak(lambda: fresh.symplectic_residual) <= 0.80 * unit
        assert total.symplectic_residual < 1e-9
    compose(grid, pump, medium, poling)  # the forward pass svd_route reads
    run = {"decompose": lambda: decompose(total, grid),
           "svd_route": lambda: svd_route(grid, pump, medium, poling, double=True)}[route]
    assert traced_peak(run) <= arrays * unit


def test_sym_eig_decomposes_s_s_transpose_as_its_average_bitwise(readme_double_pass_n51):
    # numpy forms S @ S.T by a symmetric rank-k update, exactly symmetric, so
    # passing it to eigh unaveraged gives the eigenpairs of the average
    S = readme_double_pass_n51[-1].matrix
    M = S @ S.T
    assert np.array_equal(M, M.T)
    w, V = numerics.sym_eig(M)
    w_avg, V_avg = np.linalg.eigh(0.5 * (M + M.T))
    assert np.array_equal(w, w_avg) and np.array_equal(V, V_avg)
