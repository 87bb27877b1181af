"""Segment exponentials, chronological composition, double pass, segment and block reuse."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twinbeam import (
    MediumSpec,
    Poling,
    Propagator,
    PumpSpec,
    apodized_poling,
    build_coupled_matrices,
    build_generator,
    build_grid,
    compose,
    decompose,
    default_half_width,
    demodulate_poling,
    double_pass,
    flip_overlap,
    free_propagator,
    load_matrix,
    mean_photons,
    qpm_poling,
    segment_propagator,
    symplectic_residual,
)
from twinbeam import numerics, propagator
from twinbeam.errors import ConfigError
from twinbeam.numerics import expm
from twinbeam.propagator import embed_unitary

N = 11
L = 1.0


@pytest.fixture()
def sgvm():
    medium = MediumSpec.from_walkoffs(8.0, -8.0, L)
    grid = build_grid(N, 0.0, 5.0)
    pump = PumpSpec(g0=1.0)
    return grid, pump, medium


@pytest.fixture()
def skew():
    medium = MediumSpec.from_walkoffs(8.0, -4.8, L)
    grid = build_grid(N, 0.0, 5.0)
    pump = PumpSpec(g0=1.0)
    return grid, pump, medium


def readme_grating():
    """The 169-domain apodized grating of the README, demodulated."""
    return demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))


def plain_product(grid, pump, medium, poling):
    """The ordered loop: one left-multiplied product per domain."""
    segments = {}
    total = np.eye(grid.n if medium.sgvm() else 2 * grid.n)
    for width, sign in poling.domains:
        if (width, sign) not in segments:
            m = build_coupled_matrices(grid, pump, medium, sign=sign)
            segments[width, sign] = segment_propagator(m, width).bogoliubov
        total = segments[width, sign] @ total
    return Propagator(total, grid.n)


def test_symplectic_form():
    # Omega = [[0, I], [-I, 0]] is the embedding of -iI
    omega = embed_unitary(-1j * np.eye(4))
    np.testing.assert_array_equal(omega[:4, 4:], np.eye(4))
    np.testing.assert_array_equal(omega @ omega, -np.eye(8))
    assert symplectic_residual(np.eye(8)) == symplectic_residual(omega) == 0.0


def test_symplectic_residual_matches_the_dense_omega_product_bitwise(sgvm, skew):
    # S Omega is formed by swapping column halves; the residual must be the
    # very float the product with the dense Omega gives
    mats = [compose(*sgvm, readme_grating()).matrix,
            double_pass(*skew, readme_grating()).matrix,
            np.random.default_rng(2).normal(size=(12, 12))]
    for S in mats:
        omega = embed_unitary(-1j * np.eye(S.shape[0] // 2))
        dense = float(np.max(np.abs(S @ omega @ S.T - omega)))
        assert np.array_equal(symplectic_residual(S), dense)


def test_segment_block_route_agrees_with_full_exponential(sgvm):
    grid, pump, medium = sgvm
    m = build_coupled_matrices(grid, pump, medium)
    S = segment_propagator(m, 0.3)
    full = expm(0.3 * build_generator(m))
    assert np.max(np.abs(S.matrix - full)) < 1e-10
    np.testing.assert_allclose(
        embed_unitary(S.bogoliubov), expm(0.3 * np.block([[-m.F, m.G], [-m.G, -m.F]])),
        atol=1e-12
    )


def test_segment_nonsgvm_is_symplectic(skew):
    grid, pump, medium = skew
    S = segment_propagator(build_coupled_matrices(grid, pump, medium), 0.5)
    assert symplectic_residual(S.matrix) < 1e-10


def test_segment_free_limit(sgvm):
    grid, _, medium = sgvm
    m = build_coupled_matrices(grid, PumpSpec(g0=0.0), medium)
    S = segment_propagator(m, L)
    np.testing.assert_allclose(S.matrix, free_propagator(grid, medium, L).matrix,
                               atol=1e-13)


def test_segment_rejects_nonpositive_width(sgvm):
    grid, pump, medium = sgvm
    m = build_coupled_matrices(grid, pump, medium)
    with pytest.raises(ConfigError):
        segment_propagator(m, 0.0)


def test_segments_are_symplectic(sgvm, skew):
    for grid, pump, medium in (sgvm, skew):
        m = build_coupled_matrices(grid, pump, medium)
        for dz in (1e-3, 0.1, 1.0):
            assert symplectic_residual(segment_propagator(m, dz).matrix) < 1e-10


def test_compose_single_domain_is_plain_exponential(sgvm):
    grid, pump, medium = sgvm
    S = compose(grid, pump, medium, Poling.unpoled(L))
    m = build_coupled_matrices(grid, pump, medium)
    np.testing.assert_allclose(S.matrix, expm(L * build_generator(m)), atol=1e-11)


def sixteen_block_matrix(prop):
    """The 4N quadrature matrix assembled block by block from (A, B, C, D)."""
    n, T = prop.n, prop.bogoliubov
    if prop.sgvm:
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


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("case", ["sgvm", "skew"])
def test_matrix_is_the_sign_flipped_embedding_bitwise(request, case, double):
    grid, pump, medium = request.getfixturevalue(case)
    build = double_pass if double else compose
    prop = build(grid, pump, medium, readme_grating())
    assert prop.matrix.tobytes() == sixteen_block_matrix(prop).tobytes()


def test_compose_split_domain_commutes(sgvm):
    grid, pump, medium = sgvm
    whole = compose(grid, pump, medium, Poling.unpoled(L))
    halves = compose(grid, pump, medium, Poling([(L / 2, 1), (L / 2, 1)]))
    assert np.max(np.abs(whole.matrix - halves.matrix)) < 1e-12


def test_compose_order_is_chronological(sgvm):
    # later domains multiply from the left: S = S2 @ S1
    grid, pump, medium = sgvm
    p1 = Poling([(0.4, 1)])
    p2 = Poling([(0.6, -1)])
    m1 = MediumSpec(medium.v_pump, medium.v_signal, medium.v_idler, 0.4)
    m2 = MediumSpec(medium.v_pump, medium.v_signal, medium.v_idler, 0.6)
    S1 = compose(grid, pump, m1, p1).matrix
    S2 = compose(grid, pump, m2, p2).matrix
    both = compose(grid, pump, medium, Poling([(0.4, 1), (0.6, -1)])).matrix
    np.testing.assert_allclose(both, S2 @ S1, atol=1e-12)


def test_compose_rejects_length_mismatch(sgvm):
    grid, pump, medium = sgvm
    with pytest.raises(ConfigError):
        compose(grid, pump, medium, Poling.unpoled(0.5 * L))


def segment_generator(grid, pump, medium, sign):
    """The complex generator segment_propagator exponentiates for one sign."""
    m = build_coupled_matrices(grid, pump, medium, sign=sign)
    if m.sgvm:
        return -m.F - 1j * m.G
    return 1j * np.block([[m.G, m.F], [-m.F, -m.H]])


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("width", [L / 169, 2.0 * L / 9.0, L])
@pytest.mark.parametrize("g0", [0.0, 1.0, 10.0])
def test_opposite_sign_exponential_matches_expm(request, regime, width, g0):
    # Sigma E Sigma away from SGVM is the exponential itself; conj(M)^-1 in
    # SGVM media carries the roundoff of one inverse
    grid, _, medium = request.getfixturevalue(regime)
    pump = PumpSpec(g0=g0)
    for sign in (1, -1):
        E = segment_propagator(build_coupled_matrices(grid, pump, medium, sign=sign),
                               width).bogoliubov
        ref = expm(width * segment_generator(grid, pump, medium, -sign))
        derived = propagator._opposite_sign(E, grid.n)
        if regime == "skew":
            np.testing.assert_array_equal(derived, ref)
        else:
            assert np.max(np.abs(derived - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("g0", [0.5, 3.0, 15.0])
def test_symplectic_residual_of_the_2n_form_matches_the_4n_one(request, regime, g0):
    # summary.json reads it off the 2N matrix: equal to roundoff of max|S|^2
    grid, _, medium = request.getfixturevalue(regime)
    prop = double_pass(grid, PumpSpec(g0=g0), medium, readme_grating())
    S = prop.matrix
    assert abs(prop.symplectic_residual() - symplectic_residual(S)) <= \
        1e-15 * max(1.0, np.max(np.abs(S)) ** 2)


def test_compose_cache_reuse(sgvm, monkeypatch):
    # 1001 domains of two (width, sign) kinds, one width with both signs:
    # one exponential, the other sign's derived from it
    grid, pump, medium = sgvm
    calls = []

    def counting_expm(M):
        calls.append(M.shape)
        return expm(M)

    monkeypatch.setattr(numerics, "expm", counting_expm)
    compose(grid, pump, medium, qpm_poling(L, 2.0 * L / 1001))
    assert calls == [(N, N)]


# Words of 1-40 domains over 2-3 (width, sign) kinds: aligned blocks repeat,
# so the pairwise reduction in compose reuses products.
_words = st.lists(
    st.tuples(st.floats(0.01, 0.1), st.sampled_from([-1, 0, 1])),
    min_size=2, max_size=3, unique=True,
).flatmap(lambda kinds: st.lists(st.sampled_from(kinds), min_size=1, max_size=40))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 9),
    kappa_s=st.floats(1.0, 8.0),
    mismatch=st.one_of(st.just(0.0), st.floats(0.1, 0.6)),
    g0=st.floats(0.0, 2.0),
    domains=st.one_of(
        st.lists(
            st.tuples(st.floats(0.05, 0.5), st.sampled_from([-1, 0, 1])),
            min_size=1, max_size=5,
        ),
        _words,
    ),
)
@example(n=7, kappa_s=8.0, mismatch=0.0, g0=1.5,
         domains=[(0.05, 1), (0.05, -1)] * 9 + [(0.02, 0)])
@example(n=7, kappa_s=8.0, mismatch=0.4, g0=1.5,
         domains=[(0.05, 1), (0.05, -1), (0.05, 1), (0.02, 0)] * 5)
def test_compose_matches_product_of_quadrature_exponentials(
        n, kappa_s, mismatch, g0, domains):
    medium = MediumSpec.from_walkoffs(
        kappa_s, -kappa_s * (1.0 - mismatch), sum(w for w, _ in domains))
    assert medium.sgvm() == (mismatch == 0.0)
    grid = build_grid(n, 0.0, 5.0)
    pump = PumpSpec(g0=g0)
    poling = Poling(domains)
    prop = compose(grid, pump, medium, poling)
    ref = plain_product(grid, pump, medium, poling).bogoliubov
    assert np.max(np.abs(prop.bogoliubov - ref)) <= 1e-12 * np.max(np.abs(ref))
    exponentials = {}
    expected = np.eye(4 * n)
    for width, sign in domains:
        if (width, sign) not in exponentials:
            m = build_coupled_matrices(grid, pump, medium, sign=sign)
            exponentials[width, sign] = expm(width * build_generator(m))
        expected = exponentials[width, sign] @ expected
    np.testing.assert_allclose(prop.matrix, expected, rtol=0,
                               atol=1e-10 * np.max(np.abs(expected)))


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
def test_compose_matches_plain_loop_at_high_gain(request, regime):
    # roundoff of the pairwise reduction stays relative at N_S ~ 1e3
    medium = request.getfixturevalue(regime)[2]
    grid = build_grid(21, 0.0, default_half_width(medium))
    pump = PumpSpec(center=0.0, sigma=1.0, g0=25.0)
    prop = compose(grid, pump, medium, readme_grating())
    assert 3e2 < prop.mean_photons()[0] < 3e4
    ref = plain_product(grid, pump, medium, readme_grating()).bogoliubov
    assert np.max(np.abs(prop.bogoliubov - ref)) <= 1e-12 * np.max(np.abs(ref))


class _CountingMatrix(np.ndarray):
    """An ndarray that counts its matrix products."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return (np.asarray(self) @ np.asarray(other)).view(_CountingMatrix)


@pytest.mark.parametrize("poling, bound", [
    (readme_grating(), 36),
    (qpm_poling(L, 2.0 * L / 9.0), 4),
    (qpm_poling(L, 2.0 * L / 1001), 15),
], ids=["apodized-169", "qpm-9", "qpm-1001"])
def test_compose_products_follow_the_poling_structure(sgvm, monkeypatch, poling, bound):
    # the plain loop takes one product per domain after the first: 168, 8, 1000
    grid, pump, medium = sgvm
    monkeypatch.setattr(numerics, "expm", lambda M: expm(M).view(_CountingMatrix))
    monkeypatch.setattr(_CountingMatrix, "products", 0)
    compose(grid, pump, medium, poling)
    assert _CountingMatrix.products <= bound


def test_squeezer_floor_hides_product_order(skew):
    # Below the floor a squeezer's modes are roundoff; at or above it,
    # reordering the domain product leaves the reported squeezers unchanged.
    _, _, medium = skew
    grid = build_grid(31, 0.0, default_half_width(medium))
    pump = PumpSpec(center=0.0, sigma=1.0, g0=5.0)
    flips = []
    for single in (compose(grid, pump, medium, readme_grating()),
                   plain_product(grid, pump, medium, readme_grating())):
        d = decompose(single.return_trip().after(single), grid)
        raw_r = 0.5 * np.log(d.lam[0::2] * d.lam[1::2])
        assert np.any((raw_r > 1e-12) & (raw_r < 1e-6))
        flips.append({k: flip_overlap(d.pair_modes(k, "in")[0], d.pair_modes(k, "out")[0])
                      for k in d.active_pairs()})
    pairwise, plain = flips
    assert list(pairwise) == list(plain)
    assert max(abs(pairwise[k] - plain[k]) for k in pairwise) <= 1e-8


def test_long_product_stays_symplectic_and_unimodular(sgvm):
    grid, pump, medium = sgvm
    poling = qpm_poling(L, 2.0 * L / 201)
    S = compose(grid, pump, medium, poling).matrix
    assert symplectic_residual(S) < 1e-8
    sign, logdet = np.linalg.slogdet(S)
    assert sign == 1.0 and abs(logdet) < 1e-8


def test_free_propagator_contracts(sgvm):
    grid, _, medium = sgvm
    F = free_propagator(grid, medium, L).matrix
    assert np.max(np.abs(F.T @ F - np.eye(4 * N))) < 1e-10
    s = np.linalg.svd(F, compute_uv=False)
    np.testing.assert_allclose(s, 1.0, atol=1e-12)
    np.testing.assert_allclose(
        free_propagator(grid, medium, -L).matrix, F.T, atol=1e-13
    )
    np.testing.assert_array_equal(free_propagator(grid, medium, 0.0).matrix,
                                  np.eye(4 * N))


def test_double_pass_zero_gain_is_two_free_passes(sgvm):
    grid, _, medium = sgvm
    cases = [(grid, Poling.unpoled(L)),
             (build_grid(201, 0.0, 5.0), qpm_poling(L, 2.0 * L / 9.0))]
    for grid, poling in cases:
        S = double_pass(grid, PumpSpec(g0=0.0), medium, poling)
        expected = free_propagator(grid, medium.swapped(), L).matrix @ \
            free_propagator(grid, medium, L).matrix
        np.testing.assert_allclose(S.matrix, expected, atol=1e-12)


def test_double_pass_gain2_zero_turns_second_pass_free(sgvm):
    grid, pump, medium = sgvm
    poling = Poling.unpoled(L)
    S = double_pass(grid, pump, medium, poling, gain2_scale=0.0)
    expected = free_propagator(grid, medium.swapped(), L).matrix @ \
        compose(grid, pump, medium, poling).matrix
    np.testing.assert_allclose(S.matrix, expected, atol=1e-12)


def test_double_pass_block_product(sgvm):
    grid, pump, medium = sgvm
    poling = Poling.unpoled(L)
    S = double_pass(grid, pump, medium, poling)
    first = compose(grid, pump, medium, poling)
    second = compose(grid, pump, medium.swapped(), poling)
    np.testing.assert_allclose(embed_unitary(S.bogoliubov), embed_unitary(
        second.bogoliubov) @ embed_unitary(first.bogoliubov), atol=1e-10)
    np.testing.assert_allclose(S.matrix, second.matrix @ first.matrix, atol=1e-10)
    assert symplectic_residual(S.matrix) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 5, 7, 9]),
    kappa_s=st.floats(1.0, 8.0),
    mismatch=st.one_of(st.just(0.0), st.floats(0.1, 0.6)),
    g0=st.floats(0.0, 2.0),
    scale=st.floats(0.0, 2.0),
    domains=st.lists(
        st.tuples(st.floats(0.05, 0.5), st.sampled_from([-1, 0, 1])),
        min_size=2, max_size=6,
    ),
)
@example(n=9, kappa_s=8.0, mismatch=0.0, g0=1.5, scale=0.7,
         domains=[(0.3, 1), (0.2, -1), (0.1, 0)])
@example(n=9, kappa_s=8.0, mismatch=0.4, g0=1.5, scale=1.3,
         domains=[(0.3, 1), (0.2, -1), (0.1, 0)])
def test_return_trip_is_the_reversed_swapped_pass(n, kappa_s, mismatch, g0, scale,
                                                  domains):
    # the return trip of a forward pass equals the pass simulated backwards:
    # domains reversed, signal and idler velocities exchanged
    poling = Poling(domains)
    assume(poling != poling.reversed_())
    medium = MediumSpec.from_walkoffs(
        kappa_s, -kappa_s * (1.0 - mismatch), poling.length)
    grid = build_grid(n, 0.0, 5.0)
    pump = PumpSpec(g0=g0 * scale)
    back = compose(grid, pump, medium, poling).return_trip()
    expected = compose(grid, pump, medium.swapped(), poling.reversed_())
    assert back.sgvm == expected.sgvm == (mismatch == 0.0)
    ref = expected.bogoliubov
    assert np.max(np.abs(back.bogoliubov - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("gain2_scale, pumps", [(1.0, [1.0]), (0.7, [1.0, 0.7])],
                         ids=["matched", "detuned"])
def test_double_pass_domain_products(monkeypatch, request, regime, gain2_scale, pumps):
    # a matched double pass reuses its forward product for the return trip
    grid, pump, medium = request.getfixturevalue(regime)
    built = []

    def counting_compose(grid, pump, medium, poling):
        built.append(pump.g0)
        return compose(grid, pump, medium, poling)

    monkeypatch.setattr(propagator, "compose", counting_compose)
    double_pass(grid, pump, medium, qpm_poling(L, 2.0 * L / 9.0), gain2_scale=gain2_scale)
    assert built == pumps


def test_mean_photons_zero_and_known_squeezer():
    assert mean_photons(np.eye(8), 2) == (0.0, 0.0)
    # direct two-mode squeezer on one signal/idler bin pair
    r = 0.7
    c, s = np.cosh(r), np.sinh(r)
    S = np.array([
        [c, s, 0.0, 0.0],
        [s, c, 0.0, 0.0],
        [0.0, 0.0, c, -s],
        [0.0, 0.0, -s, c],
    ])
    ns, ni = mean_photons(S, 1)
    assert ns == pytest.approx(np.sinh(r) ** 2, rel=1e-12)
    assert ni == pytest.approx(np.sinh(r) ** 2, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(g0=st.floats(1.0, 4.0), walkoff_i=st.sampled_from([-8.0, -4.8]),
       double=st.booleans())
@example(g0=4.0, walkoff_i=-8.0, double=True)
def test_propagator_photons_match_the_4n_count(g0, walkoff_i, double):
    # the photon numbers read off the complex matrix are those of its 4N
    # view; the 4N count subtracts N/2 from sums of order N, so it carries
    # ~N eps absolute error, and g0 >= 1 keeps that below 1e-12 relative
    medium = MediumSpec.from_walkoffs(8.0, walkoff_i, L)
    grid, pump = build_grid(N, 0.0, 5.0), PumpSpec(g0=g0)
    poling = qpm_poling(L, 2.0 * L / 9.0)
    prop = double_pass(grid, pump, medium, poling) if double \
        else compose(grid, pump, medium, poling)
    ns, ni = prop.mean_photons()
    ref_s, ref_i = mean_photons(prop.matrix, N)
    assert ns == pytest.approx(ref_s, rel=1e-12)
    assert ni == pytest.approx(ref_i, rel=1e-12)


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    M = rng.normal(size=(6, 4))
    path = tmp_path / "m.txt"
    np.savetxt(path, M, header="%d %d" % M.shape, comments="")
    np.testing.assert_array_equal(load_matrix(path), M)


def test_load_matrix_rejects_bad_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("3\n1 2 3\n")
    with pytest.raises(ConfigError):
        load_matrix(path)
