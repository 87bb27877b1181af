"""Segment exponentials, chronological composition, double pass, segment and block reuse."""

from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twinbeam import (
    MediumSpec,
    Poling,
    Propagator,
    PumpSpec,
    TabulatedEnvelope,
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
from conftest import plain_product, traced_peak
from twinbeam import numerics, propagator
from twinbeam.errors import ConfigError
from twinbeam.numerics import expm
from twinbeam.propagator import embed_unitary

N = 11
L = 1.0


@pytest.fixture()
def sgvm():
    medium = MediumSpec(8.0, -8.0, L)
    grid = build_grid(N, 5.0)
    pump = PumpSpec(g0=1.0)
    return grid, pump, medium


@pytest.fixture()
def skew():
    medium = MediumSpec(8.0, -4.8, L)
    grid = build_grid(N, 5.0)
    pump = PumpSpec(g0=1.0)
    return grid, pump, medium


def readme_grating():
    """The 169-domain apodized grating of the README, demodulated."""
    return demodulate_poling(apodized_poling(L, L / 169, pmf_width=8.0))


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
        embed_unitary(S.bogoliubov),
        expm(0.3 * np.block([[-m.F, np.diag(m.g)], [-np.diag(m.g), -m.F]])),
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
    """The 4N quadrature matrix assembled block by block from (A, B, C, D) of
    the 2N matrix T = U Y U^H, Y the pair form."""
    n = prop.n
    T = propagator._exchange(prop.pair_form(), n, -1)
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
    m1 = MediumSpec(medium.kappa_signal, medium.kappa_idler, 0.4)
    m2 = MediumSpec(medium.kappa_signal, medium.kappa_idler, 0.6)
    S1 = compose(grid, pump, m1, p1).matrix
    S2 = compose(grid, pump, m2, p2).matrix
    both = compose(grid, pump, medium, Poling([(0.4, 1), (0.6, -1)])).matrix
    np.testing.assert_allclose(both, S2 @ S1, atol=1e-12)


def test_compose_rejects_length_mismatch(sgvm):
    grid, pump, medium = sgvm
    with pytest.raises(ConfigError):
        compose(grid, pump, medium, Poling.unpoled(0.5 * L))


def lopsided_pump(g0=1.0):
    """A tabulated pump centred off the mirror point: F is not centrosymmetric."""
    f = np.linspace(-12.0, 12.0, 241)
    return PumpSpec(g0=g0, envelope=TabulatedEnvelope(f, np.exp(-((f - 1.5) ** 2) / 2.0)))


def even_table_pump(g0=1.0):
    """exp(-f^2 / 2) tabulated and declared even: read folded, so F is centrosymmetric.

    The grid's sums fall between the nodes, where np.interp at +s and -s
    differs in the last bit.
    """
    f = np.linspace(-12.0, 12.0, 240)
    return PumpSpec(g0=g0, envelope=TabulatedEnvelope(f, np.exp(-(f ** 2) / 2.0),
                                                      frequency_symmetric=True))


# pump builders by test id; "even" is the Gaussian
PUMPS = {"even": lambda g0=1.0: PumpSpec(g0=g0),
         "declared-even-table": even_table_pump, "lopsided": lopsided_pump}


def exchange_generator(grid, pump, medium, sign):
    """U^H K U for one sign, of real dtype when exactly real, as compose takes it."""
    m = build_coupled_matrices(grid, pump, medium, sign=sign)
    K = propagator._exchange(propagator._generator(m), grid.n)
    return K if K.imag.any() else K.real


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("sign", [1, 0, -1])
def test_exchange_generator_is_real_for_an_even_pump(request, regime, sign):
    # U^H K U = [K + J'KJ' + i (J'K - KJ')] / 2 has the closed form -F - GJ
    # (SGVM) or [[GJ, -FJ], [-FJ, HJ]], bitwise, and U^H . U inverts it; a
    # declared-even table is as even as the Gaussian
    grid, gaussian, medium = request.getfixturevalue(regime)
    for pump in (gaussian, even_table_pump()):
        m = build_coupled_matrices(grid, pump, medium, sign=sign)
        np.testing.assert_array_equal(m.F, m.F[::-1, ::-1])
        K = propagator._exchange(propagator._generator(m), grid.n)
        assert not K.imag.any()
        GJ, FJ, HJ = np.diag(m.g)[:, ::-1], m.F[:, ::-1], np.diag(m.h)[:, ::-1]
        closed = -m.F - GJ if m.sgvm else np.block([[GJ, -FJ], [-FJ, HJ]])
        np.testing.assert_array_equal(K.real, closed)
        back = propagator._exchange(K, grid.n, -1)
        assert np.max(np.abs(back - propagator._generator(m))) <= 1e-15 * np.max(np.abs(K))


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
def test_exchange_generator_of_a_lopsided_pump_is_complex(request, regime):
    grid, _, medium = request.getfixturevalue(regime)
    K = exchange_generator(grid, lopsided_pump(), medium, 1)
    assert K.dtype == np.complex128 and K.imag.any()


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("width", [L / 169, 2.0 * L / 9.0, L])
@pytest.mark.parametrize("g0", [0.0, 1.0, 10.0])
def test_opposite_sign_exponential_matches_expm(request, regime, width, g0):
    # compose derives the other sign's exchange-basis exponential: Sigma E
    # Sigma away from SGVM is the exponential itself; J conj(E)^-1 J in SGVM
    # media carries the roundoff of one inverse.  The lopsided pump takes
    # the complex path; its inverse is worse conditioned (the original-basis
    # conj(M)^-1 of the same table is off by 3.7e-14 at g0 = 10, width L).
    grid, _, medium = request.getfixturevalue(regime)
    for pump, rtol in ((PumpSpec(g0=g0), 1e-14), (lopsided_pump(g0), 1e-13)):
        for sign in (1, -1):
            E = expm(width * exchange_generator(grid, pump, medium, sign))
            ref = expm(width * exchange_generator(grid, pump, medium, -sign))
            derived = propagator._opposite_sign(E, grid.n)
            assert derived.dtype == ref.dtype
            if regime == "skew":
                np.testing.assert_array_equal(derived, ref)
            else:
                assert np.max(np.abs(derived - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("g0", [1.0, 10.0])
@pytest.mark.parametrize("pump", list(PUMPS))
@pytest.mark.parametrize("poling", [readme_grating(), qpm_poling(L, 2.0 * L / 9.0),
                                    Poling.unpoled(L)], ids=["apodized-169", "qpm-9", "unpoled"])
def test_compose_in_the_exchange_basis_matches_the_plain_product(
        request, monkeypatch, regime, g0, pump, poling):
    # real exponentials and products for the Gaussian and the declared-even
    # table, complex ones for the lopsided table; either way the
    # original-basis complex product
    grid, _, medium = request.getfixturevalue(regime)
    even = pump != "lopsided"
    pump = PUMPS[pump](g0)
    dtypes = set()

    def recording_expm(M):
        dtypes.add(M.dtype)
        return expm(M)

    monkeypatch.setattr(numerics, "expm", recording_expm)
    prop = compose(grid, pump, medium, poling)
    assert dtypes == {np.dtype(np.float64 if even else np.complex128)}
    ref = plain_product(grid, pump, medium, poling).bogoliubov
    assert prop.bogoliubov.dtype == np.complex128
    assert np.max(np.abs(prop.bogoliubov - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("g0", [0.5, 3.0, 15.0])
@pytest.mark.parametrize("defect", [0.0, 1e-7])
def test_symplectic_residual_of_the_2n_form_matches_the_4n_one(request, regime, g0, defect):
    # summary.json reads it off X: equal to roundoff of max|S|^2.  A 2N
    # matrix bent by (I + defect A), A real antisymmetric, has a residual
    # far above roundoff (an N x N M stays symplectic however it is bent)
    grid, _, medium = request.getfixturevalue(regime)
    prop = double_pass(grid, PumpSpec(g0=g0), medium, readme_grating())
    if defect:
        A = np.random.default_rng(7).normal(size=prop.exchange.shape)
        prop = Propagator.from_bogoliubov(
            (np.eye(len(A)) + defect * (A - A.T)) @ prop.bogoliubov, grid.n)
    S = prop.matrix
    assert abs(prop.symplectic_residual - symplectic_residual(S)) <= \
        1e-15 * max(1.0, np.max(np.abs(S)) ** 2)


@pytest.mark.parametrize("regime", ["skew"])
@pytest.mark.parametrize("pump", ["even", "lopsided"])
@pytest.mark.parametrize("defect", [0.0, 1e-7])
def test_symplectic_residual_by_block_rows_is_the_whole_exchange_bitwise(request, regime,
                                                                          pump, defect):
    # away from SGVM media, U E U^H formed one beam's block row at a time
    # against _exchange of the whole 2N E: the same value bit for bit, so
    # summary.json does not move (SGVM passes read Delta = conj(X X^-1) - I
    # instead, test_sgvm_symplectic_residual_matches_the_4n_one)
    grid, _, medium = request.getfixturevalue(regime)
    prop = double_pass(grid, PUMPS[pump](3.0), medium, readme_grating())
    if defect:
        A = np.random.default_rng(8).normal(size=prop.exchange.shape)
        prop = Propagator.from_bogoliubov(
            (np.eye(len(A)) + defect * (A - A.T)) @ prop.bogoliubov, grid.n)
    n, Y = grid.n, prop.pair_form()
    sigma = np.repeat([1.0, -1.0], n)
    E = (Y * sigma) @ Y.conj().T
    E.flat[::2 * n + 1] -= sigma
    whole = propagator._embedded_max(propagator._exchange(E, n, -1))
    assert whole > 0.0
    assert prop.symplectic_residual == whole


@pytest.mark.parametrize("pump", ["even", "lopsided"])
@pytest.mark.parametrize("g0", [3.0, 15.0])
@pytest.mark.parametrize("bend", [0.0, 1e-9, 1e-6, 1e-6j])
def test_sgvm_symplectic_residual_matches_the_4n_one(sgvm, pump, g0, bend):
    # read off the N x N Delta = conj(X X^-1) - I, against the residual of the
    # 4N export, which is built from X and the same cached X^-T: equal to
    # roundoff of max|S|^2, also with that inverse bent by (I + bend A), A
    # real antisymmetric (a real bend makes Delta anti-Hermitian, an
    # imaginary one Hermitian: both parts count)
    grid, _, medium = sgvm
    prop = double_pass(grid, PUMPS[pump](g0), medium, readme_grating())
    if bend:
        A = np.random.default_rng(9).normal(size=prop.exchange.shape)
        bent = (np.eye(grid.n) + bend * (A - A.T)) @ prop._inverse_transpose
        prop = Propagator(prop.exchange, prop.n)
        prop.__dict__["_inverse_transpose"] = bent
    S = prop.matrix
    reference = symplectic_residual(S)
    assert reference > abs(bend)
    assert abs(prop.symplectic_residual - reference) <= 1e-15 * max(1.0, np.max(np.abs(S)) ** 2)


def sgvm_assembly(prop):
    """The SGVM 2N matrix on (a_S, a_I^+) assembled as [[A, B], [-B, A]],
    A, B = (M^-T + conj M) / 2, i (M^-T - conj M) / 2, from conj M = U^H conj(X) U
    and M^-T = U^H X^-T U (U symmetric): the 4N export's former SGVM form."""
    n = prop.n
    down = propagator._exchange(prop.exchange.conj(), n)
    up = propagator._exchange(prop._inverse_transpose, n)
    A, B = 0.5 * (up + down), 0.5j * (up - down)
    return np.block([[A, B], [-B, A]])


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("pump", ["even", "lopsided"])
@pytest.mark.parametrize("g0", [1.0, 6.28])
def test_pair_form_is_the_exchanged_sgvm_assembly(sgvm, pump, double, g0):
    # Y = [[J P J, J Q], [Q J, P]], built by index reversals, against U^H T U
    # of the assembly; real for an even pump
    grid, _, medium = sgvm
    build = double_pass if double else compose
    prop = build(grid, PUMPS[pump](g0), medium, readme_grating())
    T = sgvm_assembly(prop)
    Y = prop.pair_form()
    assert Y.dtype == prop.exchange.dtype and Y.shape == T.shape
    assert np.max(np.abs(Y - propagator._exchange(T, grid.n))) <= \
        1e-15 * max(1.0, np.max(np.abs(T)))


def test_pair_form_is_x_away_from_sgvm_and_formed_per_call(sgvm, skew):
    prop = compose(*skew, readme_grating())
    assert prop.pair_form() is prop.exchange
    prop = compose(*sgvm, readme_grating())
    assert prop.pair_form() is not prop.pair_form()
    assert "pair_form" not in vars(prop)


@pytest.mark.parametrize("g0", [0.5, 3.0, 15.0])
@pytest.mark.parametrize("defect", [0.0, 1e-7, 1e-7j])
def test_sgvm_symplectic_residual_from_m_matches_the_2n_blocks(sgvm, g0, defect):
    # E = T Sigma T^H - Sigma on the assembled 2N matrix against the one read
    # off the pair form: equal to roundoff of max|T|^2.  A cached inverse X^-T
    # bent by (I + defect A), A real antisymmetric, makes M^-T M^T - I
    # anti-Hermitian (defect 1e-7) or Hermitian (1e-7j), so both kinds of
    # block of E count; both forms read the bent inverse
    grid, _, medium = sgvm
    prop = double_pass(grid, PumpSpec(g0=g0), medium, readme_grating())
    n = grid.n
    A = np.random.default_rng(6).normal(size=(n, n))
    bent = (np.eye(n) + defect * (A - A.T)) @ np.linalg.inv(prop.exchange).T
    prop.__dict__["_inverse_transpose"] = bent
    T, sigma = sgvm_assembly(prop), np.repeat([1.0, -1.0], n)
    E = (T * sigma) @ T.conj().T - np.diag(sigma)
    blocks = max(np.max(np.abs(E.real)), np.max(np.abs(E.imag)))
    assert blocks > abs(defect)
    assert abs(prop.symplectic_residual - blocks) <= 1e-15 * max(1.0, np.max(np.abs(T)) ** 2)


def test_symplectic_residual_is_computed_once_per_propagator(sgvm, skew, monkeypatch):
    computed = []
    residual = Propagator.symplectic_residual.func

    def counted(prop):
        computed.append(prop)
        return residual(prop)

    cached = cached_property(counted)
    cached.__set_name__(Propagator, "symplectic_residual")
    monkeypatch.setattr(Propagator, "symplectic_residual", cached)
    for grid, pump, medium in (sgvm, skew):
        prop = compose(grid, pump, medium, readme_grating())
        assert prop.symplectic_residual == prop.symplectic_residual
        assert computed[-1] is prop
    assert len(computed) == 2


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
    medium = MediumSpec(
        kappa_s, -kappa_s * (1.0 - mismatch), sum(w for w, _ in domains))
    assert medium.sgvm() == (mismatch == 0.0)
    grid = build_grid(n, 5.0)
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
    grid = build_grid(21, default_half_width(medium))
    pump = PumpSpec(sigma=1.0, g0=25.0)
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


@pytest.mark.parametrize("regime, arrays", [("sgvm", 17.5), ("skew", 16.5)])
def test_compose_peak_memory_in_pass_arrays(request, regime, arrays):
    # The 169-domain grating at N = 51, traced above entry with the coupling
    # memo empty, in units of the pass's X: 15.2 in SGVM media, 14.3 at 40%
    # mismatch (each bound leaves 15%).  Both read 7 more (22.3, 21.3) when
    # the generator and exponential tables and every block of a level lived
    # until the next level was built.
    _, pump, medium = request.getfixturevalue(regime)
    grid, poling = build_grid(51, 5.0), readme_grating()
    unit = compose(grid, pump, medium, poling).exchange.nbytes
    build_coupled_matrices.cache_clear()
    assert traced_peak(lambda: compose.__wrapped__(grid, pump, medium, poling)) <= arrays * unit


def test_squeezer_floor_hides_product_order(skew):
    # Below the floor a squeezer's modes are roundoff; at or above it,
    # reordering the domain product leaves the reported squeezers unchanged.
    _, _, medium = skew
    grid = build_grid(31, default_half_width(medium))
    pump = PumpSpec(sigma=1.0, g0=5.0)
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


@pytest.mark.parametrize("walkoff_i", [-8.0, -4.8], ids=["sgvm", "skew"])
def test_real_passes_store_contiguous_real_arrays(walkoff_i):
    # a free pass (single and double) and a pump-off domain: X of exactly
    # zero imaginary part is stored as its own C-contiguous float64 array,
    # not a strided view pinning the complex buffer it was read off
    grid, medium = build_grid(21, 5.0), MediumSpec(8.0, walkoff_i, L)
    matrices = build_coupled_matrices(grid, PumpSpec(g0=0.0), medium, sign=1)
    for prop in (free_propagator(grid, medium, L), free_propagator(grid, medium, L, double=True),
                 segment_propagator(matrices, L / 9)):
        X = prop.exchange
        assert X.dtype == np.float64 and X.flags.c_contiguous and X.base is None


def test_double_pass_zero_gain_is_two_free_passes(sgvm):
    grid, _, medium = sgvm
    cases = [(grid, Poling.unpoled(L)),
             (build_grid(201, 5.0), qpm_poling(L, 2.0 * L / 9.0))]
    for grid, poling in cases:
        S = double_pass(grid, PumpSpec(g0=0.0), medium, poling)
        expected = free_propagator(grid, medium.swapped(), L).matrix @ \
            free_propagator(grid, medium, L).matrix
        np.testing.assert_allclose(S.matrix, expected, atol=1e-12)


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
def test_zero_gain_compose_takes_one_unpoled_exponential(request, monkeypatch, regime):
    # at g0 = 0, F = 0 for every sign, so every domain of the 169-domain
    # grating is keyed unpoled: one sign 0 coupling set, one exponential, no
    # derived opposite sign, and the pass is the free propagator to roundoff
    grid, _, medium = request.getfixturevalue(regime)
    calls, signs = [], []
    monkeypatch.setattr(numerics, "expm", lambda M: calls.append(M.shape) or expm(M))
    original = propagator.build_coupled_matrices

    def counting(*args, **kwargs):
        signs.append(kwargs["sign"])
        return original(*args, **kwargs)

    monkeypatch.setattr(propagator, "build_coupled_matrices", counting)
    prop = compose(grid, PumpSpec(g0=0.0), medium, readme_grating())
    assert len(calls) == 1 and signs == [0]
    free = free_propagator(grid, medium, L)
    assert np.max(np.abs(prop.exchange - free.exchange)) <= 1e-13


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
    medium = MediumSpec(
        kappa_s, -kappa_s * (1.0 - mismatch), poling.length)
    grid = build_grid(n, 5.0)
    pump = PumpSpec(g0=g0 * scale)
    back = compose(grid, pump, medium, poling).return_trip()
    expected = compose(grid, pump, medium.swapped(), poling.reversed_())
    assert back.sgvm == expected.sgvm == (mismatch == 0.0)
    ref = expected.bogoliubov
    assert np.max(np.abs(back.bogoliubov - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("gain2_scale, pumps", [(1.0, [1.0]), (0.7, [1.0, 0.7])],
                         ids=["matched", "detuned"])
def test_double_pass_domain_products(request, compose_evaluations, regime, gain2_scale, pumps):
    # a matched double pass finds its return pass, the forward one, in the memo
    grid, pump, medium = request.getfixturevalue(regime)
    double_pass(grid, pump, medium, qpm_poling(L, 2.0 * L / 9.0), gain2_scale=gain2_scale)
    assert compose_evaluations == pumps


def test_compose_returns_the_memoized_pass_for_equal_arguments(sgvm):
    grid, pump, medium = sgvm
    poling = qpm_poling(L, 2.0 * L / 9.0)
    prop = compose(grid, pump, medium, poling)
    # equal-valued frozen arguments built anew find the same pass
    again = compose(build_grid(N, 5.0), PumpSpec(g0=1.0),
                    MediumSpec(8.0, -8.0, L), qpm_poling(L, 2.0 * L / 9.0))
    assert again is prop
    assert compose.cache_info().misses == 1


@pytest.mark.parametrize("case", ["sgvm", "skew"])
def test_a_memoized_pass_is_read_only(request, case):
    # a write into the 4N matrix, the inverse or the original-basis view of
    # a memoized pass used to leak into the next equal compose
    grid, pump, medium = request.getfixturevalue(case)
    prop = compose(grid, pump, medium, qpm_poling(L, 2.0 * L / 9.0))
    names = ("exchange", "bogoliubov", "matrix", "_inverse_transpose")
    before = {name: getattr(prop, name).copy() for name in names}
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            getattr(prop, name)[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(prop, name)[...] *= 2.0
    again = compose(grid, pump, medium, qpm_poling(L, 2.0 * L / 9.0))
    for name in names:
        np.testing.assert_array_equal(getattr(again, name), before[name])


def original_return_trip(T, n):
    """The return trip in the original basis: M^H for an N x N M, else
    [[A, B], [C, D]] -> [[D^H, -B^H], [-C^H, A^H]]."""
    H = T.conj().T
    if len(T) == n:
        return H
    return np.block([[H[n:, n:], -H[n:, :n]], [-H[:n, n:], H[:n, :n]]])


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("pump", list(PUMPS))
@pytest.mark.parametrize("gain2_scale", [1.0, 1.3])
def test_return_trip_matches_the_original_basis_adjoint(request, regime, pump, gain2_scale):
    # X^H (SGVM) or K X^H K is U^H (the original-basis return trip) U, real
    # when X is; the double pass is that trip of the second pass after the
    # first, in either basis
    grid, _, medium = request.getfixturevalue(regime)
    even = pump != "lopsided"
    pump = PUMPS[pump](3.0)
    first = compose(grid, pump, medium, readme_grating())
    back = first.return_trip()
    assert back.exchange.dtype == np.dtype(np.float64 if even else np.complex128)
    ref = propagator._exchange(original_return_trip(first.bogoliubov, grid.n), grid.n)
    assert np.max(np.abs(back.exchange - ref)) <= 1e-14 * np.max(np.abs(ref))
    second = compose(grid, replace(pump, g0=pump.g0 * gain2_scale), medium, readme_grating())
    ref = original_return_trip(second.bogoliubov, grid.n) @ first.bogoliubov
    got = double_pass(grid, pump, medium, readme_grating(), gain2_scale).bogoliubov
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("pump", list(PUMPS))
@pytest.mark.parametrize("g0", [1.0, 10.0])
def test_derived_inverse_transpose_matches_the_inverted_view(sgvm, pump, g0):
    # M^-T = U^H X^-T U, U symmetric, against inv(M).T of the original-basis view
    grid, _, medium = sgvm
    prop = double_pass(grid, PUMPS[pump](g0), medium, readme_grating())
    ref = np.linalg.inv(prop.bogoliubov).T
    got = propagator._exchange(prop._inverse_transpose, grid.n)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_equal_valued_tables_do_not_share_a_memo_entry(sgvm):
    # tables compare by identity, so a pass is memoized per table object
    grid, _, medium = sgvm
    f = np.linspace(-12.0, 12.0, 241)
    tables = [TabulatedEnvelope(f, np.exp(-(f ** 2) / 2.0), frequency_symmetric=True)
              for _ in range(2)]
    a, b = (compose(grid, PumpSpec(g0=1.0, envelope=t), medium, Poling.unpoled(L))
            for t in tables)
    assert a is not b and compose.cache_info().misses == 2
    np.testing.assert_array_equal(a.bogoliubov, b.bogoliubov)


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
       double=st.booleans(), pump=st.sampled_from(sorted(PUMPS)))
@example(g0=4.0, walkoff_i=-8.0, double=True, pump="even")
@example(g0=1.0, walkoff_i=-4.8, double=False, pump="lopsided")
def test_propagator_photons_match_the_4n_count(g0, walkoff_i, double, pump):
    # the photon numbers read off Y are those of its 4N view (U is unitary
    # and block-diagonal per beam), for real and complex X; the 4N count
    # subtracts N/2 from sums of order N, so it carries ~N eps absolute
    # error, and g0 >= 1 keeps that below 1e-12 relative
    medium = MediumSpec(8.0, walkoff_i, L)
    grid, pump = build_grid(N, 5.0), PUMPS[pump](g0)
    poling = qpm_poling(L, 2.0 * L / 9.0)
    prop = double_pass(grid, pump, medium, poling) if double \
        else compose(grid, pump, medium, poling)
    ns, ni = prop.mean_photons()
    ref_s, ref_i = mean_photons(prop.matrix, N)
    assert ns == pytest.approx(ref_s, rel=1e-12)
    assert ni == pytest.approx(ref_i, rel=1e-12)


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("g0", [3e-3, 1.0, 6.28])
def test_photons_are_the_cross_beam_power_of_the_4n_matrix(request, regime, double, g0):
    # N_S from about 1e-7 (g0 3e-3) to 5.  Half the squared norm of the 4N
    # matrix's signal rows in its idler columns is ||T_SI||_F^2, as the pair
    # form's block is, to 1e-12 at any gain.  The 4N count subtracts N/2 from
    # sums of order N: it differs by tr(E_SS) / 2, E = T Sigma T^H - Sigma,
    # so by at most N times the symplectic residual plus the sums' roundoff
    grid, _, medium = request.getfixturevalue(regime)
    build = double_pass if double else compose
    prop = build(grid, PumpSpec(g0=g0), medium, readme_grating())
    n, S = grid.n, prop.matrix
    signal, idler = np.r_[:n, 2 * n:3 * n], np.r_[n:2 * n, 3 * n:4 * n]
    got = prop.mean_photons()
    power = [0.5 * np.sum(S[np.ix_(rows, cols)] ** 2)
             for rows, cols in ((signal, idler), (idler, signal))]
    assert got == pytest.approx(power, rel=1e-12, abs=0.0)
    slack = n * (prop.symplectic_residual + 8 * np.finfo(float).eps)
    for ns, ref in zip(got, mean_photons(S, n)):
        assert abs(ns - ref) <= 1e-12 * ref + slack


@pytest.mark.parametrize("regime", ["sgvm", "skew"])
@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
def test_low_gain_photons_follow_the_quadratic_law(request, regime, double):
    # N_S = a g0^2 (1 + O(g0^2)), about 1e-12 at g0 = 1e-5: doubling g0
    # quadruples it to 1e-7 (the SGVM block Q = (conj X - X^-T) / 2 loses
    # some digits); the 4N count's ratio misses 4 by up to 0.07 here
    grid, _, medium = request.getfixturevalue(regime)
    build = double_pass if double else compose
    low, high = (build(grid, PumpSpec(g0=g0), medium, readme_grating()).mean_photons()
                 for g0 in (1e-5, 2e-5))
    assert 1e-13 < low[0] < 1e-11
    assert np.divide(high, low) == pytest.approx([4.0, 4.0], rel=1e-7)


def complex_exchange(X, n, sign=1):
    """_exchange as the one complex expression [X + J'XJ' + sign i (J'X - XJ')] / 2."""
    flip = np.arange(len(X)).reshape(-1, n)[:, ::-1].ravel()
    s = np.repeat([1.0, -1.0], n)[:len(X)]
    JX, XJ = s[:, None] * X[flip], X[:, flip] * s
    return 0.5 * (X + s[:, None] * XJ[flip]) + (0.5j * sign) * (JX - XJ)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("beams", [1, 2], ids=["sgvm", "2n"])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 4, 9])
def test_exchange_from_the_parts_is_the_complex_expression_bitwise(n, kind, beams, sign):
    # one complex result filled from X's real and imaginary parts holds the
    # bits of the complex expression, zeros' signs included (a zero on the
    # diagonal and exactly centrosymmetric entries make some parts cancel)
    rng = np.random.default_rng(n + 10 * beams)
    X = rng.normal(size=(beams * n, beams * n))
    if kind == "complex":
        X = X + 1j * rng.normal(size=X.shape)
    X[0, 0] = 0.0
    X[1:, 1:] = 0.5 * (X[1:, 1:] + X[1:, 1:][::-1, ::-1])
    got, ref = propagator._exchange(X, n, sign), complex_exchange(X, n, sign)
    assert got.dtype == ref.dtype and np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_exchange_of_a_block_with_its_signs_is_that_block_bitwise(kind):
    # a beam block, or a beam's block row, of a 2N matrix exchanged with its
    # own signs is that block of the whole exchange: matrix_max and the
    # symplectic residual read T this way
    n, rng = 5, np.random.default_rng(3)
    X = rng.normal(size=(2 * n, 2 * n))
    if kind == "complex":
        X = X + 1j * rng.normal(size=X.shape)
    whole, beams = propagator._exchange(X, n, -1), np.repeat([1.0, -1.0], n)
    for i, a in enumerate((1.0, -1.0)):
        rows = np.s_[i * n:(i + 1) * n]
        got = propagator._exchange(X[rows], n, -1, (a, beams))
        assert np.array_equal(got.view(np.uint64), whole[rows].view(np.uint64))
        for j, b in enumerate((1.0, -1.0)):
            cols = np.s_[j * n:(j + 1) * n]
            got = propagator._exchange(X[rows, cols], n, -1, (a, b))
            assert np.array_equal(got.view(np.uint64), whole[rows, cols].view(np.uint64))


@pytest.mark.parametrize("pump", [PumpSpec(g0=1.5), lopsided_pump(1.5)], ids=["even", "lopsided"])
@pytest.mark.parametrize("regime", ["sgvm", "skew"])
def test_matrix_max_is_the_4n_max_bitwise(request, regime, pump):
    grid, _, medium = request.getfixturevalue(regime)
    prop = compose(grid, pump, medium, qpm_poling(L, 2.0 * L / 9.0))
    assert prop.matrix_max() == float(np.max(np.abs(prop.matrix)))


@pytest.mark.parametrize("E", [
    np.array([[-3.0, 2.5], [0.0, -0.0]]),
    np.array([[1.0 - 4.0j, -2.0 + 0.5j], [-0.0j, 3.0]]),
    np.array([[-0.0, 0.0]]),
    np.zeros((0, 3)),
    np.zeros((0, 2), dtype=complex),
], ids=["real", "complex", "signed-zeros", "empty-real", "empty-complex"])
def test_embedded_max_reads_each_part_bitwise(E):
    # max(P.max(), -P.min()) per part is max|P| with no |P| temporary: the
    # value of the |.| form, never -0, and 0 for an empty input
    ref = float(max(np.max(np.abs(E.real), initial=0.0), np.max(np.abs(E.imag), initial=0.0)))
    got = propagator._embedded_max(E)
    assert isinstance(got, float) and got == ref and np.signbit(got) == np.signbit(ref)


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
