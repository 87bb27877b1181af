"""Structure-exploiting routes and symmetry diagnostics, cross-checked against
the generic factorization on small grids."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (
    MediumSpec,
    Poling,
    PumpSpec,
    TabulatedEnvelope,
    apodized_poling,
    block_reduce,
    build_coupled_matrices,
    build_generator,
    build_grid,
    compose,
    decompose,
    demodulate_poling,
    flip_matrix,
    general_block_route,
    qpm_poling,
    structure_checks,
    subspace_overlaps,
    svd_route,
    symmetrized_eig_route,
    two_mode_rearrange,
)
from conftest import plain_product
from twinbeam import analytic, numerics
from twinbeam.analytic import _basis, _reduced, canonical_factors
from twinbeam.blochmessiah import BlochMessiahResult, checked_factors
from twinbeam.errors import DecompositionError, RegimeError
from twinbeam.numerics import expm, sym_eig
from twinbeam.propagator import embed_unitary

N = 9
L = 1.0


@pytest.fixture()
def sgvm():
    return build_grid(N, 5.0), PumpSpec(g0=1.0), \
        MediumSpec(8.0, -8.0, L)


@pytest.fixture()
def skew():
    return build_grid(N, 5.0), PumpSpec(g0=1.0), \
        MediumSpec(8.0, -4.8, L)


def skewed_pump():
    # lopsided tabulated envelope: breaks frequency symmetry on purpose
    f = np.linspace(-12.0, 12.0, 241)
    v = np.exp(-((f - 1.5) ** 2) / 2.0)
    return PumpSpec(envelope=TabulatedEnvelope(f, v))


def compare_routes(result, decomp_ref, r_tol=1e-8, ov_tol=1e-8):
    """Route result vs generic decomposition: r spectrum and mode subspaces."""
    U_out, U_in, r = two_mode_rearrange(result)
    assert np.max(np.abs(r - decomp_ref.r)) < r_tol
    active = decomp_ref.r > 1e-6
    for U_a, U_b in ((U_out, decomp_ref.U_out), (U_in, decomp_ref.U_in)):
        cols_active = np.repeat(active, 2)
        for _, ov in subspace_overlaps(U_a, U_b, np.repeat(decomp_ref.r, 2),
                                       active=cols_active):
            assert ov >= 1.0 - ov_tol


# ---------------------------------------------------------------- block reduction

def walkoff_unitary(n):
    """Dense W = (1/sqrt 2) [[I, -iI], [-iI, I]], the walk-off basis."""
    i = np.eye(n)
    return np.block([[i, -1j * i], [-1j * i, i]]) / np.sqrt(2.0)


def exchange_unitary(n):
    """Dense W = (1/sqrt 2) [[0, I - iJ], [I - iJ, 0]], the exchange basis."""
    a = np.eye(n) - 1j * flip_matrix(n)
    z = np.zeros((n, n))
    return np.block([[z, a], [a, z]]) / np.sqrt(2.0)


def split(basis, Q):
    """(upper-left block, worst off-block entry, lower-right block) of basis^T Q basis."""
    T = basis.T @ Q @ basis
    h = T.shape[0] // 2
    off = max(float(np.max(np.abs(T[:h, h:]))), float(np.max(np.abs(T[h:, :h]))))
    return T[:h, :h], off, T[h:, h:]


@pytest.mark.parametrize("unitary", [walkoff_unitary, exchange_unitary],
                         ids=["walkoff", "exchange"])
def test_splitting_bases_are_embedded_unitaries(unitary):
    W = unitary(N)
    np.testing.assert_allclose(W.conj().T @ W, np.eye(2 * N), atol=1e-15)
    B = embed_unitary(W)
    assert np.max(np.abs(B.T @ B - np.eye(4 * N))) < 1e-14
    # a real block factor R lifts to the complex factor W R
    R = np.random.default_rng(5).normal(size=(2 * N, 2 * N))
    lifted = B @ np.block([[R, np.zeros_like(R)], [np.zeros_like(R), R]])
    np.testing.assert_allclose(lifted, embed_unitary(W @ R), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
@pytest.mark.parametrize("sgvm, unitary", [(True, walkoff_unitary), (False, exchange_unitary)],
                         ids=["walkoff", "exchange"])
def test_basis_by_indexing_is_the_dense_product(n, sgvm, unitary):
    # a real factor lifts to W R bitwise: each entry is one rounded product
    W, basis = unitary(n), _basis(n, sgvm)
    np.testing.assert_array_equal(basis.full(np.eye(2 * n)), W)
    R = np.random.default_rng(n).normal(size=(2 * n, 2 * n))
    np.testing.assert_array_equal(basis.full(R), W @ R)
    # X: the half-swap (SGVM) or diag(J, J)
    J, z = flip_matrix(n), np.zeros((n, n))
    X = np.block([[z, np.eye(n)], [np.eye(n), z]]) if sgvm else np.block([[J, z], [z, J]])
    np.testing.assert_array_equal(R[basis.x], X @ R)


def test_block_reduce_sgvm_closed_form(sgvm):
    grid, pump, medium = sgvm
    m = build_coupled_matrices(grid, pump, medium)
    block = block_reduce(m)
    np.testing.assert_array_equal(
        block, np.block([[-m.F, np.diag(m.g)], [-np.diag(m.g), -m.F]])
    )
    Q = build_generator(m)
    C, off, lower = split(embed_unitary(walkoff_unitary(N)), Q)
    np.testing.assert_allclose(C, block, atol=1e-12)
    np.testing.assert_allclose(lower, -block.T, atol=1e-12)
    assert off < 1e-12 * np.max(np.abs(Q))


def test_block_reduce_sgvm_free_limit(sgvm):
    grid, _, medium = sgvm
    m = build_coupled_matrices(grid, PumpSpec(g0=0.0), medium)
    G = np.diag(m.g)
    np.testing.assert_array_equal(block_reduce(m), np.block([
        [np.zeros((N, N)), G], [-G, np.zeros((N, N))]
    ]))


def test_block_reduce_general_blocks(skew):
    grid, pump, medium = skew
    m = build_coupled_matrices(grid, pump, medium)
    C = block_reduce(m)
    # diagonal blocks antisymmetric, off-diagonal block symmetric and shared
    assert np.max(np.abs(C[:N, :N] + C[:N, :N].T)) == 0.0
    assert np.max(np.abs(C[N:, N:] + C[N:, N:].T)) == 0.0
    np.testing.assert_array_equal(C[:N, N:], C[N:, :N].T)
    np.testing.assert_array_equal(C[:N, N:], C[:N, N:].T)
    # the closed form is the exchange-basis reduction of the 4N generator
    Q = build_generator(m)
    reduced, off, lower = split(embed_unitary(exchange_unitary(N)), Q)
    scale = np.max(np.abs(Q))
    assert np.max(np.abs(C - reduced)) <= 1e-14 * scale
    assert np.max(np.abs(lower + C.T)) <= 1e-14 * scale
    assert off <= 1e-14 * scale


def test_block_reduce_general_needs_even_pump(skew):
    grid, _, medium = skew
    m = build_coupled_matrices(grid, skewed_pump(), medium)
    with pytest.raises(RegimeError) as err:
        block_reduce(m)
    assert err.value.residual > 1e-3


def test_block_reduce_residual_is_the_off_block_residual(skew):
    # the structural residual equals the largest off-block entry (or the
    # lower-right defect) of the 4N generator in the exchange basis
    grid, _, medium = skew
    m = build_coupled_matrices(grid, skewed_pump(), medium)
    C, off, lower = split(embed_unitary(exchange_unitary(N)), build_generator(m))
    expected = max(off, float(np.max(np.abs(lower + C.T))))
    with pytest.raises(RegimeError) as err:
        block_reduce(m)
    assert err.value.residual == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- routes

def test_symmetrized_eig_route_single_segment(sgvm):
    grid, pump, medium = sgvm
    poling = Poling.unpoled(L)
    result = symmetrized_eig_route(grid, pump, medium, poling)
    S = compose(grid, pump, medium, poling)
    assert np.max(np.abs(result.reconstruct() - S.matrix)) < 1e-9
    assert np.all(result.lam >= 1.0 - 1e-12)
    assert np.all(np.diff(result.lam) <= 1e-12)
    compare_routes(result, decompose(S, grid))


def test_symmetrized_eigenvalues_pair_oppositely(sgvm):
    grid, pump, medium = sgvm
    S = compose(grid, pump, medium, Poling.unpoled(L))
    X = np.block([[np.zeros((N, N)), np.eye(N)], [np.eye(N), np.zeros((N, N))]])
    w, _ = sym_eig(X @ embed_unitary(S.bogoliubov))
    np.testing.assert_allclose(w, -w[::-1], atol=1e-10)


def test_symmetrized_eig_route_qpm(sgvm):
    grid, pump, medium = sgvm
    poling = qpm_poling(L, 2 * L / 9)
    result = symmetrized_eig_route(grid, pump, medium, poling)
    compare_routes(result, decompose(compose(grid, pump, medium, poling), grid))


def test_symmetrized_eig_route_rejects_nonpalindromic(sgvm):
    grid, pump, medium = sgvm
    # 12-domain greedy grating: demodulated signs read differently reversed
    poling = demodulate_poling(apodized_poling(L, L / 12, pmf_width=4.0))
    assert not np.array_equal(poling.signs, poling.signs[::-1])
    with pytest.raises(RegimeError):
        symmetrized_eig_route(grid, pump, medium, poling)


def test_sgvm_routes_reject_skew_medium(skew):
    grid, pump, medium = skew
    with pytest.raises(RegimeError):
        symmetrized_eig_route(grid, pump, medium, Poling.unpoled(L))
    with pytest.raises(RegimeError):
        svd_route(grid, pump, medium, Poling.unpoled(L))


def test_svd_route_agrees_with_symmetrized(sgvm):
    grid, pump, medium = sgvm
    poling = Poling.unpoled(L)
    a = svd_route(grid, pump, medium, poling)
    b = symmetrized_eig_route(grid, pump, medium, poling)
    np.testing.assert_allclose(a.lam, b.lam, atol=1e-9)
    compare_routes(a, decompose(compose(grid, pump, medium, poling), grid))


def test_svd_route_apodized(sgvm):
    grid, pump, medium = sgvm
    poling = demodulate_poling(apodized_poling(L, L / 12, pmf_width=4.0))
    result = svd_route(grid, pump, medium, poling)
    compare_routes(result, decompose(compose(grid, pump, medium, poling), grid))


def test_svd_route_double_pass_factors_coincide(sgvm):
    grid, pump, medium = sgvm
    poling = demodulate_poling(apodized_poling(L, L / 12, pmf_width=4.0))
    result = svd_route(grid, pump, medium, poling, double=True)
    np.testing.assert_array_equal(result.Z, result.Z_tilde)
    # one polished factor on both sides, so equal residuals under both names
    assert list(result.residuals) == [
        "reconstruction", "O_orthogonal", "O_symplectic",
        "O_tilde_orthogonal", "O_tilde_symplectic",
    ]
    assert result.residuals["O_tilde_orthogonal"] == result.residuals["O_orthogonal"]
    assert result.residuals["O_tilde_symplectic"] == result.residuals["O_symplectic"]


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
def test_svd_route_keeps_real_factors_and_forms_complex_ones_on_read(sgvm, double):
    # an even pump: the route holds its real exchange-basis factors, one
    # tuple for both sides on a matched double pass, and no complex array
    # until its modes are read; the first k output mode columns, formed
    # alone, are those of the whole mode matrices bitwise, and sqrt 2 times
    # Z's beam blocks of the first k squeezers
    grid, pump, medium = sgvm
    result = svd_route(grid, pump, medium, qpm_poling(L, 2 * L / 9), double=double)
    assert (result.factors_in is result.factors_out) == double
    assert all(F.dtype == float for F in result.factors_out + result.factors_in)
    assert not [v for v in vars(result).values() if np.iscomplexobj(v)]
    whole, Z = result.modes_out, result.Z
    for k in (0, 3, N):
        signal, idler = result.mode_columns("out", np.s_[:k])
        np.testing.assert_array_equal(signal, whole[0][:, :k])
        np.testing.assert_array_equal(idler, whole[1][:, :k])
        np.testing.assert_allclose(signal, np.sqrt(2.0) * Z[:N, 0:2 * k:2], rtol=0, atol=1e-15)
        np.testing.assert_allclose(idler, np.sqrt(2.0) * Z[N:, 1:2 * k:2], rtol=0, atol=1e-15)


def route_pass(grid, pump, medium, poling, double=False):
    """The pass a route factors: the forward pass, or its matched double pass."""
    prop = compose(grid, pump, medium, poling)
    return prop.return_trip().after(prop) if double else prop


def svd_route_2n(grid, pump, medium, poling, double=False):
    """svd_route in its 2N form: the real SVD of A-hat = embed_unitary(M) in
    the walk-off basis, checked against the pass's 4N matrix."""
    _, basis, block = _reduced(grid, pump, medium, poling)
    left, s, right = numerics.svd(block)
    if double:
        left, s = right, s**2
    result = canonical_factors(basis.full(left), s, basis.full(right))
    return checked_factors(result, route_pass(grid, pump, medium, poling, double).matrix,
                           "2N form")


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("pump", [PumpSpec(g0=1.5), PumpSpec(g0=6.0),
                                  replace(skewed_pump(), g0=1.5)],
                         ids=["g0-1.5", "g0-6", "lopsided"])
@pytest.mark.parametrize("kind", ["qpm", "apodized"])
def test_svd_route_n_form_matches_the_2n_form(monkeypatch, kind, pump, double):
    # one N x N SVD gives what the 2N real SVD gave: spectrum, product and
    # active mode subspaces, at N = 51
    grid, medium = build_grid(51, 5.0), MediumSpec(8.0, -8.0, L)
    poling = qpm_poling(L, 2 * L / 9) if kind == "qpm" \
        else demodulate_poling(apodized_poling(L, L / 12, pmf_width=4.0))
    shapes, svd = [], numerics.svd

    def spy(M):
        shapes.append(M.shape)
        return svd(M)

    monkeypatch.setattr(numerics, "svd", spy)
    result = svd_route(grid, pump, medium, poling, double=double)
    assert shapes == [(51, 51)]
    reference = svd_route_2n(grid, pump, medium, poling, double=double)
    assert (result.factors_in is result.factors_out) == double
    np.testing.assert_allclose(result.lam, reference.lam, rtol=1e-13, atol=0)
    S = reference.reconstruct()
    assert np.max(np.abs(result.reconstruct() - S)) <= 1e-13 * max(1.0, np.max(np.abs(S)))
    (U_out, U_in, r), (V_out, V_in, _) = two_mode_rearrange(result), two_mode_rearrange(reference)
    active = np.repeat(r > 1e-6, 2)
    assert active.any()
    for U, V in ((U_out, V_out), (U_in, V_in)):
        for _, overlap in subspace_overlaps(U, V, np.repeat(r, 2), active=active):
            assert overlap >= 1.0 - 1e-12


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
def test_svd_route_composes_the_forward_pass_once(sgvm, double, compose_evaluations):
    # a second route on the same device finds its pass in the memo
    grid, pump, medium = sgvm
    poling = demodulate_poling(apodized_poling(L, L / 12, pmf_width=4.0))
    own = svd_route(grid, pump, medium, poling, double=double)
    again = svd_route(grid, pump, medium, poling, double=double)
    assert compose_evaluations == [pump.g0]
    for name in ("Z", "lam", "Z_tilde"):
        np.testing.assert_array_equal(getattr(again, name), getattr(own, name))
    assert again.residuals == own.residuals


ROUTES = {
    "symmetrized": ("sgvm", symmetrized_eig_route, {}),
    "svd-single": ("sgvm", svd_route, {}),
    "svd-double": ("sgvm", svd_route, {"double": True}),
    "general-block": ("skew", general_block_route, {}),
}


@pytest.mark.parametrize("name", list(ROUTES))
def test_analytic_route_rejects_a_perturbed_factor_column(request, monkeypatch, name):
    # the polish restores unitarity, so only the reconstruction can notice
    case, route, kwargs = ROUTES[name]
    grid, pump, medium = request.getfixturevalue(case)
    canonical, svd = analytic.canonical_factors, numerics.svd

    def perturbed(Z_raw, lam_raw, Z_tilde_raw):
        bent = Z_raw.copy()
        bent[1, 0] += 1e-6
        return canonical(bent, lam_raw, Z_tilde_raw)

    def bent_svd(M):  # svd_route's N x N factors: the one it places in Z
        P, s, Q = svd(M)
        (Q if kwargs else P)[1, 0] += 1e-6
        return P, s, Q

    if route is svd_route:
        monkeypatch.setattr(numerics, "svd", bent_svd)
    else:
        monkeypatch.setattr(analytic, "canonical_factors", perturbed)
    with pytest.raises(DecompositionError, match="reconstruction residual"):
        route(grid, pump, medium, qpm_poling(L, 2 * L / 9), **kwargs)


@pytest.mark.parametrize("name", list(ROUTES))
def test_route_residuals_are_the_4n_check(request, matrix_builds, name):
    # the eigenproblem oracles check their factors with checked_factors
    # against the pass's 4N matrix; svd_route checks the N x N forms of the
    # diagonal blocks of B^T S B and builds no 4N matrix, and agrees with
    # the 4N check to roundoff (at most 1.2e-15 measured for N = 9 and 51,
    # g0 up to 4, QPM, unpoled and apodized gratings; at g0 = 10 up to
    # 9.3e-14 on a double pass, whose composed 4N matrix and the route's
    # M^H M differ by roundoff)
    case, route, kwargs = ROUTES[name]
    grid, pump, medium = request.getfixturevalue(case)
    poling = qpm_poling(L, 2 * L / 9)
    result = route(grid, pump, medium, poling, **kwargs)
    if route is svd_route:
        assert matrix_builds == []
    assert result.residuals["reconstruction"] < 1e-13
    S = route_pass(grid, pump, medium, poling, **kwargs).matrix
    fresh = checked_factors(replace(result, residuals=None), S, "4N check")
    assert list(fresh.residuals) == list(result.residuals)
    if route is svd_route:
        for key, value in result.residuals.items():
            assert abs(value - fresh.residuals[key]) <= 2e-15
    else:
        assert fresh.residuals == result.residuals
    # the route's factors are real in W up to the columns turned by i, so
    # the off-diagonal blocks of B^T S_rec B, which pair real with imaginary
    # columns, are roundoff
    B = embed_unitary(_basis(N, medium.sgvm()).full(np.eye(2 * N)))
    off = (B.T @ result.reconstruct() @ B)[:2 * N, 2 * N:]
    assert np.max(np.abs(off)) < 1e-13 * max(1.0, np.max(np.abs(S)))


def test_4n_check_sees_the_lam_below_one_directions(sgvm):
    # an error in the imaginary (lam < 1) columns of Y~ = W^H Z_tilde enters
    # the upper-left block of B^T S B scaled by 1/lam and the lower-right one
    # by lam; the 4N check reads both
    grid, _, medium = sgvm
    pump = PumpSpec(g0=10.0)
    poling = qpm_poling(L, 2 * L / 9)
    result = svd_route(grid, pump, medium, poling)
    S = compose(grid, pump, medium, poling).matrix
    W = _basis(N, True).full(np.eye(2 * N))
    bent = W.conj().T @ result.Z_tilde
    k = int(np.argmax(np.abs(bent[:, :2].imag).sum(axis=0)))  # the top pair's imaginary column
    bent[:, k] += 1e-11j * np.random.default_rng(5).normal(size=2 * N)
    noisy = BlochMessiahResult(result.Z, result.lam, W @ bent)
    B = embed_unitary(W)
    E = B.T @ (noisy.reconstruct() - S) @ B
    upper, lower = (float(np.max(np.abs(E[h, h]))) for h in (np.s_[:2 * N], np.s_[2 * N:]))
    lam = result.lam[k]
    assert lam > 3.0
    assert lower > 0.5 * lam**2 * upper
    # |B| has two entries C = 1/sqrt 2 per row, so max|S_rec - S| >= lower / 2
    checked = checked_factors(noisy, S, "noisy route").residuals["reconstruction"]
    assert checked * max(1.0, np.max(np.abs(S))) >= 0.5 * lower


def test_block_propagator_centrosymmetric(sgvm):
    # compose works in the exchange basis, where this holds by construction,
    # so the symmetry is tested on the original-basis plain product
    grid, pump, medium = sgvm
    A_hat = embed_unitary(plain_product(grid, pump, medium, Poling.unpoled(L)).bogoliubov)
    J = flip_matrix(N)
    K = np.block([[np.zeros((N, N)), J], [J, np.zeros((N, N))]])
    scale = np.max(np.abs(A_hat))
    assert np.max(np.abs(K @ A_hat @ K - A_hat)) <= 1e-10 * scale


@pytest.mark.parametrize("poling", [Poling.unpoled(L), qpm_poling(L, 2 * L / 9)],
                         ids=["unpoled", "qpm"])
def test_general_block_route(skew, poling):
    grid, pump, medium = skew
    result = general_block_route(grid, pump, medium, poling)
    compare_routes(result, decompose(compose(grid, pump, medium, poling), grid))


def test_general_block_route_rejects_nonpalindromic(skew):
    grid, pump, medium = skew
    poling = demodulate_poling(apodized_poling(L, L / 12, pmf_width=4.0))
    assert poling != poling.reversed_()
    with pytest.raises(RegimeError):
        general_block_route(grid, pump, medium, poling)


def test_general_block_route_needs_even_pump(skew):
    grid, _, medium = skew
    report = structure_checks(grid, skewed_pump(), medium, Poling.unpoled(L))
    assert report["block_symmetry_residual"] > 1e-3
    assert report["flip_even"] is None
    with pytest.raises(RegimeError) as err:
        general_block_route(grid, skewed_pump(), medium, Poling.unpoled(L))
    assert err.value.residual == report["block_symmetry_residual"]


def test_reduced_checks_the_exchange_basis_once(monkeypatch, skew):
    # negating F moves neither the off-block residual nor its scale, and a
    # sign-0 domain always splits: one guard on the sign +1 matrices serves
    # a two-sign poling, and a dead poling needs none
    grid, pump, medium = skew
    qpm, lopsided = qpm_poling(L, 2 * L / 9), skewed_pump()
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs["sign"])
        return build_coupled_matrices(*args, **kwargs)

    monkeypatch.setattr(analytic, "build_coupled_matrices", counting)
    for poling, signs in ((qpm, [1]), (Poling([(L, 0)]), [])):
        built.clear()
        _reduced(grid, pump, medium, poling)
        assert built == signs
    with pytest.raises(RegimeError) as err:
        _reduced(grid, lopsided, medium, qpm)
    for sign in (1, -1):
        with pytest.raises(RegimeError) as ref:
            block_reduce(build_coupled_matrices(grid, lopsided, medium, sign=sign))
        assert ref.value.residual == err.value.residual


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([3, 5, 7, 9]),
    sigma=st.floats(0.5, 2.0),
    g0=st.floats(0.0, 1.5),
    mismatch=st.floats(0.1, 0.6),
    domains=st.lists(
        st.tuples(st.floats(0.02, 0.3), st.sampled_from([-1, 0, 1])),
        min_size=1, max_size=12,
    ),
)
def test_exchange_block_is_the_reduced_domain_product(n, sigma, g0, mismatch, domains):
    # The oracles read C-hat off the composed propagator; the reference is the
    # ordered product of the per-domain exchange-basis exponentials.
    medium = MediumSpec(8.0, -8.0 * (1.0 - mismatch),
                                      sum(w for w, _ in domains))
    grid = build_grid(n, 5.0)
    pump = PumpSpec(sigma=sigma, g0=g0)
    poling = Poling(domains)
    expected = np.eye(2 * n)
    for width, sign in domains:
        block = block_reduce(build_coupled_matrices(grid, pump, medium, sign=sign))
        expected = expm(width * block) @ expected
    prop = compose(grid, pump, medium, poling)
    _, basis, block = _reduced(grid, pump, medium, poling)
    W = basis.full(np.eye(2 * n))
    np.testing.assert_array_equal(W, exchange_unitary(n))
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(block - expected)) <= 1e-12 * scale
    # C-hat read off the complex matrix is the 4N propagator in the basis
    C_hat, off, _ = split(embed_unitary(W), prop.matrix)
    assert np.max(np.abs(block - C_hat)) <= 1e-12 * scale
    assert off <= 1e-12 * scale


def test_general_block_route_rejects_sgvm(sgvm):
    grid, pump, medium = sgvm
    with pytest.raises(RegimeError):
        general_block_route(grid, pump, medium, Poling.unpoled(L))


def test_canonical_factors_inverts_small_lambdas():
    rng = np.random.default_rng(2)

    def haar(n):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    lam_raw = np.array([2.0, 0.4, 1.0, 3.0])
    Z_raw, Zt_raw = haar(4), haar(4)
    D = np.diag(np.concatenate([lam_raw, 1.0 / lam_raw]))
    S = embed_unitary(Z_raw) @ D @ embed_unitary(Zt_raw).T
    result = canonical_factors(Z_raw, lam_raw, Zt_raw)
    np.testing.assert_allclose(np.sort(result.lam), [1.0, 2.0, 2.5, 3.0],
                               atol=1e-12)
    assert np.all(np.diff(result.lam) <= 0)
    np.testing.assert_allclose(result.reconstruct(), S, atol=1e-10)


# ---------------------------------------------------------------- diagnostics

def test_structure_checks_sgvm(sgvm):
    grid, pump, medium = sgvm
    report = structure_checks(grid, pump, medium, Poling.unpoled(L))
    assert report["sgvm"] is True
    assert report["f_centrosymmetry_residual"] <= 1e-14 * report["f_max"]
    assert report["block_symmetry_residual"] <= 1e-10
    assert (report["flip_even"], report["flip_odd"]) == (N, N)


def test_structure_checks_qpm(sgvm):
    grid, pump, medium = sgvm
    report = structure_checks(grid, pump, medium, qpm_poling(L, 2 * L / 9))
    assert report["block_symmetry_residual"] <= 1e-10
    assert (report["flip_even"], report["flip_odd"]) == (N, N)


def test_structure_checks_skew_medium(skew):
    grid, pump, medium = skew
    report = structure_checks(grid, pump, medium, Poling.unpoled(L))
    assert report["sgvm"] is False
    assert report["flip_even"] is None
    assert report["block_symmetry_residual"] <= 1e-10


@pytest.mark.parametrize("case", ["sgvm", "skew"])
def test_structure_checks_compose_the_forward_pass_once(request, case, compose_evaluations):
    # after a route or a command composed the pass, the checks find it in the memo
    grid, pump, medium = request.getfixturevalue(case)
    poling = qpm_poling(L, 2 * L / 9)
    report = structure_checks(grid, pump, medium, poling)
    assert report == structure_checks(grid, pump, medium, poling)
    assert compose_evaluations == [pump.g0]


def dense_structure(prop, grid, pump, medium, poling):
    """structure_checks' block fields with X, K and the beam swap P applied as
    dense products; away from SGVM the block is P X P, X the stored matrix."""
    n = grid.n
    i, z, j = np.eye(n), np.zeros((n, n)), flip_matrix(n)
    X, K = np.block([[z, i], [i, z]]), np.block([[z, j], [j, z]])
    if prop.sgvm:
        M = X @ embed_unitary(prop.bogoliubov)
    else:
        M = np.block([[j, z], [z, j]]) @ (X @ prop.exchange @ X).real
    fields = {"block_symmetry_residual": float(np.max(np.abs(M - M.T))),
              "flip_even": None, "flip_odd": None}
    if prop.sgvm:
        w, V = sym_eig(M)
        even = odd = k = 0
        while k < w.size:
            m = k + 1
            while m < w.size and abs(w[m] - w[k]) <= 1e-8 * max(1.0, abs(w[k])):
                m += 1
            sub = V[:, k:m]
            e = int(round(0.5 * (m - k + float(np.trace(sub.T @ K @ sub)))))
            even, odd, k = even + e, odd + m - k - e, m
        fields.update(flip_even=even, flip_odd=odd)
    return M, fields


@pytest.mark.parametrize("case", ["sgvm", "skew"])
@pytest.mark.parametrize("poling", [Poling.unpoled(L), qpm_poling(L, 2 * L / 9)],
                         ids=["unpoled", "qpm"])
def test_structure_checks_by_indexing_match_the_dense_form_bitwise(request, case, poling):
    grid, pump, medium = request.getfixturevalue(case)
    prop = compose(grid, pump, medium, poling)
    M, fields = dense_structure(prop, grid, pump, medium, poling)
    _, basis, block = _reduced(grid, pump, medium, poling)
    assert np.array_equal(block[basis.x], M)
    report = structure_checks(grid, pump, medium, poling)
    assert {key: report[key] for key in fields} == fields


@pytest.mark.parametrize("poling", [Poling.unpoled(L), qpm_poling(L, 2 * L / 9),
                                    demodulate_poling(apodized_poling(L, L / 169, 8.0))],
                         ids=["unpoled", "qpm", "apodized-169"])
@pytest.mark.parametrize("g0", [1.0, 5.0])
def test_reduced_block_matches_the_dense_exchange_product(skew, poling, g0):
    # V = e^{-i pi/4} U P, so Re(V^H T V) is the stored X with its beam
    # halves swapped; V the rows of the dense W, the idler rows conjugated
    grid, _, medium = skew
    pump = PumpSpec(g0=g0)
    _, _, block = _reduced(grid, pump, medium, poling)
    n, W = grid.n, exchange_unitary(grid.n)
    V = np.vstack([W[:n], W[n:].conj()])  # T acts on a_I^+, not a_I
    ref = V.conj().T @ compose(grid, pump, medium, poling).bogoliubov @ V
    assert np.max(np.abs(ref.imag)) <= 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(block - ref.real)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("pump", [PumpSpec(g0=1.5), PumpSpec(g0=6.0),
                                  replace(skewed_pump(), g0=1.5), replace(skewed_pump(), g0=6.0)],
                         ids=["even-1.5", "even-6", "lopsided-1.5", "lopsided-6"])
@pytest.mark.parametrize("poling", [Poling.unpoled(L), qpm_poling(L, 2 * L / 9)],
                         ids=["unpoled", "qpm"])
def test_flip_classes_are_reported_where_the_flip_commutes(sgvm, pump, poling):
    # palindromic polings make X A-hat symmetric for any pump; the 2N flip K
    # commutes with it bitwise for an even pump and not at all for a
    # lopsided one, whose flip classes are None (the cluster count of the
    # eigenvectors gave N/N there, or off by rounding)
    grid, _, medium = sgvm
    prop = compose(grid, pump, medium, poling)
    M, fields = dense_structure(prop, grid, pump, medium, poling)
    z, j = np.zeros((N, N)), flip_matrix(N)
    K = np.block([[z, j], [j, z]])
    commutes = np.array_equal(K @ M @ K, M)
    assert commutes == pump.frequency_symmetric
    report = structure_checks(grid, pump, medium, poling)
    assert report["block_symmetry_residual"] == fields["block_symmetry_residual"] <= 1e-10
    expected = (N, N) if commutes else (None, None)
    assert (report["flip_even"], report["flip_odd"]) == expected


def test_structure_checks_takes_no_2n_eigenproblem(monkeypatch, sgvm):
    grid, pump, medium = sgvm
    orders, sym_eig_ = [], numerics.sym_eig
    monkeypatch.setattr(numerics, "sym_eig", lambda M: orders.append(len(M)) or sym_eig_(M))
    report = structure_checks(grid, pump, medium, qpm_poling(L, 2 * L / 9))
    assert report["flip_even"] == N and orders == []


def test_structure_checks_flags_asymmetric_pump(sgvm):
    grid, _, medium = sgvm
    report = structure_checks(grid, skewed_pump(), medium, Poling.unpoled(L))
    assert report["f_centrosymmetry_residual"] > 1e-3 * report["f_max"]
