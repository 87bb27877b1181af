"""Structure-exploiting routes and symmetry diagnostics, cross-checked against
the generic factorization on small grids."""

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
    general_split_basis,
    qpm_poling,
    structure_checks,
    subspace_overlaps,
    svd_route,
    symmetrized_eig_route,
    two_mode_rearrange,
)
from twinbeam.analytic import _reduced, canonical_factors
from twinbeam.blochmessiah import embed_unitary
from twinbeam.errors import RegimeError
from twinbeam.numerics import expm, sym_eig

N = 9
L = 1.0


@pytest.fixture()
def sgvm():
    return build_grid(N, 0.0, 5.0), PumpSpec(g0=1.0), \
        MediumSpec.from_walkoffs(8.0, -8.0, L)


@pytest.fixture()
def skew():
    return build_grid(N, 0.0, 5.0), PumpSpec(g0=1.0), \
        MediumSpec.from_walkoffs(8.0, -4.8, L)


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

def test_block_reduce_sgvm_closed_form(sgvm):
    grid, pump, medium = sgvm
    m = build_coupled_matrices(grid, pump, medium)
    red = block_reduce(m)
    assert red.kind == "sgvm"
    np.testing.assert_array_equal(
        red.block, np.block([[-m.F, m.G], [-m.G, -m.F]])
    )
    dim = 4 * N
    assert np.max(np.abs(red.basis.T @ red.basis - np.eye(dim))) < 1e-14
    Q = build_generator(m)
    T = red.basis.T @ Q @ red.basis
    h = 2 * N
    np.testing.assert_allclose(T[:h, :h], red.block, atol=1e-12)
    np.testing.assert_allclose(T[h:, h:], -red.block.T, atol=1e-12)
    assert np.max(np.abs(T[:h, h:])) < 1e-12 * np.max(np.abs(Q))
    assert np.max(np.abs(T[h:, :h])) < 1e-12 * np.max(np.abs(Q))


def test_block_reduce_sgvm_free_limit(sgvm):
    grid, _, medium = sgvm
    m = build_coupled_matrices(grid, PumpSpec(g0=0.0), medium)
    red = block_reduce(m)
    G = m.G
    np.testing.assert_array_equal(red.block, np.block([
        [np.zeros((N, N)), G], [-G, np.zeros((N, N))]
    ]))


def test_block_reduce_general_blocks(skew):
    grid, pump, medium = skew
    red = block_reduce(build_coupled_matrices(grid, pump, medium))
    assert red.kind == "general"
    C = red.block
    # diagonal blocks antisymmetric, off-diagonal block symmetric and shared
    assert np.max(np.abs(C[:N, :N] + C[:N, :N].T)) == 0.0
    assert np.max(np.abs(C[N:, N:] + C[N:, N:].T)) == 0.0
    np.testing.assert_array_equal(C[:N, N:], C[N:, :N].T)
    np.testing.assert_array_equal(C[:N, N:], C[:N, N:].T)


def test_block_reduce_general_needs_even_pump(skew):
    grid, _, medium = skew
    m = build_coupled_matrices(grid, skewed_pump(), medium)
    with pytest.raises(RegimeError) as err:
        block_reduce(m)
    assert err.value.residual > 1e-3


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
    w, _ = sym_eig(X @ S.block)
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
    np.testing.assert_array_equal(result.O, result.O_tilde)
    # one polished factor, its residuals computed once and reported twice
    assert list(result.residuals) == [
        "reconstruction", "O_orthogonal", "O_symplectic",
        "O_tilde_orthogonal", "O_tilde_symplectic",
    ]
    assert result.residuals["O_tilde_orthogonal"] == result.residuals["O_orthogonal"]
    assert result.residuals["O_tilde_symplectic"] == result.residuals["O_symplectic"]


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
def test_svd_route_takes_the_composed_forward_pass(sgvm, double):
    grid, pump, medium = sgvm
    poling = demodulate_poling(apodized_poling(L, L / 12, pmf_width=4.0))
    own = svd_route(grid, pump, medium, poling, double=double)
    handed = svd_route(grid, pump, medium, poling, double=double,
                       prop=compose(grid, pump, medium, poling))
    for name in ("O", "lam", "O_tilde"):
        np.testing.assert_array_equal(getattr(handed, name), getattr(own, name))
    assert handed.residuals == own.residuals


def test_block_propagator_centrosymmetric(sgvm):
    grid, pump, medium = sgvm
    A_hat = compose(grid, pump, medium, Poling.unpoled(L)).block
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
    medium = MediumSpec.from_walkoffs(8.0, -8.0 * (1.0 - mismatch),
                                      sum(w for w, _ in domains))
    grid = build_grid(n, 0.0, 5.0)
    pump = PumpSpec(sigma=sigma, g0=g0)
    poling = Poling(domains)
    expected = np.eye(2 * n)
    for width, sign in domains:
        block = block_reduce(build_coupled_matrices(grid, pump, medium, sign=sign)).block
        expected = expm(width * block) @ expected
    prop = compose(grid, pump, medium, poling)
    X, B, M, K = _reduced(prop, grid, pump, medium, poling)
    assert K is None
    np.testing.assert_array_equal(B, general_split_basis(n))
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(X @ M - expected)) <= 1e-12 * scale
    T = B.T @ prop.matrix @ B
    h = 2 * n
    assert max(np.max(np.abs(T[:h, h:])), np.max(np.abs(T[h:, :h]))) <= 1e-12 * scale


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
    O_raw = embed_unitary(haar(4))
    Ot_raw = embed_unitary(haar(4))
    D = np.diag(np.concatenate([lam_raw, 1.0 / lam_raw]))
    S = O_raw @ D @ Ot_raw.T
    result = canonical_factors(O_raw, lam_raw, Ot_raw)
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
def test_structure_checks_take_the_composed_forward_pass(request, case):
    grid, pump, medium = request.getfixturevalue(case)
    poling = qpm_poling(L, 2 * L / 9)
    handed = structure_checks(grid, pump, medium, poling,
                              prop=compose(grid, pump, medium, poling))
    assert handed == structure_checks(grid, pump, medium, poling)


def test_structure_checks_flags_asymmetric_pump(sgvm):
    grid, _, medium = sgvm
    report = structure_checks(grid, skewed_pump(), medium, Poling.unpoled(L))
    assert report["f_centrosymmetry_residual"] > 1e-3 * report["f_max"]
