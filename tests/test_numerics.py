"""Contracts of the dense linear-algebra kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

# scipy is a test-only oracle: the package computes e^M with numpy alone.
import scipy.linalg

from twinbeam import (
    MediumSpec, PumpSpec, build_coupled_matrices, build_grid, default_half_width, numerics,
)
from twinbeam.errors import ContractError

square = arrays(np.float64, (4, 4), elements=st.floats(-2.0, 2.0))


def test_expm_zero_is_identity():
    np.testing.assert_allclose(numerics.expm(np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_expm_diagonal():
    d = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(
        numerics.expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-13, atol=1e-15
    )


def test_expm_rotation_generator():
    theta = 0.4
    R = numerics.expm(np.array([[0.0, -theta], [theta, 0.0]]))
    expected = np.array([
        [np.cos(theta), -np.sin(theta)],
        [np.sin(theta), np.cos(theta)],
    ])
    np.testing.assert_allclose(R, expected, atol=1e-15)


def test_expm_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ContractError):
        numerics.expm(np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(ContractError):
        numerics.expm(bad)
    with pytest.raises(ContractError, match="expm output"):
        numerics.expm(np.diag([1e3, 0.0]))  # e^1000 overflows
    with pytest.raises(ContractError, match="expm input"):
        numerics.expm(np.full((2, 2), 1e308))  # finite entries, 1-norm overflows


# Higham (2005), Table 2.3: largest 1-norm each Pade degree 3, 5, 7, 9, 13
# serves without scaling.
PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
              2.097847961257068, 5.371920351148152)


def expm_rel_to_scipy(A):
    ref = scipy.linalg.expm(A)
    return np.max(np.abs(numerics.expm(A) - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("norm", [0.99 * t for t in PADE_THETA] + [50.0],
                         ids=["deg3", "deg5", "deg7", "deg9", "deg13", "scaled"])
def test_expm_matches_scipy(norm, dtype):
    # 12 x 12: scipy special-cases 1 x 1 and 2 x 2 inputs
    rng = np.random.default_rng(11)
    A = rng.normal(size=(12, 12)).astype(dtype)
    if dtype is complex:
        A += 1j * rng.normal(size=(12, 12))
    A *= norm / np.max(np.sum(np.abs(A), axis=0))
    E = numerics.expm(A)
    assert E.dtype == np.dtype(dtype)
    assert expm_rel_to_scipy(A) <= 1e-13


@pytest.mark.parametrize("walkoff_idler,n,g0,width", [
    (-8.0, 101, 6.28, 1.0 / 169),  # README grating, SGVM: N x N generator
    (-4.8, 101, 2.5, 1.0 / 169),   # 40% walk-off mismatch: 2N x 2N generator
    (-8.0, 201, 1.5, 1.0 / 9),     # QPM domain at N = 201, 1-norm ~4.6
], ids=["readme-sgvm", "skew-2n", "qpm-n201"])
def test_expm_matches_scipy_on_domain_generators(walkoff_idler, n, g0, width):
    medium = MediumSpec.from_walkoffs(8.0, walkoff_idler, 1.0)
    grid = build_grid(n, 0.0, default_half_width(medium))
    m = build_coupled_matrices(grid, PumpSpec(g0=g0), medium)
    K = -m.F - 1j * m.G if m.sgvm else 1j * np.block([[m.G, m.F], [-m.F, -m.H]])
    assert expm_rel_to_scipy(width * K) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(square)
def test_expm_inverse_property(M):
    # e^M e^{-M} = I to 1e-10 for ||M|| <= 10; 4x4 entries in [-2, 2] keep
    # the Frobenius norm at 8 or less.
    P = numerics.expm(M) @ numerics.expm(-M)
    assert np.max(np.abs(P - np.eye(4))) < 1e-10


def test_sym_eig_identity():
    w, V = numerics.sym_eig(np.eye(5))
    np.testing.assert_allclose(w, np.ones(5))
    np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-12)


def test_sym_eig_diagonal_ascending():
    w, V = numerics.sym_eig(np.diag([3.0, -1.0]))
    np.testing.assert_allclose(w, [-1.0, 3.0])
    np.testing.assert_allclose(np.abs(V), np.eye(2)[:, ::-1], atol=1e-15)


def test_sym_eig_round_trip():
    rng = np.random.default_rng(7)
    d = np.array([-2.0, -0.5, 0.1, 1.3, 4.0])
    V0, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    M = V0 @ np.diag(d) @ V0.T
    w, V = numerics.sym_eig(M)
    np.testing.assert_allclose(w, np.sort(d), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(V @ np.diag(w) @ V.T, M, atol=1e-12)
    assert np.max(np.abs(V.T @ V - np.eye(5))) < 1e-12


def test_sym_eig_tolerates_roundoff_asymmetry():
    M = np.array([[1.0, 0.5], [0.5 + 1e-12, 2.0]])
    w, V = numerics.sym_eig(M)
    S = 0.5 * (M + M.T)
    np.testing.assert_allclose(V @ np.diag(w) @ V.T, S, atol=1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ContractError):
        numerics.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_svd_identity():
    U, s, V = numerics.svd(np.eye(3))
    np.testing.assert_allclose(s, np.ones(3))
    np.testing.assert_allclose(np.abs(U), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(np.abs(V), np.eye(3), atol=1e-15)


def test_svd_diagonal():
    _, s, _ = numerics.svd(np.diag([2.0, 0.5]))
    np.testing.assert_allclose(s, [2.0, 0.5])


@settings(max_examples=60, deadline=None)
@given(square)
def test_svd_round_trip(M):
    U, s, V = numerics.svd(M)
    scale = max(1.0, np.linalg.norm(M))
    assert np.max(np.abs(U @ np.diag(s) @ V.T - M)) <= 1e-12 * scale
    assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
    assert np.max(np.abs(U.T @ U - np.eye(4))) < 1e-12
    assert np.max(np.abs(V.T @ V - np.eye(4))) < 1e-12


def test_svd_complex_convention():
    # complex input reconstructs through V^H (V holds right vectors as columns)
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    U, s, V = numerics.svd(M)
    np.testing.assert_allclose(U @ np.diag(s) @ V.conj().T, M, atol=1e-12)


def test_svd_rejects_nonfinite():
    with pytest.raises(ContractError):
        numerics.svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))
