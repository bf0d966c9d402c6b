"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from slmprecode import linalg
from slmprecode.errors import (
    IllConditionedError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
)

from oracles import reconstruct


def _rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------


def test_invert_identity():
    inv = linalg.invert(np.eye(2))
    assert np.array_equal(inv, np.eye(2))


def test_invert_diagonal():
    inv = linalg.invert(np.diag([2.0, 0.5]))
    assert np.allclose(inv, np.diag([0.5, 2.0]), rtol=0, atol=1e-15)


def test_invert_random_residual():
    # residual-norm oracle: ||H @ H^-1 - I||_F small
    rng = _rng()
    for _ in range(20):
        h = rng.standard_normal((4, 4))
        if np.linalg.cond(h) > 1e6:
            continue
        inv = linalg.invert(h)
        residual = np.linalg.norm(h @ inv - np.eye(4))
        assert residual <= 1e-9 * 4


def test_invert_involution():
    rng = _rng()
    for _ in range(10):
        m = rng.standard_normal((5, 5))
        if np.linalg.cond(m) > 1e4:
            continue
        back = linalg.invert(linalg.invert(m))
        assert np.linalg.norm(back - m) <= 1e-8 * np.linalg.norm(m)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        linalg.invert([[1.0, 1.0], [1.0, 1.0]])
    # no pivot falls below a zero row scale, and 1/1e-310 overflows
    for m in ([[0.0, 0.0], [0.0, 0.0]], [[1e-310]]):
        with pytest.raises(SingularMatrixError):
            linalg.invert(m)


def test_invert_ill_conditioned_raises():
    m = np.diag([1.0, 1e-10])
    with pytest.raises(IllConditionedError):
        linalg.invert(m, cond_limit=1e8)
    assert np.array_equal(linalg.invert(m), np.diag([1.0, 1e10]))


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.invert(np.ones((2, 3)))


def test_invert_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.invert([[1.0, np.nan], [0.0, 1.0]])


def test_invert_does_not_alias_input():
    m = np.eye(2)
    inv = linalg.invert(m)
    inv[0, 0] = 99.0
    assert m[0, 0] == 1.0


# ---------------------------------------------------------------------------
# sym_eigen
# ---------------------------------------------------------------------------


def test_sym_eigen_identity():
    eig = linalg.sym_eigen(np.eye(2))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0])
    assert np.linalg.norm(reconstruct(eig) - np.eye(2)) <= 1e-12


def test_sym_eigen_hand_2x2():
    # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 -> x = 3, 1
    eig = linalg.sym_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(eig.eigenvalues, [3.0, 1.0], rtol=0, atol=1e-12)
    v0 = eig.eigenvectors[:, 0]
    v1 = eig.eigenvectors[:, 1]
    assert np.allclose(np.abs(v0), [1, 1] / np.sqrt(2), atol=1e-12)
    assert np.allclose(np.abs(v1), [1, 1] / np.sqrt(2), atol=1e-12)
    assert abs(v0 @ v1) <= 1e-12


def test_sym_eigen_random_reconstruction():
    rng = _rng()
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        m = a @ a.T
        eig = linalg.sym_eigen(m)
        tol = 1e-9 * 6 * np.max(np.abs(m))
        assert np.linalg.norm(reconstruct(eig) - m) <= tol
        # descending order
        assert np.all(np.diff(eig.eigenvalues) <= 0)
        # orthonormal columns
        u = eig.eigenvectors
        assert np.linalg.norm(u.T @ u - np.eye(6)) <= 1e-10


def test_sym_eigen_eigenvalue_product_is_det():
    rng = _rng()
    a = rng.standard_normal((5, 5))
    m = a @ a.T + np.eye(5)
    eig = linalg.sym_eigen(m)
    d = np.linalg.det(m)
    assert abs(np.prod(eig.eigenvalues) - d) <= 1e-8 * abs(d)


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        linalg.sym_eigen([[1.0, 2.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# cholesky
# ---------------------------------------------------------------------------


def test_cholesky_identity():
    assert np.array_equal(linalg.cholesky(np.eye(3)), np.eye(3))


def test_cholesky_hand_2x2():
    # [[4,2],[2,5]] = [[2,0],[1,2]] @ [[2,1],[0,2]]
    low = linalg.cholesky([[4.0, 2.0], [2.0, 5.0]])
    assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]], rtol=0, atol=1e-12)


def test_cholesky_quadratic_form():
    # u^T Q u = ||L^T u||^2 for Q built from an invertible channel
    rng = _rng()
    h = rng.standard_normal((4, 4))
    h_inv = linalg.invert(h)
    q = h_inv.T @ h_inv
    q = (q + q.T) / 2
    low = linalg.cholesky(q)
    tol_q = 1e-10 * 4 * np.max(np.abs(q))
    assert np.linalg.norm(low @ low.T - q) <= tol_q
    assert np.all(np.diag(low) > 0)
    assert np.allclose(low, np.tril(low))
    for _ in range(100):
        u = rng.standard_normal(4)
        direct = u @ q @ u
        via_l = np.sum((low.T @ u) ** 2)
        assert abs(direct - via_l) <= 1e-9 * abs(direct)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        linalg.cholesky([[1.0, 2.0], [2.0, 1.0]])


def test_diagonal_channel_eigenvalues_are_inverse_squared_singulars():
    # eigenvalues of Q = (H^-1)^T H^-1 equal 1/sigma_i^2 for diagonal H
    h = np.diag([3.0, 2.0, 0.5])
    h_inv = linalg.invert(h)
    q = h_inv.T @ h_inv
    eig = linalg.sym_eigen(q)
    assert np.allclose(sorted(eig.eigenvalues), sorted([1 / 9, 1 / 4, 4.0]), rtol=1e-12)
