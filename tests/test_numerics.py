import numpy as np
import pytest

from cjopt.errors import IllConditioned, NotHermitian
from cjopt.numerics import check_hermitian, hermitian_solve, well_conditioned
from reference import NotPSD, eig_hermitian, psd_sqrt


def _rng(seed):
    return np.random.default_rng(seed)


class TestHermitianSolve:
    def test_identity(self):
        B = np.arange(4.0).reshape(2, 2) + 1j
        assert np.allclose(hermitian_solve(np.eye(2), B), B)

    def test_scalar_matrix(self):
        assert np.allclose(hermitian_solve(2.0 * np.eye(3), np.eye(3)), 0.5 * np.eye(3))

    def test_residual_on_random_instances(self):
        for seed in range(100):
            rng = _rng(seed)
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            A = M.conj().T @ M + np.eye(4)
            B = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            X = hermitian_solve(A, B)
            res = np.abs(A @ X - B).max()
            assert res <= 1e-9 * np.abs(A).max() * max(np.abs(X).max(), 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))

    def test_rejects_ill_conditioned(self):
        A = np.diag([1.0, 1e-15])
        with pytest.raises(IllConditioned):
            hermitian_solve(A, np.eye(2))


class TestEigHermitian:
    def test_diagonal(self):
        w, V = eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(V), np.eye(2))

    def test_rank_one(self):
        q = np.array([1.0, 1j, 0.0]) / np.sqrt(2.0) * np.sqrt(2.0)  # ||q||^2 = 2
        w, V = eig_hermitian(np.outer(q, q.conj()))
        assert np.allclose(w, [2.0, 0.0, 0.0], atol=1e-12)

    def test_reconstruction_and_unitarity(self):
        for seed in range(20):
            rng = _rng(seed)
            M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            A = 0.5 * (M + M.conj().T)
            w, V = eig_hermitian(A)
            assert np.all(np.diff(w) <= 1e-12)  # descending
            scale = max(np.abs(A).max(), 1.0)
            assert np.abs((V * w) @ V.conj().T - A).max() <= 1e-9 * scale
            assert np.abs(V.conj().T @ V - np.eye(5)).max() <= 1e-9


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        for seed in range(20):
            rng = _rng(seed)
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            A = M.conj().T @ M
            R = psd_sqrt(A)
            assert np.abs(R - R.conj().T).max() <= 1e-9 * np.abs(R).max()
            assert np.abs(R @ R - A).max() <= 1e-9 * max(np.abs(A).max(), 1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestCheckHermitian:
    def test_check_hermitian_accepts_and_rejects(self):
        check_hermitian(np.eye(2))
        with pytest.raises(NotHermitian):
            check_hermitian(np.ones((2, 3)))


class TestWellConditioned:
    def test_limit_and_degenerate_inputs(self):
        assert well_conditioned(np.eye(3))
        assert well_conditioned(np.diag([1.0, 1e-12]))
        assert not well_conditioned(np.diag([1.0, 1e-13]))
        assert not well_conditioned(np.zeros((2, 2)))
