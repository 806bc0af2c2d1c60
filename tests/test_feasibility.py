import numpy as np
import pytest

from cjopt.errors import Infeasible, SingularDelta
from cjopt.feasibility import check_existence, optimal_power
from cjopt.metrics import sinr_user
from cjopt.model import Precoder, SystemParams, precoder_from_unit_columns
from util import custom_channels, feasible_instance, make_instance


def _scalar_setup(sigma2, tau, p_tot):
    F = np.array([[1.0], [0.0]])
    ch = custom_channels(F, np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)))
    pre = precoder_from_unit_columns(np.array([[1.0], [0.0]], dtype=complex), ch, tau=tau)
    params = SystemParams(n=2, k=1, l=2, z=1, sigma2=sigma2, tau=tau, p_tot=p_tot)
    return pre, params


class TestCheckExistence:
    def test_scalar_inversion(self):
        pre, params = _scalar_setup(sigma2=0.1, tau=10.0, p_tot=1.0)
        rep = check_existence(pre, params)
        assert rep.p_candidate[0] == pytest.approx(1.0)
        assert rep.feasible
        pre, params = _scalar_setup(sigma2=0.1, tau=10.0, p_tot=0.99)
        assert not check_existence(pre, params).feasible

    def test_zero_forcing_diagonal_solve(self):
        # The channel-inversion precoder leaves Delta (numerically)
        # diagonal, so p_k = sigma^2 tau / |f_k^H u_k|^2.
        params, ch, pre = feasible_instance(0)
        p = check_existence(pre, params).p_candidate
        diag = np.abs(np.diag(pre.Delta)) * params.tau  # |f_k^H u_k|^2
        assert np.allclose(p, params.sigma2 * params.tau / diag, rtol=1e-9)

    def test_qos_met_with_equality(self):
        for seed in range(10):
            params, ch, pre = feasible_instance(seed)
            p = check_existence(pre, params).p_candidate
            s = sinr_user(pre, ch, p, np.zeros((params.l, params.l)), params.sigma2)
            assert np.allclose(s, params.tau, rtol=1e-9)

    def test_feasibility_monotone_in_tau_and_budget(self):
        _, ch, pre0 = make_instance(4)
        taus = [1.0, 2.0, 4.0, 8.0]
        budgets = [0.5, 2.0, 8.0, 32.0]
        flags = np.zeros((len(taus), len(budgets)), dtype=bool)
        for i, tau in enumerate(taus):
            _, ch, pre = make_instance(4, tau=tau)
            for j, b in enumerate(budgets):
                params = SystemParams(n=8, k=3, l=6, z=2, sigma2=1.0, tau=tau, p_tot=b)
                flags[i, j] = check_existence(pre, params).feasible
        # easier tau (smaller) and larger budget never flip feasible -> infeasible
        for i in range(len(taus) - 1):
            assert np.all(flags[i + 1] <= flags[i])
        for j in range(len(budgets) - 1):
            assert np.all(flags[:, j] <= flags[:, j + 1])


class TestOptimalPower:
    def test_matches_candidate(self):
        params, ch, pre = feasible_instance(1)
        assert np.array_equal(optimal_power(pre, params),
                              check_existence(pre, params).p_candidate)

    def test_linear_in_noise(self):
        params, _, pre = feasible_instance(2)
        p1 = optimal_power(pre, params)
        params2 = SystemParams(n=params.n, k=params.k, l=params.l, z=params.z,
                               sigma2=2.0 * params.sigma2, tau=params.tau,
                               p_tot=params.p_tot)
        p2 = optimal_power(pre, params2)
        assert np.allclose(p2, 2.0 * p1, rtol=1e-12)

    def test_infeasible_raises(self):
        pre, params = _scalar_setup(sigma2=0.1, tau=10.0, p_tot=0.5)
        with pytest.raises(Infeasible):
            optimal_power(pre, params)

    def test_minimal_l1_norm(self):
        # 2-D grid: no feasible p with smaller total power exists.
        params, ch, pre = feasible_instance(3, n=4, k=2, l=4, z=2)
        p_opt = optimal_power(pre, params)
        total = p_opt.sum()
        grid = np.linspace(0.0, 1.5 * total, 121)
        Z0 = np.zeros((params.l, params.l))
        for p1 in grid:
            for p2 in grid:
                if p1 + p2 >= total * (1.0 - 1e-9):
                    continue
                s = sinr_user(pre, ch, np.array([p1, p2]), Z0, params.sigma2)
                assert not np.all(s >= params.tau * (1.0 - 1e-9))


def test_singular_delta_rejected():
    pre = Precoder(U=np.eye(2, dtype=complex), A=np.eye(2, dtype=complex), Delta=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularDelta):
        pre.qos_inverse
