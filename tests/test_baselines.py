import numpy as np
import pytest

from cjopt.baselines import l_infinity_limit, no_jamming_report, solve_fixed_split
from cjopt.errors import Infeasible
from cjopt.feasibility import optimal_power
from cjopt.metrics import stream_metrics
from cjopt.model import SystemParams, channel_inversion_precoder, generate_rayleigh
from cjopt.optimal import solve_optimal
from cjopt.report import make_report
from util import feasible_instance, make_instance


def _no_jamming(pre, ch, params):
    return make_report("no_jamming", pre, ch, params, no_jamming_report(pre, ch, params))


class TestFixedSplit:
    def test_dominated_by_optimal(self):
        for seed in range(5):
            params, ch, pre = feasible_instance(seed)
            d = solve_optimal(pre, ch, params)
            eta_fixed = solve_fixed_split(pre, ch, params).eta
            assert d.eta <= eta_fixed + 1e-9

    def test_matches_optimal_at_exact_split(self):
        # Splitting exactly at the minimal QoS power reproduces the
        # optimal program's headroom, so the etas coincide.
        params, ch, pre = feasible_instance(1)
        p = optimal_power(pre, params)
        split = float(p.sum()) / params.p_tot * (1.0 + 1e-9)
        d = solve_optimal(pre, ch, params)
        eta_fixed = solve_fixed_split(pre, ch, params, split=split).eta
        assert eta_fixed == pytest.approx(d.eta, rel=1e-5)

    def test_infeasible_when_split_too_small(self):
        params, ch, pre = feasible_instance(2)
        p = optimal_power(pre, params)
        split = 0.5 * float(p.sum()) / params.p_tot
        with pytest.raises(Infeasible):
            solve_fixed_split(pre, ch, params, split=split)

    def test_invalid_split_rejected(self):
        params, ch, pre = feasible_instance(0)
        with pytest.raises(ValueError):
            solve_fixed_split(pre, ch, params, split=1.5)

    def test_budget_respected(self):
        for seed in range(5):
            params, ch, pre = feasible_instance(seed)
            p = optimal_power(pre, params)
            Sigma = solve_fixed_split(pre, ch, params).Sigma
            used = p.sum() + np.trace(Sigma).real
            assert used <= params.p_tot * (1.0 + 1e-6)


class TestNoJamming:
    def test_matches_direct_metrics(self):
        params, ch, pre = feasible_instance(3)
        rep = _no_jamming(pre, ch, params)
        p = optimal_power(pre, params)
        m = stream_metrics(pre, ch, p, np.zeros((params.l, params.l)), params.sigma2,
                           params.rate_threshold)
        assert np.allclose(rep.sinr_user, m.sinr_user, rtol=1e-12)
        assert np.allclose(rep.secrecy_lb, m.c_se_l2, rtol=1e-12)
        assert rep.sigma_trace == 0.0

    def test_dominated_by_optimal_secrecy(self):
        for seed in range(5):
            params, ch, pre = feasible_instance(seed)
            d = solve_optimal(pre, ch, params)
            m_opt = stream_metrics(pre, ch, d.p, d.Sigma, params.sigma2,
                                   params.rate_threshold)
            rep = _no_jamming(pre, ch, params)
            assert np.all(m_opt.c_se_l2 >= rep.secrecy_lb - 1e-9)

    def test_strong_eve_clamps_bound_to_zero(self):
        params, ch, pre = feasible_instance(0, p_tot=1e4)
        rep = _no_jamming(pre, ch, params)
        # minimal QoS power against an un-jammed Eve with these dimensions
        # leaves Eve's bound above the rate threshold for some stream
        assert rep.secrecy_lb.min() >= 0.0


class TestLInfinityLimit:
    def test_decreasing_in_jammer_antennas(self):
        medians = []
        for l in (35, 70, 140):
            etas = []
            for seed in range(5):
                params, ch, pre = feasible_instance(seed, n=8, k=3, l=l, z=2)
                etas.append(l_infinity_limit(pre, ch, params).eta)
            medians.append(np.median(etas))
        assert medians[0] > medians[1] > medians[2]

    def test_below_finite_l_price(self):
        # 1/||g_j||^2 underestimates the true per-direction price, so the
        # limit eta is no worse than the exact design's eta.
        for seed in range(5):
            params, ch, pre = feasible_instance(seed)
            d = solve_optimal(pre, ch, params)
            lim = l_infinity_limit(pre, ch, params)
            assert lim.status == "Converged"
            assert lim.Sigma is None
            assert lim.eta <= d.eta * (1.0 + 1e-6)
