import numpy as np
import pytest

from cjopt.alternating import (
    AlternatingState,
    _AltWorkspace,
    _step1,
    _step2,
    solve_alternating,
    solve_b_zero,
)
from cjopt.errors import Infeasible
from cjopt.feasibility import check_existence, optimal_power
from cjopt.model import (
    SystemParams,
    channel_inversion_precoder,
    generate_rayleigh,
    precoder_from_unit_columns,
)
from cjopt.optimal import solve_optimal
from cjopt.report import make_report
from util import custom_channels, feasible_instance, make_instance


def _fresh_state(params, c_tilde, x=None):
    z, l = params.z, params.l
    return AlternatingState(
        c_tilde=np.asarray(c_tilde, dtype=float),
        x=np.ones(z) if x is None else np.asarray(x, dtype=float),
        W=np.zeros((l - z, z), dtype=complex),
        Gamma=np.zeros((z, l), dtype=complex),
        eta=np.inf,
        iteration=0,
    )


def _b_zero_scalar_setup(p_tot=20.0, sigma2=1.0, tau=2.0):
    """K=1, Z=1, B = 0, unit-norm jammer-to-Eve channel."""
    F = np.array([[1.0], [0.0]])
    H = np.array([[0.5], [0.5j]])
    B = np.zeros((2, 1))
    G = np.array([[1.0], [0.0]])
    ch = custom_channels(F, H, B, G)
    pre = precoder_from_unit_columns(np.array([[1.0], [0.0]], dtype=complex), ch, tau=tau)
    params = SystemParams(n=2, k=1, l=2, z=1, sigma2=sigma2, tau=tau, p_tot=p_tot)
    return params, ch, pre


class TestStep1:
    def test_scalar_b_zero_closed_form(self):
        # With no leakage the whole headroom goes into the single jamming
        # direction: x* = sqrt(P_tot - p), eta* = p |a|^2 / (P_tot - p).
        params, ch, pre = _b_zero_scalar_setup(p_tot=20.0)
        p = optimal_power(pre, params)  # sigma^2 tau = 2
        state = _fresh_state(params, c_tilde=[1e-9], x=[1.0])
        out = _step1(_AltWorkspace(pre, ch, params), state)
        head = params.p_tot - p[0]
        a2 = np.abs(pre.A[0, 0]) ** 2
        assert out.x[0] == pytest.approx(np.sqrt(head), rel=1e-5)
        assert out.eta == pytest.approx(p[0] * a2 / head, rel=1e-5)

    def test_infeasible_caps(self):
        params, ch, pre = feasible_instance(0)
        # caps so large that the implied power allocation exceeds the budget
        state = _fresh_state(params, c_tilde=np.full(params.k, 10.0 * params.p_tot))
        with pytest.raises(Infeasible):
            _step1(_AltWorkspace(pre, ch, params), state)


class TestStep2:
    def test_b_zero_keeps_caps_at_zero(self):
        params, ch, pre = _b_zero_scalar_setup(p_tot=20.0)
        state = _fresh_state(params, c_tilde=[1e-9], x=[1.0])
        ws = _AltWorkspace(pre, ch, params)
        state = _step1(ws, state)
        out = _step2(ws, state)
        assert out.c_tilde[0] <= 1e-6
        assert out.eta <= state.eta + 1e-9

    def test_never_worse_than_incumbent(self):
        for seed in range(5):
            params, ch, pre = feasible_instance(seed, l=4)  # L < K + Z
            state, _ = solve_alternating(pre, ch, params, max_iters=2)
            out = _step2(_AltWorkspace(pre, ch, params), state)
            assert out.eta <= state.eta * (1.0 + 1e-9)

    def test_leakage_unavoidable_below_rank(self):
        # With L < K + Z the stacked [G B] system cannot be zero-forced,
        # so some leaked power cap must stay strictly positive.
        for seed in range(5):
            params, ch, pre = feasible_instance(seed, n=4, k=2, l=3, z=2)
            joint = np.hstack([ch.G, ch.B])
            assert np.linalg.matrix_rank(joint) < params.k + params.z
            state, _ = solve_alternating(pre, ch, params)
            assert state.c_tilde.max() > 0.0


class TestSolveAlternating:
    def test_matches_optimal_when_zero_forcing_possible(self):
        for seed in range(5):
            params, ch, pre = feasible_instance(seed, p_tot=1e4)
            d = solve_optimal(pre, ch, params)
            state, rep = solve_alternating(pre, ch, params)
            assert rep.eta <= d.eta * 1.05

    def test_constraints_hold_both_regimes(self):
        for l in (6, 4):
            for seed in range(5):
                params, ch, pre = feasible_instance(seed, l=l)
                _, design = solve_alternating(pre, ch, params)
                rep = make_report("alternating", pre, ch, params, design)
                assert np.all(rep.sinr_user >= params.tau * (1.0 - 1e-6))
                used = rep.p.sum() + rep.sigma_trace
                assert used <= params.p_tot * (1.0 + 1e-6)

    def test_iteration_count_is_small(self):
        counts = []
        for seed in range(5):
            params, ch, pre = feasible_instance(seed)
            state, _ = solve_alternating(pre, ch, params)
            counts.append(state.iteration)
        assert max(counts) <= 15

    def test_infeasible_raises(self):
        params, ch, pre = make_instance(0, tau=1e6, p_tot=1.0)
        with pytest.raises(Infeasible):
            solve_alternating(pre, ch, params)

    def test_iteration_cap_is_not_converged(self):
        # Leaky regime (L < K + Z) with a weak cross channel: one outer
        # iteration is far from settled, so the cap, not tol, stops it.
        params = SystemParams(n=10, k=3, l=17, z=15, sigma2=1.0, tau=10 ** 0.3, p_tot=1e4)
        ch = generate_rayleigh(params, gain_db_b=-30.0, rng_seed=2)
        pre = channel_inversion_precoder(ch, params.tau)
        assert check_existence(pre, params).feasible
        state, rep = solve_alternating(pre, ch, params, max_iters=1)
        assert state.iteration == 1
        assert rep.status == "MaxIterations"


class TestSolveBZero:
    def test_scalar_closed_form(self):
        params, ch, pre = _b_zero_scalar_setup(p_tot=20.0)
        p = optimal_power(pre, params)
        d = solve_b_zero(pre, ch, params)
        assert d.status == "Converged"
        head = params.p_tot - p[0]
        a2 = np.abs(pre.A[0, 0]) ** 2
        assert d.x[0] == pytest.approx(np.sqrt(head), rel=1e-5)
        assert d.eta == pytest.approx(p[0] * a2 / head, rel=1e-5)

    def test_objective_homogeneous_in_eve_gains(self):
        params, ch, pre = feasible_instance(2)
        eta = solve_b_zero(pre, ch, params).eta
        pre2 = precoder_from_unit_columns(pre.U, custom_channels(ch.F, 2.0 * ch.H, ch.B, ch.G),
                                          params.tau)
        eta2 = solve_b_zero(pre2, ch, params).eta
        assert eta2 == pytest.approx(4.0 * eta, rel=1e-5)

    def test_matches_step1_without_leakage(self):
        params, ch, pre = _b_zero_scalar_setup(p_tot=30.0)
        d = solve_b_zero(pre, ch, params)
        state = _fresh_state(params, c_tilde=[1e-12], x=[1.0])
        out = _step1(_AltWorkspace(pre, ch, params), state)
        assert out.x[0] == pytest.approx(d.x[0], rel=1e-5)
        assert out.eta == pytest.approx(d.eta, rel=1e-5)
