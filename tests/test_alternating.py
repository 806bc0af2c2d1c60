import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjopt import kernel, numerics
from cjopt.alternating import (
    AlternatingState,
    _AltWorkspace,
    _cap_free,
    _step1,
    _step2,
    b_zero_program,
    solve_alternating,
    solve_b_zero,
)
from cjopt.errors import Infeasible
from cjopt.feasibility import check_existence, optimal_power
from cjopt.kernel import LinearIneq, ReciprocalSum, _compile
from cjopt.model import (
    SystemParams,
    channel_inversion_precoder,
    generate_rayleigh,
    precoder_from_unit_columns,
)
from cjopt.optimal import optimal_spectrum, solve_optimal
from cjopt.report import make_report
from reference import cap_free_program_x
from util import custom_channels, degenerate_draws, feasible_instance, make_instance


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


class TestLeakRealMap:
    def test_embedding_matches_leaks(self):
        # Z = 2, so L - Z = 0 (W empty), 1 and 2; the map must give the same
        # ||Gamma b_k||^2 as leaks_of with x a variable and with x fixed.
        rng = np.random.default_rng(7)
        for l in (2, 3, 4):
            params, ch, pre = make_instance(l, l=l)
            ws = _AltWorkspace(pre, ch, params)
            z, k_users = params.z, params.k
            x = rng.uniform(0.5, 2.0, z)
            W = rng.standard_normal((l - z, z)) + 1j * rng.standard_normal((l - z, z))
            w = ws.w_to_flat(W)
            leaks = ws.leaks_of(x, W)
            for k in range(k_users):
                v = np.concatenate([x, w, rng.standard_normal(1)])  # [x | Re W | Im W | eta]
                M, d = ws.leak_real_map(k, v.size, x_off=0, w_off=z)
                assert np.sum((M @ v + d) ** 2) == pytest.approx(leaks[k], rel=1e-10)
                v = np.concatenate([rng.standard_normal(k_users), w, rng.standard_normal(1)])
                M, d = ws.leak_real_map(k, v.size, w_off=k_users, x_fixed=x)  # [c | Re W | Im W | eta]
                assert np.sum((M @ v + d) ** 2) == pytest.approx(leaks[k], rel=1e-10)


class TestSolveAlternating:
    def test_matches_optimal_when_zero_forcing_possible(self):
        for seed in range(5):
            params, ch, pre = feasible_instance(seed, p_tot=1e4)
            d = solve_optimal(pre, ch, params)
            state, rep = solve_alternating(pre, ch, params)
            assert rep.eta <= d.eta * 1.05

    def test_constraints_hold_both_regimes(self):
        for l in (6, 4, 2):
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

    def test_one_zero_forcing_factor_per_draw(self, monkeypatch):
        # solve_optimal and solve_alternating on one draw with L >= K + Z
        # read its cached zero_forcing: [G B]^H [G B] is tested and
        # inverted once for both.
        params, ch, pre = feasible_instance(0)
        joint = np.hstack([ch.G, ch.B])
        gram = joint.conj().T @ joint
        calls = []

        def counted(name, fn):
            def wrapper(M, *args, **kwargs):
                if np.shape(M) == gram.shape and np.allclose(M, gram, rtol=1e-12, atol=0.0):
                    calls.append(name)
                return fn(M, *args, **kwargs)
            return wrapper

        real = numerics.well_conditioned
        for name, mod in list(sys.modules.items()):  # every cjopt module that holds it
            if name.startswith("cjopt") and getattr(mod, "well_conditioned", None) is real:
                monkeypatch.setattr(mod, "well_conditioned", counted("test", real))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        assert solve_optimal(pre, ch, params).status == "Converged"
        assert solve_alternating(pre, ch, params)[1].status == "Converged"
        assert calls == ["test", "inv"]

    def test_degenerate_draws_take_the_warm_start(self):
        # On the draws where optimal raises, [G B] has no zero-forcing
        # factor, so the descent starts from the leaky warm start; it
        # settles at these outer iteration counts and etas.
        params, ch, pre = feasible_instance(0)
        want = [(3, 0.012101103182375108), (10, 0.02204273920646635)]
        for bad, (iterations, eta) in zip(degenerate_draws(ch), want):
            assert bad.zero_forcing[1] is None
            _, design = solve_alternating(pre, bad, params)
            assert (design.status, design.iterations) == ("Converged", iterations)
            assert design.eta == pytest.approx(eta, rel=1e-9)

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

    def test_program_uses_the_existence_powers(self):
        # The third QoS power of -(Delta^H)^{-1} 1 lies in (-1e-12, 0); the
        # existence test zeroes it, and the cap-free program must use those
        # powers, or a user's row p_k sum_j |a_kj|^2 y_j gets a negative
        # coefficient.
        params, ch, pre = feasible_instance(0)
        M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, -2.0, 1.0 - 1e-13]])
        pre = replace(pre, Delta=-np.linalg.inv(M).T)
        raw = params.sigma2 * (-np.linalg.inv(pre.Delta.conj().T).real @ np.ones(params.k))
        assert -1e-12 < raw[2] < 0.0
        feas = check_existence(pre, params)
        assert feas.feasible and feas.p_candidate[2] == 0.0
        item = b_zero_program(pre, ch, params, feas.p_candidate)
        assert np.array_equal(item.p, feas.p_candidate)
        coeffs = np.concatenate([c.coeff for c in item.program.constraints if isinstance(c, ReciprocalSum)])
        assert coeffs.min() >= 0.0
        rows = np.array([c.a[:-1] for c in item.program.constraints if isinstance(c, LinearIneq)])
        assert len(rows) == params.k and rows.min() >= 0.0
        d = solve_b_zero(pre, ch, params)
        assert d.status == "Converged" and np.array_equal(d.p, feas.p_candidate)

    def test_matches_step1_without_leakage(self):
        params, ch, pre = _b_zero_scalar_setup(p_tot=30.0)
        d = solve_b_zero(pre, ch, params)
        state = _fresh_state(params, c_tilde=[1e-12], x=[1.0])
        out = _step1(_AltWorkspace(pre, ch, params), state)
        assert out.x[0] == pytest.approx(d.x[0], rel=1e-5)
        assert out.eta == pytest.approx(d.eta, rel=1e-5)

    def test_program_shares_the_eq14_layout(self):
        # In y = 1/x^2 the cap-free program is eq14's program at other
        # prices, so a sweep stacks both in one structure.
        params, ch, pre = feasible_instance(0)
        p = optimal_power(pre, params)
        keys = [_compile(spec.program)[1] for spec in (b_zero_program(pre, ch, params, p),
                                                      optimal_spectrum(pre, ch, params, p))]
        assert keys[0] == keys[1]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), z=st.integers(1, 5), k=st.integers(1, 4),
       log_budget=st.floats(-2.0, 4.0))
def test_cap_free_matches_its_x_form(seed, z, k, log_budget):
    # The cap-free block solved in y = 1/x^2 has the optimum of the same
    # block solved in x: eta and x agree to the kernel's accuracy.
    rng = np.random.default_rng(seed)
    abs_a2 = rng.exponential(size=(z, k))
    p = rng.uniform(0.1, 10.0, k)
    prices = rng.uniform(0.05, 5.0, z)
    budget = 10.0 ** log_budget
    sol_y = kernel.solve(_cap_free(abs_a2, p, 1.0, prices, budget).program, gap_ref=0.0)
    sol_x = kernel.solve(cap_free_program_x(abs_a2, p, prices, budget), gap_ref=0.0)
    assert sol_y.status == sol_x.status == "Converged"
    assert sol_y.objective_value == pytest.approx(sol_x.objective_value, rel=1e-8)
    assert 1.0 / np.sqrt(sol_y.x[:z]) == pytest.approx(sol_x.x[:z], rel=1e-6)
