from dataclasses import replace

import numpy as np
import pytest

from cjopt import kernel
from cjopt.errors import IllConditioned, RankDeficient
from cjopt.feasibility import optimal_power
from cjopt.metrics import sinr_eve_upper, sinr_user
from cjopt.model import Precoder, SystemParams
from cjopt.optimal import (
    build_sigma,
    compute_phi,
    dual_spectrum,
    eq14_spectrum,
    make_spectrum,
    optimal_spectrum,
    solve_eq14,
    solve_optimal,
    spectrum_result,
)
from reference import spectrum_dual_bound, zero_forcing_eta_z1
from util import custom_channels, degenerate_draws, feasible_instance, make_instance


def _orthogonal_g_b(seed, l, z, k):
    """Channels whose jammer-side blocks G and B are mutually orthogonal,
    with orthonormal G columns."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((l, z + k)) + 1j * rng.standard_normal((l, z + k)))
    G = Q[:, :z]
    B = Q[:, z:] * rng.uniform(0.5, 2.0, size=k)
    return G, B


class TestComputePhi:
    def test_orthogonal_blocks_unit_price(self):
        G, B = _orthogonal_g_b(0, l=6, z=2, k=3)
        ch = custom_channels(np.eye(4, 3), np.eye(4, 2), B, G)
        assert np.allclose(compute_phi(ch), np.ones(2), atol=1e-10)

    def test_homogeneity(self):
        _, ch, _ = make_instance(1)
        phi = compute_phi(ch)
        phi_scaled = compute_phi(replace(ch, G=3.0 * ch.G))
        assert np.allclose(phi_scaled, phi / 9.0, rtol=1e-9)

    def test_matches_explicit_schur_inverse(self):
        _, ch, _ = make_instance(2, n=6, k=2, l=6, z=2)
        G, B = ch.G, ch.B
        schur = G.conj().T @ G - G.conj().T @ B @ np.linalg.inv(B.conj().T @ B) @ B.conj().T @ G
        want = np.diag(np.linalg.inv(schur)).real
        assert np.allclose(compute_phi(ch), want, rtol=1e-9)


class TestSolveJammingSpectrum:
    def test_scalar_closed_form(self):
        params, ch, pre = feasible_instance(0, n=4, k=1, l=2, z=1, p_tot=50.0)
        p = optimal_power(pre, params)
        phi = compute_phi(ch)
        x, eta, status, _ = solve_eq14(eq14_spectrum(pre, params, p, phi))
        x_star = min(phi[0] / (params.p_tot + params.sigma2 * phi[0] - p[0]),
                     1.0 / params.sigma2)
        a2 = np.abs(pre.A[0, 0]) ** 2
        assert status == "Converged"
        assert x[0] == pytest.approx(x_star, rel=1e-6)
        assert eta == pytest.approx(p[0] * a2 * x_star, rel=1e-6)

    def test_zero_headroom(self):
        params, ch, pre = feasible_instance(1)
        p = optimal_power(pre, params)
        tight = SystemParams(n=params.n, k=params.k, l=params.l, z=params.z,
                             sigma2=params.sigma2, tau=params.tau, p_tot=float(p.sum()))
        x, eta, status, _ = solve_eq14(eq14_spectrum(pre, tight, p, compute_phi(ch)))
        assert status == "NoJammingPower"
        assert np.allclose(x, 1.0 / params.sigma2)
        want = float(np.max(p * np.sum(np.abs(pre.A) ** 2, axis=0) / params.sigma2))
        assert eta == pytest.approx(want)

    def test_symmetric_directions(self):
        # Equal Eve gains and equal prices across both directions force
        # an equal split of the spectrum.
        params = SystemParams(n=2, k=1, l=4, z=2, sigma2=1.0, tau=2.0, p_tot=30.0)
        pre = Precoder(U=np.eye(2, 1, dtype=complex),
                       A=np.array([[0.8], [0.8]], dtype=complex),
                       Delta=np.array([[-1.0]]))
        x, eta, status, _ = solve_eq14(eq14_spectrum(pre, params, np.array([1.0]), np.array([2.0, 2.0])))
        assert status == "Converged"
        assert x[0] == pytest.approx(x[1], rel=1e-6)

    def test_list_of_mixed_shapes_matches_lone_solves(self):
        # Two (Z, K) shapes, interleaved, and a zero-headroom entry with no
        # program: the programs go to one kernel batch, as in the sweep, and
        # each result is, to the last bit, what its spectrum gets alone.
        specs = []
        for seed in range(3):
            for shape in ({}, {"n": 4, "k": 1, "l": 2, "z": 1, "p_tot": 50.0}):
                params, ch, pre = feasible_instance(seed, **shape)
                specs.append(optimal_spectrum(pre, ch, params))
        params, ch, pre = feasible_instance(1)
        p = optimal_power(pre, params)
        specs.insert(2, eq14_spectrum(pre, replace(params, p_tot=float(p.sum())), p, compute_phi(ch)))
        assert len({spec.abs_a2.shape for spec in specs}) == 2
        assert [spec.program is None for spec in specs] == [False] * 2 + [True] + [False] * 4
        sols = iter(kernel.solve_batch([spec.program for spec in specs if spec.program is not None], gap_ref=0.0))
        results = [spectrum_result(spec, None if spec.program is None else next(sols)) for spec in specs]
        assert [r[2] for r in results] == ["Converged"] * 2 + ["NoJammingPower"] + ["Converged"] * 4
        for spec, (x, eta, status, iterations) in zip(specs, results):
            alone_x, *alone = solve_eq14(spec)
            assert np.array_equal(x, alone_x) and [eta, status, iterations] == alone


def _random_spectrum(seed, z, k):
    """|a_kj|^2, p, prices and budget of a random spectrum program."""
    rng = np.random.default_rng(seed)
    return rng.exponential(size=(z, k)), rng.uniform(0.1, 10.0, k), rng.uniform(0.05, 5.0, z), 10.0 ** rng.uniform(-2, 4)


class TestDualSpectrum:
    @pytest.mark.parametrize("z,k", [(5, 3), (15, 3), (3, 4), (2, 3), (1, 4)])
    def test_certified_gap_and_strict_budget_slack(self, z, k):
        # An independent dual bound, at weights read off the returned y,
        # certifies the solver's point within 1e-12 once its interior
        # scaling of 1 + 1e-12 is undone; that scaling leaves the budget a
        # slack of about 1e-12 of itself. Z < K included.
        hi = 1e24
        for seed in range(20):
            abs_a2, p, prices, budget = _random_spectrum(seed, z, k)
            y, eta, status, _ = dual_spectrum(abs_a2, p, prices, budget, hi)
            assert status == "Converged"
            C = abs_a2 * p
            lb = spectrum_dual_bound(C, prices, budget, hi, y)
            assert lb <= eta and np.max(C.T @ np.where(y < hi, y / (1.0 + 1e-12), y)) - lb <= 1e-12 * lb
            assert 0.0 < budget - np.sum(prices / y) <= 2e-12 * budget

    def test_clipped_direction_matches_the_kernel(self):
        # Below the largest unclipped y_j, the box clips it; the kernel's
        # make_spectrum program with the same bounds has the same optimum.
        for seed in range(4):
            abs_a2, p, prices, budget = _random_spectrum(seed, 4, 3)
            hi = 0.9 * dual_spectrum(abs_a2, p, prices, budget, 1e24)[0].max()
            y, eta, status, _ = dual_spectrum(abs_a2, p, prices, budget, hi)
            sol = kernel.solve(make_spectrum(abs_a2, p, 1.0, prices, budget, hi, np.full(4, 0.999 * hi)).program,
                               gap_ref=0.0)
            assert status == sol.status == "Converged" and np.count_nonzero(y == hi) >= 1
            assert eta == pytest.approx(sol.objective_value, rel=1e-8)
            assert y == pytest.approx(sol.x[:-1], rel=1e-6)


class TestBuildSigma:
    def test_no_jamming_spectrum(self):
        params, ch, _ = make_instance(0)
        _, Sigma = build_sigma(ch, np.full(params.z, 1.0 / params.sigma2), params.sigma2)
        assert np.abs(Sigma).max() <= 1e-12

    def test_orthogonal_blocks_closed_form(self):
        G, B = _orthogonal_g_b(3, l=6, z=2, k=3)
        ch = custom_channels(np.eye(4, 3), np.eye(4, 2), B, G)
        sigma2 = 0.5
        x = np.array([0.25, 0.125])
        lam = 1.0 / x - sigma2
        Gamma, Sigma = build_sigma(ch, x, sigma2)
        assert np.allclose(Gamma.conj().T, G @ np.diag(np.sqrt(lam)), atol=1e-9)
        assert np.trace(Sigma).real == pytest.approx(lam.sum(), rel=1e-9)

    def test_trace_identity(self):
        # tr(Sigma) equals sum_j phi_j * lambda_j for the minimal-norm factor.
        for seed in range(5):
            params, ch, _ = make_instance(seed, n=6, k=2, l=7, z=2)
            phi = compute_phi(ch)
            x = np.array([0.3, 0.7]) / params.sigma2
            lam = 1.0 / x - params.sigma2
            _, Sigma = build_sigma(ch, x, params.sigma2)
            tr = float(np.trace(Sigma).real)
            assert tr == pytest.approx(float(phi @ lam), rel=1e-8)

    def test_out_of_range_spectrum_rejected(self):
        params, ch, _ = make_instance(0)
        with pytest.raises(ValueError):
            build_sigma(ch, np.full(params.z, 2.0 / params.sigma2), params.sigma2)


class TestSolveOptimal:
    def test_design_invariants(self):
        for seed in range(5):
            params, ch, pre = feasible_instance(seed)
            d = solve_optimal(pre, ch, params)
            assert d.status == "Converged"
            s = sinr_user(pre, ch, d.p, d.Sigma, params.sigma2)
            assert np.allclose(s, params.tau, rtol=1e-6)
            used = d.p.sum() + np.trace(d.Sigma).real
            assert used == pytest.approx(params.p_tot, rel=1e-6)  # budget active
            # eta agrees with the matrix-form recomputation
            eta = float(np.max(sinr_eve_upper(pre, ch, d.p, d.Sigma, params.sigma2)))
            assert d.eta == pytest.approx(eta, rel=1e-6)

    def test_eta_decreases_with_budget(self):
        _, ch, pre = make_instance(7)
        etas = []
        for p_tot_db in (15.0, 20.0, 25.0, 30.0):
            params = SystemParams(n=8, k=3, l=6, z=2, sigma2=1.0, tau=2.0,
                                  p_tot=10 ** (p_tot_db / 10.0))
            etas.append(solve_optimal(pre, ch, params).eta)
        assert np.all(np.diff(etas) < 0)

    def test_needs_enough_jammer_antennas(self):
        params, ch, pre = feasible_instance(0, l=4)  # L < K + Z
        with pytest.raises(RankDeficient):
            solve_optimal(pre, ch, params)

    @pytest.mark.parametrize("k", [1, 2])
    def test_is_the_best_zero_forcing_design_for_one_eve_antenna(self, k):
        # optimal minimizes eta over the covariances with B^H Sigma = 0; at
        # Z = 1 that optimum has a closed form. A design that leaks into the
        # users can do better at low power, so it is not the overall optimum.
        for l in range(k + 1, k + 4):
            for p_tot_dbm in range(20, 80, 10):
                for seed in range(6):
                    params, ch, pre = feasible_instance(seed, n=4, k=k, l=l, z=1, p_tot=10 ** (p_tot_dbm / 10))
                    want = zero_forcing_eta_z1(ch.F, pre.U, ch.H, ch.G, ch.B, params.sigma2, params.tau,
                                               params.p_tot)
                    assert solve_optimal(pre, ch, params).eta == pytest.approx(want, rel=1e-8)

    def test_degenerate_draws_raise(self):
        # Each stage raises its own type on a degenerate draw: compute_phi
        # IllConditioned, build_sigma RankDeficient, and solve_optimal the
        # first that fires (RankDeficient straight away when L < K + Z).
        params, ch, pre = feasible_instance(0)  # K = 3, Z = 2, L = 6
        for bad in degenerate_draws(ch):
            with pytest.raises(IllConditioned):
                compute_phi(bad)
            with pytest.raises(RankDeficient):
                build_sigma(bad, np.full(params.z, 0.5), params.sigma2)
            with pytest.raises(IllConditioned):
                solve_optimal(pre, bad, params)
        params, ch, pre = feasible_instance(0, l=4)
        with pytest.raises(IllConditioned):
            compute_phi(ch)
        with pytest.raises(RankDeficient):
            build_sigma(ch, np.full(params.z, 0.5), params.sigma2)
        with pytest.raises(RankDeficient):
            solve_optimal(pre, ch, params)
