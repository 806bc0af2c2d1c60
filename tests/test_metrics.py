import numpy as np
import pytest

from cjopt.feasibility import optimal_power
from cjopt.metrics import sinr_eve_upper, sinr_user
from cjopt.model import SystemParams, precoder_from_unit_columns
from reference import secrecy_bounds, ser_monte_carlo, sinr_eve_full
from util import custom_channels, feasible_instance, make_instance, random_psd


def _single_user_setup(sigma2=0.1, h=None):
    """K=1 instance with |f^H u|^2 = 1 and a controllable Eve channel."""
    F = np.array([[1.0], [0.0]])
    H = np.array([[1.0], [0.0]]) if h is None else h
    B = np.zeros((2, 1))
    G = np.array([[1.0], [0.0]])
    ch = custom_channels(F, H, B, G)
    pre = precoder_from_unit_columns(np.array([[1.0], [0.0]], dtype=complex), ch, tau=2.0)
    return ch, pre, sigma2


class TestSinrUser:
    def test_single_term_ratio(self):
        ch, pre, sigma2 = _single_user_setup(sigma2=0.1)
        out = sinr_user(pre, ch, np.array([1.0]), np.zeros((2, 2)), sigma2)
        assert out[0] == pytest.approx(10.0)

    def test_monotone_in_jamming(self):
        _, ch, pre = make_instance(2)
        rng = np.random.default_rng(0)
        Sigma = random_psd(rng, ch.B.shape[0])
        p = np.array([1.0, 2.0, 0.5])
        lo = sinr_user(pre, ch, p, 4.0 * Sigma, 1.0)
        hi = sinr_user(pre, ch, p, Sigma, 1.0)
        assert np.all(lo <= hi + 1e-12)

    def test_matches_scalar_reimplementation(self):
        _, ch, pre = make_instance(5, n=4, k=2, l=4, z=2)
        rng = np.random.default_rng(1)
        Sigma = random_psd(rng, 4)
        p = np.array([0.7, 1.3])
        got = sinr_user(pre, ch, p, Sigma, 0.5)
        for k in range(2):
            f = ch.F[:, k]
            sig = p[k] * abs(np.vdot(f, pre.U[:, k])) ** 2
            interf = sum(p[i] * abs(np.vdot(f, pre.U[:, i])) ** 2 for i in range(2) if i != k)
            b = ch.B[:, k]
            jam = (b.conj() @ Sigma @ b).real
            assert got[k] == pytest.approx(sig / (interf + jam + 0.5), rel=1e-12)


class TestSinrEveFull:
    def test_single_stream_scalar_case(self):
        h = np.array([[0.6], [0.8j]])
        ch, pre, _ = _single_user_setup(h=h)
        p = np.array([2.0])
        out = sinr_eve_full(pre, ch, p, np.zeros((2, 2)), 0.5)
        a2 = abs(np.vdot(h[:, 0], pre.U[:, 0].astype(complex))) ** 2
        assert out[0] == pytest.approx(p[0] * a2 / 0.5, rel=1e-12)

    def test_strong_jamming_kills_sinr(self):
        _, ch, pre = make_instance(3)
        Sigma = 1e12 * np.eye(ch.G.shape[0])
        out = sinr_eve_full(pre, ch, np.ones(3), Sigma, 1.0)
        assert np.all(out <= 1e-9)

    def test_beamformer_form_agreement(self):
        # The optimal receive beamformer w = M_k^{-1} a_k (interference
        # covariance without stream k) gives the same SINR as the
        # whole-covariance inverse form.
        for seed in range(10):
            _, ch, pre = make_instance(seed, n=6, k=3, l=5, z=2)
            rng = np.random.default_rng(seed)
            Sigma = random_psd(rng, 5, scale=0.3)
            p = rng.uniform(0.2, 2.0, size=3)
            got = sinr_eve_full(pre, ch, p, Sigma, 0.8)
            A = pre.A
            C = 0.8 * np.eye(2) + ch.G.conj().T @ Sigma @ ch.G
            for k in range(3):
                Mk = C.copy()
                for i in range(3):
                    if i != k:
                        Mk += p[i] * np.outer(A[:, i], A[:, i].conj())
                w = np.linalg.solve(Mk, A[:, k])
                num = p[k] * abs(np.vdot(w, A[:, k])) ** 2
                den = (w.conj() @ Mk @ w).real
                assert got[k] == pytest.approx(num / den, rel=1e-9)


class TestSinrEveUpper:
    def test_no_jamming(self):
        _, ch, pre = make_instance(1)
        p = np.array([1.0, 2.0, 3.0])
        got = sinr_eve_upper(pre, ch, p, np.zeros((ch.G.shape[0],) * 2), 0.25)
        want = p * np.sum(np.abs(pre.A) ** 2, axis=0) / 0.25
        assert np.allclose(got, want, rtol=1e-12)

    def test_equals_full_for_single_stream(self):
        h = np.array([[0.3 + 0.1j], [1.1]])
        ch, pre, _ = _single_user_setup(h=h)
        rng = np.random.default_rng(2)
        Sigma = random_psd(rng, 2)
        p = np.array([1.7])
        up = sinr_eve_upper(pre, ch, p, Sigma, 0.4)
        full = sinr_eve_full(pre, ch, p, Sigma, 0.4)
        assert up[0] == pytest.approx(full[0], rel=1e-9)

    def test_ratio_form_agreement(self):
        # q/(1-q) with q = p a^H (p a a^H + C)^{-1} a equals the direct
        # quadratic form p a^H C^{-1} a.
        for seed in range(10):
            _, ch, pre = make_instance(seed, n=6, k=3, l=5, z=2)
            rng = np.random.default_rng(100 + seed)
            Sigma = random_psd(rng, 5, scale=0.2)
            p = rng.uniform(0.2, 2.0, size=3)
            got = sinr_eve_upper(pre, ch, p, Sigma, 0.9)
            C = 0.9 * np.eye(2) + ch.G.conj().T @ Sigma @ ch.G
            for k in range(3):
                a = pre.A[:, k]
                M = p[k] * np.outer(a, a.conj()) + C
                q = (p[k] * a.conj() @ np.linalg.solve(M, a)).real
                assert got[k] == pytest.approx(q / (1.0 - q), rel=1e-9)

    def test_upper_bounds_full(self):
        for seed in range(20):
            _, ch, pre = make_instance(seed, n=6, k=3, l=5, z=2)
            rng = np.random.default_rng(200 + seed)
            Sigma = random_psd(rng, 5, scale=0.5)
            p = rng.uniform(0.1, 3.0, size=3)
            full = sinr_eve_full(pre, ch, p, Sigma, 1.0)
            up = sinr_eve_upper(pre, ch, p, Sigma, 1.0)
            assert np.all(full <= up + 1e-9)


class TestSecrecyBounds:
    def test_clamp_at_equal_sinr(self):
        c_se, _, _ = secrecy_bounds([3.0], [3.0], [3.0], 2.0)
        assert c_se[0] == 0.0

    def test_deaf_eve(self):
        _, l1, l2 = secrecy_bounds([3.0], [0.0], [0.0], 2.0)
        assert l2[0] == pytest.approx(2.0)
        assert l1[0] == pytest.approx(2.0)

    def test_ordering_on_feasible_instances(self):
        # With SINR_k >= tau the user rate is >= the rate threshold, so
        # c_se >= c_se_l1 >= c_se_l2 componentwise.
        for seed in range(10):
            params, ch, pre = feasible_instance(seed)
            p = optimal_power(pre, params)
            Sigma = np.zeros((params.l, params.l))
            c_se, l1, l2 = secrecy_bounds(sinr_user(pre, ch, p, Sigma, params.sigma2),
                                          sinr_eve_full(pre, ch, p, Sigma, params.sigma2),
                                          sinr_eve_upper(pre, ch, p, Sigma, params.sigma2),
                                          params.rate_threshold)
            assert np.all(l2 <= l1 + 1e-12)
            assert np.all(l1 <= c_se + 1e-12)


class TestSerMonteCarlo:
    def test_single_user_models_coincide(self):
        params, ch, pre = feasible_instance(0, n=4, k=1, l=3, z=2, tau=2.0, p_tot=20.0)
        p = optimal_power(pre, params)
        ml, mf = ser_monte_carlo(pre, ch, p, np.zeros((3, 3)), params.sigma2,
                                 trials=40_000, rng_seed=0)
        se = np.sqrt(max(mf * (1 - mf), 1e-12) / 40_000)
        assert abs(ml - mf) <= 4 * se + 1e-3

    def test_vanishing_noise(self):
        params, ch, pre = feasible_instance(1, n=4, k=2, l=4, z=2, tau=2.0, p_tot=50.0)
        p = optimal_power(pre, params)
        ml, mf = ser_monte_carlo(pre, ch, p, np.zeros((4, 4)), 1e-9,
                                 trials=10_000, rng_seed=1)
        assert ml == 0.0 and mf == 0.0

    def test_rejects_few_trials(self):
        params, ch, pre = feasible_instance(0, n=4, k=1, l=3, z=2)
        with pytest.raises(ValueError):
            ser_monte_carlo(pre, ch, np.ones(1), np.zeros((3, 3)), 1.0, trials=100)

    def test_deterministic(self):
        params, ch, pre = feasible_instance(2, n=4, k=2, l=4, z=2, p_tot=30.0)
        p = optimal_power(pre, params)
        a = ser_monte_carlo(pre, ch, p, np.zeros((4, 4)), 1.0, trials=10_000, rng_seed=4)
        b = ser_monte_carlo(pre, ch, p, np.zeros((4, 4)), 1.0, trials=10_000, rng_seed=4)
        assert a == b
