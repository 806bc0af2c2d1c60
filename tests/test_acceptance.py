"""End-to-end acceptance suite.

Covers the contract of the whole package: QoS tightness and orthogonality
of the closed-form design, brute-force oracle equivalence on tiny
instances, ordering and consistency of the eavesdropper SINR bounds,
detection-level validation of the bound via symbol error rates, monotone
descent and asymptotics of the alternating solver, Monte Carlo trend
reproduction, dominance over the baselines, budget/PSD invariants, and
byte-level determinism of the sweep pipeline.
"""

import csv
import time

import numpy as np
import pytest

from cjopt.alternating import solve_alternating, solve_b_zero
from cjopt.baselines import solve_fixed_split
from cjopt.cli import main
from cjopt.experiments import SweepSpec, run_sweep, summarize
from cjopt.feasibility import check_existence, optimal_power
from cjopt.metrics import ser_monte_carlo, sinr_eve_full, sinr_eve_upper, sinr_user
from cjopt.model import (
    SystemParams,
    channel_inversion_precoder,
    generate_rayleigh,
)
from cjopt.numerics import hermitian_solve, psd_sqrt
from cjopt.optimal import solve_optimal
from cjopt.oracle import grid_oracle
from util import feasible_instance, make_instance, random_psd


@pytest.fixture(scope="module")
def optimal_designs():
    """200 random feasible instances (N=8, K=3, Z=2, L=6) solved by the
    closed-form design, plus the wall-clock time spent solving them."""
    instances = []
    for seed in range(200):
        params, ch, pre = feasible_instance(seed)
        instances.append((params, ch, pre))
    t0 = time.monotonic()
    designs = [solve_optimal(pre, ch, params) for params, ch, pre in instances]
    elapsed = time.monotonic() - t0
    return instances, designs, elapsed


class TestQosTightness:
    def test_sinr_meets_threshold_with_equality(self, optimal_designs):
        instances, designs, elapsed = optimal_designs
        for (params, ch, pre), d in zip(instances, designs):
            s = sinr_user(pre, ch, d.p, d.Sigma, params.sigma2)
            assert np.allclose(s, params.tau, rtol=1e-6)
        assert elapsed < 60.0


class TestJammingOrthogonality:
    def test_sigma_orthogonal_to_user_channels(self, optimal_designs):
        instances, designs, _ = optimal_designs
        for (params, ch, pre), d in zip(instances, designs):
            num = np.linalg.norm(ch.B.conj().T @ d.Sigma)
            assert num <= 1e-6 * np.linalg.norm(d.Sigma)


class TestOracleEquivalence:
    def test_solver_matches_grid_oracle(self):
        t0 = time.monotonic()
        checked = 0
        for k, l, p_tot, seeds in ((1, 2, 1e6, range(7)), (1, 3, 1e6, range(7)),
                                   (2, 4, 1e7, range(6))):
            for seed in seeds:
                params, ch, pre = feasible_instance(seed, n=4, k=k, l=l, z=1,
                                                    p_tot=p_tot)
                d = solve_optimal(pre, ch, params)
                res = grid_oracle(pre, ch, params, grid=24, levels=4)
                assert abs(d.eta - res.eta) <= 2e-3 * res.eta, (k, l, seed)
                checked += 1
        assert checked >= 20
        assert time.monotonic() - t0 < 300.0


class TestBoundOrdering:
    def test_full_sinr_below_upper_bound(self):
        rng = np.random.default_rng(0)
        count = 0
        for seed in range(100):
            params, ch, pre = make_instance(seed)
            for _ in range(5):
                p = rng.uniform(0.1, 5.0, params.k)
                Sigma = random_psd(rng, params.l, scale=rng.uniform(0.1, 10.0))
                full = sinr_eve_full(pre, ch, p, Sigma, params.sigma2)
                upper = sinr_eve_upper(pre, ch, p, Sigma, params.sigma2)
                assert np.all(full <= upper + 1e-9)
                count += 1
        assert count == 500

    def test_equality_for_single_user(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            params, ch, pre = make_instance(seed, n=4, k=1, l=4, z=2)
            p = rng.uniform(0.1, 5.0, 1)
            Sigma = random_psd(rng, params.l)
            full = sinr_eve_full(pre, ch, p, Sigma, params.sigma2)
            upper = sinr_eve_upper(pre, ch, p, Sigma, params.sigma2)
            assert full[0] == pytest.approx(upper[0], rel=1e-9, abs=1e-9)


class TestSinrFormIdentities:
    def test_beamformer_and_quadratic_forms_agree(self):
        rng = np.random.default_rng(2)
        for seed in range(100):
            params, ch, pre = make_instance(seed)
            p = rng.uniform(0.1, 5.0, params.k)
            Sigma = random_psd(rng, params.l)
            C = params.sigma2 * np.eye(params.z) + ch.G.conj().T @ Sigma @ ch.G
            full = sinr_eve_full(pre, ch, p, Sigma, params.sigma2)
            upper = sinr_eve_upper(pre, ch, p, Sigma, params.sigma2)
            A = pre.A.T  # rows a_k (Z-vectors)
            for k in range(params.k):
                a_k = A[k]
                M_k = C.copy()
                for i in range(params.k):
                    if i != k:
                        M_k += p[i] * np.outer(A[i], A[i].conj())
                # optimal-beamformer form of the exact SINR
                want_full = p[k] * np.vdot(a_k, hermitian_solve(M_k, a_k)).real
                assert full[k] == pytest.approx(want_full, rel=1e-9)
                # whitened quadratic form of the upper bound
                root = psd_sqrt(np.linalg.inv(C))
                want_up = p[k] * float(np.linalg.norm(root @ a_k) ** 2)
                assert upper[k] == pytest.approx(want_up, rel=1e-9)


class TestSerOrdering:
    def test_reduced_model_is_not_pessimistic(self):
        t0 = time.monotonic()
        params, ch, pre = feasible_instance(0, n=6, k=2, l=6, z=2, p_tot=20.0)
        d = solve_optimal(pre, ch, params)
        trials = 100_000
        ser_ml, ser_mf = ser_monte_carlo(pre, ch, d.p, d.Sigma, params.sigma2,
                                         constellation="qpsk", trials=trials,
                                         rng_seed=0)
        se = np.sqrt(max(ser_mf * (1.0 - ser_mf), 1e-12) / trials)
        assert ser_ml >= ser_mf - 3.0 * se
        assert time.monotonic() - t0 < 120.0


class TestMonotoneDescent:
    def test_alternating_eta_never_increases(self):
        # The solver raises NonMonotone if the objective ever rises by more
        # than 1e-9 relative between iterations, so completing is the proof.
        for l in (6, 4):
            for seed in range(50):
                params, ch, pre = feasible_instance(seed, l=l)
                state, rep = solve_alternating(pre, ch, params)
                assert np.isfinite(rep.eta)
                assert rep.status == "Converged"


class TestHighPowerConvergence:
    def test_alternating_approaches_optimal(self):
        budgets = [10.0, 100.0, 1e3, 1e4]  # 10..40 dBm
        seeds, seed = [], 0
        while len(seeds) < 50:
            params, ch, pre = make_instance(seed, n=10, k=3, l=7, z=3,
                                            tau=10 ** 0.3, p_tot=budgets[0])
            if check_existence(pre, params).feasible:
                seeds.append(seed)
            seed += 1
        medians = []
        for p_tot in budgets:
            gaps = []
            for s in seeds:
                params, ch, pre = make_instance(s, n=10, k=3, l=7, z=3,
                                                tau=10 ** 0.3, p_tot=p_tot)
                d = solve_optimal(pre, ch, params)
                _, rep = solve_alternating(pre, ch, params)
                gaps.append(abs(rep.eta - d.eta) / d.eta)
            medians.append(float(np.median(gaps)))
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(medians, medians[1:]))
        assert medians[-1] <= 0.05


class TestWeakCrossChannelConvergence:
    def test_alternating_approaches_leak_free_solver(self):
        params = SystemParams(n=10, k=3, l=17, z=15, sigma2=1.0, tau=10 ** 0.3,
                              p_tot=1e4)
        medians = []
        for gain in (-10.0, -30.0, -50.0, -80.0):
            gaps = []
            for seed in range(50):
                ch = generate_rayleigh(params, gain_db_b=gain, rng_seed=seed)
                pre = channel_inversion_precoder(ch, params.tau)
                if not check_existence(pre, params).feasible:
                    continue
                state, rep = solve_alternating(pre, ch, params)
                eta_bz = solve_b_zero(pre, ch, params).eta
                gaps.append(abs(state.eta - eta_bz) / eta_bz)
            assert len(gaps) >= 45
            medians.append(float(np.median(gaps)))
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(medians, medians[1:]))
        assert medians[-1] <= 0.05


class TestEveAntennaTrend:
    def test_eta_rises_about_ten_db_from_5_to_20_antennas(self):
        t0 = time.monotonic()
        base = SystemParams(n=20, k=10, l=35, z=5, sigma2=1.0, tau=10.0,
                            p_tot=10.0)
        spec = SweepSpec(base=base, axis="Z", axis_values=tuple(range(5, 21)),
                         trials=100, solvers=("optimal",), seed=0)
        stats = summarize(run_sweep(spec))
        db = {e["axis_value"]: e["mean_eta_db"] for e in stats}
        curve = [db[z] for z in range(5, 21)]
        assert all(b >= a for a, b in zip(curve, curve[1:]))  # increases with Z
        rise = db[20] - db[5]
        assert 7.0 <= rise <= 13.0
        assert time.monotonic() - t0 < 1800.0


class TestBaselineDominance:
    def test_optimal_beats_fixed_split_and_no_jamming(self):
        base = SystemParams(n=8, k=3, l=6, z=2, sigma2=1.0, tau=2.0, p_tot=100.0)
        spec = SweepSpec(base=base, axis="P_tot", axis_values=(50.0, 100.0),
                         trials=10, solvers=("optimal", "fixed_split", "no_jamming"),
                         seed=0)
        rows = run_sweep(spec)
        by = {(r.axis_value, r.solver, r.trial_seed): r for r in rows}
        compared = 0
        for (value, solver, ts), r in by.items():
            if solver != "optimal" or not r.feasible:
                continue
            fixed = by[(value, "fixed_split", ts)]
            if fixed.feasible:
                assert r.eta <= fixed.eta + 1e-9
                compared += 1
            nojam = by[(value, "no_jamming", ts)]
            if nojam.feasible:
                assert r.min_secrecy_lb >= nojam.min_secrecy_lb - 1e-9
                assert r.mean_secrecy_lb >= nojam.mean_secrecy_lb - 1e-9
        assert compared >= 10


class TestDesignInvariants:
    @staticmethod
    def _check(p, Sigma, params):
        used = float(p.sum()) + float(np.trace(Sigma).real)
        assert used <= params.p_tot * (1.0 + 1e-6)
        assert np.linalg.norm(Sigma - Sigma.conj().T) <= 1e-9 * max(
            np.linalg.norm(Sigma), 1.0)
        w = np.linalg.eigvalsh(0.5 * (Sigma + Sigma.conj().T))[::-1]
        lam_max = max(w[0], 0.0)
        assert w[-1] >= -1e-9 * max(lam_max, 1.0)
        if lam_max > 0:
            assert np.all(w[params.z:] <= 1e-9 * lam_max)  # rank <= Z

    def test_optimal_designs(self, optimal_designs):
        instances, designs, _ = optimal_designs
        for (params, ch, pre), d in zip(instances, designs):
            self._check(d.p, d.Sigma, params)

    def test_alternating_designs(self):
        for l in (6, 4):
            for seed in range(5):
                params, ch, pre = feasible_instance(seed, l=l)
                state, rep = solve_alternating(pre, ch, params)
                Sigma = state.Gamma.conj().T @ state.Gamma
                self._check(rep.p, Sigma, params)

    def test_fixed_split_designs(self):
        for seed in range(5):
            params, ch, pre = feasible_instance(seed)
            Sigma = solve_fixed_split(pre, ch, params).Sigma
            p = optimal_power(pre, params)
            self._check(p, Sigma, params)


class TestSweepDeterminism:
    CONFIG = ("n = 8\nk = 3\nz = 2\nl = 6\nsigma2_dbm = 0\ntau_db = 3\n"
              "p_tot_dbm = 20\nseed = 11\ntrials = 3\n")

    def test_byte_identical_csv(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "3"), ("c.csv", "1")):
            out = tmp_path / name
            rc = main(["sweep", str(cfg), "--axis", "P_tot_dbm",
                       "--values", "15,20,25", "--solvers", "optimal,no_jamming",
                       "--trials", "3", "--out", str(out), "--threads", threads])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        # sanity: the CSV parses and has the expected shape
        with open(tmp_path / "a.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2 * 3
