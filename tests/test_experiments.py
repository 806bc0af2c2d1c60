import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjopt import experiments, kernel
from cjopt.errors import Infeasible
from cjopt.experiments import (
    SOLVER_TABLE,
    SOLVERS,
    SweepRow,
    SweepSpec,
    run_sweep,
    summarize,
    trial_seed,
    write_csv,
)
from cjopt.feasibility import check_existence
from cjopt.model import SystemParams, channel_inversion_precoder, generate_rayleigh
from cjopt.report import Design, make_report
from util import feasible_instance

BASE = SystemParams(n=8, k=3, l=6, z=2, sigma2=1.0, tau=2.0, p_tot=100.0)


def _spec(**kw):
    defaults = dict(base=BASE, axis="Z", axis_values=(1, 2), trials=2,
                    solvers=("optimal", "no_jamming"), seed=0)
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(axis="bogus")
        with pytest.raises(ValueError):
            _spec(axis_values=(2, 1))
        with pytest.raises(ValueError):
            _spec(trials=0)
        with pytest.raises(ValueError):
            _spec(solvers=("nope",))

    def test_trial_seed_stable(self):
        assert trial_seed(0, 2, 1) == trial_seed(0, 2, 1)
        assert trial_seed(0, 2, 1) != trial_seed(0, 2, 2)
        assert trial_seed(0, 2, 1) != trial_seed(1, 2, 1)


class TestSolverTable:
    @pytest.mark.parametrize("name", SOLVERS)
    def test_every_entry_returns_a_design(self, name):
        params, ch, pre = feasible_instance(0)
        d = SOLVER_TABLE[name](pre, ch, params)
        assert isinstance(d, Design)
        assert d.p.shape == (params.k,) and np.isfinite(d.eta)
        if name == "l_inf_limit":
            assert d.Sigma is None
            return
        assert d.Sigma.shape == (params.l, params.l)
        scale = max(np.linalg.norm(d.Sigma), 1.0)
        assert np.linalg.norm(d.Sigma - d.Sigma.conj().T) <= 1e-12 * scale
        assert np.linalg.eigvalsh(0.5 * (d.Sigma + d.Sigma.conj().T)).min() >= -1e-12 * scale

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), z=st.integers(1, 3),
           extra_l=st.integers(0, 2), extra_n=st.integers(0, 3), tau_db=st.floats(0.0, 6.0),
           b_gain_db=st.floats(-30.0, 0.0), headroom_db=st.floats(0.5, 30.0))
    def test_invariants_on_random_instances(self, seed, k, z, extra_l, extra_n, tau_db,
                                            b_gain_db, headroom_db):
        # L >= K + Z, and P_tot sits headroom_db above the minimal QoS power.
        params = SystemParams(n=k + extra_n, k=k, l=k + z + extra_l, z=z, sigma2=1.0,
                              tau=10 ** (tau_db / 10), p_tot=1.0)
        ch = generate_rayleigh(params, gain_db_b=b_gain_db, rng_seed=seed)
        pre = channel_inversion_precoder(ch, params.tau)
        p_min = check_existence(pre, params).p_norm1
        params = replace(params, p_tot=p_min * 10 ** (headroom_db / 10))
        designs = {}
        for name in SOLVERS:
            try:
                d = designs[name] = SOLVER_TABLE[name](pre, ch, params)
            except Infeasible:
                assert name == "fixed_split"  # QoS power above the 50% share
                continue
            used = float(d.p.sum())
            if d.Sigma is not None:
                # b_zero designs for a jammer-to-user channel of zero and
                # meets the QoS thresholds only there.
                ch_eval = replace(ch, B=0.0 * ch.B) if name == "b_zero" else ch
                rep = make_report(name, pre, ch_eval, params, d)
                used += rep.sigma_trace
                assert np.all(rep.sinr_user >= params.tau * (1.0 - 1e-6)), name
            assert used <= params.p_tot * (1.0 + 1e-6), name
        eta = designs["optimal"].eta
        assert eta <= designs["no_jamming"].eta * (1.0 + 1e-6)
        if "fixed_split" in designs:
            assert eta <= designs["fixed_split"].eta * (1.0 + 1e-6)


class TestRunSweep:
    def test_row_structure(self):
        rows = run_sweep(_spec())
        assert len(rows) == 2 * 2 * 2  # values x solvers x trials
        assert all(isinstance(r, SweepRow) for r in rows)
        # paired channels: same trial seeds appear for every solver
        seeds = {s: sorted(r.trial_seed for r in rows if r.solver == s and r.axis_value == 1)
                 for s in ("optimal", "no_jamming")}
        assert seeds["optimal"] == seeds["no_jamming"]

    def test_deterministic(self):
        assert run_sweep(_spec()) == run_sweep(_spec())

    def test_jamming_helps(self):
        rows = run_sweep(_spec(trials=3))
        by = {(r.axis_value, r.solver, r.trial_seed): r for r in rows}
        for (value, solver, seed), r in by.items():
            if solver != "optimal" or not r.feasible:
                continue
            other = by[(value, "no_jamming", seed)]
            if other.feasible:
                assert r.eta <= other.eta + 1e-9

    def test_every_solver_runs(self):
        spec = _spec(axis="P_tot", axis_values=(50.0, 100.0), trials=1, solvers=SOLVERS)
        rows = run_sweep(spec)
        assert len(rows) == 2 * len(SOLVERS)
        for r in rows:
            assert r.feasible, (r.solver, r.status)

    def test_kernel_status_reaches_rows(self, monkeypatch):
        real_solve = kernel.solve

        def capped(*args, **kwargs):
            return replace(real_solve(*args, **kwargs), status="MaxIterations")

        monkeypatch.setattr(kernel, "solve", capped)
        solvers = ("optimal", "alternating", "fixed_split", "b_zero", "l_inf_limit")
        rows = run_sweep(_spec(axis="P_tot", axis_values=(100.0,), trials=1, solvers=solvers))
        assert [r.solver for r in rows] == list(solvers)
        assert all(r.feasible and r.status == "MaxIterations" for r in rows)

    def test_programming_errors_escape(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside a solver")

        monkeypatch.setattr(experiments, "solve_optimal", broken)
        with pytest.raises(TypeError):
            run_sweep(_spec(trials=1))

    def test_infeasible_trials_are_recorded(self):
        tight = SystemParams(n=8, k=3, l=6, z=2, sigma2=1.0, tau=1e6, p_tot=1.0)
        rows = run_sweep(_spec(base=tight, axis="P_tot", axis_values=(1.0,), trials=2))
        assert all(not r.feasible for r in rows)
        assert all(np.isnan(r.eta) for r in rows)

    def test_summarize_excludes_infeasible(self):
        tight = SystemParams(n=8, k=3, l=6, z=2, sigma2=1.0, tau=1e6, p_tot=1.0)
        rows = run_sweep(_spec(base=tight, axis="P_tot", axis_values=(1.0,), trials=2))
        out = summarize(rows)
        assert all(e["feasible_fraction"] == 0.0 for e in out)
        assert all(np.isnan(e["mean_eta"]) for e in out)


class TestWriteCsv:
    HEADER = ("axis,axis_value,solver,trial_seed,feasible,eta,eta_db,"
              "min_secrecy_lb,mean_secrecy_lb,iterations,status")

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path))
        assert path.read_text() == self.HEADER + "\n"

    def test_round_trip(self, tmp_path):
        rows = run_sweep(_spec(trials=1))
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for rec, row in zip(parsed, rows):
            assert rec["solver"] == row.solver
            assert int(rec["trial_seed"]) == row.trial_seed
            assert float(rec["eta"]) == pytest.approx(row.eta, rel=1e-10)

    def test_byte_identical_reruns(self, tmp_path):
        spec = _spec(trials=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(spec), str(p1))
        write_csv(run_sweep(spec), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
