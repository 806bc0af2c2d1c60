import csv
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjopt import experiments, feasibility, kernel, model
from cjopt.errors import CjoptError, Infeasible, NumericalFailure
from cjopt.experiments import (
    SOLVER_TABLE,
    SOLVERS,
    SPECTRUM_TABLE,
    SweepRow,
    SweepSpec,
    run_solver,
    run_sweep,
    summarize,
    trial_seed,
    write_csv,
)
from cjopt.feasibility import check_existence
from cjopt.metrics import sinr_eve_upper, sinr_user
from cjopt.model import SystemParams, channel_inversion_precoder, generate_rayleigh
from cjopt.report import Design, make_report
from reference import secrecy_bounds, sinr_eve_full
from util import feasible_instance, sweep_cli_spec

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
        with pytest.raises(ValueError, match="repeat"):
            _spec(solvers=("optimal", "no_jamming", "optimal"))

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
        # The report evaluates exactly the paper's formulas on the design.
        rep = run_solver(name, pre, ch, ch, params)
        s_u = sinr_user(pre, ch, d.p, d.Sigma, params.sigma2)
        s_up = sinr_eve_upper(pre, ch, d.p, d.Sigma, params.sigma2)
        s_e = sinr_eve_full(pre, ch, d.p, d.Sigma, params.sigma2)
        assert np.array_equal(rep.sinr_user, s_u)
        assert np.array_equal(rep.sinr_eve_upper, s_up)
        assert np.array_equal(rep.secrecy_lb, secrecy_bounds(s_u, s_e, s_up, params.rate_threshold)[2])

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
        # Every kernel solve goes through solve_batch: kernel.solve hands it
        # one program, and the sweep batches the spectrum programs.
        real_solve_batch = kernel.solve_batch

        def capped(*args, **kwargs):
            return [replace(s, status="MaxIterations") for s in real_solve_batch(*args, **kwargs)]

        monkeypatch.setattr(kernel, "solve_batch", capped)
        solvers = ("optimal", "alternating", "fixed_split", "b_zero", "l_inf_limit")
        rows = run_sweep(_spec(axis="P_tot", axis_values=(100.0,), trials=1, solvers=solvers))
        assert [r.solver for r in rows] == list(solvers)
        assert all(r.feasible and r.status == "MaxIterations" for r in rows)

    def test_batched_rows_equal_run_solver(self):
        # The sweep solves the programs of every trial in batches; each row
        # must be exactly the one run_solver gives on its trial, error rows
        # included (existence test and fixed split fail at the low budgets).
        # On the Z axis every solver has programs of three structures.
        solvers = ("optimal", "fixed_split", "b_zero", "l_inf_limit")
        cases = [(_spec(axis="P_tot", axis_values=(0.5, 1.0, 1.5, 2.0, 50.0), trials=4, solvers=solvers,
                        seed=2), lambda v: replace(BASE, p_tot=v), {"Converged", "Infeasible"}),
                 (_spec(axis="Z", axis_values=(1, 2, 3), trials=3, solvers=solvers, seed=2),
                  lambda v: replace(BASE, z=int(v)), {"Converged"})]
        for spec, params_of, want in cases:
            rows = run_sweep(spec)
            statuses = set()
            for r in rows:
                params = params_of(r.axis_value)
                ch = generate_rayleigh(params, rng_seed=r.trial_seed)
                pre = channel_inversion_precoder(ch, params.tau)
                statuses.add(r.status)
                if not check_existence(pre, params).feasible:
                    assert (r.feasible, r.status) == (False, "Infeasible")
                    continue
                try:
                    rep = run_solver(r.solver, pre, ch, ch, params)
                except CjoptError as exc:
                    assert (r.feasible, r.status) == (False, type(exc).__name__)
                    continue
                assert (r.feasible, r.status, r.iterations, r.eta) == (True, rep.status, rep.iterations, rep.eta)
                assert np.array_equal([r.min_secrecy_lb, r.mean_secrecy_lb],
                                      [np.min(rep.secrecy_lb), np.mean(rep.secrecy_lb)], equal_nan=True)
            assert statuses == want
            assert len(rows) == len(spec.axis_values) * spec.trials * len(solvers)

    def test_one_batch_and_one_existence_test_per_trial(self, monkeypatch):
        # The existence test of a trial's draw gives the QoS powers of every
        # first step, and one kernel batch solves the programs of all trials.
        calls = {"solve_batch": 0, "check_existence": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kernel, "solve_batch", counted("solve_batch", kernel.solve_batch))
        real = feasibility.check_existence
        for name, mod in list(sys.modules.items()):  # every cjopt module that holds it
            if name.startswith("cjopt") and getattr(mod, "check_existence", None) is real:
                monkeypatch.setattr(mod, "check_existence", counted("check_existence", real))
        spec = _spec(axis="Z", axis_values=(1, 2), trials=3, solvers=tuple(SPECTRUM_TABLE))
        rows = run_sweep(spec)
        assert len(rows) == 2 * 3 * 4 and all(r.feasible for r in rows)
        assert calls == {"solve_batch": 1, "check_existence": 2 * 3}

    def test_one_gram_inverse_per_feasible_trial(self, monkeypatch):
        # optimal and fixed_split price a trial's draw with compute_phi in
        # the first stage and build its Sigma in the last, after every
        # other trial's first stage: both read the draw's cached
        # zero_forcing, so a draw tests and inverts [G B]^H [G B] once.
        # The precoder's F^H F test, also in model, is not Hermitian.
        tests = []
        real = model.well_conditioned
        monkeypatch.setattr(model, "well_conditioned",
                            lambda M, hermitian=False: tests.append(hermitian) or real(M, hermitian))
        rows = run_sweep(sweep_cli_spec())
        feasible = {r.trial_seed for r in rows if r.solver == "optimal" and r.feasible}
        assert len(feasible) >= 30
        assert all(r.feasible for r in rows if r.trial_seed in feasible and r.solver != "fixed_split")
        assert tests.count(True) == len(feasible)

    def test_failed_program_keeps_its_own_row(self, monkeypatch):
        # A program whose kernel solve fails reports NumericalFailure in its
        # row; the other rows of its batch are unchanged. The sweep makes
        # one batch of the eq14 programs and b_zero's cap-free programs; the
        # first of each kind (b_zero's are those its first step built) fails.
        spec = _spec(axis="P_tot", axis_values=(20.0, 50.0), trials=3,
                     solvers=("optimal", "no_jamming", "fixed_split", "b_zero", "l_inf_limit"))
        want = run_sweep(spec)
        real, real_b_zero = kernel.solve_batch, experiments.b_zero_program
        b_zero_programs = set()

        def recorded(*args):
            built = real_b_zero(*args)
            b_zero_programs.add(id(built.program))
            return built

        def first_of_each_kind_fails(progs, gap_ref=1.0):
            sols = real(progs, gap_ref)
            cap_free = [id(g) in b_zero_programs for g in progs]
            if len(set(cap_free)) == 2:
                for k in (cap_free.index(False), cap_free.index(True)):
                    sols[k] = NumericalFailure("Newton system unsolvable after regularization")
            return sols

        monkeypatch.setattr(experiments, "b_zero_program", recorded)
        monkeypatch.setattr(kernel, "solve_batch", first_of_each_kind_fails)
        got = run_sweep(spec)
        changed = [(a, b) for a, b in zip(want, got) if repr(a) != repr(b)]  # repr: NaN equals NaN
        assert len(changed) == 2
        assert all(b.status == "NumericalFailure" and not b.feasible for _, b in changed)
        assert sorted(a.solver == "b_zero" for a, _ in changed) == [False, True]
        assert all(a.solver in SPECTRUM_TABLE for a, _ in changed)

    def test_programming_errors_escape(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside a solver")

        monkeypatch.setattr(experiments, "optimal_spectrum", broken)  # the sweep's optimal entry
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
