"""Tests of the benchmark's own checks and plumbing.

    python3 -m pytest -q perfbench

Each check must pass the library's real output and reject a corrupted
copy of it; the sweep CSV must not depend on the thread count; a
directory without the library must make the benchmark fail.
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run as bench

HERE = Path(__file__).resolve().parent
bench.load_cjopt()

from cjopt import alternating, baselines, cli, feasibility, model, optimal  # noqa: E402


def _instance(seed, gain_db_b=0.0, **kw):
    params = model.SystemParams(**{**dict(n=8, k=3, l=6, z=2, sigma2=1.0, tau=2.0,
                                          p_tot=100.0), **kw})
    while True:
        ch = model.generate_rayleigh(params, gain_db_b=gain_db_b, rng_seed=seed)
        pre = model.channel_inversion_precoder(ch, params.tau)
        if feasibility.check_existence(pre, params).feasible:
            return params, ch, pre
        seed += 1


@pytest.fixture(scope="module", params=[0, 1, 2])
def optimal_case(request):
    params, ch, pre = _instance(request.param)
    d = optimal.solve_optimal(pre, ch, params)
    nojam = baselines.no_jamming_report(pre, ch, params)
    return params, ch, dict(p=d.p, Sigma=d.Sigma, x=d.x, eta=d.eta, status=d.status,
                            nojam_eta=nojam.eta)


def _check_optimal(params, ch, design):
    return ref.check_optimal(ch, params.sigma2, params.tau, params.p_tot, **design)


def test_optimal_design_passes(optimal_case):
    params, ch, design = optimal_case
    assert _check_optimal(params, ch, design) == []


def test_dual_gap_is_tight(optimal_case):
    params, ch, design = optimal_case
    U = ref.precoder(ch.F)
    p0 = ref.qos_power(ch.F, U, params.sigma2, params.tau)
    abs_a2 = np.abs(ch.H.conj().T @ U) ** 2
    lb = ref.eq14_dual_bound(abs_a2, p0, ref.jamming_prices(ch.G, ch.B), params.sigma2,
                             params.p_tot, design["x"], design["eta"])
    assert 0.0 <= design["eta"] - lb <= 1e-9 * design["eta"]


@pytest.mark.parametrize("corrupt, needle", [
    (lambda d: {**d, "Sigma": 1.01 * d["Sigma"]}, "budget"),
    (lambda d: {**d, "p": 0.99 * d["p"]}, "SINR"),
    (lambda d: {**d, "eta": d["eta"] * (1.0 - 1e-5)}, "dual bound"),
    (lambda d: {**d, "eta": d["nojam_eta"] * 1.01, "status": "NoJammingPower"}, "no-jamming"),
])
def test_optimal_checks_reject_corruption(optimal_case, corrupt, needle):
    params, ch, design = optimal_case
    problems = _check_optimal(params, ch, corrupt(design))
    assert any(needle in p for p in problems), problems


def test_jamming_toward_users_is_rejected(optimal_case):
    params, ch, design = optimal_case
    b = ch.B[:, :1]
    leak = 1e-3 * np.real(np.trace(design["Sigma"])) * (b @ b.conj().T) / np.vdot(b, b).real
    problems = _check_optimal(params, ch, {**design, "Sigma": design["Sigma"] + leak})
    assert any("orthogonal" in p for p in problems), problems


def test_verdict_and_precoder_checks():
    params, ch, pre = _instance(0)
    U = ref.precoder(ch.F)
    assert ref.check_precoder(pre.U, U) == []
    assert ref.check_precoder(pre.U[:, ::-1], U)
    feasible, margin, p0 = ref.existence(ch.F, U, params.sigma2, params.tau, params.p_tot)
    assert feasible and margin > 0
    assert np.allclose(p0, feasibility.check_existence(pre, params).p_candidate, rtol=1e-9)
    assert ref.check_verdict(False, feasible, margin)
    assert ref.check_verdict(True, feasible, margin) == []


@pytest.fixture(scope="module")
def alternating_case():
    params, ch, pre = _instance(0, gain_db_b=-30.0, n=6, k=2, l=4, z=3, p_tot=1e3)
    state, rep = alternating.solve_alternating(pre, ch, params)
    return params, ch, dict(p=rep.p, Gamma=state.Gamma, eta=rep.eta, block_eta=state.eta,
                            iterations=state.iteration, max_iters=100)


def _check_alternating(params, ch, design):
    return ref.check_alternating(ch, params.sigma2, params.tau, params.p_tot, **design)


def test_alternating_design_passes(alternating_case):
    params, ch, design = alternating_case
    assert params.l < params.k + params.z
    assert _check_alternating(params, ch, design) == []


@pytest.mark.parametrize("corrupt, needle", [
    (lambda d: {**d, "Gamma": 1.01 * d["Gamma"]}, "block objective"),
    (lambda d: {**d, "p": 0.99 * d["p"]}, "SINR"),
    (lambda d: {**d, "eta": 1.01 * d["eta"]}, "reference Eve bound"),
    (lambda d: {**d, "block_eta": 1e-3 * d["block_eta"]}, "block objective"),
    (lambda d: {**d, "iterations": 100}, "cap"),
])
def test_alternating_checks_reject_corruption(alternating_case, corrupt, needle):
    params, ch, design = alternating_case
    problems = _check_alternating(params, ch, corrupt(design))
    assert any(needle in p for p in problems), problems


def test_leak_free_bound_below_block_objective(alternating_case):
    params, ch, design = alternating_case
    U = ref.precoder(ch.F)
    p0 = ref.qos_power(ch.F, U, params.sigma2, params.tau)
    lb = ref.leak_free_lower_bound(ch.G, np.abs(ch.H.conj().T @ U) ** 2, p0, params.p_tot)
    assert 0.0 < lb <= design["block_eta"]


VALUES_DBM = (15, 25)
TRIALS = 2


def _sweep(tmp_path, threads, name):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(bench.SWEEP_CONFIG.format(seed=4, trials=TRIALS))
    out = tmp_path / name
    assert cli.main(bench.sweep_args(cfg, out, 4, TRIALS, VALUES_DBM, threads)) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    return _sweep(tmp_path_factory.mktemp("sweep"), 2, "a.csv")


def _check_rows(rows):
    reference_of, solve_problems, _ = bench.sweep_reference()
    axis_values = [10.0 ** (v / 10.0) for v in VALUES_DBM]
    return ref.check_sweep_rows(rows, axis_values, bench.SWEEP_SOLVERS, TRIALS,
                                reference_of) + solve_problems


def _rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def test_sweep_csv_is_identical_across_repeats_and_threads(tmp_path, sweep_csv):
    assert _sweep(tmp_path, 2, "b.csv") == sweep_csv
    assert _sweep(tmp_path, 1, "c.csv") == sweep_csv


def test_sweep_rows_pass(sweep_csv):
    assert _check_rows(_rows(sweep_csv)) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[0].update(status="Infeasible"),
    lambda rows: rows[0].update(status="IllConditioned"),
    lambda rows: rows[0].update(eta=str(1.01 * float(rows[0]["eta"]))),
    lambda rows: rows.reverse(),
    lambda rows: rows.pop(),
])
def test_sweep_checks_reject_corruption(sweep_csv, corrupt):
    rows = _rows(sweep_csv)
    assert rows[0]["solver"] == "optimal" and rows[0]["status"] == "Converged"
    corrupt(rows)
    assert _check_rows(rows)


def test_confirmed_infeasible_rows_pass(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(bench.SWEEP_CONFIG.format(seed=4, trials=TRIALS))
    out = tmp_path / "low.csv"
    assert cli.main(bench.sweep_args(cfg, out, 4, TRIALS, (-20,), 1)) == 0
    rows = _rows(out.read_bytes())
    assert {r["status"] for r in rows} == {"Infeasible"}
    reference_of, _, _ = bench.sweep_reference()
    assert ref.check_sweep_rows(rows, [10.0 ** -2.0], bench.SWEEP_SOLVERS, TRIALS,
                                reference_of) == []


def test_sweep_cli_traced_run_matches_threads_1(monkeypatch, capsys):
    monkeypatch.setattr(bench, "SWEEP_TRIALS", TRIALS)
    monkeypatch.setattr(bench, "SWEEP_VALUES_DBM", VALUES_DBM)
    monkeypatch.setattr(bench, "OUT", Path(HERE / "out" / "test"))
    assert bench.main(["--workload", "sweep_cli", "--seed", "4", "--seconds", "0",
                       "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert set(result["metrics"]) == set(bench.tracing.METRICS)
    assert result["metrics"]["experiments.thread_speedup"]["value"] > 0
    assert result["metrics"]["kernel.solves_per_op"]["value"] > 0
    shutil.rmtree(HERE / "out" / "test")


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eve_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
