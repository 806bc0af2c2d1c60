"""The summary of tools/bench_pairs.py on fixed records (no perfbench run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(side, pair, ms, rate, correct=True, failed=0):
    metrics = {"solve_ms_p50": {"value": ms, "unit": "ms"}, "trials_per_s": {"value": rate, "unit": "1/s"}}
    return {"workload": "sweep_cli", "side": side, "pair": pair,
            "result": {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}}


BETTER = {"solve_ms_p50": "lower", "trials_per_s": "higher", "setup_s": "lower"}
BOUNDS = {"solve_ms_p50": 0.25, "trials_per_s": 0.25, "setup_s": 0.25}
# Pairs 1-4: the change is faster in pairs 1-3 and ties pair 4.
RUNS = [_run("parent", 1, 10.0, 100.0), _run("change", 1, 8.0, 125.0),
        _run("change", 2, 9.0, 110.0), _run("parent", 2, 12.0, 80.0),
        _run("parent", 3, 11.0, 90.0), _run("change", 3, 10.0, 100.0),
        _run("change", 4, 10.0, 100.0), _run("parent", 4, 10.0, 100.0)]


def test_summary_of_fixed_records():
    summary = bench_pairs.summarize(RUNS, BETTER, BOUNDS)["sweep_cli"]
    assert summary["pairs"] == 4 and summary["all_correct_and_no_failures"] and summary["regressed"] == []
    ms = summary["metrics"]["solve_ms_p50"]
    assert ms["parent_q1_median_q3"] == pytest.approx([10.0, 10.5, 11.25])
    assert ms["change_q1_median_q3"] == pytest.approx([8.75, 9.5, 10.0])
    assert (ms["change_won"], ms["parent_won"]) == (3, 0)  # the tie counts for neither
    assert ms["median_pair_ratio"] == pytest.approx((0.8 + 10 / 11) / 2)  # of 0.75, 0.8, 10/11 and 1
    assert ms["parent_iqr"] == pytest.approx(1.25) and ms["median_difference"] == pytest.approx(-1.0)
    rate = summary["metrics"]["trials_per_s"]
    assert (rate["change_won"], rate["parent_won"]) == (3, 0)  # higher is better here


def test_a_failed_or_incorrect_run_is_flagged():
    assert not bench_pairs.summarize(RUNS[:-1] + [_run("parent", 4, 10.0, 100.0, failed=1)],
                                     BETTER, BOUNDS)["sweep_cli"]["all_correct_and_no_failures"]
    assert not bench_pairs.run_ok(_run("change", 1, 8.0, 125.0, correct=False)["result"])
    assert not bench_pairs.run_ok({"correct": False, "failed": None, "error": "exit 1"})


def test_a_median_worse_than_its_bound_is_flagged():
    # An alternating_leaky series: setup_s 0.225 -> 0.304 s (+35%)
    # breaks its 25% bound; solve_ms_p50 37.6 -> 40.9 ms (+8.8%) does not,
    # nor does trials_per_s 31 -> 24 (-22.6%, higher is better).
    values = {"parent": {"solve_ms_p50": [37.0, 37.6, 38.0], "trials_per_s": [30.0, 31.0, 32.0],
                         "setup_s": [0.22, 0.225, 0.23]},
              "change": {"solve_ms_p50": [40.5, 40.9, 41.0], "trials_per_s": [23.0, 24.0, 25.0],
                         "setup_s": [0.30, 0.304, 0.31]}}
    runs = [{"workload": "alternating_leaky", "side": side, "pair": pair + 1,
             "result": {"correct": True, "failed": 0,
                        "metrics": {name: {"value": v[pair]} for name, v in metrics.items()}}}
            for side, metrics in values.items() for pair in range(3)]
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)["alternating_leaky"]
    assert summary["regressed"] == ["setup_s"]
    assert [summary["metrics"][name]["regressed"] for name in BETTER] == [False, False, True]
    # The bound is relative to the parent's median: +35% passes a 0.36
    # bound, and -22.6% fails a 0.2 bound.
    assert bench_pairs.summarize(runs, BETTER, dict(BOUNDS, setup_s=0.36))["alternating_leaky"]["regressed"] == []
    assert bench_pairs.summarize(runs, BETTER, dict(BOUNDS, trials_per_s=0.2))["alternating_leaky"]["regressed"] == [
        "trials_per_s", "setup_s"]


def test_src_lines_counts_like_wc(tmp_path):
    pkg = tmp_path / "src" / "cjopt"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not python\n")
    assert bench_pairs.src_lines(tmp_path) == 2


def test_a_gain_is_resolved_by_nine_wins_in_ten_beyond_the_parent_iqr():
    # Ten pairs of solve_ms_p50 (lower is better). The parent's quartiles
    # are 19.25/20/20.75 ms, an IQR of 1.5 ms.
    parent = [19.0, 20.0, 21.0, 19.0, 20.0, 21.0, 19.0, 20.0, 21.0, 20.0]

    def summary(change):
        runs = [_run(side, pair + 1, ms, 100.0) for pair in range(10)
                for side, ms in (("parent", parent[pair]), ("change", change[pair]))]
        return bench_pairs.summarize(runs, BETTER, BOUNDS)["sweep_cli"]["metrics"]["solve_ms_p50"]

    won_nine = [17.0, 18.0, 18.5, 17.5, 18.0, 18.5, 17.0, 18.0, 18.5, 20.5]  # median 18.0: 2 ms better
    ms = summary(won_nine)
    assert (ms["change_won"], ms["parent_iqr"], ms["median_difference"]) == (9, 1.5, -2.0)
    assert ms["gain_resolved"]
    assert not summary(won_nine[:8] + [21.0, 20.5])["gain_resolved"]  # 8 wins in 10 (and a tie)
    assert not summary([x + 0.75 for x in won_nine[:9]] + [20.5])["gain_resolved"]  # 1.25 ms < the IQR
    assert not bench_pairs.summarize(RUNS, BETTER, BOUNDS)["sweep_cli"]["metrics"]["solve_ms_p50"]["gain_resolved"]  # 3 of 4
