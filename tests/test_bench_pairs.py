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


BETTER = {"solve_ms_p50": "lower", "trials_per_s": "higher"}
# Pairs 1-4: the change is faster in pairs 1-3 and ties pair 4.
RUNS = [_run("parent", 1, 10.0, 100.0), _run("change", 1, 8.0, 125.0),
        _run("change", 2, 9.0, 110.0), _run("parent", 2, 12.0, 80.0),
        _run("parent", 3, 11.0, 90.0), _run("change", 3, 10.0, 100.0),
        _run("change", 4, 10.0, 100.0), _run("parent", 4, 10.0, 100.0)]


def test_summary_of_fixed_records():
    summary = bench_pairs.summarize(RUNS, BETTER)["sweep_cli"]
    assert summary["pairs"] == 4 and summary["all_correct_and_no_failures"]
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
                                     BETTER)["sweep_cli"]["all_correct_and_no_failures"]
    assert not bench_pairs.run_ok(_run("change", 1, 8.0, 125.0, correct=False)["result"])
    assert not bench_pairs.run_ok({"correct": False, "failed": None, "error": "exit 1"})


def test_src_lines_counts_like_wc(tmp_path):
    pkg = tmp_path / "src" / "cjopt"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not python\n")
    assert bench_pairs.src_lines(tmp_path) == 2
