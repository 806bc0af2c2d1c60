"""The field-by-field comparison of tests/compare_outputs.py, on hand-made
sweep CSVs and solve reports (no git, no CLI)."""

import pytest

from compare_outputs import Comparison, compare_runs

HEADER = "axis,axis_value,solver,trial_seed,feasible,eta,eta_db,min_secrecy_lb,mean_secrecy_lb,iterations,status\n"
ROWS = [
    "P_tot,31.6227766017,optimal,11,true,0.25,-6.02059991328,1.5,1.75,18,Converged",
    "P_tot,31.6227766017,l_inf_limit,11,true,0.125,-9.03089986992,nan,nan,0,Converged",
    "P_tot,31.6227766017,fixed_split,12,false,nan,nan,nan,nan,0,Infeasible",
]


def _csv(rows):
    return HEADER + "\n".join(rows) + "\n"


def _compare(rows, rtol=1e-8):
    cmp = Comparison(rtol)
    cmp.csv("sweep", _csv(ROWS), _csv(rows))
    return cmp


def test_identical_csvs_pass():
    cmp = _compare(ROWS)
    assert cmp.problems == [] and cmp.max_rel == 0.0 and cmp.compared == 3


def test_float_within_tolerance_passes_and_is_reported():
    rows = [ROWS[0].replace("0.25,", "0.2500000000001,"), *ROWS[1:]]
    cmp = _compare(rows)
    assert cmp.problems == [] and 0.0 < cmp.max_rel < 1e-8


def test_largest_difference_is_reported_per_solver():
    rows = [ROWS[0], ROWS[1].replace("0.125,", "0.1250000000002,"), ROWS[2]]
    cmp = _compare(rows)
    assert cmp.max_rel_by_solver["optimal"] == 0.0 and cmp.max_rel_by_solver["fixed_split"] == 0.0
    assert cmp.max_rel_by_solver["l_inf_limit"] == cmp.max_rel > 0.0
    line = next(text for text in cmp.summary("base") if "per solver" in text)
    assert line.endswith(f"fixed_split 0, l_inf_limit {cmp.max_rel:.3g}, optimal 0")


def test_float_beyond_tolerance_fails():
    rows = [ROWS[0].replace("1.75,", "1.7500001,"), *ROWS[1:]]
    cmp = _compare(rows)
    assert len(cmp.problems) == 1 and "mean_secrecy_lb" in cmp.problems[0]


def test_db_column_compared_in_linear_units():
    # -6.02059991328 dB is 0.25; a 1e-9 dB shift is a 2.3e-10 relative change.
    rows = [ROWS[0].replace("-6.02059991328", "-6.02059991428"), *ROWS[1:]]
    assert _compare(rows).problems == []


@pytest.mark.parametrize("old, new", [(",Converged", ",MaxIterations"), (",true,", ",false,"),
                                      (",11,", ",13,"), ("0.25,", "nan,")])
def test_exact_fields_and_nan_are_gated(old, new):
    rows = [ROWS[0].replace(old, new, 1), *ROWS[1:]]
    assert _compare(rows).problems


def test_row_order_and_count_are_gated():
    assert _compare([ROWS[1], ROWS[0], ROWS[2]]).problems
    assert _compare(ROWS[:2]).problems


def test_iterations_are_reported_not_gated():
    cmp = _compare([ROWS[0].replace(",18,", ",19,"), *ROWS[1:]])
    assert cmp.problems == [] and cmp.iterations_changed == 1


def test_solve_reports_and_exit_codes():
    report = '{"eta": 0.5, "eta_db": -3.0103, "iterations": 4, "p_mw": [1.0, 2.0], "status": "Converged"}'
    moved = report.replace("2.0]", "2.000001]")
    base = {("readme", "sweep"): (0, _csv(ROWS)), ("readme", "optimal"): (0, report),
            ("readme", "b_zero"): (2, "infeasible: no power vector")}
    assert compare_runs(base, dict(base), 1e-8).problems == []
    moved_run = compare_runs(base, {**base, ("readme", "optimal"): (0, moved)}, 1e-8)
    assert moved_run.problems and moved_run.max_rel_by_solver["optimal"] > 1e-8
    assert compare_runs(base, {**base, ("readme", "optimal"): (1, report)}, 1e-8).problems
    assert compare_runs(base, {**base, ("readme", "b_zero"): (2, "infeasible: other")}, 1e-8).problems
