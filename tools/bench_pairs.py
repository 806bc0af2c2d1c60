"""Alternated pairs of perfbench runs: a parent checkout against a change.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N
        [--workloads eve_sweep sweep_cli ...] [--pairs 10] [--seconds 30] [--note TEXT]

Pair P = 1..N runs `python3 perfbench/run.py --workload W --seed P
--seconds S --trace 0` in both checkouts, one run at a time: the parent
first on odd pairs, the change first on even ones. BENCH_<N>.json gets
every run's JSON line and, per workload and end-to-end metric, each side's
quartiles, the median pair ratio (change / parent), the difference of the
medians against the parent's IQR, and the pairs each side won (the
direction of "better" comes from BENCHMARK.json), and each checkout's size,
the `wc -l src/cjopt/*.py` total. The exit status is 1 if any run did not
report `correct: true` with `failed: 0`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("eve_sweep", "alternating_leaky", "sweep_cli")


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run in checkout: (its JSON line as a dict, wall seconds)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return result, wall


def src_lines(checkout):
    """The line count of checkout's src/cjopt/*.py, as the total of `wc -l` gives it."""
    return sum(path.read_bytes().count(b"\n") for path in Path(checkout).glob("src/cjopt/*.py"))


def run_ok(result):
    return result.get("correct") is True and result.get("failed") == 0


def _quartiles(xs):
    if len(xs) < 2:
        return [xs[0]] * 3
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, statistics.median(xs), q3]


def summarize(runs, better):
    """Per workload: the pairs, whether every run was correct without
    failures, and per metric (better: name -> "lower" or "higher") each
    side's [q1, median, q3], the median pair ratio change / parent, the
    pairs each side won (a tie counts for neither), the parent's IQR and
    the change's median minus the parent's."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        sides = {side: {r["pair"]: r["result"] for r in mine if r["side"] == side} for side in ("parent", "change")}
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        metrics = {}
        for name, direction in better.items():
            values = [(sides["parent"][p]["metrics"][name]["value"], sides["change"][p]["metrics"][name]["value"])
                      for p in pairs if all(name in sides[s][p].get("metrics", {}) for s in sides)]
            if not values:
                continue
            parent, change = [a for a, _ in values], [b for _, b in values]
            sign = 1.0 if direction == "lower" else -1.0
            qp, qc = _quartiles(parent), _quartiles(change)
            metrics[name] = {
                "parent_q1_median_q3": qp,
                "change_q1_median_q3": qc,
                "median_pair_ratio": statistics.median(b / a for a, b in values if a) if any(parent) else None,
                "change_won": sum(sign * (b - a) < 0 for a, b in values),
                "parent_won": sum(sign * (b - a) > 0 for a, b in values),
                "parent_iqr": qp[2] - qp[0],
                "median_difference": qc[1] - qp[1],
            }
        out[workload] = {"pairs": len(pairs), "all_correct_and_no_failures": all(run_ok(r["result"]) for r in mine),
                         "metrics": metrics}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--pr", required=True, help="the N of BENCH_<N>.json")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--note", default="", help="free text stored with the runs")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = args.out_dir / f"BENCH_{args.pr}.json"
    size = {side: src_lines(getattr(args, side)) for side in ("parent", "change")}
    runs = []
    for workload in args.workloads:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for position, side in enumerate(order):
                result, wall = run_once(getattr(args, side), workload, pair, args.seconds)
                runs.append({"workload": workload, "side": side, "pair": pair, "position": position, "seed": pair,
                             "seconds": args.seconds, "wall_s": round(wall, 1), "result": result})
                print(json.dumps({k: runs[-1][k] for k in ("workload", "side", "pair")} | {"ok": run_ok(result)}),
                      flush=True)
            # Written after every pair, so that a cut series keeps what it ran.
            out.write_text(json.dumps({
                "note": args.note,
                "command": "python3 perfbench/run.py --workload <workload> --seed <pair> --seconds "
                           f"{args.seconds} --trace 0",
                "order": "pair P uses seed P on both sides; odd pairs ran the parent first, even pairs the "
                         "change first (position 0 ran first); all runs were sequential",
                "src_lines": size,
                "summary": summarize(runs, better),
                "runs": runs,
            }, indent=1) + "\n")
    return 0 if all(run_ok(r["result"]) for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
