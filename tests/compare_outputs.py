"""Compare the CLI outputs of this tree with those of a base revision.

    python tests/compare_outputs.py --base <rev> [--rtol 1e-8] [--base-dir DIR]

The base revision is checked out with `git worktree` into a temporary
directory, which is removed afterwards (or, with --base-dir, an existing
checkout is used). Both trees then run, on three configs, the all-solver
sweep

    cjopt sweep CFG --axis P_tot_dbm --values 15,20,25,30 --trials 10 --seed 3

and `cjopt solve CFG --json` for every solver. The configs are the README
config, the same with xi2_db = -10 (CSI error), and a leaky one with
l = 4 and b_gain_db = -10 (L < K + Z, so B is not zero-forced). On the
README config they also run the all-solver sweep

    cjopt sweep CFG --axis Z --values 1,2,3 --trials 10 --seed 3

whose programs have one shape per Z (the P_tot sweeps have one shape
each). Both trees also run two `cjopt oracle` commands: the README one,
which checks the `optimal` solver, and one with K = 2 and L = 2, which
checks `alternating`.

Gated: row order, trial seeds, status, feasible and exit codes must be
identical, and every float must agree within --rtol (relative; NaN equals
NaN; dB columns are compared in linear units). The oracle's printed text
must be identical. The iterations are reported, not gated. The last lines printed are a summary block, with
the largest relative difference of each solver; the exit code is 0 when
every gate holds.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

README_CONFIG = """\
n = 8
k = 3
l = 6
z = 2
sigma2_dbm = 0
tau_db = 3
p_tot_dbm = 20
seed = 3
trials = 10
"""
CONFIGS = {
    "readme": README_CONFIG,
    "xi2_-10dB": README_CONFIG + "xi2_db = -10\n",
    "leaky_l4_b-10dB": README_CONFIG.replace("l = 6", "l = 4") + "b_gain_db = -10\n",
}
SOLVERS = ("optimal", "alternating", "fixed_split", "no_jamming", "b_zero", "l_inf_limit")
SWEEP_ARGS = ["--axis", "P_tot_dbm", "--values", "15,20,25,30", "--trials", "10", "--seed", "3"]
# (config, output key, arguments) of every sweep.
SWEEPS = [(name, "sweep", SWEEP_ARGS) for name in CONFIGS] + [
    ("readme", "sweep_Z", ["--axis", "Z", "--values", "1,2,3", "--trials", "10", "--seed", "3"])]
ORACLE_ARGS = {
    "oracle_optimal": ["--n", "4", "--k", "1", "--l", "2", "--z", "1", "--p-tot-dbm", "60", "--levels", "4"],
    "oracle_alternating": ["--n", "4", "--k", "2", "--l", "2", "--z", "1", "--p-tot-dbm", "30"],
}
CSV_EXACT = ("axis", "solver", "trial_seed", "feasible", "status")
CSV_FLOATS = ("axis_value", "eta", "eta_db", "min_secrecy_lb", "mean_secrecy_lb")


def _linear(name, value):
    """dB fields in linear units, so that one relative tolerance fits all."""
    return 10.0 ** (value / 10.0) if name.endswith("_db") and math.isfinite(value) else value


def _rel_diff(a, b):
    """Relative difference of two floats; 0 when both are NaN or equal."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


class Comparison:
    """Gate failures, the largest relative float difference (in all and
    per solver) and the iteration changes seen so far."""

    def __init__(self, rtol):
        self.rtol = rtol
        self.problems = []
        self.max_rel = 0.0
        self.max_rel_by_solver = {}
        self.floats = 0
        self.iterations_changed = 0
        self.compared = 0

    def floats_close(self, where, name, a, b, solver):
        a, b = _linear(name, float(a)), _linear(name, float(b))
        diff = _rel_diff(a, b)
        self.floats += 1
        self.max_rel = max(self.max_rel, diff)
        self.max_rel_by_solver[solver] = max(self.max_rel_by_solver.get(solver, 0.0), diff)
        if diff > self.rtol:
            self.problems.append(f"{where}: {name} {a!r} vs {b!r} (relative {diff:.3g})")

    def exact(self, where, name, a, b):
        if a != b:
            self.problems.append(f"{where}: {name} {a!r} vs {b!r}")

    def csv(self, where, base_text, new_text):
        """Compare two sweep CSVs row by row."""
        base = list(csv.DictReader(io.StringIO(base_text)))
        new = list(csv.DictReader(io.StringIO(new_text)))
        if len(base) != len(new):
            self.problems.append(f"{where}: {len(base)} rows vs {len(new)}")
            return
        for i, (a, b) in enumerate(zip(base, new)):
            row = f"{where} row {i + 1}"
            self.compared += 1
            for name in CSV_EXACT:
                self.exact(row, name, a[name], b[name])
            for name in CSV_FLOATS:
                self.floats_close(row, name, a[name], b[name], a["solver"])
            self.iterations_changed += a["iterations"] != b["iterations"]

    def json_report(self, where, solver, base, new):
        """Compare two `cjopt solve --json` reports of solver field by field."""
        self.compared += 1
        self.exact(where, "fields", sorted(base), sorted(new))
        for name in sorted(set(base) & set(new)):
            a, b = base[name], new[name]
            if name == "iterations":
                self.iterations_changed += a != b
            elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
                for j, (x, y) in enumerate(zip(a, b)):
                    self._value(where, solver, f"{name}[{j}]", x, y)
            else:
                self._value(where, solver, name, a, b)

    def _value(self, where, solver, name, a, b):
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
            self.floats_close(where, name.split("[")[0], a, b, solver)
        else:
            self.exact(where, name, a, b)

    def summary(self, base_label):
        verdict = "PASS" if not self.problems else f"FAIL ({len(self.problems)} problems)"
        return [f"compare_outputs against {base_label}: {verdict}",
                f"  sweep rows and solve reports compared: {self.compared}",
                f"  floats compared: {self.floats}, largest relative difference: {self.max_rel:.3g}"
                f" (gate {self.rtol:g})",
                "  largest relative difference per solver: "
                + ", ".join(f"{k} {v:.3g}" for k, v in sorted(self.max_rel_by_solver.items())),
                f"  iterations changed (not gated): {self.iterations_changed}"]


def _cli(tree, workdir, args):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    return subprocess.run([sys.executable, "-m", "cjopt.cli", *args], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=1800)


def run_tree(tree, workdir):
    """Every command's output on one tree: {(config, what): (exit code, output)}."""
    out = {}
    for name, text in CONFIGS.items():
        (Path(workdir) / f"{name}.cfg").write_text(text)
    for name, what, args in SWEEPS:
        csv_path = Path(workdir) / f"{name}_{what}.csv"
        proc = _cli(tree, workdir, ["sweep", str(Path(workdir) / f"{name}.cfg"), *args,
                                    "--solvers", ",".join(SOLVERS), "--out", str(csv_path)])
        out[(name, what)] = (proc.returncode, csv_path.read_text() if csv_path.exists() else proc.stderr)
    for name in CONFIGS:
        cfg = Path(workdir) / f"{name}.cfg"
        for solver in SOLVERS:
            proc = _cli(tree, workdir, ["solve", str(cfg), "--solver", solver, "--json"])
            out[(name, solver)] = (proc.returncode, proc.stdout if proc.stdout else proc.stderr)
    for name, args in ORACLE_ARGS.items():
        proc = _cli(tree, workdir, ["oracle", *args])
        out[(name, "oracle")] = (proc.returncode, proc.stdout if proc.stdout else proc.stderr)
    return out


def compare_runs(base, new, rtol):
    cmp = Comparison(rtol)
    for key in base:
        where = "/".join(key)
        (base_rc, base_out), (new_rc, new_out) = base[key], new[key]
        cmp.exact(where, "exit code", base_rc, new_rc)
        if key[1].startswith("sweep"):
            cmp.csv(where, base_out, new_out)
        elif base_out.lstrip().startswith("{") and new_out.lstrip().startswith("{"):
            cmp.json_report(where, key[1], json.loads(base_out), json.loads(new_out))
        else:
            cmp.exact(where, "output", base_out.strip(), new_out.strip())
    return cmp


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--base-dir", help="an existing checkout of the base, instead of a worktree")
    parser.add_argument("--rtol", type=float, default=1e-8)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cjopt-compare-") as tmp:
        base_tree, label = args.base_dir, args.base_dir
        if base_tree is None:
            base_tree = str(Path(tmp) / "base")
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", base_tree, args.base],
                           check=True, capture_output=True)
            label = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.base], check=True,
                                   capture_output=True, text=True).stdout.strip()
        try:
            (Path(tmp) / "base-out").mkdir()
            (Path(tmp) / "new-out").mkdir()
            base = run_tree(base_tree, Path(tmp) / "base-out")
            new = run_tree(ROOT, Path(tmp) / "new-out")
        finally:
            if args.base_dir is None:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", base_tree],
                               check=False, capture_output=True)
    cmp = compare_runs(base, new, args.rtol)
    for problem in cmp.problems[:40]:
        print(problem)
    print("\n".join(cmp.summary(label)))
    return 0 if not cmp.problems else 1


if __name__ == "__main__":
    sys.exit(main())
