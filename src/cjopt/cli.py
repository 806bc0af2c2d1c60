"""Command-line front end: single-instance solves, parameter sweeps and
the brute-force verification oracle.

All dB/dBm conversion happens here; library code only sees linear units.
Exit codes: 0 success, 1 usage or runtime error, 2 infeasible instance.
"""

import argparse
import json
import sys

import numpy as np

from .errors import CjoptError, Infeasible
from .experiments import (
    SOLVER_TABLE,
    SOLVERS,
    SweepSpec,
    run_solver,
    run_sweep,
    summarize,
    write_csv,
)
from .feasibility import optimal_power
from .model import (
    SystemParams,
    channel_inversion_precoder,
    db_to_linear,
    generate_rayleigh,
    load_config,
    perturb_csi,
)
from .oracle import grid_oracle

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# Older hyphenated spellings accepted by `cjopt solve --solver`.
SOLVER_ALIASES = {"fixed-split": "fixed_split", "no-jam": "no_jamming", "b-zero": "b_zero"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # infeasible instances.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_ERROR)


def _build_parser():
    parser = _Parser(prog="cjopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one random instance from a config")
    p_solve.add_argument("config")
    p_solve.add_argument("--solver", default="optimal",
                         choices=[*SOLVERS, *SOLVER_ALIASES])
    p_solve.add_argument("--seed", type=int, default=None,
                         help="channel seed (overrides config)")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep along one axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         choices=["Z", "P_tot_dbm", "tau_db", "L", "b_gain_db"])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values (dBm/dB where the axis name says so)")
    p_sweep.add_argument("--solvers", default="optimal,fixed_split",
                         help=f"comma-separated subset of {','.join(SOLVERS)}")
    p_sweep.add_argument("--trials", type=int, default=None,
                         help="trials per axis value (overrides config)")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--threads", type=int,
                         help="ignored: the sweep runs serially (kept for old command lines)")

    p_oracle = sub.add_parser("oracle", help="brute-force check of the optimal solver")
    p_oracle.add_argument("--n", type=int, default=4)
    p_oracle.add_argument("--k", type=int, default=1)
    p_oracle.add_argument("--z", type=int, default=1)
    p_oracle.add_argument("--l", type=int, default=2)
    p_oracle.add_argument("--grid", type=int, default=24)
    p_oracle.add_argument("--levels", type=int, default=3)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--sigma2-dbm", type=float, default=0.0)
    p_oracle.add_argument("--tau-db", type=float, default=3.0)
    p_oracle.add_argument("--p-tot-dbm", type=float, default=20.0)
    return parser


def _lin_db(v):
    return 10.0 * np.log10(v) if v > 0 else float("-inf")


def _print_report(rep, params):
    print(f"solver:      {rep.solver}")
    print(f"status:      {rep.status}")
    print(f"p (mW):      {np.array2string(rep.p, precision=6)}")
    print(f"|p|_1 (mW):  {rep.p.sum():.6g}   tr(Sigma) (mW): {rep.sigma_trace:.6g}"
          f"   budget (mW): {params.p_tot:.6g}")
    print(f"eta:         {rep.eta:.6g}  ({_lin_db(rep.eta):.3f} dB)")
    with np.printoptions(precision=3):
        print(f"SINR_user (dB):      {10.0 * np.log10(rep.sinr_user)}")
        print(f"SINR_eve^U (dB):     {10.0 * np.log10(np.maximum(rep.sinr_eve_upper, 1e-300))}")
        print(f"secrecy LB (bits):   {rep.secrecy_lb}")
    print(f"iterations:  {rep.iterations}")
    used = rep.p.sum() + rep.sigma_trace
    if np.isnan(used):  # a limit (l_inf_limit) has no design to check
        return
    checks = {
        "power budget": used <= params.p_tot * (1.0 + 1e-6),
        "QoS thresholds": bool(np.all(rep.sinr_user >= params.tau * (1.0 - 1e-6))),
    }
    for name, ok in checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")


def cmd_solve(args):
    params, extras = load_config(args.config)
    seed = extras["seed"] if args.seed is None else args.seed
    ch = generate_rayleigh(params, gain_db_b=extras["b_gain_db"], rng_seed=seed)
    pre = channel_inversion_precoder(ch, params.tau)
    ch_design = perturb_csi(ch, extras["xi2"], rng_seed=seed) if extras["xi2"] else ch
    solver = SOLVER_ALIASES.get(args.solver, args.solver)
    rep = run_solver(solver, pre, ch, ch_design, params)
    if args.json:
        print(json.dumps(rep.as_dict(), indent=2, sort_keys=True))
    else:
        _print_report(rep, params)
    return EXIT_OK if rep.status in ("Converged", "NoJammingPower") else EXIT_ERROR


def cmd_sweep(args):
    params, extras = load_config(args.config)
    values = [float(v) for v in args.values.split(",")]
    axis = args.axis
    if axis == "P_tot_dbm":
        axis, values = "P_tot", [float(db_to_linear(v)) for v in values]
    elif axis == "tau_db":
        axis, values = "tau", [float(db_to_linear(v)) for v in values]
    elif axis in ("Z", "L"):
        bad = [v for v in values if not v.is_integer()]
        if bad:
            raise ValueError(f"--axis {axis} takes integer values, got {bad[0]:g}")
        values = [int(v) for v in values]
    spec = SweepSpec(
        base=params,
        axis=axis,
        axis_values=tuple(values),
        trials=extras["trials"] if args.trials is None else args.trials,
        solvers=tuple(args.solvers.split(",")),
        seed=extras["seed"] if args.seed is None else args.seed,
        b_gain_db=extras["b_gain_db"],
        xi2=extras["xi2"] or 0.0,
    )
    rows = run_sweep(spec)
    write_csv(rows, args.out)
    for entry in summarize(rows):
        eta_db = entry["mean_eta_db"]
        print(f"{spec.axis}={entry['axis_value']:g} {entry['solver']}: "
              f"feasible {entry['feasible_fraction']:.0%}, "
              f"mean eta {eta_db if np.isnan(eta_db) else round(eta_db, 3)} dB")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_oracle(args):
    if args.k > 2 or args.z != 1 or args.l > 4:
        print("oracle guard: requires K <= 2, Z = 1, L <= 4", file=sys.stderr)
        return EXIT_ERROR
    params = SystemParams(
        n=args.n, k=args.k, l=args.l, z=args.z,
        sigma2=float(db_to_linear(args.sigma2_dbm)),
        tau=float(db_to_linear(args.tau_db)),
        p_tot=float(db_to_linear(args.p_tot_dbm)),
    )
    ch = generate_rayleigh(params, rng_seed=args.seed)
    pre = channel_inversion_precoder(ch, params.tau)
    optimal_power(pre, params)  # the existence test (raises Infeasible) before the grid searches in vain
    result = grid_oracle(pre, ch, params, grid=args.grid, levels=args.levels)
    solver = "optimal" if params.l >= params.k + params.z else "alternating"
    solver_eta = SOLVER_TABLE[solver](pre, ch, params).eta
    gap = abs(solver_eta - result.eta) / max(result.eta, 1e-300)
    print(f"oracle eta: {result.eta:.9g}  ({result.evaluations} grid points)")
    print(f"solver eta: {solver_eta:.9g}")
    print(f"relative gap: {gap:.3e}")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_oracle(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        print("existence test: the minimal QoS power vector must be "
              "componentwise nonnegative and fit the total budget",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CjoptError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
