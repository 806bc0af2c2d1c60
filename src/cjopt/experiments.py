"""Monte Carlo sweep harness: vary one axis, rerun every requested solver
on paired channel draws, and emit deterministic CSV.

SOLVER_TABLE is the one place where a solver name is mapped to code; the
sweep and `cjopt solve` both go through it.
"""

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .alternating import solve_alternating, solve_b_zero
from .baselines import l_infinity_limit, no_jamming_report, solve_fixed_split
from .errors import CjoptError
from .feasibility import check_existence, optimal_power
from .model import SystemParams, channel_inversion_precoder, generate_rayleigh, perturb_csi
from .optimal import solve_optimal
from .report import SolveReport, make_report

__all__ = ["SOLVER_TABLE", "SOLVERS", "SweepSpec", "SweepRow", "run_sweep", "summarize",
           "write_csv"]


# Table entries design on ch_design (the jammer's possibly perturbed CSI)
# and report on the true channels ch. They look solvers up by module-level
# name at call time, so wrappers installed on those names see every call.

def _optimal(pre, ch, ch_design, params):
    d = solve_optimal(pre, ch_design, params)
    return make_report("optimal", pre, ch, params, d.p, d.Sigma, d.iterations, d.status)


def _alternating(pre, ch, ch_design, params):
    state, rep = solve_alternating(pre, ch_design, params)
    Sigma = state.Gamma.conj().T @ state.Gamma
    return make_report("alternating", pre, ch, params, rep.p, Sigma, state.iteration, rep.status)


def _fixed_split(pre, ch, ch_design, params):
    _, _, Sigma, _, status = solve_fixed_split(pre, ch_design, params)
    return make_report("fixed_split", pre, ch, params, optimal_power(pre, params), Sigma,
                       status=status)


def _no_jamming(pre, ch, ch_design, params):
    return no_jamming_report(pre, ch, params)


def _b_zero(pre, ch, ch_design, params):
    _, Gamma, _, status = solve_b_zero(pre, ch_design, params)
    return make_report("b_zero", pre, ch, params, optimal_power(pre, params),
                       Gamma.conj().T @ Gamma, status=status)


def _l_inf_limit(pre, ch, ch_design, params):
    # A limit for an unbounded jammer array, not a design on these channels:
    # only eta is known, the per-stream metrics are NaN.
    eta, status = l_infinity_limit(pre, ch_design, params)
    nan = np.full(params.k, np.nan)
    return SolveReport(solver="l_inf_limit", status=status, p=optimal_power(pre, params),
                       sigma_trace=np.nan, eta=eta, sinr_user=nan, sinr_eve_upper=nan,
                       secrecy_lb=nan, iterations=0)


SOLVER_TABLE = {
    "optimal": _optimal,
    "alternating": _alternating,
    "fixed_split": _fixed_split,
    "no_jamming": _no_jamming,
    "b_zero": _b_zero,
    "l_inf_limit": _l_inf_limit,
}
SOLVERS = tuple(SOLVER_TABLE)

_AXES = ("Z", "P_tot", "tau", "L", "b_gain_db")


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    axis: str  # one of _AXES
    axis_values: tuple  # sorted, linear units (dB only for b_gain_db)
    trials: int
    solvers: tuple
    seed: int
    b_gain_db: float = 0.0
    xi2: float = 0.0  # CSI error variance seen by the jamming design

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}")
        if not self.axis_values or list(self.axis_values) != sorted(self.axis_values):
            raise ValueError("axis_values must be non-empty and sorted")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        bad = set(self.solvers) - set(SOLVERS)
        if bad or not self.solvers:
            raise ValueError(f"unknown solvers {sorted(bad)}; choose from {SOLVERS}")


@dataclass(frozen=True)
class SweepRow:
    axis: str
    axis_value: float
    solver: str
    trial_seed: int
    feasible: bool
    eta: float
    min_secrecy_lb: float
    mean_secrecy_lb: float
    iterations: int
    status: str


def trial_seed(seed, axis_value, trial):
    """Stable cross-platform per-trial seed (same channels for every
    solver within a trial)."""
    tag = f"{seed}:{axis_value!r}:{trial}".encode()
    return zlib.crc32(tag)


def _apply_axis(spec: SweepSpec, value):
    params, gain = spec.base, spec.b_gain_db
    if spec.axis == "Z":
        params = replace(params, z=int(value))
    elif spec.axis == "P_tot":
        params = replace(params, p_tot=float(value))
    elif spec.axis == "tau":
        params = replace(params, tau=float(value))
    elif spec.axis == "L":
        params = replace(params, l=int(value))
    else:  # b_gain_db
        gain = float(value)
    return params, gain


def _run_trial(spec: SweepSpec, value, params, gain, trial):
    ts = trial_seed(spec.seed, value, trial)
    try:
        ch = generate_rayleigh(params, gain_db_b=gain, rng_seed=ts)
        pre = channel_inversion_precoder(ch, params.tau)
        draw_status = None if check_existence(pre, params).feasible else "Infeasible"
        ch_design = perturb_csi(ch, spec.xi2, rng_seed=ts) if spec.xi2 else ch
    except (CjoptError, np.linalg.LinAlgError) as exc:
        draw_status = type(exc).__name__
    rows = []
    for solver in spec.solvers:
        status, eta, lo, mean, iters, ok = draw_status, np.nan, np.nan, np.nan, 0, False
        if status is None:
            try:
                rep = SOLVER_TABLE[solver](pre, ch, ch_design, params)
                status, eta, iters, ok = rep.status, rep.eta, rep.iterations, True
                lo, mean = float(np.min(rep.secrecy_lb)), float(np.mean(rep.secrecy_lb))
            except (CjoptError, np.linalg.LinAlgError) as exc:
                status = type(exc).__name__
        rows.append(
            SweepRow(
                axis=spec.axis,
                axis_value=float(value),
                solver=solver,
                trial_seed=ts,
                feasible=ok,
                eta=float(eta),
                min_secrecy_lb=lo,
                mean_secrecy_lb=mean,
                iterations=int(iters),
                status=status,
            )
        )
    return rows


def run_sweep(spec: SweepSpec, threads=1):
    """One SweepRow per (axis value, solver, trial), ordered by
    (axis value, solver, trial seed). Trials are independent; with
    threads > 1 they run on a thread pool and are merged in the same
    deterministic order."""
    tasks = []
    for value in spec.axis_values:
        params, gain = _apply_axis(spec, value)
        for trial in range(spec.trials):
            tasks.append((value, params, gain, trial))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_trial = list(pool.map(lambda t: _run_trial(spec, *t), tasks))
    else:
        per_trial = [_run_trial(spec, *t) for t in tasks]
    rows = [row for trial_rows in per_trial for row in trial_rows]
    value_order = {float(v): i for i, v in enumerate(spec.axis_values)}
    rows.sort(key=lambda r: (value_order[r.axis_value],
                             spec.solvers.index(r.solver), r.trial_seed))
    return rows


def summarize(rows):
    """Feasible-trial averages per (axis_value, solver): mean eta (linear
    and dB) and feasible fraction. Infeasible trials are excluded from the
    means and counted in the fraction."""
    keys = []
    groups = {}
    for r in rows:
        key = (r.axis_value, r.solver)
        if key not in groups:
            groups[key] = []
            keys.append(key)
        groups[key].append(r)
    out = []
    for key in keys:
        grp = groups[key]
        good = [r for r in grp if r.feasible and np.isfinite(r.eta)]
        etas = np.array([r.eta for r in good])
        out.append(
            {
                "axis_value": key[0],
                "solver": key[1],
                "trials": len(grp),
                "feasible_fraction": len(good) / len(grp),
                "mean_eta": float(etas.mean()) if good else np.nan,
                "mean_eta_db": float(np.mean(10.0 * np.log10(etas))) if good and np.all(etas > 0) else np.nan,
                "mean_min_secrecy_lb": float(np.mean([r.min_secrecy_lb for r in good])) if good else np.nan,
                "mean_secrecy_lb": float(np.mean([r.mean_secrecy_lb for r in good])) if good else np.nan,
            }
        )
    return out


def _fmt(x):
    if isinstance(x, float):
        return "nan" if not np.isfinite(x) else f"{x:.12g}"
    return str(x)


def write_csv(rows, path):
    header = "axis,axis_value,solver,trial_seed,feasible,eta,eta_db,min_secrecy_lb,mean_secrecy_lb,iterations,status"
    lines = [header]
    for r in rows:
        eta_db = 10.0 * np.log10(r.eta) if np.isfinite(r.eta) and r.eta > 0 else float("nan")
        lines.append(
            ",".join(
                [
                    r.axis,
                    _fmt(r.axis_value),
                    r.solver,
                    str(r.trial_seed),
                    "true" if r.feasible else "false",
                    _fmt(r.eta),
                    _fmt(eta_db),
                    _fmt(r.min_secrecy_lb),
                    _fmt(r.mean_secrecy_lb),
                    str(r.iterations),
                    r.status,
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
