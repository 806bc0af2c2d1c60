"""Monte Carlo sweep harness: vary one axis, rerun every requested solver
on paired channel draws, and emit deterministic CSV.

SOLVER_TABLE is the one place where a solver name is mapped to code; the
sweep and `cjopt solve` both go through it. SPECTRUM_TABLE splits the
solvers that reduce to one kernel program into their two steps around
it, so that the sweep can solve all their programs in one batch.
"""

import zlib
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import kernel
from .alternating import solve_alternating, solve_b_zero
from .baselines import (
    fixed_split_design,
    fixed_split_spectrum,
    l_inf_design,
    l_inf_spectrum,
    l_infinity_limit,
    no_jamming_report,
    solve_fixed_split,
)
from .errors import CjoptError
from .feasibility import check_existence
from .model import (
    ChannelSet,
    Precoder,
    SystemParams,
    channel_inversion_precoder,
    generate_rayleigh,
    perturb_csi,
)
from .optimal import Spectrum, optimal_spectrum, solve_optimal, spectrum_design, spectrum_result
from .report import SolveReport, make_report

__all__ = ["SOLVER_TABLE", "SOLVERS", "SPECTRUM_TABLE", "SweepSpec", "SweepRow", "run_solver",
           "run_sweep", "summarize", "write_csv"]


# Each entry maps (pre, ch_design, params) to a Design. Entries look their
# solver up by module-level name at call time, so wrappers installed on
# those names see every call.
SOLVER_TABLE = {
    "optimal": lambda pre, ch, params: solve_optimal(pre, ch, params),
    "alternating": lambda pre, ch, params: solve_alternating(pre, ch, params)[1],
    "fixed_split": lambda pre, ch, params: solve_fixed_split(pre, ch, params),
    "no_jamming": lambda pre, ch, params: no_jamming_report(pre, ch, params),
    "b_zero": lambda pre, ch, params: solve_b_zero(pre, ch, params),
    "l_inf_limit": lambda pre, ch, params: l_infinity_limit(pre, ch, params),
}
SOLVERS = tuple(SOLVER_TABLE)

# The entries of SOLVER_TABLE that are one jamming-spectrum program
# between two steps: name -> (its Spectrum, whose program is None when
# there is nothing to solve, from (pre, ch_design, params) like a
# SOLVER_TABLE entry; the Design from (ch_design, params, spec, result)
# with result as optimal.spectrum_result gives it). The steps are looked
# up by module-level name at call time, like SOLVER_TABLE.
SPECTRUM_TABLE = {
    "optimal": (lambda pre, ch, params: optimal_spectrum(pre, ch, params),
                lambda ch, params, spec, result: spectrum_design(ch, params, spec, result)),
    "fixed_split": (lambda pre, ch, params: fixed_split_spectrum(pre, ch, params),
                    lambda ch, params, spec, result: fixed_split_design(ch, params, spec, result)),
    "l_inf_limit": (lambda pre, ch, params: l_inf_spectrum(pre, ch, params),
                    lambda ch, params, spec, result: l_inf_design(ch, params, spec, result)),
}

_AXES = ("Z", "P_tot", "tau", "L", "b_gain_db")


def run_solver(solver, pre, ch, ch_design, params) -> SolveReport:
    """Design with the table entry `solver` on ch_design (the jammer's
    possibly perturbed CSI) and report on the true channels ch."""
    return make_report(solver, pre, ch, params, SOLVER_TABLE[solver](pre, ch_design, params))


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
        if len(set(self.solvers)) < len(self.solvers):
            raise ValueError(f"solvers must not repeat: {self.solvers}")


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


def _draw(spec: SweepSpec, params, gain, ts):
    """(pre, ch, ch_design) of the trial with seed ts, or the status of its
    error row when the draw or the existence test fails. The existence
    test leaves pre.qos_inverse cached for every solver of the trial."""
    try:
        ch = generate_rayleigh(params, gain_db_b=gain, rng_seed=ts)
        pre = channel_inversion_precoder(ch, params.tau)
        if not check_existence(pre, params).feasible:
            return "Infeasible"
        return pre, ch, perturb_csi(ch, spec.xi2, rng_seed=ts) if spec.xi2 else ch
    except (CjoptError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__


def _row(spec: SweepSpec, value, solver, ts, rep: SolveReport = None, status=None) -> SweepRow:
    """The row of a report, or of an error with its status."""
    if rep is None:
        return SweepRow(axis=spec.axis, axis_value=float(value), solver=solver, trial_seed=ts,
                        feasible=False, eta=float("nan"), min_secrecy_lb=float("nan"),
                        mean_secrecy_lb=float("nan"), iterations=0, status=status)
    return SweepRow(axis=spec.axis, axis_value=float(value), solver=solver, trial_seed=ts, feasible=True,
                    eta=float(rep.eta), min_secrecy_lb=float(np.min(rep.secrecy_lb)),
                    mean_secrecy_lb=float(np.mean(rep.secrecy_lb)), iterations=int(rep.iterations),
                    status=rep.status)


class _Program(NamedTuple):
    """A SPECTRUM_TABLE solver's trial between its two steps."""

    value: float
    solver: str
    ts: int
    params: SystemParams
    pre: Precoder
    ch: ChannelSet
    ch_design: ChannelSet
    spectrum: Spectrum  # what the entry's first step returned


def run_sweep(spec: SweepSpec):
    """One SweepRow per (axis value, solver, trial), ordered by
    (axis value, solver, trial seed). The sweep runs in three stages:

    1. Every trial draws its channels and runs the existence test. The
       solvers of SPECTRUM_TABLE build their program, the others design
       and report at once, all on the factors cached on the draw.
    2. One kernel.solve_batch call solves the programs of all trials and
       solvers.
    3. Each solved program becomes its Design and report.

    A trial whose draw, existence test or first step raises a
    CjoptError keeps its error row, and so does a program whose solve or
    design does; the rest of its batch is unaffected. A row is the one
    run_solver gives on its trial."""
    rows, programs = [], []
    for value in spec.axis_values:
        params, gain = _apply_axis(spec, value)
        for trial in range(spec.trials):
            ts = trial_seed(spec.seed, value, trial)
            draw = _draw(spec, params, gain, ts)
            for solver in spec.solvers:
                if isinstance(draw, str):
                    rows.append(_row(spec, value, solver, ts, status=draw))
                    continue
                pre, ch, ch_design = draw
                try:
                    if solver in SPECTRUM_TABLE:
                        spectrum = SPECTRUM_TABLE[solver][0](pre, ch_design, params)
                        programs.append(_Program(value, solver, ts, params, pre, ch, ch_design, spectrum))
                    else:
                        rows.append(_row(spec, value, solver, ts, run_solver(solver, pre, ch, ch_design, params)))
                except (CjoptError, np.linalg.LinAlgError) as exc:
                    rows.append(_row(spec, value, solver, ts, status=type(exc).__name__))
    sols = iter(kernel.solve_batch([g.spectrum.program for g in programs if g.spectrum.program is not None],
                                   gap_ref=0.0))
    for prog in programs:
        sol = None if prog.spectrum.program is None else next(sols)
        try:
            result = spectrum_result(prog.spectrum, sol)
            design = SPECTRUM_TABLE[prog.solver][1](prog.ch_design, prog.params, prog.spectrum, result)
            rep = make_report(prog.solver, prog.pre, prog.ch, prog.params, design)
            rows.append(_row(spec, prog.value, prog.solver, prog.ts, rep))
        except (CjoptError, np.linalg.LinAlgError) as exc:
            rows.append(_row(spec, prog.value, prog.solver, prog.ts, status=type(exc).__name__))
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
