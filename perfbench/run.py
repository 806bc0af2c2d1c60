"""cjopt benchmark: three workloads timed and checked from outside the library.

    python3 perfbench/run.py --workload eve_sweep --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):
  eve_sweep          closed-form design on the paper's Eve-antenna sweep
  alternating_leaky  alternating design with L < K + Z
  sweep_cli          `cjopt sweep` run in-process on its thread pool

Run from the repository root; the library is imported from ./src. Inputs
are drawn from --seed. Every output is checked against the numpy
references in reference.py. The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics (from spans around the library's
public functions) with --trace 1. Details go to perfbench/out/.
"""

import os

# One BLAS thread, set before numpy loads, so that a workload never uses
# more threads than it asks for.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference as ref
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("eve_sweep", "alternating_leaky", "sweep_cli")
SETUP_PROBES = 7
EVE_Z = (5, 10, 15, 20)  # one round of eve_sweep: one draw per Z
EVE_MIN_SOLVES = 100  # so that ten traced solves lie beyond the 90th percentile
ALT_MAX_ITERS = 100  # solve_alternating's default cap
# At the default tol=1e-6 about one leaky draw in a hundred creeps down by
# ~2e-6 per outer iteration, runs into the cap after ~25 s and still reports
# Converged; such a draw would fail the cap check on some seeds only.
ALT_TOL = 1e-5
SWEEP_TRIALS = 10
SWEEP_VALUES_DBM = (15, 20, 25, 30)
SWEEP_SOLVERS = ("optimal", "fixed_split", "no_jamming", "b_zero", "l_inf_limit")
SWEEP_CONFIG = ("n = 8\nk = 3\nl = 6\nz = 2\nsigma2_dbm = 0\ntau_db = 3\n"
                "p_tot_dbm = 20\nseed = {seed}\ntrials = {trials}\n")
SWEEP_PARAMS = dict(n=8, k=3, l=6, z=2, sigma2=1.0, tau=10 ** 0.3)  # SWEEP_CONFIG in linear units

cjopt = None  # the package under test, imported from SRC by load_cjopt()


def load_cjopt():
    """Import cjopt from this checkout's src/ and nowhere else."""
    global cjopt
    sys.path.insert(0, str(SRC))
    import cjopt as package
    import cjopt.cli  # noqa: F401  (the package itself does not import its CLI)

    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cjopt found at {package.__file__}, not under {SRC}")
    cjopt = package


def nproc():
    return len(os.sched_getaffinity(0))


def draw_seed(seed, i):
    """Channel seed of the i-th draw of a run."""
    return (seed * 1_000_003 + i) & (2**64 - 1)


class Run:
    """Counts, timings and check results of one benchmark run."""

    def __init__(self, workload, seed, tracer):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.trials = 0
        self.busy_s = []  # library time spent on completed trials
        self.solve_s = []  # one per solve (one per CLI call on sweep_cli)
        self.secrecy = []  # reference per-stream secrecy bounds of solved designs
        self.problems = []
        self.extra = {}

    def call(self, fn, *args):
        """One workload operation, inside an "op" span when tracing."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span("op", fn, *args)

    def fail(self, what):
        self.failed += 1
        print(f"{self.workload}: {what} raised:\n{traceback.format_exc()}", file=sys.stderr)

    def check(self, where, problems):
        self.problems += [f"{where}: {p}" for p in problems]


# --- eve_sweep ----------------------------------------------------------------

def eve_params(z):
    # N=20, K=10, L=35, sigma^2 = 0 dBm, tau = 10 dB, P_tot = 10 dBm.
    return cjopt.model.SystemParams(n=20, k=10, l=35, z=z, sigma2=1.0, tau=10.0, p_tot=10.0)


def eve_trial(params, rng_seed):
    t0 = time.perf_counter()
    ch = cjopt.model.generate_rayleigh(params, rng_seed=rng_seed)
    pre = cjopt.model.channel_inversion_precoder(ch, params.tau)
    feasible = cjopt.feasibility.check_existence(pre, params).feasible
    design = nojam = solve_s = None
    if feasible:
        t1 = time.perf_counter()
        design = cjopt.optimal.solve_optimal(pre, ch, params)
        solve_s = time.perf_counter() - t1
        nojam = cjopt.baselines.no_jamming_report(pre, ch, params)
    return ch, pre, feasible, design, nojam, solve_s, time.perf_counter() - t0


def check_draw(run, where, params, ch, pre, feasible):
    """Precoder and existence verdict against the reference; returns the
    reference precoder."""
    U = ref.precoder(ch.F)
    run.check(where, ref.check_precoder(pre.U, U))
    ref_feasible, margin, _ = ref.existence(ch.F, U, params.sigma2, params.tau, params.p_tot)
    run.check(where, ref.check_verdict(feasible, ref_feasible, margin))
    return U


def check_eve_trial(run, where, params, ch, pre, feasible, design, nojam):
    U = check_draw(run, where, params, ch, pre, feasible)
    if design is None:
        return
    run.check(where, ref.check_optimal(ch, params.sigma2, params.tau, params.p_tot, design.p,
                                       design.Sigma, design.x, design.eta, design.status,
                                       nojam.eta))
    bound = ref.eve_bound(ch.H, U, ch.G, design.p, design.Sigma, params.sigma2)
    run.secrecy.extend(ref.secrecy_lb(params.tau, bound))


def warm_eve():
    params = cjopt.model.SystemParams(n=6, k=2, l=5, z=2, sigma2=1.0, tau=2.0, p_tot=1e3)
    eve_trial(params, 0)


def run_eve(run, seconds):
    start = time.perf_counter()
    i = 0
    while (i % len(EVE_Z) or time.perf_counter() < start + seconds
           or (len(run.solve_s) < EVE_MIN_SOLVES and time.perf_counter() < start + seconds + 60)):
        # The draws of one round share their seed, and so their user
        # channels F (generate_rayleigh draws F first): the four Z values see
        # the same existence verdict, and every run solves each Z equally often.
        rnd = i // len(EVE_Z)
        params = eve_params(EVE_Z[i % len(EVE_Z)])
        run.attempted += 1
        try:
            out = run.call(eve_trial, params, draw_seed(run.seed, rnd))
        except Exception:
            run.fail(f"round {rnd} Z={params.z}")
        else:
            ch, pre, feasible, design, nojam, solve_s, trial_s = out
            run.trials += 1
            run.busy_s.append(trial_s)
            if solve_s is not None:
                run.solve_s.append(solve_s)
            check_eve_trial(run, f"round {rnd} Z={params.z}", params, ch, pre, feasible, design,
                            nojam)
        i += 1


# --- alternating_leaky --------------------------------------------------------

ALT_GAIN_DB = -30.0


def alt_params():
    # N=10, K=3, L=17 < K+Z=18, sigma^2 = 0 dBm, tau = 3 dB, P_tot = 40 dBm.
    return cjopt.model.SystemParams(n=10, k=3, l=17, z=15, sigma2=1.0, tau=10 ** 0.3, p_tot=1e4)


def alt_trial(params, gain_db, rng_seed):
    t0 = time.perf_counter()
    ch = cjopt.model.generate_rayleigh(params, gain_db_b=gain_db, rng_seed=rng_seed)
    pre = cjopt.model.channel_inversion_precoder(ch, params.tau)
    feasible = cjopt.feasibility.check_existence(pre, params).feasible
    state = rep = solve_s = None
    if feasible:
        t1 = time.perf_counter()
        state, rep = cjopt.alternating.solve_alternating(pre, ch, params, max_iters=ALT_MAX_ITERS,
                                                       tol=ALT_TOL)
        solve_s = time.perf_counter() - t1
    return ch, pre, feasible, state, rep, solve_s, time.perf_counter() - t0


def warm_alt():
    params = cjopt.model.SystemParams(n=6, k=2, l=4, z=3, sigma2=1.0, tau=2.0, p_tot=1e3)
    alt_trial(params, ALT_GAIN_DB, 0)


def check_alt_trial(run, where, params, ch, pre, feasible, state, rep):
    U = check_draw(run, where, params, ch, pre, feasible)
    if state is None:
        return
    run.check(where, ref.check_alternating(ch, params.sigma2, params.tau, params.p_tot, rep.p,
                                           state.Gamma, rep.eta, state.eta, state.iteration,
                                           ALT_MAX_ITERS))
    Sigma = state.Gamma.conj().T @ state.Gamma
    bound = ref.eve_bound(ch.H, U, ch.G, rep.p, Sigma, params.sigma2)
    run.secrecy.extend(ref.secrecy_lb(params.tau, bound))


def run_alt(run, seconds):
    params = alt_params()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i == 0:
        run.attempted += 1
        try:
            out = run.call(alt_trial, params, ALT_GAIN_DB, draw_seed(run.seed, i))
        except Exception:
            run.fail(f"draw {i}")
        else:
            ch, pre, feasible, state, rep, solve_s, trial_s = out
            run.trials += 1
            run.busy_s.append(trial_s)
            if state is not None:
                run.solve_s.append(solve_s)
            check_alt_trial(run, f"draw {i}", params, ch, pre, feasible, state, rep)
        i += 1


# --- sweep_cli ----------------------------------------------------------------

def sweep_args(cfg, out, seed, trials, values, threads):
    return ["sweep", str(cfg), "--axis", "P_tot_dbm", "--values", ",".join(map(str, values)),
            "--solvers", ",".join(SWEEP_SOLVERS), "--trials", str(trials), "--seed", str(seed),
            "--out", str(out), "--threads", str(threads)]


def cli_sweep(args):
    """One `cjopt sweep` call; returns its wall time. The CLI's summary
    goes to a buffer so that the last line of stdout stays ours."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cjopt.cli.main(args)
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"cjopt sweep exited {rc}")
    return elapsed


def sweep_reference():
    """reference_of(axis_value, trial_seed) for reference.check_sweep_rows,
    plus the problems and secrecy bounds it collects. The draw is rebuilt
    from the trial seed in the CSV; the optimal design is solved again and
    must pass check_optimal."""
    problems = []
    secrecy = []

    def reference_of(p_tot, trial_seed):
        params = cjopt.model.SystemParams(p_tot=p_tot, **SWEEP_PARAMS)
        ch = cjopt.model.generate_rayleigh(params, rng_seed=trial_seed)
        U = ref.precoder(ch.F)
        feasible, margin, p0 = ref.existence(ch.F, U, params.sigma2, params.tau, p_tot)
        out = {"feasible": feasible, "margin": margin, "p0_sum": float(p0.sum()), "p_tot": p_tot}
        if not feasible:
            return out
        out["nojam_eta"] = ref.no_jamming_eta(ch.H, U, p0, params.sigma2)
        zero = np.zeros((params.l, params.l), complex)
        out["nojam_lb"] = ref.secrecy_lb(params.tau, ref.eve_bound(ch.H, U, ch.G, p0, zero,
                                                                   params.sigma2))
        pre = cjopt.model.channel_inversion_precoder(ch, params.tau)
        d = cjopt.optimal.solve_optimal(pre, ch, params)
        nojam = cjopt.baselines.no_jamming_report(pre, ch, params)
        problems.extend(ref.check_optimal(ch, params.sigma2, params.tau, p_tot, d.p, d.Sigma, d.x,
                                          d.eta, d.status, nojam.eta))
        bound = ref.eve_bound(ch.H, U, ch.G, d.p, d.Sigma, params.sigma2)
        out["opt_eta"] = float(np.max(bound))
        out["opt_lb"] = ref.secrecy_lb(params.tau, bound)
        secrecy.extend(out["opt_lb"])
        return out

    return reference_of, problems, secrecy


def check_sweep_csv(run, data):
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    axis_values = [10.0 ** (v / 10.0) for v in SWEEP_VALUES_DBM]
    reference_of, solve_problems, secrecy = sweep_reference()
    run.check("sweep CSV", ref.check_sweep_rows(rows, axis_values, SWEEP_SOLVERS, SWEEP_TRIALS,
                                                reference_of))
    run.check("sweep re-solve", solve_problems)
    run.secrecy.extend(secrecy)


def warm_sweep(workdir):
    cfg = workdir / "warmup.cfg"
    cfg.write_text(SWEEP_CONFIG.format(seed=0, trials=1))
    cli_sweep(sweep_args(cfg, workdir / "warmup.csv", 0, 1, (20,), nproc()))


def run_sweep_cli(run, seconds, workdir):
    cfg = workdir / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG.format(seed=run.seed, trials=SWEEP_TRIALS))
    threads = (nproc(),) if run.tracer is None else (nproc(), 1)
    wall = {t: [] for t in threads}
    first = None
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i == 0:
        # One round: the CLI default thread count; with tracing also an
        # untraced threads=1 call and a traced threads=1 call.
        calls = [(t, False) for t in threads] + ([(1, True)] if run.tracer else [])
        for t, traced in calls:
            out = workdir / f"sweep-{i}-{t}-{int(traced)}.csv"
            args = sweep_args(cfg, out, run.seed, SWEEP_TRIALS, SWEEP_VALUES_DBM, t)
            run.attempted += 1
            try:
                if traced:
                    run.tracer.install()
                    try:
                        run.extra.setdefault("traced_wall_s", []).append(run.call(cli_sweep, args))
                    finally:
                        run.tracer.uninstall()
                else:
                    wall[t].append(cli_sweep(args))
            except Exception:
                run.fail(f"sweep call {i} threads={t}")
                continue
            data = out.read_bytes()
            out.unlink()
            if first is None:
                first = data
                check_sweep_csv(run, data)
            elif data != first:
                run.check(f"sweep call {i} threads={t}", ["CSV differs from the first call's"])
            if not traced:
                run.trials += SWEEP_TRIALS * len(SWEEP_VALUES_DBM)
                run.busy_s.append(wall[t][-1])
                if t == nproc():
                    run.solve_s.append(wall[t][-1])
        i += 1
    if run.tracer is not None and wall[1] and wall[nproc()]:
        run.extra["thread_speedup"] = statistics.median(wall[1]) / statistics.median(wall[nproc()])
    run.extra["wall_s_by_threads"] = {str(t): w for t, w in wall.items()}


# --- main ---------------------------------------------------------------------

def warm_up(workload, workdir):
    if workload == "eve_sweep":
        warm_eve()
    elif workload == "alternating_leaky":
        warm_alt()
    else:
        warm_sweep(workdir)


def setup_seconds(args):
    """Median wall time of fresh interpreters that import cjopt and warm
    up exactly as a run does, up to its first timed operation."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        probe = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                                "--workload", args.workload, "--seed", str(args.seed)],
                               check=True, cwd=ROOT, timeout=120, capture_output=True, text=True)
        samples.append(float(probe.stdout) - t0)  # the probe prints when it is ready
    return statistics.median(samples), samples


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "solve_ms_p50": "ms",
              "secrecy_lb_bits": "bits", "peak_rss_mb": "MB"}


def end_to_end(run, setup_s):
    values = {
        "setup_s": setup_s,
        "trials_per_s": run.trials / sum(run.busy_s),
        "solve_ms_p50": statistics.median(run.solve_s) * 1e3,
        "secrecy_lb_bits": statistics.fmean(run.secrecy),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        load_cjopt()
    except ImportError as exc:
        print(f"error: cannot import cjopt from {SRC}: {exc}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        warm_up(args.workload, workdir)
        print(repr(time.time()))
        return 0

    setup_s, setup_samples = (None, []) if args.trace else setup_seconds(args)
    warm_up(args.workload, workdir)
    tracer = tracing.Tracer() if args.trace else None
    run = Run(args.workload, args.seed, tracer)
    if args.workload == "sweep_cli":
        run_sweep_cli(run, args.seconds, workdir)
    else:
        if tracer is not None:
            tracer.install()
        try:
            (run_eve if args.workload == "eve_sweep" else run_alt)(run, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()

    if not run.solve_s:
        print(f"error: no {args.workload} operation completed", file=sys.stderr)
        return 1
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc(), "trials": run.trials,
              "solves": len(run.solve_s), "problems": run.problems,
              "setup_samples_s": setup_samples, "solve_s": run.solve_s, **run.extra}
    if tracer is None:
        metrics = end_to_end(run, setup_s)
    else:
        metrics = tracing.layer_metrics(tracer.spans, "op", run.extra.get("thread_speedup", 0.0))
        spans_path = workdir.with_name(workdir.name + "-spans.json")
        spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
    detail["metrics"] = metrics
    workdir.with_name(workdir.name + ".json").write_text(json.dumps(detail, indent=1))
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
