"""Spans around the public functions of cjopt, recorded from outside.

``Tracer.install`` replaces each named function, in every cjopt module
that holds it, by a wrapper that records a span (name, start, end, parent
span, thread) and a few counts taken from the arguments and the result.
``uninstall`` puts the originals back. Spans stay in memory until the run
ends; ``layer_metrics`` turns them into the per-layer figures.
"""

import statistics
import sys
import threading
import time
from functools import wraps

# Layer name -> (module, attribute) of the function it wraps.
LAYERS = {
    "model.generate_rayleigh": ("cjopt.model", "generate_rayleigh"),
    "model.channel_inversion_precoder": ("cjopt.model", "channel_inversion_precoder"),
    "feasibility.check_existence": ("cjopt.feasibility", "check_existence"),
    "optimal.solve_optimal": ("cjopt.optimal", "solve_optimal"),
    "optimal.compute_phi": ("cjopt.optimal", "compute_phi"),
    "optimal.solve_eq14": ("cjopt.optimal", "solve_eq14"),
    "optimal.build_sigma": ("cjopt.optimal", "build_sigma"),
    "alternating.solve_alternating": ("cjopt.alternating", "solve_alternating"),
    "alternating.solve_b_zero": ("cjopt.alternating", "solve_b_zero"),
    "baselines.solve_fixed_split": ("cjopt.baselines", "solve_fixed_split"),
    "baselines.no_jamming_report": ("cjopt.baselines", "no_jamming_report"),
    "baselines.l_infinity_limit": ("cjopt.baselines", "l_infinity_limit"),
    "report.make_report": ("cjopt.report", "make_report"),
    "experiments.run_sweep": ("cjopt.experiments", "run_sweep"),
    "experiments.write_csv": ("cjopt.experiments", "write_csv"),
    "kernel.solve": ("cjopt.kernel", "solve"),
    "kernel.phase_one": ("cjopt.kernel", "phase_one"),
}

# Per-layer metrics in the order they are printed: name -> unit.
METRICS = {
    "kernel.us_per_newton_step": "us",
    "kernel.newton_steps_per_solve": "count",
    "kernel.solves_per_op": "count",
    "kernel.time_share": "ratio",
    "kernel.vars_per_program": "count",
    "kernel.atoms_per_program": "count",
    "kernel.phase_one_calls": "count",
    "kernel.not_converged": "count",
    "optimal.solve_optimal_ms_p90": "ms",
    "optimal.solve_eq14_ms": "ms",
    "optimal.compute_phi_us": "us",
    "optimal.build_sigma_us": "us",
    "alternating.outer_iterations": "count",
    "alternating.kernel_solves_per_solve": "count",
    "model.generate_rayleigh_us": "us",
    "model.channel_inversion_precoder_us": "us",
    "feasibility.check_existence_us": "us",
    "report.make_report_us": "us",
    "baselines.solve_fixed_split_ms": "ms",
    "baselines.l_infinity_limit_ms": "ms",
    "alternating.solve_b_zero_ms": "ms",
    "experiments.write_csv_ms": "ms",
    "experiments.thread_speedup": "ratio",
}


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "info")

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _kernel_info(args, kwargs, result):
    prog = args[0] if args else kwargs["prog"]
    return {"n_vars": prog.n_vars, "atoms": len(prog.atoms()),
            "newton_steps": result.iterations, "status": result.status}


def _alternating_info(args, kwargs, result):
    return {"outer_iterations": result[0].iteration}


_INFO = {"kernel.solve": _kernel_info, "alternating.solve_alternating": _alternating_info}


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patched = []  # (module, attribute, original)

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        s = Span()
        s.id, s.name, s.thread, s.info = self._new_id(), name, threading.get_ident(), None
        s.parent = stack[-1] if stack else None
        stack.append(s.id)
        s.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            s.end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(s)
        info = _INFO.get(name)
        if info is not None:
            s.info = info(args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Wrap every layer function wherever a cjopt module holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cjopt" or n.startswith("cjopt.")) and m is not None]
        for name, (mod_name, attr) in LAYERS.items():
            original = getattr(sys.modules[mod_name], attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def _median(values, scale):
    return statistics.median(values) * scale if values else 0.0


def _p90(values, scale):
    if len(values) < 2:
        return _median(values, scale)
    return statistics.quantiles(values, n=10, method="inclusive")[-1] * scale


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, op_name, thread_speedup=0.0):
    """Per-layer metrics from the spans of one run. ``op_name`` names the
    span that wraps one workload operation. A layer that the workload
    never calls reads 0."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    parent = {s.id: s.parent for s in spans}
    name_of = {s.id: s.name for s in spans}

    def durations(name):
        return [s.end - s.start for s in by_name.get(name, [])]

    def has_ancestor(s, name):
        p = s.parent
        while p is not None:
            if name_of.get(p) == name:
                return True
            p = parent.get(p)
        return False

    # Spans of calls that raised carry no info.
    kernel = [s for s in by_name.get("kernel.solve", []) if s.info]
    kernel_ns = sum(s.end - s.start for s in kernel)
    steps = sum(s.info["newton_steps"] for s in kernel)
    ops = by_name.get(op_name, [])
    op_ns = sum(durations(op_name))
    alt = [s for s in by_name.get("alternating.solve_alternating", []) if s.info]
    alt_kernel = sum(1 for s in kernel if has_ancestor(s, "alternating.solve_alternating"))
    values = {
        "kernel.us_per_newton_step": kernel_ns / 1e3 / steps if steps else 0.0,
        "kernel.newton_steps_per_solve": steps / len(kernel) if kernel else 0.0,
        "kernel.solves_per_op": len(kernel) / len(ops) if ops else 0.0,
        "kernel.time_share": kernel_ns / op_ns if op_ns else 0.0,
        "kernel.vars_per_program": _mean([s.info["n_vars"] for s in kernel]),
        "kernel.atoms_per_program": _mean([s.info["atoms"] for s in kernel]),
        "kernel.phase_one_calls": len(by_name.get("kernel.phase_one", [])),
        "kernel.not_converged": sum(1 for s in kernel if s.info["status"] != "Converged"),
        "optimal.solve_optimal_ms_p90": _p90(durations("optimal.solve_optimal"), 1e-6),
        "optimal.solve_eq14_ms": _median(durations("optimal.solve_eq14"), 1e-6),
        "optimal.compute_phi_us": _median(durations("optimal.compute_phi"), 1e-3),
        "optimal.build_sigma_us": _median(durations("optimal.build_sigma"), 1e-3),
        "alternating.outer_iterations": _mean([s.info["outer_iterations"] for s in alt]),
        "alternating.kernel_solves_per_solve": alt_kernel / len(alt) if alt else 0.0,
        "model.generate_rayleigh_us": _median(durations("model.generate_rayleigh"), 1e-3),
        "model.channel_inversion_precoder_us":
            _median(durations("model.channel_inversion_precoder"), 1e-3),
        "feasibility.check_existence_us": _median(durations("feasibility.check_existence"), 1e-3),
        "report.make_report_us": _median(durations("report.make_report"), 1e-3),
        "baselines.solve_fixed_split_ms": _median(durations("baselines.solve_fixed_split"), 1e-6),
        "baselines.l_infinity_limit_ms": _median(durations("baselines.l_infinity_limit"), 1e-6),
        "alternating.solve_b_zero_ms": _median(durations("alternating.solve_b_zero"), 1e-6),
        "experiments.write_csv_ms": _median(durations("experiments.write_csv"), 1e-6),
        "experiments.thread_speedup": thread_speedup,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in METRICS.items()}
