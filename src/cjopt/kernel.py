"""Small log-barrier interior-point engine over real variables.

The five convex programs of the artifact all reduce to a linear objective
under a closed set of convex constraint kinds (linear, reciprocal-sum,
convex-quadratic, box). Complex decision matrices enter through their
real embedding before a program is assembled, so the kernel itself is
purely real. Robustness is favoured over speed: the programs have at most
a few hundred real variables.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InfeasibleProgram, NumericalFailure

__all__ = [
    "LinearIneq",
    "Box",
    "ReciprocalSum",
    "Quadratic",
    "ConvexProgram",
    "KernelSolution",
    "solve",
    "phase_one",
]


@dataclass(frozen=True)
class LinearIneq:
    """a . v <= b"""

    a: np.ndarray
    b: float

    def value(self, v):
        return float(self.a @ v) - self.b

    def grad(self, v):
        return self.a

    def hess(self, v):
        return None

    def domain_ok(self, v):
        return True

    def scale(self):
        return 1.0 + abs(self.b)


@dataclass(frozen=True)
class Box:
    """lo <= v[idx] <= hi; either bound may be infinite."""

    idx: int
    lo: float = -np.inf
    hi: float = np.inf

    def as_linear(self, n):
        out = []
        if np.isfinite(self.lo):
            a = np.zeros(n)
            a[self.idx] = -1.0
            out.append(LinearIneq(a=a, b=-self.lo))
        if np.isfinite(self.hi):
            a = np.zeros(n)
            a[self.idx] = 1.0
            out.append(LinearIneq(a=a, b=self.hi))
        return out


@dataclass(frozen=True)
class ReciprocalSum:
    """sum_t coeff_t / v[idx_t]**power_t + a . v <= b, with v[idx] > 0.

    power is 1 or 2 per term; coeff >= 0 keeps every term convex on the
    positive orthant.
    """

    idx: np.ndarray
    coeff: np.ndarray
    power: np.ndarray
    a: np.ndarray
    b: float

    def domain_ok(self, v):
        return bool(np.all(v[self.idx] > 0.0))

    def value(self, v):
        x = v[self.idx]
        return float(np.sum(self.coeff / x**self.power) + self.a @ v) - self.b

    def grad(self, v):
        g = self.a.copy()
        x = v[self.idx]
        np.add.at(g, self.idx, -self.power * self.coeff / x ** (self.power + 1))
        return g

    def hess(self, v):
        H = np.zeros((v.size, v.size))
        x = v[self.idx]
        d = self.power * (self.power + 1) * self.coeff / x ** (self.power + 2)
        np.add.at(H, (self.idx, self.idx), d)
        return H

    def scale(self):
        return 1.0 + abs(self.b)


@dataclass(frozen=True)
class Quadratic:
    """||M v + d||^2 + a . v <= b"""

    M: np.ndarray
    d: np.ndarray
    a: np.ndarray
    b: float

    def domain_ok(self, v):
        return True

    def value(self, v):
        r = self.M @ v + self.d
        return float(r @ r + self.a @ v) - self.b

    def grad(self, v):
        return 2.0 * (self.M.T @ (self.M @ v + self.d)) + self.a

    def hess(self, v):
        return 2.0 * (self.M.T @ self.M)

    def scale(self):
        return 1.0 + abs(self.b)


@dataclass(frozen=True)
class ConvexProgram:
    n_vars: int
    objective: np.ndarray
    constraints: list
    strictly_feasible_point: Optional[np.ndarray] = None

    def atoms(self):
        """Expand boxes into scalar linear inequalities; one barrier term
        per returned atom."""
        out = []
        for c in self.constraints:
            if isinstance(c, Box):
                out.extend(c.as_linear(self.n_vars))
            else:
                out.append(c)
        return out


@dataclass
class KernelSolution:
    x: np.ndarray
    objective_value: float
    kkt_residual: float
    iterations: int
    status: str  # Converged | MaxIterations | NumericalFailure
    path_objectives: list = field(default_factory=list)


_STRICT_MARGIN = 1e-9


def _is_strictly_feasible(atoms, v, margin=0.0):
    for c in atoms:
        if not c.domain_ok(v):
            return False
        g = c.value(v)
        if not np.isfinite(g) or g >= -margin * c.scale():
            return False
    return True


def _center(atoms, c_obj, t, v, max_newton=100, dec_tol=1e-10):
    """Damped Newton on t * c.v - sum log(-g_i(v)). Returns (v, converged,
    newton_steps)."""
    n = v.size
    for step in range(max_newton):
        grad = t * c_obj.copy()
        H = np.zeros((n, n))
        for con in atoms:
            g = con.value(v)
            dg = con.grad(v)
            inv = 1.0 / (-g)
            grad += dg * inv
            H += np.outer(dg, dg) * inv * inv
            hg = con.hess(v)
            if hg is not None:
                H += hg * inv
        reg = 0.0
        while True:
            try:
                dx = np.linalg.solve(H + reg * np.eye(n), -grad)
                if np.all(np.isfinite(dx)):
                    break
            except np.linalg.LinAlgError:
                pass
            reg = 1e-10 if reg == 0.0 else reg * 100.0
            if reg > 1e6:
                raise NumericalFailure("Newton system unsolvable after regularization")
        dec2 = float(-grad @ dx)
        f0 = _barrier_value(atoms, c_obj, t, v)
        # The decrement is resolution-limited by rounding in f itself once
        # t * |objective| is large, so the tolerance follows |f|.
        stall_tol = max(dec_tol, 1e-12 * abs(f0))
        if dec2 / 2.0 <= stall_tol:
            return v, True, step
        # Backtracking line search keeping the iterate strictly interior.
        alpha = 1.0
        while alpha > 1e-14:
            v_new = v + alpha * dx
            f1 = _barrier_value(atoms, c_obj, t, v_new)
            if f1 is not None and f1 <= f0 - 0.25 * alpha * dec2:
                v = v_new
                break
            alpha *= 0.5
        else:
            # No descent possible; report whatever centering we achieved.
            return v, dec2 / 2.0 <= max(1e-6, 1e-9 * abs(f0)), step
    return v, False, max_newton


def _barrier_value(atoms, c_obj, t, v):
    total = t * float(c_obj @ v)
    for con in atoms:
        if not con.domain_ok(v):
            return None
        g = con.value(v)
        if not np.isfinite(g) or g >= 0.0:
            return None
        total -= np.log(-g)
    return total


def _kkt_residual(atoms, c_obj, t, v):
    r = t * c_obj.copy()
    for con in atoms:
        r += con.grad(v) / (-con.value(v))
    return float(np.abs(r).max() / (t * max(1.0, np.abs(c_obj).max())))


def solve(prog: ConvexProgram, t0=1.0, mu=10.0, gap_tol=1e-9, max_outer=40,
          gap_ref=1.0) -> KernelSolution:
    """Log-barrier solve with barrier parameter schedule t <- mu * t,
    stopping when the duality-gap bound m/t drops below
    gap_tol * (gap_ref + |objective|). gap_ref=0 gives a purely relative
    stop for problems whose optimal value can be many orders of magnitude
    below 1 (it must then be strictly nonzero)."""
    atoms = prog.atoms()
    m = len(atoms)
    c_obj = np.asarray(prog.objective, dtype=float)
    v = prog.strictly_feasible_point
    if v is None or not _is_strictly_feasible(atoms, np.asarray(v, dtype=float)):
        v = phase_one(prog)
    v = np.asarray(v, dtype=float).copy()

    t = t0
    total_steps = 0
    path = []
    centered = True
    for _ in range(max_outer):
        v, centered, steps = _center(atoms, c_obj, t, v)
        total_steps += steps
        obj = float(c_obj @ v)
        path.append(obj)
        if m / t <= gap_tol * (gap_ref + abs(obj)):
            break
        t *= mu
    else:
        obj = float(c_obj @ v)

    status = "Converged" if (centered and m / t <= gap_tol * (gap_ref + abs(obj))) else "MaxIterations"
    return KernelSolution(
        x=v,
        objective_value=obj,
        kkt_residual=_kkt_residual(atoms, c_obj, t, v),
        iterations=total_steps,
        status=status,
        path_objectives=path,
    )


def _phase_one_start(prog: ConvexProgram):
    v = np.zeros(prog.n_vars)
    lo = np.full(prog.n_vars, -np.inf)
    hi = np.full(prog.n_vars, np.inf)
    recip_vars = set()
    for c in prog.constraints:
        if isinstance(c, Box):
            lo[c.idx] = max(lo[c.idx], c.lo)
            hi[c.idx] = min(hi[c.idx], c.hi)
        elif isinstance(c, ReciprocalSum):
            recip_vars.update(int(i) for i in c.idx)
    for i in range(prog.n_vars):
        if np.isfinite(lo[i]) and np.isfinite(hi[i]):
            v[i] = 0.5 * (lo[i] + hi[i])
        elif np.isfinite(lo[i]):
            v[i] = lo[i] + 1.0
        elif np.isfinite(hi[i]):
            v[i] = hi[i] - 1.0
    for i in recip_vars:
        if v[i] <= 0.0:
            v[i] = 1.0 if not np.isfinite(hi[i]) else 0.5 * hi[i]
    return v


def _augment_with_slack(con, n):
    """Rewrite g(v) <= 0 as g(v) - s <= 0 over (v, s)."""
    a = np.append(con.a, -1.0)
    if isinstance(con, LinearIneq):
        return LinearIneq(a=a, b=con.b)
    if isinstance(con, ReciprocalSum):
        return ReciprocalSum(idx=con.idx, coeff=con.coeff, power=con.power, a=a, b=con.b)
    if isinstance(con, Quadratic):
        M = np.hstack([con.M, np.zeros((con.M.shape[0], 1))])
        return Quadratic(M=M, d=con.d, a=a, b=con.b)
    raise TypeError(f"unsupported constraint kind {type(con).__name__}")


def phase_one(prog: ConvexProgram) -> np.ndarray:
    """Return a strictly feasible point or raise InfeasibleProgram.

    Standard auxiliary-slack minimization: minimize s subject to
    g_i(v) <= s (boxes stay hard), stopping early once every constraint
    has strictly negative slack.
    """
    n = prog.n_vars
    v0 = _phase_one_start(prog)
    hard = []  # box-derived atoms over (v, s)
    soft = []  # slack-augmented atoms
    for c in prog.constraints:
        if isinstance(c, Box):
            for lin in c.as_linear(n):
                hard.append(LinearIneq(a=np.append(lin.a, 0.0), b=lin.b))
        else:
            soft.append(_augment_with_slack(c, n))

    def strictly_ok(v):
        return _is_strictly_feasible(prog.atoms(), v, margin=_STRICT_MARGIN)

    if strictly_ok(v0):
        return v0

    s0 = max(c.value(np.append(v0, 0.0)) for c in soft) if soft else -1.0
    w = np.append(v0, abs(s0) * 1.1 + 1.0)
    atoms = hard + soft + Box(idx=n, lo=-1.0, hi=w[n] + 1.0).as_linear(n + 1)
    c_obj = np.zeros(n + 1)
    c_obj[n] = 1.0
    if not _is_strictly_feasible(atoms, w):
        raise NumericalFailure("phase one could not construct an interior start")

    t = 1.0
    for _ in range(40):
        w, _, _ = _center(atoms, c_obj, t, w)
        if strictly_ok(w[:n]):
            return w[:n].copy()
        if len(atoms) / t <= 1e-9 * (1.0 + abs(w[n])):
            break
        t *= 10.0
    # The comfortable margin was never reached; accept a bare interior
    # point if one emerged (feasible sets with tiny interiors are legal).
    if _is_strictly_feasible(prog.atoms(), w[:n]):
        return w[:n].copy()
    raise InfeasibleProgram(f"phase-one optimum {w[n]:.3e} is not strictly negative")

