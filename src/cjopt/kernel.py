"""Small log-barrier interior-point engine over real variables.

The five convex programs of the artifact all reduce to a linear objective
under a closed set of convex constraint kinds (linear, reciprocal-sum,
convex-quadratic, box), given as the plain dataclasses below. Complex
decision matrices enter through their real embedding before a program is
assembled, so the kernel itself is purely real.

``solve`` and ``phase_one`` compile a program once into one stacked form
(``_Stacked``). Every barrier term i reads

    g_i(v) = A_i . v - b_i + sum_t coeff_t / v[var_t]**power_t + ||M_i v + d_i||^2

where one dense (A, b) holds the linear part of every constraint (a box
gives one row per finite bound, as in ``ConvexProgram.atoms``), flat
(row, var, coeff, power) arrays hold the reciprocal terms, and the
quadratic maps M_i are stacked with 2 M_i^T M_i computed once. One
evaluator then gives g, its Jacobian and the weighted Hessian sum of the
whole program in a few array passes.

The programs are small (a few to a few dozen variables), so a Newton step
costs numpy calls more than arithmetic, and the compiled form does at
compile time whatever does not depend on v: the 2 M_i^T M_i are flattened
into one (n_quads, n*n) matrix that one product with the weight row turns
into the quadratic Hessian; the reciprocal terms carry their derivative
coefficients and powers and their flat scatter indices, the Jacobian cells
row*n + var (a repeated cell sums its terms) and the Hessian diagonal; and
the strict-interior thresholds are fixed per row. A program without a
Quadratic skips the quadratic block of g, the Jacobian and the Hessian.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InfeasibleProgram, NumericalFailure

__all__ = ["LinearIneq", "Box", "ReciprocalSum", "Quadratic", "ConvexProgram", "KernelSolution",
           "solve", "phase_one"]


@dataclass(frozen=True)
class LinearIneq:
    """a . v <= b"""

    a: np.ndarray
    b: float


@dataclass(frozen=True)
class Box:
    """lo <= v[idx] <= hi; either bound may be infinite."""

    idx: int
    lo: float = -np.inf
    hi: float = np.inf


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


@dataclass(frozen=True)
class Quadratic:
    """||M v + d||^2 + a . v <= b"""

    M: np.ndarray
    d: np.ndarray
    a: np.ndarray
    b: float


def _box_rows(box):
    """(sign, bound) for each finite side of a box: sign * v[idx] <= bound."""
    return [(s, s * lim) for s, lim in ((-1.0, box.lo), (1.0, box.hi)) if np.isfinite(lim)]


@dataclass(frozen=True)
class ConvexProgram:
    n_vars: int
    objective: np.ndarray
    constraints: list
    strictly_feasible_point: Optional[np.ndarray] = None

    def atoms(self):
        """Expand boxes into scalar linear inequalities; one barrier term
        per returned atom, in the row order of the compiled form."""
        out = []
        for c in self.constraints:
            if isinstance(c, Box):
                out.extend(LinearIneq(a=np.where(np.arange(self.n_vars) == c.idx, s, 0.0), b=b)
                           for s, b in _box_rows(c))
            else:
                out.append(c)
        return out


@dataclass
class KernelSolution:
    x: np.ndarray
    objective_value: float
    kkt_residual: float
    iterations: int
    status: str  # Converged | MaxIterations
    path_objectives: list = field(default_factory=list)


_STRICT_MARGIN = 1e-9
# Barrier schedule of solve and phase_one, and the Newton limits of _center.
_T0, _MU, _GAP_TOL, _MAX_OUTER = 1.0, 10.0, 1e-9, 40
_MAX_NEWTON, _DEC_TOL = 100, 1e-10


class _Stacked:
    """A ConvexProgram compiled into arrays (see the module docstring).

    With ``slack_box`` (phase one) the program gains the slack s = v[n_vars]
    with that box's bounds, and every non-box row g_i(v) <= 0 becomes
    g_i(v) - s <= 0: a -1 in the slack column of A, 0 on box rows, and a
    zero slack column on each M.
    """

    def __init__(self, prog: ConvexProgram, slack_box=None):
        n0 = prog.n_vars
        cons = list(prog.constraints) + ([slack_box] if slack_box is not None else [])
        n = n0 + (slack_box is not None)
        A, b, box, rec, quads = [], [], [], [], []  # rec: (row, var, coeff, power) per term
        for c in cons:
            if isinstance(c, Box):
                for s, bound in _box_rows(c):
                    A.append(np.where(np.arange(n) == c.idx, s, 0.0))
                    b.append(bound)
                    box.append(True)
                continue
            if isinstance(c, ReciprocalSum):
                rec.extend((len(b), j, cf, pw) for j, cf, pw in zip(c.idx, c.coeff, c.power))
            elif isinstance(c, Quadratic):
                quads.append((len(b), np.pad(c.M, ((0, 0), (0, n - n0))), np.asarray(c.d, dtype=float)))
            elif not isinstance(c, LinearIneq):
                raise TypeError(f"unsupported constraint kind {type(c).__name__}")
            A.append(np.pad(np.asarray(c.a, dtype=float), (0, n - n0)))
            b.append(c.b)
            box.append(False)
        self.m, self.n = len(b), n
        self.A = np.array(A, dtype=float).reshape(self.m, n)
        self.b = np.array(b, dtype=float)
        self.box = np.array(box, dtype=bool)
        self.A[~self.box, n0:] = -1.0  # the slack column, if there is one
        self.strict_limit = -_STRICT_MARGIN * (1.0 + np.abs(self.b))
        rec = np.array(rec, dtype=float).reshape(-1, 4).T.copy()
        self.r_row, self.r_var = rec[:2].astype(int)
        self.r_coeff, self.r_pow = rec[2:]
        # d/dx c/x**p = -p c / x**(p+1) and d2/dx2 c/x**p = p (p+1) c / x**(p+2).
        self.r_dcoeff, self.r_dpow = -self.r_pow * self.r_coeff, self.r_pow + 1
        self.r_ccoeff, self.r_cpow = self.r_pow * (self.r_pow + 1) * self.r_coeff, self.r_pow + 2
        # Flat scatter targets: the distinct Jacobian cells row * n + var with
        # each term's cell among them, and the diagonal of an n x n Hessian.
        self.j_cells, self.j_cell_of = np.unique(self.r_row * n + self.r_var, return_inverse=True)
        self.diag = np.arange(n) * (n + 1)
        self.has_quad = bool(quads)
        self.q_rows = np.array([q[0] for q in quads], dtype=int)
        self.M = np.vstack([q[1] for q in quads] + [np.zeros((0, n))])
        self.d = np.concatenate([q[2] for q in quads] + [np.zeros(0)])
        # Q groups the stacked rows of M by quadratic: (Q @ (r * r))_j = ||M_j v + d_j||^2.
        owner = np.repeat(np.arange(len(quads)), [q[1].shape[0] for q in quads])
        self.Q = (np.arange(len(quads))[:, None] == owner).astype(float)
        # Every 2 M_j^T M_j flattened to one row, so that the weighted sum is one matrix product.
        self.H2 = np.array([2.0 * (M.T @ M) for _, M, _ in quads]).reshape(len(quads), n * n)

    def g(self, v):
        """Every g_i(v), or None outside the domain (a reciprocal variable <= 0)."""
        x = v[self.r_var]
        if (x <= 0.0).any():
            return None
        g = self.A @ v - self.b
        g += np.bincount(self.r_row, self.r_coeff / x**self.r_pow, minlength=self.m)
        if self.has_quad:
            g[self.q_rows] += self.Q @ (self.M @ v + self.d) ** 2
        return g

    def interior(self, v, strict=False):
        """g(v) if every g_i(v) < 0, or with ``strict`` every
        g_i(v) < -_STRICT_MARGIN * (1 + |b_i|); else None."""
        g = self.g(v)
        if g is None or not (np.isfinite(g) & (g < (self.strict_limit if strict else 0.0))).all():
            return None
        return g

    def jac(self, v):
        """The m x n Jacobian of g at v (inside the domain)."""
        J = self.A.copy()
        if self.has_quad:
            J[self.q_rows] += 2.0 * (self.Q * (self.M @ v + self.d)) @ self.M
        dg = self.r_dcoeff / v[self.r_var] ** self.r_dpow
        J.reshape(-1)[self.j_cells] += np.bincount(self.j_cell_of, dg, minlength=len(self.j_cells))
        return J

    def hess(self, v, w):
        """sum_i w_i * (Hessian of g_i at v)."""
        n = self.n
        if self.has_quad:
            H = np.dot(w[self.q_rows].reshape(1, -1), self.H2).reshape(n, n)
        else:
            H = np.zeros((n, n))
        curv = self.r_ccoeff / v[self.r_var] ** self.r_cpow
        H.reshape(-1)[self.diag] += np.bincount(self.r_var, w[self.r_row] * curv, minlength=n)
        return H


def _center(S: _Stacked, c_obj, t, v):
    """Damped Newton on t * c.v - sum log(-g_i(v)) from an interior v.
    Returns (v, converged, newton_steps)."""
    def barrier(v, g):
        return t * float(c_obj @ v) - float(np.log(-g).sum())

    g = S.g(v)
    f0 = barrier(v, g)
    for step in range(_MAX_NEWTON):
        inv = 1.0 / (-g)
        J = S.jac(v)
        grad = t * c_obj + J.T @ inv
        H = (J.T * (inv * inv)) @ J + S.hess(v, inv)
        reg = 0.0
        while True:
            try:
                dx = np.linalg.solve(H if reg == 0.0 else H + reg * np.eye(S.n), -grad)
                if np.isfinite(dx).all():
                    break
            except np.linalg.LinAlgError:
                pass
            reg = 1e-10 if reg == 0.0 else reg * 100.0
            if reg > 1e6:
                raise NumericalFailure("Newton system unsolvable after regularization")
        dec2 = float(-grad @ dx)
        # The decrement is resolution-limited by rounding in f itself once
        # t * |objective| is large, so the tolerance follows |f|.
        stall_tol = max(_DEC_TOL, 1e-12 * abs(f0))
        if dec2 / 2.0 <= stall_tol:
            return v, True, step
        # Backtracking line search keeping the iterate strictly interior;
        # the accepted point's barrier value is the next step's f0.
        alpha = 1.0
        while alpha > 1e-14:
            v_new = v + alpha * dx
            g_new = S.interior(v_new)
            if g_new is not None:
                f_new = barrier(v_new, g_new)
                if f_new <= f0 - 0.25 * alpha * dec2:
                    v, g, f0 = v_new, g_new, f_new
                    break
            alpha *= 0.5
        else:
            # No descent possible; report whatever centering we achieved.
            return v, dec2 / 2.0 <= max(1e-6, 1e-9 * abs(f0)), step
    return v, False, _MAX_NEWTON


def solve(prog: ConvexProgram, gap_ref=1.0) -> KernelSolution:
    """Log-barrier solve with barrier parameter schedule t <- _MU * t,
    stopping when the duality-gap bound m/t drops below
    _GAP_TOL * (gap_ref + |objective|). gap_ref=0 gives a purely relative
    stop for problems whose optimal value can be many orders of magnitude
    below 1 (it must then be strictly nonzero)."""
    S = _Stacked(prog)
    c_obj = np.asarray(prog.objective, dtype=float)
    v = prog.strictly_feasible_point
    if v is None or S.interior(np.asarray(v, dtype=float)) is None:
        v = phase_one(prog)
    v = np.asarray(v, dtype=float).copy()

    t = _T0
    total_steps = 0
    path = []
    centered = True
    for _ in range(_MAX_OUTER):
        v, centered, steps = _center(S, c_obj, t, v)
        total_steps += steps
        obj = float(c_obj @ v)
        path.append(obj)
        if S.m / t <= _GAP_TOL * (gap_ref + abs(obj)):  # S.m = len(prog.atoms())
            break
        t *= _MU
    else:
        obj = float(c_obj @ v)

    status = "Converged" if (centered and S.m / t <= _GAP_TOL * (gap_ref + abs(obj))) else "MaxIterations"
    kkt = np.abs(t * c_obj + S.jac(v).T @ (1.0 / -S.g(v))).max() / (t * max(1.0, np.abs(c_obj).max()))
    return KernelSolution(x=v, objective_value=obj, kkt_residual=float(kkt),
                          iterations=total_steps, status=status, path_objectives=path)


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


def phase_one(prog: ConvexProgram) -> np.ndarray:
    """Return a strictly feasible point or raise InfeasibleProgram.

    Standard auxiliary-slack minimization: minimize s subject to
    g_i(v) <= s (boxes stay hard), stopping early once every constraint
    has strictly negative slack.
    """
    n = prog.n_vars
    S = _Stacked(prog)
    v0 = _phase_one_start(prog)
    if S.interior(v0, strict=True) is not None:
        return v0

    g0 = S.g(v0)  # None only outside the domain, where w below is not interior either
    s0 = -1.0 if g0 is None else max(g0[~S.box], default=-1.0)
    w = np.append(v0, abs(s0) * 1.1 + 1.0)
    S1 = _Stacked(prog, slack_box=Box(idx=n, lo=-1.0, hi=w[n] + 1.0))
    c_obj = np.eye(n + 1)[n]
    if S1.interior(w) is None:
        raise NumericalFailure("phase one could not construct an interior start")

    t = _T0
    for _ in range(_MAX_OUTER):
        w, _, _ = _center(S1, c_obj, t, w)
        if S.interior(w[:n], strict=True) is not None:
            return w[:n].copy()
        if S1.m / t <= _GAP_TOL * (1.0 + abs(w[n])):
            break
        t *= _MU
    # The comfortable margin was never reached; accept a bare interior
    # point if one emerged (feasible sets with tiny interiors are legal).
    if S.interior(w[:n]) is not None:
        return w[:n].copy()
    raise InfeasibleProgram(f"phase-one optimum {w[n]:.3e} is not strictly negative")
