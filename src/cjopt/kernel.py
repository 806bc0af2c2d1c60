"""Small primal-dual interior-point engine over real variables.

The five convex programs of the artifact all reduce to a linear objective
under a closed set of convex constraint kinds (linear, reciprocal-sum,
convex-quadratic, box), given as the plain dataclasses below. Complex
decision matrices enter through their real embedding before a program is
assembled, so the kernel itself is purely real.

``solve`` and ``phase_one`` compile a program once into one stacked form
(``_Stacked``). Every constraint row i reads

    g_i(v) = A_i . v - b_i + sum_t coeff_t / v[var_t]**power_t + ||M_i v + d_i||^2

where one dense (A, b) holds the linear part of every constraint (a box
gives one row per finite bound, as in ``ConvexProgram.atoms``), flat
(row, var, coeff, power) arrays hold the reciprocal terms, and the
quadratic maps M_i are stacked with 2 M_i^T M_i computed once. One
evaluator then gives g, its Jacobian and the weighted Hessian sum of the
whole program in a few array passes.

Both run one primal-dual path-following iteration (``_path``; Boyd &
Vandenberghe, *Convex Optimization*, 11.7). It keeps a strictly interior v
and multipliers lam > 0 and takes Newton steps towards the central point
lam_i (-g_i(v)) = 1/t, c + J^T lam = 0. The Newton matrix depends on lam,
not on t, so t grows by a fixed factor at every centered point without a
second solve, and the multipliers carry the active set from one t to the
next; a solve takes about a third of the Newton steps of a log-barrier
schedule. The stop is a residual test at the final t: the barrier
decrement and the spread of t lam_i s_i about 1.

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

import math
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
    return [(s, s * lim) for s, lim in ((-1.0, box.lo), (1.0, box.hi)) if math.isfinite(lim)]


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
# Path following (see _path): t starts where the start point is most
# central, or at _T0, and grows by _MU (at most to just past the gap rule)
# at every point centered to _CENTERED; the solve stops at the first t with
# m/t <= _GAP_TOL * (gap_ref + |objective|) once the point is centered to
# _FINAL, or after _MAX_STEPS Newton steps. A step goes _TO_BOUNDARY of
# the way to the nearest boundary and must lower the barrier by
# _DECREASE of its first-order prediction.
_T0, _MU, _GAP_TOL, _MAX_STEPS = 1.0, 50.0, 1e-9, 200
_CENTERED, _FINAL, _TO_BOUNDARY, _DECREASE = 0.5, 1e-3, 0.99, 0.01


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
        lin, b, box, rec, quads = [], [], [], [], []  # rec: (row, var, coeff, power) x terms per sum
        for c in cons:
            if isinstance(c, Box):
                for s, bound in _box_rows(c):
                    box.append((len(b), c.idx, s))
                    b.append(bound)
                continue
            if isinstance(c, ReciprocalSum):
                rec.append(np.array([np.full(len(c.idx), len(b)), c.idx, c.coeff, c.power], dtype=float))
            elif isinstance(c, Quadratic):
                M = np.zeros((len(c.M), n))
                M[:, :n0] = c.M
                quads.append((len(b), M, np.asarray(c.d, dtype=float)))
            elif not isinstance(c, LinearIneq):
                raise TypeError(f"unsupported constraint kind {type(c).__name__}")
            lin.append((len(b), c.a))
            b.append(c.b)
        self.m, self.n = len(b), n
        self.A = np.zeros((self.m, n))
        self.b = np.array(b, dtype=float)
        self.box = np.zeros(self.m, dtype=bool)
        if lin:
            rows = [r for r, _ in lin]
            self.A[rows, :n0] = np.array([a for _, a in lin], dtype=float)
            self.A[rows, n0:] = -1.0  # the slack column, if there is one
        if box:
            rows, idx, sign = zip(*box)
            self.A[rows, idx] = sign
            self.box[list(rows)] = True
        self.strict_limit = -_STRICT_MARGIN * (1.0 + np.abs(self.b))
        rec = np.hstack(rec + [np.zeros((4, 0))])
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


def _newton(H, rhs):
    """Solve H X = rhs, climbing a ridge ladder if H is singular."""
    reg = 0.0
    while True:
        try:
            X = np.linalg.solve(H if reg == 0.0 else H + reg * np.eye(len(H)), rhs)
            if np.isfinite(X).all():
                return X
        except np.linalg.LinAlgError:
            pass
        reg = 1e-10 if reg == 0.0 else reg * 100.0
        if reg > 1e6:
            raise NumericalFailure("Newton system unsolvable after regularization")


def _path(S: _Stacked, c, v, gap_ref, done=None) -> KernelSolution:
    """Primal-dual path following from the interior point v.

    With s = -g(v) and multipliers lam > 0, each step solves
    (J^T diag(lam/s) J + sum_i lam_i Hess g_i) dv = -(c + J^T (1/(t s))) and
    takes dlam = (lam/s) (J dv) - lam + 1/(t s). The matrix does not depend
    on t, so one solve with the columns c and J^T (1/s) gives dv and the
    decrement dec = t (c + J^T (1/(t s))) . (-dv) at any t. The first step
    picks the t at which the start point's barrier decrement is least. A
    point is centered when dec and max |t lam s - 1| are at most _CENTERED;
    there t grows by _MU, until the gap bound holds and dec <= _FINAL, or
    ``done(v)`` holds. dv is a descent direction of the barrier
    t c.v - sum log s, which the line search lowers; lam takes its own
    step. A line search that cannot lower the barrier ends the solve with
    MaxIterations.

    path_objectives are the objectives at the centered points where t grew
    and at the last point; kkt_residual is the largest entry of the dual
    residual c + J^T lam, relative to max(1, |c|).
    """
    g = S.g(v)
    lam = -1.0 / g  # 1/(t s) at t = 1
    rhs = np.zeros((S.n, 2))
    rhs[:, 0] = c
    path = []
    status = "MaxIterations"
    for step in range(_MAX_STEPS + 1):
        J = S.jac(v)
        inv_s = -1.0 / g
        w = lam * inv_s
        rhs[:, 1] = J.T @ inv_s
        X = _newton((J.T * w) @ J + S.hess(v, lam), rhs)
        (cc, cu), (_, uu) = (rhs.T @ X).tolist()
        if step == 0:
            # At lam = 1/(t s) the matrix scales by 1/t, so the decrement
            # is t^2 cc + 2 t cu + uu in the t = 1 products.
            t = -cu / cc if cu < 0 else _T0
            lam, w, X, cc, cu, uu = lam / t, w / t, X * t, cc * t, cu * t, uu * t
        dec = t * cc + 2.0 * cu + uu / t
        if dec <= _CENTERED and np.abs(t * lam * g + 1.0).max() <= _CENTERED:
            obj = float(c @ v)
            final = S.m / t <= _GAP_TOL * (gap_ref + abs(obj))
            if (final and dec <= _FINAL) or (done is not None and done(v)):
                path.append(obj)
                status = "Converged"
                break
            if not final:
                # The last rise stops just past the gap rule: a larger t only
                # shrinks the slacks towards the rounding of g.
                path.append(obj)
                t = min(_MU * t, 1.01 * S.m / max(_GAP_TOL * (gap_ref + abs(obj)), 1e-300))
                dec = t * cc + 2.0 * cu + uu / t
        if step == _MAX_STEPS:
            break
        dv = X @ (-1.0, -1.0 / t)
        Jdv = J @ dv
        dlam = w * Jdv + inv_s / t - lam
        # Go _TO_BOUNDARY of the way to where a linearized slack (for v) or
        # a multiplier (for lam) reaches 0.
        alpha = min(1.0, _TO_BOUNDARY / max((Jdv * inv_s).max(), 1e-300))
        alpha_d = min(1.0, -_TO_BOUNDARY / min((dlam / lam).min(), -1e-300))
        # Backtrack on the change of the barrier, summed term by term.
        tcdv = t * float(c @ dv)
        while alpha > 1e-14:
            trial = v + alpha * dv
            g_new = S.interior(trial)
            if g_new is not None and alpha * tcdv - float(np.log(g_new / g).sum()) <= -_DECREASE * alpha * dec:
                break
            alpha *= 0.5
        else:
            break  # no step lowers the barrier
        v, g = trial, g_new
        lam = lam + alpha_d * dlam
    kkt = np.abs(c + J.T @ lam).max() / max(1.0, np.abs(c).max())
    return KernelSolution(x=v, objective_value=float(c @ v), kkt_residual=float(kkt),
                          iterations=step, status=status, path_objectives=path)


def solve(prog: ConvexProgram, gap_ref=1.0) -> KernelSolution:
    """Primal-dual solve (see _path), stopping at the first t whose
    duality-gap bound m/t is below _GAP_TOL * (gap_ref + |objective|) once
    the point is centered. gap_ref=0 gives a purely relative stop for
    problems whose optimal value can be many orders of magnitude below 1
    (it must then be strictly nonzero)."""
    S = _Stacked(prog)
    v = prog.strictly_feasible_point
    if v is None or S.interior(np.asarray(v, dtype=float)) is None:
        v = phase_one(prog)
    return _path(S, np.asarray(prog.objective, dtype=float), np.asarray(v, dtype=float).copy(), gap_ref)


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
    g_i(v) <= s (boxes stay hard) on the path of solve, stopping at the
    first centered point where every constraint has strictly negative slack.
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
    if S1.interior(w) is None:
        raise NumericalFailure("phase one could not construct an interior start")
    w = _path(S1, np.eye(n + 1)[n], w, 1.0, done=lambda w: S.interior(w[:n], strict=True) is not None).x
    # The comfortable margin was never reached; accept a bare interior
    # point if one emerged (feasible sets with tiny interiors are legal).
    if S.interior(w[:n]) is not None:
        return w[:n].copy()
    raise InfeasibleProgram(f"phase-one optimum {w[n]:.3e} is not strictly negative")
