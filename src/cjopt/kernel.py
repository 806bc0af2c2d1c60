"""Small primal-dual interior-point engine over real variables.

The convex programs of the artifact (the jamming-spectrum program of
``optimal.make_spectrum`` and the two block programs of ``alternating``)
all reduce to a linear objective under a closed set of convex constraint
kinds (linear, reciprocal-sum, convex-quadratic, box), given as the plain
dataclasses below. Complex decision matrices enter through their real
embedding before a program is assembled, so the kernel itself is purely
real.

``solve_batch`` solves programs of any structures: one alone in its
structure (every ``solve`` call) on the lone path ``_lone``, two or more
in one stacked form (``_Stacked``) by ``_path``. ``phase_one`` is an
ordinary program too: the auxiliary-slack problem, built from the
dataclasses and handed to ``solve``. Every constraint row i of program k reads

    g_ki(v) = A_ki . v - b_ki + sum_t coeff_kt / v[var_t]**power_t + ||M_ki v + d_ki||^2

where one dense (A, b) holds the linear part of every constraint (a box
gives one row per finite bound, as in ``ConvexProgram.atoms``), flat
(row, var, coeff, power) arrays hold the reciprocal terms, and the
quadratic maps M_ki are stacked with 2 M_ki^T M_ki computed once. The
programs of a stack share their structure: n, the row layout, the
reciprocal (row, var, power) pattern and the quadratic shapes. Each has
its own A, b, coefficients, M, d, objective and start point. The arrays
carry a leading batch axis, left out for a stack of one, and whatever
does not depend on v is done at compile time.

Each program runs one primal-dual path-following iteration (``_lone``;
Boyd & Vandenberghe, *Convex Optimization*, 11.7). It keeps a strictly
interior v and multipliers lam > 0 and takes Newton steps towards the
central point lam_i (-g_i(v)) = 1/t, c + J^T lam = 0. The Newton matrix
depends on lam, not on t, so t grows by a fixed factor at every centered
point without a second solve, and the multipliers carry the active set
from one t to the next. The stop is a residual test at the final t: the
barrier decrement and the spread of t lam_i s_i about 1.

The programs are small, so a Newton step costs numpy calls more than
arithmetic. The lone path decides t, the decrement, the step lengths and
the line-search test in Python floats; a stack shares the numpy calls
and keeps each program's t, decrement, step lengths and line search in
per-program arrays over the batch, decided by array expressions that do
the lone path's IEEE operations in its order, and a program leaves when
it stops. A program whose Newton matrix is singular climbs its own ridge
ladder, and one whose ladder runs out stops with NumericalFailure while
the rest of its stack runs on. Each vector operation acts on each
program's slice alone, so a result is the same to the last bit in any
batch as alone.
"""

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import CjoptError, InfeasibleProgram, NumericalFailure

__all__ = ["LinearIneq", "Box", "ReciprocalSum", "Quadratic", "ConvexProgram", "KernelSolution",
           "solve", "solve_batch", "phase_one"]


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


# Path following (see _path): t starts where the start point is most
# central, or at _T0, and grows by _MU (at most to just past the gap rule)
# at every point centered to _CENTERED; the solve stops at the first t with
# m/t <= _GAP_TOL * (gap_ref + |objective|) once the point is centered to
# _FINAL, or after _MAX_STEPS Newton steps. A step goes _TO_BOUNDARY of
# the way to the nearest boundary and must lower the barrier by
# _DECREASE of its first-order prediction.
_T0, _MU, _GAP_TOL, _MAX_STEPS = 1.0, 50.0, 1e-9, 200
_CENTERED, _FINAL, _TO_BOUNDARY, _DECREASE = 0.5, 1e-3, 0.99, 0.01


def _compile(prog: ConvexProgram):
    """One program's rows: (layout, key, values). The layout (n, box rows,
    reciprocal rows, variables and powers, quadratic rows and sizes) is
    what a stack shares, and key is the layout in bytes, to group by; the
    values (A, b, reciprocal coefficients, M, d) are the program's own."""
    n = prog.n_vars
    b, lin_rows, lin_a, box_rows, box_idx, box_sign, recs, quads = [], [], [], [], [], [], [], []
    for c in prog.constraints:
        if isinstance(c, Box):
            for sign, bound in _box_rows(c):
                box_rows.append(len(b))
                box_idx.append(c.idx)
                box_sign.append(sign)
                b.append(bound)
            continue
        if isinstance(c, ReciprocalSum):
            recs.append((len(b), c))
        elif isinstance(c, Quadratic):
            quads.append((len(b), c))
        elif not isinstance(c, LinearIneq):
            raise TypeError(f"unsupported constraint kind {type(c).__name__}")
        lin_rows.append(len(b))
        lin_a.append(c.a)
        b.append(c.b)
    A = np.zeros((len(b), n))
    is_box = np.zeros(len(b), dtype=bool)
    if lin_rows:
        A[lin_rows] = lin_a
    if box_rows:
        A[box_rows, box_idx] = box_sign
        is_box[box_rows] = True
    # The reciprocal terms, flat: (row, var, coeff, power) for each.
    r_row = np.repeat(np.array([r for r, _ in recs], dtype=int), [len(c.idx) for _, c in recs])
    r_var, r_coeff, r_pow = (np.concatenate([np.asarray(getattr(c, f)) for _, c in recs] + [np.zeros(0)])
                             for f in ("idx", "coeff", "power"))
    r_var, r_coeff, r_pow = r_var.astype(int), r_coeff.astype(float), r_pow.astype(float)
    q_rows = np.array([r for r, _ in quads], dtype=int)
    q_sizes = [len(c.M) for _, c in quads]
    M = np.vstack([np.zeros((0, n))] + [c.M for _, c in quads])
    d = np.concatenate([np.asarray(c.d, dtype=float) for _, c in quads] + [np.zeros(0)])
    layout = (n, is_box, r_row, r_var, r_pow, q_rows, q_sizes)
    key = (n, is_box.tobytes(), r_row.tobytes(), r_var.tobytes(), r_pow.tobytes(), q_rows.tobytes(),
           tuple(q_sizes))
    return layout, key, (A, np.array(b, dtype=float)[:, None], r_coeff[:, None], M, d[:, None])


class _Stacked:
    """ConvexPrograms of one structure in arrays, from their _compile
    entries (see the module docstring).

    Every per-program vector is a column: a point is (b, n, 1), g is
    (b, m, 1), so that they multiply through BLAS without a reshape. For a
    batch of one the leading axis is left out (a point is (n, 1), A is
    (m, n)), so that a lone program pays no batch overhead; every method
    works on axes counted from the end and serves both. The methods take
    the points of all programs, of the first b after take(), or with
    ``k`` of the programs k (never for a batch of one)."""

    # The arrays that differ by program; take() slices them.
    _OWN = ("A", "b", "r_coeff", "r_pow", "r_dcoeff", "r_dpow", "r_ccoeff", "r_cpow", "M", "d", "H2")

    def __init__(self, compiled):
        layout, _, values = compiled[0]
        n, self.box, self.r_row, self.r_var, r_pow, self.q_rows, q_sizes = layout
        B, self.m, self.n, self.T = len(compiled), len(self.box), n, len(self.r_row)
        self.one = B == 1
        if not self.one:
            values = (np.array(v) for v in zip(*(c[2] for c in compiled)))
        self.A, self.b, self.r_coeff, self.M, self.d = values
        # d/dx c/x**p = -p c / x**(p+1) and d2/dx2 c/x**p = p (p+1) c / x**(p+2).
        self.r_pow = r_pow[:, None]
        self.r_dcoeff, self.r_dpow = -self.r_pow * self.r_coeff, self.r_pow + 1
        self.r_ccoeff, self.r_cpow = self.r_pow * (self.r_pow + 1) * self.r_coeff, self.r_pow + 2
        # An exponent per program, as alone: over a broadcast exponent numpy takes x ** 2.0 as
        # x * x, which can differ in the last bit from its power loop over contiguous exponents.
        if not self.one:
            self.r_pow, self.r_dpow, self.r_cpow = (np.broadcast_to(p, self.r_coeff.shape).copy()
                                                    for p in (self.r_pow, self.r_dpow, self.r_cpow))
        # Flat scatter targets of the reciprocal terms of the programs in
        # turn: the row (for g), the Jacobian cell row * n + var (a repeated
        # cell sums its terms) and the Hessian diagonal entry, and the flat
        # diagonal of each n x n matrix. The first b programs' are a prefix.
        off = np.arange(B)[:, None]
        self.g_idx = (self.r_row + self.m * off).ravel()
        self.j_idx = (self.r_row * n + self.r_var + self.m * n * off).ravel()
        self.h_idx = (self.r_var + n * off).ravel()
        self.diag = (np.arange(n) * (n + 1) + n * n * off).ravel()
        self.has_quad = bool(q_sizes)
        # Q groups the stacked rows of M by quadratic: (Q @ (r * r))_j = ||M_j v + d_j||^2.
        owner = np.repeat(np.arange(len(q_sizes)), q_sizes)
        self.Q = (np.arange(len(q_sizes))[:, None] == owner).astype(float)
        # Every 2 M_j^T M_j flattened to one row, so that the weighted sum is one matrix product.
        ends = np.cumsum(q_sizes, dtype=int)
        self.H2 = np.zeros(self.M.shape[:-2] + (len(q_sizes), n * n))
        for j, (size, end) in enumerate(zip(q_sizes, ends)):
            Mj = self.M[..., end - size:end, :]
            self.H2[..., j, :] = (2.0 * (Mj.swapaxes(-1, -2) @ Mj)).reshape(self.M.shape[:-2] + (n * n,))

    def take(self, keep):
        """The programs picked by ``keep`` (an index array) of a batch."""
        sub = copy.copy(self)
        for name in self._OWN:
            setattr(sub, name, getattr(self, name)[keep])
        terms = len(keep) * self.T
        sub.j_idx, sub.h_idx, sub.diag = self.j_idx[:terms], self.h_idx[:terms], self.diag[:len(keep) * self.n]
        return sub

    def g(self, v, k=None):
        """Every g_ki(v_k); a mask (b, 1, 1) of the programs whose v_k lies
        in the domain (every reciprocal variable > 0), or None when all of
        them do; and the reciprocal variables x = v[r_var], which jac and
        hess take at a point inside the domain."""
        if k is None:
            A, b, r_coeff, r_pow, M, d = self.A, self.b, self.r_coeff, self.r_pow, self.M, self.d
        else:
            A, b, r_coeff, r_pow, M, d = self.A[k], self.b[k], self.r_coeff[k], self.r_pow[k], self.M[k], self.d[k]
        x = v.take(self.r_var, axis=-2)
        ok = None
        if self.T and not x.min() > 0.0:
            ok = ~(x <= 0.0).any(axis=-2, keepdims=True)
            x = np.where(ok, x, 1.0)  # rows outside the domain are discarded
        g = A @ v - b
        g += np.bincount(self.g_idx[:x.size], (r_coeff / x**r_pow).ravel(),
                         minlength=g.size).reshape(g.shape)
        if self.has_quad:
            g[..., self.q_rows, :] += self.Q @ (M @ v + d) ** 2
        return g, ok, x

    def interior(self, v, k=None):
        """g(v), and a mask like g's of the programs with every g_i(v)
        finite and < 0; None when all of them pass."""
        g, ok, _ = self.g(v, k)
        if ok is None and g.max() < 0.0 and g.min() > -np.inf:  # (NaN fails)
            return g, None
        inside = ((g < 0.0) & (g > -np.inf)).all(axis=-2, keepdims=True)
        return g, inside if ok is None else inside & ok

    def jac(self, v, x):
        """The m x n Jacobian of every g_k at v_k (inside the domain); x = v[r_var], as g gives it."""
        A = self.A
        rec = np.bincount(self.j_idx, (self.r_dcoeff / x ** self.r_dpow).ravel(),
                          minlength=A.size).reshape(A.shape)
        if not self.has_quad:
            return A + rec
        J = A.copy()
        r = self.M @ v + self.d
        J[..., self.q_rows, :] += 2.0 * ((self.Q * r.swapaxes(-1, -2)) @ self.M)
        J += rec
        return J

    def hess(self, v, w, base, x):
        """sum_i w_ki * (Hessian of g_ki at v_k), for every program k, added
        in place to base (C-contiguous, shaped like the Hessians); x as in jac."""
        curv = self.r_ccoeff / x ** self.r_cpow
        diag = np.bincount(self.h_idx, (w.take(self.r_row, axis=-2) * curv).ravel(), minlength=v.size)
        if self.has_quad:
            H = w.take(self.q_rows, axis=-2).swapaxes(-1, -2) @ self.H2
            H = H.reshape(v.shape[:-2] + (self.n, self.n))
            H.reshape(-1)[self.diag] += diag
            base += H
            return base
        base.reshape(-1)[self.diag] += diag
        return base


_NONE = np.zeros(0, dtype=int)
# The gufunc behind np.linalg.solve, without that function's per-call
# checks and conversions (a third of a small solve's time). The kernel's
# matrices are float64 and square by construction. A singular matrix gives
# NaN, with an "invalid value" floating-point flag that _path's callers
# silence.
_solve = _umath_linalg.solve


def _newton(H, rhs):
    """Solve H_k X_k = rhs_k for every program k. A program whose X_k is
    not finite climbs its own ridge ladder; returns X and the programs
    whose system stayed unsolvable (their X_k is NaN)."""
    X = _solve(H, rhs, signature="dd->d")
    if math.isfinite(X.sum()) or np.isfinite(X).all():  # the sum is NaN or inf if any entry is
        return X, _NONE
    n = H.shape[-1]
    Hs, Rs, Xs = H.reshape(-1, n, n), rhs.reshape(-1, n, 2), X.reshape(-1, n, 2)
    failed = []
    for k in np.flatnonzero(~np.isfinite(Xs).all(axis=(1, 2))):
        reg = 1e-10
        while reg <= 1e6:
            Xs[k] = _solve(Hs[k] + reg * np.eye(n), Rs[k], signature="dd->d")
            if np.isfinite(Xs[k]).all():
                break
            reg *= 100.0
        else:
            Xs[k] = np.nan
            failed.append(k)
    return X, np.array(failed, dtype=int)


def _lone(S: _Stacked, c, v, gap_ref):
    """Primal-dual path following from the interior point v of the one
    program of S, with objective c (both (n, 1) columns).

    With s = -g(v) and multipliers lam > 0, each step solves
    (J^T diag(lam/s) J + sum_i lam_i Hess g_i) dv = -(c + J^T (1/(t s))) and
    takes dlam = (lam/s) (J dv) - lam + 1/(t s). One solve with the columns
    c and J^T (1/s) gives dv and the decrement
    dec = t (c + J^T (1/(t s))) . (-dv) at any t. The first step picks the t
    at which the start point's decrement is least. A point is centered when
    dec and max |t lam s - 1| are at most _CENTERED; there t grows by _MU,
    until the gap bound holds and dec <= _FINAL. The line search lowers the
    barrier t c.v - sum log s along dv, or ends the solve with MaxIterations.

    Returns the KernelSolution (path_objectives: the objectives where t grew
    and at the end; kkt_residual: max |c + J^T lam| / max(1, |c|)), or the
    NumericalFailure of a Newton system that no ridge made solvable.
    """
    g, _, x = S.g(v)
    lam = -1.0 / g  # 1/(t s) at t = 1
    rhs = np.concatenate([c, c], axis=-1)  # the columns c and J^T (1/s)
    coef = np.full((2, 1), -1.0)  # dv = X @ (-1, -1/t)
    path = []

    def finish(status):  # the KernelSolution at the current point
        ck, vk, lk = c.reshape(-1), v.reshape(-1), lam.reshape(-1)
        kkt = np.abs(ck + J.T @ lk).max() / max(1.0, np.abs(ck).max())
        return KernelSolution(x=vk.copy(), objective_value=float(ck @ vk), kkt_residual=float(kkt),
                              iterations=step, status=status, path_objectives=path)

    for step in range(_MAX_STEPS + 1):
        J = S.jac(v, x)
        inv_s = -1.0 / g
        w = lam * inv_s
        rhs[:, 1:] = J.T @ inv_s
        X, failed = _newton(S.hess(v, lam, (J * w).T @ J, x), rhs)
        (cc, cu), (_, uu) = (rhs.T @ X).tolist()
        if step == 0:
            # At lam = 1/(t s) the matrix scales by 1/t, so the decrement
            # is t^2 cc + 2 t cu + uu in the t = 1 products.
            t = -cu / cc if cu < 0 else _T0
            cc, cu, uu = cc * t, cu * t, uu * t
            coef[1, 0] = -1.0 / t
            lam, w, X = lam / t, w / t, X * t
        dec = t * cc + 2.0 * cu + uu / t
        if failed.size:
            return NumericalFailure("Newton system unsolvable after regularization")
        if dec <= _CENTERED and np.abs(t * lam * g + 1.0).max() <= _CENTERED:
            obj = (c.T @ v).item()
            final = S.m / t <= _GAP_TOL * (gap_ref + abs(obj))
            if final and dec <= _FINAL:
                path.append(obj)
                return finish("Converged")
            if not final:
                # The last rise stops just past the gap rule: a larger t
                # only shrinks the slacks towards the rounding of g.
                path.append(obj)
                t = min(_MU * t, 1.01 * S.m / max(_GAP_TOL * (gap_ref + abs(obj)), 1e-300))
                coef[1, 0] = -1.0 / t
                dec = t * cc + 2.0 * cu + uu / t
        if step == _MAX_STEPS:
            return finish("MaxIterations")
        dv = X @ coef
        Jdv = J @ dv
        dlam = w * Jdv + inv_s / t - lam
        # Go _TO_BOUNDARY of the way to where a linearized slack (for v) or
        # a multiplier (for lam) reaches 0.
        r_v, r_lam, cdv = np.concatenate([(Jdv * inv_s).max(axis=-2), (dlam / lam).min(axis=-2),
                                          (c.T @ dv)[..., 0]]).tolist()
        alpha = min(1.0, _TO_BOUNDARY / max(r_v, 1e-300))
        alpha_d = min(1.0, -_TO_BOUNDARY / min(r_lam, -1e-300))
        # Backtrack on the change of the barrier, summed term by term: halve
        # the step until the barrier falls or the step is at most 1e-14. At a
        # trial inside the domain the sum is finite only if every g lies in
        # (-inf, 0); the interior test then runs only when it is not.
        while alpha > 1e-14:
            tr = v + alpha * dv
            gr, mask, xr = S.g(tr)
            if mask is None:  # inside the domain
                sums = np.log(gr / g).sum(axis=-2).item()
                inside = math.isfinite(sums) or (gr.max() < 0.0 and gr.min() > -np.inf)
                if inside and alpha * (t * cdv) - sums <= -_DECREASE * alpha * dec:
                    v, g, x = tr, gr, xr
                    break
            alpha *= 0.5
        if alpha <= 1e-14:  # no step lowers the barrier: stop at the old point
            return finish("MaxIterations")
        lam = lam + alpha_d * dlam


def _path(S: _Stacked, c, v, gap_ref):
    """_lone for the two or more programs of S, from the points v with the
    objectives c (both shaped like S's points): one entry per program. The
    vector work runs on the whole batch at once; each program's numbers (t,
    dec, the step lengths, the line-search test) are entries of (b, 1, 1)
    arrays, decided with _lone's IEEE operations in its order (and Python's
    min and max on a NaN), and a program that ends leaves."""
    out = [None] * len(v)
    live = np.arange(len(v))  # the batch position of each program still running
    paths = [[] for _ in out]
    g = S.g(v)[0]
    lam = -1.0 / g  # 1/(t s) at t = 1
    rhs = np.concatenate([c, c], axis=-1)  # the columns c and J^T (1/s)
    ct = c.swapaxes(-1, -2)
    coef = np.full(c.shape[:-2] + (2, 1), -1.0)  # dv = X @ (-1, -1/t)

    def finish(ks, status):
        """Record the programs ks with ``status`` at the current point."""
        for k in ks:
            ck, vk = c.reshape(-1, S.n)[k], v.reshape(-1, S.n)[k]
            Jk, lk = J.reshape(-1, S.m, S.n)[k], lam.reshape(-1, S.m)[k]
            kkt = np.abs(ck + Jk.T @ lk).max() / max(1.0, np.abs(ck).max())
            out[live[k]] = KernelSolution(x=vk.copy(), objective_value=float(ck @ vk),
                                          kkt_residual=float(kkt), iterations=step, status=status,
                                          path_objectives=paths[live[k]])

    for step in range(_MAX_STEPS + 1):
        x = v.take(S.r_var, axis=-2)
        J = S.jac(v, x)
        inv_s = -1.0 / g
        w = lam * inv_s
        rhs[..., 1:] = J.swapaxes(-1, -2) @ inv_s
        X, failed = _newton(S.hess(v, lam, (J * w).swapaxes(-1, -2) @ J, x), rhs)
        P = rhs.swapaxes(-1, -2) @ X  # per program ((cc, cu), (cu, uu))
        cc, cu, uu = P[:, :1, :1], P[:, :1, 1:], P[:, 1:, 1:]
        if step == 0:
            t = np.where(cu < 0, -cu / cc, _T0)
            cc, cu, uu = cc * t, cu * t, uu * t
            coef[:, 1:] = -1.0 / t
            lam, w, X = lam / t, w / t, X * t
        dec = t * cc + 2.0 * cu + uu / t
        if failed.size or step == _MAX_STEPS or (dec <= _CENTERED).any():
            ended = np.zeros(len(t), dtype=bool)
            ended[failed] = True  # its dec is NaN, so it is not centered below
            for k in failed:
                out[live[k]] = NumericalFailure("Newton system unsolvable after regularization")
            centered = (dec <= _CENTERED) & (np.abs(t * lam * g + 1.0).max(axis=-2, keepdims=True) <= _CENTERED)
            if centered.any():
                obj = ct @ v
                bound = _GAP_TOL * (gap_ref + np.abs(obj))
                final = S.m / t <= bound
                done, rise = centered & final & (dec <= _FINAL), centered & ~final
                for k in np.flatnonzero(done | rise):
                    paths[live[k]].append(obj.item(k))
                if rise.any():
                    # min(_MU t, 1.01 m / max(bound, 1e-300)) as _lone takes it
                    cap = 1.01 * S.m / np.where(bound < 1e-300, 1e-300, bound)
                    t = np.where(rise, np.where(cap < _MU * t, cap, _MU * t), t)
                    coef[:, 1:] = -1.0 / t
                    dec = t * cc + 2.0 * cu + uu / t
                ended |= done.ravel()
                finish(np.flatnonzero(done), "Converged")
            if step == _MAX_STEPS:
                finish(np.flatnonzero(~ended), "MaxIterations")
                break
            if ended.any():
                keep = np.flatnonzero(~ended)
                if not keep.size:
                    break
                S, v, g, lam, c, ct, rhs, coef, J, X, w, inv_s, t, dec, live = _rows(
                    keep, S, v, g, lam, c, ct, rhs, coef, J, X, w, inv_s, t, dec, live)
        dv = X @ coef
        Jdv = J @ dv
        dlam = w * Jdv + inv_s / t - lam
        # min(1.0, _TO_BOUNDARY / max(r_v, 1e-300)) and
        # min(1.0, -_TO_BOUNDARY / min(r_lam, -1e-300)) as _lone takes them.
        r_v, r_lam = (Jdv * inv_s).max(axis=-2, keepdims=True), (dlam / lam).min(axis=-2, keepdims=True)
        alpha = _TO_BOUNDARY / np.where(r_v < 1e-300, 1e-300, r_v)
        alpha = np.where(alpha < 1.0, alpha, 1.0)
        alpha_d = -_TO_BOUNDARY / np.where(r_lam > -1e-300, -1e-300, r_lam)
        alpha_d = np.where(alpha_d < 1.0, alpha_d, 1.0)
        tcdv = t * (ct @ dv)
        # Backtrack on the change of the barrier, summed term by term, in
        # every program still searching: each halves its own step until the
        # barrier falls or the step is at most 1e-14, and then keeps v.
        trial, g_t = v, g
        search = np.flatnonzero(alpha > 1e-14)
        while search.size:
            if search.size == len(t):
                k, a, tr, gb = None, alpha, v + alpha * dv, g
            else:
                k, a = search, alpha[search]
                tr, gb = v[k] + a * dv[k], g[k]
            gr, inside = S.interior(tr, k)
            sums = np.log((gr if inside is None else np.where(inside, gr, gb)) / gb).sum(axis=-2, keepdims=True)
            ok = a * (tcdv if k is None else tcdv[k]) - sums <= -_DECREASE * a * (dec if k is None else dec[k])
            ok = (ok if inside is None else ok & inside).ravel()
            if k is None and ok.all():
                trial, g_t = tr, gr
                break
            if ok.any():
                if trial is v:
                    trial, g_t = v.copy(), g.copy()
                trial[search[ok]], g_t[search[ok]] = tr[ok], gr[ok]
            back = search[~ok]
            alpha[back] *= 0.5
            search = back[alpha[back].ravel() > 1e-14]
        stalled = (alpha <= 1e-14).ravel()
        if stalled.any():  # no step lowers the barrier: stop at the old point
            finish(np.flatnonzero(stalled), "MaxIterations")
            keep = np.flatnonzero(~stalled)
            if not keep.size:
                break
            S, trial, g_t, lam, c, ct, rhs, coef, dlam, t, alpha_d, live = _rows(
                keep, S, trial, g_t, lam, c, ct, rhs, coef, dlam, t, alpha_d, live)
        v, g = trial, g_t
        lam = lam + alpha_d * dlam
    return out


def _rows(keep, S, *arrays):
    """S and every array restricted to the programs ``keep`` (an index array) of a batch."""
    return (S.take(keep),) + tuple(a[keep] for a in arrays)


def solve_batch(progs, gap_ref=1.0):
    """Primal-dual solves (see _lone) of programs of any structures; those
    of one structure (see the module docstring) are stepped together. Each
    stops at the first t whose duality-gap bound m/t is below
    _GAP_TOL * (gap_ref + |objective|) once its point is centered. gap_ref=0
    gives a purely relative stop for problems whose optimal value can be
    many orders of magnitude below 1 (it must then be strictly nonzero).

    Returns one entry per program, in order: its KernelSolution, or the
    CjoptError that stopped it (a start point that phase one could not
    find, or a Newton system no ridge made solvable). Each program's
    result is the one it gets alone."""
    groups = {}  # layout key -> [(position, compiled program)]
    for k, compiled in enumerate(map(_compile, progs)):
        groups.setdefault(compiled[1], []).append((k, compiled))
    out = [None] * len(progs)
    for group in groups.values():
        S, run = _Stacked([c for _, c in group]), [k for k, _ in group]
        starts = [progs[k].strictly_feasible_point for k in run]
        V = np.array([np.zeros(S.n) if v is None else v for v in starts], dtype=float)[:, :, None]
        inside = S.interior(V[0] if S.one else V)[1]
        ok = np.array([v is not None for v in starts]) & (True if inside is None else inside.ravel())
        for j in np.flatnonzero(~ok):
            try:
                V[j, :, 0], ok[j] = phase_one(progs[run[j]]), True
            except CjoptError as exc:
                out[run[j]], ok[j] = exc, False
        if ok.any():
            C = np.array([progs[k].objective for k in run], dtype=float)[:, :, None]
            # NaN from a singular Newton system (see _solve); logs of g >= 0 in _lone's line search
            with np.errstate(divide="ignore", invalid="ignore"):
                if S.one:
                    sols = [_lone(S, C[0], V[0], gap_ref)]
                else:
                    live = np.flatnonzero(ok)
                    sols = _path(S if ok.all() else S.take(live), C[live], V[live], gap_ref)
            for j, sol in zip(np.flatnonzero(ok), sols):
                out[run[j]] = sol
    return out


def solve(prog: ConvexProgram, gap_ref=1.0) -> KernelSolution:
    """solve_batch of one program, on the lone path; raises the CjoptError that stops it."""
    sol = solve_batch([prog], gap_ref)[0]
    if isinstance(sol, CjoptError):
        raise sol
    return sol


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

    The auxiliary-slack program (Boyd & Vandenberghe, *Convex
    Optimization*, 11.4): minimize s subject to g_i(v) <= s for every
    non-box constraint, with the boxes kept and s in a box of its own. It
    is an ordinary program, solved with ``solve`` from a start that is
    interior by construction; the first n_vars variables of its optimum
    are returned when they are interior. A solve that stopped short of
    Converged at a point that is not interior proves nothing and raises
    NumericalFailure.
    """
    n = prog.n_vars
    S = _Stacked([_compile(prog)])
    v0 = _phase_one_start(prog)
    g0, inside = S.interior(v0[:, None])
    if inside is None:
        return v0
    # Outside the domain g0 means nothing, and w is not interior either.
    w = np.append(v0, abs(max(g0[~S.box, 0], default=-1.0)) * 1.1 + 1.0)
    cons = [Box(idx=n, lo=-1.0, hi=w[n] + 1.0)]
    for c in prog.constraints:
        if not isinstance(c, Box):  # g_i(v) <= 0 becomes g_i(v) - s <= 0
            c = replace(c, a=np.append(c.a, -1.0))
            if isinstance(c, Quadratic):
                c = replace(c, M=np.hstack([c.M, np.zeros((len(c.M), 1))]))
        cons.append(c)
    aux = ConvexProgram(n_vars=n + 1, objective=np.eye(n + 1)[n],
                        constraints=cons, strictly_feasible_point=w)
    # solve would start phase one again from a start that is not interior.
    if _Stacked([_compile(aux)]).interior(w[:, None])[1] is not None:
        raise NumericalFailure("phase one could not construct an interior start")
    sol = solve(aux)
    x = sol.x
    if S.interior(x[:n, None])[1] is None:
        return x[:n].copy()
    if sol.status != "Converged":
        raise NumericalFailure(f"phase one stopped ({sol.status}) at {x[n]:.3e} before an interior point")
    raise InfeasibleProgram(f"phase-one optimum {x[n]:.3e} is not strictly negative")
