"""Optimal joint design when the jammer has enough degrees of freedom
(L >= K + Z): closed-form power allocation, a small convex program for the
jamming spectrum, and the minimal-norm jamming factor reconstruction.

The design runs in two steps that a sweep can take apart: a Spectrum,
which carries its kernel program, and the Design built from the solved
program. solve_eq14 solves one Spectrum alone. dual_spectrum solves the
same program family in its K-variable Lagrange dual, without the kernel;
the alternating design's cap-free spectrum block runs on it."""

from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import CjoptError, IllConditioned, InfeasibleProgram, NumericalFailure, RankDeficient
from .feasibility import optimal_power
from .kernel import Box, ConvexProgram, LinearIneq, ReciprocalSum
from .model import ChannelSet, Precoder, SystemParams
from .numerics import well_conditioned
from .report import Design

__all__ = ["Spectrum", "compute_phi", "make_spectrum", "dual_spectrum", "priced_spectrum", "spectrum_result",
           "solve_eq14", "build_sigma", "optimal_spectrum", "spectrum_design", "solve_optimal"]

_HEADROOM_TOL = 1e-12
_DUAL_GAP = 1e-12  # dual_spectrum's certified relative gap, level face and interior scaling of y
_DUAL_MAX_STEPS = 100
_TINY = np.finfo(float).tiny


class Spectrum(NamedTuple):
    """One jamming-spectrum program (see make_spectrum) and what its
    result needs: |a_kj|^2 at [j, k], the transmit powers p, the noise
    power sigma2, and the kernel program, None at zero power headroom
    (see priced_spectrum)."""

    abs_a2: np.ndarray
    p: np.ndarray
    sigma2: float
    program: ConvexProgram | None


def compute_phi(ch: ChannelSet):
    """Per-direction jamming power prices: the diagonal of
    [G^H G - G^H B (B^H B)^{-1} B^H G]^{-1}, which by the block-inverse
    formula is the first Z diagonal entries of ([G B]^H [G B])^{-1}.

    This is the cost of placing unit jamming power toward Eve's j-th
    direction while staying orthogonal to all user channels. The inverse
    is the draw's ch.zero_forcing, which build_sigma reads too.
    """
    inv = ch.zero_forcing[1]
    if inv is None:
        raise IllConditioned("B^H B is singular to working precision" if not well_conditioned(ch.B.conj().T @ ch.B)
                             else "jamming Schur complement is singular (need L >= K + Z)")
    phi = inv.diagonal()[: ch.G.shape[1]].real.copy()
    if np.any(phi <= 0):
        raise IllConditioned("non-positive jamming price; degenerate channel draw")
    return phi


def make_spectrum(abs_a2, p, sigma2, prices, budget, hi, y0) -> Spectrum:
    """The jamming-spectrum program of every spectrum solve: minimize eta
    over y s.t.

        sum_j prices_j / y_j <= budget,  p_k sum_j |a_kj|^2 y_j <= eta,  1e-12 <= y_j <= hi,

    started at y0 and eta just above its bound. eq14 and the baselines
    solve it in y_j = x_j = 1/(sigma^2 + lambda_j) (see priced_spectrum).
    The alternating design's cap-free spectrum block, in y_j = 1/x_j^2, is
    the same program, which dual_spectrum solves exactly. eq14 stays on the
    kernel: perfbench's eq14 check (perfbench/reference.py, eq14_dual_bound)
    reads its dual weights off the slacks of a central-path point, and an
    exact optimum, with zero slack on every active user, fails it."""
    Z, K = abs_a2.shape
    n = Z + 1  # variables [y_1..y_Z, eta]
    rows = np.empty((K, n))  # p_k sum_j |a_kj|^2 y_j - eta <= 0
    rows[:, :Z] = p[:, None] * abs_a2.T
    rows[:, Z] = -1.0
    cons = [ReciprocalSum(idx=np.arange(Z), coeff=prices, power=np.ones(Z), a=np.zeros(n), b=budget),
            *(LinearIneq(a=a, b=0.0) for a in rows), *(Box(idx=j, lo=1e-12, hi=hi) for j in range(Z))]
    v0 = np.empty(n)
    v0[:Z] = y0
    v0[Z] = 1.01 * float(np.max(p * (abs_a2.T @ v0[:Z]))) + 1e-12
    prog = ConvexProgram(n_vars=n, objective=np.eye(n)[Z], constraints=cons, strictly_feasible_point=v0)
    return Spectrum(abs_a2, p, sigma2, prog)


def _cap_points(d, prices, budget, hi):
    """The minimizer y of d . y over sum_j prices_j / y_j <= budget and
    0 < y <= hi for d >= 0, with h = d . y, u_j = sqrt(prices_j / d_j) on
    the unclipped set (0 on the clipped one) and
    budget' = budget - sum_clipped prices_j / hi.

    y_j = min(hi, sqrt(nu prices_j / d_j)) at the nu of the tight budget.
    With q = sqrt(d / prices), the budget used at the breakpoint of y_j,
    nu = hi^2 q_j^2, is sum_i prices_i max(q_i, q_j) / (hi q_j), so y_j is
    clipped exactly when that reaches the budget. The unclipped y_j = s u_j
    spend budget' with s = sum_unclipped prices_j q_j / budget'."""
    q = np.sqrt(d / prices)
    clip = prices @ np.maximum.outer(q, q) >= budget * hi * q
    u = 1.0 / np.where(clip, np.inf, q)
    rest = budget - prices @ clip / hi
    y = np.where(clip, hi, prices @ np.where(clip, 0.0, q) / rest * u)
    return y, d @ y, u, rest


def dual_spectrum(abs_a2, p, prices, budget, hi):
    """make_spectrum's program with y > 0 (no lower bound) in place of
    1e-12 <= y, solved in its Lagrange dual over the K user weights w on
    the simplex (Boyd & Vandenberghe, *Convex Optimization*, ch. 5):

        minimize max_k c_k . y  s.t.  sum_j prices_j / y_j <= budget,  0 < y_j <= hi,

    with c_k = p_k |a_k|^2. The dual function is h(w) = min_y d . y over
    the budget and the box, d = sum_k w_k c_k, at the y(w) of _cap_points;
    without clipping h = (sum_j sqrt(prices_j d_j))^2 / budget. y(w) is
    feasible, so max_k c_k . y(w) - h(w) is a certified gap, and
    dh/dw_k = c_k . y(w), user k's bound. On the unclipped set the Hessian
    in d is u u^T / (2 budget') - diag(y / (2 d)).

    An active-set Newton method maximizes h. It starts from the best
    vertex (by h without clipping), adds the best user outside the face
    once the face is level (the spread of its bounds is at most 1e-12 h),
    steps on the face with sum w = 1 and a ridge of 1e-14 |tr H| (the face
    Hessian is singular when the face holds more users than y has
    unclipped entries), drops the user that blocks a step, and backtracks
    on h (Armijo). It stops at a certified gap of 1e-12 h (Converged), or
    after 100 steps or in a stalled line search (MaxIterations). The
    unclipped y is scaled by 1 + 1e-12 before it is returned, so that the
    budget has strict slack.

    Returns (y, eta, status, iterations) as spectrum_result does: eta is
    max_k c_k . y at the returned y, iterations the Newton steps."""
    CT = (np.asarray(abs_a2, dtype=float) * np.asarray(p, dtype=float)).T.copy()  # row k is c_k
    prices = np.asarray(prices, dtype=float)
    if not budget > prices.sum() / hi:
        raise InfeasibleProgram("budget leaves no interior for the spectrum")
    face = [int(np.argmax(np.sqrt(CT * prices).sum(axis=1)))]
    wf = np.ones(1)  # the weights of the face's users; the others are 0
    y, h, u, rest = _cap_points(CT[face[0]], prices, budget, hi)
    status = "MaxIterations"
    for it in range(_DUAL_MAX_STEPS + 1):
        g = CT @ y
        if g.max() - h <= _DUAL_GAP * h:
            status = "Converged"
            break
        if it == _DUAL_MAX_STEPS:
            break
        gf = g[face]
        entering = False
        if gf.max() - gf.min() <= _DUAL_GAP * h and len(face) < len(CT):
            outside = g.copy()
            outside[face] = -np.inf
            out = int(np.argmax(outside))
            if g[out] > h:
                face.append(out)
                wf = np.append(wf, 0.0)
                gf = g[face]
                entering = True
        # Newton step on the face in v = (t, -sum t), a basis of sum v = 0
        # that keeps the Hessian's null direction w out of the system; d
        # moves by E t.
        Cf = CT[face]
        E = Cf[:-1] - Cf[-1]
        curv = y * u * u / (2.0 * prices)  # y / (2 d), 0 where y is clipped
        Eu = E @ u
        R = (E * curv) @ E.T - np.outer(Eu, Eu) / (2.0 * rest)
        R.flat[:: len(R) + 1] += 1e-14 * np.trace(R) + _TINY
        t = np.linalg.solve(R, E @ y)
        v = np.append(t, -t.sum())
        if entering and v[-1] <= 0.0:
            # A Frank-Wolfe step towards the vertex of the entering user,
            # whose weight is still 0, to the top of its quadratic model.
            v = -wf
            v[-1] = 1.0
            dv = v @ Cf
            bend = float(dv @ (curv * dv) - (u @ dv) ** 2 / (2.0 * rest))
            v *= min(1.0, (gf[-1] - h) / bend) if bend > 0.0 else 1.0
        slope = float((gf - h) @ v)  # sum v = 0: g - h keeps the slope off the round-off of g
        if not slope > 0.0:
            break
        ratios = np.where(v < 0.0, wf / np.maximum(-v, _TINY), np.inf)
        block = int(np.argmin(ratios))
        step = min(1.0, ratios[block])
        for _ in range(60):
            w_try = np.maximum(wf + step * v, 0.0)
            if step == ratios[block]:
                w_try[block] = 0.0
            y_t, h_t, u_t, rest_t = _cap_points(w_try @ Cf, prices, budget, hi)
            # A step whose gain h cannot resolve is taken in full: the spread
            # of the bounds, and so the gap, still falls with it.
            if h_t >= h + 1e-4 * step * slope or slope <= 1e-14 * h:
                break
            step *= 0.5
        else:
            break
        y, h, u, rest = y_t, float(h_t), u_t, float(rest_t)
        keep = w_try > 0.0
        face = [i for i, kept in zip(face, keep) if kept]
        wf = w_try[keep]
    y = np.where(u > 0.0, np.minimum(y * (1.0 + _DUAL_GAP), hi), y)
    return y, float(np.max(CT @ y)), status, it


def priced_spectrum(pre: Precoder, params: SystemParams, p, phi, headroom, b) -> Spectrum:
    """The spectrum program shared by the optimal design and the
    baselines, at the prices phi: y = x in (0, 1/sigma^2] and budget
    b = headroom + sigma^2 sum_j phi_j, computed by the caller. With zero
    power headroom there is no program (see spectrum_result)."""
    abs_a2 = np.abs(pre.A) ** 2
    if headroom <= _HEADROOM_TOL * params.p_tot:
        return Spectrum(abs_a2, p, params.sigma2, None)
    theta_min = params.sigma2 * phi.sum() / b
    y0 = np.full(abs_a2.shape[0], 0.5 * (1.0 + theta_min) / params.sigma2)
    return make_spectrum(abs_a2, p, params.sigma2, phi, b, 1.0 / params.sigma2, y0)


def eq14_spectrum(pre: Precoder, params: SystemParams, p_opt, phi) -> Spectrum:
    """The eq14 program: the transmitter uses p_opt and the jammer the
    rest of the budget, at the exact prices phi."""
    p_opt = np.asarray(p_opt, dtype=float)
    phi = np.asarray(phi, dtype=float)
    headroom = params.p_tot - float(np.sum(p_opt))
    b = params.p_tot + params.sigma2 * phi.sum() - float(np.sum(p_opt))
    return priced_spectrum(pre, params, p_opt, phi, headroom, b)


def spectrum_result(spec: Spectrum, sol):
    """(y, eta, status, iterations) of spec from the kernel solution of
    its program (or the CjoptError that stopped it, raised). Without a
    program (sol None) it is the no-jamming spectrum y = 1/sigma^2 with
    status "NoJammingPower"."""
    if sol is None:
        eta = float(np.max(spec.p * np.sum(spec.abs_a2, axis=0) / spec.sigma2))
        return np.full(spec.abs_a2.shape[0], 1.0 / spec.sigma2), eta, "NoJammingPower", 0
    if isinstance(sol, CjoptError):
        raise sol
    return sol.x[:-1].copy(), float(sol.objective_value), sol.status, sol.iterations


def solve_eq14(spec: Spectrum):
    """Minimize the largest per-stream SINR bound at Eve over the jamming
    spectrum (spec from priced_spectrum: eq14's, the fixed split's or the
    limit's): the spectrum_result of spec's program solved alone. Raises
    the CjoptError that stopped the solve."""
    return spectrum_result(spec, None if spec.program is None else kernel.solve(spec.program, gap_ref=0.0))


def build_sigma(ch: ChannelSet, x, sigma2):
    """Minimal-norm jamming factor meeting G^H Gamma^H = Lambda^{1/2} and
    B^H Gamma^H = 0, with lambda_j = 1/x_j - sigma^2.

    Returns (Gamma, Sigma). Raises RankDeficient if [G B] is not full
    column rank (L < K + Z or a degenerate draw).
    """
    x = np.asarray(x, dtype=float)
    lam = 1.0 / x - sigma2
    # Radicand round-off clamp for x_j at (or numerically past) 1/sigma^2.
    if np.any(lam < -1e-9 * max(sigma2, float(np.abs(lam).max()))):
        raise ValueError("jamming spectrum outside (0, 1/sigma^2]")
    lam = np.clip(lam, 0.0, None)
    joint, inv = ch.zero_forcing
    if inv is None:
        raise RankDeficient("[G B] lost full column rank; need L >= K + Z")
    Gamma_H = joint @ (inv[:, : ch.G.shape[1]] * np.sqrt(lam))  # L x Z: [G B] gram^-1 [Lambda^{1/2}; 0]
    Sigma = Gamma_H @ Gamma_H.conj().T
    # Construction self-checks (the two defining equalities); NaN fails too.
    scale = max(np.abs(Gamma_H).max(), 1.0)
    if not np.abs(ch.G.conj().T @ Gamma_H - np.diag(np.sqrt(lam))).max() <= 1e-9 * scale:
        raise NumericalFailure("jamming factor misses G^H Gamma^H = Lambda^{1/2}")
    if not np.abs(ch.B.conj().T @ Gamma_H).max() <= 1e-9 * scale:
        raise NumericalFailure("jamming factor leaks into the users: B^H Gamma^H != 0")
    return Gamma_H.conj().T, Sigma


def optimal_spectrum(pre: Precoder, ch: ChannelSet, params: SystemParams) -> Spectrum:
    """The optimal design's first step: eq14 at optimal_power's QoS powers and the prices phi."""
    p = optimal_power(pre, params)
    if params.l < params.k + params.z:
        raise RankDeficient(f"optimal design needs L >= K + Z (L={params.l}, K+Z={params.k + params.z})")
    return eq14_spectrum(pre, params, p, compute_phi(ch))


def spectrum_design(ch: ChannelSet, params: SystemParams, spec: Spectrum, result) -> Design:
    """The Design of a solved spectrum (result as spectrum_result gives
    it): spec's powers and the minimal-norm covariance on ch. eta is the
    program's optimum and iterations its Newton steps."""
    x, eta, status, iterations = result
    _, Sigma = build_sigma(ch, x, params.sigma2)
    return Design(p=spec.p, x=x, Sigma=Sigma, eta=eta, status=status, iterations=iterations)


def solve_optimal(pre: Precoder, ch: ChannelSet, params: SystemParams) -> Design:
    """Full pipeline: closed-form p, jamming-spectrum program, minimal-norm
    covariance reconstruction. eta is the eq14 optimum and iterations its
    Newton steps. The design is the best zero-forcing one (B^H Sigma = 0); one
    that leaks into the users can beat it at low power, less as P_tot grows."""
    spec = optimal_spectrum(pre, ch, params)
    return spectrum_design(ch, params, spec, solve_eq14(spec))
