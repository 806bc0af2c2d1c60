"""Suboptimal alternating design usable for any jammer antenna count.

The jamming factor Gamma is parametrized through the null space of G^H:
Gamma^H = P diag(x) + N W, where P = G (G^H G)^{-1}, N spans null(G^H),
x holds the singular values of G^H Gamma^H and W is a free complex
matrix. Two convex blocks are alternated: the spectrum x (leaked powers
c fixed) and the leaked powers c (spectrum fixed). The block objective is
the high-power approximation of the per-stream SINR bound at Eve; all
reported metrics reinstate the noise exactly.
"""

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import kernel
from .errors import Infeasible, NonMonotone, RankDeficient
from .feasibility import check_existence, delta_inverse_neg
from .kernel import Box, ConvexProgram, LinearIneq, Quadratic, ReciprocalSum
from .metrics import sinr_eve_upper
from .model import ChannelSet, Precoder, SystemParams
from .report import Design

__all__ = ["AlternatingState", "gamma_nullspace_param", "solve_alternating", "solve_b_zero"]

_X_FLOOR = 1e-12


@dataclass(frozen=True)
class AlternatingState:
    c_tilde: np.ndarray  # received jamming power cap per user
    x: np.ndarray  # singular values of G^H Gamma^H
    W: np.ndarray  # null-space coefficient, (L-Z) x Z complex
    Gamma: np.ndarray  # Z x L
    eta: float  # block objective (high-power approximation)
    iteration: int


def gamma_nullspace_param(G):
    """Particular solution and null-space basis for G^H Gamma^H = I.

    Returns (particular, basis): particular = G (G^H G)^{-1} meets the
    equality, and basis has orthonormal columns spanning null(G^H), so
    Gamma^H = particular diag(x) + basis @ W gives G^H Gamma^H = diag(x)
    for arbitrary W. Raises RankDeficient if G loses full column rank.
    """
    G = np.asarray(G, dtype=np.complex128)
    Z = G.shape[1]
    U, s, _ = np.linalg.svd(G, full_matrices=True)
    if s.size < Z or s.min() <= 1e-12 * max(s.max(), 1e-300):
        raise RankDeficient("G is not full column rank")
    particular = G @ np.linalg.solve(G.conj().T @ G, np.eye(Z, dtype=np.complex128))
    return particular, U[:, Z:]


class _AltWorkspace:
    """Instance-constant maps shared by both block programs."""

    def __init__(self, pre: Precoder, ch: ChannelSet, params: SystemParams):
        self.params = params
        self.Z = params.z
        self.K = params.k
        self.Lz = params.l - params.z
        self.sigma2 = params.sigma2
        self.Mdelta = delta_inverse_neg(pre.Delta)  # p = Mdelta @ (c + sigma2 * 1)
        self.abs_a2 = np.abs(pre.A) ** 2  # Z x K
        self.P, self.N = gamma_nullspace_param(ch.G)  # G (G^H G)^{-1}: L x Z; L x (L - Z)
        self.pj2 = np.sum(np.abs(self.P) ** 2, axis=0)
        self.R = self.P.conj().T @ ch.B  # Z x K
        self.Nb = self.N.conj().T @ ch.B  # (L - Z) x K
        self.nw = 2 * self.Lz * self.Z  # real scalars in the W embedding
        self.delta_colsum = self.Mdelta.sum(axis=0)
        self.kernel_status = "Converged"  # MaxIterations once any block solve ran out

    def p_of(self, c_tilde):
        return self.Mdelta @ (np.asarray(c_tilde, dtype=float) + self.sigma2)

    def s_of(self, x):
        """Per-user high-power SINR factor sum_j |a_kj|^2 / x_j^2."""
        return np.sum(self.abs_a2 / np.asarray(x, dtype=float)[:, None] ** 2, axis=0)

    def eta_eval(self, c_tilde, x):
        return float(np.max(self.p_of(c_tilde) * self.s_of(x)))

    def gamma_of(self, x, W):
        gh = self.P @ np.diag(np.asarray(x, dtype=float)).astype(np.complex128)
        if self.Lz:
            gh = gh + self.N @ W
        return gh.conj().T  # Z x L

    def leaks_of(self, x, W):
        y = np.asarray(x, dtype=float)[:, None] * self.R
        if self.Lz:
            y = y + W.conj().T @ self.Nb
        return np.sum(np.abs(y) ** 2, axis=0)

    def trace_of(self, x, W):
        t = float(np.sum(self.pj2 * np.asarray(x, dtype=float) ** 2))
        if self.Lz:
            t += float(np.sum(np.abs(W) ** 2))
        return t

    def w_from_flat(self, flat):
        half = self.nw // 2
        Wr = flat[:half].reshape(self.Lz, self.Z)
        Wi = flat[half:].reshape(self.Lz, self.Z)
        return Wr + 1j * Wi

    def w_to_flat(self, W):
        return np.concatenate([W.real.ravel(), W.imag.ravel()])

    def leak_real_map(self, k, n, x_off=None, w_off=None, x_fixed=None):
        """Real 2Z x n map (M, d) with ||M v + d||^2 = ||Gamma b_k||^2."""
        Z, Lz = self.Z, self.Lz
        M = np.zeros((2 * Z, n))
        d = np.zeros(2 * Z)
        if x_off is not None:
            for j in range(Z):
                M[j, x_off + j] = self.R[j, k].real
                M[Z + j, x_off + j] = self.R[j, k].imag
        else:
            yconst = np.asarray(x_fixed, dtype=float) * self.R[:, k]
            d[:Z] = yconst.real
            d[Z:] = yconst.imag
        if w_off is not None and Lz:
            half = Lz * Z
            for m in range(Lz):
                for j in range(Z):
                    M[j, w_off + m * Z + j] = self.Nb[m, k].real
                    M[Z + j, w_off + m * Z + j] = self.Nb[m, k].imag
                    M[j, w_off + half + m * Z + j] = self.Nb[m, k].imag
                    M[Z + j, w_off + half + m * Z + j] = -self.Nb[m, k].real
        return M, d


def _block_solve(ws: _AltWorkspace, prog):
    """Kernel solve of one block program (relative stop); a MaxIterations
    status is kept in ws.kernel_status."""
    sol = kernel.solve(prog, gap_ref=0.0)
    if sol.status != "Converged":
        ws.kernel_status = sol.status
    return sol


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _spectrum_program(ws: _AltWorkspace, pj2, p, budget, start, leak_caps=None):
    """Block program over (x, W, eta): minimize the largest high-power
    SINR bound subject to the trace budget and optional leak caps. The
    spectrum part of the trace is sum_j pj2_j x_j^2; W enters only with
    leak caps."""
    Z, nw = ws.Z, ws.nw
    with_w = leak_caps is not None and ws.Lz > 0
    n = Z + (nw if with_w else 0) + 1
    eta_i = n - 1
    cons = []
    # Trace budget: diagonal quadratic (P columns are orthogonal to N).
    rows = []
    for j in range(Z):
        rows.append(np.sqrt(pj2[j]) * _unit(n, j))
    if with_w:
        for i in range(nw):
            rows.append(_unit(n, Z + i))
    cons.append(Quadratic(M=np.array(rows), d=np.zeros(len(rows)), a=np.zeros(n), b=budget))
    for k in range(ws.K):
        cons.append(
            ReciprocalSum(
                idx=np.arange(Z),
                coeff=p[k] * ws.abs_a2[:, k],
                power=2 * np.ones(Z),
                a=-_unit(n, eta_i),
                b=0.0,
            )
        )
    if leak_caps is not None:
        for k in range(ws.K):
            M, d = ws.leak_real_map(k, n, x_off=0, w_off=Z if with_w else None)
            cons.append(Quadratic(M=M, d=d, a=np.zeros(n), b=float(leak_caps[k])))
    for j in range(Z):
        cons.append(Box(idx=j, lo=_X_FLOOR))
    return ConvexProgram(n_vars=n, objective=_unit(n, eta_i), constraints=cons,
                         strictly_feasible_point=start)


def _cap_free_spectrum(ws: _AltWorkspace, pj2, p, budget):
    """Spectrum block without leak caps (W = 0), started at an equal split
    of the trace budget. Returns (x, eta)."""
    v0 = np.empty(ws.Z + 1)
    v0[: ws.Z] = np.sqrt(0.5 * budget / (ws.Z * pj2))
    v0[ws.Z] = 1.01 * float(np.max(p * ws.s_of(v0[: ws.Z]))) + 1e-12
    sol = _block_solve(ws, _spectrum_program(ws, pj2, p, budget, v0))
    return np.maximum(sol.x[: ws.Z], _X_FLOOR), float(sol.objective_value)


def _step1(ws: _AltWorkspace, state: AlternatingState) -> AlternatingState:
    """Given the leaked-power caps, update the jamming spectrum (and the
    null-space component of Gamma)."""
    p = ws.p_of(state.c_tilde)
    if np.any(p < 0) or p.sum() >= ws.params.p_tot:
        raise Infeasible("leaked-power caps leave no valid power allocation")
    budget = ws.params.p_tot - float(p.sum())
    prog = _spectrum_program(ws, ws.pj2, p, budget, _step1_start(ws, state, budget),
                             leak_caps=state.c_tilde)
    sol = _block_solve(ws, prog)
    x_new = np.maximum(sol.x[: ws.Z], _X_FLOOR)
    W_new = ws.w_from_flat(sol.x[ws.Z : ws.Z + ws.nw]) if ws.Lz else np.zeros((ws.Lz, ws.Z), complex)
    # Monotone safeguard: the incumbent block value is always feasible.
    if ws.eta_eval(state.c_tilde, x_new) > ws.eta_eval(state.c_tilde, state.x):
        x_new, W_new = state.x, state.W
    return dc_replace(
        state,
        x=x_new,
        W=W_new,
        Gamma=ws.gamma_of(x_new, W_new),
        eta=ws.eta_eval(state.c_tilde, x_new),
    )


def _step1_start(ws: _AltWorkspace, state: AlternatingState, budget):
    """Shrink the incumbent slightly: scaling (x, W) down keeps every leak
    cap and the trace budget strictly slack."""
    n = ws.Z + (ws.nw if ws.Lz else 0) + 1
    shrink = 1.0 - 1e-3
    x0 = np.maximum(state.x * shrink, _X_FLOOR * 2)
    W0 = state.W * shrink
    if ws.trace_of(x0, W0) >= budget or np.any(ws.leaks_of(x0, W0) >= state.c_tilde):
        return None  # fall back to phase one
    v0 = np.empty(n)
    v0[: ws.Z] = x0
    if ws.Lz:
        v0[ws.Z : ws.Z + ws.nw] = ws.w_to_flat(W0)
    p = ws.p_of(state.c_tilde)
    v0[n - 1] = 1.01 * float(np.max(p * ws.s_of(x0))) + 1e-12
    return v0


def _step1_zero_forcing(ws: _AltWorkspace, ch: ChannelSet, state: AlternatingState) -> AlternatingState:
    """First block update at c = 0 when [G B] has full column rank: the
    leak caps become equalities, solved exactly by restricting Gamma^H to
    the minimal-norm solution of the stacked equality system."""
    p = ws.p_of(state.c_tilde)
    budget = ws.params.p_tot - float(p.sum())
    if budget <= 0:
        raise Infeasible("no power headroom for jamming")
    joint = np.hstack([ch.G, ch.B])
    gram = joint.conj().T @ joint
    S = (joint @ np.linalg.inv(gram))[:, : ws.Z]  # columns scale with x_j
    x_new, _ = _cap_free_spectrum(ws, np.sum(np.abs(S) ** 2, axis=0), p, budget)
    gamma_h = S @ np.diag(x_new).astype(np.complex128)
    W_new = ws.N.conj().T @ gamma_h if ws.Lz else np.zeros((0, ws.Z), complex)
    return dc_replace(
        state,
        x=x_new,
        W=W_new,
        Gamma=gamma_h.conj().T,
        eta=ws.eta_eval(state.c_tilde, x_new),
    )


def _step2(ws: _AltWorkspace, state: AlternatingState) -> AlternatingState:
    """Given the spectrum, update the leaked-power caps (and the
    null-space component of Gamma)."""
    Z, K, nw = ws.Z, ws.K, ws.nw
    x = state.x
    s_k = ws.s_of(x)
    tx = float(np.sum(ws.pj2 * x**2))
    n = K + (nw if ws.Lz else 0) + 1
    w_off = K if ws.Lz else None
    eta_i = n - 1
    cons = []
    for k in range(K):
        M, d = ws.leak_real_map(k, n, w_off=w_off, x_fixed=x)
        cons.append(Quadratic(M=M, d=d, a=-_unit(n, k), b=0.0))
    # Power: ||W||^2 + tx + sum_k delta_k . (c + sigma2 1) <= P_tot.
    rows = [_unit(n, w_off + i) for i in range(nw)] if ws.Lz else []
    a_pow = np.zeros(n)
    a_pow[:K] = ws.delta_colsum
    cons.append(
        Quadratic(
            M=np.array(rows) if rows else np.zeros((0, n)),
            d=np.zeros(len(rows)),
            a=a_pow,
            b=ws.params.p_tot - tx - ws.sigma2 * float(ws.delta_colsum.sum()),
        )
    )
    for k in range(K):
        delta_k = ws.Mdelta[k]
        a = np.zeros(n)
        a[:K] = -delta_k
        cons.append(LinearIneq(a=a, b=ws.sigma2 * float(delta_k.sum())))  # p_k >= 0
        a = np.zeros(n)
        a[:K] = s_k[k] * delta_k
        a[eta_i] = -1.0
        cons.append(LinearIneq(a=a, b=-ws.sigma2 * s_k[k] * float(delta_k.sum())))
    for k in range(K):
        cons.append(Box(idx=k, lo=0.0))

    prog = ConvexProgram(
        n_vars=n,
        objective=_unit(n, eta_i),
        constraints=cons,
        strictly_feasible_point=_step2_start(ws, state, n, tx),
    )
    sol = _block_solve(ws, prog)
    c_new = np.maximum(sol.x[:K], 0.0)
    W_new = ws.w_from_flat(sol.x[w_off : w_off + nw]) if ws.Lz else np.zeros((0, Z), complex)
    if ws.eta_eval(c_new, x) > ws.eta_eval(state.c_tilde, x):
        c_new, W_new = state.c_tilde, state.W
    return dc_replace(
        state,
        c_tilde=c_new,
        W=W_new,
        Gamma=ws.gamma_of(x, W_new),
        eta=ws.eta_eval(c_new, x),
    )


def _step2_start(ws: _AltWorkspace, state: AlternatingState, n, tx):
    """Incumbent with leak caps inflated just enough to be interior while
    keeping power slack."""
    leaks = ws.leaks_of(state.x, state.W)
    slack = ws.params.p_tot - tx - (ws.trace_of(state.x, state.W) - tx) - float(ws.p_of(leaks).sum())
    # slack above uses c = leaks, the tightest caps matching the incumbent.
    if slack <= 0:
        return None
    denom = max(float(ws.delta_colsum.sum()), 1e-12)
    margin = min(1e-6 * (1.0 + float(leaks.max(initial=0.0))), 0.1 * slack / denom)
    if margin <= 0:
        return None
    c0 = leaks + margin
    p0 = ws.p_of(c0)
    if np.any(p0 <= 0) or ws.trace_of(state.x, state.W) + p0.sum() >= ws.params.p_tot:
        return None
    v0 = np.zeros(n)
    v0[: ws.K] = c0
    if ws.Lz:
        v0[ws.K : ws.K + ws.nw] = ws.w_to_flat(state.W)
    v0[n - 1] = 1.01 * float(np.max(p0 * ws.s_of(state.x))) + 1e-12
    return v0


def _leak_probe(ws: _AltWorkspace, state: AlternatingState):
    """Escape move for cap-pinned fixed points: resolve the spectrum block
    with the leak caps dropped, then charge the actual leakage of the
    resulting factor back into the caps. The alternation can stall because
    the cap of the worst-bound user sits exactly at its leakage, freezing
    the spectrum; when the leakage is weak the cap-free spectrum plus its
    true leakage is feasible and strictly better. Returns a candidate
    state or None if the cap-free design does not fit the budget."""
    p = ws.p_of(state.c_tilde)
    budget = ws.params.p_tot - float(p.sum())
    if budget <= 0:
        return None
    # Shave the trace budget a little so the leakage charged back after the
    # solve still fits the total power budget.
    budget *= 1.0 - 1e-6
    x, _ = _cap_free_spectrum(ws, ws.pj2, p, budget)
    W0 = np.zeros((ws.Lz, ws.Z), complex)
    c = ws.leaks_of(x, W0) * (1.0 + 1e-9)
    p_new = ws.p_of(c)
    if np.any(p_new < 0) or ws.trace_of(x, W0) + float(p_new.sum()) > ws.params.p_tot:
        return None
    return dc_replace(state, c_tilde=c, x=x, W=W0, Gamma=ws.gamma_of(x, W0),
                      eta=ws.eta_eval(c, x))


def _warm_start_c(ws: _AltWorkspace) -> np.ndarray:
    """Strictly feasible initial leak caps when exact zero-forcing is
    impossible: take the minimal-norm factor at an equal-split spectrum
    and cap at its actual leakage."""
    p0 = ws.sigma2 * (ws.Mdelta @ np.ones(ws.K))
    h = ws.params.p_tot - float(p0.sum())
    x = np.sqrt(0.5 * h / (ws.Z * ws.pj2))
    for _ in range(200):
        c = ws.leaks_of(x, np.zeros((ws.Lz, ws.Z), complex)) * (1.0 + 1e-6) + 1e-15
        p = ws.p_of(c)
        used = ws.trace_of(x, np.zeros((ws.Lz, ws.Z), complex)) + float(p.sum())
        if np.all(p > 0) and used < ws.params.p_tot * (1.0 - 1e-9):
            return c, x
        x = x * 0.7
    raise Infeasible("could not construct a strictly feasible warm start")


def solve_alternating(pre: Precoder, ch: ChannelSet, params: SystemParams,
                      max_iters=100, tol=1e-6):
    """Alternate the two block programs until the block objective settles.

    Returns (AlternatingState, Design). The state's eta is the block
    objective; the design's eta is the exact Eve bound (noise reinstated)
    on ch, and its iterations count the outer iterations.
    """
    feas = check_existence(pre, params)
    if not feas.feasible:
        raise Infeasible("QoS thresholds unattainable within the budget")
    ws = _AltWorkspace(pre, ch, params)
    joint = np.hstack([ch.G, ch.B])
    zf_possible = (
        params.l >= params.k + params.z
        and np.linalg.cond(joint.conj().T @ joint) < 1e12
    )
    if zf_possible:
        c0 = np.zeros(params.k)
        x0 = np.full(params.z, np.nan)
    else:
        c0, x0 = _warm_start_c(ws)
    state = AlternatingState(
        c_tilde=c0,
        x=x0,
        W=np.zeros((ws.Lz, params.z), complex),
        Gamma=np.zeros((params.z, params.l), complex),
        eta=np.inf,
        iteration=0,
    )

    eta_prev = np.inf
    stalls = 0
    for it in range(1, max_iters + 1):
        # Caps at (numerical) zero leave the general block with an empty
        # interior; with enough jammer antennas the zero-cap case is solved
        # exactly by the reduced program instead.
        if zf_possible and float(np.max(state.c_tilde, initial=0.0)) <= 1e-9 * ws.sigma2:
            state = dc_replace(state, c_tilde=np.zeros(params.k))
            state = _step1_zero_forcing(ws, ch, state)
        else:
            state = _step1(ws, state)
        eta_mid = state.eta
        state = _step2(ws, state)
        probe = _leak_probe(ws, state)
        if probe is not None and probe.eta < state.eta:
            state = probe
        state = dc_replace(state, iteration=it)
        eta = state.eta
        if eta > eta_prev + 1e-9 * max(1.0, eta_prev) or eta > eta_mid + 1e-9 * max(1.0, eta_mid):
            raise NonMonotone(f"block objective increased: {eta_prev} -> {eta_mid} -> {eta}")
        if np.isfinite(eta_prev):
            if abs(eta_prev - eta) < 1e-12 * max(eta, 1.0):
                stalls += 1
            else:
                stalls = 0
            if abs(eta_prev - eta) / max(eta, 1e-12) < tol or stalls >= 2:
                status = "Converged"
                break
        eta_prev = eta
    else:
        status = "MaxIterations"
    if status == "Converged":
        status = ws.kernel_status

    Sigma = state.Gamma.conj().T @ state.Gamma
    p = ws.p_of(state.c_tilde)
    eta = float(np.max(sinr_eve_upper(pre, ch, p, Sigma, params.sigma2)))
    return state, Design(p=p, x=state.x, Sigma=Sigma, eta=eta, status=status,
                         iterations=state.iteration)


def solve_b_zero(pre: Precoder, ch: ChannelSet, params: SystemParams) -> Design:
    """High-power optimal design with the jammer-to-users channel treated
    as exactly zero: leaks vanish, so the minimal-norm factor at the
    optimal spectrum is the answer. eta is the high-power block
    objective."""
    feas = check_existence(pre, params)
    if not feas.feasible:
        raise Infeasible("QoS thresholds unattainable within the budget")
    ws = _AltWorkspace(pre, ch, params)
    p0 = ws.sigma2 * (ws.Mdelta @ np.ones(ws.K))
    budget = params.p_tot - float(np.abs(p0).sum())
    if budget <= 0:
        raise Infeasible("no power headroom for jamming")
    x, eta = _cap_free_spectrum(ws, ws.pj2, p0, budget)
    Gamma = ws.gamma_of(x, np.zeros((ws.Lz, ws.Z), complex))
    return Design(p=feas.p_candidate, x=x, Sigma=Gamma.conj().T @ Gamma, eta=eta,
                  status=ws.kernel_status, iterations=0)
