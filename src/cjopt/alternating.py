"""Suboptimal alternating design usable for any jammer antenna count.

The jamming factor Gamma is parametrized through the null space of G^H:
Gamma^H = P diag(x) + N W, where P = G (G^H G)^{-1}, N spans null(G^H),
x holds the singular values of G^H Gamma^H and W is a free complex
matrix. Two convex blocks are alternated: the spectrum x (leaked powers
c fixed) and the leaked powers c (spectrum fixed). The block objective is
the high-power approximation of the per-stream SINR bound at Eve; all
reported metrics reinstate the noise exactly.

The real variable vectors of the two block programs are laid out as
[x | Re W | Im W | eta] (spectrum block with leak caps) and
[c | Re W | Im W | eta] (cap block), with W flattened row-major. W is
(L-Z) x Z, so it is empty when L = Z and the same code serves every jammer
antenna count. The spectrum block without leak caps (W = 0) is the
jamming-spectrum program of cjopt.optimal.make_spectrum in y_j = 1/x_j^2,
laid out as [y | eta].
"""

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import kernel
from .errors import Infeasible, NonMonotone, RankDeficient
from .feasibility import delta_inverse_neg, optimal_power
from .kernel import Box, ConvexProgram, LinearIneq, Quadratic, ReciprocalSum
from .metrics import sinr_eve_upper
from .model import ChannelSet, Precoder, SystemParams
from .optimal import Spectrum, make_spectrum, spectrum_result
from .report import Design

__all__ = ["AlternatingState", "gamma_nullspace_param", "solve_alternating", "b_zero_program", "b_zero_design",
           "solve_b_zero"]

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
        self.W0 = np.zeros((self.Lz, self.Z), complex)  # W of the minimal-norm factor
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
        gh = self.P @ np.diag(np.asarray(x, dtype=float)).astype(np.complex128) + self.N @ W
        return gh.conj().T  # Z x L

    def leaks_of(self, x, W):
        y = np.asarray(x, dtype=float)[:, None] * self.R + W.conj().T @ self.Nb
        return np.sum(np.abs(y) ** 2, axis=0)

    def trace_of(self, x, W):
        tx = float(np.sum(self.pj2 * np.asarray(x, dtype=float) ** 2))
        return tx + float(np.sum(np.abs(W) ** 2))

    def state_at(self, c_tilde, x, W, iteration):
        """The state at the block point (c_tilde, x, W)."""
        return AlternatingState(c_tilde=c_tilde, x=x, W=W, Gamma=self.gamma_of(x, W),
                                eta=self.eta_eval(c_tilde, x), iteration=iteration)

    def w_from_flat(self, flat):
        half = self.nw // 2
        Wr = flat[:half].reshape(self.Lz, self.Z)
        Wi = flat[half:].reshape(self.Lz, self.Z)
        return Wr + 1j * Wi

    def w_to_flat(self, W):
        return np.concatenate([W.real.ravel(), W.imag.ravel()])

    def leak_real_map(self, k, n, w_off, x_off=None, x_fixed=None):
        """Real 2Z x n map (M, d) with ||M v + d||^2 = ||Gamma b_k||^2, for
        W flattened at w_off and x either at x_off or fixed to x_fixed."""
        Z = self.Z
        M = np.zeros((2 * Z, n))
        d = np.zeros(2 * Z)
        j = np.arange(Z)
        if x_off is not None:
            M[j, x_off + j] = self.R[:, k].real
            M[Z + j, x_off + j] = self.R[:, k].imag
        else:
            yconst = np.asarray(x_fixed, dtype=float) * self.R[:, k]
            d[:Z] = yconst.real
            d[Z:] = yconst.imag
        # Entry i = m Z + j of the flat W is W[m, j], which adds Nb[m, k] W[m, j] to y_j.
        half = self.nw // 2
        i = np.arange(half)
        nb = np.repeat(self.Nb[:, k], Z)
        re, im = w_off + i, w_off + half + i
        M[i % Z, re], M[Z + i % Z, re] = nb.real, nb.imag
        M[i % Z, im], M[Z + i % Z, im] = nb.imag, -nb.real
        return M, d


def _block_solve(ws: _AltWorkspace, prog):
    """Kernel solve of one block program (relative stop); a MaxIterations
    status is kept in ws.kernel_status."""
    sol = kernel.solve(prog, gap_ref=0.0)
    if sol.status != "Converged":
        ws.kernel_status = sol.status
    return sol


def _spectrum_program(ws: _AltWorkspace, p, budget, start, leak_caps):
    """Block program over (x, W, eta): minimize the largest high-power
    SINR bound subject to the trace budget and the leak caps."""
    Z, nw = ws.Z, ws.nw
    n = Z + nw + 1
    E = np.eye(n)
    # Trace budget: diagonal quadratic (P columns are orthogonal to N).
    M = np.vstack([np.sqrt(ws.pj2)[:, None] * E[:Z], E[Z : Z + nw]])
    cons = [Quadratic(M=M, d=np.zeros(Z + nw), a=np.zeros(n), b=budget)]
    for k in range(ws.K):
        cons.append(ReciprocalSum(idx=np.arange(Z), coeff=p[k] * ws.abs_a2[:, k],
                                  power=2 * np.ones(Z), a=-E[n - 1], b=0.0))
    for k in range(ws.K):
        M, d = ws.leak_real_map(k, n, Z, x_off=0)
        cons.append(Quadratic(M=M, d=d, a=np.zeros(n), b=float(leak_caps[k])))
    for j in range(Z):
        cons.append(Box(idx=j, lo=_X_FLOOR))
    return ConvexProgram(n_vars=n, objective=E[n - 1], constraints=cons,
                         strictly_feasible_point=start)


def _cap_free(abs_a2, p, sigma2, prices, budget) -> Spectrum:
    """The spectrum block without leak caps (W = 0): minimize eta s.t.
    sum_j prices_j x_j^2 <= budget, p_k sum_j |a_kj|^2 / x_j^2 <= eta and
    x_j >= _X_FLOOR. In y_j = 1/x_j^2 it is make_spectrum's program with
    y_j <= 1/_X_FLOOR^2, started at an equal split of the trace budget."""
    return make_spectrum(abs_a2, p, sigma2, prices, budget, _X_FLOOR ** -2, 2.0 * len(prices) * prices / budget)


def _cap_free_spectrum(ws: _AltWorkspace, prices, p, budget):
    """x of the solved cap-free spectrum block."""
    return 1.0 / np.sqrt(_block_solve(ws, _cap_free(ws.abs_a2, p, ws.sigma2, prices, budget).program).x[: ws.Z])


def _step1(ws: _AltWorkspace, state: AlternatingState) -> AlternatingState:
    """Given the leaked-power caps, update the jamming spectrum (and the
    null-space component of Gamma)."""
    p = ws.p_of(state.c_tilde)
    if np.any(p < 0) or p.sum() >= ws.params.p_tot:
        raise Infeasible("leaked-power caps leave no valid power allocation")
    budget = ws.params.p_tot - float(p.sum())
    prog = _spectrum_program(ws, p, budget, _step1_start(ws, state, budget), state.c_tilde)
    sol = _block_solve(ws, prog)
    x_new = np.maximum(sol.x[: ws.Z], _X_FLOOR)
    W_new = ws.w_from_flat(sol.x[ws.Z : ws.Z + ws.nw])
    # Monotone safeguard: the incumbent block value is always feasible.
    if ws.eta_eval(state.c_tilde, x_new) > ws.eta_eval(state.c_tilde, state.x):
        x_new, W_new = state.x, state.W
    return ws.state_at(state.c_tilde, x_new, W_new, state.iteration)


def _step1_start(ws: _AltWorkspace, state: AlternatingState, budget):
    """Shrink the incumbent slightly: scaling (x, W) down keeps every leak
    cap and the trace budget strictly slack."""
    shrink = 1.0 - 1e-3
    x0 = np.maximum(state.x * shrink, _X_FLOOR * 2)
    W0 = state.W * shrink
    if ws.trace_of(x0, W0) >= budget or np.any(ws.leaks_of(x0, W0) >= state.c_tilde):
        return None  # fall back to phase one
    p = ws.p_of(state.c_tilde)
    eta0 = 1.01 * float(np.max(p * ws.s_of(x0))) + 1e-12
    return np.concatenate([x0, ws.w_to_flat(W0), [eta0]])


def _step1_zero_forcing(ws: _AltWorkspace, S, state: AlternatingState) -> AlternatingState:
    """First block update at c = 0 when [G B] has full column rank: the
    leak caps become equalities, solved exactly by restricting Gamma^H to
    the minimal-norm solution S diag(x) of the stacked equality system."""
    c = np.zeros(ws.K)
    p = ws.p_of(c)
    budget = ws.params.p_tot - float(p.sum())
    if budget <= 0:
        raise Infeasible("no power headroom for jamming")
    x_new = _cap_free_spectrum(ws, np.sum(np.abs(S) ** 2, axis=0), p, budget)
    W_new = ws.N.conj().T @ (S @ np.diag(x_new).astype(np.complex128))
    return ws.state_at(c, x_new, W_new, state.iteration)


def _step2(ws: _AltWorkspace, state: AlternatingState) -> AlternatingState:
    """Given the spectrum, update the leaked-power caps (and the
    null-space component of Gamma)."""
    K, nw = ws.K, ws.nw
    x = state.x
    s_k = ws.s_of(x)
    tx = float(np.sum(ws.pj2 * x**2))
    n = K + nw + 1
    E = np.eye(n)
    cons = []
    for k in range(K):
        M, d = ws.leak_real_map(k, n, K, x_fixed=x)
        cons.append(Quadratic(M=M, d=d, a=-E[k], b=0.0))
    # Power: ||W||^2 + tx + sum_k delta_k . (c + sigma2 1) <= P_tot.
    a_pow = np.zeros(n)
    a_pow[:K] = ws.delta_colsum
    cons.append(Quadratic(M=E[K : K + nw], d=np.zeros(nw), a=a_pow,
                          b=ws.params.p_tot - tx - ws.sigma2 * float(ws.delta_colsum.sum())))
    for k in range(K):
        delta_k = ws.Mdelta[k]
        a = np.zeros(n)
        a[:K] = -delta_k
        cons.append(LinearIneq(a=a, b=ws.sigma2 * float(delta_k.sum())))  # p_k >= 0
        a = np.zeros(n)
        a[:K] = s_k[k] * delta_k
        a[n - 1] = -1.0
        cons.append(LinearIneq(a=a, b=-ws.sigma2 * s_k[k] * float(delta_k.sum())))
    for k in range(K):
        cons.append(Box(idx=k, lo=0.0))

    prog = ConvexProgram(n_vars=n, objective=E[n - 1], constraints=cons,
                         strictly_feasible_point=_step2_start(ws, state, tx))
    sol = _block_solve(ws, prog)
    c_new = np.maximum(sol.x[:K], 0.0)
    W_new = ws.w_from_flat(sol.x[K : K + nw])
    if ws.eta_eval(c_new, x) > ws.eta_eval(state.c_tilde, x):
        c_new, W_new = state.c_tilde, state.W
    return ws.state_at(c_new, x, W_new, state.iteration)


def _step2_start(ws: _AltWorkspace, state: AlternatingState, tx):
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
    eta0 = 1.01 * float(np.max(p0 * ws.s_of(state.x))) + 1e-12
    return np.concatenate([c0, ws.w_to_flat(state.W), [eta0]])


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
    x = _cap_free_spectrum(ws, ws.pj2, p, budget)
    c = ws.leaks_of(x, ws.W0) * (1.0 + 1e-9)
    p_new = ws.p_of(c)
    if np.any(p_new < 0) or ws.trace_of(x, ws.W0) + float(p_new.sum()) > ws.params.p_tot:
        return None
    return ws.state_at(c, x, ws.W0, state.iteration)


def _warm_start_c(ws: _AltWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """Strictly feasible initial leak caps and spectrum (c, x) when exact
    zero-forcing is impossible: take the minimal-norm factor at an
    equal-split spectrum and cap at its actual leakage."""
    p0 = ws.sigma2 * (ws.Mdelta @ np.ones(ws.K))
    h = ws.params.p_tot - float(p0.sum())
    x = np.sqrt(0.5 * h / (ws.Z * ws.pj2))
    for _ in range(200):
        c = ws.leaks_of(x, ws.W0) * (1.0 + 1e-6) + 1e-15
        p = ws.p_of(c)
        used = ws.trace_of(x, ws.W0) + float(p.sum())
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
    optimal_power(pre, params)  # the existence test: raises Infeasible
    ws = _AltWorkspace(pre, ch, params)
    joint, inv = ch.zero_forcing if params.l >= params.k + params.z else (None, None)
    zf_possible = inv is not None
    if zf_possible:
        S = (joint @ inv)[:, : params.z]  # columns scale with x_j
        c0 = np.zeros(params.k)
        x0 = np.full(params.z, np.nan)
    else:
        c0, x0 = _warm_start_c(ws)
    state = AlternatingState(
        c_tilde=c0,
        x=x0,
        W=ws.W0,
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
            state = _step1_zero_forcing(ws, S, state)
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


def b_zero_program(pre: Precoder, ch: ChannelSet, params: SystemParams, p) -> Spectrum:
    """b_zero's first step: the cap-free spectrum program on the headroom
    left by the QoS powers p (those of optimal_power)."""
    P, _ = gamma_nullspace_param(ch.G)
    budget = params.p_tot - float(np.sum(np.abs(p)))
    if budget <= 0:
        raise Infeasible("no power headroom for jamming")
    return _cap_free(np.abs(pre.A) ** 2, p, params.sigma2, np.sum(np.abs(P) ** 2, axis=0), budget)


def b_zero_design(ch: ChannelSet, params: SystemParams, spec: Spectrum, result) -> Design:
    """The minimal-norm factor Gamma^H = P diag(x) at a solved cap-free
    spectrum (result as spectrum_result gives it, x = 1/sqrt(y)). eta is
    the high-power block objective."""
    y, eta, status, _ = result
    x = 1.0 / np.sqrt(y)
    gamma_h = gamma_nullspace_param(ch.G)[0] * x
    return Design(p=spec.p, x=x, Sigma=gamma_h @ gamma_h.conj().T, eta=eta, status=status, iterations=0)


def solve_b_zero(pre: Precoder, ch: ChannelSet, params: SystemParams) -> Design:
    """High-power optimal design with the jammer-to-users channel treated
    as exactly zero: leaks vanish, so the minimal-norm factor at the
    optimal spectrum is the answer: b_zero_program and b_zero_design around one solve."""
    spec = b_zero_program(pre, ch, params, optimal_power(pre, params))
    return b_zero_design(ch, params, spec, spectrum_result(spec, kernel.solve(spec.program, gap_ref=0.0)))
