"""Optimal joint design when the jammer has enough degrees of freedom
(L >= K + Z): closed-form power allocation, a small convex program for the
jamming spectrum, and the minimal-norm jamming factor reconstruction."""

import numpy as np

from . import kernel
from .errors import IllConditioned, NumericalFailure, RankDeficient
from .feasibility import optimal_power
from .kernel import Box, ConvexProgram, LinearIneq, ReciprocalSum
from .model import ChannelSet, Precoder, SystemParams
from .numerics import well_conditioned
from .report import Design

__all__ = ["compute_phi", "solve_spectrum", "solve_eq14", "build_sigma", "solve_optimal"]

_HEADROOM_TOL = 1e-12


def compute_phi(G, B):
    """Per-direction jamming power prices: the diagonal of
    [G^H G - G^H B (B^H B)^{-1} B^H G]^{-1}.

    This is the cost of placing unit jamming power toward Eve's j-th
    direction while staying orthogonal to all user channels.
    """
    GG = G.conj().T @ G
    GB = G.conj().T @ B
    BB = B.conj().T @ B
    if not well_conditioned(BB):
        raise IllConditioned("B^H B is singular to working precision")
    schur = GG - GB @ np.linalg.solve(BB, GB.conj().T)
    if not well_conditioned(schur):
        raise IllConditioned("jamming Schur complement is singular (need L >= K + Z)")
    phi = np.diag(np.linalg.inv(schur)).real
    if np.any(phi <= 0):
        raise IllConditioned("non-positive jamming price; degenerate channel draw")
    return phi


def solve_spectrum(abs_a2, p, phi, headroom, b, params: SystemParams):
    """The jamming-spectrum program shared by the optimal design and the
    baselines: minimize eta over x (x_j = 1 / (sigma^2 + lambda_j)) s.t.

        sum_j phi_j / x_j <= b,  p_k sum_j |a_kj|^2 x_j <= eta,  0 < x_j <= 1/sigma^2,

    where b = headroom + sigma^2 sum_j phi_j is computed by the caller.
    abs_a2 holds |a_kj|^2 at [j, k].

    Returns (x, eta, status, iterations). With zero power headroom the
    kernel is skipped and the no-jamming spectrum x = 1/sigma^2 is
    returned with status "NoJammingPower".
    """
    sigma2 = params.sigma2
    Z = phi.shape[0]
    if headroom <= _HEADROOM_TOL * params.p_tot:
        x = np.full(Z, 1.0 / sigma2)
        eta = float(np.max(p * np.sum(abs_a2, axis=0) / sigma2))
        return x, eta, "NoJammingPower", 0

    n = Z + 1  # variables [x_1..x_Z, eta]
    cons = [ReciprocalSum(idx=np.arange(Z), coeff=phi, power=np.ones(Z), a=np.zeros(n), b=b)]
    for k in range(abs_a2.shape[1]):
        a = np.zeros(n)
        a[:Z] = p[k] * abs_a2[:, k]
        a[Z] = -1.0
        cons.append(LinearIneq(a=a, b=0.0))
    for j in range(Z):
        cons.append(Box(idx=j, lo=1e-12, hi=1.0 / sigma2))

    theta_min = sigma2 * phi.sum() / b
    v0 = np.empty(n)
    v0[:Z] = 0.5 * (1.0 + theta_min) / sigma2
    v0[Z] = 1.01 * float(np.max(p * (abs_a2.T @ v0[:Z]))) + 1e-12
    prog = ConvexProgram(n_vars=n, objective=np.eye(n)[Z], constraints=cons,
                         strictly_feasible_point=v0)
    sol = kernel.solve(prog, gap_ref=0.0)
    return sol.x[:Z].copy(), float(sol.objective_value), sol.status, sol.iterations


def solve_eq14(pre: Precoder, ch: ChannelSet, params: SystemParams, p_opt, phi=None):
    """Minimize the largest per-stream SINR bound at Eve over the jamming
    spectrum when the transmitter uses p_opt and the jammer the rest of
    the budget (solve_spectrum with the exact prices phi).

    Returns (x, eta, status, iterations).
    """
    p_opt = np.asarray(p_opt, dtype=float)
    if phi is None:
        phi = compute_phi(ch.G, ch.B)
    phi = np.asarray(phi, dtype=float)
    headroom = params.p_tot - float(np.sum(p_opt))
    b = params.p_tot + params.sigma2 * phi.sum() - float(np.sum(p_opt))
    return solve_spectrum(np.abs(pre.A) ** 2, p_opt, phi, headroom, b, params)


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
    joint = np.hstack([ch.G, ch.B])
    gram = joint.conj().T @ joint
    if not well_conditioned(gram):
        raise RankDeficient("[G B] lost full column rank; need L >= K + Z")
    Z = ch.G.shape[1]
    K = ch.B.shape[1]
    rhs = np.vstack([np.diag(np.sqrt(lam)).astype(np.complex128), np.zeros((K, Z))])
    Gamma_H = joint @ np.linalg.solve(gram, rhs)  # L x Z
    Sigma = Gamma_H @ Gamma_H.conj().T
    # Construction self-checks (the two defining equalities); NaN fails too.
    scale = max(np.abs(Gamma_H).max(), 1.0)
    if not np.abs(ch.G.conj().T @ Gamma_H - np.diag(np.sqrt(lam))).max() <= 1e-9 * scale:
        raise NumericalFailure("jamming factor misses G^H Gamma^H = Lambda^{1/2}")
    if not np.abs(ch.B.conj().T @ Gamma_H).max() <= 1e-9 * scale:
        raise NumericalFailure("jamming factor leaks into the users: B^H Gamma^H != 0")
    return Gamma_H.conj().T, Sigma


def solve_optimal(pre: Precoder, ch: ChannelSet, params: SystemParams) -> Design:
    """Full pipeline: closed-form p, jamming-spectrum program, minimal-norm
    covariance reconstruction. eta is the eq14 optimum and iterations its
    Newton steps."""
    if params.l < params.k + params.z:
        raise RankDeficient(f"optimal design needs L >= K + Z (L={params.l}, K+Z={params.k + params.z})")
    p = optimal_power(pre, params)
    phi = compute_phi(ch.G, ch.B)
    x, eta, status, iterations = solve_eq14(pre, ch, params, p, phi=phi)
    _, Sigma = build_sigma(ch, x, params.sigma2)
    return Design(p=p, x=x, Sigma=Sigma, eta=eta, status=status, iterations=iterations)
