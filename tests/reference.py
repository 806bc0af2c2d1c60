"""Validation references that only the tests use.

Eve's exact SINR, the secrecy rate with its two lower bounds and the
symbol-error-rate Monte Carlo show that the upper bound the solvers
minimize is sound; the Hermitian eigendecomposition and square root
check the metric formulas against an independent factorization; the
Lagrange-dual lower bound on eq14 certifies the optimal spectrum, and the
Z = 1 closed form pins it to the best zero-forcing design; the cap-free
spectrum block in its original variables checks the one that the library
solves in y = 1/x^2, and a Lagrange-dual lower bound at weights read off
its point certifies the dual solver's gap.
"""

import numpy as np

from cjopt.errors import CjoptError
from cjopt.kernel import Box, ConvexProgram, Quadratic, ReciprocalSum
from cjopt.metrics import _eve_noise_cov
from cjopt.model import ChannelSet, Precoder, _rng
from cjopt.numerics import check_hermitian, hermitian_solve


class NotPSD(CjoptError):
    """Matrix has an eigenvalue below the PSD tolerance."""


def sinr_eve_full(pre: Precoder, ch: ChannelSet, p, Sigma, sigma2):
    """Eve's per-stream output SINR under optimal receive beamforming,
    treating the other K-1 streams as interference.

    Computed in the inverse form: with M the full received covariance,
    q_k = p_k a_k^H M^{-1} a_k and SINR = q_k / (1 - q_k).
    """
    p = np.asarray(p, dtype=float)
    A = pre.A
    M = (A * p) @ A.conj().T + _eve_noise_cov(ch, Sigma, sigma2)
    X = hermitian_solve(M, A)
    q = p * np.einsum("zk,zk->k", A.conj(), X).real
    q = np.clip(q, 0.0, 1.0 - 1e-15)
    return q / (1.0 - q)


def secrecy_bounds(sinr_k, sinr_e, sinr_e_upper, rate_threshold):
    """Secrecy rate and its two lower bounds, per stream, in bits.

    Returns (c_se, c_se_l1, c_se_l2); each is clamped at zero per stream.
    """
    c_k = np.log2(1.0 + np.asarray(sinr_k, dtype=float))
    c_e = np.log2(1.0 + np.asarray(sinr_e, dtype=float))
    c_e_up = np.log2(1.0 + np.asarray(sinr_e_upper, dtype=float))
    c_se = np.maximum(c_k - c_e, 0.0)
    c_se_l1 = np.maximum(c_k - c_e_up, 0.0)
    c_se_l2 = np.maximum(rate_threshold - c_e_up, 0.0)
    return c_se, c_se_l1, c_se_l2


_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def _qpsk_slice(s):
    return (np.sign(s.real) + 1j * np.sign(s.imag)) / np.sqrt(2.0)


def ser_monte_carlo(pre: Precoder, ch: ChannelSet, p, Sigma, sigma2, constellation="qpsk",
                    trials=10_000, rng_seed=0):
    """Monte Carlo SER comparison at Eve for stream 1.

    ser_ml_full: exhaustive joint ML detection over the full K-stream model.
    ser_mf_reduced: whitened matched filter on the reduced single-stream
    model (the model behind the SINR upper bound).
    Returns (ser_ml_full, ser_mf_reduced).
    """
    if constellation != "qpsk":
        raise ValueError("only QPSK is supported")
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials")
    p = np.asarray(p, dtype=float)
    A = pre.A  # Z x K
    Z, K = A.shape
    C = _eve_noise_cov(ch, Sigma, sigma2)
    w_eig, V = np.linalg.eigh(C)
    Wh = (V / np.sqrt(w_eig)) @ V.conj().T  # C^{-1/2}
    Ch = (V * np.sqrt(w_eig)) @ V.conj().T  # C^{1/2}

    rng = _rng(rng_seed, stream=2)
    sym_idx = rng.integers(0, 4, size=(trials, K))
    symbols = _QPSK[sym_idx]  # trials x K
    noise = (rng.standard_normal((trials, Z)) + 1j * rng.standard_normal((trials, Z))) / np.sqrt(2.0)
    # Row-vector convention: a column sample Ch @ w has covariance C, and its
    # transpose is w_row @ Ch.T; whitening a row is r @ Wh.T.
    noise = noise @ Ch.T
    Wh_row = Wh.T

    scaled = A * np.sqrt(p)  # Z x K, column k = sqrt(p_k) a_k

    # Full model, joint ML over all 4^K symbol combinations.
    r_full = symbols @ scaled.T + noise  # trials x Z
    r_w = r_full @ Wh_row
    combos = np.stack(np.meshgrid(*([np.arange(4)] * K), indexing="ij"), axis=-1).reshape(-1, K)
    combo_sig = _QPSK[combos] @ (scaled.T @ Wh_row)  # (4^K) x Z
    cross = r_w @ combo_sig.conj().T  # trials x 4^K
    d2 = np.sum(np.abs(combo_sig) ** 2, axis=1)[None, :] - 2.0 * cross.real
    best = np.argmin(d2, axis=1)
    ser_ml_full = float(np.mean(combos[best, 0] != sym_idx[:, 0]))

    # Reduced model: only stream 1 present; whitened matched filter.
    r_red = symbols[:, :1] * scaled[:, 0][None, :] + noise
    a_hat = Wh_row.T @ scaled[:, 0]  # whitened effective vector
    s_hat = (r_red @ Wh_row) @ a_hat.conj() / np.sum(np.abs(a_hat) ** 2)
    ser_mf_reduced = float(np.mean(_qpsk_slice(s_hat) != symbols[:, 0]))

    return ser_ml_full, ser_mf_reduced


def eig_hermitian(A):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues sorted in
    descending order and unitary eigenvector columns, so that
    A = V diag(w) V^H.
    """
    A = check_hermitian(A)
    w, V = np.linalg.eigh(A)
    return w[::-1].copy(), V[:, ::-1].copy()


def psd_sqrt(A):
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-1e-10 * max_eig, 0) are clamped to zero (round-off
    from Gram products); anything lower raises NotPSD.
    """
    w, V = eig_hermitian(A)
    wmax = max(w.max(initial=0.0), 0.0)
    tol = 1e-10 * wmax
    if w.min(initial=0.0) < -tol:
        raise NotPSD(f"eigenvalue {w.min():.3e} below -1e-10 * {wmax:.3e}")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


def _budget_dual(d, prices, budget, cap):
    """Lagrange-dual lower bound on min d . y over sum_j prices_j / y_j <=
    budget and 0 < y <= cap, for d >= 0: for every nu >= 0 the Lagrangian
    has the minimizer y_j = min(cap, sqrt(nu prices_j / d_j)), and nu is
    the root of the budget, found by bisection on log10(nu)."""
    def minimizer(nu):
        return np.where(d > 0, np.minimum(cap, np.sqrt(nu * prices / np.where(d > 0, d, 1.0))), cap)

    lo, hi = -300.0, 300.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.sum(prices / minimizer(10.0 ** mid)) > budget else (lo, mid)
    nu = 10.0 ** hi
    ys = minimizer(nu)
    return float(d @ ys + nu * (np.sum(prices / ys) - budget))


def eq14_dual_bound(abs_a2, p, phi, sigma2, p_tot, x, eta):
    """Lagrange-dual lower bound on the optimum of eq14,

        min_x max_k p_k sum_j |a_kj|^2 x_j
        s.t. sum_j phi_j / x_j <= P_tot - sum(p) + sigma^2 sum(phi),  0 < x_j <= 1/sigma^2.

    For weights w on the simplex, max_k c_k.x >= d.x with d = sum_k w_k c_k,
    whose minimum under the budget _budget_dual bounds. The weights are
    read off the returned point, w_k proportional to 1 / (eta - c_k.x)
    (the central-path multipliers).
    """
    C = abs_a2 * np.asarray(p, dtype=float)[None, :]  # column k is c_k
    w = 1.0 / np.maximum(eta - C.T @ x, np.finfo(float).tiny)
    budget = p_tot - float(np.sum(p)) + sigma2 * float(np.sum(phi))
    return _budget_dual(C @ (w / w.sum()), phi, budget, 1.0 / sigma2)


def spectrum_dual_bound(C, prices, budget, hi, y):
    """Lagrange-dual lower bound on min_y max_k c_k . y (C's columns) over
    sum_j prices_j / y_j <= budget and 0 < y <= hi, at weights read off a
    point y near the optimum: at the optimum d = C w is proportional to
    prices_j / y_j^2 where y_j < hi, with w_k = 0 for the users whose bound
    c_k . y is below the largest, so w is the least-squares fit of that on
    the others, clipped at 0 and scaled onto the simplex. Any such w gives
    a valid bound; an accurate y gives a tight one."""
    bounds = C.T @ y
    top = bounds >= bounds.max() * (1.0 - 1e-8)
    free = y < hi
    w = np.zeros(C.shape[1])
    w[top] = np.maximum(np.linalg.lstsq(C[np.ix_(free, top)], prices[free] / y[free] ** 2, rcond=None)[0], 0.0)
    return _budget_dual(C @ (w / w.sum()), prices, budget, hi)


def zero_forcing_eta_z1(F, U, H, G, B, sigma2, tau, p_tot):
    """eta of the best zero-forcing design (B^H Sigma = 0) for one Eve
    antenna, in closed form. The channel-inversion precoder U leaves no
    interference between users, so the QoS powers are
    p0_k = tau sigma^2 / |f_k^H u_k|^2, and the jammer puts the rest of the
    budget on the direction Pi g, with Pi the projector onto span(B)^perp:

        eta = max_k p0_k |h^H u_k|^2 / (sigma^2 + (P_tot - sum_k p0_k) ||Pi g||^2).
    """
    p0 = tau * sigma2 / np.abs(np.einsum("nk,nk->k", F.conj(), U)) ** 2
    g = G[:, 0]
    pi_g = g - B @ np.linalg.lstsq(B, g, rcond=None)[0]
    jam = (p_tot - p0.sum()) * np.vdot(pi_g, pi_g).real
    return float(np.max(p0 * np.abs(H[:, 0].conj() @ U) ** 2) / (sigma2 + jam))


def cap_free_program_x(abs_a2, p, prices, budget, x_floor=1e-12):
    """The alternating design's spectrum block without leak caps in x, the
    singular values of G^H Gamma^H, laid out as [x | eta]:

        minimize eta  s.t.  sum_j prices_j x_j^2 <= budget,
                            p_k sum_j |a_kj|^2 / x_j^2 <= eta,  x_j >= x_floor,

    started at an equal split of the trace budget."""
    Z = len(prices)
    n = Z + 1
    E = np.eye(n)
    cons = [Quadratic(M=np.sqrt(prices)[:, None] * E[:Z], d=np.zeros(Z), a=np.zeros(n), b=budget)]
    cons += [ReciprocalSum(idx=np.arange(Z), coeff=p[k] * abs_a2[:, k], power=2 * np.ones(Z), a=-E[Z], b=0.0)
             for k in range(len(p))]
    cons += [Box(idx=j, lo=x_floor) for j in range(Z)]
    v0 = np.empty(n)
    v0[:Z] = np.sqrt(0.5 * budget / (Z * prices))
    v0[Z] = 1.01 * float(np.max(p * (abs_a2.T @ v0[:Z] ** -2))) + 1e-12
    return ConvexProgram(n_vars=n, objective=E[Z], constraints=cons, strictly_feasible_point=v0)
