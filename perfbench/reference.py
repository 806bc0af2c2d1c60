"""Independent numpy references and the correctness checks built on them.

Every quantity is recomputed from the raw channels (F: N x K, H: N x Z,
B: L x K, G: L x Z) and the system scalars. Nothing here imports cjopt,
so a fault in the library cannot hide itself by also corrupting its
reference. Each ``check_*`` function returns a list of problems; an empty
list means the output passed.
"""

import numpy as np

SINR_RTOL = 1e-6
BUDGET_RTOL = 1e-6
ETA_RTOL = 1e-6
ORTH_RTOL = 1e-6
PSD_RTOL = 1e-9
CSV_RTOL = 1e-9
# Existence verdicts closer than this to the boundary may go either way.
VERDICT_MARGIN = 1e-9


# --- reference quantities ---------------------------------------------------

def precoder(F):
    """Channel-inversion precoder: normalized columns of F (F^H F)^{-1}."""
    U = np.linalg.solve(F.conj().T @ F, F.conj().T).conj().T
    return U / np.linalg.norm(U, axis=0)


def user_gains(F, U):
    """gains[k, i] = |f_k^H u_i|^2."""
    return np.abs(F.conj().T @ U) ** 2


def qos_power(F, U, sigma2, tau, leak=None):
    """Power vector meeting every SINR_k = tau with equality, given the
    jamming power leaked into each user (zero by default)."""
    g = user_gains(F, U)
    K = g.shape[0]
    M = -g
    M[np.arange(K), np.arange(K)] = np.diag(g) / tau
    rhs = np.full(K, sigma2) if leak is None else sigma2 + np.asarray(leak, dtype=float)
    return np.linalg.solve(M, rhs)


def existence(F, U, sigma2, tau, p_tot):
    """(verdict, margin, p0): a design exists iff the equality power vector
    is nonnegative and fits the budget. ``margin`` is the relative distance
    of p0 from the boundary of that set."""
    p0 = qos_power(F, U, sigma2, tau)
    margin = min(float(p0.min()) / float(np.abs(p0).max()),
                 (p_tot - float(p0.sum())) / p_tot)
    return margin >= 0.0, margin, p0


def user_sinr(F, U, B, p, Sigma, sigma2):
    """Per-user SINR with the jamming leaked through B."""
    g = user_gains(F, U)
    p = np.asarray(p, dtype=float)
    signal = np.diag(g) * p
    leak = np.real(np.einsum("lk,lm,mk->k", B.conj(), Sigma, B))
    return signal / (g @ p - signal + leak + sigma2)


def eve_bound(H, U, G, p, Sigma, sigma2):
    """Per-stream upper bound on Eve's SINR: other streams dropped, the
    jamming and noise whitened: p_k a_k^H (sigma^2 I + G^H Sigma G)^{-1} a_k."""
    A = H.conj().T @ U
    C = sigma2 * np.eye(G.shape[1]) + G.conj().T @ Sigma @ G
    X = np.linalg.solve(C, A)
    return np.asarray(p, dtype=float) * np.real(np.sum(A.conj() * X, axis=0))


def no_jamming_eta(H, U, p, sigma2):
    A = H.conj().T @ U
    return float(np.max(np.asarray(p) * np.sum(np.abs(A) ** 2, axis=0) / sigma2))


def secrecy_lb(tau, sinr_eve_upper):
    """Per-stream secrecy lower bound [log2(1 + tau) - log2(1 + SINR^U)]^+."""
    return np.maximum(np.log2(1.0 + tau) - np.log2(1.0 + np.asarray(sinr_eve_upper)), 0.0)


def jamming_prices(G, B):
    """phi_j = [(G^H P G)^{-1}]_jj with P the projector onto the orthogonal
    complement of range(B): the trace cost of unit jamming power toward
    Eve's j-th direction that leaves every user untouched."""
    Q, _ = np.linalg.qr(B)
    Gp = G - Q @ (Q.conj().T @ G)
    return np.real(np.diag(np.linalg.inv(Gp.conj().T @ Gp)))


def eq14_dual_bound(abs_a2, p, phi, sigma2, p_tot, x, eta):
    """Lagrange-dual lower bound on the optimum of eq14,
        min_x max_k p_k sum_j |a_kj|^2 x_j
        s.t. sum_j phi_j / x_j <= P_tot - sum(p) + sigma^2 sum(phi),
             0 < x_j <= 1 / sigma^2.
    Any weights w on the simplex give max_k c_k.x >= (sum_k w_k c_k).x = d.x,
    and the dual of min d.x under the budget is maximized over its one
    multiplier nu in closed form per nu. The weights are the central-path
    multipliers at the returned point, w_k proportional to 1 / (eta - c_k.x).
    """
    C = abs_a2 * np.asarray(p, dtype=float)[None, :]  # column k is c_k
    slack = np.maximum(eta - C.T @ x, np.finfo(float).tiny)
    w = 1.0 / slack
    d = C @ (w / w.sum())
    R = p_tot - float(np.sum(p)) + sigma2 * float(phi.sum())
    u = 1.0 / sigma2
    pos = d > 0

    def x_of(nu):
        xs = np.full(d.shape, u)
        xs[pos] = np.minimum(u, np.sqrt(nu * phi[pos] / d[pos]))
        return xs

    lo, hi = -300.0, 300.0  # bisection on log10(nu) for sum phi / x(nu) = R
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.sum(phi / x_of(10.0 ** mid))) > R:
            lo = mid
        else:
            hi = mid
    nu = 10.0 ** hi
    xs = x_of(nu)
    return float(d @ xs + nu * (float(np.sum(phi / xs)) - R))


def leak_free_lower_bound(G, abs_a2, p0, p_tot):
    """Closed-form floor for the alternating block objective: with no leak
    the powers are p0, and the trace sum_j pi_j x_j^2 <= P_tot - sum(p0),
    pi_j = [(G^H G)^{-1}]_jj, so by Cauchy-Schwarz each user's
    p_k sum_j |a_kj|^2 / x_j^2 is at least
    (sum_j sqrt(pi_j p_k |a_kj|^2))^2 / (P_tot - sum(p0))."""
    pi = np.real(np.diag(np.linalg.inv(G.conj().T @ G)))
    per_user = np.sum(np.sqrt(pi[:, None] * abs_a2 * np.asarray(p0)[None, :]), axis=0) ** 2
    return float(np.max(per_user) / (p_tot - float(np.sum(p0))))


# --- checks -----------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _bits_differ(csv_value, ref_value):
    """Secrecy bounds are clamped at 0 bits, so compare them absolutely."""
    return abs(float(csv_value) - ref_value) > CSV_RTOL * max(abs(ref_value), 1.0)


def check_verdict(library_feasible, ref_feasible, margin):
    if library_feasible != ref_feasible and abs(margin) > VERDICT_MARGIN:
        return [f"existence verdict {library_feasible} but reference says "
                f"{ref_feasible} (margin {margin:.3e})"]
    return []


def check_precoder(U_lib, U_ref):
    err = float(np.abs(U_lib - U_ref).max())
    return [f"precoder differs from reference by {err:.3e}"] if err > 1e-9 else []


def _check_psd_rank(Sigma, z):
    problems = []
    herm = np.linalg.norm(Sigma - Sigma.conj().T)
    if herm > PSD_RTOL * max(np.linalg.norm(Sigma), 1.0):
        problems.append(f"Sigma not Hermitian ({herm:.3e})")
    w = np.linalg.eigvalsh(0.5 * (Sigma + Sigma.conj().T))[::-1]
    top = max(float(w[0]), 0.0)
    if w[-1] < -PSD_RTOL * max(top, 1.0):
        problems.append(f"Sigma has eigenvalue {w[-1]:.3e}")
    if top > 0 and np.any(w[z:] > PSD_RTOL * top):
        problems.append(f"Sigma rank above Z={z}: eigenvalue {w[z]:.3e} of {top:.3e}")
    return problems


def _check_budget(p, Sigma, p_tot):
    problems = []
    if np.any(np.asarray(p) < 0):
        problems.append(f"negative power {float(np.min(p)):.3e}")
    used = float(np.sum(p)) + float(np.real(np.trace(Sigma)))
    if used > p_tot * (1.0 + BUDGET_RTOL):
        problems.append(f"budget exceeded: {used:.9g} > {p_tot:.9g}")
    return problems


def check_optimal(ch, sigma2, tau, p_tot, p, Sigma, x, eta, status, nojam_eta):
    """Closed-form design for L >= K + Z: budget, QoS equality, orthogonality
    to the users, PSD and rank, the reported eta against the reference Eve
    bound and the eq14 dual bound, and no worse than no jamming.
    ``ch`` holds the raw channels F, H, B, G."""
    F, H, B, G = ch.F, ch.H, ch.B, ch.G
    z = G.shape[1]
    U = precoder(F)
    problems = _check_budget(p, Sigma, p_tot)
    sinr = user_sinr(F, U, B, p, Sigma, sigma2)
    if np.max(np.abs(sinr - tau)) > SINR_RTOL * tau:
        problems.append(f"SINR {sinr.min():.9g}..{sinr.max():.9g} != tau {tau:.9g}")
    orth = np.linalg.norm(B.conj().T @ Sigma)
    if orth > ORTH_RTOL * np.linalg.norm(Sigma):
        problems.append(f"|B^H Sigma| = {orth:.3e} not orthogonal")
    problems += _check_psd_rank(Sigma, z)
    eta_ref = float(np.max(eve_bound(H, U, G, p, Sigma, sigma2)))
    if _rel(eta, eta_ref) > ETA_RTOL:
        problems.append(f"eta {eta:.12g} != reference Eve bound {eta_ref:.12g}")
    p0 = qos_power(F, U, sigma2, tau)
    nojam_ref = no_jamming_eta(H, U, p0, sigma2)
    if _rel(nojam_eta, nojam_ref) > CSV_RTOL:
        problems.append(f"no-jamming eta {nojam_eta:.12g} != reference {nojam_ref:.12g}")
    if eta > nojam_ref * (1.0 + CSV_RTOL):
        problems.append(f"eta {eta:.9g} above no-jamming {nojam_ref:.9g}")
    if status == "Converged":
        abs_a2 = np.abs(H.conj().T @ U) ** 2
        lb = eq14_dual_bound(abs_a2, p0, jamming_prices(G, B), sigma2, p_tot, x, eta)
        if min(eta, eta_ref) < lb * (1.0 - CSV_RTOL) or eta - lb > ETA_RTOL * eta:
            problems.append(f"eta {eta:.12g} not within {ETA_RTOL:g} above dual bound {lb:.12g}")
    elif status == "NoJammingPower":
        if _rel(eta, nojam_ref) > CSV_RTOL:
            problems.append("NoJammingPower design is not the no-jamming design")
    else:
        problems.append(f"status {status}")
    return problems


def check_alternating(ch, sigma2, tau, p_tot, p, Gamma, eta, block_eta, iterations,
                      max_iters):
    """Alternating design for L < K + Z: budget, QoS with the leakage of
    Gamma, PSD and rank, the exact eta against the reference, the block
    objective recomputed from Gamma and bracketed by eta and the leak-free
    lower bound, and fewer outer iterations than the cap."""
    F, H, B, G = ch.F, ch.H, ch.B, ch.G
    z = G.shape[1]
    U = precoder(F)
    Sigma = Gamma.conj().T @ Gamma
    problems = _check_budget(p, Sigma, p_tot)
    leak = np.sum(np.abs(Gamma @ B) ** 2, axis=0)
    g = user_gains(F, U)
    sinr = np.diag(g) * p / (g @ p - np.diag(g) * p + leak + sigma2)
    if np.any(sinr < tau * (1.0 - SINR_RTOL)):
        problems.append(f"SINR {sinr.min():.9g} below tau {tau:.9g}")
    problems += _check_psd_rank(Sigma, z)
    eta_ref = float(np.max(eve_bound(H, U, G, p, Sigma, sigma2)))
    if _rel(eta, eta_ref) > ETA_RTOL:
        problems.append(f"eta {eta:.12g} != reference Eve bound {eta_ref:.12g}")
    # Block objective: the Eve bound with the noise dropped, through the
    # singular values x_j of G^H Gamma^H (diagonal by construction).
    D = G.conj().T @ Gamma.conj().T
    off = np.abs(D - np.diag(np.diag(D))).max()
    if off > 1e-9 * np.abs(D).max():
        problems.append(f"G^H Gamma^H not diagonal ({off:.3e})")
    abs_a2 = np.abs(H.conj().T @ U) ** 2
    block_ref = float(np.max(p * np.sum(abs_a2 / np.abs(np.diag(D))[:, None] ** 2, axis=0)))
    if _rel(block_eta, block_ref) > ETA_RTOL:
        problems.append(f"block objective {block_eta:.12g} != reference {block_ref:.12g}")
    if eta > block_ref * (1.0 + ETA_RTOL):
        problems.append(f"eta {eta:.9g} above block objective {block_ref:.9g}")
    p0 = qos_power(F, U, sigma2, tau)
    lb = leak_free_lower_bound(G, abs_a2, p0, p_tot)
    if block_ref < lb * (1.0 - ETA_RTOL):
        problems.append(f"block objective {block_ref:.12g} below leak-free bound {lb:.12g}")
    if iterations >= max_iters:
        problems.append(f"{iterations} outer iterations reached the cap {max_iters}")
    return problems


def check_sweep_rows(rows, axis_values, solvers, trials, reference_of):
    """Checks on the parsed rows of a `cjopt sweep` CSV.

    ``reference_of(axis_value, trial_seed)`` returns a dict for that draw:
    ``feasible`` and ``margin`` (reference existence), ``p0_sum``,
    ``nojam_eta``, ``nojam_lb`` (per-stream secrecy bounds without
    jamming) and, when feasible, ``opt_eta`` and ``opt_lb`` from an
    optimal design that passed ``check_optimal``.
    """
    problems = []
    if len(rows) != len(axis_values) * len(solvers) * trials:
        return [f"{len(rows)} rows, expected {len(axis_values) * len(solvers) * trials}"]
    keys = []
    for r in rows:
        vi = int(np.argmin([abs(float(r["axis_value"]) - v) for v in axis_values]))
        if _rel(float(r["axis_value"]), axis_values[vi]) > CSV_RTOL:
            return [f"unexpected axis value {r['axis_value']}"]
        if r["solver"] not in solvers:
            return [f"unexpected solver {r['solver']}"]
        keys.append((vi, solvers.index(r["solver"]), int(r["trial_seed"])))
    if keys != sorted(keys):
        problems.append("rows not ordered by (axis value, solver, trial seed)")
    groups = {}
    for key, r in zip(keys, rows):
        groups.setdefault((key[0], key[2]), {})[r["solver"]] = r
    if len(groups) != len(axis_values) * trials or any(len(g) != len(solvers) for g in groups.values()):
        problems.append("each trial must have one row per solver")
        return problems
    for (vi, ts), by in sorted(groups.items()):
        ref = reference_of(axis_values[vi], ts)
        where = f"axis value {axis_values[vi]:.6g}, trial seed {ts}"
        for solver, r in by.items():
            status = r["status"]
            if status == "Infeasible":
                confirmed = not ref["feasible"] or (
                    solver == "fixed_split" and ref["p0_sum"] > 0.5 * ref["p_tot"])
                if not confirmed and abs(ref["margin"]) > VERDICT_MARGIN:
                    problems.append(f"{where}: {solver} Infeasible but reference finds a design")
            elif status in ("Converged", "NoJammingPower"):
                if not ref["feasible"] and abs(ref["margin"]) > VERDICT_MARGIN:
                    problems.append(f"{where}: {solver} {status} on an infeasible draw")
                if r["feasible"] != "true" or not np.isfinite(float(r["eta"])):
                    problems.append(f"{where}: {solver} {status} without a finite eta")
            else:
                problems.append(f"{where}: {solver} status {status}")
        if not ref["feasible"]:
            continue
        ok = {s: r for s, r in by.items() if r["status"] != "Infeasible"}
        eta = {s: float(r["eta"]) for s, r in ok.items()}
        if "no_jamming" in ok:
            r = ok["no_jamming"]
            if (_rel(eta["no_jamming"], ref["nojam_eta"]) > CSV_RTOL
                    or _bits_differ(r["min_secrecy_lb"], float(np.min(ref["nojam_lb"])))
                    or _bits_differ(r["mean_secrecy_lb"], float(np.mean(ref["nojam_lb"])))):
                problems.append(f"{where}: no_jamming row differs from the reference")
        if "optimal" not in ok:
            continue
        r = ok["optimal"]
        if (_rel(eta["optimal"], ref["opt_eta"]) > CSV_RTOL
                or _bits_differ(r["min_secrecy_lb"], float(np.min(ref["opt_lb"])))
                or _bits_differ(r["mean_secrecy_lb"], float(np.mean(ref["opt_lb"])))):
            problems.append(f"{where}: optimal row differs from the checked design")
        if "fixed_split" in ok and eta["optimal"] > eta["fixed_split"] * (1.0 + CSV_RTOL):
            problems.append(f"{where}: optimal eta above fixed_split")
        if "no_jamming" in ok:
            nj = ok["no_jamming"]
            if (float(r["min_secrecy_lb"]) < float(nj["min_secrecy_lb"]) - CSV_RTOL
                    or float(r["mean_secrecy_lb"]) < float(nj["mean_secrecy_lb"]) - CSV_RTOL):
                problems.append(f"{where}: optimal secrecy below no_jamming")
        if "l_inf_limit" in ok and eta["l_inf_limit"] > eta["optimal"] * (1.0 + ETA_RTOL):
            problems.append(f"{where}: l_inf_limit eta above optimal")
    return problems
