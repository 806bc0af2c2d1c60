"""Brute-force reference optimizer for tiny single-eavesdropper-antenna
instances (Z = 1), used to validate the convex solvers.

A rank-one jamming covariance Sigma = rho * q q^H (unit q) is searched
when Z = 1. Any component of q orthogonal to span{g, b_1, ..., b_K}
changes no constraint or objective term while spending power, so q lives
in that span. For fixed Sigma the cheapest QoS-meeting power vector is the
componentwise least element p = -(Delta^H)^{-1}(leak + sigma^2 1), which
also minimizes every SINR bound at Eve. For a fixed
direction q the bound of every user is a ratio of affine functions of rho
with one shared denominator, so the best rho is found exactly among the
box endpoints and the pairwise crossing points; only the direction (a
phase-fixed unit vector) is gridded, with zoom-in refinement.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .feasibility import delta_inverse_neg
from .model import ChannelSet, Precoder, SystemParams

__all__ = ["OracleResult", "grid_oracle"]

_FEAS_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    eta: float
    rho: float  # jamming power tr(Sigma)
    q: np.ndarray  # L-vector, Sigma = q q^H
    p: np.ndarray
    evaluations: int


def _unit_vectors(ang):
    """Hyperspherical angles (npts x (d-1)) -> unit vectors in R^d with a
    nonnegative first coordinate (first angle restricted to [0, pi/2])."""
    npts, dm1 = ang.shape
    u = np.empty((npts, dm1 + 1))
    s = np.ones(npts)
    for i in range(dm1):
        u[:, i] = s * np.cos(ang[:, i])
        s = s * np.sin(ang[:, i])
    u[:, dm1] = s
    return u


def _blocks(axes, limit=250_000):
    """Iterate the Cartesian grid of 1-D axes in memory-bounded blocks."""
    rest = axes[1:]
    if rest:
        mesh = np.meshgrid(*rest, indexing="ij")
        rest_flat = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        rest_flat = np.zeros((1, 0))
    step = max(1, limit // max(rest_flat.shape[0], 1))
    first = axes[0]
    for i in range(0, first.size, step):
        vals = first[i : i + step]
        block = np.concatenate(
            [
                np.repeat(vals, rest_flat.shape[0])[:, None],
                np.tile(rest_flat, (vals.size, 1)),
            ],
            axis=1,
        )
        yield block


def _angles_to_c(ang, m):
    """Angle block -> phase-fixed complex unit directions (npts x m)."""
    if ang.shape[1]:
        u = _unit_vectors(ang)
    else:
        u = np.ones((ang.shape[0], 1))
    c = np.empty((ang.shape[0], m), dtype=complex)
    c[:, 0] = u[:, 0]
    for j in range(1, m):
        c[:, j] = u[:, 2 * j - 1] + 1j * u[:, 2 * j]
    return c


def grid_oracle(pre: Precoder, ch: ChannelSet, params: SystemParams,
                grid=24, levels=3) -> OracleResult:
    """Minimize the worst per-stream SINR bound at Eve by exhaustive
    zoomed grid search over the jamming direction, with the jamming power
    optimized exactly per direction. Requires Z = 1."""
    if params.z != 1:
        raise ValueError("grid oracle supports Z = 1 only")
    sigma2 = params.sigma2
    K = params.k
    g = ch.G[:, 0]
    span = np.hstack([g[:, None], ch.B])
    Q, _ = np.linalg.qr(span)
    m = Q.shape[1]
    M = delta_inverse_neg(pre.Delta)  # p = M @ (leak + sigma2)
    abs_a2 = np.abs(pre.A[0, :]) ** 2  # K
    bq = ch.B.conj().T @ Q  # K x m
    gq = g.conj() @ Q  # m

    n_ang = 2 * m - 2
    ang_lo = np.zeros(n_ang)
    ang_hi = np.empty(n_ang)
    if n_ang:
        ang_hi[:] = np.pi
        ang_hi[0] = 0.5 * np.pi
        ang_hi[-1] = 2.0 * np.pi

    def evaluate(ang):
        """Best eta per direction with rho solved exactly: every user's
        bound is (alpha_k + beta_k rho) / (sigma2 + gdir rho), so the
        pointwise max is minimized at rho = 0, the power-budget cap, or a
        crossing of two users' numerators."""
        c = _angles_to_c(ang, m)
        npts = c.shape[0]
        leak_dir = np.abs(c @ bq.T) ** 2  # npts x K, per unit rho
        gdir = np.abs(c @ gq) ** 2  # npts
        p0 = np.broadcast_to(M @ np.full(K, sigma2), (npts, K))
        slope = leak_dir @ M.T  # dp/drho
        denom_cap = 1.0 + slope.sum(axis=1)
        rho_max = np.maximum((params.p_tot - p0.sum(axis=1)) / denom_cap, 0.0)
        alpha = abs_a2 * p0  # numerators at rho = 0
        beta = abs_a2 * slope
        cands = [np.zeros(npts), rho_max]
        for i, j in combinations(range(K), 2):
            db = beta[:, j] - beta[:, i]
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (alpha[:, i] - alpha[:, j]) / db
            cross = np.where(np.isfinite(cross), cross, -1.0)
            cands.append(np.clip(cross, 0.0, rho_max))
        eta = np.full(npts, np.inf)
        rho_best = np.zeros(npts)
        for rho in cands:
            val = np.max((alpha + beta * rho[:, None]) / (sigma2 + gdir * rho)[:, None], axis=1)
            p_ok = np.all(p0 + slope * rho[:, None] > -_FEAS_TOL, axis=1)
            val = np.where(p_ok, val, np.inf)
            take = val < eta
            eta = np.where(take, val, eta)
            rho_best = np.where(take, rho, rho_best)
        return eta, rho_best

    lo, hi = ang_lo.copy(), ang_hi.copy()
    best = {"eta": np.inf, "ang": np.zeros(n_ang), "rho": 0.0}
    evaluations = 0
    for level in range(levels):
        axes = [np.linspace(lo[i], hi[i], grid) for i in range(n_ang)]
        for block in (_blocks(axes) if n_ang else [np.zeros((1, 0))]):
            eta, rho = evaluate(block)
            evaluations += eta.size
            i = int(np.argmin(eta))
            if eta[i] < best["eta"]:
                best = {"eta": float(eta[i]), "ang": block[i].copy(), "rho": float(rho[i])}
        if not n_ang:
            break
        # Zoom each angle to ~1.5 grid cells around the incumbent.
        half = 1.5 * (hi - lo) / (grid - 1)
        lo = np.maximum(ang_lo, best["ang"] - half)
        hi = np.minimum(ang_hi, best["ang"] + half)

    # Compass-search polish: the zoomed grid can stall in the narrow,
    # badly conditioned valley around the leak-free direction (curvature
    # ratio ~ P_tot / sigma^2), while a shrinking pattern search walks it
    # reliably.
    if n_ang:
        step0 = (ang_hi - ang_lo) / (grid - 1)
        step = step0.copy()
        ang = best["ang"].copy()
        budget = 20000
        while np.max(step) > 1e-10 and budget > 0:
            budget -= 1
            trial = np.repeat(ang[None, :], 2 * n_ang, axis=0)
            for i in range(n_ang):
                trial[2 * i, i] = min(ang[i] + step[i], ang_hi[i])
                trial[2 * i + 1, i] = max(ang[i] - step[i], ang_lo[i])
            eta, rho = evaluate(trial)
            evaluations += eta.size
            i = int(np.argmin(eta))
            if eta[i] < best["eta"]:
                best = {"eta": float(eta[i]), "ang": trial[i].copy(), "rho": float(rho[i])}
                ang = best["ang"].copy()
                step = np.minimum(step * 2.0, step0)
            else:
                step *= 0.5

    c = _angles_to_c(best["ang"][None, :], m)[0]
    rho = best["rho"]
    q = np.sqrt(rho) * (Q @ c)
    leak = np.abs(ch.B.conj().T @ q) ** 2
    p = M @ (leak + sigma2)
    return OracleResult(eta=best["eta"], rho=rho, q=q, p=np.maximum(p, 0.0),
                        evaluations=evaluations)
