"""Comparison designs: fixed power split between transmitter and jammer,
no jamming at all, and the many-antenna performance limit."""

import numpy as np

from .errors import Infeasible
from .feasibility import optimal_power
from .model import ChannelSet, Precoder, SystemParams
from .optimal import build_sigma, compute_phi, solve_spectrum
from .report import SolveReport, make_report

__all__ = ["solve_fixed_split", "no_jamming_report", "l_infinity_limit"]


def solve_fixed_split(pre: Precoder, ch: ChannelSet, params: SystemParams, split=0.5):
    """Fixed power split: the transmitter keeps the minimal QoS allocation
    (which must fit in split * P_tot) and the jammer spends the remaining
    (1 - split) * P_tot regardless of what the transmitter left unused.

    Returns (x, Gamma, Sigma, eta, status).
    """
    if not 0.0 < split < 1.0:
        raise ValueError("split must lie in (0, 1)")
    p = optimal_power(pre, params)
    bs_budget = split * params.p_tot
    if float(p.sum()) > bs_budget * (1.0 + 1e-12):
        raise Infeasible(
            f"QoS allocation needs {p.sum():.6g} mW, over the transmitter share {bs_budget:.6g} mW"
        )
    jam_budget = (1.0 - split) * params.p_tot
    phi = compute_phi(ch.G, ch.B)
    x, eta, status, _ = solve_spectrum(np.abs(pre.A) ** 2, p, phi, jam_budget,
                                       jam_budget + params.sigma2 * float(phi.sum()), params)
    Gamma, Sigma = build_sigma(ch, x, params.sigma2)
    return x, Gamma, Sigma, eta, status


def no_jamming_report(pre: Precoder, ch: ChannelSet, params: SystemParams) -> SolveReport:
    """Minimal QoS power allocation with the jammer switched off."""
    p = optimal_power(pre, params)
    Sigma = np.zeros((params.l, params.l), complex)
    return make_report("no_jamming", pre, ch, params, p, Sigma, iterations=0,
                       status="Converged")


def l_infinity_limit(pre: Precoder, ch: ChannelSet, params: SystemParams):
    """Large-jammer-array limit of the achievable eta: as the jammer grows
    its channels decorrelate and the per-direction jamming price tends to
    1 / ||g_j||^2. Returns (eta, status)."""
    p = optimal_power(pre, params)
    phi = 1.0 / np.sum(np.abs(ch.G) ** 2, axis=0)
    headroom = params.p_tot - float(p.sum())
    _, eta, status, _ = solve_spectrum(np.abs(pre.A) ** 2, p, phi, headroom,
                                       headroom + params.sigma2 * float(phi.sum()), params)
    return eta, status
