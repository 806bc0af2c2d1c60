"""Comparison designs: fixed power split between transmitter and jammer,
no jamming at all, and the many-antenna performance limit. The fixed split
and the limit solve the jamming-spectrum program of cjopt.optimal in its
two steps: the Spectrum, then the Design of its solution."""

from dataclasses import replace

import numpy as np

from .errors import Infeasible
from .feasibility import optimal_power
from .metrics import sinr_eve_upper
from .model import ChannelSet, Precoder, SystemParams
from .optimal import Spectrum, compute_phi, priced_spectrum, solve_eq14, spectrum_design
from .report import Design

__all__ = ["fixed_split_spectrum", "fixed_split_design", "solve_fixed_split", "no_jamming_report",
           "l_inf_spectrum", "l_inf_design", "l_infinity_limit"]


def fixed_split_spectrum(pre: Precoder, ch: ChannelSet, params: SystemParams, p, split=0.5) -> Spectrum:
    """Fixed power split: the transmitter keeps the minimal QoS allocation
    p (which must fit in split * P_tot) and the jammer spends the remaining
    (1 - split) * P_tot regardless of what the transmitter left unused."""
    if not 0.0 < split < 1.0:
        raise ValueError("split must lie in (0, 1)")
    bs_budget = split * params.p_tot
    if float(p.sum()) > bs_budget * (1.0 + 1e-12):
        raise Infeasible(
            f"QoS allocation needs {p.sum():.6g} mW, over the transmitter share {bs_budget:.6g} mW"
        )
    jam_budget = (1.0 - split) * params.p_tot
    phi = compute_phi(ch)
    return priced_spectrum(pre, params, p, phi, jam_budget, jam_budget + params.sigma2 * float(phi.sum()))


def fixed_split_design(ch: ChannelSet, params: SystemParams, spec: Spectrum, result) -> Design:
    """The fixed-split Design of a solved spectrum (result as
    spectrum_result gives it; a baseline: iterations 0)."""
    return replace(spectrum_design(ch, params, spec, result), iterations=0)


def solve_fixed_split(pre: Precoder, ch: ChannelSet, params: SystemParams, split=0.5) -> Design:
    """fixed_split_spectrum and fixed_split_design around solve_eq14."""
    spec = fixed_split_spectrum(pre, ch, params, optimal_power(pre, params), split)
    return fixed_split_design(ch, params, spec, solve_eq14(spec))


def no_jamming_report(pre: Precoder, ch: ChannelSet, params: SystemParams) -> Design:
    """Minimal QoS power allocation with the jammer switched off; eta is
    the exact Eve bound without jamming."""
    p = optimal_power(pre, params)
    Sigma = np.zeros((params.l, params.l), complex)
    eta = float(np.max(sinr_eve_upper(pre, ch, p, Sigma, params.sigma2)))
    return Design(p=p, x=np.full(params.z, 1.0 / params.sigma2), Sigma=Sigma, eta=eta,
                  status="Converged", iterations=0)


def l_inf_spectrum(pre: Precoder, ch: ChannelSet, params: SystemParams, p) -> Spectrum:
    """Large-jammer-array limit of the achievable eta at the QoS powers p:
    as the jammer grows its channels decorrelate and the per-direction
    jamming price tends to 1 / ||g_j||^2."""
    phi = 1.0 / np.sum(np.abs(ch.G) ** 2, axis=0)
    headroom = params.p_tot - float(p.sum())
    return priced_spectrum(pre, params, p, phi, headroom, headroom + params.sigma2 * float(phi.sum()))


def l_inf_design(ch: ChannelSet, params: SystemParams, spec: Spectrum, result) -> Design:
    """The limit of a solved spectrum (result as spectrum_result gives it).
    A limit for an unbounded array, not a design on these channels, so
    Sigma is None (and iterations 0)."""
    x, eta, status, _ = result
    return Design(p=spec.p, x=x, Sigma=None, eta=eta, status=status, iterations=0)


def l_infinity_limit(pre: Precoder, ch: ChannelSet, params: SystemParams) -> Design:
    """l_inf_spectrum and l_inf_design around solve_eq14."""
    spec = l_inf_spectrum(pre, ch, params, optimal_power(pre, params))
    return l_inf_design(ch, params, spec, solve_eq14(spec))
