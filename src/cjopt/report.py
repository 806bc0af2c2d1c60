"""The one design record every solver returns, and the report that
evaluates it."""

from dataclasses import dataclass

import numpy as np

from .metrics import stream_metrics
from .model import ChannelSet, Precoder, SystemParams

__all__ = ["Design", "SolveReport", "make_report"]


def _finite(v):
    return float(v) if np.isfinite(v) else None


@dataclass(frozen=True)
class Design:
    """A joint design: transmit powers p and jamming covariance Sigma.

    x holds the jamming spectrum (x_j = 1 / (sigma^2 + lambda_j)). Sigma
    is None for a limit that describes no covariance on the drawn channels
    (l_infinity_limit). eta is the worst per-stream Eve bound as the solver
    evaluates it on the channels it designed on (each solver's docstring
    says how); status says how the solve ended and iterations counts the
    solver's main loop (0 for the baselines).
    """

    p: np.ndarray
    x: np.ndarray
    Sigma: np.ndarray | None
    eta: float
    status: str
    iterations: int


@dataclass(frozen=True)
class SolveReport:
    solver: str
    status: str
    p: np.ndarray
    sigma_trace: float
    eta: float
    sinr_user: np.ndarray
    sinr_eve_upper: np.ndarray
    secrecy_lb: np.ndarray  # per-stream lower bound [C - log2(1 + SINR^U)]^+
    iterations: int

    def as_dict(self):
        return {
            "schema": 1,
            "solver": self.solver,
            "status": self.status,
            "p_mw": [float(v) for v in self.p],
            "tr_sigma_mw": _finite(self.sigma_trace),
            "eta": float(self.eta),
            "eta_db": float(10.0 * np.log10(self.eta)) if self.eta > 0 else None,
            "sinr_eve_upper_db": [
                float(10.0 * np.log10(v)) if v > 0 else None for v in self.sinr_eve_upper
            ],
            "secrecy_lb_bits": [_finite(v) for v in self.secrecy_lb],
            "iterations": self.iterations,
        }


def make_report(solver, pre: Precoder, ch: ChannelSet, params: SystemParams,
                design: Design) -> SolveReport:
    """Evaluate a design on the channels ch with the exact metric formulas
    (noise reinstated). Without a covariance only the design's eta is
    known, and the per-stream metrics are NaN."""
    p = np.asarray(design.p, dtype=float)
    if design.Sigma is None:
        nan = np.full(params.k, np.nan)
        return SolveReport(solver=solver, status=design.status, p=p, sigma_trace=np.nan,
                           eta=design.eta, sinr_user=nan, sinr_eve_upper=nan,
                           secrecy_lb=nan, iterations=design.iterations)
    m = stream_metrics(pre, ch, p, design.Sigma, params.sigma2, params.rate_threshold)
    return SolveReport(
        solver=solver,
        status=design.status,
        p=p,
        sigma_trace=float(np.trace(design.Sigma).real),
        eta=float(np.max(m.sinr_eve_upper)),
        sinr_user=m.sinr_user,
        sinr_eve_upper=m.sinr_eve_upper,
        secrecy_lb=m.c_se_l2,
        iterations=design.iterations,
    )
