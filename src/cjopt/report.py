"""Uniform result record produced by every solver path."""

from dataclasses import dataclass

import numpy as np

from .metrics import stream_metrics
from .model import ChannelSet, Precoder, SystemParams

__all__ = ["SolveReport", "make_report"]


def _finite(v):
    return float(v) if np.isfinite(v) else None


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
                p, Sigma, iterations=0, status="Converged") -> SolveReport:
    """Re-evaluate a finished design with the exact metric formulas
    (noise reinstated) and package the result."""
    m = stream_metrics(pre, ch, p, Sigma, params.sigma2, params.rate_threshold)
    return SolveReport(
        solver=solver,
        status=status,
        p=np.asarray(p, dtype=float),
        sigma_trace=float(np.trace(Sigma).real),
        eta=float(np.max(m.sinr_eve_upper)),
        sinr_user=m.sinr_user,
        sinr_eve_upper=m.sinr_eve_upper,
        secrecy_lb=m.c_se_l2,
        iterations=iterations,
    )
