"""Existence test for the joint design and the closed-form minimal-power
allocation that meets every QoS constraint with equality."""

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .model import Precoder, SystemParams

__all__ = ["FeasibilityReport", "check_existence", "optimal_power"]

_COMPONENT_TOL = 1e-12


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    p_candidate: np.ndarray
    p_norm1: float


def check_existence(pre: Precoder, params: SystemParams) -> FeasibilityReport:
    """A feasible design exists iff the equality power vector
    p = -sigma^2 (Delta^H)^{-1} 1 is componentwise nonnegative and fits
    in the budget. Raises SingularDelta (from pre.qos_inverse)."""
    p = params.sigma2 * (pre.qos_inverse @ np.ones(params.k))
    p = np.where((p < 0) & (p > -_COMPONENT_TOL), 0.0, p)
    norm1 = float(np.sum(np.abs(p)))
    feasible = bool(np.all(p >= 0.0) and norm1 <= params.p_tot * (1.0 + _COMPONENT_TOL))
    return FeasibilityReport(feasible=feasible, p_candidate=p, p_norm1=norm1)


def optimal_power(pre: Precoder, params: SystemParams) -> np.ndarray:
    """Minimal-power allocation meeting every QoS threshold with equality
    (assuming the jamming is orthogonal to the users' channels)."""
    report = check_existence(pre, params)
    if not report.feasible:
        raise Infeasible(
            f"no power vector meets QoS within budget "
            f"(|p|_1 = {report.p_norm1:.6g} mW, budget = {params.p_tot:.6g} mW)"
        )
    return report.p_candidate
