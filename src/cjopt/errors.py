"""Exception hierarchy shared by all cjopt modules."""


class CjoptError(Exception):
    """Base class for all cjopt errors."""


class NotHermitian(CjoptError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class IllConditioned(CjoptError):
    """Condition estimate exceeds the trust threshold (degenerate draw)."""


class SingularDelta(CjoptError):
    """The precoder's QoS coupling matrix is singular; no power vector can
    meet the QoS thresholds (precoder defect, not a budget defect)."""


class Infeasible(CjoptError):
    """No design meets the QoS constraints within the power budget."""


class InfeasibleProgram(CjoptError):
    """A convex subproblem has an empty (or empty-interior) feasible set."""


class NumericalFailure(CjoptError):
    """Newton iteration failed to make progress after regularization."""


class RankDeficient(CjoptError):
    """A channel stack lost full column rank (e.g. L < K + Z)."""


class NonMonotone(CjoptError):
    """Defensive: the alternating objective increased, indicating a kernel
    fault rather than a modelling issue."""
