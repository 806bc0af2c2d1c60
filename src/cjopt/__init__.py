"""Joint transmit power allocation and cooperative-jamming covariance
design for a multiuser downlink with an eavesdropper."""

from .errors import (
    CjoptError,
    IllConditioned,
    Infeasible,
    InfeasibleProgram,
    NonMonotone,
    NotHermitian,
    NumericalFailure,
    RankDeficient,
    SingularDelta,
)
from .model import (
    ChannelSet,
    Precoder,
    SystemParams,
    channel_inversion_precoder,
    db_to_linear,
    generate_rayleigh,
    load_config,
    perturb_csi,
)
from .feasibility import FeasibilityReport, check_existence, optimal_power
from .metrics import sinr_eve_upper, sinr_user
from .optimal import solve_optimal
from .alternating import AlternatingState, solve_alternating, solve_b_zero
from .baselines import l_infinity_limit, no_jamming_report, solve_fixed_split
from .oracle import grid_oracle
from .experiments import SweepRow, SweepSpec, run_sweep, summarize, write_csv
from .report import Design, SolveReport, make_report

__version__ = "0.1.0"
