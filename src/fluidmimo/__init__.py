"""Joint transmit/receive antenna-port selection for fluid-MIMO capacity.

Channel model, exact capacity evaluation, a convex-relaxation LP solved by
an interior-point method, five selection strategies, and a reproducible
Monte Carlo benchmark harness with a CLI front end.
"""

from .bessel import bessel_j0
from .capacity import (
    PortSelection,
    capacity,
    capacity_q_form,
    capacity_upper_bound,
    extract_effective,
    surrogate_u,
)
from .channel import FluidMimoConfig, OverallChannel, correlation_profile, generate_channel
from .channel_io import ChannelFormatError, load_channel, save_channel
from .harness import (
    PointSummary,
    SweepSpec,
    SweepSpecError,
    TrialRecord,
    mean_approximation_ratio,
    run_sweep,
)
from .ipm import IpmFailure, SolverStats
from .relaxation import LpProblem, RelaxedSolution, build_lp, solve_jcr
from .selection import (
    ALGORITHMS,
    CombinationCapError,
    Realization,
    SelectionResult,
    ao_round,
    conventional_mimo,
    exhaustive_search,
    jcr_ao,
    jcr_res,
    random_selection,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ChannelFormatError",
    "CombinationCapError",
    "FluidMimoConfig",
    "IpmFailure",
    "LpProblem",
    "OverallChannel",
    "PointSummary",
    "PortSelection",
    "Realization",
    "RelaxedSolution",
    "SelectionResult",
    "SolverStats",
    "SweepSpec",
    "SweepSpecError",
    "TrialRecord",
    "ao_round",
    "bessel_j0",
    "build_lp",
    "capacity",
    "capacity_q_form",
    "capacity_upper_bound",
    "conventional_mimo",
    "correlation_profile",
    "exhaustive_search",
    "extract_effective",
    "generate_channel",
    "jcr_ao",
    "jcr_res",
    "load_channel",
    "mean_approximation_ratio",
    "random_selection",
    "run_sweep",
    "save_channel",
    "solve_jcr",
    "surrogate_u",
    "__version__",
]
