"""Near-field MIMO radar unimodular waveform design.

Jointly shapes an angle/range/frequency beampattern and suppresses weighted
auto/cross-correlation sidelobes (WISL) for sets of constant-modulus code
sequences, using a cyclic pair of loaded phase-projection power iterations.
"""

__version__ = "0.1.0"

from .correlation import correlation_level_db, cross_correlation, isl, wisl
from .model import (
    ArrayConfig,
    DesiredBeampattern,
    GridSpec,
    WaveformMatrix,
    WislProfile,
    build_grid,
    build_wisl_profile,
    unvec,
    vec,
)
from .nearfield import (
    SteeringContext,
    beampattern_grid,
    build_steering_context,
    exact_distance,
    fraunhofer_distance,
    fresnel_distance,
    steering_vector,
)
from .objective import (
    BeampatternOperator,
    CombinedOperator,
    WislOperator,
    apply_J,
    build_wisl_gram,
    estimate_lambda_max,
)
from .solver import SolverConfig, SolverState, cypmli, init_waveform, pmli_inner

__all__ = [
    "ArrayConfig",
    "BeampatternOperator",
    "CombinedOperator",
    "DesiredBeampattern",
    "GridSpec",
    "SolverConfig",
    "SolverState",
    "SteeringContext",
    "WaveformMatrix",
    "WislOperator",
    "WislProfile",
    "apply_J",
    "beampattern_grid",
    "build_grid",
    "build_steering_context",
    "build_wisl_gram",
    "build_wisl_profile",
    "correlation_level_db",
    "cross_correlation",
    "cypmli",
    "estimate_lambda_max",
    "exact_distance",
    "fraunhofer_distance",
    "fresnel_distance",
    "init_waveform",
    "isl",
    "pmli_inner",
    "steering_vector",
    "unvec",
    "vec",
    "wisl",
]
