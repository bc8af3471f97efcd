"""Surface shear-wave dispersion spectra for depth-graded half-spaces.

Computes the trapped-mode frequencies omega(k) of horizontally
polarized shear waves guided by a traction-free surface of a medium
whose density and shear modulus vary with depth, via phase-angle
shooting from both ends of the half-line and monotone bracketing of
the angle mismatch.
"""

__version__ = "0.1.0"

from . import errors
from .decay import (MatchingConfig, decaying_phase, decaying_phase_at_tail,
                    matching_config)
from .dispersion import (Branch, Mode, ModeSearchResult, OscillationVerdict,
                         SearchOptions, estimate_mode_count, find_modes,
                         oscillation_test, trace_branches)
from .liouville import TauMap, TransformedMedium, build_tau, transform
from .oracle import (OracleResult, bessel_j, bessel_j_prime,
                     bessel_mode_frequencies, bessel_mode_shape,
                     bessel_residual_check, fd_mode_frequencies)
from .profile import (AssumptionReport, MaterialProfile, ParamPoint,
                      ProfileClass, admissible_interval, check_assumptions,
                      classify, from_callables, from_registry, from_table,
                      interval_is_empty)
from .prufer import (IntegratorSettings, PhaseState, integrate_phase,
                     reconstruct_mode_shape)

__all__ = [
    "errors",
    "MaterialProfile", "ParamPoint", "ProfileClass",
    "AssumptionReport", "from_registry", "from_callables", "from_table",
    "classify", "admissible_interval", "check_assumptions", "interval_is_empty",
    "TauMap", "TransformedMedium", "build_tau", "transform",
    "IntegratorSettings", "PhaseState", "integrate_phase",
    "reconstruct_mode_shape",
    "MatchingConfig", "matching_config", "decaying_phase",
    "decaying_phase_at_tail",
    "Mode", "Branch", "ModeSearchResult", "SearchOptions",
    "OscillationVerdict", "find_modes", "trace_branches",
    "estimate_mode_count", "oscillation_test",
    "OracleResult", "bessel_j", "bessel_j_prime", "bessel_mode_frequencies",
    "bessel_mode_shape", "bessel_residual_check", "fd_mode_frequencies",
    "__version__",
]
