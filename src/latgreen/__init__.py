"""latgreen: lattice Green functions, their decay regimes, and oracles.

Evaluates the Green function of the killed nearest-neighbour walk on Z^d by
independent routes (scaled-Bessel integral, Fourier quadrature, d = 1 closed
form, Monte Carlo), computes the anisotropic norm that governs its
exponential decay, and provides the continuum Green functions plus the
asymptotic estimators of the four decay regimes.
"""

from .asymptotics import (
    REGIME_I,
    REGIME_II,
    REGIME_III,
    REGIME_IV,
    BoundReport,
    GbarDiagnostics,
    RegimeEstimate,
    classify_regime,
    critical_estimate,
    gbar_curve,
    gbar_d2,
    gbar_d3,
    oz_constant,
    oz_estimate,
    oz_isotropic_estimate,
    oz_limit_constant,
    uniform_bound_check,
    uniform_bound_rhs,
)
from .continuum import (
    ContinuumParams,
    green_continuum,
    green_continuum_time_integral,
    heat_kernel,
    log_green_continuum,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DivergenceError,
    DomainError,
    LatticeGreenError,
    UnsupportedError,
)
from .lattice import (
    GreenParams,
    GreenValue,
    green_bessel,
    green_d1_closed,
    green_fourier_oracle,
)
from .norm import (
    NormContext,
    a_norm,
    a_norm_batch,
    mass,
    norm_context,
    u_scale,
    u_scale_batch,
    unit_ball_boundary,
    unit_ball_rows,
)
from .records import OutputRecord
from .special import (
    bessel_k,
    log_bessel_k,
    log_scaled_bessel_i,
    log_uniform_l,
    psi,
    psi_d1,
    psi_d2,
    psi_d3,
    scaled_bessel_i,
    uniform_l,
)
from .walk import (
    VisitEstimate,
    WalkConfig,
    estimate_green,
    kill_time_survival,
    run_killed_walks,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "REGIME_I",
    "REGIME_II",
    "REGIME_III",
    "REGIME_IV",
    "BoundReport",
    "ConfigError",
    "ContinuumParams",
    "DivergenceError",
    "DomainError",
    "GbarDiagnostics",
    "GreenParams",
    "GreenValue",
    "LatticeGreenError",
    "NormContext",
    "OutputRecord",
    "RegimeEstimate",
    "UnsupportedError",
    "VisitEstimate",
    "WalkConfig",
    "a_norm",
    "a_norm_batch",
    "bessel_k",
    "classify_regime",
    "critical_estimate",
    "estimate_green",
    "gbar_curve",
    "gbar_d2",
    "gbar_d3",
    "green_bessel",
    "green_continuum",
    "green_continuum_time_integral",
    "green_d1_closed",
    "green_fourier_oracle",
    "heat_kernel",
    "kill_time_survival",
    "log_bessel_k",
    "log_green_continuum",
    "log_scaled_bessel_i",
    "log_uniform_l",
    "mass",
    "norm_context",
    "oz_constant",
    "oz_estimate",
    "oz_isotropic_estimate",
    "oz_limit_constant",
    "psi",
    "psi_d1",
    "psi_d2",
    "psi_d3",
    "run_killed_walks",
    "scaled_bessel_i",
    "u_scale",
    "u_scale_batch",
    "uniform_bound_check",
    "uniform_bound_rhs",
    "uniform_l",
    "unit_ball_boundary",
    "unit_ball_rows",
]
