"""latgreen: lattice Green functions, their decay regimes, and oracles.

Evaluates the Green function of the killed nearest-neighbour walk on Z^d by
independent routes (scaled-Bessel integral, Fourier quadrature, d = 1 closed
form, Monte Carlo), computes the anisotropic norm that governs its
exponential decay, and provides the continuum Green functions plus the
asymptotic estimators of the four decay regimes.

Public names are imported from their submodule on first access (PEP 562),
so ``import latgreen`` loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  This table is the one list
# of public names: ``__all__`` is built from it, and no submodule keeps one.
_SUBMODULE = {
    name: module
    for module, names in {
        "asymptotics": (
            "REGIME_I", "REGIME_II", "REGIME_III", "REGIME_IV", "BoundReport",
            "GbarDiagnostics", "RegimeEstimate", "critical_estimate", "gbar_curve",
            "gbar_d2", "oz_constant", "oz_estimate", "oz_isotropic_estimate",
            "oz_limit_constant", "uniform_bound_check", "uniform_bound_rhs",
        ),
        "continuum": (
            "ContinuumParams", "green_continuum", "green_continuum_time_integral",
            "log_green_continuum",
        ),
        "errors": (
            "AccuracyError", "ConfigError", "DivergenceError", "DomainError",
            "LatticeGreenError", "UnsupportedError",
        ),
        "lattice": ("green_bessel", "green_d1_closed", "green_fourier_oracle"),
        "norm": (
            "NormContext", "a_norm", "a_norm_batch", "mass", "norm_context",
            "u_scale", "u_scale_batch", "unit_ball_rows",
        ),
        "records": ("GreenParams", "GreenValue", "OutputRecord"),
        "special": ("log_bessel_k", "log_scaled_bessel_i", "log_uniform_l", "psi"),
        "walk": (
            "VisitEstimate", "WalkConfig", "estimate_green", "kill_time_survival",
            "run_killed_walks",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
