"""Numerical laboratory for spectral statistics of random lattice operators.

Builds finite volumes of Anderson-type Hamiltonians h = h0 + coupling * sum_n
omega_n P_n, estimates integrated and smoothed densities of states and their
energy derivatives by Monte Carlo, measures fractional-moment decay, and
certifies the operator inequalities the estimators rely on by quadrature.
"""

import importlib

__version__ = "0.9.0"

# exported names by submodule, each loaded on first access (PEP 562): a chain
# run then loads no scipy, and `python -m doslab.cli` finds no doslab.cli
# imported before it runs
_SUBMODULE_NAMES = {
    "cli": ("ConfigError", "ExperimentConfig", "RunManifest", "reproduce", "run"),
    "disorder": ("SingleSiteDensity", "stieltjes_transform"),
    "lattice": (
        "FreeOperatorSpec",
        "ModelSpec",
        "ProjectionFamily",
        "SiteSpace",
        "build_box_enumeration",
    ),
    "montecarlo": (
        "DecayFit",
        "Estimate",
        "McConfig",
        "TelescopeReport",
        "fit_decay",
        "telescope_series_diagnostic",
    ),
    "verify": (
        "CheckReport",
        "Corpus",
        "run_default_verification",
        "smoothstep",
        "verify_boundary_derivatives",
        "verify_finite_smooth",
        "verify_resolvent_average_bound",
        "verify_resolvent_semigroup_identity",
        "verify_semigroup_hoelder",
        "verify_spectral_averaging",
    ),
}
_SUBMODULE_OF = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
