"""Numerical laboratory for spectral statistics of random lattice operators.

Builds finite volumes of Anderson-type Hamiltonians h = h0 + coupling * sum_n
omega_n P_n, estimates integrated and smoothed densities of states and their
energy derivatives by Monte Carlo, measures fractional-moment decay, and
certifies the operator inequalities the estimators rely on by quadrature.
"""

__version__ = "0.5.0"

from .cli import ConfigError, ExperimentConfig, RunManifest, reproduce, run
from .disorder import SingleSiteDensity
from .lattice import (
    FreeOperatorSpec,
    ModelSpec,
    ProjectionFamily,
    SiteSpace,
    assemble_hamiltonian,
    build_box_enumeration,
)
from .montecarlo import (
    DecayFit,
    Estimate,
    McConfig,
    TelescopeReport,
    fit_decay,
    telescope_series_diagnostic,
)
from .spectral import ComplexShift, resolvent_columns
from .verify import (
    BumpPair,
    CheckReport,
    Corpus,
    run_default_verification,
    smoothstep,
    stieltjes_transform,
    verify_boundary_derivatives,
    verify_finite_smooth,
    verify_resolvent_average_bound,
    verify_resolvent_semigroup_identity,
    verify_semigroup_hoelder,
    verify_spectral_averaging,
)

__all__ = [
    "BumpPair",
    "CheckReport",
    "ComplexShift",
    "ConfigError",
    "Corpus",
    "ExperimentConfig",
    "DecayFit",
    "Estimate",
    "FreeOperatorSpec",
    "McConfig",
    "ModelSpec",
    "ProjectionFamily",
    "RunManifest",
    "SingleSiteDensity",
    "SiteSpace",
    "TelescopeReport",
    "assemble_hamiltonian",
    "build_box_enumeration",
    "fit_decay",
    "reproduce",
    "resolvent_columns",
    "run",
    "run_default_verification",
    "smoothstep",
    "stieltjes_transform",
    "telescope_series_diagnostic",
    "verify_boundary_derivatives",
    "verify_finite_smooth",
    "verify_resolvent_average_bound",
    "verify_resolvent_semigroup_identity",
    "verify_semigroup_hoelder",
    "verify_spectral_averaging",
]
