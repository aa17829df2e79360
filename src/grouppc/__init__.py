"""Penalized-complexity priors and evidence for grouped Gaussian models.

The package treats within-group dependence (exchangeable, AR1, or
Ornstein-Uhlenbeck residuals) as a model component whose prior shrinks
toward independence, and integrates Gaussian linear models over a
(precision, correlation) grid to obtain marginal likelihoods and Bayes
factors between grouping structures.
"""

from .design import (
    Dataset,
    Family,
    GroupModel,
    GroupedDesign,
    balanced_design,
    parse_family,
)
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    NumericError,
    ParseError,
)
from .corr import (
    corr_matrix,
    dlogdet_dparam,
    internal_to_param,
    log_det,
    param_to_internal,
)
from .pcprior import (
    DistanceFunction,
    PCPrior,
    PriorGrid,
    balanced_density,
    density_grid,
    icc_to_param,
    kld_gaussian,
    normalization_mass,
    solve_lambda,
)
from .inference import (
    BayesFactor,
    FitResult,
    GridConfig,
    HyperPriors,
    bayes_factor,
    evidence_category,
    gaussian_loglik,
    gumbel2_log_density,
    log_marginal_likelihood,
    posterior_summaries,
    solve_psi,
)
from .simulate import SimConfig, simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "BayesFactor",
    "ConfigurationError",
    "DataError",
    "Dataset",
    "DistanceFunction",
    "DomainError",
    "Family",
    "FitResult",
    "GridConfig",
    "GroupModel",
    "GroupedDesign",
    "HyperPriors",
    "NumericError",
    "PCPrior",
    "ParseError",
    "PriorGrid",
    "SimConfig",
    "balanced_density",
    "balanced_design",
    "bayes_factor",
    "corr_matrix",
    "density_grid",
    "dlogdet_dparam",
    "evidence_category",
    "gaussian_loglik",
    "gumbel2_log_density",
    "icc_to_param",
    "internal_to_param",
    "kld_gaussian",
    "log_det",
    "log_marginal_likelihood",
    "normalization_mass",
    "param_to_internal",
    "parse_family",
    "posterior_summaries",
    "simulate_dataset",
    "solve_lambda",
    "solve_psi",
    "__version__",
]
