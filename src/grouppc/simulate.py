"""Simulation of grouped datasets with correlated residuals.

Draws y = X beta + theta with theta stacked from independent per-group
vectors N(0, sigma2 * R_j(param)).  Covariates (beyond the intercept)
are standard Gaussian.  Everything is driven by one seeded generator in
a fixed order, so a configuration maps to exactly one dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import corr
from .design import Dataset, GroupModel, GroupedDesign, _whole
from .errors import DomainError

__all__ = ["SimConfig", "simulate_dataset"]


@dataclass(frozen=True)
class SimConfig:
    """Everything `simulate_dataset` needs.

    ``beta`` lists the intercept first; covariates are generated for the
    remaining coefficients.  The seed, an integer >= 0, is mandatory:
    unseeded simulation is not reproducible and therefore not supported.
    """

    design: GroupedDesign
    model: GroupModel
    param: float
    beta: tuple[float, ...] = (0.0,)
    sigma2: float = 1.0
    seed: int = None

    def __post_init__(self):
        if self.seed is None:
            raise DomainError("a seed is required")
        if _whole(self.seed, DomainError, "the seed") < 0:
            raise DomainError("the seed must be nonnegative")
        if not 0.0 < self.sigma2 < np.inf:
            raise DomainError("sigma2 must be positive and finite")
        if len(self.beta) < 1:
            raise DomainError("beta must at least contain the intercept")
        if not np.all(np.isfinite(self.beta)):
            raise DomainError("beta must be finite")
        corr._check_param(self.model, self.param, allow_degenerate=False)


def simulate_dataset(config: SimConfig) -> Dataset:
    """Draw one dataset; identical seeds give identical datasets.

    After the covariates, one standard-normal draw of length M gives
    every group its innovations, rows by group: the stream that one draw
    per group in row order gives.  Each size class is factorized once:
    one Cholesky factor of sigma2 R serves all its groups, or for OU with
    positions one batched factorization of their stacked blocks.  Each
    group's theta is its factor times its innovations, by one batched
    matrix-vector product per class, equal to the product group by group.
    """
    config.model.check_design(config.design)
    rng = np.random.default_rng(config.seed)
    design = config.design
    M = design.total_size
    p = len(config.beta)
    X = np.ones((M, p))
    if p > 1:
        X[:, 1:] = rng.standard_normal((M, p - 1))
    z = rng.standard_normal(M)
    theta = np.empty(M)
    param = float(config.param)
    starts, sizes = design.offsets[:-1], np.diff(design.offsets)
    for m, _ in design.size_classes:
        groups = np.flatnonzero(sizes == m)
        rows = starts[groups, None] + np.arange(m)
        R = corr._corr_blocks(config.model, design, groups, param)
        try:
            L = np.linalg.cholesky(config.sigma2 * R)
        except np.linalg.LinAlgError as exc:
            raise DomainError(
                "correlation block is not positive definite at "
                f"{config.model.param_name} = {config.param}") from exc
        theta[rows] = np.matmul(L, z[rows, None])[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        y = X @ np.asarray(config.beta) + theta
    if not np.all(np.isfinite(y)):
        raise DomainError("beta is too large: X beta + theta is not finite")
    names = tuple(["intercept"] + [f"x{i}" for i in range(1, p)])
    return Dataset(y=y, X=X, design=design, column_names=names)
