"""Synthetic data generation: determinism, shapes, and sample moments."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grouppc import (
    ConfigurationError,
    DomainError,
    Family,
    GroupModel,
    GroupedDesign,
    SimConfig,
    balanced_design,
    simulate_dataset,
)

EXCH = GroupModel(Family.EXCHANGEABLE)
AR1 = GroupModel(Family.AR1)
OU = GroupModel(Family.OU)
OU_UNIT = GroupModel(Family.OU, assume_unit_spacing=True)

RAGGED = (3, 1, 5, 3, 1, 7, 5, 2)
RAGGED_POSITIONS = tuple(
    tuple(np.cumsum(np.random.default_rng(j).uniform(0.2, 1.8, m)).tolist())
    for j, m in enumerate(RAGGED))


def _dense_block(model, design, j, param):
    """Group j's correlation matrix, entry by entry."""
    m = design.group_sizes[j]
    i = np.arange(m)
    if model.family is Family.EXCHANGEABLE:
        return np.where(i[:, None] == i, 1.0, param)
    if model.family is Family.AR1:
        return param ** np.abs(i[:, None] - i)
    pos = (i * 1.0 if design.positions is None
           else np.asarray(design.positions[j], dtype=float))
    R = np.exp(-np.abs(pos[:, None] - pos) * param)
    np.fill_diagonal(R, 1.0)
    return R


def _per_group_oracle(config):
    """y and X as drawn group by group: one dense block, one Cholesky
    factor and one standard-normal draw per group, in row order."""
    design = config.design
    rng = np.random.default_rng(config.seed)
    M, p = design.total_size, len(config.beta)
    X = np.ones((M, p))
    if p > 1:
        X[:, 1:] = rng.standard_normal((M, p - 1))
    theta = np.empty(M)
    for j, rows in enumerate(design.group_slices()):
        R = _dense_block(config.model, design, j, config.param)
        L = np.linalg.cholesky(config.sigma2 * R)
        theta[rows] = L @ rng.standard_normal(design.group_sizes[j])
    return X @ np.asarray(config.beta) + theta, X


ORACLE_CASES = [
    (EXCH, GroupedDesign(RAGGED), 0.45),
    (EXCH, balanced_design(30, 20), 0.0),
    (AR1, GroupedDesign(RAGGED), 0.8),
    (AR1, balanced_design(30, 20), 0.3),
    (OU, GroupedDesign(RAGGED, RAGGED_POSITIONS), 0.7),
    (OU, GroupedDesign(RAGGED, RAGGED_POSITIONS), 25.0),
    (OU_UNIT, GroupedDesign(RAGGED), 0.4),
    (OU_UNIT, balanced_design(30, 20), 1.2),
]


@pytest.mark.parametrize("model, design, param", ORACLE_CASES)
@pytest.mark.parametrize("beta, sigma2", [((1.0,), 1.0),
                                          ((1.0, 0.5, -2.0), 2.5)])
def test_equals_the_per_group_draw_bit_for_bit(model, design, param, beta,
                                               sigma2):
    # one draw of length M and one factor per size class give the bits
    # that one draw and one dense factor per group gave
    config = SimConfig(design=design, model=model, param=param, beta=beta,
                       sigma2=sigma2, seed=17)
    y, X = _per_group_oracle(config)
    data = simulate_dataset(config)
    assert data.y.tobytes() == y.tobytes()
    assert data.X.tobytes() == X.tobytes()


@pytest.mark.parametrize("model, design", [
    (OU_UNIT, GroupedDesign((1, 3, 1, 4))),
    (OU, GroupedDesign((1, 3), positions=((0.0,), (0.0, 1.0, 2.0)))),
])
def test_indefinite_block_is_a_domain_error_naming_the_parameter(model,
                                                                 design):
    # at phi = 1e-300 every correlation rounds to 1: the blocks of size
    # one factorize, the larger ones are singular
    config = SimConfig(design=design, model=model, param=1e-300, seed=1)
    with pytest.raises(DomainError,
                       match=r"not positive definite at phi = 1e-300"):
        simulate_dataset(config)


def test_shapes_and_column_names():
    cfg = SimConfig(design=balanced_design(4, 6), model=EXCH, param=0.3,
                    beta=(1.0, 2.0, 3.0), seed=0)
    ds = simulate_dataset(cfg)
    assert ds.y.shape == (24,)
    assert ds.X.shape == (24, 3)
    assert ds.column_names == ("intercept", "x1", "x2")
    assert np.all(ds.X[:, 0] == 1.0)


def test_identical_seeds_identical_data():
    cfg = SimConfig(design=balanced_design(3, 5), model=AR1, param=0.6,
                    beta=(0.0, 1.0), seed=42)
    a, b = simulate_dataset(cfg), simulate_dataset(cfg)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.X, b.X)
    c = simulate_dataset(SimConfig(design=balanced_design(3, 5), model=AR1,
                                   param=0.6, beta=(0.0, 1.0), seed=43))
    assert not np.array_equal(a.y, c.y)


def test_exchangeable_sample_correlation():
    # pairs within groups of two: sample correlation approaches rho
    cfg = SimConfig(design=balanced_design(20000, 2), model=EXCH, param=0.8,
                    beta=(0.0,), seed=1)
    theta = simulate_dataset(cfg).y.reshape(-1, 2)
    assert_allclose(np.corrcoef(theta[:, 0], theta[:, 1])[0, 1], 0.8,
                    atol=0.02)


def test_ar1_lag_one_correlation_and_variance():
    cfg = SimConfig(design=balanced_design(400, 50), model=AR1, param=0.5,
                    beta=(2.0,), sigma2=4.0, seed=2)
    y = simulate_dataset(cfg).y.reshape(400, 50) - 2.0
    assert_allclose(np.mean(y * y), 4.0, rtol=0.05)
    lag1 = np.mean(y[:, :-1] * y[:, 1:]) / np.mean(y * y)
    assert_allclose(lag1, 0.5, atol=0.02)


def test_ou_uses_positions():
    d = GroupedDesign(group_sizes=(2,) * 30000,
                      positions=((0.0, 2.0),) * 30000)
    cfg = SimConfig(design=d, model=GroupModel(Family.OU), param=0.7,
                    beta=(0.0,), seed=3)
    theta = simulate_dataset(cfg).y.reshape(-1, 2)
    want = np.exp(-2.0 * 0.7)
    assert_allclose(np.corrcoef(theta[:, 0], theta[:, 1])[0, 1], want,
                    atol=0.02)


def test_overflowing_beta_is_domain_error():
    # every beta is finite, so the config accepts it; y is not
    cfg = SimConfig(design=balanced_design(5, 4), model=EXCH, param=0.5,
                    beta=(1e308, 1e308), seed=1)
    with pytest.raises(DomainError, match="beta is too large"):
        simulate_dataset(cfg)


@pytest.mark.parametrize("seed, message", [
    (-1, "the seed must be nonnegative"),
    (1.5, "the seed must be an integer"),
    (np.float64(2.0), "the seed must be an integer"),
])
def test_config_refuses_a_seed_that_is_not_a_nonnegative_integer(seed,
                                                                 message):
    with pytest.raises(DomainError, match=message):
        SimConfig(design=balanced_design(2, 3), model=EXCH, param=0.5,
                  seed=seed)


def test_config_validation():
    d = balanced_design(2, 3)
    with pytest.raises(DomainError, match="seed"):
        SimConfig(design=d, model=EXCH, param=0.5)
    with pytest.raises(DomainError):
        SimConfig(design=d, model=EXCH, param=1.0, seed=1)
    for sigma2 in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="sigma2"):
            SimConfig(design=d, model=EXCH, param=0.5, sigma2=sigma2, seed=1)
    with pytest.raises(DomainError, match="NaN"):
        SimConfig(design=d, model=EXCH, param=np.nan, seed=1)
    with pytest.raises(DomainError):
        SimConfig(design=d, model=EXCH, param=0.5, beta=(), seed=1)
    with pytest.raises(DomainError):
        SimConfig(design=d, model=GroupModel(Family.OU, assume_unit_spacing=True),
                  param=0.0, seed=1)
    with pytest.raises(ConfigurationError):
        simulate_dataset(SimConfig(design=d, model=GroupModel(Family.OU),
                                   param=0.5, seed=1))
