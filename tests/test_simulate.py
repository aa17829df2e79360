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
