"""Evidence integration: likelihood paths, grids, summaries, Bayes factors."""

import dataclasses
import hashlib
import json
import sys
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, linalg, stats

from conftest import property_examples
from grouppc import (
    ConfigurationError,
    DataError,
    Dataset,
    DistanceFunction,
    DomainError,
    Family,
    GridConfig,
    GroupModel,
    GroupedDesign,
    HyperPriors,
    NumericError,
    PCPrior,
    SimConfig,
    balanced_design,
    bayes_factor,
    corr_matrix,
    density_grid,
    evidence_category,
    gaussian_loglik,
    gumbel2_log_density,
    icc_to_param,
    internal_to_param,
    log_marginal_likelihood,
    param_to_internal,
    posterior_summaries,
    simulate_dataset,
    solve_psi,
)
from grouppc import corr, design, inference
from grouppc.corr import _kernel_and_stats
from grouppc.inference import _beta_moments, _mixture_quantiles

EXCH = GroupModel(Family.EXCHANGEABLE)
AR1 = GroupModel(Family.AR1)
OU = GroupModel(Family.OU)


def _woodbury(ds, W, log_tau, beta_prec, logdetC):
    """`inference._woodbury` on every row of ``log_tau`` at the nodes of W.

    Returns the plane and the eigen triple it was computed from, as
    (plane, lam, (V, c)).
    """
    lam, V, c = eig = inference._eigen(W)
    plane = inference._woodbury(ds, eig, W[:, 0, 0], log_tau,
                                np.arange(len(log_tau))[:, None], beta_prec,
                                0.0 - 0.5 * logdetC, 0.0)
    return plane, lam, (V, c)


def reference_dataset():
    """Unbalanced two-group dataset used for the frozen references below."""
    design = GroupedDesign(group_sizes=(7, 6), positions=(
        tuple(np.cumsum(np.random.default_rng(3).uniform(0.5, 1.5, 7)).tolist()),
        tuple(np.cumsum(np.random.default_rng(4).uniform(0.5, 1.5, 6)).tolist()),
    ))
    cfg = SimConfig(design=design, model=EXCH, param=0.6,
                    beta=(0.5, 1.0, -0.8), sigma2=1.5, seed=11)
    return simulate_dataset(cfg)


def nine_coef_dataset():
    """Ragged six-group AR1 dataset with the intercept and eight covariates.

    Nine coefficients take `_woodbury`'s per-coefficient sums past seven
    terms, where numpy's own sum of a short axis stops adding in order.
    """
    rng = np.random.default_rng(9)
    sizes = (4, 9, 6, 11, 5, 8)
    design = GroupedDesign(group_sizes=sizes, positions=tuple(
        tuple(np.cumsum(rng.uniform(0.5, 1.5, m)).tolist()) for m in sizes))
    cfg = SimConfig(design=design, model=AR1, param=0.6,
                    beta=tuple(rng.uniform(-1.0, 1.0, 9)), sigma2=1.5, seed=12)
    return simulate_dataset(cfg)


def toy_dataset():
    """Three observations in one group; small enough for 2-D quadrature."""
    y = np.random.default_rng(5).standard_normal(3) * 1.3 + 0.7
    return Dataset(y=y, X=np.ones((3, 1)), design=balanced_design(1, 3))


def toy_hyper(dataset):
    prior = PCPrior.from_quantile(EXCH, dataset.design, 0.5, 0.5)
    return HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))


# ----------------------------------------------------------------------
# precision prior
# ----------------------------------------------------------------------

def test_gumbel2_normalizes_and_hits_tail_statement():
    u_sigma, alpha = 2.0, 0.01
    psi = solve_psi(u_sigma, alpha)
    mass, _ = integrate.quad(
        lambda t: np.exp(gumbel2_log_density(t, psi)), 0, np.inf, limit=200)
    assert_allclose(mass, 1.0, atol=1e-9)
    # P(sigma > U) = P(tau < U^-2); the analytic CDF is exp(-psi / sqrt(t))
    tail, _ = integrate.quad(
        lambda t: np.exp(gumbel2_log_density(t, psi)), 0, u_sigma ** -2)
    assert_allclose(tail, alpha, rtol=1e-8)
    assert_allclose(np.exp(-psi * u_sigma), alpha, rtol=1e-13)


def test_fit_takes_the_precision_prior_below_log_tau_minus_745():
    # e^t underflows to 0 below t = -745: the fit evaluates the prior at t
    design = balanced_design(5, 4)
    data = simulate_dataset(SimConfig(design=design, model=EXCH, param=0.3,
                                      seed=1))
    hyper = toy_hyper(data)
    deep = GridConfig(n_tau=8121, n_corr=41, tau_bounds=(-800.0, 12.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = log_marginal_likelihood(data, EXCH, hyper, deep)
    assert np.isfinite(fit.log_mlik)
    # the same 0.1 step over [-12, 12]: the nodes below carry no mass
    near = GridConfig(n_tau=241, n_corr=41, tau_bounds=(-12.0, 12.0))
    assert_allclose(fit.log_mlik,
                    log_marginal_likelihood(data, EXCH, hyper, near).log_mlik,
                    rtol=1e-12)


def test_solve_psi_validates():
    for u_sigma in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            solve_psi(u_sigma, 0.01)
    with pytest.raises(DomainError):
        solve_psi(1.0, 0.0)


def test_hyper_priors_reject_non_finite_scales():
    prior = PCPrior.from_quantile(EXCH, balanced_design(3, 4), 0.5, 0.5)
    for psi in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="psi"):
            HyperPriors(corr_prior=prior, psi=psi)
        with pytest.raises(DomainError, match="psi"):
            gumbel2_log_density(1.0, psi)
    for tau in (0.0, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(DomainError, match="tau"):
            gumbel2_log_density(tau, 1.0)
    assert gumbel2_log_density(np.inf, 1.0) == -np.inf
    for beta_prec in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="beta_prec"):
            HyperPriors(corr_prior=prior, psi=1.0, beta_prec=beta_prec)


# ----------------------------------------------------------------------
# Gaussian log likelihood
# ----------------------------------------------------------------------

def test_loglik_matches_high_precision_references():
    # frozen values from a 50-digit Cholesky of the full covariance
    ds = reference_dataset()
    cases = [(EXCH, 0.95, -507.65354561761956),
             (AR1, 0.7, -115.5459734799779),
             (OU, 0.9, -113.54231569720339)]
    for model, param, ref in cases:
        got = gaussian_loglik(ds, model, param, 17.0, beta_prec=1e-6)
        assert_allclose(got, ref, rtol=2e-12)


@st.composite
def ragged_datasets(draw):
    """Small datasets over all-singleton, m = 2 or ragged designs.

    Positions have irregular gaps; X holds the intercept and up to three
    covariates.  The values come from a drawn seed.
    """
    n = draw(st.integers(1, 5))
    sizes = draw(st.one_of(st.just([1] * n), st.just([2] * n),
                           st.lists(st.integers(1, 12), min_size=n,
                                    max_size=n)))
    p = draw(st.integers(1, 4))
    return _seeded_dataset(sizes, p, draw(st.integers(0, 2 ** 32 - 1)))


def _seeded_dataset(sizes, p, seed):
    rng = np.random.default_rng(seed)
    pos = tuple(tuple(np.cumsum(rng.uniform(0.2, 2.5, m)).tolist())
                for m in sizes)
    d = GroupedDesign(group_sizes=tuple(sizes), positions=pos)
    y = rng.standard_normal(d.total_size) * 2.1
    X = np.column_stack([np.ones(d.total_size),
                         rng.standard_normal((d.total_size, p - 1))])
    names = ("intercept",) + tuple(f"x{k}" for k in range(1, p))
    return Dataset(y=y, X=X, design=d, column_names=names)


@settings(max_examples=property_examples(60))
@given(ds=ragged_datasets(), model=st.sampled_from([EXCH, AR1, OU]),
       u=st.floats(0.0, 0.9), s_other=st.floats(-8.0, 8.0),
       log_tau=st.floats(-2.0, 3.0))
# at s = 8 the round trip through rho moves the node by 3e-13, enough to
# move this grid column by 1e-10 relative if the grid kept the raw node
@example(ds=_seeded_dataset([3], 4, 0), model=EXCH, u=0.0, s_other=8.0,
         log_tau=0.0)
def test_loglik_blockwise_equals_dense(ds, model, u, s_other, log_tau):
    # the two routes share nothing past the correlation closed forms;
    # compare where the dense route is well conditioned
    param = 0.2 + 4.0 * u if model.family is Family.OU else u
    tau = float(np.exp(log_tau))
    a = gaussian_loglik(ds, model, param, tau, beta_prec=1e-3,
                        method="blockwise")
    b = gaussian_loglik(ds, model, param, tau, beta_prec=1e-3,
                        method="dense")
    assert_allclose(a, b, rtol=1e-8)
    # every column of the grid evaluation is the one-node evaluation, at
    # the internal node that gaussian_loglik itself maps the parameter to
    params = internal_to_param(
        model, np.array([s_other, param_to_internal(model, param), -s_other]))
    s = param_to_internal(model, params)
    log_taus = np.array([log_tau, 0.0])
    (logdetC, _), W = _kernel_and_stats(ds, model, s)
    grid, _, _ = _woodbury(ds, W, log_taus, 1e-3, logdetC)
    for k, p_k in enumerate(params):
        for i, t_i in enumerate(log_taus):
            one = gaussian_loglik(ds, model, p_k, float(np.exp(t_i)),
                                  beta_prec=1e-3)
            assert_allclose(grid[i, k], one, rtol=1e-11)


@settings(max_examples=property_examples(30))
@given(ds=ragged_datasets(), model=st.sampled_from([EXCH, AR1, OU]),
       s=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=3),
       log_tau=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=3))
def test_beta_moments_equal_dense_solve(ds, model, s, log_tau):
    # `_beta_moments` needs what the fit requires, X of full column rank:
    # along null directions of X'QX both routes return only rounding,
    # amplified up to tau / beta_prec-fold
    assume(np.linalg.matrix_rank(ds.X) == ds.n_coef)
    # oracle: B = beta_prec I + tau X'QX built and solved cell by cell
    s, tau = np.array(s), np.exp(log_tau)
    p = ds.n_coef
    (logdetC, _), W = _kernel_and_stats(ds, model, s)
    _, lam, (V, c) = _woodbury(ds, W, np.log(tau), 1e-3, logdetC)
    t_idx, k_idx = np.divmod(np.arange(tau.size * s.size), s.size)
    mean, var = _beta_moments(V[k_idx], lam[k_idx], c[k_idx], tau[t_idx],
                              1e-3)
    W = W[k_idx]
    B = 1e-3 * np.eye(p) + tau[t_idx, None, None] * W[:, 1:, 1:]
    b = tau[t_idx, None] * W[:, 1:, 0]
    assert_allclose(mean, np.linalg.solve(B, b[..., None])[..., 0],
                    rtol=1e-10)
    assert_allclose(var, np.diagonal(np.linalg.inv(B), axis1=1, axis2=2),
                    rtol=1e-10)


def test_exchangeable_stats_by_size_class_equal_per_group_sums():
    # 200 groups of 19 sizes (singletons included): the statistics summed
    # per size class against the group-by-group formula, and the per-node
    # weights are n_corr x n_classes, never n_corr x n_groups
    sizes = np.rint(np.linspace(1, 19, 200)).astype(int)
    rng = np.random.default_rng(14)
    design = GroupedDesign(group_sizes=tuple(rng.permutation(sizes)))
    assert len(design.size_classes) == 19
    M = design.total_size
    ds = Dataset(y=rng.standard_normal(M) + 2.0,
                 X=np.column_stack([np.ones(M), rng.standard_normal(M)]),
                 design=design, column_names=("intercept", "x1"))
    s = np.linspace(-12.0, 12.0, 201)
    rho = 1.0 / (1.0 + np.exp(-s))
    Z = np.column_stack([ds.y, ds.X])
    want = np.zeros((s.size, 3, 3))
    for rows, m in zip(design.group_slices(), design.group_sizes):
        mu = Z[rows].mean(axis=0)
        D = Z[rows] - mu
        want += ((1.0 + np.exp(s))[:, None, None] * (D.T @ D)
                 + (m / (1.0 + (m - 1) * rho))[:, None, None]
                 * np.outer(mu, mu))
    got = _kernel_and_stats(ds, EXCH, s)[1]
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * np.abs(want).max(axis=(1, 2)))
    many = np.linspace(-12.0, 12.0, 4001)
    tracemalloc.start()
    try:
        _kernel_and_stats(ds, EXCH, many)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < many.size * design.n_groups * 8 / 2


@pytest.mark.parametrize("model, make_dataset", [
    pytest.param(EXCH, reference_dataset, id="exchangeable"),
    pytest.param(AR1, reference_dataset, id="ar1"),
    pytest.param(OU, reference_dataset, id="ou"),
    pytest.param(AR1, nine_coef_dataset, id="ar1-p9"),
])
def test_woodbury_matches_per_cell_capacitance(model, make_dataset):
    # oracle: B = beta_prec I + tau X'QX built on every cell, then
    # slogdet and solve for the likelihood, solve and inv for the moments
    ds = make_dataset()
    M, p = ds.n_obs, ds.n_coef
    s = np.linspace(-12.0, 12.0, 41)
    log_tau = np.linspace(-12.0, 12.0, 31)
    (logdetC, _), W = _kernel_and_stats(ds, model, s)
    loglik, lam, (V, c) = _woodbury(ds, W, log_tau, 1e-6, logdetC)
    tau = np.exp(log_tau)
    B = 1e-6 * np.eye(p) + tau[:, None, None, None] * W[:, 1:, 1:]
    b = tau[:, None, None] * W[:, 1:, 0]
    sign, logdetB = np.linalg.slogdet(B)
    assert np.all(sign == 1.0)
    sol = np.linalg.solve(B, b[..., None])[..., 0]
    want = -0.5 * (M * np.log(2.0 * np.pi) - M * log_tau[:, None] + logdetC
                   - p * np.log(1e-6) + logdetB
                   + tau[:, None] * W[:, 0, 0] - np.sum(b * sol, axis=-1))
    assert_allclose(loglik, want, rtol=1e-12)
    cells = np.random.default_rng(8).choice(loglik.size, 60, replace=False)
    t_idx, k_idx = np.divmod(cells, s.size)
    mean, var = _beta_moments(V[k_idx], lam[k_idx], c[k_idx], tau[t_idx],
                              1e-6)
    Binv = np.linalg.inv(B.reshape(-1, p, p)[cells])
    assert_allclose(mean, sol.reshape(-1, p)[cells], rtol=1e-12)
    assert_allclose(var, np.diagonal(Binv, axis1=1, axis2=2), rtol=1e-12)


def test_fit_diagonalises_once_and_forms_moments_only_where_mass_is(
        monkeypatch):
    ds = reference_dataset()
    prior = PCPrior.from_quantile(AR1, ds.design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    calls = {"eigh": [], "cholesky": [], "inv": []}
    for name, shapes in calls.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _r=real, _s=shapes:
                            _s.append(np.shape(a)) or _r(a))
    moments = []
    real_moments = inference._beta_moments
    monkeypatch.setattr(inference, "_beta_moments",
                        lambda V, lam, c, tau, beta_prec:
                        moments.append(lam.shape)
                        or real_moments(V, lam, c, tau, beta_prec))
    log_marginal_likelihood(ds, AR1, hyper)
    # one eigendecomposition per correlation node, no p x p factor per cell
    assert calls == {"eigh": [(201, ds.n_coef, ds.n_coef)], "cholesky": [],
                     "inv": []}
    # one batch of moments, far fewer than the 201 x 201 grid cells
    assert len(moments) == 1
    n_cells, p = moments[0]
    assert p == ds.n_coef
    assert 0 < n_cells < 201 * 201 // 4


def test_default_fit_holds_no_array_of_cells_times_coefficients():
    # ten 201 x 201 planes are 3.2 MB; one (n_tau, n_corr, p) array at
    # p = 10 is as large
    design = balanced_design(30, 20)
    data = simulate_dataset(SimConfig(design=design, model=AR1, param=0.5,
                                      beta=tuple(np.linspace(1.0, -1.0, 10)),
                                      seed=3))
    prior = PCPrior.from_quantile(AR1, design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    tracemalloc.start()
    try:
        log_marginal_likelihood(data, AR1, hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_fit_exponentiates_its_cells_once(monkeypatch):
    ds = reference_dataset()
    prior = PCPrior.from_quantile(AR1, ds.design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    grid = GridConfig(n_tau=31, n_corr=41)
    shapes = []
    real_exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x, *args, **kwargs:
                        shapes.append(np.shape(x))
                        or real_exp(x, *args, **kwargs))
    log_marginal_likelihood(ds, AR1, hyper, grid=grid)
    assert shapes.count((31, 41)) == 1


def test_fit_refuses_non_finite_cells(monkeypatch):
    # a NaN or +inf cell, or a grid whose every cell is -inf, is refused;
    # a single -inf cell only carries no mass
    ds = reference_dataset()
    prior = PCPrior.from_quantile(AR1, ds.design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    grid = GridConfig(n_tau=31, n_corr=41)
    real = inference._woodbury
    want = log_marginal_likelihood(ds, AR1, hyper, grid=grid).log_mlik
    for cells, value in ((np.s_[0, 0], -np.inf), (np.s_[3, 5], np.nan),
                         (np.s_[3, 5], np.inf), (np.s_[:], -np.inf)):
        def patched(*args, _cells=cells, _value=value):
            loglik = real(*args)
            loglik[_cells] = _value
            return loglik
        monkeypatch.setattr(inference, "_woodbury", patched)
        if cells == np.s_[0, 0]:
            got = log_marginal_likelihood(ds, AR1, hyper, grid=grid)
            assert_allclose(got.log_mlik, want, rtol=1e-15)
            continue
        with pytest.raises(NumericError, match="non-finite"):
            log_marginal_likelihood(ds, AR1, hyper, grid=grid)


def test_fit_refuses_indefinite_capacitance(monkeypatch):
    # one flipped diagonal entry makes X'QX indefinite at every node
    ds = reference_dataset()
    prior = PCPrior.from_quantile(EXCH, ds.design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    real = corr._kernel_and_stats

    def flipped(*args):
        kernel, W = real(*args)
        W[:, -1, -1] *= -1.0
        return kernel, W
    monkeypatch.setattr(corr, "_kernel_and_stats", flipped)
    with pytest.raises(NumericError, match="not positive definite"):
        log_marginal_likelihood(ds, EXCH, hyper)
    with pytest.raises(NumericError, match="not positive definite"):
        gaussian_loglik(ds, EXCH, 0.3, 1e4)


@pytest.mark.parametrize("last", [-1e-9, 1e305])
def test_capacitance_refused_where_only_the_largest_tau_fails(last):
    # a coefficient decoupled from the others with X'QX entry ``last``:
    # d = beta_prec + tau last is positive and finite at small tau, and
    # non-positive or infinite only at the largest tau, wherever that node
    # lies in the order of the tau nodes
    ds = reference_dataset()
    s = np.linspace(-3.0, 3.0, 5)
    (logdetC, _), W = _kernel_and_stats(ds, EXCH, s)
    W[:, -1, :] = W[:, :, -1] = 0.0
    W[:, -1, -1] = last
    with np.errstate(over="ignore"):      # tau last overflows to inf
        _woodbury(ds, W, np.linspace(-12.0, 0.0, 7), 1e-6, logdetC)
        for log_tau in (np.linspace(-12.0, 12.0, 7),
                        np.array([0.0, 12.0, -12.0, 4.0])):
            with pytest.raises(NumericError, match="not positive definite"):
                _woodbury(ds, W, log_tau, 1e-6, logdetC)


@pytest.mark.parametrize("method", ["blockwise", "dense"])
def test_loglik_rejects_bad_parameters(method):
    ds = reference_dataset()
    for model, param in [(EXCH, 1.0), (EXCH, -0.1), (AR1, 1.0),
                         (AR1, -0.1), (EXCH, np.nan), (AR1, np.nan),
                         (OU, 0.0), (OU, -1.0), (OU, np.nan)]:
        with pytest.raises(DomainError):
            gaussian_loglik(ds, model, param, 2.0, method=method)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="tau"):
            gaussian_loglik(ds, AR1, 0.5, bad, method=method)
        with pytest.raises(DomainError, match="beta_prec"):
            gaussian_loglik(ds, AR1, 0.5, 2.0, beta_prec=bad, method=method)
    unplaced = Dataset(y=ds.y, X=ds.X, column_names=ds.column_names,
                       design=GroupedDesign(group_sizes=ds.design.group_sizes))
    with pytest.raises(ConfigurationError):
        gaussian_loglik(unplaced, OU, 0.5, 2.0, method=method)


def test_loglik_refuses_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'x'"):
        gaussian_loglik(reference_dataset(), AR1, 0.5, 2.0, method="x")


def test_loglik_matches_scipy_multivariate_normal():
    ds = reference_dataset()
    tau, beta_prec = 2.5, 1e-3
    blocks = [corr_matrix(AR1, ds.design, j, 0.6)
              for j in range(ds.design.n_groups)]
    cov = linalg.block_diag(*blocks) / tau + (ds.X @ ds.X.T) / beta_prec
    want = stats.multivariate_normal(mean=np.zeros(ds.y.size),
                                     cov=cov).logpdf(ds.y)
    got = gaussian_loglik(ds, AR1, 0.6, tau, beta_prec=beta_prec)
    assert_allclose(got, want, rtol=1e-9)


# ----------------------------------------------------------------------
# marginal likelihood
# ----------------------------------------------------------------------

def test_log_mlik_matches_adaptive_quadrature_reference():
    # frozen scipy.integrate.dblquad value of the exact evidence integral
    ds = toy_dataset()
    hyper = toy_hyper(ds)
    fit = log_marginal_likelihood(
        ds, EXCH, hyper,
        grid=GridConfig(n_tau=801, n_corr=801,
                        tau_bounds=(-36, 36), corr_bounds=(-36, 36)))
    assert_allclose(fit.log_mlik, -11.755859342888154, atol=1e-9)


def test_log_mlik_grid_refinement_converges():
    ds = toy_dataset()
    hyper = toy_hyper(ds)
    coarse = log_marginal_likelihood(ds, EXCH, hyper)
    fine = log_marginal_likelihood(
        ds, EXCH, hyper,
        grid=GridConfig(n_tau=401, n_corr=401,
                        tau_bounds=(-25, 25), corr_bounds=(-25, 25)))
    assert_allclose(coarse.log_mlik, fine.log_mlik, atol=5e-5)


def test_ou_equals_ar1_under_shared_distance_prior():
    # unit-spaced OU is a reparameterization of AR1; with the same rate
    # on the shared distance scale the evidence must agree
    design = balanced_design(10, 30)
    sim = simulate_dataset(SimConfig(design=design, model=AR1, param=0.5,
                                     beta=(0.5, 1.0), sigma2=1.0, seed=1))
    ou = GroupModel(Family.OU, assume_unit_spacing=True)
    lam = PCPrior.from_quantile(AR1, design, 0.5, 0.5).lam
    psi = solve_psi(1 / 0.31, 0.01)
    fit_a = log_marginal_likelihood(
        sim, AR1, HyperPriors(
            corr_prior=PCPrior(lam=lam, distance=DistanceFunction(AR1, design)),
            psi=psi))
    fit_b = log_marginal_likelihood(
        sim, ou, HyperPriors(
            corr_prior=PCPrior(lam=lam, distance=DistanceFunction(ou, design)),
            psi=psi))
    assert_allclose(fit_a.log_mlik, fit_b.log_mlik, atol=1e-5)
    assert_allclose(fit_a.rho["mean"], fit_b.rho["mean"], atol=1e-4)


def test_fit_recovers_simulation_truth():
    design = balanced_design(12, 25)
    sim = simulate_dataset(SimConfig(design=design, model=EXCH, param=0.4,
                                     beta=(1.0, -2.0), sigma2=2.0, seed=8))
    prior = PCPrior.from_quantile(EXCH, design, 0.5, 0.5)
    fit = log_marginal_likelihood(
        sim, EXCH, HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01)))
    assert fit.rho["q025"] < 0.4 < fit.rho["q975"]
    assert fit.sigma2["q025"] < 2.0 < fit.sigma2["q975"]
    names = [b["name"] for b in fit.beta]
    assert names == ["intercept", "x1"]
    assert fit.beta[0]["q025"] < 1.0 < fit.beta[0]["q975"]
    assert fit.beta[1]["q025"] < -2.0 < fit.beta[1]["q975"]
    assert not fit.diagnostics["boundary_warning"]


def test_ou_reports_correlation_at_reference_gap():
    design = balanced_design(8, 12, unit_positions=True)
    sim = simulate_dataset(SimConfig(design=design, model=OU, param=0.7,
                                     beta=(0.0,), sigma2=1.0, seed=21))
    prior = PCPrior.from_quantile(OU, design, -np.log(0.5), 0.5)
    fit = log_marginal_likelihood(
        sim, OU, HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01)))
    # the reported correlation is exp(-phi * gap) at gap 1; truth 0.4966
    assert 0.2 < fit.rho["mean"] < 0.75
    assert 0 < fit.rho["q025"] < fit.rho["q975"] < 1


def test_boundary_mass_warning_on_tight_bounds():
    design = balanced_design(10, 10)
    sim = simulate_dataset(SimConfig(design=design, model=EXCH, param=0.9,
                                     beta=(0.0,), sigma2=1.0, seed=2))
    prior = PCPrior.from_quantile(EXCH, design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    grid = GridConfig(n_tau=61, n_corr=61, corr_bounds=(-4.0, 1.0))
    fit = log_marginal_likelihood(sim, EXCH, hyper, grid=grid)
    assert fit.diagnostics["boundary_warning"]
    assert fit.diagnostics["boundary_mass"] >= 0.01
    wide = log_marginal_likelihood(sim, EXCH, hyper)
    assert not wide.diagnostics["boundary_warning"]


def test_log_mlik_validations():
    ds = toy_dataset()
    hyper = toy_hyper(ds)
    with pytest.raises(DomainError):
        log_marginal_likelihood(ds, AR1, hyper)  # prior built for exch
    bad = Dataset(y=ds.y, X=np.ones((3, 2)), design=ds.design,
                  column_names=("intercept", "ones_again"))
    with pytest.raises(DataError):
        log_marginal_likelihood(bad, EXCH, toy_hyper(bad))


def test_log_mlik_names_rank_loss_of_full_rank_ill_conditioned_x():
    # X has rank 2 but condition 2e8, so X'X (condition 5e16) has rank 1;
    # the refusal stays and says why, next to a truly deficient X
    z = np.random.default_rng(0).standard_normal(20)
    design = balanced_design(5, 4)
    for x1, cause in ((1.0 + 1e-8 * z, r"condition number 2\.4e\+08"),
                      (np.ones(20), "rank deficient$")):
        ds = Dataset(y=z, X=np.column_stack([np.ones(20), x1]),
                     design=design, column_names=("intercept", "x1"))
        with pytest.raises(DataError, match="rank deficient") as err:
            log_marginal_likelihood(ds, EXCH, toy_hyper(ds))
        assert err.match(cause)


def test_log_mlik_refuses_prior_for_another_design():
    # the fit takes log|R| for the likelihood and the prior from one pass,
    # which is right only when the prior describes the dataset's design
    ds = toy_dataset()
    hyper = toy_hyper(Dataset(y=np.zeros(4), X=np.ones((4, 1)),
                              design=balanced_design(2, 2)))
    with pytest.raises(DomainError, match="different design"):
        log_marginal_likelihood(ds, EXCH, hyper)
    # an equal design built separately is the same design
    same = toy_hyper(Dataset(y=ds.y, X=ds.X, design=balanced_design(1, 3)))
    fit = log_marginal_likelihood(ds, EXCH, same,
                                  grid=GridConfig(n_tau=21, n_corr=21))
    assert np.isfinite(fit.log_mlik)


@pytest.mark.parametrize("model", [EXCH, AR1, OU],
                         ids=lambda m: m.family.value)
def test_one_closed_form_pass_per_node_set(model, kernel_calls):
    # log|R| and its slope come from one pass per node set: a fit makes
    # one on its correlation nodes, each Newton pass of the inversion one,
    # and a density grid one on its parameter column
    ds = reference_dataset()
    prior = PCPrior.from_quantile(model, ds.design, icc_to_param(model, 0.5),
                                  0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    grid = GridConfig(n_tau=41, n_corr=41)
    kernel_calls.clear()
    log_marginal_likelihood(ds, model, hyper, grid=grid)
    assert len(kernel_calls) == 1
    assert_array_equal(kernel_calls[0],
                       internal_to_param(model, grid.axis("corr")))

    prior.distance.invert_internal(1.0)   # builds the starting table
    kernel_calls.clear()
    prior.quantile(np.arange(1, 100) / 100.0)
    assert 1 <= len(kernel_calls) <= 10
    for a, b in zip(kernel_calls, kernel_calls[1:]):
        assert not np.array_equal(a, b)

    kernel_calls.clear()
    table = density_grid(prior, 64)
    assert sum(np.array_equal(c, table.param) for c in kernel_calls) == 1
    assert all(c.size <= 2 for c in kernel_calls[:-1])


def _regroup(ds, order):
    """``ds`` with its groups (rows and positions) taken in ``order``."""
    d = ds.design
    rows = np.concatenate([np.arange(d.offsets[j], d.offsets[j + 1])
                           for j in order])
    design = GroupedDesign(
        group_sizes=tuple(d.group_sizes[j] for j in order),
        positions=tuple(d.positions[j] for j in order))
    return Dataset(y=ds.y[rows], X=ds.X[rows], design=design,
                   column_names=ds.column_names)


def _fit_values(fit):
    return [fit.log_mlik, *fit.rho.values(), *fit.sigma2.values(),
            *(b[k] for b in fit.beta for k in ("mean", "q025", "q975"))]


@settings(max_examples=property_examples(25))
@given(ds=ragged_datasets(), model=st.sampled_from([EXCH, AR1, OU]),
       seed=st.integers(0, 2 ** 32 - 1))
# 2 rows and 3 coefficients: refused in either order
@example(ds=_seeded_dataset([2], 3, 0), model=EXCH, seed=0)
def test_fit_invariant_under_group_reordering(ds, model, seed):
    # the evidence and the summaries depend on the groups, not on their
    # order; each fit uses the prior built on its own design.  Both orders
    # refuse X of deficient column rank
    assume(max(ds.design.group_sizes) > 1)
    refused = np.linalg.matrix_rank(ds.X) < ds.n_coef
    order = np.random.default_rng(seed).permutation(ds.design.n_groups)
    grid = GridConfig(n_tau=41, n_corr=41)
    fits = []
    for data in (ds, _regroup(ds, order)):
        prior = PCPrior.from_quantile(model, data.design,
                                      icc_to_param(model, 0.5), 0.5)
        hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
        if refused:
            with pytest.raises(DataError, match="rank deficient"):
                log_marginal_likelihood(data, model, hyper, grid=grid)
        else:
            fits.append(log_marginal_likelihood(data, model, hyper,
                                                grid=grid))
    if not refused:
        assert_allclose(_fit_values(fits[1]), _fit_values(fits[0]),
                        rtol=1e-12)


def test_grid_config_validations():
    with pytest.raises(DomainError):
        GridConfig(n_tau=1)
    w = GridConfig(n_tau=5, n_corr=5, tau_bounds=(0.0, 4.0)).weights("tau")
    assert_allclose(w.sum(), 4.0)


@pytest.mark.parametrize("field", ["n_tau", "n_corr"])
def test_grid_config_refuses_node_counts_that_are_not_integers(field):
    # such a count constructed, then failed in `axis` with a TypeError
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        GridConfig(**{field: 20.5})
    assert GridConfig(**{field: np.int64(5)}).axis(field[2:]).size == 5


@pytest.mark.parametrize("bounds", [(12.0, -12.0), (0.0, 0.0),
                                    (np.nan, 12.0), (-12.0, np.nan),
                                    (-np.inf, 12.0), (-12.0, np.inf)])
@pytest.mark.parametrize("axis", ["tau_bounds", "corr_bounds"])
def test_grid_config_refuses_empty_or_unbounded_axes(axis, bounds):
    # such a grid would only fail later, in the evidence, with a
    # NumericError and floating-point warnings
    with pytest.raises(DomainError, match="finite with lo < hi"):
        GridConfig(**{axis: bounds})


# ----------------------------------------------------------------------
# posterior summaries
# ----------------------------------------------------------------------

def test_posterior_summaries_point_mass():
    out = posterior_summaries(np.array([2.0, 5.0]), np.array([0.0, 1.0]))
    assert_allclose(out, [5.0, 5.0, 5.0])


def test_posterior_summaries_two_points():
    mean, lo, hi = posterior_summaries(np.array([0.0, 1.0]),
                                       np.array([0.5, 0.5]))
    assert_allclose(mean, 0.5)
    assert lo == 0.0 and hi == 1.0


@pytest.mark.parametrize("values, weights", [
    ([1.0, 2.0], [np.nan, 1.0]), ([1.0, 2.0], [np.inf, 1.0]),
    ([np.nan, 2.0], [1.0, 1.0]), ([np.inf, 2.0], [0.0, 1.0]),
])
def test_posterior_summaries_refuse_non_finite_input(values, weights):
    # a NaN weight was dropped by w > 0, and an infinite one gave NaNs
    with pytest.raises(ValueError, match="must be finite"):
        posterior_summaries(values, weights)


@pytest.mark.parametrize("values, weights, message", [
    ([1.0, 2.0], [1.0], "equal-length"), ([], [], "nonempty"),
    ([1.0, 2.0], [-0.5, 1.0], "nonnegative"),
])
def test_posterior_summaries_refuse_malformed_weights(values, weights,
                                                      message):
    with pytest.raises(ValueError, match=message):
        posterior_summaries(values, weights)


def test_posterior_summaries_refuse_a_zero_total():
    with pytest.raises(ValueError, match="positive total"):
        posterior_summaries([1.0, 2.0], [0.0, 0.0])


def test_log_mlik_refuses_sigma2_overflow_as_numeric_error():
    # with a tiny psi the precision posterior is flat down to log tau of
    # about 2 log psi, so nodes below -709, where sigma^2 = e^-t overflows,
    # hold mass; the summary was a mean of inf
    ds = Dataset(y=np.array([0.3, -0.2]), X=np.ones((2, 1)),
                 design=balanced_design(1, 2))
    prior = PCPrior.from_quantile(EXCH, ds.design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=1e-300)
    with pytest.raises(NumericError, match="must be finite"):
        log_marginal_likelihood(ds, EXCH, hyper,
                                GridConfig(tau_bounds=(-1000.0, 12.0)))


def test_posterior_summaries_match_exponential_quantiles():
    # dense weighted grid approximating Exp(1)
    x = np.linspace(0, 30, 20001)
    w = np.exp(-x)
    mean, q025, q50, q975 = posterior_summaries(x, w,
                                                probs=(0.025, 0.5, 0.975))
    assert_allclose(mean, 1.0, atol=2e-3)
    assert_allclose(q50, np.log(2), atol=2e-3)
    assert_allclose(q025, -np.log(0.975), atol=2e-3)
    assert_allclose(q975, -np.log(0.025), atol=2e-3)


def _quantile(mu, sd, w, prob):
    """One quantile of one mixture through `_mixture_quantiles`."""
    return _mixture_quantiles(mu[None], sd[None], w, (prob,))[0, 0]


def test_mixture_quantile_single_gaussian():
    q = _quantile(np.array([1.5]), np.array([2.0]), np.array([1.0]), 0.975)
    assert_allclose(q, stats.norm(1.5, 2.0).ppf(0.975), atol=1e-9)


def test_mixture_quantile_two_components():
    mu = np.array([-3.0, 3.0])
    sd = np.array([0.5, 0.5])
    w = np.array([0.5, 0.5])
    assert_allclose(_quantile(mu, sd, w, 0.5), 0.0, atol=1e-9)
    lo = _quantile(mu, sd, w, 0.025)
    assert_allclose(stats.norm(-3, 0.5).cdf(lo) * 0.5, 0.025, atol=1e-9)


def _mpmath_quantile(mu, sd, w, prob, x):
    """Mixture quantile and F/f there, by 40-digit Newton from ``x``.

    Checks that F - prob changes sign across the root's 1e-30 (|x| + 1)
    neighbourhood, so the root is the bracketed one.
    """
    with mpmath.workdps(40):
        mu, sd, w = ([mpmath.mpf(float(v)) for v in a] for a in (mu, sd, w))
        cdf = lambda x: sum(wk * mpmath.ncdf((x - mk) / sk)
                            for mk, sk, wk in zip(mu, sd, w))
        pdf = lambda x: sum(wk * mpmath.npdf((x - mk) / sk) / sk
                            for mk, sk, wk in zip(mu, sd, w))
        x = mpmath.mpf(float(x))
        for _ in range(4):
            x -= (cdf(x) - prob) / pdf(x)
        h = mpmath.mpf("1e-30") * (abs(x) + 1)
        assert cdf(x - h) < prob < cdf(x + h)
        return float(x), float(cdf(x) / pdf(x))


def _random_mixture(seed, k=30):
    rng = np.random.default_rng(seed)
    return (tuple(rng.normal(0.0, 2.0, k)), tuple(rng.uniform(0.05, 1.5, k)),
            tuple(rng.dirichlet(np.ones(k))))


def _drawn_mixtures(count=25, k=30):
    """``count`` mixtures drawn in a row from one generator."""
    rng = np.random.default_rng(1)
    return [(rng.normal(0.0, 2.0, k), rng.uniform(0.05, 1.5, k),
             rng.dirichlet(np.ones(k))) for _ in range(count)]


MIXTURES = [
    ((1.5,), (2.0,), (1.0,)),
    ((-3.0, 3.0), (0.5, 0.5), (0.5, 0.5)),
    ((0.2, 1.1), (0.3, 1.7), (0.8, 0.2)),
    _random_mixture(1),
    _random_mixture(2),
    _random_mixture(3),
]
PROBS = (0.025, 0.5, 0.975)


def _counting_ndtr(monkeypatch):
    """Replace `inference.ndtr` by a wrapper; returns the list of calls."""
    evals = []
    ndtr = inference.ndtr
    monkeypatch.setattr(inference, "ndtr",
                        lambda x: evals.append(1) or ndtr(x))
    return evals


@pytest.mark.parametrize("mu, sd, w", MIXTURES)
def test_mixture_quantile_matches_mpmath_in_few_cdf_evaluations(
        mu, sd, w, monkeypatch):
    mu_, sd_, w_ = np.array(mu), np.array(sd), np.array(w)
    for prob in PROBS:
        evals = _counting_ndtr(monkeypatch)
        got = _quantile(mu_, sd_, w_, prob)
        monkeypatch.undo()
        want, _ = _mpmath_quantile(mu, sd, w, prob, got)
        assert abs(got - want) <= 4e-15 * max(abs(want), sd_.min()), prob
        assert len(evals) <= 12, prob


def test_mixture_quantiles_meet_their_accuracy_contract(monkeypatch):
    # (3 + n/2) eps F/f + 4e-16 max(|q|, min sd), derived in the docstring
    eps = np.finfo(float).eps
    for mu, sd, w in _drawn_mixtures():
        for prob in PROBS:
            evals = _counting_ndtr(monkeypatch)
            got = _quantile(mu, sd, w, prob)
            monkeypatch.undo()
            want, cdf_over_pdf = _mpmath_quantile(mu, sd, w, prob, got)
            bound = ((3 + mu.size / 2) * eps * cdf_over_pdf
                     + 4e-16 * max(abs(want), sd.min()))
            assert abs(got - want) <= bound, prob
            assert len(evals) <= 12, prob


def test_curvature_constants_bound_the_drawn_mixtures():
    # the met test's |F''| <= phi(1) / m^2 and |F'''| <= phi(0) / m^3, with
    # m the least sd, rest on |z| phi(z) <= phi(1), |z^2 - 1| phi(z) <= phi(0)
    z = np.linspace(-10.0, 10.0, 200_001)
    phi = stats.norm.pdf(z)
    assert np.max(np.abs(z) * phi) <= inference._PHI_1
    assert np.max(np.abs(z * z - 1.0) * phi) <= inference._INV_SQRT_2PI
    assert_allclose(inference._PHI_1, stats.norm.pdf(1.0), rtol=1e-15)
    assert_allclose(inference._INV_SQRT_2PI, stats.norm.pdf(0.0), rtol=1e-15)
    for mu, sd, w in _drawn_mixtures():
        m = sd.min()
        q = np.linspace((mu - 8.0 * sd).min(), (mu + 8.0 * sd).max(), 20_001)
        z = (q[:, None] - mu) / sd
        dens = stats.norm.pdf(z)
        second = -(w * z * dens / sd ** 2).sum(axis=1)
        third = (w * (z * z - 1.0) * dens / sd ** 3).sum(axis=1)
        assert np.max(np.abs(second)) <= inference._PHI_1 / m ** 2
        assert np.max(np.abs(third)) <= inference._INV_SQRT_2PI / m ** 3


def _pinned_fit_args(family):
    """(dataset, model, hyper) of the tests/test_pinned.py fixture's fit."""
    from test_pinned import _design, _prior
    design = _design()
    data = simulate_dataset(SimConfig(design, OU, param=0.5,
                                      beta=(1.0, 0.5), seed=11))
    model, prior = _prior(family, design)
    return data, model, HyperPriors(prior, solve_psi(1.0 / 0.31, 0.01))


def test_approximate_cdf_of_the_start_step_is_within_its_stated_error():
    z = np.linspace(-40.0, 40.0, 160_001)
    assert np.max(np.abs(inference._approx_ndtr(z) - stats.norm.cdf(z))) < 7.5e-8


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_default_fit_takes_one_cdf_pass(family, monkeypatch):
    # each beta quantile starts one Halley step on the approximate CDF
    # past its mixture's normal quantile, and the first exact pass meets it
    args = _pinned_fit_args(family)
    evals = _counting_ndtr(monkeypatch)
    log_marginal_likelihood(*args)
    assert len(evals) == 1


@pytest.mark.parametrize("mu, sd, w, start", [
    # every component's density underflows at the mean, 40: F' = F'' = 0,
    # so the step f / 0 is not finite and the mean is kept
    ((-100.0, 100.0), (1.0, 1.0), (0.3, 0.7), "mean"),
    # at the mean the narrow component's density underflows and the wide
    # one's Halley denominator nearly cancels: the step leaves the bracket
    # [-27, 21] and is clipped to its lower or upper end
    ((-3.0, 3.0), (3.0, 0.05), (0.4, 0.6), -27.0),
    ((-3.0, 3.0), (3.0, 0.05), (0.42, 0.58), 21.0),
])
def test_mixture_quantile_start_step_falls_back_or_is_clipped(
        mu, sd, w, start, monkeypatch):
    mu_, sd_, w_ = np.array(mu), np.array(sd), np.array(w)
    starts = []
    real = inference.safeguarded_newton
    monkeypatch.setattr(inference, "safeguarded_newton",
                        lambda f, x, *a: starts.append(x) or real(f, x, *a))
    got = _quantile(mu_, sd_, w_, 0.5)
    # the Tukey start at level 0.5 is the mixture mean
    assert starts[0][0] == (w_ @ mu_ if start == "mean" else start)
    want, cdf_over_pdf = _mpmath_quantile(mu, sd, w, 0.5, got)
    bound = ((3 + mu_.size / 2) * np.finfo(float).eps * cdf_over_pdf
             + 4e-16 * max(abs(want), sd_.min()))
    assert abs(got - want) <= bound


def test_mixture_quantiles_with_a_subnormal_slope_raise_no_warning():
    # between two narrow components far apart the slope underflows to a
    # subnormal, so f / slope overflows; the iterate bisects instead
    mu, sd, w = np.array([10.0, 60.0]), np.array([0.3, 0.3]), np.array(
        [0.38, 0.62])
    got = _mixture_quantiles(mu[None], sd[None], w, (0.025, 0.975))[0]
    for prob, q in zip((0.025, 0.975), got):
        want, cdf_over_pdf = _mpmath_quantile(mu, sd, w, prob, q)
        bound = ((3 + mu.size / 2) * np.finfo(float).eps * cdf_over_pdf
                 + 4e-16 * max(abs(want), sd.min()))
        assert abs(q - want) <= bound, prob


def test_mixture_quantiles_of_stacked_mixtures_in_one_solve(monkeypatch):
    # every mixture padded to 30 components by zero-weight copies of its
    # first, which leave its CDF, slope, bracket and min sd unchanged
    k = max(len(mu) for mu, _, _ in MIXTURES)
    pad = lambda a, fill: list(a) + [fill] * (k - len(a))
    mu = np.array([pad(m, m[0]) for m, _, _ in MIXTURES])
    sd = np.array([pad(s, s[0]) for _, s, _ in MIXTURES])
    w = np.array([pad(v, 0.0) for _, _, v in MIXTURES])
    evals = _counting_ndtr(monkeypatch)
    got = _mixture_quantiles(mu, sd, w, PROBS)
    monkeypatch.undo()
    assert got.shape == (len(MIXTURES), len(PROBS))
    assert len(evals) <= 12
    for row, (m, s, v) in zip(got, MIXTURES):
        for q, prob in zip(row, PROBS):
            want, _ = _mpmath_quantile(m, s, v, prob, q)
            assert abs(q - want) <= 4e-15 * max(abs(want), min(s)), prob


def test_mixture_quantiles_of_stacked_columns_equal_each_alone():
    rng = np.random.default_rng(5)
    mu = rng.normal(0.0, 1.0, (4, 300))
    sd = rng.uniform(0.1, 2.0, (4, 300))
    w = rng.dirichlet(np.ones(300))
    joint = _mixture_quantiles(mu, sd, w, (0.025, 0.975))
    for i in range(4):
        one = slice(i, i + 1)
        alone = _mixture_quantiles(mu[one], sd[one], w, (0.025, 0.975))
        assert_array_equal(joint[i], alone[0])
        assert_array_equal(joint[i, :1],
                           _mixture_quantiles(mu[one], sd[one], w, (0.025,))[0])


# ----------------------------------------------------------------------
# Bayes factors
# ----------------------------------------------------------------------

def test_evidence_categories():
    assert evidence_category(0.5) == "not worth more than a bare mention"
    assert evidence_category(-0.5) == "not worth more than a bare mention"
    assert evidence_category(2.0) == "positive"
    assert evidence_category(4.0) == "strong"
    assert evidence_category(9.0) == "very strong"
    assert evidence_category(-9.0) == "very strong"
    with pytest.raises(DomainError):
        evidence_category(np.nan)


def test_bayes_factor_requires_same_data():
    design = balanced_design(5, 8)
    sim = simulate_dataset(SimConfig(design=design, model=EXCH, param=0.5,
                                     beta=(0.0,), sigma2=1.0, seed=5))
    other = simulate_dataset(SimConfig(design=design, model=EXCH, param=0.5,
                                       beta=(0.0,), sigma2=1.0, seed=6))
    psi = solve_psi(1 / 0.31, 0.01)

    def fit(ds, model, psi=psi, beta_prec=1e-6):
        prior = PCPrior.from_quantile(
            model, design, 0.5, 0.5)
        grid = GridConfig(n_tau=101, n_corr=101)
        hyper = HyperPriors(corr_prior=prior, psi=psi, beta_prec=beta_prec)
        return log_marginal_likelihood(ds, model, hyper, grid=grid)

    fit_a, fit_b = fit(sim, EXCH), fit(sim, AR1)
    bf = bayes_factor(fit_a, fit_b)
    assert_allclose(bf.log_bf, fit_a.log_mlik - fit_b.log_mlik)
    assert bf.category == evidence_category(bf.log_bf)
    with pytest.raises(DataError):
        bayes_factor(fit_a, fit(other, EXCH))
    # the precision and fixed-effect priors must be shared as well
    with pytest.raises(DataError, match="psi"):
        bayes_factor(fit_a, fit(sim, AR1, psi=2.0 * psi))
    with pytest.raises(DataError, match="beta_prec"):
        bayes_factor(fit_a, fit(sim, AR1, beta_prec=1e-4))


def test_fingerprint_invariant_to_regrouping():
    # the same rows grouped by a different factor hash identically
    rng = np.random.default_rng(9)
    y = rng.standard_normal(12)
    X = np.column_stack([np.ones(12), rng.standard_normal(12)])
    d_a = GroupedDesign(group_sizes=(4, 4, 4))
    d_b = GroupedDesign(group_sizes=(6, 6))
    perm = rng.permutation(12)
    ds_a = Dataset(y=y, X=X, design=d_a, column_names=("intercept", "x1"))
    ds_b = Dataset(y=y[perm], X=X[perm], design=d_b,
                   column_names=("intercept", "x1"))
    assert ds_a.fingerprint() == ds_b.fingerprint()
    ds_c = Dataset(y=y + 1e-12, X=X, design=d_a,
                   column_names=("intercept", "x1"))
    assert ds_a.fingerprint() != ds_c.fingerprint()


def test_fingerprint_hashes_once_per_dataset(monkeypatch):
    # the digest is taken on the first call and kept, outside the
    # dataset's repr, equality and hash; y and X are read-only copies, so
    # the data cannot change under it
    rng = np.random.default_rng(10)
    y, X = rng.standard_normal(12), np.ones((12, 1))
    ds = Dataset(y=y, X=X, design=GroupedDesign(group_sizes=(4, 8)))
    calls = []

    def sha256(*args):
        calls.append(args)
        return hashlib.sha256(*args)
    monkeypatch.setattr(design, "hashlib",
                        types.SimpleNamespace(sha256=sha256))
    first = ds.fingerprint()
    assert ds.fingerprint() == first and len(calls) == 1
    monkeypatch.undo()
    assert first not in repr(ds)
    kept = [f for f in dataclasses.fields(ds) if not (f.compare and f.repr)]
    assert [f.name for f in kept] == ["_digest"]
    for arr in (ds.y, ds.X):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    y[0] += 1.0
    assert ds.y[0] != y[0]
    assert Dataset(y=ds.y, X=X, design=ds.design).fingerprint() == first


def _study_fit(family, seed):
    """(dataset, model, hyper) of a 30 x 20 study fit, U(0.7, 1.3) gaps."""
    rng = np.random.default_rng(seed)
    design = GroupedDesign(group_sizes=(20,) * 30, positions=tuple(
        tuple(np.cumsum(rng.uniform(0.7, 1.3, 20)).tolist())
        for _ in range(30)))
    model = GroupModel(family)
    data = simulate_dataset(SimConfig(
        design=design, model=model, param=0.7 if family == "ou" else 0.5,
        beta=(1.0, 0.5), seed=seed))
    prior = PCPrior.from_quantile(model, design, icc_to_param(model, 0.5),
                                  0.5)
    return data, model, HyperPriors(corr_prior=prior,
                                    psi=solve_psi(1 / 0.31, 0.01))


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_warm_fit_takes_its_work_arrays_from_the_workspace(family):
    # a repeat default fit reuses this thread's work arrays: the gap
    # walk's blocks and the likelihood's planes are not allocated again
    args = _study_fit(family, 4)
    log_marginal_likelihood(*args)
    tracemalloc.start()
    try:
        log_marginal_likelihood(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75e6


def test_concurrent_fits_equal_serial_fits():
    # each thread has its own workspace: fits of different datasets and
    # families running at once, more threads than cores and switching
    # often, give the serial fits' output, byte for byte
    jobs = [_study_fit(family, seed) for family, seed
            in (("ou", 5), ("exchangeable", 6), ("ar1", 7), ("ou", 8))]
    serial = [json.dumps(log_marginal_likelihood(*a).to_json_dict())
              for a in jobs]

    def repeat(args):
        return [json.dumps(log_marginal_likelihood(*args).to_json_dict())
                for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(repeat, args) for args in jobs]
            together = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert together == [[one] * 3 for one in serial]


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_no_returned_array_aliases_the_workspace(family):
    ds, model, _ = _study_fit(family, 9)
    grid = GridConfig(n_tau=31, n_corr=41)
    s, log_tau = grid.axis("corr"), grid.axis("tau")
    (log_det, slope), W = corr._kernel_and_stats(ds, model, s)
    loglik, lam, (V, c) = _woodbury(ds, W, log_tau, 1e-6, log_det)
    outputs = [log_det, slope, W, loglik, lam, V, c]
    buffers = list(vars(corr._workspace).values())
    assert len(buffers) >= 3
    for out in outputs:
        assert not any(np.shares_memory(out, buf) for buf in buffers)


def _fit_recording_bands(monkeypatch, *args, **kwargs):
    """(fit, each `_woodbury` call's arguments) of one evidence fit."""
    calls = []
    real = inference._woodbury

    def recording(*call):
        calls.append(call)
        return real(*call)
    with monkeypatch.context() as patch:
        patch.setattr(inference, "_woodbury", recording)
        fit = log_marginal_likelihood(*args, **kwargs)
    return fit, calls


def _fit_bytes(*args, **kwargs):
    """A fit's JSON and log_mlik bits, or its refusal."""
    try:
        fit = log_marginal_likelihood(*args, **kwargs)
    except (DataError, NumericError) as exc:
        return repr(exc)
    return json.dumps(fit.to_json_dict()), fit.log_mlik.hex()


def _force_the_whole_plane(patch):
    """Make `_tau_band` take every row, with no edge to certify."""
    patch.setattr(inference, "_tau_band", lambda dataset, eig, w_yy, cols, t,
                  *rest: (np.arange(t.size)[:, None], -np.inf))


BAND_GRIDS = (GridConfig(n_tau=41, n_corr=41),
              GridConfig(n_tau=201, n_corr=21, tau_bounds=(-800.0, 12.0)),
              GridConfig(n_tau=801, n_corr=21, tau_bounds=(-800.0, 12.0)),
              GridConfig(n_tau=61, n_corr=31, tau_bounds=(-30.0, 30.0),
                         corr_bounds=(-20.0, 20.0)))


@settings(max_examples=property_examples(40))
@given(ds=ragged_datasets(), model=st.sampled_from([EXCH, AR1, OU]))
def test_band_fit_equals_the_whole_plane_bit_for_bit(ds, model):
    # every cell the band leaves out is one the whole plane writes +0.0,
    # so the outputs and every refusal are the same bytes
    assume(max(ds.design.group_sizes) > 1)
    prior = PCPrior.from_quantile(model, ds.design,
                                  icc_to_param(model, 0.5), 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    for grid in BAND_GRIDS:
        band = _fit_bytes(ds, model, hyper, grid=grid)
        with pytest.MonkeyPatch.context() as patch:
            _force_the_whole_plane(patch)
            whole = _fit_bytes(ds, model, hyper, grid=grid)
        assert band == whole


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_cells_outside_the_band_underflow_on_the_whole_plane(family,
                                                             monkeypatch):
    data, model, hyper = _study_fit(family, 1)
    for grid in (GridConfig(), BAND_GRIDS[2],
                 GridConfig(n_tau=8121, n_corr=41,
                            tau_bounds=(-800.0, 12.0))):
        _, calls = _fit_recording_bands(monkeypatch, data, model, hyper,
                                        grid=grid)
        # the first guess holds, and it is a band, not the whole axis
        assert len(calls) == 1
        args = calls[0]
        rows = args[4]
        assert len(rows) < grid.n_tau / 3
        whole = inference._woodbury(*args[:4], np.arange(grid.n_tau)[:, None],
                                    *args[5:])
        inside = np.zeros(whole.shape, bool)
        inside[rows, np.arange(grid.n_corr)] = True
        top = whole.max()
        assert whole[inside].max() == top
        assert np.all(whole[~inside] < top + inference._EXP_UNDERFLOW)


def test_band_widths_bound_their_roots_from_above():
    # each closed-form width is at least its root and at most 0.03 above it
    with mpmath.workdps(30):
        for x in np.logspace(-8.0, 8.0, 161):
            below, above = inference._band_widths(float(x))
            xm = mpmath.mpf(float(x))
            roots = (mpmath.findroot(lambda u: u + mpmath.exp(-u) - 1 - xm,
                                     below),
                     mpmath.findroot(lambda v: mpmath.expm1(v) - v - xm,
                                     above))
            for bound, root in zip((below, above), roots):
                assert 0 < root <= bound <= root + 0.03, (x, bound, root)


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_a_one_row_guess_widens_to_the_same_bits(family, monkeypatch):
    data, model, hyper = _study_fit(family, 2)
    want = _fit_bytes(data, model, hyper)
    n_t = GridConfig().n_tau
    # a one-row band whose edge is never certified
    monkeypatch.setattr(inference, "_tau_band", lambda *args: (
        np.full((1, 201), n_t // 2), np.inf))
    _, calls = _fit_recording_bands(monkeypatch, data, model, hyper)
    assert [len(call[4]) for call in calls] == [1, n_t]
    assert _fit_bytes(data, model, hyper) == want


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_a_band_that_fails_on_a_wide_grid_widens_to_the_same_bits(
        family, monkeypatch):
    # over +-36 the correlation nodes next to 1 have R above 1e10, so their
    # band sits about t = log(n / R) < -16, where the precision prior's
    # psi e^(-t/2) keeps U rising past the band's upper edge: its edge is
    # +inf, and the fit evaluates every row once more
    data, model, hyper = _study_fit(family, 1)
    grid = GridConfig(n_tau=801, n_corr=81, tau_bounds=(-36.0, 36.0),
                      corr_bounds=(-36.0, 36.0))
    _, calls = _fit_recording_bands(monkeypatch, data, model, hyper,
                                    grid=grid)
    assert [len(call[4]) for call in calls] == [62, 801]
    got = _fit_bytes(data, model, hyper, grid=grid)
    with monkeypatch.context() as patch:
        _force_the_whole_plane(patch)
        assert _fit_bytes(data, model, hyper, grid=grid) == got


def _first_band(monkeypatch, *args, **kwargs):
    """The first `_tau_band` result of one evidence fit, refused or not."""
    bands = []
    real = inference._tau_band
    with monkeypatch.context() as patch:
        patch.setattr(inference, "_tau_band",
                      lambda *call: bands.append(real(*call)) or bands[-1])
        try:
            log_marginal_likelihood(*args, **kwargs)
        except NumericError:
            pass
    return bands[0]


def test_tau_band_takes_every_row_where_it_cannot_certify(monkeypatch):
    n_t = GridConfig().n_tau
    # as many coefficients as observations: no residual degrees of freedom
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(3), rng.standard_normal((3, 2))])
    ds = Dataset(y=rng.standard_normal(3), X=X, design=balanced_design(1, 3),
                 column_names=("intercept", "x1", "x2"))
    rows, edge = _first_band(monkeypatch, ds, EXCH, toy_hyper(ds))
    assert_array_equal(rows, np.arange(n_t)[:, None])
    assert edge == -np.inf
    # a lam <= 0 at every node, injected as in
    # test_fit_refuses_indefinite_capacitance
    ds = reference_dataset()
    real = corr._kernel_and_stats

    def flipped(*args):
        kernel, W = real(*args)
        W[:, -1, -1] *= -1.0
        return kernel, W
    monkeypatch.setattr(corr, "_kernel_and_stats", flipped)
    rows, edge = _first_band(monkeypatch, ds, EXCH, toy_hyper(ds))
    assert_array_equal(rows, np.arange(n_t)[:, None])
    assert edge == -np.inf


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_tau_band_is_consecutive_rows_inside_the_axis(family, monkeypatch):
    grid = GridConfig()
    rows, edge = _first_band(monkeypatch, *_study_fit(family, 1))
    height = len(rows)
    assert rows.shape == (height, grid.n_corr) and height < grid.n_tau
    assert_array_equal(rows, rows[0] + np.arange(height)[:, None])
    assert rows.min() >= 0 and rows.max() < grid.n_tau
    assert -np.inf < edge < np.inf


@pytest.mark.parametrize("family", ["exchangeable", "ar1", "ou"])
def test_pruned_beta_mass_and_its_quantile_bound(family, monkeypatch):
    # the beta mixture keeps the cells above 1e-15 of the total mass; the
    # dropped share D stays below the 1e-13 stated in README for the
    # pinned fits, and each quantile lies within max(prob, 1 - prob) D / f
    # of the whole grid's, as the fit's docstring states, plus both
    # quantiles' accuracy contracts
    fit, calls = _fit_recording_bands(monkeypatch,
                                      *_pinned_fit_args(family))
    args = calls[-1]
    plane = inference._woodbury(*args[:4], np.arange(len(args[3]))[:, None],
                                *args[5:])
    lam, V, c = args[1]
    mass = np.exp(plane - plane.max()).ravel()
    total = mass.sum()
    kept = mass > 1e-15 * total
    dropped = mass[~kept].sum() / total
    assert 0.0 < dropped <= 1e-13
    cells = np.flatnonzero(mass)
    t_idx, k_idx = np.divmod(cells, plane.shape[1])
    mean, var = _beta_moments(V[k_idx], lam[k_idx], c[k_idx],
                              np.exp(args[3][t_idx]), args[5])
    sd = np.sqrt(var)
    w = mass[cells] / mass[cells].sum()
    whole = _mixture_quantiles(mean.T, sd.T, w, (0.025, 0.975))
    eps = np.finfo(float).eps
    for coef, (i, row) in zip(fit.beta, enumerate(whole)):
        for got, q, prob in zip((coef["q025"], coef["q975"]), row,
                                (0.025, 0.975)):
            f = w @ (stats.norm.pdf((q - mean[:, i]) / sd[:, i]) / sd[:, i])
            contracts = sum((3 + n / 2) * eps * prob / f
                            + 4e-16 * max(abs(q), sd[:, i].min())
                            for n in (kept.sum(), cells.size))
            assert abs(got - q) <= max(prob, 1 - prob) * dropped / f + contracts


def test_to_json_dict_has_exactly_documented_keys():
    ds = toy_dataset()
    fit = log_marginal_likelihood(
        ds, EXCH, toy_hyper(ds), grid=GridConfig(n_tau=51, n_corr=51))
    payload = fit.to_json_dict()
    assert tuple(payload) == ("log_mlik", "rho", "sigma2", "beta",
                              "diagnostics")
    assert set(payload["rho"]) == {"mean", "q025", "q975"}
    assert set(payload["sigma2"]) == {"mean", "q025", "q975"}
    assert all(set(b) == {"name", "mean", "q025", "q975"}
               for b in payload["beta"])
