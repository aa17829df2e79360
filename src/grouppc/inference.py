"""Marginal likelihood and posterior summaries for grouped-residual models.

The observation model is

    y = X beta + theta,     theta ~ N(0, tau^-1 C(param)),

with C block diagonal over groups and beta given a vague zero-mean
Gaussian prior (precision ``beta_prec``, integrated out analytically).
Conditional on (tau, param) the marginal covariance of y is

    Sigma = tau^-1 C + beta_prec^-1 X X',

whose likelihood is evaluated through the Woodbury identity from the
q x q sufficient statistics Z'C^-1 Z of Z = [y, X], built from group
sums and consecutive-pair products for every correlation node at once.
One eigendecomposition of X'C^-1 X per correlation node diagonalises
the p x p capacitance at every precision at once, and the likelihood
then takes one pass per coefficient over (log tau, correlation) planes,
so no array grows with the number of cells times p; the conditional
moments of beta are formed only at the cells that carry posterior
mass.  A dense evaluation of the same likelihood is kept alongside for
verification.

The evidence integrates the conditional likelihood against a penalized
complexity prior on the correlation parameter and a Gumbel type-2 prior
on the precision over a fixed tensor grid in (log tau, internal
correlation coordinate).  Grid cells are independent work items; one
pass exponentiates them relative to the largest, in the likelihood's
buffer, giving the evidence and the posterior weights alike, so results
are deterministic for a given grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import corr
from .design import Dataset, Family, GroupModel
from .errors import DataError, DomainError, NumericError
from .pcprior import PCPrior
from .special import expit, ndtr, safeguarded_newton

__all__ = [
    "gumbel2_log_density",
    "solve_psi",
    "HyperPriors",
    "GridConfig",
    "FitResult",
    "gaussian_loglik",
    "log_marginal_likelihood",
    "posterior_summaries",
    "bayes_factor",
    "BayesFactor",
    "evidence_category",
]

_LOG_2PI = np.log(2.0 * np.pi)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


# ----------------------------------------------------------------------
# precision prior
# ----------------------------------------------------------------------

def _gumbel2_log_tau(t, psi: float):
    """Log density of t = log tau under the Gumbel type-2 prior, any real t."""
    return np.log(psi / 2.0) - 0.5 * t - psi * np.exp(-0.5 * t)


def gumbel2_log_density(tau, psi: float):
    """Log density of the Gumbel type-2 prior on a precision.

    pi(tau) = (psi / 2) tau^(-3/2) exp(-psi tau^(-1/2)); equivalently the
    residual standard deviation sigma = tau^(-1/2) is Exponential(psi).
    """
    if not 0.0 < psi < np.inf:
        raise DomainError("psi must be positive and finite")
    t = np.asarray(tau, dtype=float)
    if np.any(t <= 0):
        raise DomainError("tau must be positive")
    out = _gumbel2_log_tau(np.log(t), psi) - np.log(t)
    return float(out) if np.ndim(tau) == 0 else out


def solve_psi(u_sigma: float, alpha_sigma: float) -> float:
    """Scale psi such that P(sigma > u_sigma) = alpha_sigma."""
    if not 0.0 < u_sigma < np.inf:
        raise DomainError("u_sigma must be positive and finite")
    if not 0.0 < alpha_sigma < 1.0:
        raise DomainError("alpha_sigma must lie strictly in (0, 1)")
    return -np.log(alpha_sigma) / u_sigma


@dataclass(frozen=True)
class HyperPriors:
    """Priors of the hyperparameters entering the evidence integral.

    ``corr_prior`` handles the correlation parameter; the residual
    precision gets a Gumbel type-2 prior with scale ``psi``; the fixed
    effects get a vague zero-mean Gaussian prior with precision
    ``beta_prec`` (must be positive for the evidence to exist).
    """

    corr_prior: PCPrior
    psi: float
    beta_prec: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.psi < np.inf:
            raise DomainError("psi must be positive and finite")
        if not 0.0 < self.beta_prec < np.inf:
            raise DomainError("beta_prec must be positive and finite")

    def fingerprint(self) -> str:
        """Hash of the priors that comparable fits must share.

        Covers psi and beta_prec, which shift the evidence of every family
        alike; the correlation prior's rate may differ between families.
        """
        h = hashlib.sha256()
        h.update(repr((float(self.psi), float(self.beta_prec))).encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# grid configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    """Tensor grid for the (log tau, internal correlation) integral."""

    n_tau: int = 201
    n_corr: int = 201
    tau_bounds: tuple[float, float] = (-12.0, 12.0)
    corr_bounds: tuple[float, float] = (-12.0, 12.0)

    def __post_init__(self):
        if self.n_tau < 2 or self.n_corr < 2:
            raise DomainError("grids need at least two nodes per axis")

    def axis(self, which: str) -> NDArray:
        lo, hi = self.tau_bounds if which == "tau" else self.corr_bounds
        n = self.n_tau if which == "tau" else self.n_corr
        return np.linspace(lo, hi, n)

    def weights(self, which: str) -> NDArray:
        """Trapezoid-rule weights on the axis' nodes."""
        nodes = self.axis(which)
        h = nodes[1] - nodes[0]
        w = np.full(nodes.size, h)
        w[0] = w[-1] = h / 2.0
        return w


# ----------------------------------------------------------------------
# Gaussian log likelihood, block-wise and dense
# ----------------------------------------------------------------------

def _sufficient_stats(dataset: Dataset, model: GroupModel, s: NDArray):
    """Z'QZ at unit precision, Z = [y, X], one q x q block per internal node.

    Q = C^-1 is never formed.  The exchangeable block precision is
    (1 - rho)^-1 [I - c_j 11'] with c_j = rho / (1 + (m_j - 1) rho); split
    into group means and deviations from them, Z_j'Q_j Z_j is
    (1 + e^s) D_j'D_j + S_j S_j' / (m_j (1 + (m_j - 1) rho)), where S_j
    sums group j and 1 + e^s = 1 / (1 - rho) exactly.  AR1 and OU are
    Markov chains: u'Qv sums u_0 v_0 over first rows and
    (u_b - r u_a)(v_b - r v_a) / (1 - r^2) over consecutive pairs (a, b)
    with gap correlation r.  Writing u_b - r u_a as
    (u_b - u_a) + (1 - r) u_a gives pair weights 1 / (1 - r^2),
    1 / (1 + r) and (1 - r) / (1 + r), with 1 - r from expit(-s) (AR1)
    or -expm1(-phi gap) (OU), so neither form cancels as r -> 1.
    """
    Z = np.column_stack([dataset.y, dataset.X])
    q = Z.shape[1]
    design = dataset.design
    starts = design.offsets[:-1]
    outer = lambda u, v: np.einsum("ga,gb->gab", u, v).reshape(len(u), q * q)
    if model.family is Family.EXCHANGEABLE:
        sizes = np.diff(design.offsets)
        means = np.add.reduceat(Z, starts, axis=0) / sizes[:, None]
        D = Z - np.repeat(means, sizes, axis=0)
        rho = expit(s)[:, None]
        between = (sizes / (1.0 + (sizes - 1) * rho)) @ outer(means, means)
        return ((1.0 + np.exp(s))[:, None, None] * (D.T @ D)
                + between.reshape(-1, q, q))
    first = Z[starts]
    b = np.delete(np.arange(design.total_size), starts)
    D, A = Z[b] - Z[b - 1], Z[b - 1]
    if model.family is Family.AR1:
        # one gap correlation for every pair: sum the products first
        r, one_m_r = expit(s)[:, None], expit(-s)[:, None]
        DA = D.T @ A
        pairs = [P.reshape(1, q * q) for P in (D.T @ D, DA + DA.T, A.T @ A)]
    else:
        pairs = [outer(D, D), outer(D, A) + outer(A, D), outer(A, A)]
        log_r = -np.exp(s)[:, None] * design.gaps
        one_m_r, r = -np.expm1(log_r), np.exp(log_r, out=log_r)
    # w = 1 / (1 + r) in place: the OU weights are n_corr x n_gaps
    w = np.reciprocal(np.add(r, 1.0, out=r), out=r)
    W = ((w / one_m_r) @ pairs[0] + w @ pairs[1]
         + (w * one_m_r) @ pairs[2])
    return first.T @ first + W.reshape(-1, q, q)


def _woodbury(dataset: Dataset, model: GroupModel, s: NDArray,
              log_tau: NDArray, beta_prec: float, logdetC: NDArray):
    """Likelihood on the (log tau, internal correlation) tensor grid.

    Returns log N(y; 0, tau^-1 C + beta_prec^-1 X X') indexed [log tau, s]
    and per node the eigenvalues lam, eigenvectors V and c = V'X'Qy of
    X'QX.  With the statistics W = Z'QZ of `_sufficient_stats`, one `eigh`
    per node gives X'QX = V diag(lam) V', so the capacitance
    B = beta_prec I + tau X'QX is V diag(d) V' with d = beta_prec + tau lam.
    The determinant lemma and the Woodbury identity then need only
    sum(log d), b'B^-1 b = tau^2 sum(c^2 / d) and log|C| at the nodes
    (``logdetC``, from the caller's closed-form pass).  Both sums take p
    passes over (log tau, s) planes, one per coefficient k with its plane
    d_k, so no array grows with the grid size times p.  A d_k that is not
    positive and finite raises `NumericError`.
    """
    M, p = dataset.n_obs, dataset.n_coef
    W = _sufficient_stats(dataset, model, s)
    lam, V = np.linalg.eigh(W[:, 1:, 1:])
    c = np.einsum("kji,kj->ki", V, W[:, 1:, 0])
    tau = np.exp(log_tau)[:, None]
    shape = (log_tau.size, s.size)
    d, term = np.empty(shape), np.empty(shape)
    sum_log_d, sum_q = np.zeros(shape), np.zeros(shape)
    for k in range(p):
        np.multiply(tau, lam[:, k], out=d)
        d += beta_prec
        if not (d.min() > 0 and d.max() < np.inf):
            raise NumericError("capacitance is not positive definite")
        sum_log_d += np.log(d, out=term)
        sum_q += np.divide(c[:, k] * c[:, k], d, out=term)
    # -0.5 (M log 2pi + logdet + tau W_yy - tau^2 sum_q), logdet being
    # -M log tau + log|C| - p log beta_prec + sum_log_d
    loglik = np.add(-M * log_tau[:, None], logdetC)
    loglik -= p * np.log(beta_prec)
    loglik += sum_log_d
    loglik += M * _LOG_2PI
    loglik += np.multiply(tau, W[:, 0, 0], out=term)
    loglik -= np.multiply(tau * tau, sum_q, out=sum_q)
    loglik *= -0.5
    return loglik, lam, (V, c)


def _beta_moments(V: NDArray, lam: NDArray, c: NDArray, tau: NDArray,
                  beta_prec: float):
    """Mean V (b / d) and variance (V o V)(1 / d) of beta given y, per cell.

    ``V``, ``lam`` and ``c`` are `_woodbury`'s per-node eigenvectors,
    eigenvalues and rotated vector at the selected cells, stacked along
    the first axis with the cells' precisions ``tau``; the capacitance's
    eigenvalues there are d = beta_prec + tau lam, b = tau c, and
    (V o V)(1 / d) is the diagonal of B^-1.
    """
    tau = tau[:, None]
    d = beta_prec + tau * lam
    return (np.einsum("nij,nj->ni", V, tau * c / d),
            np.einsum("nij,nj->ni", V * V, 1.0 / d))


def gaussian_loglik(dataset: Dataset, model: GroupModel, param: float,
                    tau: float, beta_prec: float = 1e-6,
                    method: str = "blockwise") -> float:
    """log N(y; 0, tau^-1 C(param) + beta_prec^-1 X X').

    ``method="blockwise"`` is the one-node case of the evidence grid's
    likelihood (Woodbury identity on sufficient statistics);
    ``method="dense"`` builds the full covariance and factorizes it.  Both
    must agree to high accuracy.
    """
    if tau <= 0:
        raise DomainError("tau must be positive")
    if beta_prec <= 0:
        raise DomainError("the evidence needs a proper fixed-effects prior "
                          "(beta_prec > 0)")
    if method == "dense":
        M = dataset.n_obs
        blocks = [corr.corr_matrix(model, dataset.design, j, param)
                  for j in range(dataset.design.n_groups)]
        Sigma = np.zeros((M, M))
        for s, R in zip(dataset.design.group_slices(), blocks):
            Sigma[s, s] = R / tau
        Sigma += dataset.X @ dataset.X.T / beta_prec
        try:
            L = np.linalg.cholesky(Sigma)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"covariance factorization failed: {exc}") from exc
        logdet = 2.0 * np.log(np.diag(L)).sum()
        z = np.linalg.solve(L, dataset.y)
        return float(-0.5 * (M * _LOG_2PI + logdet + z @ z))
    if method != "blockwise":
        raise ValueError(f"unknown method {method!r}")
    model.check_design(dataset.design)
    p = corr._check_param(model, param, allow_degenerate=False)
    s = np.atleast_1d(corr.param_to_internal(model, p))
    logdetC = corr._internal_kernel(model, dataset.design, s)[0]
    loglik, _, _ = _woodbury(dataset, model, s, np.log([tau]), beta_prec,
                             logdetC)
    return float(loglik[0, 0])


# ----------------------------------------------------------------------
# posterior summaries on weighted grids
# ----------------------------------------------------------------------

def posterior_summaries(values, weights,
                        probs: tuple[float, ...] = (0.025, 0.975)):
    """Mean and quantiles of a discrete weighted posterior.

    Quantiles interpolate the midpoint cumulative distribution of the
    (normalized) weights after sorting by value; a point mass therefore
    returns its location for every quantile.  Returns the mean followed
    by one quantile per entry of ``probs``.
    """
    v = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if v.size != w.size or v.size == 0:
        raise ValueError("values and weights must be equal-length, nonempty")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    keep = w > 0
    v, w = v[keep], w[keep]
    w = w / w.sum()
    order = np.argsort(v)
    v, w = v[order], w[order]
    mean = float(v @ w)
    cum = np.cumsum(w) - 0.5 * w
    qs = np.interp(probs, cum, v)
    return (mean, *(float(q) for q in qs))


def _mixture_quantiles(mu: NDArray, sd: NDArray, w: NDArray,
                       probs: tuple[float, ...]) -> NDArray:
    """Quantiles of Gaussian mixtures by one safeguarded Newton on their CDFs.

    Row k of ``mu`` and ``sd`` holds the components of mixture k, weighted
    by ``w`` (one row shared by every mixture, or one row each); returns
    one row of quantiles at ``probs`` per mixture.  Each quantile starts at
    its mixture's mean inside the bracket of +-8 sd around every component
    and steps by (F(q) - prob) / F'(q), with F' = sum w phi(z) / sd, all
    quantiles in one `safeguarded_newton` (one `ndtr` call per step).  Each
    CDF and slope is a 1-D dot product ``w @ row``, so a quantile does not
    depend on which others are solved with it.  Met once the step is below
    4e-16 (|q| + min sd).
    """
    w = np.broadcast_to(w, mu.shape)
    n_probs = len(probs)
    mix = np.repeat(np.arange(mu.shape[0]), n_probs)
    level = np.tile(np.asarray(probs, dtype=float), mu.shape[0])
    min_sd = sd.min(axis=1)

    def f_slope(idx, q):
        m = mix[idx]
        z = (q[:, None] - mu[m]) / sd[m]
        dens = np.exp(-0.5 * z * z) / sd[m]
        f = np.array([w[k] @ row for k, row in zip(m, ndtr(z))]) - level[idx]
        slope = np.array([w[k] @ row for k, row in zip(m, dens)])
        slope *= _INV_SQRT_2PI
        with np.errstate(divide="ignore", invalid="ignore"):
            met = np.abs(f / slope) <= 4e-16 * (np.abs(q) + min_sd[m])
        return f, slope, met

    start = np.array([wk @ row for wk, row in zip(w, mu)])[mix]
    lo = (mu - 8.0 * sd).min(axis=1)[mix]
    hi = (mu + 8.0 * sd).max(axis=1)[mix]
    return safeguarded_newton(f_slope, start, lo, hi, True).reshape(-1, n_probs)


# ----------------------------------------------------------------------
# the evidence integral
# ----------------------------------------------------------------------

@dataclass
class FitResult:
    """Evidence and posterior summaries of one model fit."""

    log_mlik: float
    family: str
    rho: dict
    sigma2: dict
    beta: list
    diagnostics: dict
    dataset_fingerprint: str
    prior_fingerprint: str

    def to_json_dict(self) -> dict:
        """The documented serialization: exactly these five keys."""
        return {
            "log_mlik": self.log_mlik,
            "rho": self.rho,
            "sigma2": self.sigma2,
            "beta": self.beta,
            "diagnostics": self.diagnostics,
        }


def log_marginal_likelihood(dataset: Dataset, model: GroupModel,
                            hyper: HyperPriors,
                            grid: GridConfig = GridConfig()) -> FitResult:
    """Evidence of one group model by tensor-grid integration.

    Integrates the block-wise Gaussian likelihood against the priors over
    (log tau, logit rho) -- or (log tau, log phi) for OU -- with the
    configured quadrature weights: one exponentiation of the cells relative
    to the largest gives the evidence and the posterior weights.  Posterior
    summaries come from the same grid: the correlation and variance
    marginals by interpolating the weighted CDF, the fixed effects from
    the analytic conditional Gaussians mixed over cells.

    For OU fits the correlation summary reports exp(-phi), the correlation
    at gap 1, so results stay comparable with the rho-parameterized
    families.  The correlation prior must be built for the model's family
    and the dataset's design: log|C| and the prior share one pass.
    """
    model.check_design(dataset.design)
    prior = hyper.corr_prior
    if prior.model.family is not model.family:
        raise DomainError("the correlation prior was built for a different family")
    if prior.design != dataset.design:
        raise DomainError(
            "the correlation prior was built for a different design")
    p = dataset.n_coef
    XtX = dataset.X.T @ dataset.X
    if np.linalg.matrix_rank(XtX) < p:
        raise DataError("the covariate matrix is rank deficient")

    t_nodes = grid.axis("tau")          # log tau
    s_nodes = grid.axis("corr")         # internal correlation coordinate

    # log prior factors on the internal scales (Jacobians included) with
    # the trapezoid log weights; one closed-form pass gives log|C| to the
    # likelihood and d, d' to the prior
    log_t = _gumbel2_log_tau(t_nodes, hyper.psi) + np.log(grid.weights("tau"))
    kernel = corr._internal_kernel(model, dataset.design, s_nodes)
    log_s = (prior._log_density(*prior.distance._from_kernel(kernel, s_nodes),
                                0.0, s_nodes) + np.log(grid.weights("corr")))

    n_t, n_s = t_nodes.size, s_nodes.size
    log_cells, lam, (V, c) = _woodbury(dataset, model, s_nodes, t_nodes,
                                       hyper.beta_prec, kernel[0])

    # one exponentiation relative to the largest cell, in the likelihood's
    # buffer; a NaN or +inf cell makes the maximum non-finite, and so does
    # a grid with no mass
    log_cells += log_t[:, None]
    log_cells += log_s[None, :]
    top = log_cells.max()
    if not np.isfinite(top):
        raise NumericError("non-finite evidence integrand")
    log_cells -= top
    mass = np.exp(log_cells, out=log_cells)
    total = mass.sum()
    log_mlik = float(top + np.log(total))
    mass /= total

    boundary = (mass[0, :].sum() + mass[-1, :].sum()
                + mass[1:-1, 0].sum() + mass[1:-1, -1].sum())
    diagnostics = {
        "n_tau": n_t,
        "n_corr": n_s,
        "boundary_mass": float(boundary),
        "boundary_warning": bool(boundary >= 0.01),
    }

    # correlation summary on the reporting scale
    mass_s = mass.sum(axis=0)
    if model.family is Family.OU:
        report = np.exp(-np.exp(s_nodes))
    else:
        report = corr.internal_to_param(model, s_nodes)
    rho_mean, rho_lo, rho_hi = posterior_summaries(report, mass_s)
    rho_summary = {"mean": rho_mean, "q025": rho_lo, "q975": rho_hi}

    # sigma^2 = e^-t only where tau has mass: e^-t overflows below t = -709
    mass_t = mass.sum(axis=1)
    held = mass_t > 0
    s2_mean, s2_lo, s2_hi = posterior_summaries(np.exp(-t_nodes[held]),
                                                mass_t[held])
    sigma2_summary = {"mean": s2_mean, "q025": s2_lo, "q975": s2_hi}

    flat_w = mass.ravel()
    active = np.flatnonzero(flat_w > 1e-15)
    t_idx, k_idx = np.divmod(active, n_s)
    beta_mean, beta_var = _beta_moments(V[k_idx], lam[k_idx], c[k_idx],
                                        np.exp(t_nodes[t_idx]),
                                        hyper.beta_prec)
    w = flat_w[active]
    w = w / w.sum()
    quantiles = _mixture_quantiles(beta_mean.T, np.sqrt(beta_var.T), w,
                                   (0.025, 0.975))
    beta_summary = [
        {"name": name, "mean": float(w @ beta_mean[:, i]),
         "q025": float(lo), "q975": float(hi)}
        for i, (name, (lo, hi)) in enumerate(zip(dataset.column_names,
                                                 quantiles))]

    return FitResult(
        log_mlik=log_mlik,
        family=model.family.value,
        rho=rho_summary,
        sigma2=sigma2_summary,
        beta=beta_summary,
        diagnostics=diagnostics,
        dataset_fingerprint=dataset.fingerprint(),
        prior_fingerprint=hyper.fingerprint(),
    )


# ----------------------------------------------------------------------
# Bayes factors
# ----------------------------------------------------------------------

def evidence_category(log_bf: float) -> str:
    """Kass-Raftery strength-of-evidence label for |log BF| (natural log)."""
    x = abs(log_bf)
    if x < 1.0:
        return "not worth more than a bare mention"
    if x < 3.0:
        return "positive"
    if x < 5.0:
        return "strong"
    return "very strong"


@dataclass(frozen=True)
class BayesFactor:
    """Log Bayes factor of fit A over fit B with its evidence category."""

    log_bf: float
    category: str


def bayes_factor(fit_a: FitResult, fit_b: FitResult) -> BayesFactor:
    """Log Bayes factor log BF(A over B) = log_mlik(A) - log_mlik(B).

    Both fits must carry the same dataset fingerprint and the same shared
    priors (psi and beta_prec); other comparisons are refused.
    """
    if fit_a.dataset_fingerprint != fit_b.dataset_fingerprint:
        raise DataError("fits do not share a dataset fingerprint")
    if fit_a.prior_fingerprint != fit_b.prior_fingerprint:
        raise DataError("fits do not share a prior fingerprint: the "
                        "precision and fixed-effect priors (psi, beta_prec)")
    log_bf = fit_a.log_mlik - fit_b.log_mlik
    return BayesFactor(log_bf=log_bf, category=evidence_category(log_bf))
