"""Marginal likelihood and posterior summaries for grouped-residual models.

The observation model is

    y = X beta + theta,     theta ~ N(0, tau^-1 C(param)),

with C block diagonal over groups and beta given a vague zero-mean
Gaussian prior (precision ``beta_prec``, integrated out analytically).
Conditional on (tau, param) the marginal covariance of y is

    Sigma = tau^-1 C + beta_prec^-1 X X',

whose likelihood is evaluated through the Woodbury identity from the
q x q sufficient statistics Z'C^-1 Z of Z = [y, X], built from group
sums and consecutive-pair products for every correlation node at once,
in the same `corr` pass that gives log |C| and its slope.
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
are deterministic for a given grid.  Each correlation node evaluates
only a band of tau rows around the mode of its profile in tau: a bound
on the cells that is concave in log tau, read at the first row outside
each band edge as one number, certifies that every row outside the band
lies more than 750 nats below the largest cell, where e^x is +0.0, so
the band gives the whole plane's outputs bit for bit (`_tau_band`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import corr
from .design import Dataset, GroupModel, _whole
from .errors import DataError, DomainError, NumericError
from .pcprior import PCPrior
from .special import ndtr, safeguarded_newton

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
#: the standard normal density at 1, where |z| phi(z) peaks (at 0 it is
#: _INV_SQRT_2PI, where |z^2 - 1| phi(z) peaks)
_PHI_1 = _INV_SQRT_2PI * np.exp(-0.5)
#: Abramowitz & Stegun 26.2.17 (Hastings): the normal tail beyond x >= 0 is
#: phi(x) (b1 t + ... + b5 t^5), t = 1 / (1 + _AS_P x), within 7.5e-8;
#: b5 .. b1 in Horner order
_AS_P = 0.2316419
_AS_B = (1.330274429, -1.821255978, 1.781477937, -0.356563782, 0.319381530)
#: below this, e^x is +0.0 in double precision (e^-745.2 is the last
#: subnormal)
_EXP_UNDERFLOW = -750.0
#: the drop of the tau profile that a node's first band guess spans, in
#: nats: -_EXP_UNDERFLOW with room (`_tau_band`)
_BAND_DROP = 760.0
#: relative rounding margin of the band's certificate, far above the few
#: ulps that each of a cell's roundings can err by (`_tau_band`)
_BAND_EPS = 1e-9


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
    if not np.all(t > 0):                 # NaN fails too
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
    """Tensor grid for the (log tau, internal correlation) integral.

    Each axis' nodes, trapezoid weights and their logs are derived once
    per instance, read-only.
    """

    n_tau: int = 201
    n_corr: int = 201
    tau_bounds: tuple[float, float] = (-12.0, 12.0)
    corr_bounds: tuple[float, float] = (-12.0, 12.0)
    _axes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _whole(self.n_tau, DomainError, "n_tau")
        _whole(self.n_corr, DomainError, "n_corr")
        if self.n_tau < 2 or self.n_corr < 2:
            raise DomainError("grids need at least two nodes per axis")
        for lo, hi in (self.tau_bounds, self.corr_bounds):
            if not -np.inf < lo < hi < np.inf:
                raise DomainError("grid bounds must be finite with lo < hi")
        axes = {}
        for which, (lo, hi), n in (("tau", self.tau_bounds, self.n_tau),
                                   ("corr", self.corr_bounds, self.n_corr)):
            nodes = np.linspace(lo, hi, n)
            h = nodes[1] - nodes[0]
            w = np.full(nodes.size, h)
            w[0] = w[-1] = h / 2.0
            axes[which] = (nodes, w, np.log(w))
            for value in axes[which]:
                value.flags.writeable = False
        object.__setattr__(self, "_axes", axes)

    def axis(self, which: str) -> NDArray:
        """The nodes of axis ``which``, "tau" or "corr"."""
        return self._axes[which][0]

    def weights(self, which: str) -> NDArray:
        """Trapezoid-rule weights on the axis' nodes."""
        return self._axes[which][1]

    def log_weights(self, which: str) -> NDArray:
        """Logs of `weights`."""
        return self._axes[which][2]


# ----------------------------------------------------------------------
# Gaussian log likelihood, block-wise and dense
# ----------------------------------------------------------------------

def _eigen(W: NDArray):
    """Per node the eigenvalues lam, eigenvectors V and c = V'X'Qy of X'QX."""
    lam, V = np.linalg.eigh(W[:, 1:, 1:])
    return lam, V, np.einsum("kji,kj->ki", V, W[:, 1:, 0])


def _woodbury(dataset: Dataset, eig, w_yy: NDArray, log_tau: NDArray,
              rows: NDArray, beta_prec: float, cols, log_t):
    """Likelihood at the cells ``rows`` of the (log tau, correlation) grid.

    Returns log N(y; 0, tau^-1 C + beta_prec^-1 X X') + log_t + cols as an
    H x n_s plane, ``rows`` (H x n_s indices into ``log_tau``) holding node
    j's rows in column j.  ``log_t`` is the per-tau and ``cols`` the
    per-node log term (the evidence's priors and quadrature weights, with
    -log|C| / 2 in ``cols``).  With the statistics W = Z'QZ at the nodes
    (from `corr._kernel_and_stats`), ``eig`` is `_eigen(W)`: lam, V and c
    with X'QX = V diag(lam) V', so the capacitance B = beta_prec I + tau
    X'QX is V diag(d) V' with d = beta_prec + tau lam, and ``w_yy`` is
    W[:, 0, 0].  The determinant lemma and the Woodbury identity then need
    only sum(log d) and b'B^-1 b = tau^2 sum(c^2 / d).  Both sums take p
    passes over the plane, one per coefficient k with its plane d_k, so no
    array grows with the grid size times p; every term in tau alone is
    folded into one row vector, formed on ``log_tau`` and gathered, and
    added to the plane once, as is ``cols``; the other planes are
    `corr._work` arrays.  A cell's operations, and its bits, do not depend
    on which other cells are evaluated with it.  A d_k that is not positive
    and finite raises `NumericError`: d_k is monotone in tau at every node,
    so the smallest and largest tau of ``log_tau`` give its extremes.
    """
    M, p = dataset.n_obs, dataset.n_coef
    lam, _, c = eig
    tau_axis = np.exp(log_tau)
    ends = tau_axis[[log_tau.argmin(), log_tau.argmax()], None, None]
    d_ends = ends * lam + beta_prec
    if not (d_ends.min() > 0 and d_ends.max() < np.inf):
        raise NumericError("capacitance is not positive definite")
    # -0.5 (M log 2pi + logdet + tau W_yy - tau^2 sum(c^2 / d)), logdet
    # being -M log tau + log|C| - p log beta_prec + sum_log_d
    row_terms = (0.5 * (M * log_tau - M * _LOG_2PI + p * np.log(beta_prec))
                 + log_t)
    tau, tau2 = tau_axis[rows], (tau_axis * tau_axis)[rows]
    row_terms = row_terms[rows]
    shape = (len(tau), len(w_yy))
    d, term, sum_log_d = (corr._work(name, shape)
                          for name in ("d", "term", "sum_log_d"))
    sum_log_d.fill(0.0)
    quad = np.zeros(shape)
    for k in range(p):
        np.multiply(tau, lam[:, k], out=d)
        d += beta_prec
        quad += np.divide(c[:, k] * c[:, k], d, out=term)
        sum_log_d += np.log(d, out=d)
    quad *= tau2
    quad -= np.multiply(tau, w_yy, out=d)
    quad -= sum_log_d
    quad *= 0.5
    quad += row_terms
    quad += cols
    return quad


def _band_widths(x: float):
    """Upper bounds on the roots Delta, v > 0 of Delta + e^-Delta - 1 = x =
    e^v - 1 - v, in closed form.

    Delta + e^-Delta - 1 >= Delta^2 / (2 + Delta) and e^v - 1 - v >= v^2 /
    2 bound the roots by (x + sqrt(x (x + 8))) / 2 and sqrt(2 x).  Each
    root is a fixed point of an increasing map, Delta = x + 1 - e^-Delta
    and v = log(1 + x + v), which keeps a bound above its root and draws
    it closer: one step for Delta and two for v leave both within 0.03 of
    the roots on x in [1e-8, 1e8].
    """
    return (x - math.expm1(-0.5 * (x + math.sqrt(x * (x + 8.0)))),
            math.log1p(x + math.log1p(x + math.sqrt(2.0 * x))))


def _tau_band(dataset: Dataset, eig, w_yy: NDArray, cols: NDArray,
              t: NDArray, log_h: float, hyper: HyperPriors):
    """Each correlation node's band of tau rows, and the band's edge.

    Returns (rows, edge): H consecutive rows of the tau axis ``t`` per
    node, in `_woodbury`'s layout, and a number such that every row
    outside the band lies more than -`_EXP_UNDERFLOW` nats below the
    band's largest cell top, where the fit writes +0.0, if top is finite
    and edge < top + `_EXP_UNDERFLOW` - `_BAND_EPS` |top|; the fit's
    outputs are then the whole plane's bits.  ``log_h`` is log h.

    The band.  H rows per node around the mode of n t / 2 - e^t R / 2, n
    = M - p, spanning the profile's drop of D = `_BAND_DROP` nats plus a
    bound on U's excess over a cell at the mode, p log(1 + tau lam /
    beta_prec) / 2 with the largest lam / R of any node: with x = 2 D / n,
    each side takes ceil(width / h) + 1 rows of `_band_widths`' bound on
    its width, Delta below the mode and v above.

    The bound.  If every lam > 0 at a node and R = W_yy - sum(c^2 / lam)
    is positive there, each cell at t = log tau is at most

        V(t) = (M - 1) t / 2 - M log(2 pi) / 2 + log(psi / 2) + log h
               - psi e^(-t/2) - e^t R / 2 + cols,

    cols being the node's column term and h the tau step: tau^2 c^2 / d <
    tau c^2 / lam and sum(log d) >= p log beta_prec, and the halved end
    weights only lower a cell.  V is concave in t.  The bound used, U,
    shrinks psi and R by eps = `_BAND_EPS` (R by 2 eps W_yy) and adds 1 +
    eps K, K = |top| + |cols| + (M + 1)(T + 2) + p(|log beta_prec| + 710)
    + |log psi| + |log h| with T the largest |t| of the axis: each of a
    cell's ~2p + 12 roundings, and each of U's, errs by a few ulps of a
    term bounded by psi e^(-t/2), tau W_yy or a part of K (|log d| <= 710
    + |log beta_prec| for a finite d >= beta_prec), far below those eps
    margins.  So a computed cell is below the computed U, still concave.

    The certificate.  edge is the largest U at the first row outside each
    band edge that is not an end of the axis, or +inf if U' at such a row
    does not point away from its band by more than eps relative; then by
    concavity U stays below edge on every row beyond.  Every row, with
    edge -inf, is taken where n <= 0, where the band would span the axis,
    and where a node is uncertifiable: some lam <= 0, R <= 2 eps W_yy, an
    input is not finite, or a term of its cells could overflow (tau^2,
    tau W_yy or sum(c^2) / beta_prec above 1e300), so its cells are not
    known to be finite.
    """
    M, p = dataset.n_obs, dataset.n_coef
    n, n_t = M - p, t.size
    beta, psi, eps = hyper.beta_prec, hyper.psi, _BAND_EPS
    every = np.arange(n_t)[:, None], -np.inf
    # eigh orders each node's lam ascending; sums over the p coefficients
    # are products with ones, faster on short rows
    lam, _, c = eig
    cc, ones, tau_max = c * c, np.ones(p), np.exp(t[-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rss = w_yy - (cc / lam) @ ones
        r = rss - 2.0 * eps * w_yy
        fine = ((lam[:, 0] > 0) & (cols < np.inf) & (r > 0)
                & (tau_max * np.maximum(tau_max, w_yy) <= 1e300)
                & (cc @ ones <= 1e300 * beta))
        ratio = float((lam[:, -1] / rss).max()) * n / beta
    if n <= 0 or not fine.all():
        return every
    excess, h = 0.5 * p * math.log1p(min(ratio, 1e300)), t[1] - t[0]
    n_below, n_above = (math.ceil(w / h) + 1 for w in
                        _band_widths(2.0 * (_BAND_DROP + excess) / n))
    height = n_below + n_above + 1
    if height >= n_t:
        return every
    centre = np.rint((np.log(n / rss) - t[0]) / h)
    lo = np.clip(centre - n_below, 0, n_t - height).astype(np.intp)
    # U = a(t) + b - e^t r / 2 and U' = g(t) - e^t r / 2 at the first row
    # below (0) and above (1) each band; b is cols + eps |cols| + 1 + eps K
    # less eps |top|, -inf at a node of zero prior density, as its cells are
    t_out = t.take(lo + np.array([[-1], [height]]), mode="clip")
    decay = (1.0 - eps) * psi * np.exp(-0.5 * t_out)
    q = 0.5 * np.exp(t_out) * r
    g = 0.5 * (M - 1) + 0.5 * decay
    b = np.maximum((1.0 - eps) * cols, (1.0 + eps) * cols) + (
        1.0 + eps * ((M + 1) * (np.abs(t).max() + 2.0)
                     + p * (abs(math.log(beta)) + 710.0)
                     + abs(math.log(psi)) + abs(log_h)))
    u = (0.5 * (M - 1) * t_out - decay
         + (math.log(0.5 * psi) + log_h - 0.5 * M * _LOG_2PI)) + b - q
    away = np.array([g[0] > q[0] * (1.0 + eps), q[1] > g[1] * (1.0 + eps)])
    edge = np.where(away, u, np.inf)[[lo > 0, lo + height < n_t]].max()
    return lo + np.arange(height)[:, None], float(edge)


def _beta_moments(V: NDArray, lam: NDArray, c: NDArray, tau: NDArray,
                  beta_prec: float):
    """Mean V (b / d) and variance (V o V)(1 / d) of beta given y, per cell.

    ``V``, ``lam`` and ``c`` are `_eigen`'s per-node eigenvectors,
    eigenvalues and rotated vector at the selected cells, stacked along
    the first axis with the cells' precisions ``tau``; the capacitance's
    eigenvalues there are d = beta_prec + tau lam, b = tau c, and
    (V o V)(1 / d) is the diagonal of B^-1.  X must have full column rank,
    as the fit requires: along null directions of X'QX, c holds only
    rounding, which 1 / d amplifies up to tau / beta_prec-fold.
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
    if not 0.0 < tau < np.inf:
        raise DomainError("tau must be positive and finite")
    if not 0.0 < beta_prec < np.inf:
        raise DomainError("the evidence needs a proper fixed-effects prior "
                          "(beta_prec positive and finite)")
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
    (logdetC, _), W = corr._kernel_and_stats(dataset, model, s)
    loglik = _woodbury(dataset, _eigen(W), W[:, 0, 0], np.log([tau]),
                       np.zeros((1, 1), np.intp), beta_prec,
                       0.0 - 0.5 * logdetC, 0.0)
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
    by one quantile per entry of ``probs``.  Values and weights must be
    finite, the weights nonnegative with a positive total.
    """
    v = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if v.size != w.size or v.size == 0:
        raise ValueError("values and weights must be equal-length, nonempty")
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        raise ValueError("values and weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    keep = w > 0
    v, w = v[keep], w[keep]
    if v.size == 0:
        raise ValueError("weights must have a positive total")
    w = w / w.sum()
    order = np.argsort(v)
    v, w = v[order], w[order]
    mean = float(v @ w)
    cum = np.cumsum(w) - 0.5 * w
    qs = np.interp(probs, cum, v)
    return (mean, *(float(q) for q in qs))


def _summary(values, weights) -> dict:
    """`posterior_summaries` as a fit's {mean, q025, q975} entry.

    A fit's weights are finite and normalised, so a refusal can only come
    from values that overflowed; it raises `NumericError`.
    """
    try:
        mean, lo, hi = posterior_summaries(values, weights)
    except ValueError as exc:
        raise NumericError(f"posterior summary refused: {exc}") from exc
    return {"mean": mean, "q025": lo, "q975": hi}


def _approx_ndtr(z):
    """Standard normal CDF within 7.5e-8 by A&S 26.2.17; it places starts."""
    t = 1.0 / (1.0 + _AS_P * np.abs(z))
    poly = _AS_B[0] * t
    for b in _AS_B[1:]:
        poly += b
        poly *= t
    tail = np.exp(-0.5 * z * z) * poly
    tail *= _INV_SQRT_2PI
    return np.where(z > 0.0, 1.0 - tail, tail)


def _mixture_quantiles(mu: NDArray, sd: NDArray, w: NDArray,
                       probs: tuple[float, ...]) -> NDArray:
    """Quantiles of Gaussian mixtures by one safeguarded Halley iteration.

    Row k of ``mu`` and ``sd`` holds the components of mixture k, weighted
    by ``w`` (one row shared by every mixture, or one row each); returns
    one row of quantiles at ``probs`` per mixture.  Each quantile takes
    Halley steps (Gander 1985) s = f / (F' - f F'' / (2 F')), f = F(q) -
    prob, with F' = sum w phi(z) / sd and F'' = -sum w z phi(z) / sd^2.
    `safeguarded_newton` takes that denominator as its slope, so its
    bracket, +-8 sd around every component, and its bisection still
    apply, and all quantiles share one `ndtr` call per step.  Each start,
    CDF and slope comes from 1-D dot products ``w @ row``, so a quantile
    does not depend on which others are solved with it.

    Start.  Each quantile starts at the quantile of the normal with its
    mixture's mean and variance (sum w (sd^2 + (mu - mean)^2)), clipped
    into the bracket, and takes one Halley step on the mixture CDF with
    A&S 26.2.17 (`_approx_ndtr`, within 7.5e-8 of `ndtr`) in its place.
    The step is kept where it is finite, clipped into the bracket.  Like
    the normal quantile, the approximate CDF only places the start: every
    later step, the met test and the accuracy below use `ndtr`.  From
    that start the default fits meet every quantile in one `ndtr` call.

    Met test.  With h = f / F' the Newton step, Taylor's theorem gives
    F(q - s) - prob = s^2 h F''(q)^2 / (4 F'(q)) - s^3 F'''(xi) / 6 for
    some xi between q and q - s.  Each component's |z| phi(z) is at most
    phi(1) and its |z^2 - 1| phi(z) at most phi(0), so with m = min sd,
    |F''| <= phi(1) / m^2, |F'''| <= phi(0) / m^3, and F' >= L =
    F'(q) - r phi(1) / m^2 within r of q.  The residual after the step is
    therefore at most E = s^2 |h| F''(q)^2 / (4 F'(q)) + |s|^3 phi(0) /
    (6 m^3), and if E <= L tol with r = |s| + tol, the root lies within
    tol of q - s.  A quantile is met there with tol = 2e-16 max(|q|, m),
    and its step is kept.

    Accuracy: with n components and eps = 2^-52, each quantile q is within

        (3 + n/2) eps F(q) / f(q) + 4e-16 max(|q|, min sd)

    of the exact one.  The first term is the root's conditioning: the
    computed CDF carries a relative error of at most 3 eps from `erfc`
    (3 ulp per term, as tests/test_special.py checks) plus n eps / 2 from
    rounding the n products and their sum, and a relative error delta in
    F moves its root by delta F / f.  The second holds tol, the half ulp
    of rounding q - s, and the step's own rounding: the slopes carry a
    relative error of about (n/2 + 4) eps, and a met step is below
    (6 m^2 tol)^(1/3) <= 1.1e-5 max(|q|, m) (E <= F'(q) tol <= phi(0)
    tol / m), so it adds under 1e-16 max(|q|, m) for n up to 75,000.
    """
    w = np.broadcast_to(w, mu.shape)
    w_over_sd = w / sd
    n_probs = len(probs)
    mix = np.repeat(np.arange(mu.shape[0]), n_probs)
    level = np.tile(np.asarray(probs, dtype=float), mu.shape[0])
    min_sd = sd.min(axis=1)

    def halley(cdf, idx, q):
        """f = F(q) - prob with F from ``cdf``, F', F'' and Halley's slope."""
        m = mix[idx]
        z = (q[:, None] - mu[m]) / sd[m]
        dens = np.exp(-0.5 * z * z) / sd[m]
        f = np.array([w[k] @ row for k, row in zip(m, cdf(z))]) - level[idx]
        slope = np.array([w[k] @ row for k, row in zip(m, dens)])
        slope *= _INV_SQRT_2PI
        curve = np.array([w_over_sd[k] @ row for k, row in zip(m, z * dens)])
        curve *= -_INV_SQRT_2PI
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = slope - 0.5 * (f / slope) * curve
        # a correction that is not finite leaves Newton's slope, so the
        # step bisects rather than stalls at a zero step
        return f, slope, curve, np.where(np.isfinite(denom), denom, slope)

    def f_slope(idx, q):
        f, slope, curve, denom = halley(ndtr, idx, q)
        low = min_sd[mix[idx]]
        tol = 2e-16 * np.maximum(np.abs(q), low)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.abs(f / denom)
            bound = (s * s * np.abs(f / slope) * curve * curve / (4.0 * slope)
                     + s ** 3 * _INV_SQRT_2PI / (6.0 * low ** 3))
            lower = np.maximum(slope - (s + tol) * _PHI_1 / low ** 2, 0.0)
            met = bound <= lower * tol      # f = 0 is met whatever L
        return f, denom, met

    mean = np.array([wk @ row for wk, row in zip(w, mu)])
    var = np.array([wk @ row for wk, row in
                    zip(w, sd * sd + (mu - mean[:, None]) ** 2)])
    # Tukey's lambda approximation of the normal quantile, within 4e-3 of
    # it at 2.5 % and 97.5 %
    z = 4.91 * (level ** 0.14 - (1.0 - level) ** 0.14)
    lo = (mu - 8.0 * sd).min(axis=1)[mix]
    hi = (mu + 8.0 * sd).max(axis=1)[mix]
    start = np.clip(mean[mix] + z * np.sqrt(var)[mix], lo, hi)
    f, _, _, denom = halley(_approx_ndtr, np.arange(start.size), start)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = start - f / denom
    start = np.clip(np.where(np.isfinite(step), step, start), lo, hi)
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
    the analytic conditional Gaussians mixed over the cells that hold
    more than 1e-15 of the total mass.  The likelihood is evaluated on
    each node's band of tau rows (`_tau_band`), and once more on every
    row if the band's edge is not certified below its largest cell, so
    the outputs are the whole grid's bit for bit.

    The cells left out of the fixed effects' mixture hold a share D of
    the mass, at most 1e-15 each (D is 5e-15 to 1.3e-14 on the 30 x 20
    fits of tests/test_pinned.py).  Their own CDF lies in [0, D], so at
    level prob each fixed-effect quantile lies within max(prob, 1 - prob)
    D / f, to first order, of the quantile of the mixture over every
    cell, f being the mixture density there.  This adds to the accuracy
    of `_mixture_quantiles`; on those fits it is roughly ten times that
    bound at the 2.5 % quantile.

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
    if np.linalg.matrix_rank(dataset.X.T @ dataset.X) < p:
        if np.linalg.matrix_rank(dataset.X) < p:
            raise DataError("the covariate matrix is rank deficient")
        # the likelihood works from X'X, whose condition is X's squared
        cond = np.linalg.cond(dataset.X)
        raise DataError(
            "the covariate matrix is rank deficient in X'X: X has full rank "
            f"but condition number {cond:.1e}, which X'X squares past double "
            "precision; rescale or drop nearly collinear covariates")

    t_nodes = grid.axis("tau")          # log tau
    s_nodes = grid.axis("corr")         # internal correlation coordinate

    # log prior factors on the internal scales (Jacobians included) with
    # the trapezoid log weights; one closed-form pass gives log|C| and the
    # statistics Z'C^-1 Z to the likelihood and d, d' to the prior
    log_t = _gumbel2_log_tau(t_nodes, hyper.psi) + grid.log_weights("tau")
    kernel, W = corr._kernel_and_stats(dataset, model, s_nodes)
    log_s = (prior._log_density(*prior.distance._from_kernel(kernel), 0.0)
             + grid.log_weights("corr"))

    # the cells of each node's tau band, and of every row unless the
    # band's edge lies below _EXP_UNDERFLOW relative to its largest cell
    n_t, n_s = t_nodes.size, s_nodes.size
    eig, w_yy, cols = _eigen(W), W[:, 0, 0], log_s - 0.5 * kernel[0]
    rows, edge = _tau_band(dataset, eig, w_yy, cols, t_nodes,
                           grid.log_weights("tau").max(), hyper)
    log_cells = _woodbury(dataset, eig, w_yy, t_nodes, rows,
                          hyper.beta_prec, cols, log_t)
    top = log_cells.max()
    if len(rows) < n_t and not (np.isfinite(top) and edge < top
                                + _EXP_UNDERFLOW - _BAND_EPS * abs(top)):
        rows = np.arange(n_t)[:, None]
        log_cells = _woodbury(dataset, eig, w_yy, t_nodes, rows,
                              hyper.beta_prec, cols, log_t)
        top = log_cells.max()

    # one exponentiation relative to the largest cell, in the likelihood's
    # buffer; a NaN or +inf cell makes the maximum non-finite, and so does
    # a grid with no mass (a band whose largest cell is not finite
    # certifies nothing, so the whole grid is evaluated).  Cells below
    # _EXP_UNDERFLOW would take numpy's slow underflow path to +0.0, so
    # they are written +0.0 directly.  The band is scattered into a zeroed
    # plane of the whole grid, so every sum below adds the plane's cells
    # in the same order.  Only the marginals are normalised.
    if not np.isfinite(top):
        raise NumericError("non-finite evidence integrand")
    log_cells -= top
    live = np.greater(log_cells, _EXP_UNDERFLOW,
                      out=corr._work("live", log_cells.shape, bool))
    mass = np.exp(log_cells, out=log_cells, where=live)
    np.copyto(mass, 0.0, where=np.logical_not(live, out=live))
    if len(rows) < n_t:
        mass, band_mass = np.zeros((n_t, n_s)), mass
        mass.ravel()[rows * n_s + np.arange(n_s)] = band_mass
    mass_t, mass_s = mass.sum(axis=1), mass.sum(axis=0)
    total = mass_t.sum()
    log_mlik = float(top + np.log(total))
    mass_t /= total
    mass_s /= total

    boundary = (mass_t[0] + mass_t[-1]
                + (mass[1:-1, 0].sum() + mass[1:-1, -1].sum()) / total)
    diagnostics = {
        "n_tau": n_t,
        "n_corr": n_s,
        "boundary_mass": float(boundary),
        "boundary_warning": bool(boundary >= 0.01),
    }

    # correlation summary on the reporting scale
    rho_summary = _summary(corr._unit_gap_correlation(model, s_nodes), mass_s)

    # sigma^2 = e^-t only where tau has mass: e^-t overflows below t = -709,
    # which `_summary` refuses
    held = mass_t > 0
    with np.errstate(over="ignore"):
        sigma2_summary = _summary(np.exp(-t_nodes[held]), mass_t[held])

    flat_w = mass.ravel()
    active = np.flatnonzero(flat_w > 1e-15 * total)
    t_idx, k_idx = np.divmod(active, n_s)
    lam, V, c = eig
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
    if x != x:
        raise DomainError("the log Bayes factor is NaN")
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
