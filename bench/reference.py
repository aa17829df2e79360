"""Converged evidence reference behind `log_mlik_err_nats`.

The reference integrates the same integrand as `log_marginal_likelihood`
(Gaussian likelihood with beta integrated out, Gumbel type-2 prior on the
precision, the fit's PC prior on the internal correlation coordinate) on
a trapezoid grid centred at the posterior mean +-10 posterior sd, at 81
and at 161 nodes per axis.  The likelihood is evaluated here from
per-group sufficient statistics, for all grid nodes at once, so that a
161x161 grid costs milliseconds instead of a full fit:

* exchangeable: Q_j = (1 - rho)^-1 [I - c_j 11'], c_j = rho / (1 + (m_j - 1) rho);
* AR1 and OU (Markov chains along the group): u'Q v is the sum over
  groups of u_0 v_0 plus, over consecutive pairs (a, b) with gap
  correlation r, (u_b - r u_a)(v_b - r v_a) / (1 - r^2).

Only the prior density comes from the program (`log_density_internal`);
`Integrand.loglik` is cross-checked against the program's
`gaussian_loglik` by the caller.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, logsumexp

_LOG_2PI = np.log(2.0 * np.pi)
#: largest logit(rho) still below 1 in double precision (as in grouppc.corr)
_RHO_INTERNAL_MAX = 36.7
DEFAULT_WINDOW = ((-12.0, 12.0), (-12.0, 12.0))


class Integrand:
    """log likelihood + log priors on (log tau, internal coordinate)."""

    def __init__(self, dataset, family, prior, psi, beta_prec=1e-6):
        Z = np.column_stack([dataset.y, dataset.X])
        self.M, q = Z.shape
        self.p = q - 1
        self.family = family
        self.prior = prior
        self.psi = psi
        self.beta_prec = beta_prec
        sizes = np.asarray(dataset.design.group_sizes)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        if family == "exchangeable":
            self.sizes = sizes
            self.G = Z.T @ Z
            S = np.add.reduceat(Z, starts, axis=0)
            self.SS = np.einsum("ja,jb->jab", S, S).reshape(sizes.size, -1)
            return
        first = Z[starts]
        self.F = first.T @ first
        b = np.setdiff1d(np.arange(self.M), starts)
        a = b - 1
        outer = lambda u, v: np.einsum("ga,gb->gab", u, v).reshape(b.size, -1)
        self.Paa = outer(Z[a], Z[a])
        self.Pbb = outer(Z[b], Z[b])
        self.Pab = outer(Z[a], Z[b]) + outer(Z[b], Z[a])
        positions = dataset.design.positions
        if family == "ou" and positions is not None:
            flat = np.concatenate([np.asarray(p, dtype=float) for p in positions])
            self.gaps = flat[b] - flat[a]
        else:
            self.gaps = np.ones(b.size)

    def _stats(self, s):
        """Z'QZ at unit precision and log|C| for each internal node s."""
        q = self.p + 1
        if self.family == "exchangeable":
            rho = expit(s)[:, None]
            c = rho / (1.0 + (self.sizes - 1) * rho)
            W = (1.0 + np.exp(s))[:, None, None] * (
                self.G - (c @ self.SS).reshape(s.size, q, q))
            logdet = ((self.sizes - 1).sum() * np.log1p(-rho[:, 0])
                      + np.log1p((self.sizes - 1) * rho).sum(axis=1))
            return W, logdet
        if self.family == "ar1":
            r = np.broadcast_to(expit(s)[:, None], (s.size, self.gaps.size))
            one_m_r2 = (1.0 - r) * (1.0 + r)
        else:
            x = np.exp(s)[:, None] * self.gaps
            r = np.exp(-x)
            one_m_r2 = -np.expm1(-2.0 * x)
        w = 1.0 / one_m_r2
        W = self.F + (w @ self.Pbb - (w * r) @ self.Pab
                      + (w * r * r) @ self.Paa).reshape(s.size, q, q)
        return W, np.log(one_m_r2).sum(axis=1)

    def loglik(self, t, s):
        """Gaussian log likelihood on the (t, s) tensor grid, shape (nt, ns)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        W, logdetC = self._stats(s)
        tau = np.exp(t)[:, None]
        B = (self.beta_prec * np.eye(self.p)
             + tau[..., None, None] * W[None, :, 1:, 1:])
        L = np.linalg.cholesky(B)
        logdetB = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(-1)
        rhs = tau[..., None] * W[None, :, 1:, 0]
        sol = np.linalg.solve(B, rhs[..., None])[..., 0]
        quad = tau * W[None, :, 0, 0] - (rhs * sol).sum(-1)
        logdet = (-self.M * t[:, None] + logdetC[None, :]
                  - self.p * np.log(self.beta_prec) + logdetB)
        return -0.5 * (self.M * _LOG_2PI + logdet + quad)

    def grid(self, window, n):
        """Trapezoid log evidence on an n x n grid, with posterior moments.

        Returns (log Z, (mean_t, mean_s), (sd_t, sd_s), (step_t, step_s)).
        """
        axes = [np.linspace(lo, hi, n) for lo, hi in window]
        t, s = axes
        log_prior_t = (np.log(self.psi / 2.0) - 0.5 * t
                       - self.psi * np.exp(-0.5 * t))
        log_prior_s = np.asarray(self.prior.log_density_internal(s))
        log_w = []
        for nodes in axes:
            w = np.full(n, nodes[1] - nodes[0])
            w[0] = w[-1] = w[0] / 2.0
            log_w.append(np.log(w))
        log_cells = (self.loglik(t, s) + (log_prior_t + log_w[0])[:, None]
                     + (log_prior_s + log_w[1])[None, :])
        log_z = float(logsumexp(log_cells))
        mass = np.exp(log_cells - log_z)
        means, sds = [], []
        for nodes, marg in zip(axes, (mass.sum(axis=1), mass.sum(axis=0))):
            marg = marg / marg.sum()
            mean = float(nodes @ marg)
            means.append(mean)
            sds.append(float(np.sqrt(max(((nodes - mean) ** 2) @ marg, 0.0))))
        return log_z, tuple(means), tuple(sds), tuple(a[1] - a[0] for a in axes)


def _window(integrand, mean, sd):
    (mt, ms), (st, ss) = mean, sd
    lo_s, hi_s = ms - 10.0 * ss, ms + 10.0 * ss
    if integrand.family != "ou":
        hi_s = min(hi_s, _RHO_INTERNAL_MAX)
    return ((mt - 10.0 * st, mt + 10.0 * st), (lo_s, hi_s))


def reference(integrand, max_iter=8):
    """Centre a grid on the posterior and return (log Z at 81, at 161, mean).

    Starts from the default +-12 window; each pass re-centres on the
    posterior mean +-10 sd of the previous grid (with the sd floored at one
    grid step, so a posterior narrower than the grid still zooms in) and
    stops once the window moves by less than a tenth of a step of the
    final grid.
    """
    window, n = DEFAULT_WINDOW, 201
    for _ in range(max_iter):
        _, mean, sd, step = integrand.grid(window, n)
        sd = tuple(max(a, b) for a, b in zip(sd, step))
        new = _window(integrand, mean, sd)
        moved = max(abs(x - y) for w0, w1 in zip(window, new)
                    for x, y in zip(w0, w1))
        final_step = min(hi - lo for lo, hi in new) / 160.0
        window, n = new, 161
        if moved < 0.1 * final_step:
            break
    z81 = integrand.grid(window, 81)[0]
    z161, mean, _, _ = integrand.grid(window, 161)
    return z81, z161, mean
