"""Within-group correlation matrices and their log-determinants.

Everything here works group-wise: the full residual correlation matrix is
block diagonal with one block per group, so log-determinants and their
derivatives are sums over groups.  Each family has a closed form per
block:

* exchangeable: ``|R| = (1 + (m-1) rho) (1 - rho)^(m-1)``
* AR1 (unit spacing): ``|R| = (1 - rho^2)^(m-1)``
* OU over gaps ``delta``: ``|R| = prod_i (1 - exp(-2 delta_i phi))``

The OU form follows from the Markov property of the process: conditioning
telescopes the joint density into consecutive-pair factors, so only the
gap correlations ``exp(-delta_i phi)`` enter.  AR1 is the unit-spacing
special case under ``rho = exp(-phi)``.

One private kernel returns log |R| and its derivative from one pass over
the nodes; the public functions project it on the parameter scale, and
`_internal_kernel` evaluates it on the internal scale.

A dense Cholesky fallback (`log_det_dense`, `dlogdet_finite_difference`)
backs the same quantities for verification.

Functions taking the correlation parameter accept scalars or arrays and
broadcast over the parameter.  All functions are pure.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .design import Family, GroupModel, GroupedDesign
from .errors import DomainError
from .special import expit

__all__ = [
    "corr_matrix",
    "log_det",
    "dlogdet_dparam",
    "log_det_dense",
    "dlogdet_finite_difference",
    "param_to_internal",
    "internal_to_param",
]

# Largest logit(rho) with rho strictly below 1.0 in double precision.
RHO_INTERNAL_MAX = 36.7
# Smallest log(phi) with phi strictly above 0.0 (normal range, with margin).
PHI_INTERNAL_MIN = -700.0


def _log1pmx(x, log1p_x=None):
    """log(1 + x) - x for x > -1, without cancellation near 0.

    Within 0.1 of 0 it takes `_log1pmx_near`.  Elsewhere it takes
    ``log1p_x`` when the caller holds log(1 + x) more exactly than
    ``np.log1p(x)`` can (log(1 - rho) = -softplus(t) as rho rounds to 1).
    """
    out = (np.log1p(x) if log1p_x is None else log1p_x) - x
    near = np.abs(x) < 0.1
    if near.ndim == 0:   # a scalar: plain branching is far cheaper
        return _log1pmx_near(x) if near else out
    return np.where(near, _log1pmx_near(x), out) if near.any() else out


def _log1pmx_near(x):
    """-x^2 / (2 + x) + 2 (s^3/3 + s^5/5 + ...), s = x / (2 + x), to s^15.

    This is the atanh series of log1p(x) less x; for |x| < 0.1, |s| < 0.053
    and the terms left out are below 1e-19 relative.
    """
    s = x / (2.0 + x)
    s2 = s * s
    series = s2 * (1 / 3 + s2 * (1 / 5 + s2 * (1 / 7 + s2 * (
        1 / 9 + s2 * (1 / 11 + s2 * (1 / 13 + s2 / 15))))))
    return 2.0 * s * series - x * x / (2.0 + x)


_SCALAR_TYPES = (float, int, np.floating, np.integer)


def _check_param(model: GroupModel, param, allow_degenerate: bool):
    """Validate the correlation parameter; a float for scalars, else an array.

    Python and NumPy scalars are compared as plain floats, which keeps
    per-group loops (the dense oracle, simulation) off the ufunc path.  Both
    paths run the same comparisons (``p != p`` is the NaN test), so a value
    is accepted or rejected alike whatever its type.
    """
    if isinstance(param, _SCALAR_TYPES):
        p, anyof = float(param), bool
    else:
        p, anyof = np.asarray(param, dtype=float), np.any
    if anyof(p != p):
        raise DomainError("correlation parameter is NaN")
    if model.family is Family.OU:
        if anyof(p < 0 if allow_degenerate else p <= 0):
            raise DomainError("phi must be positive for the OU family")
    elif anyof(p < 0) or anyof(p > 1 if allow_degenerate else p >= 1):
        raise DomainError("rho must lie in [0, 1)")
    return p


def _scalar_like(param, value):
    """Return a float when the parameter input was scalar."""
    if np.ndim(param) == 0:
        return float(value)
    return np.asarray(value)


# ----------------------------------------------------------------------
# matrix construction
# ----------------------------------------------------------------------

def corr_matrix(model: GroupModel, design: GroupedDesign,
                group_index: int, param: float) -> NDArray:
    """Correlation matrix of one group (0-based ``group_index``).

    Parameters
    ----------
    model : GroupModel
    design : GroupedDesign
    group_index : int
        Which group, ``0 .. design.n_groups - 1``.
    param : float
        rho in [0, 1) for exchangeable/AR1, phi > 0 for OU.
    """
    model.check_design(design)
    p = float(_check_param(model, param, allow_degenerate=False))
    return _corr_block(model, design, group_index, p)


def _corr_block(model: GroupModel, design: GroupedDesign,
                group_index: int, p: float) -> NDArray:
    """`corr_matrix` for a design and parameter already checked."""
    m = design.group_sizes[group_index]
    if model.family is Family.EXCHANGEABLE:
        R = np.full((m, m), p)
        np.fill_diagonal(R, 1.0)
        return R
    if model.family is Family.AR1:
        idx = np.arange(m)
        return p ** np.abs(idx[:, None] - idx[None, :])
    # OU: entries decay with the absolute coordinate difference
    if design.positions is not None:
        pos = np.asarray(design.positions[group_index], dtype=float)
    else:
        pos = np.arange(m, dtype=float)
    with np.errstate(invalid="ignore"):   # 0 * inf on the diagonal
        R = np.exp(-np.abs(pos[:, None] - pos[None, :]) * p)
    # unit diagonal also at phi = inf, the independence base
    np.fill_diagonal(R, 1.0)
    return R


# ----------------------------------------------------------------------
# log-determinants and derivatives (closed forms, vectorized in param)
# ----------------------------------------------------------------------
# One kernel, `_log_det_slope`, gives log |R| and its derivative on the
# parameter scale and the internal scale (logit rho, log phi) alike.  The
# rho families take log(1 - rho) next to rho: log1p(-rho), or -softplus(t)
# on the logit scale, where it stays exact after rho has rounded to 1.
# The derivative in a coordinate c takes j = (d rho / d c) / (1 - rho):
# 1 / (1 - rho) for c = rho and rho for c = logit rho, so (1 - rho)
# cancels before it can round to 0.  OU takes phi and
# j = (d phi / d c) / phi: 1 / phi, or 1 for log phi.

#: elements per OU block of nodes x gaps (bounds its memory; at least a node)
_OU_BLOCK = 1 << 15


def _ou_terms(x, e, one_m_e, small):
    """Row sums of log(1 - e^-x) and x / (e^x - 1), for x >= 0.

    Both share e^-x and 1 - e^-x = -expm1(-x): the log is log(1 - e^-x)
    below x = log 2 and log1p(-e^-x) above, accurate at both ends.  The
    ratio x e^-x / (1 - e^-x) takes its limits 1 at x = 0 by fmin (0/0)
    and 0 at inf from x capped at 1e308.  Overwrites all four arrays.
    """
    np.minimum(x, 1e308, out=x)
    np.less(x, np.log(2.0), out=small)
    np.exp(np.negative(x, out=one_m_e), out=e)
    np.negative(np.expm1(one_m_e, out=one_m_e), out=one_m_e)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.multiply(x, e, out=x), one_m_e, out=x)
        np.fmin(x, 1.0, out=x)
        np.log1p(np.negative(e, out=e), out=e)
        np.log(one_m_e, out=e, where=small)
    return e.sum(axis=-1), x.sum(axis=-1)


def _ou_gap_sums(design: GroupedDesign, phi):
    """`_ou_terms` over all gaps at x = 2 gap phi, one row of gaps per node.

    The nodes x gaps rows are built `_OU_BLOCK` elements at a time into
    three float work arrays and a mask made once per call and reused by
    every block, so memory stays bounded, and each node's sums run over
    its own contiguous row: the same whatever its block or the shape of
    ``phi`` (a 0-d ``phi`` gives NumPy scalars).
    """
    two_gaps = 2.0 * design.all_spacings()
    flat = np.ravel(phi)
    rows = max(1, min(flat.size, _OU_BLOCK // max(two_gaps.size, 1)))
    shape = (rows, two_gaps.size)
    work = (np.empty(shape), np.empty(shape), np.empty(shape),
            np.empty(shape, dtype=bool))
    log_det, ratio = np.empty(flat.shape), np.empty(flat.shape)
    for a in range(0, flat.size, rows):
        n = min(rows, flat.size - a)
        np.multiply(flat[a:a + n, None], two_gaps, out=work[0][:n])
        log_det[a:a + n], ratio[a:a + n] = _ou_terms(*(w[:n] for w in work))
    return log_det.reshape(np.shape(phi))[()], ratio.reshape(np.shape(phi))[()]


def _log_det_slope(model: GroupModel, design: GroupedDesign, p, log1m_rho, j):
    """(log |R|, d log |R| / d c) over groups at rho or phi, from one pass.

    The rho families write log |R| as sums of log1p(x) - x terms, all <= 0:
    with a = m - 1 and l = log(1 - rho) + rho, an exchangeable block is
    (log1p(a rho) - a rho) + a l and an AR1 pair (log1p(rho) - rho) + l.
    The O(rho) parts cancel in the algebra, so nothing cancels in floating
    point as rho -> 0, where log|R| is O(rho^2).  The derivative is a sum
    of -m (m - 1) rho j / (1 + (m - 1) rho) per exchangeable block,
    -2 rho j / (1 + rho) per AR1 pair or j x / (e^x - 1) per OU gap.
    """
    if model.family is Family.OU:
        log_det, ratio = _ou_gap_sums(design, p)
        return log_det, j * ratio
    log1m_plus = _log1pmx(-p, log1m_rho)
    if model.family is Family.AR1:
        k = design.gaps.size
        slope = -2.0 * k * p * j / (1.0 + p)
        if k == 0:
            return np.zeros(np.shape(p)), slope
        return k * (_log1pmx(p) + log1m_plus), slope
    log_det = slope = np.zeros(np.shape(p))
    for m, c in design.size_classes:
        if m > 1:
            log_det = log_det + c * (_log1pmx((m - 1) * p)
                                     + (m - 1) * log1m_plus)
            slope = slope - c * m * (m - 1) * p * j / (1.0 + (m - 1) * p)
    return log_det, slope


def _param_kernel(model: GroupModel, design: GroupedDesign, param,
                  allow_degenerate: bool):
    """`_log_det_slope` at checked values (log|R| = -inf at rho 1, phi 0)."""
    model.check_design(design)
    p = _check_param(model, param, allow_degenerate)
    with np.errstate(divide="ignore", invalid="ignore"):
        if model.family is Family.OU:
            return _log_det_slope(model, design, p, None, np.reciprocal(p))
        return _log_det_slope(model, design, p, np.log1p(-p),
                              np.reciprocal(1.0 - p))


def log_det(model: GroupModel, design: GroupedDesign, param):
    """Sum over groups of ``log |R_j(param)|``.

    Always <= 0, and exactly 0 at the independence base (rho = 0, or
    phi -> inf).  Degenerate boundary values (rho = 1, phi = 0) are
    accepted and yield ``-inf`` rather than raising.
    """
    return _scalar_like(param, _param_kernel(model, design, param, True)[0])


def dlogdet_dparam(model: GroupModel, design: GroupedDesign, param):
    """Derivative of `log_det` in the correlation parameter.

    Defined on the interior of the domain; the degenerate boundary
    (rho = 1, phi = 0) raises a domain error.  The base point rho = 0 is
    allowed and gives exactly 0 for exchangeable/AR1.
    """
    return _scalar_like(param, _param_kernel(model, design, param, False)[1])


# ----------------------------------------------------------------------
# dense fallbacks
# ----------------------------------------------------------------------

def log_det_dense(model: GroupModel, design: GroupedDesign, param) -> float:
    """`log_det` recomputed from dense per-group Cholesky factors."""
    model.check_design(design)
    p = float(_check_param(model, param, allow_degenerate=False))
    total = 0.0
    for j in range(design.n_groups):
        R = _corr_block(model, design, j, p)
        sign, val = np.linalg.slogdet(R)
        if sign <= 0:
            raise DomainError("correlation block is not positive definite")
        total += val
    return total


def dlogdet_finite_difference(model: GroupModel, design: GroupedDesign,
                              param: float, step: float = 1e-6) -> float:
    """Central finite-difference derivative of `log_det`."""
    p = float(param)
    return (log_det(model, design, p + step)
            - log_det(model, design, p - step)) / (2.0 * step)


# ----------------------------------------------------------------------
# internal (unbounded) parameter scale
# ----------------------------------------------------------------------
# rho lives on (0, 1) and is handled on the logit scale; phi lives on
# (0, inf) and is handled on the log scale.  The kernel above takes the
# internal coordinate through `_internal_kernel`, which keeps log(1 - rho)
# exact when rho is within a few ulp of 1, as prior tails need.

def param_to_internal(model: GroupModel, param):
    p = np.asarray(param, dtype=float)
    if model.family is Family.OU:
        with np.errstate(divide="ignore"):
            out = np.log(p)
    else:
        with np.errstate(divide="ignore"):
            out = np.log(p) - np.log1p(-p)
    return _scalar_like(param, out)


def internal_to_param(model: GroupModel, t):
    x = np.asarray(t, dtype=float)
    out = np.exp(x) if model.family is Family.OU else expit(x)
    return _scalar_like(t, out)


def _internal_kernel(model: GroupModel, design: GroupedDesign, t):
    """(log |R|, slope) at internal coordinates ``t``, stable in the tails."""
    model.check_design(design)
    x = np.asarray(t, dtype=float)
    if model.family is Family.OU:
        return _log_det_slope(model, design, np.exp(x), None, 1.0)
    rho = expit(x)
    return _log_det_slope(model, design, rho, -np.logaddexp(0.0, x), rho)

