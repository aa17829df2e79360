"""Within-group correlations: matrices, log-determinants, quadratic forms.

This is the one module that knows each family's correlation algebra.
Everything here works group-wise: the full residual correlation matrix is
block diagonal with one block per group, so log-determinants, their
derivatives and the quadratic forms Z'R^-1 Z are sums over groups.  Each
family has a closed form per block:

* exchangeable: ``|R| = (1 + (m-1) rho) (1 - rho)^(m-1)``
* AR1 (unit spacing): ``|R| = (1 - rho^2)^(m-1)``
* OU over gaps ``delta``: ``|R| = prod_i (1 - exp(-2 delta_i phi))``

The OU form follows from the Markov property of the process: conditioning
telescopes the joint density into consecutive-pair factors, so only the
gap correlations ``exp(-delta_i phi)`` enter.  AR1 is the unit-spacing
special case under ``rho = exp(-phi)``.

One private kernel returns log |R| and its derivative from one pass over
the nodes; the public functions project it on the parameter scale, and
`_internal_kernel` evaluates it on the internal scale.  Its rho -> 0 limit
gives the distance's base slope (`_base_slope`).  `_kernel_and_stats`,
the one source of the statistics, returns that internal kernel with
Z'R^-1 Z for every internal node, formed from group means (exchangeable)
or consecutive pairs (AR1, OU) without building R^-1; for OU the kernel
pass forms both.  `_unit_gap_correlation` reports the correlation one
unit apart.

OU sums run over gaps at x = 2 gap phi.  On a design with at most 21
distinct gap values (unit or integer spacing, say), every node sums the
terms of those values, each weighted by how many gaps take it, and Z'QZ
takes the pair products summed once per value (`_distinct_gaps`).  Other
designs split the nodes by their largest x.  Where that is at most 2,
each per-gap term is a Bernoulli-number series in x (Abramowitz & Stegun
23.1.1, radius 2 pi), so the sums over gaps come from 21 terms over a
few gap power moments (`_ou_series_sums`, which states the series'
truncation and cancellation bounds); every other node walks all its gaps
(`_ou_gap_sums`).

A dense Cholesky fallback (`log_det_dense`) backs the same quantities
for verification.

Functions taking the correlation parameter accept scalars or arrays and
broadcast over the parameter.  All functions are pure.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.typing import NDArray

from .design import Dataset, Family, GroupModel, GroupedDesign
from .errors import DomainError
from .special import expit

__all__ = [
    "corr_matrix",
    "log_det",
    "dlogdet_dparam",
    "log_det_dense",
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
    if near.any():   # the series on the near elements only (elementwise)
        out[near] = _log1pmx_near(x[near])
    return out


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
        Which group, ``0 .. design.n_groups - 1``; a negative index
        counts from the end, as for ``design.group_sizes``.
    param : float
        rho in [0, 1) for exchangeable/AR1, phi > 0 for OU.
    """
    model.check_design(design)
    p = float(_check_param(model, param, allow_degenerate=False))
    # one non-negative index for the sizes and the G + 1 offsets alike
    j = range(design.n_groups)[group_index]
    m = design.group_sizes[j]
    return _corr_blocks(model, design, [j], p).reshape(m, m)


def _corr_blocks(model: GroupModel, design: GroupedDesign, groups,
                 p: float) -> NDArray:
    """Correlation blocks of ``groups``, group indices of one size m, at a
    checked float parameter.

    Exchangeable, AR1 and unit-spaced OU blocks depend on m alone, so one
    (m, m) block serves every group of the size; OU with positions stacks
    one block per group, (len(groups), m, m), each entry formed as it
    would be alone.
    """
    m = design.group_sizes[groups[0]]
    if model.family is Family.EXCHANGEABLE:
        R = np.full((m, m), p)
        np.fill_diagonal(R, 1.0)
        return R
    if model.family is Family.AR1:
        idx = np.arange(m)
        return p ** np.abs(idx[:, None] - idx[None, :])
    # OU: entries decay with the absolute coordinate difference
    if design._flat_positions is not None:
        rows = design.offsets[groups, None] + np.arange(m)
        pos = design._flat_positions[rows]
    else:
        pos = np.arange(m, dtype=float)
    with np.errstate(invalid="ignore"):   # 0 * inf on the diagonal
        R = np.exp(-np.abs(pos[..., :, None] - pos[..., None, :]) * p)
    # unit diagonal also at phi = inf, the independence base
    idx = np.arange(m)
    R[..., idx, idx] = 1.0
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

_workspace = threading.local()


def _work(name: str, shape, dtype=float) -> NDArray:
    """This thread's work array ``name`` as ``shape``, kept across calls
    (it grows to the largest request); never returned to a caller."""
    size = math.prod(shape)
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_workspace, name, buf)
    return buf[:size].reshape(shape)


def _ou_terms(x, e, one_m_e, small, weights=None, counts=None):
    """Row sums of log(1 - e^-x) and x / (e^x - 1), for x >= 0.

    Both share e^-x and 1 - e^-x = -expm1(-x): the log is log(1 - e^-x)
    below x = log 2 and log1p(-e^-x) above, accurate at both ends.  The
    ratio x e^-x / (1 - e^-x) takes its limits 1 at x = 0 by fmin (0/0)
    and 0 at inf from x capped at 1e308.  Overwrites all four arrays.
    ``weights`` (rows x 3 x gaps x 1) get the Markov pair weights at gap
    correlation r = e^(-x/2) from e = r^2 and 1 - e before they are
    overwritten: 1 / (1 - e), 1 / (1 + r), (1 - e) / (1 + r)^2.  With
    ``counts`` (one per column) each term is weighted by its count.
    """
    np.minimum(x, 1e308, out=x)
    np.less(x, np.log(2.0), out=small)
    np.exp(np.negative(x, out=one_m_e), out=e)
    np.negative(np.expm1(one_m_e, out=one_m_e), out=one_m_e)
    if weights is not None:
        w0, w1, w2 = (weights[:, k, :, 0] for k in range(3))
        np.reciprocal(np.add(np.sqrt(e, out=w1), 1.0, out=w1), out=w1)
        np.reciprocal(one_m_e, out=w0)
        np.multiply(np.multiply(w1, w1, out=w2), one_m_e, out=w2)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.multiply(x, e, out=x), one_m_e, out=x)
        np.fmin(x, 1.0, out=x)
        np.log1p(np.negative(e, out=e), out=e)
        np.log(one_m_e, out=e, where=small)
    if counts is not None:
        np.multiply(e, counts, out=e)
        np.multiply(x, counts, out=x)
    return e.sum(axis=-1), x.sum(axis=-1)


def _ou_gap_sums(design: GroupedDesign, phi, pairs=None, distinct=()):
    """`_ou_terms` over all gaps at x = 2 gap phi, one row of gaps per node.

    This is the walk for the nodes whose largest x exceeds 2 (`_ou_sums`
    takes the others from series); it holds for any x >= 0.  With
    ``distinct`` = (values, counts) from `_distinct_gaps` a row holds the
    design's distinct gap values, each term weighted by its count, and
    ``pairs`` come summed over the gaps of each value.

    The nodes x gaps rows are built `_OU_BLOCK` elements at a time into
    this thread's `_work` arrays, so memory stays bounded, and each node's
    sums run over its own contiguous row: the same whatever its block or
    the shape of ``phi`` (a 0-d ``phi`` gives NumPy scalars).  A node
    whose e^-x underflows to 0 at its smallest gap has only zero terms;
    its sums are the +0.0 its row would give, without the walk (underflow
    is numpy's slow path).  With (3, k, n_gaps) ``pairs`` it also returns
    sum_gaps w_i pairs_i per node, by matrix-vector products (a matrix
    product's rows depend on the block) summed apart (stacked, they round
    several times worse); one skipped node, all weights 1, serves all.
    """
    gaps, counts = distinct or (design.gaps, None)
    two_gaps = 2.0 * gaps
    flat = np.ravel(phi)
    log_det, ratio = np.zeros(flat.shape), np.zeros(flat.shape)
    skip = (np.exp(-flat * two_gaps.min()) == 0.0 if two_gaps.size
            else np.ones(flat.shape, dtype=bool))
    live = np.flatnonzero(~skip)
    if pairs is not None:
        stats = np.empty((flat.size, pairs.shape[1]))
        live = np.append(live, np.flatnonzero(skip)[:1])
    rows = max(1, min(live.size, _OU_BLOCK // max(two_gaps.size, 1)))
    shape = (rows, two_gaps.size)
    work = [_work("ou_x", shape), _work("ou_e", shape),
            _work("ou_1me", shape), _work("ou_small", shape, bool)]
    if pairs is not None:
        work.append(_work("ou_weights", (rows, 3, two_gaps.size, 1)))
    for a in range(0, live.size, rows):
        at = live[a:a + rows]
        block = [v[:at.size] for v in work]
        np.multiply(flat[at][:, None], two_gaps, out=block[0])
        log_det[at], ratio[at] = _ou_terms(*block, counts=counts)
        if pairs is not None:
            w = block[4]
            stats[at] = sum(pairs[i] @ w[:, i] for i in range(3))[..., 0]
    sums = log_det.reshape(np.shape(phi))[()], ratio.reshape(np.shape(phi))[()]
    if pairs is not None:
        stats[skip] = stats[skip.argmax()]
        return (*sums, stats)
    return sums


# Taylor coefficients in x, n = 1 .. 21: b_n = B_2n / (2n)! of
# x / (e^x - 1) = 1 - x/2 + sum b_n x^2n (Abramowitz & Stegun 23.1.1),
# a_n = b_n / (2n) of log(1 - e^-x) - log x + x/2, and c_n = 4 (1 - 4^-n) b_n
# of tanh(x/4); `_ou_series_sums` bounds the terms left out.
_OU_B = (0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
         -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
         1.3382536530684679e-11, -3.3896802963225827e-13,
         8.586062056277845e-15, -2.174868698558062e-16, 5.5090028283602295e-18,
         -1.3954464685812522e-19, 3.534707039629467e-21,
         -8.953517427037546e-23, 2.267952452337683e-24, -5.744790668872202e-26,
         1.455172475614865e-27, -3.6859949406653103e-29, 9.336734257095045e-31,
         -2.36502241570063e-32, 5.990671762482134e-34)
_OU_A = (0.041666666666666664, -0.00034722222222222224, 5.5114638447971785e-06,
         -1.033399470899471e-07, 2.08767569878681e-09, -4.403491782239578e-11,
         9.55895466477477e-13, -2.1185501852016142e-14, 4.770034475709914e-16,
         -1.087434349279031e-17, 2.5040921947091955e-19,
         -5.814360285755218e-21, 1.3595027075497952e-22,
         -3.1976847953705525e-24, 7.559841507792277e-26,
         -1.7952470840225633e-27, 4.279919045926073e-29,
         -1.0238874835181417e-30, 2.4570353308144855e-32,
         -5.912556039251575e-34, 1.4263504196386035e-35)
_OU_C = (0.25, -0.005208333333333333, 0.00013020833333333333,
         -3.2939608134920636e-06, 8.342547811948854e-08,
         -2.1131600212817663e-09, 5.352687890190603e-11,
         -1.3558514295623808e-12, 3.434411721220158e-14, -8.69946649776657e-16,
         2.2036006059646413e-17, -5.581785541624645e-19, 1.413882794783291e-20,
         -3.581406957473238e-22, 9.071809800901951e-24,
         -2.2979162670138556e-25, 5.820689902120651e-27,
         -1.4743979762446688e-28, 3.734693702824431e-30,
         -9.460089662793916e-32, 2.396268704992309e-33)
_OU_COEFS = np.array([_OU_A, _OU_B, _OU_C]).T
_OU_COEFS.flags.writeable = False
#: largest x_max = 2 phi (largest gap) of a node summed by `_ou_series_sums`
_OU_SERIES_MAX = 2.0
#: rows x columns x inner length up to which OpenBLAS multiplies two
#: matrices on one thread (its threshold, 65536 x 4)
_SERIAL_PRODUCT = 1 << 18


def _ou_moments(design: GroupedDesign):
    """The design-only moments of `_ou_series_sums`, read-only: the rows
    u^-1, 1, u, u^3, .., u^41 of u = gap / max gap (23 x G), S_2, S_4, ..,
    S_42, sum log u and S_1 / 2."""
    top = design.gaps.max()
    u = design.gaps / top
    odd = np.empty((len(_OU_COEFS) + 2, u.size))        # u^-1, 1, u, u^3..
    np.divide(top, design.gaps, out=odd[0])
    odd[1], odd[2] = 1.0, u
    # the odd powers by doubling: u^(2j+1) u^2k for j < k gives the next
    # k rows, so 21 rows take 5 products and 5 squarings, not 20 products
    square, k = u * u, 1
    while k < len(odd) - 2:
        m = min(k, len(odd) - 2 - k)
        np.multiply(odd[2:2 + m], square, out=odd[2 + k:2 + k + m])
        square, k = square * square, 2 * k
    even = odd[2:] @ u                                   # S_2, S_4, .., S_42
    odd.flags.writeable = even.flags.writeable = False
    return odd, even, np.log(u).sum(), 0.5 * u.sum()


def _ou_series_sums(design: GroupedDesign, x_max, pairs=None):
    """`_ou_gap_sums` at nodes whose largest x = 2 gap phi is ``x_max``,
    at most `_OU_SERIES_MAX` = 2.

    With G gaps, u = gap / max gap <= 1 and S_k = sum u^k, both sums are
    series in x_max whose coefficients are design moments:
    sum log(1 - e^-x) = G log x_max + sum log u - x_max S_1 / 2
    + sum_n a_n x_max^2n S_2n and sum x / (e^x - 1) = G - x_max S_1 / 2
    + sum_n b_n x_max^2n S_2n, so a node costs O(21), not O(G).  With
    ``pairs`` the pair weights at r = e^(-x/2) are 1 / (1 - r^2) =
    1/x + 1/2 + sum b_n x^(2n-1), 1 / (1 + r) = 1/2 + tanh(x/4) / 2 and
    (1 - r) / (1 + r) = tanh(x/4) = sum c_n x^(2n-1), so Z'QZ takes the
    moments sum u^k pairs over gaps for k = -1, 0, 1, 3, .., 41 from one
    matrix product per call.  The design's own moments (`_ou_moments`)
    are derived on the first call for a design and kept on it.  The three
    series share one table of powers of x_max^2 and are summed from their
    smallest term by one ordered accumulate: a few array calls per batch,
    where a Horner loop over 21 terms would take 40, more than a one-node
    walk costs on a few hundred gaps.  Every node's outputs are
    elementwise in its own x_max: the same alone and in any batch.

    The bounds of this series, stated here only:

    * truncation: for 0 <= x <= 2 the terms left out sum to below
      6.8e-24 (a), 3.0e-22 (b) and 6.0e-22 (c) per gap;
    * cancellation: where every gap is the largest, at x_max = 2,
      G log x_max, x_max S_1 / 2 and the series cancel to 1/13 of their
      size, so log|R| keeps about 13 eps of the sum of its terms' sizes
      (5.5 eps measured against 40 digits); its slope and Z'QZ cancel
      less.
    """
    if design._ou_moments is None:
        object.__setattr__(design, "_ou_moments", _ou_moments(design))
    odd, even, sum_log_u, half_s1 = design._ou_moments
    n_gaps = odd.shape[1]
    rows = [_OU_COEFS[:, :2] * even[:, None]]
    if pairs is not None:
        # over runs of gaps short enough for a one-thread matrix product
        # (OpenBLAS splits larger ones over threads, which took 0.5-7.5 ms
        # at 18,000 gaps against 0.8 ms on one on a 2-core host)
        cols = pairs.reshape(-1, n_gaps)
        step = max(1, _SERIAL_PRODUCT // (odd.shape[0] * len(cols)))
        moments = odd[:, :step] @ cols[:, :step].T
        for a in range(step, n_gaps, step):
            moments += odd[:, a:a + step] @ cols[:, a:a + step].T
        moments = moments.reshape(odd.shape[0], 3, -1)
        b, c = _OU_COEFS[:, 1:2], _OU_COEFS[:, 2:]
        rows.append(b * moments[2:, 0] + 0.5 * c * moments[2:, 1]
                    + c * moments[2:, 2])
    # with y = x_max^2, the terms y^n a_n S_2n, y^n b_n S_2n and y^(n-1)
    # times each Z'QZ row, summed from n = 21 down by one accumulate (a
    # reduce over one node would sum pairwise)
    coefs = np.hstack(rows)[::-1]
    x = x_max[:, None]
    powers = np.repeat(x * x, len(coefs) + 1, axis=1)
    powers[:, 0] = 1.0
    np.multiply.accumulate(powers, axis=1, out=powers)    # 1, y, .., y^21
    terms = np.empty((x.size,) + coefs.shape)
    np.multiply(powers[:, :0:-1, None], coefs[:, :2], out=terms[:, :, :2])
    np.multiply(powers[:, -2::-1, None], coefs[:, 2:], out=terms[:, :, 2:])
    series = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):   # x_max = 0
        # the small terms first, then the one that dominates
        log_det = n_gaps * np.log(x_max) + (
            sum_log_u - x_max * half_s1 + series[:, 0])
        ratio = n_gaps + (series[:, 1] - x_max * half_s1)
        if pairs is None:
            return log_det, ratio
        stats = moments[0, 0] / x + (0.5 * (moments[1, 0] + moments[1, 1])
                                     + x * series[:, 2:])
    return log_det, ratio, stats


def _distinct_gaps(design: GroupedDesign):
    """(values, counts, order, bounds): the design's distinct gap values,
    how many gaps take each (as floats), the gap order that groups equal
    gaps and the bounds of each value's run in it, the arrays read-only;
    () where the design has no gaps or more than len(`_OU_COEFS`) = 21
    values.  Derived on the first call for a design and kept on it."""
    if design._distinct_gaps is None:
        values, index, counts = np.unique(design.gaps, return_inverse=True,
                                          return_counts=True)
        found = ()
        if 0 < values.size <= len(_OU_COEFS):
            found = (values, counts * 1.0, np.argsort(index, kind="stable"),
                     np.append(0, np.cumsum(counts)).tolist())
            for v in found[:3]:
                v.flags.writeable = False
        object.__setattr__(design, "_distinct_gaps", found)
    return design._distinct_gaps


def _ou_sums(design: GroupedDesign, phi, pairs=None):
    """`_ou_gap_sums` as output.  On a design with at most len(`_OU_COEFS`)
    = 21 distinct gap values (`_distinct_gaps`) every node walks those
    values, each term weighted by its count: O(values) a node, at most the
    series' 21 terms; ``pairs`` then come summed per value.  On any other
    design the nodes whose largest x = 2 gap phi is at most
    `_OU_SERIES_MAX` take `_ou_series_sums` (its bounds are stated there)
    and the others walk every gap."""
    distinct = _distinct_gaps(design)
    if distinct or not design.gaps.size:
        return _ou_gap_sums(design, phi, pairs, distinct[:2])
    flat = np.ravel(phi)
    x_max = flat * (2.0 * design.gaps.max())
    series = x_max <= _OU_SERIES_MAX
    if not series.any():
        return _ou_gap_sums(design, phi, pairs)
    walk = np.flatnonzero(~series)
    out = [np.empty(flat.shape), np.empty(flat.shape)]
    if pairs is not None:
        out.append(np.empty((flat.size, pairs.shape[1])))
    for o, v in zip(out, _ou_series_sums(design, x_max[series], pairs)):
        o[series] = v
    if walk.size:
        for o, v in zip(out, _ou_gap_sums(design, flat[walk], pairs)):
            o[walk] = v
    return (*(o.reshape(np.shape(phi))[()] for o in out[:2]), *out[2:])


def _log_det_slope(model: GroupModel, design: GroupedDesign, p, log1m_rho, j,
                   pairs=None):
    """(log |R|, d log |R| / d c) over groups at rho or phi, from one pass.

    The rho families write log |R| as sums of log1p(x) - x terms, all <= 0:
    with a = m - 1 and l = log(1 - rho) + rho, an exchangeable block is
    (log1p(a rho) - a rho) + a l and an AR1 pair (log1p(rho) - rho) + l.
    The O(rho) parts cancel in the algebra, so nothing cancels in floating
    point as rho -> 0, where log|R| is O(rho^2).  The derivative is a sum
    of -m (m - 1) rho j / (1 + (m - 1) rho) per exchangeable block,
    -2 rho j / (1 + rho) per AR1 pair or j x / (e^x - 1) per OU gap.
    The OU sums come from `_ou_sums`, which states how.  OU ``pairs`` add
    the weighted pair sums as a third output.
    """
    if model.family is Family.OU:
        log_det, ratio, *stats = _ou_sums(design, p, pairs)
        return (log_det, j * ratio, *stats)
    log1m_plus = _log1pmx(-p, log1m_rho)
    if model.family is Family.AR1:
        k = design.gaps.size
        slope = -2.0 * k * p * j / (1.0 + p)
        if k == 0:
            return np.zeros(np.shape(p)), slope
        return k * (_log1pmx(p) + log1m_plus), slope
    if np.ndim(p) == 0:   # floats, a class at a time: far cheaper than arrays
        log_det = slope = 0.0
        for m1, c, w in design._pair_classes[..., 0].T.tolist():
            t, d = _exchangeable_terms(m1, c, w, p, j, log1m_plus)
            log_det, slope = log_det + t, slope - d
        return log_det, slope
    # (classes x nodes) blocks of an eighth of `_OU_BLOCK` elements (their
    # temporaries are fresh arrays), summed over classes in the float path's
    # order by accumulate (a reduce over one node would sum pairwise)
    m1, count, weight = design._pair_classes
    flat, j, l = p.ravel(), j.ravel(), log1m_plus.ravel()
    log_det, slope = np.zeros(flat.size), np.zeros(flat.size)
    step = max(1, _OU_BLOCK // (8 * max(len(m1), 1)))
    for a in range(0, flat.size if len(m1) else 0, step):
        b = slice(a, a + step)
        t, d = _exchangeable_terms(m1, count, weight, flat[b], j[b], l[b])
        log_det[b] = np.add.accumulate(t, out=t)[-1]
        slope[b] -= np.add.accumulate(d, out=d)[-1]
    return log_det.reshape(p.shape), slope.reshape(p.shape)


def _exchangeable_terms(m1, c, w, p, j, log1m_plus):
    """Per-class log|R| and -slope terms at m1 = m - 1, c groups of size m
    and w = c m (m - 1): one class on floats, or classes x nodes rows."""
    x = m1 * p
    return c * (_log1pmx(x) + m1 * log1m_plus), w * p * j / (1.0 + x)


def _base_slope(model: GroupModel, design: GroupedDesign):
    """Distance slope at rho = 0 from `_log_det_slope`'s limit; None for OU."""
    if model.family is Family.OU:
        return None
    if model.family is Family.AR1:
        return np.sqrt(design.gaps.size)
    return np.sqrt(sum(c * m * (m - 1) / 2.0 for m, c in design.size_classes))


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
    for j, m in enumerate(design.group_sizes):
        R = _corr_blocks(model, design, [j], p).reshape(m, m)
        sign, val = np.linalg.slogdet(R)
        if sign <= 0:
            raise DomainError("correlation block is not positive definite")
        total += val
    return total


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


def _unit_gap_correlation(model: GroupModel, t):
    """Correlation one position unit apart: rho, or exp(-phi) for OU."""
    if model.family is Family.OU:
        return np.exp(-np.exp(t))
    return internal_to_param(model, t)


def _internal_kernel(model: GroupModel, design: GroupedDesign, t,
                     pairs=None):
    """(log |R|, slope) at internal coordinates ``t``, stable in the tails.

    OU ``pairs`` pass through to `_log_det_slope`, which adds their
    weighted sums as a third output.
    """
    model.check_design(design)
    x = np.asarray(t, dtype=float)
    if model.family is Family.OU:
        return _log_det_slope(model, design, np.exp(x), None, 1.0, pairs)
    rho = expit(x)
    return _log_det_slope(model, design, rho, -np.logaddexp(0.0, x), rho)


def _markov_rows(dataset: Dataset):
    """Z = [y, X] at first rows, and over the within-group pairs (a, b)
    as differences D = Z_b - Z_a and earlier rows A = Z_a."""
    Z = np.column_stack([dataset.y, dataset.X])
    b = dataset.design.pair_rows
    first, Z_b, Z_a = (np.take(Z, rows, axis=0)
                       for rows in (dataset.design.offsets[:-1], b, b - 1))
    return first, Z_b - Z_a, Z_a


def _pair_products(D, A):
    """D'D, D'A + A'D and A'A: the pair products summed over the rows."""
    DA = D.T @ A
    return D.T @ D, DA + DA.T, A.T @ A


def _kernel_and_stats(dataset: Dataset, model: GroupModel, s: NDArray):
    """(`_internal_kernel`, Z'QZ) at internal nodes ``s``: the one source
    of the statistics Z'QZ at unit precision, Z = [y, X], one q x q block
    per node.

    Q = C^-1 is never formed.  The exchangeable block precision is
    (1 - rho)^-1 [I - c_j 11'] with c_j = rho / (1 + (m_j - 1) rho); split
    into group means mu_j and deviations D_j from them, Z_j'Q_j Z_j is
    (1 + e^s) D_j'D_j + m_j mu_j mu_j' / (1 + (m_j - 1) rho), with
    1 + e^s = 1 / (1 - rho) exactly; the mu_j mu_j' are summed per size
    class first.  AR1 and OU are Markov chains: u'Qv sums u_0 v_0 over
    first rows and (u_b - r u_a)(v_b - r v_a) / (1 - r^2) over pairs
    (a, b), b in ``design.pair_rows``, with gap correlation r.  Writing
    u_b - r u_a as (u_b - u_a) + (1 - r) u_a gives pair weights
    1 / (1 - r^2), 1 / (1 + r) and (1 - r) / (1 + r), with 1 - r from
    expit(-s) (AR1) or -expm1(-2 phi gap) / (1 + r) (OU); neither cancels
    as r -> 1.  OU takes all three outputs from one `_internal_kernel`
    pass, fed the upper triangles of the pair products D D', D A' + A D'
    and A A', one column per gap, or per gap value where `_ou_sums`
    takes the design's distinct gaps: summed over that value's pairs
    first, as AR1 sums them over all pairs.
    """
    design = dataset.design
    q = dataset.n_coef + 1
    if model.family is not Family.OU:
        kernel = _internal_kernel(model, design, s)
    if model.family is Family.EXCHANGEABLE:
        Z = np.column_stack([dataset.y, dataset.X])
        starts, sizes = design.offsets[:-1], np.diff(design.offsets)
        means = np.add.reduceat(Z, starts, axis=0) / sizes[:, None]
        D = Z - np.repeat(means, sizes, axis=0)
        m, count = np.array(design.size_classes).T
        mu = means[np.argsort(sizes, kind="stable")]
        outer = np.einsum("ga,gb->gab", mu, mu).reshape(len(mu), q * q)
        P = np.add.reduceat(outer, np.cumsum(count) - count)
        between = (m / (1.0 + (m - 1) * expit(s)[:, None])) @ P
        return kernel, ((1.0 + np.exp(s))[:, None, None] * (D.T @ D)
                        + between.reshape(-1, q, q))
    first, D, A = _markov_rows(dataset)
    if model.family is Family.AR1:
        # one gap correlation for every pair: sum the products first
        r, one_m_r = expit(s)[:, None], expit(-s)[:, None]
        pairs = [P.reshape(1, q * q) for P in _pair_products(D, A)]
        w = np.reciprocal(np.add(r, 1.0, out=r), out=r)
        W = ((w / one_m_r) @ pairs[0] + w @ pairs[1]
             + (w * one_m_r) @ pairs[2])
        return kernel, first.T @ first + W.reshape(-1, q, q)
    a, b = np.triu_indices(q)
    distinct = _distinct_gaps(design)
    if distinct:
        # one gap correlation per distinct gap: sum each one's products first
        order, bounds = distinct[2:]
        # np.take gathers rows several times faster than D[order] does
        D, A = (np.take(v, order, axis=0) for v in (D, A))
        pairs = np.stack([[P[a, b] for P in _pair_products(D[i:k], A[i:k])]
                          for i, k in zip(bounds[:-1], bounds[1:])], axis=-1)
    else:
        D, A = D.T, A.T
        pairs = np.stack([D[a] * D[b], D[a] * A[b] + A[a] * D[b],
                          A[a] * A[b]])
    log_det, slope, upper = _internal_kernel(model, design, s, pairs)
    W = np.empty((len(upper), q, q))
    W[:, a, b] = W[:, b, a] = upper
    return (log_det, slope), first.T @ first + W
