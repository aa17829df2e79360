"""Penalized-complexity priors on within-group correlation parameters.

The prior is built in two steps.  First, the model's departure from the
independent base model is measured by

    d(param) = sqrt(2 KLD) = sqrt(-sum_j log |R_j(param)|),

which follows from the Gaussian Kullback-Leibler divergence against the
identity correlation: the trace term cancels because correlation matrices
have unit diagonal.  Second, an exponential distribution with rate lambda
is placed on that distance and pushed back to the parameter scale:

    pi(param) = lambda exp(-lambda d(param)) |d'(param)|.

The rate is scaled from a tail statement P(d < d(u)) = a, i.e.
lambda = -log(1 - a) / d(u).  For the exchangeable and AR1 families the
statement is the familiar P(rho < u) = a; for OU, whose distance
decreases in phi, it reads P(phi > u) = a.

All computation runs on an unbounded internal coordinate (logit rho, or
log phi) where the distance is monotone and the transformed density has
no boundary singularities; see `DistanceFunction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.typing import NDArray

from . import corr
from .design import Family, GroupModel, GroupedDesign, _whole, parse_family
from .errors import DomainError, NumericError
from .special import safeguarded_newton

__all__ = [
    "kld_gaussian",
    "DistanceFunction",
    "solve_lambda",
    "PCPrior",
    "balanced_density",
    "density_grid",
    "PriorGrid",
    "normalization_mass",
    "icc_to_param",
]

#: tolerance on the distance residual when inverting d
_INVERT_TOL = 1e-12
#: bound on a certified Newton step's error in t, relative to max(1, |t|)
_INVERT_T_TOL = 1e-14
#: largest |step| * curvature bound / |slope| of a certified Newton step
_STEP_CURVE = 1e-3
#: smallest -log|R| whose Newton step is certified (normal, with room)
_NORMAL_LOG_DET = 1e-290
#: covers how far l' and l'' can drift over a certified step (0.34 %)
_TAYLOR_SLACK = 1.01
#: nodes of the table that starts every inversion: dense enough that the
#: Hermite start lands where the first Newton step is certified
_TABLE_NODES = 641
#: Gauss-Legendre nodes per knot interval in `normalization_mass`
_GAUSS_NODES = 64
#: distance tail probability left outside each end of `density_grid`
_GRID_TAIL = 1e-4
#: most prior mass an end of `density_grid` may leave outside: the cap
#: near rho = 1 leaves up to 18 % above exchangeable priors with a median
#: up to 0.99 (at 65,536 rows), while a tail past the floating-point range
#: leaves most of it
_GRID_SPILL = 0.25


def kld_gaussian(C: NDArray, C0: NDArray) -> float:
    """Kullback-Leibler divergence KLD(N(0, C) || N(0, C0)).

    Both matrices must be symmetric positive definite.  This is the slow,
    direct evaluation used to validate the closed-form distances.
    """
    C = np.asarray(C, dtype=float)
    C0 = np.asarray(C0, dtype=float)
    M = C.shape[0]
    if C.shape != (M, M) or C0.shape != (M, M):
        raise ValueError("covariance matrices must be square and same size")
    try:
        L0 = np.linalg.cholesky(C0)
        LC = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance factorization failed: {exc}") from exc
    # trace(C0^-1 C) = ||L0^-1 LC||_F^2
    A = np.linalg.solve(L0, LC)
    trace = np.sum(A * A)
    logdet0 = 2.0 * np.log(np.diag(L0)).sum()
    logdetC = 2.0 * np.log(np.diag(LC)).sum()
    return 0.5 * (trace - M - (logdetC - logdet0))


def icc_to_param(model: GroupModel, icc: float) -> float:
    """Map an intraclass-correlation statement to the family's parameter.

    Identity for exchangeable/AR1.  For OU the correlation one distance
    unit apart is exp(-phi), so an ICC of ``v`` corresponds to
    ``phi = -log v``.
    """
    v = float(icc)
    if not 0.0 < v < 1.0:
        raise DomainError("the correlation statement must lie in (0, 1)")
    if model.family is Family.OU:
        return -np.log(v)
    return v


class DistanceFunction:
    """Distance to the independence base model for one (model, design) pair.

    Callable on the parameter scale; also evaluable and invertible on the
    internal unbounded scale, which is what every routine that walks into
    the tails uses.  The distance is strictly increasing in rho for the
    exchangeable/AR1 families and strictly decreasing in phi for OU, up to
    where log|R| underflows (logit rho below about -372, or phi e^-2 gaps
    beyond the smallest double): d is 0 there.
    """

    def __init__(self, model: GroupModel, design: GroupedDesign):
        model.check_design(design)
        self.model = model
        self.design = design
        #: True when d grows with the internal coordinate (rho families)
        self.increasing = model.family is not Family.OU
        self._base_slope = corr._base_slope(model, design)
        self._two_gap_max = 2.0 * design.gaps.max(initial=0.0)
        if self.increasing:
            self._internal_lo, self._internal_hi = -745.0, corr.RHO_INTERNAL_MAX
        else:
            self._internal_lo, self._internal_hi = corr.PHI_INTERNAL_MIN, 700.0

    # One evaluator per scale returns (d, d log|R| / dc) from one kernel
    # call; the public methods project it.  d' = -(log|R|)' / (2 d).

    @staticmethod
    def _from_kernel(kernel):
        """(d, d log|R| / dc) from a kernel's (log|R|, d log|R| / dc)."""
        log_det, dlogdet = kernel
        # log|R| may round to +0.0 at the base; d is 0 there, never -0.0
        d = np.sqrt(np.maximum(-np.asarray(log_det), 0.0))
        if d.ndim == 0:
            return float(d), float(dlogdet)
        return d, dlogdet

    @staticmethod
    def _slope(d, dlogdet, base):
        """d d / d c from d and d log|R| / d c, with ``base`` where d = 0.

        A 0-d ``d`` takes the same operations on floats.
        """
        if np.ndim(d) == 0:
            if d != 0.0:
                return -float(dlogdet) / (2.0 * float(d))
            if base is None:
                raise DomainError(
                    "the OU distance has no finite base-point slope")
            return float(base)
        d, g = np.asarray(d), np.asarray(dlogdet)
        at_base = d == 0.0
        if not np.any(at_base):
            return -g / (2.0 * d)
        if base is None:
            raise DomainError("the OU distance has no finite base-point slope")
        return np.where(at_base, base, -g / np.where(at_base, 1.0, 2.0 * d))

    # -- parameter scale -------------------------------------------------

    def _param_scale(self, param, allow_degenerate=True):
        """(d, d log|R| / d param) at ``param``, from one kernel call."""
        return self._from_kernel(corr._param_kernel(
            self.model, self.design, param, allow_degenerate))

    def __call__(self, param):
        return self._param_scale(param)[0]

    def derivative(self, param):
        """d d / d param.  At the rho = 0 base the analytic limit is returned."""
        return self._slope(*self._param_scale(param, False), self._base_slope)

    # -- internal scale --------------------------------------------------

    def _internal_scale(self, t):
        """(d, d log|R| / dt) at ``t``, from one kernel call."""
        return self._from_kernel(
            corr._internal_kernel(self.model, self.design, t))

    def value_internal(self, t):
        return self._internal_scale(t)[0]

    def log_abs_derivative_internal(self, t):
        """log |d d / d t|, returning -inf at the base where d' vanishes."""
        with np.errstate(divide="ignore"):
            out = np.log(np.abs(self._slope(*self._internal_scale(t), 0.0)))
        return float(out) if np.ndim(t) == 0 else out

    def _inversion_table(self):
        """(log d, t, dt / dlog d) at fixed nodes over the bracket, by rising d.

        The nodes are uniform in asinh t, so they are densest around t = 0
        and still reach both ends of the bracket in `_TABLE_NODES` points.
        One kernel call gives d and the slope -2 d^2 / (log|R|)'.  Where d
        underflows to 0 the table holds log d = -inf.  The table depends
        only on the family and the design, so the first inversion for a
        family builds it into the design's ``_inversion_tables``, read-only,
        and every later distance on that design object reuses it.  Only a
        repeated elicitation on one design gains; the first on a design
        pays for the build as before.  Threads that race to the first
        build each build equal bits, so either table serves.
        """
        tables = self.design._inversion_tables
        family = self.model.family
        if family not in tables:
            lo, hi = self._internal_lo, self._internal_hi
            t = np.sinh(np.linspace(np.arcsinh(lo), np.arcsinh(hi),
                                    _TABLE_NODES))
            t[0], t[-1] = lo, hi
            d, g = self._internal_scale(t)
            with np.errstate(divide="ignore", invalid="ignore"):
                table = (np.log(d), t, -2.0 * d * d / g)
            table = tuple(c if self.increasing else c[::-1] for c in table)
            for c in table:
                c.flags.writeable = False
            tables[family] = table
        return tables[family]

    def invert_internal(self, target):
        """Internal coordinates where the distance equals ``target``.

        Each target starts at the cubic Hermite interpolant of t in log d
        (Fritsch & Carlson 1980) between the two table nodes around it,
        which also bracket its root: with w the target's position in the
        bracket's log d span, D = t_b - t_a and m the node slopes times
        that span, the start is
        t_a + w D + w (1 - w) ((1 - w) (m_a - D) - w (m_b - D)).
        Where that point is not finite (w or a slope is not, as at a d = 0
        node or a zero kernel slope) or leaves the bracket, the start is
        linear interpolation, t_a + w D, or the bracket's midpoint when w
        is not finite.  From there `special.safeguarded_newton` solves
        log d(t) = log target, with slope d log d / dt = -(log|R|)' / (2 d^2)
        from the same kernel call as d (one closed-form pass per step); at
        d = 0 the slope is not finite and the step bisects.  A target is
        met, and its Newton step kept, when its distance residual is at
        most tol = 1e-12 min(1, target), so tiny targets are not met at
        their start, or when Taylor's theorem proves the step.  With
        l = log d, s = l'(t) and the step E_t = (l - log target) / s, l
        misses log target at t - E_t by E_t^2 |l''(xi)| / 2.  For every
        family log|R| <= 0 and (log|R|)'' <= 0, so |l''| <= B =
        max(kappa |s|, 2 s^2), kappa bounding |(log|R|)''| / |(log|R|)'|:
        2 on the logit scale, 2 phi (largest gap) e^|E_t| over an OU step
        on the log scale (|x h'(x)| <= x h(x), h = x / (e^x - 1)).  A step
        is certified when |E_t| B <= 1e-3 |s| (l' then drifts by under
        0.2 %), when -log|R| >= 1e-290 (a subnormal one has too few digits
        for the bound to hold of the computed d), and when, with
        E = 1.01 E_t^2 B / 2, E / |s| <= 1e-14 max(1, |t|) and
        target (e^E - 1) <= tol.  From the `_TABLE_NODES`-node table the
        start lands where that first step is certified: on the benchmark's
        designs 500 draws or 99 quantiles take one kernel pass for the rho
        families, and at most 1.02 nodes per target for OU.  Targets
        beyond what the parameter can resolve in double precision clamp to
        the representable extreme.  Targets of any shape are solved as one
        flat batch, and the answer takes the targets' shape.
        """
        tgt = np.asarray(target, dtype=float).ravel()
        if np.any(tgt <= 0) or np.any(~np.isfinite(tgt)):
            raise DomainError("target distance must be positive and finite")
        log_d, nodes, slope = self._inversion_table()
        # log_d[k - 1] < log target <= log_d[k]; k at an end means clamp
        k = np.searchsorted(log_d, np.log(tgt))
        out = nodes[np.minimum(k, nodes.size - 1)]
        todo = np.flatnonzero((k > 0) & (k < nodes.size))
        x, k = tgt[todo], k[todo]
        log_x, tol = np.log(x), _INVERT_TOL * np.minimum(1.0, x)
        t_a, t_b = nodes[k - 1], nodes[k]
        lo, hi = np.minimum(t_a, t_b), np.maximum(t_a, t_b)
        with np.errstate(invalid="ignore", over="ignore"):
            step = log_d[k] - log_d[k - 1]
            w, delta = (log_x - log_d[k - 1]) / step, t_b - t_a
            m_a, m_b = slope[k - 1] * step, slope[k] * step
            t = t_a + w * delta + w * (1 - w) * ((1 - w) * (m_a - delta)
                                                 - w * (m_b - delta))
        linear = np.where(np.isfinite(w), t_a + w * delta, 0.5 * (t_a + t_b))
        t = np.where((lo <= t) & (t <= hi), t, linear)     # False for NaN

        def f_slope(idx, t):
            d, g = self._internal_scale(t)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                f, s = np.log(d) - log_x[idx], -g / (2.0 * d * d)
                step = f / s
                kappa = (2.0 if self.increasing else
                         np.exp(t + np.abs(step)) * self._two_gap_max)
                abs_s = np.abs(s)
                curve = np.maximum(kappa * abs_s, 2.0 * s * s)
                err = _TAYLOR_SLACK * 0.5 * step * step * curve
                certified = ((np.abs(step) * curve <= _STEP_CURVE * abs_s)
                             & (d * d >= _NORMAL_LOG_DET)
                             & (err <= _INVERT_T_TOL * abs_s
                                * np.maximum(1.0, np.abs(t)))
                             & (x[idx] * np.expm1(err) <= tol[idx]))
            return f, s, certified | (np.abs(d - x[idx]) <= tol[idx])

        out[todo] = safeguarded_newton(f_slope, t, lo, hi, self.increasing)
        return float(out[0]) if np.ndim(target) == 0 else out.reshape(
            np.shape(target))

    def invert(self, target):
        """Parameter value(s) where the distance equals ``target``."""
        t = self.invert_internal(target)
        return corr.internal_to_param(self.model, t)


def solve_lambda(u: float, a: float, distance: DistanceFunction) -> float:
    """Rate lambda such that the prior puts mass ``a`` below distance d(u).

    For rho-parameterized families this realizes P(rho < u) = a; for OU it
    realizes P(phi > u) = a, since the distance decreases in phi.
    """
    if not 0.0 < a < 1.0:
        raise DomainError("the tail probability must lie strictly in (0, 1)")
    d_u = distance(u)
    if d_u == 0.0:
        raise DomainError(
            "degenerate scaling: the anchor point sits at the base model")
    if not np.isfinite(d_u):
        raise DomainError(
            "degenerate scaling: the anchor point has infinite distance")
    return -np.log1p(-a) / d_u


@dataclass(frozen=True)
class PCPrior:
    """Exponential prior on the distance to independence, rate ``lam``.

    Immutable; scaling a prior differently means building a new one.
    """

    lam: float
    distance: DistanceFunction

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise DomainError("lambda must be positive and finite")

    @classmethod
    def from_quantile(cls, model: GroupModel, design: GroupedDesign,
                      u: float, a: float) -> "PCPrior":
        """Build the prior from the tail statement P(d < d(u)) = a."""
        dist = DistanceFunction(model, design)
        return cls(lam=solve_lambda(u, a, dist), distance=dist)

    @property
    def model(self) -> GroupModel:
        return self.distance.model

    @property
    def design(self) -> GroupedDesign:
        return self.distance.design

    def _log_density(self, d, dlogdet, base):
        """log(lambda exp(-lambda d) |d'|) from a distance evaluator's pair."""
        with np.errstate(divide="ignore"):
            log_slope = np.log(np.abs(self.distance._slope(d, dlogdet, base)))
        out = np.log(self.lam) - self.lam * np.asarray(d) + log_slope
        return float(out) if np.ndim(d) == 0 else out

    # -- parameter scale -------------------------------------------------

    def density(self, param):
        """Prior density on the parameter scale.

        At the rho = 0 base the finite limit lambda * d'(0) is returned.
        The density is unbounded near the degenerate boundary, which is
        integrable; boundary values themselves raise.
        """
        out = np.exp(self.log_density(param))
        return float(out) if np.ndim(param) == 0 else out

    def log_density(self, param):
        d, dlogdet = self.distance._param_scale(param)
        if np.any(~np.isfinite(d)):
            raise DomainError("density requested at the degenerate boundary")
        return self._log_density(d, dlogdet, self.distance._base_slope)

    def cdf(self, param):
        """Distance-scale CDF, 1 - exp(-lambda d(param)).

        Equals P(rho < param) for the rho families and P(phi > param) for
        OU.  Continuous extension at the boundaries gives 0 at the base
        and 1 at the degenerate end.
        """
        d = np.asarray(self.distance(param))
        out = -np.expm1(-self.lam * d)
        return float(out) if np.ndim(param) == 0 else out

    def quantile(self, p):
        """Inverse of `cdf`; scalar or array ``p`` strictly inside (0, 1)."""
        q = np.asarray(p, dtype=float)
        if not np.all((q > 0) & (q < 1)):      # NaN fails both
            raise DomainError("quantile levels must lie strictly in (0, 1)")
        target = -np.log1p(-q) / self.lam
        return self.distance.invert(target)

    def sample(self, count: int, seed: int):
        """Draw ``count`` parameter values by inverting exponential distances."""
        if seed is None:
            raise DomainError("a seed is required; sampling is deterministic")
        if _whole(seed, DomainError, "the seed") < 0:
            raise DomainError("the seed must be nonnegative")
        count = _whole(count, DomainError, "the sample count")
        if count < 0:
            raise DomainError("the sample count must be nonnegative")
        rng = np.random.default_rng(seed)
        e = rng.exponential(scale=1.0 / self.lam, size=count)
        return self.distance.invert(e)

    # -- internal scale (used by quadrature) ------------------------------

    def log_density_internal(self, t):
        """Log density of the prior pushed to the internal coordinate."""
        return self._log_density(*self.distance._internal_scale(t), 0.0)


# ----------------------------------------------------------------------
# closed forms for balanced designs
# ----------------------------------------------------------------------

def balanced_density(family: Family | str, n_groups: int, group_size: int,
                     lam: float, param):
    """Analytic prior density for ``n`` equal groups of size ``m``.

    With lam' = lam sqrt(n) and the per-group determinant written out,
    the density for a single group raised to the design is

        exchangeable: (m-1)/2 (1/(1-rho) - 1/(1+(m-1)rho))
        AR1:          rho (m-1) / (1 - rho^2)
        OU:           (m-1) exp(-2 phi) / (1 - exp(-2 phi))

    each multiplied by lam' exp(-lam' s) / s at s = sqrt(-log|R|).
    Kept separate from `PCPrior.density` so the two can cross-check.
    """
    fam = parse_family(family)
    m = int(group_size)
    if m < 2:
        raise DomainError("closed forms need group size of at least 2")
    p = np.asarray(param, dtype=float)
    lam_n = lam * np.sqrt(n_groups)
    if fam is Family.EXCHANGEABLE:
        neg_logdet = -(np.log1p((m - 1) * p) + (m - 1) * np.log1p(-p))
        factor = 0.5 * (m - 1) * (1.0 / (1.0 - p) - 1.0 / (1.0 + (m - 1) * p))
    elif fam is Family.AR1:
        neg_logdet = -(m - 1) * (np.log1p(-p) + np.log1p(p))
        factor = p * (m - 1) / ((1.0 - p) * (1.0 + p))
    else:
        neg_logdet = -(m - 1) * np.piecewise(2.0 * p, [p < np.log(2) / 2], [
            lambda x: np.log(-np.expm1(-x)), lambda x: np.log1p(-np.exp(-x))])
        # exp(-2 phi) / (1 - exp(-2 phi)) = 1 / expm1(2 phi)
        factor = (m - 1) / np.expm1(2.0 * p)
    s = np.sqrt(neg_logdet)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = factor * lam_n * np.exp(-lam_n * s) / s
    # the exchangeable/AR1 base point has a finite limiting density
    if fam is not Family.OU:
        slope = {Family.EXCHANGEABLE: np.sqrt(n_groups * m * (m - 1) / 2.0),
                 Family.AR1: np.sqrt(n_groups * (m - 1))}[fam]
        dens = np.where(p == 0.0, lam * slope, dens)
    return float(dens) if np.ndim(param) == 0 else dens


# ----------------------------------------------------------------------
# tabulation and normalization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PriorGrid:
    """Tabulated prior: parameter, distance, density and CDF columns."""

    param: NDArray
    distance: NDArray
    density: NDArray
    cdf: NDArray

    def __len__(self):
        return self.param.size


def density_grid(prior: PCPrior, grid_size: int) -> PriorGrid:
    """Tabulate the prior on a monotone parameter grid.

    The grid is uniform on the internal scale between the `_GRID_TAIL`
    and ``1 - _GRID_TAIL`` distance quantiles, whose ends `invert_internal`
    keeps inside the distance's bracket (a tail beyond floating point
    clamps to its end).  Only the cap near rho = 1 is applied on top.
    A grid that leaves more than `_GRID_SPILL` of the prior mass beyond
    either end, as a clamped or capped tail can, raises `NumericError`
    naming the mass outside.
    """
    grid_size = _whole(grid_size, DomainError, "the grid size")
    if grid_size < 2:
        raise DomainError("a grid needs at least two points")
    lam = prior.lam
    t_ends = prior.distance.invert_internal(
        np.array([-np.log1p(-_GRID_TAIL), -np.log(_GRID_TAIL)]) / lam)
    t_lo, t_hi = min(t_ends), max(t_ends)
    if prior.model.family is not Family.OU:
        # keep adjacent rows distinct near rho = 1: with u = t_hi - t_lo
        # and rows h = u / (n - 1) apart, 1 + e^-t of adjacent rows differ
        # by at least e^-t_hi h, which is two doubles (2 eps) while u -
        # log u <= y; u = y + log y meets that for y >= 1, and for y < 1
        # the cap is t_lo, which the mass check below refuses
        y = -np.log(2.0 * np.finfo(float).eps * (grid_size - 1)) - t_lo
        t_hi = min(t_hi, t_lo + y + np.log(y) if y >= 1.0 else t_lo)
    t = np.linspace(t_lo, t_hi, grid_size)
    param = corr.internal_to_param(prior.model, t)
    dist, dlogdet = prior.distance._param_scale(param)
    density = np.exp(prior._log_density(dist, dlogdet,
                                        prior.distance._base_slope))
    cdf = -np.expm1(-lam * dist)
    below, above = cdf.min(), np.exp(-lam * dist.max())
    if not (below <= _GRID_SPILL and above <= _GRID_SPILL):
        raise NumericError(
            f"the density grid would leave {below:.3g} of the prior mass "
            f"below its smallest distance and {above:.3g} above its largest "
            f"(it aims at {_GRID_TAIL:g} and allows {_GRID_SPILL:g}): the "
            "prior's tail lies past what double precision resolves in the "
            "correlation parameter")
    return PriorGrid(param=param, distance=dist, density=density, cdf=cdf)


@cache
def _gauss_legendre():
    """The read-only `_GAUSS_NODES`-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def normalization_mass(prior: PCPrior) -> float:
    """Total prior mass, integrating the transformed density.

    The bulk is integrated on the internal scale by a fixed
    `_GAUSS_NODES`-point Gauss-Legendre rule (built once per process, on
    first use) on each interval between seven distance-quantile knots;
    the mass beyond the outermost knots is added analytically from the
    exponential distance distribution evaluated exactly at those knots,
    which stays correct even where the knots were clamped to the
    floating-point range of the parameter.  The two end knots ride in the
    nodes' one kernel pass; a node's value does not depend on its batch,
    so the mass is the same bits as with a pass of their own.  A correctly
    implemented change of variables returns 1.
    """
    dist = prior.distance
    lam = prior.lam
    probs = np.array([1e-9, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 1e-9])
    knots = np.sort(dist.invert_internal(-np.log1p(-probs) / lam))
    x, w = _gauss_legendre()
    half = 0.5 * np.diff(knots)[:, None]
    nodes = 0.5 * (knots[:-1] + knots[1:])[:, None] + half * x
    d, dlogdet = dist._internal_scale(np.append(nodes, knots[[0, -1]]))
    bulk = np.exp(prior._log_density(d[:-2], dlogdet[:-2], 0.0))
    # the mass outside the knots: below the smaller end-knot distance and
    # above the larger (which end is which depends on the family)
    d_lo, d_hi = np.sort(d[-2:])
    return float(-np.expm1(-lam * d_lo) + np.exp(-lam * d_hi)
                 + (half * w).ravel() @ bulk)
