"""Distance functions, scaling rule, and PC prior distributions."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import linalg, stats

from conftest import field_transect_design, property_examples
from grouppc import (
    DistanceFunction,
    DomainError,
    Family,
    GroupModel,
    GroupedDesign,
    NumericError,
    PCPrior,
    balanced_density,
    balanced_design,
    corr_matrix,
    density_grid,
    icc_to_param,
    kld_gaussian,
    normalization_mass,
    solve_lambda,
)
from grouppc import corr, io, pcprior

EXCH = GroupModel(Family.EXCHANGEABLE)
AR1 = GroupModel(Family.AR1)
OU = GroupModel(Family.OU)
OU_UNIT = GroupModel(Family.OU, assume_unit_spacing=True)

# frozen scaling for the 6 groups x 50 observations design, median ICC 0.5
LAM_650 = 0.051050514146240115


def block_corr(model, design, param):
    blocks = [corr_matrix(model, design, j, param)
              for j in range(design.n_groups)]
    return linalg.block_diag(*blocks)


def unbalanced_design():
    rng = np.random.default_rng(42)
    sizes = tuple(int(7 + k % 4) for k in range(38))
    positions = tuple(
        tuple(np.cumsum(rng.uniform(0.5, 1.5, m)).tolist()) for m in sizes)
    return GroupedDesign(group_sizes=sizes, positions=positions)


# ----------------------------------------------------------------------
# kld_gaussian
# ----------------------------------------------------------------------

def test_kld_identical_is_zero():
    assert kld_gaussian(np.eye(4), np.eye(4)) == 0.0


def test_kld_block_exchangeable_by_hand():
    d = balanced_design(2, 2)
    C = block_corr(EXCH, d, 0.5)
    assert_allclose(kld_gaussian(C, np.eye(4)), -np.log(0.75), rtol=1e-13)


def test_kld_scaled_identity_by_hand():
    assert_allclose(kld_gaussian(2 * np.eye(2), np.eye(2)), 1 - np.log(2),
                    rtol=1e-14)


def test_kld_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        C = A @ A.T + 5 * np.eye(5)
        assert kld_gaussian(C, np.eye(5)) >= 0.0


def test_kld_refuses_mismatched_shapes_and_indefinite_matrices():
    with pytest.raises(ValueError, match="square and same size"):
        kld_gaussian(np.eye(3), np.eye(2))
    with pytest.raises(ValueError, match="square and same size"):
        kld_gaussian(np.ones((2, 3)), np.eye(2))
    with pytest.raises(NumericError, match="factorization failed"):
        kld_gaussian(-np.eye(2), np.eye(2))


# ----------------------------------------------------------------------
# distance
# ----------------------------------------------------------------------

def test_distance_zero_at_base():
    d = balanced_design(4, 5)
    assert DistanceFunction(EXCH, d)(0.0) == 0.0
    assert DistanceFunction(AR1, d)(0.0) == 0.0
    assert DistanceFunction(OU_UNIT, d)(np.inf) == 0.0


def test_distance_balanced_exchangeable_closed_form():
    dist = DistanceFunction(EXCH, balanced_design(6, 50))
    assert_allclose(dist(0.5), np.sqrt(-6 * np.log(25.5 * 0.5 ** 49)),
                    rtol=1e-14)


def test_distance_ar1_two_points():
    dist = DistanceFunction(AR1, balanced_design(1, 2))
    assert_allclose(dist(0.6), np.sqrt(-np.log(0.64)), rtol=1e-14)


def test_distance_squared_is_twice_kld():
    # the generic Gaussian divergence is the oracle for every family
    designs = [balanced_design(3, 9, unit_positions=True),
               GroupedDesign(group_sizes=(7, 6, 11),
                             positions=((0.0, 1.0, 2.5, 3.0, 4.7, 5.1, 6.0),
                                        (0.5, 1.5, 2.0, 4.0, 4.5, 5.5),
                                        tuple(float(i) * 0.8 for i in range(11))))]
    rho_grid = np.arange(0.05, 1.0, 0.05)
    for design in designs:
        M = design.total_size
        for model in (EXCH, AR1, OU):
            dist = DistanceFunction(model, design)
            for rho in rho_grid:
                param = -np.log(rho) if model.family is Family.OU else rho
                C = block_corr(model, design, param)
                assert_allclose(dist(param) ** 2,
                                2 * kld_gaussian(C, np.eye(M)), atol=1e-10)


def test_distance_monotone_and_divergent():
    dist = DistanceFunction(EXCH, balanced_design(6, 50))
    rho = np.linspace(0, 0.999, 200)
    vals = dist(rho)
    assert np.all(np.diff(vals) > 0)
    assert dist(1.0) == np.inf
    ou = DistanceFunction(OU_UNIT, balanced_design(6, 50))
    assert not ou.increasing
    assert ou(0.0) == np.inf


@pytest.mark.parametrize("model", [EXCH, AR1], ids=lambda m: m.family.value)
def test_distance_finite_and_nondecreasing_down_to_bracket_end(model):
    # the whole bracket that invert_internal searches; the textbook forms
    # of log|R| cancel at O(rho) and were NaN below t ~ -38
    t = np.linspace(-745.0, corr.RHO_INTERNAL_MAX, 20001)
    for design in (balanced_design(6, 50), unbalanced_design()):
        dist = DistanceFunction(model, design)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = dist.value_internal(t)
        assert np.all(np.isfinite(d))
        assert not np.any(np.signbit(d))
        assert np.all(np.diff(d) >= 0)
        # deep in the tail, log|R| to double precision from its series:
        # -(a (a + 1) / 2) rho^2 + ((a^3 - a) / 3) rho^3 per exchangeable
        # block (a = m - 1), -rho^2 per AR1 pair
        tail = np.linspace(-40.0, -25.0, 31)
        rho = 1.0 / (1.0 + np.exp(-tail))
        a = np.array(design.group_sizes, dtype=float)[:, None] - 1.0
        if model.family is Family.EXCHANGEABLE:
            want = (-a * (a + 1) / 2 * rho ** 2
                    + (a ** 3 - a) / 3 * rho ** 3).sum(axis=0)
        else:
            want = -a.sum() * rho ** 2
        assert_allclose(corr._internal_kernel(model, design, tail)[0], want,
                        rtol=1e-14)
        assert_allclose(corr.log_det(model, design, rho), want, rtol=1e-14)


@st.composite
def ragged_designs(draw):
    """Up to 6 groups of 1-12 rows, at least one with a pair, irregular gaps."""
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)
                 .filter(lambda s: max(s) > 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pos = tuple(tuple(np.cumsum(rng.uniform(0.2, 2.5, m)).tolist())
                for m in sizes)
    return GroupedDesign(group_sizes=tuple(sizes), positions=pos)


def bisect_internal(dist, target, steps=200):
    """Oracle: a fixed number of halvings of the whole bracket per target."""
    sign = 1.0 if dist.increasing else -1.0
    lo = np.full(target.shape, dist._internal_lo)
    hi = np.full(target.shape, dist._internal_hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = sign * (dist.value_internal(mid) - target) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@settings(max_examples=property_examples(60))
@given(design=ragged_designs(), model=st.sampled_from([EXCH, AR1, OU]),
       quarter_decades=st.lists(st.one_of(st.integers(-24, 10),
                                          st.integers(-1200, -25)),
                                min_size=1, max_size=12, unique=True))
# both targets lie below the smallest positive distance (rho^2 underflows),
# so both belong at the same floating-point step of d
@example(design=GroupedDesign(group_sizes=(2,), positions=((0.0, 1.0),)),
         model=EXCH, quarter_decades=[-652, -648])
def test_invert_internal_is_monotone_inverse(design, model, quarter_decades):
    # targets from 1e-300 to 300 times d(t = 0), a quarter decade apart or
    # more.  The largest pass the distance at the far end of the bracket
    # and clamp to that end; the smallest reach where d underflows, which
    # is steep for OU (log d ~ -gap e^t)
    dist = DistanceFunction(model, design)
    target = dist.value_internal(0.0) * 10.0 ** (np.sort(quarter_decades) / 4)
    t = dist.invert_internal(target)
    sign = 1.0 if dist.increasing else -1.0
    assert np.all(sign * np.diff(t) >= 0)
    far = dist._internal_hi if dist.increasing else dist._internal_lo
    clamped = target > dist.value_internal(far)
    assert np.all(t[clamped] == far)
    x = target[~clamped]
    assert np.all(np.abs(dist.value_internal(t[~clamped]) - x)
                  <= 1e-12 * np.maximum(1.0, x))
    want = bisect_internal(dist, target)
    assert np.all(np.abs(t - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("model", [EXCH, AR1, OU], ids=lambda m: m.family.value)
def test_invert_internal_where_the_hermite_start_falls_back(model):
    # the table holds log d = -inf at its d = 0 nodes: OU at large phi, and
    # the rho families next to the base.  Targets in the bracket above such
    # a node have no finite w, and they and those below start from the
    # midpoint or linear interpolation.  The node's slope -2 d^2 / (log|R|)'
    # is not finite too where the kernel's slope is 0 as well; AR1's kernel
    # slope there can be subnormal, which gives a slope of 0
    dist = DistanceFunction(model, unbalanced_design())
    log_d, nodes, slope = dist._inversion_table()
    k = np.flatnonzero(np.isfinite(log_d))[0]      # first node with d > 0
    assert log_d[k - 1] == -np.inf
    if model is not AR1:
        assert not np.isfinite(slope[k - 1])
    target = np.exp(log_d[k]) * 10.0 ** -np.arange(0.25, 170.0, 0.25)
    target = target[target > 1e-300]
    t = dist.invert_internal(target)
    sign = 1.0 if dist.increasing else -1.0
    assert np.all(sign * np.diff(t) <= 0)
    # where log|R| = -d^2 is a normal double every target is met; below,
    # d moves in steps wider than the tolerance, and the answer is the
    # bisection's, down to where d underflows to 0
    normal = target > np.sqrt(np.finfo(float).tiny)
    assert np.all(np.abs(dist.value_internal(t[normal]) - target[normal])
                  <= 1e-12 * target[normal])
    want = bisect_internal(dist, target)
    assert np.all(np.abs(t - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert dist.value_internal(t[-1]) < 1e-160
    # beyond the far end of the table every target clamps to it
    far = nodes[-1]
    beyond = dist.value_internal(far) * np.array([1.0 + 1e-9, 2.0, 1e300])
    assert np.all(dist.invert_internal(beyond) == far)


def _mp_log_distance(model, design, t):
    """log d = log(-log|R|) / 2 at internal coordinate ``t``, in mpmath."""
    if model.family is Family.OU:
        phi = mpmath.exp(t)
        log_det = mpmath.fsum(mpmath.log(1 - mpmath.exp(-2 * phi * g))
                              for g in design.gaps.tolist())
    else:
        rho = 1 / (1 + mpmath.exp(-t))
        if model.family is Family.AR1:
            log_det = design.gaps.size * mpmath.log(1 - rho * rho)
        else:
            log_det = mpmath.fsum(
                mpmath.log(1 + (m - 1) * rho) + (m - 1) * mpmath.log(1 - rho)
                for m in design.group_sizes)
    return mpmath.log(-log_det) / 2


@pytest.mark.parametrize("model", [EXCH, AR1, OU], ids=lambda m: m.family.value)
def test_log_distance_curvature_within_its_bound(model):
    # the bound behind invert_internal's certified Newton steps:
    # |l''| <= max(kappa |l'|, 2 l'^2) for l = log d, with kappa = 2 for
    # the rho families on the logit scale and 2 phi (largest gap) for OU
    # on the log scale.  l' and l'' are 50-digit central differences
    design = GroupedDesign(group_sizes=(1, 2, 3, 5, 8, 13), positions=tuple(
        tuple(np.cumsum(np.random.default_rng(m).uniform(0.2, 2.5, m))
              .tolist()) for m in (1, 2, 3, 5, 8, 13)))
    ts = (np.linspace(-20.0, 5.0, 26) if model.family is Family.OU
          else np.linspace(-30.0, 30.0, 25))
    worst = 0.0
    with mpmath.workdps(50):
        h = mpmath.mpf(10) ** -12
        for t in ts:
            t = mpmath.mpf(float(t))
            lo, mid, hi = (_mp_log_distance(model, design, v)
                           for v in (t - h, t, t + h))
            slope, curve = (hi - lo) / (2 * h), (hi - 2 * mid + lo) / h ** 2
            kappa = (2 * mpmath.exp(t) * float(design.gaps.max())
                     if model.family is Family.OU else 2)
            bound = max(kappa * abs(slope), 2 * slope ** 2)
            worst = max(worst, float(abs(curve) / bound))
    assert worst <= 1.0 + 1e-9


@pytest.mark.parametrize("model", [EXCH, AR1, OU], ids=lambda m: m.family.value)
def test_certified_newton_steps_keep_the_inversion_contract(model,
                                                            monkeypatch):
    # from probes at the root +- 1e-12 .. 1 times max(1, |t|), half a
    # decade apart, every Newton step that is met by its certificate alone
    # (not by its residual at the probe) lands within 1e-14 max(1, |t|)
    # of the 80-digit root and within the residual tolerance of the target
    design = GroupedDesign(group_sizes=(1, 2, 3, 5, 8, 13), positions=tuple(
        tuple(np.cumsum(np.random.default_rng(m).uniform(0.2, 2.5, m))
              .tolist()) for m in (1, 2, 3, 5, 8, 13)))
    dist = DistanceFunction(model, design)
    solvers = []
    newton = pcprior.safeguarded_newton

    def spy(f_slope, t, lo, hi, rising):
        solvers.append(f_slope)
        return newton(f_slope, t, lo, hi, rising)

    monkeypatch.setattr(pcprior, "safeguarded_newton", spy)
    log_d = dist._inversion_table()[0]
    target = dist.value_internal(0.0) * 10.0 ** np.linspace(-20.0, 1.0, 8)
    target = target[(log_d[0] < np.log(target))
                    & (np.log(target) <= log_d[-1])]
    t_root = dist.invert_internal(target)
    offsets = np.logspace(-12, 0, 25)
    offsets = np.concatenate([-offsets, offsets])
    idx = np.repeat(np.arange(target.size), offsets.size)
    probe = (t_root[:, None] + np.multiply.outer(
        np.maximum(1.0, np.abs(t_root)), offsets)).ravel()
    f, slope, met = solvers[-1](idx, probe)
    x = target[idx]
    tol = 1e-12 * np.minimum(1.0, x)
    certified = np.flatnonzero(met & (np.abs(dist.value_internal(probe) - x)
                                      > tol))
    assert certified.size >= 40
    step_to = probe - f / slope
    with mpmath.workdps(80):
        roots = []
        for k, t in enumerate(t_root):
            # secant steps in 80 digits from the double root
            gap = lambda v: (_mp_log_distance(model, design, v)
                             - mpmath.log(float(target[k])))
            a, b = mpmath.mpf(t), mpmath.mpf(t) + 1e-9 * max(1.0, abs(t))
            for _ in range(8):
                ga, gb = gap(a), gap(b)
                if ga == gb:
                    break
                a, b = b, b - gb * (b - a) / (gb - ga)
            roots.append(b)
        for k in certified:
            root = roots[idx[k]]
            assert (abs(step_to[k] - root)
                    <= 1e-14 * max(1.0, abs(float(root)))), (k, probe[k])
            d = mpmath.exp(_mp_log_distance(model, design,
                                            mpmath.mpf(step_to[k])))
            assert abs(d - x[k]) <= tol[k]


@pytest.mark.parametrize("model", [EXCH, AR1, OU], ids=lambda m: m.family.value)
def test_invert_internal_certifies_no_subnormal_log_det(model, monkeypatch):
    # where -log|R| is subnormal it carries few significant digits, so a
    # Newton step's error bound says nothing about the computed d: those
    # targets are met only by their residual, and their answers are the
    # bisection's (a certificate there moved t by about 1e-8 at t ~ -363)
    dist = DistanceFunction(model, unbalanced_design())
    target = np.geomspace(1e-161, 1e-140, 85)
    met_log_det = []
    newton = pcprior.safeguarded_newton

    def spy(f_slope, t, lo, hi, rising):
        def seen(idx, t):
            f, slope, met = f_slope(idx, t)
            d = dist.value_internal(t)
            met_log_det.append((d * d)[met])
            assert np.all(np.abs(d - target[idx])[met & (d * d < 1e-290)]
                          <= 1e-12 * target[idx][met & (d * d < 1e-290)])
            return f, slope, met
        return newton(seen, t, lo, hi, rising)

    monkeypatch.setattr(pcprior, "safeguarded_newton", spy)
    log_d = dist._inversion_table()[0]
    assert np.all((log_d[0] < np.log(target)) & (np.log(target) < log_d[-1]))
    t = dist.invert_internal(target)
    met = np.concatenate(met_log_det)
    assert np.any(met < 1e-290) and np.any(met >= 1e-290)
    want = bisect_internal(dist, target)
    assert np.all(np.abs(t - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _assert_elicitation_pass_budget(kernel_calls, model, design):
    # each target starts at the cubic Hermite point of its bracket in the
    # 641-node table and stops where Taylor's theorem bounds its first
    # Newton step's error, so 500 draws or 99 quantile levels take one
    # kernel pass for the rho families and at most 1.02 nodes per target
    # for OU
    prior = PCPrior.from_quantile(model, design,
                                  icc_to_param(model, 0.5), 0.5)
    prior.distance.invert_internal(1.0)   # builds the starting table

    def assert_within_budget(targets, elicit):
        kernel_calls.clear()
        elicit()
        if model.family is Family.OU:
            assert len(kernel_calls) <= 2
            assert sum(c.size for c in kernel_calls) <= 1.02 * targets
        else:
            assert len(kernel_calls) == 1

    for seed in (1, 2, 3):
        assert_within_budget(500, lambda: prior.sample(500, seed))
    assert_within_budget(99, lambda: prior.quantile(np.arange(1, 100) / 100.0))


def test_ou_transect_elicitation_within_its_pass_budget(kernel_calls):
    _assert_elicitation_pass_budget(kernel_calls, OU, field_transect_design())


@pytest.mark.parametrize("model, design", [
    (EXCH, "transect"), (AR1, "transect"),
    (EXCH, "balanced"), (AR1, "balanced"), (OU, "balanced")],
    ids=lambda v: v if isinstance(v, str) else v.family.value)
def test_elicitation_within_its_pass_budget(kernel_calls, model, design):
    _assert_elicitation_pass_budget(kernel_calls, model, (
        field_transect_design() if design == "transect"
        else balanced_design(6, 50, unit_positions=True)))


# ----------------------------------------------------------------------
# the inversion table, kept on the design
# ----------------------------------------------------------------------

def _table_passes(kernel_calls):
    return sum(c.size == pcprior._TABLE_NODES for c in kernel_calls)


def test_inversion_table_is_built_once_per_family_and_design(kernel_calls):
    # the table depends only on (family, design): a second prior on the
    # design reuses it, while another family, or an equal design built
    # anew, builds its own
    design = unbalanced_design()
    levels = np.arange(1, 100) / 100.0
    first = PCPrior.from_quantile(OU, design, icc_to_param(OU, 0.5), 0.5)
    kernel_calls.clear()
    first.quantile(levels)
    assert _table_passes(kernel_calls) == 1
    second = PCPrior.from_quantile(OU, design, icc_to_param(OU, 0.2), 0.1)
    kernel_calls.clear()
    second.quantile(levels)
    second.sample(99, 1)
    assert _table_passes(kernel_calls) == 0 and kernel_calls
    table = first.distance._inversion_table()
    assert second.distance._inversion_table() is table
    assert DistanceFunction(OU, design)._inversion_table() is table
    kernel_calls.clear()
    PCPrior.from_quantile(EXCH, design, 0.5, 0.5).quantile(levels)
    assert _table_passes(kernel_calls) == 1
    assert set(design._inversion_tables) == {Family.OU, Family.EXCHANGEABLE}
    twin = GroupedDesign(design.group_sizes, design.positions)
    assert twin == design and not twin._inversion_tables
    kernel_calls.clear()
    twin_table = DistanceFunction(OU, twin)._inversion_table()
    assert _table_passes(kernel_calls) == 1 and twin_table is not table
    for a, b in zip(twin_table, table):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("model", [EXCH, AR1, OU], ids=lambda m: m.family.value)
def test_cached_inversion_table_is_read_only(model):
    dist = DistanceFunction(model, unbalanced_design())
    dist.invert(0.5)
    for column in dist.design._inversion_tables[model.family]:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0


def _elicitation_bytes(model, design, path):
    prior = PCPrior.from_quantile(model, design, icc_to_param(model, 0.5),
                                  0.5)
    io.write_grid(density_grid(prior, 1024), path)
    return (np.float64(prior.lam).tobytes(),
            prior.quantile(np.arange(1, 100) / 100.0).tobytes(),
            prior.sample(500, 1).tobytes(),
            np.float64(normalization_mass(prior)).tobytes(),
            path.read_bytes())


@pytest.mark.parametrize("model", [EXCH, AR1, OU], ids=lambda m: m.family.value)
@pytest.mark.parametrize("name", ["balanced", "transect"])
def test_elicitation_is_bitwise_equal_cold_and_warm(model, name, tmp_path):
    # the six elicitations of the benchmark's prior-tables workload: on a
    # fresh design, then again on the same design with its table cached
    design = (field_transect_design() if name == "transect"
              else balanced_design(6, 50, unit_positions=True))
    assert not design._inversion_tables
    cold = _elicitation_bytes(model, design, tmp_path / "cold.csv")
    assert model.family in design._inversion_tables
    warm = _elicitation_bytes(model, design, tmp_path / "warm.csv")
    assert warm == cold


def test_design_identity_is_unchanged_by_elicitation():
    design = field_transect_design()
    before = (repr(design), hash(design))
    for model in (EXCH, AR1, OU):
        PCPrior.from_quantile(model, design, icc_to_param(model, 0.5),
                              0.5).quantile(0.5)
    assert len(design._inversion_tables) == 3
    assert (repr(design), hash(design)) == before
    assert design == field_transect_design()


@pytest.mark.parametrize("model", [EXCH, AR1, OU], ids=lambda m: m.family.value)
def test_inversions_keep_the_targets_shape(model):
    # any shape is solved as one flat batch: the same bits as the flat call
    prior = PCPrior.from_quantile(model, unbalanced_design(),
                                  icc_to_param(model, 0.5), 0.5)
    dist = prior.distance
    levels = np.arange(1, 25) / 25.0
    flat = prior.quantile(levels)
    for shape in ((4, 6), (2, 3, 4), (24, 1)):
        got = prior.quantile(levels.reshape(shape))
        assert got.shape == shape
        assert np.array_equal(got.ravel().view(np.int64), flat.view(np.int64))
    target = -np.log1p(-levels) / prior.lam
    for invert in (dist.invert_internal, dist.invert):
        want = invert(target)
        got = invert(target.reshape(4, 6))
        assert got.shape == (4, 6)
        assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))
        assert invert(target[:1]).shape == (1,)
        assert invert(target.reshape(4, 6)[:, :0]).shape == (4, 0)
        assert invert(float(target[3])) == want[3]
    assert prior.quantile([[0.1, 0.5], [0.7, 0.9]]).shape == (2, 2)


# ----------------------------------------------------------------------
# solve_lambda
# ----------------------------------------------------------------------

def test_solve_lambda_unit_distance_gives_log_two():
    # AR1 with m=2: d(rho) = sqrt(-log(1-rho^2)), so d = 1 at sqrt(1-1/e)
    dist = DistanceFunction(AR1, balanced_design(1, 2))
    u = np.sqrt(1 - np.exp(-1))
    assert_allclose(solve_lambda(u, 0.5, dist), np.log(2), rtol=1e-12)


def test_solve_lambda_composes_with_distance():
    dist = DistanceFunction(EXCH, balanced_design(6, 50))
    lam = solve_lambda(0.5, 0.5, dist)
    assert_allclose(lam, np.log(2) / dist(0.5), rtol=1e-15)
    assert_allclose(lam, LAM_650, rtol=1e-15)


def test_solve_lambda_monotone_in_a():
    dist = DistanceFunction(EXCH, balanced_design(6, 50))
    avals = [1e-9, 1e-3, 0.2, 0.5, 0.9]
    lams = [solve_lambda(0.5, a, dist) for a in avals]
    assert lams[0] < 1e-8
    assert np.all(np.diff(lams) > 0)


def test_solve_lambda_degenerate_inputs():
    dist = DistanceFunction(EXCH, balanced_design(6, 50))
    with pytest.raises(DomainError, match="degenerate scaling"):
        solve_lambda(0.0, 0.5, dist)
    with pytest.raises(DomainError):
        solve_lambda(1.0, 0.5, dist)
    with pytest.raises(DomainError):
        solve_lambda(0.5, 0.0, dist)
    with pytest.raises(DomainError):
        solve_lambda(0.5, 1.0, dist)


# ----------------------------------------------------------------------
# density
# ----------------------------------------------------------------------

def test_distance_slope_of_a_scalar_equals_the_array_path_bit_for_bit():
    # a 0-d distance runs on floats, its base-point branch included; its
    # value must be the array path's, and both refuse OU's base alike
    edges = [v for a in (0.0, 1e-300, 1.0, 709.0, 745.0, 800.0, np.inf)
             for v in (a, -a)]
    values = np.array(edges + [5e-324, 3.7, 1e-160])
    for base in (0.0, 2.5, np.sqrt(3.0)):
        for d in values[values >= 0.0]:
            for g in values:
                with np.errstate(over="ignore", invalid="ignore"):
                    want = DistanceFunction._slope(np.array([d]),
                                                   np.array([g]), base)
                for scalar in (float(d), np.float64(d), np.asarray(d)):
                    got = DistanceFunction._slope(scalar, g, base)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == want[:1].tobytes()
    for d in (0.0, np.float64(0.0), np.asarray(0.0), np.array([0.0, 1.0])):
        with pytest.raises(DomainError):
            DistanceFunction._slope(d, np.zeros(np.shape(d)), None)


def test_density_base_limit_is_lambda_times_slope():
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.5, 0.5)
    # d'(0) = sqrt(n m (m-1) / 2) for the exchangeable family
    assert_allclose(prior.density(0.0), LAM_650 * np.sqrt(6 * 50 * 49 / 2),
                    rtol=1e-12)
    assert_allclose(prior.density(0.0), 4.376669876775795, rtol=1e-12)


def test_density_closed_forms_match_generic_path():
    # balanced closed forms against the log-det/derivative route
    for n, m in [(6, 50), (1, 2), (4, 9)]:
        design = balanced_design(n, m, unit_positions=True)
        for model in (EXCH, AR1, OU):
            prior = PCPrior.from_quantile(
                model, design, icc_to_param(model, 0.5), 0.5)
            q = np.linspace(1e-4, 1 - 1e-4, 512)
            grid = prior.quantile(q)
            assert_allclose(balanced_density(model.family, n, m,
                                             prior.lam, grid),
                            prior.density(grid), rtol=1e-8)


def test_ou_prior_is_pushforward_of_ar1():
    design = balanced_design(3, 8)
    ar1 = PCPrior.from_quantile(AR1, design, 0.5, 0.5)
    oud = GroupModel(Family.OU, assume_unit_spacing=True)
    ou = PCPrior(lam=ar1.lam, distance=DistanceFunction(oud, design))
    for rho in (0.05, 0.3, 0.6, 0.9, 0.99):
        phi = -np.log(rho)
        assert_allclose(ou.density(phi), ar1.density(rho) * rho, rtol=1e-8)


@pytest.mark.parametrize("call, message", [
    (lambda prior: prior.distance.invert_internal(0.0), "target distance"),
    (lambda prior: prior.distance.invert_internal([1.0, -1.0]),
     "target distance"),
    (lambda prior: PCPrior(lam=0.0, distance=prior.distance), "lambda"),
    (lambda prior: balanced_density("exchangeable", 6, 1, prior.lam, 0.5),
     "group size of at least 2"),
    (lambda prior: density_grid(prior, 1), "at least two points"),
], ids=["zero-target", "negative-target", "zero-rate", "singleton-closed-form",
        "one-point-grid"])
def test_prior_layer_refuses_out_of_domain_inputs(call, message):
    prior = PCPrior.from_quantile(EXCH, balanced_design(2, 3), 0.5, 0.5)
    with pytest.raises(DomainError, match=message):
        call(prior)


def test_density_boundary_raises():
    prior = PCPrior.from_quantile(EXCH, balanced_design(2, 4), 0.5, 0.5)
    with pytest.raises(DomainError):
        prior.density(1.0)


def test_normalization_across_designs_and_scalings():
    # acceptance runs the full sweep; spot-check one of each here
    for model, design in [(EXCH, balanced_design(6, 50)),
                          (OU, unbalanced_design())]:
        prior = PCPrior.from_quantile(
            model, design, icc_to_param(model, 0.3), 0.5)
        assert_allclose(normalization_mass(prior), 1.0, atol=1e-6)


def test_normalization_builds_its_gauss_rule_once(monkeypatch):
    # the 64-point rule is built on first use, not per call, is read-only
    # and equals a freshly built rule; repeated masses agree bit for bit
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    pcprior._gauss_legendre.cache_clear()
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.5, 0.5)
    x, w = leggauss(pcprior._GAUSS_NODES)
    masses = [normalization_mass(prior) for _ in range(3)]
    assert calls == [pcprior._GAUSS_NODES]
    cached = pcprior._gauss_legendre()
    assert np.array_equal(cached[0], x) and np.array_equal(cached[1], w)
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert masses == [masses[0]] * 3


@pytest.mark.parametrize("model", [EXCH, AR1, OU],
                         ids=lambda m: m.family.value)
def test_normalization_folds_its_end_knots_into_the_node_pass(model,
                                                              kernel_calls):
    # a node's distance and slope do not depend on the batch it rides in,
    # so the knots' values from the nodes' pass, and the mass, are the
    # bits that a pass of their own gives
    prior = PCPrior.from_quantile(model, unbalanced_design(),
                                  icc_to_param(model, 0.5), 0.5)
    dist, lam = prior.distance, prior.lam
    probs = np.array([1e-9, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 1e-9])
    knots = np.sort(dist.invert_internal(-np.log1p(-probs) / lam))
    x, w = pcprior._gauss_legendre()
    half = 0.5 * np.diff(knots)[:, None]
    nodes = (0.5 * (knots[:-1] + knots[1:])[:, None] + half * x).ravel()
    ends = knots[[0, -1]]
    if model.family is Family.OU:
        # both OU kernels: series nodes (x_max <= 2) and walked ones
        x_max = 2.0 * np.exp(nodes) * dist.design.gaps.max()
        assert np.any(x_max <= 2.0) and np.any(x_max > 2.0)
    both = dist._internal_scale(np.append(nodes, ends))
    apart = [np.append(a, b) for a, b in zip(dist._internal_scale(nodes),
                                             dist._internal_scale(ends))]
    for got, want in zip(both, apart):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    d_lo, d_hi = np.sort(dist.value_internal(ends))
    bulk = np.exp(prior.log_density_internal(nodes))
    two_pass = float(-np.expm1(-lam * d_lo) + np.exp(-lam * d_hi)
                     + (half * w).ravel() @ bulk)
    kernel_calls.clear()
    assert normalization_mass(prior) == two_pass
    assert kernel_calls[-1].size == nodes.size + 2
    assert all(c.size != 2 for c in kernel_calls)


@pytest.mark.parametrize("model", [EXCH, AR1, OU],
                         ids=lambda m: m.family.value)
def test_log_density_internal_evaluates_distance_once(model, kernel_calls):
    # bit for bit the form built from the two public internal-scale pieces,
    # with one closed-form pass for log|R| and its slope instead of two
    prior = PCPrior.from_quantile(model, unbalanced_design(),
                                  icc_to_param(model, 0.5), 0.5)
    dist = prior.distance
    t = np.linspace(-12.0, 12.0, 201)
    want = (np.log(prior.lam) - prior.lam * dist.value_internal(t)
            + dist.log_abs_derivative_internal(t))
    kernel_calls.clear()
    got = prior.log_density_internal(t)
    assert np.array_equal(got, want)
    assert len(kernel_calls) == 1


# ----------------------------------------------------------------------
# cdf / quantile
# ----------------------------------------------------------------------

def test_cdf_anchors():
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.5, 0.5)
    assert prior.cdf(0.0) == 0.0
    assert prior.cdf(1.0) == 1.0
    assert_allclose(prior.cdf(0.5), 0.5, atol=1e-10)


def test_cdf_quantile_round_trip():
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.5, 0.5)
    assert_allclose(prior.quantile(0.5), 0.5, atol=1e-8)
    for p in np.linspace(0.01, 0.95, 30):
        assert_allclose(prior.cdf(prior.quantile(p)), p, atol=1e-10)
    # deep tails need a scaling whose quantiles stay below the largest
    # rho representable in double precision
    tight = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.1, 0.5)
    for p in (1e-6, 1e-3, 0.999):
        assert_allclose(tight.cdf(tight.quantile(p)), p, atol=1e-10)


@pytest.mark.parametrize("model", [EXCH, AR1, OU])
def test_quantiles_converge_where_the_distance_is_a_step_function(model):
    # below about 1e-150 the prior's quantiles lie where -log|R| is
    # subnormal and d(t) is flat between steps: Newton steps that land
    # inside the bracket can creep across such a plateau until 200 steps
    # run out, and bisecting a step larger than half the last move ends it
    design = balanced_design(6, 50, unit_positions=model is OU)
    prior = PCPrior.from_quantile(model, design, icc_to_param(model, 0.5),
                                  0.5)
    q = prior.quantile(np.logspace(-162.0, -150.0, 2001))
    assert np.all(np.isfinite(q)) and np.all(q > 0)
    steps = np.diff(q)
    assert np.all(steps >= 0) or np.all(steps <= 0)


def test_quantile_rejects_boundary_probabilities():
    prior = PCPrior.from_quantile(EXCH, balanced_design(2, 3), 0.5, 0.5)
    for p in (0.0, 1.0, -0.1, 1.1, np.nan, [0.5, np.nan]):
        with pytest.raises(DomainError, match="strictly in"):
            prior.quantile(p)


def test_cdf_ordering_tracks_elicited_median():
    # stricter shrinkage for smaller elicited medians, stated as a CDF
    # inequality at rho = 0.1
    design = balanced_design(6, 50)
    vals = [PCPrior.from_quantile(EXCH, design, icc, 0.5).cdf(0.1)
            for icc in (0.1, 0.5, 0.9)]
    assert_allclose(vals, [0.5, 0.20559317449154538, 0.1150184030210208],
                    rtol=1e-12)
    assert vals[0] > vals[1] > vals[2]


def test_cdf_invariant_under_reparameterization():
    # the same probability computed through the unbounded internal scale
    design = balanced_design(5, 7)
    for model, params in [(EXCH, (0.2, 0.7)), (AR1, (0.2, 0.7)),
                          (OU_UNIT, (0.4, 2.0))]:
        prior = PCPrior.from_quantile(
            model, design, icc_to_param(model, 0.5), 0.5)
        dist = prior.distance
        for param in params:
            t = np.log(param) if model.family is Family.OU else \
                np.log(param) - np.log1p(-param)
            through_internal = 1 - np.exp(-prior.lam * dist.value_internal(t))
            assert_allclose(prior.cdf(param), through_internal, rtol=1e-12)


def test_ou_cdf_states_distance_scale_probability():
    # P(distance <= d(phi_u)) = a, i.e. P(Phi >= phi_u) = a
    design = balanced_design(6, 50, unit_positions=True)
    phi_u = -np.log(0.5)
    prior = PCPrior.from_quantile(OU, design, phi_u, 0.5)
    assert_allclose(prior.cdf(phi_u), 0.5, atol=1e-10)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_sample_deterministic_under_seed():
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.1, 0.5)
    a = prior.sample(100, seed=3)
    b = prior.sample(100, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, prior.sample(100, seed=4))


def test_sample_matches_cdf():
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.1, 0.5)
    draws = prior.sample(100_000, seed=7)
    assert abs(np.mean(draws < 0.1) - 0.5) < 0.01
    d = prior.distance(draws)
    ks = stats.kstest(d, "expon", args=(0.0, 1.0 / prior.lam)).statistic
    assert ks < 0.02


def test_sample_requires_seed():
    prior = PCPrior.from_quantile(EXCH, balanced_design(2, 3), 0.5, 0.5)
    with pytest.raises(TypeError):
        prior.sample(10)
    with pytest.raises(DomainError, match="a seed is required"):
        prior.sample(10, seed=None)


@pytest.mark.parametrize("seed, message", [
    (-1, "the seed must be nonnegative"),
    (1.5, "the seed must be an integer"),
    (np.float64(2.0), "the seed must be an integer"),
])
def test_sample_refuses_a_seed_that_is_not_a_nonnegative_integer(seed,
                                                                 message):
    prior = PCPrior.from_quantile(EXCH, balanced_design(2, 3), 0.5, 0.5)
    with pytest.raises(DomainError, match=message):
        prior.sample(10, seed=seed)


def test_sample_refuses_a_negative_count():
    prior = PCPrior.from_quantile(EXCH, balanced_design(2, 3), 0.5, 0.5)
    with pytest.raises(DomainError, match="nonnegative"):
        prior.sample(-1, seed=3)
    assert prior.sample(0, seed=3).shape == (0,)


@pytest.mark.parametrize("count", [2.5, 2.0, np.float64(2.0)])
def test_sample_and_density_grid_refuse_counts_that_are_not_integers(count):
    # int() would truncate 2.5 to 2 draws or rows
    prior = PCPrior.from_quantile(EXCH, balanced_design(2, 3), 0.5, 0.5)
    with pytest.raises(DomainError, match="the sample count must be an"):
        prior.sample(count, seed=3)
    with pytest.raises(DomainError, match="the grid size must be an"):
        density_grid(prior, count + 2)
    assert prior.sample(np.int64(2), seed=3).shape == (2,)
    assert len(density_grid(prior, np.int64(4))) == 4


# ----------------------------------------------------------------------
# density_grid
# ----------------------------------------------------------------------

def test_density_grid_shape_and_interior_endpoints():
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.5, 0.5)
    grid = density_grid(prior, 128)
    assert len(grid.param) == 128
    assert 0.0 < grid.param[0] < grid.param[-1] < 1.0
    assert np.all(np.diff(grid.param) > 0)
    assert np.all(np.diff(grid.cdf) >= 0)


def test_density_grid_trapezoid_mass():
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.1, 0.5)
    grid = density_grid(prior, 4096)
    assert_allclose(np.trapezoid(grid.density, grid.param), 1.0, atol=1e-3)


@pytest.mark.parametrize("model", [EXCH, AR1, OU], ids=lambda m: m.family.value)
def test_density_grid_tail_ends_lie_inside_the_distance_bracket(model):
    # density_grid takes its internal ends from invert_internal at these
    # two tail targets, with no clip to the family's range: an answer is
    # a table node or a Newton iterate inside two nodes' bracket, and a
    # target beyond the bracket's distance clamps to the bracket's end
    tails = np.array([-np.log1p(-pcprior._GRID_TAIL),
                      -np.log(pcprior._GRID_TAIL)])
    clamped = 0
    for design in (balanced_design(6, 50, unit_positions=True),
                   field_transect_design(), unbalanced_design()):
        dist = DistanceFunction(model, design)
        lo, hi = dist._internal_lo, dist._internal_hi
        for lam in 10.0 ** np.arange(-300.0, 31.0, 15.0):
            ends = dist.invert_internal(tails / lam)
            assert np.all((lo <= ends) & (ends <= hi)), (lam, ends)
            clamped += np.count_nonzero((ends == lo) | (ends == hi))
    assert clamped > 0


def test_density_grid_keeps_what_the_ulp_cap_leaves_above():
    # the cap near rho = 1 leaves 16 % of a median-0.99 exchangeable prior
    # above the last row, within the mass an end may leave outside
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.99, 0.5)
    grid = density_grid(prior, 1024)
    assert 0.1 < 1.0 - grid.cdf[-1] <= pcprior._GRID_SPILL
    with pytest.raises(NumericError, match="0.471 above its largest"):
        density_grid(PCPrior.from_quantile(EXCH, balanced_design(6, 50),
                                           0.5, 0.1), 1024)


@pytest.mark.parametrize("model", [EXCH, AR1], ids=["exch", "ar1"])
@pytest.mark.parametrize("design", [balanced_design(6, 50),
                                    field_transect_design()],
                         ids=["balanced", "transect"])
def test_density_grid_rows_stay_distinct_near_rho_one(model, design):
    # the cap keeps 1 + e^-t of adjacent rows two doubles apart, so every
    # row is a distinct double, and it leaves at most _GRID_SPILL above
    for median in (0.5, 0.9, 0.99):
        prior = PCPrior.from_quantile(model, design, median, 0.5)
        for rows in (64, 512, 1024, 4096, 65536):
            grid = density_grid(prior, rows)
            assert np.all(np.diff(grid.param) > 0), (median, rows)
            assert 1.0 - grid.cdf[-1] <= pcprior._GRID_SPILL, (median, rows)


def test_density_grid_caps_at_the_lower_end_when_no_row_fits_above():
    # the lower tail end lies so near rho = 1 that y = -log(2 eps (n - 1))
    # - t_lo < 1: no second row stays two doubles above the first, so the
    # grid collapses onto t_lo and the mass check refuses it
    prior = PCPrior.from_quantile(AR1, balanced_design(6, 50), 0.5, 1e-5)
    tails = np.array([-np.log1p(-pcprior._GRID_TAIL),
                      -np.log(pcprior._GRID_TAIL)])
    t_lo, t_hi = prior.distance.invert_internal(tails / prior.lam)
    assert t_lo < t_hi
    assert -np.log(2.0 * np.finfo(float).eps * 1023) - t_lo < 1.0
    with pytest.raises(NumericError, match="and 1 above its largest"):
        density_grid(prior, 1024)


def test_density_grid_ou_decreasing_parameter_order():
    design = balanced_design(4, 6, unit_positions=True)
    prior = PCPrior.from_quantile(OU, design, icc_to_param(OU, 0.5), 0.5)
    grid = density_grid(prior, 4096)
    assert np.all(np.diff(grid.param) > 0)
    assert np.all(grid.density >= 0)
    assert_allclose(np.trapezoid(grid.density, grid.param), 1.0, atol=1e-3)
