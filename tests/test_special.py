"""The numpy special functions, with scipy.special and mpmath as oracles."""

import warnings

import mpmath
import numpy as np
import pytest
from scipy import special as oracle

from grouppc import special
from grouppc.errors import NumericError


def test_ndtr_matches_scipy():
    x = np.linspace(-38.0, 38.0, 2_000_001)
    got, want = special.ndtr(x), oracle.ndtr(x)
    assert np.max(np.abs(got - want)) <= 4.5e-16
    normal = want >= 1e-300
    assert np.max(np.abs(got - want)[normal] / want[normal]) <= 1e-13


def test_erfc_matches_scipy_and_handles_the_ends():
    x = np.linspace(-27.0, 27.0, 200_001)
    got, want = special.erfc(x), oracle.erfc(x)
    normal = want >= 1e-300
    assert np.max(np.abs(got - want)[normal] / want[normal]) <= 1e-13
    assert np.all(got[~normal] <= 1e-300)
    ends = special.erfc(np.array([-np.inf, np.inf, np.nan, 0.0]))
    assert ends[:2].tolist() == [2.0, 0.0]
    assert np.isnan(ends[2]) and ends[3] == 1.0


def test_erfc_within_three_ulp_of_exact():
    # erfc(26.5) is about 1e-307, the last decade above the subnormals
    x = np.linspace(-6.0, 26.5, 3_251)
    got = special.erfc(x)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.erfc(mpmath.mpf(v))) for v in x])
    assert np.all(exact >= np.finfo(float).tiny)
    assert np.all(np.abs(got - exact) <= 3 * np.spacing(exact))


def test_expit_matches_scipy_without_warnings():
    x = np.linspace(-800.0, 800.0, 2_000_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = special.expit(x)
    want = oracle.expit(x)
    # scipy's 1 / (1 + exp(-x)) is 0 below -709.78, where expit(x) rounds
    # to exp(x); elsewhere the two agree to the few ulps by which numpy's
    # exp and the C library's differ
    under = want == 0.0
    want[under] = np.exp(x[under])
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_expit_within_two_ulp_of_exact():
    x = np.linspace(-750.0, 40.0, 2_001)
    got = special.expit(x)
    with mpmath.workdps(40):
        exact = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(v))))
                          for v in x])
    assert np.all(np.abs(got - exact) <= 2 * np.spacing(exact))


EDGES = [v for a in (0.0, 1e-300, 1.0, 709.0, 745.0, 800.0, np.inf)
         for v in (a, -a)]


def test_expit_of_a_scalar_equals_the_array_path_bit_for_bit():
    # a 0-d input runs on one float; its value must be the array path's
    x = np.concatenate([EDGES, np.nextafter(-709.0, [-np.inf, np.inf]),
                        np.random.default_rng(3).uniform(-800, 800, 2000)])
    want = special.expit(x)
    for v, w in zip(x, want):
        for scalar in (float(v), np.float64(v), np.asarray(v)):
            got = special.expit(scalar)
            assert np.ndim(got) == 0
            assert np.float64(got).tobytes() == w.tobytes(), (v, got, w)


def test_expit_array_path_equals_the_two_branch_formula_bit_for_bit():
    # the array path takes exp(x) only below -709; the formula it replaced
    # evaluated both branches on every element and selected one
    x = np.concatenate([np.linspace(-800.0, 40.0, 200_001),
                        np.nextafter(-709.0, [-np.inf, np.inf]),
                        [-709.0, np.inf, -np.inf, np.nan]])
    want = np.where(x < -709.0, np.exp(np.minimum(x, -709.0)),
                    1.0 / (1.0 + np.exp(-np.maximum(x, -709.0))))
    for shaped in (x, x[:200_000].reshape(-1, 5), x[:0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = special.expit(shaped)
        assert got.shape == shaped.shape
        assert got.tobytes() == want[:shaped.size].tobytes()


def test_safeguarded_newton_solves_rising_and_falling_equations():
    a = np.array([0.5, 2.0, 9.0, 1e6])
    calls = []

    def rising(idx, x):
        calls.append(idx.size)
        f = x * x - a[idx]
        return f, 2.0 * x, np.abs(f) <= 1e-15 * a[idx]

    x = special.safeguarded_newton(rising, np.ones(4), np.zeros(4),
                                   np.full(4, 1e3), True)
    np.testing.assert_allclose(x, np.sqrt(a), rtol=1e-15)
    # unknowns that are done are not evaluated again
    assert calls[0] == 4 and calls[-1] < 4
    # f = a - x^2 falls in x: same roots
    falling = lambda idx, x: (a[idx] - x * x, -2.0 * x,
                              np.abs(a[idx] - x * x) <= 1e-15 * a[idx])
    y = special.safeguarded_newton(falling, np.ones(4), np.zeros(4),
                                   np.full(4, 1e3), False)
    np.testing.assert_allclose(y, np.sqrt(a), rtol=1e-15)


def test_safeguarded_newton_bisects_without_a_slope():
    # a zero slope makes every step a bisection, which ends when no double
    # is left inside the bracket
    f_slope = lambda idx, x: (x - 0.3, np.zeros_like(x),
                              np.zeros(x.shape, dtype=bool))
    x = special.safeguarded_newton(f_slope, [0.9], [0.0], [1.0], True)
    assert abs(x[0] - 0.3) <= np.spacing(0.3)


def test_safeguarded_newton_bisects_when_newton_creeps():
    # a slope 1e5 times too steep lands every Newton step inside the
    # bracket, a hundred-thousandth of the way to the root; a step larger
    # than half the previous move bisects instead
    calls = []

    def f_slope(idx, x):
        calls.append(idx.size)
        return x - 0.3, np.full_like(x, 1e5), np.zeros(x.shape, dtype=bool)
    x = special.safeguarded_newton(f_slope, [0.9], [0.0], [1.0], True)
    assert abs(x[0] - 0.3) <= np.spacing(0.3)
    assert len(calls) <= 120


def test_safeguarded_newton_raises_when_not_converged():
    # the root at 1e-300 is about a thousand bisections from [-1, 1], and
    # the unknown is never met
    f_slope = lambda idx, x: (x - 1e-300, np.zeros_like(x),
                              np.zeros(x.shape, dtype=bool))
    with pytest.raises(NumericError, match="not converged in 200 steps"):
        special.safeguarded_newton(f_slope, [0.5], [-1.0], [1.0], True)
