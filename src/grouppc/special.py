"""Special functions in plain numpy: logistic and normal CDF.

These are the few special functions the package evaluates on every fit,
plus the one root finder that inverts them.  Written here in numpy so
that importing the package loads no scipy:

* `expit` keeps both tails, down to subnormals, and raises no
  floating-point warning;
* `ndtr` is the standard normal CDF through `erfc`, which evaluates
  W. J. Cody's rational Chebyshev approximations (Math. Comp. 23 (1969)
  631-637; coefficients of his CALERF routine) on three ranges of |x|;
* `safeguarded_newton` solves many bracketed monotone equations at once.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

__all__ = ["expit", "erfc", "ndtr", "safeguarded_newton"]

#: below this x, exp(-x) overflows (exp(709) is finite, exp(710) is not)
_EXPIT_TAIL = -709.0
#: evaluations after which `safeguarded_newton` gives up
_NEWTON_STEPS = 200


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), elementwise.

    Below x = -709, where exp(-x) would overflow, 1 + exp(x) rounds to 1
    and the function is exp(x), which keeps the subnormal tail.
    """
    x = np.asarray(x, dtype=float)
    return np.where(x < _EXPIT_TAIL, np.exp(np.minimum(x, _EXPIT_TAIL)),
                    1.0 / (1.0 + np.exp(-np.maximum(x, _EXPIT_TAIL))))


# Cody's CALERF coefficients: erf on |x| <= 0.46875 (A/B), erfc on
# 0.46875 < |x| <= 4 (C/D) and, as exp(-x^2)/|x| times a series in 1/x^2,
# on 4 < |x| < 26.543 (P/Q); beyond that erfc underflows.  The loops below
# keep CALERF's order of operations.
_A = (3.16112374387056560e00, 1.13864154151050156e02,
      3.77485237685302021e02, 3.20937758913846947e03,
      1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02,
      1.28261652607737228e03, 2.84423683343917062e03)
_C = (5.64188496988670089e-1, 8.88314979438837594e00,
      6.61191906371416295e01, 2.98635138197400131e02,
      8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03,
      2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02,
      5.37181101862009858e02, 1.62138957456669019e03,
      3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2,
      6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00,
      5.27905102951428412e-1, 6.05183413124413191e-2,
      2.33520497626869185e-3)
_THRESH = 0.46875
_XBIG = 26.543
_SQRPI = 5.6418958354775628695e-1   # 1 / sqrt(pi)
_SQRT1_2 = 0.70710678118654752440


def _exp_neg_square(y):
    """exp(-y^2), split at y's 1/16 step so y^2's rounding is not amplified."""
    head = np.trunc(y * 16.0) / 16.0
    return np.exp(-head * head) * np.exp(-(y - head) * (y + head))


def erfc(x):
    """Complementary error function, elementwise, to about 1e-15 relative."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.where(y >= _XBIG, 0.0, np.nan)

    small = y <= _THRESH
    if small.any():
        ys = y[small] ** 2
        num, den = _A[4] * ys, ys
        for a, b in zip(_A[:3], _B[:3]):
            num, den = (num + a) * ys, (den + b) * ys
        out[small] = 1.0 - x[small] * (num + _A[3]) / (den + _B[3])

    mid = ~small & (y <= 4.0)
    if mid.any():
        ym = y[mid]
        num, den = _C[8] * ym, ym
        for c, d in zip(_C[:7], _D[:7]):
            num, den = (num + c) * ym, (den + d) * ym
        out[mid] = _exp_neg_square(ym) * ((num + _C[7]) / (den + _D[7]))

    tail = (y > 4.0) & (y < _XBIG)
    if tail.any():
        yt = y[tail]
        inv = 1.0 / (yt * yt)
        num, den = _P[5] * inv, inv
        for p, q in zip(_P[:4], _Q[:4]):
            num, den = (num + p) * inv, (den + q) * inv
        r = inv * (num + _P[4]) / (den + _Q[4])
        out[tail] = _exp_neg_square(yt) * ((_SQRPI - r) / yt)

    neg = (x < 0.0) & ~small
    out[neg] = 2.0 - out[neg]
    return out


def ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), elementwise."""
    return 0.5 * erfc(np.asarray(x, dtype=float) * -_SQRT1_2)


def safeguarded_newton(f_slope, x, lo, hi, rising):
    """Roots of monotone equations f_k(x) = 0, each bracketed by [lo, hi].

    Every unknown steps by Newton, x - f / f', when that lands strictly
    inside its bracket, and bisects otherwise (a slope that is zero,
    infinite or NaN therefore bisects), as in the safeguarded Newton
    "rtsafe" of Numerical Recipes (section 9.4).  Each evaluation shrinks
    the bracket to the side where f changes sign; ``rising`` says f
    increases with x.  ``f_slope(idx, x)`` returns f, f' and a "met" mask
    at the iterates ``x`` of the unknowns ``idx`` still open; only those
    are evaluated.  An unknown is done when it is met (its last Newton
    step is kept when that stays in the bracket), when no double lies
    inside its bracket, or when its step no longer moves it.  Unknowns
    still open after 200 evaluations raise `NumericError`.
    """
    x, lo, hi = (np.array(a, dtype=float) for a in (x, lo, hi))
    out = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        if todo.size == 0:
            return out
        f, slope, met = f_slope(todo, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_newton = x - f / slope
        above = f < 0 if rising else f > 0      # the root lies above x
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        inside = (lo < x_newton) & (x_newton < hi)
        x_next = np.where(inside, x_newton, 0.5 * (lo + hi))
        done = met | (np.nextafter(lo, hi) >= hi) | (x_next == x)
        final = np.where(met, np.where(inside, x_newton, x), x_next)
        out[todo[done]] = final[done]
        keep = ~done
        todo, x, lo, hi = todo[keep], x_next[keep], lo[keep], hi[keep]
    if todo.size:
        raise NumericError(f"{todo.size} root(s) not converged in "
                           f"{_NEWTON_STEPS} steps")
    return out
