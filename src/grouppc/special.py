"""Special functions on numpy arrays: logistic and normal CDF.

These are the few special functions the package evaluates on every fit,
plus the one root finder that inverts them.  Written here on numpy and
the standard library so that importing the package loads no scipy:

* `expit` keeps both tails, down to subnormals, and raises no
  floating-point warning;
* `ndtr` is the standard normal CDF through `erfc`, which maps the
  standard library's `math.erfc` (the C library's erfc) over the array;
* `safeguarded_newton` solves many bracketed monotone equations at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

__all__ = ["expit", "erfc", "ndtr", "safeguarded_newton"]

#: below this x, exp(-x) overflows (exp(709) is finite, exp(710) is not)
_EXPIT_TAIL = -709.0
#: evaluations after which `safeguarded_newton` gives up
_NEWTON_STEPS = 200
_SQRT1_2 = 0.70710678118654752440


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), elementwise.

    Below x = -709, where exp(-x) would overflow, 1 + exp(x) rounds to 1
    and the function is exp(x), which keeps the subnormal tail.  An array
    takes exp(x) only at those elements: exp over the whole array clipped
    at -709 would put every other element on numpy's slow underflow
    path.  A 0-d input takes the same operations on one float (a NumPy
    float out), several times cheaper than the array path.
    """
    if np.ndim(x) == 0:
        v = float(x)
        return np.exp(v) if v < _EXPIT_TAIL else 1.0 / (1.0 + np.exp(-v))
    x = np.asarray(x, dtype=float)
    out = 1.0 / (1.0 + np.exp(-np.maximum(x, _EXPIT_TAIL)))
    tail = x < _EXPIT_TAIL
    if tail.any():
        out[tail] = np.exp(x[tail])
    return out


def erfc(x):
    """Complementary error function, elementwise, by the C library's erfc."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), elementwise."""
    return 0.5 * erfc(np.asarray(x, dtype=float) * -_SQRT1_2)


def safeguarded_newton(f_slope, x, lo, hi, rising):
    """Roots of monotone equations f_k(x) = 0, each bracketed by [lo, hi].

    Every unknown steps by Newton, x - f / f', when that lands strictly
    inside its bracket and is at most half its previous move (the bracket's
    width before the first), and bisects otherwise (a slope that is zero,
    infinite or NaN therefore bisects), as in the safeguarded Newton
    "rtsafe" of Numerical Recipes (section 9.4): the slow-step rule keeps
    Newton from creeping across a plateau of f.  Each evaluation shrinks
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
    moved = hi - lo
    for _ in range(_NEWTON_STEPS):
        if todo.size == 0:
            return out
        f, slope, met = f_slope(todo, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / slope
            x_newton = x - step
        above = f < 0 if rising else f > 0      # the root lies above x
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        inside = (lo < x_newton) & (x_newton < hi)
        fast = inside & (np.abs(step) <= 0.5 * moved)
        x_next = np.where(fast, x_newton, 0.5 * (lo + hi))
        done = met | (np.nextafter(lo, hi) >= hi) | (x_next == x)
        final = np.where(met, np.where(inside, x_newton, x), x_next)
        out[todo[done]] = final[done]
        keep = ~done
        moved = np.abs(x_next - x)[keep]
        todo, x, lo, hi = todo[keep], x_next[keep], lo[keep], hi[keep]
    if todo.size:
        raise NumericError(f"{todo.size} root(s) not converged in "
                           f"{_NEWTON_STEPS} steps")
    return out
