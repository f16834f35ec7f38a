"""Closed-form classical tail bounds and the scaled normal-tail functions.

The Hoeffding, Bennett and Bernstein bounds hold for sums of n independent
mean-zero summands with xi_i <= 1 and variance sigma^2; they are formulas of
(x, sigma, n) alone, so the hypothesis is checked where a model meets them
(:data:`sharptail.sharp.BOUNDS`).

Everything here is evaluated in log space and exponentiated last, because the
exponents reach order n ~ 1e4 in the sweeps.  Phi and the scaled Gaussian
tail (Mill's ratio) come from :mod:`sharptail._normal`; the ratio goes
through its erfcx instead of the literal product (1 - Phi(x)) * exp(x^2/2),
which overflows past x ~ 37.
"""

from __future__ import annotations

import math

from ._normal import erfcx, ndtr_scalar
from .errors import ParameterError

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x); Phi(-x) is the upper
    tail to full relative accuracy."""
    return ndtr_scalar(float(x))


def mills_ratio(x: float) -> float:
    """(1 - Phi(x)) * exp(x^2/2), stable for x up to 1e4 and beyond.

    Equals erfcx(x/sqrt(2)) / 2; strictly decreasing from 1/2 at x = 0 and
    sandwiched between 1/(sqrt(2 pi)(1+x)) and 1/(sqrt(pi)(1+x)).
    """
    if not x >= 0:
        raise ParameterError(f"mills_ratio requires x >= 0, got {x}")
    return 0.5 * erfcx(float(x) / math.sqrt(2.0))


def _check_x_sigma(x: float, sigma: float) -> None:
    if not x >= 0:
        raise ParameterError(f"x must be >= 0, got {x}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")


def bennett_log(x: float, sigma: float) -> float:
    """log of the Bennett bound; -inf once x * sigma overflows."""
    _check_x_sigma(x, sigma)
    if x * sigma == math.inf:  # the bound itself is 0 there, but inf - inf is nan
        return -math.inf
    return x * sigma - (sigma * x + sigma * sigma) * math.log1p(x / sigma)


def bennett_bound(x: float, sigma: float) -> float:
    """((x+sigma)/sigma)^(-sigma x - sigma^2) * e^(x sigma)."""
    return math.exp(bennett_log(x, sigma))


def hoeffding_log(x: float, sigma: float, n: int) -> float:
    """log of the Hoeffding bound; -inf beyond the support range x > n/sigma."""
    _check_x_sigma(x, sigma)
    if not n >= 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    xs = x * sigma
    if xs > n:
        return -math.inf
    s2 = sigma * sigma
    log_first = -(xs + s2) * math.log1p(x / sigma)
    log_second = 0.0 if xs >= n else -(n - xs) * math.log1p(-xs / n)
    return (n / (n + s2)) * (log_first + log_second)


def hoeffding_bound(x: float, sigma: float, n: int) -> float:
    """The variance-aware Hoeffding tail bound for n summands with xi_i <= 1.

    Zero for x > n/sigma; at the boundary x = n/sigma the inner factor
    (n/(n - x sigma))^(n - x sigma) is taken to be 1.
    """
    lg = hoeffding_log(x, sigma, n)
    return 0.0 if lg == -math.inf else math.exp(lg)


def bernstein_arg(x: float, sigma: float) -> float:
    """The shrunk argument x / sqrt(1 + x/(3 sigma)) of the Bernstein exponent;
    sqrt(3 sigma x), its limit, once x/(3 sigma) overflows (x / inf is 0, or
    nan at x = inf)."""
    _check_x_sigma(x, sigma)
    r = x / (3.0 * sigma)
    if r == math.inf:
        return math.sqrt(3.0 * sigma) * math.sqrt(x)
    return x / math.sqrt(1.0 + r)


def bernstein_bound(x: float, sigma: float) -> float:
    """exp(-xc^2/2) with xc = bernstein_arg(x, sigma)."""
    xc = bernstein_arg(x, sigma)
    return math.exp(-0.5 * xc * xc)
