"""The scaled complementary error function erfcx and the normal CDF Phi.

erfcx(z) = exp(z^2) erfc(z) is evaluated for z >= 0 from one Chebyshev
series: f(t) = erfcx(z) (2 + z) / 2 in t = 4 / (2 + z) - 1, the variable in
which Schonfelder (Math. Comp. 32, 1978) expands erfc, refining Cody's
Chebyshev fits (Math. Comp. 23, 1969).  It maps [0, inf) onto (-1, 1], and f
tends to 1 / (2 sqrt(pi)) as z grows, so the same 27 terms give
erfcx(z) ~ 1 / (sqrt(pi) z) for any large z and 0 at z = inf.  ``tools/normal_coeffs.py`` derives the table from
40-digit mpmath; against 40-digit mpmath the series is within 1e-15 relative
on [0, 1e7].

Phi(y) for y <= 0 is (1/2) exp(-y^2/2) erfcx(|y| / sqrt 2).  y^2 / 2 is split
exactly into p + e (Dekker's product), and exp(-y^2/2) is exp(-p) (1 - e),
so the only rounding the exponent sees is that of exp itself; y > 0 reflects.
The lower tail Phi(-x) keeps its relative accuracy wherever it is a normal
float, which 1 - Phi(x) loses once Phi(x) rounds to 1 (at x = 8.3).

Each function has a vector form, an in-place Clenshaw loop over numpy
arrays, and a scalar form running the same operations on Python floats; the
two give the same erfcx bits, and Phi differs only where numpy's exp and
math.exp round differently.
"""

from __future__ import annotations

import math

import numpy as np

#: a_j of f(t) = sum_j a_j T_j(t), a_0 halved; written by tools/normal_coeffs.py
_ERFCX_CHEB = (
    0.5770337386164697,
    0.3554369212704985,
    0.06509515882878653,
    0.003671142395836639,
    -0.0011128447433526325,
    -0.0001607582991537808,
    3.278031574173137e-05,
    5.442441645505016e-06,
    -1.5154665553171482e-06,
    -1.4297608181169865e-07,
    8.234608827419493e-08,
    -1.2962846852306563e-09,
    -4.154721631015199e-09,
    6.347058278362811e-10,
    1.4320822712256225e-10,
    -6.160390105204585e-11,
    2.0612138554721698e-12,
    3.5714931488477042e-12,
    -8.586422843251796e-13,
    -6.14560021379063e-14,
    7.418725748596617e-14,
    -1.2895042755032325e-14,
    -2.358726385710632e-15,
    1.5729349381685912e-15,
    -2.2782966239546465e-16,
    -6.31233045075643e-17,
    3.5916763531814925e-17,
)

_A0 = _ERFCX_CHEB[0]
_INNER = _ERFCX_CHEB[-2:0:-1]  # a_{n-2}, ..., a_1; a_{n-1} starts the loop
_SQRT1_2 = math.sqrt(0.5)
_SPLIT = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
#: Phi(y) rounds to 1 from here up (1 - Phi(8.3) < 2^-54) and to 0 from
#: -_Y_ZERO down (Phi(-38.5) < 2^-1075), so only the y between are evaluated
_Y_ONE = 8.3
_Y_ZERO = 38.5


def erfcx(z: np.ndarray) -> np.ndarray:
    """exp(z^2) erfc(z) of every z >= 0 (an array, returned as a new one)."""
    s = np.add(z, 2.0, dtype=float)
    t2 = np.divide(4.0, s)
    t2 -= 1.0
    t2 *= 2.0
    # Clenshaw: b_j = t2 b_{j+1} - b_{j+2} + a_j, with b1, b2 = b_{j+1}, b_{j+2}
    b1 = np.full_like(s, _ERFCX_CHEB[-1])
    b2 = np.zeros_like(s)
    tmp = np.empty_like(s)
    for a in _INNER:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += a
        b1, b2, tmp = tmp, b1, b2
    # f = t b_1 - b_2 + a_0, and erfcx = f / ((2 + z) / 2)
    t2 *= 0.5
    t2 *= b1
    t2 -= b2
    t2 += _A0
    s *= 0.5
    t2 /= s
    return t2


def erfcx_scalar(z: float) -> float:
    """:func:`erfcx` of one float z >= 0, with the same operations."""
    s = z + 2.0
    t2 = (4.0 / s - 1.0) * 2.0
    b1, b2 = _ERFCX_CHEB[-1], 0.0
    for a in _INNER:
        b1, b2 = t2 * b1 - b2 + a, b1
    return ((t2 * 0.5) * b1 - b2 + _A0) / (s * 0.5)


def ndtr(y: np.ndarray) -> np.ndarray:
    """Phi(y) of every y (an array, returned as a new one)."""
    y = np.asarray(y, dtype=float)
    one = y >= _Y_ONE
    todo = ~(one | (y <= -_Y_ZERO))  # nan lands here and stays nan
    out = one.astype(float)
    y = y[todo]
    a = np.abs(y)
    # a^2 = p + e exactly (Dekker): a = hi + lo with 26-bit halves
    hi = a * _SPLIT
    hi -= hi - a
    lo = a - hi
    p = a * a
    e = hi * hi
    e -= p
    e += 2.0 * hi * lo
    e += lo * lo
    # Phi(-a) = exp(-p/2) (1 - e/2) erfcx(a / sqrt 2) / 2
    p *= -0.5
    tail = np.exp(p)
    e *= -0.5
    e += 1.0
    tail *= e
    a *= _SQRT1_2
    tail *= erfcx(a)
    tail *= 0.5
    np.subtract(1.0, tail, out=tail, where=y > 0.0)
    out[todo] = tail
    return out


def ndtr_scalar(y: float) -> float:
    """:func:`ndtr` of one float y."""
    if y >= _Y_ONE:
        return 1.0
    if y <= -_Y_ZERO:
        return 0.0
    a = abs(y)
    hi = a * _SPLIT
    hi -= hi - a
    lo = a - hi
    p = a * a
    e = hi * hi - p + 2.0 * hi * lo + lo * lo
    tail = math.exp(p * -0.5) * (e * -0.5 + 1.0) * erfcx_scalar(a * _SQRT1_2) * 0.5
    return 1.0 - tail if y > 0.0 else tail
