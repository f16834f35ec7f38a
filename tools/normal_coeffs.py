#!/usr/bin/env python3
"""Derive the Chebyshev table of ``sharptail._normal`` from 40-digit mpmath.

The table fits f(t) = erfcx(z) (2 + z) / 2 in the variable
t = 4 / (2 + z) - 1 = (2 - z) / (2 + z), which maps z in [0, inf) onto
(-1, 1].  f is analytic on [-1, 1], including t = -1 (z = inf), where it
tends to 1 / (2 sqrt(pi)), so its Chebyshev coefficients decay
geometrically.  Schonfelder (Math. Comp. 32, 1978) expands erfc in the same
variable, refining Cody's Chebyshev fits (Math. Comp. 23, 1969).

The coefficients are the discrete cosine transform of f at N = 44 Chebyshev
nodes of the first kind, computed at 40 digits.  The series is cut after the
first n terms for which the dropped coefficients sum to at most 2^-56, a
quarter of an ulp of f's smallest value 0.28, and each kept coefficient is
rounded to the nearest double.  Print the table as Python source with

    python3 tools/normal_coeffs.py

``tests/test_normal.py`` re-derives it and checks it against the constants
committed in ``src/sharptail/_normal.py``.
"""

from __future__ import annotations

import mpmath

NODES = 44
DIGITS = 40
TAIL = 2.0 ** -56


def _f(t):
    z = 2 * (1 - t) / (1 + t)
    return mpmath.erfc(z) * mpmath.exp(z * z) * (2 + z) / 2


def coefficients() -> tuple[float, ...]:
    """a_0, ..., a_{n-1} with f(t) ~ sum_j a_j T_j(t) (a_0 already halved)."""
    with mpmath.workdps(DIGITS):
        half = mpmath.mpf(1) / 2
        angles = [mpmath.pi * (k + half) / NODES for k in range(NODES)]
        vals = [_f(mpmath.cos(a)) for a in angles]
        c = [2 * mpmath.fsum(v * mpmath.cos(j * a) for v, a in zip(vals, angles)) / NODES
             for j in range(NODES)]
        c[0] /= 2
        n = NODES
        while n > 1 and mpmath.fsum(abs(x) for x in c[n - 1:]) <= TAIL:
            n -= 1
        return tuple(float(x) for x in c[:n])


def main() -> None:
    print("_ERFCX_CHEB = (")
    for a in coefficients():
        print(f"    {a!r},")
    print(")")


if __name__ == "__main__":
    main()
