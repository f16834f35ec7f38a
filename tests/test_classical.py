import math

import numpy as np
import pytest

from sharptail import (
    bennett_bound,
    bennett_log,
    bernstein_arg,
    bernstein_bound,
    hoeffding_bound,
    hoeffding_log,
    mills_ratio,
    normal_cdf,
)
from sharptail.classical import SQRT_2PI, SQRT_PI
from sharptail.errors import ParameterError

# Frozen against 40-digit quadrature of the normal density (mpmath, dps=40).
PHI_TABLE = {
    -3.0: 0.001349898031630094526652,
    -2.0: 0.02275013194817920720028,
    -1.0: 0.1586552539314570514148,
    0.5: 0.6914624612740131036377,
    1.0: 0.8413447460685429485852,
    2.0: 0.9772498680518207927997,
    3.0: 0.9986501019683699054733,
    5.0: 0.9999997133484281208061,
}
THETA_1 = 0.2615782918651233716818   # (1 - Phi(1)) * e^(1/2), same quadrature
THETA_2 = 0.1681020012231706064271
BENNETT_2_3 = 0.1896861610458959527917  # exp(6 - 15 log(5/3)) at 40 digits


class TestNormalCdf:
    @pytest.mark.parametrize("x,expected", sorted(PHI_TABLE.items()))
    def test_against_quadrature(self, x, expected):
        assert normal_cdf(x) == pytest.approx(expected, abs=1e-15)

    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_saturation(self):
        assert abs(normal_cdf(40.0) - 1.0) <= 1e-15

    def test_symmetry(self):
        for x in np.linspace(0, 8, 200):
            assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-10, 10, 500)
        vals = [normal_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestMillsRatio:
    def test_at_zero(self):
        assert mills_ratio(0.0) == 0.5

    def test_at_one_vs_quadrature(self):
        assert mills_ratio(1.0) == pytest.approx(THETA_1, rel=1e-13)

    def test_at_two_in_sandwich_window(self):
        val = mills_ratio(2.0)
        assert val == pytest.approx(THETA_2, rel=1e-13)
        assert 1.0 / (3 * SQRT_2PI) <= val <= 1.0 / (3 * SQRT_PI)

    def test_sandwich_dense(self):
        for x in np.linspace(0, 200, 4001):
            val = mills_ratio(x)
            assert 1.0 / (SQRT_2PI * (1 + x)) <= val <= 1.0 / (SQRT_PI * (1 + x))

    def test_no_overflow_at_1e4(self):
        val = mills_ratio(1e4)
        # asymptotically 1/(x sqrt(2 pi))
        assert val == pytest.approx(1.0 / (1e4 * SQRT_2PI), rel=1e-4)

    def test_strictly_decreasing(self):
        xs = np.linspace(0, 50, 2000)
        vals = [mills_ratio(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_difference_bound(self):
        # |Theta(a) - Theta(b)| <= |a - b| / (sqrt(pi) min(a,b)^2)
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = rng.uniform(0.05, 30, size=2)
            lhs = abs(mills_ratio(a) - mills_ratio(b))
            assert lhs <= abs(a - b) / (SQRT_PI * min(a, b) ** 2) * (1 + 1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            mills_ratio(-0.1)


class TestBennett:
    def test_at_zero(self):
        assert bennett_bound(0.0, 2.0) == 1.0

    def test_unit_point(self):
        assert bennett_bound(1.0, 1.0) == pytest.approx(math.e / 4, rel=1e-15)

    def test_frozen_point(self):
        assert bennett_bound(2.0, 3.0) == pytest.approx(BENNETT_2_3, rel=1e-14)

    def test_log_consistency(self):
        assert math.exp(bennett_log(2.0, 3.0)) == bennett_bound(2.0, 3.0)

    @pytest.mark.parametrize("x", [1e308, math.inf])
    def test_overflowing_product_is_zero(self, x):
        assert bennett_log(x, 5.0) == -math.inf
        assert bennett_bound(x, 5.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ParameterError):
            bennett_bound(-1.0, 1.0)
        with pytest.raises(ParameterError):
            bennett_bound(1.0, 0.0)


class TestHoeffding:
    def test_at_zero(self):
        assert hoeffding_bound(0.0, 3.0, 10) == 1.0

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_boundary_equals_point_mass(self, n):
        # at x = n/sigma with sigma^2 = n the bound collapses to 2^-n,
        # the exact probability that all n signs come up positive
        sigma = math.sqrt(n)
        assert hoeffding_bound(n / sigma, sigma, n) == pytest.approx(2.0 ** -n, rel=1e-13)

    def test_zero_beyond_range(self):
        sigma = math.sqrt(10)
        assert hoeffding_bound(10 / sigma + 1e-9, sigma, 10) == 0.0
        assert hoeffding_log(10 / sigma + 1e-9, sigma, 10) == -math.inf

    @pytest.mark.parametrize("sigma2,n", [(10, 10), (25, 100), (400, 400), (3, 30)])
    def test_dominated_by_bennett(self, sigma2, n):
        sigma = math.sqrt(sigma2)
        for x in np.linspace(0, n / sigma, 200):
            h = hoeffding_bound(x, sigma, n)
            assert h <= bennett_bound(x, sigma) * (1 + 1e-14) + 1e-300

    @pytest.mark.parametrize("sigma2,n", [(10, 10), (25, 100), (400, 400)])
    def test_dominated_by_bernstein(self, sigma2, n):
        sigma = math.sqrt(sigma2)
        for x in np.linspace(0, n / sigma, 200):
            h = hoeffding_bound(x, sigma, n)
            assert h <= bernstein_bound(x, sigma) * (1 + 1e-14) + 1e-300


class TestBernstein:
    def test_at_zero(self):
        assert bernstein_bound(0.0, 1.0) == 1.0

    def test_substitution(self):
        # xc = 3/sqrt(1 + 1/3) -> exp(-9/(2*(4/3))) = exp(-27/8)
        assert bernstein_bound(3.0, 3.0) == pytest.approx(math.exp(-27 / 8), rel=1e-15)

    def test_arg_basics(self):
        assert bernstein_arg(0.0, 5.0) == 0.0
        s = 2.5
        assert bernstein_arg(s, s) == pytest.approx(s / math.sqrt(4 / 3), rel=1e-15)

    def test_arg_taylor_remainder(self):
        # xc = x (1 - x/(6 sigma) + ...): remainder below 0.05 (x/sigma)^2 x
        sigma = 40.0
        for x in np.linspace(0.0, 0.1 * sigma, 200):
            approx = x * (1 - x / (6 * sigma))
            assert abs(bernstein_arg(x, sigma) - approx) <= 0.05 * (x / sigma) ** 2 * x + 1e-18

    def test_arg_below_x(self):
        for x in np.linspace(0.1, 10, 50):
            assert bernstein_arg(x, 2.0) < x

    @pytest.mark.parametrize("x,sigma", [(math.inf, 5.0), (math.inf, 1e-300), (1e308, 0.01)])
    def test_overflowing_ratio_is_zero(self, x, sigma):
        # x / (3 sigma) overflows: x / sqrt(inf) was nan at x = inf, and 0
        # (a bound of 1) at finite x; the argument's limit is sqrt(3 sigma x)
        assert bernstein_arg(x, sigma) == math.sqrt(3.0 * sigma) * math.sqrt(x)
        assert bernstein_bound(x, sigma) == 0.0


class TestShapes:
    def test_all_one_at_zero_and_nonincreasing(self):
        sigma, n = math.sqrt(50), 50
        fns = [
            lambda x: bennett_bound(x, sigma),
            lambda x: hoeffding_bound(x, sigma, n),
            lambda x: bernstein_bound(x, sigma),
        ]
        for fn in fns:
            assert fn(0.0) == 1.0
            vals = [fn(x) for x in np.linspace(0, n / sigma, 300)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
