"""erfcx and Phi from sharptail._normal against 40-digit mpmath, and the
Chebyshev table against its derivation in tools/normal_coeffs.py."""

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from sharptail import _normal
from sharptail._normal import erfcx, erfcx_scalar, ndtr, ndtr_scalar

TOOL = Path(__file__).resolve().parent.parent / "tools" / "normal_coeffs.py"


def _points(lo, hi, n, seed):
    """n points spread evenly over [lo, hi] plus n drawn uniformly, and both ends."""
    rng = np.random.default_rng(seed)
    return np.concatenate((np.linspace(lo, hi, n), rng.uniform(lo, hi, n), [lo, hi]))


def _mp(f, xs):
    with mpmath.workdps(40):
        return np.array([float(f(mpmath.mpf(x))) for x in xs.tolist()])


def _mp_erfcx(z):
    return mpmath.erfc(z) * mpmath.exp(z * z)


#: [0, 10^7]: [0, 6] evenly, where the series bends most, and log-uniform above
ERFCX_Z = np.concatenate((
    _points(0.0, 6.0, 1000, 1),
    np.exp(np.random.default_rng(2).uniform(math.log(1e-12), math.log(1e7), 2000)),
    [1e-300, 5e-324, 1e7],
))
PHI_Y = _points(-38.0, 38.0, 3000, 3)


def test_table_matches_its_derivation():
    spec = importlib.util.spec_from_file_location("normal_coeffs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.coefficients() == _normal._ERFCX_CHEB


def test_erfcx_within_1e_15_of_40_digits():
    ref = _mp(_mp_erfcx, ERFCX_Z)
    got = erfcx(ERFCX_Z)
    assert np.max(np.abs(got - ref) / ref) <= 1e-15


def test_erfcx_tends_to_its_limit():
    # erfcx(z) sqrt(pi) z = 1 - 1/(2 z^2) + O(z^-4) beyond 10^7
    z = np.concatenate((np.exp(np.random.default_rng(4).uniform(
        math.log(1e7), math.log(1e308), 2000)), [1e7, 1.7e308]))
    got = erfcx(z) * math.sqrt(math.pi) * z
    assert np.all(np.abs(got - 1.0) <= 0.5 / z / z + 1e-15)
    assert erfcx(np.array([math.inf])).tolist() == [0.0]
    assert erfcx_scalar(math.inf) == 0.0


def test_phi_within_an_ulp_of_40_digits():
    ref = _mp(mpmath.ncdf, PHI_Y)
    got = ndtr(PHI_Y)
    assert np.max(np.abs(got - ref)) <= 2.3e-16
    normal = ref > 1e-300
    assert normal.sum() > 5000
    assert np.max(np.abs(got[normal] - ref[normal]) / ref[normal]) <= 2e-15


def test_scalar_forms_follow_the_vector_forms():
    assert [erfcx_scalar(z) for z in ERFCX_Z.tolist()] == erfcx(ERFCX_Z).tolist()
    # the same operations, except math.exp for numpy's exp, whose roundings
    # differ in the last bit, so the results may differ by two ulps (and by
    # more, relatively, among subnormals)
    got = np.array([ndtr_scalar(y) for y in PHI_Y.tolist()])
    np.testing.assert_allclose(got, ndtr(PHI_Y), rtol=2.0**-51, atol=1e-300)


def test_cutoffs_are_where_phi_rounds_to_one_and_zero():
    with mpmath.workdps(40):
        assert mpmath.ncdf(-_normal._Y_ONE) < mpmath.mpf(2) ** -54
        assert mpmath.ncdf(-_normal._Y_ZERO) < mpmath.mpf(2) ** -1075
    # just inside them the evaluated formula already rounds there too
    inside = np.array([np.nextafter(_normal._Y_ONE, 0.0), -np.nextafter(_normal._Y_ZERO, 0.0)])
    assert ndtr(inside).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("y, want", [
    (0.0, 0.5), (-0.0, 0.5), (-math.inf, 0.0), (math.inf, 1.0), (-40.0, 0.0), (-1e300, 0.0),
    (1e300, 1.0), (9.0, 1.0),
])
def test_phi_special_values(y, want):
    assert ndtr(np.array([y])).tolist() == [want]
    assert ndtr_scalar(y) == want


def test_nan_stays_nan():
    assert math.isnan(ndtr(np.array([math.nan]))[0])
    assert math.isnan(ndtr_scalar(math.nan))
    assert math.isnan(erfcx(np.array([math.nan]))[0])
    assert math.isnan(erfcx_scalar(math.nan))
