import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from sharptail import (
    C3_UNIVERSAL,
    DiscreteDistribution,
    SumModel,
    bennett_bound,
    bernstein_bound,
    berry_esseen_tilted,
    build_lattice,
    build_tilted_lattice,
    chernoff_bound,
    cumulant,
    cumulant_deriv,
    expansion_error,
    expansion_interval,
    extremal_model,
    hoeffding_bound,
    hoeffding_log,
    mills_ratio,
    normal_tail_upper,
    rademacher_model,
    saddlepoint_interval,
    subgaussian_multiplier,
    subgaussian_upper,
    third_moment_interval,
    tilt_cap,
    two_sided_interval,
    two_sided_multiplier,
)
from sharptail.classical import SQRT_2PI, SQRT_PI
from sharptail.cli import verify_report
from sharptail.errors import HypothesisError, ParameterError, RangeError
from sharptail.models import check_curvature_condition, curvature_holds, envelope_violations
from sharptail.sharp import BOUNDS, BoundSpec
from sharptail.tilting import inequality_suite, tilt

from conftest import FIVE_ATOM

C0_TWO_SIDED = 2.804189583547756286948      # 2.24 + 1/sqrt(pi)
C0_SUBGAUSSIAN = 23.87360290306685955045    # sqrt(2) + 16 sqrt(2 pi) 0.56
EPS0_FACTOR = 9.851419542005454933378       # 1.58/sqrt(pi) + 16*0.56


class TestTiltCap:
    def test_zero(self):
        assert tilt_cap(0.0, 1.0, 1.0) == 0.0

    def test_near_boundary_value(self):
        # r = 0.2475 -> sqrt(1 - 0.99) = 0.1 -> t = 0.495 / 1.1 = 0.45
        assert tilt_cap(0.2475, 1.0, 1.0) == pytest.approx(0.45, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(RangeError):
            tilt_cap(0.25, 1.0, 1.0)

    def test_monotone(self):
        vals = [tilt_cap(x, 1.0, 1.0) for x in np.linspace(0, 0.2499, 200)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestExpansionError:
    def test_rademacher_at_zero(self):
        for n in (16, 100, 2500):
            m = rademacher_model(n)
            assert expansion_error(m, 0.0, 1.0) == pytest.approx(
                EPS0_FACTOR / math.sqrt(n), rel=1e-13
            )

    def test_increasing_in_x(self):
        m = rademacher_model(100)
        xs = np.linspace(0, 0.2499 * m.sigma, 100)
        vals = [expansion_error(m, x, 1.0) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestExpansionInterval:
    def test_at_zero(self):
        m = rademacher_model(100)
        iv = expansion_interval(m, 0.0, 1.0)
        assert iv.center == 0.5
        assert iv.band == pytest.approx(EPS0_FACTOR / 10, rel=1e-13)

    def test_containment_large_rademacher(self):
        m = rademacher_model(10**4)
        lat = build_lattice(m)
        for x in np.linspace(0, 3, 31):
            iv = expansion_interval(m, x, 1.0)
            p = lat.tail(x * 100.0, strict=True)
            assert iv.lower <= p <= iv.upper

    def test_upper_capped_by_hoeffding(self):
        m = rademacher_model(64)
        for x in np.linspace(0, 1.9, 20):
            iv = expansion_interval(m, x, 1.0)
            assert iv.upper <= hoeffding_bound(x, m.sigma, m.n) + 1e-15
            assert iv.upper <= 1.0

    def test_hypothesis_gate(self):
        wide = DiscreteDistribution(((2.0, 0.2), (-0.5, 0.8)))
        with pytest.raises(HypothesisError):
            expansion_interval(SumModel(((wide, 4),)), 0.1, 2.0)

    def test_out_of_range_flagged(self):
        m = rademacher_model(100)
        iv = expansion_interval(m, 2.6, 1.0)  # limit is 2.5
        assert not iv.valid
        assert math.isnan(iv.center)
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(min(1.0, hoeffding_bound(2.6, 10.0, 100)), rel=1e-15)


class TestSaddlepointInterval:
    def test_at_zero(self):
        m = rademacher_model(100)
        iv = saddlepoint_interval(m, 0.0)
        assert iv.center == 0.5
        assert iv.band == pytest.approx(16 * 0.56 * 100 / 1000.0, rel=1e-13)

    def test_containment(self):
        m = rademacher_model(400)
        lat = build_lattice(m)
        for x in np.linspace(0, 4, 17):
            iv = saddlepoint_interval(m, x)
            p = lat.tail(x * 20.0, strict=True)
            assert iv.lower <= p <= iv.upper

    def test_tighter_than_expansion_band(self):
        m = rademacher_model(10**4)
        for x in np.linspace(0, 1, 11):
            assert saddlepoint_interval(m, x).band <= expansion_interval(m, x, 1.0).band


class TestThirdMomentInterval:
    def test_at_zero(self):
        m = rademacher_model(10**4)
        iv = third_moment_interval(m, 0.0)
        assert iv.lower == pytest.approx(max(0.0, 0.5 - 16 / 100), rel=1e-13)
        assert iv.upper == pytest.approx(min(1.0, 0.5 + 16 / 100), rel=1e-13)

    def test_containment_point(self):
        m = rademacher_model(10**4)
        lat = build_lattice(m)
        iv = third_moment_interval(m, 0.5)
        p = lat.tail(50.0, strict=True)
        assert iv.lower <= p <= iv.upper

    def test_band_to_center_vanishes(self):
        # at fixed x the relative band 16 B / (sigma Theta(x)) shrinks like 1/sqrt(n)
        ratios = []
        for n in (100, 400, 1600, 6400):
            iv = third_moment_interval(rademacher_model(n), 0.5)
            ratios.append(iv.band / iv.center)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        # the relative band is exactly 16 B / (sigma Theta(x)): halves as sigma doubles
        assert ratios[-1] == pytest.approx(ratios[-2] / 2, rel=1e-12)

    def test_b_is_the_models_ratio_constant(self):
        m = SumModel(((DiscreteDistribution(((-1.0, 0.2), (0.25, 0.8))), 400),))
        iv = third_moment_interval(m, 0.1)
        assert iv.constants == {"B": m.b_ratio}
        assert iv.range_limit == 0.1 * m.sigma / m.b_ratio
        assert iv.band == 16.0 * m.b_ratio / m.sigma * chernoff_bound(m, 0.1)


class TestNormalTailUpper:
    def test_at_zero(self):
        m = rademacher_model(100)
        assert normal_tail_upper(m, 0.0) == pytest.approx(
            0.5 * (1 + 16 * SQRT_2PI / 10), rel=1e-13
        )

    def test_dominates_exact(self):
        m = rademacher_model(100)
        lat = build_lattice(m)
        for x in np.linspace(0, 1.0, 21):
            assert normal_tail_upper(m, x) >= lat.tail(x * 10.0, strict=True)

    def test_shrunk_argument_fattens_tail(self):
        from sharptail import bernstein_arg, normal_cdf

        for x in np.linspace(0.1, 5, 20):
            assert bernstein_arg(x, 7.0) < x
            assert 1 - normal_cdf(bernstein_arg(x, 7.0)) > 1 - normal_cdf(x)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            normal_tail_upper(rademacher_model(100), 1.5)  # limit 0.1 sigma/B = 1


class TestSubgaussian:
    def test_multiplier_at_zero(self):
        assert subgaussian_multiplier(0.0, 1.0, 1.0) == pytest.approx(C0_SUBGAUSSIAN, rel=1e-13)

    def test_multiplier_cap(self):
        for x in np.linspace(0, 0.1, 500):
            assert subgaussian_multiplier(x, 1.0, 1.0) <= 32.47

    def test_upper_dominates_exact(self):
        m = rademacher_model(10**4)
        lat = build_lattice(m)
        for x in np.linspace(0, 3, 31):
            assert subgaussian_upper(m, x) >= lat.tail(x * 100.0, strict=True)

    def test_hypothesis_gate(self):
        # extremal law with v = 0.25 has upper = 1 > sigma_i = 0.5
        with pytest.raises(HypothesisError):
            subgaussian_upper(extremal_model(0.25, 10), 0.1)

    def test_range_gate(self):
        with pytest.raises(RangeError):
            subgaussian_upper(rademacher_model(100), 2.5)


class TestTwoSided:
    def test_multiplier_at_zero(self):
        assert two_sided_multiplier(0.0, 5.0) == pytest.approx(C0_TWO_SIDED, rel=1e-14)
        assert C0_TWO_SIDED == pytest.approx(2.24 + 1 / SQRT_PI, rel=1e-15)

    def test_multiplier_cap(self):
        for x in np.linspace(0, 0.1, 500):
            assert two_sided_multiplier(x, 1.0) <= 3.08

    @pytest.mark.parametrize("n", [100, 400])
    def test_containment(self, n):
        m = rademacher_model(n)
        lat = build_lattice(m)
        sigma = m.sigma
        for x in np.linspace(0, 0.606 * sigma, 40):
            p = lat.tail(x * sigma, strict=True)
            if p < 1e-12:
                continue
            iv = two_sided_interval(m, x)
            assert iv.lower <= p <= iv.upper

    def test_beyond_range_flagged_with_hoeffding_cap(self):
        m = rademacher_model(100)
        x = 0.7 * m.sigma
        iv = two_sided_interval(m, x)
        assert not iv.valid
        assert iv.upper == pytest.approx(min(1.0, hoeffding_bound(x, m.sigma, m.n)), rel=1e-15)
        assert iv.lower == 0.0

    def test_hypothesis_gate(self):
        wide = DiscreteDistribution(((0.5, 0.8), (-2.0, 0.2)))
        with pytest.raises(HypothesisError):
            two_sided_interval(SumModel(((wide, 4),)), 0.1)


class TestIntervalShapes:
    def test_contains_center_lower_nonneg_upper_capped(self):
        m = rademacher_model(64)
        for x in np.linspace(0, 1.9, 25):
            for iv in (
                expansion_interval(m, x, 1.0),
                saddlepoint_interval(m, x),
                two_sided_interval(m, x),
            ):
                assert iv.lower >= 0.0
                assert iv.upper <= 1.0
                assert iv.lower <= min(iv.center, iv.upper)

    def test_lower_not_above_upper_when_band_vanishes(self):
        # on Rademacher sums the Hoeffding cap equals the Chernoff bound up to
        # rounding, so a band of a few ulps must not leave lower > upper
        from sharptail.sharp import _interval_from_band

        m = rademacher_model(100)
        crossed = False
        for x in np.linspace(0, 2, 9):
            theta = mills_ratio(x)
            for band in (0.0, math.ulp(theta), 2 * math.ulp(theta)):
                iv = _interval_from_band("band", m, x, theta, band, 0.0, math.inf, {})
                assert 0.0 <= iv.lower <= iv.upper <= 1.0
                crossed |= (theta - band) * chernoff_bound(m, x) > iv.upper
        assert crossed  # at x = 1 the unclamped lower end lies above the upper

    def test_band_monotone_in_x(self):
        m = rademacher_model(400)
        for build in (
            lambda x: expansion_interval(m, x, 1.0),
            lambda x: two_sided_interval(m, x),
        ):
            bands = [build(x).band for x in np.linspace(0, 2, 15)]
            rel = [b / chernoff_bound(m, x) for b, x in zip(bands, np.linspace(0, 2, 15))]
            assert all(b >= a - 1e-12 for a, b in zip(rel, rel[1:]))

    def test_serialization(self):
        iv = two_sided_interval(rademacher_model(100), 0.5)
        d = iv.to_dict()
        assert d["name"] == "two_sided"
        assert d["valid"] is True
        assert set(d) >= {"x", "lower", "center", "upper", "band", "t_param", "range_limit"}


class TestConstantsPolicy:
    def test_default_universal(self):
        # every interval's band reads the universal constant, recorded for audit
        m = rademacher_model(100)
        assert C3_UNIVERSAL == 0.56
        assert expansion_interval(m, 0.5, 1.0).constants["C"] is C3_UNIVERSAL
        assert saddlepoint_interval(m, 0.5).constants["C"] is C3_UNIVERSAL

    @pytest.mark.parametrize("fn", [
        expansion_error, expansion_interval, saddlepoint_interval, berry_esseen_tilted,
        subgaussian_multiplier, subgaussian_upper, third_moment_interval, normal_tail_upper,
    ], ids=lambda fn: fn.__name__)
    def test_only_the_papers_parameters_are_settable(self, fn):
        # C is the universal constant and the ratio bounds' B the model's:
        # B stays a parameter only where the curvature constant is the caller's
        params = inspect.signature(fn).parameters
        assert not {"C", "C3"} & set(params)
        assert "B" not in params or params["B"].default is inspect.Parameter.empty
        assert "ratio_b" not in {f.name for f in dataclasses.fields(BoundSpec)}

    @pytest.mark.parametrize("fn", [
        verify_report, BoundSpec.violation_at, check_curvature_condition, curvature_holds,
        envelope_violations, inequality_suite,
    ], ids=lambda fn: fn.__qualname__)
    def test_no_caller_chosen_tilt_grid(self, fn):
        # the curvature condition and the suite's inequalities hold for every
        # tilt, so each check reads the one grid the program fixes for it
        assert "lambda_grid" not in inspect.signature(fn).parameters


_FIVE = SumModel(((FIVE_ATOM, 100),))
_RAD = rademacher_model(100)


@pytest.mark.parametrize("call,names", [
    pytest.param(lambda: hoeffding_bound(math.nan, 5.0, 100), "x", id="hoeffding"),
    pytest.param(lambda: bennett_bound(math.nan, 5.0), "x", id="bennett"),
    pytest.param(lambda: bernstein_bound(math.nan, 5.0), "x", id="bernstein"),
    pytest.param(lambda: mills_ratio(math.nan), "x", id="mills"),
    pytest.param(lambda: tilt_cap(math.nan, 5.0, 1.0), "x", id="tilt_cap"),
    pytest.param(lambda: two_sided_multiplier(math.nan, 5.0), "x", id="two_sided_multiplier"),
    pytest.param(lambda: expansion_interval(_FIVE, math.nan, 1.0), "x", id="expansion"),
    pytest.param(lambda: third_moment_interval(_FIVE, math.nan), "x", id="third_moment"),
    pytest.param(lambda: two_sided_interval(_FIVE, math.nan), "x", id="two_sided"),
    pytest.param(lambda: normal_tail_upper(_FIVE, math.nan), "x", id="normal_shape"),
    pytest.param(lambda: subgaussian_upper(_RAD, math.nan), "x", id="subgaussian"),
    pytest.param(lambda: build_tilted_lattice(_FIVE, math.nan), "lam", id="tilted_lattice_nan"),
    pytest.param(lambda: build_tilted_lattice(_FIVE, math.inf), "lam", id="tilted_lattice_inf"),
    pytest.param(lambda: build_tilted_lattice(_FIVE, -800.0), "lam", id="tilted_lattice_negative"),
    pytest.param(lambda: berry_esseen_tilted(_FIVE, math.nan), "lam", id="berry_esseen_nan"),
    pytest.param(lambda: tilt(_FIVE, math.nan), "lam", id="tilt_nan"),
    pytest.param(lambda: cumulant(_FIVE, math.nan), "lam", id="cumulant_nan"),
    pytest.param(lambda: cumulant_deriv(_FIVE, math.inf), "lam", id="cumulant_deriv_inf"),
    pytest.param(lambda: hoeffding_log(1.0, 5.0, math.nan), "n", id="hoeffding_n_nan"),
])
def test_nan_or_bad_tilt_is_a_parameter_error(call, names):
    # never a nan result, an out-of-range interval, a RangeError or a
    # ValueError from deep inside a build
    with pytest.raises(ParameterError) as info:
        call()
    assert type(info.value) is ParameterError
    assert str(info.value).startswith(f"{names} must be") or f"requires {names}" in str(info.value)


_INTERVAL_AT = {
    "expansion": lambda m, x: expansion_interval(m, x, m.b_ratio),
    "saddlepoint": saddlepoint_interval,
    "third_moment": third_moment_interval,
    "two_sided": two_sided_interval,
}


@given(hst.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]), hst.floats(0.0, 5.0),
       hst.sampled_from(sorted(_INTERVAL_AT)), hst.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_two_point_extremal_family_on_both_sides_of_a_jump(v, log10_n, name, u):
    """n copies of {1, -v}, the laws for which Hoeffding's and Bennett's
    bounds are tight, are where the intervals are tightest.  The strict tail
    drops at each support point s: x = s/sigma reads it past s, one float
    below reads it with s's mass, and the interval must hold at rtol 1e-12
    on both sides wherever it is valid.  Points whose tail is below the
    smallest normal double are skipped: the exact lattice holds them only as
    subnormals or 0 until deep tails are read off a tilted lattice."""
    model = extremal_model(v, int(10.0**log10_n))
    lat, sigma = build_lattice(model), model.sigma
    end = BOUNDS[name].limit(model, model.b_ratio) * sigma
    at_or_above = np.cumsum(lat.masses[::-1])[::-1]  # screens out underflowed points
    points = lat.values[(lat.values >= 0) & (lat.values <= end) & (lat.values < model.max_support)
                        & (at_or_above >= sys.float_info.min)]
    assume(points.size > 0)
    x = float(points[int(u * points.size)]) / sigma
    for xs in (x, math.nextafter(x, 0.0)) if x > 0 else (x,):
        p = lat.tail(xs * sigma, strict=True)
        iv = _INTERVAL_AT[name](model, xs)
        if p >= sys.float_info.min and iv.valid:
            assert iv.lower <= p * (1 + 1e-12) and p <= iv.upper * (1 + 1e-12), (xs, p, iv)
