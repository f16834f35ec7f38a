import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sharptail import (
    DiscreteDistribution,
    SumModel,
    chernoff_bound,
    chernoff_log,
    cumulant,
    cumulant_deriv,
    extremal_model,
    fenchel_legendre,
    hoeffding_log,
    loads_model,
    model_to_dict,
    rademacher,
    rademacher_model,
    solve_saddlepoint,
    solve_target,
    solve_targets,
    tilt,
)
from sharptail._tiltmath import tilted_stats
from sharptail.errors import NoSaddlepointError, ParameterError

from conftest import FIVE_ATOM, random_model, sum_models

ATANH_01 = 0.1003353477310755806357          # atanh(0.1), 40-digit value
CHERNOFF_RAD_100_1 = 0.6060233970676034738573  # exp(100 log cosh(atanh .1) - 10 atanh .1)

SKEWED = DiscreteDistribution(((-0.25, 0.8), (1.0, 0.2)))


def mixed_model(scale=1):
    """Two-, two- and five-atom blocks, 600 summands at scale 1."""
    return SumModel(((rademacher(), 200 * scale), (SKEWED, 300 * scale),
                     (FIVE_ATOM, 100 * scale)))


def mp_saddle(model, target, lam0):
    """Root of cum'(lam) = target at 50 digits, on the model's float atoms."""
    with mpmath.workdps(50):
        comps = [([mpmath.mpf(v) for v in d.values], [mpmath.mpf(p) for p in d.probs], m)
                 for d, m in model.components]

        def resid(lam):
            total = mpmath.mpf(0)
            for vals, probs, m in comps:
                w = [p * mpmath.exp(lam * v) for v, p in zip(vals, probs)]
                total += m * mpmath.fsum(wi * v for wi, v in zip(w, vals)) / mpmath.fsum(w)
            return total - target

        return mpmath.findroot(resid, mpmath.mpf(lam0))


class TestCumulant:
    def test_zero(self):
        assert cumulant(rademacher_model(10), 0.0) == 0.0

    def test_rademacher_closed_form(self):
        m = rademacher_model(17)
        for lam in np.linspace(0.01, 5, 40):
            assert cumulant(m, lam) == pytest.approx(17 * math.log(math.cosh(lam)), rel=1e-13)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            cumulant(rademacher_model(2), -0.5)

    def test_two_point_cap(self):
        # cum(lam) <= n log((exp(-lam s2/n) + (s2/n) exp(lam)) / (1 + s2/n)) for xi <= 1
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_model(rng, 5, 60)
            t = m.sigma2 / m.n
            for lam in np.linspace(0, 4, 30):
                cap = m.n * math.log((math.exp(-lam * t) + t * math.exp(lam)) / (1 + t))
                assert cumulant(m, lam) <= cap + 1e-10

    @given(sum_models(), hst.floats(0, 4), hst.floats(0, 4), hst.floats(0.01, 0.99))
    @settings(max_examples=120, deadline=None)
    def test_convexity(self, model, a, b, theta):
        mid = theta * a + (1 - theta) * b
        lhs = cumulant(model, mid)
        rhs = theta * cumulant(model, a) + (1 - theta) * cumulant(model, b)
        assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))

    @given(sum_models(), hst.floats(0, 5))
    @settings(max_examples=120, deadline=None)
    def test_component_mgf_at_least_one(self, model, lam):
        for dist, _ in model.components:
            log_mgf, _, _, _ = tilted_stats(dist.values, dist.probs, lam)
            assert log_mgf >= -1e-13


class TestCumulantDeriv:
    def test_zero(self):
        m = rademacher_model(10)
        assert abs(cumulant_deriv(m, 0.0)) <= 1e-12

    def test_rademacher_closed_form(self):
        m = rademacher_model(23)
        for lam in np.linspace(0.05, 4, 30):
            assert cumulant_deriv(m, lam) == pytest.approx(23 * math.tanh(lam), rel=1e-13)

    def test_central_difference(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(10):
            m = random_model(rng, 5, 60)
            for lam in np.linspace(h, 3, 15):
                fd = (cumulant(m, lam + h) - cumulant(m, lam - h)) / (2 * h)
                assert fd == pytest.approx(cumulant_deriv(m, lam), abs=50 * m.n * h * h, rel=1e-7)

    def test_nondecreasing(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 5, 60)
        vals = [cumulant_deriv(m, lam) for lam in np.linspace(0, 5, 100)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSaddlepoint:
    def test_x_zero(self):
        sp = solve_saddlepoint(rademacher_model(10), 0.0)
        assert sp.lam == 0.0 and sp.log_bound == 0.0

    def test_rademacher_inverse(self):
        sp = solve_saddlepoint(rademacher_model(100), 1.0)
        assert sp.lam == pytest.approx(ATANH_01, rel=1e-12)

    def test_boundary_raises(self):
        m = rademacher_model(10)
        with pytest.raises(NoSaddlepointError):
            solve_target(m, 10.0)
        with pytest.raises(NoSaddlepointError):
            solve_target(m, 12.0)

    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    def test_rademacher_atanh_grid(self, n):
        m = rademacher_model(n)
        fracs = [1e-4, 0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999]
        for f, sp in zip(fracs, solve_targets(m, [f * n for f in fracs])):
            assert sp.lam == pytest.approx(math.atanh(f), rel=1e-10, abs=0)

    @pytest.mark.parametrize("scale", [1, 5])
    def test_mixed_model_against_mpmath(self, scale):
        m = mixed_model(scale)
        targets = [x * m.sigma for x in (0.05, 0.5, 1.0, 2.0, 3.0, 6.0)]
        targets += [f * m.max_support for f in (0.5, 0.9, 0.99)]
        for t, sp in zip(targets, solve_targets(m, targets)):
            assert float(mp_saddle(m, t, sp.lam)) == pytest.approx(sp.lam, rel=1e-10, abs=0)

    def test_residual_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_model(rng, 10, 200)
            target = 0.97 * m.max_support * rng.random()
            sp = solve_target(m, target)
            assert abs(cumulant_deriv(m, sp.lam) - target) <= 1e-12 * max(1.0, target)
            assert sp.log_bound <= 0.0
            assert sp.cumulant_value == cumulant(m, sp.lam)
            assert sp.variance == pytest.approx(tilt(m, sp.lam).variance, rel=1e-12)

    @given(hst.lists(sum_models(), min_size=1, max_size=3),
           hst.lists(hst.floats(0.0, 0.999), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_grid_residual_gate(self, blocks, fracs):
        m = SumModel(tuple(c for b in blocks for c in b.components))
        targets = [f * m.max_support for f in fracs]
        for t, sp in zip(targets, solve_targets(m, targets)):
            assert sp is not None
            assert abs(cumulant_deriv(m, sp.lam) - t) <= 1e-12 * max(1.0, t)

    def test_tiny_target_accepted_at_pass_cap(self):
        # at lam ~ 4e-12 each Newton step is rounding noise of cum' far larger
        # than lam, so no step test is ever met although the residual passes
        # the gate from the first pass; the solve used to report a stall
        a = DiscreteDistribution(((-0.5, 0.096), (-0.25, 0.48), (0.0, 0.2), (0.75, 0.224)))
        b = DiscreteDistribution(((-0.4, 0.4605911330049261), (0.0, 0.3103448275862069),
                                  (0.8, 0.22413793103448276), (1.0, 0.0049261083743842365)))
        m = SumModel(((a, 30), (b, 59)))
        t = 1e-12 * m.max_support
        sp = solve_target(m, t)
        assert abs(cumulant_deriv(m, sp.lam) - t) <= 1e-12
        assert sp.log_bound == 0.0 and 0.0 < sp.lam <= sp.bracket_width

    def test_small_targets_on_wide_model(self):
        # 10^4 summands of +-2.25: below t = 1 the rounding noise of cum' (about
        # eps * 22500) is above 1e-12, so the gate is floored at that noise
        m = SumModel(((DiscreteDistribution(((-2.25, 0.5), (2.25, 0.5))), 10000),))
        targets = 10 ** np.linspace(-6, -0.1, 200)
        sps = solve_targets(m, targets)
        assert all(sp is not None for sp in sps)
        noise = 4 * np.finfo(float).eps * 22500
        with mpmath.workdps(50):
            for t, sp in zip(targets, sps):
                # exact cum'(lam) = 22500 tanh(2.25 lam) at the returned root
                resid = 22500 * mpmath.tanh(mpmath.mpf(2.25) * sp.lam) - mpmath.mpf(t)
                assert abs(float(resid)) <= max(1e-12 * max(1.0, t), noise), t

    def test_batch_matches_scalar_bitwise(self):
        targets = [x * mixed_model().sigma for x in np.linspace(0, 8, 41)]
        targets += [f * mixed_model().max_support for f in (0.5, 0.9, 0.999)]
        batch = solve_targets(mixed_model(), targets)
        for t, sp in zip(targets, batch):
            assert solve_target(mixed_model(), t) == sp   # fresh model: solved alone

    def test_unsolvable_points_do_not_stop_the_batch(self):
        # a block whose atoms sit far below a_max cannot tilt to its sup by
        # lam = 700 / a_max: cum'(cap) < sup, so thresholds in between saturate
        tiny = DiscreteDistribution(((-1e-3, 0.5), (1e-3, 0.5)))
        m = SumModel(((rademacher(), 10), (tiny, 100)))
        sup = m.max_support
        saturated = 10.0 + 0.08
        targets = [1.0, sup, 5.0, 2 * sup, saturated, 0.0]
        got = solve_targets(m, targets)
        assert [sp is None for sp in got] == [False, True, False, True, True, False]
        assert solve_target(m, 1.0) is got[0]   # the scalar API reads the batch
        with pytest.raises(NoSaddlepointError, match="essential sup"):
            solve_target(m, sup)
        with pytest.raises(NoSaddlepointError, match="essential sup"):
            solve_target(m, 2 * sup)
        with pytest.raises(NoSaddlepointError, match="saturates"):
            solve_target(m, saturated)

    def test_invalid_targets_rejected(self):
        m = rademacher_model(10)
        for bad in (-1.0, math.nan):
            with pytest.raises(ParameterError):
                solve_targets(m, [1.0, bad])
            with pytest.raises(ParameterError):
                solve_target(m, bad)

    def test_record_is_per_instance(self):
        text = json.dumps(model_to_dict(mixed_model()))
        a, b = loads_model(text), loads_model(text)
        assert a == b
        t = 2.0 * a.sigma
        sp_a = solve_target(a, t)
        assert solve_target(a, t) is sp_a   # read back from a's record
        assert t not in b.saddlepoint_record
        sp_b = solve_target(b, t)
        assert sp_b == sp_a and sp_b is not sp_a


class TestChernoff:
    def test_x_zero(self):
        assert chernoff_bound(rademacher_model(10), 0.0) == 1.0

    def test_frozen_rademacher_point(self):
        assert chernoff_bound(rademacher_model(100), 1.0) == pytest.approx(
            CHERNOFF_RAD_100_1, rel=1e-12
        )

    @pytest.mark.parametrize("v,n", [(0.25, 20), (1.0, 50), (4.0, 10)])
    def test_extremal_model_attains_hoeffding(self, v, n):
        m = extremal_model(v, n)
        sigma = m.sigma
        for x in np.linspace(0, n / sigma, 40, endpoint=False):
            assert chernoff_log(m, x) == pytest.approx(
                hoeffding_log(x, sigma, n), abs=1e-10, rel=1e-10
            )

    def test_never_beaten_by_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = random_model(rng, 10, 100)
            x = 0.4 * m.max_support / m.sigma * rng.random()
            ch = chernoff_bound(m, x)
            target = x * m.sigma
            grid_vals = [
                math.exp(cumulant(m, lam) - lam * target) for lam in np.linspace(0, 5, 50)
            ]
            assert ch <= min(grid_vals) + 1e-12


class TestFenchelLegendre:
    def test_zero_and_negative(self):
        m = rademacher_model(10)
        assert fenchel_legendre(m, 0.0) == 0.0
        assert fenchel_legendre(m, -0.3) == 0.0

    def test_rademacher_closed_form(self):
        m = rademacher_model(60)
        for y in np.linspace(0.02, 0.9, 30):
            expect = (1 + y) / 2 * math.log1p(y) + (1 - y) / 2 * math.log1p(-y)
            assert fenchel_legendre(m, y) == pytest.approx(expect, rel=1e-11)

    def test_consistency_with_chernoff(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_model(rng, 20, 150)
            x = 0.5 * m.max_support / m.sigma * rng.random()
            rate = fenchel_legendre(m, x * m.sigma / m.n)
            assert math.exp(-m.n * rate) == pytest.approx(chernoff_bound(m, x), rel=1e-12)

    def test_out_of_range(self):
        m = rademacher_model(10)
        with pytest.raises(NoSaddlepointError):
            fenchel_legendre(m, 1.0)
