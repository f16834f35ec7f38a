import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sharptail import (
    DiscreteDistribution,
    SumModel,
    abs_moment,
    check_curvature_condition,
    curvature_condition_from_moments,
    extremal_model,
    hoeffding_extremal,
    load_model,
    loads_model,
    model_from_dict,
    model_to_dict,
    rademacher,
    rademacher_model,
)
from sharptail.errors import ModelError, ParameterError
from sharptail.models import default_lambda_grid, law_scale

from conftest import bounded_dists, sum_models

SKEWED = DiscreteDistribution(((1.0, 0.2), (-0.25, 0.8)))


class TestDiscreteDistribution:
    def test_atoms_sorted_and_merged(self):
        d = DiscreteDistribution(((1.0, 0.25), (-1.0, 0.5), (1.0, 0.25)))
        assert d.atoms == ((-1.0, 0.5), (1.0, 0.5))
        assert d.lower == -1.0 and d.upper == 1.0

    def test_rejects_single_atom(self):
        with pytest.raises(ModelError, match="2 distinct atoms"):
            DiscreteDistribution(((0.5, 0.5), (0.5, 0.5)))

    def test_rejects_bad_prob_sum(self):
        with pytest.raises(ModelError, match="sum to"):
            DiscreteDistribution(((1.0, 0.6), (-1.0, 0.6)))

    def test_rejects_nonpositive_prob(self):
        with pytest.raises(ModelError, match="strictly positive"):
            DiscreteDistribution(((1.0, 1.0), (-1.0, 0.0)))

    def test_rejects_off_center_without_recentering(self):
        with pytest.raises(ModelError, match="never auto-centered"):
            DiscreteDistribution(((1.0, 0.6), (-1.0, 0.4)))

    def test_rejects_infinite_value(self):
        with pytest.raises(ModelError, match="finite"):
            DiscreteDistribution(((math.inf, 0.5), (-1.0, 0.5)))

    def test_variance(self):
        assert rademacher().variance == 1.0
        assert SKEWED.variance == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("k", [-30, 0, 20, 40])
    def test_mean_gate_reads_the_scale(self, k):
        # recentred exactly, {-0.6, 0.2, 0.8} with weights 9:7:5 has a float
        # mean of 1.4e-17; at 2^20 that is 1.5e-11, past an absolute 1e-12
        atoms = ((-0.6 * 2.0**k, 9 / 21), (0.2 * 2.0**k, 7 / 21), (0.8 * 2.0**k, 5 / 21))
        assert law_scale([v for v, _ in atoms]) == 2.0**k * 0.5
        assert DiscreteDistribution(atoms).variance > 0
        with pytest.raises(ModelError, match="never auto-centered"):
            DiscreteDistribution(((-0.6 * 2.0**k, 9 / 21 - 1e-11), (0.2 * 2.0**k, 7 / 21),
                                  (0.8 * 2.0**k, 5 / 21 + 1e-11)))

    def test_law_scale_is_a_power_of_two(self):
        assert [law_scale(v) for v in ([-1.0, 1.0], [-0.75, 1.5], [3.0, -4.0], [5e-324, -1e-323])] \
            == [1.0, 1.0, 4.0, 1e-323]

    def test_rejects_one_sided_support(self):
        # off-center by 1e-13, inside the mean gate, but never centered
        with pytest.raises(ModelError, match="lower < 0 < upper"):
            DiscreteDistribution(((-1.0, 1e-13), (0.0, 1 - 1e-13)))

    @pytest.mark.parametrize("scale,variance", [(2.0**-560, "0.000e+00"), (1e200, "inf")])
    def test_rejects_variance_not_positive_and_finite(self, scale, variance):
        # 2^-560 squares to 0; 1e200 squares to inf
        with pytest.raises(ModelError, match=re.escape(f"variance is {variance}; it must be")):
            DiscreteDistribution(((-scale, 0.5), (scale, 0.5)))


class TestAbsMoment:
    def test_rademacher_third(self):
        assert abs_moment(rademacher(), 3) == 1.0

    def test_rademacher_second(self):
        assert abs_moment(rademacher(), 2) == 1.0

    def test_skewed_second(self):
        # 0.2 * 1 + 0.8 * 0.0625
        assert abs_moment(SKEWED, 2) == pytest.approx(0.25, rel=1e-14)

    def test_order_below_one_rejected(self):
        with pytest.raises(ParameterError):
            abs_moment(rademacher(), 0.5)


class TestHoeffdingExtremal:
    def test_v_one_is_rademacher(self):
        d = hoeffding_extremal(1.0)
        assert d.atoms == ((-1.0, 0.5), (1.0, 0.5))

    def test_quarter(self):
        d = hoeffding_extremal(0.25)
        (lo_v, lo_p), (hi_v, hi_p) = d.atoms
        assert (lo_v, hi_v) == (-0.25, 1.0)
        assert lo_p == pytest.approx(0.8, abs=1e-14)
        assert hi_p == pytest.approx(0.2, abs=1e-14)

    def test_variance_is_v(self):
        assert hoeffding_extremal(1.0).variance == pytest.approx(1.0, rel=1e-13)

    def test_invalid_v(self):
        with pytest.raises(ParameterError):
            hoeffding_extremal(0.0)
        with pytest.raises(ParameterError):
            hoeffding_extremal(-2.0)

    @given(hst.floats(min_value=1e-6, max_value=1e6))
    def test_mean_zero_variance_v(self, v):
        d = hoeffding_extremal(v)
        mean = float(np.dot(d.probs, d.values))
        assert abs(mean) <= 1e-12
        assert d.variance == pytest.approx(v, rel=1e-12)


class TestSumModel:
    def test_counts_and_sigma(self):
        m = rademacher_model(100)
        assert m.n == 100
        assert m.sigma2 == 100.0
        assert m.a_max == 1.0
        assert m.max_support == 100.0

    def test_mixed_components(self):
        m = SumModel(((rademacher(), 3), (SKEWED, 2)))
        assert m.n == 5
        assert m.sigma2 == pytest.approx(3 * 1.0 + 2 * 0.25, rel=1e-15)
        assert m.lower_min == -1.0

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ModelError, match="positive integer"):
            SumModel(((rademacher(), 0),))

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            SumModel(())

    def test_rejects_infinite_sigma2(self):
        wide = DiscreteDistribution(((-1e154, 0.5), (1e154, 0.5)))  # variance 1e308
        with pytest.raises(ModelError, match="sigma\\^2 is inf; it must be positive and finite"):
            SumModel(((wide, 2),))


class TestMomentProfile:
    def test_rademacher(self):
        m = rademacher_model(7)
        assert m.b_ratio == 1.0
        assert m.abs_moment_sum(3.0) == 7.0

    def test_skewed_ratio(self):
        m = SumModel(((SKEWED, 4),))
        # E|xi|^3 = 0.2 + 0.8/64 = 0.2125, over E xi^2 = 0.25
        assert m.b_ratio == pytest.approx(0.85, rel=1e-13)
        assert m.abs_moment_sum(3.0) == pytest.approx(4 * 0.2125, rel=1e-14)

    @given(bounded_dists())
    @settings(max_examples=150, deadline=None)
    def test_jensen_moment_ordering(self, dist):
        # (E xi^2)^((2+delta)/2) <= E|xi|^(2+delta)
        for delta in (0.5, 1.0):
            lhs = dist.variance ** ((2 + delta) / 2)
            assert lhs <= abs_moment(dist, 2 + delta) * (1 + 1e-12)


class TestCurvatureCondition:
    def test_rademacher_grid(self):
        rep = check_curvature_condition(rademacher_model(5), 1.0)
        assert rep.holds

    def test_margin_zero_at_lambda_zero(self):
        # n (cosh lam - 1 + lam) is least at lam = 0, the grid's first tilt
        rep = check_curvature_condition(rademacher_model(3), 1.0)
        assert rep.worst_margin == 0.0
        assert rep.worst_lambda == 0.0

    def test_skewed_with_ratio_constant(self):
        m = SumModel(((SKEWED, 10),))
        rep = check_curvature_condition(m, m.b_ratio)
        assert rep.holds

    def test_sufficient_criterion(self):
        m = SumModel(((SKEWED, 10),))
        assert curvature_condition_from_moments(m, m.b_ratio)
        assert not curvature_condition_from_moments(m, m.b_ratio * 0.9)

    @pytest.mark.parametrize("B", [math.inf, math.nan, 0.0, -1.0])
    def test_b_not_positive_and_finite(self, B):
        # 10 / inf = 0 ended numpy's geometric grid with a ValueError
        with pytest.raises(ParameterError, match="B must be positive and finite"):
            default_lambda_grid(B)
        with pytest.raises(ParameterError, match="B must be positive and finite"):
            check_curvature_condition(rademacher_model(3), B)

    @pytest.mark.parametrize("B", [2.0**-30, 0.75, 1.0, 3.0, 1e9, 2.0**60])
    def test_default_grid_is_in_units_of_one_over_b(self, B):
        # B lam runs from 1e-6 to 10 whatever B, so it never runs backwards
        grid = default_lambda_grid(B)
        assert grid[0] == 0.0 and grid.size == 201
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == 10.0 / B
        if math.frexp(B)[0] == 0.5:  # a power of two scales the grid exactly
            assert (grid * B).tolist() == default_lambda_grid(1.0).tolist()

    @given(sum_models())
    @settings(max_examples=100, deadline=None)
    def test_holds_with_ratio_constant(self, model):
        rep = check_curvature_condition(model, model.b_ratio)
        assert rep.holds, (rep.worst_margin, rep.worst_lambda)


class TestJsonInterface:
    def test_round_trip(self, tmp_path):
        m = SumModel(((SKEWED, 3), (rademacher(), 2)))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(m)))
        again = load_model(path)
        assert again == m

    def test_reports_first_violation_with_path(self):
        bad = {"components": [
            {"atoms": [[1.0, 0.5], [-1.0, 0.5]], "multiplicity": 2},
            {"atoms": [[1.0, 0.9], [-1.0, 0.2]], "multiplicity": 1},
        ]}
        with pytest.raises(ModelError, match=r"components\[1\]"):
            model_from_dict(bad)

    def test_syntax_error_carries_line(self):
        with pytest.raises(ModelError, match="line"):
            loads_model('{"components": [}')

    def test_bad_multiplicity(self):
        with pytest.raises(ModelError, match="multiplicity"):
            model_from_dict({"components": [{"atoms": [[1, 0.5], [-1, 0.5]], "multiplicity": 0}]})

    def test_bad_atom_pair(self):
        with pytest.raises(ModelError, match=r"atoms\[0\]"):
            model_from_dict({"components": [{"atoms": [[1, 0.5, 3]], "multiplicity": 1}]})

    def test_extremal_round_trip_values(self):
        m = extremal_model(0.25, 3)
        d = model_to_dict(m)
        assert d["components"][0]["multiplicity"] == 3
        assert d["components"][0]["atoms"][0][0] == -0.25
