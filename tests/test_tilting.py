import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from sharptail import (
    DiscreteDistribution,
    SumModel,
    berry_esseen_tilted,
    build_lattice,
    build_tilted_lattice,
    extremal_model,
    inequality_suite,
    load_model,
    rademacher,
    rademacher_model,
    tilt,
)
import sharptail
from sharptail import oracle, tilting
from sharptail._normal import ndtr
from sharptail._tiltmath import packed_cumulants, tilted_stats
from sharptail.errors import NumericalError, ParameterError

from conftest import bounded_dists, random_model, sum_models
from golden import capture

SKEWED = DiscreteDistribution(((1.0, 0.2), (-0.25, 0.8)))


class TestTilt:
    def test_identity_at_zero(self):
        m = SumModel(((SKEWED, 5), (rademacher(), 3)))
        state = tilt(m, 0.0)
        for (dist, _), tc in zip(m.components, state.components):
            assert np.array_equal(tc.probs, dist.probs)
        assert abs(state.mean) <= 1e-12
        assert state.variance == m.sigma2  # bitwise: same summation path

    def test_rademacher_closed_form(self):
        m = rademacher_model(4)
        for lam in (0.3, 1.0, 2.5):
            state = tilt(m, lam)
            z = math.exp(lam) + math.exp(-lam)
            tc = state.components[0]
            assert tc.probs[1] == pytest.approx(math.exp(lam) / z, rel=1e-14)
            assert tc.probs[0] == pytest.approx(math.exp(-lam) / z, rel=1e-14)
            assert state.mean == pytest.approx(4 * math.tanh(lam), rel=1e-13)
            assert state.variance == pytest.approx(4 / math.cosh(lam) ** 2, rel=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            tilt(rademacher_model(2), -1.0)

    def test_mean_matches_exact_convolution(self):
        m = SumModel(((SKEWED, 6), (rademacher(), 4)))
        for lam in (0.0, 0.2, 1.1):
            state = tilt(m, lam)
            lat = build_tilted_lattice(m, lam)
            conv_mean = float(np.dot(lat.masses, lat.values))
            assert conv_mean == pytest.approx(state.mean, abs=1e-10 * max(1, m.n))

    def test_variance_cross_check_fires(self, monkeypatch):
        def skewed_variance(values, probs, lam):
            log_mgf, mean, var, tp = tilted_stats(values, probs, lam)
            return log_mgf, mean, var * (1 + 1e-6), tp

        monkeypatch.setattr(tilting, "tilted_stats", skewed_variance)
        with pytest.raises(NumericalError, match="cross-check"):
            tilt(rademacher_model(4), 0.5)

    def test_variance_cross_check_survives_optimize_flag(self):
        # the check must not be an assert: python -O strips those
        code = (
            "import sharptail\n"
            "from sharptail import tilting\n"
            "from sharptail.errors import NumericalError\n"
            "real = tilting.tilted_stats\n"
            "def skewed(v, p, lam):\n"
            "    lm, mean, var, tp = real(v, p, lam)\n"
            "    return lm, mean, var * (1 + 1e-6), tp\n"
            "tilting.tilted_stats = skewed\n"
            "try:\n"
            "    tilting.tilt(sharptail.rademacher_model(4), 0.5)\n"
            "except NumericalError:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(sharptail.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"

    @given(sum_models(n_max=20), hst.floats(0, 2), hst.floats(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_group_action(self, model, a, b):
        # tilting by a then b equals tilting by a+b
        for dist, _ in model.components:
            _, _, _, p_a = tilted_stats(dist.values, dist.probs, a)
            _, _, _, p_ab = tilted_stats(dist.values, p_a, b)
            _, _, _, p_sum = tilted_stats(dist.values, dist.probs, a + b)
            assert np.allclose(p_ab, p_sum, rtol=5e-13, atol=1e-15)


class TestInequalitySuite:
    def test_rademacher_all_hold(self):
        m = rademacher_model(25)
        rep = inequality_suite(m, 1.0)
        assert all(c.applicable for c in rep.checks)
        assert rep.all_hold

    def test_lambda_zero_margins(self):
        rep = inequality_suite(rademacher_model(10), 1.0)
        assert rep.all_hold
        # both sides of the tilted-mean envelope collapse to 0 at lam = 0,
        # the suite grid's first tilt
        assert rep["tilted_mean_two_sided"].worst_margin == pytest.approx(0.0, abs=1e-15)
        assert rep["tilted_mean_two_sided"].worst_lambda == 0.0

    @pytest.mark.parametrize("v", [0.25, 1.0, 4.0])
    def test_extremal_attains_two_point_cap(self, v):
        # the two-point MGF cap is met with equality by the extremal law
        m = extremal_model(v, 8)
        B = max(1.0, v)
        rep = inequality_suite(m, B)
        chk = rep["mgf_two_point"]
        assert chk.applicable and chk.holds
        assert abs(chk.worst_margin) <= 1e-10

    def test_hypothesis_gates(self):
        wide = DiscreteDistribution(((2.0, 0.2), (-0.5, 0.8)))  # upper = 2
        m = SumModel(((wide, 5),))
        rep = inequality_suite(m, 1.0)
        assert not rep["mgf_two_point"].applicable
        assert not rep["tilted_mean_lower"].applicable
        assert not rep["mgf_gaussian"].applicable
        assert "xi_i <= 1" in rep["mgf_two_point"].reason

    def test_subvariance_gate(self):
        # skewed law has upper = 1 > sigma_i = 0.5, so the quadratic cumulant
        # cap must be skipped; rademacher has upper = sigma_i and keeps it
        rep_skew = inequality_suite(SumModel(((SKEWED, 5),)), 0.85)
        assert not rep_skew["cumulant_gaussian"].applicable
        rep_rad = inequality_suite(rademacher_model(5), 1.0)
        assert rep_rad["cumulant_gaussian"].applicable

    def test_json_shape(self):
        rep = inequality_suite(rademacher_model(5), 1.0)
        rows = rep.to_dict()["checks"]
        for row in rows:
            if row.get("skipped"):
                assert "reason" in row
            else:
                assert {"name", "holds", "worst_margin", "worst_lambda"} <= set(row)

    @given(bounded_dists(), hst.integers(1, 50), hst.sampled_from(["a_max", "b_ratio"]),
           hst.sampled_from([1 - 2**-14, 1 - 2**-40, 1.0, 1 + 2**-40, 1 + 2**-14]),
           hst.integers(-40, 40))
    @example(DiscreteDistribution(((1.0, 0.2), (-0.25, 0.8))), 40, "a_max", 1 - 2**-14, -30)
    @settings(max_examples=150, deadline=None)
    def test_gates_are_scale_free(self, dist, n, anchor, factor, k):
        # scaling the atoms and B by 2^k is exact, every hypothesis tolerance
        # is relative, and the mean gate and the curvature grid read the
        # law's unit, so each gate decides the same at every scale
        scaled = DiscreteDistribution(tuple((v * 2.0**k, p) for v, p in dist.atoms))
        unit, wide = SumModel(((dist, n),)), SumModel(((scaled, n),))
        B = getattr(unit, anchor) * factor
        rep, rep_k = inequality_suite(unit, B), inequality_suite(wide, B * 2.0**k)
        for name in ["mgf_gaussian", "tilted_variance_lower", "cumulant_gaussian",
                     "tilted_mean_two_sided", "tilted_variance_two_sided"]:
            assert rep[name].applicable == rep_k[name].applicable, name

    def test_infinite_b_still_reports(self):
        # every hypothesis holds at B = inf: the third-moment ratio decides
        # the curvature condition before the grid check, which refuses B = inf
        rep = inequality_suite(SumModel(((SKEWED, 5),)), math.inf)
        assert rep.all_hold
        assert rep["tilted_mean_two_sided"].reason == "overflows float64 on this lambda grid"

    def test_random_models_no_violation(self):
        rng = np.random.default_rng(321)
        for _ in range(150):
            m = random_model(rng, 20, 200)
            rep = inequality_suite(m, m.b_ratio)
            for c in rep.checks:
                assert (not c.applicable) or c.holds, (c.name, c.worst_margin)


class TestBerryEsseenTilted:
    def test_untilted_binomial(self):
        rep = berry_esseen_tilted(rademacher_model(100), 0.0)
        assert rep.bounded_bound == pytest.approx(0.112, rel=1e-12)
        assert rep.holds
        # centered binomial distance to the normal is about 1/sqrt(2 pi n)
        assert rep.sup_distance == pytest.approx(0.0398, abs=0.002)

    def test_tilted_binomial_holds(self):
        rep = berry_esseen_tilted(rademacher_model(400), 0.1)
        assert rep.holds
        # tilted +/-1 variance per summand is sech^2(lam)
        assert rep.sigma_bar == pytest.approx(math.sqrt(400) / math.cosh(0.1), rel=1e-12)

    def test_distance_and_bound_shrink_with_n(self):
        reps = [berry_esseen_tilted(rademacher_model(n), 0.05) for n in (100, 400, 1600)]
        dists = [r.sup_distance for r in reps]
        bounds = [r.bound for r in reps]
        assert dists[0] > dists[1] > dists[2]
        assert bounds[0] > bounds[1] > bounds[2]
        assert all(r.holds for r in reps)

    def test_moment_bound_used_without_two_sided_support(self):
        wide = DiscreteDistribution(((0.5, 0.8), (-2.0, 0.2)))  # lower = -2
        rep = berry_esseen_tilted(SumModel(((wide, 50),)), 0.1)
        assert rep.bounded_bound is None
        assert rep.bound == rep.moment_bound
        assert rep.holds


def _mp_ndtr(y):
    """Phi of every float in y from 40-digit mpmath, rounded to doubles."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.ncdf(v)) for v in y.tolist()])


def _sup_distance(values, cdf, mean, sbar, phi_of=ndtr):
    """The Kolmogorov distance of a lattice CDF from the normal, as
    `berry_esseen_tilted` takes it: both sides of every jump."""
    phi = phi_of((values - mean) / sbar)
    prev = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.abs(cdf - phi).max(), np.abs(phi - prev).max()))


def _direct_report_distance(model, lam):
    """sup_distance read off the directly built tilted lattice."""
    _, mean, var = packed_cumulants(*model.packed_atoms, [lam])[:, 0].tolist()
    lat = build_tilted_lattice(model, lam)
    return _sup_distance(lat.values, np.cumsum(lat.masses), mean, math.sqrt(var))


def _reweighted_cdf(model, lam):
    """The plain lattice's CDF under the exponential tilt lam."""
    cum = packed_cumulants(*model.packed_atoms, [lam])[0, 0]
    lat = build_lattice(model)
    return np.cumsum(lat.masses * np.exp(lam * lat.values - cum))


def _golden_and_benchmark_models():
    models = dict(capture.built_models())
    for name in capture.PERFBENCH_MODELS:
        models[name] = load_model(capture.ROOT / "perfbench" / "models" / f"{name}.json")
    return models


_MODELS = _golden_and_benchmark_models()


def _forbid_builds(monkeypatch):
    """Fail any lattice build from here on."""
    def build(*args):
        raise AssertionError("convolved")
    monkeypatch.setattr(oracle, "_convolve_components", build)


class TestReweightedTiltedCdf:
    @pytest.mark.parametrize("lam", [0.05, 0.1])
    @pytest.mark.parametrize("name", sorted(_MODELS))
    def test_matches_direct_build(self, monkeypatch, name, lam):
        m = _MODELS[name]
        build_lattice(m)
        direct = build_tilted_lattice(m, lam)
        _forbid_builds(monkeypatch)
        rep = berry_esseen_tilted(m, lam)
        cdf, direct_cdf = _reweighted_cdf(m, lam), np.cumsum(direct.masses)
        assert np.abs(cdf - direct_cdf).max() <= 1e-13
        _, mean, _ = packed_cumulants(*m.packed_atoms, [lam])[:, 0].tolist()
        assert rep.sup_distance == _sup_distance(direct.values, cdf, mean, rep.sigma_bar)
        direct_sup = _sup_distance(direct.values, direct_cdf, mean, rep.sigma_bar)
        assert abs(rep.sup_distance - direct_sup) <= 1e-13

    @pytest.mark.parametrize("lam", [0.05, 0.1])
    def test_no_further_from_40_digits_than_direct(self, lam):
        # the tilted atom law to 45 digits, convolved in 140-bit fixed point
        m = _MODELS["five100"]
        (dist, n), = m.components
        bits = 140
        with mpmath.workdps(45):
            w = [mpmath.mpf(p) * mpmath.exp(mpmath.mpf(lam) * mpmath.mpf(v))
                 for v, p in dist.atoms]
            q = [int(mpmath.floor(x / mpmath.fsum(w) * 2**bits)) for x in w]
        # the atoms' offsets on the sum's lattice, as the exact build lays them
        _, [(offsets, _, _)], _ = oracle._lattice_layout([(dist.values, dist.probs, n)])
        masses = np.array([1 << bits], dtype=object)
        for _ in range(n):
            nxt = np.zeros(len(masses) + offsets[-1], dtype=object)
            for off, qk in zip(offsets, q):
                nxt[off:off + len(masses)] += (masses * qk) >> bits
            masses = nxt
        exact = [Fraction(int(c), 1 << bits) for c in np.cumsum(masses)]

        def error(cdf):
            return max(abs(Fraction(c) - e) for c, e in zip(cdf.tolist(), exact))
        direct = error(np.cumsum(build_tilted_lattice(m, lam).masses))
        assert error(_reweighted_cdf(m, lam)) <= direct <= 1e-14

    @pytest.mark.parametrize("model, lam", [
        (rademacher_model(2000), 0.5),  # log U + 760 exceeds 1022 ln 2 = 708
        (SumModel(((DiscreteDistribution(((-0.25 - 2**-40, 0.5), (0.25 + 2**-40, 0.5))),
                    30),)), 0.1),       # quantized: the atoms are snapped to -1/4 and 1/4
    ], ids=["rademacher2000", "quantized"])
    def test_guard_falls_back_to_direct_build(self, monkeypatch, model, lam):
        calls = []
        direct = oracle.build_tilted_lattice
        monkeypatch.setattr(tilting, "build_tilted_lattice",
                            lambda *args: calls.append(args) or direct(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = berry_esseen_tilted(model, lam)
        assert calls == [(model, lam)]
        assert rep.sup_distance == _direct_report_distance(model, lam)

    def test_naive_reweight_breaks_where_the_guard_fails(self):
        # why the guard runs before exp: the top weight overflows
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(_reweighted_cdf(rademacher_model(2000), 0.5)).any()

    @pytest.mark.parametrize("name", sorted(_MODELS))
    def test_zero_tilt_reads_the_plain_masses(self, monkeypatch, name):
        m = _MODELS[name]
        lat = build_lattice(m)
        _forbid_builds(monkeypatch)
        rep = berry_esseen_tilted(m, 0.0)
        _, mean, var = packed_cumulants(*m.packed_atoms, [0.0])[:, 0].tolist()
        assert rep.sup_distance == _sup_distance(lat.values, np.cumsum(lat.masses), mean,
                                                 math.sqrt(var))

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("name", sorted(capture.built_models()))
    def test_normal_side_within_an_ulp_of_40_digits(self, name, lam):
        # the package's Phi is within 2.3e-16 of the correctly rounded one,
        # so the distance moves by at most that plus the subtraction's rounding
        m = _MODELS[name]
        rep = berry_esseen_tilted(m, lam)
        _, mean, _ = packed_cumulants(*m.packed_atoms, [lam])[:, 0].tolist()
        lat = build_lattice(m)
        cdf = np.cumsum(lat.masses) if lam == 0.0 else _reweighted_cdf(m, lam)
        ref = _sup_distance(lat.values, cdf, mean, rep.sigma_bar, phi_of=_mp_ndtr)
        assert abs(rep.sup_distance - ref) <= 2.0**-51
