import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sharptail import (
    DiscreteDistribution,
    SumModel,
    bentkus_bound,
    build_lattice,
    exact_tail,
    expansion_interval,
    extremal_model,
    hoeffding_extremal,
    log_concave_hull,
    mc_tail,
    rademacher_model,
    tilted_mc_tail,
)
from sharptail.errors import HypothesisError, ParameterError, UnsupportedModelError
from sharptail.oracle import (
    _binomial_masses,
    _component_rng,
    _fold_strided,
    _lattice_layout,
    convolve_repeat,
)

from conftest import random_bounded_dist


def enumerate_tail(model, threshold, strict):
    """Brute-force oracle: expand every outcome of every summand."""
    pools = []
    for dist, mult in model.components:
        pools.extend([list(dist.atoms)] * mult)
    total = Fraction(0)
    thr = Fraction(threshold)
    for combo in itertools.product(*pools):
        s = sum(Fraction(v) for v, _ in combo)
        p = math.prod(pr for _, pr in combo)
        if (s > thr) if strict else (s >= thr):
            total += Fraction(p)
    return float(total)


class TestExactTail:
    def test_rademacher_small(self):
        m = rademacher_model(4)
        assert exact_tail(m, 2.0, strict=False).p == 5 / 16
        assert exact_tail(m, 2.0, strict=True).p == 1 / 16

    def test_full_mass_below_support(self):
        m = rademacher_model(5)
        assert exact_tail(m, -6.0, strict=False).p == 1.0

    def test_zero_above_support(self):
        m = rademacher_model(5)
        assert exact_tail(m, 5.0, strict=True).p == 0.0
        assert exact_tail(m, 5.0, strict=False).p == 2.0 ** -5

    def test_extremal_enumeration(self):
        m = extremal_model(0.25, 3)
        # off-lattice threshold: strict and non-strict coincide at 13/125
        assert exact_tail(m, 1.5, strict=False).p == pytest.approx(13 / 125, abs=1e-15)
        assert exact_tail(m, 1.5, strict=True).p == pytest.approx(13 / 125, abs=1e-15)

    def test_random_models_vs_enumeration(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            dist = random_bounded_dist(rng, max_atoms=3)
            n = int(rng.integers(1, 6))
            m = SumModel(((dist, n),))
            lat = build_lattice(m)
            for thr in rng.uniform(float(m.min_support), float(m.max_support), size=4):
                for strict in (True, False):
                    assert lat.tail(thr, strict) == pytest.approx(
                        enumerate_tail(m, thr, strict), abs=1e-13
                    )

    def test_multi_component_vs_enumeration(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            m = SumModel((
                (random_bounded_dist(rng, max_atoms=3), int(rng.integers(1, 4))),
                (random_bounded_dist(rng, max_atoms=2), int(rng.integers(1, 4))),
            ))
            lat = build_lattice(m)
            for thr in rng.uniform(float(m.min_support), float(m.max_support), size=3):
                for strict in (True, False):
                    assert lat.tail(thr, strict) == pytest.approx(
                        enumerate_tail(m, thr, strict), abs=1e-13
                    )

    def test_monotone_in_threshold(self):
        m = SumModel(((hoeffding_extremal(0.5), 30),))
        lat = build_lattice(m)
        thrs = np.linspace(-16, 31, 200)
        vals = [lat.tail(t, strict=True) for t in thrs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_strict_vs_nonstrict_on_lattice_point(self):
        m = rademacher_model(10)
        lat = build_lattice(m)
        gap = lat.tail(4.0, strict=False) - lat.tail(4.0, strict=True)
        # the gap is exactly the point mass at 4
        k = round((4 - lat.base * float(lat.step)) / float(lat.step))
        assert gap == pytest.approx(lat.masses[k], rel=1e-12)

    def test_mass_drift_within_budget(self):
        lat = build_lattice(rademacher_model(10**4))
        assert lat.mass_drift <= 1e-9

    def test_estimate_metadata(self):
        est = exact_tail(rademacher_model(3), 1.0, True)
        assert est.method == "exact" and est.stderr == 0.0
        assert est.to_dict()["p"] == est.p

    def test_lattice_too_large_rejected(self):
        big = SumModel(((hoeffding_extremal(Fraction(1, 999983)), 300),))
        with pytest.raises(UnsupportedModelError):
            build_lattice(big)

    def test_infinite_and_nan_thresholds(self):
        m = extremal_model(0.25, 7)
        assert exact_tail(m, math.inf).p == 0.0
        assert exact_tail(m, -math.inf, strict=False).p == 1.0
        with pytest.raises(ParameterError):
            exact_tail(m, math.nan)

    def test_quantization_reported(self):
        a = 0.1 * math.pi  # no small-denominator rational equals this float
        d = DiscreteDistribution(((a, 0.5), (-a, 0.5)))
        lat = build_lattice(SumModel(((d, 3),)))
        assert 0.0 < lat.quantization_error < 1e-11


def two_atom_repeat(masses, span, probs, times):
    """The two-atom lattice path: a binomial laid on stride `span`."""
    return _fold_strided(np.asarray(masses, dtype=float),
                         _binomial_masses(probs[0], probs[1], times), span)


def shift_add_lattice(model):
    """Reference lattice masses: every block folded by shift-add."""
    _, layouts, _ = _lattice_layout([(d.values, d.probs, m) for d, m in model.components])
    masses = np.ones(1)
    for offsets, probs, mult in layouts:
        masses = convolve_repeat(masses, offsets - offsets[0], probs, mult)
    return masses


class TestKernelBackends:
    def test_backends_agree(self):
        # the binomial two-atom path against the shift-add reference
        rng = np.random.default_rng(10)
        for _ in range(40):
            span = int(rng.integers(1, 12))
            probs = rng.dirichlet(np.ones(2))
            start = rng.dirichlet(np.ones(int(rng.integers(1, 40))))
            times = int(rng.integers(0, 60))
            a = two_atom_repeat(start, span, probs, times)
            b = convolve_repeat(start, np.array([0, span]), probs, times)
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-12, atol=1e-300)

    def test_kernel_mass_conservation(self):
        offsets = np.array([0, 2], dtype=np.int64)
        probs = np.array([0.5, 0.5])
        for out in (convolve_repeat(np.ones(1), offsets, probs, 10**4),
                    two_atom_repeat(np.ones(1), 2, probs, 10**4)):
            assert abs(math.fsum(out) - 1.0) <= 1e-9

    def test_rademacher_masses_exact(self):
        n = 10**4
        masses = build_lattice(rademacher_model(n)).masses
        exact, c = [], 1
        for k in range(n + 1):
            exact.append(c / 2**n)  # correctly rounded big-int division
            c = c * (n - k) // (k + 1)
        exact = np.array(exact)
        assert np.all(masses[1::2] == 0.0)
        assert np.allclose(masses[0::2], exact, rtol=1e-13, atol=1e-300)

    def test_skewed_binomial_against_50_digits(self):
        m = 4 * 10**4
        ks = np.linspace(0, m, 201).astype(int)
        for p in (0.2, 1 / 3, 0.9):
            q = 1.0 - p
            masses = _binomial_masses(q, p, m)
            with mpmath.workdps(50):
                exact = np.array([float(mpmath.binomial(m, int(k)) * mpmath.mpf(q)**(m - int(k))
                                        * mpmath.mpf(p)**int(k)) for k in ks])
            live = exact > 1e-290
            assert np.allclose(masses[ks][live], exact[live], rtol=1e-13, atol=0.0)

    def test_mixed_blocks_match_shift_add(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = SumModel((
                (random_bounded_dist(rng, max_atoms=2), int(rng.integers(1, 80))),
                (hoeffding_extremal(float(rng.choice([0.25, 0.5, 0.8]))), int(rng.integers(1, 80))),
                (random_bounded_dist(rng, max_atoms=4), int(rng.integers(1, 30))),
            ))
            lat = build_lattice(m)
            ref = shift_add_lattice(m)
            assert lat.masses.shape == ref.shape
            assert np.allclose(lat.masses, ref, rtol=1e-12, atol=1e-300)

    def test_tail_is_fsum_of_masses(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = SumModel(((random_bounded_dist(rng, max_atoms=4), int(rng.integers(1, 60))),))
            lat = build_lattice(m)
            for k in rng.integers(1, len(lat), size=5):
                # halfway between lattice points k - 1 and k
                thr = float((lat.base + k - Fraction(1, 2)) * lat.step)
                for strict in (True, False):
                    assert lat.tail(thr, strict) == min(1.0, math.fsum(lat.masses[k:]))

    def test_suffix_sums_match_fsum(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            m = SumModel(((random_bounded_dist(rng), int(rng.integers(40, 120))),))
            lat = build_lattice(extremal_model(m.sigma2 / m.n, m.n))
            masses = lat.masses
            nz = np.flatnonzero(masses)
            nz_vals = masses[nz].tolist()
            nz_suffix = [math.fsum(nz_vals[j:]) for j in range(len(nz))] + [0.0]
            ref = np.minimum(np.array(nz_suffix)[np.searchsorted(nz, np.arange(len(masses)))], 1.0)
            assert np.allclose(lat.suffix_sums, ref, rtol=1e-12, atol=0.0)


class TestMonteCarlo:
    def test_seed_determinism(self):
        m = rademacher_model(50)
        a = mc_tail(m, 5.0, True, 2000, 123)
        b = mc_tail(m, 5.0, True, 2000, 123)
        assert a == b
        c = mc_tail(m, 5.0, True, 2000, 124)
        assert c.p != a.p or c.seed != a.seed

    def test_below_support_hits_everything(self):
        m = rademacher_model(20)
        est = mc_tail(m, -30.0, False, 500, 1)
        assert est.p == 1.0 and est.stderr == 0.0

    def test_against_exact_binomial(self):
        m = rademacher_model(100)
        exact = build_lattice(m).tail(10.0, strict=False)
        est = mc_tail(m, 10.0, False, 10**6, 2024)
        assert abs(est.p - exact) <= 4 * est.stderr

    def test_invalid_samples(self):
        with pytest.raises(ParameterError):
            mc_tail(rademacher_model(5), 0.0, True, 0, 1)

    def test_stream_split_rule(self):
        # the documented rule: component ci draws from Philox key (seed, ci)
        r0 = _component_rng(7, 0).integers(0, 2**31)
        r1 = _component_rng(7, 1).integers(0, 2**31)
        again = _component_rng(7, 0).integers(0, 2**31)
        assert r0 == again and r0 != r1


class TestTiltedMonteCarlo:
    def test_reduces_to_plain_at_zero_threshold(self):
        m = rademacher_model(30)
        a = tilted_mc_tail(m, 0.0, True, 5000, 9)
        b = mc_tail(m, 0.0, True, 5000, 9)
        assert a.p == b.p
        assert a.lam == 0.0

    def test_matches_exact_across_thresholds(self):
        m = rademacher_model(400)
        lat = build_lattice(m)
        for x in (1, 2, 3, 4):
            est = tilted_mc_tail(m, 20.0 * x, True, 10**5, 31 + x)
            exact = lat.tail(20.0 * x, True)
            assert abs(est.p - exact) <= 4 * est.stderr, (x, est.p, exact, est.stderr)

    def test_variance_advantage_at_three_sigma(self):
        m = rademacher_model(400)
        tilted = tilted_mc_tail(m, 60.0, True, 10**5, 5)
        plain = mc_tail(m, 60.0, True, 10**5, 5)
        assert tilted.stderr / tilted.p <= 0.01
        # plain MC at p ~ 1.1e-3 is an order of magnitude noisier
        assert plain.p == 0.0 or plain.stderr / plain.p >= 5 * tilted.stderr / tilted.p

    def test_plain_mc_starves_at_four_sigma(self):
        m = rademacher_model(400)
        plain = mc_tail(m, 80.0, True, 10**5, 5)
        hits = round(plain.p * 10**5)
        assert hits <= 20
        assert plain.p == 0.0 or plain.stderr / plain.p >= 0.2

    def test_weights_recorded(self):
        est = tilted_mc_tail(rademacher_model(100), 20.0, True, 1000, 3)
        assert est.method == "tilted_mc"
        assert est.lam == pytest.approx(math.atanh(0.2), rel=1e-10)

    def test_regression_models_agree_with_exact(self):
        # both samplers against the exact oracle on a mixed-block model
        rng = np.random.default_rng(55)
        m = SumModel(((hoeffding_extremal(0.5), 60), (random_bounded_dist(rng), 40)))
        lat = build_lattice(m)
        thr = 1.2 * m.sigma
        exact = lat.tail(thr, True)
        plain = mc_tail(m, thr, True, 10**5, 8)
        tilted = tilted_mc_tail(m, thr, True, 10**5, 8)
        assert abs(plain.p - exact) <= 4 * plain.stderr
        assert abs(tilted.p - exact) <= 4 * tilted.stderr


def chain_hull(t):
    """Reference hull: the monotone chain over every positive point."""
    t = np.asarray(t, dtype=float)
    pos = np.flatnonzero(t > 0.0)
    if pos.size == 0:
        return t.copy()
    hx, hy = [], []
    for x, y in zip(pos.astype(float), np.log(t[pos])):
        while len(hx) >= 2 and (
                (hy[-1] - hy[-2]) * (x - hx[-2]) <= (y - hy[-2]) * (hx[-1] - hx[-2])):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    out = t.copy()
    i0, i1 = int(pos[0]), int(pos[-1])
    grid = np.arange(i0, i1 + 1, dtype=float)
    out[i0:i1 + 1] = np.maximum(out[i0:i1 + 1], np.exp(np.interp(grid, hx, hy)))
    return out


class TestLogConcaveHull:
    def test_matches_unfiltered_chain(self):
        rng = np.random.default_rng(78)
        cases = [np.array([0.5, 0.2]), np.array([0.0, 0.3, 0.0]),
                 build_lattice(extremal_model(0.25, 40)).suffix_sums]
        for _ in range(60):
            size = int(rng.integers(1, 80))
            t = rng.uniform(0, 1, size=size)
            cases.append(t)
            # step-shaped tails: plateaus of random length
            steps = np.sort(rng.uniform(0, 1, size=size))[::-1]
            cases.append(np.repeat(steps, rng.integers(1, 6, size=size)))
            holes = t.copy()
            holes[rng.integers(0, size, size=max(1, size // 4))] = 0.0
            cases.append(holes)
        for t in cases:
            assert np.allclose(log_concave_hull(t), chain_hull(t), rtol=1e-12, atol=0.0)

    def test_already_log_concave_unchanged(self):
        t = 0.8 ** np.arange(10)  # geometric tails are log-linear
        assert np.allclose(log_concave_hull(t), t, rtol=1e-14)

    def test_chord_fill(self):
        out = log_concave_hull([1.0, 0.1, 0.5])
        assert out == pytest.approx([1.0, math.sqrt(0.5), 0.5], rel=1e-14)

    def test_all_equal(self):
        t = np.full(7, 0.3)
        assert np.array_equal(log_concave_hull(t), t)

    def test_zeros_outside_positive_range_stay(self):
        out = log_concave_hull([0.0, 0.5, 0.1, 0.2, 0.0])
        assert out[0] == 0.0 and out[-1] == 0.0
        assert out[2] == pytest.approx(math.sqrt(0.5 * 0.2), rel=1e-14)

    def test_idempotent_dominating_concave(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            t = rng.uniform(0, 1, size=int(rng.integers(2, 50)))
            if rng.random() < 0.3:
                t[rng.integers(0, len(t))] = 0.0
            h = log_concave_hull(t)
            assert np.all(h >= t)
            assert np.allclose(log_concave_hull(h), h, rtol=1e-12, atol=1e-300)
            mask = (h[1:-1] > 0) & (h[:-2] > 0) & (h[2:] > 0)
            if mask.any():
                assert np.all(
                    (h[1:-1] ** 2)[mask] >= (h[:-2] * h[2:])[mask] * (1 - 1e-9)
                )

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            log_concave_hull([0.5, 1.5])
        with pytest.raises(ParameterError):
            log_concave_hull([[0.1], [0.2]])


def bentkus_from_full_hull(model, x):
    """bentkus_bound by interpolating the whole log_concave_hull array."""
    lat = build_lattice(extremal_model(model.sigma2 / model.n, model.n))
    hull = log_concave_hull(lat.suffix_sums)
    target, vals = x * model.sigma, lat.values
    if target <= vals[0]:
        return 1.0
    if target > vals[-1]:
        return 0.0
    j = int(np.searchsorted(vals, target, side="right")) - 1
    if j >= len(vals) - 1:
        hull_at = float(hull[-1])
    else:
        lo, hi = float(hull[j]), float(hull[j + 1])
        w = (target - vals[j]) / (vals[j + 1] - vals[j])
        if lo <= 0.0 or hi <= 0.0:
            hull_at = 0.0 if w > 0 else lo
        else:
            hull_at = math.exp((1.0 - w) * math.log(lo) + w * math.log(hi))
    return min(1.0, 0.5 * math.e**2 * hull_at)


class TestBentkus:
    def test_matches_full_hull_interpolation(self):
        rng = np.random.default_rng(67)
        models = [rademacher_model(100), extremal_model(0.25, 30)]
        models += [SumModel(((random_bounded_dist(rng), int(rng.integers(20, 80))),))
                   for _ in range(3)]
        for m in models:
            top = float(m.max_support) / m.sigma
            for x in list(np.linspace(0.0, top, 23)) + [top, top * 1.01]:
                assert bentkus_bound(m, x) == pytest.approx(
                    bentkus_from_full_hull(m, x), rel=1e-12, abs=0.0)

    def test_at_zero_capped(self):
        assert bentkus_bound(rademacher_model(100), 0.0) == 1.0

    def test_dominates_exact_tails(self):
        m = rademacher_model(100)
        lat = build_lattice(m)
        for x in np.linspace(0, 3, 31):
            assert bentkus_bound(m, x) >= lat.tail(x * 10.0, strict=False)

    def test_ratio_to_expansion_upper_approaches_e2_over_2(self):
        # for +/-1 sums the reference law is the model itself and its tail is
        # already log-concave, so as the expansion band shrinks the ratio
        # climbs toward e^2/2 from below (the limit is only reached as n -> inf)
        target = 0.5 * math.e**2
        ratios = []
        for n in (400, 2500, 10**4):
            m = rademacher_model(n)
            ratios.append(bentkus_bound(m, 1.0) / expansion_interval(m, 1.0, 1.0).upper)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < target * 1.05 for r in ratios)
        assert abs(ratios[-1] - target) < abs(ratios[0] - target)

    def test_hypothesis_gate(self):
        wide = DiscreteDistribution(((2.0, 0.2), (-0.5, 0.8)))
        with pytest.raises(HypothesisError):
            bentkus_bound(SumModel(((wide, 5),)), 1.0)

    def test_dominates_generic_lattice_models(self):
        # reference variance sigma^2/n need not be a nice rational: the
        # quantized two-point lattice must still dominate comfortably
        rng = np.random.default_rng(66)
        for _ in range(5):
            m = SumModel(((random_bounded_dist(rng), int(rng.integers(40, 120))),))
            lat = build_lattice(m)
            for x in np.linspace(0.0, 2.5, 11):
                assert bentkus_bound(m, x) >= lat.tail(x * m.sigma, strict=False)
