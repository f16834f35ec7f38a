import bisect
import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from sharptail import (
    DiscreteDistribution,
    SumModel,
    bentkus_bound,
    build_lattice,
    exact_tail,
    expansion_interval,
    extremal_model,
    hoeffding_extremal,
    loads_model,
    log_concave_hull,
    mc_tail,
    model_to_dict,
    rademacher,
    rademacher_model,
    tilted_mc_tail,
)
from sharptail.errors import HypothesisError, ParameterError, UnsupportedModelError
from sharptail import oracle
from sharptail.cli import verify_report
from sharptail.oracle import (
    _MC_CHUNK,
    _TAIL_BLOCK,
    LatticeDistribution,
    _alias_columns,
    _AliasTable,
    _binomial_masses,
    _component_rng,
    _component_sampler,
    _fold_strided,
    _lattice_layout,
    _Multinomial,
    _rationalize,
    _relative_weights,
    _sample_sums,
    _WeightStats,
    build_tilted_lattice,
    convolve_repeat,
)
from sharptail.rate import solve_target

from conftest import FIVE_ATOM, _centered_dist, random_bounded_dist


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


def assert_tails_match_fractions(lat, points, pmf, rel):
    """lat's values are the exact `points` (ascending Fractions) rounded once,
    and its strict and non-strict tails at every point and at both of its
    float neighbours are within `rel` of the exact masses `pmf` above."""
    assert lat.values.tolist() == [float(v) for v in points]
    for v in points:
        at = float(v)
        for t in (np.nextafter(at, -np.inf), at, np.nextafter(at, np.inf)):
            for strict in (True, False):
                want = sum((w for u, w in zip(points, pmf)
                            if (u > Fraction(t) if strict else u >= Fraction(t))), Fraction(0))
                assert lat.tail(float(t), strict) == pytest.approx(float(want), rel=rel), (t, strict)


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
        k = lat.position(4.0)
        assert k.denominator == 1 and lat.value(int(k)) == 4.0
        assert gap == pytest.approx(lat.masses[int(k)], rel=1e-12)

    def test_mass_drift_within_budget(self):
        lat = build_lattice(rademacher_model(10**4))
        assert lat.mass_drift <= 1e-9

    def test_estimate_metadata(self):
        est = exact_tail(rademacher_model(3), 1.0, True)
        assert est.method == "exact" and est.stderr == 0.0
        assert est.to_dict()["p"] == est.p

    def test_lattice_too_large_rejected(self):
        # two blocks whose offsets share only g = 2: 150,997,584 points
        big = SumModel(((hoeffding_extremal(Fraction(1, 999983)), 300), (rademacher(), 1)))
        with pytest.raises(UnsupportedModelError, match="150997584 points"):
            build_lattice(big)

    def test_huge_common_denominator_is_refused(self):
        # five atoms over coprime denominators near 10^6: offsets near 10^24
        # on their common grid, past int64, refused (not an OverflowError),
        # and sampled by multinomial counts
        vals = [-Fraction(1, 999983), -Fraction(1, 999979), Fraction(1, 999961),
                Fraction(1, 999959), Fraction(1, 999953)]
        dist = _centered_dist(vals, [10, 10, 1, 1, 1])
        with pytest.raises(UnsupportedModelError, match="lattice would need"):
            build_lattice(SumModel(((dist, 2),)))
        assert isinstance(_component_sampler(dist, 2, 10**6), _Multinomial)

    @pytest.mark.parametrize("model, points", [
        (rademacher_model(10**4), 10**4 + 1),
        (extremal_model(0.1, 10**5), 10**5 + 1),
        (extremal_model(0.123457, 100), 101),
    ], ids=["rademacher_1e4", "extremal_0.1", "extremal_0.123457"])
    def test_single_block_lattice_is_its_support(self, model, points):
        # the offsets are divided by their gcd, so only the sum's support
        # points are laid out, however fine the atoms' common grid
        lat = build_lattice(model)
        assert len(lat) == points
        (dist, n), = model.components
        ends = [float(n * _rationalize(v)) for v in (dist.lower, dist.upper)]
        assert [lat.values[0], lat.values[-1]] == ends

    def test_wide_two_atom_tails_match_fractions(self):
        # -0.123457 and 1 are 1,123,457 steps of 10^-6 apart; the sum has
        # 101 support points, and its tails are exact binomial suffixes
        m = extremal_model(0.123457, 100)
        (dist, n), = m.components
        (lo, q), (hi, p) = ((_rationalize(v), Fraction(w)) for v, w in dist.atoms)
        points = [(n - k) * lo + k * hi for k in range(n + 1)]
        pmf = [math.comb(n, k) * q ** (n - k) * p ** k for k in range(n + 1)]
        assert_tails_match_fractions(build_lattice(m), points, pmf, rel=1e-12)

    def test_infinite_and_nan_thresholds(self):
        m = extremal_model(0.25, 7)
        assert exact_tail(m, math.inf).p == 0.0
        assert exact_tail(m, -math.inf, strict=False).p == 1.0
        with pytest.raises(ParameterError):
            exact_tail(m, math.nan)

    def test_values_are_the_rounded_points(self):
        # each value is rounded once, so it equals value(k), on a step of 1/20
        lat = build_lattice(SumModel(((FIVE_ATOM, 7),)))
        assert lat.values.tolist() == [lat.value(k) for k in range(len(lat))]

    def test_quantization_reported(self):
        a = 0.1 * math.pi  # no small-denominator rational equals this float
        d = DiscreteDistribution(((a, 0.5), (-a, 0.5)))
        lat = build_lattice(SumModel(((d, 3),)))
        assert 0.0 < lat.quantization_error < 1e-11


@hst.composite
def tiny_models(draw):
    """1-3 blocks of 2-5 atoms on k/q grids, multiplicities 1-30.  A block's
    atoms are multiples of c/q, so grids with a common factor (such as
    {-4/5, 0, 4/5}, c = 4) and blocks of mixed strides both occur."""
    blocks = []
    for _ in range(draw(hst.integers(1, 3))):
        q = draw(hst.sampled_from([2, 3, 4, 5]))
        c = draw(hst.sampled_from([c for c in (1, 2, 3, 4) if c <= q]))
        top = q // c
        k = draw(hst.integers(2, min(5, 2 * top + 1)))
        picks = draw(hst.lists(hst.integers(-top, top), min_size=k, max_size=k, unique=True))
        weights = draw(hst.lists(hst.integers(1, 19), min_size=k, max_size=k))
        dist = _centered_dist([Fraction(c * j, q) for j in picks], weights)
        assume(dist is not None)
        blocks.append((dist, draw(hst.integers(1, 30))))
    return SumModel(tuple(blocks))


def exact_law(model):
    """The sum's law in integer arithmetic: (den, scale, {s: w}), point s / den
    carrying mass w / scale, for the atoms as the lattice snaps them and the
    float probabilities as given."""
    snapped = [[_rationalize(v) for v in d.values] for d, _ in model.components]
    den = math.lcm(*(v.denominator for row in snapped for v in row))
    law, scale = {0: 1}, 1
    for (dist, mult), row in zip(model.components, snapped):
        probs = [Fraction(p) for p in dist.probs.tolist()]
        pden = max(p.denominator for p in probs)
        atoms = [(int(v * den), int(p * pden)) for v, p in zip(row, probs)]
        for _ in range(mult):
            nxt = {}
            for s, w in law.items():
                for v, p in atoms:
                    nxt[s + v] = nxt.get(s + v, 0) + w * p
            law = nxt
            scale *= pden
    return den, scale, law


class TestExactArithmetic:
    """The lattice against the sum's law in exact rational arithmetic."""

    @given(tiny_models())
    @settings(max_examples=40, deadline=None)
    def test_lattice_matches_exact_law(self, model):
        den, scale, law = exact_law(model)
        support = sorted(law)
        lo, hi = support[0], support[-1]
        # the sum's support spans the smallest lattice that holds it
        g = math.gcd(*(s - lo for s in support))
        grid = list(range(lo, hi + 1, g))
        lat = build_lattice(model)
        assert lat.values.tolist() == [float(Fraction(s, den)) for s in grid]
        exact = [law.get(s, 0) for s in grid]
        for got, w in zip(lat.masses.tolist(), exact):
            assert got == 0.0 if w == 0 else got == pytest.approx(w / scale, rel=1e-12)
        suffix = list(itertools.accumulate(reversed(exact)))[::-1] + [0]
        points = [Fraction(s, den) for s in grid]
        masses = lat.masses.tolist()
        for s in support:
            at = float(Fraction(s, den))
            for t in (np.nextafter(at, -np.inf), at, np.nextafter(at, np.inf)):
                for strict in (True, False):
                    cut = (bisect.bisect_right if strict else bisect.bisect_left)(
                        points, Fraction(float(t)))
                    got = lat.tail(float(t), strict)
                    assert got == min(1.0, math.fsum(masses[cut:])), (t, strict)
                    assert got == pytest.approx(min(1.0, suffix[cut] / scale), rel=1e-12)


class TestLatticeRecord:
    """The plain lattice is the lam = 0 tilted build, made once per instance."""

    def test_built_once_per_instance(self):
        m = SumModel(((FIVE_ATOM, 7),))
        lat = build_lattice(m)
        assert build_lattice(m) is lat
        assert build_tilted_lattice(m, 0.0) is lat
        assert exact_tail(m, m.sigma).p == lat.tail(m.sigma)

    def test_equal_models_do_not_share(self):
        text = json.dumps(model_to_dict(SumModel(((FIVE_ATOM, 7),))))
        a, b = loads_model(text), loads_model(text)
        assert a == b
        assert build_lattice(a) is not build_lattice(b)

    def test_tilted_lattices_not_recorded(self):
        m = SumModel(((FIVE_ATOM, 7),))
        assert build_tilted_lattice(m, 0.05) is not build_tilted_lattice(m, 0.05)
        assert m.lattice_record == {}
        build_lattice(m)
        assert list(m.lattice_record) == [0.0]

    def test_refused_build_raises_each_time(self, monkeypatch):
        m = SumModel(((FIVE_ATOM, 7),))  # 246 lattice points
        monkeypatch.setattr(oracle, "MAX_LATTICE_POINTS", 100)
        for _ in range(2):
            with pytest.raises(UnsupportedModelError):
                build_lattice(m)
        monkeypatch.undo()
        assert len(build_lattice(m)) == 246

    def test_plain_build_runs_no_tilt(self, monkeypatch):
        # lam = 0 takes the input probabilities as they are
        def tilt(*args):
            raise AssertionError("tilted_stats called at lam = 0")
        monkeypatch.setattr(oracle, "tilted_stats", tilt)
        m = SumModel(((FIVE_ATOM, 7), (rademacher(), 5)))
        untilted = oracle._convolve_components(*_lattice_layout(
            [(d.values, d.probs, k) for d, k in m.components]))
        assert np.array_equal(build_lattice(m).masses, untilted.masses)

    def test_verify_convolves_once(self, monkeypatch):
        # the containment oracle and every normal-approximation check read
        # one build; lam = 0.05 and 0.1 reweight it
        calls = []
        kernel = oracle.convolve_repeat
        monkeypatch.setattr(oracle, "convolve_repeat",
                            lambda *args: calls.append(1) or kernel(*args))
        m = SumModel(((FIVE_ATOM, 400),))
        assert verify_report(m, m.b_ratio, 1.0)["ok"]
        assert len(calls) == 1


def two_atom_repeat(masses, span, probs, times):
    """The two-atom lattice path: a binomial laid on stride `span`."""
    return _fold_strided(np.asarray(masses, dtype=float),
                         _binomial_masses(probs[0], probs[1], times), span)


def shift_add_lattice(model):
    """Reference lattice masses: every block folded by shift-add."""
    _, layouts, _ = _lattice_layout([(d.values, d.probs, m) for d, m in model.components])
    masses = np.ones(1)
    for offsets, probs, mult in layouts:
        masses = convolve_repeat(masses, offsets, probs, mult)
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
        lat = build_lattice(rademacher_model(n))
        exact, c = [], 1
        for k in range(n + 1):
            exact.append(c / 2**n)  # correctly rounded big-int division
            c = c * (n - k) // (k + 1)
        exact = np.array(exact)
        # one point per support point of the sum, -n, -n + 2, ..., n
        assert lat.values.tolist() == list(range(-n, n + 1, 2))
        assert np.allclose(lat.masses, exact, rtol=1e-13, atol=1e-300)

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
                thr = (lat.value(k - 1) + lat.value(k)) / 2
                assert k - 1 < lat.position(thr) < k
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


def assert_tails_are_fsum(lat, ks):
    """tail at every threshold that selects index k, strict and non-strict, is
    bit-equal to fsum over masses[k:]."""
    masses = lat.masses
    for k in ks:
        want = min(1.0, math.fsum(masses[k:].tolist()))
        mid = (lat.value(k - 1) + lat.value(k)) / 2
        assert k - 1 < lat.position(mid) < k
        assert lat.tail(mid, strict=True) == want, k
        assert lat.tail(mid, strict=False) == want, k
        # on the lattice, where the points are doubles: P(S > v_{k-1}), P(S >= v_k)
        for j, strict in ((k - 1, True), (k, False)):
            if lat.position(lat.value(j)) == j:
                assert lat.tail(lat.value(j), strict) == want, k


def table_indices(n, stride):
    """k = 0, n - 1, every block boundary +-1 and a stride of the rest."""
    ks = {0, n - 1, *range(0, n, stride)}
    for b in range(0, n + _TAIL_BLOCK, _TAIL_BLOCK):
        ks.update((b - 1, b, b + 1))
    return sorted(k for k in ks if 0 <= k < n)


@hst.composite
def mass_vectors(draw):
    """Non-negative masses longer than one block, with exponents from 2^1 down
    to subnormals and a share of exact zeros."""
    n = draw(hst.integers(_TAIL_BLOCK + 1, 3 * _TAIL_BLOCK + 5))
    lowest = draw(hst.integers(-1075, 1))
    zeros = draw(hst.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    masses = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(lowest, 2, n))
    masses[rng.random(n) < zeros] = 0.0
    return masses


class TestTailTable:
    """`tail` reads a table of exact block suffix sums; it must give fsum's bits."""

    @pytest.mark.parametrize("model", [
        rademacher_model(10**4),
        SumModel(((FIVE_ATOM, 400),)),
        rademacher_model(50),
    ], ids=["rademacher_1e4", "five_atom_400", "under_one_block"])
    def test_model_lattices(self, model):
        lat = build_lattice(model)
        assert_tails_are_fsum(lat, table_indices(len(lat), 97))

    @pytest.mark.parametrize("n", [1, _TAIL_BLOCK - 1, _TAIL_BLOCK, _TAIL_BLOCK + 1,
                                   2 * _TAIL_BLOCK])
    def test_block_lengths(self, n):
        rng = np.random.default_rng(n)
        masses = rng.random(n) / n
        masses[::7] = 0.0
        lat = LatticeDistribution(4, -5, 3, masses, 0.0)  # points (3k - 5) / 4
        assert_tails_are_fsum(lat, range(n))

    @given(mass_vectors())
    @settings(max_examples=40, deadline=None)
    def test_random_exponents_and_subnormals(self, masses):
        lat = LatticeDistribution(1, 0, 1, masses, 0.0)
        assert_tails_are_fsum(lat, range(len(masses)))

    def test_caps_at_one(self):
        lat = LatticeDistribution(1, 0, 1, np.full(3 * _TAIL_BLOCK, 0.01), 0.0)
        assert lat.tail(-1.0) == 1.0
        assert_tails_are_fsum(lat, table_indices(len(lat), 5))


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

    def test_nan_threshold_rejected(self):
        for estimator in (mc_tail, tilted_mc_tail):
            with pytest.raises(ParameterError):
                estimator(rademacher_model(5), math.nan, True, 10, 1)

    def test_chunked_draws_match_one_draw(self):
        # a multinomial fallback draws its rows chunk by chunk, consuming each
        # component's stream exactly as one n-row multinomial call does
        n = 2 * _MC_CHUNK + 12345
        comps = [(hoeffding_extremal(0.5 + 2.0**-40), 20), (FIVE_ATOM, 400)]
        samplers = [_component_sampler(d, m, n) for d, m in comps]
        assert all(isinstance(s, _Multinomial) for s in samplers)
        for seed in (0, 2**20 + 3):
            ref = np.zeros(n)
            for ci, (d, mult) in enumerate(comps):
                counts = _component_rng(seed, ci).multinomial(mult, d.probs, size=n)
                ref += sum(counts[:, k] * v for k, v in enumerate(d.values))
            assert np.array_equal(np.concatenate(list(_sample_sums(samplers, n, seed))), ref)

    def test_sums_do_not_depend_on_chunk_size(self, monkeypatch):
        n = 3 * _MC_CHUNK + 777
        comps = [(rademacher(), 20), (FIVE_ATOM, 7), (FIVE_ATOM, 400)]
        samplers = [_component_sampler(d, m, n) for d, m in comps]
        assert [type(s) for s in samplers] == [_AliasTable, _AliasTable, _Multinomial]
        ref = np.concatenate(list(_sample_sums(samplers, n, 5)))
        for chunk, rows in ((1, 300), (1000, n), (4096, n), (12345, n), (n, n), (4 * n, n)):
            monkeypatch.setattr(oracle, "_MC_CHUNK", chunk)
            got = np.concatenate(list(_sample_sums(samplers, rows, 5)))
            assert np.array_equal(got, ref[:rows])

    def test_stream_split_rule(self):
        # the documented rule: component ci draws from SFC64 seeded by child
        # ci of SeedSequence(seed).spawn, the seed taken mod 2^64
        for seed in (7, 2**64 + 7, -1):
            children = np.random.SeedSequence(seed % 2**64).spawn(3)
            for ci, child in enumerate(children):
                rng = _component_rng(seed, ci)
                assert isinstance(rng.bit_generator, np.random.SFC64)
                want = np.random.Generator(np.random.SFC64(child)).random(8)
                assert rng.random(8).tolist() == want.tolist()
        r0 = _component_rng(7, 0).integers(0, 2**31)
        r1 = _component_rng(7, 1).integers(0, 2**31)
        again = _component_rng(7, 0).integers(0, 2**31)
        assert r0 == again and r0 != r1


def table_pmf(table):
    """Each column's own probability plus what other columns alias to it, over N."""
    n = len(table.prob)
    return (table.prob + np.bincount(table.alias, 1.0 - table.prob, n)) / n


#: the three blocks of the benchmark's mix600 model
MIX600 = ((rademacher(), 200), (hoeffding_extremal(0.25), 300), (FIVE_ATOM, 100))


class TestAliasSampler:
    @pytest.mark.parametrize("dist,mult,lam", [
        (rademacher(), 200, None),
        (hoeffding_extremal(0.25), 300, None),
        (FIVE_ATOM, 7, None),
        (FIVE_ATOM, 7, 0.9),
        (hoeffding_extremal(0.25), 300, 0.5),
    ])
    def test_table_rebuilds_lattice_law(self, dist, mult, lam):
        one = SumModel(((dist, mult),))
        lat = build_lattice(one) if lam is None else build_tilted_lattice(one, lam)
        table = _component_sampler(dist, mult, 10**6, lam)
        assert isinstance(table, _AliasTable)
        pos = np.flatnonzero(lat.masses > 0.0)
        np.testing.assert_allclose(table_pmf(table), lat.masses[pos], rtol=1e-12, atol=0.0)
        # each value is the exact rational sum, rounded once
        assert table.values.tolist() == [lat.value(int(k)) for k in pos]

    @given(hst.lists(hst.tuples(hst.floats(0.5, 1.0), hst.integers(-1000, 0)),
                     min_size=1, max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_alias_columns_any_masses(self, parts):
        masses = np.array([math.ldexp(m, e) for m, e in parts])
        prob, alias = _alias_columns(masses)
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        want = masses / masses.sum()
        got = (prob + np.bincount(alias, 1.0 - prob, len(masses))) / len(masses)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_draws_follow_table(self):
        lat = build_lattice(SumModel(((FIVE_ATOM, 2),)))
        table = _component_sampler(FIVE_ATOM, 2, 10**5)
        pos = np.flatnonzero(lat.masses > 0.0)
        draws = table.draw(_component_rng(3, 0), 10**5)
        counts = np.array([np.count_nonzero(draws == v) for v in table.values])
        assert counts.sum() == 10**5
        expected = 10**5 * lat.masses[pos]
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 15 points: chi-square with 14 degrees of freedom, 36.1 is its 0.999 quantile
        assert chi2 < 36.1

    def test_draw_takes_one_uniform_per_row(self):
        # FIVE_ATOM x 7 has 246 points, not a power of 2, so u * n rounds
        table = _component_sampler(FIVE_ATOM, 7, 10**6)
        n = len(table.prob)
        assert n & (n - 1)
        x = _component_rng(11, 0).random(5000) * n
        col = np.minimum(x.astype(np.intp), n - 1)
        coin = x - col
        want = np.where(coin < table.prob[col], table.values[col], table.values[table.alias[col]])
        got = table.draw(_component_rng(11, 0), 5000)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("dist,mult", [(FIVE_ATOM, 100), (rademacher(), 200)])
    def test_coin_edges_are_least_doubles(self, dist, mult):
        # x >= edge[c] is the coin test x - c >= prob[c] exactly when edge[c]
        # is the least double >= c + prob[c]; x - c is exact on [c, c + 1]
        table = _component_sampler(dist, mult, 10**6)
        col = np.arange(len(table.prob), dtype=float)
        edge = table._edge
        assert np.all(edge - col >= table.prob)
        assert np.all(np.nextafter(edge, -np.inf) - col < table.prob)

    def test_top_uniform_stays_in_last_column(self):
        # random() tops out at 1 - 2^-53, and u * n never rounds up to n
        powers = 2.0 ** np.arange(20, 31)
        n = np.concatenate((np.arange(1, 2**20 + 1), powers - 1, powers, powers + 1))
        assert np.all((1.0 - 2.0**-53) * n < n)

    def test_lopsided_table_chi_square(self):
        # mix600's five-atom block: 3,415 points whose masses span about 90
        # orders of magnitude, so most columns borrow from an alias and a
        # coin correlated with its column would skew the counts
        lat = build_lattice(SumModel(((FIVE_ATOM, 100),)))
        table = _component_sampler(FIVE_ATOM, 100, 10**6)
        draws = table.draw(_component_rng(2, 0), 10**6)
        idx = np.searchsorted(table.values, draws)
        assert table.values[idx].tolist() == draws.tolist()
        counts = np.bincount(idx, minlength=len(table.values))
        expected = 10**6 * lat.masses[lat.masses > 0.0]
        assert len(expected) == 3415
        big = expected >= 5.0
        # 775 cells expect at least 5 draws; the other 2,640 are pooled into one
        obs = np.append(counts[big], counts[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        dof = len(obs) - 1
        assert dof == 775
        z = (float(((obs - exp) ** 2 / exp).sum()) - dof) / math.sqrt(2 * dof)
        assert abs(z) < 4.0, z

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_mix600_blocks_take_the_table(self, n):
        # 10^5 is the CLI's default --samples
        assert all(isinstance(_component_sampler(d, m, n), _AliasTable) for d, m in MIX600)

    def test_wide_two_atom_block_skips_the_lattice(self):
        # atoms -0.123457 and 1 sit 1123457 steps of 10^-6 apart: 80 copies
        # span 9e7 such steps, but the reduced lattice has the binomial's 81
        # points
        dist = hoeffding_extremal(0.123457)
        tracemalloc.start()
        try:
            table = _component_sampler(dist, 80, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(table, _AliasTable)
        assert peak < 10**5
        np.testing.assert_allclose(table_pmf(table), _binomial_masses(*dist.probs, 80),
                                   rtol=1e-12, atol=0.0)
        lo, hi = (Fraction(v).limit_denominator(10**6) for v in dist.values)
        assert table.values.tolist() == [float(80 * lo + k * (hi - lo)) for k in range(81)]
        m = SumModel(((dist, 80),))
        thr = 3.0 * m.sigma
        exact = math.fsum(w for k, w in enumerate(_binomial_masses(*dist.probs, 80))
                          if table.values[k] > thr)
        for est in (mc_tail(m, thr, True, 10**5, 9), tilted_mc_tail(m, thr, True, 10**5, 9)):
            assert abs(est.p - exact) <= 4 * est.stderr, (est, exact)

    def test_quantized_atom_falls_back(self):
        # -(1/2 + 2^-40) snaps to -1/2 on the rational grid
        dist = hoeffding_extremal(0.5 + 2.0**-40)
        m = SumModel(((dist, 40),))
        assert build_lattice(m).quantization_error > 0.0
        assert isinstance(_component_sampler(dist, 40, 10**6), _Multinomial)
        thr = m.sigma
        exact = build_lattice(m).tail(thr, True)
        for est in (mc_tail(m, thr, True, 20000, 4), tilted_mc_tail(m, thr, True, 20000, 4)):
            assert abs(est.p - exact) <= 4 * est.stderr, (est, exact)

    def test_table_dearer_than_draws_falls_back(self):
        # FIVE_ATOM's atoms span 35 steps of 1/20; rademacher's span 2 of 1
        for dist, mult, span in ((FIVE_ATOM, 50, 35), (rademacher(), 200, 2)):
            k = len(dist.values)
            build_ns = oracle._table_build_ns(k, span, mult)
            least = -(-build_ns // ((k - 1) * oracle._BINOMIAL_NS))
            assert isinstance(_component_sampler(dist, mult, least), _AliasTable)
            assert isinstance(_component_sampler(dist, mult, least - 1), _Multinomial)
        m = SumModel(((FIVE_ATOM, 50),))
        thr = m.sigma
        exact = build_lattice(m).tail(thr, True)
        assert isinstance(_component_sampler(FIVE_ATOM, 50, 1000), _Multinomial)
        for est in (mc_tail(m, thr, True, 1000, 6), tilted_mc_tail(m, thr, True, 1000, 6)):
            assert abs(est.p - exact) <= 4 * est.stderr, (est, exact)

    def test_unsupported_lattice_falls_back(self, monkeypatch):
        # FIVE_ATOM x 7 needs 246 lattice points; a two-atom table of mult
        # copies is a lattice of mult + 1 points, under the same cap.  The
        # exact tail comes from another instance, built before the cap is
        # lowered.
        thr = SumModel(((FIVE_ATOM, 7),)).sigma
        exact = build_lattice(SumModel(((FIVE_ATOM, 7),))).tail(thr, True)
        monkeypatch.setattr(oracle, "MAX_LATTICE_POINTS", 100)
        m = SumModel(((FIVE_ATOM, 7),))
        with pytest.raises(UnsupportedModelError):
            build_lattice(m)
        assert isinstance(_component_sampler(FIVE_ATOM, 7, 10**5), _Multinomial)
        assert isinstance(_component_sampler(rademacher(), 99, 10**5), _AliasTable)
        assert isinstance(_component_sampler(rademacher(), 100, 10**5), _Multinomial)
        for est in (mc_tail(m, thr, True, 20000, 8), tilted_mc_tail(m, thr, True, 20000, 8)):
            assert abs(est.p - exact) <= 4 * est.stderr, (est, exact)

    def test_memory_does_not_grow_with_samples(self):
        # one table block and one multinomial block (its atom -1/2 - 2^-40 is
        # quantized); the draws are streamed, so 16 chunks of samples need no
        # more memory than 2
        m = SumModel(((rademacher(), 40), (hoeffding_extremal(0.5 + 2.0**-40), 60)))
        thr = 2.0 * m.sigma

        def peak(estimator, n):
            tracemalloc.start()
            try:
                estimator(m, thr, True, n, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for estimator in (mc_tail, tilted_mc_tail):
            small = peak(estimator, 2 * _MC_CHUNK)
            large = peak(estimator, 16 * _MC_CHUNK)
            # the sums alone of 16 chunks would take 8 * 16 * _MC_CHUNK bytes
            assert large <= 1.1 * small, (estimator.__name__, small, large)


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

    @pytest.mark.parametrize("strict", [True, False])
    def test_tilted_weights_only_the_hits(self, strict):
        # the estimate is e^(cum - lam t) times the statistics of
        # exp(-lam (s - t)) at the hits and 0 elsewhere, and within rounding
        # of the statistics of the full weights exp(cum - lam s)
        m = SumModel(MIX600)
        thr, n, seed = 3.0 * m.sigma, 3 * _MC_CHUNK + 777, 12
        est = tilted_mc_tail(m, thr, strict, n, seed)
        sp = solve_target(m, thr)
        samplers = [_component_sampler(d, k, n, sp.lam) for d, k in m.components]
        relative, full = _WeightStats(), _WeightStats()
        for sums in _sample_sums(samplers, n, seed):
            hit = sums > thr if strict else sums >= thr
            relative.add(np.where(hit, np.exp(-sp.lam * (sums - thr)), 0.0))
            full.add(np.where(hit, np.exp(sp.cumulant_value - sp.lam * sums), 0.0))
        scale = math.exp(sp.cumulant_value - sp.lam * thr)
        mean, se = relative.finish()
        assert (est.p, est.stderr) == (scale * mean, scale * se)
        p, se = full.finish()
        assert est.p == pytest.approx(p, rel=1e-12)
        assert est.stderr == pytest.approx(se, rel=1e-12)

    @pytest.mark.parametrize("model,x", [(SumModel(MIX600), 3.0), (rademacher_model(2000), 30.0)])
    def test_scaled_weights_match_mpmath(self, model, x):
        # e^(cum - lam t) * exp(min(-lam (s - t), 0)) against 40-digit
        # e^(cum - lam s) on the same float s, cum and lam, at every hit
        thr = x * model.sigma
        sp = solve_target(model, thr)
        samplers = [_component_sampler(d, k, _MC_CHUNK, sp.lam) for d, k in model.components]
        sums = next(_sample_sums(samplers, _MC_CHUNK, 17))
        hit = sums > thr
        got = math.exp(sp.log_bound) * _relative_weights(sums, hit, thr, sp.lam)
        assert np.count_nonzero(hit) > 1000
        assert np.all(got[~hit] == 0.0)
        with mpmath.workdps(40):
            c, lam = mpmath.mpf(sp.cumulant_value), mpmath.mpf(sp.lam)
            for s, w in zip(sums[hit].tolist(), got[hit].tolist()):
                want = mpmath.exp(c - lam * mpmath.mpf(s))
                assert abs(w / want - 1) <= 1e-12, (s, w, want)

    @pytest.mark.parametrize("x", [5, 15, 25, 30])
    def test_deep_tail_stderr(self, x):
        # below p ~ 1e-154 the squares of weights of order p underflow; the
        # relative weights do not, so the relative standard error is the
        # one of the same draws recomputed from their log weights
        m, n, seed = rademacher_model(2000), 10**5, 3
        thr = x * m.sigma
        est = tilted_mc_tail(m, thr, True, n, seed)
        assert est.stderr > 0.0
        sp = solve_target(m, thr)
        samplers = [_component_sampler(d, k, n, sp.lam) for d, k in m.components]
        sums = np.concatenate(list(_sample_sums(samplers, n, seed)))
        hit = sums > thr
        log_w = sp.cumulant_value - sp.lam * sums[hit]
        w = np.zeros(n)
        w[hit] = np.exp(log_w - log_w.max())
        want = w.std(ddof=1) / math.sqrt(n) / w.mean()
        assert est.stderr / est.p == pytest.approx(want, rel=1e-9)

    def test_no_overflow_where_misses_fall_far_below(self):
        # lam ~ 230 on a two-point law with P(1) = 1e-100: a row with no 1
        # sits 3.5 below the threshold, lam (t - s) ~ 805, and exp of that
        # would overflow if the misses were not capped at 0
        d = DiscreteDistribution(((-1e-100, 1.0), (1.0, 1e-100)))
        m, thr, n, seed = SumModel(((d, 8),)), 3.5, 2000, 1
        sp = solve_target(m, thr)
        sums = np.concatenate(list(_sample_sums([_component_sampler(d, 8, n, sp.lam)], n, seed)))
        miss = sums <= thr
        assert np.count_nonzero(sp.lam * (thr - sums[miss]) > 709) > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = tilted_mc_tail(m, thr, True, n, seed)
        # the true tail, 70 * 1e-400, is below the smallest double
        assert est.p == 0.0 and est.stderr == 0.0
        # ... though about half the tilted rows hit, which `hits` still shows
        assert est.hits == int(np.count_nonzero(sums > thr)) > 0

    def test_hits_count_rows_past_the_threshold(self):
        m = rademacher_model(30)
        plain = mc_tail(m, 4.0, False, 3000, 7)
        assert plain.hits == round(plain.p * 3000) > 0
        assert plain.to_dict()["hits"] == plain.hits
        assert "hits" not in exact_tail(m, 4.0).to_dict()


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
        with pytest.raises(HypothesisError, match=r"^needs xi_i <= 1$"):
            bentkus_bound(SumModel(((wide, 5),)), 1.0)
        with pytest.raises(ParameterError, match=r"^x must be >= 0, got -1.0$"):
            bentkus_bound(rademacher_model(5), -1.0)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_wide_stride_against_mpmath(self, n):
        # v = sigma^2/n has a six-digit denominator: the strided reference
        # lattice would need ~1e8 points at n = 100, but the bound needs only
        # the n + 1 binomial tails T_k.  Near each stride end k the reference
        # is the exact log-linear interpolation of T around x * sigma, since
        # the binomial tail is log-concave and so equals its hull.
        m = extremal_model(0.123457, n)
        d = m.components[0][0]
        v = Fraction(m.sigma2 / n).limit_denominator(oracle.DENOMINATOR_CAP)
        with mpmath.workdps(50):
            q, p = (mpmath.mpf(float(w)) for w in d.probs)
            masses = [mpmath.binomial(n, k) * q**(n - k) * p**k for k in range(n + 1)]
            tails = list(itertools.accumulate(reversed(masses)))[::-1] + [mpmath.mpf(0)]
            checked = 0
            for k in range(n + 1):
                point = k * (1 + v) - n * v  # stride end k of the reference sum
                if point < 0:
                    continue
                x = float(point) / m.sigma
                u = (Fraction(x * m.sigma) + n * v) / (1 + v)
                j = min(math.floor(u), n)
                w = mpmath.mpf((u - j).numerator) / (u - j).denominator
                log_hull = mpmath.log(tails[j]) if w == 0 else (
                    (1 - w) * mpmath.log(tails[j]) + w * mpmath.log(tails[j + 1]))
                expect = min(1.0, float(mpmath.e**2 / 2 * mpmath.exp(log_hull)))
                if expect > 1e-300:
                    assert bentkus_bound(m, x) == pytest.approx(expect, rel=1e-12, abs=0.0)
                    checked += 1
        assert checked > n // 3

    def test_non_finite_x(self):
        m = rademacher_model(50)
        assert bentkus_bound(m, math.inf) == 0.0
        with pytest.raises(ParameterError):
            bentkus_bound(m, math.nan)

    def test_million_summands(self):
        value = bentkus_bound(extremal_model(0.123457, 10**6), 2.0)
        assert math.isfinite(value) and 0.0 < value <= 1.0

    def test_dominates_generic_lattice_models(self):
        # reference variance sigma^2/n need not be a nice rational: the
        # quantized two-point lattice must still dominate comfortably
        rng = np.random.default_rng(66)
        for _ in range(5):
            m = SumModel(((random_bounded_dist(rng), int(rng.integers(40, 120))),))
            lat = build_lattice(m)
            for x in np.linspace(0.0, 2.5, 11):
                assert bentkus_bound(m, x) >= lat.tail(x * m.sigma, strict=False)
