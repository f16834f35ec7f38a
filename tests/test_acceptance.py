"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import io
import math
import time

import numpy as np

from sharptail import (
    SumModel,
    bennett_bound,
    bernstein_bound,
    berry_esseen_tilted,
    bentkus_bound,
    build_lattice,
    chernoff_log,
    expansion_interval,
    extremal_model,
    hoeffding_log,
    inequality_suite,
    log_concave_hull,
    mc_tail,
    mills_ratio,
    normal_tail_upper,
    rademacher_model,
    saddlepoint_interval,
    subgaussian_multiplier,
    subgaussian_upper,
    third_moment_interval,
    tilted_mc_tail,
    two_sided_interval,
    two_sided_multiplier,
)
from sharptail.classical import SQRT_2PI, SQRT_PI
from sharptail.cli import _emit_csv, ratio_rows
from sharptail.errors import NoSaddlepointError

from conftest import random_bounded_dist, random_model


def report(num, name, ok, detail=""):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


ETA_GRID = [(v, n) for v in (0.1, 0.25, 1.0, 4.0) for n in (10, 100, 1000)]


def eta_x_grid(v, n):
    sigma = math.sqrt(n * v)
    return sigma, np.linspace(0.0, n / sigma, 50, endpoint=False)


def test_criterion_01_hoeffding_sharpness():
    t0 = time.monotonic()
    worst = 0.0
    for v, n in ETA_GRID:
        m = extremal_model(v, n)
        sigma, xs = eta_x_grid(v, n)
        for x in xs:
            rel = abs(math.expm1(chernoff_log(m, x) - hoeffding_log(x, sigma, n)))
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    report(1, "optimized Markov bound attains Hoeffding on extremal models",
           worst <= 1e-9 and elapsed < 5.0,
           f"worst rel diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_ordering_chain():
    bad = 0
    for v, n in ETA_GRID:
        sigma, xs = eta_x_grid(v, n)
        for x in xs:
            h = math.exp(hoeffding_log(x, sigma, n))
            if h > bennett_bound(x, sigma) * (1 + 1e-14) + 1e-300:
                bad += 1
            if h > bernstein_bound(x, sigma) * (1 + 1e-14) + 1e-300:
                bad += 1
    report(2, "Hoeffding below Bennett and Bernstein", bad == 0, f"{bad} violations")


def test_criterion_03_scaled_normal_tail_sandwich():
    xs = np.linspace(0.0, 100.0, 10**4)
    ok = abs(mills_ratio(0.0) - 0.5) <= 1e-15
    worst = math.inf
    for x in xs:
        val = mills_ratio(x)
        lo = 1.0 / (SQRT_2PI * (1 + x))
        hi = 1.0 / (SQRT_PI * (1 + x))
        worst = min(worst, val - lo, hi - val)
        if not (lo <= val <= hi):
            ok = False
    report(3, "scaled normal tail sandwich on [0, 100]", ok, f"min slack {worst:.2e}")


def test_criterion_04_two_sided_containment():
    t0 = time.monotonic()
    checked = violations = 0
    for n in (100, 400, 2500, 10**4):
        m = rademacher_model(n)
        lat = build_lattice(m)
        sigma = m.sigma
        for x in np.linspace(0.0, 0.606 * sigma, 100):
            p = lat.tail(x * sigma, strict=True)
            if p < 1e-12:
                continue
            iv = two_sided_interval(m, x)
            checked += 1
            if not (iv.lower <= p <= iv.upper):
                violations += 1
    elapsed = time.monotonic() - t0
    report(4, "two-sided interval contains exact +/-1 tails",
           violations == 0 and elapsed < 60.0,
           f"{checked} points, {violations} violations, {elapsed:.1f}s")


def test_criterion_05_ratio_sweep():
    n_list = [100, 400, 2500, 10**4]
    rows = ratio_rows(n_list, 3.0, 31)
    maxdev = {n: 0.0 for n in n_list}
    for n, x, p, approx, r in rows:
        assert math.isfinite(r)
        maxdev[n] = max(maxdev[n], abs(r - 1.0))
    seq = [maxdev[n] for n in n_list]
    decreasing = all(a > b for a, b in zip(seq, seq[1:]))

    pointwise_ok = True
    for n, x, p, approx, r in rows:
        if n != 10**4:
            continue
        cap = two_sided_multiplier(x, 100.0) / (100.0 * mills_ratio(x))
        pointwise_ok = pointwise_ok and abs(r - 1.0) <= cap

    buf1, buf2 = io.StringIO(), io.StringIO()
    header = ["n", "x", "exact_tail", "theta_hoeffding", "ratio"]
    _emit_csv(buf1, "ratio", header, rows)
    _emit_csv(buf2, "ratio", header, ratio_rows(n_list, 3.0, 31))
    deterministic = buf1.getvalue() == buf2.getvalue()

    report(5, "sharpness ratio approaches 1",
           decreasing and pointwise_ok and deterministic,
           f"max|R-1| per n: {[round(v, 4) for v in seq]}")


def test_criterion_06_constant_caps():
    xs = np.linspace(0.0, 0.1, 10**4)
    worst_two = max(two_sided_multiplier(x, 1.0) for x in xs)
    worst_sub = max(subgaussian_multiplier(x, 1.0, 1.0) for x in xs)
    report(6, "multiplier caps 3.08 and 32.47",
           worst_two <= 3.08 and worst_sub <= 32.47,
           f"two-sided max {worst_two:.5f}, sub-Gaussian max {worst_sub:.4f}")


def test_criterion_07_inequality_suite_random_models():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260811)
    failures = []
    applicable = 0
    for i in range(1000):
        m = random_model(rng, 50, 500)
        rep = inequality_suite(m, m.b_ratio)
        for c in rep.checks:
            if c.applicable:
                applicable += 1
                if not c.holds:
                    failures.append((i, c.name, c.worst_margin))
    elapsed = time.monotonic() - t0
    report(7, "inequality suite on 1000 random lattice models",
           not failures and elapsed < 120.0,
           f"{applicable} applicable checks, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_08_normal_approximation_under_tilt():
    bad = []
    for n in (100, 400, 1600):
        m = rademacher_model(n)
        for lam in (0.0, 0.05, 0.1):
            rep = berry_esseen_tilted(m, lam)
            if rep.sup_distance > 1.12 / rep.sigma_bar:
                bad.append((n, lam))
    report(8, "tilted normal approximation within 1.12/sigma_bar",
           not bad, f"{9 - len(bad)}/9 hold")


def test_criterion_09_interval_containment():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    models = [rademacher_model(100), rademacher_model(400)]
    for _ in range(20):
        n = int(np.exp(rng.uniform(np.log(50), np.log(2000))))
        models.append(SumModel(((random_bounded_dist(rng), n),)))

    checks = violations = 0
    for m in models:
        lat = build_lattice(m)
        sigma = m.sigma
        B = m.b_ratio
        subgaussian_ok = all(
            d.upper <= math.sqrt(d.variance) + 1e-12 for d, _ in m.components
        )
        for x in np.linspace(0.0, 0.25 * sigma / B, 25, endpoint=False):
            p = lat.tail(x * sigma, strict=True)
            iv = expansion_interval(m, x, B)
            checks += 1
            violations += not (iv.lower <= p <= iv.upper)
            if subgaussian_ok:
                checks += 1
                violations += subgaussian_upper(m, x) < p
        for x in np.linspace(0.0, 0.1 * sigma / B, 25):
            p = lat.tail(x * sigma, strict=True)
            iv = third_moment_interval(m, x)
            checks += 2
            violations += not (iv.lower <= p <= iv.upper)
            violations += normal_tail_upper(m, x) < p
        for x in np.linspace(0.0, 0.606 * sigma, 25):
            p = lat.tail(x * sigma, strict=True)
            iv = two_sided_interval(m, x)
            checks += 1
            violations += not (iv.lower <= p <= iv.upper)
        for x in np.linspace(0.0, 0.9 * m.max_support / sigma, 25):
            try:
                iv = saddlepoint_interval(m, x)
            except NoSaddlepointError:
                continue
            p = lat.tail(x * sigma, strict=True)
            checks += 1
            violations += not (iv.lower <= p <= iv.upper)
    elapsed = time.monotonic() - t0
    report(9, "exact tails inside every sharp interval",
           violations == 0, f"{checks} checks, {violations} violations, {elapsed:.1f}s")


def test_criterion_10_importance_sampling():
    t0 = time.monotonic()
    m = rademacher_model(400)
    lat = build_lattice(m)
    ok = True
    details = []
    for x in (2.0, 3.0, 4.0):
        est = tilted_mc_tail(m, 20.0 * x, True, 10**5, 42)
        exact = lat.tail(20.0 * x, True)
        rel = est.stderr / est.p
        ok = ok and abs(est.p - exact) <= 4 * est.stderr and rel <= 0.01
        details.append(f"x={x:.0f} rel_se={rel:.4f}")
    plain = mc_tail(m, 80.0, True, 10**5, 42)
    hits = round(plain.p * 10**5)
    ok = ok and hits <= 20
    elapsed = time.monotonic() - t0
    report(10, "saddlepoint importance sampling",
           ok and elapsed < 30.0,
           f"{'; '.join(details)}; plain-MC hits at 4 sigma: {hits}; {elapsed:.1f}s")


def test_criterion_11_hull_and_two_point_reference_bound():
    m = rademacher_model(100)
    lat = build_lattice(m)
    dominated = all(
        bentkus_bound(m, x) >= lat.tail(x * 10.0, strict=False)
        for x in np.linspace(0.0, 3.0, 31)
    )
    rng = np.random.default_rng(77)
    hull_ok = True
    for _ in range(100):
        t = rng.uniform(0, 1, size=int(rng.integers(2, 50)))
        if rng.random() < 0.3:
            t[rng.integers(0, len(t))] = 0.0
        h = log_concave_hull(t)
        hull_ok = hull_ok and np.all(h >= t)
        hull_ok = hull_ok and np.allclose(log_concave_hull(h), h, rtol=1e-12, atol=1e-300)
    report(11, "log-concave hull bound dominates; hull idempotent",
           dominated and hull_ok, "")
