"""Shared generators for random bounded mean-zero lattice models.

Atoms are exact rationals k/q with small denominators, centered exactly in
Fraction arithmetic before conversion to float, so generated models always
pass the mean-zero gate and stay cheap for the exact convolution oracle.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as hst

from sharptail import DiscreteDistribution, SumModel
from sharptail.errors import ModelError

#: five atoms on a 0.05 grid in [-0.75, 1], mean zero
FIVE_ATOM = DiscreteDistribution(
    ((-0.75, 0.17), (-0.25, 0.35), (0.05, 0.2), (0.5, 0.15), (1.0, 0.13)))


def _centered_dist(vals, weights):
    """Distribution on the rational atoms `vals` with probabilities
    proportional to the integer `weights`, recentred exactly by moving mass
    between the extreme atoms; None when that is impossible."""
    if max(vals) <= 0 or min(vals) >= 0:
        return None
    total = sum(int(w) for w in weights)
    probs = [Fraction(int(w), total) for w in weights]
    mean = sum(p * v for p, v in zip(probs, vals))
    i = vals.index(min(vals))
    j = vals.index(max(vals))
    delta = -mean / (vals[j] - vals[i])
    probs[j] += delta
    probs[i] -= delta
    if probs[i] <= 0 or probs[j] <= 0:
        return None
    assert sum(p * v for p, v in zip(probs, vals)) == 0
    try:
        return DiscreteDistribution(
            tuple((float(v), float(p)) for v, p in zip(vals, probs))
        )
    except ModelError:
        return None


def random_bounded_dist(rng, denominators=(2, 4, 5), max_atoms=6):
    """Mean-zero distribution with 2..max_atoms atoms on a k/q grid in [-1, 1]."""
    while True:
        q = int(rng.choice(denominators))
        k = int(rng.integers(2, min(max_atoms, 2 * q + 1) + 1))
        nums = rng.choice(np.arange(-q, q + 1), size=k, replace=False)
        vals = [Fraction(int(v), q) for v in nums]
        # rejected before the weights are drawn, so the rng stream (and with
        # it every seeded test model) does not depend on the helper
        if max(vals) <= 0 or min(vals) >= 0:
            continue
        dist = _centered_dist(vals, rng.integers(1, 20, size=k))
        if dist is not None:
            return dist


def random_model(rng, n_lo=50, n_hi=500, **dist_kwargs):
    """Single-block model with log-uniform multiplicity in [n_lo, n_hi]."""
    n = int(np.exp(rng.uniform(np.log(n_lo), np.log(n_hi))))
    return SumModel(((random_bounded_dist(rng, **dist_kwargs), n),))


@hst.composite
def bounded_dists(draw, denominators=(2, 4, 5)):
    """Hypothesis strategy for mean-zero lattice distributions in [-1, 1]."""
    q = draw(hst.sampled_from(denominators))
    k = draw(hst.integers(2, min(6, 2 * q + 1)))
    picks = draw(
        hst.lists(hst.integers(-q, q), min_size=k, max_size=k, unique=True)
    )
    weights = draw(hst.lists(hst.integers(1, 19), min_size=k, max_size=k))
    dist = _centered_dist([Fraction(v, q) for v in picks], weights)
    assume(dist is not None)
    return dist


@hst.composite
def sum_models(draw, n_max=200):
    dist = draw(bounded_dists())
    n = draw(hst.integers(1, n_max))
    return SumModel(((dist, n),))
