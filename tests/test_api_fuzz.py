"""The public functions' error contract: on odd thresholds, huge
multiplicities and tiny sample counts, every call returns a number in its
range or raises one of the `sharptail.errors` types, never anything else."""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as hst

from sharptail import (
    DiscreteDistribution,
    SumModel,
    bentkus_bound,
    chernoff_bound,
    exact_tail,
    expansion_interval,
    fenchel_legendre,
    mc_tail,
    saddlepoint_interval,
    solve_target,
    third_moment_interval,
    tilted_mc_tail,
    two_sided_interval,
)
from sharptail import errors

from conftest import FIVE_ATOM

_TYPED = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))

_LAWS = {
    "rademacher": ((-1.0, 0.5), (1.0, 0.5)),
    "five_atom": FIVE_ATOM.atoms,
    "wide": ((2.0, 0.2), (-0.5, 0.8)),
    # no fraction with a small denominator equals 0.1 pi: a snapped lattice
    "snapped": ((-0.1 * math.pi, 0.5), (0.1 * math.pi, 0.5)),
}

_THRESHOLDS = hst.sampled_from([
    math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308 / 2, 1.0, 3.0])


def _probability(p):
    return 0.0 <= p <= 1.0


def _saddlepoint(sp):
    return 0.0 <= sp.lam < math.inf and _probability(math.exp(sp.log_bound))


def _interval(iv):
    return _probability(iv.lower) and _probability(iv.upper) and iv.lower <= iv.upper


#: public function -> (its call on (model, threshold, strict, samples, seed),
#: whether a returned value lies in its range)
_CALLS = {
    "exact_tail": (lambda m, t, s, n, seed: exact_tail(m, t, s).p, _probability),
    "mc_tail": (lambda m, t, s, n, seed: mc_tail(m, t, s, n, seed).p, _probability),
    "tilted_mc_tail": (lambda m, t, s, n, seed: tilted_mc_tail(m, t, s, n, seed).p,
                       _probability),
    "solve_target": (lambda m, t, s, n, seed: solve_target(m, t), _saddlepoint),
    "chernoff_bound": (lambda m, t, s, n, seed: chernoff_bound(m, t), _probability),
    "fenchel_legendre": (lambda m, t, s, n, seed: fenchel_legendre(m, t),
                         lambda r: 0.0 <= r <= math.inf),
    "bentkus_bound": (lambda m, t, s, n, seed: bentkus_bound(m, t), _probability),
    "expansion_interval": (lambda m, t, s, n, seed: expansion_interval(m, t, m.b_ratio),
                           _interval),
    "saddlepoint_interval": (lambda m, t, s, n, seed: saddlepoint_interval(m, t), _interval),
    "third_moment_interval": (lambda m, t, s, n, seed: third_moment_interval(m, t), _interval),
    "two_sided_interval": (lambda m, t, s, n, seed: two_sided_interval(m, t), _interval),
}


@settings(max_examples=300, deadline=None)
@given(name=hst.sampled_from(sorted(_CALLS)), law=hst.sampled_from(sorted(_LAWS)),
       mult=hst.sampled_from([1, 3, 40, 10**9]), threshold=_THRESHOLDS,
       strict=hst.booleans(), samples=hst.integers(-1, 5), seed=hst.integers(0, 2**64))
def test_public_functions_return_in_range_or_raise_typed(name, law, mult, threshold, strict,
                                                          samples, seed):
    model = SumModel(((DiscreteDistribution(_LAWS[law]), mult),))
    call, in_range = _CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(model, threshold, strict, samples, seed)
        except _TYPED:
            return
    assert in_range(value), value
