"""The packed tilt kernel against 50-digit arithmetic, and its lam = 0 identity."""

import json
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from sharptail import SumModel, build_lattice, build_tilted_lattice, model_to_dict
from sharptail._tiltmath import packed_tilt, tilted_stats
from sharptail.oracle import _convolve_components, _lattice_layout
from sharptail.cli import main

from conftest import FIVE_ATOM, _centered_dist


@hst.composite
def two_and_five_atom_models(draw):
    """A two-atom and a five-atom block in either order, so one packed row is
    padded with three zero-probability atoms."""
    comps = []
    for k in (2, 5):
        q = draw(hst.sampled_from((3, 4, 5)))
        picks = draw(hst.lists(hst.integers(-q, q), min_size=k, max_size=k, unique=True))
        weights = draw(hst.lists(hst.integers(1, 19), min_size=k, max_size=k))
        dist = _centered_dist([Fraction(v, q) for v in picks], weights)
        assume(dist is not None)
        comps.append((dist, draw(hst.integers(1, 60))))
    if draw(hst.booleans()):
        comps.reverse()
    return SumModel(tuple(comps))


def mp_row(values, probs, lam):
    """(log-MGF, mean, variance) of one row at 50 digits, on its float atoms."""
    with mpmath.workdps(50):
        vs = [mpmath.mpf(v) for v in values]
        w = [mpmath.mpf(p) * mpmath.exp(mpmath.mpf(lam) * v) for v, p in zip(vs, probs)]
        z = mpmath.fsum(w)
        mean = mpmath.fsum(wi * v for wi, v in zip(w, vs)) / z
        # the pairwise form has no cancellation, however concentrated the tilt
        var = mpmath.fsum(w[i] * w[j] * (vs[i] - vs[j]) ** 2
                          for i in range(len(vs)) for j in range(i)) / z**2
        return mpmath.log(z), mean, var


# tilts up to 0.99 of the float64 saturation cap lam * max(values) = 700
_TILTS = hst.lists(hst.just(0.0) | hst.floats(0.0, 0.99), min_size=1, max_size=4)


@given(model=two_and_five_atom_models(), fractions=_TILTS)
@settings(max_examples=150, deadline=None)
def test_rows_match_50_digits(model, fractions):
    values, probs, _ = model.packed_atoms
    lams = [f * 700.0 / model.a_max for f in fractions]
    stats, tp = packed_tilt(values, probs, lams)
    for i, lam in enumerate(lams):
        for row, (dist, _) in enumerate(model.components):
            log_mgf, mean, var = mp_row(dist.values, dist.probs, lam)
            scale = float(np.abs(dist.values).max())
            assert abs(stats[0, i, row] - log_mgf) <= 1e-13 * max(1.0, lam * scale)
            assert abs(stats[1, i, row] - mean) <= 1e-14 * scale
            # the variance keeps its relative accuracy until the tilted
            # weights of the lower atoms reach the subnormal range
            assert abs(stats[2, i, row] - var) <= 1e-12 * var + 1e-290
            assert abs(tp[i, row].sum() - 1.0) <= 1e-14


@given(model=two_and_five_atom_models())
@settings(max_examples=50, deadline=None)
def test_zero_tilt_is_the_identity(model):
    values, probs, _ = model.packed_atoms
    _, tp = packed_tilt(values, probs, [0.3, 0.0, 1.0])
    assert np.array_equal(tp[1], probs)
    for dist, _ in model.components:
        assert np.array_equal(tilted_stats(dist.values, dist.probs, 0.0)[3], dist.probs)
    # the plain lattice of an equal model built separately, and the fold of
    # the untilted layout: build_lattice is this very build, so neither is
    # the same object
    tilted, plain = build_tilted_lattice(model, 0.0), build_lattice(SumModel(model.components))
    untilted = _convolve_components(*_lattice_layout(
        [(d.values, d.probs, m) for d, m in model.components]))
    for other in (plain, untilted):
        assert other is not tilted
        assert ((tilted.denominator, tilted.base, tilted.stride)
                == (other.denominator, other.base, other.stride))
        assert np.array_equal(tilted.masses, other.masses)


def test_tilted_variance_margins_vanish_at_zero(capsys, tmp_path):
    # at lam = 0 the summed two-pass variances equal sigma^2 to the bit
    path = tmp_path / "five_atom50.json"
    path.write_text(json.dumps(model_to_dict(SumModel(((FIVE_ATOM, 50),)))))
    assert main(["verify", "--model", str(path), "--b", "2"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["inequalities"]}
    for name in ("tilted_variance_two_sided", "tilted_variance_lower"):
        assert (checks[name]["worst_margin"], checks[name]["worst_lambda"]) == (0.0, 0.0)
