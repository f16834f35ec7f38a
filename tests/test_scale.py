"""Scale covariance: every constant that carries the atoms' unit reads the
law's own scale, so multiplying every atom (and B) by 2^k, which is exact,
changes no bit of the exact tails, the Chernoff bounds, the seeded Monte-Carlo
estimates or the B-gated decisions, and scales the saddlepoints, the
curvature and suite grids and `verify`'s tilts by 2^-k."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from sharptail import DiscreteDistribution, SumModel, build_lattice, model_to_dict
from sharptail.cli import main
from sharptail.rate import solve_target
from sharptail.tilting import inequality_suite

from conftest import _centered_dist

#: the suite's checks whose hypotheses involve B or sigma_i, not xi_i <= 1
_SCALED_GATES = ("mgf_gaussian", "tilted_mean_two_sided", "tilted_variance_two_sided",
                 "cumulant_gaussian", "tilted_variance_lower")


@hst.composite
def rational_models(draw):
    """1-2 blocks of 2-4 atoms a/q in [-4, 4], one q <= 1000 for the model,
    recentred exactly, with multiplicities 1-6."""
    q = draw(hst.integers(1, 1000))
    blocks = []
    for _ in range(draw(hst.integers(1, 2))):
        k = draw(hst.integers(2, 4))
        picks = draw(hst.lists(hst.integers(-4 * q, 4 * q), min_size=k, max_size=k, unique=True))
        weights = draw(hst.lists(hst.integers(1, 19), min_size=k, max_size=k))
        dist = _centered_dist([Fraction(a, q) for a in picks], weights)
        assume(dist is not None)
        blocks.append((dist, draw(hst.integers(1, 6))))
    return SumModel(tuple(blocks))


def scaled(model, k):
    return SumModel(tuple(
        (DiscreteDistribution(tuple((v * 2.0**k, p) for v, p in d.atoms)), m)
        for d, m in model.components))


def cli(argv, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--model", str(path)])
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(model=rational_models(), k=hst.integers(-40, 40), seed=hst.integers(0, 2**32))
# an absolute saddlepoint gate of 1e-12 accepted any tilt for thresholds of 1e-11
@example(model=SumModel(((DiscreteDistribution(((-0.03125, 0.3), (0.0, 0.6), (0.09375, 0.1))),
                          1),)), k=-33, seed=0)
def test_scaling_the_atoms_by_a_power_of_two(tmp_path_factory, model, k, seed):
    wide = scaled(model, k)
    paths = []
    for name, m in (("unit", model), ("wide", wide)):
        paths.append(tmp_path_factory.mktemp("scale") / f"{name}.json")
        paths[-1].write_text(json.dumps(model_to_dict(m)))

    lat, lat_k = build_lattice(model), build_lattice(wide)
    assert lat.quantization_error == lat_k.quantization_error == 0.0
    assert lat_k.masses.tobytes() == lat.masses.tobytes()
    assert lat_k.values.tobytes() == (lat.values * 2.0**k).tobytes()

    bounds = ["bounds", "--x-grid", "0:4:17", "--bounds", "exact,chernoff,mills"]
    assert cli(bounds, paths[1]) == cli(bounds, paths[0])

    for f in (0.1, 0.5, 0.9):  # thresholds inside the support, which have a saddlepoint
        lam = solve_target(model, f * model.max_support).lam
        assert solve_target(wide, f * wide.max_support).lam * 2.0**k == lam

    x = repr(0.5 * model.max_support / model.sigma)
    for method in ("mc", "tilted"):
        argv = ["mc", "--x", x, "--samples", "1000", "--seed", str(seed), "--method", method]
        (code, out), (code_k, out_k) = (cli(argv, p) for p in paths)
        assert code == code_k == 0
        est, est_k = json.loads(out)["estimate"], json.loads(out_k)["estimate"]
        assert (est_k["p"], est_k["stderr"], est_k["hits"]) == (est["p"], est["stderr"], est["hits"])

    B = model.b_ratio
    rep, rep_k = inequality_suite(model, B), inequality_suite(wide, B * 2.0**k)
    for name in _SCALED_GATES:
        assert (rep_k[name].applicable, rep_k[name].reason) == \
            (rep[name].applicable, rep[name].reason), name
        # the suite grid is in the law's unit, so its worst tilt scales too;
        # `holds` is not compared, as some margins still carry a unit
        if rep[name].applicable:
            assert rep_k[name].worst_lambda * 2.0**k == rep[name].worst_lambda, name

    (code, out), (code_k, out_k) = (
        cli(["verify", "--b", repr(b)], p) for b, p in ((B, paths[0]), (B * 2.0**k, paths[1])))
    # exit 4 is allowed: the suite's margins are not all scale-free yet
    assert code in (0, 4) and code_k in (0, 4)
    report, report_k = json.loads(out), json.loads(out_k)
    curv, curv_k = report["curvature_condition"], report_k["curvature_condition"]
    assert curv_k == {"B": curv["B"] * 2.0**k, "holds": curv["holds"],
                      "worst_margin": curv["worst_margin"] * 4.0**k,
                      "worst_lambda": curv["worst_lambda"] * 2.0**-k}
    # the 1.12/sigma_bar bound needs |xi_i| <= 1, a hypothesis in the unit of
    # the paper's normalisation, so only the scale-free fields are compared;
    # the moment bound's sigma_bar^(2+delta) is a libm pow, which is not
    # exact under scaling, so it may move by an ulp
    for row, row_k in zip(report["normal_approx"], report_k["normal_approx"], strict=True):
        assert row_k["lam"] * 2.0**k == row["lam"]
        assert row_k["sigma_bar"] == row["sigma_bar"] * 2.0**k
        assert row_k["sup_distance"] == row["sup_distance"]
        assert math.isclose(row_k["moment_bound"], row["moment_bound"], rel_tol=1e-15)


@pytest.mark.parametrize("k", [-30, -20, 0])
def test_verify_fair_coins_at_any_scale(tmp_path, k):
    # with the suite grid capped at lam = 5 in absolute terms, 20 fair
    # +/-2^-30 summands were tilted only to lam * 2^-30 <= 5 * 2^-30, where
    # the cumulant is rounding noise, and cumulant_gaussian failed
    path = tmp_path / "coins.json"
    path.write_text(json.dumps({"components": [
        {"atoms": [[-(2.0**k), 0.5], [2.0**k, 0.5]], "multiplicity": 20}]}))
    code, out = cli(["verify"], path)
    assert code == 0, out
    for check in json.loads(out)["inequalities"]:
        assert check["worst_lambda"] * 2.0**k <= 1.0, check
