import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hst

import sharptail
import sharptail.cli as cli
from sharptail import (
    DiscreteDistribution,
    SumModel,
    build_lattice,
    extremal_model,
    hoeffding_extremal,
    model_to_dict,
    rademacher,
    rademacher_model,
)
from sharptail.cli import main
from sharptail.sharp import BOUNDS
from sharptail.tilting import berry_esseen_tilted

from conftest import FIVE_ATOM, _centered_dist


@pytest.fixture
def eta_file(tmp_path):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(model_to_dict(extremal_model(0.25, 50))))
    return str(path)


@pytest.fixture
def neg_file(tmp_path):
    """{-1 w.p. 0.2, 0.25 w.p. 0.8} x 400, whose ratio constant is 0.85."""
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(model_to_dict(
        SumModel(((DiscreteDistribution(((-1.0, 0.2), (0.25, 0.8))), 400),)))))
    return str(path)


@pytest.fixture
def rad_file(tmp_path):
    path = tmp_path / "rad.json"
    path.write_text(json.dumps(model_to_dict(rademacher_model(100))))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# sharptail")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestBoundsCommand:
    def test_csv_shape_and_header(self, capsys, rad_file):
        code, out, _ = run(capsys, ["bounds", "--model", rad_file, "--x-grid", "0:2:5"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "x"
        assert "hoeffding" in header and "expansion_upper" in header
        assert len(rows) == 5

    def test_x_zero_row(self, capsys, rad_file):
        code, out, _ = run(capsys, [
            "bounds", "--model", rad_file, "--x-grid", "0:0:1",
            "--bounds", "hoeffding,bennett,bernstein,chernoff,mills",
        ])
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        for name in ("hoeffding", "bennett", "bernstein", "chernoff"):
            assert float(row[name]) == 1.0
        assert float(row["mills"]) == 0.5

    def test_extremal_chernoff_matches_hoeffding(self, capsys, eta_file):
        code, out, _ = run(capsys, [
            "bounds", "--model", eta_file, "--x-grid", "0:3:13",
            "--bounds", "hoeffding,chernoff",
        ])
        header, rows = parse_csv(out)
        for cells in rows:
            row = dict(zip(header, cells))
            h, c = float(row["hoeffding"]), float(row["chernoff"])
            assert c == pytest.approx(h, rel=1e-10)

    def test_hoeffding_below_bennett(self, capsys, eta_file):
        code, out, _ = run(capsys, [
            "bounds", "--model", eta_file, "--x-grid", "0:3:13",
            "--bounds", "hoeffding,bennett",
        ])
        header, rows = parse_csv(out)
        for cells in rows:
            row = dict(zip(header, cells))
            assert float(row["hoeffding"]) <= float(row["bennett"]) * (1 + 1e-14)

    def test_byte_identical_reruns(self, capsys, rad_file):
        argv = ["bounds", "--model", rad_file, "--x-grid", "0:1:7"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_json_format(self, capsys, rad_file):
        code, out, _ = run(capsys, [
            "bounds", "--model", rad_file, "--x-grid", "0:1:3", "--format", "json",
            "--bounds", "exact,two_sided",
        ])
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 3
        lat = build_lattice(rademacher_model(100))
        for row in payload["rows"]:
            assert row["exact"] == pytest.approx(lat.tail(row["x"] * 10.0, True), rel=1e-12)
            assert row["two_sided_lower"] <= row["exact"] <= row["two_sided_upper"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"components": [{"atoms": [[1.0, 0.6], [-1.0, 0.4]], "multiplicity": 2}]}')
        code, out, err = run(capsys, ["bounds", "--model", str(bad), "--x-grid", "0:1:2"])
        assert code == 2
        assert out == ""
        assert "never auto-centered" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["bounds", "--model", "/nonexistent.json", "--x-grid", "0:1:2"])
        assert code == 2

    def test_explicit_hypothesis_violation_exit_3(self, capsys, eta_file):
        # the extremal law with v = 0.25 has upper > sigma_i
        code, _, err = run(capsys, [
            "bounds", "--model", eta_file, "--x-grid", "0:1:2", "--bounds", "subgaussian",
        ])
        assert code == 3
        assert "hypothesis" in err

    @pytest.mark.parametrize("name", ["hoeffding", "bennett", "bernstein"])
    def test_classical_column_past_one_exit_3(self, capsys, tmp_path, name):
        # atoms 2 and -0.5: Hoeffding's formula reads 0 at x = 8, where the
        # exact tail is 2.8e-12
        path = tmp_path / "wide.json"
        model = SumModel(((DiscreteDistribution(((2.0, 0.2), (-0.5, 0.8))), 30),))
        path.write_text(json.dumps(model_to_dict(model)))
        code, out, err = run(capsys, [
            "bounds", "--model", str(path), "--x-grid", "0:12:49", "--bounds", name,
        ])
        assert (code, out) == (3, "")
        assert err == f"hypothesis violation: {name} needs xi_i <= 1\n"

    @pytest.mark.parametrize("atoms, n", [
        (((2.0, 0.2), (-0.5, 0.8)), 30),
        (((3.0, 0.01), (-1 / 33, 0.99)), 100),
    ])
    def test_classical_columns_blank_past_one(self, capsys, tmp_path, atoms, n):
        # on the jump-3 model, the three formulas read below the exact
        # non-strict tail at 31, 30 and 26 of these 49 points
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(model_to_dict(SumModel(((DiscreteDistribution(atoms), n),)))))
        code, out, err = run(capsys, [
            "bounds", "--model", str(path), "--x-grid", "0:12:49", "--nonstrict",
            "--format", "json",
        ])
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 49 and all(row["exact"] is not None for row in rows)
        for name in ("hoeffding", "bennett", "bernstein"):
            assert [row[name] for row in rows] == [None] * 49

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:nan:3", "-inf:1:3", "0:inf:3"])
    def test_non_finite_grid_exit_2(self, capsys, rad_file, grid):
        code, out, err = run(capsys, ["bounds", "--model", rad_file, f"--x-grid={grid}"])
        assert code == 2
        assert out == "" and err.startswith("error: bad grid")

    def test_exact_over_lattice_cap_exit_2(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        # two blocks whose reduced lattice still needs 150,997,584 points
        model = SumModel(((hoeffding_extremal(1 / 999983), 300), (rademacher(), 1)))
        big.write_text(json.dumps(model_to_dict(model)))
        code, out, err = run(capsys, [
            "bounds", "--model", str(big), "--x-grid", "0:1:2", "--bounds", "exact",
        ])
        assert code == 2
        assert out == "" and err.startswith("error: lattice would need")

    def test_wide_two_atom_model_is_exact(self, capsys, tmp_path):
        # atoms 1,123,457 steps of 10^-6 apart: 101 support points, not the
        # 112,345,701 points of the atoms' common grid
        path = tmp_path / "wide.json"
        model = extremal_model(0.123457, 100)
        path.write_text(json.dumps(model_to_dict(model)))
        code, out, err = run(capsys, [
            "bounds", "--model", str(path), "--x-grid", "0:4:9", "--bounds", "exact",
        ])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["x", "exact"] and len(rows) == 9
        lat = build_lattice(model)
        assert len(lat) == 101
        for x, p in rows:
            assert float(p) == lat.tail(float(x) * model.sigma) > 0.0
        code, out, _ = run(capsys, ["verify", "--model", str(path)])
        assert code == 0 and json.loads(out)["ok"]

    def test_unknown_bound_exit_2(self, capsys, rad_file):
        code, _, err = run(capsys, [
            "bounds", "--model", rad_file, "--x-grid", "0:1:2", "--bounds", "nope",
        ])
        assert code == 2

    @pytest.mark.parametrize("bounds", ["saddlepoint", "chernoff", "expansion,saddlepoint", "all"])
    def test_no_saddlepoint_blanks_the_cell(self, capsys, rad_file, bounds):
        # x >= 10 puts the threshold at or beyond the essential sup 100
        code, out, err = run(capsys, [
            "bounds", "--model", rad_file, "--x-grid", "0:12:25", "--bounds", bounds,
        ])
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        solved = [c for c in header if c.split("_")[0] in ("chernoff", "saddlepoint")]
        assert solved
        for cells in rows:
            row = dict(zip(header, cells))
            beyond = float(row["x"]) >= 10
            for col in solved:
                if col.endswith("_valid"):
                    assert row[col] == ("0" if beyond else "1")
                else:
                    assert (row[col] == "") == beyond

    @pytest.mark.parametrize("flag, value", [
        ("--b", "0"), ("--b", "-1"), ("--b", "nan"), ("--b", "inf"),
        ("--delta", "0"), ("--delta", "2"), ("--delta", "nan"), ("--delta", "-inf"),
    ])
    def test_bad_constant_exit_2_before_any_work(self, capsys, flag, value):
        # the model file is missing: the flag is rejected before it is read
        code, out, err = run(capsys, [
            "bounds", "--model", "/nonexistent.json", "--x-grid", "0:1:2", f"{flag}={value}",
        ])
        assert (code, out) == (2, "")
        assert err.splitlines() == [err.strip()] and err.startswith(f"error: {flag} ")

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "0.56"])
    def test_c3_flag_exit_2_before_any_work(self, capsys, value):
        # the Berry-Esseen constant is the universal 0.56, not a flag: argparse
        # refuses --c3, whatever its value, before the model file is read
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--model", "/nonexistent.json", "--x-grid", "0:1:2", f"--c3={value}"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"unrecognized arguments: --c3={value}" in err

    @pytest.mark.parametrize("argv", [
        ["--bounds", "expansion"],
        ["--bounds", "saddlepoint,expansion", "--format", "json"],
    ])
    def test_b_failing_curvature_named_exit_3(self, capsys, neg_file, argv):
        # {-1 w.p. 0.2, 0.25 w.p. 0.8}: the curvature condition fails at
        # B = 0.1, below the ratio constant 0.85, so a named expansion is refused
        code, out, err = run(capsys, [
            "bounds", "--model", neg_file, "--x-grid", "0:3:4", "--b", "0.1", *argv])
        assert (code, out) == (3, "")
        assert err == "hypothesis violation: expansion needs the curvature condition at B = 0.1\n"

    def test_b_failing_curvature_blank_under_all(self, capsys, neg_file):
        code, out, err = run(capsys, [
            "bounds", "--model", neg_file, "--x-grid", "0:3:4", "--b", "0.1"])
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        for cells in rows:
            row = dict(zip(header, cells))
            assert [row[f"expansion_{k}"] for k in ("lower", "center", "upper", "valid")] \
                == ["", "", "", "0"]
            assert row["third_moment_valid"] in ("0", "1") and row["exact"]
        # at B = 0.85, the ratio constant, the condition holds and the column fills
        code, out, _ = run(capsys, [
            "bounds", "--model", neg_file, "--x-grid", "0:3:4", "--b", "0.85"])
        header, rows = parse_csv(out)
        assert code == 0 and dict(zip(header, rows[1]))["expansion_valid"] == "1"

    @pytest.mark.parametrize("argv", [
        ["bounds", "--model", "{model}", "--x-grid", "0:1:{n}"],
        ["rate", "--model", "{model}", "--y-grid", "0:1:{n}"],
        ["bounds", "--model", "{model}", "--x-grid", "0:1:{n}", "--format", "json"],
        ["ratio", "--points", "{n}"],
    ])
    def test_grid_above_the_cap_exit_2_before_it_is_built(self, capsys, monkeypatch, rad_file, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid past the cap was built")
        monkeypatch.setattr(cli.np, "linspace", refuse)
        n = cli.MAX_GRID_POINTS + 1
        code, out, err = run(capsys, [a.format(model=rad_file, n=n) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(cli.MAX_GRID_POINTS) in err

    @pytest.mark.parametrize("value", ["0", "inf", "nan"])
    def test_verify_bad_b_exit_2(self, capsys, rad_file, value):
        code, out, err = run(capsys, ["verify", "--model", rad_file, f"--b={value}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: --b ")


_FUZZ_MODELS = {
    "rademacher100": rademacher_model(100),
    "wide2x30": SumModel(((DiscreteDistribution(((2.0, 0.2), (-0.5, 0.8))), 30),)),
    "five_atom50": SumModel(((FIVE_ATOM, 50),)),
}
_ODD = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "0.5", "1", "2"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, model in _FUZZ_MODELS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(model_to_dict(model)))
    return paths


def _parse_table(out, fmt):
    """(header, rows as lists of floats or None) of a `bounds`, `rate` or
    `ratio` stdout."""
    if fmt == "json":
        rows = json.loads(out)["rows"]
        header = list(rows[0]) if rows else []
        assert all(list(r) == header for r in rows)
        return header, [list(r.values()) for r in rows]
    header, rows = parse_csv(out)
    assert all(len(r) == len(header) for r in rows)
    return header, [[float(c) if c else None for c in r] for r in rows]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    model=hst.sampled_from(sorted(_FUZZ_MODELS)),
    grid=hst.tuples(hst.sampled_from(["0", "0.5", "3", "12", "-1", "nan", "inf", "-inf", "1e300"]),
                    hst.sampled_from(["0", "1", "3", "12", "nan", "inf", "-0.5", "1e300"]),
                    hst.sampled_from(["-1", "0", "1", "2", "7", "x"])),
    columns=hst.one_of(hst.just("all"), hst.lists(
        hst.sampled_from(cli.ALL_BOUNDS + ("nope", "")), min_size=1, max_size=4).map(",".join)),
    constants=hst.fixed_dictionaries({}, optional={
        flag: hst.sampled_from(_ODD) for flag in ("--b", "--delta")}),
    fmt=hst.sampled_from(["csv", "json"]),
    strict=hst.sampled_from(["--strict", "--nonstrict"]),
)
def test_bounds_fuzz(capsys, fuzz_files, model, grid, columns, constants, fmt, strict):
    argv = ["bounds", "--model", str(fuzz_files[model]), f"--x-grid={':'.join(grid)}",
            f"--bounds={columns}", "--format", fmt, strict]
    argv += [f"{flag}={value}" for flag, value in constants.items()]
    code, out, err = run(capsys, argv)
    assert code in (0, 2, 3), err
    if code != 0:
        assert out == "" and len(err.splitlines()) == 1
        return
    header, rows = _parse_table(out, fmt)
    for row in rows:
        cells = dict(zip(header, row))
        for name in cli.ALL_BOUNDS:
            if cells.get(f"{name}_valid"):
                lower, upper = cells[f"{name}_lower"], cells[f"{name}_upper"]
                assert 0.0 <= lower <= upper <= 1.0, (name, cells)


def _strict_json(out):
    """Parse `out`, failing on NaN or Infinity, which strict JSON lacks."""
    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(out, parse_constant=reject)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    model=hst.sampled_from(sorted(_FUZZ_MODELS)),
    constants=hst.fixed_dictionaries({}, optional={
        flag: hst.sampled_from(_ODD) for flag in ("--b", "--delta")}),
)
def test_verify_fuzz(capsys, fuzz_files, model, constants):
    argv = ["verify", "--model", str(fuzz_files[model])]
    argv += [f"{flag}={value}" for flag, value in constants.items()]
    code, out, err = run(capsys, argv)
    assert code in (0, 2, 3, 4), err
    if code in (2, 3):
        assert out == "" and len(err.splitlines()) == 1
        return
    payload = _strict_json(out)
    assert payload["ok"] is (code == 0)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    model=hst.sampled_from(sorted(_FUZZ_MODELS)),
    x=hst.floats(allow_nan=False, allow_infinity=False),
    samples=hst.integers(-1, 2000),
    method=hst.sampled_from(["mc", "tilted"]),
    strict=hst.sampled_from(["--strict", "--nonstrict"]),
)
def test_mc_fuzz(capsys, fuzz_files, model, x, samples, method, strict):
    argv = ["mc", "--model", str(fuzz_files[model]), f"--x={x!r}", f"--samples={samples}",
            "--method", method, strict, "--seed", "5"]
    code, out, err = run(capsys, argv)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and len(err.splitlines()) == 1
        return
    payload = _strict_json(out)
    assert payload["estimate"]["n_samples"] == samples


def _table_rows(out, fmt, header):
    """Rows of a `rate` or `ratio` stdout as dicts, after checking that JSON
    output is strict JSON and that the header is `header`."""
    if fmt == "json":
        _strict_json(out)
    got, rows = _parse_table(out, fmt)
    assert got == header
    return [dict(zip(header, r)) for r in rows]


_GRID_ENDS = ["0", "0.5", "1", "-0.5", "-1", "3", "nan", "inf", "-inf", "1e-300", "1e300"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    model=hst.sampled_from(sorted(_FUZZ_MODELS)),
    grid=hst.tuples(hst.sampled_from(_GRID_ENDS), hst.sampled_from(_GRID_ENDS),
                    hst.sampled_from(["-1", "0", "1", "2", "7", "x"])).map(":".join),
    fmt=hst.sampled_from(["csv", "json"]),
)
def test_rate_fuzz(capsys, fuzz_files, model, grid, fmt):
    argv = ["rate", "--model", str(fuzz_files[model]), f"--y-grid={grid}", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and len(err.splitlines()) == 1
        return
    rows = _table_rows(out, fmt, ["y", "rate", "lambda", "chernoff", "valid"])
    assert len(rows) == int(grid.split(":")[2])
    for row in rows:
        if row["valid"]:
            assert row["rate"] >= 0.0 and row["lambda"] >= 0.0, row
            assert 0.0 <= row["chernoff"] <= 1.0, row
        else:
            assert row["rate"] is row["lambda"] is row["chernoff"] is None, row


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_list=hst.lists(hst.sampled_from(["1", "2", "10", "37", "0", "-1", "-10", "1000000000",
                                       "x", ""]), min_size=1, max_size=3).map(",".join),
    x_max=hst.none() | hst.sampled_from(["0", "1e-300", "0.5", "3", "40", "1e300",
                                         "-1", "nan", "inf", "-inf"]),
    points=hst.none() | hst.sampled_from(["-1", "0", "1", "2", "31", "257", "1.5"]),
    fmt=hst.sampled_from(["csv", "json"]),
)
def test_ratio_fuzz(capsys, n_list, x_max, points, fmt):
    argv = ["ratio", f"--n-list={n_list}", "--format", fmt]
    if x_max is not None:
        argv.append(f"--x-max={x_max}")
    if points is not None:
        argv.append(f"--points={points}")
    try:
        code, out, err = run(capsys, argv)
    except SystemExit as exc:  # argparse refuses a --points that is not an integer
        code, (out, err) = exc.code, capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("usage:"), err
        return
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and len(err.splitlines()) == 1
        return
    rows = _table_rows(out, fmt, ["n", "x", "exact_tail", "theta_hoeffding", "ratio"])
    ns = {int(n) for n in n_list.split(",")}
    for row in rows:
        assert row["n"] in ns
        assert 1e-12 <= row["exact_tail"] <= 1.0, row
        assert row["theta_hoeffding"] > 0.0 and row["ratio"] > 0.0, row


#: `bounds` columns that print an upper bound on the tail, and the intervals
_UPPER_COLUMNS = ("hoeffding", "bennett", "bernstein", "chernoff", "normal_shape", "subgaussian")
_INTERVAL_COLUMNS = ("expansion", "saddlepoint", "third_moment", "two_sided")


@hst.composite
def wide_models(draw):
    """1-2 blocks of 2-4 atoms on multiples of 1/20 in [-3, 3], recentred
    exactly, with multiplicities 1-40: atoms past 1 break xi_i <= 1."""
    blocks = []
    for _ in range(draw(hst.integers(1, 2))):
        k = draw(hst.integers(2, 4))
        picks = draw(hst.lists(hst.integers(-60, 60), min_size=k, max_size=k, unique=True))
        weights = draw(hst.lists(hst.integers(1, 19), min_size=k, max_size=k))
        dist = _centered_dist([Fraction(v, 20) for v in picks], weights)
        assume(dist is not None)
        blocks.append((dist, draw(hst.integers(1, 40))))
    return SumModel(tuple(blocks))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=wide_models(), points=hst.integers(12, 30))
def test_every_printed_bound_holds_on_random_models(capsys, tmp_path, model, points):
    # every printed upper bound is at least the exact non-strict tail, every
    # valid interval contains the strict tail and a flagged one's upper end
    # lies above it; a column whose hypothesis fails is blank at every x
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    code, out, err = run(capsys, [
        "bounds", "--model", str(path), "--format", "json",
        f"--x-grid=0:{model.max_support / model.sigma!r}:{points}"])
    assert (code, err) == (0, "")
    lattice = build_lattice(model)
    failing = {name for name in _UPPER_COLUMNS + _INTERVAL_COLUMNS
               if name in BOUNDS and BOUNDS[name].violation(model) is not None}
    for row in json.loads(out)["rows"]:
        nonstrict = lattice.tail(row["x"] * model.sigma, strict=False)
        strict = lattice.tail(row["x"] * model.sigma, strict=True)
        for name in _UPPER_COLUMNS:
            value = row[name]
            if name in failing:
                assert value is None, (name, row)
            elif value is not None:
                assert value >= nonstrict * (1 - 1e-12), (name, row, nonstrict)
        for name in _INTERVAL_COLUMNS:
            lower, upper = row[f"{name}_lower"], row[f"{name}_upper"]
            if name in failing:
                assert (lower, upper, row[f"{name}_valid"]) == (None, None, False), (name, row)
            elif row[f"{name}_valid"]:
                assert lower <= strict * (1 + 1e-12), (name, row, strict)
                assert upper >= strict * (1 - 1e-12), (name, row, strict)
            elif upper is not None:
                assert upper >= strict * (1 - 1e-12), (name, row, strict)


@pytest.mark.parametrize("argv", [
    ["bounds", "--x-grid", "0:1e308:3"],
    ["bounds", "--x-grid", "0:1e308:3", "--b", "2", "--format", "json"],
    ["rate", "--y-grid", "0:1e308:3"],
    ["verify", "--b", "1e-300"],
    ["verify", "--b", "1e300"],
    ["ratio", "--n-list", "10", "--x-max", "1e308", "--points", "3"],
])
def test_huge_finite_grid_warns_nothing(capsys, tmp_path, argv):
    # products with a grid point near the float64 limit overflow to inf,
    # which each command handles; numpy must not warn about it on stderr.
    # `verify --b 1e-300` ends its curvature grid at lam = 1e301, and
    # `--b 1e300` overflows its moment cap B^3.
    # Rademacher atoms span 2, so lam * span overflows too; FIVE_ATOM's 1.75
    # keeps it finite.
    for dist in (FIVE_ATOM, rademacher()):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(SumModel(((dist, 100),)))))
        cmd = argv if argv[0] == "ratio" else [*argv, "--model", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, cmd)
        assert code == 0 and out
        assert err == ""


def test_overflowing_x_sigma_reads_zero(capsys, tmp_path):
    # at x = 5e307 and 1e308, x * sigma overflows; every closed-form bound
    # is 0 there, not a blank cell
    path = tmp_path / "five100.json"
    path.write_text(json.dumps(model_to_dict(SumModel(((FIVE_ATOM, 100),)))))
    code, out, _ = run(capsys, ["bounds", "--model", str(path), "--x-grid", "0:1e308:3",
                                "--bounds", "bennett,bernstein,hoeffding"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "bennett", "bernstein", "hoeffding"]
    assert [r[1:] for r in rows[1:]] == [["0", "0", "0"]] * 2


def test_normal_tail_bounds_stay_above_the_exact_tail(capsys, tmp_path):
    # past x ~ 8.3, 1 - Phi(x) cancels to 0; these bounds take Phi(-x)
    path = tmp_path / "rad40k.json"
    path.write_text(json.dumps(model_to_dict(rademacher_model(40000))))
    code, out, _ = run(capsys, ["bounds", "--model", str(path), "--x-grid", "8:10:5",
                                "--bounds", "exact,normal_shape,subgaussian"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "exact", "normal_shape", "subgaussian"]
    assert len(rows) == 5
    for row in rows:
        exact, *bounds = map(float, row[1:])
        assert exact > 0
        assert all(b >= exact for b in bounds), row


@pytest.mark.parametrize("b", ["1e103", "1e300"])
def test_verify_huge_b(capsys, tmp_path, b):
    # B ** (2 + delta) overflows a float past B ~ 1e102, and B * B * lam * lam
    # is inf * 0 at lam = 0; every check must still be evaluated
    path = tmp_path / "five100.json"
    path.write_text(json.dumps(model_to_dict(SumModel(((FIVE_ATOM, 100),)))))
    code, out, _ = run(capsys, ["verify", "--model", str(path), f"--b={b}"])
    assert code == 0
    checks = _strict_json(out)["inequalities"]
    assert all(c["holds"] for c in checks if not c.get("skipped"))
    assert {c["name"] for c in checks if c.get("skipped")} == {"cumulant_gaussian"}


def test_verify_b_at_the_float_limit_warns_nothing(capsys, tmp_path):
    # the expansion error term overflows at B = 1e308; on the containment
    # grid's numpy scalars that printed a RuntimeWarning on stderr
    path = tmp_path / "five100.json"
    path.write_text(json.dumps(model_to_dict(SumModel(((FIVE_ATOM, 100),)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", "--model", str(path), "--b=1e308"])
    assert (code, err) == (0, "")
    assert _strict_json(out)["ok"]


class TestRatioCommand:
    def test_columns_and_x_zero_row(self, capsys):
        code, out, _ = run(capsys, ["ratio", "--n-list", "10,20", "--x-max", "1", "--points", "3"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "x", "exact_tail", "theta_hoeffding", "ratio"]
        first = dict(zip(header, rows[0]))
        lat = build_lattice(rademacher_model(10))
        expect = lat.tail(0.0, strict=False)  # includes the atom at zero
        assert float(first["exact_tail"]) == pytest.approx(expect, rel=1e-15)
        assert float(first["ratio"]) == pytest.approx(expect / 0.5, rel=1e-12)

    def test_deterministic(self, capsys):
        argv = ["ratio", "--n-list", "50", "--x-max", "2", "--points", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_tail_floor_drops_rows(self, capsys):
        code, out, _ = run(capsys, ["ratio", "--n-list", "100", "--x-max", "10", "--points", "21"])
        header, rows = parse_csv(out)
        assert all(float(dict(zip(header, r))["exact_tail"]) >= 1e-12 for r in rows)
        assert len(rows) < 21

    @pytest.mark.parametrize("argv", [
        ["--n-list", "10,x"],
        ["--n-list", "10,"],
        ["--points", "-1"],
        ["--points", "0"],
    ])
    def test_bad_arguments_exit_2(self, capsys, argv):
        code, out, err = run(capsys, ["ratio", *argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("x_max", ["inf", "-inf", "nan"])
    def test_non_finite_x_max_exit_2(self, capsys, x_max):
        # a numpy warning from linspace would raise here instead of leaking
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["ratio", "--n-list", "10", f"--x-max={x_max}"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --x-max must be finite, got {x_max}"]

    @pytest.mark.parametrize("x_max", ["-1", "-1e-300"])
    def test_negative_x_max_exit_2(self, capsys, x_max):
        code, out, err = run(capsys, ["ratio", "--n-list", "10", f"--x-max={x_max}"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --x-max must be >= 0, got {float(x_max)}"]


def _model_file(tmp_path, components):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(SumModel(tuple(
        (DiscreteDistribution(atoms), m) for atoms, m in components)))))
    return str(path)


_WIDE_P = 0.5 / 8000.5


@pytest.mark.parametrize("components,lam,entry", [
    # tilted at 0.1, sigma_bar^3 underflows: the moment bound overflows
    ([(((-3000.0, 0.5), (3000.0, 0.5)), 10)], 0.1, "null"),
    # e^(-2 lam s) underflows: the tilted variance is 0
    ([(((-8000.0, 0.5), (8000.0, 0.5)), 10)], 0.05, "skipped"),
    ([(((-1e6, 0.5), (1e6, 0.5)), 10)], 0.1, "skipped"),
    # the +/-1 block keeps sigma_bar = 3.15 while exp(8000 lam) overflows
    ([(((-1.0, 0.5), (1.0, 0.5)), 10), (((-0.5, 1 - _WIDE_P), (8000.0, _WIDE_P)), 1)],
     0.1, "null"),
])
def test_verify_wide_atoms(capsys, tmp_path, components, lam, entry):
    # at an absolute tilt, a wide model's tilted law degenerates: the moment
    # bound overflows (null) or the tilted variance underflows (skipped)
    model = SumModel(tuple((DiscreteDistribution(atoms), m) for atoms, m in components))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = berry_esseen_tilted(model, lam).to_dict()
    if entry == "skipped":
        assert row == {"lam": lam, "skipped": True, "reason":
                       "the tilted variance is not positive and finite at this lambda"}
    else:
        assert row["holds"] is True
        assert row["moment_bound"] is None and row["bound"] is None
    # `verify` tilts in units of 1/a_max, so it checks none of these
    path = _model_file(tmp_path, components)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", "--model", path])
    assert (code, err) == (0, "")
    rows = _strict_json(out)["normal_approx"]
    assert [r["lam"] for r in rows] == [t / model.a_max for t in (0.0, 0.05, 0.1)]
    for r in rows:
        assert r["holds"] is True and r["bound"] is not None, r


@pytest.mark.parametrize("argv", [
    ["bounds", "--x-grid", "0:3:4"],
    ["verify"],
    ["rate", "--y-grid", "0:0.5:3"],
    ["mc", "--x", "1"],
], ids=lambda argv: argv[0])
def test_zero_variance_exit_2(capsys, tmp_path, argv):
    # FIVE_ATOM x 2^-560: each atom squares to 0, so the variance is 0 and
    # sigma would be 0 (mc read P(S > 0), verify divided by zero)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"components": [
        {"atoms": [[v * 2.0**-560, p] for v, p in FIVE_ATOM.atoms], "multiplicity": 100}]}))
    code, out, err = run(capsys, [*argv, "--model", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: components[0]: variance is 0.000e+00; it must be positive and finite\n"


#: {-3 w.p. 1/4, 1 w.p. 3/4} x 40: third-moment ratio 2.5, so a smaller B
#: is decided on the curvature grid, where 1.5 and 1.9 fail and 2.2 holds
_SKEWED_WIDE = [(((-3.0, 0.25), (1.0, 0.75)), 40)]


class TestVerifyCommand:
    def test_suite_decides_curvature_on_the_printed_grid(self, capsys, tmp_path):
        # the third-moment ratio 2.5 exceeds B = 2.2, so the curvature
        # condition is decided on the grid, the one `verify` prints
        path = _model_file(tmp_path, _SKEWED_WIDE)
        code, out, _ = run(capsys, ["verify", "--model", path, "--b", "2.2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["curvature_condition"]["holds"] is True
        checks = {c["name"]: c for c in payload["inequalities"]}
        assert checks["tilted_mean_two_sided"]["holds"] is True

    def test_no_grid_flag(self, capsys, rad_file):
        # the paper's inequalities hold for every tilt, so no caller picks
        # them: a grid that left out the failing tilts passed a false B
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", rad_file, "--grid", "0:0:1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid" in capsys.readouterr().err

    @pytest.mark.parametrize("B", [1.5, 1.9, 2.2, 2.5])
    def test_verify_and_bounds_decide_curvature_alike(self, capsys, tmp_path, B):
        path = _model_file(tmp_path, _SKEWED_WIDE)
        code, out, _ = run(capsys, ["verify", "--model", path, "--b", str(B)])
        payload = json.loads(out)
        holds = payload["curvature_condition"]["holds"]
        expansion = {c["name"]: c for c in payload["containment"]}["expansion"]
        skipped = expansion == {"name": "expansion", "skipped": True,
                                "reason": f"needs the curvature condition at B = {B:.6g}"}
        named, _, err = run(capsys, ["bounds", "--model", path, "--b", str(B),
                                     "--x-grid", "0:1:3", "--bounds", "expansion"])
        assert skipped is (not holds) is (named == 3), (payload, err)
        assert (code, named) == ((0, 0) if B >= 2.2 else (4, 3))
        if holds:
            assert expansion["holds"] is True

    def test_b_failing_curvature_skips_expansion_exit_4(self, capsys, neg_file):
        # B = 0.1 fails the curvature condition: expansion's containment is
        # skipped with that reason, and the printed failure still exits 4
        code, out, _ = run(capsys, ["verify", "--model", neg_file, "--b", "0.1"])
        payload = json.loads(out)
        assert (code, payload["ok"], payload["curvature_condition"]["holds"]) == (4, False, False)
        contained = {c["name"]: c for c in payload["containment"]}
        assert contained["expansion"] == {
            "name": "expansion", "skipped": True,
            "reason": "needs the curvature condition at B = 0.1"}
        assert all(contained[name]["holds"] for name in ("third_moment", "two_sided", "saddlepoint"))
        # with B defaulted to the ratio constant the condition holds and the model passes
        code, out, _ = run(capsys, ["verify", "--model", neg_file])
        payload = json.loads(out)
        assert (code, payload["ok"]) == (0, True)
        assert {c["name"]: c for c in payload["containment"]}["expansion"]["holds"] is True

    def test_rademacher_passes(self, capsys, rad_file):
        code, out, _ = run(capsys, ["verify", "--model", rad_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["curvature_condition"]["holds"] is True
        names = {c["name"] for c in payload["inequalities"]}
        assert "mgf_two_point" in names and "tilted_variance_lower" in names
        assert all(not c.get("skipped") for c in payload["inequalities"])
        assert all(r["holds"] for r in payload["normal_approx"])
        assert all(r["holds"] for r in payload["containment"])

    def test_skipped_rows_marked(self, capsys, tmp_path):
        # upper bound 2 > 1: the xi <= 1 family must be skipped, not failed
        from sharptail import DiscreteDistribution, SumModel

        wide = SumModel(((DiscreteDistribution(((2.0, 0.2), (-0.5, 0.8))), 30),))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(model_to_dict(wide)))
        code, out, _ = run(capsys, ["verify", "--model", str(path), "--b", "2.0"])
        assert code == 0
        payload = json.loads(out)
        skipped = {c["name"] for c in payload["inequalities"] if c.get("skipped")}
        assert "mgf_two_point" in skipped and "tilted_mean_lower" in skipped
        contained = {c["name"]: c for c in payload["containment"]}
        assert contained["expansion"]["skipped"] is True
        assert contained["two_sided"]["skipped"] is True
        assert contained["saddlepoint"]["holds"] is True

    def test_rejected_model_no_partial_output(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"components": []}')
        code, out, err = run(capsys, ["verify", "--model", str(bad)])
        assert code == 2
        assert out == ""

    def test_failure_exit_4(self, capsys, rad_file, monkeypatch):
        from sharptail.tilting import InequalityCheck, SuiteReport

        fake = SuiteReport((InequalityCheck("mgf_two_point", True, False, -1.0, 0.5),))
        monkeypatch.setattr(cli, "inequality_suite", lambda *a, **k: fake)
        code, out, _ = run(capsys, ["verify", "--model", rad_file])
        assert code == 4
        assert json.loads(out)["ok"] is False


class TestRateCommand:
    def test_rademacher_closed_form(self, capsys, rad_file):
        code, out, _ = run(capsys, ["rate", "--model", rad_file, "--y-grid", "0:0.8:5"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["y", "rate", "lambda", "chernoff", "valid"]
        for cells in rows:
            row = dict(zip(header, cells))
            y = float(row["y"])
            expect = (1 + y) / 2 * math.log1p(y) + (1 - y) / 2 * math.log1p(-y) if y > 0 else 0.0
            assert float(row["rate"]) == pytest.approx(expect, rel=1e-10, abs=1e-15)
            assert row["valid"] == "1"

    def test_out_of_range_flagged(self, capsys, rad_file):
        code, out, _ = run(capsys, ["rate", "--model", rad_file, "--y-grid", "0.5:1.5:3"])
        assert code == 0
        header, rows = parse_csv(out)
        flags = [dict(zip(header, r))["valid"] for r in rows]
        assert flags == ["1", "0", "0"]

    def test_tiny_y_rate_not_negative(self, capsys, tmp_path):
        # cum(lam) rounds a few ulps past lam * y here; the rate read -3.5e-300
        path = tmp_path / "five.json"
        path.write_text(json.dumps(model_to_dict(SumModel(((FIVE_ATOM, 50),)))))
        code, out, _ = run(capsys, ["rate", "--model", str(path), "--y-grid", "0:1e-300:2"])
        assert code == 0
        header, rows = parse_csv(out)
        assert [dict(zip(header, r))["rate"] for r in rows] == ["0", "0"]


class TestMcCommand:
    def test_reproducible_json(self, capsys, rad_file):
        argv = ["mc", "--model", rad_file, "--x", "1.0", "--samples", "2000", "--seed", "11"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["estimate"]["method"] == "mc"
        assert payload["estimate"]["n_samples"] == 2000

    def test_tilted_close_to_exact(self, capsys, rad_file):
        code, out, _ = run(capsys, [
            "mc", "--model", rad_file, "--x", "2.0", "--samples", "20000",
            "--seed", "3", "--method", "tilted",
        ])
        payload = json.loads(out)
        est = payload["estimate"]
        exact = build_lattice(rademacher_model(100)).tail(20.0, True)
        assert abs(est["p"] - exact) <= 4 * est["stderr"]
        assert payload["relative_stderr"] <= 0.05

    def test_zero_hits_note(self, capsys, tmp_path):
        path = tmp_path / "rad400.json"
        path.write_text(json.dumps(model_to_dict(rademacher_model(400))))
        code, out, _ = run(capsys, [
            "mc", "--model", str(path), "--x", "6.0", "--samples", "10000", "--seed", "1",
        ])
        payload = json.loads(out)
        assert payload["estimate"]["p"] == 0.0
        assert "upper confidence" in payload["note"]

    def test_note_follows_the_hit_count(self, capsys, tmp_path):
        # P(1) = 1e-100: about half the tilted rows pass t = 3.5, but each
        # weight scales by e^(cum - lam t) ~ 1e-400, so p underflows to 0;
        # plain rows almost never hit
        model = SumModel(((DiscreteDistribution(((-1e-100, 1.0), (1.0, 1e-100))), 8),))
        path = tmp_path / "rare.json"
        path.write_text(json.dumps(model_to_dict(model)))
        argv = ["mc", "--model", str(path), f"--x={3.5 / model.sigma!r}", "--samples", "2000",
                "--seed", "1"]
        code, out, _ = run(capsys, argv + ["--method", "tilted"])
        tilted = json.loads(out)
        assert code == 0 and tilted["estimate"]["p"] == 0.0
        assert tilted["estimate"]["hits"] > 0 and "note" not in tilted
        code, out, _ = run(capsys, argv)
        plain = json.loads(out)
        assert code == 0 and plain["estimate"]["hits"] == 0
        assert plain["note"].startswith("no hits:")

    @pytest.mark.parametrize("samples,bound", [(1, "9.500e-01"), (2, "7.764e-01"),
                                               (10**5, "2.996e-05")])
    def test_zero_hits_bound_is_exact(self, capsys, tmp_path, samples, bound):
        # 1 - 0.05^(1/n), the exact 95% bound for zero successes in n trials:
        # at most 1, and below the rule of three's 3/n
        path = tmp_path / "rad400.json"
        path.write_text(json.dumps(model_to_dict(rademacher_model(400))))
        code, out, _ = run(capsys, [
            "mc", "--model", str(path), "--x", "6.0", "--samples", str(samples), "--seed", "1",
        ])
        payload = json.loads(out)
        assert code == 0 and payload["estimate"]["p"] == 0.0
        assert payload["note"] == f"no hits: a one-sided 95% upper confidence bound is {bound}"

    @pytest.mark.parametrize("method", ["mc", "tilted"])
    def test_nan_threshold_exit_2(self, capsys, rad_file, method):
        code, out, err = run(capsys, [
            "mc", "--model", rad_file, "--x", "nan", "--samples", "100", "--method", method,
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nan" in err

    @pytest.mark.parametrize("method", ["mc", "tilted"])
    @pytest.mark.parametrize("x", ["inf", "-inf"])
    def test_infinite_threshold_exit_2(self, capsys, rad_file, method, x):
        code, out, err = run(capsys, [
            "mc", "--model", rad_file, f"--x={x}", "--samples", "100", "--method", method,
        ])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --x must be finite, got {x}"]

    @pytest.mark.parametrize("method", ["mc", "tilted"])
    def test_json_identical_across_chunk_sizes(self, capsys, monkeypatch, tmp_path, method):
        # two alias-table blocks and one multinomial fallback (its table would
        # take 214625 cell updates for 20000 draws)
        model = SumModel(((rademacher(), 40), (FIVE_ATOM, 50), (hoeffding_extremal(0.25), 30)))
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(model_to_dict(model)))
        argv = ["mc", "--model", str(path), "--x", "1.5", "--samples", "20000",
                "--seed", "12", "--method", method]
        _, ref, _ = run(capsys, argv)
        for chunk in (1000, 4096, 5000, 1 << 16):
            monkeypatch.setattr(sharptail.oracle, "_MC_CHUNK", chunk)
            assert run(capsys, argv) == (0, ref, "")


def test_import_leaves_out_scipy():
    # the package does not depend on scipy, whose import would be most of
    # CLI start-up
    src = os.path.dirname(os.path.dirname(sharptail.__file__))
    code = ("import sharptail.cli, sys; "
            "assert not [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def _parser_flags(parser) -> set[str]:
    """Every long option of `parser` and of its subcommands, but --help."""
    flags = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--") and s != "--help")
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_command_line_names_every_flag():
    # README's "Command line" section and the parser define the same flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    assert documented == _parser_flags(cli.build_parser())
