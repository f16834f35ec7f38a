import json
import math
import os
import subprocess
import sys

import pytest

import sharptail
import sharptail.cli as cli
from sharptail import build_lattice, extremal_model, model_to_dict, rademacher_model
from sharptail.cli import main


@pytest.fixture
def eta_file(tmp_path):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(model_to_dict(extremal_model(0.25, 50))))
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

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:nan:3", "-inf:1:3", "0:inf:3"])
    def test_non_finite_grid_exit_2(self, capsys, rad_file, grid):
        code, out, err = run(capsys, ["bounds", "--model", rad_file, f"--x-grid={grid}"])
        assert code == 2
        assert out == "" and err.startswith("error: bad grid")

    def test_exact_over_lattice_cap_exit_2(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(model_to_dict(extremal_model(1 / 999983, 300))))
        code, out, err = run(capsys, [
            "bounds", "--model", str(big), "--x-grid", "0:1:2", "--bounds", "exact",
        ])
        assert code == 2
        assert out == "" and err.startswith("error: lattice would need")

    def test_unknown_bound_exit_2(self, capsys, rad_file):
        code, _, err = run(capsys, [
            "bounds", "--model", rad_file, "--x-grid", "0:1:2", "--bounds", "nope",
        ])
        assert code == 2


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


class TestVerifyCommand:
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
            "mc", "--model", str(path), "--x", "4.0", "--samples", "10000", "--seed", "1",
        ])
        payload = json.loads(out)
        assert payload["estimate"]["p"] == 0.0
        assert "upper confidence" in payload["note"]

    @pytest.mark.parametrize("method", ["mc", "tilted"])
    def test_nan_threshold_exit_2(self, capsys, rad_file, method):
        code, out, err = run(capsys, [
            "mc", "--model", rad_file, "--x", "nan", "--samples", "100", "--method", method,
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nan" in err


def test_import_leaves_out_scipy_optimize():
    # importing scipy.optimize costs a large share of CLI start-up
    src = os.path.dirname(os.path.dirname(sharptail.__file__))
    code = "import sharptail.cli, sys; assert 'scipy.optimize' not in sys.modules"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
