"""`bounds` and `verify` reproduce, byte for byte, the exit codes and stdout
digests stored in tests/golden/cli_outputs.json (written by
tests/golden/capture.py)."""

import json

import pytest

from golden import capture

GOLDEN = json.loads(capture.FIXTURE.read_text())


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    return capture.write_models(tmp_path_factory.mktemp("golden"))


def test_fixture_covers_every_case():
    declared = {case: [model, list(argv)] for case, (model, argv) in capture.cases().items()}
    assert declared == {case: [e["model"], e["argv"]] for case, e in GOLDEN.items()}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_matches_golden(case, model_files):
    want = GOLDEN[case]
    rc, out = capture.run_case(want["argv"], model_files[want["model"]])
    assert (rc, capture.digest(out)) == (want["exit"], want["stdout_sha256"]), out[:2000]


def test_field_changes_lists_each_entry():
    old = {"ok": True, "normal_approx": [{"lam": 0.0, "sup": 0.5}, {"lam": 0.1, "sup": 0.25},
                                          {"lam": 0.2, "sup": 0.125}],
           "containment": [{"name": "two_sided", "holds": True, "worst_margin": 1e-10},
                           {"name": "expansion", "holds": True, "worst_margin": 2.0}]}
    new = json.loads(json.dumps(old))
    new["normal_approx"][1]["sup"] = 0.2500000000000001
    new["containment"][0]["worst_margin"] = None
    new["normal_approx"].append({"lam": 0.3, "sup": 0.0625})
    assert capture.field_changes(json.dumps(old), json.dumps(new)) == [
        "  normal_approx[1].sup: relative change 4.44e-16 (0.25 -> 0.2500000000000001)",
        "  containment[two_sided].worst_margin: 1e-10 -> None",
        "  normal_approx[3].lam: absent -> 0.3",
        "  normal_approx[3].sup: absent -> 0.0625",
        "  normal_approx[]: 2 of 4 entries kept their bits",
        "  containment[]: 1 of 2 entries kept their bits",
    ]
    assert capture.field_changes(json.dumps(old), json.dumps(old)) == []


def test_field_changes_lists_each_csv_cell():
    old = "# sharptail bounds v1\nx,hoeffding,mills_valid\n0,1,1\n1,0.5,1\n2,nan,0\n"
    new = "# sharptail bounds v1\nx,hoeffding,mills_valid\n0,1,1\n1,0.75,1\n2,nan,\n"
    assert capture.field_changes(old, new) == [
        "  hoeffding[1]: relative change 0.333 (0.5 -> 0.75)",
        "  mills_valid[2]: 0.0 -> ''",
        "  hoeffding[]: 2 of 3 entries kept their bits",
        "  mills_valid[]: 2 of 3 entries kept their bits",
    ]
