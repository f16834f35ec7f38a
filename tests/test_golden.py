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
