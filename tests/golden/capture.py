#!/usr/bin/env python3
"""Write tests/golden/cli_outputs.json: the exit code and a SHA-256 digest of
the stdout of `bounds` and `verify` on fixed models, grids and flags.

Run from anywhere, at a commit whose outputs are trusted:

    python3 tests/golden/capture.py

`tests/test_golden.py` reruns every case and compares byte for byte.  The
fixture keeps digests, not the outputs themselves (about 1.5 MB); to see how
an output changed, rerun its argv at both commits.  Models
built here are written to a temporary directory; the benchmark's model files
under `perfbench/models` are only read.  Each stored argv names its model
file as "{model}".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
FIXTURE = HERE / "cli_outputs.json"

GRIDS = ("0:3:31", "0:12:25")
PERFBENCH_MODELS = ("five100", "five400", "mix600")


def built_models() -> dict:
    """The models made in-process, by fixture name."""
    from sharptail import DiscreteDistribution, SumModel, extremal_model, rademacher_model
    from conftest import FIVE_ATOM

    def iid(atoms, n):
        return SumModel(((DiscreteDistribution(atoms), n),))

    return {
        "rademacher100": rademacher_model(100),
        "extremal0.25x50": extremal_model(0.25, 50),
        "wide2x30": iid(((2.0, 0.2), (-0.5, 0.8)), 30),
        "low2x40": iid(((-2.0, 1 / 3), (1.0, 2 / 3)), 40),
        "five_atom50": SumModel(((FIVE_ATOM, 50),)),
        "five_atom3": SumModel(((FIVE_ATOM, 3),)),
    }


def cases() -> dict:
    """Case id -> (model name, argv with "{model}" for its file)."""
    from sharptail.cli import ALL_BOUNDS

    out = {}
    for model in (*built_models(), *PERFBENCH_MODELS):
        for grid in GRIDS:
            base = ("bounds", "--model", "{model}", "--x-grid", grid)
            for fmt in ("csv", "json"):
                out[f"{model}/{grid}/all-{fmt}"] = (model, base + ("--format", fmt))
                out[f"{model}/{grid}/all-{fmt}-b2-nonstrict"] = (
                    model, base + ("--format", fmt, "--b", "2", "--nonstrict"))
            for name in ALL_BOUNDS:
                out[f"{model}/{grid}/{name}"] = (model, base + ("--bounds", name))
        out[f"{model}/verify"] = (model, ("verify", "--model", "{model}"))
        out[f"{model}/verify-b2"] = (model, ("verify", "--model", "{model}", "--b", "2"))
    return out


def write_models(directory: Path) -> dict:
    """Model name -> path of its JSON file."""
    from sharptail import model_to_dict

    paths = {}
    for name, model in built_models().items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(model_to_dict(model)))
        paths[name] = str(path)
    for name in PERFBENCH_MODELS:
        paths[name] = str(ROOT / "perfbench" / "models" / f"{name}.json")
    return paths


def run_case(argv, model_file: str) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call."""
    from sharptail.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([a.replace("{model}", model_file) for a in argv])
    return rc, out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    fixture = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_models(Path(tmp))
        for case, (model, argv) in cases().items():
            rc, out = run_case(argv, paths[model])
            fixture[case] = {"argv": list(argv), "model": model, "exit": rc,
                             "stdout_sha256": digest(out)}
    with open(FIXTURE, "w") as f:
        json.dump(fixture, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
