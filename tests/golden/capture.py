#!/usr/bin/env python3
"""Write tests/golden/cli_outputs.json: the exit code and a SHA-256 digest of
the stdout of `bounds` and `verify` on fixed models, grids and flags.

Run from anywhere, at a commit whose outputs are trusted:

    python3 tests/golden/capture.py

`tests/test_golden.py` reruns every case and compares byte for byte.  The
fixture keeps digests, not the outputs themselves (about 1.5 MB); to see how
the outputs differ from those of another checkout (say, the parent commit),
run

    python3 tests/golden/capture.py --against DIR

which writes no fixture and prints each case whose exit code or stdout
differs, with every field that changed (list entries one by one, such as
`normal_approx[3].sup_distance` or the CSV cell `hoeffding[4]`) and, for
each list with a changed entry, how many of its entries kept their bits.
Models built here are written to a temporary directory; the benchmark's
model files under `perfbench/models` are only read.  Each stored argv names
its model file as "{model}".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import subprocess
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


def outputs(src: Path) -> dict:
    """Case id -> (exit code, stdout), with the package imported from `src`."""
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_models(Path(tmp))
        return {case: run_case(argv, paths[model])
                for case, (model, argv) in cases().items()}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def fields(stdout: str) -> dict:
    """Value of each field of one output, by path: the key path of a JSON
    leaf, with list elements indexed (`normal_approx[3].sup_distance`) or, if
    they have a "name" key, named (`containment[two_sided].holds`); or a CSV
    cell as `column[row]`, rows counted from 0."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        lines = [ln.split(",") for ln in stdout.splitlines() if not ln.startswith("#")]
        return {f"{name}[{i}]": _cell(cell)
                for i, row in enumerate(lines[1:]) for name, cell in zip(lines[0], row)}
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                named = isinstance(value, dict) and "name" in value
                walk(value, f"{path}[{value['name'] if named else i}]")
        else:
            out[path] = node
    walk(obj, "")
    return out


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _relative(x, y) -> float:
    return abs(x - y) / max(abs(x), abs(y))


#: one list index or name inside a field path
_ENTRY = re.compile(r"\[[^][]*\]")


def field_changes(old: str, new: str) -> list[str]:
    """One line per field whose value differs: its relative change
    |a - b| / max(|a|, |b|) with the two values, or the two values when
    either is not a number ("absent" in an output without the field).  Then
    one line per list with a changed entry: how many of its entries kept
    every bit."""
    a, b = fields(old), fields(new)
    lines = []
    kept: dict = {}  # list path -> {entry path: every field of it unchanged}
    for path in dict.fromkeys([*a, *b]):
        x, y = a.get(path), b.get(path)
        same = path in a and path in b and (x == y or (x != x and y != y))
        for m in _ENTRY.finditer(path):
            entries = kept.setdefault(path[:m.start()], {})
            entries[path[:m.end()]] = entries.get(path[:m.end()], True) and same
        if same:
            continue
        if _number(x) and _number(y):
            lines.append(f"  {path}: relative change {_relative(x, y):.3g} ({x!r} -> {y!r})")
        else:
            shown = [repr(d[path]) if path in d else "absent" for d in (a, b)]
            lines.append(f"  {path}: {shown[0]} -> {shown[1]}")
    for name, entries in kept.items():
        if not all(entries.values()):
            lines.append(f"  {name}[]: {sum(entries.values())} of {len(entries)} "
                         f"entries kept their bits")
    return lines


def compare(other: Path) -> int:
    """Print every case whose output differs between `other` and this checkout."""
    proc = subprocess.run(
        [sys.executable, __file__, "--outputs-of", str(other / "src")],
        capture_output=True, text=True, check=True)
    theirs = json.loads(proc.stdout)
    ours = outputs(ROOT / "src")
    changed = 0
    for case, (rc, out) in ours.items():
        if case not in theirs:
            print(f"{case}: new case")
            changed += 1
            continue
        old_rc, old_out = theirs[case]
        if (old_rc, old_out) == (rc, out):
            continue
        changed += 1
        print(f"{case}: exit {old_rc} -> {rc}" if old_rc != rc else f"{case}:")
        for line in field_changes(old_out, out):
            print(line)
    print(f"{changed} of {len(ours)} cases differ")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare with the outputs of the checkout at DIR; "
                             "the fixture is not written")
    parser.add_argument("--outputs-of", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.outputs_of is not None:
        json.dump(outputs(args.outputs_of), sys.stdout)
        return 0
    if args.against is not None:
        return compare(args.against.resolve())
    fixture = {}
    for case, (rc, out) in outputs(ROOT / "src").items():
        model, argv = cases()[case]
        fixture[case] = {"argv": list(argv), "model": model, "exit": rc,
                         "stdout_sha256": digest(out)}
    with open(FIXTURE, "w") as f:
        json.dump(fixture, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
