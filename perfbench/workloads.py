"""The benchmark's workloads: what one job runs and how its output is checked.

A job is a fixed list of steps.  A CLI step calls ``sharptail.cli.main(argv)``
in-process with stdout and stderr captured; a library step calls a public
function.  Model files live in ``perfbench/models`` and are given to the CLI
by path relative to the checkout root, which is the working directory.

Only Monte-Carlo seeds depend on the workload seed: job ``j`` of a run with
seed ``s`` passes ``--seed`` = ``mc_seed(s, j)`` to both of its estimates.
Every other step is deterministic and is compared with the outputs captured
in ``reference.json`` (see ``capture_reference.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: relative tolerance on every numeric cell compared with the reference
RTOL = 1e-9
#: an MC estimate may sit this many of its own standard errors from the exact tail
MC_Z = 5.0
#: a reported MC standard error may differ from the expected one by this factor
#: either way: for plain MC the binomial sqrt(q(1-q)/n) with q the exact tail,
#: for tilted MC the standard error stored in reference.json at capture time
MC_STDERR_FACTOR = 1.5


def model_path(name: str) -> str:
    return f"perfbench/models/{name}.json"


def mc_seed(seed: int, job: int) -> int:
    return seed * 2**20 + job


def mc_method(step: "Step") -> str:
    return step.argv[step.argv.index("--method") + 1]


def mc_samples(step: "Step") -> int:
    return int(step.argv[step.argv.index("--samples") + 1])


@dataclass(frozen=True)
class Step:
    """One call inside a job.

    kind is "csv" (CLI, CSV stdout), "verify" (CLI, verify JSON), "mc" (CLI,
    Monte-Carlo JSON, checked against the exact tail of `model` at `x`) or
    "bentkus" (library call ``bentkus_bound(load_model(model), x)``).
    """

    name: str
    kind: str
    argv: tuple[str, ...] = ()
    model: str | None = None
    x: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    models: tuple[str, ...]
    #: fixed percentile reported as job_ms_tail: the highest that keeps at
    #: least ten jobs beyond it in a 24 s run at the commit that defined the
    #: benchmark (mc_deep completes about ten jobs, so it reports its slowest)
    tail_pct: float


def _mc_step(method: str) -> Step:
    return Step(
        f"mc_{method}_mix600", "mc",
        ("mc", "--model", model_path("mix600"), "--x", "3", "--samples", "1000000",
         "--method", method, "--seed", "{seed}"),
        model="mix600", x=3.0,
    )


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "two_point_exact",
            steps=(
                Step("ratio", "csv", ("ratio",)),
                Step("bentkus_five100", "bentkus", model="five100", x=3.0),
            ),
            models=("five100",),
            tail_pct=60.0,
        ),
        Workload(
            "model_sweep",
            steps=(
                Step("bounds_mix600", "csv",
                     ("bounds", "--model", model_path("mix600"), "--x-grid", "0:3:31")),
                Step("rate_mix600", "csv",
                     ("rate", "--model", model_path("mix600"), "--y-grid", "0:0.8:33")),
            ),
            models=("mix600",),
            tail_pct=90.0,
        ),
        Workload(
            "verify_five",
            steps=(Step("verify_five400", "verify", ("verify", "--model", model_path("five400"))),),
            models=("five400",),
            tail_pct=85.0,
        ),
        Workload(
            "mc_deep",
            steps=(_mc_step("mc"), _mc_step("tilted")),
            models=("mix600",),
            tail_pct=100.0,
        ),
    )
}


def run_cli(argv) -> tuple[int, str, str]:
    from sharptail import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def run_step(step: Step, seed: int, job: int):
    """Run one step; returns (exit code, stdout, stderr) or, for a library
    step, the returned value."""
    if step.kind == "bentkus":
        import sharptail

        return sharptail.bentkus_bound(sharptail.load_model(model_path(step.model)), step.x)
    argv = [a.replace("{seed}", str(mc_seed(seed, job))) for a in step.argv]
    return run_cli(argv)


def load_reference() -> dict:
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def exact_tails(workload: Workload) -> dict:
    """Exact oracle tails the "mc" steps are checked against, keyed by step name."""
    import sharptail

    out = {}
    for step in workload.steps:
        if step.kind == "mc":
            model = sharptail.load_model(model_path(step.model))
            out[step.name] = sharptail.build_lattice(model).tail(step.x * model.sigma, strict=True)
    return out


# ---------------------------------------------------------------------------
# comparison with the reference
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def _cell_diff(got: str, want: str, where: str) -> list[str]:
    if got == want:
        return []
    try:
        g, w = float(got), float(want)
    except ValueError:
        return [f"{where}: {got!r} != {want!r}"]
    return [] if _close(g, w) else [f"{where}: {got} != {want}"]


def compare_csv(got: str, want: str) -> list[str]:
    g_lines, w_lines = got.splitlines(), want.splitlines()
    if len(g_lines) != len(w_lines):
        return [f"{len(g_lines)} lines, reference has {len(w_lines)}"]
    diffs = []
    for i, (gl, wl) in enumerate(zip(g_lines, w_lines)):
        if gl.startswith("#") or wl.startswith("#") or i == 1:
            if gl != wl:
                diffs.append(f"line {i + 1}: {gl!r} != {wl!r}")
            continue
        gc, wc = gl.split(","), wl.split(",")
        if len(gc) != len(wc):
            diffs.append(f"line {i + 1}: {len(gc)} cells, reference has {len(wc)}")
            continue
        for j, (a, b) in enumerate(zip(gc, wc)):
            diffs += _cell_diff(a, b, f"line {i + 1} cell {j + 1}")
    return diffs


def compare_json(got, want, where: str = "$") -> list[str]:
    num = (int, float)
    if isinstance(got, num) and isinstance(want, num) \
            and not isinstance(got, bool) and not isinstance(want, bool):
        return [] if _close(float(got), float(want)) else [f"{where}: {got} != {want}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, dict):
        if list(got) != list(want):
            return [f"{where}: keys {list(got)} != {list(want)}"]
        return [d for k in got for d in compare_json(got[k], want[k], f"{where}.{k}")]
    if isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (a, b) in enumerate(zip(got, want))
                for d in compare_json(a, b, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def check_step(step: Step, output, reference: dict, exact: dict) -> list[str]:
    """Mismatches of one step's output; an empty list means it passed."""
    if step.kind == "bentkus":
        want = reference[step.name]["value"]
        return [] if _close(output, want) else [f"{step.name}: {output!r} != {want!r}"]
    rc, out, err = output
    ref = reference[step.name]
    if step.kind == "mc":
        if rc != 0:
            return [f"{step.name}: exit {rc}: {err.strip()}"]
        est = json.loads(out)["estimate"]
        p, stderr, q = est["p"], est["stderr"], exact[step.name]
        samples = mc_samples(step)
        if not _close(q, ref["exact_tail"]):
            return [f"{step.name}: exact tail {q} != {ref['exact_tail']}"]
        if est["n_samples"] != samples:
            return [f"{step.name}: n_samples {est['n_samples']} != {samples}"]
        if mc_method(step) == "mc":
            want_se = math.sqrt(q * (1.0 - q) / samples)
        else:
            want_se = ref["stderr"]
        if not want_se / MC_STDERR_FACTOR <= stderr <= want_se * MC_STDERR_FACTOR:
            return [f"{step.name}: stderr {stderr} is not within a factor "
                    f"{MC_STDERR_FACTOR} of {want_se}"]
        if not abs(p - q) <= MC_Z * stderr:
            return [f"{step.name}: p={p} stderr={stderr} exact={q}"]
        return []
    if rc != ref["exit"]:
        return [f"{step.name}: exit {rc} != {ref['exit']}: {err.strip()}"]
    if step.kind == "csv":
        diffs = compare_csv(out, ref["stdout"])
    else:
        payload = json.loads(out)
        diffs = compare_json(payload, json.loads(ref["stdout"]))
        if payload.get("ok") is not True:
            diffs.append('"ok" is not true')
    return [f"{step.name}: {d}" for d in diffs[:5]]
