"""Every benchmark step passes the benchmark's correctness gate.

`perfbench/workloads.py` is loaded read-only, as `test_trace_names.py` loads
the tracer, and each step that does not draw random numbers is run once
through its `run_step` and checked by its `check_step` against
`perfbench/reference.json`, at the gate's rtol 1e-9.  So is the exact
lattice tail that the Monte-Carlo steps are scored against.  A change that a
benchmark run would mark incorrect fails here first, in about 0.1 s.

The Monte-Carlo steps (10^6 draws each) are run for jobs 0 and 1 of seed 0,
about 0.2 s per job, and checked by the same `check_step`: each estimate
within 5 of its standard errors of the exact tail, and each standard error
within a factor 1.5 of the expected one.  A sampler fault fails here before
it fails a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
STEPS = [s for w in workloads.WORKLOADS.values() for s in w.steps if s.kind != "mc"]
MC_STEPS = [s for w in workloads.WORKLOADS.values() for s in w.steps if s.kind == "mc"]
MC_WORKLOADS = [w for w in workloads.WORKLOADS.values() if any(s.kind == "mc" for s in w.steps)]


@pytest.fixture
def reference(monkeypatch):
    # model files are named relative to the checkout root
    monkeypatch.chdir(ROOT)
    return workloads.load_reference()


def test_every_deterministic_step_is_covered():
    assert sorted(s.name for s in STEPS) == [
        "bentkus_five100", "bounds_mix600", "rate_mix600", "ratio", "verify_five400"]


@pytest.mark.parametrize("step", STEPS, ids=lambda s: s.name)
def test_step_matches_reference(reference, step):
    output = workloads.run_step(step, seed=0, job=0)
    assert workloads.check_step(step, output, reference, {}) == []


@pytest.mark.parametrize("workload", MC_WORKLOADS, ids=lambda w: w.name)
def test_exact_tail_matches_reference(reference, workload):
    tails = workloads.exact_tails(workload)
    assert tails
    for name, q in tails.items():
        assert workloads._close(q, reference[name]["exact_tail"]), (name, q)


def test_every_mc_step_is_covered():
    assert sorted(s.name for s in MC_STEPS) == ["mc_mc_mix600", "mc_tilted_mix600"]


@pytest.mark.parametrize("job", [0, 1])
@pytest.mark.parametrize("workload", MC_WORKLOADS, ids=lambda w: w.name)
def test_mc_steps_pass_the_gate(reference, workload, job):
    exact = workloads.exact_tails(workload)
    for step in (s for s in workload.steps if s.kind == "mc"):
        output = workloads.run_step(step, seed=0, job=job)
        assert workloads.check_step(step, output, reference, exact) == [], step.name
