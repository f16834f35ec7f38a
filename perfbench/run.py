#!/usr/bin/env python3
"""The sharptail benchmark.  Run from the checkout root:

    python3 perfbench/run.py --workload model_sweep --seed 1 --seconds 24 --trace 0

Workloads and their jobs are defined in perfbench/workloads.py; BENCHMARK.json
lists them with every metric.  The package is imported from ``src/`` with no
build step, as the test suite imports it.

--trace 0 measures the end-to-end metrics: ``setup_s`` is the median wall
time of several fresh interpreters that import ``sharptail.cli``, build its
parser and load the workload's model files, half of them started before the
worker and half after it, so that the samples span the whole run (one more,
untimed, runs first so bytecode caches are warm); the job metrics come from
one fresh worker process running the closed loop untraced.  --trace 1
measures the per-layer metrics in a worker whose second half-window is
traced.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with the machine, the environment and
the seed, is written to perfbench/results/<workload>-seed<seed>-trace<t>.json,
and a traced run's spans beside it.  Exit status is 0 when the run
completed, whether or not its outputs were correct, and 1 when it could not
run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: the run must end within this many seconds of starting
DEADLINE_S = 170.0
#: timed set-up interpreters per untraced run, half before the worker, half after
SETUP_REPS = 6

#: threading settings every child interpreter starts with
PINNED = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_CODE = """\
import sys
import sharptail.cli
from sharptail.models import load_model
sharptail.cli.build_parser()
for path in sys.argv[1:]:
    load_model(path)
"""


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def measure_setup(model_paths, reps: int, deadline: float, warmup: bool) -> list[float]:
    """Wall times of `reps` fresh interpreters doing the CLI's start-up work,
    after one untimed interpreter if `warmup` is set.

    The wait blocks without a timeout, because a wait with one polls in
    steps of up to 50 ms; a timer kills a child that overruns the deadline.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, *model_paths]
    times = []
    for i in range(reps + warmup):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env())
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        if i >= warmup:
            times.append(time.perf_counter() - t0)
    return times


def run_worker(args, spans_path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sharptail" / "__init__.py").is_file():
        print(f"error: no sharptail package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"{stem}-spans.json" if args.trace else None
    try:
        setup = []
        paths = [workloads.model_path(m) for m in workloads.WORKLOADS[args.workload].models]
        if not args.trace:
            setup = measure_setup(paths, SETUP_REPS // 2, deadline, warmup=True)
        worker = run_worker(args, spans_path, deadline)
        if not args.trace:
            setup += measure_setup(paths, SETUP_REPS - SETUP_REPS // 2, deadline, warmup=False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if setup:
        worker["setup_s"] = statistics.median(setup)
        worker["setup_s_samples"] = setup
    metrics = {m["name"]: {"value": worker[m["name"]], "unit": m["unit"]} for m in wanted}
    problems = worker.get("trace_problems", []) + worker["warmup_failures"]
    correct = worker["failed"] == 0 and not problems
    summary = {"correct": correct, "attempted": worker["attempted"],
               "failed": worker["failed"], "metrics": metrics}

    record = dict(worker, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, correct=correct, metrics=metrics)
    with open(RESULTS / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for line in worker["failures"] + problems:
        print(f"FAIL {line}")
    if not args.trace:
        d = worker["detail"]
        print(f"{args.workload} seed={args.seed}: {d['jobs']} jobs in {d['wall_s']:.2f} s, "
              f"error_rate={worker['error_rate']:.4g}, job_ms_tail at "
              f"p{d['job_ms_tail_percentile']:g} ({d['jobs_beyond_tail']} jobs beyond), "
              f"setup_s over {len(setup)} interpreters")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
