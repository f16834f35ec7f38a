"""Run one workload as a closed loop in this process and print one JSON object.

Started by run.py in a fresh interpreter, so that peak RSS belongs to this
workload alone.  One client, one thread: each job starts when the previous
one has finished and been checked.  The parent pins BLAS and OpenMP thread
pools to one thread through the environment before this interpreter starts.

With --trace 0 the loop runs untraced for the whole window.  With --trace 1
the first half of the window runs untraced and the second half traced, and
the convolution kernel is then timed alone on three component shapes.  A
traced run is marked incorrect if a function the tracer should wrap is
missing, if a job's time is not covered by layer spans, or if the exact
counts differ between jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sharptail  # noqa: E402
import sharptail.cli  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: a traced job may spend at most this share of its time outside every layer span
ATTRIBUTION_SLACK = 0.02

#: the three component shapes of the kernel micro-benchmark:
#: (name, offsets, probabilities, folds)
KERNEL_SHAPES = (
    ("kernel.pm1_n10000_ms", (0, 2), (0.5, 0.5), 10_000),
    ("kernel.two_point_n2000_ms", (0, 5), (0.8, 0.2), 2_000),
    ("kernel.five_atom_n1000_ms", (0, 7, 19, 28, 40), (0.25, 0.20, 0.15, 0.25, 0.15), 1_000),
)
KERNEL_REPEATS = 3


class Loop:
    """Latencies and check results of one closed-loop window."""

    def __init__(self):
        self.latencies: list[float] = []
        self.passed = 0
        self.failures: list[str] = []
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def jobs_per_s(self) -> float:
        return self.passed / self.wall


def run_loop(wl, ctx, seconds, first_job, tracer=None) -> Loop:
    """Run jobs until `seconds` have passed; the first job always runs to the end."""
    loop = Loop()
    job = first_job
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.job = job
            root = tracer.open(tracing.ROOT_SPAN)
        t0 = time.perf_counter()
        outputs = [workloads.run_step(step, ctx["seed"], job) for step in wl.steps]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
        loop.latencies.append(t1 - t0)
        diffs = [d for step, out in zip(wl.steps, outputs)
                 for d in workloads.check_step(step, out, ctx["reference"], ctx["exact"])]
        if diffs:
            loop.failures += [f"job {job}: {d}" for d in diffs]
        else:
            loop.passed += 1
        job += 1
        now = time.perf_counter()
        if now - start >= seconds:
            break
    loop.wall = now - start
    return loop


def end_to_end(wl, loop: Loop) -> dict:
    lat_ms = np.array(loop.latencies) * 1e3
    tail = float(np.percentile(lat_ms, wl.tail_pct))
    return {
        "jobs_per_s": loop.jobs_per_s,
        "job_ms_p50": float(np.median(lat_ms)),
        "job_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": (loop.attempted - loop.passed) / loop.attempted,
        "detail": {
            "jobs": loop.attempted,
            "wall_s": loop.wall,
            "job_ms_tail_percentile": wl.tail_pct,
            "jobs_beyond_tail": int(np.sum(lat_ms > tail)),
        },
    }


def kernel_bench() -> dict:
    """Median time of the oracle's convolution kernel on each shape, in ms."""
    kernel = getattr(sharptail.oracle, "convolve_repeat", None)
    if kernel is None:
        from sharptail._convolve_py import convolve_repeat as kernel
    out = {}
    for name, offsets, probs, folds in KERNEL_SHAPES:
        offs = np.array(offsets, dtype=np.int64)
        ps = np.array(probs)
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            masses = kernel(np.ones(1), offs, ps, folds)
            times.append(time.perf_counter() - t0)
            if abs(math.fsum(masses) - 1.0) > 1e-9:
                raise RuntimeError(f"{name}: kernel mass drift {math.fsum(masses) - 1.0:.3e}")
        out[name] = statistics.median(times) * 1e3
    out["detail_kernel"] = f"{kernel.__module__}.{kernel.__qualname__}"
    return out


def per_layer(tr: tracing.Tracer, loop: Loop, untraced: Loop) -> tuple[dict, list[str]]:
    """Per-job layer metrics of a traced window, and any attribution problems."""
    jobs = loop.attempted
    self_t = tr.self_times()
    metric_of = {f"{m}.{a}": metric for m, a, metric in tracing.SPANS}
    metrics = {metric: 0.0 for metric in metric_of.values()}
    job_attr: dict[int, float] = {}
    for (name_idx, _, _, _, job), st in zip(tr.spans, self_t):
        name = tr.names[name_idx]
        if name == tracing.ROOT_SPAN:
            continue
        metrics[metric_of[name]] += st * 1e3 / jobs
        job_attr[job] = job_attr.get(job, 0.0) + st

    # a layer function that was renamed or moved would silently read 0
    problems = [f"{name} not found in the package, so it is not traced" for name in tr.missing]
    job_ids = range(tr.job - jobs + 1, tr.job + 1)
    counts = tr.counts.get(job_ids[0], {})
    for job in job_ids[1:]:
        if tr.counts.get(job, {}) != counts:
            problems.append(f"job {job} counts {dict(tr.counts.get(job, {}))} differ "
                            f"from job {job_ids[0]} {dict(counts)}")
    for name in ("oracle.lattice_calls", "oracle.lattice_points", "oracle.cell_updates",
                 "oracle.tail_queries", "rate.solves", "rate.cumderiv_evals", "sharp.intervals"):
        metrics[name] = counts.get(name, 0)
    metrics["rate.evals_per_solve"] = (
        metrics["rate.cumderiv_evals"] / metrics["rate.solves"] if metrics["rate.solves"] else 0.0)
    mc_s = (metrics["oracle.mc_ms"] + metrics["oracle.tilted_mc_ms"]) * jobs / 1e3
    metrics["oracle.mc_draws_per_s"] = counts.get("oracle.mc_draws", 0) * jobs / mc_s if mc_s else 0.0

    unattributed = []
    for job, latency in zip(job_ids, loop.latencies):
        gap = latency - job_attr.get(job, 0.0)
        unattributed.append(gap / latency)
        if gap > ATTRIBUTION_SLACK * latency:
            problems.append(f"job {job}: {gap * 1e3:.3f} ms of {latency * 1e3:.3f} ms "
                            f"outside every layer span (slack {ATTRIBUTION_SLACK:.0%})")
    metrics["trace.unattributed_pct"] = 100.0 * max(unattributed)
    metrics["trace.job_ms"] = statistics.mean(loop.latencies) * 1e3
    metrics["trace.overhead_pct"] = 100.0 * (untraced.jobs_per_s / loop.jobs_per_s - 1.0)
    return metrics, problems


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sharptail_backend": getattr(sharptail, "BACKEND", "unknown"),
        "sharptail_file": os.path.relpath(sharptail.__file__, ROOT),
        "thread_pinning": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None, help="file the traced run's spans are written to")
    args = ap.parse_args()

    os.chdir(ROOT)
    if Path(sharptail.__file__).resolve().parent != ROOT / "src" / "sharptail":
        raise RuntimeError(f"sharptail imported from {sharptail.__file__}, not from src/")
    wl = workloads.WORKLOADS[args.workload]
    ctx = {"seed": args.seed, "reference": workloads.load_reference(),
           "exact": workloads.exact_tails(wl)}

    warm = run_loop(wl, ctx, 0.0, first_job=0)
    result = {"environment": environment(), "warmup_failures": warm.failures}
    if args.trace == 0:
        loop = run_loop(wl, ctx, args.seconds, first_job=1)
        result.update(end_to_end(wl, loop), attempted=loop.attempted,
                      failed=loop.attempted - loop.passed, failures=loop.failures[:20])
    else:
        untraced = run_loop(wl, ctx, args.seconds / 2, first_job=1)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_loop(wl, ctx, args.seconds / 2,
                              first_job=1 + untraced.attempted, tracer=tr)
        finally:
            tr.uninstall()
        metrics, problems = per_layer(tr, traced, untraced)
        kernel = kernel_bench()
        result["environment"]["kernel"] = kernel.pop("detail_kernel")
        metrics.update(kernel)
        if args.spans:
            tr.write(args.spans)
        attempted = untraced.attempted + traced.attempted
        failed = attempted - untraced.passed - traced.passed
        result.update(metrics, attempted=attempted, failed=failed, trace_problems=problems,
                      not_wrapped=tr.missing,
                      failures=(untraced.failures + traced.failures)[:20],
                      detail={"untraced_jobs": untraced.attempted,
                              "traced_jobs": traced.attempted,
                              "spans": len(tr.spans)})
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
