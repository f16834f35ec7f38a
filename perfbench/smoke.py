#!/usr/bin/env python3
"""Smoke test of the benchmark harness.  Run from the checkout root:

    python3 perfbench/smoke.py

Runs every workload with ``--seconds 0`` (one job per window), untraced and
traced, and checks that each run passes its correctness gate, prints every
metric BENCHMARK.json lists for it with the listed unit, and writes a result
file that records the seed and the environment; a traced run must also have
wrapped every function the tracer lists.  Exits 0 when every check passes.  Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ENVIRONMENT_KEYS = ("cpu_model", "nproc", "python", "numpy", "scipy",
                    "sharptail_backend", "thread_pinning")


def check_run(workload: str, trace: int, bench: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct: {proc.stdout.strip()[-1000:]}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != wanted:
        errors.append(f"{where}: metrics {got} != {wanted}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} has value {m.get('value')!r}")
    record_path = HERE / "results" / f"{workload}-seed7-trace{trace}.json"
    record = json.loads(record_path.read_text())
    missing = [k for k in ENVIRONMENT_KEYS if k not in record["environment"]]
    if missing or record["seed"] != 7:
        errors.append(f"{where}: result file lacks seed or environment {missing}")
    if trace and record.get("not_wrapped") != []:
        errors.append(f"{where}: functions not traced: {record.get('not_wrapped')}")
    if not trace and "error_rate" not in record:
        errors.append(f"{where}: result file lacks error_rate")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, bench)
            print(f"{workload} --trace {trace}: {'FAILED' if found else 'ok'}", flush=True)
            errors += found
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
