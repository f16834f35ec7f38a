#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs every benchmark job is checked against.

Run from the checkout root, at a commit whose outputs are trusted:

    python3 perfbench/capture_reference.py

Deterministic steps store their exit code and stdout; "bentkus" steps store
the returned value; "mc" steps store the exact oracle tail their estimates
are checked against (the estimates themselves depend on the seed), and a
tilted "mc" step also the standard error it reports with the seed of job 0
of seed 0, which later standard errors are checked against.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for wl in workloads.WORKLOADS.values():
        exact = workloads.exact_tails(wl)
        for step in wl.steps:
            if step.kind == "mc":
                reference[step.name] = {"argv": list(step.argv), "exact_tail": exact[step.name]}
                if workloads.mc_method(step) == "tilted":
                    rc, out, err = workloads.run_step(step, 0, 0)
                    if rc != 0:
                        raise RuntimeError(f"{step.name}: exit {rc}: {err.strip()}")
                    reference[step.name]["stderr"] = json.loads(out)["estimate"]["stderr"]
            elif step.kind == "bentkus":
                reference[step.name] = {"model": step.model, "x": step.x,
                                        "value": workloads.run_step(step, 0, 0)}
            else:
                rc, out, _ = workloads.run_step(step, 0, 0)
                reference[step.name] = {"argv": list(step.argv), "exit": rc, "stdout": out}
    with open(workloads.REFERENCE_FILE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
