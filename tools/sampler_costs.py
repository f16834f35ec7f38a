#!/usr/bin/env python3
"""Time the Monte-Carlo oracle's two component samplers against its rule.

For each of ten component shapes (2 to 5 atoms, multiplicity 10 to 10^6)
this measures

- the build of the component's Walker alias table (`_component_sampler`
  forced onto its table),
- the cost per row of drawing from that table, and
- the cost per row of drawing multinomial atom counts (`_Multinomial`),

both per row over `_MC_CHUNK`-row draws from the oracle's own streams, as
the estimators draw them.  A run of n samples then costs build + n * table
row on the table side and n * multinomial row on the other.  For n = 2^8 to
2^22 the script finds the sampler that `_table_build_ns`, `_TABLE_NS` and
`_BINOMIAL_NS` pick and prints, per shape, the worst ratio of the picked
sampler's time to the other's, then the worst over all shapes.  The
comment above `_TABLE_NS` in `src/sharptail/oracle.py` quotes that figure:
a ratio of 2 or more means the constants need refitting.

    PYTHONPATH=src python3 tools/sampler_costs.py

About half a minute on a 2-core Xeon; it times one process, so run it on an
otherwise idle machine.
"""

from __future__ import annotations

import statistics
import time

from sharptail import DiscreteDistribution, hoeffding_extremal, rademacher
from sharptail import oracle
from sharptail.oracle import _MC_CHUNK, _component_rng, _component_sampler, _Multinomial

FIVE_ATOM = DiscreteDistribution(
    ((-0.75, 0.17), (-0.25, 0.35), (0.05, 0.2), (0.5, 0.15), (1.0, 0.13)))
THREE_ATOM = DiscreteDistribution(((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)))
FOUR_ATOM = DiscreteDistribution(((-1.0, 0.25), (-1 / 3, 0.25), (1 / 3, 0.25), (1.0, 0.25)))

#: (label, distribution, multiplicity)
SHAPES = (
    ("rademacher x 10", rademacher(), 10),
    ("rademacher x 1000", rademacher(), 1000),
    ("rademacher x 10^6", rademacher(), 10**6),
    ("extremal(0.25) x 300", hoeffding_extremal(0.25), 300),
    ("extremal(0.123457) x 80", hoeffding_extremal(0.123457), 80),
    ("three-atom x 30", THREE_ATOM, 30),
    ("three-atom x 1000", THREE_ATOM, 1000),
    ("four-atom x 50", FOUR_ATOM, 50),
    ("five-atom x 7", FIVE_ATOM, 7),
    ("five-atom x 100", FIVE_ATOM, 100),
)

SIZES = [2**k for k in range(8, 23)]
REPEATS = 5


def median_time(fn, repeats: int = REPEATS) -> float:
    """Median wall seconds of `repeats` calls of fn()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def row_seconds(sampler) -> float:
    """Seconds per row of `sampler.draw` over _MC_CHUNK-row draws."""
    rng = _component_rng(1, 0)
    sampler.draw(rng, _MC_CHUNK)  # warm
    return median_time(lambda: sampler.draw(rng, _MC_CHUNK)) / _MC_CHUNK


def measure(dist, mult: int) -> dict:
    """Build and per-row costs of both samplers, and the rule's inputs."""
    _, [(offsets, _, _)], quant = oracle._lattice_layout([(dist.values, dist.probs, mult)])
    if quant != 0.0:
        raise SystemExit(f"{dist} has quantized atoms: it never takes a table")
    k, span = len(offsets), offsets[-1]  # offsets start at 0
    # a sample count no table build outweighs, so the rule picks the table
    table = _component_sampler(dist, mult, 10**15)
    build = median_time(lambda: _component_sampler(dist, mult, 10**15))
    return {
        "atoms": k,
        "build_s": build,
        "table_row_s": row_seconds(table),
        "multinomial_row_s": row_seconds(_Multinomial(dist.values, dist.probs, mult)),
        "predicted_build_ns": oracle._table_build_ns(k, span, mult),
    }


def worst_ratio(m: dict) -> tuple[float, int]:
    """Worst (picked time / other time) over SIZES, and the size it occurs at."""
    worst, at = 0.0, SIZES[0]
    for n in SIZES:
        table_s = m["build_s"] + n * m["table_row_s"]
        multi_s = n * m["multinomial_row_s"]
        picks_table = m["predicted_build_ns"] <= n * (m["atoms"] - 1) * oracle._BINOMIAL_NS
        ratio = table_s / multi_s if picks_table else multi_s / table_s
        if ratio > worst:
            worst, at = ratio, n
    return worst, at


def main() -> None:
    print(f"{'shape':<26}{'build ms':>10}{'table ns/row':>14}{'multi ns/row':>14}"
          f"{'worst':>8}{'at n':>10}")
    overall = (0.0, "", 0)
    for label, dist, mult in SHAPES:
        m = measure(dist, mult)
        ratio, n = worst_ratio(m)
        print(f"{label:<26}{m['build_s'] * 1e3:>10.3f}{m['table_row_s'] * 1e9:>14.1f}"
              f"{m['multinomial_row_s'] * 1e9:>14.1f}{ratio:>8.2f}{n:>10}")
        overall = max(overall, (ratio, label, n))
    ratio, label, n = overall
    print(f"worst ratio of the picked sampler's time to the other's: "
          f"{ratio:.2f} ({label}, n = {n})")


if __name__ == "__main__":
    main()
