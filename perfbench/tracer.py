"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces each public function listed in ``SPANS`` with a
wrapper that records a span (name, start, end, parent, job), in every
``sharptail`` module namespace that holds it: ``cli`` binds ``build_lattice``
and ``solve_target`` directly, the package re-exports everything, and a
module's own global lookups (``solve_target`` calling ``cumulant_deriv``) go
through its namespace too.  ``COUNTED`` functions only bump counters, because
they are called too often, or too deep inside a span, to be worth a span.

Spans are kept in memory and written by ``write`` when the run ends.  A
layer's self time is its span's duration minus the durations of its direct
children; spans nest strictly because the run is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

#: (module, attribute, metric the span's self time is added to).  The metric
#: names the layer; an attribute missing from the package is skipped and
#: listed in Tracer.missing.
SPANS = (
    ("models", "load_model", "models.load_ms"),
    ("models", "loads_model", "models.load_ms"),
    ("models", "model_from_dict", "models.load_ms"),
    ("models", "rademacher_model", "models.load_ms"),
    ("models", "extremal_model", "models.load_ms"),
    ("models", "check_curvature_condition", "models.curvature_ms"),
    ("models", "curvature_condition_from_moments", "models.curvature_ms"),
    ("classical", "normal_cdf", "classical.self_ms"),
    ("classical", "mills_ratio", "classical.self_ms"),
    ("classical", "bennett_log", "classical.self_ms"),
    ("classical", "bennett_bound", "classical.self_ms"),
    ("classical", "hoeffding_log", "classical.self_ms"),
    ("classical", "hoeffding_bound", "classical.self_ms"),
    ("classical", "bernstein_arg", "classical.self_ms"),
    ("classical", "bernstein_bound", "classical.self_ms"),
    ("rate", "solve_target", "rate.solve_ms"),
    ("rate", "solve_saddlepoint", "rate.solve_ms"),
    ("rate", "chernoff_log", "rate.solve_ms"),
    ("rate", "chernoff_bound", "rate.solve_ms"),
    ("rate", "fenchel_legendre", "rate.solve_ms"),
    ("rate", "cumulant", "rate.solve_ms"),
    ("sharp", "expansion_interval", "sharp.interval_ms"),
    ("sharp", "saddlepoint_interval", "sharp.interval_ms"),
    ("sharp", "third_moment_interval", "sharp.interval_ms"),
    ("sharp", "two_sided_interval", "sharp.interval_ms"),
    ("sharp", "expansion_error", "sharp.interval_ms"),
    ("sharp", "normal_tail_upper", "sharp.interval_ms"),
    ("sharp", "subgaussian_upper", "sharp.interval_ms"),
    ("tilting", "tilt", "tilting.tilt_ms"),
    ("tilting", "inequality_suite", "tilting.suite_ms"),
    ("tilting", "berry_esseen_tilted", "tilting.berry_esseen_ms"),
    ("oracle", "build_lattice", "oracle.lattice_ms"),
    ("oracle", "build_tilted_lattice", "oracle.lattice_ms"),
    ("oracle", "exact_tail", "oracle.tail_ms"),
    ("oracle", "LatticeDistribution.tail", "oracle.tail_ms"),
    ("oracle", "LatticeDistribution.suffix_sums", "oracle.suffix_ms"),
    ("oracle", "log_concave_hull", "oracle.hull_ms"),
    ("oracle", "bentkus_bound", "oracle.hull_ms"),
    ("oracle", "mc_tail", "oracle.mc_ms"),
    ("oracle", "tilted_mc_tail", "oracle.tilted_mc_ms"),
    ("cli", "main", "cli.self_ms"),
)

ROOT_SPAN = "job"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_cells(counts, args, kwargs, result):
    # the shift-add kernel touches `atoms` cells per output point of each fold
    masses = _arg(args, kwargs, 0, "masses")
    offsets = _arg(args, kwargs, 1, "offsets")
    times = int(_arg(args, kwargs, 3, "times"))
    span = int(offsets[-1])
    counts["oracle.cell_updates"] += len(offsets) * (
        times * len(masses) + span * times * (times - 1) // 2)


def _count_draws(counts, args, kwargs, result):
    counts["oracle.mc_draws"] += int(_arg(args, kwargs, 3, "n_samples"))


def _count_lattice(counts, args, kwargs, result):
    counts["oracle.lattice_calls"] += 1
    counts["oracle.lattice_points"] += len(result)


def _count_call(name):
    def hook(counts, args, kwargs, result):
        counts[name] += 1
    return hook


#: functions wrapped for counting only: (module, attribute, hook)
COUNTED = (
    ("rate", "cumulant_deriv", _count_call("rate.cumderiv_evals")),
    ("oracle", "convolve_repeat", _count_cells),
)

#: counters bumped when a spanned call returns, by span name
SPAN_HOOKS = {
    "oracle.build_lattice": _count_lattice,
    "oracle.build_tilted_lattice": _count_lattice,
    "oracle.LatticeDistribution.tail": _count_call("oracle.tail_queries"),
    "oracle.mc_tail": _count_draws,
    "oracle.tilted_mc_tail": _count_draws,
    "rate.solve_target": _count_call("rate.solves"),
    "sharp.expansion_interval": _count_call("sharp.intervals"),
    "sharp.saddlepoint_interval": _count_call("sharp.intervals"),
    "sharp.third_moment_interval": _count_call("sharp.intervals"),
    "sharp.two_sided_interval": _count_call("sharp.intervals"),
}


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # [name index, start, end, parent span index or -1, job]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self.counts: dict[int, Counter] = {}
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self._name(name), time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def job_counts(self) -> Counter:
        return self.counts.setdefault(self.job, Counter())

    def _span_wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook:
                hook(self.job_counts(), args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self.job_counts(), args, kwargs, result)
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every sharptail namespace that binds it."""
        import sharptail  # noqa: F401  (loads every submodule)

        replace: dict[int, tuple] = {}
        for mod, attr, _ in SPANS:
            name = f"{mod}.{attr}"
            self._patch(mod, attr, lambda fn, n=name: self._span_wrapper(n, fn, SPAN_HOOKS.get(n)),
                        replace)
        for mod, attr, hook in COUNTED:
            self._patch(mod, attr, lambda fn, h=hook: self._count_wrapper(fn, h), replace)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "sharptail" or n.startswith("sharptail."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, key, value))
                    setattr(module, key, hit[1])

    def _patch(self, mod, attr, make, replace):
        module = sys.modules.get(f"sharptail.{mod}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name and module else module
        if owner is None or member not in vars(owner):
            self.missing.append(f"{mod}.{attr}")
            return
        original = vars(owner)[member]
        if owner is not module:
            # a method or cached property, patched on its class
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(make(original.func))
                wrapped.__set_name__(owner, member)
            else:
                wrapped = make(original)
            self._restore.append((owner, member, original))
            setattr(owner, member, wrapped)
            return
        replace[id(original)] = (original, make(original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        self_t = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "names": self.names, "spans": self.spans}, f)
