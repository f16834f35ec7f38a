"""Command-line surface: bound sweeps, sharpness-ratio sweeps, verification,
rate-function tables and Monte-Carlo estimates.

Output is deterministic: CSV files carry a fixed versioned header comment and
17-significant-digit decimals, JSON carries a schema_version field, and
nothing in the data depends on wall-clock time.

Exit codes: 0 success, 2 parse/argument error, 3 hypothesis violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .classical import bennett_bound, bernstein_bound, hoeffding_bound, mills_ratio
from .errors import (
    HypothesisError,
    ModelError,
    NoSaddlepointError,
    ParameterError,
    RangeError,
    UnsupportedModelError,
)
from .models import check_curvature_condition, load_model, rademacher_model
from .oracle import build_lattice, mc_tail, tilted_mc_tail
from .rate import chernoff_bound, fenchel_legendre, solve_target, solve_targets
from .sharp import (
    BOUNDS,
    SharpInterval,
    expansion_interval,
    normal_tail_upper,
    saddlepoint_interval,
    subgaussian_upper,
    third_moment_interval,
    two_sided_interval,
)
from .tilting import berry_esseen_tilted, inequality_suite

SCHEMA_VERSION = 1

# glibc mmaps blocks above its mmap threshold (128 KiB at start) and trims
# freed heap above twice that; freeing an mmapped block raises the threshold
# to the block's size (mallopt(3)).  Until that happens, the numpy temporaries
# of a command are mapped afresh on every call: `verify` on five400 faulted
# about 800 pages back in per call.  One 1 MiB array, allocated and freed at
# once, raises the thresholds to 1 and 2 MiB for the process.
np.empty(1 << 17)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_VERIFY = 4

#: most points a grid or `ratio --points` may ask for; more are refused unbuilt
MAX_GRID_POINTS = 100_000

#: column -> its cell at (model, x, B, delta, strict), from the resolved
#: constants: a number, or a SharpInterval for the four interval columns
_COLUMNS = {
    "exact": lambda m, x, B, delta, strict: build_lattice(m).tail(x * m.sigma, strict),
    "hoeffding": lambda m, x, *_: hoeffding_bound(x, m.sigma, m.n),
    "bennett": lambda m, x, *_: bennett_bound(x, m.sigma),
    "bernstein": lambda m, x, *_: bernstein_bound(x, m.sigma),
    "chernoff": lambda m, x, *_: chernoff_bound(m, x),
    "mills": lambda m, x, *_: mills_ratio(x),
    "expansion": lambda m, x, B, delta, strict: expansion_interval(m, x, B, delta),
    "saddlepoint": lambda m, x, B, delta, strict: saddlepoint_interval(m, x, delta),
    "third_moment": lambda m, x, *_: third_moment_interval(m, x),
    "two_sided": lambda m, x, *_: two_sided_interval(m, x),
    "normal_shape": lambda m, x, *_: normal_tail_upper(m, x),
    "subgaussian": lambda m, x, *_: subgaussian_upper(m, x),
}

ALL_BOUNDS = tuple(_COLUMNS)

_INTERVALS = ("expansion", "saddlepoint", "third_moment", "two_sided")

#: bounds built on the optimized exponential-Markov bound, hence on a saddlepoint
_SOLVED = ("chernoff",) + _INTERVALS


def _fmt(v) -> str:
    """One CSV cell: 17 significant digits, '.' decimal point, '' for missing."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return format(f, ".17g")


def _parse_grid(text: str) -> list[float]:
    """'a:b:steps' -> linspace(a, b, steps), as Python floats, whose products
    overflow to inf without a numpy warning."""
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except ValueError:
        raise ParameterError(f"grid must be 'a:b:steps', got {text!r}") from None
    if not (math.isfinite(a) and math.isfinite(b) and a <= b and 1 <= steps <= MAX_GRID_POINTS):
        raise ParameterError(f"bad grid {text!r}: needs finite a <= b and 1..{MAX_GRID_POINTS} steps")
    return np.linspace(a, b, steps).tolist()


def _emit_csv(out, tag: str, header: list[str], rows):
    out.write(f"# sharptail {tag} v{SCHEMA_VERSION}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_json(out, tag: str, header: list[str], rows):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": tag,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    json.dump(payload, out, indent=2, allow_nan=True, default=float)
    out.write("\n")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _cell(name, model, x, B, delta, strict):
    """The column's value at x; None outside its range or past the
    essential sup."""
    try:
        return _COLUMNS[name](model, x, B, delta, strict)
    except (RangeError, NoSaddlepointError):
        return None


def _interval_cells(iv: SharpInterval | None) -> list:
    if iv is None:
        return [None, None, None, False]
    if iv.valid:
        return [iv.lower, iv.center, iv.upper, True]
    return [None, None, iv.upper, False]


def _load_with_constants(args):
    """Check --b and --delta before any work; return the model and B (--b, else its ratio)."""
    if args.b is not None and not 0.0 < args.b < math.inf:
        raise ParameterError(f"--b must be positive and finite, got {args.b}")
    if not 0.0 < args.delta <= 1.0:
        raise ParameterError(f"--delta must lie in (0, 1], got {args.delta}")
    model = load_model(args.model)
    return model, model.b_ratio if args.b is None else args.b


def cmd_bounds(args) -> int:
    """One cell rule for every column: a column whose model fails its
    hypotheses, decided once (the curvature condition at --b among them), or
    (for `exact`) has no lattice is an error when named and blank under
    `all`; a cell out of range or past the essential sup is blank."""
    model, B = _load_with_constants(args)
    xs = _parse_grid(args.x_grid)
    selected = ALL_BOUNDS if args.bounds == "all" else tuple(args.bounds.split(","))
    for name in selected:
        if name not in ALL_BOUNDS:
            raise ParameterError(f"unknown bound {name!r}; choose from {', '.join(ALL_BOUNDS)}")
    explicit = args.bounds != "all"

    blank = set()
    for name in selected:
        reason = BOUNDS[name].violation_at(model, B) if name in BOUNDS else None
        if reason is not None:
            if explicit:
                raise HypothesisError(f"{name} {reason}")
            blank.add(name)
    if "exact" in selected:
        try:
            build_lattice(model)  # built once; the cells read the model's record
        except UnsupportedModelError as exc:
            if explicit:
                raise
            print(f"exact oracle unavailable: {exc}", file=sys.stderr)
            blank.add("exact")

    header = ["x"]
    for name in selected:
        if name in _INTERVALS:
            header += [f"{name}_lower", f"{name}_center", f"{name}_upper", f"{name}_valid"]
        else:
            header.append(name)

    if any(name in _SOLVED for name in selected):
        # one batched solve; the per-x calls below read its record
        solve_targets(model, [x * model.sigma for x in xs if x >= 0])

    rows = []
    for x in xs:
        row = [float(x)]
        for name in selected:
            value = None if name in blank else _cell(
                name, model, x, B, args.delta, not args.nonstrict)
            if name in _INTERVALS:
                row += _interval_cells(value)
            else:
                row.append(value)
        rows.append(row)

    emit = _emit_csv if args.format == "csv" else _emit_json
    emit(sys.stdout, "bounds", header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ratio: exact symmetric +/-1 tails against the scaled-normal x Hoeffding product
# ---------------------------------------------------------------------------

_TAIL_FLOOR = 1e-12


def ratio_rows(n_list, x_max: float, points: int):
    """Rows (n, x, exact non-strict tail, Theta*H, ratio); rows whose exact
    tail falls below `_TAIL_FLOOR` are dropped."""
    rows = []
    for n in n_list:
        model = rademacher_model(n)
        lattice = build_lattice(model)
        sigma = model.sigma
        for x in np.linspace(0.0, x_max, points).tolist():
            p = lattice.tail(x * sigma, strict=False)
            if p < _TAIL_FLOOR:
                continue
            approx = mills_ratio(x) * hoeffding_bound(x, sigma, n)
            rows.append((int(n), float(x), p, approx, p / approx))
    return rows


def cmd_ratio(args) -> int:
    try:
        n_list = [int(s) for s in args.n_list.split(",")]
    except ValueError:
        raise ParameterError(
            f"--n-list must be comma-separated integers, got {args.n_list!r}") from None
    if any(n < 1 for n in n_list):
        raise ParameterError("all n must be >= 1")
    if not 1 <= args.points <= MAX_GRID_POINTS:
        raise ParameterError(f"--points must lie in [1, {MAX_GRID_POINTS}], got {args.points}")
    if not math.isfinite(args.x_max):
        raise ParameterError(f"--x-max must be finite, got {args.x_max}")
    if args.x_max < 0:
        raise ParameterError(f"--x-max must be >= 0, got {args.x_max}")
    rows = ratio_rows(n_list, args.x_max, args.points)
    header = ["n", "x", "exact_tail", "theta_hoeffding", "ratio"]
    emit = _emit_csv if args.format == "csv" else _emit_json
    emit(sys.stdout, "ratio", header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: tilts at which `verify` checks the normal approximation of the tilted
#: sum, in units of 1/a_max: lam * a_max takes these values
_NORMAL_APPROX_TILTS = (0.0, 0.05, 0.1)
#: points of each containment grid, from x = 0 to the bound's check end
_CONTAINMENT_POINTS = 25


def verify_report(model, B: float, delta: float) -> dict:
    report: dict = {"schema_version": SCHEMA_VERSION, "command": "verify"}

    curv = check_curvature_condition(model, B)
    report["curvature_condition"] = {
        "B": curv.B, "holds": curv.holds,
        "worst_margin": curv.worst_margin if math.isfinite(curv.worst_margin) else None,
        "worst_lambda": curv.worst_lambda,
    }

    suite = inequality_suite(model, B, delta)
    report["inequalities"] = suite.to_dict()["checks"]

    failures = not curv.holds or not suite.all_hold

    try:
        lattice = build_lattice(model)
    except UnsupportedModelError as exc:
        report["oracle"] = {"skipped": True, "reason": str(exc)}
        report["ok"] = not failures
        return report

    approx = [berry_esseen_tilted(model, t / model.a_max, delta) for t in _NORMAL_APPROX_TILTS]
    report["normal_approx"] = [rep.to_dict() for rep in approx]
    failures = failures or any(rep.holds is False for rep in approx)  # None: skipped

    checks, grids = [], {}
    for name in ("expansion", "third_moment", "two_sided", "saddlepoint"):
        reason = BOUNDS[name].violation_at(model, B)
        if reason is not None:
            checks.append({"name": name, "skipped": True, "reason": reason})
        else:
            grids[name] = np.linspace(
                0.0, BOUNDS[name].check_end(model, B), _CONTAINMENT_POINTS).tolist()
    # every grid in one batched solve; the intervals read its record
    solve_targets(model, [x * model.sigma for xs in grids.values() for x in xs])
    for name, xs in grids.items():
        worst = math.inf
        ok = True
        for x in xs:
            iv = _cell(name, model, x, B, delta, True)
            if iv is None or not iv.valid:
                continue
            p = lattice.tail(x * model.sigma, strict=True)
            ok = ok and iv.lower <= p <= iv.upper
            worst = min(worst, iv.upper - p, p - iv.lower)
        checks.append({"name": name, "holds": ok,
                       "worst_margin": None if worst is math.inf else worst})
        failures = failures or not ok
    report["containment"] = checks
    report["ok"] = not failures
    return report


def cmd_verify(args) -> int:
    model, B = _load_with_constants(args)
    report = verify_report(model, B, args.delta)
    json.dump(report, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")
    return EXIT_OK if report["ok"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def cmd_rate(args) -> int:
    model = load_model(args.model)
    ys = _parse_grid(args.y_grid)
    n = model.n
    solve_targets(model, [n * y for y in ys if y > 0])
    rows = []
    for y in ys:
        try:
            rate = fenchel_legendre(model, y)
            lam = solve_target(model, n * y).lam if y > 0 else 0.0
            rows.append((float(y), rate, lam, math.exp(-n * rate), True))
        except NoSaddlepointError:
            rows.append((float(y), None, None, None, False))
    header = ["y", "rate", "lambda", "chernoff", "valid"]
    emit = _emit_csv if args.format == "csv" else _emit_json
    emit(sys.stdout, "rate", header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def cmd_mc(args) -> int:
    if not math.isfinite(args.x):
        raise ParameterError(f"--x must be finite, got {args.x}")
    model = load_model(args.model)
    strict = not args.nonstrict
    threshold = args.x * model.sigma
    if not math.isfinite(threshold):
        raise ParameterError(f"--x {args.x} times sigma {model.sigma} overflows float64")
    if args.method == "tilted":
        est = tilted_mc_tail(model, threshold, strict, args.samples, args.seed)
    else:
        est = mc_tail(model, threshold, strict, args.samples, args.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "mc",
        "x": args.x,
        "threshold": threshold,
        "strict": strict,
        "estimate": est.to_dict(),
    }
    if est.method == "tilted_mc":
        payload["relative_stderr"] = est.stderr / est.p if est.p > 0 else None
    if est.hits == 0:
        # the exact bound for zero successes in n trials, 1 - 0.05^(1/n) <= 3/n
        bound = -math.expm1(math.log(0.05) / args.samples)
        payload["note"] = f"no hits: a one-sided 95% upper confidence bound is {bound:.3e}"
    json.dump(payload, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sharptail",
        description="Tail bounds for sums of independent bounded mean-zero "
                    "random variables, with exact and Monte-Carlo oracles.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="sweep every bound over an x grid")
    b.add_argument("--model", required=True, help="JSON model file")
    b.add_argument("--x-grid", required=True, help="a:b:steps")
    b.add_argument("--bounds", default="all",
                   help=f"comma list from: {', '.join(ALL_BOUNDS)}")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--delta", type=float, default=1.0)
    b.add_argument("--b", type=float, default=None,
                   help="curvature constant B (default: third-moment ratio)")
    b.add_argument("--strict", dest="nonstrict", action="store_false", default=False)
    b.add_argument("--nonstrict", dest="nonstrict", action="store_true")
    b.set_defaults(fn=cmd_bounds)

    r = sub.add_parser("ratio", help="exact +/-1 tails over Theta(x) * Hoeffding")
    r.add_argument("--n-list", default="100,400,2500,10000")
    r.add_argument("--x-max", type=float, default=3.0)
    r.add_argument("--points", type=int, default=31)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.set_defaults(fn=cmd_ratio)

    v = sub.add_parser("verify", help="machine-check the inequality suite")
    v.add_argument("--model", required=True)
    v.add_argument("--b", type=float, default=None)
    v.add_argument("--delta", type=float, default=1.0)
    v.set_defaults(fn=cmd_verify)

    ra = sub.add_parser("rate", help="rate function table")
    ra.add_argument("--model", required=True)
    ra.add_argument("--y-grid", required=True, help="a:b:steps")
    ra.add_argument("--format", choices=("csv", "json"), default="csv")
    ra.set_defaults(fn=cmd_rate)

    m = sub.add_parser("mc", help="Monte-Carlo tail estimate")
    m.add_argument("--model", required=True)
    m.add_argument("--x", type=float, required=True)
    m.add_argument("--samples", type=int, default=100_000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--method", choices=("mc", "tilted"), default="mc")
    m.add_argument("--strict", dest="nonstrict", action="store_false", default=False)
    m.add_argument("--nonstrict", dest="nonstrict", action="store_true")
    m.set_defaults(fn=cmd_mc)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ModelError, ParameterError, UnsupportedModelError, NoSaddlepointError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
