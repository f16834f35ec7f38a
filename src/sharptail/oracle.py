"""Ground truth: exact lattice tails, Monte-Carlo estimators, and the
log-concave tail hull.

The exact oracle puts every atom on a common rational grid (denominators
capped at 1e6; values that do not fit are rounded and the rounding is
reported, never hidden) and convolves the component mass vectors.  A
two-atom block of multiplicity m is a binomial on the stride of its span, so
its m + 1 masses come from the binomial ratio recurrence in O(m); blocks
with more atoms are folded in one copy at a time by shifted-slice adds.  Threshold
comparisons against lattice points are exact rational comparisons, so strict
and non-strict tails are separated correctly on the lattice and coincide off
it.

Monte-Carlo sampling uses counter-based Philox streams with the split rule
key = (seed, component_index), so runs are reproducible and components could
be sampled in parallel without collisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._tiltmath import tilted_stats
from .errors import HypothesisError, ParameterError, UnsupportedModelError
from .models import SumModel, extremal_model
from .rate import Saddlepoint, solve_target

#: largest denominator used when snapping atom values to a rational grid
DENOMINATOR_CAP = 10**6

#: hard cap on the convolved lattice length
MAX_LATTICE_POINTS = 10**8


@dataclass(frozen=True)
class TailEstimate:
    """A tail probability with its provenance and error bar."""

    p: float
    stderr: float
    method: str               # "exact", "mc" or "tilted_mc"
    n_samples: int
    seed: int | None = None
    lam: float | None = None  # tilt used by the importance sampler

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "stderr": self.stderr,
            "method": self.method,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }
        if self.lam is not None:
            out["lam"] = self.lam
        return out


class LatticeDistribution:
    """Mass vector of the sum on a rational grid: point k has value (base+k)*step."""

    def __init__(self, step: Fraction, base: int, masses: np.ndarray,
                 quantization_error: float):
        self.step = step
        self.base = base
        self.masses = masses
        self.quantization_error = quantization_error

    @cached_property
    def mass_drift(self) -> float:
        """|total mass - 1|, exactly rounded."""
        return abs(math.fsum(self.masses.tolist()) - 1.0)

    def __len__(self):
        return len(self.masses)

    def value(self, k: int) -> float:
        return float((self.base + k) * self.step)

    @cached_property
    def values(self) -> np.ndarray:
        num = np.arange(self.base, self.base + len(self.masses), dtype=float)
        return num * float(self.step)

    def _first_index_above(self, threshold: float, strict: bool) -> int:
        # exact rational comparison of (base + k) * step against the threshold
        t = Fraction(threshold) / self.step - self.base
        if strict:
            k = math.floor(t) + 1
        else:
            k = math.ceil(t)
        return max(k, 0)

    def tail(self, threshold: float, strict: bool = True) -> float:
        """P(S > threshold) (strict) or P(S >= threshold), exactly rounded."""
        if math.isnan(threshold):
            raise ParameterError("threshold must not be nan")
        if math.isinf(threshold):
            return 0.0 if threshold > 0 else 1.0
        k = self._first_index_above(threshold, strict)
        if k >= len(self.masses):
            return 0.0
        # fsum walks a list faster than an ndarray; the sum is the same
        return min(1.0, math.fsum(self.masses[k:].tolist()))

    @cached_property
    def suffix_sums(self) -> np.ndarray:
        """P(S >= value_k) for every lattice point, accumulated from the top down.

        Masses are non-negative, so each suffix is a sum of like-signed terms
        with relative error at most (number of nonzero masses) * 2^-53.
        """
        out = np.empty(len(self.masses), dtype=float)
        np.cumsum(self.masses[::-1], out=out[::-1])
        return np.minimum(out, 1.0, out=out)


def _rationalize(value: float) -> Fraction:
    return Fraction(value).limit_denominator(DENOMINATOR_CAP)


def _lattice_layout(raw_components):
    """Common pitch and integer offsets for [(values, probs, mult), ...]."""
    denom = 1
    fracs = []
    quant = 0.0
    for values, _, _ in raw_components:
        row = []
        for v in values:
            f = _rationalize(float(v))
            quant = max(quant, abs(float(f) - float(v)))
            row.append(f)
            denom = denom * f.denominator // math.gcd(denom, f.denominator)
        fracs.append(row)
    step = Fraction(1, denom)
    layouts = []
    for (values, probs, mult), row in zip(raw_components, fracs):
        offsets = np.array([int(f * denom) for f in row], dtype=np.int64)
        layouts.append((offsets, np.asarray(probs, dtype=float), int(mult)))
    return step, layouts, quant


def convolve_repeat(masses, offsets, probs, times):
    """Convolve `masses` with the atom kernel (offsets, probs) `times` times.

    offsets must be sorted ascending with offsets[0] == 0; the result has
    length len(masses) + offsets[-1] * times.  Each fold is one shifted-slice
    add per atom, a plain float64 accumulation of non-negative terms.
    """
    masses = np.asarray(masses, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if times <= 0:
        return masses.copy()
    span = int(offsets[-1])
    length = masses.shape[0]
    final = length + span * times
    cur = np.zeros(final, dtype=np.float64)
    nxt = np.zeros(final, dtype=np.float64)
    cur[:length] = masses
    for _ in range(times):
        out_len = length + span
        nxt[:out_len] = 0.0
        for off, p in zip(offsets, probs):
            nxt[off:off + length] += p * cur[:length]
        cur, nxt = nxt, cur
        length = out_len
    return cur[:length].copy()


def _binomial_masses(q: float, p: float, m: int) -> np.ndarray:
    """C(m, k) q^(m-k) p^k for k = 0..m, in O(m).

    Walks the ratio w_{k+1} / w_k = (m - k) p / ((k + 1) q) outward from the
    mode, so no partial product overflows and each step adds its own
    rounding, then scales to the exact total (q + p)^m that the shift-add
    fold also keeps.  Repeated squaring instead amplifies the rounding of
    its first product m/2-fold (5e-13 off at p = 0.2, m = 10^4) and costs
    O(m^2).
    """
    k = np.arange(m, dtype=float)
    up = (m - k) * p
    down = (k + 1) * q
    mode = min(m, int((m + 1) * p))
    w = np.empty(m + 1)
    w[mode] = 1.0
    np.cumprod(up[mode:] / down[mode:], out=w[mode + 1:])
    np.cumprod(down[:mode][::-1] / up[:mode][::-1], out=w[:mode][::-1])
    total = math.exp(m * math.log1p(float(Fraction(q) + Fraction(p) - 1)))
    return w * (total / w.sum())


def _fold_strided(masses: np.ndarray, weights: np.ndarray, stride: int) -> np.ndarray:
    """Convolve `masses` with `weights` laid every `stride` lattice points."""
    n, m = len(masses), len(weights)
    width = (m - 1) * stride
    out = np.zeros(n + width)
    # one vector add per element of the shorter operand
    if m <= n:
        for k, w in enumerate(weights):
            out[k * stride:k * stride + n] += w * masses
    else:
        for i, v in enumerate(masses):
            out[i:i + width + 1:stride] += v * weights
    return out


def _convolve_components(step, layouts, quant):
    total = sum((int(offs[-1] - offs[0])) * m for offs, _, m in layouts)
    if total + 1 > MAX_LATTICE_POINTS:
        raise UnsupportedModelError(
            f"lattice would need {total + 1} points (cap {MAX_LATTICE_POINTS})"
        )
    # deterministic processing order: small spans first
    order = sorted(
        layouts, key=lambda t: (int(t[0][-1] - t[0][0]), t[0].tolist(), t[1].tolist())
    )
    masses = np.ones(1, dtype=float)
    base = 0
    for offsets, probs, mult in order:
        lo = int(offsets[0])
        base += mult * lo
        offsets = offsets - lo
        if len(offsets) == 2:
            binomial = _binomial_masses(float(probs[0]), float(probs[1]), mult)
            masses = _fold_strided(masses, binomial, int(offsets[1]))
        else:
            masses = convolve_repeat(masses, offsets, probs, mult)
    return LatticeDistribution(step, base, masses, quant)


def build_lattice(model: SumModel) -> LatticeDistribution:
    """Exact distribution of the sum on its rational lattice."""
    raw = [(d.values, d.probs, m) for d, m in model.components]
    step, layouts, quant = _lattice_layout(raw)
    return _convolve_components(step, layouts, quant)


def build_tilted_lattice(model: SumModel, lam: float) -> LatticeDistribution:
    """Exact distribution of the sum under the exponential tilt lam."""
    raw = []
    for d, m in model.components:
        _, _, _, tp = tilted_stats(d.values, d.probs, lam)
        raw.append((d.values, tp, m))
    step, layouts, quant = _lattice_layout(raw)
    return _convolve_components(step, layouts, quant)


def exact_tail(model: SumModel, threshold: float, strict: bool = True) -> TailEstimate:
    """Exact P(S > threshold) (or >=) by dynamic-programming convolution."""
    lat = build_lattice(model)
    return TailEstimate(
        p=lat.tail(threshold, strict), stderr=0.0, method="exact", n_samples=0
    )


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _component_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_sums(components, n_samples: int, seed: int) -> np.ndarray:
    """Sample n_samples values of the sum; components are (values, probs, mult)."""
    sums = np.zeros(n_samples, dtype=float)
    for ci, (values, probs, mult) in enumerate(components):
        rng = _component_rng(seed, ci)
        counts = rng.multinomial(mult, probs, size=n_samples)
        sums += counts @ values
    return sums


def mc_tail(model: SumModel, threshold: float, strict: bool,
            n_samples: int, seed: int) -> TailEstimate:
    """Plain Monte-Carlo frequency estimate of the tail."""
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    comps = [(d.values, d.probs, m) for d, m in model.components]
    sums = _sample_sums(comps, n_samples, seed)
    hits = (sums > threshold) if strict else (sums >= threshold)
    p = float(hits.mean())
    stderr = math.sqrt(p * (1.0 - p) / n_samples)
    return TailEstimate(p=p, stderr=stderr, method="mc", n_samples=n_samples, seed=seed)


def tilted_mc_tail(model: SumModel, threshold: float, strict: bool,
                   n_samples: int, seed: int) -> TailEstimate:
    """Importance-sampling estimate under the saddlepoint tilt.

    Components are drawn from their tilted laws and each sample is weighted
    by exp(cum(lam) - lam * S), which makes the weighted indicator unbiased
    for the true tail.  At threshold 0 the tilt is 0 and this reduces to
    plain Monte Carlo.
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    sp: Saddlepoint = solve_target(model, threshold)
    lam = sp.lam
    comps = []
    for d, m in model.components:
        _, _, _, tp = tilted_stats(d.values, d.probs, lam)
        comps.append((d.values, tp, m))
    sums = _sample_sums(comps, n_samples, seed)
    hits = (sums > threshold) if strict else (sums >= threshold)
    logw = sp.cumulant_value - lam * sums
    est = np.where(hits, np.exp(logw), 0.0)
    p = float(est.mean())
    stderr = float(est.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return TailEstimate(
        p=p, stderr=stderr, method="tilted_mc", n_samples=n_samples, seed=seed, lam=lam
    )


# ---------------------------------------------------------------------------
# Log-concave tail hull
# ---------------------------------------------------------------------------

def _hull_vertices(t: np.ndarray):
    """Vertices (hx, hy) of the upper concave majorant of (k, log t_k) over
    the positive entries of t, slopes strictly decreasing left to right; None
    when no entry is positive.  The first and last positive indices are
    always vertices.
    """
    pos = np.flatnonzero(t > 0.0)
    if pos.size == 0:
        return None
    xs = pos.astype(float)
    ys = np.log(t[pos])
    if pos.size > 2:
        # A point on or below the chord of its two neighbours is never a
        # vertex.  One vectorised pass drops them, which leaves only the
        # plateau ends of a step-shaped tail for the chain below.
        keep = np.ones(pos.size, dtype=bool)
        keep[1:-1] = ((ys[1:-1] - ys[:-2]) * (xs[2:] - xs[:-2])
                      > (ys[2:] - ys[:-2]) * (xs[1:-1] - xs[:-2]))
        xs, ys = xs[keep], ys[keep]
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        while len(hx) >= 2:
            # pop the middle point when it lies on or below the chord
            if (hy[-1] - hy[-2]) * (x - hx[-2]) <= (y - hy[-2]) * (hx[-1] - hx[-2]):
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(x)
        hy.append(y)
    return hx, hy


def _hull_at(t: np.ndarray, vertices, lo: int, hi: int) -> np.ndarray:
    """log_concave_hull(t)[lo:hi] from the vertices of t's hull."""
    out = t[lo:hi].copy()
    if vertices is None:
        return out
    hx, hy = vertices
    a, b = max(lo, int(hx[0])), min(hi, int(hx[-1]) + 1)
    if a < b:
        grid = np.arange(a, b, dtype=float)
        out[a - lo:b - lo] = np.maximum(out[a - lo:b - lo], np.exp(np.interp(grid, hx, hy)))
    return out


def log_concave_hull(tail):
    """Pointwise-smallest log-concave sequence dominating `tail`.

    Works on the logs: the upper concave majorant of (k, log tail_k) over the
    positive entries (zeros map to -inf and stay zero outside the positive
    range; zeros strictly inside it are lifted to the chord).  One vectorised
    pass drops points that cannot be vertices, then one monotone pass over
    the rest, so O(n).
    """
    t = np.asarray(tail, dtype=float)
    if t.ndim != 1:
        raise ParameterError("tail must be a 1-d sequence")
    if t.size == 0:
        return t.copy()
    if np.any(~np.isfinite(t)) or t.min() < 0.0 or t.max() > 1.0:
        raise ParameterError("tail values must lie in [0, 1]")
    return _hull_at(t, _hull_vertices(t), 0, t.size)


def bentkus_bound(model: SumModel, x: float) -> float:
    """(e^2/2) times the log-concave hull of the extremal two-point sum's
    tail, evaluated at x * sigma; capped at 1.

    The reference sum uses n i.i.d. copies of the two-point law with variance
    sigma^2 / n.  Between lattice points the hull is interpolated
    log-linearly; if sigma^2 / n is not exactly rational the lattice is the
    reported quantization of it.  Only the two hull values around x * sigma
    are computed.
    """
    if x < 0:
        raise ParameterError(f"x must be >= 0, got {x}")
    if model.a_max > 1.0 + 1e-12:
        raise HypothesisError("needs xi_i <= 1 for every component")
    v = model.sigma2 / model.n
    ref = extremal_model(v, model.n)
    lat = build_lattice(ref)
    target = x * model.sigma
    vals = lat.values
    if target <= vals[0]:
        hull_at = 1.0
    elif target > vals[-1]:
        hull_at = 0.0
    else:
        tail = lat.suffix_sums
        j = int(np.searchsorted(vals, target, side="right")) - 1
        pts = _hull_at(tail, _hull_vertices(tail), j, j + 2).tolist()
        if len(pts) == 1:
            hull_at = pts[0]
        else:
            lo, hi = pts
            w = (target - vals[j]) / (vals[j + 1] - vals[j])
            if lo <= 0.0 or hi <= 0.0:
                hull_at = 0.0 if w > 0 else lo
            else:
                hull_at = math.exp((1.0 - w) * math.log(lo) + w * math.log(hi))
    return min(1.0, 0.5 * math.e**2 * hull_at)
