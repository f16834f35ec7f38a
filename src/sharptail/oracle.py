"""Ground truth: exact lattice tails, Monte-Carlo estimators, and the
log-concave tail hull.

The exact oracle puts every atom on a common rational grid 1/D (denominators
capped at 1e6; values that do not fit are rounded and the rounding is
reported, never hidden).  Each block's offsets start at 0 and are divided by
the gcd g of all the blocks' offsets, so the sum lives on the points
(base + g k) / D, and only `LatticeDistribution` maps an index to a point.
The component mass vectors are convolved on that lattice: a two-atom block
of multiplicity m is a binomial on the stride of its span, its m + 1 masses
from the ratio recurrence in O(m); blocks with more atoms are folded in one
copy at a time by shifted-slice adds.  Threshold
comparisons against lattice points are exact rational comparisons, so strict
and non-strict tails are separated correctly on the lattice and coincide off
it.  A tail is the correctly rounded sum of the masses above the threshold:
a table of exact per-block suffix sums, built once per lattice in integer
limbs, reduces each query to one `math.fsum` over the rest of a block and
one table row, with the same bits as `math.fsum` over the whole suffix.

Monte-Carlo sampling gives component ci its own SFC64 stream, seeded by
numpy's spawn rule SeedSequence(seed, spawn_key=(ci,)), so runs are
reproducible and the components' streams are independent.  Each
component's sum is drawn from a Walker alias table over its own exact
lattice law, one uniform per draw, read as a column and a coin; a component
whose law is not exact (quantized atoms, a lattice the builder refuses) or
whose table is predicted, from measured per-operation costs, to take longer
to build than the multinomial rows it replaces is drawn as multinomial atom
counts instead.  Either way a row consumes its stream independently of the
chunking, and the estimators score the sums chunk by chunk, so memory stays
O(_MC_CHUNK) and seeded results do not depend on the chunk size.  The
tilted estimator scores each row with its weight relative to the one at the
threshold, which lies in [0, 1] at every hit, and scales the mean and the
standard error by e^(cum(lam) - lam t) once at the end, so neither a miss
nor a square underflows or overflows however deep the tail.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._tiltmath import tilted_stats
from .errors import ParameterError, UnsupportedModelError
from .models import SumModel, hoeffding_extremal
from .rate import solve_target
from .sharp import BENTKUS

#: largest denominator used when snapping atom values to a rational grid
DENOMINATOR_CAP = 10**6

#: hard cap on the convolved lattice length
MAX_LATTICE_POINTS = 10**8

#: lattice points per row of the exact suffix table behind `tail`
_TAIL_BLOCK = 256
#: place value of the lowest 32-bit limb: every mass frexp mantissa, read as
#: a 53-bit integer, has its lowest bit at 2^-1126 or above (2^-1074 = 2^52
#: * 2^-1126), and 2^-1152 is the next multiple of 2^32 below
_LIMB_FLOOR = -1152
#: limbs spanned from 2^_LIMB_FLOOR to the top of the largest finite double
_LIMBS = (1024 - 53 - _LIMB_FLOOR) // 32 + 3
#: lattice points split per pass while the table is built
_TABLE_CHUNK = 16 * _TAIL_BLOCK

#: Monte-Carlo rows drawn and scored per chunk; at 2^14 rows a chunk's
#: temporaries (about 0.8 MB by tracemalloc: 0.65 MB inside one table draw,
#: plus the running sums) stay in a 2 MB L2 cache, which made sampling 1.7x
#: faster than 2^16 rows on a 2-core Xeon
_MC_CHUNK = 1 << 14
#: rows per block of the importance weights' statistics
_MC_BLOCK = 1 << 12
#: sampler costs in ns, fitted to the break-even sizes of both samplers on
#: the ten component shapes of tools/sampler_costs.py (2-5 atoms,
#: multiplicity 10 to 10^6) with numpy 2.4 on a 2-core Xeon: a table
#: build's fixed cost, each of its lattice points, and each cell update of a
#: shift-add lattice fold; and each conditional binomial of a multinomial
#: row.  SFC64 streams made the binomials cheaper, and at 60 ns the rule
#: picked a table 1.9-2.5x slower than the rows for three-atom x 1000 at
#: 2^15 samples; at 45 ns, five runs of the script gave a worst ratio of the
#: picked sampler's time to the other's of 1.18-1.39 over sizes 2^8 to 2^22.
_TABLE_NS = 150_000
_POINT_NS = 60
_CELL_NS = 1
_BINOMIAL_NS = 45


@dataclass(frozen=True)
class TailEstimate:
    """A tail probability with its provenance and error bar."""

    p: float
    stderr: float
    method: str               # "exact", "mc" or "tilted_mc"
    n_samples: int
    seed: int | None = None
    lam: float | None = None  # tilt used by the importance sampler
    hits: int | None = None   # sampled rows past the threshold

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("lam", "hits"):
            if out[key] is None:
                del out[key]
        return out


class LatticeDistribution:
    """Mass vector of the sum on a rational lattice: point k has the value
    (base + stride * k) / denominator, three integers."""

    def __init__(self, denominator: int, base: int, stride: int, masses: np.ndarray,
                 quantization_error: float):
        self.denominator = denominator
        self.base = base
        self.stride = stride
        self.masses = masses
        self.quantization_error = quantization_error

    @cached_property
    def mass_drift(self) -> float:
        """|total mass - 1|, exactly rounded."""
        return abs(math.fsum(self.masses.tolist()) - 1.0)

    def __len__(self):
        return len(self.masses)

    def value(self, k: int) -> float:
        return float(Fraction(self.base + self.stride * k, self.denominator))

    @cached_property
    def values(self) -> np.ndarray:
        """value(k) for every point: the numerators are exact integers, so one
        division rounds each exact value once."""
        num = self.base + self.stride * np.arange(len(self.masses), dtype=float)
        return num / self.denominator

    def position(self, threshold: float) -> Fraction:
        """The exact k, not always an integer, at which value(k) = threshold."""
        return (Fraction(threshold) * self.denominator - self.base) / self.stride

    def _first_index_above(self, threshold: float, strict: bool) -> int:
        t = self.position(threshold)
        return max(math.floor(t) + 1 if strict else math.ceil(t), 0)

    def tail(self, threshold: float, strict: bool = True) -> float:
        """P(S > threshold) (strict) or P(S >= threshold), exactly rounded."""
        if math.isnan(threshold):
            raise ParameterError("threshold must not be nan")
        if math.isinf(threshold):
            return 0.0 if threshold > 0 else 1.0
        k = self._first_index_above(threshold, strict)
        if k >= len(self.masses):
            return 0.0
        # masses[k:] is this block's rest plus the exact sum of the next row,
        # so fsum rounds the same exact value as over masses[k:] itself
        b = k // _TAIL_BLOCK + 1
        head = self.masses[k:b * _TAIL_BLOCK].tolist()
        return min(1.0, math.fsum(head + self._suffix_table[b].tolist()))

    @cached_property
    def _suffix_table(self) -> np.ndarray:
        """Row b holds doubles whose exact sum is the exact sum of
        masses[b * _TAIL_BLOCK:]; the last row is empty (all zeros).

        Each mass (non-negative) is an integer mantissa M < 2^53 times a
        power of two, which lands M in three adjacent 32-bit limbs of a fixed
        grid starting at 2^_LIMB_FLOOR.  Limb sums per block are integers
        below 2^40, exact in the float weights of bincount; their suffix sums
        over blocks are integers below n * 2^32 < 2^63 (n <=
        MAX_LATTICE_POINTS), exact in int64.  Each is then split into two
        32-bit halves, exact doubles at their place values.
        """
        masses = self.masses
        n = len(masses)
        n_blocks = -(-n // _TAIL_BLOCK)
        sums = np.zeros((n_blocks + 1, _LIMBS), dtype=np.int64)
        # in chunks, so the temporaries stay small on long lattices
        for lo in range(0, n, _TABLE_CHUNK):
            mant, exp = np.frexp(masses[lo:lo + _TABLE_CHUNK])
            m = (mant * 2.0**53).astype(np.int64)
            shift = exp.astype(np.int64) - (53 + _LIMB_FLOOR)
            r = shift & 31
            idx = (np.arange(len(m)) // _TAIL_BLOCK) * _LIMBS + (shift >> 5)
            size = -(-len(m) // _TAIL_BLOCK) * _LIMBS
            part = np.bincount(idx, ((m & ((1 << (32 - r)) - 1)) << r).astype(float), size)
            part += np.bincount(idx + 1, ((m >> (32 - r)) & 0xFFFFFFFF).astype(float), size)
            part += np.bincount(idx + 2, ((m >> 32) >> (32 - r)).astype(float), size)
            b = lo // _TAIL_BLOCK
            sums[b:b + size // _LIMBS] = part.reshape(-1, _LIMBS)
        np.cumsum(sums[::-1], axis=0, out=sums[::-1])
        # row 0 dominates every row, so its zero limbs are zero everywhere
        used = np.flatnonzero(sums[0])
        sums = sums[:, used]
        place = _LIMB_FLOOR + 32 * used
        return np.hstack([np.ldexp((sums >> 32).astype(float), place + 32),
                          np.ldexp((sums & 0xFFFFFFFF).astype(float), place)])

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
    """The sum's lattice (denominator, base, stride) and its blocks'
    (offsets, probs, mult) for [(values, probs, mult), ...], with the snap.

    Atoms are snapped to a common denominator D.  Each block's offsets are
    shifted to start at 0 and divided by the gcd g of all the blocks'
    offsets, so the sum lives on (base + g k) / D, base / D being the sum of
    m_i lo_i.  Blocks come in fold order, which fixes the roundings: small
    spans first, then by atoms and probabilities.
    """
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
    nums = [[int(f * denom) for f in row] for row in fracs]
    base = sum(row[0] * int(mult) for row, (_, _, mult) in zip(nums, raw_components))
    stride = math.gcd(*(v - row[0] for row in nums for v in row)) or 1
    blocks = sorted(zip(nums, raw_components),
                    key=lambda b: (b[0][-1] - b[0][0], b[0], [float(p) for p in b[1][1]]))
    # Python ints: a refused lattice's offsets may not fit int64
    layouts = [([(v - row[0]) // stride for v in row], np.asarray(probs, dtype=float), int(mult))
               for row, (_, probs, mult) in blocks]
    return (denom, base, stride), layouts, quant


def convolve_repeat(masses, offsets, probs, times):
    """Convolve `masses` with the atom kernel (offsets, probs) `times` times.

    offsets must be sorted ascending with offsets[0] == 0; the result has
    length len(masses) + offsets[-1] * times.  Each fold is one shifted-slice
    add per atom, a plain float64 accumulation of non-negative terms.
    """
    masses = np.asarray(masses, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64).tolist()
    probs = np.asarray(probs, dtype=np.float64).tolist()
    if times <= 0:
        return masses.copy()
    span = offsets[-1]
    length = masses.shape[0]
    final = length + span * times
    cur = np.zeros(final, dtype=np.float64)
    nxt = np.zeros(final, dtype=np.float64)
    cur[:length] = masses
    for _ in range(times):
        out_len = length + span
        nxt[:out_len] = 0.0
        src = cur[:length]
        for off, p in zip(offsets, probs):
            nxt[off:off + length] += p * src
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


def _convolve_components(grid, layouts, quant):
    """The sum's lattice on grid = (denominator, base, stride), its blocks
    folded in the order of `layouts`."""
    total = sum(offsets[-1] * mult for offsets, _, mult in layouts)
    if total + 1 > MAX_LATTICE_POINTS:
        raise UnsupportedModelError(
            f"lattice would need {total + 1} points (cap {MAX_LATTICE_POINTS})"
        )
    masses = np.ones(1, dtype=float)
    for offsets, probs, mult in layouts:
        if len(offsets) == 2:
            binomial = _binomial_masses(float(probs[0]), float(probs[1]), mult)
            masses = _fold_strided(masses, binomial, offsets[1])
        else:
            masses = convolve_repeat(masses, offsets, probs, mult)
    return LatticeDistribution(*grid, masses, quant)


def build_lattice(model: SumModel) -> LatticeDistribution:
    """Exact distribution of the sum on its rational lattice (the lam = 0 tilt)."""
    return build_tilted_lattice(model, 0.0)


def build_tilted_lattice(model: SumModel, lam: float) -> LatticeDistribution:
    """Exact distribution of the sum under the exponential tilt lam >= 0.  At
    lam = 0 the tilted probabilities are the input bits, so this is the plain
    lattice, built once per model instance and kept in its `lattice_record`."""
    if not 0.0 <= lam < math.inf:
        raise ParameterError(f"lam must be finite and >= 0, got {lam}")
    record = model.lattice_record if lam == 0.0 else {}  # tilted ones are not kept
    if lam not in record:
        raw = [(d.values, d.probs if lam == 0.0 else tilted_stats(d.values, d.probs, lam)[3], m)
               for d, m in model.components]
        record[lam] = _convolve_components(*_lattice_layout(raw))
    return record[lam]


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
    """Component `index`'s stream: SFC64 seeded by the child that
    SeedSequence(seed).spawn gives component `index`, numpy's documented
    way to independent streams.  Its random() doubles are multiples of
    2^-53, as the alias draw's accuracy argument needs."""
    seq = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(index,))
    return np.random.Generator(np.random.SFC64(seq))


def _alias_columns(masses: np.ndarray):
    """Walker alias table (prob, alias) for the positive `masses`.

    Column j keeps point j with probability prob[j] and otherwise gives
    alias[j].  Columns below the mean mass (small) are filled in order from
    the columns above it (large), also in order; a large column that has
    given away more than its excess becomes small and is filled from the
    next large one.  That is Vose's order, done with prefix sums instead of
    a work list: small i goes to the first large whose cumulative excess
    reaches the deficits of the smalls before it.  What each large still owes
    its own column is a prefix sum that stays in [0, 1], so its rounding is
    relative to the column, not to the table.
    """
    n = len(masses)
    q = masses * (n / masses.sum())
    small = q < 1.0
    small[np.argmax(q)] = False  # a donor even when rounding leaves every q below 1
    s, big = np.flatnonzero(small), np.flatnonzero(~small)
    deficit = 1.0 - q[s]
    excess = q[big] - 1.0
    before = np.concatenate(([0.0], np.cumsum(deficit)))[:-1]
    donor = np.searchsorted(np.cumsum(excess), before, side="left")
    np.minimum(donor, len(big) - 1, out=donor)
    prob = np.ones(n)
    alias = np.arange(n)
    prob[s] = q[s]
    alias[s] = big[donor]
    owed = np.cumsum(np.bincount(donor, deficit, len(big)) - excess)
    prob[big[:-1]] = 1.0 - owed[:-1]
    alias[big[:-1]] = big[1:]
    return np.clip(prob, 0.0, 1.0, out=prob), alias


class _AliasTable:
    """Draws one component's sum from its exact lattice law, O(1) per draw.

    The table holds the lattice points of positive mass.  Row i reads
    uniform i of the stream only, so the sums do not depend on how the rows
    are chunked: with x = u * n, its column is col = floor(x) and its coin
    is x - col, which keeps the column's own point when below prob[col] and
    takes its alias otherwise (Walker 1977).  u * n never rounds up to n:
    u <= 1 - 2^-53, so n - u * n >= n * 2^-53, at least half the spacing of
    the doubles below n and more than half unless n is a power of 2, where
    that spacing halves.  x - col is exact (Sterbenz), so the coin test is
    x >= edge[col], edge[c] being the least double >= c + prob[c], and the
    draw never forms the coin.

    Accuracy: u is a multiple of 2^-53, so given col the coin lies on a grid
    of spacing at most n * 2^-53, and each point's drawn mass is off by at
    most about 2^-52, the same order as the rounding of u * n that picks the
    column.
    """

    def __init__(self, values: np.ndarray, masses: np.ndarray):
        pos = np.flatnonzero(masses > 0.0)
        self.values = values[pos]
        self.prob, self.alias = _alias_columns(masses[pos])
        # column c's own point at 2c, its alias at 2c + 1
        self._pair = np.stack((self.values, self.values[self.alias]), axis=1).ravel()
        col = np.arange(len(self.prob), dtype=float)
        edge = col + self.prob
        # edge - col is exact, as edge lies in [col, col + 1]
        low = edge - col < self.prob
        edge[low] = np.nextafter(edge[low], np.inf)
        self._edge = edge

    def draw(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        x = rng.random(rows)
        x *= len(self._edge)
        col = x.astype(np.intp)
        # one gather, no branch on the random coin: 2 col + (coin >= prob)
        pick = x >= self._edge[col]
        col *= 2
        col += pick
        return self._pair[col]


class _Multinomial:
    """Draws one component's sum as multinomial atom counts, K - 1
    conditional binomials per row; rows drawn chunk by chunk consume the
    stream exactly as one call for all of them would.  Counts are weighted
    one atom at a time, so a row's sum does not depend on how many rows
    share the call (a one-row matrix product rounds differently)."""

    def __init__(self, values: np.ndarray, probs: np.ndarray, mult: int):
        self.values = values
        self.probs = probs
        self.mult = mult

    def draw(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        counts = rng.multinomial(self.mult, self.probs, size=rows)
        out = np.zeros(rows)
        for k, v in enumerate(self.values.tolist()):
            out += counts[:, k] * v
        return out


def _table_build_ns(n_atoms: int, span: int, mult: int) -> int:
    """Predicted ns to build the alias table of mult copies of an n_atoms
    law whose atoms span `span` steps of its reduced lattice: the binomial's
    mult + 1 points for two atoms, else the lattice's points and the cells
    its mult shift-add folds update."""
    if n_atoms == 2:
        return _TABLE_NS + (mult + 1) * _POINT_NS
    cells = n_atoms * (mult + span * mult * (mult - 1) // 2)
    return _TABLE_NS + (span * mult + 1) * _POINT_NS + cells * _CELL_NS


def _component_sampler(dist, mult: int, n_samples: int, lam: float | None = None):
    """Sampler for the sum of `mult` copies of `dist` (tilted by lam if given).

    An alias table over the component's exact lattice law, unless that law
    is not exact (quantized atoms, or a lattice the builder refuses) or its
    predicted build time exceeds that of the n_samples multinomial rows it
    replaces, n_atoms - 1 binomials each.  Then the multinomial draw.
    """
    values, probs = dist.values, dist.probs
    if lam is not None:
        probs = tilted_stats(values, probs, lam)[3]
    grid, layouts, quant = _lattice_layout([(values, probs, mult)])
    [(offsets, _, _)] = layouts
    rows_ns = n_samples * (len(offsets) - 1) * _BINOMIAL_NS
    if quant == 0.0 and _table_build_ns(len(offsets), offsets[-1], mult) <= rows_ns:
        try:
            lat = _convolve_components(grid, layouts, quant)
        except UnsupportedModelError:
            pass
        else:
            return _AliasTable(lat.values, lat.masses)
    return _Multinomial(values, probs, mult)


def _sample_sums(samplers, n_samples: int, seed: int):
    """Yield n_samples sums of the components' draws, _MC_CHUNK rows at a time.

    Sampler ci draws from stream _component_rng(seed, ci) and consumes it
    row by row, so the sums do not depend on the chunk size.  Each draw is a
    fresh array, so the first one is the chunk's sums and the others add
    onto it.
    """
    rngs = [_component_rng(seed, ci) for ci in range(len(samplers))]
    for lo in range(0, n_samples, _MC_CHUNK):
        rows = min(_MC_CHUNK, n_samples - lo)
        sums = samplers[0].draw(rngs[0], rows)
        for sampler, rng in zip(samplers[1:], rngs[1:]):
            sums += sampler.draw(rng, rows)
        yield sums


class _WeightStats:
    """Count, sum and centred sum of squares of a stream of weights.

    Chunks are re-cut into blocks of _MC_BLOCK at fixed sample offsets; each
    block's statistics are taken in two passes and merged into the running
    totals with Chan's parallel formula, so the result has two-pass accuracy
    and the same bits whatever the chunk size.
    """

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.m2 = 0.0
        self._carry = np.empty(0)

    def add(self, chunk: np.ndarray) -> None:
        buf = np.concatenate((self._carry, chunk)) if len(self._carry) else chunk
        cut = len(buf) - len(buf) % _MC_BLOCK
        for block in buf[:cut].reshape(-1, _MC_BLOCK):
            self._merge(block)
        self._carry = buf[cut:].copy()  # not a view of the caller's chunk

    def _merge(self, block: np.ndarray) -> None:
        k = len(block)
        s = float(block.sum())
        dev = block - s / k
        m2 = float(dev @ dev)
        if self.n:
            delta = s / k - self.total / self.n
            m2 += delta * delta * self.n * k / (self.n + k)
        self.n += k
        self.total += s
        self.m2 += m2

    def finish(self) -> tuple[float, float]:
        """(mean, standard error of the mean)."""
        if len(self._carry):
            self._merge(self._carry)
        n = self.n
        stderr = math.sqrt(self.m2 / (n - 1) / n) if n > 1 else 0.0
        return self.total / n, stderr


def _relative_weights(sums: np.ndarray, hit: np.ndarray, threshold: float,
                      lam: float) -> np.ndarray:
    """exp(min(-lam (s - t), 0)) at the hits and 0 elsewhere: each row's
    importance weight exp(cum(lam) - lam s) over exp(cum(lam) - lam t).

    A hit has s >= t, so its weight lies in [0, 1], and a miss is capped at
    exp(0) before it is zeroed, so no row overflows; with no boolean
    indexing, every row takes the same few passes.
    """
    w = sums - threshold
    w *= -lam
    np.minimum(w, 0.0, out=w)
    np.exp(w, out=w)
    w *= hit
    return w


def _mc_estimate(model: SumModel, threshold: float, strict: bool,
                 n_samples: int, seed: int, tilted: bool) -> TailEstimate:
    """Plain or saddlepoint-tilted Monte-Carlo tail, streamed chunk by chunk,
    so memory is O(_MC_CHUNK) whatever n_samples is."""
    if math.isnan(threshold):
        raise ParameterError("threshold must not be nan")
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    sp = solve_target(model, threshold) if tilted else None
    lam = sp.lam if tilted else None
    samplers = [_component_sampler(d, m, n_samples, lam) for d, m in model.components]
    hits = 0
    weights = _WeightStats()
    for sums in _sample_sums(samplers, n_samples, seed):
        hit = (sums > threshold) if strict else (sums >= threshold)
        hits += int(np.count_nonzero(hit))
        if tilted:
            weights.add(_relative_weights(sums, hit, threshold, lam))
    if tilted:
        mean, stderr = weights.finish()
        # e^(cum(lam) - lam t) = e^(-I), the Chernoff bound at the threshold
        scale = math.exp(sp.log_bound)
        return TailEstimate(p=scale * mean, stderr=scale * stderr, method="tilted_mc",
                            n_samples=n_samples, seed=seed, lam=lam, hits=hits)
    p = hits / n_samples
    stderr = math.sqrt(p * (1.0 - p) / n_samples)
    return TailEstimate(p=p, stderr=stderr, method="mc", n_samples=n_samples, seed=seed,
                        hits=hits)


def mc_tail(model: SumModel, threshold: float, strict: bool,
            n_samples: int, seed: int) -> TailEstimate:
    """Plain Monte-Carlo frequency estimate of the tail."""
    return _mc_estimate(model, threshold, strict, n_samples, seed, tilted=False)


def tilted_mc_tail(model: SumModel, threshold: float, strict: bool,
                   n_samples: int, seed: int) -> TailEstimate:
    """Importance-sampling estimate under the saddlepoint tilt.

    Components are drawn from their tilted laws and each sample is weighted
    by exp(cum(lam) - lam * S), which makes the weighted indicator unbiased
    for the true tail.  At threshold 0 the tilt is 0 and this reduces to
    plain Monte Carlo.
    """
    return _mc_estimate(model, threshold, strict, n_samples, seed, tilted=True)


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
    out = t.copy()
    vertices = _hull_vertices(t)
    if vertices is not None:
        hx, hy = vertices
        a, b = int(hx[0]), int(hx[-1]) + 1
        grid = np.arange(a, b, dtype=float)
        out[a:b] = np.maximum(out[a:b], np.exp(np.interp(grid, hx, hy)))
    return out


def bentkus_bound(model: SumModel, x: float) -> float:
    """(e^2/2) times the log-concave hull of the extremal two-point sum's
    tail, evaluated at x * sigma; capped at 1.

    The reference sum is n i.i.d. copies of the two-point law {1, -v} with
    v = sigma^2 / n, snapped to the rational grid as the exact lattice snaps
    atoms: a binomial, whose reduced lattice has the n + 1 points of
    positive mass, the hull's vertices among them.  Its suffix sums are the
    reference tail; x * sigma is placed on that lattice by exact rational
    arithmetic, the hull is log-linear between vertices, and past the last
    positive one it is 0.
    """
    BENTKUS.admit(model, x)
    n = model.n
    target = x * model.sigma
    if target > n:  # past the reference sum's top point (or infinite)
        return 0.0
    ref = hoeffding_extremal(model.sigma2 / n)
    lat = _convolve_components(*_lattice_layout([(ref.values, ref.probs, n)]))
    hx, hy = _hull_vertices(lat.suffix_sums)
    u = lat.position(target)
    if u > hx[-1]:
        return 0.0
    return min(1.0, 0.5 * math.e**2 * math.exp(float(np.interp(float(u), hx, hy))))
