"""Bounded mean-zero discrete distributions and sum models.

A :class:`DiscreteDistribution` is one summand: a finite list of atoms with
strictly positive probabilities, mean zero and bounded support.  A
:class:`SumModel` is the whole sum, stored as (distribution, multiplicity)
blocks so i.i.d. pieces are compressed instead of repeated.

Inputs that are off-center are rejected, never silently recentred: shifting
the atoms would change the variance and with it every bound downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, ParameterError

#: largest |mean| a law may have, in units of its scale (see `law_scale`)
MEAN_TOL = 1e-12
PROB_SUM_TOL = 1e-12
#: relative slack on every hypothesis check: a constant that meets its cap up
#: to rounding still satisfies the hypothesis, at any scale of the atoms
HYP_TOL = 1e-12


def law_scale(values) -> float:
    """The unit of a law's atoms: the power of two s with s <= max|v| < 2s.

    The mean gate, the lattice snap, the saddlepoint residual gate and the
    suite grid's cap read it; the curvature grid and `verify`'s
    normal-approximation tilts read B and a_max, which scale with the atoms
    too.  Scaling by a power of two is exact, so multiplying every atom (and
    B) by 2^k changes no decision and no bit of the exact tails or Chernoff
    bounds, and scales the saddlepoints by 2^-k.
    """
    return math.ldexp(1.0, math.frexp(max(abs(float(v)) for v in values))[1] - 1)


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite-support distribution given by (value, probability) atoms.

    Atoms are canonicalised on construction: sorted by value, duplicates
    merged.  Construction fails with :class:`ModelError` naming the first
    violated invariant.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            pairs = [(float(v), float(p)) for v, p in self.atoms]
        except (TypeError, ValueError) as exc:
            raise ModelError(f"atoms must be (value, prob) pairs: {exc}") from None
        merged: dict[float, float] = {}
        for v, p in pairs:
            merged[v] = merged.get(v, 0.0) + p
        canon = tuple(sorted(merged.items()))
        object.__setattr__(self, "atoms", canon)
        if len(canon) < 2:
            raise ModelError("need at least 2 distinct atoms (non-degenerate)")
        values = [v for v, _ in canon]
        probs = [p for _, p in canon]
        if not all(math.isfinite(v) for v in values):
            raise ModelError("atom values must be finite")
        if min(probs) <= 0.0:
            raise ModelError("atom probabilities must be strictly positive")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ModelError(f"probabilities sum to {total:.17g}, not 1")
        mean = math.fsum(v * p for v, p in canon)
        scale = law_scale(values)
        if abs(mean) > MEAN_TOL * scale:
            raise ModelError(
                f"mean is {mean:.3e}; atoms must be centered (inputs are never auto-centered)"
            )
        # a centered law with two distinct atoms has atoms on both sides of 0
        if not values[0] < 0.0 < values[-1]:
            raise ModelError("support must satisfy lower < 0 < upper")
        # from 2^512 on an atom squares to inf
        variance = math.inf if scale >= 2.0**512 else self.variance
        if not 0.0 < variance < math.inf:
            raise ModelError(f"variance is {variance:.3e}; it must be positive and finite")

    @cached_property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms], dtype=float)

    @cached_property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms], dtype=float)

    @property
    def lower(self) -> float:
        """Essential infimum (smallest atom)."""
        return self.atoms[0][0]

    @property
    def upper(self) -> float:
        """Essential supremum (largest atom)."""
        return self.atoms[-1][0]

    @cached_property
    def variance(self) -> float:
        return float(np.dot(self.probs, self.values**2))


def abs_moment(dist: DiscreteDistribution, p: float) -> float:
    """E|xi|^p for p >= 1, by direct weighted summation over the atoms."""
    if not p >= 1:
        raise ParameterError(f"moment order must be >= 1, got {p}")
    return float(np.dot(dist.probs, np.abs(dist.values) ** p))


def rademacher() -> DiscreteDistribution:
    """The fair +/-1 distribution."""
    return DiscreteDistribution(((-1.0, 0.5), (1.0, 0.5)))


def hoeffding_extremal(v: float) -> DiscreteDistribution:
    """The two-point law with atoms {1, -v} that makes the optimized
    exponential-Markov bound coincide with the Hoeffding bound.

    Mean 0 and variance v by construction.  The probabilities are computed
    as p(-v) = 1/(1+v), p(1) = 1 - p(-v) so the float mean stays at a few
    ulps even for large v.
    """
    if not (v > 0.0 and math.isfinite(v)):
        raise ParameterError(f"variance parameter must be positive, got {v}")
    p_minus = 1.0 / (1.0 + v)
    return DiscreteDistribution(((-v, p_minus), (1.0, 1.0 - p_minus)))


@dataclass(frozen=True)
class SumModel:
    """A sum of independent components, each repeated with a multiplicity."""

    components: tuple[tuple[DiscreteDistribution, int], ...]

    def __post_init__(self):
        comps = []
        for entry in self.components:
            dist, mult = entry
            if not isinstance(dist, DiscreteDistribution):
                raise ModelError("components must pair a DiscreteDistribution with a count")
            m = int(mult)
            if m != mult or m < 1:
                raise ModelError(f"multiplicity must be a positive integer, got {mult!r}")
            comps.append((dist, m))
        if not comps:
            raise ModelError("model needs at least one component")
        object.__setattr__(self, "components", tuple(comps))
        if not 0.0 < self.sigma2 < math.inf:
            raise ModelError(f"sigma^2 is {self.sigma2:.3e}; it must be positive and finite")

    @cached_property
    def n(self) -> int:
        return sum(m for _, m in self.components)

    @cached_property
    def sigma2(self) -> float:
        return sum(m * d.variance for d, m in self.components)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @cached_property
    def a_max(self) -> float:
        """Largest essential supremum across components."""
        return max(d.upper for d, _ in self.components)

    @cached_property
    def lower_min(self) -> float:
        """Smallest essential infimum across components."""
        return min(d.lower for d, _ in self.components)

    @cached_property
    def max_support(self) -> float:
        """Essential supremum of the sum, sum_i mult_i * upper_i."""
        return sum(m * d.upper for d, m in self.components)

    @cached_property
    def min_support(self) -> float:
        return sum(m * d.lower for d, m in self.components)

    @cached_property
    def packed_atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, probs, mults): the components as one padded (C x K) atom
        matrix and a multiplicity vector.  A row with fewer than K atoms is
        padded by repeating its top atom with probability 0, so every row
        stays sorted and ends at its component's essential supremum."""
        k = max(len(d.atoms) for d, _ in self.components)
        values = np.empty((len(self.components), k))
        probs = np.zeros((len(self.components), k))
        for row, (d, _) in enumerate(self.components):
            values[row, :d.values.size] = d.values
            values[row, d.values.size:] = d.upper
            probs[row, :d.probs.size] = d.probs
        mults = np.array([m for _, m in self.components], dtype=float)
        return values, probs, mults

    @cached_property
    def saddlepoint_record(self) -> dict:
        """Outcome of every threshold solved on this instance, keyed by the
        raw threshold: a :class:`sharptail.rate.Saddlepoint`, or the reason
        no saddlepoint exists.  Filled by :func:`sharptail.rate.solve_targets`,
        one entry per distinct threshold; never shared between instances,
        equal or not."""
        return {}

    @cached_property
    def lattice_record(self) -> dict:
        """This instance's exact lattice, under the key 0.0 once built (see
        :func:`sharptail.oracle.build_tilted_lattice`); never shared between
        instances, equal or not."""
        return {}

    @cached_property
    def hypothesis_record(self) -> dict:
        """Every hypothesis (see `hypothesis_violation`) and curvature report
        (under the key B) decided on this instance; never shared between
        instances, equal or not."""
        return {}

    def abs_moment_sum(self, p: float) -> float:
        """sum_i E|xi_i|^p over all n summands."""
        return sum(m * abs_moment(d, p) for d, m in self.components)

    @cached_property
    def b_ratio(self) -> float:
        """Smallest B with E|xi_i|^3 <= B * E xi_i^2 for every component."""
        return max(abs_moment(d, 3) / d.variance for d, _ in self.components)


def rademacher_model(n: int) -> SumModel:
    return SumModel(((rademacher(), n),))


def extremal_model(v: float, n: int) -> SumModel:
    """n i.i.d. copies of the two-point extremal law with variance v."""
    return SumModel(((hoeffding_extremal(v), n),))


# ---------------------------------------------------------------------------
# Curvature condition on the second-moment generating function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureReport:
    """Grid check of sum_i E xi_i^2 e^(lam xi_i) >= (1 - B lam) sigma^2."""

    holds: bool
    worst_margin: float
    worst_lambda: float
    B: float


def default_lambda_grid(B: float) -> np.ndarray:
    """0 plus 200 tilts log-spaced in B lam from 1e-6 to 10: the grid is in
    units of 1/B, so scaling the atoms and B by 2^k scales it by 2^-k,
    exactly."""
    if not 0 < B < math.inf:
        raise ParameterError(f"B must be positive and finite, got {B}")
    return np.concatenate(([0.0], np.geomspace(1e-6, 10.0, 200) / B))


def check_curvature_condition(model, B) -> CurvatureReport:
    """Verify the lower-curvature condition on `default_lambda_grid(B)`, once
    per model instance and B: `verify` and the `curvature` hypothesis read
    the report the model's `hypothesis_record` keeps under the key B.

    For each lam the margin is sum_i E xi_i^2 e^(lam xi_i) - (1 - B lam) sigma^2;
    the condition holds when the worst margin is >= -HYP_TOL * sigma^2.  The
    condition is a statement about every lam >= 0, so no caller picks the
    tilts: the fixed grid is a surrogate for it, and for delta = 1 the exact
    sufficient criterion is :func:`curvature_condition_from_moments`.
    """
    record = model.hypothesis_record
    if B in record:
        return record[B]
    grid = default_lambda_grid(B)
    values, probs, mults = model.packed_atoms
    # padding atoms (probability 0) keep 0, so an overflow gives inf, not nan
    growth = np.zeros((grid.size,) + values.shape)
    with np.errstate(over="ignore"):  # an overflowed margin is inf, reported as such
        np.exp(grid[:, None, None] * values, out=growth, where=probs > 0)
        # one (1 x K) @ (K x 1) dot per row, as `DiscreteDistribution.variance` takes
        rows = (growth[:, :, None, :] @ (probs * values**2)[:, :, None])[..., 0, 0]
        margins = np.add.reduce(rows * mults, axis=1) - (1.0 - B * grid) * model.sigma2
    k = int(np.argmin(margins))
    record[B] = CurvatureReport(holds=bool(margins[k] >= -HYP_TOL * model.sigma2),
                                worst_margin=float(margins[k]), worst_lambda=float(grid[k]),
                                B=float(B))
    return record[B]


def curvature_condition_from_moments(model: SumModel, B: float) -> bool:
    """Exact sufficient criterion for delta = 1: E|xi_i|^3 <= B E xi_i^2 for all i."""
    if not B > 0:
        raise ParameterError(f"B must be positive, got {B}")
    return all(abs_moment(d, 3) <= B * d.variance * (1 + HYP_TOL) for d, _ in model.components)


def _moment_cap_holds(model: SumModel, B: float, delta: float) -> bool:
    with np.errstate(over="ignore"):  # a huge B's cap overflows to inf, met by every moment
        cap = np.float64(B) ** (2 + delta) * (1 + HYP_TOL)
    return max(abs_moment(d, 2 + delta) for d, _ in model.components) <= cap


#: every hypothesis a printed number rests on: name -> (how many of the
#: constants (B, delta) its test reads, its test of the model and those
#: constants, with the relative slack HYP_TOL, and the phrase that names it)
HYPOTHESES = {
    "upper": (0, lambda m: m.a_max <= 1.0 + HYP_TOL, "xi_i <= 1"),
    "abs": (0, lambda m: m.a_max <= 1.0 + HYP_TOL and m.lower_min >= -1.0 - HYP_TOL,
            "|xi_i| <= 1"),
    "sigma": (0, lambda m: all(d.upper <= math.sqrt(d.variance) * (1 + HYP_TOL)
                               for d, _ in m.components),
              "xi_i <= sigma_i for every component"),
    "upper_B": (1, lambda m, B: m.a_max <= B * (1 + HYP_TOL), "xi_i <= B"),
    "moment_B": (2, _moment_cap_holds, "E|xi_i|^(2+delta) <= B^(2+delta)"),
    "ratio_B": (1, curvature_condition_from_moments, "E|xi_i|^3 <= B E xi_i^2"),
    # the third-moment criterion, else the grid check `verify` prints
    "curvature": (1, lambda m, B: hypothesis_violation(m, ("ratio_B",), B, None) is None
                  or check_curvature_condition(m, B).holds,
                  "the curvature condition at B = {B:.6g}"),
}


def hypothesis_violation(model: SumModel, needs: tuple[str, ...], B, delta) -> str | None:
    """None when `model` satisfies every hypothesis named in `needs` at the
    constants (B, delta), else "needs " and the phrase of the first that
    fails.  Each is decided once per model instance and constants its test
    reads, and kept under (name, *constants) in `hypothesis_record`."""
    record = model.hypothesis_record
    for name in needs:
        reads, holds, phrase = HYPOTHESES[name]
        key = (name, *(B, delta)[:reads])
        if key not in record:
            record[key] = holds(model, *key[1:])
        if not record[key]:
            return "needs " + phrase.format(B=B, delta=delta)
    return None


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def model_from_dict(obj) -> SumModel:
    """Build a SumModel from the JSON schema
    {"components": [{"atoms": [[value, prob], ...], "multiplicity": k}, ...]}.

    The first violated invariant is reported with the offending path.
    """
    if not isinstance(obj, dict):
        raise ModelError("model file must contain a JSON object")
    comps_raw = obj.get("components")
    if not isinstance(comps_raw, list) or not comps_raw:
        raise ModelError("'components' must be a non-empty list")
    comps = []
    for i, entry in enumerate(comps_raw):
        where = f"components[{i}]"
        if not isinstance(entry, dict):
            raise ModelError(f"{where} must be an object")
        atoms = entry.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ModelError(f"{where}.atoms must be a non-empty list")
        for j, pair in enumerate(atoms):
            if (not isinstance(pair, list)) or len(pair) != 2 or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair
            ):
                raise ModelError(f"{where}.atoms[{j}] must be a [value, prob] number pair")
        mult = entry.get("multiplicity", 1)
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise ModelError(f"{where}.multiplicity must be a positive integer")
        try:
            dist = DiscreteDistribution(tuple((float(v), float(p)) for v, p in atoms))
        except ModelError as exc:
            raise ModelError(f"{where}: {exc}") from None
        comps.append((dist, mult))
    return SumModel(tuple(comps))


def loads_model(text: str) -> SumModel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return model_from_dict(obj)


def load_model(path) -> SumModel:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())


def model_to_dict(model: SumModel) -> dict:
    return {
        "components": [
            {"atoms": [[v, p] for v, p in dist.atoms], "multiplicity": mult}
            for dist, mult in model.components
        ]
    }
