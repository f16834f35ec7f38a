"""Sharp tail expansions: Gaussian-shaped intervals around the optimized
exponential-Markov bound, with fully explicit constants.

Each interval function returns a :class:`SharpInterval` whose center is a
scaled-normal-tail factor times the optimized Markov (Chernoff) bound and
whose half-width is an explicit error term.  Out-of-range x never
extrapolates: the result is flagged invalid and carries only the capped
Hoeffding upper bound, which holds because every flagged interval's own
hypothesis implies xi_i <= 1.  `BOUNDS` states the hypotheses of every bound
the package prints, the classical ones and Bentkus's included.  Only the
paper's B (of :func:`expansion_interval`) and delta are settable: every band
reads `C3_UNIVERSAL`, and every third-moment bound the model's ratio B.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

from .classical import SQRT_2PI, SQRT_PI, bernstein_arg, hoeffding_bound, mills_ratio, normal_cdf
from .errors import HypothesisError, ParameterError, RangeError
from .models import SumModel, hypothesis_violation
from .rate import chernoff_bound, solve_saddlepoint

#: the universal Berry-Esseen constant for third-moment normalization of
#: non-identical summands (Shevtsova 2010), read by every band that needs one
C3_UNIVERSAL = 0.56


@dataclass(frozen=True)
class SharpInterval:
    """Two-sided enclosure of the exact strict tail P(S > x sigma)."""

    name: str
    x: float
    lower: float
    center: float
    upper: float
    band: float            # half-width of the enclosure before capping
    t_param: float         # cap on B * saddle tilt used inside the constants
    range_limit: float     # largest admissible x for this bound
    valid: bool
    constants: dict = field(default_factory=dict)
    note: str | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.note is None:
            del out["note"]
        return out


@dataclass(frozen=True)
class BoundSpec:
    """One printed bound's hypotheses and admissible x-range, stated once.

    `needs` names its hypotheses in `sharptail.models.HYPOTHESES`; `violation`
    decides `curvature`, the condition at the caller's B, only given B: once
    per command, never per x by `admit`.  `limit(model, B)` ends the x-range,
    excluding the end when `open`; an unlimited one has a `horizon(model, B)`
    up to which `verify` checks the bound instead.
    """

    name: str
    needs: tuple[str, ...] = ()
    limit: Callable[[SumModel, float], float] = lambda model, B: math.inf
    open: bool = False
    horizon: Callable[[SumModel, float], float] | None = None

    def violation(self, model: SumModel, B: float | None = None) -> str | None:
        """Why `model` fails a hypothesis of this bound, the curvature
        condition at B among them when B is given; None when they hold."""
        needs = self.needs if B is not None else tuple(h for h in self.needs if h != "curvature")
        return hypothesis_violation(model, needs, B, None)

    def admit(self, model: SumModel, x: float, B: float | None = None):
        """Check x and the hypotheses but curvature; return (end of the x-range,
        whether x lies in the range)."""
        if not x >= 0:
            raise ParameterError(f"x must be >= 0, got {x}")
        reason = self.violation(model)
        if reason is not None:
            raise HypothesisError(reason)
        limit = self.limit(model, B)
        return limit, x < limit if self.open else x <= limit

    def check_end(self, model: SumModel, B: float) -> float:
        """Last x of the `verify` containment grid for curvature constant B:
        the range end, just inside it when open, else the horizon."""
        if self.horizon is not None:
            return self.horizon(model, B)
        end = self.limit(model, B)
        return end * (1 - 1e-9) if self.open else end


EXPANSION = BoundSpec("expansion", needs=("upper", "curvature"),
                      limit=lambda m, B: 0.25 * m.sigma / B, open=True)
SADDLEPOINT = BoundSpec("saddlepoint", horizon=lambda m, B: 0.9 * m.max_support / m.sigma)
THIRD_MOMENT = BoundSpec("third_moment", needs=("upper",),
                         limit=lambda m, B: 0.1 * m.sigma / m.b_ratio)
TWO_SIDED = BoundSpec("two_sided", needs=("abs",), limit=lambda m, B: 0.606 * m.sigma)
NORMAL_SHAPE = BoundSpec("normal_shape", needs=("upper",), limit=THIRD_MOMENT.limit)
SUBGAUSSIAN = BoundSpec("subgaussian", needs=("sigma",),
                        limit=lambda m, B: 0.25 * m.sigma / m.b_ratio, open=True)
HOEFFDING = BoundSpec("hoeffding", needs=("upper",))
BENNETT = BoundSpec("bennett", needs=("upper",))
BERNSTEIN = BoundSpec("bernstein", needs=("upper",))
BENTKUS = BoundSpec("bentkus", needs=("upper",))

#: every printed bound's declaration, by name
BOUNDS = {spec.name: spec for spec in (
    EXPANSION, SADDLEPOINT, THIRD_MOMENT, TWO_SIDED, NORMAL_SHAPE, SUBGAUSSIAN,
    HOEFFDING, BENNETT, BERNSTEIN, BENTKUS)}


def _flagged(name, model, x, range_limit, constants):
    """Out-of-range fallback: only the capped Hoeffding bound is asserted,
    without a check of its own, because every flagged interval's hypothesis
    (xi_i <= 1 or |xi_i| <= 1) implies Hoeffding's."""
    h = hoeffding_bound(x, model.sigma, model.n)
    return SharpInterval(
        name=name, x=x, lower=0.0, center=math.nan, upper=min(1.0, h),
        band=math.inf, t_param=math.nan, range_limit=range_limit,
        valid=False, constants=constants, note="x out of range",
    )


def tilt_cap(x: float, sigma: float, B: float) -> float:
    """t = 2r / (1 + sqrt(1 - 4r)) with r = x B / sigma: an upper bound on
    B times the saddle tilt, finite for r < 1/4 and increasing in x."""
    if not x >= 0:
        raise ParameterError(f"x must be >= 0, got {x}")
    if not (sigma > 0 and B > 0):
        raise ParameterError("sigma and B must be positive")
    r = x * B / sigma
    if r >= 0.25:
        raise RangeError(f"x B / sigma = {r:.6g} is outside [0, 0.25)")
    return 2.0 * r / (1.0 + math.sqrt(1.0 - 4.0 * r))


def expansion_error(model: SumModel, x: float, B: float, delta: float = 1.0) -> float:
    """The additive error term of the one-term expansion around the scaled
    normal tail, for models bounded above by 1 satisfying the curvature
    condition with constant B."""
    t = tilt_cap(x, model.sigma, B)
    lyap = model.abs_moment_sum(2 + delta) / model.sigma ** (2 + delta)
    return (math.exp(t) / (1.0 - 2.0 * t)) * (
        1.58 / SQRT_PI * B / model.sigma
        + 2.0 ** (3 + delta) * C3_UNIVERSAL / (1.0 - 2.0 * t) ** (delta / 2.0) * lyap
    )


def _interval_from_band(name, model, x, theta, band, t, limit, constants):
    ch = chernoff_bound(model, x)
    h = 1.0 if HOEFFDING.violation(model) else hoeffding_bound(x, model.sigma, model.n)
    center = theta * ch
    upper = min((theta + band) * ch, min(1.0, theta + band) * h, 1.0)
    # on the extremal law h equals ch up to rounding, so were the band only a
    # few ulps wide, the lower end could land above the upper
    lower = min(upper, max(0.0, (theta - band) * ch))
    return SharpInterval(
        name=name, x=x, lower=lower, center=center, upper=upper,
        band=band * ch, t_param=t, range_limit=limit, valid=True,
        constants=constants,
    )


def expansion_interval(model: SumModel, x: float, B: float, delta: float = 1.0) -> SharpInterval:
    """Enclosure Theta(x) +/- eps times the optimized Markov bound, valid for
    xi_i <= 1 under the curvature condition with constant B, x < 0.25 sigma/B.

    The caller attests the curvature condition (`bounds` and `verify` decide
    it with `EXPANSION.violation(model, B)`); only the support hypothesis is
    enforced here.
    """
    limit, inside = EXPANSION.admit(model, x, B)
    constants = {"B": B, "delta": delta, "C": C3_UNIVERSAL}
    if not inside:
        return _flagged("expansion", model, x, limit, constants)
    t = tilt_cap(x, model.sigma, B)
    eps = expansion_error(model, x, B, delta)
    return _interval_from_band("expansion", model, x, mills_ratio(x), eps, t,
                               limit, constants)


def saddlepoint_interval(model: SumModel, x: float, delta: float = 1.0) -> SharpInterval:
    """Enclosure centered at Theta(lam sigma_bar(lam)) times the optimized
    Markov bound, where lam is the saddle tilt.  Needs only bounded support
    (B = a_max) and finite (2+delta) moments; valid wherever the saddlepoint
    exists, with no range restriction in x."""
    limit, _ = SADDLEPOINT.admit(model, x)
    B = model.a_max
    sp = solve_saddlepoint(model, x)
    sbar = math.sqrt(sp.variance)
    eps = (
        2.0 ** (3 + delta) * C3_UNIVERSAL * math.exp(B * sp.lam)
        * model.abs_moment_sum(2 + delta) / sbar ** (2 + delta)
    )
    return _interval_from_band(
        "saddlepoint", model, x, mills_ratio(sp.lam * sbar), eps, B * sp.lam, limit,
        {"B": B, "delta": delta, "C": C3_UNIVERSAL, "lam": sp.lam, "sigma_bar": sbar})


def third_moment_interval(model: SumModel, x: float) -> SharpInterval:
    """Enclosure Theta(x) +/- 16 B / sigma times the optimized Markov bound,
    for xi_i <= 1 and x <= 0.1 sigma/B.  B is the model's ratio constant."""
    B = model.b_ratio
    limit, inside = THIRD_MOMENT.admit(model, x)
    constants = {"B": B}
    if not inside:
        return _flagged("third_moment", model, x, limit, constants)
    band = 16.0 * B / model.sigma
    return _interval_from_band("third_moment", model, x, mills_ratio(x), band,
                               tilt_cap(x, model.sigma, B), limit, constants)


def normal_tail_upper(model: SumModel, x: float) -> float:
    """Upper bound (1 - Phi(xc)) (1 + 16 sqrt(2 pi) (1 + xc) B / sigma) with
    the Bernstein-shrunk argument xc; recovers the normal-tail shape while
    decaying at the exponential rate.  B is the model's ratio constant; same
    hypotheses and range as :func:`third_moment_interval`."""
    limit, inside = NORMAL_SHAPE.admit(model, x)
    if not inside:
        raise RangeError(f"x = {x} is past the {NORMAL_SHAPE.name} range end {limit:.6g}")
    xc = bernstein_arg(x, model.sigma)
    return normal_cdf(-xc) * (1.0 + 16.0 * SQRT_2PI * (1.0 + xc) * model.b_ratio / model.sigma)


def subgaussian_multiplier(x: float, sigma: float, B: float) -> float:
    """The full coefficient of (1 + x) B / sigma in the sub-Gaussian-case
    normal-tail bound; at most 32.47 for x B / sigma <= 0.1."""
    t = tilt_cap(x, sigma, B)
    return (
        math.exp(t + t * t) / (1.0 - t)
        * (math.sqrt(2.0) + 16.0 * SQRT_2PI * C3_UNIVERSAL * math.exp(0.5 * t * t) / math.sqrt(1.0 - t))
    )


def subgaussian_upper(model: SumModel, x: float) -> float:
    """(1 - Phi(x)) (1 + c_x (1 + x) B / sigma) for models with
    xi_i <= sigma_i componentwise and x < 0.25 sigma / B, where B is the
    model's ratio constant.  Here the normal argument is x itself, not the
    Bernstein-shrunk value."""
    B = model.b_ratio
    limit, inside = SUBGAUSSIAN.admit(model, x)
    if not inside:
        raise RangeError(f"x = {x} is past the {SUBGAUSSIAN.name} range end {limit:.6g}")
    cx = subgaussian_multiplier(x, model.sigma, B)
    return normal_cdf(-x) * (1.0 + cx * (1.0 + x) * B / model.sigma)


def two_sided_multiplier(x: float, sigma: float) -> float:
    """The band constant c_x for sums with |xi_i| <= 1: at most 3.08 for
    x <= 0.1 sigma, finite up to x = 0.606 sigma."""
    if not x >= 0:
        raise ParameterError(f"x must be >= 0, got {x}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    r = x / sigma
    t = r * math.exp(0.5 * math.e * r * r)
    if t >= 1.0:
        raise RangeError(f"x / sigma = {r:.6g} puts the tilt cap at t = {t:.6g} >= 1")
    return (
        2.24 * math.exp(0.5 * t * t) / math.sqrt(1.0 - t)
        + math.exp(t + t * t) / (SQRT_PI * (1.0 - t))
    )


def two_sided_interval(model: SumModel, x: float) -> SharpInterval:
    """Enclosure Theta(x) +/- c_x / sigma times the optimized Markov bound,
    for |xi_i| <= 1 and x <= 0.606 sigma.  Beyond that range only the capped
    Hoeffding upper bound is returned, flagged invalid."""
    limit, inside = TWO_SIDED.admit(model, x)
    if not inside:
        return _flagged("two_sided", model, x, limit, {})
    r = x / model.sigma
    t = r * math.exp(0.5 * math.e * r * r)
    cx = two_sided_multiplier(x, model.sigma)
    band = cx / model.sigma
    return _interval_from_band("two_sided", model, x, mills_ratio(x), band, t,
                               limit, {"c_x": cx})
