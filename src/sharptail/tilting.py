"""Exponential change of measure and the machine-checked inequality suite.

`tilt` reweights every atom by exp(lam * value) and reports each tilted
component, the tilted mean of the whole sum (which equals the cumulant
derivative) and the total tilted variance.

`inequality_suite` evaluates, on a fixed tilt grid, the standard envelope
inequalities this package's sharp bounds rest on: two-point and Gaussian MGF
caps, two-sided envelopes for the tilted mean and tilted variance, and
cumulant caps.  Each, and `berry_esseen_tilted`'s 1.12/sigma_bar bound, names
its hypotheses in `sharptail.models.HYPOTHESES`: a model that does not
satisfy one yields "skipped", never a failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._normal import ndtr
from ._tiltmath import packed_cumulants, packed_tilt, tilted_stats
from .errors import NumericalError, ParameterError
from .models import SumModel, abs_moment, hypothesis_violation, law_scale
from .oracle import build_lattice, build_tilted_lattice
from .sharp import C3_UNIVERSAL

#: rounding tolerance for "holds": margins are scale-free (divided by sigma^2
#: or O(1) already), so anything above -1e-10 is float noise on a true inequality
_MARGIN_TOL = -1e-10


@dataclass(frozen=True)
class TiltedComponent:
    values: np.ndarray
    probs: np.ndarray
    mean: float
    variance: float
    multiplicity: int


@dataclass(frozen=True)
class TiltedState:
    """The sum model under the tilt lam."""

    lam: float
    components: tuple[TiltedComponent, ...]
    mean: float       # tilted mean of the sum = cumulant derivative at lam
    variance: float   # total tilted variance


def tilt(model: SumModel, lam: float) -> TiltedState:
    """Reweight every component by exp(lam * value) and collect moments.

    Variances come from the two-pass atom formula; the tilted second moment
    is recomputed from the tilted probabilities as a cross-check, and
    :class:`NumericalError` is raised unless var + mean^2 matches it to 1e-10
    on its own scale.
    """
    if not 0.0 <= lam < math.inf:
        raise ParameterError(f"lam must be finite and >= 0, got {lam}")
    comps = []
    for dist, m in model.components:
        if lam == 0.0:
            mean, var, tp = float(np.dot(dist.probs, dist.values)), dist.variance, dist.probs
        else:
            _, mean, var, tp = tilted_stats(dist.values, dist.probs, lam)
            m2 = float(np.dot(tp, dist.values**2))
            if not abs((var + mean * mean) - m2) <= 1e-10 * max(m2, 1e-300):
                raise NumericalError(
                    f"tilted variance cross-check failed at lam={lam}: "
                    f"var + mean^2 = {var + mean * mean:.17g}, E xi^2 = {m2:.17g}"
                )
        comps.append(TiltedComponent(dist.values, tp, mean, var, m))
    return TiltedState(lam, tuple(comps), sum(tc.mean * tc.multiplicity for tc in comps),
                       sum(tc.variance * tc.multiplicity for tc in comps))


# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityCheck:
    name: str
    applicable: bool
    holds: bool | None          # None when skipped
    worst_margin: float | None  # signed slack; negative would be a violation
    worst_lambda: float | None
    reason: str | None = None   # why the check was skipped

    def to_dict(self) -> dict:
        if not self.applicable:
            return {"name": self.name, "skipped": True, "reason": self.reason}
        return {
            "name": self.name,
            "holds": self.holds,
            # null once the slack overflows float64, as JSON has no inf
            "worst_margin": self.worst_margin if math.isfinite(self.worst_margin) else None,
            "worst_lambda": self.worst_lambda,
        }


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks]}

    def __getitem__(self, name: str) -> InequalityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def default_suite_grid(model: SumModel, B: float) -> np.ndarray:
    """50 tilts from 0 to min(1/B, 5/s), s the unit of the model's atoms
    (`law_scale`): scaling the atoms and B by 2^k scales the grid by 2^-k,
    exactly."""
    s = law_scale((model.lower_min, model.a_max))
    return np.linspace(0.0, min(1.0 / B, 5.0 / s), 50)


def _two_point_mgf_cap(lams, var):
    """(var * e^lam + e^(-lam var)) / (1 + var): the extremal two-point MGF."""
    return (var * np.exp(lams) + np.exp(-lams * var)) / (1.0 + var)


def inequality_suite(model: SumModel, B: float, delta: float = 1.0) -> SuiteReport:
    """Evaluate, on `default_suite_grid(model, B)`, every envelope inequality
    whose hypotheses the model satisfies.  Each is a statement about every
    tilt, so no caller picks the grid; each check names its hypotheses, and
    its own skip reason when it needs several.

    Margins are signed slacks (bound minus quantity, or quantity minus bound
    for lower bounds), divided by sigma^2 for sum-level quantities so they
    are scale-free; per-component MGF margins are already O(1).
    """
    if not B > 0:
        raise ParameterError(f"B must be positive, got {B}")
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    lams = default_suite_grid(model, B)

    s2 = model.sigma2
    n = model.n

    # per-row tilted stats across the grid, (L x C) each, and their sums
    values, probs, mults = model.packed_atoms
    with np.errstate(over="ignore"):  # exp(-inf) = 0; overflowed margins skip a check
        stats, _ = packed_tilt(values, probs, lams)
        psi, bn, varbar = np.add.reduce(stats * mults, axis=2)

    checks = []

    def add(name, needs, margins, reason=None):
        """Skip the check if a hypothesis in `needs` fails, with `reason`, else
        the decider's; or record the worst of `margins()`."""
        failed = hypothesis_violation(model, needs, B, delta)
        reason = None if failed is None else reason or failed
        if reason is None:
            with np.errstate(over="ignore", invalid="ignore"):
                marg = np.asarray(margins(), dtype=float)
            if np.isnan(marg).any():  # both sides overflowed at some tilt
                reason = "overflows float64 on this lambda grid"
        if reason is not None:
            checks.append(InequalityCheck(name, False, None, None, None, reason))
            return
        k = int(np.argmin(marg))
        checks.append(InequalityCheck(name, True, bool(marg[k] >= _MARGIN_TOL),
                                      float(marg[k]), float(lams[k])))

    # 1. per-component MGF <= extremal two-point MGF
    second = np.array([abs_moment(d, 2) for d, _ in model.components])
    add("mgf_two_point", ("upper",), lambda: np.min(
        _two_point_mgf_cap(lams[:, None], second) - np.exp(stats[0]), axis=1))

    # 2. per-component MGF <= exp(B^2 lam^2 / 2)
    add("mgf_gaussian", ("upper_B", "moment_B"),
        lambda: np.exp(0.5 * (B * lams) ** 2) - np.max(np.exp(stats[0]), axis=1),
        "needs xi_i <= B and E|xi_i|^(2+delta) <= B^(2+delta)")

    # 3. two-sided envelope for the tilted mean
    def tilted_mean_margins():
        upper_m = (np.exp(B * lams) - 1.0) / B * s2 - bn
        lower_m = bn - (1.0 - 0.5 * B * lams) * lams * s2 * np.exp(-0.5 * (B * lams) ** 2)
        return np.minimum(upper_m, lower_m) / s2
    add("tilted_mean_two_sided", ("upper_B", "curvature"), tilted_mean_margins,
        "needs xi_i <= B and the curvature condition")

    # 4. cumulant <= n * log of the extremal two-point MGF at variance sigma^2/n
    add("cumulant_two_point", ("upper",),
        lambda: (n * np.log(_two_point_mgf_cap(lams, s2 / n)) - psi) / s2)

    # 5. two-sided envelope for the tilted variance
    def tilted_variance_margins():
        upper_m = np.exp(B * lams) * s2 - varbar
        lower_m = varbar - np.maximum(1.0 - 2.0 * B * lams, 0.0) * s2
        return np.minimum(upper_m, lower_m) / s2
    add("tilted_variance_two_sided", ("upper_B", "curvature", "moment_B"),
        tilted_variance_margins,
        "needs xi_i <= B, the curvature condition and the (2+delta) moment cap")

    # 6. cumulant <= lam^2 sigma^2 / 2
    add("cumulant_gaussian", ("sigma",), lambda: (0.5 * lams * lams * s2 - psi) / s2)

    # 7. tilted variance lower bound from the third-moment ratio
    add("tilted_variance_lower", ("upper_B", "ratio_B"),
        lambda: (varbar - np.maximum(1.0 - B * lams, 0.0) * np.exp(-(B * lams) ** 2) * s2) / s2,
        "needs xi_i <= B and E|xi_i|^3 <= B E xi_i^2")

    # 8. tilted mean lower bound for |xi_i| <= 1
    add("tilted_mean_lower", ("abs",),
        lambda: (bn - (1.0 - np.exp(-lams)) * np.exp(-0.5 * lams * lams) * s2) / s2)

    return SuiteReport(tuple(checks))


# ---------------------------------------------------------------------------
# Normal approximation of the standardized tilted sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalApproxReport:
    lam: float
    sup_distance: float
    bound: float              # the bound actually enforced
    moment_bound: float       # (2+delta)-moment route; inf once it overflows
    bounded_bound: float | None  # 1.12/sigma_bar when |xi_i| <= 1
    sigma_bar: float
    holds: bool | None        # None when skipped
    reason: str | None        # why the tilt was skipped

    def to_dict(self) -> dict:
        if self.reason is not None:
            return {"lam": self.lam, "skipped": True, "reason": self.reason}
        out = asdict(self)
        del out["reason"]
        for key in ("bound", "moment_bound"):  # null once it overflows, as JSON has no inf
            out[key] = out[key] if math.isfinite(out[key]) else None
        return out


def berry_esseen_tilted(model: SumModel, lam: float, delta: float = 1.0) -> NormalApproxReport:
    """Exact sup-distance of the standardized tilted sum from the normal CDF,
    against its Berry-Esseen-type bound: 1.12/sigma_bar when every
    |xi_i| <= 1, else 2^(2+delta) C3_UNIVERSAL e^(B lam) sum E|xi_i|^(2+delta) /
    sigma_bar^(2+delta) with B = a_max (the smallest valid support bound).
    A tilt whose sigma_bar is 0 (every tilted summand but one atom underflows)
    or not finite is skipped: nothing standardizes the sum there.

    The model must be lattice-representable.  The tilted law is the plain one
    times w_k = exp(lam v_k - cum(lam)), so its CDF is read off `build_lattice`
    (unweighted at lam = 0) to the absolute accuracy the distance needs.  Each
    rounding gives x (1 + d) + e, |d| <= 2^-53, |e| <= 2^-1075 (e only for a
    subnormal result), and w keeps the relative d parts.  Folds carry an e on
    by weights summing to 1 within PROB_SUM_TOL (under 2-fold over < 10^8
    copies), a binomial block's chain by ratios <= 1 away from the mode.  A
    build rounds at most 4 N sum_i K_i m_i times (N laid-out points of the
    stride-reduced lattice; block i has K_i atoms, m_i copies): K_i m_i
    shift-add slices of <= N cells, a product and a sum per cell, or
    4 |k - mode| + 1 for binomial mass k and a product and a sum in each of
    the block's (m_i + 1) N cell updates.  So with
    U = 8 N sum_i K_i m_i, the underflow part of a reweighted CDF value is at
    most U max_k w_k 2^-1075 <= 2^-53 if log U + lam v_top - cum <= 1022 ln 2.
    Where this guard fails (as nan does; exp runs only once it holds) or the
    lattice is quantized (its values are not the atoms cum tilts),
    `build_tilted_lattice` builds the tilted lattice directly, also keeping
    the per-mass relative precision that reweighting loses far below 2^-53.
    """
    if not 0.0 <= lam < math.inf:
        raise ParameterError(f"lam must be finite and >= 0, got {lam}")
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    cum, mean, var = packed_cumulants(*model.packed_atoms, [lam])[:, 0].tolist()
    sbar = math.sqrt(var)
    if not 0.0 < sbar < math.inf:
        return NormalApproxReport(lam, math.nan, math.nan, math.nan, None, sbar, None,
                                  "the tilted variance is not positive and finite at this lambda")
    lat, w = build_lattice(model), 1.0  # lam = 0 reads the masses as they are
    if lam > 0.0:
        U = 8 * len(lat) * sum(d.values.size * m for d, m in model.components)
        if lat.quantization_error == 0.0 and \
                math.log(U) + lam * float(lat.values[-1]) - cum <= 1022 * math.log(2.0):
            w = np.exp(lam * lat.values - cum)
        else:
            lat = build_tilted_lattice(model, lam)

    cdf = np.cumsum(lat.masses * w)
    y = (lat.values - mean) / sbar
    phi = ndtr(y)
    below = np.abs(cdf - phi)
    prev = np.concatenate(([0.0], cdf[:-1]))
    above = np.abs(phi - prev)
    sup = float(max(below.max(), above.max()))

    B = model.a_max
    try:
        moment_bound = (
            2.0 ** (2 + delta) * C3_UNIVERSAL * math.exp(B * lam)
            * model.abs_moment_sum(2 + delta) / sbar ** (2 + delta)
        )
    except (OverflowError, ZeroDivisionError):  # exp(B lam) or 1/sbar^(2+delta) overflows
        moment_bound = math.inf
    bounded_bound = None if hypothesis_violation(model, ("abs",), None, None) else 1.12 / sbar
    bound = bounded_bound if bounded_bound is not None else moment_bound
    return NormalApproxReport(
        lam=lam, sup_distance=sup, bound=bound, moment_bound=moment_bound,
        bounded_bound=bounded_bound, sigma_bar=sbar, holds=bool(sup <= bound), reason=None,
    )
