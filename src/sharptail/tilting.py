"""Exponential change of measure and the machine-checked inequality suite.

`tilt` reweights every atom by exp(lam * value) and reports each tilted
component, the tilted mean of the whole sum (which equals the cumulant
derivative) and the total tilted variance.

`inequality_suite` evaluates, on a tilt grid, the standard envelope
inequalities this package's sharp bounds rest on: two-point and Gaussian MGF
caps, two-sided envelopes for the tilted mean and tilted variance, and
cumulant caps.  Each check carries its own hypothesis gate: a model that does
not satisfy a hypothesis yields "skipped", never a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._tiltmath import tilted_stats, tilted_stats_grid
from .errors import NumericalError, ParameterError
from .models import SumModel, abs_moment, check_curvature_condition, curvature_condition_from_moments
from .oracle import build_tilted_lattice

_HYP_TOL = 1e-12
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
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    comps = []
    for dist, m in model.components:
        if lam == 0.0:
            tc = TiltedComponent(
                values=dist.values, probs=dist.probs,
                mean=float(np.dot(dist.probs, dist.values)),
                variance=dist.variance, multiplicity=m,
            )
        else:
            _, mean, var, tp = tilted_stats(dist.values, dist.probs, lam)
            m2 = float(np.dot(tp, dist.values**2))
            if not abs((var + mean * mean) - m2) <= 1e-10 * max(m2, 1e-300):
                raise NumericalError(
                    f"tilted variance cross-check failed at lam={lam}: "
                    f"var + mean^2 = {var + mean * mean:.17g}, E xi^2 = {m2:.17g}"
                )
            tc = TiltedComponent(values=dist.values, probs=tp, mean=mean,
                                 variance=var, multiplicity=m)
        comps.append(tc)
    total_mean = sum(tc.mean * tc.multiplicity for tc in comps)
    total_var = sum(tc.variance * tc.multiplicity for tc in comps)
    return TiltedState(
        lam=lam,
        components=tuple(comps),
        mean=total_mean,
        variance=total_var,
    )


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
            "worst_margin": self.worst_margin,
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


def default_suite_grid(B: float) -> np.ndarray:
    return np.linspace(0.0, min(1.0 / B, 5.0), 50)


def _two_point_mgf_cap(lams, var):
    """(var * e^lam + e^(-lam var)) / (1 + var): the extremal two-point MGF."""
    return (var * np.exp(lams) + np.exp(-lams * var)) / (1.0 + var)


def inequality_suite(model: SumModel, B: float, delta: float = 1.0,
                     lambda_grid=None) -> SuiteReport:
    """Evaluate every envelope inequality whose hypothesis the model satisfies.

    Margins are signed slacks (bound minus quantity, or quantity minus bound
    for lower bounds), divided by sigma^2 for sum-level quantities so they
    are scale-free; per-component MGF margins are already O(1).
    """
    if not B > 0:
        raise ParameterError(f"B must be positive, got {B}")
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    lams = default_suite_grid(B) if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    if lams.size == 0 or lams.min() < 0:
        raise ParameterError("lambda grid must be non-empty with values >= 0")

    s2 = model.sigma2
    n = model.n

    # per-component tilted stats across the grid
    log_mgfs, mgfs, means, varis = [], [], [], []
    for dist, m in model.components:
        lm, mn, vr = tilted_stats_grid(dist.values, dist.probs, lams)
        log_mgfs.append(lm)
        mgfs.append(np.exp(lm))
        means.append(mn)
        varis.append(vr)
    mults = np.array([m for _, m in model.components], dtype=float)
    psi = sum(m * lm for m, lm in zip(mults, log_mgfs))
    bn = sum(m * mn for m, mn in zip(mults, means))
    varbar = sum(m * vr for m, vr in zip(mults, varis))

    upper_ok_1 = model.a_max <= 1.0 + _HYP_TOL
    upper_ok_B = model.a_max <= B + _HYP_TOL
    two_sided_1 = upper_ok_1 and model.lower_min >= -1.0 - _HYP_TOL
    moment_ok_B = all(
        abs_moment(d, 2 + delta) <= B ** (2 + delta) * (1 + _HYP_TOL)
        for d, _ in model.components
    )
    curvature_ok = curvature_condition_from_moments(model, B) or \
        check_curvature_condition(model, B).holds
    subvar_ok = all(d.upper <= math.sqrt(d.variance) + _HYP_TOL for d, _ in model.components)
    third_ok = all(abs_moment(d, 3) <= B * d.variance * (1 + _HYP_TOL) for d, _ in model.components)

    checks = []

    def add(name, applicable, margins, reason=None):
        if not applicable:
            checks.append(InequalityCheck(name, False, None, None, None, reason))
            return
        margins = np.asarray(margins, dtype=float)
        k = int(np.argmin(margins))
        checks.append(InequalityCheck(
            name, True, bool(margins[k] >= _MARGIN_TOL),
            float(margins[k]), float(lams[k]),
        ))

    # 1. per-component MGF <= extremal two-point MGF   (needs xi_i <= 1)
    if upper_ok_1:
        marg = None
        for (dist, _), mgf in zip(model.components, mgfs):
            cap = _two_point_mgf_cap(lams, dist.variance)
            row = cap - mgf
            marg = row if marg is None else np.minimum(marg, row)
        add("mgf_two_point", True, marg)
    else:
        add("mgf_two_point", False, None, "needs xi_i <= 1")

    # 2. per-component MGF <= exp(B^2 lam^2 / 2)
    if upper_ok_B and moment_ok_B:
        cap = np.exp(0.5 * B * B * lams * lams)
        marg = None
        for mgf in mgfs:
            row = cap - mgf
            marg = row if marg is None else np.minimum(marg, row)
        add("mgf_gaussian", True, marg)
    else:
        add("mgf_gaussian", False, None,
            "needs xi_i <= B and E|xi_i|^(2+delta) <= B^(2+delta)")

    # 3. two-sided envelope for the tilted mean
    if upper_ok_B and curvature_ok:
        upper_m = (np.exp(B * lams) - 1.0) / B * s2 - bn
        lower_m = bn - (1.0 - 0.5 * B * lams) * lams * s2 * np.exp(-0.5 * B * B * lams * lams)
        add("tilted_mean_two_sided", True, np.minimum(upper_m, lower_m) / s2)
    else:
        add("tilted_mean_two_sided", False, None,
            "needs xi_i <= B and the curvature condition")

    # 4. cumulant <= n * log of the extremal two-point MGF at variance sigma^2/n
    if upper_ok_1:
        cap = n * np.log(_two_point_mgf_cap(lams, s2 / n))
        add("cumulant_two_point", True, (cap - psi) / s2)
    else:
        add("cumulant_two_point", False, None, "needs xi_i <= 1")

    # 5. two-sided envelope for the tilted variance
    if upper_ok_B and curvature_ok and moment_ok_B:
        upper_m = np.exp(B * lams) * s2 - varbar
        lower_m = varbar - np.maximum(1.0 - 2.0 * B * lams, 0.0) * s2
        add("tilted_variance_two_sided", True, np.minimum(upper_m, lower_m) / s2)
    else:
        add("tilted_variance_two_sided", False, None,
            "needs xi_i <= B, the curvature condition and the (2+delta) moment cap")

    # 6. cumulant <= lam^2 sigma^2 / 2   (needs xi_i <= sigma_i per component)
    if subvar_ok:
        add("cumulant_gaussian", True, (0.5 * lams * lams * s2 - psi) / s2)
    else:
        add("cumulant_gaussian", False, None, "needs xi_i <= sigma_i for every component")

    # 7. tilted variance lower bound from the third-moment ratio
    if upper_ok_B and third_ok:
        cap = np.maximum(1.0 - B * lams, 0.0) * np.exp(-B * B * lams * lams) * s2
        add("tilted_variance_lower", True, (varbar - cap) / s2)
    else:
        add("tilted_variance_lower", False, None,
            "needs xi_i <= B and E|xi_i|^3 <= B E xi_i^2")

    # 8. tilted mean lower bound for |xi_i| <= 1
    if two_sided_1:
        cap = (1.0 - np.exp(-lams)) * np.exp(-0.5 * lams * lams) * s2
        add("tilted_mean_lower", True, (bn - cap) / s2)
    else:
        add("tilted_mean_lower", False, None, "needs |xi_i| <= 1")

    return SuiteReport(tuple(checks))


# ---------------------------------------------------------------------------
# Normal approximation of the standardized tilted sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalApproxReport:
    lam: float
    sup_distance: float
    bound: float              # the bound actually enforced
    moment_bound: float       # (2+delta)-moment route
    bounded_bound: float | None  # 1.12/sigma_bar when |xi_i| <= 1
    sigma_bar: float
    holds: bool

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "sup_distance": self.sup_distance,
            "bound": self.bound,
            "moment_bound": self.moment_bound,
            "bounded_bound": self.bounded_bound,
            "sigma_bar": self.sigma_bar,
            "holds": self.holds,
        }


def berry_esseen_tilted(model: SumModel, lam: float, delta: float = 1.0,
                        C: float = 0.56) -> NormalApproxReport:
    """Exact sup-distance of the standardized tilted sum from the normal CDF,
    against its Berry-Esseen-type bound.

    The distance is computed from the exact tilted convolution, so the model
    must be lattice-representable.  The enforced bound is 1.12/sigma_bar when
    every |xi_i| <= 1, else the (2+delta)-moment bound
    2^(2+delta) C e^(B lam) sum E|xi_i|^(2+delta) / sigma_bar^(2+delta) with
    B = a_max (the smallest valid support bound).
    """
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    state = tilt(model, lam)
    sbar = math.sqrt(state.variance)
    lat = build_tilted_lattice(model, lam)

    cdf = np.cumsum(lat.masses)
    y = (lat.values - state.mean) / sbar
    phi = special.ndtr(y)
    below = np.abs(cdf - phi)
    prev = np.concatenate(([0.0], cdf[:-1]))
    above = np.abs(phi - prev)
    sup = float(max(below.max(), above.max()))

    B = model.a_max
    moment_bound = (
        2.0 ** (2 + delta) * C * math.exp(B * lam)
        * model.abs_moment_sum(2 + delta) / sbar ** (2 + delta)
    )
    two_sided = model.a_max <= 1.0 + _HYP_TOL and model.lower_min >= -1.0 - _HYP_TOL
    bounded_bound = 1.12 / sbar if two_sided else None
    bound = bounded_bound if bounded_bound is not None else moment_bound
    return NormalApproxReport(
        lam=lam, sup_distance=sup, bound=bound, moment_bound=moment_bound,
        bounded_bound=bounded_bound, sigma_bar=sbar, holds=bool(sup <= bound),
    )
