"""Cumulant of the sum, its derivatives, the saddlepoint, and the rate function.

The cumulant is cum(lam) = sum_i log E e^(lam xi_i), convex with cum(0) = 0.
Its derivative equals the mean of the sum under the exponential tilt, so it
increases from 0 to the essential supremum of the sum, and its second
derivative is the tilted variance.  All three come from one max-shifted pass
over the model's packed atom matrix, for a whole vector of tilts at once.

The saddlepoint solver exploits that monotonicity.  Every threshold of a
grid is solved in the same passes: safeguarded Newton on cum' with cum'' as
the slope, started at the Gaussian guess t / sigma^2 and kept inside a
bracket on which cum' - t changes sign; a step that would leave the bracket
is replaced by bisection.  Each outcome is recorded on the model instance,
so the scalar functions below read a grid's solution instead of solving
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tiltmath import packed_cumulants
from .errors import NoSaddlepointError, ParameterError
from .models import SumModel, law_scale

#: tolerance on cum'(lam) at the returned saddlepoint, relative to the larger
#: of the threshold and the atoms' unit (`sharptail.models.law_scale`)
ROOT_RTOL = 1e-12

#: the gate never goes below this many units of eps * sum_i m_i max|xi_i|,
#: the rounding noise of cum' itself (a sum of that many like-scaled terms),
#: which exceeds ROOT_RTOL for small thresholds on large wide models
_NOISE_ULPS = 4.0

#: beyond lam = 700 / a_max the tilt saturates in float64
_LAM_EXP_CAP = 700.0

#: threshold this close (relative) to the essential sup has no interior saddlepoint
_BOUNDARY_RTOL = 1e-12

#: a point that passes the residual gate is accepted once the Newton step
#: from it is at most this relative size (to first order, its error), once a
#: Newton step of at most _STEP_RTOL led to it (Newton converges
#: quadratically, so its error is then near float precision), or once the
#: Newton step points below lam = 0, where the constrained optimum sits
_NEWTON_RTOL = 1e-13
_STEP_RTOL = 1e-8

_EPS = float(np.finfo(float).eps)

#: cap on solver passes: Newton needs a handful, and bisection alone narrows
#: [0, cap] to float precision at lam ~ 1e-3 in about 70
_MAX_ITER = 100


def _cumulants(model: SumModel, lam: float) -> np.ndarray:
    if not 0.0 <= lam < math.inf:
        raise ParameterError(f"lam must be finite and >= 0, got {lam}")
    values, probs, mults = model.packed_atoms
    return packed_cumulants(values, probs, mults, [lam])[:, 0]


def cumulant(model: SumModel, lam: float) -> float:
    """sum_i log E e^(lam xi_i), each term via a max-shifted log-sum-exp."""
    psi = float(_cumulants(model, lam)[0])
    return 0.0 if lam == 0.0 else psi


def cumulant_deriv(model: SumModel, lam: float) -> float:
    """cum'(lam) = sum_i E[xi_i e^(lam xi_i)] / E[e^(lam xi_i)], the tilted mean."""
    return float(_cumulants(model, lam)[1])


@dataclass(frozen=True)
class Saddlepoint:
    """Solution of cum'(lam) = target, with the optimized log bound."""

    lam: float
    cumulant_value: float
    log_bound: float       # -lam * target + cum(lam), always <= 0
    bracket_width: float   # width of the final safeguard bracket
    variance: float        # cum''(lam), the tilted variance of the sum


def solve_targets(model: SumModel, targets) -> list[Saddlepoint | None]:
    """Solve cum'(lam) = t for every raw threshold t in `targets` at once.

    Returns one entry per target: its :class:`Saddlepoint`, or None where no
    saddlepoint exists (at or beyond the essential sup, a saturated tilt, a
    stalled solve).  A point that cannot be solved never stops the others;
    :func:`solve_target` raises :class:`NoSaddlepointError` for it with the
    reason.  Every outcome is recorded on `model`, so a threshold is solved
    once per model instance.
    """
    ts = [float(t) for t in targets]
    for t in ts:
        if not t >= 0:
            raise ParameterError(f"threshold must be >= 0, got {t}")
    record = model.saddlepoint_record
    todo = [t for t in dict.fromkeys(ts) if t not in record]
    if todo:
        _solve_into(model, todo, record)
    return [sp if isinstance(sp, Saddlepoint) else None for sp in map(record.__getitem__, ts)]


def _solve_into(model: SumModel, targets: list[float], record: dict) -> None:
    sup = model.max_support
    inner = []
    for t in targets:
        if t >= sup * (1.0 - _BOUNDARY_RTOL):
            record[t] = f"threshold {t:.17g} is at or beyond the essential sup {sup:.17g}"
        elif t == 0.0:
            record[t] = Saddlepoint(lam=0.0, cumulant_value=0.0, log_bound=0.0,
                                    bracket_width=0.0, variance=model.sigma2)
        else:
            inner.append(t)
    if not inner:
        return

    values, probs, mults = model.packed_atoms
    lam_cap = _LAM_EXP_CAP / model.a_max
    t = np.array(inner)
    lam = np.minimum(t / model.sigma2, lam_cap)
    # the first pass also evaluates the cap, which closes every bracket
    cums = packed_cumulants(values, probs, mults, np.append(lam, lam_cap))
    cap_mean = cums[1, -1]
    cums = cums[:, :-1]
    if max(inner) > cap_mean:
        saturated = t > cap_mean
        for ti in t[saturated].tolist():
            record[ti] = (f"tilt saturates before reaching threshold {ti:.17g} "
                          f"(lam capped at {lam_cap:.6g})")
        keep = ~saturated
        if not keep.any():
            return
        t, lam, cums = t[keep], lam[keep], cums[:, keep]
    tops = np.abs(values).max(axis=1)
    noise = _NOISE_ULPS * _EPS * float(mults @ tops)
    tol = np.maximum(ROOT_RTOL * np.maximum(law_scale(tops.tolist()), t), noise)
    lo = np.zeros_like(t)
    hi = np.full_like(t, lam_cap)
    # |Newton step| / lam that led to lam, inf if none.  A target within
    # rounding of cum' at lam ~ 0 starts converged: its Gaussian guess is exact
    # to first order, and Newton steps there are noise.
    last_rel = np.where(t <= _EPS * (sup - model.min_support), 0.0, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            psi, d1, d2 = cums
            resid = d1 - t
            below = resid < 0.0
            np.copyto(lo, lam, where=below)
            np.copyto(hi, lam, where=~below)
            step = resid / d2
            nxt = lam - step
            rel = np.abs(step / lam)
            finished = rel <= _NEWTON_RTOL
            finished |= last_rel <= _STEP_RTOL
            finished |= nxt <= 0.0
            newton = (nxt > lo) & (nxt <= hi)
            if not newton.all():
                np.copyto(nxt, 0.5 * (lo + hi), where=~newton)
            # a point stops moving once its bracket has collapsed onto it
            collapsed = nxt == lam
            finished &= np.abs(resid) <= tol
            finished |= collapsed
            if finished.any():
                for i in np.flatnonzero(finished):
                    ti, lami, psii = float(t[i]), float(lam[i]), float(psi[i])
                    if abs(resid[i]) <= tol[i]:
                        record[ti] = _accepted(ti, lami, psii, float(hi[i] - lo[i]),
                                               float(d2[i]))
                    else:
                        record[ti] = _stalled(resid[i], lami)
                keep = ~finished
                if not keep.any():
                    return
                t, tol, lo, hi = t[keep], tol[keep], lo[keep], hi[keep]
                nxt, rel, newton = nxt[keep], rel[keep], newton[keep]
            last_rel = np.where(newton, rel, np.inf)
            lam = nxt
            cums = packed_cumulants(values, probs, mults, lam)
    # Newton steps of a tiny lam can be rounding noise of cum' that is large
    # relative to lam, so a point may pass the residual gate without ever
    # meeting a step test; out of passes, it is as converged as it can get
    psi, d1, d2 = cums
    for i, resid in enumerate((d1 - t).tolist()):
        ti, lami = float(t[i]), float(lam[i])
        if abs(resid) <= tol[i]:
            record[ti] = _accepted(ti, lami, float(psi[i]), float(hi[i] - lo[i]),
                                   float(d2[i]))
        else:
            record[ti] = _stalled(resid, lami)


def _accepted(t: float, lam: float, psi: float, width: float, variance: float) -> Saddlepoint:
    return Saddlepoint(lam=lam, cumulant_value=psi, log_bound=min(0.0, psi - lam * t),
                       bracket_width=width, variance=variance)


def _stalled(resid: float, lam: float) -> str:
    return f"saddlepoint solve stalled: residual {resid:.3e} at lam={lam:.17g}"


def solve_target(model: SumModel, target: float) -> Saddlepoint:
    """Solve cum'(lam) = target for a raw threshold (not in sigma units):
    :func:`solve_targets` on one point."""
    sp = solve_targets(model, [target])[0]
    if sp is None:
        raise NoSaddlepointError(model.saddlepoint_record[float(target)])
    return sp


def solve_saddlepoint(model: SumModel, x: float) -> Saddlepoint:
    """Saddlepoint for threshold x * sigma (x in standard-deviation units)."""
    return solve_target(model, x * model.sigma)


def chernoff_log(model: SumModel, x: float) -> float:
    """log inf_(lam >= 0) E e^(lam (S_n - x sigma))."""
    return solve_saddlepoint(model, x).log_bound


def chernoff_bound(model: SumModel, x: float) -> float:
    """The optimized exponential-Markov bound inf_(lam >= 0) E e^(lam (S_n - x sigma))."""
    return math.exp(chernoff_log(model, x))


def fenchel_legendre(model: SumModel, y: float) -> float:
    """Rate at mean level y: sup_(lam >= 0) { lam y - cum(lam)/n }.

    Zero for y <= 0 (the one-sided transform); consistent with
    chernoff_bound via exp(-n * rate(x sigma / n)).  Never negative: lam = 0
    gives 0, and a rounding of cum(lam) past lam y at a tiny y is clipped.
    """
    if y <= 0.0:
        return 0.0
    n = model.n
    sp = solve_target(model, n * y)
    return max(0.0, sp.lam * y - sp.cumulant_value / n)
