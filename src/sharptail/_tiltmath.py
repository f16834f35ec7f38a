"""Low-level exponential-tilt statistics for a single finite distribution.

All helpers work on raw (values, probs) arrays so they can be shared by the
cumulant, tilting and Monte-Carlo layers without circular imports.  Every
exponential is max-shifted, so the routines stay finite for tilts up to
lam * max(values) ~ 700.
"""

import math

import numpy as np


def tilted_stats(values, probs, lam):
    """Tilted (log-MGF, mean, variance, probs) of one component at tilt lam.

    The probabilities are reweighted by exp(lam * value); the variance is
    computed from the reweighted atoms in two passes (subtract the tilted
    mean first) because the MGF-ratio formula cancels catastrophically once
    the tilt concentrates the mass near the top atom.
    """
    if lam == 0.0:
        mean = float(np.dot(probs, values))
        var = float(np.dot(probs, (values - mean) ** 2))
        return 0.0, mean, var, np.array(probs, dtype=float)
    shift = lam * float(values[-1])
    w = probs * np.exp(lam * values - shift)
    z = float(w.sum())
    tp = w / z
    mean = float(np.dot(tp, values))
    var = float(np.dot(tp, (values - mean) ** 2))
    return shift + math.log(z), mean, var, tp


def tilted_stats_grid(values, probs, lams):
    """Vectorised (log-MGF, mean, variance) arrays over a grid of tilts.

    `values` must be sorted ascending (the max-shift uses the last entry).
    """
    lams = np.asarray(lams, dtype=float)
    shift = lams[:, None] * values[-1]
    w = probs * np.exp(lams[:, None] * values - shift)
    z = w.sum(axis=1)
    tp = w / z[:, None]
    mean = tp @ values
    var = np.einsum("ij,ij->i", tp, (values - mean[:, None]) ** 2)
    log_mgf = shift[:, 0] + np.log(z)
    return log_mgf, mean, var


def packed_cumulants(values, probs, mults, lams):
    """(cum, cum', cum'') of a whole sum at every tilt in `lams` (all >= 0),
    as the rows of one (3, len(lams)) array.

    `values` and `probs` are the (C x K) packed atom matrix of the sum's C
    components, each row sorted ascending (zero-probability padding repeats
    the row's top atom), and `mults` holds their multiplicities.  Each row is
    max-shifted by its top atom and its variance is taken in two passes, as
    in :func:`tilted_stats`; the results are multiplicity-weighted sums over
    the rows.  Every operation acts on one tilt's rows alone, so a tilt gets
    the same bits whichever other tilts share the call.
    """
    lams = np.asarray(lams, dtype=float)
    top = values[:, -1]
    w = np.exp(lams[:, None, None] * (values - top[:, None]))
    w *= probs
    z = np.add.reduce(w, axis=2)
    w /= z[:, :, None]
    out = np.empty((3,) + z.shape)
    np.log(z, out=out[0])
    out[0] += lams[:, None] * top
    np.add.reduce(w * values, axis=2, out=out[1])
    dev = values - out[1][:, :, None]
    dev *= dev
    dev *= w
    np.add.reduce(dev, axis=2, out=out[2])
    out *= mults
    return np.add.reduce(out, axis=2)
