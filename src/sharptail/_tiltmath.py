"""Exponential-tilt statistics over a model's packed (C x K) atom matrix.

:func:`packed_tilt` is the one tilt kernel: the cumulant, tilting and
Monte-Carlo layers all read it, so they agree to the last bit.  Every
exponential is max-shifted by its row's top atom, so the results stay finite
for tilts up to lam * max(values) ~ 700.
"""

import numpy as np


def packed_tilt(values, probs, lams):
    """Per-row (log-MGF, mean, variance), as one (3, L, C) array, and the
    (L, C, K) tilted probabilities of a packed atom matrix (rows sorted
    ascending, see :attr:`sharptail.models.SumModel.packed_atoms`) at the L
    tilts `lams` >= 0.

    At lam = 0 the tilted probabilities are the input ones, bit for bit.  The
    variance takes two passes (tilted mean first), because the MGF-ratio
    formula cancels once the tilt piles the mass onto the top atom.  Each
    tilt's rows are computed alone, so its bits do not depend on the others.
    """
    lams = np.asarray(lams, dtype=float)
    top = values[:, -1]
    w = np.exp(lams[:, None, None] * (values - top[:, None]))
    w *= probs
    z = np.add.reduce(w, axis=2)
    w /= z[:, :, None]
    w[lams == 0.0] = probs
    out = np.empty((3,) + z.shape)
    np.log(z, out=out[0])
    out[0] += lams[:, None] * top
    np.add.reduce(w * values, axis=2, out=out[1])
    dev = values - out[1][:, :, None]
    dev *= dev
    dev *= w
    np.add.reduce(dev, axis=2, out=out[2])
    return out, w


def tilted_stats(values, probs, lam):
    """Tilted (log-MGF, mean, variance, probs) of one component at tilt lam:
    the one-row case of :func:`packed_tilt`."""
    stats, tp = packed_tilt(values[None, :], probs[None, :], [lam])
    return (*stats[:, 0, 0].tolist(), tp[0, 0])


def packed_cumulants(values, probs, mults, lams):
    """(cum, cum', cum'') of a whole sum at every tilt in `lams` (all >= 0),
    as the rows of one (3, len(lams)) array: the multiplicity-weighted sums
    over the rows of :func:`packed_tilt`, with `mults` holding the rows'
    multiplicities."""
    stats, _ = packed_tilt(values, probs, lams)
    stats *= mults
    return np.add.reduce(stats, axis=2)
