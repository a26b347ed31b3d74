"""Deterministic, splittable random streams for Monte Carlo work.

Every replicate derives its own counter-based generator from the 64-bit
master seed plus a path of integer substream ids, so any replicate can be
reproduced on its own.  Normal variates are produced by inverse CDF on a
strictly interior uniform grid, which keeps the variate count per
replicate fixed.
"""

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_U53 = float(1 << 53)


def derive_rng(seed, *ids):
    """Counter-based generator for the stream (seed, *ids)."""
    path = [int(seed) & _MASK64] + [int(i) & _MASK64 for i in ids]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(path)))


def normals(rng, size, out=None):
    """Standard normals via inverse CDF; avoids the endpoints 0 and 1.

    ``out``, a float array of shape ``size``, receives the variates in place
    and is returned; the values are the same either way.
    """
    if out is None:
        out = np.empty(size)
    out[...] = rng.integers(0, 1 << 53, size=size, dtype=np.uint64)
    out += 0.5
    out /= _U53
    return ndtri(out, out=out)
