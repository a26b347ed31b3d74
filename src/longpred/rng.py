"""Deterministic, splittable random streams for Monte Carlo work.

Every replicate derives its own counter-based generator from the 64-bit
master seed plus a path of integer substream ids, so any replicate can be
reproduced on its own.  Normal variates are the generator's own
``standard_normal`` draws; since no two replicates share a stream, how many
raw draws a variate consumes never moves another replicate.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_rng(seed, *ids):
    """Counter-based generator for the stream (seed, *ids)."""
    path = [int(seed) & _MASK64] + [int(i) & _MASK64 for i in ids]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(path)))


def normals(rng, size, out=None):
    """``size`` standard normals from ``rng``.

    ``out``, a contiguous float array of shape ``size``, receives the
    variates in place and is returned; the values are the same either way.
    """
    return rng.standard_normal(size, out=out)
