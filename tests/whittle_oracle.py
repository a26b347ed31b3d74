"""Reference route for the Whittle estimate of d: a 50-point grid scan of
the profiled contrast, then golden-section refinement of the bracket around
the grid minimiser down to a width of 1e-5.

It evaluates only ``whittle_objective`` and shares no code with the
derivative root that ``whittle_fit`` finds, so the two routes check each
other; on a convex contrast they agree to within half the final bracket.
"""

import math

import numpy as np

import longpred as lp

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def grid_golden_d_hat(sample, d_bounds=(1e-4, 0.5 - 1e-4), grid_points=50,
                      refine_tol=1e-5):
    """The grid + golden-section minimiser of the profiled contrast."""
    pgram = lp.periodogram(sample)
    lo, hi = d_bounds
    grid = np.linspace(lo, hi, grid_points)
    obj = np.array([lp.whittle_objective(pgram, d) for d in grid])
    best = int(np.argmin(obj))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]
    while b - a > refine_tol:
        c = b - _INVPHI * (b - a)
        e = a + _INVPHI * (b - a)
        if lp.whittle_objective(pgram, c) <= lp.whittle_objective(pgram, e):
            b = e
        else:
            a = c
    return float(0.5 * (a + b))
