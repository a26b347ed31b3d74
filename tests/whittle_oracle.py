"""Reference route for the Whittle estimate of d: the profiled contrast
evaluated directly, a 50-point grid scan of it, then golden-section
refinement of the bracket around the grid minimiser down to a width of 1e-5.

It evaluates only ``whittle_objective`` and shares no code with the
derivative root that ``whittle_fit`` finds, so the two routes check each
other; on a convex contrast they agree to within half the final bracket.
"""

import math

import numpy as np

import longpred as lp
from longpred.errors import DomainError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _gd(freqs, d):
    return (2.0 * np.sin(freqs / 2.0)) ** (-2.0 * d)


def whittle_objective(pgram, d):
    """Profiled Whittle contrast at memory parameter d."""
    if not (0.0 < d < 0.5):
        raise DomainError(f"d={d} outside ]0, 1/2[")
    g = _gd(pgram.freqs, d)
    ratio_mean = np.mean(pgram.values / g)
    if ratio_mean <= 0.0 or not np.isfinite(ratio_mean):
        return math.inf
    return float(np.log(ratio_mean) + np.mean(np.log(g)))


def whittle_profiled_sigma2(pgram, d):
    """Innovation variance profiled out of the Whittle contrast."""
    g = _gd(pgram.freqs, d)
    return float(2.0 * np.pi * np.mean(pgram.values / g))


def grid_golden_d_hat(sample, d_bounds=(1e-4, 0.5 - 1e-4), grid_points=50,
                      refine_tol=1e-5):
    """The grid + golden-section minimiser of the profiled contrast."""
    pgram = lp.periodogram(sample)
    lo, hi = d_bounds
    grid = np.linspace(lo, hi, grid_points)
    obj = np.array([whittle_objective(pgram, d) for d in grid])
    best = int(np.argmin(obj))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]
    while b - a > refine_tol:
        c = b - _INVPHI * (b - a)
        e = a + _INVPHI * (b - a)
        if whittle_objective(pgram, c) <= whittle_objective(pgram, e):
            b = e
        else:
            a = c
    return float(0.5 * (a + b))
