"""Periodogram computation and Whittle estimation of the memory parameter.

The Whittle contrast for the fractional family (Fox & Taqqu 1986) profiles
the innovation variance out in closed form, leaving a one-dimensional
problem in d.  With g_d(lambda) = (2 sin(lambda/2))^(-2d) and
L_j = log(2 sin(lambda_j/2)):

    objective(d) = log( mean_j I(lambda_j)/g_d(lambda_j) )
                   + mean_j log g_d(lambda_j)
                 = log( mean_j I_j e^{2 d L_j} ) - 2 d mean_j L_j,
    sigma2_hat(d) = 2 pi mean_j I_j e^{2 d L_j}.

The first term is a log-sum-exp of affine functions of d, so the contrast
is convex, and strictly so unless the periodogram vanishes.  With weights
w_j = I_j e^{2 d L_j} its derivative is

    D(d) = 2 (sum_j w_j L_j / sum_j w_j - mean_j L_j),
    D'(d) = 4 Var_w(L) >= 0,

so D is monotone and the minimiser over the bounds [lo, hi] is its root.
``whittle_fit`` returns lo when D(lo) >= 0 and hi when D(hi) <= 0, and
reports which bound it returned.  Otherwise it finds the root by Newton
steps on D, starting from the secant point of the two bounds; a step that
leaves the bracket of the root becomes a bisection, and the search stops
once a step is below 1e-12 in d.  L is computed once per fit, and
sigma2_hat and the objective at d_hat come from the weights of the last
step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError

_ROOT_TOL = 1e-12  # stop once a step in d is this small
_MIN_N = 64  # the shortest sample whittle_fit accepts
# Steps after the first 16 are bisections: from a bracket below 1/2 wide, 38
# halvings reach the tolerance, so a fit makes at most 2 + 17 + 38 = 57
# derivative evaluations.
_NEWTON_STEPS = 16


@dataclass(frozen=True)
class Periodogram:
    """I_T at the positive non-Nyquist Fourier frequencies 2 pi j / T."""

    freqs: np.ndarray
    values: np.ndarray
    T: int


@dataclass(frozen=True)
class WhittleFit:
    d_hat: float
    sigma2_hat: float
    objective: float
    at_bound: str | None = None  # "lower" or "upper" when d_hat is a bound


def periodogram_ordinate(sample, lam):
    """I_T(lambda) = |sum_t e^{i t lambda} (Y_t - mean)|^2 / (2 pi T)."""
    y = sample.values - np.mean(sample.values)
    T = y.size
    t = np.arange(1, T + 1)
    z = np.sum(np.exp(1j * t * lam) * y)
    return float(np.abs(z) ** 2 / (2.0 * np.pi * T))


def periodogram(sample):
    """Mean-subtracted periodogram at lambda_j = 2 pi j/T, j = 1..(T-1)//2."""
    y = sample.values
    T = y.size
    if T < 2:
        raise ValueError("periodogram needs at least two observations")
    y = y - np.mean(y)
    m = (T - 1) // 2
    freqs = 2.0 * np.pi * np.arange(1, m + 1) / T
    z = np.fft.rfft(y)
    values = np.abs(z[1 : m + 1]) ** 2 / (2.0 * np.pi * T)
    return Periodogram(freqs=freqs, values=values, T=T)


def _contrast_slope(values, L, L_sq, L_mean, d):
    """D(d), D'(d) and mean_j w_j of the profiled contrast, with weights
    w_j = I_j e^{2 d L_j}."""
    w = np.exp(L * (2.0 * d))
    w *= values
    total = w.sum()
    # einsum, not BLAS: the sums must not depend on the BLAS thread count
    mu = np.einsum("i,i->", w, L) / total
    return (2.0 * (mu - L_mean),
            4.0 * (np.einsum("i,i->", w, L_sq) / total - mu * mu),
            total / L.size)


def _fit_at(d, mean_weight, L_mean, at_bound=None):
    return WhittleFit(
        d_hat=float(d),
        sigma2_hat=float(2.0 * np.pi * mean_weight),
        objective=float(np.log(mean_weight) - 2.0 * d * L_mean),
        at_bound=at_bound,
    )


def whittle_fit(sample, d_bounds=(1e-4, 0.5 - 1e-4)):
    """Whittle estimate of (d, sigma2) for the fractional family.

    The root of the monotone derivative of the profiled contrast over
    ``d_bounds``, or the bound it lies beyond (named in ``at_bound``); see
    the module docstring.  Fully deterministic.
    """
    if len(sample) < _MIN_N:
        raise ValueError(f"whittle_fit needs at least {_MIN_N} observations")
    lo, hi = d_bounds
    if not (0.0 < lo < hi < 0.5):
        raise DomainError(f"bounds {d_bounds} must lie inside ]0, 1/2[")
    pgram = periodogram(sample)
    # I >= 0, so its sum is positive unless I vanishes, and finite unless
    # some I_j is not
    if not 0.0 < pgram.values.sum() < math.inf:
        raise EstimationError("periodogram is zero or non-finite "
                              "(degenerate sample)")
    L = np.log(2.0 * np.sin(pgram.freqs / 2.0))
    L_sq = L * L
    L_mean = np.mean(L)

    def slope(d):
        return _contrast_slope(pgram.values, L, L_sq, L_mean, d)

    D_lo, _, mean_lo = slope(lo)
    if D_lo >= 0.0:
        return _fit_at(lo, mean_lo, L_mean, "lower")
    D_hi, _, mean_hi = slope(hi)
    if D_hi <= 0.0:
        return _fit_at(hi, mean_hi, L_mean, "upper")
    a, b = lo, hi
    d = lo - D_lo * (hi - lo) / (D_hi - D_lo)
    step = 0
    while True:
        D, dD, mean_w = slope(d)
        if D < 0.0:
            a = d
        else:
            b = d
        nxt = 0.5 * (a + b)
        if step < _NEWTON_STEPS and dD > 0.0 and a <= d - D / dD <= b:
            nxt = d - D / dD
        if abs(nxt - d) <= _ROOT_TOL:
            break
        d = nxt
        step += 1
    return _fit_at(d, mean_w, L_mean)
