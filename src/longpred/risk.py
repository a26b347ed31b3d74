"""Exact and asymptotic mean-squared prediction-error quantities.

Quantities for a model at order k:

* truncation excess: E[(X_{k+1} - wk_truncated forecast)^2] - sigma_eps^2,
  the price of cutting the Wiener-Kolmogorov series at k terms;
* AR(k) excess: v(k) - sigma_eps^2, the price of fitting a misspecified
  order-k autoregression;
* the constant c_of_d(d) of the k^-1 truncation-rate expansion for
  fractional noise, the improvement ratio r(k), a three-term decomposition
  of the AR(k) excess, and Monte Carlo scaling checks for the
  estimated-coefficient error.

Sign conventions inside the decomposition are fixed so that
term1 + term2 + term3 equals the AR(k) excess and term3 equals the
truncation excess; term1 >= 0 is the mean-squared distance between the two
predictors, term2 <= 0.  (Equivalent displays in the literature flip the
overall sign and describe the negated terms.)
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DomainError, InternalConsistencyError,
                     StatisticalPowerError)
from .fraccoeff import (_EPS, _WIDE, _WIDE_EPS, LongMemoryModel,
                        _arma_filter, _arma_polys, _farima_autocov, _fi_acf,
                        _fi_ar_values, _fi_delta, _fi_log_ratio, _roundoff,
                        _worst_roundoff,
                        ar_inf_coeffs, exact_autocov)
from .series import SamplePath
from .simulate import gaussian_paths, path_blocks
from .spectral import whittle_fit
from .toeplitz import (_lag_products, _toeplitz_inverse, _toeplitz_matvec,
                       _toeplitz_quadratic_form, durbin_levinson,
                       empirical_autocov, fi_ark_closed_form,
                       innovation_variance_quadratic_form)

# relative accuracy certified by truncation_excess and, for FI, ark_excess
_TRUNC_RTOL = _ARK_RTOL = 1e-9
# agreement of ark_excess's v(k) with its quadratic form, in sigma(0)
_ARK_CHECK_RTOL = 1e-8
# relative agreement of r_of_k's closed and direct ratios
_R_CHECK_RTOL = 1e-6
# the share of a cross-check's margin an FFT's bound may add to it; past
# it the direct lag sum runs
_FFT_SHARE = 1e-3


@dataclass(frozen=True)
class SlopeReport:
    """Monte Carlo estimates over a grid plus the fitted log-log slope.

    ``stderrs`` holds sd/sqrt(reps) of the per-replicate values.  Where the
    values are heavy-tailed it is no error bar: for d > 1/4 the lag-0
    covariance estimator has a non-Gaussian limit, and at d = 0.4 with 50
    replicates the ``covmoment_scaling`` estimate lay more than 5 such
    stderrs below the exact value for 9 of 30 master seeds.
    """

    grid: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    slope: float
    slope_stderr: float


# ---------------------------------------------------------------------------
# analytic quantities


def truncation_excess(model, k):
    """E[(X_{k+1} - truncated WK forecast)^2] - sigma_eps^2.

    The residual variance of the length-(k+1) truncated AR filter a_0..a_k
    is the finite quadratic form sum_{j,l<=k} a_j a_l sigma(j-l).  Written
    with w_h = sum_j a_j a_{j+h}, rho_h = sigma(h)/sigma(0) and
    delta = sigma(0)/sigma2 - 1, its excess over sigma2 is
    sigma2 (b + delta (1 + b)) with b = sum_{j>=1} a_j^2 + 2 sum_{h>=1}
    w_h rho_h, so no terms of the size of sigma(0) cancel.  The terms of b
    still exceed the result about k-fold, so they are summed in wide
    precision.  A round-off bound that follows every input from its
    recursion must stay below 1e-9 relative, or AccuracyError is raised.
    The lag products come from ``toeplitz._lag_products``; if its FFT's
    bound, charged in, is what breaks 1e-9, the direct sum runs instead.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    a = _fi_ar_values(_WIDE(model.d), k)
    h = np.arange(1, k + 1)
    if model.is_pure_fractional:
        rho = _fi_acf(_WIDE(model.d), k)[1:]
        rho_err = _worst_roundoff(4 * h, _WIDE_EPS)
        delta, delta_err = _fi_delta(model.d)
        steps = 0  # roundings per step of the ARMA filter
    else:
        phi, theta = _arma_polys(model)
        a = _arma_filter(phi.astype(_WIDE), theta.astype(_WIDE), a)
        s, rel = _farima_autocov(model, k, _WIDE)
        rho = s[1:] / s[0]
        rho_err = rel[1:] + rel[0] + _WIDE_EPS
        delta = s[0] / model.sigma2_eps - 1
        delta_err = float(1 + delta) * (rel[0] + _WIDE_EPS)
        steps = 2 * (phi.size + theta.size - 1)
    a = a[1:]
    # round-off bound: a term of b carries the roundings on its own path,
    # a_h from the recursion plus the final sum, a tail product both
    # factors' recursions plus two sums of k terms; the float lag products
    # of |a| plus their own bound bound those of |a| at every lag.  The FI
    # recursions, 3 roundings a step for a_h and 4 for rho_h, are charged
    # their worst case (see fraccoeff._roundoff), the filter and the sums
    # the probabilistic bound, except in the tail products: long_sum
    # charges their factors' 6 FI roundings a step probabilistically too,
    # since the worst case would charge FI(0.1) 6.9e-9 at k = 102 400
    a_abs, r_abs = np.abs(a).astype(float), np.abs(rho).astype(float)
    tail_abs, abs_err = _lag_products(a_abs, a_abs, k, math.inf)
    tail_abs = tail_abs + abs_err
    tail_w = np.zeros_like(tail_abs)
    tail_w[:-1] = tail_abs[1:]
    long_sum = _roundoff((2 * steps + 8) * k + 3, _WIDE_EPS)
    w_err = ((_worst_roundoff(3 * h, _WIDE_EPS)
              + _roundoff(steps * h + k + 3, _WIDE_EPS)) * a_abs
             + long_sum * tail_w)
    b_err = (long_sum * tail_abs[0]
             + 2.0 * np.dot(w_err + rho_err * (a_abs + tail_w), r_abs))
    # an FFT's bound on the 2-norm of tail's error meets rho by
    # Cauchy-Schwarz
    fft_weight = 1.0 + 2.0 * math.sqrt(np.dot(r_abs, r_abs))
    delta_f = float(delta)

    def excess(atol):
        # tail[h] = sum_{j>=1} a_j a_{j+h}; w_h adds a_0 a_h = a_h to it
        tail, tail_err = _lag_products(a, a, k, atol)
        w = a.copy()
        w[:-1] += tail[1:]
        b = np.sum(np.concatenate((tail[:1], 2 * w * rho)))
        value = float(b + delta * (1 + b))
        b = float(b)
        err = ((b_err + fft_weight * tail_err) * (1.0 + abs(delta_f))
               + delta_err * abs(1.0 + b)
               + _EPS * (abs(delta_f * (1.0 + b)) + abs(value)))
        return value, err, tail_err

    value, err, tail_err = excess(math.inf)
    if err > _TRUNC_RTOL * abs(value) and tail_err:
        # the FFT's bound misses where the direct sum's may not
        value, err, _ = excess(0.0)
    if err > _TRUNC_RTOL * abs(value):
        raise AccuracyError(
            f"truncation excess not certified to rtol={_TRUNC_RTOL:g}",
            achieved=err / abs(value))
    return model.sigma2_eps * value


def ark_excess(model, k):
    """v(k) - sigma_eps^2 of the order-k Yule-Walker predictor, cross-checked
    against the quadratic form of its coefficients.

    For fractional noise v(k)/sigma2 = exp(L) with L the all-positive
    gamma-ratio series of ``fraccoeff._fi_log_ratio``, and the excess is
    sigma2 expm1(L), so nothing of the size of sigma(0) cancels.  Its error
    bound, that of L through the slope exp(L) plus one rounding each of
    expm1 and the scaling, must stay below 1e-9 relative, or AccuracyError
    is raised before the cross-check, a lag sum of the coefficients.
    FARIMA models run Durbin-Levinson on the exact autocovariances.
    """
    return _ark(model, k)[0]


def _ark(model, k):
    """``ark_excess``'s value with the autocovariances sigma(0..k) and the
    order-k predictor it was checked against."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    acov = exact_autocov(model, k)
    if model.is_pure_fractional:
        log_v, log_err = _fi_log_ratio(model.d, k)
        value = math.expm1(log_v)
        err = log_err * math.exp(log_v) + 1.5 * _EPS * abs(value)
        if err > _ARK_RTOL * abs(value):
            raise AccuracyError(
                f"AR(k) excess not certified to rtol={_ARK_RTOL:g}",
                achieved=err / abs(value))
        model_k = fi_ark_closed_form(model.d, k, model.sigma2_eps)
        value *= model.sigma2_eps
    else:
        model_k = durbin_levinson(acov, k)
        value = model_k.v - model.sigma2_eps
    # an FFT runs in the cross-check only if its bound fits in a small
    # share of the margin, which it then widens
    margin = _ARK_CHECK_RTOL * acov.values[0]
    quad_v, quad_err = innovation_variance_quadratic_form(
        acov, model_k, _FFT_SHARE * margin)
    if abs(quad_v - model_k.v) > margin + quad_err:
        raise InternalConsistencyError(
            f"v(k) {model_k.v!r} disagrees with quadratic form {quad_v!r}"
        )
    return value, acov, model_k


def c_of_d(d):
    """Constant of the k^-1 truncation-rate expansion for fractional noise:
    2 Gamma(1-2d) Gamma(2d) / (Gamma(-d)^2 Gamma(d) Gamma(1+d)).

    The factor 2 is the symmetry of the double tail sum
    sum_{j,l>k} a_j a_l sigma(j-l): each of its two equal triangles tends to
    k^-1 B(2d, 1-d) Gamma(1-2d) / (Gamma(-d)^2 Gamma(d) Gamma(1-d)).
    The constant behaves like d^2 as d -> 0, like
    1 / (pi^2 (1-2d)) as d -> 1/2, and equals 1/(4 pi) at d = 1/4.

    By Gamma(1-x) Gamma(1+x) = pi x / sin(pi x) it is d tan(pi d)/pi, taken
    above d = 1/4 as d / (pi tan(pi (1/2 - d))) with 1/2 - d exact, so tan's
    argument stays within pi/4.  If libm's tan is within 1 ulp, either form
    is within 4 eps relative.
    """
    if not (0.0 < d < 0.5):
        raise DomainError(f"d={d} outside ]0, 1/2[")
    if d <= 0.25:
        return d * math.tan(math.pi * d) / math.pi
    return d / (math.pi * math.tan(math.pi * (0.5 - d)))


def _term1(sig, delta):
    """term1 = delta' Sigma_k delta of the decomposition and the FFT bound
    on it, at most a share _FFT_SHARE of ``r_of_k``'s margin
    _R_CHECK_RTOL |term1|: past it the direct sum reruns and the bound
    is 0."""
    term1, term1_err = _toeplitz_quadratic_form(sig, delta, math.inf)
    if term1_err > _FFT_SHARE * _R_CHECK_RTOL * abs(term1):
        term1, term1_err = _toeplitz_quadratic_form(sig, delta, 0.0)
    return term1, term1_err


def _decomposition(d, k, sigma2_eps):
    """The terms of ``excess_decomposition`` and the FFT bound on term1
    (see ``_term1``)."""
    model = LongMemoryModel.fi(d, sigma2_eps=sigma2_eps)
    a = ar_inf_coeffs(model, k).values
    sig = exact_autocov(model, k).values
    delta = -fi_ark_closed_form(d, k, sigma2_eps).phi - a[1:]
    term1, term1_err = _term1(sig, delta)
    prod, _ = _toeplitz_matvec(sig, a)
    term2 = 2.0 * float(np.dot(delta, prod[1:]))
    term3 = truncation_excess(model, k)
    return {"term1": term1, "term2": term2, "term3": term3}, term1_err


def excess_decomposition(d, k, sigma2_eps=1.0):
    """Three-term split of the AR(k) excess for fractional noise.

    With delta = a_k - a over indices 1..k: term1 = delta' Sigma_k delta
    (the mean-squared distance between the two forecasts), term2 =
    2 delta'(Sigma_{k+1} a)[1:] = -2 * term1's cross piece against the tail,
    term3 = a' Sigma_{k+1} a - sigma2 = the truncation excess, taken from
    the certified ``truncation_excess``.  term1 and term2 are finite sums
    by lag; term1 + term2 + term3 equals the AR(k) excess.
    """
    return _decomposition(d, k, sigma2_eps)[0]


def r_of_k(d, k):
    """Relative improvement of AR(k) fitting over truncation for fractional
    noise, in [0, 1).

    The closed form term1/term3 of the decomposition is returned, because
    the direct (trunc - ark)/trunc cancels at small d; both share the
    certified truncation excess trunc = term3, so their 1e-6 relative
    agreement checks the projection identity term1 = trunc - ark, its
    margin widened by the FFT bound on term1, at most a thousandth of it.
    term1 is summed over the autocovariances and the closed-form predictor
    that ``ark_excess`` checked, and term2 is not formed.
    """
    model = LongMemoryModel.fi(d)
    trunc = truncation_excess(model, k)
    ark, acov, model_k = _ark(model, k)
    delta = -model_k.phi - ar_inf_coeffs(model, k).values[1:]
    term1, term1_err = _term1(acov.values, delta)
    r_closed = term1 / trunc
    r_direct = (trunc - ark) / trunc
    if (abs(r_closed - r_direct)
            > _R_CHECK_RTOL * max(abs(r_direct), 1e-12)
            + term1_err / trunc):
        raise InternalConsistencyError(
            f"improvement ratio mismatch: closed-form {r_closed!r} vs "
            f"direct {r_direct!r}"
        )
    return r_closed


# ---------------------------------------------------------------------------
# estimated-coefficient covariance asymptotics


def compute_H(model, model_k):
    """Matrix H_{ij} = integral h^(i) h^(j) f^2 over [-pi, pi] with
    h(lambda) = |1 - sum_r phi_r e^{i r lambda}|^2 and
    h^(r) = -2 [cos(r lambda) - sum_s phi_s cos((r-s) lambda)].

    Evaluated as a finite sum, without quadrature: f^2 of FI(d) is
    sigma2/(2 pi) times the FI(2d) density with the same sigma2, and for
    FARIMA the FARIMA(2d) density with the squared AR and MA polynomials,
    so g(m) = integral cos(m lambda) f^2 is sigma2/(2 pi) times the 2d
    model's autocovariance at lag m.  With c_0 = 1, c_s = -phi_s,
    r = the autocorrelation and q = the self-convolution of c,
    H_ij = 2 [sum_u r(u) g(i-j-u) + sum_v q(v) g(i+j-v)], a Toeplitz plus
    a Hankel matrix over the lags 0..2k.

    Requires d < 1/4 so that f^2 is integrable (2d < 1/2).  The 2d model's
    autocovariances carry their own certification, so an AR root too close
    to the unit circle raises AccuracyError.
    """
    if model.d >= 0.25:
        raise DomainError("H is defined only for d < 1/4 (f^2 integrable)")
    k = model_k.k
    phi, theta = _arma_polys(model)
    squared = LongMemoryModel.farima(
        2.0 * model.d, ar=-np.convolve(phi, phi)[1:],
        ma=np.convolve(theta, theta)[1:], sigma2_eps=model.sigma2_eps)
    g = exact_autocov(squared, 2 * k).values
    # lags -2k..2k
    g = model.sigma2_eps / (2.0 * np.pi) * np.concatenate((g[:0:-1], g))
    c = np.concatenate(([1.0], -model_k.phi))
    toeplitz = np.convolve(g, np.correlate(c, c, "full"), "valid")  # -k..k
    hankel = np.convolve(g, np.convolve(c, c), "valid")  # 0..2k
    i = np.arange(1, k + 1)
    H = 2.0 * (toeplitz[np.subtract.outer(i, i) + k]
               + hankel[np.add.outer(i, i)])
    return 0.5 * (H + H.T)


def h_sandwich(model, model_k):
    """Sigma_k^{-1} H Sigma_k^{-1} (Brockwell and Davis 1991, Thm 7.2.1) as
    G H G, G = Sigma_k^{-1} by the Gohberg-Semencul formula from the
    order-(k-1) Durbin-Levinson predictor."""
    k = model_k.k
    G = _toeplitz_inverse(exact_autocov(model, k), k)
    M = G @ compute_H(model, model_k) @ G
    return 0.5 * (M + M.T)


def h_covariance_check(d, k, T, reps, seed):
    """Monte Carlo check of T Cov(phi_hat) against c * Sigma^-1 H Sigma^-1.

    Returns the empirical scaled covariance, the reference matrix, the
    worst eigenvalue ratio against c in {2, 4}, and the least-squares
    fitted scalar c.
    """
    model = LongMemoryModel.fi(d)
    acov_T = exact_autocov(model, T)
    exact_k = durbin_levinson(acov_T, k)
    M = h_sandwich(model, exact_k)
    diffs = np.asarray([
        _yule_walker_phi(SamplePath(values=x), k) - exact_k.phi
        for _, block in path_blocks(acov_T, T, reps, seed, stream=(9,))
        for x in block])
    S = T * (diffs.T @ diffs) / reps

    # the eigenvalues of the pencil (S, c M) are those of L^-1 S L^-T, with
    # M = L L', scaled by 1/c: one decomposition serves both c
    L = np.linalg.cholesky(M)
    w = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, S).T))
    ratios = {c: float(max(w.max() / c, c / w.min())) for c in (2.0, 4.0)}
    c_fit = float(np.sum(S * M) / np.sum(M * M))
    return {
        "scaled_cov": S,
        "reference": M,
        "factor_c2": ratios[2.0],
        "factor_c4": ratios[4.0],
        "c_fit": c_fit,
    }


# ---------------------------------------------------------------------------
# Monte Carlo scaling experiments


def _loglog_slope(grid, means, stderrs):
    lx = np.log(np.asarray(grid, dtype=float))
    ly = np.log(means)
    xc = lx - lx.mean()
    w = xc / np.sum(xc * xc)
    slope = float(np.dot(w, ly))
    var = np.sum(w * w * (stderrs / means) ** 2)
    return slope, float(math.sqrt(var))


def _mc_means(grid, reps, point):
    """The grid sorted ascending, with the Monte Carlo means and stderrs of
    ``point(i, g)``, the ``reps`` per-replicate values at the i-th grid
    value g."""
    if reps < 50:
        raise StatisticalPowerError(
            f"{reps} replicates are too few for a Monte Carlo conclusion "
            f"(need >= 50)")
    grid = sorted(int(g) for g in grid)
    means = np.empty(len(grid))
    stderrs = np.empty(len(grid))
    for i, g in enumerate(grid):
        vals = np.asarray(point(i, g))
        means[i] = float(np.mean(vals))
        stderrs[i] = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return grid, means, stderrs


def _mc_scaling(grid, reps, point):
    """SlopeReport of ``_mc_means`` over the grid and its log-log slope."""
    if len(set(int(g) for g in grid)) < 2:
        raise ValueError(f"a slope needs at least two distinct grid values, "
                         f"got {sorted(int(g) for g in grid)}")
    grid, means, stderrs = _mc_means(grid, reps, point)
    slope, slope_se = _loglog_slope(grid, means, stderrs)
    return SlopeReport(grid=np.asarray(grid, dtype=float), estimates=means,
                       stderrs=stderrs, slope=slope, slope_stderr=slope_se)


def _yule_walker_phi(path, k):
    return durbin_levinson(empirical_autocov(path, k), k).phi


def _whittle_ar(path, k):
    return _fi_ar_values(whittle_fit(path).d_hat, k)[1:]


def _forecast_errors(exp, acov_train, acov_window, estimate, exact, reps,
                     seed):
    """``point(i, T, k)``: per replicate, the squared difference between
    the one-step forecasts of ``estimate(train, k)`` and ``exact[:k]`` from
    a length-k window, where train is a length-T path on the stream
    (exp, i, 0) and the window a path on the stream (exp, i, 1).  The
    training paths are reduced block by block as they are made."""

    def point(i, T, k):
        windows = iter(gaussian_paths(acov_window, k, reps, seed,
                                      stream=(exp, i, 1)))
        return [float(np.dot(estimate(SamplePath(values=train), k)
                             - exact[:k], window.values[::-1]) ** 2)
                for _, block in path_blocks(acov_train, T, reps, seed,
                                            stream=(exp, i, 0))
                for train, window in zip(block, windows)]

    return point


def _coeffcov_point(d, k, T_grid, reps, seed):
    """``point(i, T)`` of ``coeffcov_scaling``."""
    model = LongMemoryModel.fi(d)
    acov_k = exact_autocov(model, k)
    point = _forecast_errors(0, exact_autocov(model, max(map(int, T_grid))),
                             acov_k, _yule_walker_phi,
                             durbin_levinson(acov_k, k).phi, reps, seed)
    return lambda i, T: point(i, T, k)


def _wk_plugin_point(d, k, T_grid, reps, seed):
    """``point(i, T)`` of ``wk_plugin_scaling``."""
    model = LongMemoryModel.fi(d)
    point = _forecast_errors(1, exact_autocov(model, max(map(int, T_grid))),
                             exact_autocov(model, k), _whittle_ar,
                             ar_inf_coeffs(model, k).values[1:], reps, seed)
    return lambda i, T: point(i, T, k)


def coeffcov_scaling(d, k, T_grid, reps, seed):
    """MC estimate of E[(ark-plugin forecast - exact AR(k) forecast)^2]
    over T_grid, with the fitted log-log slope vs T.

    Expected slopes: -1 for d < 1/4, -1 with a log factor at d = 1/4, and
    4d - 2 for d > 1/4.
    """
    return _mc_scaling(T_grid, reps,
                       _coeffcov_point(d, k, T_grid, reps, seed))


def wk_plugin_scaling(d, k, T_grid, reps, seed):
    """MC estimate of E[(wk-plugin forecast - exact truncated forecast)^2]
    over T_grid at fixed k, with the fitted log-log slope vs T."""
    return _mc_scaling(T_grid, reps,
                       _wk_plugin_point(d, k, T_grid, reps, seed))


def covmoment_scaling(d, n_grid, reps, seed):
    """MC slope of E[(sigma_hat(0) - sigma(0))^2] against the path length.

    Expected slopes: -1 for d < 1/4 and 4d - 2 for d > 1/4.  For d > 1/4
    the estimator has a non-Gaussian limit, and the stderr column is no
    error bar (see SlopeReport).
    """
    acov = exact_autocov(LongMemoryModel.fi(d), max(map(int, n_grid)))
    sigma0 = acov.values[0]

    def point(i, n):
        # einsum, not BLAS: the sums must not depend on the BLAS thread count
        return [float((np.einsum("i,i->", x, x) / n - sigma0) ** 2)
                for _, block in path_blocks(acov, n, reps, seed, stream=(3, i))
                for x in block]

    return _mc_scaling(n_grid, reps, point)


def covmoment_exact(d, n):
    """E[(sigma_hat(0) - sigma(0))^2] of FI(d) at path length n, with
    sigma_hat(0) = (1/n) sum_t X_t^2: by Isserlis' theorem
    (2/n^2) (n sigma(0)^2 + 2 sum_{h=1}^{n-1} (n - h) sigma(h)^2), an O(n)
    sum.  The exact reference of ``covmoment_scaling``."""
    if n < 1:
        raise ValueError("path length must be >= 1")
    sig = exact_autocov(LongMemoryModel.fi(d), n - 1).values
    h = np.arange(1, n)
    return float(2.0 / n ** 2 * (n * sig[0] ** 2
                                 + 2.0 * np.sum((n - h) * sig[1:] ** 2)))
