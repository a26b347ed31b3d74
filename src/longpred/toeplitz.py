"""Yule-Walker systems over symmetric Toeplitz covariance structure.

The order-k least-squares predictor solves
    sum_{i=1}^{k} phi_i sigma(i - j) = sigma(j),   j = 1..k.

Sign conventions: ``ArkModel.phi`` always holds positive-forecast weights
(forecast = sum_j phi_j X_{n+1-j}).  The AR-infinity convention used by
``fraccoeff`` has a_0 = 1 and a_j < 0 for fractional noise; the closed-form
order-k coefficients are converted at this module's boundary via
phi_j = -a_{j,k}.  Sigma_k^{-1} comes from the same Durbin-Levinson
recursion, by the Gohberg-Semencul formula.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, NotPositiveDefiniteError
from .fraccoeff import (_EPS, _WIDE, _WIDE_EPS, AutocovSeq, _fi_ar_values,
                        _fi_log_ratio)


@dataclass(frozen=True)
class ArkModel:
    """Fitted order-k autoregressive predictor."""

    k: int
    phi: np.ndarray        # predictor weights phi_1..phi_k
    v: float               # innovation variance v(k)
    partials: np.ndarray   # reflection coefficients a_{n,n}, n = 1..k

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "partials", np.asarray(self.partials, dtype=float))
        if self.phi.size != self.k or self.partials.size != self.k:
            raise ValueError("phi and partials must have length k")
        if not self.v > 0.0:
            raise ValueError("innovation variance must be positive")


def _levinson_steps(sig, n):
    """The Durbin-Levinson recursion over sigma(0..n), one order at a time.

    Yields (t, phi, v) for t = 1..n: phi holds the order-t predictor weights,
    phi[t - 1] being the reflection coefficient a_{t,t}, and v = v(t).  phi
    is a view of one array updated in place, so it is valid until the next
    step and the memory is O(n).  Raises
    NotPositiveDefiniteError naming the failing order as soon as
    |a_{t,t}| >= 1 or v(t) <= 0.
    """
    if sig[0] <= 0.0:
        raise NotPositiveDefiniteError(0, "sigma(0) must be positive")
    # the scalar steps run on Python floats, which round as IEEE doubles
    # too; sig[t-1], ..., sig[1] is the contiguous slice rev[n-t+1 :],
    # which np.dot takes as it is (it copies a reversed view)
    s = sig[: n + 1].tolist()
    phi = np.zeros(n)
    rev = sig[n:0:-1].copy()
    v = s[0]
    for t in range(1, n + 1):
        refl = (s[t] - float(np.dot(phi[: t - 1], rev[n - t + 1 :]))) / v
        if not abs(refl) < 1.0:  # NaN and +-inf too
            raise NotPositiveDefiniteError(t)
        head = phi[: t - 1]
        head -= refl * head[::-1]
        phi[t - 1] = refl
        v *= 1.0 - refl * refl
        if v <= 0.0:
            raise NotPositiveDefiniteError(t)
        yield t, phi[:t], v


def durbin_levinson(acov, k):
    """Solve the nested Yule-Walker systems up to order k.

    Implements the textbook recursion: v(0) = sigma(0),
    a_{n,n} = [sigma(n) - sum_j a_{j,n-1} sigma(n-j)] / v(n-1),
    interior coefficients updated against their reversal, and
    v(n) = v(n-1)(1 - a_{n,n}^2).

    Raises NotPositiveDefiniteError naming the failing order as soon as
    |a_{n,n}| >= 1 or v(n) <= 0.
    """
    sig = acov.values
    if k < 1:
        raise ValueError("order k must be >= 1")
    if sig.size < k + 1:
        raise ValueError(f"need lags 0..{k}, have 0..{sig.size - 1}")
    partials = np.zeros(k)
    for n, phi, v in _levinson_steps(sig, k):
        partials[n - 1] = phi[n - 1]
    return ArkModel(k=k, phi=phi, v=float(v), partials=partials)


def empirical_autocov(sample, maxlag, demean=False):
    """Biased-divisor empirical autocovariances of a sample path.

    sigma_hat(h) = (1/T) sum_{t=1}^{T-h} Y_t Y_{t+h}; with ``demean`` the
    observations are first centred at the sample mean.
    """
    y = sample.values
    T = y.size
    if not 0 <= maxlag < T:
        raise ValueError(f"maxlag must be in [0, {T - 1}]")
    if demean:
        y = y - np.mean(y)
    out = np.empty(maxlag + 1)
    for h in range(maxlag + 1):
        # np.dot would hand a long sum to BLAS, whose threads split it, so
        # the last bits would follow the thread count; einsum does not
        out[h] = np.einsum("i,i->", y[: T - h], y[h:]) / T
    if out[0] <= 0.0:
        raise NotPositiveDefiniteError(0, "degenerate sample: sigma_hat(0) "
                                          "is not positive")
    return AutocovSeq(values=out, source="empirical", model=None)


def fi_ark_closed_form(d, k, sigma2_eps=1.0):
    """Order-k Yule-Walker predictor for fractional noise in closed form.

    The AR-infinity-convention coefficients a_{j,k} = a_j prod_{i<j}
    (k-i)/(k-i-d), a_j the AR-infinity ones, are all negative: one running
    product on a_j's ratio recursion, and no gamma function.  The
    returned predictor weights are phi_j = -a_{j,k}.  The partials d/(t - d)
    (Hosking 1981, Biometrika) and the innovation variance v(k) = sigma2
    Gamma(k+1) Gamma(k+1-2d)/Gamma(k+1-d)^2 are closed forms too, so no
    Durbin-Levinson recursion runs: O(k) work.
    """
    if not (0.0 < d < 0.5):
        raise DomainError(f"d={d} outside ]0, 1/2[")
    if k < 1:
        raise ValueError("order k must be >= 1")
    i = np.arange(k, dtype=float)
    phi = -_fi_ar_values(d, k)[1:] * np.cumprod((k - i) / (k - i - d))
    log_v, _ = _fi_log_ratio(d, k)
    return ArkModel(k=k, phi=phi, v=sigma2_eps * math.exp(log_v),
                    partials=d / (i + 1.0 - d))


def _toeplitz_inverse(acov, k):
    """Sigma_k^{-1} for the Toeplitz matrix of sigma(0..k-1) by the
    Gohberg-Semencul formula (Gohberg and Semencul 1972): with
    a = (1, -phi_1..-phi_{k-1}) and v = v(k-1) of the order-(k-1)
    Durbin-Levinson predictor, Sigma_k^{-1} = (A A' - B B') / v, A and B the
    lower-triangular Toeplitz matrices with first columns a and
    (0, a_{k-1}..a_1).  The recursion raises NotPositiveDefiniteError; a
    residual max|G Sigma_k - I| above 1e-8 raises AccuracyError.
    """
    sig = acov.values
    if not 1 <= k <= sig.size:
        raise ValueError(f"need lags 0..{k - 1}, have 0..{sig.size - 1}")
    phi, v = np.zeros(0), float(sig[0])
    for _, phi, v in _levinson_steps(sig, k - 1):
        pass
    # first columns behind k - 1 zeros, indexed by lag i - j + k - 1
    a = np.concatenate((np.zeros(k - 1), [1.0], -phi))
    b = np.concatenate((np.zeros(k), a[: k - 1 : -1]))
    lag = np.subtract.outer(np.arange(k), np.arange(k))
    A, B = a[lag + k - 1], b[lag + k - 1]
    G = (A @ A.T - B @ B.T) / v
    resid = float(np.max(np.abs(G @ sig[np.abs(lag)] - np.eye(k))))
    if resid > 1e-8:
        raise AccuracyError("Toeplitz inverse residual exceeds tolerance",
                            achieved=resid)
    return G


def _fft_lag_error(x, y, size, eps):
    """A bound on ||w_fft - w||_2 for the lag products w of x and y computed
    by two real FFTs of length size = 2^t, their spectral product and one
    inverse FFT, in a precision of machine epsilon eps (u = eps/2).

    One transform of a complex radix-2 Cooley-Tukey FFT is off by at most
    e = t eta/(1 - t eta) of its output in the 2-norm, with
    eta = mu + gamma_4 (sqrt 2 + mu) and mu the twiddle error (Higham 2002,
    Accuracy and Stability of Numerical Algorithms, Thm 24.2).  Two
    premises are assumptions, not proved steps.  First, that the theorem's
    bound with t levels holds for pocketfft's real-data transform, whose
    passes are radix 4 and 2: a radix-4 pass does at most the work of two
    radix-2 levels, but the theorem is stated for the complex transform.
    Second, mu = 16u: pocketfft forms each twiddle, in the transform's own
    precision, as the product of two tabulated cos/sin pairs whose
    arguments below pi/4 are about 3u off and whose libm values add one
    ulp, about 12u.  The transform of a unit impulse at index 1, whose
    outputs are the twiddles exp(-2 pi i m / size), is at most 2.4u off at
    every size from 2^9 to 2^18 in long double and float (x86-64, numpy
    2.4, against 40-digit values; tests/test_toeplitz.py).  With
    Parseval, |X_m| <= ||x||_1, a spectral product off by sqrt 2 gamma_2
    and an exact 1/size scaling, the lag products are off by at most
    M (c g (1 + e) + e) in the 2-norm, where c = 2e + sqrt 2 gamma_2 (1 + e),
    g = 1 + e sqrt(size) and M = max(||x||_2 ||y||_1, ||x||_1 ||y||_2).
    The norms are summed in float and inflated by their own rounding.
    """
    u = eps / 2.0
    t = size.bit_length() - 1
    mu = 16.0 * u
    eta = mu + 4.0 * u / (1.0 - 4.0 * u) * (math.sqrt(2.0) + mu)
    e = t * eta / (1.0 - t * eta)
    c = 2.0 * e + math.sqrt(2.0) * 2.0 * u / (1.0 - 2.0 * u) * (1.0 + e)
    g = 1.0 + e * math.sqrt(size)
    x_abs, y_abs = np.abs(x).astype(float), np.abs(y).astype(float)
    x1, y1 = float(np.sum(x_abs)), float(np.sum(y_abs))
    x2, y2 = math.sqrt(np.dot(x_abs, x_abs)), math.sqrt(np.dot(y_abs, y_abs))
    M = max(x2 * y1, x1 * y2) * (1.0 + 2.0 * (x.size + y.size) * _EPS)
    return M * (c * g * (1.0 + e) + e)


def _lag_products(x, y, lags, atol):
    """The lag products w_h = sum_j x_j y_{j+h}, h = 0..lags-1 (y zero
    beyond its end), in the precision of x and y, and a bound err on the
    2-norm of their error over the lags, which bounds every lag's error.

    Below a length n = len(x) of 200 in long double and 400 in float, where
    the O(n lags) sum is the faster (x86-64, numpy 2.4), np.correlate runs
    and err = 0: its rounding is that of a sum of n products per lag, which
    the callers bound as before.  Above it a real FFT of the inputs
    zero-padded to a power of two, O(n log n), runs if its a-priori bound
    ``_fft_lag_error`` is at most atol; otherwise the direct sum runs.  The
    bound uses the epsilon of the inputs' precision, so where long double
    is plain double it is about 2000 times that of the 80-bit format.
    """
    n = x.size
    wide = x.dtype == _WIDE
    if n >= (200 if wide else 400):
        size = 1 << (max(y.size, n + lags - 1) - 1).bit_length()
        err = _fft_lag_error(x, y, size, _WIDE_EPS if wide else _EPS)
        if err <= atol:
            fx = np.fft.rfft(x, size)
            fy = fx if y is x else np.fft.rfft(y, size)
            return np.fft.irfft(fx.conj() * fy, size)[:lags], err
    full = y.size < n + lags - 1
    w = np.correlate(y, x, "full" if full else "valid")
    return w[(n - 1) * full :][:lags], 0.0


def _toeplitz_quadratic_form(sig, x, atol):
    """x' Sigma x for the Toeplitz matrix of sigma(0..n-1), n = len(x),
    summed by lag as sigma(0) w_0 + 2 sum_{h>=1} sigma(h) w_h with the lag
    products w_h = sum_j x_j x_{j+h}, so no n x n matrix is formed, and a
    bound on the error of the lag products' FFT (0 on the direct route):
    their 2-norm bound times |sigma(0)| + 2 ||sigma(1..n-1)||_2, by
    Cauchy-Schwarz.  The FFT runs only if that bound is at most atol."""
    n = x.size
    scale = abs(sig[0]) + 2.0 * math.sqrt(np.dot(sig[1:n], sig[1:n]))
    w, err = _lag_products(x, x, n, atol / scale)
    return float(sig[0] * w[0] + 2.0 * np.dot(sig[1:n], w[1:])), err * scale


def _toeplitz_matvec(sig, x):
    """Sigma x for the Toeplitz matrix of sigma(0..n-1), n = len(x): the
    lag products of x reversed with the mirrored lags sigma(n-1..1, 0,
    1..n-1), and the bound of ``_lag_products`` on their error."""
    n = x.size
    return _lag_products(x[::-1],
                         np.concatenate((sig[n - 1 : 0 : -1], sig[:n])), n,
                         math.inf)


def yule_walker_residual(acov, model_k):
    """Max relative residual of the order-k Yule-Walker equations; an FFT
    route's bound on Sigma phi is added, so the value bounds the residual
    of the exact product."""
    k = model_k.k
    sig = acov.values
    rhs = sig[1 : k + 1]
    prod, err = _toeplitz_matvec(sig, model_k.phi)
    return float((np.max(np.abs(prod - rhs)) + err)
                 / max(np.max(np.abs(rhs)), sig[0]))


def innovation_variance_quadratic_form(acov, model_k, atol):
    """v(k) recomputed as sigma(0) - 2 phi'rho + phi'Sigma phi, the last
    term summed by lag, and the FFT bound on that term (see
    ``_toeplitz_quadratic_form``: the FFT runs only if its bound is at most
    atol, so atol = inf always takes it above the crossover and atol = 0
    never)."""
    sig = acov.values
    phi = model_k.phi
    quad, err = _toeplitz_quadratic_form(sig, phi, atol)
    return float(sig[0] - 2.0 * np.dot(phi, sig[1 : model_k.k + 1])
                 + quad), err
