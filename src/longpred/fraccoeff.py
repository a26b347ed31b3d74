"""Exact coefficient sequences, autocovariances and spectral densities for
fractionally integrated noise and FARIMA(p, d, q) processes.

Conventions
-----------
* ``ar_poly`` holds phi_1..phi_p of phi(z) = 1 - phi_1 z - ... - phi_p z^p,
  ``ma_poly`` holds theta_1..theta_q of theta(z) = 1 + theta_1 z + ... + theta_q z^q.
  Both polynomials must be zero-free on the closed unit disk.
* An AR-infinity sequence (a_j) satisfies eps_n = sum_j a_j X_{n-j} with
  a_0 = 1; an MA-infinity sequence (b_j) satisfies X_n = sum_j b_j eps_{n-j}
  with b_0 = 1.  The two power series are mutual inverses.  For fractional
  noise a_j < 0 and b_j > 0 for every j >= 1.
* a_j, b_j and rho(h) come from ratio recursions, so indices up to 10^6
  never overflow.  Every gamma ratio, the FI sigma(0) among them, comes
  from the all-positive series of ``_fi_log_ratio`` (C(d) reduces to a
  tangent); Gamma and log-gamma calls are reserved for test oracles.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import AccuracyError, DomainError

# constructors reject d outside this closed interval: the formulas
# degenerate at both endpoints of ]0, 1/2[
D_MIN = 1e-4
D_MAX = 0.5 - 1e-4

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
# finite forms whose terms far exceed their result are summed in the widest
# float the platform has (80-bit extended on x86; plain double elsewhere)
_WIDE = np.longdouble
_WIDE_EPS = float(np.finfo(_WIDE).eps)
# the ARMA part of a FARIMA autocovariance is cut where R^(H - q) <= 2^-60,
# R the largest inverse AR root modulus; H above _H_MAX is refused
_ARMA_TAIL = 2.0 ** -60
_H_MAX = 1 << 13
_AUTOCOV_RTOL = 1e-8  # per lag, certified by exact_autocov for FARIMA
# float64 np.convolve sums each lag by BLAS ddot, which OpenBLAS may split
# across its threads: FARIMA kernels 2H + 1 of this length gave the same
# bits under one and two threads, and of 10 001 lags did not
_FLOAT_KERNEL = 9001


def _roundoff(n, eps=_EPS):
    """Relative round-off bound 8 sqrt(n) u (u = eps/2) after n roundings:
    the probabilistic bound of Higham and Mary (SIAM J. Sci. Comput. 41,
    2019), failing with probability below 2n exp(-32), where the worst-case
    n u rejects sums of thousands of terms that are accurate to 1e-12.

    Its premise is rounding errors that are independent, so it is charged
    to sums and filters only.  The FI ratio recursions ``_fi_acf`` and
    ``_fi_ar_values`` break it: j + d drops the same low bits of d at every
    j in a binade, and float ``_fi_acf`` at lag 8000 is 4.0e-13 off against
    mpmath, 2.5 times this bound.  They are charged ``_worst_roundoff``."""
    return 4.0 * eps * np.sqrt(n)


def _worst_roundoff(n, eps=_EPS):
    """Relative round-off bound gamma_n = n u/(1 - n u) (u = eps/2) after n
    roundings of any sign pattern (Higham 2002, Accuracy and Stability of
    Numerical Algorithms, Lemma 3.1)."""
    nu = 0.5 * eps * np.asarray(n, dtype=float)
    return nu / (1.0 - nu)


def _check_disk_free(coeffs_ascending, name):
    """Reject polynomials with a zero on the closed unit disk."""
    if len(coeffs_ascending) == 1:
        return
    roots = npoly.polyroots(coeffs_ascending)
    if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-12:
        raise DomainError(f"{name} polynomial has a zero on the closed unit disk")


@dataclass(frozen=True)
class LongMemoryModel:
    """Parametric specification of an FI(d) or FARIMA(p, d, q) process."""

    kind: str  # "fi" | "farima"
    d: float
    ar_poly: tuple = ()
    ma_poly: tuple = ()
    sigma2_eps: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fi", "farima"):
            raise DomainError(f"unknown model kind {self.kind!r}")
        if not (D_MIN <= self.d <= D_MAX):
            raise DomainError(
                f"memory parameter d={self.d} outside [{D_MIN}, {D_MAX}]"
            )
        if not (self.sigma2_eps > 0.0 and math.isfinite(self.sigma2_eps)):
            raise DomainError("innovation variance must be positive and finite")
        if self.kind == "fi" and (self.ar_poly or self.ma_poly):
            raise DomainError("FI models carry no AR/MA polynomials")
        object.__setattr__(self, "ar_poly", tuple(float(c) for c in self.ar_poly))
        object.__setattr__(self, "ma_poly", tuple(float(c) for c in self.ma_poly))
        _check_disk_free((1.0,) + tuple(-c for c in self.ar_poly), "AR")
        _check_disk_free((1.0,) + self.ma_poly, "MA")

    @classmethod
    def fi(cls, d, sigma2_eps=1.0):
        return cls(kind="fi", d=d, sigma2_eps=sigma2_eps)

    @classmethod
    def farima(cls, d, ar=(), ma=(), sigma2_eps=1.0):
        return cls(kind="farima", d=d, ar_poly=tuple(ar), ma_poly=tuple(ma),
                   sigma2_eps=sigma2_eps)

    @property
    def is_pure_fractional(self):
        return not self.ar_poly and not self.ma_poly


@dataclass(frozen=True)
class CoeffSeq:
    """Finite prefix of an AR-infinity or MA-infinity coefficient sequence."""

    convention: str  # "ar_inf" | "ma_inf"
    values: np.ndarray
    model: LongMemoryModel
    clamped: bool = False  # True if subnormal entries were flushed to zero

    def __post_init__(self):
        if self.convention not in ("ar_inf", "ma_inf"):
            raise DomainError(f"unknown convention {self.convention!r}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise DomainError("coefficient sequence must be a nonempty 1-d array")
        if values[0] != 1.0:
            raise DomainError("coefficient sequences are normalised to values[0] = 1")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class AutocovSeq:
    """Autocovariances sigma(0..m), exact for a model or empirical."""

    values: np.ndarray
    source: str  # "exact" | "empirical"
    model: LongMemoryModel | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise DomainError("autocovariance sequence must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise DomainError("autocovariances must be finite")
        if values[0] <= 0.0:
            raise DomainError("sigma(0) must be positive")
        if self.source not in ("exact", "empirical"):
            raise DomainError(f"unknown source {self.source!r}")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size


def _clamp_subnormal(values):
    mask = (values != 0.0) & (np.abs(values) < _TINY)
    if np.any(mask):
        values = values.copy()
        values[mask] = 0.0
        return values, True
    return values, False


def _fi_ar_values(d, n):
    # a_0 = 1, a_{j+1} = a_j (j - d)/(j + 1); a_1 = -d, all later ratios > 0;
    # computed in the precision of d
    a = np.empty(n + 1, np.result_type(d, 1.0))
    a[0] = 1.0
    if n:
        j = np.arange(n, dtype=a.dtype)
        a[1:] = np.cumprod((j - d) / (j + 1.0))
    return a


def _arma_polys(model):
    """phi(z) and theta(z) as ascending coefficient arrays."""
    return (np.array((1.0,) + tuple(-c for c in model.ar_poly)),
            np.array((1.0,) + model.ma_poly))


def _arma_filter(b, a, x):
    """b(B)/a(B) applied to x, with a_0 = 1: the ARMA part of every FARIMA
    sequence, in float64 or wide precision (b, a and x of one dtype).

    The output equals SciPy's ``lfilter(b, a, x)`` bit for bit, because it
    does lfilter's arithmetic in lfilter's order: a convolution when
    a = [1], and otherwise the direct form II transposed recursion with the
    shorter polynomial padded with zeros, per sample
        y = z_0 + b_0 x,  z_k = (z_{k+1} + x b_{k+1}) - y a_{k+1},
    the last delay without the z_{k+1} term.  For the impulse response of
    a first-order part that recursion is the running product
    [b_0, c, c phi, c phi^2, ...], c = b_1 - b_0 a_1 and phi = -a_1.
    SciPy is a test dependency only.
    """
    if a.size == 1:
        return np.convolve(b, x)[: x.size]
    # float64 steps run on Python floats, which round as IEEE doubles too;
    # wide ones on numpy scalars, since tolist() would round them to double
    items = np.ndarray.tolist if x.dtype == np.float64 else list
    b, a = items(b), items(a)
    L = max(len(a), len(b))
    b += [0 * b[0]] * (L - len(b))
    a += [0 * b[0]] * (L - len(a))
    if L == 2 and x.size > 1 and x[0] == 1 and np.count_nonzero(x) == 1:
        y = np.empty(x.size, x.dtype)
        y[0] = b[0]
        y[1] = b[1] - b[0] * a[1]
        y[2:] = -a[1]
        np.multiply.accumulate(y[1:], out=y[1:])
        y[1:] += 0  # z_0 + b_0 * 0 is never -0, the product can be
        return y
    b0, b, a = b[0], b[1:], a[1:]
    z = [0 * b0] * (L - 1)
    last = L - 2
    y = []
    for xn in items(x):
        yn = z[0] + b0 * xn
        for k in range(last):
            z[k] = z[k + 1] + xn * b[k] - yn * a[k]
        z[last] = xn * b[last] - yn * a[last]
        y.append(yn)
    return np.array(y, x.dtype)


def ar_inf_coeffs(model, n):
    """AR-infinity coefficients a_0..a_n of the model: the FI ratio
    recursion, for FARIMA filtered through phi(z)/theta(z)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    values = _fi_ar_values(model.d, n)
    if not model.is_pure_fractional:
        phi, theta = _arma_polys(model)
        values = _arma_filter(phi, theta, values)
    values, clamped = _clamp_subnormal(values)
    return CoeffSeq(convention="ar_inf", values=values, model=model, clamped=clamped)


def ma_inf_coeffs(model, n):
    """MA-infinity coefficients b_0..b_n, the inverse series of the a_j: the
    FI coefficients of -d, for FARIMA filtered through theta(z)/phi(z)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    values = _fi_ar_values(-model.d, n)
    if not model.is_pure_fractional:
        phi, theta = _arma_polys(model)
        values = _arma_filter(theta, phi, values)
    values, clamped = _clamp_subnormal(values)
    return CoeffSeq(convention="ma_inf", values=values, model=model, clamped=clamped)


def _fi_acf(d, m):
    # rho(0) = 1, rho(j+1) = rho(j) (j + d)/(j + 1 - d): positive, decreasing;
    # computed in the precision of d
    r = np.empty(m + 1, np.result_type(d, 1.0))
    r[0] = 1.0
    if m:
        j = np.arange(m, dtype=r.dtype)
        r[1:] = np.cumprod((j + d) / (j + 1.0 - d))
    return r


# the FI gamma-ratio series sums the terms of t <= _T0 directly and the
# rest from q = t - d >= _Q_MIN order by order
_T0 = 10
_Q_MIN = _T0 + 0.5


def _fi_series_table():
    """The orders m = 1..M of ``_fi_log_ratio``'s tail as rows (a_m, 1/(2m),
    (c_{m,J_m}, ..., c_{m,1})), a_m = 1/(m(2m-1)) but a_1 = 0, as the 1 of
    A_1 is the part d^2/q, and the relative error bounds of a part and of
    the sum; M and each J_m are the fewest that keep each weighted
    remainder within eps/64."""
    q, tol = _Q_MIN, _EPS / 64.0
    bern = [Fraction(1)]  # B_n, from sum_{j<=n} C(n+1, j) B_j = 0
    for n in range(1, 41):
        bern.append(-sum(math.comb(n + 1, j) * bern[j]
                         for j in range(n)) / (n + 1))

    def rem(m, J):  # Johansson's bound on A_m's remainder after J terms
        return (4.0 * math.prod(range(2 * m, 2 * m + 2 * J))
                / ((2 * math.pi * q) ** (2 * J) * (2 * m + 2 * J - 1) * m))

    x, rows, tail = 0.25 / (q * q), [], _worst_roundoff(2)
    for m in range(1, 64):
        w = x ** (m - 1)
        if w / (1.0 - x) <= tol:  # the orders from m on, as A_n <= 1
            break
        J = next(n for n in range(1, 64) if w * rem(m, n) <= tol)
        c = [float(bern[2 * j] * math.prod(range(2 * m, 2 * m + 2 * j - 1))
                   / (math.factorial(2 * j) * m)) for j in range(J, 0, -1)]
        a, b = (1.0 / (m * (2 * m - 1)) if m > 1 else 0.0), 1.0 / (2 * m)
        rows.append((a, b, tuple(c)))
        mag = sum(abs(cj) / q ** (2 * j) for j, cj in zip(range(J, 0, -1), c))
        tail += w * (_worst_roundoff(6 * m + 2) * (a + b / q)
                     + _worst_roundoff(6 * m + 4 * J) * mag + rem(m, J))
    # (1 + r)(1 + s) - 1 as r + s (1 + r), which does not round 1 + r
    slope, tail = _worst_roundoff(2) / (1.0 - 2.0 * x), tail + w / (1.0 - x)
    part = max(_worst_roundoff(4) + _EPS * (1.0 + _worst_roundoff(4)),
               slope + tail * (1.0 + slope))
    rel = part + 0.5 * _EPS * (1.0 + part)
    return tuple(rows), part, rel / (1.0 - rel)


_FI_SERIES, _FI_PART_RTOL, _FI_LOG_RTOL = _fi_series_table()


def _fi_log_ratio(d, k):
    """log(v(k)/sigma2) = log(Gamma(k+1) Gamma(k+1-2d) / Gamma(k+1-d)^2) of
    FI(d), k >= 0, and a bound on its error, at most _FI_LOG_RTOL L + tiny.

    Hosking's partials d/(t - d) (Biometrika 68, 1981) telescope: L sums
    g_t = -log(1 - d^2/(t - d)^2) = log1p(d^2/(t (t - 2d))) over t > k, by
    libm's log1p up to t = _T0, then from q = t - d >= 10.5 as d^2/q sum_m
    x^(m-1) A_m, x = d^2/q^2, A_m = q^(2m-1) zeta(2m, q)/m = 1/(m(2m-1)) +
    1/(2mq) + sum_{j<=J_m} B_2j (2m)_{2j-1}/((2j)! m q^2j) by
    Euler-Maclaurin, with a remainder below 4 (2m)_{2J}/((2 pi q)^2J
    (2m+2J-1) m) (Johansson, Numer. Algorithms 69, 2015, Thm 1); A_m <= 1
    bounds the orders beyond M.  Every part is positive, so the bound is
    relative.  If libm's log1p is within one ulp, a direct g_t is off by
    gamma_4 of ``_worst_roundoff`` (log1p's relative slope is below 1) and
    one ulp; g_1 (k = 0) by gamma_4 x_1/(1 + x_1), x_1 = d^2/(1 - 2d), and
    one ulp, far less near d = 1/2.  The rounding of q moves the tail by
    gamma_2/(1 - 2x); at that q, d^2/q carries gamma_2, and order m,
    weighted x^(m-1), gamma_{6m+2} of a_m + 1/(2mq) and gamma_{6m+4J_m} of
    its other terms: x carries 4 roundings, 1/q^2 two, a Horner level in x
    6 and in 1/q^2 4, the scaling 3, and a stored coefficient, b/q and the
    sums the rest.  Each charge is largest at q = 10.5 and d = 1/2; fsum
    rounds once.  Where d^2 underflows, fewer than 100 roundings add u tiny
    each (Higham 2002, Sec. 2.1).
    """
    d2 = d * d
    parts = [math.log1p(d2 / (t * (t - 2.0 * d)))
             for t in range(k + 1, _T0 + 1)]
    q = max(k + 1, _T0 + 1) - d
    y = 1.0 / (q * q)
    x, s = d2 * y, 0.0
    for a, b, row in reversed(_FI_SERIES):
        c = 0.0
        for cj in row:
            c = (c + cj) * y
        s = s * x + (a + b / q + c)
    parts += (d2 / q, d2 / q * s)
    log_r = math.fsum(parts)
    err = _FI_LOG_RTOL * log_r + _TINY
    if not k:  # g_1's own charge in place of _FI_PART_RTOL g_1
        x1 = d2 / (1.0 - 2.0 * d)
        err -= ((_FI_PART_RTOL - _EPS * (1.0 + 2.0 * _EPS)) * parts[0]
                - _worst_roundoff(4) * x1 / (1.0 + x1))
    return log_r, err


def _fi_delta(d):
    """delta = sigma(0)/sigma2 - 1 = Gamma(1-2d)/Gamma(1-d)^2 - 1 of FI(d)
    and a bound on its error: expm1 of the k = 0 gamma-ratio series, which
    keeps full precision as d -> 0 and as d -> 1/2."""
    log_r, err = _fi_log_ratio(d, 0)
    delta = math.expm1(log_r)
    return delta, err * (1.0 + delta) + _EPS * delta


def _arma_impulse(model, dtype):
    """The impulse response psi_0..psi_2H of theta(B)/phi(B) in the
    precision of dtype, and its cutoff H, where the largest inverse AR root
    modulus R gives R^(H - q) <= 2^-60.  H above _H_MAX raises
    AccuracyError."""
    phi, theta = _arma_polys(model)
    p, q = phi.size - 1, theta.size - 1
    H = q
    if p:
        R = 1.0 / np.min(np.abs(npoly.polyroots(phi)))
        H += math.ceil(math.log(_ARMA_TAIL) / math.log(R))
        if H > _H_MAX:
            raise AccuracyError(
                f"AR root of modulus {1.0 / R:.9g} needs an ARMA cutoff "
                f"H = {H} > {_H_MAX}", achieved=float(R ** (_H_MAX - q)))
    impulse = np.zeros(2 * H + 1, dtype)
    impulse[0] = 1.0
    return _arma_filter(theta.astype(dtype), phi.astype(dtype), impulse), H


def _farima_autocov(model, m, dtype, impulse=None):
    """sigma(0..m) of a FARIMA model in the precision of dtype and a
    relative error bound per lag, by ARMA x FI splitting (Bertelli and
    Caporin 2002, J. Time Ser. Anal.): sigma(h) = sigma2 (1 + delta)
    sum_{|j|<=H} g(j) rho_FI(h - j), g the autocovariance of the impulse
    response psi of theta(B)/phi(B).

    The bound, in dtype's epsilon, charges the FI ratio recursion its
    worst case, since its errors are systematic (see ``_roundoff``).  Each
    step rounds 4 times, so rho_FI(i) is off by a factor within
    gamma_{4i}, and rho_FI(|h - j|), |j| <= H, by one within gamma_{4H} of
    rho_FI(h)'s (Higham 2002, Lemma 3.1).  Lag h thus carries gamma_{4h} of
    its value plus gamma_{4H} of the sum of its terms' magnitudes.  The
    filter and the two sums are charged the probabilistic ``_roundoff`` of
    that magnitude.  The bound adds the three roundings of the scaling, the
    error of delta and the mass of psi beyond H.  rho_FI > 0, so where psi
    has no negative entry every term is non-negative and the magnitudes
    sum to the value itself.  ``impulse``, if given, is
    ``_arma_impulse(model, dtype)``'s (psi, H)."""
    p, q = len(model.ar_poly), len(model.ma_poly)
    eps = float(np.finfo(dtype).eps)
    psi, H = _arma_impulse(model, dtype) if impulse is None else impulse
    psi_abs = np.abs(psi).astype(float)
    g = np.correlate(psi, psi, "full")[2 * H : 3 * H + 1]  # lags 0..H
    delta, delta_err = _fi_delta(model.d)
    r = _fi_acf(dtype(model.d), m + H)
    r_ext = np.concatenate((r[H:0:-1], r))  # lags -H..m+H
    corr = np.convolve(r_ext, np.concatenate((g[:0:-1], g)), "valid")
    values = model.sigma2_eps * (1 + dtype(delta)) * corr
    corr_abs = np.maximum(np.abs(corr).astype(float), _TINY)
    if np.any(psi < 0):
        g_abs = np.correlate(psi_abs, psi_abs, "full")[2 * H : 3 * H + 1]
        mag = np.convolve(r_ext.astype(float),
                          np.concatenate((g_abs[:0:-1], g_abs)),
                          "valid") / corr_abs
    else:
        mag = 1.0
    # psi beyond 2H is below 2^-60 of psi beyond H: twice the mass on
    # H < i <= 2H bounds the whole tail
    tail = 2.0 * np.sum(psi_abs[H + 1 :])
    lag = _worst_roundoff(4 * np.arange(m + 1), eps)
    window = (1.0 + lag) * _worst_roundoff(4 * H, eps)
    sums = _roundoff((4 * (p + q) + 10) * (2 * H + 1), eps)
    return values, (lag + (window + sums) * mag
                    + 3.0 * np.sum(psi_abs) * tail / corr_abs
                    + _worst_roundoff(3, eps) + delta_err / (1.0 + delta))


def exact_autocov(model, m):
    """Exact autocovariances sigma(0..m) of the model.

    FI scales the ratio recursion of rho(h) by sigma(0), the exp of the
    k = 0 series of ``_fi_log_ratio``.  FARIMA convolves the FI
    autocovariances over lags -H..m+H with the autocovariances of the ARMA
    impulse response psi, cut at H where the largest inverse AR root
    modulus R gives R^(H - q) <= 2^-60.  Where psi has no negative entry
    nothing in the sums cancels, and they run in float64 if the kernel
    2H + 1 has at most ``_FLOAT_KERNEL`` lags; otherwise they run in the
    platform's widest float.  The route depends on the model alone, so a
    longer sequence extends a shorter one bit for bit.  Each FARIMA lag is
    certified to 1e-8 relative; a larger bound, or an AR root so close to
    the unit circle that H > 8192, raises AccuracyError.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if model.is_pure_fractional:
        values = (model.sigma2_eps * math.exp(_fi_log_ratio(model.d, 0)[0])
                  * _fi_acf(model.d, m))
    else:
        impulse = _arma_impulse(model, np.float64)
        psi = impulse[0]
        if psi.size <= _FLOAT_KERNEL and not np.any(psi < 0):
            values, rel = _farima_autocov(model, m, np.float64, impulse)
        else:
            values, rel = _farima_autocov(model, m, _WIDE)
        achieved = float(np.max(rel)) + _EPS
        if achieved > _AUTOCOV_RTOL:
            raise AccuracyError(
                f"FARIMA autocovariances not certified to "
                f"rtol={_AUTOCOV_RTOL:g}", achieved=achieved)
    return AutocovSeq(values=values, source="exact", model=model)


def spectral_density(model, lam):
    """Spectral density f(lambda) on [-pi, pi] \\ {0}.

    f(lambda) = sigma2/(2 pi) (2 sin(|lambda|/2))^(-2d) |theta|^2/|phi|^2;
    it diverges at 0 for d > 0, so lambda = 0 is rejected.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(np.abs(lam_arr) > np.pi + 1e-12):
        raise DomainError("frequency outside [-pi, pi]")
    if np.any(lam_arr == 0.0):
        raise DomainError("spectral density is singular at lambda = 0")
    f = (model.sigma2_eps / (2.0 * np.pi)) * (
        2.0 * np.sin(np.abs(lam_arr) / 2.0)
    ) ** (-2.0 * model.d)
    if not model.is_pure_fractional:
        z = np.exp(-1j * lam_arr)
        phi, theta = _arma_polys(model)
        f = f * (np.abs(npoly.polyval(z, theta)) ** 2
                 / np.abs(npoly.polyval(z, phi)) ** 2)
    if np.isscalar(lam) or np.ndim(lam) == 0:
        return float(f)
    return f


def model_to_json(model):
    """Serialise as {kind, d, ar, ma, sigma2}."""
    return json.dumps(
        {
            "kind": model.kind,
            "d": model.d,
            "ar": list(model.ar_poly),
            "ma": list(model.ma_poly),
            "sigma2": model.sigma2_eps,
        }
    )


def model_from_json(text):
    """The model of ``model_to_json``'s object; ``ar``, ``ma`` and ``sigma2``
    may be left out, and any other key raises ValueError."""
    obj = json.loads(text)
    unknown = sorted(set(obj) - {"kind", "d", "ar", "ma", "sigma2"})
    if unknown:
        raise ValueError(f"unknown model key(s): {', '.join(unknown)}")
    return LongMemoryModel(
        kind=obj["kind"],
        d=float(obj["d"]),
        ar_poly=tuple(obj.get("ar", ())),
        ma_poly=tuple(obj.get("ma", ())),
        sigma2_eps=float(obj.get("sigma2", 1.0)),
    )

