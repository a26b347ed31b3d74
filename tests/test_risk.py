import dataclasses
import math
import pathlib
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.signal import fftconvolve
from scipy.special import gamma as Gamma
from scipy.special import gammaln

import longpred as lp
from longpred import fraccoeff, risk, toeplitz
from longpred.cli import read_artifact
from longpred.errors import (AccuracyError, DomainError,
                             InternalConsistencyError, StatisticalPowerError)
from longpred.fraccoeff import _fi_delta, _fi_log_ratio
from longpred.risk import excess_decomposition, h_sandwich
from longpred.tails import powerlaw_tail_sum

from dense_toeplitz import toeplitz_matrix
from farima_filter_oracle import MODELS, truncation_excess_inline
from quadrature_oracle import compute_H_quadrature


def c_oracle(d):
    """Direct Gamma-product evaluation, independent of the gamma-ratio
    series."""
    return (2 * Gamma(1 - 2 * d) * Gamma(2 * d)
            / (Gamma(-d) ** 2 * Gamma(d) * Gamma(1 + d)))


def ark_excess_oracle(d, k, sigma2=1.0):
    """v(k) in closed form for fractional noise:
    sigma2 * Gamma(k+1) Gamma(k+1-2d) / Gamma(k+1-d)^2."""
    return sigma2 * (np.exp(gammaln(k + 1) + gammaln(k + 1 - 2 * d)
                            - 2 * gammaln(k + 1 - d)) - 1.0)


# ---------------------------------------------------------------------------
# truncation excess


@pytest.mark.parametrize("model", [
    lp.LongMemoryModel.fi(0.3),
    lp.LongMemoryModel.fi(0.45, sigma2_eps=2.0),
    lp.LongMemoryModel.farima(0.25, ar=(0.5,), ma=(0.3,)),
])
def test_truncation_excess_positive(model):
    assert lp.truncation_excess(model, 10) > 0.0


def plain_excess(a, sig):
    """The residual variance of the truncated filter a_0..a_k minus the unit
    innovation variance, sum_{j,l<=k} a_j a_l sigma(j-l) - 1, as it stands."""
    k = a.size - 1
    w = np.convolve(a, a[::-1])[k:]
    return math.fsum(np.r_[w[0] * sig[0], 2.0 * w[1:] * sig[1:], -1.0])


@pytest.mark.parametrize("d,k", [(0.1, 100), (0.3, 50), (0.45, 200)])
def test_truncation_excess_matches_finite_identity(d, k):
    # a and sigma from the gamma closed forms
    j = np.arange(k + 1)
    a = np.exp(gammaln(j - d) - gammaln(j + 1) - gammaln(-d)) * np.where(
        j > 0, -1.0, 1.0)
    sig = np.exp(gammaln(1 - 2 * d) + gammaln(j + d) - gammaln(d)
                 - gammaln(1 - d) - gammaln(j + 1 - d))
    np.testing.assert_allclose(lp.truncation_excess(lp.LongMemoryModel.fi(d), k),
                               plain_excess(a, sig), rtol=1e-8)


def tail_route_excess(model, k):
    """The truncation excess as the single series sum_{j>k} f(j),
    f(j) = -a_j sum_{l<=k} a_l sigma(j-l), which the orthogonality
    sum_{l>=0} a_l sigma(l-j) = 0 (j > 0) leaves of the double tail sum;
    summed by the adaptive power-law tail driver."""

    def values(J):
        a = lp.ar_inf_coeffs(model, J).values
        sig = lp.exact_autocov(model, J).values
        inner = fftconvolve(a[: k + 1], sig)[k + 1 : J + 1]
        return -a[k + 1 : J + 1] * inner

    return powerlaw_tail_sum(values, exponent=model.d - 2.0, j_start=k + 1,
                             rtol=1e-9, j0=max(1 << 14, 8 * (k + 1))).value


@pytest.mark.parametrize("model,k", [
    (lp.LongMemoryModel.fi(d), k)
    for d in (0.01, 0.1, 0.45, 0.49) for k in (10, 100, 1600)
] + [(lp.LongMemoryModel.farima(0.3, ar=(0.5,), ma=(0.3,)), 50)])
def test_truncation_excess_matches_tail_oracle(model, k):
    np.testing.assert_allclose(lp.truncation_excess(model, k),
                               tail_route_excess(model, k), rtol=1e-9)


def test_truncation_excess_farima_negative_ar_root():
    # a model whose autocovariances the adaptive power-law tail could not
    # certify; the finite form with the closed-form FARIMA(1, d, 0)
    # coefficients a_j = fi_j - phi fi_{j-1} is the reference
    d, phi, k = 0.1, -0.9, 10
    model = lp.LongMemoryModel.farima(d, ar=(phi,))
    fi = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(d), k).values
    a = fi - phi * np.r_[0.0, fi[:-1]]
    sig = lp.exact_autocov(model, k).values
    np.testing.assert_allclose(lp.truncation_excess(model, k),
                               plain_excess(a, sig), rtol=1e-8)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("k", [10, 50])
def test_truncation_excess_farima_equals_inline_lfilter(model, k):
    assert lp.truncation_excess(model, k) == truncation_excess_inline(model, k)


def test_truncation_excess_grows_with_memory():
    k = 100
    e_low = lp.truncation_excess(lp.LongMemoryModel.fi(0.1), k)
    e_high = lp.truncation_excess(lp.LongMemoryModel.fi(0.45), k)
    assert e_high > e_low


def test_k_times_truncation_excess_converges():
    # the limit of k * excess is c_of_d(d), which counts both triangles of
    # the symmetric double tail sum; the approach to that limit is monotone
    # from below
    for d in (0.1, 0.25, 0.4):
        model = lp.LongMemoryModel.fi(d)
        seq = np.array([k * lp.truncation_excess(model, k)
                        for k in (100, 200, 400, 800, 1600)])
        errs = np.abs(seq - lp.c_of_d(d))
        assert np.all(np.diff(errs) < 0)
        np.testing.assert_allclose(seq[-1], lp.c_of_d(d), rtol=0.01)


def lag_route(monkeypatch, atol):
    """Send truncation_excess's lag products down one route: atol = 0 the
    direct sum, atol = inf the FFT above the crossover."""
    kernel = toeplitz._lag_products
    monkeypatch.setattr("longpred.risk._lag_products",
                        lambda x, y, lags, _: kernel(x, y, lags, atol))


def fft_achieved(monkeypatch, model, k):
    """The relative bound that the FFT route certifies, read from the
    AccuracyError of a zero tolerance."""
    with monkeypatch.context() as m:
        lag_route(m, math.inf)
        m.setattr("longpred.risk._TRUNC_RTOL", 0.0)
        with pytest.raises(AccuracyError) as exc:
            lp.truncation_excess(model, k)
    return exc.value.achieved


@pytest.mark.parametrize("d", [0.1, 0.45])
def test_truncation_excess_fft_route_matches_the_direct_route(monkeypatch, d):
    # at k = 25 600 the FFT certifies its value; the direct long-double
    # sum, certified too, is the reference, within the sum of both bounds
    model, k = lp.LongMemoryModel.fi(d), 25600
    fft = lp.truncation_excess(model, k)
    achieved = fft_achieved(monkeypatch, model, k)
    assert achieved <= 1e-9
    lag_route(monkeypatch, 0.0)
    direct = lp.truncation_excess(model, k)
    assert abs(fft - direct) <= achieved * fft + 1e-9 * direct


def test_truncation_excess_takes_the_direct_route_when_the_fft_bound_fails(
        monkeypatch):
    # where long double is plain double, the FFT's bound is some 2000 times
    # larger and misses 1e-9 at k = 1600, d = 0.45; the direct sum then
    # runs, and its value is returned bit for bit
    model, k = lp.LongMemoryModel.fi(0.45), 1600
    with monkeypatch.context() as m:
        lag_route(m, 0.0)
        direct = lp.truncation_excess(model, k)
    kernel, calls = toeplitz._lag_products, []

    def spy(x, y, lags, atol):
        w, err = kernel(x, y, lags, atol)
        calls.append((x.dtype, err))
        return w, err

    monkeypatch.setattr("longpred.risk._lag_products", spy)
    monkeypatch.setattr("longpred.toeplitz._WIDE_EPS", fraccoeff._EPS)
    assert lp.truncation_excess(model, k) == direct
    wide = [err for dtype, err in calls if dtype == fraccoeff._WIDE]
    assert len(wide) == 2 and wide[0] > 0.0 and wide[1] == 0.0


@pytest.mark.parametrize("d", [0.1, 0.25])
def test_k_times_truncation_excess_keeps_rising_to_102400(d):
    # k trunc(k)/C(d) rises to 1 from below; at k = 102 400 the FFT's bound
    # certifies these d
    model = lp.LongMemoryModel.fi(d)
    low, high = (k * lp.truncation_excess(model, k) / lp.c_of_d(d)
                 for k in (25600, 102400))
    assert low < high < 1.0


class DirectRoute(Exception):
    pass


@pytest.mark.parametrize("d", [0.4, 0.45])
def test_fft_bound_misses_at_102400_for_large_d(monkeypatch, d):
    # here the FFT's bound misses 1e-9, so no AccuracyError: the direct
    # sum, about 20 s, runs instead.  Its request is caught, not run
    kernel = toeplitz._lag_products

    def no_direct(x, y, lags, atol):
        if atol == 0.0:
            raise DirectRoute
        return kernel(x, y, lags, atol)

    monkeypatch.setattr("longpred.risk._lag_products", no_direct)
    with pytest.raises(DirectRoute):
        lp.truncation_excess(lp.LongMemoryModel.fi(d), 102400)


def test_truncation_excess_scales_with_sigma2():
    base = lp.truncation_excess(lp.LongMemoryModel.fi(0.3), 25)
    scaled = lp.truncation_excess(lp.LongMemoryModel.fi(0.3, sigma2_eps=3.0),
                                  25)
    np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-8)


# ---------------------------------------------------------------------------
# AR(k) excess


def test_ark_excess_white_noise_limit():
    assert lp.ark_excess(lp.LongMemoryModel.fi(1e-4), 5) < 1e-3


@pytest.mark.parametrize("d,k", [(0.1, 5), (0.3, 50), (0.45, 20)])
def test_ark_excess_matches_gamma_ratio_oracle(d, k):
    value = lp.ark_excess(lp.LongMemoryModel.fi(d), k)
    np.testing.assert_allclose(value, ark_excess_oracle(d, k), rtol=1e-10)


def test_ark_never_exceeds_truncation():
    for d in (0.05 + 1e-4, 0.1, 0.2, 0.3, 0.4, 0.45):
        model = lp.LongMemoryModel.fi(d)
        for k in (1, 2, 5, 10, 50, 200):
            assert lp.ark_excess(model, k) <= lp.truncation_excess(model, k)


def test_ark_excess_cross_check_catches_a_wrong_recursion(monkeypatch):
    # a Levinson v off by 1e-6 sigma(0) is 100 times the 1e-8 check; FARIMA
    # models still take the recursion
    def shifted(acov, k):
        model_k = lp.durbin_levinson(acov, k)
        return dataclasses.replace(model_k,
                                   v=model_k.v + 1e-6 * acov.values[0])

    monkeypatch.setattr("longpred.risk.durbin_levinson", shifted)
    with pytest.raises(InternalConsistencyError):
        lp.ark_excess(lp.LongMemoryModel.farima(0.3, ar=(0.5,)), 50)


def test_ark_excess_cross_check_catches_a_wrong_closed_form(monkeypatch):
    # fractional noise takes the closed form; its v shifted by 1e-6 sigma(0)
    # must disagree with the quadratic form of its coefficients
    def shifted(d, k, sigma2_eps=1.0):
        model_k = lp.fi_ark_closed_form(d, k, sigma2_eps)
        sigma0 = lp.exact_autocov(lp.LongMemoryModel.fi(d, sigma2_eps),
                                  0).values[0]
        return dataclasses.replace(model_k, v=model_k.v + 1e-6 * sigma0)

    monkeypatch.setattr("longpred.risk.fi_ark_closed_form", shifted)
    with pytest.raises(InternalConsistencyError):
        lp.ark_excess(lp.LongMemoryModel.fi(0.3), 50)


def test_ark_excess_fft_cross_check_catches_a_wrong_closed_form(monkeypatch):
    # at k = 1600 the quadratic form runs through the FFT, whose bound
    # widens the 1e-8 sigma(0) margin by far less than the 1e-6 shift
    def shifted(d, k, sigma2_eps=1.0):
        model_k = lp.fi_ark_closed_form(d, k, sigma2_eps)
        sigma0 = lp.exact_autocov(lp.LongMemoryModel.fi(d, sigma2_eps),
                                  0).values[0]
        return dataclasses.replace(model_k, v=model_k.v + 1e-6 * sigma0)

    errs = []
    kernel = toeplitz.innovation_variance_quadratic_form

    def spy(acov, model_k, atol):
        v, err = kernel(acov, model_k, atol)
        errs.append(err)
        return v, err

    monkeypatch.setattr("longpred.risk.innovation_variance_quadratic_form",
                        spy)
    lp.ark_excess(lp.LongMemoryModel.fi(0.3), 1600)
    monkeypatch.setattr("longpred.risk.fi_ark_closed_form", shifted)
    with pytest.raises(InternalConsistencyError):
        lp.ark_excess(lp.LongMemoryModel.fi(0.3), 1600)
    assert 0.0 < errs[0] < 1e-3 * 1e-8


def test_cross_checks_take_the_direct_sum_past_the_fft_share(monkeypatch):
    # an FFT may widen ark_excess's and r_of_k's margins by at most a
    # thousandth of them; with no share left both lag sums run directly,
    # so neither margin widens, and the ratio moves far below the check
    d, k = 0.3, 1600
    fft_r = lp.r_of_k(d, k)
    terms, term1_err = risk._decomposition(d, k, 1.0)
    assert 0.0 < term1_err <= 1e-3 * 1e-6 * terms["term1"]
    errs = []
    kernel = toeplitz.innovation_variance_quadratic_form

    def spy(acov, model_k, atol):
        v, err = kernel(acov, model_k, atol)
        errs.append(err)
        return v, err

    monkeypatch.setattr("longpred.risk.innovation_variance_quadratic_form",
                        spy)
    monkeypatch.setattr("longpred.risk._FFT_SHARE", 0.0)
    assert risk._decomposition(d, k, 1.0)[1] == 0.0
    assert lp.r_of_k(d, k) == pytest.approx(fft_r, rel=1e-12)
    assert errs == [0.0]


def ark_excess_mpmath(d, k):
    """Gamma(k+1) Gamma(k+1-2d) / Gamma(k+1-d)^2 - 1 at 40 digits."""
    with mpmath.workdps(40):
        d = mpmath.mpf(d)
        return float(mpmath.exp(mpmath.loggamma(k + 1)
                                + mpmath.loggamma(k + 1 - 2 * d)
                                - 2 * mpmath.loggamma(k + 1 - d)) - 1)


@pytest.mark.parametrize("k", [1, 100, 1600, 6400])
@pytest.mark.parametrize("d", [1e-4, 0.01, 0.1, 0.3, 0.49])
def test_ark_excess_matches_mpmath(d, k):
    # sigma2 expm1(L) is certified to 1e-9; v(k) - sigma2 after a
    # recursion cancels, by 1.4e-2 relative at (1e-4, 1600)
    value = lp.ark_excess(lp.LongMemoryModel.fi(d, sigma2_eps=2.0), k)
    np.testing.assert_allclose(value, 2.0 * ark_excess_mpmath(d, k),
                               rtol=1e-9)


@pytest.mark.parametrize("d, k", [(0.4999, 1000), (0.499, 6400),
                                  (0.49, 14000)])
def test_ark_excess_matches_mpmath_near_half(d, k):
    # near d = 1/2 the first partial d/(1 - d) is close to 1, and k is
    # large; the value must still be certified to 1e-9
    value = lp.ark_excess(lp.LongMemoryModel.fi(d, sigma2_eps=2.0), k)
    np.testing.assert_allclose(value, 2.0 * ark_excess_mpmath(d, k),
                               rtol=1e-9)


def gamma_ratio_mpmath(d, k):
    """Gamma(k+1) Gamma(k+1-2d) / Gamma(k+1-d)^2 - 1 at 50 digits."""
    with mpmath.workdps(50):
        d = mpmath.mpf(d)
        return mpmath.expm1(mpmath.loggamma(k + 1)
                            + mpmath.loggamma(k + 1 - 2 * d)
                            - 2 * mpmath.loggamma(k + 1 - d))


@pytest.mark.parametrize("k", [0, 1, 2, 10, 100, 1600, 6400, 14000])
@pytest.mark.parametrize("d", [1e-4, 0.01, 0.1, 0.25, 0.3, 0.45, 0.49,
                               0.4999])
def test_fi_gamma_ratio_series_matches_mpmath(d, k):
    # k = 0 is delta = sigma(0)/sigma2 - 1; k >= 1 the AR(k) excess.  Each
    # value is certified, its bound holds, and it is within 1e-13 of mpmath
    exact = gamma_ratio_mpmath(d, k)
    if k == 0:
        value, err = _fi_delta(d)
    else:
        log_v, log_err = _fi_log_ratio(d, k)
        err = log_err * math.exp(log_v)
        value = lp.ark_excess(lp.LongMemoryModel.fi(d, sigma2_eps=2.0), k) / 2
        assert value == math.expm1(log_v)
    assert err <= 1e-9 * value
    assert abs(value - exact) <= err
    assert abs(value - exact) <= 1e-13 * exact


def test_ark_excess_refuses_before_the_cross_check(monkeypatch):
    # charging every order of SciPy's zeta 1e-8 puts the bound above 1e-9;
    # the refusal comes before the O(k^2) cross-check
    def no_quadratic_form(acov, model_k, atol):
        raise AssertionError("O(k^2) cross-check ran")

    monkeypatch.setattr("longpred.risk.innovation_variance_quadratic_form",
                        no_quadratic_form)
    monkeypatch.setattr("longpred.fraccoeff._ZETA_RTOL",
                        fraccoeff._ZETA_RTOL + 1e-8)
    with pytest.raises(AccuracyError) as exc:
        lp.ark_excess(lp.LongMemoryModel.fi(0.3), 100)
    assert 1e-9 < exc.value.achieved < 2e-8


def test_k_times_ark_excess_converges_to_d_squared():
    # measured limit of k * (v(k) - sigma2) is d^2 (visible in the closed
    # form of v(k)); it is NOT the truncation-rate constant
    for d in (0.2, 0.3):
        model = lp.LongMemoryModel.fi(d)
        seq = np.array([k * lp.ark_excess(model, k)
                        for k in (100, 200, 400, 800)])
        np.testing.assert_allclose(seq[-1], d * d, rtol=0.01)
        errs = np.abs(seq - d * d)
        assert np.all(np.diff(errs) < 0)


@pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
def test_k_times_ark_excess_second_order_term(d):
    # with q = k + 1 - d, zeta(2, q) = 1/q + 1/(2 q^2) + O(q^-3) and
    # expm1(x) = x + x^2/2 + ..., v(k)/sigma2 - 1 = d^2/q + (d^2 + d^4)/(2 q^2)
    # + O(q^-3), so k * ark/(sigma2 d^2) = 1 + (d - 1/2 + d^2/2)/k + O(k^-2);
    # the k^-2 coefficient is about 0.074, -0.045 and -0.050 here
    model = lp.LongMemoryModel.fi(d, sigma2_eps=2.0)
    first = d - 0.5 + d * d / 2.0
    rest = np.array([k * k * (k * lp.ark_excess(model, k) / (2.0 * d * d)
                              - 1.0 - first / k)
                     for k in (100, 400, 1600, 6400, 10000)])
    assert np.all(np.abs(rest) < 0.1)
    assert np.ptp(rest) <= 1e-3


# ---------------------------------------------------------------------------
# rate constant


def test_c_of_d_against_gamma_oracle():
    np.testing.assert_allclose(lp.c_of_d(0.25), c_oracle(0.25), rtol=1e-10)
    assert lp.c_of_d(0.25) == pytest.approx(0.079577, abs=1e-6)


def test_c_of_d_elementary_form_matches_mpmath():
    # d tan(pi d)/pi against the 40-digit gamma product, on both sides of
    # the switch to the cotangent form at d = 1/4; the bound is 4 eps if
    # libm's tan is within 1 ulp
    grid = [1e-4, 1e-3, 0.05, 0.1, 0.2, math.nextafter(0.25, 0.0), 0.25,
            math.nextafter(0.25, 1.0), 0.3, 0.4, 0.45, 0.49, 0.499, 0.4999]
    for d in grid:
        with mpmath.workdps(40):
            x = mpmath.mpf(d)
            c = (x * x * mpmath.gamma(1 - 2 * x) * mpmath.gamma(1 + 2 * x)
                 / (mpmath.gamma(1 - x) * mpmath.gamma(1 + x)) ** 2)
        assert abs(lp.c_of_d(d) / float(c) - 1.0) <= 4.0 * np.finfo(float).eps


def test_c_of_d_and_fi_sigma0_match_mpmath():
    # sigma(0) comes from the k = 0 gamma-ratio series, whose error bound
    # holds at -d as well; C(d) from its elementary form
    for d in np.r_[np.linspace(1e-4, 0.4999, 50), 0.25]:
        d = float(d)
        with mpmath.workdps(50):
            x = mpmath.mpf(d)
            sigma0 = mpmath.gamma(1 - 2 * x) / mpmath.gamma(1 - x) ** 2
            plus = mpmath.gamma(1 + 2 * x) / mpmath.gamma(1 + x) ** 2
            c = x * x * sigma0 * plus
            log_plus = mpmath.log(plus)
        got = lp.exact_autocov(lp.LongMemoryModel.fi(d), 0).values[0]
        np.testing.assert_allclose(got, float(sigma0), rtol=1.5e-15)
        np.testing.assert_allclose(lp.c_of_d(d), float(c), rtol=1.5e-15)
        log_r, err = _fi_log_ratio(-d, 0)
        assert abs(log_r - float(log_plus)) <= err


def test_c_of_d_near_half_equivalent():
    d = 0.49
    eqv = 2.0 / ((1 - 2 * d) * Gamma(-0.5) ** 2 * Gamma(0.5) * Gamma(1.5))
    np.testing.assert_allclose(lp.c_of_d(d), eqv, rtol=0.10)


def test_c_of_d_small_d_behaviour():
    # the constant behaves like d^2 as d -> 0
    np.testing.assert_allclose(lp.c_of_d(0.01), 0.01 ** 2, rtol=0.01)


def test_c_of_d_monotone_on_grid():
    grid = np.linspace(0.01, 0.49, 49)
    vals = [lp.c_of_d(d) for d in grid]
    assert np.all(np.diff(vals) > 0)


def test_c_of_d_domain():
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(DomainError):
            lp.c_of_d(bad)


# ---------------------------------------------------------------------------
# decomposition and improvement ratio


@pytest.mark.parametrize("d,k", [(0.3, 50), (0.45, 30), (0.1, 10)])
def test_decomposition_identity(d, k):
    model = lp.LongMemoryModel.fi(d)
    dec = excess_decomposition(d, k)
    total = dec["term1"] + dec["term2"] + dec["term3"]
    np.testing.assert_allclose(total, lp.ark_excess(model, k), rtol=1e-8)


@pytest.mark.parametrize("d,k", [(0.3, 50), (0.45, 30), (0.1, 10)])
def test_decomposition_term3_is_truncation_excess(d, k):
    dec = excess_decomposition(d, k)
    np.testing.assert_allclose(abs(dec["term3"]),
                               lp.truncation_excess(lp.LongMemoryModel.fi(d),
                                                    k),
                               rtol=1e-8)


def test_decomposition_sign_pattern():
    # in this package's orientation: quadratic gap positive, cross term
    # negative, truncation term positive (the negated display swaps all
    # three signs)
    dec = excess_decomposition(0.3, 50)
    assert dec["term1"] > 0
    assert dec["term2"] < 0
    assert dec["term3"] > 0
    # the cross term is exactly twice the quadratic gap, opposite sign
    np.testing.assert_allclose(dec["term2"], -2.0 * dec["term1"], rtol=1e-10)


def test_ratio_routes_agree_on_grid():
    for d in (0.1, 0.25, 0.4):
        for k in (10, 50, 200):
            dec = excess_decomposition(d, k)
            r_closed = dec["term1"] / dec["term3"]
            model = lp.LongMemoryModel.fi(d)
            trunc = lp.truncation_excess(model, k)
            ark = lp.ark_excess(model, k)
            np.testing.assert_allclose(r_closed, (trunc - ark) / trunc,
                                       rtol=1e-6)
            np.testing.assert_allclose(lp.r_of_k(d, k), r_closed, rtol=1e-9)


def test_ratio_computes_each_certified_quantity_once(monkeypatch):
    # r_of_k takes term1 from the autocovariances and closed-form predictor
    # that ark_excess checked, and forms no term2
    calls = {}

    def spy(name):
        kernel = getattr(risk, name)
        calls[name] = 0

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(f"longpred.risk.{name}", counted)

    for name in ("exact_autocov", "fi_ark_closed_form", "truncation_excess",
                 "innovation_variance_quadratic_form", "_toeplitz_matvec"):
        spy(name)
    lp.r_of_k(0.3, 20)
    assert calls == {"exact_autocov": 1, "fi_ark_closed_form": 1,
                     "truncation_excess": 1,
                     "innovation_variance_quadratic_form": 1,
                     "_toeplitz_matvec": 0}


@pytest.mark.parametrize("d, k", [(0.1, 10), (0.35, 30), (0.45, 50),
                                  (0.3, 1600)])
def test_ratio_is_the_decomposition_ratio_bit_for_bit(d, k):
    # at k = 1600 term1 runs through the FFT
    dec = excess_decomposition(d, k)
    assert lp.r_of_k(d, k) == dec["term1"] / dec["term3"]


def ratio_mpmath(d, k):
    """(trunc - ark)/trunc of FI(d) at 40 digits: the truncation excess as
    the double sum sum_{j,l<=k} a_j a_l sigma(j-l) - 1 with a and sigma from
    their ratio recursions, the AR(k) excess as its gamma ratio."""
    with mpmath.workdps(40):
        d = mpmath.mpf(d)
        a, rho = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for j in range(k):
            a.append(a[-1] * (j - d) / (j + 1))
            rho.append(rho[-1] * (j + d) / (j + 1 - d))
        sigma0 = mpmath.gamma(1 - 2 * d) / mpmath.gamma(1 - d) ** 2
        w = [mpmath.fdot(a[: k + 1 - h], a[h:]) for h in range(k + 1)]
        trunc = sigma0 * (w[0] + 2 * mpmath.fdot(w[1:], rho[1:])) - 1
        lg = mpmath.loggamma
        ark = mpmath.expm1(lg(k + 1) + lg(k + 1 - 2 * d) - 2 * lg(k + 1 - d))
        return float((trunc - ark) / trunc)


@pytest.mark.parametrize("k", [10, 200])
@pytest.mark.parametrize("d", [0.05, 0.3, 0.45])
def test_ratio_matches_mpmath(d, k):
    assert lp.r_of_k(d, k) == pytest.approx(ratio_mpmath(d, k), rel=1e-9)


@pytest.mark.parametrize("d, k", [(0.05, 100), (0.05, 50), (0.1, 100)])
def test_ratio_at_small_d_matches_mpmath_closely(d, k):
    # small d, where a truncation excess summed in double precision
    # cancels hardest
    np.testing.assert_allclose(lp.r_of_k(d, k), ratio_mpmath(d, k),
                               rtol=1e-12)


def test_decomposition_forms_no_order_k_matrix():
    # two dense 3200 x 3200 matrices would trace about 160 MiB
    tracemalloc.start()
    try:
        excess_decomposition(0.3, 3200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_ratio_small_memory_is_small():
    assert lp.r_of_k(0.05, 10) < 0.5


def test_ratio_at_d035_k30_measured_value():
    # measured: the improvement at (0.35, 30) is ~0.435 and its large-k
    # limit 1 - d^2/c_of_d is ~0.4397; the 50% level needs d >~ 0.38
    r = lp.r_of_k(0.35, 30)
    assert r == pytest.approx(0.4354, abs=0.002)
    assert lp.r_of_k(0.4, 30) > 0.5


def test_ratio_increasing_in_memory():
    for k in (20, 50):
        rs = [lp.r_of_k(d, k) for d in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35,
                                        0.4, 0.45)]
        assert np.all(np.diff(rs) > 0)


def test_ratio_in_unit_interval():
    for d, k in ((0.1, 5), (0.3, 40), (0.45, 100)):
        r = lp.r_of_k(d, k)
        assert 0.0 <= r < 1.0


# ---------------------------------------------------------------------------
# H matrix and coefficient-covariance asymptotics


def test_H_symmetric_psd():
    model = lp.LongMemoryModel.fi(0.1)
    model_k = lp.durbin_levinson(lp.exact_autocov(model, 4), 4)
    H = lp.compute_H(model, model_k)
    assert np.max(np.abs(H - H.T)) < 1e-12
    assert np.linalg.eigvalsh(H).min() >= -1e-10


def test_H_white_noise_oracle():
    # for near-white noise at k = 1, H_11 ~= integral 4 cos^2 f^2 = sigma4/pi
    model = lp.LongMemoryModel.fi(1e-4)
    model_k = lp.durbin_levinson(lp.exact_autocov(model, 1), 1)
    H = lp.compute_H(model, model_k)
    np.testing.assert_allclose(H[0, 0], 1.0 / np.pi, rtol=0.01)


def test_H_domain_limit():
    model = lp.LongMemoryModel.fi(0.3)
    model_k = lp.durbin_levinson(lp.exact_autocov(model, 2), 2)
    with pytest.raises(DomainError):
        lp.compute_H(model, model_k)


@pytest.mark.parametrize("model,k", [
    *[(lp.LongMemoryModel.fi(d), k)
      for d in (1e-4, 0.05, 0.1, 0.2, 0.24) for k in (1, 2, 8)],
    (lp.LongMemoryModel.farima(0.1, ar=(0.5,), ma=(0.3,)), 8),
    (lp.LongMemoryModel.farima(0.2, ar=(0.7,)), 8),
    (lp.LongMemoryModel.farima(0.05, ma=(-0.6,)), 8),
])
def test_compute_H_matches_quadrature_oracle(model, k):
    model_k = lp.durbin_levinson(lp.exact_autocov(model, k), k)
    H = lp.compute_H(model, model_k)
    oracle = compute_H_quadrature(model, model_k)
    assert np.max(np.abs(H - oracle)) <= 1e-9 * np.max(np.abs(H))
    assert np.array_equal(H, H.T)
    assert np.linalg.eigvalsh(H).min() > 0


def test_compute_H_farima_root_near_unit_circle_fails_loudly():
    # the squared AR polynomial keeps the root 1/0.995, whose ARMA cutoff
    # exceeds what exact_autocov certifies
    model = lp.LongMemoryModel.farima(0.1, ar=(0.995,))
    model_k = lp.durbin_levinson(
        lp.exact_autocov(lp.LongMemoryModel.fi(0.1), 8), 8)
    t0 = time.perf_counter()
    with pytest.raises(AccuracyError):
        lp.compute_H(model, model_k)
    assert time.perf_counter() - t0 < 1.0


def test_h_sandwich_symmetric_pd():
    model = lp.LongMemoryModel.fi(0.1)
    model_k = lp.durbin_levinson(lp.exact_autocov(model, 3), 3)
    M = h_sandwich(model, model_k)
    assert np.max(np.abs(M - M.T)) < 1e-10
    assert np.linalg.eigvalsh(M).min() > 0


def test_scaled_coefficient_covariance_envelope(h_check_result):
    # the Monte Carlo constant lands near pi, inside a factor 2 of both
    # candidate constants 2 and 4
    assert min(h_check_result["factor_c2"],
               h_check_result["factor_c4"]) <= 2.0
    assert 2.0 < h_check_result["c_fit"] < 4.5


# ---------------------------------------------------------------------------
# Monte Carlo scaling experiments


def test_coeffcov_scaling_low_memory(ark_plugin_report):
    assert ark_plugin_report.slope == pytest.approx(-1.0, abs=0.3)
    assert ark_plugin_report.slope_stderr < 0.15
    assert np.all(ark_plugin_report.estimates > 0)
    assert np.all(np.diff(ark_plugin_report.estimates) < 0)


def test_coeffcov_scaling_high_memory_asymptotic_grid():
    # at d = 0.4 the 4d-2 rate needs larger T to dominate the n^-1 part;
    # on {1024..8192} the measured slope is ~-0.72, so the check runs on
    # {8192..65536} where the asymptote is reached
    report = lp.coeffcov_scaling(0.4, 8, [8192, 16384, 32768, 65536], 400,
                                 seed=77)
    assert report.slope == pytest.approx(4 * 0.4 - 2, abs=0.3)


def test_coeffcov_deterministic_rerun():
    a = lp.coeffcov_scaling(0.1, 4, [256, 512], 60, seed=5)
    b = lp.coeffcov_scaling(0.1, 4, [256, 512], 60, seed=5)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    assert a.slope == b.slope


def test_covmoment_scaling_reduces_the_paths_of_gaussian_paths():
    # the streamed blocks feed exactly the per-replicate values of the
    # held paths; 50 replicates end in a partial block.  The sum of squares
    # is the BLAS-free einsum the library uses
    d, grid, reps, seed = 0.3, [100, 300], 50, 8
    acov = lp.exact_autocov(lp.LongMemoryModel.fi(d), 300)
    report = lp.covmoment_scaling(d, grid, reps, seed)
    for i, n in enumerate(grid):
        paths = lp.gaussian_paths(acov, n, reps, seed, stream=(3, i))
        vals = [(np.einsum("i,i->", p.values, p.values) / n
                 - acov.values[0]) ** 2
                for p in paths]
        assert report.estimates[i] == np.mean(vals)
        assert report.stderrs[i] == np.std(vals, ddof=1) / math.sqrt(reps)


@pytest.mark.parametrize("scaling", [
    lambda grid, reps: lp.covmoment_scaling(0.4, grid, reps, seed=1),
    lambda grid, reps: lp.coeffcov_scaling(0.4, 8, grid, reps, seed=1),
], ids=["covmoment", "coeffcov"])
def test_monte_carlo_scaling_holds_one_block_of_paths(scaling):
    # the training paths are reduced block by block: holding all of them
    # would trace at least the 52 MB of 200 paths of length 32768
    T, reps = 32768, 200
    tracemalloc.start()
    try:
        scaling([16384, T], reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * reps * T * 8


@pytest.mark.parametrize("d", [0.1, 0.25, 0.4])
@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_covmoment_exact_is_the_isserlis_sum(d, n):
    # Var((1/n) sum_t X_t^2) = (2/n^2) sum_{s,t} sigma(s - t)^2 for a
    # zero-mean Gaussian path, summed here over the whole n x n covariance
    cov = toeplitz_matrix(lp.exact_autocov(lp.LongMemoryModel.fi(d), n - 1),
                          n)
    direct = 2.0 * np.sum(cov ** 2) / n ** 2
    assert lp.covmoment_exact(d, n) == pytest.approx(direct, rel=1e-12)


def test_committed_covmoment_low_is_near_the_exact_reference():
    # d = 0.1 < 1/4: sigma_hat(0) - sigma(0) is asymptotically Gaussian, so
    # each of the 200 replicates is the exact value times a chi-square(1)
    # variate, whose mean has sd sqrt(2 / 200) times the exact value (less
    # than the true sd by O(1/n)).  The stderr column is the sample sd of
    # the same values, which shrinks with the mean on a low draw.
    _, rows = read_artifact(pathlib.Path(__file__).resolve().parent.parent
                            / "out" / "covmoment_low.csv")
    assert len(rows) == 4
    for row in rows:
        exact = lp.covmoment_exact(0.1, int(row["n"]))
        assert row["exact"] == exact
        assert abs(row["estimate"] - exact) <= 4.0 * math.sqrt(2 / 200) * exact


def test_covmoment_scaling_slopes(covmoment_reports):
    assert covmoment_reports[0.1].slope == pytest.approx(-1.0, abs=0.3)
    assert covmoment_reports[0.4].slope == pytest.approx(4 * 0.4 - 2, abs=0.3)


def test_covmoment_deterministic_rerun():
    a = lp.covmoment_scaling(0.2, [256, 512], 60, seed=6)
    b = lp.covmoment_scaling(0.2, [256, 512], 60, seed=6)
    np.testing.assert_array_equal(a.estimates, b.estimates)


def test_wk_plugin_scaling_fixture(wk_plugin_report):
    assert wk_plugin_report.slope == pytest.approx(-1.0, abs=0.3)


def test_wk_plugin_order_scaling_upper_bound():
    # the wk-plugin experiment varying k at fixed T (stream id 2): the
    # k^{2d} factor is only an upper bound, so the measured slope must not
    # exceed 2d by more than noise
    d, T, k_grid, reps = 0.3, 2048, [8, 16, 32, 64], 100
    model = lp.LongMemoryModel.fi(d)
    point = risk._forecast_errors(
        2, lp.exact_autocov(model, T), lp.exact_autocov(model, 64),
        risk._whittle_ar, lp.ar_inf_coeffs(model, 64).values[1:], reps,
        seed=11)
    report = risk._mc_scaling(k_grid, reps, lambda i, k: point(i, T, k))
    assert report.slope <= 2 * d + 0.3


def test_statistical_power_guard():
    with pytest.raises(StatisticalPowerError):
        lp.coeffcov_scaling(0.1, 4, [256, 512], 10, seed=0)
    with pytest.raises(StatisticalPowerError):
        lp.covmoment_scaling(0.1, [256, 512], 49, seed=0)
