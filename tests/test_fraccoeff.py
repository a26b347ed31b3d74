import json
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import gamma as Gamma

import longpred as lp
from longpred.errors import AccuracyError, DomainError
from longpred.fraccoeff import (_EPS, _FI_LOG_RTOL, _FI_SERIES, _Q_MIN,
                                _TINY, _arma_filter, _arma_polys,
                                _clamp_subnormal, _farima_autocov, _fi_acf,
                                _fi_ar_values, _fi_log_ratio, _worst_roundoff,
                                model_from_json, model_to_json)

from farima_filter_oracle import (MODELS, WIDE, ar_inf_inline,
                                  farima_autocov_inline, ma_inf_inline)
from quadrature_oracle import integrate_symmetric_singular


# ---------------------------------------------------------------------------
# model validation


def test_d_range_enforced():
    with pytest.raises(DomainError):
        lp.LongMemoryModel.fi(0.0)
    with pytest.raises(DomainError):
        lp.LongMemoryModel.fi(0.5)
    with pytest.raises(DomainError):
        lp.LongMemoryModel.fi(5e-5)
    lp.LongMemoryModel.fi(1e-4)
    lp.LongMemoryModel.fi(0.5 - 1e-4)


def test_sigma2_must_be_positive():
    with pytest.raises(DomainError):
        lp.LongMemoryModel.fi(0.3, sigma2_eps=0.0)
    with pytest.raises(DomainError):
        lp.LongMemoryModel.fi(0.3, sigma2_eps=-1.0)


def test_unit_disk_roots_rejected():
    # phi(z) = 1 - 1.2 z has a root at 1/1.2 inside the disk
    with pytest.raises(DomainError):
        lp.LongMemoryModel.farima(0.3, ar=(1.2,))
    # theta(z) = 1 + z has a root on the unit circle
    with pytest.raises(DomainError):
        lp.LongMemoryModel.farima(0.3, ma=(1.0,))
    lp.LongMemoryModel.farima(0.3, ar=(0.5,), ma=(0.3,))


def test_fi_models_carry_no_polynomials():
    with pytest.raises(DomainError):
        lp.LongMemoryModel(kind="fi", d=0.3, ar_poly=(0.5,))


# ---------------------------------------------------------------------------
# AR-infinity coefficients


def test_ar_prefix_of_length_zero():
    seq = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(0.3), 0)
    np.testing.assert_array_equal(seq.values, [1.0])


def test_ar_first_coefficient_matches_gamma_oracle():
    d = 0.4
    seq = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(d), 1)
    oracle = Gamma(1 - d) / (Gamma(2) * Gamma(-d))
    np.testing.assert_allclose(seq.values[1], oracle, rtol=1e-13)
    np.testing.assert_allclose(seq.values[1], -d, rtol=1e-13)


def test_ar_second_coefficient_fi_quarter():
    seq = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(0.25), 2)
    assert seq.values[2] == pytest.approx(-0.09375, abs=1e-15)
    oracle = Gamma(2 - 0.25) / (Gamma(3) * Gamma(-0.25))
    np.testing.assert_allclose(seq.values[2], oracle, rtol=1e-13)


def test_farima_ar1_limit():
    # smallest admissible d: the AR(1) part dominates a_1 = -(phi_1 + d)
    model = lp.LongMemoryModel.farima(1e-4, ar=(0.5,))
    seq = lp.ar_inf_coeffs(model, 1)
    np.testing.assert_allclose(seq.values[1], -0.5, atol=1e-4)


def test_ma_examples():
    model = lp.LongMemoryModel.fi(0.3)
    np.testing.assert_array_equal(lp.ma_inf_coeffs(model, 0).values, [1.0])
    b1 = lp.ma_inf_coeffs(model, 1).values[1]
    np.testing.assert_allclose(b1, Gamma(1 + 0.3) / (Gamma(2) * Gamma(0.3)),
                               rtol=1e-13)
    np.testing.assert_allclose(b1, 0.3, rtol=1e-13)


@pytest.mark.parametrize("model", [
    lp.LongMemoryModel.fi(0.3),
    lp.LongMemoryModel.farima(0.2, ar=(0.5,)),
    lp.LongMemoryModel.farima(0.45, ar=(0.4, -0.2), ma=(0.3,)),
])
def test_ar_ma_convolution_is_identity(model):
    n = 50
    a = lp.ar_inf_coeffs(model, n).values
    b = lp.ma_inf_coeffs(model, n).values
    conv = np.convolve(a, b)[: n + 1]
    assert conv[0] == 1.0
    assert np.max(np.abs(conv[1:])) < 1e-12


@pytest.mark.parametrize("d", [0.1, 0.25, 0.45])
def test_duality_to_order_200(d):
    model = lp.LongMemoryModel.fi(d)
    a = lp.ar_inf_coeffs(model, 200).values
    b = lp.ma_inf_coeffs(model, 200).values
    conv = np.convolve(a, b)[:201]
    assert np.max(np.abs(conv[1:])) < 1e-10


def test_fi_coefficient_signs():
    model = lp.LongMemoryModel.fi(0.35)
    a = lp.ar_inf_coeffs(model, 1000).values
    b = lp.ma_inf_coeffs(model, 1000).values
    assert np.all(a[1:] < 0)
    assert np.all(b[1:] > 0)


@pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
def test_decay_envelopes_at_1e4(d):
    j = 10_000
    model = lp.LongMemoryModel.fi(d)
    a = lp.ar_inf_coeffs(model, j).values
    b = lp.ma_inf_coeffs(model, j).values
    np.testing.assert_allclose(j ** (d + 1) * abs(a[j]) * abs(Gamma(-d)), 1.0,
                               rtol=0.01)
    np.testing.assert_allclose(j ** (1 - d) * b[j] * Gamma(d), 1.0, rtol=0.01)


def test_decay_bound_with_small_delta():
    # |a_j| <= C j^(-d-1+delta), |b_j| <= C j^(d-1+delta) with delta = 0.01
    d, delta, n = 0.3, 0.01, 5000
    model = lp.LongMemoryModel.fi(d)
    j = np.arange(1, n + 1)
    a = np.abs(lp.ar_inf_coeffs(model, n).values[1:])
    b = lp.ma_inf_coeffs(model, n).values[1:]
    assert np.all(a <= 1.0 * j ** (-d - 1 + delta))
    assert np.all(b <= 1.0 * j ** (d - 1 + delta))


def test_subnormal_values_clamp_with_flag():
    tiny = np.finfo(float).tiny
    vals, clamped = _clamp_subnormal(np.array([1.0, tiny / 4, -tiny / 8, 0.0]))
    assert clamped
    np.testing.assert_array_equal(vals, [1.0, 0.0, 0.0, 0.0])
    vals, clamped = _clamp_subnormal(np.array([1.0, -0.3, 0.0]))
    assert not clamped
    # no clamping at any feasible index for these models: power-law decay
    # keeps coefficients far above the subnormal range
    assert not lp.ar_inf_coeffs(lp.LongMemoryModel.fi(0.3), 10_000).clamped


def test_coeffseq_validation():
    model = lp.LongMemoryModel.fi(0.3)
    with pytest.raises(DomainError):
        lp.CoeffSeq(convention="ar_inf", values=np.array([2.0, 1.0]),
                    model=model)
    with pytest.raises(DomainError):
        lp.CoeffSeq(convention="sideways", values=np.array([1.0]),
                    model=model)


# ---------------------------------------------------------------------------
# autocovariances


def test_fi_autocov_ratio_and_level():
    model = lp.LongMemoryModel.fi(0.25)
    sig = lp.exact_autocov(model, 1).values
    np.testing.assert_allclose(sig[1] / sig[0], 1.0 / 3.0, rtol=1e-13)
    np.testing.assert_allclose(sig[0], Gamma(0.5) / Gamma(0.75) ** 2,
                               rtol=1e-13)
    assert sig[0] == pytest.approx(1.18034, abs=5e-6)


def test_fi_autocov_positive_decreasing():
    sig = lp.exact_autocov(lp.LongMemoryModel.fi(0.3), 200).values
    assert np.all(sig > 0)
    assert np.all(np.diff(sig) < 0)


def test_autocov_bounded_by_lag_zero():
    for model in (lp.LongMemoryModel.fi(0.4),
                  lp.LongMemoryModel.farima(0.2, ar=(0.6,), ma=(-0.2,))):
        sig = lp.exact_autocov(model, 50).values
        assert np.all(np.abs(sig[1:]) <= sig[0])


def test_farima_empty_polynomials_equal_fi():
    vals = lp.exact_autocov(lp.LongMemoryModel.farima(0.3), 40).values
    ref = lp.exact_autocov(lp.LongMemoryModel.fi(0.3), 40).values
    np.testing.assert_allclose(vals, ref, rtol=1e-8)


def farima11_autocov_oracle(d, phi, theta, m):
    """sigma(0..m) of FARIMA(1, d, 1), unit innovation variance: the
    closed-form ARMA(1, 1) autocovariances g(0) = (1 + 2 phi theta +
    theta^2)/(1 - phi^2), g(j) = (1 + phi theta)(phi + theta) phi^(j-1)
    /(1 - phi^2), cut where |phi|^H < 1e-20, convolved with the FI(d)
    autocovariances Gamma(1-2d)/Gamma(1-d)^2 prod_{i<h} (i + d)/(i + 1 - d)
    (log-gamma differences lose 1e-11 at h ~ 16000)."""
    H = 1 if phi == 0.0 else 1 + math.ceil(math.log(1e-20) / math.log(abs(phi)))
    j = np.arange(1, H + 1)
    g = np.r_[1.0 + 2.0 * phi * theta + theta ** 2,
              (1.0 + phi * theta) * (phi + theta) * phi ** (j - 1.0)]
    g /= 1.0 - phi ** 2
    i = np.arange(m + H, dtype=float)
    s = Gamma(1 - 2 * d) / Gamma(1 - d) ** 2 * np.r_[
        1.0, np.cumprod((i + d) / (i + 1 - d))]
    return np.convolve(np.r_[s[H:0:-1], s], np.r_[g[:0:-1], g], "valid")


@pytest.mark.parametrize("d,ar,ma,m", [
    (0.05, (), (-0.9,), 1023),
    (0.1, (-0.9,), (), 16384),
    (0.3, (0.5,), (0.3,), 2000),
])
def test_farima_autocov_matches_arma11_splitting_oracle(d, ar, ma, m):
    # the first two models defeated the adaptive power-law tail, whose
    # fixed float floor could not certify lags of order 1e-7
    model = lp.LongMemoryModel.farima(d, ar=ar, ma=ma)
    got = lp.exact_autocov(model, m).values
    ref = farima11_autocov_oracle(d, ar[0] if ar else 0.0,
                                  ma[0] if ma else 0.0, m)
    np.testing.assert_allclose(got, ref, rtol=1e-8)


@pytest.mark.parametrize("model", MODELS)
def test_farima_sequences_equal_inline_lfilter_bit_for_bit(model):
    # scipy.signal loads on the first filter call, not with longpred; the
    # sequences must still come out of the same lfilter call as before
    n = 600
    assert np.array_equal(lp.ar_inf_coeffs(model, n).values,
                          ar_inf_inline(model, n))
    assert np.array_equal(lp.ma_inf_coeffs(model, n).values,
                          ma_inf_inline(model, n))
    # every model here has psi >= 0 and a short kernel, so exact_autocov
    # takes the float64 route; truncation_excess takes the wide one
    assert np.array_equal(lp.exact_autocov(model, n).values,
                          farima_autocov_inline(model, n, np.float64))
    assert np.array_equal(_farima_autocov(model, n, WIDE)[0],
                          farima_autocov_inline(model, n, WIDE))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("ar, ma", [
    ((0.5, -0.3), ()),        # AR(2)
    ((), (0.4, -0.3)),        # MA(2)
    ((0.6, -0.2), (0.3,)),    # ARMA(2, 1): len(b) != len(a) both ways
    ((-0.9,), ()),            # negative AR root
    ((), (0.3,)),             # MA only
    ((0.9,), ()),             # H = 395, impulse length 2H + 1
    ((0.5,), (0.3,)),
])
def test_arma_filter_equals_lfilter_bit_for_bit(ar, ma, dtype):
    # the in-house recursion must reproduce lfilter's rounding, sign of
    # zero included, on the impulse (running-product path) and on FI
    # coefficients, both ways round through the polynomials
    phi, theta = _arma_polys(lp.LongMemoryModel.farima(0.3, ar=ar, ma=ma))
    for n in (1, 2, 3, 2 * 395 + 1):
        impulse = np.zeros(n, dtype)
        impulse[0] = 1.0
        for x in (impulse, _fi_ar_values(dtype(0.3), n - 1)):
            for b, a in ((phi, theta), (theta, phi)):
                b, a = b.astype(dtype), a.astype(dtype)
                got, ref = _arma_filter(b, a, x), lfilter(b, a, x)
                assert got.dtype == ref.dtype == dtype
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))


# the two FARIMA routes: float64 where psi >= 0 and 2H + 1 <= 9001, else
# the widest float; FARIMA(0.3; ar 0.5) and FARIMA(0.2; ar 0.5; ma 0.3) are
# the benchmark's models
BENCH_MODELS = [lp.LongMemoryModel.farima(0.3, ar=(0.5,)),
                lp.LongMemoryModel.farima(0.2, ar=(0.5,), ma=(0.3,))]
MA_NEAR_CANCEL = lp.LongMemoryModel.farima(0.05, ma=(-0.9,))


@pytest.mark.parametrize("model", MODELS + BENCH_MODELS + [MA_NEAR_CANCEL])
def test_farima_autocov_prefix_is_the_shorter_sequence(model):
    # the route depends on the model alone, so the circulant sampler's
    # longer embedding extends the sequence it was asked for bit for bit
    assert np.array_equal(lp.exact_autocov(model, 8000).values[:1001],
                          lp.exact_autocov(model, 1000).values)


def test_float_route_builds_the_arma_impulse_once(monkeypatch):
    # the impulse that chose the float route is the one convolved
    calls = []
    impulse = lp.fraccoeff._arma_impulse

    def counted(model, dtype):
        calls.append(dtype)
        return impulse(model, dtype)

    monkeypatch.setattr("longpred.fraccoeff._arma_impulse", counted)
    lp.exact_autocov(lp.LongMemoryModel.farima(0.3, ar=(0.5,)), 1000)
    assert calls == [np.float64]


@pytest.mark.parametrize("model", MODELS + BENCH_MODELS)
def test_float_route_lies_within_its_bound_of_the_wide_route(model):
    m = 8000
    got = lp.exact_autocov(model, m).values
    values, rel = _farima_autocov(model, m, np.float64)
    assert np.array_equal(got, values)
    wide, wide_rel = _farima_autocov(model, m, WIDE)
    assert np.all(np.abs(got - wide) <= (rel + wide_rel) * np.abs(wide))


@pytest.mark.parametrize("model, m", [
    (MA_NEAR_CANCEL, 1023),
    (lp.LongMemoryModel.farima(0.1, ar=(-0.9,)), 1023),
    # psi >= 0, but its kernel 2H + 1 = 15 083 is past the float route's
    (lp.LongMemoryModel.farima(0.1, ar=(0.9945,)), 100),
])
def test_wide_route_models_keep_their_values(model, m):
    assert np.array_equal(lp.exact_autocov(model, m).values,
                          farima_autocov_inline(model, m, WIDE).astype(float))


def test_cancelling_ma_root_lies_within_its_bound_against_mpmath():
    # FARIMA(0.05; ma -0.99): sigma(h) is (1 + theta^2) rho(h) + theta
    # (rho(h - 1) + rho(h + 1)) scaled, which changes sign near lag 130;
    # the wide route's bound, 6.8e-11 at its worst, covers every lag
    d, theta, m = 0.05, -0.99, 8000
    model = lp.LongMemoryModel.farima(d, ma=(theta,))
    got = lp.exact_autocov(model, m).values
    _, rel = _farima_autocov(model, m, WIDE)
    with mpmath.workdps(40):
        d, theta = mpmath.mpf(d), mpmath.mpf(theta)
        rho = [mpmath.mpf(1)]
        for j in range(m + 1):
            rho.append(rho[-1] * (j + d) / (j + 1 - d))
        scale = mpmath.gamma(1 - 2 * d) / mpmath.gamma(1 - d) ** 2
        err = [abs(g / (scale * ((1 + theta * theta) * rho[h]
                                 + theta * (rho[abs(h - 1)] + rho[h + 1])))
                   - 1) for h, g in enumerate(got)]
    assert np.all(np.array(err, dtype=float) <= rel + _EPS)


def exact_mpf(x):
    """x as an mpmath number, exactly, for a float or long double x: the
    float nearest x plus the float nearest the rest."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - hi))


@pytest.mark.parametrize("d", [0.1, 0.2499, 0.3])
def test_fi_ratio_recursions_lie_within_their_worst_case_charge(d):
    # j + d drops the same low bits of d at every j in a binade, so the
    # errors do not average out: float _fi_acf at lag 8000 is 4.0e-13 off
    # for d = 0.3, where the probabilistic bound of 32 000 roundings is
    # 1.6e-13; the worst case gamma_n holds
    lags = (1000, 8000, 25600)
    ref = {}
    with mpmath.workdps(40):
        dm, rho, a = mpmath.mpf(d), mpmath.mpf(1), mpmath.mpf(1)
        for j in range(lags[-1]):
            rho *= (j + dm) / (j + 1 - dm)
            a *= (j - dm) / (j + 1)
            if j + 1 in lags:
                ref[j + 1] = (rho, a)
        for dtype in (np.float64, WIDE):
            eps = float(np.finfo(dtype).eps)
            r = _fi_acf(dtype(d), lags[-1])
            c = _fi_ar_values(dtype(d), lags[-1])
            for h in lags:
                rho_err = abs(exact_mpf(r[h]) / ref[h][0] - 1)
                a_err = abs(exact_mpf(c[h]) / ref[h][1] - 1)
                assert rho_err <= _worst_roundoff(4 * h, eps)
                assert a_err <= _worst_roundoff(3 * h, eps)


def hurwitz_zeta_mpmath(s, q):
    """zeta(s, q) at 40 digits: s + 30 direct terms, then 30 terms of the
    Euler-Maclaurin tail.  mpmath's own zeta(s, q) is no reference here:
    zeta(40, 278.3) is off by 2e-13 even at 100 digits, against this sum
    and a direct sum of 20 000 terms, which agree to 2e-41."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        n = s + 30
        a = q + n
        value = (mpmath.fsum((q + i) ** -s for i in range(n))
                 + a ** (1 - s) / (s - 1) + a ** -s / 2)
        rise = mpmath.mpf(s)  # s (s + 1) ... (s + 2j - 2)
        for j in range(1, 31):
            value += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                      * rise * a ** (1 - s - 2 * j))
            rise *= (s + 2 * j - 1) * (s + 2 * j)
        return value


def johansson_remainder(m, J, q):
    """Johansson's bound (Numer. Algorithms 69, 2015, Thm 1) on the
    Euler-Maclaurin remainder of A_m = q^(2m-1) zeta(2m, q)/m after J
    Bernoulli terms."""
    rise = math.prod(range(2 * m, 2 * m + 2 * J))  # (2m)_{2J}
    return (4.0 * rise / ((2 * math.pi) ** (2 * J) * (2 * m + 2 * J - 1) * m
                          * q ** (2 * J)))


def test_in_house_hurwitz_zeta_within_its_charge():
    # the FI gamma-ratio series takes q = k + 1 - d over at the first
    # q + n >= 10.5; there A_m = q^(2m-1) zeta(2m, q)/m from each order's
    # float coefficients, summed exactly, is within their roundings and
    # Johansson's remainder of the 40-digit zeta; and each order has the
    # fewest Bernoulli terms whose weighted remainder is within eps/64
    x = 0.25 / _Q_MIN ** 2
    for m, (a, b, row) in enumerate(_FI_SERIES, 1):
        J = len(row)
        assert x ** (m - 1) * johansson_remainder(m, J, _Q_MIN) <= _EPS / 64
        if J > 1:
            assert (x ** (m - 1) * johansson_remainder(m, J - 1, _Q_MIN)
                    > _EPS / 64)
    assert x ** len(_FI_SERIES) / (1 - x) <= _EPS / 64
    qs = np.r_[np.geomspace(1.5, 1e6, 40), 2.0 ** np.arange(1, 20) - 0.4]
    for q in qs + np.maximum(0.0, np.ceil(_Q_MIN - qs)):
        for m, (a, b, row) in enumerate(_FI_SERIES, 1):
            with mpmath.workdps(40):
                y = 1 / mpmath.mpf(q) ** 2
                # the table's a_1 is 0: the 1 of A_1 is summed on its own
                terms = [mpmath.mpf(a) + (m == 1), mpmath.mpf(b) / q] + [
                    mpmath.mpf(c) * y ** j
                    for j, c in enumerate(reversed(row), 1)]
                exact = (mpmath.mpf(q) ** (2 * m - 1)
                         * hurwitz_zeta_mpmath(2 * m, q) / m)
                err = abs(mpmath.fsum(terms) - exact)
                rounding = 0.5 * _EPS * mpmath.fsum(map(abs, terms))
            assert err <= rounding + johansson_remainder(m, len(row), q)


def log_ratio_mpmath(d, k):
    """log(Gamma(k+1) Gamma(k+1-2d) / Gamma(k+1-d)^2) at 50 digits."""
    with mpmath.workdps(50):
        d = mpmath.mpf(d)
        return (mpmath.loggamma(k + 1) + mpmath.loggamma(k + 1 - 2 * d)
                - 2 * mpmath.loggamma(k + 1 - d))


@pytest.mark.parametrize("d", [1e-4, 0.01, 0.1, 0.25, 0.3, 0.45, 0.4999])
def test_fi_log_ratio_matches_50_digit_loggamma(d):
    # k = 0..12 crosses the switch from direct terms to the Euler-Maclaurin
    # tail at t = 11; the bound covers the error, is at most 1e-14 of the
    # value and the value is within 4 eps
    for k in [*range(13), 50, 200, 1600, 102_400, 10 ** 6]:
        exact = log_ratio_mpmath(d, k)
        log_r, err = _fi_log_ratio(d, k)
        assert err <= _FI_LOG_RTOL * log_r + _TINY <= 1e-14 * log_r + _TINY
        assert abs(log_r - exact) <= err
        assert abs(log_r / exact - 1) <= 4 * _EPS, k


def test_ar_root_near_unit_circle_raises_at_once():
    model = lp.LongMemoryModel.farima(0.2, ar=(0.999999,))
    start = time.perf_counter()
    with pytest.raises(AccuracyError) as info:
        lp.exact_autocov(model, 100)
    assert time.perf_counter() - start < 5.0
    assert info.value.achieved > 1e-8


@pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
def test_autocov_tail_envelope(d):
    j = 10_000
    sig = lp.exact_autocov(lp.LongMemoryModel.fi(d), j).values
    limit = Gamma(1 - 2 * d) / (Gamma(d) * Gamma(1 - d))
    np.testing.assert_allclose(j ** (1 - 2 * d) * sig[j] / limit, 1.0,
                               rtol=0.01)


def test_exact_toeplitz_prefixes_positive_definite():
    # Durbin-Levinson succeeding at every order certifies positive
    # definiteness of each exact prefix
    acov = lp.exact_autocov(lp.LongMemoryModel.fi(0.45), 64)
    model_k = lp.durbin_levinson(acov, 64)
    assert model_k.v > 0


# ---------------------------------------------------------------------------
# spectral density


def test_spectral_density_at_pi():
    f = lp.spectral_density(lp.LongMemoryModel.fi(0.3), np.pi)
    np.testing.assert_allclose(f, (2 * np.pi) ** -1 * 2.0 ** -0.6, rtol=1e-13)
    assert f == pytest.approx(0.1050031, abs=5e-7)


def test_spectral_density_white_noise_limit():
    model = lp.LongMemoryModel.fi(1e-4, sigma2_eps=2.0)
    for lam in (0.3, 1.0, 3.0):
        np.testing.assert_allclose(lp.spectral_density(model, lam),
                                   2.0 / (2 * np.pi), rtol=1e-2)


def test_spectral_density_symmetric_and_singular_at_zero():
    model = lp.LongMemoryModel.farima(0.2, ar=(0.5,), ma=(0.1,))
    lam = np.array([0.2, 1.1, 3.0])
    np.testing.assert_allclose(lp.spectral_density(model, lam),
                               lp.spectral_density(model, -lam), rtol=1e-14)
    with pytest.raises(DomainError):
        lp.spectral_density(model, 0.0)
    with pytest.raises(DomainError):
        lp.spectral_density(model, 4.0)


@pytest.mark.parametrize("model", [
    lp.LongMemoryModel.fi(0.3),
    lp.LongMemoryModel.fi(0.45, sigma2_eps=2.5),
    lp.LongMemoryModel.farima(0.25, ar=(0.5,), ma=(0.3,)),
])
def test_spectral_density_integrates_to_lag_zero(model):
    total = integrate_symmetric_singular(
        lambda lam: lp.spectral_density(model, lam), 2.0 * model.d
    )
    sigma0 = lp.exact_autocov(model, 0).values[0]
    np.testing.assert_allclose(total, sigma0, rtol=1e-5)


# ---------------------------------------------------------------------------
# serialisation


def test_model_json_roundtrip():
    model = lp.LongMemoryModel.farima(0.2, ar=(0.5,), ma=(0.1,),
                                      sigma2_eps=1.5)
    again = model_from_json(model_to_json(model))
    assert again == model
    payload = json.loads(model_to_json(model))
    assert set(payload) == {"kind", "d", "ar", "ma", "sigma2"}


def test_model_json_unknown_keys_raise():
    fi = model_from_json('{"kind": "fi", "d": 0.3}')
    assert fi == lp.LongMemoryModel.fi(0.3)
    with pytest.raises(ValueError, match="unknown model key.*: extra, sigma$"):
        model_from_json('{"kind": "fi", "d": 0.3, "sigma": 4, "extra": 1}')

