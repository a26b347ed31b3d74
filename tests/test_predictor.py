import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import longpred as lp
from longpred.errors import NotPositiveDefiniteError
from longpred.fraccoeff import AutocovSeq
from longpred.series import SamplePath

from dense_toeplitz import toeplitz_matrix

windows = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=20)


def test_zero_window_gives_zero_forecast():
    coeffs = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(0.3), 10)
    f = lp.wk_truncated_predict(coeffs, SamplePath(values=np.zeros(10)))
    assert f.value == 0.0
    assert f.method == "wk_trunc"
    assert f.order == 10


def test_single_observation_window():
    d = 0.3
    coeffs = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(d), 1)
    f = lp.wk_truncated_predict(coeffs, SamplePath(values=np.array([2.0])))
    np.testing.assert_allclose(f.value, d * 2.0, rtol=1e-13)


def test_coefficient_prefix_too_short():
    coeffs = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(0.3), 3)
    with pytest.raises(ValueError):
        lp.wk_truncated_predict(coeffs, SamplePath(values=np.zeros(4)))


@example(values=[2.225073858507e-311], p=1)
@given(windows, st.integers(-6, 6))
def test_wk_scaling_exact_for_dyadic_factors(values, p):
    c = 2.0 ** p
    w = np.asarray(values)
    coeffs = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(0.25), w.size)
    base = lp.wk_truncated_predict(coeffs, SamplePath(values=w)).value
    scaled = lp.wk_truncated_predict(coeffs, SamplePath(values=c * w)).value
    products = np.abs(coeffs.values[1:] * w[::-1])[w[::-1] != 0.0]
    if np.all(products * min(c, 1.0) >= 2.0 * np.finfo(float).tiny):
        # powers of two scale normal products and their sums without
        # rounding, so equality is bitwise
        assert scaled == c * base
    else:
        # a subnormal product rounds on the fixed grid of spacing 2^-1074:
        # each forecast is within gamma_n sum|a_j w_j| plus n half steps of
        # its exact value
        n = w.size
        u = np.finfo(float).eps / 2
        gamma_n = n * u / (1.0 - n * u)
        bound = (2.0 * gamma_n * c * np.sum(products)
                 + (1.0 + c) * n / 2.0 * 2.0 ** -1074)
        assert abs(scaled - c * base) <= bound


@given(windows, st.floats(-10.0, 10.0))
def test_wk_scaling_general(values, c):
    w = np.asarray(values)
    coeffs = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(0.25), w.size)
    base = lp.wk_truncated_predict(coeffs, SamplePath(values=w)).value
    scaled = lp.wk_truncated_predict(coeffs, SamplePath(values=c * w)).value
    np.testing.assert_allclose(scaled, c * base, rtol=1e-12, atol=1e-12)


def test_ark_white_noise_forecast_is_zero():
    acov = AutocovSeq(values=np.r_[1.0, np.zeros(5)], source="exact")
    model_k = lp.durbin_levinson(acov, 5)
    f = lp.ark_predict(model_k, SamplePath(values=np.arange(1.0, 9.0)))
    assert f.value == 0.0
    assert f.method == "ark"


def test_ark_order_one():
    acov = AutocovSeq(values=np.array([2.0, 0.8]), source="exact")
    model_k = lp.durbin_levinson(acov, 1)
    f = lp.ark_predict(model_k, SamplePath(values=np.array([3.0])))
    np.testing.assert_allclose(f.value, 3.0 * 0.8 / 2.0)


def test_ark_window_too_short():
    model_k = lp.fi_ark_closed_form(0.3, 5)
    with pytest.raises(ValueError):
        lp.ark_predict(model_k, SamplePath(values=np.ones(4)))


@given(windows, windows, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_ark_superposition(v1, v2, c1, c2):
    k = min(len(v1), len(v2))
    w1, w2 = np.asarray(v1)[:k], np.asarray(v2)[:k]
    model_k = lp.fi_ark_closed_form(0.3, k)
    f = lambda w: lp.ark_predict(model_k, SamplePath(values=w)).value
    combo = f(c1 * w1 + c2 * w2)
    np.testing.assert_allclose(combo, c1 * f(w1) + c2 * f(w2),
                               rtol=1e-9, atol=1e-9)


def test_ark_mse_matches_innovation_variance():
    # 2000 exact windows of length 21: the mean squared error of the
    # order-20 forecast must sit within 3 standard errors of v(20)
    d, k = 0.3, 20
    model = lp.LongMemoryModel.fi(d)
    acov = lp.exact_autocov(model, k)
    model_k = lp.durbin_levinson(acov, k)
    paths = lp.gaussian_paths(acov, k + 1, 2000, seed=555, stream=(6,))
    sq = np.array([
        (lp.ark_predict(model_k, SamplePath(values=p.values[:k])).value
         - p.values[k]) ** 2
        for p in paths
    ])
    se = np.std(sq, ddof=1) / np.sqrt(sq.size)
    assert abs(np.mean(sq) - model_k.v) <= 3 * se


def test_ark_never_beaten_by_truncation_mc():
    d, k = 0.3, 20
    model = lp.LongMemoryModel.fi(d)
    acov = lp.exact_autocov(model, k)
    model_k = lp.durbin_levinson(acov, k)
    coeffs = lp.ar_inf_coeffs(model, k)
    paths = lp.gaussian_paths(acov, k + 1, 2000, seed=556, stream=(6,))
    diff = []
    for p in paths:
        w = SamplePath(values=p.values[:k])
        e_wk = (lp.wk_truncated_predict(coeffs, w).value - p.values[k]) ** 2
        e_ark = (lp.ark_predict(model_k, w).value - p.values[k]) ** 2
        diff.append(e_wk - e_ark)
    diff = np.asarray(diff)
    se = np.std(diff, ddof=1) / np.sqrt(diff.size)
    assert np.mean(diff) >= -3 * se


def test_predictor_gap_equals_excess_gap():
    # E[(ark forecast - truncated forecast)^2] = trunc_excess - ark_excess,
    # and it shrinks with k
    d = 0.3
    model = lp.LongMemoryModel.fi(d)
    gaps = []
    for k in (10, 20, 40):
        acov = lp.exact_autocov(model, k)
        phi = lp.durbin_levinson(acov, k).phi
        a = lp.ar_inf_coeffs(model, k).values
        delta = phi - (-a[1:])
        gap = float(delta @ toeplitz_matrix(acov, k) @ delta)
        expected = (lp.truncation_excess(model, k) - lp.ark_excess(model, k))
        np.testing.assert_allclose(gap, expected, rtol=1e-8)
        assert gap <= lp.truncation_excess(model, k)
        gaps.append(gap)
    assert np.all(np.diff(gaps) < 0)


# ---------------------------------------------------------------------------
# plug-in predictors


@pytest.fixture(scope="module")
def train_and_window():
    model = lp.LongMemoryModel.fi(0.3)
    acov = lp.exact_autocov(model, 4095)
    train = lp.gaussian_paths(acov, 4096, 1, seed=808, stream=(0,))[0]
    window = lp.gaussian_paths(acov, 64, 1, seed=808, stream=(1,))[0]
    return train, window


def test_wk_plugin_finite_linear_deterministic(train_and_window):
    train, window = train_and_window
    f1 = lp.wk_plugin_predict(train, window, 50)
    f2 = lp.wk_plugin_predict(train, window, 50)
    assert f1.value == f2.value  # bit-for-bit
    assert np.isfinite(f1.value)
    assert f1.method == "wk_plugin"
    doubled = SamplePath(values=2.0 * window.values)
    np.testing.assert_allclose(lp.wk_plugin_predict(train, doubled, 50).value,
                               2.0 * f1.value, rtol=1e-14)


def test_ark_plugin_deterministic_and_linear(train_and_window):
    train, window = train_and_window
    f1 = lp.ark_plugin_predict(train, window, 8)
    f2 = lp.ark_plugin_predict(train, window, 8)
    assert f1.value == f2.value
    assert f1.method == "ark_plugin"
    doubled = SamplePath(values=2.0 * window.values)
    np.testing.assert_allclose(lp.ark_plugin_predict(train, doubled, 8).value,
                               2.0 * f1.value, rtol=1e-14)


def test_ark_plugin_degenerate_train_raises():
    # an all-zero (constant) train gives sigma_hat(0) = 0
    train = SamplePath(values=np.zeros(128))
    window = SamplePath(values=np.ones(8))
    with pytest.raises(NotPositiveDefiniteError):
        lp.ark_plugin_predict(train, window, 4)


def test_wk_plugin_t_scaling(wk_plugin_report):
    assert wk_plugin_report.slope == pytest.approx(-1.0, abs=0.3)


def test_wk_plugin_t_scaling_midrange_memory():
    report = lp.wk_plugin_scaling(0.3, 50, [1024, 2048, 4096, 8192], 200,
                                  seed=321)
    assert np.all(np.diff(report.estimates) < 0)
    assert report.slope == pytest.approx(-1.0, abs=0.3)


def test_ark_plugin_t_scaling(ark_plugin_report):
    assert ark_plugin_report.slope == pytest.approx(-1.0, abs=0.3)
