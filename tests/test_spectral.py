import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import longpred as lp
from longpred import spectral
from longpred.errors import DomainError, EstimationError
from longpred.series import SamplePath

from whittle_oracle import (grid_golden_d_hat, whittle_objective,
                            whittle_profiled_sigma2)


def test_constant_sample_has_zero_periodogram():
    pgram = lp.periodogram(SamplePath(values=np.full(32, 3.7)))
    np.testing.assert_allclose(pgram.values, 0.0, atol=1e-25)


def test_two_point_ordinate():
    a, b = 1.25, -0.5
    val = lp.periodogram_ordinate(SamplePath(values=np.array([a, b])), np.pi)
    np.testing.assert_allclose(val, (b - a) ** 2 / (4 * np.pi), rtol=1e-14)


def test_grid_frequencies_and_length():
    for T in (2, 3, 17, 256, 1000):
        pgram = lp.periodogram(SamplePath(values=np.arange(float(T)) ** 1.5))
        m = (T - 1) // 2
        assert pgram.values.size == m
        np.testing.assert_allclose(pgram.freqs,
                                   2 * np.pi * np.arange(1, m + 1) / T)


def test_fft_path_matches_direct_ordinate():
    rng = np.random.default_rng(3)
    sample = SamplePath(values=rng.normal(size=256))
    pgram = lp.periodogram(sample)
    direct = [lp.periodogram_ordinate(sample, lam) for lam in pgram.freqs[:6]]
    np.testing.assert_allclose(pgram.values[:6], direct, rtol=1e-10)


@pytest.mark.parametrize("T", [2, 3, 17, 256, 1000])
def test_parseval(T):
    rng = np.random.default_rng(T)
    y = rng.normal(size=T) * 3.0 + 1.0
    sample = SamplePath(values=y)
    # all nonzero Fourier frequencies, both signs
    total = sum(lp.periodogram_ordinate(sample, 2 * np.pi * j / T)
                for j in range(1, T))
    lhs = (2 * np.pi / T) * total
    yc = y - y.mean()
    np.testing.assert_allclose(lhs, np.dot(yc, yc) / T, rtol=1e-10)


def test_shift_invariance_exact_on_binary_grid():
    # integer samples, dyadic length: the demeaned values are exactly
    # representable, so adding an integer constant changes nothing at all
    rng = np.random.default_rng(8)
    y = rng.integers(-50, 50, size=256).astype(float)
    base = lp.periodogram(SamplePath(values=y))
    shifted = lp.periodogram(SamplePath(values=y + 1024.0))
    np.testing.assert_array_equal(base.values, shifted.values)


@given(st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=64),
       st.floats(-100.0, 100.0))
def test_shift_invariance_general(values, c):
    y = np.asarray(values)
    base = lp.periodogram(SamplePath(values=y))
    shifted = lp.periodogram(SamplePath(values=y + c))
    np.testing.assert_allclose(shifted.values, base.values,
                               rtol=1e-7, atol=1e-10)


# ---------------------------------------------------------------------------
# Whittle objective


def test_flat_periodogram_prefers_smallest_d():
    pgram = lp.periodogram(SamplePath(values=np.random.default_rng(0)
                                      .normal(size=512)))
    flat = lp.Periodogram(freqs=pgram.freqs,
                          values=np.full_like(pgram.values, 0.2), T=pgram.T)
    grid = np.linspace(0.01, 0.49, 25)
    objs = [whittle_objective(flat, d) for d in grid]
    assert int(np.argmin(objs)) == 0
    assert np.all(np.isfinite(objs))


def test_noiseless_self_consistency():
    T = 8192
    m = (T - 1) // 2
    freqs = 2 * np.pi * np.arange(1, m + 1) / T
    model = lp.LongMemoryModel.fi(0.3)
    synthetic = lp.Periodogram(freqs=freqs,
                               values=lp.spectral_density(model, freqs), T=T)
    grid = np.arange(0.05, 0.45, 0.001)
    objs = [whittle_objective(synthetic, d) for d in grid]
    best = grid[int(np.argmin(objs))]
    assert best == pytest.approx(0.30, abs=0.001)


def test_profiled_sigma2_self_consistency():
    T = 4096
    m = (T - 1) // 2
    freqs = 2 * np.pi * np.arange(1, m + 1) / T
    model = lp.LongMemoryModel.fi(0.3, sigma2_eps=2.0)
    synthetic = lp.Periodogram(freqs=freqs,
                               values=lp.spectral_density(model, freqs), T=T)
    np.testing.assert_allclose(whittle_profiled_sigma2(synthetic, 0.3), 2.0,
                               rtol=0.01)


def test_objective_domain():
    pgram = lp.periodogram(SamplePath(values=np.arange(64.0)))
    with pytest.raises(DomainError):
        whittle_objective(pgram, 0.0)
    with pytest.raises(DomainError):
        whittle_objective(pgram, 0.5)


@given(st.integers(0, 2 ** 32 - 1))
def test_objective_finite_for_random_samples(seed):
    rng = np.random.default_rng(seed)
    pgram = lp.periodogram(SamplePath(values=rng.normal(size=96)))
    for d in (0.01, 0.1, 0.25, 0.49):
        assert np.isfinite(whittle_objective(pgram, d))


# ---------------------------------------------------------------------------
# whittle_fit


def test_fit_requires_length_and_bounds():
    with pytest.raises(ValueError):
        lp.whittle_fit(SamplePath(values=np.ones(32)))
    with pytest.raises(DomainError):
        lp.whittle_fit(SamplePath(values=np.arange(128.0)),
                       d_bounds=(0.0, 0.4))


def test_fit_degenerate_sample():
    with pytest.raises(EstimationError):
        lp.whittle_fit(SamplePath(values=np.full(128, 2.0)))


def test_fit_deterministic_bit_for_bit():
    rng = np.random.default_rng(5)
    sample = SamplePath(values=rng.normal(size=512))
    f1 = lp.whittle_fit(sample)
    f2 = lp.whittle_fit(sample)
    assert f1.d_hat == f2.d_hat
    assert f1.sigma2_hat == f2.sigma2_hat


def _contrast_derivative(pgram, d):
    """D(d) = 2 (sum_j w_j L_j / sum_j w_j - mean_j L_j), w_j = I_j e^{2dL_j},
    evaluated directly."""
    L = np.log(2.0 * np.sin(pgram.freqs / 2.0))
    w = pgram.values * np.exp(2.0 * d * L)
    return 2.0 * (np.sum(w * L) / np.sum(w) - np.mean(L))


@pytest.mark.parametrize("T", [64, 512, 4096])
def test_fit_is_the_root_of_the_contrast_derivative(T):
    lo, hi = 1e-4, 0.5 - 1e-4
    interior = 0
    for seed, d in enumerate((0.1, 0.25, 0.4, 0.3)):
        model = lp.LongMemoryModel.fi(d)
        sample = lp.gaussian_paths(lp.exact_autocov(model, T - 1), T, 1,
                                   seed=100 + seed)[0]
        fit = lp.whittle_fit(sample)
        pgram = lp.periodogram(sample)
        if fit.at_bound is None:
            interior += 1
            assert _contrast_derivative(pgram, fit.d_hat - 1e-9) < 0.0
            assert _contrast_derivative(pgram, fit.d_hat + 1e-9) > 0.0
        grid_min = min(whittle_objective(pgram, d)
                       for d in np.linspace(lo, hi, 50))
        assert whittle_objective(pgram, fit.d_hat) <= grid_min
        assert abs(fit.d_hat - grid_golden_d_hat(sample)) <= 1e-5
    assert interior >= 3


def test_fit_reports_lower_bound():
    sample = SamplePath(values=np.random.default_rng(9).normal(size=512))
    fit = lp.whittle_fit(sample, d_bounds=(0.2, 0.3))
    assert fit.d_hat == 0.2
    assert fit.at_bound == "lower"


def test_fit_reports_upper_bound():
    model = lp.LongMemoryModel.fi(0.45)
    sample = lp.gaussian_paths(lp.exact_autocov(model, 1023), 1024, 1,
                               seed=10)[0]
    fit = lp.whittle_fit(sample, d_bounds=(0.01, 0.05))
    assert fit.d_hat == 0.05
    assert fit.at_bound == "upper"


def test_fit_derivative_evaluations_are_bounded(monkeypatch):
    calls = []
    slope = spectral._contrast_slope

    def counted(*args):
        calls.append(args[-1])
        return slope(*args)

    monkeypatch.setattr(spectral, "_contrast_slope", counted)
    worst = 0
    for d in (1e-4, 0.1, 0.3, 0.45, 0.49):
        acov = lp.exact_autocov(lp.LongMemoryModel.fi(d), 4095)
        for path in lp.gaussian_paths(acov, 4096, 10, seed=11):
            calls.clear()
            lp.whittle_fit(path)
            worst = max(worst, len(calls))
    assert worst <= 60

    # a derivative whose slope is useless forces bisection all the way
    def flat_slope(*args):
        D, _, mean_w = slope(*args)
        calls.append(args[-1])
        return D, 0.0, mean_w

    monkeypatch.setattr(spectral, "_contrast_slope", flat_slope)
    calls.clear()
    path = lp.gaussian_paths(lp.exact_autocov(lp.LongMemoryModel.fi(0.3),
                                              4095), 4096, 1, seed=12)[0]
    fit = lp.whittle_fit(path)
    assert len(calls) <= 60
    monkeypatch.undo()
    assert abs(fit.d_hat - lp.whittle_fit(path).d_hat) <= 2e-12


def test_whittle_consistency_mc(whittle_mc_fits):
    dh = np.array([f.d_hat for f in whittle_mc_fits])
    assert np.mean(np.abs(dh - 0.3)) <= 0.05


def test_whittle_sigma2_mc(whittle_mc_fits):
    s2 = np.array([f.sigma2_hat for f in whittle_mc_fits])
    np.testing.assert_allclose(np.mean(s2), 1.0, rtol=0.10)


def test_whittle_near_white_noise(near_white_whittle_dhats):
    assert np.mean(near_white_whittle_dhats <= 0.05) >= 0.90
