import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import longpred as lp
from longpred.errors import AccuracyError, NotPositiveDefiniteError
from longpred.fraccoeff import _WIDE, AutocovSeq, _fi_ar_values
from longpred.rng import derive_rng
from longpred.series import SamplePath
from longpred.toeplitz import (_lag_products, _levinson_steps,
                               _toeplitz_inverse, _toeplitz_matvec,
                               innovation_variance_quadratic_form,
                               yule_walker_residual)

from dense_toeplitz import toeplitz_matrix
from levinson_oracle import durbin_levinson_inline


def random_pd_acov(rng, m, taps=4):
    """Autocovariance of a random MA(taps) filter: positive definite by
    construction (plus a diagonal bump to stay safely away from the
    boundary)."""
    h = rng.standard_normal(taps + 1)
    full = np.convolve(h, h[::-1])
    sig = full[taps : taps + m + 1].copy()
    if sig.size < m + 1:
        sig = np.r_[sig, np.zeros(m + 1 - sig.size)]
    sig[0] += 0.1 * np.dot(h, h) + 0.1
    return AutocovSeq(values=sig, source="exact")


# ---------------------------------------------------------------------------
# durbin_levinson


def test_white_noise_order_five():
    acov = AutocovSeq(values=np.r_[2.5, np.zeros(5)], source="exact")
    model_k = lp.durbin_levinson(acov, 5)
    np.testing.assert_array_equal(model_k.phi, np.zeros(5))
    assert model_k.v == 2.5


def test_order_one_is_autocorrelation():
    acov = AutocovSeq(values=np.array([2.0, 0.8]), source="exact")
    model_k = lp.durbin_levinson(acov, 1)
    np.testing.assert_allclose(model_k.phi, [0.4])
    np.testing.assert_allclose(model_k.partials, [0.4])
    np.testing.assert_allclose(model_k.v, 2.0 * (1 - 0.16))


def test_matches_closed_form_at_order_30():
    d = 0.3
    acov = lp.exact_autocov(lp.LongMemoryModel.fi(d), 30)
    by_recursion = lp.durbin_levinson(acov, 30)
    closed = lp.fi_ark_closed_form(d, 30)
    np.testing.assert_allclose(by_recursion.phi, closed.phi, atol=1e-10)


@pytest.mark.parametrize("model", [
    lp.LongMemoryModel.fi(0.1), lp.LongMemoryModel.fi(0.45),
    lp.LongMemoryModel.farima(0.3, ar=(0.5,)),
    lp.LongMemoryModel.farima(0.2, ar=(0.5,), ma=(0.3,))])
@pytest.mark.parametrize("k", [1, 10, 200, 800])
def test_matches_the_inline_recursion_bitwise(model, k):
    # durbin_levinson steps the shared recursion; an inline copy of the
    # loop doing the same arithmetic must agree bit for bit
    model_k = lp.durbin_levinson(lp.exact_autocov(model, k), k)
    phi, v, partials = durbin_levinson_inline(
        lp.exact_autocov(model, k).values, k)
    assert np.array_equal(model_k.phi, phi)
    assert model_k.v == v
    assert np.array_equal(model_k.partials, partials)


def test_not_positive_definite_names_failing_order():
    acov = AutocovSeq(values=np.array([1.0, 0.95, 0.2]), source="empirical")
    with pytest.raises(NotPositiveDefiniteError) as exc:
        lp.durbin_levinson(acov, 2)
    assert exc.value.order == 2


@pytest.mark.parametrize("sig, order", [
    # refl = 1 at order 1
    ([1.0, 1.0, 1.0], 1),
    # refl = 1/2 and 1/3, then -37/20 at order 3
    ([1.0, 0.5, 0.5, -0.9], 3),
    # v(1) underflows to 36 times the least subnormal, 1.8e-322, and
    # refl(3) is about -5e11
    ([1e-310, 1e-310 * (1 - 2 ** -40), 1e-310 * (1 - 2 ** -39), 0.0], 3),
    # v(1) underflows to 2.2e-316, and refl(2) overflows to +inf
    ([1e-300, 1e-300 * (1 - 2 ** -52), 1.0], 2),
])
def test_levinson_failures_name_the_same_order(sig, order):
    # the Yule-Walker solve and the innovations sampler share one step,
    # which raises where the numpy-scalar recursion raised
    acov = AutocovSeq(values=np.array(sig), source="empirical")
    with pytest.raises(NotPositiveDefiniteError) as exc:
        lp.durbin_levinson(acov, len(sig) - 1)
    assert exc.value.order == order
    with pytest.raises(NotPositiveDefiniteError) as exc:
        lp.gaussian_paths(acov, len(sig), 2, 1, method="innovations")
    assert exc.value.order == order


def test_levinson_step_rejects_a_nan_reflection():
    # AutocovSeq refuses non-finite values, so the step is driven directly
    with pytest.raises(NotPositiveDefiniteError) as exc:
        list(_levinson_steps(np.array([1.0, np.nan, 0.1]), 2))
    assert exc.value.order == 1


def test_needs_enough_lags():
    acov = AutocovSeq(values=np.array([1.0, 0.5]), source="exact")
    with pytest.raises(ValueError):
        lp.durbin_levinson(acov, 2)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_yule_walker_residual_property(seed, k):
    rng = np.random.default_rng(seed)
    acov = random_pd_acov(rng, k)
    model_k = lp.durbin_levinson(acov, k)
    assert yule_walker_residual(acov, model_k) < 1e-9


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_innovation_variance_identity(seed, k):
    rng = np.random.default_rng(seed)
    acov = random_pd_acov(rng, k)
    model_k = lp.durbin_levinson(acov, k)
    quad, _ = innovation_variance_quadratic_form(acov, model_k, np.inf)
    np.testing.assert_allclose(quad, model_k.v, rtol=1e-9)


# ---------------------------------------------------------------------------
# lag products


def lag_vector(kind, n, dtype):
    if kind == "random":
        return np.random.default_rng(n).standard_normal(n).astype(dtype)
    return _fi_ar_values(dtype(0.45), n)[1:]  # a_1..a_n of FI(0.45)


@pytest.mark.parametrize("kind", ["random", "fi"])
@pytest.mark.parametrize("dtype, n", [
    (_WIDE, 200), (_WIDE, 1600), (_WIDE, 6400),
    (np.float64, 400), (np.float64, 1600), (np.float64, 6400)])
def test_fft_lag_products_lie_within_their_bound(kind, dtype, n):
    # at and above the crossover the FFT runs; the direct sum in long
    # double, far more accurate than the bound, is the reference
    x = lag_vector(kind, n, dtype)
    w, err = _lag_products(x, x, n, np.inf)
    assert w.dtype == dtype and err > 0.0
    wide = x.astype(_WIDE)
    exact = np.correlate(wide, wide, "full")[n - 1 :]
    assert np.sqrt(np.sum((w - exact) ** 2)) <= err


@pytest.mark.parametrize("dtype, n", [(_WIDE, 200), (np.float64, 1600)])
def test_fft_toeplitz_product_lies_within_its_bound(dtype, n):
    # Sigma x: the lag products of x reversed with the mirrored lags,
    # whose FFT length covers only the first n lags
    sig = lp.exact_autocov(lp.LongMemoryModel.fi(0.45), n).values
    x = np.random.default_rng(n).standard_normal(n)
    prod, err = _toeplitz_matvec(sig.astype(dtype), x.astype(dtype))
    assert err > 0.0
    mirrored = np.r_[sig[n - 1 : 0 : -1], sig[:n]].astype(_WIDE)
    exact = np.convolve(mirrored, x.astype(_WIDE), "valid")
    assert np.sqrt(np.sum((prod - exact) ** 2)) <= err


@pytest.mark.parametrize("dtype, n", [(_WIDE, 199), (np.float64, 399)])
def test_lag_products_below_the_crossover_are_np_correlate(dtype, n):
    x = lag_vector("random", n, dtype)
    w, err = _lag_products(x, x, n, np.inf)
    assert err == 0.0
    assert np.array_equal(w, np.correlate(x, x, "full")[n - 1 :])
    sig = lp.exact_autocov(lp.LongMemoryModel.fi(0.3), n).values
    prod, err = _toeplitz_matvec(sig, x.astype(float))
    assert err == 0.0
    assert np.array_equal(prod, np.convolve(
        np.r_[sig[n - 1 : 0 : -1], sig[:n]], x.astype(float), "valid"))


def fixed_point_split(values):
    """mpmath values v in [0, 1] as hi + lo: hi = v rounded to a multiple
    of 2^-64, exact in long double, and lo the float nearest v - hi."""
    scaled, lo = [], []
    for v in values:
        man, exp = v.man_exp
        shift = -64 - exp
        if shift <= 0:
            scaled.append(man << -shift)
            lo.append(0.0)
        else:
            n = (man + (1 << (shift - 1))) >> shift
            scaled.append(n)
            lo.append(math.ldexp(man - (n << shift), exp))
    hi = (np.array([n >> 32 for n in scaled], dtype=_WIDE) * _WIDE(2.0) ** -32
          + np.array([n & 0xFFFFFFFF for n in scaled], dtype=_WIDE)
          * _WIDE(2.0) ** -64)
    return hi, np.array(lo)


def test_fft_twiddles_lie_within_the_assumed_error():
    # the transform of a unit impulse at index 1 is exp(-2 pi i m / N),
    # m = 0..N/2, which pocketfft returns through its twiddles; at every
    # length 2^9..2^18 the lag products use, in both precisions, it must
    # lie within the twiddle error mu = 16u that _fft_lag_error assumes.
    # The 40-digit cos and sin of 2 pi m / 2^18 over the first octant give
    # every other angle by symmetry.
    top = 18
    eighth = 1 << (top - 3)
    with mpmath.workdps(40):
        turns = [mpmath.mpf(m) / (1 << (top - 1)) for m in range(eighth + 1)]
        cos_hi, cos_lo = fixed_point_split([mpmath.cospi(t) for t in turns])
        sin_hi, sin_lo = fixed_point_split([mpmath.sinpi(t) for t in turns])
    m = np.arange((1 << (top - 1)) + 1)
    octant = np.minimum(m // eighth, 3)
    j = np.where(octant % 2 == 0, m - octant * eighth,
                 (octant + 1) * eighth - m)
    swap = (octant == 1) | (octant == 2)
    sign = np.where(octant >= 2, -1.0, 1.0)
    cos_ref = (sign * np.where(swap, sin_hi[j], cos_hi[j]),
               sign * np.where(swap, sin_lo[j], cos_lo[j]))
    sin_ref = (np.where(swap, cos_hi[j], sin_hi[j]),
               np.where(swap, cos_lo[j], sin_lo[j]))
    for t in range(9, top + 1):
        step = 1 << (top - t)
        for dtype in (_WIDE, np.float64):
            impulse = np.zeros(1 << t, dtype)
            impulse[1] = 1.0
            X = np.fft.rfft(impulse)
            assert X.real.dtype == dtype
            re = X.real.astype(_WIDE) - cos_ref[0][::step] - cos_ref[1][::step]
            im = X.imag.astype(_WIDE) + sin_ref[0][::step] + sin_ref[1][::step]
            err = np.max(np.hypot(re.astype(float), im.astype(float)))
            assert err <= 16.0 * np.finfo(dtype).eps / 2.0, (t, dtype, err)


@pytest.mark.parametrize("dtype", [_WIDE, np.float64])
def test_lag_products_refuse_an_fft_whose_bound_misses_atol(dtype):
    # above the crossover, an atol below the FFT's bound takes the direct
    # sum, bit for bit
    n = 1600
    x = lag_vector("fi", n, dtype)
    _, bound = _lag_products(x, x, n, np.inf)
    w, err = _lag_products(x, x, n, 0.5 * bound)
    assert err == 0.0
    assert np.array_equal(w, np.correlate(x, x, "full")[n - 1 :])
    assert _lag_products(x, x, n, bound)[1] == bound


@pytest.mark.parametrize("model,k", [
    *[(lp.LongMemoryModel.fi(d), k) for k in (10, 200, 1600)
      for d in (0.1, 0.45)],
    (lp.LongMemoryModel.farima(0.2, ar=(0.5,), ma=(0.3,)), 800),
])
def test_innovation_variance_quadratic_form_matches_dense(model, k):
    acov = lp.exact_autocov(model, k)
    model_k = lp.durbin_levinson(acov, k)
    sig, phi = acov.values, model_k.phi
    dense = (sig[0] - 2.0 * np.dot(phi, sig[1 : k + 1])
             + phi @ toeplitz_matrix(acov, k) @ phi)
    quad, _ = innovation_variance_quadratic_form(acov, model_k, np.inf)
    assert abs(quad - dense) <= 1e-13 * sig[0]


def test_innovation_variance_monotone_on_fi():
    acov = lp.exact_autocov(lp.LongMemoryModel.fi(0.4, sigma2_eps=2.0), 60)
    vs = [lp.durbin_levinson(acov, k).v for k in range(1, 61)]
    assert np.all(np.diff(vs) <= 1e-15)
    assert vs[-1] >= 2.0


def test_partials_bounded_by_one():
    acov = lp.exact_autocov(lp.LongMemoryModel.fi(0.45), 40)
    model_k = lp.durbin_levinson(acov, 40)
    assert np.all(np.abs(model_k.partials) < 1.0)


# ---------------------------------------------------------------------------
# empirical_autocov


def test_empirical_autocov_worked_example():
    sample = SamplePath(values=np.array([1.0, 1.0, 1.0, 1.0]))
    acov = lp.empirical_autocov(sample, 1)
    np.testing.assert_allclose(acov.values, [1.0, 0.75])


def test_empirical_autocov_single_point():
    acov = lp.empirical_autocov(SamplePath(values=np.array([2.0])), 0)
    np.testing.assert_allclose(acov.values, [4.0])


def test_empirical_autocov_maxlag_bound():
    with pytest.raises(ValueError):
        lp.empirical_autocov(SamplePath(values=np.ones(4)), 4)


def test_empirical_autocov_demean():
    sample = SamplePath(values=np.array([1.0, 2.0, 3.0, 4.0]))
    acov = lp.empirical_autocov(sample, 1, demean=True)
    y = sample.values - 2.5
    np.testing.assert_allclose(acov.values[0], np.dot(y, y) / 4)
    np.testing.assert_allclose(acov.values[1], np.dot(y[:-1], y[1:]) / 4)


def test_empirical_lag_zero_consistency_mc():
    model = lp.LongMemoryModel.fi(0.2)
    sigma0 = lp.exact_autocov(model, 0).values[0]
    acov = lp.exact_autocov(model, 4095)
    paths = lp.gaussian_paths(acov, 4096, 100, seed=314, stream=(11,))
    est = np.mean([lp.empirical_autocov(p, 0).values[0] for p in paths])
    np.testing.assert_allclose(est, sigma0, rtol=0.10)


@pytest.mark.parametrize("seed", range(20))
def test_demeaned_full_lag_sequence_is_positive_definite(seed):
    rng = derive_rng(7000, seed)
    T = int(rng.integers(8, 40))
    y = np.asarray(rng.normal(size=T))
    acov = lp.empirical_autocov(SamplePath(values=y), T - 1, demean=True)
    model_k = lp.durbin_levinson(acov, T - 1)  # must not raise
    assert model_k.v > 0


# ---------------------------------------------------------------------------
# fi_ark_closed_form


def test_closed_form_order_one():
    for d in (0.1, 0.25, 0.4):
        model_k = lp.fi_ark_closed_form(d, 1)
        np.testing.assert_allclose(model_k.phi, [d / (1 - d)], rtol=1e-13)


def test_closed_form_approaches_ar_infinity():
    d, j = 0.3, 3
    a_j = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(d), j).values[j]
    gaps = []
    for k in (20, 40, 80, 160):
        phi_j = lp.fi_ark_closed_form(d, k).phi[j - 1]
        gaps.append(abs(phi_j - (-a_j)))
    assert np.all(np.diff(gaps) < 0)


@pytest.mark.parametrize("k", [1, 50, 400, 1600])
@pytest.mark.parametrize("d", [1e-4, 0.1, 0.3, 0.49])
def test_closed_form_partials_and_v_match_the_recursion(d, k):
    # the partials d/(t - d) and v(k) come without the recursion
    model = lp.LongMemoryModel.fi(d, sigma2_eps=1.5)
    by_recursion = lp.durbin_levinson(lp.exact_autocov(model, k), k)
    closed = lp.fi_ark_closed_form(d, k, sigma2_eps=1.5)
    np.testing.assert_allclose(closed.partials, by_recursion.partials,
                               rtol=1e-10)
    np.testing.assert_allclose(closed.v, by_recursion.v, rtol=1e-12)


def ark_coeffs_mpmath(d, k, j):
    """phi_j = -a_{j,k} of FI(d) at 40 digits from its gamma closed form
    Gamma(k+1) Gamma(j-d) Gamma(k-d-j+1)
    / (Gamma(k-j+1) Gamma(j+1) |Gamma(-d)| Gamma(k-d+1)),
    with |Gamma(-d)| = Gamma(1-d)/d."""
    lg = mpmath.loggamma
    with mpmath.workdps(40):
        d = mpmath.mpf(d)
        head = lg(k + 1) - lg(k + 1 - d) - lg(1 - d) + mpmath.log(d)
        return np.array([float(mpmath.exp(head + lg(i - d) + lg(k + 1 - d - i)
                                          - lg(k + 1 - i) - lg(i + 1)))
                         for i in j])


@pytest.mark.parametrize("k", [50, 1600, 6400])
@pytest.mark.parametrize("d", [1e-4, 0.1, 0.3, 0.49])
def test_closed_form_coefficients_match_mpmath(d, k):
    # about 60 indices from both ends and the middle
    j = np.unique(np.r_[np.geomspace(1, k, 32), np.linspace(1, k, 32)]
                  .round().astype(int))
    phi = lp.fi_ark_closed_form(d, k).phi[j - 1]
    np.testing.assert_allclose(phi, ark_coeffs_mpmath(d, k, j), rtol=1e-12)


def test_closed_form_takes_no_certificate_at_tiny_d():
    # the predictor alone is asked for: ark's 1e-9 certificate, which
    # v(k) - 1 ~ 1e-321 would fail, stays off this path
    assert lp.fi_ark_closed_form(1e-160, 5).v == 1.0
    model_k = lp.fi_ark_closed_form(1e-9, 5)
    assert model_k.v == 1.0
    assert model_k.phi.tolist() == [
        1.0000000002000001e-09, 4.999999997250001e-10, 3.333333330944445e-10,
        2.4999999986250006e-10, 2.0000000004000006e-10]
    assert model_k.partials.tolist() == [
        1.000000001e-09, 5.000000002500001e-10, 3.3333333344444446e-10,
        2.500000000625e-10, 2.0000000004e-10]


def test_closed_form_domain():
    with pytest.raises(lp.DomainError):
        lp.fi_ark_closed_form(0.6, 5)
    with pytest.raises(ValueError):
        lp.fi_ark_closed_form(0.3, 0)


# ---------------------------------------------------------------------------
# the Gohberg-Semencul inverse


def test_solve_white_noise():
    acov = AutocovSeq(values=np.r_[2.0, np.zeros(6)], source="exact")
    x = _toeplitz_inverse(acov, 6) @ np.ones(6)
    np.testing.assert_allclose(x, np.ones(6) / 2.0)


def test_solve_reproduces_yule_walker():
    acov = lp.exact_autocov(lp.LongMemoryModel.fi(0.35), 20)
    sig = acov.values
    x = _toeplitz_inverse(acov, 20) @ sig[1:21]
    model_k = lp.durbin_levinson(acov, 20)
    np.testing.assert_allclose(x, model_k.phi, atol=1e-9)


def test_solve_rejects_indefinite():
    acov = AutocovSeq(values=np.array([1.0, 0.95, 0.2, 0.1]),
                      source="empirical")
    with pytest.raises(NotPositiveDefiniteError):
        _toeplitz_inverse(acov, 3)


def test_inverse_rejects_a_residual_past_tolerance():
    # cos(0.3 h) is a rank-2 covariance; the 1e-11 nugget keeps Sigma_8
    # positive definite, but its inverse is off by about 2e-5 of I
    sig = np.cos(0.3 * np.arange(9.0))
    sig[0] += 1e-11
    with pytest.raises(AccuracyError):
        _toeplitz_inverse(AutocovSeq(values=sig, source="exact"), 8)


def test_inverse_times_covariance_is_identity():
    for d in (0.1, 0.2, 0.24, 0.4):
        acov = lp.exact_autocov(lp.LongMemoryModel.fi(d), 512)
        for k in (1, 2, 8, 32, 512):
            G = _toeplitz_inverse(acov, k)
            assert np.max(np.abs(G @ toeplitz_matrix(acov, k)
                                 - np.eye(k))) <= 1e-13


def test_ones_quadratic_form_growth_exponent():
    # 1' Sigma_k^-1 1 grows like k^(1-2d); the once-displayed decaying form
    # is the reciprocal (the variance of the best linear mean estimator)
    d = 0.4
    acov = lp.exact_autocov(lp.LongMemoryModel.fi(d), 1024)
    ks = [64, 128, 256, 512, 1024]
    vals = [float(np.sum(_toeplitz_inverse(acov, k))) for k in ks]
    slope = np.polyfit(np.log(ks), np.log(vals), 1)[0]
    assert slope == pytest.approx(1 - 2 * d, abs=0.05)

