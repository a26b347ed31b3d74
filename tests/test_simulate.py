import tracemalloc

import numpy as np
import pytest

import longpred as lp
from longpred.errors import NotPositiveDefiniteError
from longpred.rng import derive_rng, normals
from longpred.simulate import (EIG_TOL_FACTOR, _five_smooth,
                               circulant_eigenvalues, path_blocks)

from circulant_oracle import circulant_paths_inline, five_smooth_brute
from dense_toeplitz import toeplitz_matrix
from levinson_oracle import innovations_paths_inline


def fi_acov(d, m, sigma2=1.0):
    return lp.exact_autocov(lp.LongMemoryModel.fi(d, sigma2_eps=sigma2), m)


def test_fixed_seed_reproducible():
    acov = fi_acov(0.3, 255)
    p1 = lp.gaussian_paths(acov, 256, 1, seed=12345)[0]
    p2 = lp.gaussian_paths(acov, 256, 1, seed=12345)[0]
    np.testing.assert_array_equal(p1.values, p2.values)
    assert p1.sim_method == "circulant"
    assert p1.seed == (12345, 0)


def _cosine_acov(n):
    """cos(h) plus a unit nugget at lag 0: positive definite at every n,
    while its circulant embedding has a negative eigenvalue for n >= 3."""
    h = np.arange(n)
    return lp.AutocovSeq(values=np.cos(h) + 0.1 * (h == 0), source="exact")


@pytest.mark.parametrize("reps", [1, 15, 16, 17, 37])
@pytest.mark.parametrize("sampler, n", [
    ("circulant", 2), ("circulant", 3), ("circulant", 4097),
    ("innovations", 2), ("innovations", 3), ("innovations", 4097),
    # a 2 x 2 embedding is the covariance itself, so n = 2 never falls back
    ("fallback", 3), ("fallback", 4097),
])
def test_path_blocks_concatenate_to_gaussian_paths(sampler, n, reps):
    # blocks in order cover every replicate once, and together they are
    # the collected paths bit for bit; each circulant block is written over
    # the last, so it is copied as it comes
    if sampler == "fallback":
        acov, method, used = _cosine_acov(n), "auto", "innovations"
    else:
        acov, method, used = fi_acov(0.4, n - 1), sampler, sampler
    paths = lp.gaussian_paths(acov, n, reps, 31, stream=(2, 5), method=method)
    assert {p.sim_method for p in paths} == {used}
    starts, rows = [], []
    for start, block in path_blocks(acov, n, reps, 31, stream=(2, 5),
                                    method=method):
        starts.append(start)
        rows.append(block.copy())
    x = np.concatenate(rows)
    assert x.shape == (reps, n)
    assert np.array_equal(x, np.array([p.values for p in paths]))
    sizes = [len(r) for r in rows]
    assert starts == list(np.cumsum([0] + sizes[:-1]))
    if used == "circulant":
        assert max(sizes) <= 16
    else:
        assert sizes == [reps]


def test_path_blocks_checks_its_arguments_when_called():
    acov = fi_acov(0.3, 10)
    with pytest.raises(ValueError):
        path_blocks(acov, 12, 1, seed=1)
    with pytest.raises(NotPositiveDefiniteError):
        path_blocks(_cosine_acov(5), 5, 1, seed=1, method="circulant")


def test_batch_matches_individual_streams():
    # 15/16 and 39 sit on either side of a block boundary and in the last,
    # partial block of the circulant sampler
    acov = fi_acov(0.25, 63)
    batch = lp.gaussian_paths(acov, 64, 40, seed=9, stream=(2,))
    for r in (0, 15, 16, 39):
        single = lp.gaussian_paths(acov, 64, r + 1, seed=9, stream=(2,))[r]
        np.testing.assert_array_equal(batch[r].values, single.values)


def test_different_seeds_differ():
    acov = fi_acov(0.3, 63)
    a = lp.gaussian_paths(acov, 64, 1, seed=1)[0].values
    b = lp.gaussian_paths(acov, 64, 1, seed=2)[0].values
    assert not np.array_equal(a, b)


def test_lag_zero_moment_mc():
    acov = fi_acov(0.3, 1023)
    sigma0 = acov.values[0]
    paths = lp.gaussian_paths(acov, 1024, 200, seed=77, stream=(8,))
    est = np.mean([np.mean(p.values ** 2) for p in paths])
    np.testing.assert_allclose(est, sigma0, rtol=0.05)


@pytest.mark.parametrize("d", [0.1, 0.25, 0.45])
def test_fi_embedding_is_nonnegative(d):
    acov = fi_acov(d, 4095)
    eig = circulant_eigenvalues(acov, 4096)
    assert eig.min() >= -EIG_TOL_FACTOR * eig.max()


def test_small_matrix_covariance_entrywise():
    n, reps = 64, 20000
    acov = fi_acov(0.3, n - 1)
    paths = lp.gaussian_paths(acov, n, reps, seed=99, stream=(1,))
    x = np.stack([p.values for p in paths])
    emp = x.T @ x / reps
    true = toeplitz_matrix(acov, n)
    se = np.sqrt((np.outer(np.diag(true), np.diag(true)) + true ** 2) / reps)
    assert np.max(np.abs(emp - true) / se) <= 4.0


def test_innovations_and_circulant_agree_statistically():
    # each sampler against the exact moments, then against each other;
    # all at the 1% level
    n, reps = 256, 2000
    acov = fi_acov(0.3, n - 1)
    sig = acov.values
    xi = np.stack([p.values for p in
                   lp.gaussian_paths(acov, n, reps, seed=500, stream=(2,),
                                     method="innovations")])
    xc = np.stack([p.values for p in
                   lp.gaussian_paths(acov, n, reps, seed=501, stream=(3,),
                                     method="circulant")])
    for x in (xi, xc):
        for stat, truth in (((x ** 2).mean(axis=1), sig[0]),
                            ((x[:, 1:] * x[:, :-1]).mean(axis=1), sig[1])):
            z = (stat.mean() - truth) / (stat.std(ddof=1) / np.sqrt(reps))
            assert abs(z) < 2.576
    for a, b in (
        ((xi ** 2).mean(axis=1), (xc ** 2).mean(axis=1)),
        ((xi[:, 1:] * xi[:, :-1]).mean(axis=1),
         (xc[:, 1:] * xc[:, :-1]).mean(axis=1)),
    ):
        z = (a.mean() - b.mean()) / np.sqrt(a.var(ddof=1) / reps
                                            + b.var(ddof=1) / reps)
        assert abs(z) < 2.576


def test_innovations_covariance_exact_small_n():
    n, reps = 8, 20000
    acov = fi_acov(0.4, n - 1)
    paths = lp.gaussian_paths(acov, n, reps, seed=55, stream=(4,),
                              method="innovations")
    x = np.stack([p.values for p in paths])
    emp = x.T @ x / reps
    true = toeplitz_matrix(acov, n)
    se = np.sqrt((np.outer(np.diag(true), np.diag(true)) + true ** 2) / reps)
    assert np.max(np.abs(emp - true) / se) <= 4.0


def test_innovations_sampler_memory_is_linear_in_n():
    # the coefficients are updated in place: storing every order's vector
    # would trace about 64 MB at n = 4096
    acov = fi_acov(0.3, 4095)
    tracemalloc.start()
    try:
        lp.gaussian_paths(acov, 4096, 2, 1, method="innovations")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_innovations_paths_overwrite_their_normals():
    # normals beside the paths would trace twice the bytes of the paths
    acov = fi_acov(0.3, 4095)
    tracemalloc.start()
    try:
        lp.gaussian_paths(acov, 4096, 100, 1, method="innovations")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 100 * 4096 * 8


@pytest.mark.parametrize("d, n, reps", [(0.3, 2048, 4), (0.3, 512, 8),
                                         (0.45, 64, 16), (0.1, 2, 3)])
def test_innovations_paths_match_the_inline_recursion(d, n, reps):
    # the sampler steps the shared Durbin-Levinson recursion; an inline
    # copy of the loop doing the same arithmetic must agree bit for bit
    acov = fi_acov(d, n - 1)
    x = np.array([p.values for p in lp.gaussian_paths(
        acov, n, reps, 2024, stream=(7,), method="innovations")])
    assert np.array_equal(
        x, innovations_paths_inline(acov, n, reps, 2024, stream=(7,)))


@pytest.mark.parametrize("method", ["auto", "circulant"])
def test_length_one_path_is_one_scaled_variate(method):
    # a length-1 path forms no embedding: the innovations sampler draws
    # the single variate of replicate 0's stream
    acov = fi_acov(0.3, 0, sigma2=4.0)
    path = lp.gaussian_paths(acov, 1, 1, seed=17, method=method)[0]
    expected = np.sqrt(acov.values[0]) * normals(derive_rng(17, 0), 1)
    assert np.array_equal(path.values, expected)
    assert path.sim_method == "innovations"


def test_five_smooth_matches_brute_force():
    assert [_five_smooth(n) for n in range(2, 20001)] == [
        five_smooth_brute(n) for n in range(2, 20001)]


@pytest.mark.parametrize("d, n, reps", [(0.3, 2, 5), (0.45, 3, 7),
                                         (0.1, 8192, 20), (0.4, 32768, 4),
                                         (0.25, 64, 37), (0.4, 16, 5),
                                         (0.3, 17, 17), (0.45, 4097, 3)])
def test_circulant_paths_match_the_full_complex_embedding(d, n, reps):
    # the half-spectrum real transform, in blocks, against the whole
    # Hermitian vector of length 2h under one complex FFT; 37 replicates
    # cross two block boundaries, and n = 16, 17 and 4097 have h = 15, 16
    # and 4096
    acov = fi_acov(d, n - 1)
    paths = lp.gaussian_paths(acov, n, reps, 2024, stream=(7,),
                              method="circulant")
    x = np.array([p.values for p in paths])
    oracle = circulant_paths_inline(acov, n, reps, 2024, stream=(7,))
    assert np.max(np.abs(x - oracle)) <= 1e-13 * np.sqrt(acov.values[0])


@pytest.mark.parametrize("model", [
    lp.LongMemoryModel.fi(0.3),
    lp.LongMemoryModel.farima(0.3, ar=(0.5,), ma=(0.3,)),
])
@pytest.mark.parametrize("n", [2, 17, 1000, 4096])
def test_paths_do_not_depend_on_the_lags_passed(model, n):
    # the embedding needs lags 0..h, h = 5-smooth >= n - 1; with n - 1 lags
    # the sampler takes the rest from the model, and with more it ignores
    # them
    h = _five_smooth(n - 1)
    paths = [np.array([p.values for p in lp.gaussian_paths(
        lp.exact_autocov(model, lags), n, 5, 41, stream=(3,))])
        for lags in (n - 1, h, 2 * n)]
    assert np.array_equal(paths[0], paths[1])
    assert np.array_equal(paths[0], paths[2])


def test_embedding_without_a_model_needs_every_lag():
    # n = 1000 has h = 1000: n lags and no model cannot fill the embedding,
    # while the innovations sampler needs only the n lags it has
    acov = lp.AutocovSeq(values=fi_acov(0.3, 999).values, source="exact")
    with pytest.raises(ValueError, match=r"lags 0\.\.1000"):
        lp.gaussian_paths(acov, 1000, 1, seed=1)
    paths = lp.gaussian_paths(acov, 1000, 1, seed=1, method="innovations")
    assert paths[0].sim_method == "innovations"


@pytest.mark.parametrize("d", [0.01, 0.25, 0.45, 0.499])
def test_fi_embedding_stays_circulant_at_8192(d):
    acov = fi_acov(d, 8191)
    assert lp.gaussian_paths(acov, 8192, 1, seed=1)[0].sim_method == (
        "circulant")


def test_farima_with_an_ar_root_near_one_still_falls_back():
    # FARIMA(0.4; ar 0.99) at n = 1024: sigma(h) is still large at the
    # embedding's far end, so the circulant has a negative eigenvalue
    acov = lp.exact_autocov(lp.LongMemoryModel.farima(0.4, ar=(0.99,)), 1023)
    eig = circulant_eigenvalues(acov, 1024)
    assert eig.size == 2048
    assert eig.min() < -EIG_TOL_FACTOR * eig.max()
    assert lp.gaussian_paths(acov, 1024, 1, seed=1)[0].sim_method == (
        "innovations")


def test_circulant_sampler_memory_is_the_paths_plus_a_block():
    # a (reps, 2(n-1)) complex array alone would be 4x the bytes of the paths
    acov = fi_acov(0.4, 32767)
    tracemalloc.start()
    try:
        paths = lp.gaussian_paths(acov, 32768, 400, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths[0].sim_method == "circulant"
    assert peak < 2 * 400 * 32768 * 8


def test_long_circulant_blocks_hold_one_embedding_at_a_time():
    # sixteen replicates per transform would trace 37 MB here
    acov = fi_acov(0.4, 65535)
    tracemalloc.start()
    try:
        for _ in path_blocks(acov, 65536, 16, 1, method="circulant"):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("n", [2, 1025, 4097, 32768, 65536])
def test_circulant_block_rows_fit_the_value_budget(n):
    acov = fi_acov(0.4, n - 1)
    m = 2 * _five_smooth(n - 1)
    rows = max(1, min(16, 2**16 // m))
    reps = 2 * rows + 1
    sizes = [len(block) for _, block in
             path_blocks(acov, n, reps, 3, method="circulant")]
    assert sum(sizes) == reps
    assert max(sizes) <= rows


def test_path_lengths_one_and_two():
    acov = fi_acov(0.3, 4, sigma2=4.0)
    sigma0 = acov.values[0]
    one = np.array([lp.gaussian_paths(acov, 1, 1, seed=s)[0].values[0]
                    for s in range(4000)])
    np.testing.assert_allclose(np.mean(one ** 2), sigma0, rtol=0.1)
    two = np.stack([lp.gaussian_paths(acov, 2, 1, seed=s)[0].values
                    for s in range(4000)])
    np.testing.assert_allclose(np.mean(two[:, 0] * two[:, 1]),
                               acov.values[1], rtol=0.15)


def test_plan_validation():
    acov = fi_acov(0.3, 10)
    with pytest.raises(ValueError):
        lp.gaussian_paths(acov, 0, 1, seed=1)
    with pytest.raises(ValueError):
        lp.gaussian_paths(acov, 12, 1, seed=1)
