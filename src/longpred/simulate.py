"""Exact Gaussian sample paths from a target autocovariance sequence.

The primary sampler embeds the n x n Toeplitz covariance in a circulant of
size m = 2(n-1) (Davies & Harte 1987; Wood & Chan 1994), whose eigenvalues
and paths are real transforms of a half spectrum of n values; replicates
go through it in blocks of ``_BLOCK``, so the memory beyond the paths is
one block.  If the embedding has an eigenvalue below -tol, or n = 1, the
Durbin-Levinson innovations method (O(n^2), exact for any positive-definite
prefix) takes over.  ``method`` may force either sampler.
"""

import numpy as np

from .errors import NotPositiveDefiniteError
from .rng import derive_rng, normals
from .series import SamplePath
from .toeplitz import _levinson_steps

EIG_TOL_FACTOR = 1e-10  # tolerance = factor * max embedding eigenvalue
# circulant replicates per transform; a path does not depend on it.  One per
# transform rebuilds the FFT plan each time (Bluestein when n - 1 is prime);
# all at once holds a complex array several times the size of the paths.
_BLOCK = 16


def circulant_eigenvalues(acov, n):
    """Eigenvalues of the size-2(n-1) circulant embedding of Sigma_n."""
    if n < 2:
        raise ValueError("embedding needs n >= 2")
    return np.fft.hfft(acov.values[:n], 2 * (n - 1))


def _choose_method(acov, n, method):
    """The sampler ``method`` resolves to for (acov, n), plus the square
    roots of the embedding eigenvalues when it is the circulant one."""
    if method not in ("auto", "circulant", "innovations"):
        raise ValueError(f"unknown method {method!r}")
    if method == "innovations" or n < 2:
        return "innovations", None
    eig = circulant_eigenvalues(acov, n)
    if eig.min() < -EIG_TOL_FACTOR * eig.max():
        if method == "circulant":
            raise NotPositiveDefiniteError(
                n, "circulant embedding has a negative eigenvalue"
            )
        return "innovations", None
    return "circulant", np.sqrt(np.clip(eig, 0.0, None))


def _normals(seed, stream, reps, size):
    """Row i drawn from the stream (seed, *stream, reps[i])."""
    z = np.empty((len(reps), size))
    for i, r in enumerate(reps):
        z[i] = normals(derive_rng(seed, *stream, r), size)
    return z


def _circulant_paths(sqrt_eig, n, z):
    """Map a (block, 2(n-1)) array of standard normals to exact paths:
    each row's w_0..w_{n-1} is the half spectrum of a Hermitian vector."""
    w = np.empty((z.shape[0], n), dtype=complex)
    w[:, 0] = sqrt_eig[0] * z[:, 0]
    w[:, n - 1] = sqrt_eig[n - 1] * z[:, 1]
    interior = sqrt_eig[1 : n - 1] * np.sqrt(0.5)
    w[:, 1 : n - 1] = interior * (z[:, 2::2] + 1j * z[:, 3::2])
    m = 2 * (n - 1)
    return np.fft.hfft(w, m, axis=1)[:, :n] / np.sqrt(m)


def _innovations_paths(acov, n, z):
    """Map a (reps, n) block of standard normals to exact paths, one time
    step at a time: x_t is the order-t Durbin-Levinson forecast from
    x_0..x_{t-1} plus the innovation sd times z_t.  Step t reads z_t only to
    write x_t, so the paths overwrite the normals and are returned in their
    array; the coefficients are updated in place, so the memory beyond it
    is O(n)."""
    z[:, 0] *= np.sqrt(acov.values[0])
    for t, phi, v in _levinson_steps(acov.values, n - 1):
        pred = z[:, t - 1 :: -1][:, :t] @ phi
        z[:, t] = pred + np.sqrt(v) * z[:, t]
    return z


def gaussian_paths(acov, n, reps, seed, stream=(), method="auto"):
    """``reps`` independent exact zero-mean Gaussian paths of length ``n``
    with covariance sigma(|i-j|), as a list of ``SamplePath``.

    ``method`` may force "circulant" or "innovations"; "auto" prefers the
    circulant embedding and falls back when it is not nonnegative.
    Replicate r draws from the stream (seed, *stream, r), so any subset of
    replicates is reproducible in isolation.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    if len(acov) < n:
        raise ValueError(f"need lags 0..{n - 1}, have 0..{len(acov) - 1}")
    used, sqrt_eig = _choose_method(acov, n, method)

    if used == "innovations":
        x = _innovations_paths(acov, n, _normals(seed, stream, range(reps), n))
    else:
        x = np.empty((reps, n))
        for start in range(0, reps, _BLOCK):
            stop = min(start + _BLOCK, reps)
            z = _normals(seed, stream, range(start, stop), 2 * (n - 1))
            x[start:stop] = _circulant_paths(sqrt_eig, n, z)

    return [
        SamplePath(values=x[r], seed=(int(seed), *stream, r), model=acov.model,
                   sim_method=used)
        for r in range(reps)
    ]
