"""Exact Gaussian sample paths from a target autocovariance sequence.

The primary sampler embeds the n x n Toeplitz covariance in a circulant of
size 2(n-1) diagonalised by the FFT (O(n log n)); if the embedding has an
eigenvalue below -tol it falls back to the Durbin-Levinson innovations
method (O(n^2) time and O(n) memory per path, exact for any
positive-definite prefix).  ``method`` may force either sampler.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .fraccoeff import AutocovSeq
from .rng import derive_rng, normals
from .series import SamplePath
from .toeplitz import _levinson_steps

EIG_TOL_FACTOR = 1e-10  # tolerance = factor * max embedding eigenvalue


@dataclass(frozen=True)
class SimulationPlan:
    """What to simulate: covariance prefix, length, master seed and
    optional substream ids for Monte Carlo splitting."""

    acov: AutocovSeq
    n: int
    seed: int
    stream: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("path length must be >= 1")
        if len(self.acov) < self.n:
            raise ValueError(
                f"need lags 0..{self.n - 1}, have 0..{len(self.acov) - 1}"
            )


def circulant_eigenvalues(acov, n):
    """Eigenvalues of the size-2(n-1) circulant embedding of Sigma_n."""
    if n < 2:
        raise ValueError("embedding needs n >= 2")
    sig = acov.values[:n]
    c = np.concatenate([sig, sig[-2:0:-1]])
    return np.fft.fft(c).real


def _choose_method(acov, n, method):
    """The sampler ``method`` resolves to for (acov, n), plus the square
    roots of the embedding eigenvalues when it is the circulant one."""
    if method not in ("auto", "circulant", "innovations"):
        raise ValueError(f"unknown method {method!r}")
    if method == "innovations":
        return "innovations", None
    if n < 2:
        return "circulant", None
    eig = circulant_eigenvalues(acov, n)
    if eig.min() < -EIG_TOL_FACTOR * eig.max():
        if method == "circulant":
            raise NotPositiveDefiniteError(
                n, "circulant embedding has a negative eigenvalue"
            )
        return "innovations", None
    return "circulant", np.sqrt(np.clip(eig, 0.0, None))


def _circulant_paths(sqrt_eig, n, z):
    """Map a (reps, 2(n-1)) block of standard normals to exact paths."""
    m = 2 * (n - 1)
    reps = z.shape[0]
    w = np.zeros((reps, m), dtype=complex)
    w[:, 0] = sqrt_eig[0] * z[:, 0]
    w[:, n - 1] = sqrt_eig[n - 1] * z[:, 1]
    if n > 2:
        half = np.sqrt(0.5)
        interior = sqrt_eig[1 : n - 1] * half
        w[:, 1 : n - 1] = interior * (z[:, 2::2] + 1j * z[:, 3::2])
        w[:, n:] = np.conj(w[:, n - 2 : 0 : -1])
    x = np.fft.fft(w, axis=1).real / np.sqrt(m)
    return x[:, :n]


def _innovations_paths(acov, n, z):
    """Map a (reps, n) block of standard normals to exact paths, one time
    step at a time: x_t is the order-t Durbin-Levinson forecast from
    x_0..x_{t-1} plus the innovation sd times z_t.  The coefficients are
    updated in place, so the memory beyond the paths is O(n)."""
    x = np.empty((z.shape[0], n))
    x[:, 0] = np.sqrt(acov.values[0]) * z[:, 0]
    for t, phi, v in _levinson_steps(acov.values, n - 1):
        pred = x[:, t - 1 :: -1][:, :t] @ phi
        x[:, t] = pred + np.sqrt(v) * z[:, t]
    return x


def gaussian_sample(plan, method="auto"):
    """One exact zero-mean Gaussian path with covariance sigma(|i-j|).

    ``method`` may force "circulant" or "innovations"; "auto" prefers the
    circulant embedding and falls back when it is not nonnegative.
    """
    return gaussian_paths(plan.acov, plan.n, 1, plan.seed, stream=plan.stream,
                          method=method)[0]


def gaussian_paths(acov, n, reps, seed, stream=(), method="auto"):
    """A list of ``reps`` independent exact paths.

    Replicate r draws from the stream (seed, *stream, r), so any subset of
    replicates is reproducible in isolation.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    if len(acov) < n:
        raise ValueError(f"need lags 0..{n - 1}, have 0..{len(acov) - 1}")
    used, sqrt_eig = _choose_method(acov, n, method)

    nz = 2 * (n - 1) if (used == "circulant" and n > 1) else n
    z = np.empty((reps, nz))
    for r in range(reps):
        rng = derive_rng(seed, *stream, r)
        z[r] = normals(rng, nz)

    if used == "innovations":
        x = _innovations_paths(acov, n, z)
    elif n == 1:
        x = np.sqrt(acov.values[0]) * z
    else:
        x = _circulant_paths(sqrt_eig, n, z)

    return [
        SamplePath(values=x[r], seed=(int(seed), *stream, r), model=acov.model,
                   sim_method=used)
        for r in range(reps)
    ]
