"""Exact Gaussian sample paths from a target autocovariance sequence.

The primary sampler embeds the n x n Toeplitz covariance in a circulant of
size m = 2h, h the smallest 5-smooth integer >= n - 1 (Davies & Harte 1987;
Wood & Chan 1994 allow any m >= 2(n-1)), so that every transform has a fast
length: h = n for the power-of-two n of the Monte Carlo grids.  Its
eigenvalues and paths are real transforms of a half spectrum of h + 1
values, and a path is the first n values of a transform.  Replicates go
through it in blocks of max(1, min(16, 2^16 // m)): 16 up to n = 2049,
one from n = 2^14 + 2 on.  The blocks are built in buffers allocated once
per call, so ``path_blocks`` holds about 2 max(2^16, m) floats whatever
the number of replicates.  If the embedding has an eigenvalue below -tol,
or n = 1, the Durbin-Levinson innovations method (O(n^2), exact for any
positive-definite prefix) takes over.  ``method`` may force either sampler.
"""

import numpy as np

from .errors import NotPositiveDefiniteError
from .fraccoeff import exact_autocov
from .rng import derive_rng, normals
from .series import SamplePath
from .toeplitz import _levinson_steps

EIG_TOL_FACTOR = 1e-10  # tolerance = factor * max embedding eigenvalue
# circulant replicates per transform and per yielded block: as many of the
# size-m embeddings as fit ``_BLOCK_FLOATS`` values, at least one and at
# most ``_BLOCK``.  A path does not depend on it.  One per transform pays
# the per-call cost of the transform for every path, which only short
# paths notice; 16 per transform at any length hold 2 * 16 * m floats,
# 537 MB at n = 2^20, against 34 MB for one.
_BLOCK = 16
_BLOCK_FLOATS = 2**16


def _five_smooth(n):
    """The smallest integer >= n whose only prime factors are 2, 3 and 5."""
    best = 1
    while best < n:
        best *= 2
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def circulant_eigenvalues(acov, n):
    """Eigenvalues of the size-2h circulant embedding of Sigma_n, h the
    smallest 5-smooth integer >= n - 1, from the lags sigma(0..h).

    The embedding depends on n alone.  Lags the caller did not pass come
    from ``exact_autocov`` of the sequence's model, whose values do not
    depend on how many lags are asked for, so neither does a path."""
    if n < 2:
        raise ValueError("embedding needs n >= 2")
    h = _five_smooth(n - 1)
    if len(acov) > h:
        lags = acov.values[: h + 1]
    elif acov.model is None:
        raise ValueError(f"the circulant embedding of a length-{n} path "
                         f"needs lags 0..{h}, have 0..{len(acov) - 1} and "
                         f"no model to extend them")
    else:
        lags = exact_autocov(acov.model, h).values
    return np.fft.hfft(lags, 2 * h)


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


def _circulant_paths(sqrt_eig, n, reps, seed, stream):
    """Yield (start, paths) for consecutive blocks of up to
    max(1, min(``_BLOCK``, ``_BLOCK_FLOATS`` // m)) replicates, each path
    the first n values of one real transform of the half spectrum
    w_0..w_h of a Hermitian vector of length m = 2h = ``sqrt_eig.size``.

    Replicate r's m normals z go straight into the float view of its row
    of w, that is Re w_0, Im w_0, ..., Re w_{h-1}, Im w_{h-1}; z_1 then
    moves to Re w_h and the imaginary slots of w_0 and w_h are zeroed.  One
    scale vector holds sqrt(lambda_0), sqrt(lambda_h) and
    +-sqrt(lambda_k / 2) in between, the imaginary entries negated, so the
    product is the conjugate that ``np.fft.hfft`` would transform, and the
    paths are its arithmetic bit for bit.  The arrays are allocated once
    and every block is written over the last one.
    """
    m = sqrt_eig.size
    h = m // 2
    rows = max(1, min(_BLOCK, _BLOCK_FLOATS // m, reps))
    w = np.empty((rows, h + 1), dtype=complex)
    wf = w.view(float)
    y = np.empty((rows, m))
    half = sqrt_eig[1:h] * np.sqrt(0.5)
    scale = np.zeros(m + 2)
    scale[0], scale[m] = sqrt_eig[0], sqrt_eig[h]
    scale[2:m:2], scale[3:m:2] = half, -half
    root_m = np.sqrt(m)
    for start in range(0, reps, rows):
        b = min(rows, reps - start)
        for i in range(b):
            normals(derive_rng(seed, *stream, start + i), m, out=wf[i, :m])
        wf[:b, m] = wf[:b, 1]
        wf[:b, 1] = wf[:b, m + 1] = 0.0
        np.multiply(wf[:b], scale, out=wf[:b])
        np.fft.irfft(w[:b], m, axis=1, norm="forward", out=y[:b])
        x = y[:b, :n]
        yield start, np.divide(x, root_m, out=x)


def _innovations_paths(acov, n, reps, seed, stream):
    """Yield (0, paths), all replicates in one block, made one time step at
    a time: x_t is the order-t Durbin-Levinson forecast from x_0..x_{t-1}
    plus the innovation sd times z_t.  Step t reads z_t only to write x_t,
    so the paths overwrite the normals in their array; the coefficients
    are updated in place, so the memory beyond it is O(n)."""
    z = np.empty((reps, n))
    for r in range(reps):
        normals(derive_rng(seed, *stream, r), n, out=z[r])
    z[:, 0] *= np.sqrt(acov.values[0])
    for t, phi, v in _levinson_steps(acov.values, n - 1):
        pred = z[:, t - 1 :: -1][:, :t] @ phi
        z[:, t] = pred + np.sqrt(v) * z[:, t]
    yield 0, z


def _sampler(acov, n, reps, seed, stream, method):
    """The sampler ``method`` resolves to and a generator of its blocks."""
    if n < 1:
        raise ValueError("path length must be >= 1")
    if len(acov) < n:
        raise ValueError(f"need lags 0..{n - 1}, have 0..{len(acov) - 1}")
    used, sqrt_eig = _choose_method(acov, n, method)
    if used == "innovations":
        return used, _innovations_paths(acov, n, reps, seed, stream)
    return used, _circulant_paths(sqrt_eig, n, reps, seed, stream)


def path_blocks(acov, n, reps, seed, stream=(), method="auto"):
    """The paths of ``gaussian_paths`` as an iterator of (start, block):
    block is a (rows, n) array holding replicates start..start+rows-1, and
    the blocks cover 0..reps-1 in order.

    The circulant sampler yields blocks of at most ``_BLOCK`` rows, fewer
    for long paths (see ``_circulant_paths``), each written over the
    previous one in the same buffer, so the memory is one block whatever
    ``reps`` is; a caller must consume (or copy) a block before it
    asks for the next.  The innovations sampler yields all replicates as
    one block.  The arguments are checked when this is called.
    """
    return _sampler(acov, n, reps, seed, stream, method)[1]


def gaussian_paths(acov, n, reps, seed, stream=(), method="auto"):
    """``reps`` independent exact zero-mean Gaussian paths of length ``n``
    with covariance sigma(|i-j|), as a list of ``SamplePath``.

    ``method`` may force "circulant" or "innovations"; "auto" prefers the
    circulant embedding and falls back when it is not nonnegative.
    Replicate r draws from the stream (seed, *stream, r), so any subset of
    replicates is reproducible in isolation.  This collects the blocks of
    ``path_blocks`` into one (reps, n) array, which the innovations sampler
    writes itself; a caller that reduces each path to a few numbers should
    take the blocks instead and hold one at a time.
    """
    used, blocks = _sampler(acov, n, reps, seed, stream, method)
    if used == "innovations":
        ((_, x),) = blocks
    else:
        x = np.empty((reps, n))
        for start, block in blocks:
            x[start : start + len(block)] = block
    return [
        SamplePath(values=x[r], seed=(int(seed), *stream, r), model=acov.model,
                   sim_method=used)
        for r in range(reps)
    ]
