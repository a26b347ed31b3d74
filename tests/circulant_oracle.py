"""Reference circulant-embedding sampler, written out inline with the full
complex FFT.

``simulate._circulant_paths`` transforms only the half spectrum
w_0..w_h with a real transform, in blocks of replicates.  This copy finds h
by brute force, writes out the whole Hermitian vector of length m = 2h,
conjugate mirror included, takes a complex FFT over all replicates at once
and keeps the real part of its first n values.  The two do different
floating-point operations, so they agree to rounding, not bit for bit.
"""

import numpy as np

from longpred import exact_autocov
from longpred.rng import derive_rng, normals


def five_smooth_brute(n):
    """The smallest integer >= n that 2, 3 and 5 divide down to 1."""
    k = n
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


def circulant_paths_inline(acov, n, reps, seed, stream=()):
    """A (reps, n) block of circulant-sampler paths (n >= 2), replicate r
    drawn from the stream (seed, *stream, r) as ``gaussian_paths`` draws it.
    The lags 0..h come from the model of ``acov``."""
    h = five_smooth_brute(n - 1)
    m = 2 * h
    sig = exact_autocov(acov.model, h).values
    eig = np.fft.fft(np.concatenate([sig, sig[-2:0:-1]])).real
    sqrt_eig = np.sqrt(np.clip(eig, 0.0, None))
    z = np.empty((reps, m))
    for r in range(reps):
        z[r] = normals(derive_rng(seed, *stream, r), m)
    w = np.zeros((reps, m), dtype=complex)
    w[:, 0] = sqrt_eig[0] * z[:, 0]
    w[:, h] = sqrt_eig[h] * z[:, 1]
    half = np.sqrt(0.5)
    w[:, 1:h] = sqrt_eig[1:h] * half * (z[:, 2::2] + 1j * z[:, 3::2])
    w[:, h + 1 :] = np.conj(w[:, h - 1 : 0 : -1])
    return (np.fft.fft(w, axis=1).real / np.sqrt(m))[:, :n]
