"""Reference circulant-embedding sampler, written out inline with the full
complex FFT.

``simulate._circulant_paths`` transforms only the half spectrum
w_0..w_{n-1} with a real transform, in blocks of replicates.  This copy
writes out the whole Hermitian vector of length m = 2(n-1), conjugate mirror
included, takes a complex FFT over all replicates at once and keeps the real
part.  The two do different floating-point operations, so they agree to
rounding, not bit for bit.
"""

import numpy as np

from longpred.rng import derive_rng, normals


def circulant_paths_inline(acov, n, reps, seed, stream=()):
    """A (reps, n) block of circulant-sampler paths (n >= 2), replicate r
    drawn from the stream (seed, *stream, r) as ``gaussian_paths`` draws it."""
    m = 2 * (n - 1)
    sig = acov.values[:n]
    eig = np.fft.fft(np.concatenate([sig, sig[-2:0:-1]])).real
    sqrt_eig = np.sqrt(np.clip(eig, 0.0, None))
    z = np.empty((reps, m))
    for r in range(reps):
        z[r] = normals(derive_rng(seed, *stream, r), m)
    w = np.zeros((reps, m), dtype=complex)
    w[:, 0] = sqrt_eig[0] * z[:, 0]
    w[:, n - 1] = sqrt_eig[n - 1] * z[:, 1]
    half = np.sqrt(0.5)
    w[:, 1 : n - 1] = sqrt_eig[1 : n - 1] * half * (z[:, 2::2] + 1j * z[:, 3::2])
    w[:, n:] = np.conj(w[:, n - 2 : 0 : -1])
    return (np.fft.fft(w, axis=1).real / np.sqrt(m))[:, :n]
