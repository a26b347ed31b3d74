"""Reference Durbin-Levinson loops, written out inline as two separate
copies: one solving the Yule-Walker systems, one driving the innovations
sampler.

``toeplitz._levinson_steps`` is the one recursion the package uses for
both; these copies share no code with it and do the same floating-point
operations in the same order, so on any machine their outputs must equal
the package's bit for bit.
"""

import numpy as np

from longpred.rng import derive_rng, normals


def durbin_levinson_inline(sig, k):
    """(phi, v, partials) of the order-k Yule-Walker predictor."""
    phi = np.zeros(k)
    partials = np.zeros(k)
    v = sig[0]
    for n in range(1, k + 1):
        acc = sig[n] - np.dot(phi[: n - 1], sig[n - 1 : 0 : -1])
        refl = acc / v
        phi[: n - 1] -= refl * phi[: n - 1][::-1]
        phi[n - 1] = refl
        partials[n - 1] = refl
        v *= 1.0 - refl * refl
    return phi, float(v), partials


def innovations_paths_inline(acov, n, reps, seed, stream=()):
    """A (reps, n) block of innovations-sampler paths, replicate r drawn
    from the stream (seed, *stream, r) as ``gaussian_paths`` draws it."""
    z = np.empty((reps, n))
    for r in range(reps):
        z[r] = normals(derive_rng(seed, *stream, r), n)
    sig = acov.values
    x = np.empty((reps, n))
    x[:, 0] = np.sqrt(sig[0]) * z[:, 0]
    phi = np.zeros(n - 1)
    v = sig[0]
    for t in range(1, n):
        acc = sig[t] - np.dot(phi[: t - 1], sig[t - 1 : 0 : -1])
        refl = acc / v
        phi[: t - 1] -= refl * phi[: t - 1][::-1]
        phi[t - 1] = refl
        v *= 1.0 - refl * refl
        pred = x[:, t - 1 :: -1][:, :t] @ phi[:t]
        x[:, t] = pred + np.sqrt(v) * z[:, t]
    return x
