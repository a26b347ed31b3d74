"""Reference route for spectral integrals: adaptive quadrature of the
spectral density after a substitution that removes its singularity at 0.

``compute_H_quadrature`` integrates every entry of H on its own from
``spectral_density`` and shares no code with the finite autocovariance
identity that ``compute_H`` evaluates, so the two routes check each other.
"""

import numpy as np
from scipy.integrate import quad

import longpred as lp
from longpred.errors import DomainError


def integrate_symmetric_singular(g, alpha, rtol=1e-10, split=0.5):
    """integral_{-pi}^{pi} g(lambda) d lambda for an even g with an
    integrable |lambda|^(-alpha) singularity at 0 (0 <= alpha < 1).

    The singular piece uses the substitution u = lambda^(1-alpha).
    """
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"singularity exponent {alpha} outside [0, 1)")
    beta = 1.0 - alpha

    def transformed(u):
        lam = u ** (1.0 / beta)
        return g(lam) * (1.0 / beta) * u ** (1.0 / beta - 1.0)

    i_sing, _ = quad(transformed, 0.0, split ** beta, epsabs=0.0, epsrel=rtol,
                     limit=200)
    i_reg, _ = quad(g, split, np.pi, epsabs=0.0, epsrel=rtol, limit=200)
    return 2.0 * (i_sing + i_reg)


def compute_H_quadrature(model, model_k):
    """H_ij = integral h^(i) h^(j) f^2 over [-pi, pi], one quadrature per
    entry, with h^(r) = -2 [cos(r lambda) - sum_s phi_s cos((r-s) lambda)]."""
    k = model_k.k
    phi = model_k.phi
    s = np.arange(1, k + 1)

    def deriv(r, lam):
        return -2.0 * (np.cos(r * lam) - np.dot(phi, np.cos((r - s) * lam)))

    H = np.empty((k, k))
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            def integrand(lam, i=i, j=j):
                f = lp.spectral_density(model, lam)
                return deriv(i, lam) * deriv(j, lam) * f * f

            H[i - 1, j - 1] = H[j - 1, i - 1] = integrate_symmetric_singular(
                integrand, 4.0 * model.d)
    return H
