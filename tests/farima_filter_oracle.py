"""Reference FARIMA sequences that call ``scipy.signal.lfilter`` directly.

The package filters every FARIMA sequence through its ARMA part in one
private helper, ``fraccoeff._arma_filter``, which does lfilter's arithmetic
in lfilter's order without importing scipy.signal.  These copies write the
lfilter call out inline, with the same arguments and dtypes as the
package's callers, and otherwise follow the package's value paths operation
for operation (the FI factors come from the package's own FI helpers), so
on any machine their outputs must equal the package's bit for bit.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.signal import lfilter

from longpred.fraccoeff import (LongMemoryModel, _clamp_subnormal, _fi_acf,
                                _fi_ar_values, _fi_delta)

WIDE = np.longdouble

# FARIMA(d; ar 0.5; ma 0.3) and FARIMA(d; ar 0.9), the latter with H = 395
MODELS = [LongMemoryModel.farima(d, ar=ar, ma=ma)
          for d in (0.1, 0.4) for ar, ma in (((0.5,), (0.3,)), ((0.9,), ()))]


def arma_polys(model):
    return (np.r_[1.0, -np.asarray(model.ar_poly)],
            np.r_[1.0, np.asarray(model.ma_poly)])


def ar_inf_inline(model, n):
    """a_0..a_n: the FI coefficients filtered through phi/theta."""
    phi, theta = arma_polys(model)
    return _clamp_subnormal(lfilter(phi, theta, _fi_ar_values(model.d, n)))[0]


def ma_inf_inline(model, n):
    """b_0..b_n: the FI coefficients of -d filtered through theta/phi."""
    phi, theta = arma_polys(model)
    return _clamp_subnormal(lfilter(theta, phi, _fi_ar_values(-model.d, n)))[0]


def farima_autocov_inline(model, m, dtype):
    """sigma(0..m) in the precision of dtype by ARMA x FI splitting."""
    phi, theta = arma_polys(model)
    H = theta.size - 1
    if phi.size > 1:
        R = 1.0 / np.min(np.abs(npoly.polyroots(phi)))
        H += math.ceil(math.log(2.0 ** -60) / math.log(R))
    impulse = np.zeros(2 * H + 1, dtype)
    impulse[0] = 1.0
    psi = lfilter(theta.astype(dtype), phi.astype(dtype), impulse)
    g = np.correlate(psi, psi, "full")[2 * H : 3 * H + 1]
    delta = _fi_delta(model.d)[0]
    r = _fi_acf(dtype(model.d), m + H)
    r_ext = np.r_[r[H:0:-1], r]
    corr = np.convolve(r_ext, np.r_[g[:0:-1], g], "valid")
    return model.sigma2_eps * (1 + dtype(delta)) * corr


def truncation_excess_inline(model, k):
    """sigma2 (b + delta (1 + b)) of the length-(k+1) truncated filter."""
    phi, theta = arma_polys(model)
    a = lfilter(phi.astype(WIDE), theta.astype(WIDE),
                _fi_ar_values(WIDE(model.d), k))[1:]
    s = farima_autocov_inline(model, k, WIDE)
    rho = s[1:] / s[0]
    delta = s[0] / model.sigma2_eps - 1
    tail = np.correlate(a, a, "full")[k - 1 :]
    w = a.copy()
    w[:-1] += tail[1:]
    b = np.sum(np.r_[tail[0], 2 * w * rho])
    return model.sigma2_eps * float(b + delta * (1 + b))
