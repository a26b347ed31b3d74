"""Next-step forecasts from a finite window.

Windows are oldest-first; the forecast target is the element that would
follow the last observation.  All four predictors are linear in the window:

* truncated Wiener-Kolmogorov: -sum_{j=1}^{k} a_j X_{k+1-j} with the exact
  AR-infinity coefficients,
* fitted AR(k): sum_{j=1}^{k} phi_j X_{n+1-j} from a Yule-Walker solution,
* plug-in variants of both, with coefficients estimated from an independent
  training realisation (Whittle fit, resp. empirical Yule-Walker).
"""

from dataclasses import dataclass

import numpy as np

from .fraccoeff import LongMemoryModel, ar_inf_coeffs
from .series import SamplePath
from .spectral import whittle_fit
from .toeplitz import durbin_levinson, empirical_autocov

METHODS = ("wk_trunc", "ark", "wk_plugin", "ark_plugin")


@dataclass(frozen=True)
class Forecast:
    value: float
    method: str
    order: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def wk_truncated_predict(arcoeffs, window):
    """Truncated Wiener-Kolmogorov forecast -sum_{j=1}^k a_j X_{k+1-j}.

    ``arcoeffs`` must be an AR-infinity prefix at least as long as the
    window (a_0..a_k for a window of length k).
    """
    if arcoeffs.convention != "ar_inf":
        raise ValueError("wk_truncated_predict needs AR-infinity coefficients")
    w = window.values
    k = w.size
    if len(arcoeffs) < k + 1:
        raise ValueError(
            f"coefficient prefix (length {len(arcoeffs)}) shorter than window "
            f"needs a_0..a_{k}"
        )
    value = -float(np.dot(arcoeffs.values[1 : k + 1], w[::-1]))
    return Forecast(value=value, method="wk_trunc", order=k)


def ark_predict(model_k, window):
    """AR(k) forecast sum_{j=1}^k phi_j X_{n+1-j} from the k newest values."""
    w = window.values
    k = model_k.k
    if w.size < k:
        raise ValueError(f"window of length {w.size} shorter than order {k}")
    recent = w[-k:]
    value = float(np.dot(model_k.phi, recent[::-1]))
    return Forecast(value=value, method="ark", order=k)


def wk_plugin_predict(train, window, k):
    """Truncated Wiener-Kolmogorov forecast with Whittle-estimated
    coefficients.

    The training realisation must be independent of the prediction window;
    that independence is the caller's responsibility.
    """
    if window.values.size < k:
        raise ValueError("window shorter than requested order")
    fit = whittle_fit(train)
    model = LongMemoryModel.fi(fit.d_hat, sigma2_eps=fit.sigma2_hat)
    coeffs = ar_inf_coeffs(model, k)
    recent = SamplePath(values=window.values[-k:])
    inner = wk_truncated_predict(coeffs, recent)
    return Forecast(value=inner.value, method="wk_plugin", order=k)


def ark_plugin_predict(train, window, k):
    """AR(k) forecast with coefficients from empirical Yule-Walker equations."""
    if window.values.size < k:
        raise ValueError("window shorter than requested order")
    acov = empirical_autocov(train, k)
    model_k = durbin_levinson(acov, k)
    inner = ark_predict(model_k, window)
    return Forecast(value=inner.value, method="ark_plugin", order=k)
