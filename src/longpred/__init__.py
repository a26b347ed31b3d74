"""Next-step linear prediction for long-memory time series.

Truncated Wiener-Kolmogorov and fitted AR(k) predictors for FI(d) and
FARIMA(p, d, q) processes, their exact prediction-risk quantities, Whittle
and Yule-Walker estimation, exact Gaussian simulation, and a reproducible
Monte Carlo harness for the asymptotic rate claims.
"""

__version__ = "0.1.0"

from .errors import (AccuracyError, DomainError, EstimationError,
                     InternalConsistencyError, NotPositiveDefiniteError,
                     StatisticalPowerError)
from .fraccoeff import (AutocovSeq, CoeffSeq, LongMemoryModel, ar_inf_coeffs,
                        exact_autocov, ma_inf_coeffs, model_from_json,
                        model_to_json, spectral_density)
from .predictor import (Forecast, ark_plugin_predict, ark_predict,
                        wk_plugin_predict, wk_truncated_predict)
from .risk import (SlopeReport, ark_excess, c_of_d, coeffcov_scaling,
                   compute_H, covmoment_exact, covmoment_scaling,
                   excess_decomposition,
                   h_covariance_check, r_of_k, truncation_excess,
                   wk_plugin_scaling)
from .series import SamplePath
from .simulate import gaussian_paths
from .spectral import (Periodogram, WhittleFit, periodogram,
                       periodogram_ordinate, whittle_fit)
from .toeplitz import (ArkModel, durbin_levinson, empirical_autocov,
                       fi_ark_closed_form)

__all__ = [
    "AccuracyError", "ArkModel", "AutocovSeq", "CoeffSeq", "DomainError",
    "EstimationError", "Forecast", "InternalConsistencyError",
    "LongMemoryModel", "NotPositiveDefiniteError", "Periodogram",
    "SamplePath", "SlopeReport",
    "StatisticalPowerError", "WhittleFit", "ar_inf_coeffs",
    "ark_excess", "ark_plugin_predict", "ark_predict", "c_of_d",
    "coeffcov_scaling", "compute_H", "covmoment_exact", "covmoment_scaling",
    "durbin_levinson",
    "empirical_autocov", "exact_autocov", "excess_decomposition",
    "fi_ark_closed_form", "gaussian_paths",
    "h_covariance_check", "ma_inf_coeffs",
    "model_from_json", "model_to_json", "periodogram",
    "periodogram_ordinate", "r_of_k", "spectral_density",
    "truncation_excess", "whittle_fit", "wk_plugin_predict",
    "wk_plugin_scaling", "wk_truncated_predict",
]
