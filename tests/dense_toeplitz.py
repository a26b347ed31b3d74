"""The dense Toeplitz covariance matrix, which the library never forms, for
tests that check its matrix-free routes against plain matrix algebra."""

import numpy as np


def toeplitz_matrix(acov, k):
    """The k x k matrix with entries sigma(|i - j|) of ``acov``."""
    i = np.arange(k)
    return acov.values[np.abs(np.subtract.outer(i, i))]
