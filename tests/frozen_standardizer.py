"""Frozen reference copy of the earlier `fit_standardizer`, which took the
standard deviation in one pass with `X.std(axis=0)`. It is kept to check the
fit in row blocks against, bytes included. The code is the earlier code
verbatim. Do not change it to follow the package.
"""

import numpy as np

from privlens.errors import EmptyMatrix
from privlens.features import StandardizationParams, require_finite


def fit_standardizer(X: np.ndarray) -> StandardizationParams:
    """Column means and population stddevs; zero-variance columns get stddev 1.
    A NaN or infinite entry, or a sum or square past float64's range, is
    NonFiniteValue naming the first such column."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix("cannot fit standardizer on an empty matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        stddev = X.std(axis=0)  # population stddev (ddof=0)
    require_finite(np.isfinite(mean) & np.isfinite(stddev),
                   "feature column {} has no finite mean and stddev")
    stddev = np.where(stddev == 0.0, 1.0, stddev)
    return StandardizationParams(mean=mean, stddev=stddev)
