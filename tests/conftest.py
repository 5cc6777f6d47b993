import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from miinet import Axis, ChannelId, TimeSeriesMatrix


def make_matrix(data, axis=Axis.LATERAL) -> TimeSeriesMatrix:
    data = np.asarray(data, dtype=np.float64)
    channels = tuple(ChannelId(k + 1, axis) for k in range(data.shape[1]))
    return TimeSeriesMatrix(data, channels)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def matrix_factory():
    return make_matrix


def duplicated_condition_matrix(seed=5, t=500) -> TimeSeriesMatrix:
    """Columns i, j, k and k again: j depends on i and k, i on k.

    The full covariance is singular, so every estimate runs on the ridge.
    """
    rng = np.random.default_rng(seed)
    k = rng.standard_normal(t)
    i = 0.6 * k + rng.standard_normal(t)
    j = 0.6 * k + 0.4 * i + rng.standard_normal(t)
    return make_matrix(np.column_stack([i, j, k, k]))
