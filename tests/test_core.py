import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from miinet import Axis, ChannelId, TimeSeriesMatrix, entropy, standardize
from miinet.core import regularize_covariance
from miinet.errors import DuplicateChannel, NonFinite, SingularCovariance, ZeroVariance
from miinet.estimators import Family

from conftest import duplicated_condition_matrix, make_matrix


def test_standardize_affine_example():
    x = make_matrix(np.array([[1.0], [2.0], [3.0]]))
    out = standardize(x)
    np.testing.assert_allclose(out.data[:, 0], [-1.0, 0.0, 1.0], atol=1e-14)


def test_standardize_preserves_shape_at_paper_length():
    rng = np.random.default_rng(0)
    x = make_matrix(rng.standard_normal((11536, 2)) * 0.015)  # ~15 mg peak scale
    out = standardize(x)
    assert out.data.shape == (11536, 2)
    assert abs(out.data[:, 0].mean()) < 1e-10
    assert abs(out.data[:, 0].std(ddof=1) - 1.0) < 1e-10


def test_standardize_idempotent():
    rng = np.random.default_rng(1)
    x = standardize(make_matrix(rng.standard_normal((500, 4)) * 3.0 + 1.0))
    again = standardize(x)
    assert np.max(np.abs(again.data - x.data)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        (37, 3),
        elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    )
)
def test_standardize_idempotent_property(data):
    # skip degenerate constant columns
    if np.any(data.std(axis=0, ddof=1) < 1e-6):
        return
    x = standardize(make_matrix(data))
    again = standardize(x)
    assert np.max(np.abs(again.data - x.data)) < 1e-12


def test_standardize_zero_variance():
    x = make_matrix(np.column_stack([np.ones(10), np.arange(10.0)]))
    with pytest.raises(ZeroVariance):
        standardize(x)


def test_nonfinite_rejected_at_construction():
    data = np.ones((5, 2))
    data[3, 1] = np.nan
    with pytest.raises(NonFinite):
        make_matrix(data)
    data[3, 1] = np.inf
    with pytest.raises(NonFinite):
        make_matrix(data)


def test_duplicate_channels_rejected():
    chans = (ChannelId(1, Axis.LATERAL), ChannelId(1, Axis.LATERAL))
    with pytest.raises(DuplicateChannel):
        TimeSeriesMatrix(np.ones((4, 2)) * [[1.0, 2.0]] * 4 + np.eye(4, 2), chans)


def test_channel_names_round_trip():
    ch = ChannelId(17, Axis.VERTICAL)
    assert ch.name == "s17_vert"
    assert ChannelId.from_name("s17_vert") == ch
    assert ChannelId.from_name("s3_lat") == ChannelId(3, Axis.LATERAL)


# The test_estimate_stats_* names predate the per-matrix covariance: they now
# check `TimeSeriesMatrix.covariance`, the one covariance every estimate slices.


def test_estimate_stats_single_channel_is_sample_variance(rng):
    col = rng.standard_normal(200)
    x = make_matrix(col[:, None])
    assert x.covariance.shape == (1, 1)
    assert abs(x.covariance[0, 0] - np.var(col, ddof=1)) < 1e-12


def test_estimate_stats_identical_columns_ridge_repaired(rng):
    col = rng.standard_normal(300)
    x = make_matrix(np.column_stack([col, col]))
    raw_cov = np.cov(x.data.T, ddof=1)
    assert abs(raw_cov[0, 1] - raw_cov[0, 0]) < 1e-12  # off-diagonal = variance
    np.linalg.cholesky(x.covariance)  # positive definite after repair
    assert np.all(np.diag(x.covariance) > np.var(col, ddof=1))  # the ridge was added


def test_estimate_stats_independent_columns_near_identity():
    rng = np.random.default_rng(42)
    x = standardize(make_matrix(rng.standard_normal((100_000, 2))))
    assert abs(x.covariance[0, 1]) < 0.02
    assert abs(x.covariance[0, 0] - 1.0) < 1e-10
    assert abs(x.covariance[1, 1] - 1.0) < 1e-10


def test_estimate_stats_diagonal_unity_after_standardize(rng):
    x = standardize(make_matrix(rng.standard_normal((400, 5)) * 7.0 - 2.0))
    np.testing.assert_allclose(np.diag(x.covariance), 1.0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_estimate_stats_row_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((60, 3))
    x = make_matrix(data)
    perm = rng.permutation(60)
    x_perm = make_matrix(data[perm])
    np.testing.assert_allclose(x.covariance, x_perm.covariance, atol=1e-12)


def test_estimate_stats_validation(rng):
    x = make_matrix(rng.standard_normal((10, 3)))
    gauss = Family.GAUSSIAN
    assert entropy(x, [], gauss) == 0.0  # the empty set has entropy 0 by definition
    with pytest.raises(ValueError):
        entropy(x, [0, 5], gauss)
    with pytest.raises(ValueError):
        entropy(x, [-1], gauss)
    with pytest.raises(ValueError):
        entropy(x, [0, 0], gauss)
    tiny = make_matrix(rng.standard_normal((3, 3)))
    with pytest.raises(ValueError):
        entropy(tiny, [0, 1, 2], gauss)


def test_covariance_cached_read_only_and_per_matrix(rng):
    x = make_matrix(rng.standard_normal((200, 4)))
    assert x.covariance is x.covariance
    assert not x.covariance.flags.writeable
    with pytest.raises(ValueError):
        x.covariance[0, 0] = 2.0
    sub = x.select([3, 1])
    assert sub.covariance is not x.covariance
    np.testing.assert_allclose(sub.covariance, x.covariance[np.ix_([3, 1], [3, 1])], atol=1e-12)
    assert standardize(x).covariance is not x.covariance


def test_regularize_zero_trace_fails():
    with pytest.raises(SingularCovariance):
        regularize_covariance(np.zeros((2, 2)))


def test_regularize_passthrough_when_pd():
    cov = np.array([[1.0, 0.9], [0.9, 1.0]])
    out, ridge = regularize_covariance(cov)
    assert ridge == 0.0
    np.testing.assert_array_equal(out, cov)


def test_regularize_makes_every_slice_factor():
    # a duplicated column makes the covariance singular; whether Cholesky of the
    # whole matrix happens to complete is up to rounding, so test every slice
    x = duplicated_condition_matrix()
    centered = x.data - x.data.mean(axis=0)
    out, ridge = regularize_covariance(centered.T @ centered / (x.n_samples - 1))
    assert ridge > 0.0
    for size in range(1, 5):
        for idx in itertools.combinations(range(4), size):
            np.linalg.cholesky(out[np.ix_(idx, idx)])


def test_select_channels(rng):
    x = make_matrix(rng.standard_normal((50, 4)))
    sub = x.select([2, 0])
    assert sub.channels == (x.channels[2], x.channels[0])
    np.testing.assert_array_equal(sub.data[:, 0], x.data[:, 2])
