import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from miinet import Axis, ChannelId, TimeSeriesMatrix, entropy, standardize
from miinet.core import regularize_covariance
from miinet.errors import (
    DuplicateChannel, NonFinite, SingularCovariance, VarianceOverflow, ZeroVariance,
)
from miinet.estimators import Family

from conftest import duplicated_condition_matrix, make_matrix
from oracles import standardize_reference


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


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 40), st.integers(1, 4)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
)
def test_standardize_matches_the_out_of_place_reference_bit_for_bit(data):
    """`data - mu` then `/= sd` in place: the bytes of `(data - mu) / sd`, -0.0 too."""
    x = make_matrix(data)
    try:
        expected = standardize_reference(x.data, x.channels)
    except ZeroVariance:
        with pytest.raises(ZeroVariance):
            standardize(x)
        return
    if not np.isfinite(expected).all():  # a variance that underflows to a subnormal
        with pytest.raises(NonFinite):
            standardize(x)
        return
    assert standardize(x).data.tobytes() == expected.tobytes()


def test_standardize_zero_variance():
    x = make_matrix(np.column_stack([np.ones(10), np.arange(10.0)]))
    with pytest.raises(ZeroVariance):
        standardize(x)


@pytest.mark.parametrize("column", [[1e200, -1e200, 3e200], [1.7e308, 1.7e308, 1.6e308]])
def test_standardize_rejects_a_variance_that_overflows(column):
    """Samples near 1e200 square past float64: a typed error naming the channel, not a
    column of -0.0 behind a RuntimeWarning."""
    x = make_matrix(np.column_stack([[1.0, 2.0, 0.5], column]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VarianceOverflow) as err:
            standardize(x)
    assert err.value.channel == "s2_lat"


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


@pytest.mark.parametrize("bad", [1.5, 1.0, True])
def test_channel_id_takes_an_integer_sensor_index(bad):
    """A channel named s1.5_lat would head a record that from_name cannot read back."""
    with pytest.raises(ValueError, match="sensor_index must be an integer"):
        ChannelId(bad, Axis.LATERAL)
    assert ChannelId(np.int64(3), Axis.LATERAL).name == "s3_lat"


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


def test_regularize_escalates_past_the_first_ridge():
    # 60 identical channels: 1e-10 tr/N is under the tolerance times the largest
    # eigenvalue, 60; the next step, 1e-9 tr/N, clears it
    out, ridge = regularize_covariance(np.ones((60, 60)))
    assert ridge == 1e-10 * 10.0
    np.testing.assert_array_equal(out, np.ones((60, 60)) + ridge * np.eye(60))


def test_regularize_gives_up_at_the_largest_ridge():
    # the largest ridge, 1e-4 tr/N = 49.95, cannot lift an eigenvalue of -1000
    with pytest.raises(SingularCovariance, match=r"^not positive definite even with ridge "
                       r"4\.995e\+01; duplicated channels\?$"):
        regularize_covariance(np.diag([1e6, -1e3]))


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


def test_matrix_copies_a_writeable_array_or_any_view(rng):
    """The caller keeps a writeable array, and a view's base may be written through."""
    raw = rng.standard_normal((60, 3))
    kept = raw.copy()
    channels = tuple(ChannelId(k + 1, Axis.LATERAL) for k in range(3))
    x = TimeSeriesMatrix(raw, channels)
    raw[:] = 7.0
    assert x.data.tobytes() == kept.tobytes()
    np.testing.assert_array_equal(x.covariance, TimeSeriesMatrix(kept, channels).covariance)
    raw[:] = kept
    view = raw[:]
    view.flags.writeable = False
    y = TimeSeriesMatrix(view, channels)
    raw[:] = 7.0
    assert y.data is not view and y.data.tobytes() == kept.tobytes()
    for data in (np.asfortranarray(kept), kept.astype(np.float32)):  # read-only, owning
        data.flags.writeable = False
        z = TimeSeriesMatrix(data, channels)
        assert z.data is not data and z.data.flags.c_contiguous and z.data.dtype == np.float64
        np.testing.assert_array_equal(z.data, data)


def test_matrix_takes_a_read_only_array_that_owns_its_memory(rng):
    data = rng.standard_normal((60, 3))
    data.flags.writeable = False
    x = make_matrix(data)
    assert x.data is data


def test_every_matrix_holds_read_only_data(rng):
    x = make_matrix(rng.standard_normal((60, 4)))
    for m in (x, x.select([3, 1]), standardize(x), standardize(x).select([0])):
        assert not m.data.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 0] = 1.0
    assert x.select([3, 1]).data.tobytes() == x.data[:, [3, 1]].tobytes()
