"""Time-series container, standardization and covariance estimation.

A matrix's data and channels are frozen at construction, and the functions
here are pure. A matrix takes a read-only, C-ordered float64 array that owns its
memory as it is, without a copy: the caller gives that array up. Any other
input, a writeable array or a view among them, is copied. A matrix computes its
regularized covariance once, on first use, and every entropy, MI, CMI and
shuffle null is computed from slices of it. Every call that takes channel
indices reads them through `channel_indices`, the one index rule: each must be
an integer, not a bool or a float, name a column of the matrix and appear once.
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DuplicateChannel, NonFinite, SingularCovariance, VarianceOverflow, ZeroVariance


class Axis(str, enum.Enum):
    LATERAL = "lateral"
    VERTICAL = "vertical"

    @classmethod
    def from_token(cls, token: str) -> "Axis":
        token = token.lower()
        if token in ("lat", "lateral"):
            return cls.LATERAL
        if token in ("vert", "vertical"):
            return cls.VERTICAL
        raise ValueError(f"unknown axis token {token!r}")

    @property
    def token(self) -> str:
        return "lat" if self is Axis.LATERAL else "vert"


@dataclass(frozen=True, order=True)
class ChannelId:
    """One recorded component: a sensor index plus its acceleration axis."""

    sensor_index: int
    axis: Axis

    def __post_init__(self):
        object.__setattr__(self, "sensor_index", as_integer("sensor_index", self.sensor_index))
        if self.sensor_index < 1:
            raise ValueError("sensor_index must be >= 1")

    @property
    def name(self) -> str:
        return f"s{self.sensor_index}_{self.axis.token}"

    @classmethod
    def from_name(cls, name: str) -> "ChannelId":
        if not name.startswith("s") or "_" not in name:
            raise ValueError(f"channel name {name!r} not of form s<index>_<lat|vert>")
        idx_part, axis_part = name[1:].split("_", 1)
        if not idx_part.isdigit():
            raise ValueError(f"channel name {name!r} has non-numeric sensor index")
        return cls(int(idx_part), Axis.from_token(axis_part))


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """T x N matrix of channel samples with channel metadata.

    Rows are time samples, columns are channels. Data must be finite;
    construction validates it and holds it read-only.
    """

    data: np.ndarray
    channels: tuple[ChannelId, ...]

    def __post_init__(self):
        data = self.data
        if not (type(data) is np.ndarray and data.dtype == np.float64 and data.flags.c_contiguous
                and data.flags.owndata and not data.flags.writeable):
            data = np.array(data, dtype=np.float64, order="C")
            data.flags.writeable = False
        if data.ndim != 2:
            raise ValueError("data must be 2-D (T x N)")
        t, n = data.shape
        if t < 2:
            raise ValueError("need at least 2 time samples")
        if n < 1:
            raise ValueError("need at least 1 channel")
        channels = tuple(self.channels)
        if len(channels) != n:
            raise ValueError(f"{len(channels)} channel ids for {n} columns")
        if len(set(channels)) != n:
            raise DuplicateChannel("channel ids must be unique")
        if not np.isfinite(data).all():
            t_bad, c_bad = np.argwhere(~np.isfinite(data))[0]
            raise NonFinite(channels[c_bad].name, int(t_bad))
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "channels", channels)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @functools.cached_property
    def covariance(self) -> np.ndarray:
        """Read-only unbiased N x N covariance, symmetrized and regularized once."""
        centered = self.data - self.data.mean(axis=0)
        cov = centered.T @ centered / (self.n_samples - 1)
        cov, _ = regularize_covariance((cov + cov.T) / 2.0)
        cov.flags.writeable = False
        return cov

    def axis_channel_indices(self, axis: Axis) -> dict[int, int]:
        """sensor_index -> column index, restricted to one axis."""
        return {
            ch.sensor_index: k
            for k, ch in enumerate(self.channels)
            if ch.axis is axis
        }

    def select(self, indices: Sequence[int]) -> "TimeSeriesMatrix":
        """New matrix restricted to the given columns, order preserved."""
        idx = channel_indices(self, indices)
        data = np.take(self.data, idx, axis=1)
        data.flags.writeable = False
        return TimeSeriesMatrix(data, tuple(self.channels[k] for k in idx))


def as_integer(name: str, value) -> int:
    """value as an int; a bool, a float or any other non-integral value raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def channel_indices(x: TimeSeriesMatrix, channels: Sequence[int]) -> list[int]:
    """The channel indices as ints, in order; ValueError unless each names one column of x once."""
    idx = [as_integer("channel index", c) for c in channels]
    if not all(0 <= c < x.n_channels for c in idx):
        raise ValueError(f"channel indices {idx} outside 0..{x.n_channels - 1}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"channel indices {idx} repeat a channel")
    return idx


def standardize(raw: TimeSeriesMatrix) -> TimeSeriesMatrix:
    """Map every column to zero mean and unit variance (T-1 denominator).

    A constant column raises ZeroVariance, and one whose mean or variance
    overflows float64 (samples near 1e200 or beyond) VarianceOverflow.
    """
    data = raw.data
    with np.errstate(over="ignore", invalid="ignore"):
        mu = data.mean(axis=0)
        sd = data.std(axis=0, ddof=1)
    wide = np.flatnonzero(~np.isfinite(sd))
    if wide.size:
        raise VarianceOverflow(raw.channels[wide[0]].name)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise ZeroVariance(raw.channels[zero[0]].name)
    out = data - mu
    out /= sd
    out.flags.writeable = False
    return TimeSeriesMatrix(out, raw.channels)


def regularize_covariance(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Return a covariance whose every principal slice factors, and the ridge added.

    The input passes untouched when its smallest eigenvalue exceeds
    20 n^1.5 eps_mach times its largest: Cholesky then completes in floating
    point (Higham, Accuracy and Stability of Numerical Algorithms, sec. 10.1)
    on it and, by eigenvalue interlacing, on every principal slice. Otherwise
    an escalating ridge eps*I with eps from 1e-10*tr/N up to 1e-4*tr/N (steps
    of 10x) is added before giving up with SingularCovariance.
    """
    cov = np.asarray(cov, dtype=np.float64)
    n = cov.shape[0]
    scale = float(np.trace(cov)) / n
    tolerance = 20.0 * n**1.5 * np.finfo(np.float64).eps
    eps = 0.0
    while True:
        candidate = cov if eps == 0.0 else cov + eps * np.eye(n)
        eigenvalues = np.linalg.eigvalsh(candidate)
        if eigenvalues[0] > tolerance * eigenvalues[-1]:
            return candidate, eps
        if scale <= 0.0:
            raise SingularCovariance("covariance trace is zero")
        if eps == 0.0:
            eps = 1e-10 * scale
        elif eps < 1e-4 * scale:
            eps = min(eps * 10.0, 1e-4 * scale)
        else:
            raise SingularCovariance(
                f"not positive definite even with ridge {eps:.3e}; "
                "duplicated channels?"
            )
