"""Differential entropy, MI and CMI under fitted Gaussian or Laplace models.

Both families fit a law that is an affine image of one standard law per
dimension, and differential entropy is affine-equivariant (Cover & Thomas,
Elements of Information Theory, Thm 8.6.4). The entropy of a channel subset
with regularized covariance Sigma is therefore
(d/2) ln(2 pi e) + (1/2) ln det Sigma + e_family(d), with e_gaussian(d) = 0
and e_laplace(d) = c_d - (d/2) ln(2 pi e), where c_d is the entropy of the
standard d-dimensional Laplace. Sigma is always a slice of the matrix's one
regularized covariance, and every log-det is one Cholesky (`log_det`), so a
CMI is the Gaussian CMI of a slice (`gaussian_cmi`) plus a constant that
depends only on the family and |K|. Values are in nats and deterministic.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Sequence

import numpy as np

from .core import SampleStats, TimeSeriesMatrix
from .distributions import laplace_entropy_constant
from .errors import ConditionSetTooLarge, SingularCovariance

_LN_2PIE = math.log(2.0 * math.pi * math.e)


class Family(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"


@functools.cache
def entropy_offset(family: Family, d: int) -> float:
    """e_family(d): family entropy minus Gaussian entropy at equal covariance."""
    if Family(family) is Family.GAUSSIAN or d == 0:
        return 0.0
    return laplace_entropy_constant(d) - 0.5 * d * _LN_2PIE


def cmi_offset(family: Family, k: int) -> float:
    """delta(k) = 2 e(k+1) - e(k) - e(k+2): family CMI minus Gaussian CMI, |K| = k."""
    return (
        2.0 * entropy_offset(family, k + 1)
        - entropy_offset(family, k)
        - entropy_offset(family, k + 2)
    )


def log_det(cov: np.ndarray) -> np.ndarray:
    """ln det of a positive-definite covariance, or of each in a stack, by Cholesky."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise SingularCovariance("covariance not positive definite") from None
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def gaussian_cmi(cov: np.ndarray) -> np.ndarray:
    """Gaussian I(i; j | K) of a covariance ordered (i, j, *K), or of each in a stack.

    (1/2) [ln det S_iK + ln det S_jK - ln det S_K - ln det S_ijK], nats.
    """
    ik = np.r_[0, 2 : cov.shape[-1]]
    return 0.5 * (
        (log_det(cov[..., ik[:, None], ik]) + log_det(cov[..., 1:, 1:]))
        - log_det(cov[..., 2:, 2:])
        - log_det(cov)
    )


def _entropy_of_covariance(cov: np.ndarray, family: Family) -> float:
    d = cov.shape[0]
    return 0.5 * d * _LN_2PIE + 0.5 * float(log_det(cov)) + entropy_offset(family, d)


def entropy_of_stats(stats: SampleStats, family: Family) -> float:
    """(d/2) ln(2 pi e) + (1/2) ln det Sigma + e_family(d) of exactly given stats."""
    return _entropy_of_covariance(stats.covariance, family)


def _covariance_slice(x: TimeSeriesMatrix, idx: Sequence[int]) -> np.ndarray:
    if any(i < 0 or i >= x.n_channels for i in idx):
        raise ValueError(f"channel indices {list(idx)} outside 0..{x.n_channels - 1}")
    return x.covariance[np.ix_(idx, idx)]


def _canonical_subset(subset: Sequence[int]) -> tuple[int, ...]:
    canon = tuple(sorted(int(i) for i in subset))
    if len(set(canon)) != len(canon):
        raise ValueError(f"duplicate channel indices in {subset}")
    return canon


def entropy(x: TimeSeriesMatrix, subset: Sequence[int], family: Family) -> float:
    """Differential entropy of a channel subset, in nats; 0 for the empty set."""
    canon = _canonical_subset(subset)
    if not canon:
        return 0.0
    if x.n_samples <= len(canon):
        raise ValueError("need more samples than subset dimensions")
    return _entropy_of_covariance(_covariance_slice(x, canon), family)


def joint_entropy(
    x: TimeSeriesMatrix,
    subset_a: Sequence[int],
    subset_b: Sequence[int],
    family: Family,
) -> float:
    """Entropy of the union of two channel subsets."""
    return entropy(x, set(subset_a) | set(subset_b), family)


def conditional_entropy(
    x: TimeSeriesMatrix,
    subset: Sequence[int],
    given: Sequence[int],
    family: Family,
) -> float:
    """h(S | G) = h(S, G) - h(G), same family for both terms."""
    if set(subset) & set(given):
        raise ValueError("subset and conditioning set must be disjoint")
    return joint_entropy(x, subset, given, family) - entropy(x, given, family)


def conditional_mutual_information(
    x: TimeSeriesMatrix,
    i: int,
    j: int,
    cond: Sequence[int],
    family: Family,
) -> float:
    """I(X_i; X_j | X_cond) = h(iK) + h(jK) - h(K) - h(ijK).

    The Gaussian CMI of the covariance slice ordered (min(i, j), max(i, j),
    *sorted K), so swapping i and j gives the same bits, plus delta(|K|).
    Raw (possibly slightly negative in finite samples) value; clamping to
    zero happens only at reporting boundaries.
    """
    i, j = int(i), int(j)
    cond = _canonical_subset(cond)
    if i == j:
        raise ValueError("i and j must differ")
    if i in cond or j in cond:
        raise ValueError("i and j must not be in the conditioning set")
    if len(cond) + 2 >= x.n_samples:
        raise ConditionSetTooLarge(
            f"|K|+2 = {len(cond) + 2} >= T = {x.n_samples}"
        )
    cov = _covariance_slice(x, (min(i, j), max(i, j), *cond))
    return float(gaussian_cmi(cov)) + cmi_offset(family, len(cond))


def mutual_information(x: TimeSeriesMatrix, i: int, j: int, family: Family) -> float:
    """I(X_i; X_j) = h(X_i) + h(X_j) - h(X_i, X_j), the empty-set CMI bit for bit."""
    return conditional_mutual_information(x, i, j, (), family)


def mutual_information_of_stats(stats: SampleStats, family: Family) -> float:
    """MI of a bivariate model given exactly specified 2x2 stats."""
    if stats.dim != 2:
        raise ValueError("need 2x2 stats for pairwise MI")
    return float(gaussian_cmi(stats.covariance)) + cmi_offset(family, 0)
