"""Differential entropy, MI and CMI under fitted Gaussian or Laplace models.

Both families fit a law that is an affine image of one standard law per
dimension, and differential entropy is affine-equivariant (Cover & Thomas,
Elements of Information Theory, Thm 8.6.4). The entropy of a channel subset
with regularized covariance Sigma is therefore
(d/2) ln(2 pi e) + (1/2) ln det Sigma + e_family(d), with e_gaussian(d) = 0
and e_laplace(d) = c_d - (d/2) ln(2 pi e), where c_d is the entropy of the
standard d-dimensional Laplace. Values are in nats and deterministic.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Sequence

import numpy as np

from .core import SampleStats, TimeSeriesMatrix, estimate_stats
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


def entropy_of_stats(stats: SampleStats, family: Family) -> float:
    """(d/2) ln(2 pi e) + (1/2) ln det Sigma + e_family(d), log-det by Cholesky."""
    try:
        chol = np.linalg.cholesky(stats.covariance)
    except np.linalg.LinAlgError:
        raise SingularCovariance("covariance not positive definite") from None
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return 0.5 * stats.dim * _LN_2PIE + 0.5 * log_det + entropy_offset(family, stats.dim)


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
    return entropy_of_stats(estimate_stats(x, canon), family)


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
    """I(X_i; X_j | X_cond) via h(iK) + h(jK) - h(K) - h(ijK).

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
    h_ik = entropy(x, (i, *cond), family)
    h_jk = entropy(x, (j, *cond), family)
    h_k = entropy(x, cond, family)
    h_ijk = entropy(x, (i, j, *cond), family)
    return (h_ik + h_jk) - h_k - h_ijk


def mutual_information(x: TimeSeriesMatrix, i: int, j: int, family: Family) -> float:
    """I(X_i; X_j) = h(X_i) + h(X_j) - h(X_i, X_j), the empty-set CMI bit for bit."""
    return conditional_mutual_information(x, i, j, (), family)


def clamp_nonnegative(value: float) -> float:
    """Reporting-boundary clamp for MI/CMI values."""
    return value if value > 0.0 else 0.0


def mutual_information_of_stats(stats: SampleStats, family: Family) -> float:
    """MI of a bivariate model given exactly specified 2x2 stats."""
    if stats.dim != 2:
        raise ValueError("need 2x2 stats for pairwise MI")
    h_x = entropy_of_stats(stats.restrict([0]), family)
    h_y = entropy_of_stats(stats.restrict([1]), family)
    return (h_x + h_y) - entropy_of_stats(stats, family)
