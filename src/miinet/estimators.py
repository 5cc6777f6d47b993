"""Differential entropy, MI and CMI under fitted Gaussian or Laplace models.

Both families fit a law that is an affine image of one standard law per
dimension, and differential entropy is affine-equivariant (Cover & Thomas,
Elements of Information Theory, Thm 8.6.4). The entropy of a channel subset
with regularized covariance Sigma is therefore
(d/2) ln(2 pi e) + (1/2) ln det Sigma + e_family(d), with e_gaussian(d) = 0
and e_laplace(d) = c_d - (d/2) ln(2 pi e), where c_d is the entropy of the
standard d-dimensional Laplace. The covariance-level estimators take Sigma
itself: `entropy_of_covariance` is a Cholesky log-det plus that constant,
and `cmi_of_covariance` is the Gaussian CMI of a partial correlation
(`gaussian_cmi`) plus a constant that depends only on the family and |K|.
The matrix-level estimators read their channel indices through
`core.channel_indices` and pass them slices of the matrix's one regularized
covariance. Values are in nats and deterministic.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Sequence

import numpy as np

from .core import TimeSeriesMatrix, channel_indices
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


def cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a covariance, or of each in a (..., d, d) stack."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise SingularCovariance("covariance not positive definite") from None


def gaussian_cmi(factor: np.ndarray, cross: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Gaussian I(i; v | K) for every row v of `cross`, from one factorization.

    `factor` is L = chol(cov), cov the covariance of (*K, i), i last; row b of
    `cross` holds the covariances of a channel v_b with (*K, i), and `var[b]`
    its variance. With w = L^-1 cross^T, K's factor is L's leading block,
    so var - |w[:k]|^2 is v's residual variance given K and w[k]^2 over it is
    the squared partial correlation rho^2; the CMI is -1/2 ln(1 - rho^2), nats.
    Every argument may carry leading stack axes, one problem per index: factor
    (..., k+1, k+1), cross (..., B, k+1) and var broadcastable to (..., B).
    """
    w = np.linalg.solve(factor, np.swapaxes(cross, -1, -2))
    residual = var - np.sum(w[..., :-1, :] ** 2, axis=-2)
    if not np.all(residual > 0.0):
        raise SingularCovariance("covariance not positive definite")
    rho2 = w[..., -1, :] ** 2 / residual
    if not np.all(rho2 < 1.0):
        raise SingularCovariance("covariance not positive definite")
    return -0.5 * np.log1p(-rho2)


def entropy_of_covariance(cov: np.ndarray, family: Family) -> float:
    """(d/2) ln(2 pi e) + (1/2) ln det Sigma + e_family(d) of a d x d covariance."""
    cov = np.asarray(cov, dtype=np.float64)
    d = cov.shape[0]
    log_det = 2.0 * float(np.log(np.diag(cholesky(cov))).sum())
    return 0.5 * d * _LN_2PIE + 0.5 * log_det + entropy_offset(family, d)


def cmi_of_covariance(cov: np.ndarray, family: Family) -> float:
    """I(i; j | K) of a covariance ordered (*K, i, j): the Gaussian CMI plus delta(|K|)."""
    cov = np.asarray(cov, dtype=np.float64)
    cmi = gaussian_cmi(cholesky(cov[:-1, :-1]), cov[-1:, :-1], cov[-1:, -1])
    return float(cmi[0]) + cmi_offset(family, cov.shape[0] - 2)


def check_condition_size(k: int, t: int) -> None:
    """ConditionSetTooLarge unless |K| = k leaves T = t > k+2 samples."""
    if k + 2 >= t:
        raise ConditionSetTooLarge(f"|K|+2 = {k + 2} >= T = {t}")


def entropy(x: TimeSeriesMatrix, subset: Sequence[int], family: Family) -> float:
    """Differential entropy of a channel subset, in nats; 0 for the empty set."""
    idx = sorted(channel_indices(x, subset))
    if not idx:
        return 0.0
    if x.n_samples <= len(idx):
        raise ValueError("need more samples than subset dimensions")
    return entropy_of_covariance(x.covariance[np.ix_(idx, idx)], family)


def conditional_mutual_information(
    x: TimeSeriesMatrix,
    i: int,
    j: int,
    cond: Sequence[int],
    family: Family,
) -> float:
    """I(X_i; X_j | X_cond) = h(iK) + h(jK) - h(K) - h(ijK).

    The Gaussian CMI of v = max(i, j) given (*sorted K, min(i, j)), so
    swapping i and j gives the same bits, plus delta(|K|). Raw (possibly
    slightly negative in finite samples) value; clamping to zero happens
    only at reporting boundaries.
    """
    i, j, *cond = channel_indices(x, (i, j, *cond))
    check_condition_size(len(cond), x.n_samples)
    idx = (*sorted(cond), min(i, j), max(i, j))
    return cmi_of_covariance(x.covariance[np.ix_(idx, idx)], family)


def mutual_information(x: TimeSeriesMatrix, i: int, j: int, family: Family) -> float:
    """I(X_i; X_j) = h(X_i) + h(X_j) - h(X_i, X_j), the empty-set CMI bit for bit."""
    return conditional_mutual_information(x, i, j, (), family)
