"""Gaussian/Laplace densities, sampling, Bessel-K and fit diagnostics.

The multivariate Laplace family used throughout is the elliptical
scale-mixture x = mu + sqrt(W) * A z with W ~ Exponential(1),
z ~ N(0, I) and A A^T = Sigma, so Cov(x) = Sigma. Its density involves
the modified Bessel function of the second kind, implemented here from
scratch (small-x series, large-x continued fraction) so that the test
oracles (integral representation, half-integer closed forms) remain
independent checks. The entropy of the standard (Sigma = I) law, which
fixes the entropy of every fitted Laplace, comes from a radial quadrature
of that density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyHistogram,
    SingularCovariance,
)

_EULER_GAMMA = 0.5772156649015329
# Taylor coefficients of 1/Gamma(1+z) = 1 + c1 z + c2 z^2 + c3 z^3 + ...
_C2 = -0.6558780715202538
_C3 = -0.0420026350340952

_EPS = 1e-16
_MAX_ITER = 400
_SERIES_CUTOFF = 2.0

# Step in ln r of the radial entropy quadrature. The integrand is smooth and
# decays exponentially at both ends in ln r, so the trapezoidal rule converges
# geometrically: c_2 moves by under 2e-12 between steps 0.1 and 0.01.
_RADIAL_STEP = 0.05


def _gamma_pair(mu: float) -> tuple[float, float]:
    """gam1 = (1/G(1-mu) - 1/G(1+mu))/(2 mu), gam2 = (1/G(1-mu) + 1/G(1+mu))/2."""
    if abs(mu) < 1e-3:
        gam1 = -_EULER_GAMMA - _C3 * mu * mu
        gam2 = 1.0 + _C2 * mu * mu
    else:
        gp = 1.0 / math.gamma(1.0 + mu)
        gm = 1.0 / math.gamma(1.0 - mu)
        gam1 = (gm - gp) / (2.0 * mu)
        gam2 = (gm + gp) / 2.0
    return gam1, gam2


def _k_series(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Temme's series for (K_mu, K_{mu+1}), |mu| <= 1/2, 0 < x <= 2."""
    gam1, gam2 = _gamma_pair(mu)
    x_half = x / 2.0
    log_term = -np.log(x_half)
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < 1e-15 else pimu / math.sin(pimu)
    e = mu * log_term
    fact2 = np.where(np.abs(e) < 1e-15, 1.0, np.sinh(e) / np.where(e == 0, 1.0, e))
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * log_term)
    total = ff.copy()
    exp_e = np.exp(e)
    gampl = gam2 - mu * gam1  # 1/Gamma(1+mu)
    gammi = gam2 + mu * gam1  # 1/Gamma(1-mu)
    p = 0.5 * exp_e / gampl
    q = 0.5 / (exp_e * gammi)
    c = np.ones_like(x)
    x_sq = x_half * x_half
    total1 = p.copy()
    mu2 = mu * mu
    for i in range(1, _MAX_ITER + 1):
        ff = (i * ff + p + q) / (i * i - mu2)
        c *= x_sq / i
        p /= i - mu
        q /= i + mu
        delta = c * ff
        total += delta
        delta1 = c * (p - i * ff)
        total1 += delta1
        if np.all(np.abs(delta) < np.abs(total) * _EPS):
            break
    return total, total1 * (2.0 / x)


def _k_continued_fraction(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (e^x K_mu, e^x K_{mu+1}) by Steed/Thompson-Barnett CF, x >= 2."""
    mu2 = mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d.copy()
    delh = d.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25 - mu2
    q = np.full_like(x, a1)
    c = np.full_like(x, a1)
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_ITER + 1):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        if np.all(np.abs(dels) < np.abs(s) * _EPS):
            break
    h = a1 * h
    k_mu = np.sqrt(np.pi / (2.0 * x)) / s
    k_mu1 = k_mu * (mu + x + 0.5 - h) / x
    return k_mu, k_mu1


def bessel_k(order: float, x, scaled: bool = False):
    """Modified Bessel function of the second kind K_order(x).

    Vectorized over x (scalar order). With scaled=True returns e^x K_order(x),
    which never underflows for large arguments. K_{-v} = K_v.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    scalar_input = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(~np.isfinite(x_arr)) or np.any(x_arr <= 0.0):
        raise DomainError("bessel_k requires finite x > 0")
    nu = abs(float(order))
    n = int(nu + 0.5)
    mu = nu - n  # in [-1/2, 1/2]

    k_mu = np.empty_like(x_arr)
    k_mu1 = np.empty_like(x_arr)
    small = x_arr <= _SERIES_CUTOFF
    if small.any():
        xs = x_arr[small]
        a, b = _k_series(mu, xs)
        if scaled:
            e = np.exp(xs)
            a, b = a * e, b * e
        k_mu[small] = a
        k_mu1[small] = b
    if (~small).any():
        xl = x_arr[~small]
        a, b = _k_continued_fraction(mu, xl)
        if not scaled:
            e = np.exp(-xl)
            a, b = a * e, b * e
        k_mu[~small] = a
        k_mu1[~small] = b

    # upward recurrence K_{j+1} = K_{j-1} + (2j/x) K_j to reach order nu = mu + n
    lower, upper = k_mu, k_mu1
    for j in range(1, n):
        lower, upper = upper, lower + (2.0 * (mu + j) / x_arr) * upper
    result = lower if n == 0 else upper
    return float(result[0]) if scalar_input else result


def log_bessel_k(order: float, x):
    """log K_order(x), via the scaled evaluation (safe for large x)."""
    x_arr = np.asarray(x, dtype=np.float64)
    return np.log(bessel_k(order, x_arr, scaled=True)) - x_arr


@dataclass(frozen=True)
class UnivariateNormal:
    """Normal density with mean mu and standard deviation sigma."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    @property
    def variance(self) -> float:
        return self.sigma**2


@dataclass(frozen=True)
class UnivariateLaplace:
    """Double-exponential density with location mu and scale b (var = 2 b^2)."""

    mu: float = 0.0
    b: float = math.sqrt(2.0) / 2.0

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("b must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-np.abs(x - self.mu) / self.b) / (2.0 * self.b)

    @property
    def variance(self) -> float:
        return 2.0 * self.b**2

    @property
    def entropy(self) -> float:
        """Differential entropy in nats: 1 + ln(2b)."""
        return 1.0 + math.log(2.0 * self.b)


UnivariateModel = Union[UnivariateNormal, UnivariateLaplace]


def standard_normal_baseline() -> UnivariateNormal:
    return UnivariateNormal(0.0, 1.0)


def standard_laplace_baseline() -> UnivariateLaplace:
    """Unit-variance Laplace baseline (b = sqrt(2)/2)."""
    return UnivariateLaplace(0.0, math.sqrt(2.0) / 2.0)


class _EllipticalBase:
    """Shared mean/covariance plumbing for the two multivariate families."""

    def __init__(self, mean, covariance):
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        covariance = np.atleast_2d(np.asarray(covariance, dtype=np.float64))
        d = mean.size
        if covariance.shape != (d, d):
            raise DimensionMismatch(
                f"covariance shape {covariance.shape} does not match dimension {d}"
            )
        if not np.allclose(covariance, covariance.T, atol=1e-12, rtol=0.0):
            raise ValueError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(covariance)
        except np.linalg.LinAlgError:
            raise SingularCovariance("covariance not positive definite") from None
        self.mean = mean
        self.covariance = covariance
        self.dim = d
        self._chol = chol
        self._precision = np.linalg.inv(covariance)
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))

    def _quad_form(self, x: np.ndarray) -> np.ndarray:
        """(x-mu)^T Sigma^{-1} (x-mu) row-wise for an (m, d) array."""
        dx = x - self.mean
        return np.einsum("ij,jk,ik->i", dx, self._precision, dx)

    def _check_points(self, x) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points have dimension {x.shape[1]}, model has {self.dim}"
            )
        return x, single


class MultivariateLaplace(_EllipticalBase):
    """Multivariate Laplace with mean vector and covariance matrix.

    lam = sqrt(det Sigma); the quadratic form q(x) = lam (x-mu)^T Sigma^{-1}
    (x-mu) enters the density through K_{d/2-1}(sqrt(2 q / lam)). The density
    is normalized to unit mass (checked numerically in the test suite) and is
    exactly the law of mu + sqrt(W) A z, W ~ Exp(1), z ~ N(0,I), A A^T = Sigma.
    """

    # q(x) = 0 is a measure-zero event where K_{d/2-1} diverges for d >= 2;
    # clamping keeps averages of log f over draws or quadrature nodes finite.
    Q_CLAMP = 1e-12

    def __init__(self, mean, covariance):
        super().__init__(mean, covariance)
        self.lam = math.exp(0.5 * self.log_det)

    def quadratic_form(self, x):
        x, single = self._check_points(x)
        q = self.lam * self._quad_form(x)
        return float(q[0]) if single else q

    def logpdf(self, x):
        x, single = self._check_points(x)
        d = self.dim
        nu = d / 2.0 - 1.0
        u = self._quad_form(x)
        base = math.log(2.0) - (d / 2.0) * math.log(2.0 * math.pi) - 0.5 * self.log_det
        if d == 1:
            # exact finite limit at x = mu; exact half-integer Bessel elsewhere
            out = np.where(
                u <= 0.0,
                base + 0.5 * math.log(math.pi) - math.log(2.0),
                base + 0.25 * np.log(np.maximum(u, 1e-300) / 2.0)
                + _safe_log_k(nu, np.sqrt(2.0 * np.maximum(u, 1e-300))),
            )
        else:
            q = np.maximum(self.lam * u, self.Q_CLAMP)
            u_eff = q / self.lam
            s = np.sqrt(2.0 * u_eff)
            out = base - (nu / 2.0) * np.log(u_eff / 2.0) + _safe_log_k(nu, s)
        return float(out[0]) if single else out

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def sample(self, m: int, seed: int) -> np.ndarray:
        """m draws via the exponential scale mixture; deterministic per seed."""
        if m < 1:
            raise ValueError("m must be >= 1")
        rng = np.random.default_rng(seed)
        w = rng.exponential(1.0, size=m)
        z = rng.standard_normal((m, self.dim))
        return self.mean + np.sqrt(w)[:, None] * (z @ self._chol.T)


def _safe_log_k(nu: float, s: np.ndarray) -> np.ndarray:
    """log K_nu(s) elementwise for strictly positive s."""
    s = np.maximum(s, 1e-300)
    return log_bessel_k(nu, s)


def laplace_entropy_constant(d: int) -> float:
    """c_d: entropy in nats of the d-dimensional Laplace with Sigma = I.

    A fitted Laplace is an affine image of this law, so its entropy is
    c_d + 1/2 ln det Sigma. c_1 = 1 + ln sqrt(2) in closed form. For d >= 2,
    c_d = -int p(r) ln f(r) dr over the radius r = |x|, with the radial
    density p(r) = S_{d-1} r^(d-1) f(r), by the trapezoidal rule in ln r from
    r = sqrt(Q_CLAMP), below which the density is clamped, to 50 + 2d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return 1.0 + math.log(math.sqrt(2.0))
    t = np.arange(
        0.5 * math.log(MultivariateLaplace.Q_CLAMP), math.log(50.0 + 2.0 * d), _RADIAL_STEP
    )
    points = np.zeros((t.size, d))
    points[:, 0] = np.exp(t)
    log_f = MultivariateLaplace(np.zeros(d), np.eye(d)).logpdf(points)
    log_sphere = math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)
    r_times_p = np.exp(log_sphere + d * t + log_f)  # dr = r d(ln r)
    value = -float(np.sum(r_times_p * log_f)) * _RADIAL_STEP
    if not math.isfinite(value):
        raise DomainError(f"Laplace entropy constant overflows at d = {d}")
    return value


class MultivariateGaussian(_EllipticalBase):
    """Multivariate normal density, sampler and closed-form entropy."""

    def logpdf(self, x):
        x, single = self._check_points(x)
        u = self._quad_form(x)
        out = -0.5 * (self.dim * math.log(2.0 * math.pi) + self.log_det + u)
        return float(out[0]) if single else out

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def sample(self, m: int, seed: int) -> np.ndarray:
        if m < 1:
            raise ValueError("m must be >= 1")
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((m, self.dim))
        return self.mean + z @ self._chol.T

    @property
    def entropy(self) -> float:
        """Closed form (d/2) ln(2 pi e) + (1/2) ln det Sigma, in nats."""
        return 0.5 * self.dim * math.log(2.0 * math.pi * math.e) + 0.5 * self.log_det


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Histogram density: sorted bin edges plus per-bin density (per unit x)."""

    bin_edges: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        dens = np.asarray(self.densities, dtype=np.float64)
        if edges.ndim != 1 or dens.ndim != 1 or edges.size != dens.size + 1:
            raise ValueError("need len(bin_edges) == len(densities) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing")
        if np.any(dens < 0):
            raise ValueError("densities must be nonnegative")
        mass = float(np.sum(dens * np.diff(edges)))
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"histogram mass {mass} is not 1 within 1e-9")
        edges = edges.copy()
        dens = dens.copy()
        edges.flags.writeable = False
        dens.flags.writeable = False
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "densities", dens)

    @property
    def bin_widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    @property
    def bin_centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0

    @classmethod
    def from_samples(cls, values, min_bins: int = 24, max_bins: int = 256):
        """Histogram with Freedman-Diaconis bin count clipped to [min_bins, max_bins]."""
        values = np.asarray(values, dtype=np.float64)
        if values.size < 2:
            raise EmptyHistogram("need at least 2 samples")
        lo, hi = float(values.min()), float(values.max())
        if hi <= lo:
            raise EmptyHistogram("all samples identical")
        q75, q25 = np.percentile(values, [75.0, 25.0])
        iqr = q75 - q25
        if iqr > 0:
            width = 2.0 * iqr * values.size ** (-1.0 / 3.0)
            n_bins = int(np.ceil((hi - lo) / width))
        else:
            n_bins = max_bins
        n_bins = int(np.clip(n_bins, min_bins, max_bins))
        counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
        dens = counts / (values.size * np.diff(edges))
        return cls(edges, dens)


def fit_error_l1(emp: EmpiricalDistribution, model: UnivariateModel) -> float:
    """Relative l1 distance ||p_emp - p_model|| / ||p_emp|| on the histogram bins.

    The model must be a standardized baseline (zero mean, unit variance).
    """
    if abs(model.mu) > 1e-9 or abs(model.variance - 1.0) > 1e-9:
        raise ValueError("model must be standardized (zero mean, unit variance)")
    widths = emp.bin_widths
    emp_mass = float(np.sum(np.abs(emp.densities) * widths))
    if emp_mass <= 0.0:
        raise EmptyHistogram("empirical distribution carries no mass")
    model_dens = model.pdf(emp.bin_centers)
    err = float(np.sum(np.abs(emp.densities - model_dens) * widths))
    return err / emp_mass
