"""Bessel-K, the standard Laplace density and entropy, and the fit report's errors.

The multivariate Laplace family fitted throughout is the elliptical
scale-mixture x = mu + sqrt(W) * A z with W ~ Exponential(1),
z ~ N(0, I) and A A^T = Sigma, so Cov(x) = Sigma. Every fitted Laplace is an
affine image of the standard (Sigma = I) law, so only that law's density is
needed: a function of the radius |x| through the modified Bessel function of
the second kind, implemented here from scratch (small-x series, large-x
continued fraction) so that the test oracles (integral representation,
half-integer closed forms) remain independent checks. Its entropy c_d, which
fixes the entropy of every fitted Laplace, comes from a radial quadrature of
that density.

The fit report compares each standardized channel with two fixed densities,
N(0, 1) and the unit-variance Laplace: `fit_errors` bins the channel and
returns the relative l1 error of each density on those bins.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EmptyHistogram

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


def _bessel_k_parts(order: float, x, scaled: bool):
    """(m, e) with K_order(x) = m * 2**e, or e^x K_order(x) if scaled; at least 1-d."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
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

    # upward recurrence K_{j+1} = K_{j-1} + (2j/x) K_j to reach order nu = mu + n; only
    # where a step would overflow, K_{j-1} and K_j first shed K_j's power of two (exact)
    lower, upper = k_mu, k_mu1
    exponent = np.zeros(x_arr.shape, dtype=np.int64)
    for j in range(1, n):
        step = 2.0 * (mu + j) / x_arr
        with np.errstate(over="ignore"):
            nxt = lower + step * upper
        over = np.isinf(nxt)
        shift = np.frexp(upper[over])[1]
        upper[over] = np.ldexp(upper[over], -shift)
        nxt[over] = np.ldexp(lower[over], -shift) + step[over] * upper[over]
        exponent[over] += shift
        lower, upper = upper, nxt
    return (lower if n == 0 else upper), exponent


def bessel_k(order: float, x, scaled: bool = False):
    """Modified Bessel function of the second kind K_order(x).

    Vectorized over x (scalar order). With scaled=True returns e^x K_order(x),
    which never underflows for large arguments. K_{-v} = K_v.
    """
    result = np.ldexp(*_bessel_k_parts(order, x, scaled))
    return float(result[0]) if np.ndim(x) == 0 else result


def log_bessel_k(order: float, x):
    """log K_order(x), via the scaled evaluation (safe for large x) and its
    power-of-two exponent (safe for large orders at small x)."""
    x_arr = np.asarray(x, dtype=np.float64)
    m, e = _bessel_k_parts(order, x_arr, scaled=True)
    return (np.log(m) + e * math.log(2.0)).reshape(x_arr.shape) - x_arr


# The density is finite only for r > 0; clamping r^2 at 1e-12 keeps sums of
# log f over quadrature nodes finite.
_Q_CLAMP = 1e-12


def standard_laplace_logpdf(r, d: int):
    """ln f at radius r = |x| of the d-dimensional Laplace with Sigma = I, d >= 2.

    f(x) = 2 (2 pi)^(-d/2) (q/2)^(-nu/2) K_nu(sqrt(2 q)) with q = |x|^2 and
    nu = d/2 - 1: the law of sqrt(W) z, W ~ Exponential(1), z ~ N(0, I).
    """
    nu = d / 2.0 - 1.0
    q = np.maximum(np.asarray(r, dtype=np.float64) ** 2, _Q_CLAMP)
    base = math.log(2.0) - (d / 2.0) * math.log(2.0 * math.pi)
    return base - (nu / 2.0) * np.log(q / 2.0) + log_bessel_k(nu, np.sqrt(2.0 * q))


def laplace_entropy_constant(d: int) -> float:
    """c_d: entropy in nats of the d-dimensional Laplace with Sigma = I.

    A fitted Laplace is an affine image of this law, so its entropy is
    c_d + 1/2 ln det Sigma. c_1 = 1 + ln sqrt(2) in closed form. For d >= 2,
    c_d = -int p(r) ln f(r) dr over the radius r = |x|, with the radial
    density p(r) = S_{d-1} r^(d-1) f(r), by the trapezoidal rule in ln r from
    r = 1e-6, below which the density is clamped, to 50 + 2d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return 1.0 + math.log(math.sqrt(2.0))
    t = np.arange(0.5 * math.log(_Q_CLAMP), math.log(50.0 + 2.0 * d), _RADIAL_STEP)
    log_f = standard_laplace_logpdf(np.exp(t), d)
    log_sphere = math.log(2.0) + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)
    r_times_p = np.exp(log_sphere + d * t + log_f)  # dr = r d(ln r)
    value = -float(np.sum(r_times_p * log_f)) * _RADIAL_STEP
    if not math.isfinite(value):
        raise DomainError(f"Laplace entropy constant overflows at d = {d}")
    return value


_MIN_BINS = 24
_MAX_BINS = 256


def fit_errors(values) -> tuple[int, float, float]:
    """(n_bins, l1_normal, l1_laplace) of a standardized channel's histogram.

    The histogram has a Freedman-Diaconis bin count clipped to [24, 256]; the
    errors are those of N(0, 1) and of the unit-variance Laplace against it.
    """
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
        n_bins = _MAX_BINS
    n_bins = int(np.clip(n_bins, _MIN_BINS, _MAX_BINS))
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    densities = counts / (values.size * np.diff(edges))
    return (n_bins, *_l1_errors(edges, densities))


def _reference_pdfs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N(0, 1) and unit-variance Laplace (b = sqrt(2)/2) densities at x."""
    b = math.sqrt(2.0) / 2.0
    normal = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    laplace = np.exp(-np.abs(x) / b) / (2.0 * b)
    return normal, laplace


def _l1_errors(edges: np.ndarray, densities: np.ndarray) -> tuple[float, float]:
    """Relative l1 distances ||p - q|| / ||p|| on the bins of a histogram p.

    q is each of the reference densities, evaluated at the bin centres.
    """
    widths = np.diff(edges)
    mass = float(np.sum(np.abs(densities) * widths))
    if mass <= 0.0:
        raise EmptyHistogram("empirical distribution carries no mass")
    return tuple(
        float(np.sum(np.abs(densities - q) * widths)) / mass
        for q in _reference_pdfs((edges[:-1] + edges[1:]) / 2.0)
    )
