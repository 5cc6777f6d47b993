"""Bessel-K, the standard Laplace density and entropy, and the fit report's errors.

The multivariate Laplace family fitted throughout is the elliptical
scale-mixture x = mu + sqrt(W) * A z with W ~ Exponential(1),
z ~ N(0, I) and A A^T = Sigma, so Cov(x) = Sigma. Every fitted Laplace is an
affine image of the standard (Sigma = I) law, so only that law's density is
needed: a function of the radius |x| through the modified Bessel function of
the second kind K_nu, which one trapezoidal rule on its integral
representation gives in log space, so that it neither underflows at large x
nor overflows at large nu and small x; the tests check it against scipy's
AMOS routine. Its entropy c_d, which fixes the entropy of every fitted
Laplace, comes from a radial quadrature of that density.

The fit report compares each standardized channel with two fixed densities,
N(0, 1) and the unit-variance Laplace: `column_fit_errors` sorts each block
of whole columns of a matrix once, at most 16,384 cells unless one column is
longer, counts each column's bins by `np.searchsorted` on its sorted samples,
and returns the relative l1 error of each density on each column's bins.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EmptyHistogram, NonFinite

# Step in ln r of the radial entropy quadrature. The integrand is analytic in a
# strip about the real ln r axis and decays exponentially at both ends, so the
# trapezoidal rule's step error falls like exp(-2 pi a / h) for a strip of
# half-width a (Trefethen & Weideman 2014, SIAM Review): c_2 moves by under
# 2e-12 between steps 0.1 and 0.01.
_RADIAL_STEP = 0.05

# Bessel-K by the trapezoidal rule, nodes t = k h, on the integral
# e^x K_nu(x) = int_0^inf g(t) dt, g(t) = exp(-x (cosh t - 1)) cosh(nu t).
# g is even and entire and decays doubly exponentially, so the rule converges
# geometrically in 1/h (Trefethen & Weideman 2014). ln g is at most
# psi(t) = nu t - x (cosh t - 1), whose peak t* = asinh(nu / x) has curvature
# hypot(x, nu). A step of 0.4 of the peak's width 1 / sqrt(hypot(x, nu)) puts
# the error on its Gaussian-like bulk near exp(-2 pi^2 / 0.4^2); the cap 0.25
# keeps the error that g's strip of analyticity |Im t| < pi / 2 allows,
# about exp(-pi^2 / h), below double rounding where x and nu are small.
_K_STEP = 0.4
_K_STEP_CAP = 0.25
# Nodes where psi lies 750 below its peak are left out: there each term of the
# sum, exp(psi - peak) times at most 2, underflows to zero anyway.
_K_TAIL = 750.0
# Arguments per (arguments x nodes) array; a row holds a few hundred nodes.
_K_BLOCK = 64


def log_bessel_k(order: float, x):
    """log K_order(x), taken in log space: finite for large x and for large
    orders at small x, where K itself underflows or overflows.

    A float64 array of x's shape; DomainError unless every x is finite and
    > 0. The sum is of e^x K_order(x), each term shifted by psi's peak.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(~np.isfinite(x_arr)) or np.any(x_arr <= 0.0):
        raise DomainError("log_bessel_k requires finite x > 0")
    nu = abs(float(order))
    flat = x_arr.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _K_BLOCK):
        xb = flat[start:start + _K_BLOCK, None]
        curvature = np.hypot(xb, nu)
        root = np.sqrt(curvature)
        peak = np.log(nu + curvature) - np.log(xb)  # asinh(nu / x), finite at the least x
        top = nu * peak - nu * nu / (curvature + xb)  # psi(t*): x (cosh t* - 1) = hypot - x
        h = np.minimum(_K_STEP / root, _K_STEP_CAP)
        # past t*, psi falls at least hypot(x, nu) 2 sinh(s / 2)^2 over a distance s
        last = np.ceil((peak + 2.0 * np.arcsinh(math.sqrt(0.5 * _K_TAIL) / root)) / h)
        # a row repeats its own last node, whose term is 0: no t runs past its row's reach
        t = np.minimum(np.arange(np.max(last) + 1.0), last) * h  # float: no ufunc casts
        scale = np.where(xb < 1e-200, 2.0**-256, 1.0)  # exact: x sinh(t / 2)^2 stays finite
        psi = nu * t - 2.0 * (xb / scale**2) * (np.sinh(0.5 * t) * scale) ** 2
        fold = 1.0 + np.exp(-2.0 * nu * t)  # 2 cosh(nu t) e^(-nu t)
        fold[:, 0] = 1.0  # halved at t = 0, the rule's end weight
        total = np.sum(np.exp(psi - top) * fold, axis=1, keepdims=True)
        out[start:start + _K_BLOCK] = (top + np.log(0.5 * h * total))[:, 0]
    return out.reshape(x_arr.shape) - x_arr


# The density is finite only for r > 0; clamping r^2 at 1e-18 keeps sums of
# log f over quadrature nodes finite. It is also the quadrature's start, r = 1e-9:
# near 0 the radial density grows like r, so the head it omits is about
# r^2 ln(1/r), under 1e-16.
_Q_CLAMP = 1e-18


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
    r = 1e-9, below which the density is clamped, to 50 + 2d. The head below
    r = 1e-9 is under 1e-16 and the step error decays like exp(-2 pi a / h), so
    what remains is floating-point error in f and the sum: against a 30-digit
    mpmath quadrature, |error| <= 2e-13 for d = 2..12 (3.8e-14 at d = 2) and
    5.2e-13 at d = 32.
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
# Cells sorted at a time: a block of whole columns, or one column when it is
# longer. Larger blocks take fewer numpy calls but raise peak memory.
_BLOCK = 16_384


def column_fit_errors(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_bins, l1_normal, l1_laplace) of every column of a (T, N) matrix: length-N arrays.

    Each histogram has a Freedman-Diaconis bin count clipped to [24, 256].
    Bit for bit what `np.percentile` and `np.histogram` give column by column.
    Each block of whole columns, at most `_BLOCK` cells unless one column is
    longer, is sorted once. A column's range is its first and last sorted
    value and its edges are `np.linspace(lo, hi, n_bins + 1)`, as in
    `np.histogram`; bin k counts the samples in [e_k, e_k+1), the last bin
    closed, by `np.searchsorted` on the sorted column. The l1 sums run on the
    columns that share a bin count. Raises NonFinite for a NaN or an inf, and
    EmptyHistogram for fewer than 2 samples or a column whose range is empty,
    overflows, or is too narrow for its bins.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (T x N)")
    t, n_cols = data.shape
    if t < 2:
        raise EmptyHistogram("need at least 2 samples")
    n_bins = np.empty(n_cols, dtype=np.intp)
    edges = np.empty((n_cols, _MAX_BINS + 1))
    below = np.full((n_cols, _MAX_BINS + 1), t)  # samples below each edge; t past the last bin
    per_block = max(1, _BLOCK // t)
    for c0 in range(0, n_cols, per_block):
        cols = slice(c0, c0 + per_block)
        block = np.sort(data[:, cols].T, axis=1)
        lo, hi = block[:, 0], block[:, -1]  # -inf sorts first, inf and NaN last
        bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
        if bad.size:
            c = c0 + int(bad[0])
            raise NonFinite(c, int(np.flatnonzero(~np.isfinite(data[:, c]))[0]))
        span = hi - lo
        bad = np.flatnonzero((span == 0.0) | np.isinf(span))
        if bad.size:
            c = int(bad[0])
            reason = "all samples identical" if span[c] == 0.0 else "range overflows float64"
            raise EmptyHistogram(f"column {c0 + c}: {reason}")
        q75, q25 = np.percentile(block, [75.0, 25.0], axis=1)
        with np.errstate(divide="ignore", over="ignore"):  # x / 0 = inf: 256 bins
            fd = np.ceil(span / (2.0 * (q75 - q25) * t ** (-1.0 / 3.0)))
        n_bins[cols] = np.clip(fd, _MIN_BINS, _MAX_BINS)
        for c, row in enumerate(block, start=c0):
            b = n_bins[c]
            edges[c, :b + 1] = np.linspace(row[0], row[-1], b + 1)
            if np.any(edges[c, 1:b + 1] <= edges[c, :b]):
                raise EmptyHistogram(f"column {c}: range too narrow for {b} bins")
            below[c, :b] = np.searchsorted(row, edges[c, :b])
    normal, laplace = np.empty(n_cols), np.empty(n_cols)
    for b in set(n_bins.tolist()):
        rows = np.flatnonzero(n_bins == b)
        group = edges[rows, :b + 1]
        with np.errstate(over="ignore"):  # densities of overflowing size fail in `_l1_errors`
            densities = np.diff(below[rows, :b + 1], axis=1) / (t * np.diff(group, axis=1))
        normal[rows], laplace[rows] = _l1_errors(group, densities)
    return n_bins, normal, laplace


def _reference_pdfs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N(0, 1) and unit-variance Laplace (b = sqrt(2)/2) densities at x."""
    b = math.sqrt(2.0) / 2.0
    normal = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    laplace = np.exp(-np.abs(x) / b) / (2.0 * b)
    return normal, laplace


def _l1_errors(edges: np.ndarray, densities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative l1 distances ||p - q|| / ||p|| on the bins of each histogram p.

    q is each of the reference densities, evaluated at the bin centres. The
    last axis runs over edges and bins; leading axes stack histograms.
    """
    widths = np.diff(edges, axis=-1)
    mass = np.sum(np.abs(densities) * widths, axis=-1)
    if not np.all(np.isfinite(mass) & (mass > 0.0)):
        raise EmptyHistogram("histogram densities carry no finite mass")
    return tuple(
        np.sum(np.abs(densities - q) * widths, axis=-1) / mass
        for q in _reference_pdfs((edges[..., :-1] + edges[..., 1:]) / 2.0)
    )
