"""Independent numerical oracles used by the tests.

Bessel values come from adaptive quadrature (`scipy.integrate.quad`) of the
integral representation that the package sums by the trapezoidal rule, so
they check its step and tail cut but not the representation; the independent
Bessel oracle is scipy's AMOS `kve`, which the tests call directly. Entropies
come from scipy-backed quadrature, so each check stays a dual route; only the
Laplace Monte Carlo entropy scores its own draws with the package's density.
The fit errors' reference bins one channel at a time with `np.percentile` and
`np.histogram`. The standardization and generator references are the bodies
that built a fresh array at every step, before the record path worked in place.
"""

import math

import numpy as np
import scipy.special as sp
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from miinet.distributions import standard_laplace_logpdf
from miinet.errors import UnstableSpec, ZeroVariance
from miinet.estimators import Family
from miinet.synthetic import BURN_IN, _overflow, _topological_order
from miinet.estimators import cholesky, cmi_offset, conditional_mutual_information, gaussian_cmi
from miinet.omii import _permutations


def bessel_k_quadrature(order: float, x: float) -> float:
    """K_order(x) = integral_0^inf exp(-x cosh t) cosh(order t) dt.

    Integrated as e^{-x} * int exp(-x (cosh t - 1)) cosh(order t) dt so the
    integrand stays O(1) and the quadrature keeps relative accuracy even
    where K itself is ~1e-23.
    """
    nu = abs(order)
    # scaled integrand underflows once x*(cosh(t)-1) ~ 750
    t_max = math.acosh(max(750.0 / x + 1.0, 2.0)) + 1.0
    val, _ = quad(
        lambda t: math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(nu * t),
        0.0,
        t_max,
        limit=400,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return val * math.exp(-x)


def k_half_closed_form(x: float) -> float:
    """K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}."""
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)


def k_three_halves_closed_form(x: float) -> float:
    """K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x)."""
    return k_half_closed_form(x) * (1.0 + 1.0 / x)


def _laplace_logpdf_2d(points: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Reference d=2 multivariate-Laplace log density via scipy's K_0."""
    precision = np.linalg.inv(cov)
    det = float(np.linalg.det(cov))
    u = np.einsum("ij,jk,ik->i", points, precision, points)
    s = np.sqrt(2.0 * np.maximum(u, 1e-12 / math.sqrt(det)))
    return (
        math.log(2.0)
        - math.log(2.0 * math.pi)
        - 0.5 * math.log(det)
        + np.log(sp.k0(s))
    )


def laplace_entropy_2d_tensor_grid(
    cov, radius: float = 12.0, panels: int = 48, nodes_per_panel: int = 12
) -> float:
    """-int f ln f over [-radius, radius]^2 by composite Gauss-Legendre."""
    cov = np.asarray(cov, dtype=np.float64)
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = np.linspace(-radius, radius, panels + 1)
    pts, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        pts.append(mid + half * xg)
        wts.append(half * wg)
    pts = np.concatenate(pts)
    wts = np.concatenate(wts)
    xx, yy = np.meshgrid(pts, pts, indexing="ij")
    ww = np.outer(wts, wts).ravel()
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1)
    logf = _laplace_logpdf_2d(grid, cov)
    f = np.exp(logf)
    return float(np.sum(ww * (-f) * logf))


def laplace_entropy_2d_radial_identity() -> float:
    """High-accuracy h for d=2, Sigma=I via the radial integral."""

    def integrand(r):
        f = sp.k0(math.sqrt(2.0) * r) / math.pi
        return -2.0 * math.pi * r * f * math.log(f)

    val, _ = quad(integrand, 0.0, 40.0, limit=500, epsabs=1e-12, epsrel=1e-12)
    return val


def laplace_mass_2d_tensor_grid(cov, radius: float = 12.0) -> float:
    """Total probability mass of the d=2 density by the same tensor grid."""
    cov = np.asarray(cov, dtype=np.float64)
    xg, wg = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(-radius, radius, 49)
    pts, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        pts.append(mid + half * xg)
        wts.append(half * wg)
    pts = np.concatenate(pts)
    wts = np.concatenate(wts)
    xx, yy = np.meshgrid(pts, pts, indexing="ij")
    ww = np.outer(wts, wts).ravel()
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return float(np.sum(ww * np.exp(_laplace_logpdf_2d(grid, cov))))


def _mean_and_se(neg_log) -> tuple[float, float]:
    return float(neg_log.mean()), float(neg_log.std(ddof=1) / math.sqrt(neg_log.size))


def laplace_draws(m: int, d: int, seed: int) -> np.ndarray:
    """m draws of the standard d-dimensional Laplace sqrt(W) z, W ~ Exp(1), z ~ N(0, I)."""
    rng = np.random.default_rng(seed)
    w = rng.exponential(1.0, size=m)
    return np.sqrt(w)[:, None] * rng.standard_normal((m, d))


def laplace_monte_carlo_entropy(d: int, m: int, seed: int) -> tuple[float, float]:
    """-(1/m) sum ln f(X_i) over `laplace_draws`, and its standard error.

    A stochastic cross-check of the package's exact c_d that shares only the
    Sigma = I density with it (the closed form -|x|/b - ln 2b, b = 1/sqrt 2, at d = 1).
    """
    r = np.linalg.norm(laplace_draws(m, d, seed), axis=1)
    b = math.sqrt(2.0) / 2.0
    log_f = -r / b - math.log(2.0 * b) if d == 1 else standard_laplace_logpdf(r, d)
    return _mean_and_se(-log_f)


def gaussian_monte_carlo_entropy(cov, m: int, seed: int) -> tuple[float, float]:
    """Monte Carlo entropy of N(0, cov) by scipy's sampler and density, with its SE."""
    model = multivariate_normal(np.zeros(len(cov)), cov)
    return _mean_and_se(-model.logpdf(model.rvs(m, random_state=seed)))


def gaussian_cmi_four_log_dets(cov) -> float:
    """Gaussian I(i; j | K) of a covariance ordered (i, j, *K), from four log-dets.

    (1/2) [ln det S_iK + ln det S_jK - ln det S_K - ln det S_ijK], each by
    numpy's LU-based slogdet rather than the package's Cholesky kernel.
    """
    cov = np.asarray(cov, dtype=np.float64)
    n = cov.shape[0]

    def log_det(idx):
        sign, value = np.linalg.slogdet(cov[np.ix_(idx, idx)])
        assert sign > 0
        return value

    rest = list(range(2, n))
    return 0.5 * (
        log_det([0, *rest]) + log_det([1, *rest]) - log_det(rest) - log_det(list(range(n)))
    )


def univariate_laplace_entropy_unit_variance() -> float:
    """1 + ln(2b) at b = sqrt(2)/2."""
    return 1.0 + math.log(math.sqrt(2.0))


def gaussian_entropy_1d_unit() -> float:
    return 0.5 * math.log(2.0 * math.pi * math.e)


def null_cmis_reference(x, i: int, j: int, cond, perms) -> np.ndarray:
    """Shuffle-test nulls of I(i; j | K) recomputed from the data for one test.

    Centres the (*K, i, j) columns, gathers j through every permutation row of
    `perms`, and passes the shuffled copies' cross-covariances with (*K, i) and
    j's ridged variance, with the factor of the (*K, i) slice, to the package
    kernel in one call.
    """
    order = (*cond, i)
    t = x.n_samples
    cols = x.data[:, (*order, j)]
    centered = cols - cols.mean(axis=0)
    cross = centered[perms, -1] @ centered[:, :-1] / (t - 1)
    return gaussian_cmi(cholesky(x.covariance[np.ix_(order, order)]), cross, x.covariance[j, j])


def infer_network_reference(x, cfg) -> dict:
    """oMII one target and one test at a time: {(parent, target): (weight, threshold)}.

    Every score and actual CMI is `conditional_mutual_information`, and every
    test's nulls are `null_cmis_reference` on the bank the package draws for
    `cfg`. Discovery admits the argmax candidate (ties to the lowest index)
    while its test passes; removal then drops, in admission order, each parent
    whose test given the kept set without it fails.
    """
    bank = _permutations(cfg.seed, cfg.n_shuffles, x.n_samples)

    def test(i, j, cond):
        cond = tuple(sorted(cond))
        actual = conditional_mutual_information(x, i, j, cond, cfg.family)
        nulls = null_cmis_reference(x, i, j, cond, bank) + cmi_offset(cfg.family, len(cond))
        threshold = float(np.sort(nulls)[cfg.threshold_rank - 1])
        return actual > threshold, actual, threshold

    edges = {}
    for i in range(x.n_channels):
        candidates = [j for j in range(x.n_channels) if j != i]
        parents, admitted = [], {}
        while candidates:
            scores = [conditional_mutual_information(x, i, j, parents, cfg.family) for j in candidates]
            best = candidates[int(np.argmax(scores))]
            passed, actual, threshold = test(i, best, parents)
            if not passed:
                break
            candidates.remove(best)
            parents.append(best)
            admitted[best] = (actual, threshold)
        kept = list(parents)
        for j in parents:
            if not test(i, j, [p for p in kept if p != j])[0]:
                kept.remove(j)
        edges.update({(j, i): admitted[j] for j in kept})
    return edges


def fit_errors_reference(values) -> tuple[int, float, float]:
    """(n_bins, l1_normal, l1_laplace) of one channel, by `np.percentile` and `np.histogram`.

    The Freedman-Diaconis bin count, clipped to [24, 256] (256 when the IQR
    is 0), over the channel's range; then the relative l1 errors of N(0, 1)
    and of the unit-variance Laplace, evaluated at the bin centres.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = q75 - q25
    if iqr > 0:
        width = 2.0 * iqr * values.size ** (-1.0 / 3.0)
        n_bins = int(np.ceil((hi - lo) / width))
    else:
        n_bins = 256
    n_bins = int(np.clip(n_bins, 24, 256))
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    widths = np.diff(edges)
    densities = counts / (values.size * widths)
    centres = (edges[:-1] + edges[1:]) / 2.0
    b = math.sqrt(2.0) / 2.0
    normal = np.exp(-0.5 * centres * centres) / math.sqrt(2.0 * math.pi)
    laplace = np.exp(-np.abs(centres) / b) / (2.0 * b)
    mass = float(np.sum(np.abs(densities) * widths))
    return (n_bins, *(float(np.sum(np.abs(densities - q) * widths)) / mass
                      for q in (normal, laplace)))


def standardize_reference(data, channels) -> np.ndarray:
    """Every column to zero mean and unit variance (T-1), as a new array."""
    mu = data.mean(axis=0)
    sd = data.std(axis=0, ddof=1)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise ZeroVariance(channels[zero[0]].name)
    return (data - mu) / sd


def _innovations_reference(spec, rng, n: int) -> np.ndarray:
    if spec.innovation is Family.GAUSSIAN:
        return rng.standard_normal((n, spec.n_channels)) * spec.noise_scale
    b = spec.noise_scale * math.sqrt(2.0) / 2.0
    return rng.laplace(0.0, b, size=(n, spec.n_channels))


def _standardized_reference(data) -> np.ndarray:
    mu = data.mean(axis=0)
    sd = data.std(axis=0, ddof=1)
    return (data - mu) / sd


def generate_var_reference(spec) -> np.ndarray:
    """`generate_var`'s data, or its UnstableSpec, with eta and x held apart."""
    radius = float(np.max(np.abs(np.linalg.eigvals(spec.coupling))))
    if radius >= 1.0:
        raise UnstableSpec(f"coupling spectral radius {radius:.4f} >= 1")
    rng = np.random.default_rng(spec.seed)
    total = spec.n_samples + BURN_IN
    eta = _innovations_reference(spec, rng, total)
    x = np.zeros((total, spec.n_channels))
    x[0] = eta[0]
    a_t = spec.coupling.T
    with np.errstate(over="raise", invalid="raise"):
        for t in range(1, total):
            try:
                x[t] = a_t @ x[t - 1] + eta[t]
            except FloatingPointError:
                with np.errstate(over="ignore", invalid="ignore"):
                    j = int(np.argmin(np.isfinite(a_t @ x[t - 1] + eta[t])))
                raise _overflow(spec, j) from None
        try:
            return _standardized_reference(x[BURN_IN:])
        except FloatingPointError:
            raise _overflow(spec, int(np.argmax(np.abs(x).max(axis=0)))) from None


def generate_contemporaneous_reference(spec) -> np.ndarray:
    """`generate_contemporaneous`'s data, or its UnstableSpec, with eta and x held apart."""
    order = _topological_order(spec.coupling)
    rng = np.random.default_rng(spec.seed)
    eta = _innovations_reference(spec, rng, spec.n_samples)
    x = np.zeros_like(eta)
    with np.errstate(over="raise", invalid="raise"):
        for j in order:
            parents = np.nonzero(spec.coupling[:, j])[0]
            col = eta[:, j].copy()
            try:
                for k in parents:
                    col += spec.coupling[k, j] * x[:, k]
                x[:, j] = (col - col.mean()) / col.std(ddof=1)
            except FloatingPointError:
                raise _overflow(spec, j) from None
    return _standardized_reference(x)
