import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miinet import log_bessel_k
from miinet.distributions import (
    _BLOCK,
    _l1_errors,
    _reference_pdfs,
    column_fit_errors,
    standard_laplace_logpdf,
)
from miinet.errors import DomainError, EmptyHistogram, NonFinite
from miinet.estimators import Family, entropy_of_covariance

from conftest import make_matrix

import oracles


# ---------------------------------------------------------------- bessel K

def k_nu(order, x):
    """K_order(x) from the package's one Bessel routine, log K."""
    return np.exp(log_bessel_k(order, x))


def test_k_half_closed_form_at_one():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    assert abs(k_nu(0.5, 1.0) - 0.4610685044478946) < 1e-10 * 0.46


def test_k_half_closed_form_grid():
    xs = np.logspace(-2, np.log10(50.0), 60)
    ours = k_nu(0.5, xs)
    ref = np.array([oracles.k_half_closed_form(x) for x in xs])
    assert np.max(np.abs(ours / ref - 1.0)) < 1e-10


def test_k_three_halves_closed_form_grid():
    xs = np.logspace(-2, np.log10(50.0), 40)
    ours = k_nu(1.5, xs)
    ref = np.array([oracles.k_three_halves_closed_form(x) for x in xs])
    assert np.max(np.abs(ours / ref - 1.0)) < 1e-10


def test_k0_at_one_vs_quadrature_oracle():
    # frozen value computed from the integral representation
    assert abs(k_nu(0.0, 1.0) - 0.4210244382) < 1e-9
    assert abs(k_nu(0.0, 1.0) - oracles.bessel_k_quadrature(0.0, 1.0)) < 1e-10


def test_k0_k1_vs_quadrature_oracle_log_grid():
    xs = np.logspace(math.log10(0.01), math.log10(50.0), 40)
    for nu in (0.0, 1.0):
        ours = k_nu(nu, xs)
        ref = np.array([oracles.bessel_k_quadrature(nu, x) for x in xs])
        rel = np.max(np.abs(ours / ref - 1.0))
        assert rel < 1e-8, (nu, rel)


def test_order_symmetry():
    assert k_nu(-0.5, 1.0) == k_nu(0.5, 1.0)
    assert abs(k_nu(-2.0, 3.7) - k_nu(2.0, 3.7)) < 1e-14


def test_recurrence_relation_grid():
    # K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x)
    xs = np.logspace(-1, np.log10(40.0), 25)
    for nu in (0.5, 1.0, 1.5, 2.0, 3.5):
        lhs = k_nu(nu + 1.0, xs)
        rhs = k_nu(nu - 1.0, xs) + (2.0 * nu / xs) * k_nu(nu, xs)
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-8


def test_bessel_domain_error():
    with pytest.raises(DomainError, match=r"^log_bessel_k requires finite x > 0$"):
        k_nu(0.0, 0.0)
    with pytest.raises(DomainError):
        k_nu(1.0, -2.0)
    with pytest.raises(DomainError):
        k_nu(1.0, np.array([1.0, np.nan]))


@pytest.mark.parametrize("nu", [30, 49])
@pytest.mark.parametrize("x", [1e-6, 1e-5])
def test_log_bessel_k_large_order_small_argument(nu, x):
    # K_49(x) exceeds the largest float here, K_30(x) does not; the small-argument
    # form lgamma(nu) - ln 2 + nu ln(2/x) has relative error x^2 / (4 (nu - 1))
    small = math.lgamma(nu) - math.log(2.0) + nu * math.log(2.0 / x)
    ours = log_bessel_k(nu, x)
    assert abs(ours / small - 1.0) < x * x / (4.0 * (nu - 1.0)) + 1e-14, (ours, small)


def test_log_bessel_k_sweep_against_scipy_kve():
    # scipy's kve is AMOS (Amos 1986), an algorithm apart from the package's
    # trapezoidal rule and from oracles.bessel_k_quadrature, which integrates
    # the same representation. The error is relative to |log K| where that
    # exceeds 1, since log K = log(e^x K) - x carries the rounding of x. The
    # bound is twice the 7.1e-15 that a Temme-series and Steed continued-
    # fraction evaluation reaches on this grid.
    xs = np.logspace(-9, math.log10(5e3), 400)
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 7.0, 14.0, 30.0, 49.0):
        scaled = sp.kve(nu, xs)
        finite = np.isfinite(scaled)
        ref = np.log(scaled[finite]) - xs[finite]
        err = np.abs(log_bessel_k(nu, xs[finite]) - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(err) <= 1.4e-14, (nu, np.max(err))


def test_log_bessel_k_over_the_whole_normal_range():
    # no node overflows or warns from the least normal x to 1e300: K_1/2 in
    # closed form, and K_0(x) = -ln(x / 2) - gamma + O(x^2 ln x) at tiny x
    xs = np.logspace(-307, 300, 200)
    half = 0.5 * np.log(np.pi / (2.0 * xs)) - xs
    err = np.abs(log_bessel_k(0.5, xs) - half) / np.maximum(1.0, np.abs(half))
    assert np.max(err) < 4e-15
    for x in (1e-100, 1e-300, 2.3e-308):
        ref = math.log(-math.log(x / 2.0) - np.euler_gamma)
        assert abs(log_bessel_k(0.0, x) / ref - 1.0) < 4e-15, x


# ------------------------------------------------- multivariate Laplace

def test_mvlaplace_d2_point_value_vs_independent_evaluation():
    # f(x) at Sigma=I is K_0(sqrt(2 q))/pi with q = x.x; independent evaluation
    # of the density formula with a high-precision Bessel gives the literal below.
    ours = math.exp(standard_laplace_logpdf(math.hypot(0.5, 0.5), 2))
    assert abs(ours - 0.13401624101699427) < 1e-12


def test_mvlaplace_d2_unit_mass():
    for cov in (np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])):
        mass = oracles.laplace_mass_2d_tensor_grid(cov)
        assert abs(mass - 1.0) < 1e-3
    # and our Sigma = I density agrees with scipy's K_0 pointwise
    r = np.linalg.norm([[0.3, -0.4], [1.0, 2.0], [-2.5, 0.1]], axis=1)
    ref = (2.0 / (2.0 * math.pi)) * sp.k0(np.sqrt(2.0) * r)
    np.testing.assert_allclose(np.exp(standard_laplace_logpdf(r, 2)), ref, rtol=1e-10)


def test_mvlaplace_monotone_in_quadratic_form():
    radii = np.linspace(0.05, 8.0, 50)
    vals = np.exp(standard_laplace_logpdf(radii, 2))
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_mvlaplace_sampler_pdf_agree_via_entropy():
    # mean of -log f over scale-mixture draws sqrt(W) z converges to the
    # quadrature entropy: the strongest check that the density is that law's
    draws = oracles.laplace_draws(1_000_000, 2, seed=31415)
    mc = float(np.mean(-standard_laplace_logpdf(np.linalg.norm(draws, axis=1), 2)))
    h_ref = oracles.laplace_entropy_2d_radial_identity()
    assert abs(mc - h_ref) < 0.01


def test_multivariate_gaussian_entropy_and_sampling():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    expected = math.log(2.0 * math.pi * math.e) + 0.5 * math.log(np.linalg.det(cov))
    assert abs(entropy_of_covariance(cov, Family.GAUSSIAN) - expected) < 1e-12
    z = np.random.default_rng(5).standard_normal((400_000, 2))
    x = make_matrix(z @ np.linalg.cholesky(cov).T)
    np.testing.assert_allclose(x.covariance, cov, atol=0.02)


# ------------------------------------------------- empirical distributions

def test_empirical_distribution_mass_and_bins(rng):
    n_bins, _, _ = column_fit_errors(rng.standard_normal((20_000, 1)))
    assert 24 <= n_bins[0] <= 256


def test_empirical_distribution_bin_clipping(rng):
    few, _, _ = column_fit_errors(rng.standard_normal((30, 1)))
    assert few[0] >= 24
    many, _, _ = column_fit_errors(rng.standard_normal((5_000_000, 1)))
    assert many[0] <= 256


def test_empirical_distribution_errors():
    with pytest.raises(EmptyHistogram):
        column_fit_errors(np.ones((100, 1)))


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 5e-324] * 50,  # the Freedman-Diaconis width underflows to 0: 256 bins
        [1.0, float(np.nextafter(1.0, 2.0))] * 50,  # 24 bins inside one ulp
        [0.0, 5e-322] * 50,  # 24 bins fit, but their densities overflow to inf
    ],
    ids=["width-underflows", "one-ulp-range", "densities-overflow"],
)
def test_fit_errors_range_too_narrow_for_its_bins(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyHistogram):
            column_fit_errors(np.array(values)[:, None])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_errors_non_finite_sample(bad):
    with pytest.raises(NonFinite) as info:
        column_fit_errors(np.array([[0.0], [1.0], [bad], [2.0]]))
    assert (info.value.channel, info.value.t) == (0, 2)


@pytest.mark.parametrize("t, n", [(50, 4), (1442, 13)], ids=["one-block", "second-block"])
def test_column_fit_errors_name_the_non_finite_channel(t, n):
    data = np.random.default_rng(0).standard_normal((t, n))
    data[7, n - 2] = math.nan
    data[3, n - 1] = math.inf
    with pytest.raises(NonFinite) as info:
        column_fit_errors(data)
    assert (info.value.channel, info.value.t) == (n - 2, 7)


def _fit_input(seed: int, t: int, n: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((t, n))
    if kind == "integer":  # samples on bin edges
        data = np.round(3.0 * data)
    elif kind == "iqr0":  # over 80% of each column tied: 256 bins
        data[: 4 * t // 5 + 1] = 0.25
    elif kind == "ties":  # runs of ties at the minimum and the maximum
        data = np.clip(data, -0.5, 0.5)
    elif kind == "edges":  # samples on and one ulp beside the bin edges np.histogram draws
        for column in data.T:
            lo, hi = column.min(), column.max()
            edges = np.linspace(lo, hi, oracles.fit_errors_reference(column)[0] + 1)
            near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
            column[1 : near.size + 1] = np.clip(near, lo, hi)[: column.size - 1]
    flat = data.max(axis=0) == data.min(axis=0)
    data[-1, flat] += 1.0
    return data


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.sampled_from([2, 3, 50, 1442, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]),
    n=st.integers(1, 13),
    kind=st.sampled_from(["normal", "integer", "iqr0", "ties", "edges"]),
)
@example(seed=1, t=2, n=1, kind="normal")
@example(seed=2, t=1442, n=13, kind="iqr0")  # 11 columns a block, then 2
@example(seed=3, t=3 * _BLOCK + 5, n=2, kind="integer")  # columns longer than a block
@example(seed=4, t=1442, n=5, kind="edges")
def test_column_fit_errors_match_the_per_column_reference_bit_for_bit(seed, t, n, kind):
    data = _fit_input(seed, t, n, kind)
    n_bins, normal, laplace = column_fit_errors(data)
    expected = [oracles.fit_errors_reference(data[:, c]) for c in range(n)]
    assert n_bins.tolist() == [e[0] for e in expected]
    assert normal.tobytes() == np.array([e[1] for e in expected]).tobytes()
    assert laplace.tobytes() == np.array([e[2] for e in expected]).tobytes()
    if kind == "iqr0" and t >= 50:
        assert set(n_bins.tolist()) == {256}


# ------------------------------------------------------------ fit errors

def test_fit_error_zero_for_binned_model():
    edges = np.linspace(-8.0, 8.0, 201)
    centers = (edges[:-1] + edges[1:]) / 2.0
    dens = np.exp(-0.5 * centers**2) / math.sqrt(2.0 * math.pi)
    dens = dens / np.sum(dens * np.diff(edges))  # renormalize the truncation
    err, _ = _l1_errors(edges, dens)
    # only the renormalization residue remains
    assert err < 1e-6
    # unit-variance Laplace, b = 1/sqrt(2), from its own closed form
    dens = np.exp(-math.sqrt(2.0) * np.abs(centers)) / math.sqrt(2.0)
    _, err = _l1_errors(edges, dens)
    assert err < 1e-6


def test_univariate_pdfs_normalized():
    xs = np.linspace(-40.0, 40.0, 20001)
    for pdf in _reference_pdfs(xs):
        mass = np.trapezoid(pdf, xs)
        # trapezoid on the Laplace kink converges ~h^2; 5e-6 at this grid
        assert abs(mass - 1.0) < 5e-6
        # both references are the standardized members of their family
        assert abs(np.trapezoid(xs * pdf, xs)) < 5e-6
        assert abs(np.trapezoid(xs * xs * pdf, xs) - 1.0) < 5e-6


def test_fit_error_large_sample_self_consistency():
    rng = np.random.default_rng(7)
    _, err, _ = column_fit_errors(rng.standard_normal((1_000_000, 1)))
    assert err[0] < 0.05


def test_fit_error_prefers_matching_family():
    rng = np.random.default_rng(8)
    b = math.sqrt(2.0) / 2.0
    draws = rng.laplace(0.0, b, size=1_000_000)
    _, err_nrm, err_lap = column_fit_errors(draws[:, None])
    assert err_lap[0] < err_nrm[0]
