import math

import numpy as np
import pytest

from miinet import bessel_k, fit_errors, log_bessel_k
from miinet.distributions import _l1_errors, _reference_pdfs, standard_laplace_logpdf
from miinet.errors import DomainError, EmptyHistogram
from miinet.estimators import Family, entropy_of_covariance

from conftest import make_matrix

import oracles


# ---------------------------------------------------------------- bessel K

def test_k_half_closed_form_at_one():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    assert abs(bessel_k(0.5, 1.0) - 0.4610685044478946) < 1e-10 * 0.46


def test_k_half_closed_form_grid():
    xs = np.logspace(-2, np.log10(50.0), 60)
    ours = bessel_k(0.5, xs)
    ref = np.array([oracles.k_half_closed_form(x) for x in xs])
    assert np.max(np.abs(ours / ref - 1.0)) < 1e-10


def test_k_three_halves_closed_form_grid():
    xs = np.logspace(-2, np.log10(50.0), 40)
    ours = bessel_k(1.5, xs)
    ref = np.array([oracles.k_three_halves_closed_form(x) for x in xs])
    assert np.max(np.abs(ours / ref - 1.0)) < 1e-10


def test_k0_at_one_vs_quadrature_oracle():
    # frozen value computed from the integral representation
    assert abs(bessel_k(0.0, 1.0) - 0.4210244382) < 1e-9
    assert abs(bessel_k(0.0, 1.0) - oracles.bessel_k_quadrature(0.0, 1.0)) < 1e-10


def test_k0_k1_vs_quadrature_oracle_log_grid():
    xs = np.logspace(math.log10(0.01), math.log10(50.0), 40)
    for nu in (0.0, 1.0):
        ours = bessel_k(nu, xs)
        ref = np.array([oracles.bessel_k_quadrature(nu, x) for x in xs])
        rel = np.max(np.abs(ours / ref - 1.0))
        assert rel < 1e-8, (nu, rel)


def test_order_symmetry():
    assert bessel_k(-0.5, 1.0) == bessel_k(0.5, 1.0)
    assert abs(bessel_k(-2.0, 3.7) - bessel_k(2.0, 3.7)) < 1e-14


def test_recurrence_relation_grid():
    # K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x)
    xs = np.logspace(-1, np.log10(40.0), 25)
    for nu in (0.5, 1.0, 1.5, 2.0, 3.5):
        lhs = bessel_k(nu + 1.0, xs)
        rhs = bessel_k(nu - 1.0, xs) + (2.0 * nu / xs) * bessel_k(nu, xs)
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-8


def test_bessel_domain_error():
    with pytest.raises(DomainError):
        bessel_k(0.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, np.array([1.0, np.nan]))


def test_scaled_and_log_variants():
    x = 300.0
    scaled = bessel_k(0.0, x, scaled=True)
    assert abs(math.log(scaled) - x - log_bessel_k(0.0, x)) < 1e-12
    # unscaled would underflow near x ~ 750; log path must not
    assert np.isfinite(log_bessel_k(1.0, 5000.0))


@pytest.mark.parametrize("nu", [30, 49])
@pytest.mark.parametrize("x", [1e-6, 1e-5])
def test_log_bessel_k_large_order_small_argument(nu, x):
    # K_49(x) exceeds the largest float here, K_30(x) does not; the small-argument
    # form lgamma(nu) - ln 2 + nu ln(2/x) has relative error x^2 / (4 (nu - 1))
    small = math.lgamma(nu) - math.log(2.0) + nu * math.log(2.0 / x)
    ours = log_bessel_k(nu, x)
    assert abs(ours / small - 1.0) < x * x / (4.0 * (nu - 1.0)) + 1e-14, (ours, small)


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
    import scipy.special as sp

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
    n_bins, _, _ = fit_errors(rng.standard_normal(20_000))
    assert 24 <= n_bins <= 256


def test_empirical_distribution_bin_clipping(rng):
    few, _, _ = fit_errors(rng.standard_normal(30))
    assert few >= 24
    many, _, _ = fit_errors(rng.standard_normal(5_000_000))
    assert many <= 256


def test_empirical_distribution_errors():
    with pytest.raises(EmptyHistogram):
        fit_errors(np.ones(100))


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
    _, err, _ = fit_errors(rng.standard_normal(1_000_000))
    assert err < 0.05


def test_fit_error_prefers_matching_family():
    rng = np.random.default_rng(8)
    b = math.sqrt(2.0) / 2.0
    draws = rng.laplace(0.0, b, size=1_000_000)
    _, err_nrm, err_lap = fit_errors(draws)
    assert err_lap < err_nrm
