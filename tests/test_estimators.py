import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miinet import standardize
from miinet.distributions import laplace_entropy_constant
from miinet.errors import ConditionSetTooLarge, SingularCovariance
from miinet.estimators import (
    Family,
    cholesky,
    cmi_of_covariance,
    cmi_offset,
    conditional_mutual_information,
    entropy,
    entropy_of_covariance,
    gaussian_cmi,
    mutual_information,
)
from miinet.omii import OmiiConfig
from miinet.synthetic import GeneratorSpec, chain_coupling, generate_contemporaneous

import oracles
from conftest import duplicated_condition_matrix, make_matrix

GAUSS = Family.GAUSSIAN
LAPLACE = Family.LAPLACE
LN_2PIE_HALF = 0.5 * math.log(2.0 * math.pi * math.e)
LAPLACE_MI_FLOOR = 2.0 * (1.0 + math.log(math.sqrt(2.0))) - laplace_entropy_constant(2)


def pair_cov(rho: float) -> np.ndarray:
    return np.array([[1.0, rho], [rho, 1.0]])


def test_gaussian_entropy_d1_closed_form():
    est = entropy_of_covariance(np.eye(1), Family.GAUSSIAN)
    assert abs(est - LN_2PIE_HALF) < 1e-12
    assert abs(est - 1.41894) < 5e-6


def test_laplace_entropy_d1_monte_carlo_within_3_se():
    start = time.perf_counter()
    exact = entropy_of_covariance(np.eye(1), Family.LAPLACE)
    elapsed = time.perf_counter() - start
    assert exact == oracles.univariate_laplace_entropy_unit_variance()
    mc, se = oracles.laplace_monte_carlo_entropy(1, 50000, 123)
    assert abs(exact - mc) < 3.0 * se
    assert elapsed < 1.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 32, 100])
def test_laplace_entropy_constant_within_3_se_of_monte_carlo(d):
    # d = 1 is checked above; d = 32 exceeds every channel subset of one axis
    # of the 30-sensor deck, and at d = 100 K_{d/2-1} overflows a float near
    # the origin; each dimension has its own fixed seed
    mc, se = oracles.laplace_monte_carlo_entropy(d, 50000, 7000 + d)
    assert abs(laplace_entropy_constant(d) - mc) < 3.0 * se, (d, mc, se)


def test_laplace_entropy_constant_d2_vs_radial_oracle():
    assert abs(laplace_entropy_constant(2) - oracles.laplace_entropy_2d_radial_identity()) < 1e-10


def test_laplace_entropy_constant_d3_closed_form():
    c3 = 3.0 + math.log(2.0 * math.pi) - np.euler_gamma - 0.5 * math.log(2.0)
    assert abs(laplace_entropy_constant(3) - c3) < 1e-12


def test_laplace_entropy_constant_domain():
    with pytest.raises(ValueError):
        laplace_entropy_constant(0)
    # from d = 87, K_{d/2-1} near the origin exceeds the largest float
    assert all(math.isfinite(laplace_entropy_constant(d)) for d in (87, 88, 150))


@pytest.mark.parametrize(
    "d, exact, bound",
    [
        (2, 2.6487362437541664539493307088619, 3.8e-14),
        (3, 3.9140878112278399682455313219997, 5.3e-14),
        (6, 7.5784919694211792030620616188763, 1.1e-13),
        (12, 14.666321412161599618333738556971, 2.0e-13),
        (32, 37.734664497377528493272462873935, 5.2e-13),
    ],
)
def test_laplace_entropy_constant_error_bound(d, exact, bound):
    # `exact` is the same radial integral from 0 to infinity by mpmath's
    # quadrature at 40 digits, with mpmath's own K. Each bound is the error
    # that a Temme-series and Steed continued-fraction K left under the same
    # radial rule, rounded up to two digits: the rule's rounding sets it
    assert abs(laplace_entropy_constant(d) - exact) <= bound


def test_laplace_entropy_constant_bits_pinned():
    # exact reprs of the radial quadrature: a change to its grid, its density
    # or the Bessel-K evaluation shows here before it reaches any estimate
    pinned = {
        2: "2.6487362437541293",
        3: "3.9140878112277875",
        6: "7.578491969421079",
        32: "37.73466449737701",
        100: "115.15387072612312",
    }
    assert {d: repr(laplace_entropy_constant(d)) for d in pinned} == pinned


def test_laplace_entropy_d2_vs_tensor_quadrature():
    est = entropy_of_covariance(np.eye(2), Family.LAPLACE)
    h_ref = oracles.laplace_entropy_2d_tensor_grid(np.eye(2))
    assert abs(est - h_ref) < 5e-3


def test_joint_entropy_additive_when_independent():
    h_joint = entropy_of_covariance(pair_cov(0.0), Family.GAUSSIAN)
    assert abs(h_joint - 2.0 * LN_2PIE_HALF) < 1e-12


def test_conditional_entropy_closed_form_rho_half():
    cov = pair_cov(0.5)
    h_xy = entropy_of_covariance(cov, Family.GAUSSIAN)
    h_y = entropy_of_covariance(cov[1:, 1:], Family.GAUSSIAN)
    expected = 0.5 * math.log(2.0 * math.pi * math.e * 0.75)
    assert abs((h_xy - h_y) - expected) < 1e-12


def test_gaussian_mi_closed_form_grid():
    for rho in (0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9):
        mi = cmi_of_covariance(pair_cov(rho), Family.GAUSSIAN)
        assert abs(mi - (-0.5 * math.log(1.0 - rho * rho))) < 1e-10


def test_gaussian_mi_zero_at_independence():
    assert cmi_of_covariance(pair_cov(0.0), Family.GAUSSIAN) == 0.0


def test_gaussian_mi_rho_point_six():
    mi = cmi_of_covariance(pair_cov(0.6), Family.GAUSSIAN)
    assert abs(mi - 0.22314355131420976) < 1e-12


def test_laplace_mi_d2_vs_quadrature():
    # I = h(X) + h(Y) - h(X,Y): marginals are unit-variance univariate Laplace
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    h_xy = oracles.laplace_entropy_2d_tensor_grid(cov)
    mi_ref = 2.0 * oracles.univariate_laplace_entropy_unit_variance() - h_xy
    mi = cmi_of_covariance(cov, Family.LAPLACE)
    assert abs(mi - mi_ref) < 2e-3
    # exactly the Gaussian MI plus the independence floor 2 c_1 - c_2
    assert abs(mi - (cmi_of_covariance(cov, GAUSS) + LAPLACE_MI_FLOOR)) < 1e-12


def test_empty_condition_set_reproduces_mi_bit_identically(rng):
    x = make_matrix(rng.standard_normal((600, 3)))
    assert conditional_mutual_information(x, 0, 2, (), LAPLACE) == mutual_information(x, 0, 2, LAPLACE)


def test_mi_symmetry_bit_identical(rng):
    x = make_matrix(rng.standard_normal((600, 2)))
    for family in Family:
        assert mutual_information(x, 0, 1, family) == mutual_information(x, 1, 0, family)


def test_cmi_matches_partial_correlation_identity():
    rng = np.random.default_rng(123)
    z = rng.standard_normal((4000, 3))
    data = np.copy(z)
    data[:, 1] = 0.6 * data[:, 0] + 0.8 * z[:, 1]
    data[:, 2] = 0.5 * data[:, 1] + 0.7 * z[:, 2]
    x = standardize(make_matrix(data))
    cmi = conditional_mutual_information(x, 0, 2, (1,), GAUSS)
    c = np.cov(x.data.T, ddof=1)
    r_xy = c[0, 2] / math.sqrt(c[0, 0] * c[2, 2])
    r_xz = c[0, 1] / math.sqrt(c[0, 0] * c[1, 1])
    r_yz = c[2, 1] / math.sqrt(c[2, 2] * c[1, 1])
    partial = (r_xy - r_xz * r_yz) / math.sqrt((1 - r_xz**2) * (1 - r_yz**2))
    assert abs(cmi - (-0.5 * math.log(1.0 - partial**2))) < 1e-10


def test_markov_chain_conditioning_reduces_dependence():
    wins = 0
    for trial in range(100):
        spec = GeneratorSpec(3, 2000, chain_coupling(3, 0.6), seed=9000 + trial)
        x = generate_contemporaneous(spec)
        mi = mutual_information(x, 0, 2, GAUSS)
        cmi = conditional_mutual_information(x, 0, 2, (1,), GAUSS)
        wins += cmi < mi
    assert wins >= 95


def test_mean_gaussian_mi_small_sample_bias_bound():
    t = 500
    values = []
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        x = make_matrix(rng.standard_normal((t, 2)))
        values.append(mutual_information(x, 0, 1, GAUSS))
    mean = float(np.mean(values))
    assert 0.0 <= mean <= (3.0 / t) * 1.5


def test_mc_machinery_cross_check_gaussian():
    cov = np.array([[1.0, 0.3], [0.3, 1.5]])
    exact = entropy_of_covariance(cov, GAUSS)
    mc, se = oracles.gaussian_monte_carlo_entropy(cov, 200_000, 999)
    assert abs(mc - exact) < 3.0 * se
    assert abs(exact - (LN_2PIE_HALF * 2.0 + 0.5 * math.log(np.linalg.det(cov)))) < 1e-12


def test_condition_set_too_large(rng):
    x = make_matrix(rng.standard_normal((5, 5)))
    with pytest.raises(ConditionSetTooLarge):
        conditional_mutual_information(x, 0, 1, (2, 3, 4), GAUSS)


def test_cholesky_rejects_a_matrix_that_is_not_positive_definite():
    with pytest.raises(SingularCovariance, match=r"^covariance not positive definite$"):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_mi_argument_validation(rng):
    x = make_matrix(rng.standard_normal((100, 3)))
    with pytest.raises(ValueError):
        mutual_information(x, 1, 1, GAUSS)
    with pytest.raises(ValueError):
        conditional_mutual_information(x, 0, 1, (1,), GAUSS)


def test_family_validation(rng):
    assert OmiiConfig("gaussian").family is Family.GAUSSIAN
    with pytest.raises(ValueError):
        OmiiConfig("cauchy")
    x = make_matrix(rng.standard_normal((50, 2)))
    assert entropy(x, [0], "laplace") == entropy(x, [0], LAPLACE)
    with pytest.raises(ValueError):
        entropy(x, [0], "cauchy")


def test_laplace_cmi_is_gaussian_cmi_plus_offset(rng):
    x = make_matrix(rng.standard_normal((400, 6)))
    for cond in ((), (2,), (2, 3), (2, 3, 4, 5)):
        lap = conditional_mutual_information(x, 0, 1, cond, LAPLACE)
        gau = conditional_mutual_information(x, 0, 1, cond, GAUSS)
        assert abs(lap - (gau + cmi_offset(LAPLACE, len(cond)))) < 1e-12
        assert cmi_offset(GAUSS, len(cond)) == 0.0
    assert abs(cmi_offset(LAPLACE, 0) - LAPLACE_MI_FLOOR) < 1e-15


def test_entropy_estimate_empty_subset_is_zero(rng):
    x = make_matrix(rng.standard_normal((50, 2)))
    assert entropy(x, (), GAUSS) == 0.0
    assert entropy(x, (), LAPLACE) == 0.0


def test_cmi_with_duplicated_condition_channel_equals_single():
    # K = {k, copy of k} carries no more than {k}: one ridge serves every slice
    x = duplicated_condition_matrix()
    single = conditional_mutual_information(x, 0, 1, (2,), GAUSS)
    double = conditional_mutual_information(x, 0, 1, (2, 3), GAUSS)
    assert single > 0.05
    assert abs(double - single) < 1e-5


def test_cmi_rejects_out_of_range_channels(rng):
    x = make_matrix(rng.standard_normal((100, 3)))
    for i, j, cond in ((0, 3, ()), (-1, 1, ()), (0, 1, (5,))):
        with pytest.raises(ValueError):
            conditional_mutual_information(x, i, j, cond, GAUSS)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_cmi_kernel_matches_four_log_det_oracle(seed, k):
    rng = np.random.default_rng(seed)
    n = k + 5
    mixing = np.eye(n) + rng.uniform(-1.0, 1.0, (n, n)) / math.sqrt(n)
    x = make_matrix(rng.standard_normal((200, n)) @ mixing)
    cov = x.covariance
    i, j, *rest = (int(c) for c in rng.permutation(n))
    cond, others = rest[:k], rest[k:]

    def oracle(a, b):
        order = [a, b, *cond]
        return oracles.gaussian_cmi_four_log_dets(cov[np.ix_(order, order)])

    for a, b in ((i, j), (j, i)):
        assert abs(conditional_mutual_information(x, a, b, cond, GAUSS) - oracle(a, b)) < 1e-12
        given_set, partners = [*cond, a], [b, *others]
        batch = gaussian_cmi(
            cholesky(cov[np.ix_(given_set, given_set)]),
            cov[np.ix_(partners, given_set)],
            cov.diagonal()[partners],
        )
        assert batch.shape == (len(partners),)
        for v, value in zip(partners, batch):
            assert abs(value - oracle(a, v)) < 1e-12, (a, v, cond)


def test_gaussian_cmi_rejects_rho_squared_at_or_above_one():
    with pytest.raises(SingularCovariance):
        cmi_of_covariance(pair_cov(1.0), GAUSS)
    # given K with unit variance and i independent of K: rho^2 = 1 exactly in
    # a batch with a valid row, rho^2 = 4, and a negative residual variance
    for cross, var in (
        ([[0.0, 0.5], [0.0, 1.0]], [1.0, 1.0]),
        ([[0.0, 2.0]], [1.0]),
        ([[2.0, 0.0]], [1.0]),
    ):
        with pytest.raises(SingularCovariance):
            gaussian_cmi(np.eye(2), np.array(cross), np.array(var))
    assert gaussian_cmi(np.eye(2), np.array([[0.0, 0.6]]), np.array([1.0]))[0] == pytest.approx(
        -0.5 * math.log(1.0 - 0.36), abs=1e-15
    )


def test_gaussian_cmi_zero_residual_raises_without_warning():
    # v's covariance with K equals its variance: its residual variance given K is exactly 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cross, var in (([[1.0, 0.5]], [1.0]), ([[0.0, 0.6], [1.0, 0.5]], [1.0, 1.0])):
            with pytest.raises(SingularCovariance):
                gaussian_cmi(np.eye(2), np.array(cross), np.array(var))
    assert caught == []
