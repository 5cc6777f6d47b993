import math

import numpy as np
import pytest

from miinet import standardize
from miinet.errors import CyclicGraph, UnstableSpec
from miinet.estimators import Family, cmi_offset, mutual_information
from miinet.io import bundled_grid_path, load_grid_csv
from miinet.spatial import neighbor_pairs
from miinet.synthetic import (
    GeneratorSpec,
    chain_coupling,
    coupling_from_edges,
    generate_contemporaneous,
    generate_var,
    random_dag_coupling,
    star_coupling,
)

from oracles import generate_contemporaneous_reference, generate_var_reference


def excess_kurtosis(col: np.ndarray) -> float:
    z = (col - col.mean()) / col.std()
    return float(np.mean(z**4) - 3.0)


def test_var_no_coupling_is_serially_uncorrelated():
    spec = GeneratorSpec(2, 100_000, np.zeros((2, 2)), seed=1)
    x = generate_var(spec)
    for k in range(2):
        col = x.data[:, k]
        lag1 = np.corrcoef(col[:-1], col[1:])[0, 1]
        assert abs(lag1) < 0.02


def test_innovation_family_controls_kurtosis():
    lap = generate_var(GeneratorSpec(1, 100_000, np.zeros((1, 1)), innovation=Family.LAPLACE, seed=2))
    gau = generate_var(GeneratorSpec(1, 100_000, np.zeros((1, 1)), innovation=Family.GAUSSIAN, seed=2))
    assert abs(excess_kurtosis(lap.data[:, 0]) - 3.0) < 0.4
    assert abs(excess_kurtosis(gau.data[:, 0])) < 0.2


def test_var_coupling_raises_mi_above_independent_pair():
    # autocorrelated channels so the lag-1 drive mixes into equal-time correlation
    a = np.array([[0.7, 0.6], [0.0, 0.7]])
    coupled = generate_var(GeneratorSpec(2, 20_000, a, seed=5))
    independent = generate_var(GeneratorSpec(2, 20_000, np.diag([0.7, 0.7]), seed=5))
    mi_c = mutual_information(coupled, 0, 1, Family.LAPLACE)
    mi_i = mutual_information(independent, 0, 1, Family.LAPLACE)
    # stationary covariance of x_t = A^T x_{t-1} + eta_t: S = A^T S A + I
    s = np.linalg.solve(np.eye(4) - np.kron(a.T, a.T), np.eye(2).ravel()).reshape(2, 2)
    rho = s[0, 1] / math.sqrt(s[0, 0] * s[1, 1])
    expected = -0.5 * math.log(1.0 - rho * rho)
    floor = cmi_offset(Family.LAPLACE, 0)
    assert abs(mi_i - floor) < 1e-3
    assert abs((mi_c - floor) - expected) < 0.02
    assert mi_c - mi_i >= 0.5 * expected


def test_var_unstable_spec_rejected():
    with pytest.raises(UnstableSpec):
        generate_var(GeneratorSpec(2, 100, np.array([[0.0, 1.2], [0.0, 0.0]]) + np.eye(2)))


def test_contemporaneous_empty_graph_independent():
    spec = GeneratorSpec(3, 50_000, np.zeros((3, 3)), seed=6)
    x = generate_contemporaneous(spec)
    family = Family.GAUSSIAN
    assert mutual_information(x, 0, 1, family) < 3e-4
    assert mutual_information(x, 1, 2, family) < 3e-4


def test_contemporaneous_star_matches_analytic_rho():
    weight, noise = 0.8, 1.0
    spec = GeneratorSpec(5, 200_000, star_coupling(5, weight), noise_scale=noise, seed=7)
    x = generate_contemporaneous(spec)
    rho = weight / math.sqrt(weight**2 + noise**2)
    expected_mi = -0.5 * math.log(1.0 - rho * rho)
    family = Family.GAUSSIAN
    for leaf in (1, 2, 3, 4):
        mi = mutual_information(x, 0, leaf, family)
        assert abs(mi - expected_mi) < 0.01


def test_contemporaneous_chain_partial_correlation_vanishes():
    spec = GeneratorSpec(3, 100_000, chain_coupling(3, 0.6), seed=8)
    x = generate_contemporaneous(spec)
    c = np.corrcoef(x.data.T)
    partial = (c[0, 2] - c[0, 1] * c[1, 2]) / math.sqrt(
        (1 - c[0, 1] ** 2) * (1 - c[1, 2] ** 2)
    )
    assert abs(partial) < 0.01


def test_contemporaneous_cycle_rejected():
    coupling = coupling_from_edges(2, [(0, 1, 0.5), (1, 0, 0.5)])
    with pytest.raises(CyclicGraph):
        generate_contemporaneous(GeneratorSpec(2, 100, coupling))


def test_determinism_and_seed_sensitivity():
    spec = GeneratorSpec(4, 2000, random_dag_coupling(4, 0.3, 0.5, seed=1), seed=42)
    a = generate_contemporaneous(spec)
    b = generate_contemporaneous(spec)
    assert np.array_equal(a.data, b.data)
    c = generate_contemporaneous(
        GeneratorSpec(4, 2000, random_dag_coupling(4, 0.3, 0.5, seed=1), seed=43)
    )
    assert not np.array_equal(a.data, c.data)


def test_moments_consistent_across_seeds():
    coupling = chain_coupling(3, 0.6)
    covs = []
    t = 4000
    for seed in range(20):
        x = generate_contemporaneous(GeneratorSpec(3, t, coupling, seed=seed))
        covs.append(np.cov(x.data.T, ddof=1))
    covs = np.array(covs)
    grand = covs.mean(axis=0)
    # entry-wise spread across seeds stays within 5 standard errors
    se = covs.std(axis=0, ddof=1) / math.sqrt(20)
    assert np.all(np.abs(covs.mean(axis=0) - grand) <= 5 * np.maximum(se, 1e-12))
    # and each seed's covariance is near the cross-seed mean at ~1/sqrt(T) scale
    assert np.max(np.abs(covs - grand)) < 5.0 / math.sqrt(t)


def test_outputs_pass_standardize_idempotence():
    for gen, spec in (
        (generate_var, GeneratorSpec(3, 3000, np.zeros((3, 3)), seed=9)),
        (generate_contemporaneous, GeneratorSpec(3, 3000, chain_coupling(3, 0.5), seed=9)),
    ):
        x = gen(spec)
        again = standardize(x)
        assert np.max(np.abs(again.data - x.data)) < 1e-12


def test_true_edges_and_skeleton():
    coupling = coupling_from_edges(4, [(0, 1, 0.5), (2, 3, -0.4)])
    spec = GeneratorSpec(4, 100, coupling)
    assert spec.true_edges() == {(0, 1), (2, 3)}
    assert spec.skeleton() == {frozenset({0, 1}), frozenset({2, 3})}


def test_coupling_from_edges_validation():
    with pytest.raises(ValueError):
        coupling_from_edges(3, [(0, 3, 0.5)])
    with pytest.raises(ValueError):
        coupling_from_edges(3, [(1, 1, 0.5)])


def test_coupling_from_edges_rejects_a_repeated_edge():
    with pytest.raises(ValueError, match=r"edge 2 \(0, 1\) is already listed"):
        coupling_from_edges(3, [(0, 1, 0.5), (1, 2, 0.4), (0, 1, 0.3)])
    assert coupling_from_edges(2, [(0, 1, 0.5), (1, 0, 0.3)])[1, 0] == 0.3


_GENERATORS = [(generate_var, generate_var_reference),
               (generate_contemporaneous, generate_contemporaneous_reference)]


@pytest.mark.parametrize("generate, reference", _GENERATORS, ids=["var", "contemporaneous"])
@pytest.mark.parametrize("innovation", [Family.GAUSSIAN, Family.LAPLACE])
@pytest.mark.parametrize("noise_scale", [1.0, 0.37])
def test_generators_match_the_out_of_place_reference_bit_for_bit(
    generate, reference, innovation, noise_scale
):
    """In place or not, each element goes through the same operations: equal bytes, -0.0 too."""
    coupling = random_dag_coupling(6, 0.5, 0.6, seed=4)
    spec = GeneratorSpec(6, 700, coupling, innovation, noise_scale, seed=11)
    x = generate(spec)
    assert x.data.tobytes() == reference(spec).tobytes()
    assert not x.data.flags.writeable


@pytest.mark.parametrize("generate, reference", _GENERATORS, ids=["var", "contemporaneous"])
@pytest.mark.parametrize("innovation", [Family.GAUSSIAN, Family.LAPLACE])
def test_generators_on_the_deck_grid_match_the_out_of_place_reference(
    generate, reference, innovation
):
    """The bundled 6 x 5 deck's neighbours coupled low -> high, 30 channels."""
    grid = neighbor_pairs(load_grid_csv(bundled_grid_path()))
    spec = GeneratorSpec(30, 700, coupling_from_edges(30, [(a - 1, b - 1, 0.3) for a, b in grid]),
                         innovation, seed=11)
    assert generate(spec).data.tobytes() == reference(spec).tobytes()


def test_var_with_a_cycle_matches_the_out_of_place_reference_bit_for_bit():
    coupling = coupling_from_edges(3, [(0, 1, 0.5), (1, 2, -0.7), (2, 0, 0.6)])
    spec = GeneratorSpec(3, 500, coupling, Family.LAPLACE, 0.37, seed=2)
    assert generate_var(spec).data.tobytes() == generate_var_reference(spec).tobytes()


@pytest.mark.parametrize("generate, reference", _GENERATORS, ids=["var", "contemporaneous"])
@pytest.mark.parametrize("edges", [[(0, 1, 1e308)], [(0, 1, 1e160)],
                                   [(0, 1, 0.5), (1, 2, -1e308)]])
def test_overflowing_generators_raise_the_reference_message(generate, reference, edges):
    spec = GeneratorSpec(3, 300, coupling_from_edges(3, edges), seed=5)
    with pytest.raises(UnstableSpec) as ours:
        generate(spec)
    with pytest.raises(UnstableSpec) as theirs:
        reference(spec)
    assert str(ours.value) == str(theirs.value)
