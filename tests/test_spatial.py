import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miinet import Axis, mi_map_diff, neighbor_pairs, network_diff, pairwise_mi_map
from miinet.core import ChannelId, TimeSeriesMatrix
from miinet.errors import ConditionSetTooLarge, EdgeSetMismatch, MissingChannel, NodeSetMismatch
from miinet.distributions import laplace_entropy_constant
from miinet.estimators import Family, mutual_information
from miinet.omii import Edge, InteractionNetwork
from miinet.spatial import PairwiseMIMap, SensorGrid
from miinet.synthetic import GeneratorSpec, coupling_from_edges, generate_contemporaneous

from conftest import make_matrix

GAUSS = Family.GAUSSIAN


def test_neighbor_pairs_six_by_five():
    grid = SensorGrid.full(6, 5)
    pairs = neighbor_pairs(grid)
    assert len(pairs) == 49  # 6*4 horizontal + 5*5 vertical
    assert len(set(pairs)) == 49


def test_neighbor_pairs_one_by_two():
    grid = SensorGrid({1: (0, 0), 2: (0, 1)})
    assert neighbor_pairs(grid) == [(1, 2)]


def test_corner_and_interior_neighbor_counts():
    grid = SensorGrid.full(6, 5)
    pairs = neighbor_pairs(grid)
    degree = {s: 0 for s in grid.sensors}
    for a, b in pairs:
        degree[a] += 1
        degree[b] += 1
    assert degree[1] == 2  # corner
    assert degree[7] == 4  # interior (row 1, col 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8))
def test_neighbor_pairs_full_grid_count_formula(rows, cols):
    grid = SensorGrid.full(rows, cols)
    assert len(neighbor_pairs(grid)) == rows * (cols - 1) + cols * (rows - 1)


def test_grid_with_gaps():
    grid = SensorGrid({1: (0, 0), 2: (0, 2), 3: (1, 0)})  # (0,1) missing
    assert neighbor_pairs(grid) == [(1, 3)]


def test_grid_validation():
    with pytest.raises(ValueError):
        SensorGrid({1: (0, 0), 2: (0, 0)})
    with pytest.raises(ValueError):
        SensorGrid({0: (0, 0)})


@pytest.mark.parametrize("positions", [
    {1.7: (0.9, 2.2)}, {1: (0.0, 1)}, {True: (0, 0)}, {1: (0, False)},
], ids=["float-sensor", "float-row", "bool-sensor", "bool-col"])
def test_grid_takes_integer_sensors_and_coordinates(positions):
    """{1.7: (0.9, 2.2)} must not become {1: (0, 2)}, nor True sensor 1."""
    with pytest.raises(ValueError, match="must be an integer"):
        SensorGrid(positions)
    assert SensorGrid({np.int64(2): (np.int64(0), 1)}).positions == {2: (0, 1)}


def grid_coupled_matrix(grid, weight, seed, t=4000, noise=1.0):
    pairs = neighbor_pairs(grid)
    n = max(grid.sensors)
    coupling = coupling_from_edges(n, [(a - 1, b - 1, weight) for a, b in pairs])
    spec = GeneratorSpec(n, t, coupling, noise_scale=noise, seed=seed)
    return generate_contemporaneous(spec)


def test_pairwise_mi_map_edge_set_matches_grid():
    grid = SensorGrid.full(3, 3)
    x = grid_coupled_matrix(grid, 0.5, seed=1)
    mi_map = pairwise_mi_map(x, grid, Axis.LATERAL, GAUSS, scenario="s")
    assert mi_map.edges == tuple(neighbor_pairs(grid))
    assert mi_map.scenario == "s"


def test_pairwise_mi_map_missing_channel():
    grid = SensorGrid.full(2, 2)
    rng = np.random.default_rng(2)
    x = make_matrix(rng.standard_normal((500, 3)))  # only sensors 1..3
    with pytest.raises(MissingChannel):
        pairwise_mi_map(x, grid, Axis.LATERAL, GAUSS)
    with pytest.raises(MissingChannel):
        pairwise_mi_map(grid_coupled_matrix(grid, 0.5, 3), grid, Axis.VERTICAL, GAUSS)


@pytest.mark.parametrize("family", list(Family))
def test_pairwise_mi_map_is_per_pair_mutual_information_bit_for_bit(family):
    grid = SensorGrid({1: (0, 0), 2: (0, 1), 4: (1, 0), 5: (1, 1), 6: (1, 2), 9: (2, 2)})
    data = grid_coupled_matrix(SensorGrid.full(3, 3), 0.6, seed=11, t=600).data
    # columns in falling sensor order, so each pair's columns come (max, min)
    lateral = tuple(ChannelId(s, Axis.LATERAL) for s in range(9, 0, -1))
    x = TimeSeriesMatrix(data, lateral)
    columns = x.axis_channel_indices(Axis.LATERAL)
    mi_map = pairwise_mi_map(x, grid, Axis.LATERAL, family)
    expected = [mutual_information(x, columns[a], columns[b], family) for a, b in mi_map.edges]
    assert mi_map.edges == tuple(neighbor_pairs(grid))
    assert np.array(mi_map.values).tobytes() == np.array(expected).tobytes()
    with pytest.raises(MissingChannel):
        pairwise_mi_map(x.select(list(range(8))), grid, Axis.LATERAL, family)  # no sensor 1
    with pytest.raises(ConditionSetTooLarge):
        pairwise_mi_map(TimeSeriesMatrix(data[:2], lateral), grid, Axis.LATERAL, family)


def test_pairwise_mi_map_laplace_null_edges_at_floor():
    # independent channels: every Laplace edge MI is the Gaussian MI plus the
    # family's independence floor 2 c_1 - c_2 (~0.0444 nats), exactly
    grid = SensorGrid.full(2, 2)
    rng = np.random.default_rng(4)
    x = make_matrix(rng.standard_normal((1500, 4)))
    floor = 2.0 * laplace_entropy_constant(1) - laplace_entropy_constant(2)
    assert abs(floor - 0.0444109) < 1e-7
    lap = pairwise_mi_map(x, grid, Axis.LATERAL, Family.LAPLACE)
    gau = pairwise_mi_map(x, grid, Axis.LATERAL, GAUSS)
    for value, gauss_value in zip(lap.values, gau.values):
        assert abs(value - (gauss_value + floor)) < 1e-12
        assert abs(value - floor) < 3e-3  # Gaussian MI of independent pairs ~ 1/T


def test_pairwise_mi_map_planted_maximum():
    grid = SensorGrid.full(2, 3)
    rng = np.random.default_rng(6)
    base = rng.standard_normal((3000, 6))
    shared = rng.standard_normal(3000)
    base[:, 0] = shared + 0.1 * rng.standard_normal(3000)
    base[:, 1] = shared + 0.1 * rng.standard_normal(3000)
    x = make_matrix(base)
    mi_map = pairwise_mi_map(x, grid, Axis.LATERAL, GAUSS)
    best_edge = mi_map.edges[int(np.argmax(mi_map.values))]
    assert best_edge == (1, 2)  # sensors 1 and 2 carry the shared signal


def test_mi_map_diff_zero_and_antisymmetry():
    grid = SensorGrid.full(2, 2)
    x = grid_coupled_matrix(grid, 0.6, seed=7)
    a = pairwise_mi_map(x, grid, Axis.LATERAL, GAUSS, scenario="a")
    b = pairwise_mi_map(
        grid_coupled_matrix(grid, 0.4, seed=8), grid, Axis.LATERAL, GAUSS, scenario="b"
    )
    self_diff = mi_map_diff(a, a)
    assert all(d == 0.0 for d in self_diff.deltas)
    ab = mi_map_diff(a, b)
    ba = mi_map_diff(b, a)
    np.testing.assert_allclose(ab.deltas, [-d for d in ba.deltas], atol=0.0)


def test_mi_map_diff_loosening_goes_negative():
    grid = SensorGrid.full(3, 3)
    tight = pairwise_mi_map(grid_coupled_matrix(grid, 0.8, 9), grid, Axis.LATERAL, GAUSS, "base")
    loose = pairwise_mi_map(grid_coupled_matrix(grid, 0.5, 10), grid, Axis.LATERAL, GAUSS, "dam")
    diff = mi_map_diff(tight, loose)
    assert all(d < 0 for d in diff.deltas)


def test_mi_map_diff_localizes_single_weakened_edge():
    grid = SensorGrid.full(1, 4)  # path 1-2-3-4
    pairs = neighbor_pairs(grid)

    def build(weights, seed):
        coupling = coupling_from_edges(
            4, [(a - 1, b - 1, w) for (a, b), w in zip(pairs, weights)]
        )
        return generate_contemporaneous(GeneratorSpec(4, 20_000, coupling, seed=seed))

    base = pairwise_mi_map(build([0.8, 0.8, 0.8], 11), grid, Axis.LATERAL, GAUSS, "base")
    weakened = pairwise_mi_map(build([0.8, 0.3, 0.8], 12), grid, Axis.LATERAL, GAUSS, "dam")
    diff = mi_map_diff(base, weakened)
    deltas = dict(zip(diff.edges, diff.deltas))
    assert min(deltas, key=deltas.get) == (2, 3)


def test_mi_map_diff_mismatch_errors():
    grid = SensorGrid.full(2, 2)
    a = pairwise_mi_map(grid_coupled_matrix(grid, 0.5, 13), grid, Axis.LATERAL, GAUSS)
    other_grid = SensorGrid.full(1, 3)
    x3 = grid_coupled_matrix(other_grid, 0.5, 14)
    b = pairwise_mi_map(x3, other_grid, Axis.LATERAL, GAUSS)
    with pytest.raises(EdgeSetMismatch):
        mi_map_diff(a, b)
    vert = PairwiseMIMap(Axis.VERTICAL, "", a.edges, a.values)
    with pytest.raises(EdgeSetMismatch):
        mi_map_diff(a, vert)


def net_from(edge_pairs, nodes=(0, 1, 2, 3)):
    names = tuple(f"s{k + 1}_lat" for k in nodes)
    edges = tuple(Edge(a, b, 0.5, 0.1) for a, b in edge_pairs)
    return InteractionNetwork(tuple(nodes), names, edges, {})


def test_network_diff_identical():
    net = net_from([(0, 1), (1, 2)])
    diff = network_diff(net, net)
    assert diff.lost == () and diff.gained == ()
    assert {(e.source, e.target) for e in diff.retained} == {(0, 1), (1, 2)}
    assert all(e.delta == 0.0 for e in diff.retained)


def test_network_diff_partition_example():
    base = net_from([(0, 1), (1, 2)])
    damaged = net_from([(1, 2), (2, 3)])
    diff = network_diff(base, damaged)
    assert {(e.source, e.target) for e in diff.lost} == {(0, 1)}
    assert {(e.source, e.target) for e in diff.gained} == {(2, 3)}
    assert {(e.source, e.target) for e in diff.retained} == {(1, 2)}


def test_network_diff_is_directed():
    base = net_from([(0, 1)])
    flipped = net_from([(1, 0)])
    diff = network_diff(base, flipped)
    assert {(e.source, e.target) for e in diff.lost} == {(0, 1)}
    assert {(e.source, e.target) for e in diff.gained} == {(1, 0)}


def test_network_diff_node_mismatch():
    with pytest.raises(NodeSetMismatch):
        network_diff(net_from([(0, 1)]), net_from([(0, 1)], nodes=(0, 1, 2)))
    lateral = net_from([(0, 1)])
    vertical_names = tuple(name.replace("_lat", "_vert") for name in lateral.node_names)
    vertical = InteractionNetwork(lateral.nodes, vertical_names, lateral.edges, {})
    with pytest.raises(NodeSetMismatch):
        network_diff(lateral, vertical)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1]), max_size=10),
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1]), max_size=10),
)
def test_network_diff_partition_identities(base_edges, comp_edges):
    nodes = (0, 1, 2, 3, 4)
    diff = network_diff(net_from(sorted(base_edges), nodes), net_from(sorted(comp_edges), nodes))
    lost = {(e.source, e.target) for e in diff.lost}
    gained = {(e.source, e.target) for e in diff.gained}
    retained = {(e.source, e.target) for e in diff.retained}
    assert lost & gained == set()
    assert lost | retained == base_edges
    assert gained | retained == comp_edges


def test_planted_edge_removal_appears_in_lost():
    from miinet.omii import OmiiConfig, infer_network

    grid = SensorGrid.full(1, 3)
    hits = 0
    for k in range(20):
        full = coupling_from_edges(3, [(0, 1, 0.7), (1, 2, 0.7)])
        cut = coupling_from_edges(3, [(1, 2, 0.7)])
        xb = generate_contemporaneous(GeneratorSpec(3, 6000, full, seed=500 + k))
        xd = generate_contemporaneous(GeneratorSpec(3, 6000, cut, seed=600 + k))
        cfg = OmiiConfig(family=GAUSS, theta=0.01, n_shuffles=200, seed=700 + k)
        diff = network_diff(infer_network(xb, cfg), infer_network(xd, cfg))
        lost_pairs = {frozenset((e.source, e.target)) for e in diff.lost}
        hits += frozenset({0, 1}) in lost_pairs
    assert hits >= 18
