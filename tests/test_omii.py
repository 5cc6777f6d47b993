import numpy as np
import pytest

from miinet import (
    degree_distribution,
    discover,
    infer_network,
    remove,
    shuffle_test,
)
from miinet import omii
from miinet.errors import NetworkInferenceError, SingularCovariance
from miinet.estimators import Family, cmi_offset
from miinet.omii import InteractionNetwork, OmiiConfig, ParentSet, Edge
from miinet.synthetic import (
    GeneratorSpec,
    chain_coupling,
    coupling_from_edges,
    generate_contemporaneous,
    star_coupling,
)

from conftest import make_matrix

GAUSS = Family.GAUSSIAN


def independent_matrix(seed, t=1000, n=2):
    rng = np.random.default_rng(seed)
    return make_matrix(rng.standard_normal((t, n)))


def test_omii_config_validation():
    with pytest.raises(ValueError):
        OmiiConfig(family=GAUSS, theta=0.0)
    with pytest.raises(ValueError):
        OmiiConfig(family=GAUSS, theta=1.0)
    with pytest.raises(ValueError):
        OmiiConfig(family=GAUSS, n_shuffles=0)
    assert OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=100).threshold_rank == 90


def test_degenerate_single_shuffle_threshold():
    # Ns=1, theta=0.5: S is the single shuffled value
    cfg = OmiiConfig(family=GAUSS, theta=0.5, n_shuffles=1, seed=4)
    assert cfg.threshold_rank == 1
    x = independent_matrix(0)
    res = shuffle_test(x, 0, 1, (), cfg)
    from miinet.omii import _null_cmis

    only_null = _null_cmis(x, 0, 1, (), cfg)[0]
    assert res.threshold == only_null
    assert res.passed == (res.cmi > only_null)


def test_shuffle_test_argument_validation():
    x = independent_matrix(1, n=3)
    cfg = OmiiConfig(family=GAUSS, seed=1)
    with pytest.raises(ValueError):
        shuffle_test(x, 0, 0, (), cfg)
    with pytest.raises(ValueError):
        shuffle_test(x, 0, 1, (1,), cfg)


def test_shuffle_test_deterministic():
    x = independent_matrix(2, n=3)
    cfg = OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=50, seed=9)
    a = shuffle_test(x, 0, 1, (2,), cfg)
    b = shuffle_test(x, 0, 1, (2,), cfg)
    assert a == b


def test_shuffle_calibration_quick():
    # tighter 200-trial version runs in the acceptance suite
    passes = sum(
        shuffle_test(
            independent_matrix(4000 + k),
            0,
            1,
            (),
            OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=100, seed=100 + k),
        ).passed
        for k in range(100)
    )
    assert 0.02 <= passes / 100 <= 0.2


def test_shuffle_power_on_strong_coupling():
    passes = 0
    for k in range(100):
        spec = GeneratorSpec(2, 10_000, chain_coupling(2, 0.8), seed=5000 + k)
        x = generate_contemporaneous(spec)
        cfg = OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=100, seed=6000 + k)
        passes += shuffle_test(x, 1, 0, (), cfg).passed
    assert passes >= 99


def test_shuffle_test_laplace_family_paths():
    spec = GeneratorSpec(3, 1200, chain_coupling(3, 0.8), seed=17)
    x = generate_contemporaneous(spec)
    cfg = OmiiConfig(Family.LAPLACE, theta=0.1, n_shuffles=30, seed=3)
    gauss_cfg = OmiiConfig(GAUSS, theta=0.1, n_shuffles=30, seed=3)
    assert shuffle_test(x, 1, 0, (), cfg).passed  # direct edge
    res = shuffle_test(x, 2, 0, (1,), cfg)  # indirect, conditioned away
    assert not res.passed
    # the Laplace test is the Gaussian test with CMI and threshold moved by delta(|K|)
    for i, j, cond in ((1, 0, ()), (2, 0, (1,)), (2, 1, (0,))):
        lap = shuffle_test(x, i, j, cond, cfg)
        gau = shuffle_test(x, i, j, cond, gauss_cfg)
        delta = cmi_offset(Family.LAPLACE, len(cond))
        assert lap.passed == gau.passed
        assert abs(lap.cmi - (gau.cmi + delta)) < 1e-12
        assert abs(lap.threshold - (gau.threshold + delta)) < 1e-12


def test_discover_star_recovers_hub():
    hits = 0
    for k in range(100):
        spec = GeneratorSpec(5, 4000, star_coupling(5, 0.8), seed=61000 + k)
        x = generate_contemporaneous(spec)
        cfg = OmiiConfig(
            family=GAUSS, theta=0.005, n_shuffles=400, seed=71000 + k
        )
        hits += discover(x, 1, cfg).parents == (0,)
    assert hits >= 95


def test_discover_chain_screens_indirect():
    hits = 0
    for k in range(100):
        spec = GeneratorSpec(3, 4000, chain_coupling(3, 0.6), seed=81000 + k)
        x = generate_contemporaneous(spec)
        cfg = OmiiConfig(family=GAUSS, theta=0.05, n_shuffles=200, seed=91000 + k)
        hits += discover(x, 2, cfg).parents == (1,)
    assert hits >= 90


def test_discover_needs_two_channels():
    x = independent_matrix(3, n=1)
    with pytest.raises(ValueError):
        discover(x, 0, OmiiConfig(family=GAUSS))


def test_remove_empty_is_empty():
    x = independent_matrix(4, n=3)
    cfg = OmiiConfig(family=GAUSS, seed=2)
    empty = ParentSet(0, (), (), ())
    assert remove(x, 0, empty, cfg).parents == ()


def test_remove_prunes_redundant_summary_node():
    # Y(3) <- A(0), B(1); C(2) = strong mix of A and B. C's correlation with Y
    # beats either parent alone, so discovery admits C first, then the true
    # parents; conditioned on {A, B} the summary node C is redundant.
    pruned_c = 0
    c_admitted_first = 0
    for k in range(30):
        coupling = coupling_from_edges(
            4, [(0, 2, 0.9), (1, 2, 0.9), (0, 3, 0.5), (1, 3, 0.5)]
        )
        spec = GeneratorSpec(4, 8000, coupling, noise_scale=0.5, seed=1100 + k)
        x = generate_contemporaneous(spec)
        cfg = OmiiConfig(family=GAUSS, theta=0.01, n_shuffles=200, seed=1200 + k)
        found = discover(x, 3, cfg)
        if found.parents and found.parents[0] == 2:
            c_admitted_first += 1
        kept = remove(x, 3, found, cfg)
        if 2 in found.parents and 2 not in kept.parents and {0, 1} <= set(kept.parents):
            pruned_c += 1
    assert c_admitted_first >= 25
    assert pruned_c >= 25


def test_remove_subset_of_discover():
    for k in range(10):
        spec = GeneratorSpec(5, 3000, star_coupling(5, 0.6), seed=2200 + k)
        x = generate_contemporaneous(spec)
        cfg = OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=100, seed=2300 + k)
        found = discover(x, 0, cfg)
        kept = remove(x, 0, found, cfg)
        assert set(kept.parents) <= set(found.parents)


def test_strong_parents_survive_removal():
    survived = 0
    for k in range(100):
        spec = GeneratorSpec(4, 6000, star_coupling(4, 0.7), seed=3300 + k)
        x = generate_contemporaneous(spec)
        cfg = OmiiConfig(family=GAUSS, theta=0.01, n_shuffles=200, seed=3400 + k)
        found = discover(x, 1, cfg)
        kept = remove(x, 1, found, cfg)
        survived += 0 in kept.parents
    assert survived >= 95


def test_infer_network_two_channel_pair_structure():
    spec = GeneratorSpec(2, 5000, chain_coupling(2, 0.7), seed=10)
    x = generate_contemporaneous(spec)
    cfg = OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=100, seed=11)
    net = infer_network(x, cfg)
    assert 1 <= len(net.edges) <= 2
    assert all(e.source != e.target for e in net.edges)
    assert net.edge_set() <= {(0, 1), (1, 0)}


def test_infer_network_deterministic():
    spec = GeneratorSpec(4, 3000, star_coupling(4, 0.6), seed=12)
    x = generate_contemporaneous(spec)
    cfg = OmiiConfig(family=GAUSS, theta=0.05, n_shuffles=100, seed=13)
    assert infer_network(x, cfg) == infer_network(x, cfg)


def test_infer_network_no_self_loops_and_screening_diagnostics():
    spec = GeneratorSpec(5, 4000, star_coupling(5, 0.7), seed=14)
    x = generate_contemporaneous(spec)
    cfg = OmiiConfig(family=GAUSS, theta=0.05, n_shuffles=100, seed=15)
    net = infer_network(x, cfg)
    for e in net.edges:
        assert e.source != e.target
        assert e.weight > e.threshold  # strict pass stored at admission


def test_infer_network_null_model_edge_budget():
    counts = []
    for run in range(20):
        x = independent_matrix(81000 + run, t=5000, n=10)
        cfg = OmiiConfig(family=GAUSS, theta=0.02, n_shuffles=200, seed=91000 + run)
        counts.append(len(infer_network(x, cfg).edges))
    assert float(np.mean(counts)) <= 10.0


def test_infer_network_star_hub_degree():
    spec = GeneratorSpec(6, 8000, star_coupling(6, 0.7), seed=16)
    x = generate_contemporaneous(spec)
    cfg = OmiiConfig(family=GAUSS, theta=0.005, n_shuffles=400, seed=17)
    net = infer_network(x, cfg)
    out_deg = sum(1 for e in net.edges if e.source == 0)
    assert out_deg == 5  # hub drives every leaf
    dist = degree_distribution(net)
    assert abs(sum(dist.in_probs) - 1.0) < 1e-12
    assert abs(sum(dist.out_probs) - 1.0) < 1e-12
    assert dist.out_probs[5] >= 1.0 / 6.0


def test_degree_distribution_empty_network():
    net = InteractionNetwork((0, 1, 2), ("s1_lat", "s2_lat", "s3_lat"), (), {})
    dist = degree_distribution(net)
    assert dist.in_probs == (1.0,)
    assert dist.out_probs == (1.0,)


def test_degree_distribution_masses_sum_to_one():
    edges = (Edge(0, 1, 0.5, 0.1), Edge(0, 2, 0.4, 0.1), Edge(2, 1, 0.3, 0.1))
    net = InteractionNetwork((0, 1, 2), ("a", "b", "c"), edges, {})
    dist = degree_distribution(net)
    assert abs(sum(dist.in_probs) - 1.0) < 1e-12
    assert abs(sum(dist.out_probs) - 1.0) < 1e-12
    assert dist.in_probs[2] == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("coupling", [chain_coupling(4, 0.6), star_coupling(5, 0.6)])
def test_laplace_network_is_gaussian_network_shifted(coupling):
    x = generate_contemporaneous(GeneratorSpec(coupling.shape[0], 2000, coupling, seed=19))
    lap_cfg = OmiiConfig(Family.LAPLACE, theta=0.1, n_shuffles=50, seed=23)
    gau_cfg = OmiiConfig(GAUSS, theta=0.1, n_shuffles=50, seed=23)
    lap, gau = infer_network(x, lap_cfg), infer_network(x, gau_cfg)
    assert gau.edges and lap.edge_set() == gau.edge_set()
    # an edge's weight and threshold were taken with the parents admitted before it
    rank = {}
    for target in range(x.n_channels):
        found = discover(x, target, gau_cfg)
        assert discover(x, target, lap_cfg).parents == found.parents
        rank.update({(p, target): k for k, p in enumerate(found.parents)})
    gau_edges = {(e.source, e.target): e for e in gau.edges}
    for e in lap.edges:
        delta = cmi_offset(Family.LAPLACE, rank[e.source, e.target])
        assert abs(e.weight - (gau_edges[e.source, e.target].weight + delta)) < 1e-12
        assert abs(e.threshold - (gau_edges[e.source, e.target].threshold + delta)) < 1e-12


def test_infer_network_wraps_only_package_errors(monkeypatch):
    x = independent_matrix(5, n=3)
    cfg = OmiiConfig(GAUSS, n_shuffles=10, seed=1)

    def raise_type_error(*args):
        raise TypeError("programming error")

    monkeypatch.setattr(omii, "discover", raise_type_error)
    with pytest.raises(TypeError, match="programming error"):
        infer_network(x, cfg)

    def raise_singular(*args):
        raise SingularCovariance("collinear")

    monkeypatch.setattr(omii, "discover", raise_singular)
    with pytest.raises(NetworkInferenceError) as err:
        infer_network(x, cfg)
    assert [t for t, _ in err.value.failures] == [0, 1, 2]


def test_parent_set_validation():
    with pytest.raises(ValueError):
        ParentSet(0, (0,), (0.1,), (0.05,))
    with pytest.raises(ValueError):
        ParentSet(0, (1, 1), (0.1, 0.1), (0.05, 0.05))
    with pytest.raises(ValueError):
        ParentSet(0, (1,), (), ())
