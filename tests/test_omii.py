import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miinet import (
    degree_distribution,
    discover,
    infer_network,
    remove,
    shuffle_test,
)
from miinet import core, omii, standardize
from miinet.errors import MiinetError, NetworkInferenceError, SingularCovariance
from miinet.estimators import Family, cmi_offset, conditional_mutual_information
from miinet.omii import InteractionNetwork, OmiiConfig, ParentSet, Edge
from miinet.synthetic import (
    GeneratorSpec,
    chain_coupling,
    coupling_from_edges,
    generate_contemporaneous,
    random_dag_coupling,
    star_coupling,
)

from conftest import duplicated_condition_matrix, make_matrix
from oracles import infer_network_reference, null_cmis_reference

GAUSS = Family.GAUSSIAN


def independent_matrix(seed, t=1000, n=2):
    rng = np.random.default_rng(seed)
    return make_matrix(rng.standard_normal((t, n)))


def null_cmis(x, i, j, cond, cfg):
    """The Ns Gaussian nulls of one shuffle test, from the batched test path."""
    orders = np.array([(*cond, i)])
    factor = omii._factor(x.covariance, orders)
    return omii._test_cmis(omii._Nulls(x, cfg), orders, np.array([j]), factor)[0, 1:]


def test_omii_config_validation():
    with pytest.raises(ValueError):
        OmiiConfig(family=GAUSS, theta=0.0)
    with pytest.raises(ValueError):
        OmiiConfig(family=GAUSS, theta=1.0)
    with pytest.raises(ValueError):
        OmiiConfig(family=GAUSS, n_shuffles=0)
    assert OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=100).threshold_rank == 90


@pytest.mark.parametrize(
    "field, value", [("n_shuffles", 10.5), ("n_shuffles", True), ("seed", 1.5), ("seed", False)]
)
def test_omii_config_rejects_non_integral_counts(field, value):
    with pytest.raises(ValueError, match=field):
        OmiiConfig(family=GAUSS, **{field: value})


def test_omii_config_takes_numpy_integers_as_int():
    cfg = OmiiConfig(family=GAUSS, n_shuffles=np.int64(20), seed=np.uint32(7))
    assert type(cfg.n_shuffles) is int and type(cfg.seed) is int
    assert (cfg.n_shuffles, cfg.seed) == (20, 7)


def test_degenerate_single_shuffle_threshold():
    # Ns=1, theta=0.5: S is the single shuffled value
    cfg = OmiiConfig(family=GAUSS, theta=0.5, n_shuffles=1, seed=4)
    assert cfg.threshold_rank == 1
    x = independent_matrix(0)
    res = shuffle_test(x, 0, 1, (), cfg)
    only_null = null_cmis(x, 0, 1, (), cfg)[0]
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
    # seed A, then B, then A: the permutation bank of B must not leak into A
    x = independent_matrix(2, n=3)
    cfg_a = OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=50, seed=9)
    cfg_b = OmiiConfig(family=GAUSS, theta=0.1, n_shuffles=50, seed=10)
    a = shuffle_test(x, 0, 1, (2,), cfg_a)
    b = shuffle_test(x, 0, 1, (2,), cfg_b)
    assert shuffle_test(x, 0, 1, (2,), cfg_a) == a
    assert b.threshold != a.threshold


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
    empty = ParentSet(0, ())
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

    monkeypatch.setattr(omii, "_shuffle_tests", raise_type_error)
    with pytest.raises(TypeError, match="programming error"):
        infer_network(x, cfg)

    def raise_singular(*args):
        raise SingularCovariance("collinear")

    # the first discovery batch carries every target
    monkeypatch.setattr(omii, "_shuffle_tests", raise_singular)
    with pytest.raises(NetworkInferenceError) as err:
        infer_network(x, cfg)
    assert [t for t, _ in err.value.failures] == [0, 1, 2]


def test_parent_set_validation():
    with pytest.raises(ValueError):
        ParentSet(0, (Edge(0, 0, 0.1, 0.05),))
    with pytest.raises(ValueError):
        ParentSet(0, (Edge(1, 0, 0.1, 0.05), Edge(1, 0, 0.1, 0.05)))
    with pytest.raises(ValueError):
        ParentSet(0, (Edge(1, 2, 0.1, 0.05),))


def test_duplicated_condition_channel_nulls_finite():
    x = duplicated_condition_matrix()
    cfg = OmiiConfig(GAUSS, theta=0.1, n_shuffles=50, seed=8)
    assert np.all(np.isfinite(null_cmis(x, 0, 1, (2, 3), cfg)))
    res = shuffle_test(x, 0, 1, (2, 3), cfg)
    assert np.isfinite(res.threshold)
    assert res.passed  # j depends on i given k


def identity_permutation(seed, n_shuffles, t):
    return np.tile(np.arange(t), (n_shuffles, 1))


def test_unshuffled_nulls_equal_actual_cmi(monkeypatch):
    monkeypatch.setattr(omii, "_permutations", identity_permutation)
    x = generate_contemporaneous(GeneratorSpec(5, 800, chain_coupling(5, 0.5), seed=29))
    cfg = OmiiConfig(GAUSS, n_shuffles=3, seed=1)
    for cond in ((), (2,), (2, 4)):
        for i, j in ((1, 3), (3, 1)):
            actual = conditional_mutual_information(x, i, j, cond, GAUSS)
            nulls = null_cmis(x, i, j, cond, cfg)
            assert np.max(np.abs(nulls - actual)) < 1e-12, (i, j, cond)


def test_unshuffled_nulls_equal_actual_cmi_on_ridge(monkeypatch):
    monkeypatch.setattr(omii, "_permutations", identity_permutation)
    x = duplicated_condition_matrix()
    cfg = OmiiConfig(GAUSS, n_shuffles=3, seed=1)
    actual = conditional_mutual_information(x, 0, 1, (2, 3), GAUSS)
    nulls = null_cmis(x, 0, 1, (2, 3), cfg)
    assert np.all(np.isfinite(nulls))
    assert np.max(np.abs(nulls - actual)) < 1e-5


def test_infer_network_regularizes_covariance_once(monkeypatch):
    calls = []
    original = core.regularize_covariance

    def counting(cov):
        calls.append(cov.shape)
        return original(cov)

    monkeypatch.setattr(core, "regularize_covariance", counting)
    x = generate_contemporaneous(GeneratorSpec(6, 2000, star_coupling(6, 0.6), seed=31))
    net = infer_network(x, OmiiConfig(GAUSS, theta=0.1, n_shuffles=50, seed=37))
    assert net.edges
    assert calls == [(6, 6)]


def test_infer_network_draws_one_permutation_bank(monkeypatch):
    banks = []
    draw = omii._permutations

    def recording(seed, n_shuffles, t):
        banks.append(draw(seed, n_shuffles, t))
        return banks[-1]

    monkeypatch.setattr(omii, "_permutations", recording)
    x = generate_contemporaneous(GeneratorSpec(6, 2000, star_coupling(6, 0.6), seed=31))
    infer_network(x, OmiiConfig(GAUSS, theta=0.1, n_shuffles=50, seed=37))
    assert len(banks) == 1
    bank = banks[0]
    assert bank.shape == (50, 2000) and bank.dtype == np.intp
    assert not bank.flags.writeable
    assert np.array_equal(draw(37, 50, 2000), bank)
    assert np.array_equal(np.sort(bank, axis=1), np.tile(np.arange(2000), (50, 1)))


def test_discover_admits_lower_index_of_identical_candidates():
    # integer samples with T = 1024 make every covariance entry exact, so the
    # two copies of z score bit-identical CMIs and the argmax tie goes low
    rng = np.random.default_rng(41)
    z = rng.integers(-4, 5, 1024).astype(float)
    target = z + rng.integers(-1, 2, 1024)
    noise = rng.integers(-4, 5, 1024).astype(float)
    x = make_matrix(np.column_stack([z, target, z, noise]))
    found = discover(x, 1, OmiiConfig(GAUSS, n_shuffles=50, seed=3))
    assert found.parents[0] == 0
    assert 2 not in found.parents


def test_discover_calls_the_kernel_once_per_round(monkeypatch):
    partners = []
    kernel = omii.gaussian_cmi

    def counting(factor, cross, var):
        partners.append(cross.shape[-2])
        return kernel(factor, cross, var)

    verdicts = iter([True, True, False])

    def scripted_tests(nulls, orders, candidates, factor):
        flags = np.full(len(candidates), next(verdicts))
        return flags, np.full(len(candidates), 0.5), np.full(len(candidates), 0.1)

    monkeypatch.setattr(omii, "gaussian_cmi", counting)
    monkeypatch.setattr(omii, "_shuffle_tests", scripted_tests)
    x = generate_contemporaneous(GeneratorSpec(6, 500, star_coupling(6, 0.6), seed=43))
    found = discover(x, 0, OmiiConfig(GAUSS, seed=1))
    assert len(found.parents) == 2
    assert partners == [5, 4, 3]  # three rounds, each scoring every remaining candidate


def random_tests(n_channels, count, seed):
    """`count` random (i, j, K) triples with |K| <= 3 over distinct channels."""
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(count):
        picked = rng.choice(n_channels, size=2 + rng.integers(0, 4), replace=False)
        triples.append((int(picked[0]), int(picked[1]), tuple(sorted(map(int, picked[2:])))))
    return triples


@pytest.mark.parametrize("family", list(Family))
def test_null_cmis_match_reference_on_chain(family):
    x = generate_contemporaneous(GeneratorSpec(6, 700, chain_coupling(6, 0.6), seed=47))
    cfg = OmiiConfig(family, n_shuffles=40, seed=3)
    bank = omii._permutations(cfg.seed, cfg.n_shuffles, x.n_samples)
    for i, j, cond in random_tests(6, 25, seed=53):
        reference = null_cmis_reference(x, i, j, cond, bank)
        assert np.max(np.abs(null_cmis(x, i, j, cond, cfg) - reference)) < 1e-12
        nulls = reference + cmi_offset(family, len(cond))
        threshold = np.sort(nulls)[cfg.threshold_rank - 1]
        assert abs(shuffle_test(x, i, j, cond, cfg).threshold - threshold) < 1e-12


@pytest.mark.parametrize("family", list(Family))
def test_null_cmis_match_reference_on_ridge(family):
    x = duplicated_condition_matrix()
    cfg = OmiiConfig(family, n_shuffles=40, seed=8)
    bank = omii._permutations(cfg.seed, cfg.n_shuffles, x.n_samples)
    for i, j, cond in ((0, 1, (2, 3)), (1, 0, (2, 3)), (0, 1, (3,)), (2, 0, (1, 3)), (1, 2, (0,))):
        reference = null_cmis_reference(x, i, j, cond, bank)
        assert np.max(np.abs(null_cmis(x, i, j, cond, cfg) - reference)) < 1e-12


def test_infer_network_builds_one_table_per_tested_channel(monkeypatch):
    built, tested = [], set()
    build, test_cmis = omii._null_table, omii._test_cmis

    def counting_build(centered, j, bank):
        built.append(j)
        return build(centered, j, bank)

    def recording_tests(nulls, orders, partners, factor):
        tested.update(partners.tolist())
        return test_cmis(nulls, orders, partners, factor)

    monkeypatch.setattr(omii, "_null_table", counting_build)
    monkeypatch.setattr(omii, "_test_cmis", recording_tests)
    x = generate_contemporaneous(GeneratorSpec(6, 2000, star_coupling(6, 0.6), seed=31))
    net = infer_network(x, OmiiConfig(GAUSS, theta=0.1, n_shuffles=50, seed=37))
    assert net.edges
    assert sorted(built) == sorted(tested)
    assert len(built) <= x.n_channels


def test_matrices_of_one_shape_keep_their_own_nulls():
    cfg = OmiiConfig(GAUSS, n_shuffles=30, seed=5)
    x = generate_contemporaneous(GeneratorSpec(4, 600, chain_coupling(4, 0.6), seed=59))
    y = generate_contemporaneous(GeneratorSpec(4, 600, chain_coupling(4, 0.6), seed=61))
    bank = omii._permutations(cfg.seed, cfg.n_shuffles, 600)
    first = [null_cmis(m, 0, 1, (2,), cfg) for m in (x, y)]
    assert not np.allclose(first[0], first[1])
    for m, nulls in zip((x, y), first):
        again = null_cmis(m, 0, 1, (3,), cfg)
        assert np.max(np.abs(nulls - null_cmis_reference(m, 0, 1, (2,), bank))) < 1e-12
        assert np.max(np.abs(again - null_cmis_reference(m, 0, 1, (3,), bank))) < 1e-12


def test_new_bank_is_not_served_a_stale_table(monkeypatch):
    x = generate_contemporaneous(GeneratorSpec(5, 800, chain_coupling(5, 0.5), seed=29))
    cfg = OmiiConfig(GAUSS, n_shuffles=3, seed=1)
    shuffled = null_cmis(x, 2, 3, (1,), cfg)
    monkeypatch.setattr(omii, "_permutations", identity_permutation)
    actual = conditional_mutual_information(x, 2, 3, (1,), GAUSS)
    assert np.max(shuffled) < actual / 2
    assert np.max(np.abs(null_cmis(x, 2, 3, (1,), cfg) - actual)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 5),
    k=st.integers(0, 3),
    n_flat=st.integers(1, 2),
    noise_exponent=st.floats(-15.0, -6.0),
    offset=st.floats(-1e3, 1e3),
    short=st.booleans(),
)
def test_degenerate_inputs_fail_typed_or_stay_finite(
    seed, n, k, n_flat, noise_exponent, offset, short
):
    # near-constant channels (a constant plus 1e-15..1e-6 noise), and T = |K| + 3
    k = min(k, n - 2)
    t = k + 3 if short else 60
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((t, n))
    flat = rng.choice(n, size=n_flat, replace=False)
    data[:, flat] = offset + 10.0**noise_exponent * rng.standard_normal((t, n_flat))
    roles = rng.permutation(n)
    i, j, cond = roles[0], roles[1], tuple(roles[2 : 2 + k])

    def finite_or_typed(compute):
        try:
            values = compute()
        except MiinetError:
            return
        assert np.all(np.isfinite(values)), values

    raw = make_matrix(data)
    matrices = [raw]
    try:
        matrices.append(standardize(raw))
    except MiinetError:
        pass
    for x in matrices:
        for family in Family:
            finite_or_typed(lambda: conditional_mutual_information(x, i, j, cond, family))
            cfg = OmiiConfig(family=family, theta=0.2, n_shuffles=9, seed=seed)
            finite_or_typed(
                lambda: [v for e in infer_network(x, cfg).edges for v in (e.weight, e.threshold)]
            )


REFERENCE_CASES = {
    "chain": lambda: generate_contemporaneous(
        GeneratorSpec(6, 1500, chain_coupling(6, 0.6), seed=67)
    ),
    "star": lambda: generate_contemporaneous(
        GeneratorSpec(6, 1500, star_coupling(6, 0.6), seed=71)
    ),
    "random-dag": lambda: generate_contemporaneous(
        GeneratorSpec(7, 1500, random_dag_coupling(7, 0.4, 0.6, seed=3), seed=73)
    ),
    "duplicated-condition": duplicated_condition_matrix,
    # removal drops the summary node 2 of target 3 and then tests on the shrunk set
    "summary-node": lambda: generate_contemporaneous(
        GeneratorSpec(
            4, 3000, coupling_from_edges(4, [(0, 2, 0.9), (1, 2, 0.9), (0, 3, 0.5), (1, 3, 0.5)]),
            noise_scale=0.5, seed=1101,
        )
    ),
}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_infer_network_matches_per_target_reference(case, family):
    x = REFERENCE_CASES[case]()
    cfg = OmiiConfig(family, theta=0.1, n_shuffles=60, seed=79)
    net = infer_network(x, cfg)
    reference = infer_network_reference(x, cfg)
    assert net.edges and net.edge_set() == set(reference)
    for e in net.edges:
        weight, threshold = reference[e.source, e.target]
        assert abs(e.weight - weight) < 1e-12
        assert abs(e.threshold - threshold) < 1e-12


def test_discovery_stacks_each_round_into_one_candidate_and_one_test_call(monkeypatch):
    x = generate_contemporaneous(GeneratorSpec(7, 1500, random_dag_coupling(7, 0.4, 0.6, seed=3), seed=73))
    cfg = OmiiConfig(GAUSS, theta=0.1, n_shuffles=60, seed=79)
    factors, kernel_calls = [], []
    factor, kernel = omii.cholesky, omii.gaussian_cmi

    def counting_factor(stack):
        factors.append(stack.shape[0])
        return factor(stack)

    def counting_kernel(chol, cross, var):
        rows = cross.shape[-2]
        kernel_calls.append(("test" if rows == cfg.n_shuffles + 1 else "candidates", cross.shape[0]))
        return kernel(chol, cross, var)

    monkeypatch.setattr(omii, "cholesky", counting_factor)
    monkeypatch.setattr(omii, "gaussian_cmi", counting_kernel)
    found, failures = omii._discover(omii._Nulls(x, cfg), range(x.n_channels))
    assert not failures
    lengths = [len(p.parents) for p in found]
    # round r carries every target that admitted r parents, while candidates remain
    active = [sum(n >= r for n in lengths) for r in range(x.n_channels - 1)]
    active = [a for a in active if a]
    assert len(active) >= 3
    assert factors == active
    assert kernel_calls == [(kind, a) for a in active for kind in ("candidates", "test")]


def test_failing_batch_fails_every_target_it_carried(monkeypatch):
    x = generate_contemporaneous(GeneratorSpec(5, 2000, coupling_from_edges(5, [(0, 1, 0.8)]), seed=83))
    cfg = OmiiConfig(GAUSS, theta=0.05, n_shuffles=60, seed=89)
    found, _ = omii._discover(omii._Nulls(x, cfg), range(x.n_channels))
    carried = [p.target for p in found if p.parents]  # the targets of discovery round 1
    assert 0 < len(carried) < x.n_channels
    tests = omii._shuffle_tests

    def failing_round_one(nulls, orders, partners, factor):
        if orders.shape[1] == 2:
            raise SingularCovariance("round 1")
        return tests(nulls, orders, partners, factor)

    monkeypatch.setattr(omii, "_shuffle_tests", failing_round_one)
    with pytest.raises(NetworkInferenceError) as err:
        infer_network(x, cfg)
    assert [t for t, _ in err.value.failures] == carried
    assert all(str(exc) == "round 1" for _, exc in err.value.failures)


def test_remove_tests_each_parent_on_the_shrunk_set():
    # y = a + b + noise and c = a + b + 1e-3 noise: given {a, b}, c is redundant
    # and goes first; a then stays on {b}, where on {b, c} it would carry nothing
    rng = np.random.default_rng(97)
    a, b, noise = rng.standard_normal((3, 2000))
    c = a + b + 1e-3 * rng.standard_normal(2000)
    x = make_matrix(np.column_stack([a, b, c, a + b + noise]))
    cfg = OmiiConfig(GAUSS, theta=0.05, n_shuffles=100, seed=101)
    given = ParentSet(3, tuple(Edge(j, 3, w, 0.01) for j, w in ((2, 0.3), (0, 0.2), (1, 0.1))))
    assert remove(x, 3, given, cfg).parents == (0, 1)
    assert not shuffle_test(x, 3, 0, (1, 2), cfg).passed
