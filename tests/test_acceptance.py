"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
(each test is also named for its criterion, so plain -v shows one
PASSED/FAILED row per criterion).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from miinet import (
    Axis,
    bessel_k,
    degree_distribution,
    discover,
    infer_network,
    neighbor_pairs,
    remove,
    shuffle_test,
)
from miinet.cli import RunConfig, main, run_pipeline
from miinet.distributions import fit_errors
from miinet.estimators import Family, cmi_of_covariance, entropy_of_covariance
from miinet.io import load_bundled_grid
from miinet.omii import OmiiConfig
from miinet.spatial import mi_map_diff, pairwise_mi_map
from miinet.synthetic import (
    GeneratorSpec,
    chain_coupling,
    coupling_from_edges,
    generate_contemporaneous,
    generate_var,
    random_dag_coupling,
)

import oracles
from conftest import make_matrix


def _announce(line: str) -> None:
    print(line, flush=True)


@contextmanager
def criterion(num: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        _announce(f"\n[criterion {num:02d}] FAIL  {text}")
        raise
    _announce(f"\n[criterion {num:02d}] PASS  {text}  ({time.perf_counter() - start:.1f}s)")


def test_c01_analytic_entropy_oracles():
    with criterion(1, "analytic entropy oracles (Gaussian and Laplace closed forms)"):
        gauss = entropy_of_covariance(np.eye(1), Family.GAUSSIAN)
        assert gauss == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-14)
        assert gauss == pytest.approx(1.41894, abs=5e-6)

        start = time.perf_counter()
        lap = entropy_of_covariance(np.eye(1), Family.LAPLACE)
        elapsed = time.perf_counter() - start
        analytic = 1.0 + math.log(math.sqrt(2.0))
        assert analytic == pytest.approx(1.34657, abs=5e-6)
        assert lap == analytic
        assert elapsed < 1.0


def test_c02_d2_laplace_entropy_vs_quadrature():
    with criterion(2, "d=2 Laplace entropy matches tensor-grid quadrature to 2e-3"):
        start = time.perf_counter()
        for cov in (np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])):
            h_quad = oracles.laplace_entropy_2d_tensor_grid(cov)
            est = entropy_of_covariance(cov, Family.LAPLACE)
            assert abs(est - h_quad) < 2e-3, (cov.tolist(), est, h_quad)
        # the oracle itself is sanity-locked against an independent radial integral
        assert abs(
            oracles.laplace_entropy_2d_tensor_grid(np.eye(2))
            - oracles.laplace_entropy_2d_radial_identity()
        ) < 1e-4
        assert time.perf_counter() - start < 30.0


def test_c03_gaussian_mi_closed_form():
    with criterion(3, "Gaussian MI reproduces -0.5 ln(1-rho^2) to 1e-10"):
        for rho in (0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9):
            mi = cmi_of_covariance([[1.0, rho], [rho, 1.0]], Family.GAUSSIAN)
            assert abs(mi - (-0.5 * math.log(1.0 - rho * rho))) < 1e-10


def test_c04_shuffle_test_calibration():
    with criterion(4, "shuffle-test pass rate on independent pairs in [0.05, 0.15]"):
        start = time.perf_counter()
        passes = 0
        for k in range(200):
            rng = np.random.default_rng(150_000 + k)
            x = make_matrix(rng.standard_normal((1000, 2)))
            cfg = OmiiConfig(Family.GAUSSIAN, theta=0.1, n_shuffles=100, seed=160_000 + k)
            passes += shuffle_test(x, 0, 1, (), cfg).passed
        rate = passes / 200.0
        assert 0.05 <= rate <= 0.15, rate
        assert time.perf_counter() - start < 300.0


def test_c05_planted_graph_recovery():
    with criterion(5, "ER-DAG skeleton recovery: precision >= 0.9, recall >= 0.85"):
        start = time.perf_counter()
        precisions, recalls = [], []
        for s in range(20):
            coupling = random_dag_coupling(12, 0.15, 0.6, seed=900 + s)
            spec = GeneratorSpec(12, 10_000, coupling, noise_scale=6.0, seed=500 + s)
            x = generate_contemporaneous(spec)
            cfg = OmiiConfig(
                family=Family.GAUSSIAN,
                theta=0.002,
                n_shuffles=500,
                seed=200 + s,
            )
            predicted = infer_network(x, cfg).skeleton()
            truth = spec.skeleton()
            tp = len(predicted & truth)
            precisions.append(tp / len(predicted) if predicted else 1.0)
            recalls.append(tp / len(truth) if truth else 1.0)
        precision = float(np.mean(precisions))
        recall = float(np.mean(recalls))
        elapsed = time.perf_counter() - start
        _announce(f"\n  recovery over 20 seeds: precision={precision:.3f} recall={recall:.3f}")
        assert precision >= 0.9, precisions
        assert recall >= 0.85, recalls
        assert elapsed < 900.0


def test_c06_indirect_edge_rejection():
    with criterion(6, "chain X->Z->Y: keeps Z->Y without X->Y while raw MI(X,Y) is significant"):
        recovered = 0
        mi_significant = 0
        for k in range(100):
            spec = GeneratorSpec(3, 2000, chain_coupling(3, 0.6), seed=31_000 + k)
            x = generate_contemporaneous(spec)
            cfg = OmiiConfig(Family.GAUSSIAN, theta=0.05, n_shuffles=100, seed=41_000 + k)
            parents = remove(x, 2, discover(x, 2, cfg), cfg).parents
            if 1 in parents and 0 not in parents:
                recovered += 1
            mi_significant += shuffle_test(x, 2, 0, (), cfg).passed
        _announce(f"\n  chain recovery {recovered}/100, pairwise MI significant {mi_significant}/100")
        assert recovered >= 90
        assert mi_significant >= 90


def test_c07_laplace_fit_finding():
    with criterion(7, "Laplace baseline fits Laplace-innovation data better on >= 95% of channels"):
        spec = GeneratorSpec(
            40, 30_000, np.zeros((40, 40)), innovation=Family.LAPLACE, seed=97
        )
        x = generate_var(spec)
        wins = 0
        for k in range(x.n_channels):
            _, err_n, err_l = fit_errors(x.data[:, k])
            wins += err_l < err_n
        assert wins / x.n_channels >= 0.95, wins


def test_c08_loosening_lowers_mi():
    with criterion(8, "uniform coupling drop 0.8 -> 0.5 gives negative MI diffs on >= 95% of edges"):
        grid = load_bundled_grid()
        pairs = neighbor_pairs(grid)

        def scenario(weight, seed):
            coupling = coupling_from_edges(
                30, [(a - 1, b - 1, weight) for a, b in pairs]
            )
            x = generate_contemporaneous(GeneratorSpec(30, 5000, coupling, seed=seed))
            return pairwise_mi_map(x, grid, Axis.LATERAL, Family.GAUSSIAN, scenario=f"w{weight}")

        diff = mi_map_diff(scenario(0.8, 555), scenario(0.5, 556))
        negative = sum(d < 0 for d in diff.deltas)
        _announce(f"\n  negative diffs on {negative}/{len(diff.deltas)} edges")
        assert negative / len(diff.deltas) >= 0.95


def test_c09_bessel_accuracy():
    with criterion(9, "Bessel K: 1e-10 vs half-integer closed forms, 1e-8 vs quadrature"):
        xs = np.logspace(math.log10(0.01), math.log10(50.0), 40)
        half = np.array([oracles.k_half_closed_form(x) for x in xs])
        three_half = np.array([oracles.k_three_halves_closed_form(x) for x in xs])
        assert np.max(np.abs(bessel_k(0.5, xs) / half - 1.0)) <= 1e-10
        assert np.max(np.abs(bessel_k(1.5, xs) / three_half - 1.0)) <= 1e-10
        for nu in (0.0, 1.0):
            quad_ref = np.array([oracles.bessel_k_quadrature(nu, x) for x in xs])
            rel = np.max(np.abs(bessel_k(nu, xs) / quad_ref - 1.0))
            assert rel <= 1e-8, (nu, rel)


def _pipeline_config(tmp_path, out_name: str) -> RunConfig:
    grid_csv = tmp_path / "grid.csv"
    grid_csv.write_text("sensor_index,row,col\n1,0,0\n2,0,1\n3,1,0\n4,1,1\n")
    edges = [(0, 1, 0.8), (0, 2, 0.8), (1, 3, 0.8), (2, 3, 0.8)]
    weak = [(a, b, 0.5) for a, b, _ in edges]
    base_x = generate_contemporaneous(
        GeneratorSpec(4, 1500, coupling_from_edges(4, edges), seed=21)
    )
    dam_x = generate_contemporaneous(
        GeneratorSpec(4, 1500, coupling_from_edges(4, weak), seed=22)
    )
    from miinet.io import write_timeseries_csv

    write_timeseries_csv(base_x, tmp_path / "base.csv")
    write_timeseries_csv(dam_x, tmp_path / "dam.csv")
    return RunConfig(
        baseline_label="baseline",
        baseline_path=str(tmp_path / "base.csv"),
        scenarios=(("damage1", str(tmp_path / "dam.csv")),),
        grid_path=str(grid_csv),
        axis=Axis.LATERAL,
        family=Family.LAPLACE,
        theta=0.1,
        n_shuffles=20,
        seed=99,
        out_dir=str(tmp_path / out_name),
    )


def test_c10_pipeline_determinism(tmp_path):
    with criterion(10, "two identical pipeline runs produce byte-identical bundles"):
        cfg_a = _pipeline_config(tmp_path, "run_a")
        cfg_b = _pipeline_config(tmp_path, "run_b")
        files_a = sorted(run_pipeline(cfg_a), key=lambda p: str(p.relative_to(cfg_a.out_dir)))
        files_b = sorted(run_pipeline(cfg_b), key=lambda p: str(p.relative_to(cfg_b.out_dir)))
        assert [p.relative_to(cfg_a.out_dir) for p in files_a] == [
            p.relative_to(cfg_b.out_dir) for p in files_b
        ]
        for a, b in zip(files_a, files_b):
            assert a.read_bytes() == b.read_bytes(), a.name


def test_c11_grid_combinatorics_and_degree_masses():
    with criterion(11, "bundled 6x5 layout has 49 neighbor pairs; degree histograms sum to 1"):
        grid = load_bundled_grid()
        assert len(neighbor_pairs(grid)) == 49
        spec = GeneratorSpec(5, 3000, chain_coupling(5, 0.7), seed=33)
        x = generate_contemporaneous(spec)
        cfg = OmiiConfig(
            family=Family.GAUSSIAN,
            theta=0.05,
            n_shuffles=100,
            seed=2,
        )
        dist = degree_distribution(infer_network(x, cfg))
        assert sum(dist.in_probs) == pytest.approx(1.0, abs=1e-12)
        assert sum(dist.out_probs) == pytest.approx(1.0, abs=1e-12)
