import json
from pathlib import Path

import numpy as np
import pytest

from miinet import Axis, neighbor_pairs
from miinet.cli import RunConfig, build_fit_report, load_generator_spec, main, run_pipeline
from miinet.errors import DuplicateChannel, EmptyFile, MalformedNetwork, ParseError
from miinet import io as mio
from miinet.omii import Edge, InteractionNetwork
from miinet.synthetic import GeneratorSpec, coupling_from_edges, generate_contemporaneous

from conftest import make_matrix


# ------------------------------------------------------------- ingestion

def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def test_ingest_small_well_formed(tmp_path):
    p = write(
        tmp_path / "ok.csv",
        "s1_lat,s2_lat,s1_vert\n" + "\n".join(f"{i},{i + 1},{i + 2}" for i in range(5)) + "\n",
    )
    x = mio.read_timeseries_csv(p)
    assert x.data.shape == (5, 3)
    assert x.channels[2].axis is Axis.VERTICAL


def test_ingest_rejects_nan_cell(tmp_path):
    p = write(tmp_path / "bad.csv", "s1_lat,s2_lat\n1.0,2.0\n3.0,NaN\n")
    with pytest.raises(ParseError) as err:
        mio.read_timeseries_csv(p)
    assert err.value.line == 3 and err.value.col == 2


def test_ingest_rejects_non_numeric_and_ragged(tmp_path):
    p = write(tmp_path / "bad2.csv", "s1_lat,s2_lat\n1.0,x\n")
    with pytest.raises(ParseError):
        mio.read_timeseries_csv(p)
    p2 = write(tmp_path / "bad3.csv", "s1_lat,s2_lat\n1.0\n")
    with pytest.raises(ParseError):
        mio.read_timeseries_csv(p2)


def test_ingest_duplicate_and_empty(tmp_path):
    p = write(tmp_path / "dup.csv", "s1_lat,s1_lat\n1.0,2.0\n")
    with pytest.raises(DuplicateChannel):
        mio.read_timeseries_csv(p)
    p2 = write(tmp_path / "empty.csv", "")
    with pytest.raises(EmptyFile):
        mio.read_timeseries_csv(p2)
    p3 = write(tmp_path / "headeronly.csv", "s1_lat,s2_lat\n")
    with pytest.raises(EmptyFile):
        mio.read_timeseries_csv(p3)


def test_ingest_bad_header(tmp_path):
    p = write(tmp_path / "hdr.csv", "s1_lat,acc2\n1.0,2.0\n")
    with pytest.raises(ParseError) as err:
        mio.read_timeseries_csv(p)
    assert err.value.line == 1 and err.value.col == 2


def test_ingest_paper_scale(tmp_path):
    # 11536 samples x 60 channels (~5.5 MB of float64) ingests fine
    rng = np.random.default_rng(0)
    header = ",".join(
        f"s{s}_{ax}" for s in range(1, 31) for ax in ("lat", "vert")
    )
    body = "\n".join(
        ",".join(f"{v:.5f}" for v in row) for row in rng.standard_normal((11536, 60))
    )
    p = write(tmp_path / "big.csv", header + "\n" + body + "\n")
    x = mio.read_timeseries_csv(p)
    assert x.data.shape == (11536, 60)
    assert x.data.nbytes == 11536 * 60 * 8


def test_timeseries_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    x = make_matrix(rng.standard_normal((40, 3)))
    p = tmp_path / "rt.csv"
    mio.write_timeseries_csv(x, p)
    back = mio.read_timeseries_csv(p)
    assert back.channels == x.channels
    np.testing.assert_array_equal(back.data, x.data)


# ------------------------------------------------------------------ grid

def test_bundled_grid():
    grid = mio.load_bundled_grid()
    assert len(grid.sensors) == 30
    assert len(neighbor_pairs(grid)) == 49


def test_grid_csv_errors(tmp_path):
    with pytest.raises(ParseError):
        mio.load_grid_csv(write(tmp_path / "g1.csv", "a,b,c\n1,0,0\n"))
    with pytest.raises(ParseError):
        mio.load_grid_csv(write(tmp_path / "g2.csv", "sensor_index,row,col\n1,0,0\n1,1,1\n"))
    with pytest.raises(EmptyFile):
        mio.load_grid_csv(write(tmp_path / "g3.csv", "sensor_index,row,col\n"))


# ----------------------------------------------------------- fit report

def test_fit_report_prefers_laplace_on_laplace_data():
    spec = GeneratorSpec(
        6, 20_000, np.zeros((6, 6)), innovation="laplace", seed=3
    )
    x = generate_contemporaneous(spec)
    report = build_fit_report(x)
    assert report["laplace_better_fraction"] == 1.0
    assert {c["better_fit"] for c in report["channels"]} == {"laplace"}


# ------------------------------------------------------------- networks

def test_network_json_round_trip(tmp_path):
    net = InteractionNetwork(
        (0, 1), ("s1_lat", "s2_lat"), (Edge(0, 1, 0.42, 0.1),), {"theta": 0.1}
    )
    prov = mio.provenance({"x": 1}, 7)
    p = tmp_path / "net.json"
    mio.write_network_json(net, prov, p)
    back = mio.read_network_json(p)
    assert back.nodes == net.nodes
    assert back.edges == net.edges
    payload = json.loads(p.read_text())
    assert payload["provenance"]["seed"] == 7
    assert "config_hash" in payload["provenance"]


def test_mi_map_csv_round_trip(tmp_path):
    from miinet.spatial import PairwiseMIMap

    mi_map = PairwiseMIMap(Axis.LATERAL, "base", ((1, 2), (2, 3)), (0.5, -0.001))
    p = tmp_path / "map.csv"
    mio.write_mi_map_csv(mi_map, mio.provenance({}, 1), p)
    back = mio.read_mi_map_csv(p)
    assert back == mi_map  # raw values survive the clamped report
    text = p.read_text()
    assert text.startswith("# config_hash=")
    assert text.endswith("sensor_a,sensor_b,mi,mi_raw\n1,2,0.5,0.5\n2,3,0.0,-0.001\n")


# ------------------------------------------------------------------ CLI

def generator_json(tmp_path, **overrides) -> Path:
    spec = {
        "kind": "contemporaneous",
        "n_channels": 4,
        "n_samples": 600,
        "innovation": "gaussian",
        "noise_scale": 1.0,
        "seed": 11,
        "edges": [
            {"source": 1, "target": 2, "weight": 0.7},
            {"source": 2, "target": 3, "weight": 0.7},
        ],
    }
    spec.update(overrides)
    p = tmp_path / "gen.json"
    p.write_text(json.dumps(spec))
    return p


def test_generate_verb_round_trip(tmp_path):
    spec_path = generator_json(tmp_path)
    out = tmp_path / "data.csv"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
    x = mio.read_timeseries_csv(out)
    assert x.data.shape == (600, 4)
    # deterministic regeneration
    out2 = tmp_path / "data2.csv"
    main(["generate", "--spec", str(spec_path), "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_generator_spec_grid_and_random_dag(tmp_path):
    grid_path = mio.bundled_grid_path()
    p = tmp_path / "g.json"
    p.write_text(
        json.dumps(
            {
                "kind": "contemporaneous",
                "n_channels": 30,
                "n_samples": 50,
                "seed": 1,
                "grid_layout": str(grid_path),
                "edge_weight": 0.5,
            }
        )
    )
    kind, spec = load_generator_spec(p)
    assert kind == "contemporaneous"
    assert len(spec.true_edges()) == 49
    p2 = tmp_path / "g2.json"
    p2.write_text(
        json.dumps(
            {
                "kind": "var",
                "n_channels": 5,
                "n_samples": 50,
                "seed": 1,
                "random_dag": {"density": 0.3, "weight": 0.4, "graph_seed": 2},
            }
        )
    )
    kind2, spec2 = load_generator_spec(p2)
    assert kind2 == "var"
    assert spec2.coupling.shape == (5, 5)


def test_fit_report_verb(tmp_path):
    spec_path = generator_json(tmp_path, innovation="laplace")
    data = tmp_path / "d.csv"
    main(["generate", "--spec", str(spec_path), "--out", str(data)])
    out = tmp_path / "report.json"
    assert main(["fit-report", "--input", str(data), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["channels"]) == 4
    assert "provenance" in report


def small_grid_csv(tmp_path) -> Path:
    return write(
        tmp_path / "grid.csv",
        "sensor_index,row,col\n1,0,0\n2,0,1\n3,1,0\n4,1,1\n",
    )


def test_pairwise_mi_and_diff_verbs(tmp_path):
    grid = small_grid_csv(tmp_path)
    data_a = tmp_path / "a.csv"
    data_b = tmp_path / "b.csv"
    main(["generate", "--spec", str(generator_json(tmp_path)), "--out", str(data_a)])
    main(
        ["generate", "--spec", str(generator_json(tmp_path, seed=12)), "--out", str(data_b)]
    )
    map_a = tmp_path / "a_map.csv"
    map_b = tmp_path / "b_map.csv"
    for data, out in ((data_a, map_a), (data_b, map_b)):
        code = main(
            [
                "pairwise-mi",
                "--input", str(data),
                "--grid", str(grid),
                "--axis", "lateral",
                "--family", "gaussian",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
    diff_out = tmp_path / "diff.csv"
    code = main(
        [
            "diff", "--kind", "mi-map",
            "--baseline", str(map_a),
            "--comparison", str(map_b),
            "--out", str(diff_out),
        ]
    )
    assert code == 0
    assert "sign_convention=comparison_minus_baseline" in diff_out.read_text()


def test_omii_verb_and_network_diff(tmp_path):
    data = tmp_path / "d.csv"
    main(["generate", "--spec", str(generator_json(tmp_path)), "--out", str(data)])
    prefix = tmp_path / "net"
    code = main(
        [
            "omii",
            "--input", str(data),
            "--axis", "lateral",
            "--family", "gaussian",
            "--theta", "0.1",
            "--n-shuffles", "30",
            "--seed", "4",
            "--out-prefix", str(prefix),
        ]
    )
    assert code == 0
    assert (tmp_path / "net.json").exists()
    assert (tmp_path / "net.dot").exists()
    assert (tmp_path / "net_degrees.csv").exists()
    diff_out = tmp_path / "ndiff.json"
    code = main(
        [
            "diff", "--kind", "network",
            "--baseline", str(tmp_path / "net.json"),
            "--comparison", str(tmp_path / "net.json"),
            "--out", str(diff_out),
        ]
    )
    assert code == 0
    payload = json.loads(diff_out.read_text())
    assert payload["lost"] == [] and payload["gained"] == []


@pytest.mark.parametrize("key", ["source", "target", "weight", "threshold"])
def test_network_payload_missing_edge_field_rejected(key):
    edge = {"source": 0, "target": 1, "weight": 0.4, "threshold": 0.1}
    del edge[key]
    payload = {
        "nodes": [{"index": 0, "name": "s1_lat"}, {"index": 1, "name": "s2_lat"}],
        "edges": [{"source": 1, "target": 0, "weight": 0.5, "threshold": 0.1}, edge],
    }
    with pytest.raises(MalformedNetwork, match=f"edge 1 has no '{key}'"):
        mio.network_from_payload(payload)


def test_network_diff_verb_rejects_malformed_network(tmp_path, capsys):
    net = InteractionNetwork((0, 1), ("s1_lat", "s2_lat"), (Edge(0, 1, 0.42, 0.1),), {})
    good = tmp_path / "good.json"
    mio.write_network_json(net, mio.provenance({}, 1), good)
    payload = json.loads(good.read_text())
    del payload["edges"][0]["threshold"]
    bad = write(tmp_path / "bad.json", json.dumps(payload))
    code = main(
        ["diff", "--kind", "network", "--baseline", str(good), "--comparison", str(bad),
         "--out", str(tmp_path / "diff.json")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "MalformedNetwork"
    assert "edge 0" in record["message"] and "threshold" in record["message"]
    assert not (tmp_path / "diff.json").exists()


def test_cli_error_record(tmp_path, capsys):
    code = main(["fit-report", "--input", str(tmp_path / "missing.csv"), "--out", "x.json"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "error" in record and "message" in record


# -------------------------------------------------------------- pipeline

def pipeline_inputs(tmp_path):
    grid = small_grid_csv(tmp_path)
    base = tmp_path / "base.csv"
    dam = tmp_path / "dam.csv"
    edges = [
        {"source": 1, "target": 2, "weight": 0.8},
        {"source": 1, "target": 3, "weight": 0.8},
        {"source": 2, "target": 4, "weight": 0.8},
        {"source": 3, "target": 4, "weight": 0.8},
    ]
    main(
        ["generate", "--spec", str(generator_json(tmp_path, edges=edges, seed=21, n_samples=1200)), "--out", str(base)]
    )
    weak = [dict(e, weight=0.5) for e in edges]
    main(
        ["generate", "--spec", str(generator_json(tmp_path, edges=weak, seed=22, n_samples=1200)), "--out", str(dam)]
    )
    return grid, base, dam


def run_config(tmp_path, out_name="out", **overrides):
    grid, base, dam = pipeline_inputs(tmp_path)
    kwargs = dict(
        baseline_label="baseline",
        baseline_path=str(base),
        scenarios=(("damage1", str(dam)),),
        grid_path=str(grid),
        axis=Axis.LATERAL,
        family="gaussian",
        theta=0.1,
        n_shuffles=25,
        seed=99,
        out_dir=str(tmp_path / out_name),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def test_pipeline_bundle_complete(tmp_path):
    cfg = run_config(tmp_path)
    written = run_pipeline(cfg)
    out = Path(cfg.out_dir)
    expected = {
        out / "baseline" / "fit_report.json",
        out / "baseline" / "pairwise_mi.csv",
        out / "baseline" / "omii_network.json",
        out / "baseline" / "omii_network.dot",
        out / "baseline" / "degree_distribution.csv",
        out / "damage1" / "fit_report.json",
        out / "damage1" / "pairwise_mi.csv",
        out / "damage1" / "omii_network.json",
        out / "damage1" / "omii_network.dot",
        out / "damage1" / "degree_distribution.csv",
        out / "diff_baseline_vs_damage1" / "mi_map_diff.csv",
        out / "diff_baseline_vs_damage1" / "network_diff.json",
        out / "run_config.json",
    }
    assert set(written) == expected
    for path in expected:
        assert path.exists() and path.stat().st_size > 0
    run_cfg = json.loads((out / "run_config.json").read_text())
    assert run_cfg["provenance"]["seed"] == 99


def test_pipeline_reruns_byte_identical(tmp_path):
    cfg1 = run_config(tmp_path, out_name="o1")
    cfg2 = run_config(tmp_path, out_name="o2")
    files1 = sorted(run_pipeline(cfg1), key=lambda p: str(p.relative_to(cfg1.out_dir)))
    files2 = sorted(run_pipeline(cfg2), key=lambda p: str(p.relative_to(cfg2.out_dir)))
    assert len(files1) == len(files2)
    for a, b in zip(files1, files2):
        assert a.relative_to(cfg1.out_dir) == b.relative_to(cfg2.out_dir)
        assert a.read_bytes() == b.read_bytes(), a.name


def test_pipeline_rejects_degenerate_theta(tmp_path):
    with pytest.raises(ValueError):
        run_config(tmp_path, theta=0.0)
    with pytest.raises(ValueError):
        run_config(tmp_path, theta=1.0)


def test_pipeline_rejects_duplicate_labels(tmp_path):
    grid, base, dam = pipeline_inputs(tmp_path)
    with pytest.raises(ValueError):
        RunConfig(
            baseline_label="x",
            baseline_path=str(base),
            scenarios=(("x", str(dam)),),
            grid_path=str(grid),
            axis=Axis.LATERAL,
            family="gaussian",
            theta=0.1,
            n_shuffles=10,
            seed=1,
            out_dir=str(tmp_path / "o"),
        )


def test_pipeline_missing_file_rejected(tmp_path):
    grid, base, dam = pipeline_inputs(tmp_path)
    with pytest.raises(FileNotFoundError):
        RunConfig(
            baseline_label="b",
            baseline_path=str(tmp_path / "nope.csv"),
            scenarios=(),
            grid_path=str(grid),
            axis=Axis.LATERAL,
            family="gaussian",
            theta=0.1,
            n_shuffles=10,
            seed=1,
            out_dir=str(tmp_path / "o"),
        )
