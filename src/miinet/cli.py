"""Command-line front end: ingestion, generation, analysis and diff verbs.

Verbs: generate, fit-report, pairwise-mi, omii, diff, pipeline. Every verb
is synchronous and deterministic given its arguments; reruns with the same
config produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import io
from .core import Axis, TimeSeriesMatrix, as_integer, standardize
from .distributions import fit_errors
from .errors import MiinetError
from .estimators import Family
from .omii import OmiiConfig, degree_distribution, infer_network
from .seeding import derive_seed
from .spatial import mi_map_diff, neighbor_pairs, network_diff, pairwise_mi_map
from .synthetic import (
    GeneratorSpec,
    coupling_from_edges,
    generate_contemporaneous,
    generate_var,
    random_dag_coupling,
)


@dataclass(frozen=True)
class RunConfig:
    """Full pipeline configuration; seed is mandatory, never wall-clock."""

    baseline_label: str
    baseline_path: str
    scenarios: tuple[tuple[str, str], ...]
    grid_path: str
    axis: Axis
    family: Family
    theta: float
    n_shuffles: int
    seed: int
    out_dir: str

    def __post_init__(self):
        omii_cfg = OmiiConfig(self.family, self.theta, self.n_shuffles, self.seed)
        labels = [self.baseline_label] + [label for label, _ in self.scenarios]
        if len(set(labels)) != len(labels):
            raise ValueError("scenario labels must be unique")
        for label in labels:
            if not label or any(ch in label for ch in "/\\ "):
                raise ValueError(f"label {label!r} must be non-empty, no slashes/spaces")
        for path in [self.baseline_path, self.grid_path] + [p for _, p in self.scenarios]:
            if not Path(path).is_file():
                raise FileNotFoundError(f"input file {path} does not exist")
        object.__setattr__(self, "axis", Axis(self.axis))
        object.__setattr__(self, "family", omii_cfg.family)

    def as_dict(self) -> dict:
        return {
            "baseline": {"label": self.baseline_label, "path": str(self.baseline_path)},
            "scenarios": [{"label": l, "path": str(p)} for l, p in self.scenarios],
            "grid": str(self.grid_path),
            "axis": self.axis.value,
            "family": self.family.value,
            "theta": self.theta,
            "n_shuffles": self.n_shuffles,
            "seed": self.seed,
        }


def build_fit_report(x: TimeSeriesMatrix) -> dict:
    """Per-channel l1 errors of the standardized data against both baselines."""
    channels = []
    laplace_better = 0
    for k, ch in enumerate(x.channels):
        n_bins, err_n, err_l = fit_errors(x.data[:, k])
        if err_l < err_n:
            laplace_better += 1
        channels.append(
            {
                "channel": ch.name,
                "n_bins": n_bins,
                "l1_error_normal": err_n,
                "l1_error_laplace": err_l,
                "better_fit": "laplace" if err_l < err_n else "normal",
            }
        )
    return {
        "channels": channels,
        "laplace_better_fraction": laplace_better / x.n_channels,
    }


def _axis_submatrix(x: TimeSeriesMatrix, axis: Axis) -> TimeSeriesMatrix:
    columns = x.axis_channel_indices(axis)
    if not columns:
        raise MiinetError(f"no channels for axis {axis.value}")
    return x.select([columns[s] for s in sorted(columns)])


def run_pipeline(cfg: RunConfig) -> list[Path]:
    """fit report -> pairwise MI -> oMII per scenario, then diffs vs baseline.

    Every input is read and checked before the first write, so a bad
    scenario leaves no partial bundle.
    """
    grid = io.load_grid_csv(cfg.grid_path)
    all_scenarios = [(cfg.baseline_label, cfg.baseline_path), *cfg.scenarios]
    matrices = [standardize(io.read_timeseries_csv(path)) for _, path in all_scenarios]
    baseline_channels = set(matrices[0].channels)
    for (label, _), x in zip(all_scenarios, matrices):
        if set(x.channels) != baseline_channels:
            raise MiinetError(
                f"scenario {label!r} has a different channel set than the baseline"
            )

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_dict = cfg.as_dict()
    prov = io.provenance(config_dict, cfg.seed)
    written: list[Path] = []
    mi_maps = {}
    networks = {}
    for (label, _), x in zip(all_scenarios, matrices):
        scen_dir = out_dir / label
        scen_dir.mkdir(parents=True, exist_ok=True)

        report = build_fit_report(x)
        report["provenance"] = prov
        report["scenario"] = label
        io.write_json(report, scen_dir / "fit_report.json")
        written.append(scen_dir / "fit_report.json")

        mi_map = pairwise_mi_map(x, grid, cfg.axis, cfg.family, scenario=label)
        io.write_mi_map_csv(mi_map, prov, scen_dir / "pairwise_mi.csv")
        written.append(scen_dir / "pairwise_mi.csv")
        mi_maps[label] = mi_map

        sub = _axis_submatrix(x, cfg.axis)
        omii_cfg = OmiiConfig(
            family=cfg.family,
            theta=cfg.theta,
            n_shuffles=cfg.n_shuffles,
            seed=derive_seed(cfg.seed, "omii", label),
        )
        net = infer_network(sub, omii_cfg, metadata={"scenario": label, "axis": cfg.axis.value})
        io.write_network_json(net, prov, scen_dir / "omii_network.json")
        io.write_network_dot(net, prov, scen_dir / "omii_network.dot", grid=grid)
        written += [scen_dir / "omii_network.json", scen_dir / "omii_network.dot"]
        networks[label] = net

        io.write_degree_distribution_csv(
            degree_distribution(net), prov, scen_dir / "degree_distribution.csv"
        )
        written.append(scen_dir / "degree_distribution.csv")

    for label, _ in cfg.scenarios:
        diff_dir = out_dir / f"diff_{cfg.baseline_label}_vs_{label}"
        diff_dir.mkdir(parents=True, exist_ok=True)
        io.write_mi_map_diff_csv(
            mi_map_diff(mi_maps[cfg.baseline_label], mi_maps[label]),
            prov,
            diff_dir / "mi_map_diff.csv",
        )
        io.write_network_diff_json(
            network_diff(networks[cfg.baseline_label], networks[label]),
            prov,
            diff_dir / "network_diff.json",
        )
        written += [diff_dir / "mi_map_diff.csv", diff_dir / "network_diff.json"]

    config_payload = {"config": config_dict, "provenance": prov}
    io.write_json(config_payload, out_dir / "run_config.json")
    written.append(out_dir / "run_config.json")
    return written


def _spec_field(record, key: str, where: str):
    try:
        return record[key]
    except (KeyError, TypeError):
        raise ValueError(f"{where} has no {key!r}") from None


def _spec_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def load_generator_spec(path) -> tuple[str, GeneratorSpec]:
    """Generator description JSON -> (kind, GeneratorSpec).

    Coupling comes from one of: explicit "edges" (1-based sensor indices),
    a "grid_layout" CSV whose neighbor pairs are coupled low->high sensor
    with "edge_weight", or a "random_dag" block. A missing required field
    raises ValueError naming it.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(raw, dict):
        raise ValueError("generator spec must be a JSON object")
    kind = raw.get("kind", "contemporaneous")
    if kind not in ("contemporaneous", "var"):
        raise ValueError(f"unknown generator kind {kind!r}")
    n = as_integer("n_channels", _spec_field(raw, "n_channels", "generator spec"))
    sources = [key for key in ("edges", "grid_layout", "random_dag") if key in raw]
    if len(sources) != 1:
        raise ValueError("specify exactly one of edges / grid_layout / random_dag")
    if "edges" in raw:
        if not isinstance(raw["edges"], list):
            raise ValueError("generator spec field 'edges' must be a list of edge objects")
        edges = []
        for k, e in enumerate(raw["edges"]):
            source, target = (
                as_integer(f"edge {k} {key!r}", _spec_field(e, key, f"edge {k}"))
                for key in ("source", "target")
            )
            weight = _spec_float(_spec_field(e, "weight", f"edge {k}"), f"edge {k} 'weight'")
            edges.append((source - 1, target - 1, weight))
        coupling = coupling_from_edges(n, edges)
    elif "grid_layout" in raw:
        if not isinstance(raw["grid_layout"], str):
            raise ValueError("generator spec field 'grid_layout' must be a path")
        grid = io.load_grid_csv(raw["grid_layout"])
        if max(grid.sensors) > n:
            raise ValueError("grid has more sensors than n_channels")
        weight = _spec_float(_spec_field(raw, "edge_weight", "generator spec"), "'edge_weight'")
        coupling = coupling_from_edges(
            n, [(a - 1, b - 1, weight) for a, b in neighbor_pairs(grid)]
        )
    else:
        block = raw["random_dag"]
        coupling = random_dag_coupling(
            n,
            _spec_float(_spec_field(block, "density", "random_dag"), "random_dag 'density'"),
            _spec_float(_spec_field(block, "weight", "random_dag"), "random_dag 'weight'"),
            as_integer("graph_seed", _spec_field(block, "graph_seed", "random_dag")),
        )
    spec = GeneratorSpec(
        n_channels=n,
        n_samples=as_integer("n_samples", _spec_field(raw, "n_samples", "generator spec")),
        coupling=coupling,
        innovation=Family(raw.get("innovation", "gaussian")),
        noise_scale=_spec_float(raw.get("noise_scale", 1.0), "'noise_scale'"),
        seed=as_integer("seed", _spec_field(raw, "seed", "generator spec")),
        axis=Axis(raw.get("axis", "lateral")),
    )
    return kind, spec


def _cmd_generate(args) -> int:
    kind, spec = load_generator_spec(args.spec)
    x = generate_var(spec) if kind == "var" else generate_contemporaneous(spec)
    io.write_timeseries_csv(x, args.out)
    return 0


def _cmd_fit_report(args) -> int:
    x = standardize(io.read_timeseries_csv(args.input))
    report = build_fit_report(x)
    config = {"verb": "fit-report", "input": str(args.input)}
    report["provenance"] = io.provenance(config, args.seed)
    io.write_json(report, args.out)
    return 0


def _cmd_pairwise_mi(args) -> int:
    x = standardize(io.read_timeseries_csv(args.input))
    grid = io.load_grid_csv(args.grid)
    axis = Axis(args.axis)
    family = Family(args.family)
    mi_map = pairwise_mi_map(x, grid, axis, family, scenario=args.scenario)
    config = {
        "verb": "pairwise-mi",
        "input": str(args.input),
        "grid": str(args.grid),
        "axis": axis.value,
        "family": family.value,
        "seed": args.seed,
    }
    io.write_mi_map_csv(mi_map, io.provenance(config, args.seed), args.out)
    return 0


def _cmd_omii(args) -> int:
    x = standardize(io.read_timeseries_csv(args.input))
    axis = Axis(args.axis)
    sub = _axis_submatrix(x, axis)
    family = Family(args.family)
    cfg = OmiiConfig(
        family=family,
        theta=args.theta,
        n_shuffles=args.n_shuffles,
        seed=derive_seed(args.seed, "omii"),
    )
    net = infer_network(sub, cfg, metadata={"axis": axis.value})
    config = {
        "verb": "omii",
        "input": str(args.input),
        "axis": axis.value,
        "family": family.value,
        "theta": args.theta,
        "n_shuffles": args.n_shuffles,
        "seed": args.seed,
    }
    prov = io.provenance(config, args.seed)
    grid = io.load_grid_csv(args.grid) if args.grid else None
    io.write_network_json(net, prov, f"{args.out_prefix}.json")
    io.write_network_dot(net, prov, f"{args.out_prefix}.dot", grid=grid)
    io.write_degree_distribution_csv(
        degree_distribution(net), prov, f"{args.out_prefix}_degrees.csv"
    )
    return 0


def _cmd_diff(args) -> int:
    config = {
        "verb": "diff",
        "kind": args.kind,
        "baseline": str(args.baseline),
        "comparison": str(args.comparison),
    }
    prov = io.provenance(config, 0)
    if args.kind == "mi-map":
        diff = mi_map_diff(
            io.read_mi_map_csv(args.baseline), io.read_mi_map_csv(args.comparison)
        )
        io.write_mi_map_diff_csv(diff, prov, args.out)
    else:
        diff = network_diff(
            io.read_network_json(args.baseline), io.read_network_json(args.comparison)
        )
        io.write_network_diff_json(diff, prov, args.out)
    return 0


def _cmd_pipeline(args) -> int:
    scenarios = tuple(_parse_labeled(s) for s in args.scenario or [])
    cfg = RunConfig(
        baseline_label=_parse_labeled(args.baseline)[0],
        baseline_path=_parse_labeled(args.baseline)[1],
        scenarios=scenarios,
        grid_path=args.grid,
        axis=Axis(args.axis),
        family=Family(args.family),
        theta=args.theta,
        n_shuffles=args.n_shuffles,
        seed=args.seed,
        out_dir=args.out,
    )
    run_pipeline(cfg)
    return 0


def _parse_labeled(token: str) -> tuple[str, str]:
    if "=" not in token:
        raise ValueError(f"expected label=path, got {token!r}")
    label, path = token.split("=", 1)
    return label, path


def _add_estimator_args(parser):
    parser.add_argument("--family", choices=["gaussian", "laplace"], default="laplace")
    parser.add_argument("--seed", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miinet",
        description="Interaction-network inference from multivariate sensor time series",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write synthetic data from a generator spec")
    p.add_argument("--spec", required=True, help="generator description JSON")
    p.add_argument("--out", required=True, help="output scenario CSV")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit-report", help="per-channel l1 fit errors vs both baselines")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit_report)

    p = sub.add_parser("pairwise-mi", help="MI map over grid-adjacent sensor pairs")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--axis", choices=["lateral", "vertical"], required=True)
    p.add_argument("--scenario", default="")
    p.add_argument("--out", required=True)
    _add_estimator_args(p)
    p.set_defaults(func=_cmd_pairwise_mi)

    p = sub.add_parser("omii", help="infer the direct-interaction network")
    p.add_argument("--input", required=True)
    p.add_argument("--axis", choices=["lateral", "vertical"], required=True)
    p.add_argument("--grid", default=None, help="optional layout for DOT positions")
    p.add_argument("--theta", type=float, default=0.1)
    p.add_argument("--n-shuffles", type=int, default=100)
    p.add_argument("--out-prefix", required=True)
    _add_estimator_args(p)
    p.set_defaults(func=_cmd_omii)

    p = sub.add_parser("diff", help="diff two MI maps or two networks")
    p.add_argument("--kind", choices=["mi-map", "network"], required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--comparison", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("pipeline", help="full per-scenario analysis plus diffs")
    p.add_argument("--baseline", required=True, help="label=path of the baseline CSV")
    p.add_argument("--scenario", action="append", help="label=path, repeatable")
    p.add_argument("--grid", required=True)
    p.add_argument("--axis", choices=["lateral", "vertical"], required=True)
    p.add_argument("--theta", type=float, default=0.1)
    p.add_argument("--n-shuffles", type=int, default=100)
    p.add_argument("--out", required=True)
    _add_estimator_args(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MiinetError, ValueError, FileNotFoundError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
