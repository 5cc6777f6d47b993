"""Command-line front end: generation, analysis and diff verbs.

Verbs: generate, fit-report, pairwise-mi, omii, diff, pipeline. Every verb
is synchronous and deterministic given its arguments; reruns with the same
config produce byte-identical outputs. Every file format, the generator
spec included, is read and written by `io`. A failing verb prints one JSON
error record and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import io
from .core import Axis, TimeSeriesMatrix, standardize
from .distributions import fit_errors
from .errors import MiinetError, MissingChannel
from .estimators import Family
from .io import load_generator_spec
from .omii import InteractionNetwork, OmiiConfig, degree_distribution, infer_network
from .seeding import derive_seed
from .spatial import SensorGrid, mi_map_diff, network_diff, pairwise_mi_map
from .synthetic import generate_contemporaneous, generate_var


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
        taken = {".", "..", "run_config.json", *(f"diff_{labels[0]}_vs_{l}" for l in labels[1:])}
        for label in labels:
            surrogate = any("\ud800" <= ch <= "\udfff" for ch in label)  # undecodable argv bytes
            if not label or label in taken or surrogate or any(ch in label for ch in "/\\ "):
                raise ValueError(
                    f"label {label!r} must be non-empty UTF-8 text, no slashes/spaces, and"
                    " not ., .., run_config.json or a diff directory's name"
                )
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
    for k, ch in enumerate(x.channels):
        n_bins, err_n, err_l = fit_errors(x.data[:, k])
        channels.append(
            {
                "channel": ch.name,
                "n_bins": n_bins,
                "l1_error_normal": err_n,
                "l1_error_laplace": err_l,
                "better_fit": "laplace" if err_l < err_n else "normal",
            }
        )
    laplace_better = sum(ch["better_fit"] == "laplace" for ch in channels)
    return {"channels": channels, "laplace_better_fraction": laplace_better / x.n_channels}


def _write_fit_report(x: TimeSeriesMatrix, prov: dict, path, **fields) -> None:
    """`build_fit_report(x)` with its provenance and any further fields, as JSON."""
    io.write_json({**build_fit_report(x), "provenance": prov, **fields}, path)


def _axis_matrix(x: TimeSeriesMatrix, axis: Axis, grid: SensorGrid | None = None):
    """x's `axis` channels in sensor order, the one matrix of the MI map and of oMII."""
    columns = x.axis_channel_indices(axis)
    if not columns and grid:
        raise MissingChannel(grid.sensors[0], axis.value)  # as `pairwise_mi_map` names it
    if not columns:
        raise MiinetError(f"no channels for axis {axis.value}")
    return x.select([columns[s] for s in sorted(columns)])


def _write_network(net: InteractionNetwork, prov: dict, grid: SensorGrid | None, paths: list):
    """`net` to `paths`: network JSON, DOT and degree CSV."""
    json_path, dot_path, degrees_path = paths
    io.write_network_json(net, prov, json_path)
    io.write_network_dot(net, prov, dot_path, grid=grid)
    io.write_degree_distribution_csv(degree_distribution(net), prov, degrees_path)


_SCENARIO_FILES = ("fit_report.json", "pairwise_mi.csv",
                   "omii_network.json", "omii_network.dot", "degree_distribution.csv")


def run_pipeline(cfg: RunConfig) -> list[Path]:
    """fit report -> pairwise MI -> oMII per scenario, then diffs vs baseline.

    A scenario's MI map and network read one covariance, that of its `axis`
    channels. Every input is read and checked, and every map and network
    computed, before the first write: a bad scenario leaves no partial bundle.
    """
    grid = io.load_grid_csv(cfg.grid_path)
    all_scenarios = [(cfg.baseline_label, cfg.baseline_path), *cfg.scenarios]
    matrices = [standardize(io.read_timeseries_csv(path)) for _, path in all_scenarios]
    baseline_channels = set(matrices[0].channels)
    for (label, _), x in zip(all_scenarios, matrices):
        if set(x.channels) != baseline_channels:
            raise MiinetError(f"scenario {label!r} has a different channel set than the baseline")
    mi_maps, networks = {}, {}
    for (label, _), x in zip(all_scenarios, matrices):
        sub = _axis_matrix(x, cfg.axis, grid)
        mi_maps[label] = pairwise_mi_map(sub, grid, cfg.axis, cfg.family, scenario=label)
        seed = derive_seed(cfg.seed, "omii", label)
        omii_cfg = OmiiConfig(cfg.family, cfg.theta, cfg.n_shuffles, seed)
        networks[label] = infer_network(sub, omii_cfg, {"scenario": label, "axis": cfg.axis.value})

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_dict = cfg.as_dict()
    prov = io.provenance(config_dict, cfg.seed)
    written: list[Path] = []
    for (label, _), x in zip(all_scenarios, matrices):
        scen_dir = out_dir / label
        scen_dir.mkdir(parents=True, exist_ok=True)
        paths = [scen_dir / name for name in _SCENARIO_FILES]
        _write_fit_report(x, prov, paths[0], scenario=label)
        io.write_mi_map_csv(mi_maps[label], prov, paths[1])
        _write_network(networks[label], prov, grid, paths[2:])
        written += paths

    for label, _ in cfg.scenarios:
        diff_dir = out_dir / f"diff_{cfg.baseline_label}_vs_{label}"
        diff_dir.mkdir(parents=True, exist_ok=True)
        paths = [diff_dir / "mi_map_diff.csv", diff_dir / "network_diff.json"]
        base = cfg.baseline_label
        io.write_mi_map_diff_csv(mi_map_diff(mi_maps[base], mi_maps[label]), prov, paths[0])
        io.write_network_diff_json(network_diff(networks[base], networks[label]), prov, paths[1])
        written += paths

    config_payload = {"config": config_dict, "provenance": prov}
    io.write_json(config_payload, out_dir / "run_config.json")
    written.append(out_dir / "run_config.json")
    return written


def _cmd_generate(args) -> int:
    kind, spec = load_generator_spec(args.spec)
    x = generate_var(spec) if kind == "var" else generate_contemporaneous(spec)
    io.write_timeseries_csv(x, args.out)
    return 0


def _cmd_fit_report(args) -> int:
    x = standardize(io.read_timeseries_csv(args.input))
    config = {"verb": "fit-report", "input": str(args.input)}
    _write_fit_report(x, io.provenance(config, args.seed), args.out)
    return 0


def _cmd_pairwise_mi(args) -> int:
    x = standardize(io.read_timeseries_csv(args.input))
    grid = io.load_grid_csv(args.grid)
    axis = Axis(args.axis)
    family = Family(args.family)
    mi_map = pairwise_mi_map(_axis_matrix(x, axis, grid), grid, axis, family, args.scenario)
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
    family = Family(args.family)
    cfg = OmiiConfig(family, args.theta, args.n_shuffles, derive_seed(args.seed, "omii"))
    config = {
        "verb": "omii",
        "input": str(args.input),
        "axis": axis.value,
        "family": family.value,
        "theta": args.theta,
        "n_shuffles": args.n_shuffles,
        "seed": args.seed,
    }
    grid = io.load_grid_csv(args.grid) if args.grid else None
    paths = [f"{args.out_prefix}{suffix}" for suffix in (".json", ".dot", "_degrees.csv")]
    net = infer_network(_axis_matrix(x, axis), cfg, {"axis": axis.value})
    _write_network(net, io.provenance(config, args.seed), grid, paths)
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
        read, diff, write = io.read_mi_map_csv, mi_map_diff, io.write_mi_map_diff_csv
    else:
        read, diff, write = io.read_network_json, network_diff, io.write_network_diff_json
    write(diff(read(args.baseline), read(args.comparison)), prov, args.out)
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
    except (MiinetError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
