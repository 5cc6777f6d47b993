"""Command-line front end: generation, analysis and diff verbs.

Verbs: generate, fit-report, pairwise-mi, omii, diff, pipeline. Every verb
is synchronous and deterministic given its arguments; reruns with the same
config produce byte-identical outputs. Every file format, the generator
spec included, is read and written by `io`. A failing verb, one that runs out
of memory included, prints one JSON error record and exits 1.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import io
from .core import Axis, TimeSeriesMatrix, standardize
from .distributions import column_fit_errors
from .errors import MiinetError, MissingChannel
from .estimators import Family
from .io import load_generator_spec
from .omii import InteractionNetwork, OmiiConfig, degree_distribution, infer_network
from .seeding import derive_seed
from .spatial import SensorGrid, mi_map_diff, network_diff, pairwise_mi_map
from .synthetic import generate_contemporaneous, generate_var


@dataclass(frozen=True)
class RunConfig:
    """Full pipeline configuration; `omii.seed` is the run's seed, never wall-clock."""

    baseline_label: str
    baseline_path: str
    scenarios: tuple[tuple[str, str], ...]
    grid_path: str
    axis: Axis
    omii: OmiiConfig
    out_dir: str

    def __post_init__(self):
        labels = [self.baseline_label] + [label for label, _ in self.scenarios]
        if len(set(labels)) != len(labels):
            raise ValueError("scenario labels must be unique")
        taken = {".", "..", "run_config.json", *(f"diff_{labels[0]}_vs_{l}" for l in labels[1:])}
        for label in labels:
            surrogate = any("\ud800" <= ch <= "\udfff" for ch in label)  # undecodable argv bytes
            one_line = label.splitlines() == [label]  # also false for ""
            banned = any(ch in "/\\" or ch.isspace() for ch in label)
            if not one_line or label in taken or surrogate or banned:
                raise ValueError(
                    f"label {label!r} must be one non-empty line of UTF-8 text, no slashes or"
                    " whitespace, and not ., .., run_config.json or a diff directory's name"
                )
        for path in [self.baseline_path, self.grid_path] + [p for _, p in self.scenarios]:
            if not Path(path).is_file():
                raise FileNotFoundError(f"input file {path} does not exist")
        object.__setattr__(self, "axis", Axis(self.axis))

    def as_dict(self) -> dict:
        """Every field but `out_dir`, with `OmiiConfig`'s fields as top-level keys."""
        return {
            "baseline": {"label": self.baseline_label, "path": str(self.baseline_path)},
            "scenarios": [{"label": l, "path": str(p)} for l, p in self.scenarios],
            "grid": str(self.grid_path),
            "axis": self.axis.value,
            **asdict(self.omii),
        }


def build_fit_report(x: TimeSeriesMatrix) -> dict:
    """Per-channel l1 errors of the standardized data against both baselines."""
    channels = [
        {
            "channel": ch.name,
            "n_bins": n_bins,
            "l1_error_normal": err_n,
            "l1_error_laplace": err_l,
            "better_fit": "laplace" if err_l < err_n else "normal",
        }
        for ch, n_bins, err_n, err_l in zip(
            x.channels, *(column.tolist() for column in column_fit_errors(x.data))
        )
    ]
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
    computed, and every bundle directory made, before the first write: a bad
    scenario, or a file that takes a directory's name, leaves no partial bundle.
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
        mi_maps[label] = pairwise_mi_map(sub, grid, cfg.axis, cfg.omii.family, scenario=label)
        omii_cfg = replace(cfg.omii, seed=derive_seed(cfg.omii.seed, "omii", label))
        networks[label] = infer_network(sub, omii_cfg, {"scenario": label, "axis": cfg.axis.value})

    out_dir = Path(cfg.out_dir)
    dirs = [out_dir / label for label, _ in all_scenarios]
    dirs += [out_dir / f"diff_{cfg.baseline_label}_vs_{label}" for label, _ in cfg.scenarios]
    for d in dirs:  # a name taken by a file stops the run before --out is touched
        if d.exists() and not d.is_dir():
            raise FileExistsError(errno.EEXIST, "bundle directory is a file", str(d))
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    config_dict = cfg.as_dict()
    prov = io.provenance(config_dict, cfg.omii.seed)
    written: list[Path] = []
    for (label, _), x in zip(all_scenarios, matrices):
        paths = [out_dir / label / name for name in _SCENARIO_FILES]
        _write_fit_report(x, prov, paths[0], scenario=label)
        io.write_mi_map_csv(mi_maps[label], prov, paths[1])
        _write_network(networks[label], prov, grid, paths[2:])
        written += paths

    for label, _ in cfg.scenarios:
        diff_dir = out_dir / f"diff_{cfg.baseline_label}_vs_{label}"
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


def _provenance(args) -> dict:
    """Provenance hashing every parsed argument but where the verb writes (--out, --out-prefix)."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out", "out_prefix")}
    return io.provenance(config, getattr(args, "seed", 0))


def _omii_config(args) -> OmiiConfig:
    """The `OmiiConfig` of argv's options, one per field."""
    return OmiiConfig(**{f.name: getattr(args, f.name) for f in fields(OmiiConfig)})


def _cmd_fit_report(args) -> int:
    x = standardize(io.read_timeseries_csv(args.input))
    _write_fit_report(x, _provenance(args), args.out)
    return 0


def _cmd_pairwise_mi(args) -> int:
    x = standardize(io.read_timeseries_csv(args.input))
    grid = io.load_grid_csv(args.grid)
    axis, family = Axis(args.axis), Family(args.family)
    mi_map = pairwise_mi_map(_axis_matrix(x, axis, grid), grid, axis, family, args.scenario)
    io.write_mi_map_csv(mi_map, _provenance(args), args.out)
    return 0


def _cmd_omii(args) -> int:
    x = standardize(io.read_timeseries_csv(args.input))
    axis = Axis(args.axis)
    cfg = replace(_omii_config(args), seed=derive_seed(args.seed, "omii"))
    grid = io.load_grid_csv(args.grid) if args.grid else None
    paths = [f"{args.out_prefix}{suffix}" for suffix in (".json", ".dot", "_degrees.csv")]
    net = infer_network(_axis_matrix(x, axis), cfg, {"axis": axis.value})
    _write_network(net, _provenance(args), grid, paths)
    return 0


def _cmd_diff(args) -> int:
    if args.kind == "mi-map":
        read, diff, write = io.read_mi_map_csv, mi_map_diff, io.write_mi_map_diff_csv
    else:
        read, diff, write = io.read_network_json, network_diff, io.write_network_diff_json
    write(diff(read(args.baseline), read(args.comparison)), _provenance(args), args.out)
    return 0


def _cmd_pipeline(args) -> int:
    scenarios = tuple(_parse_labeled(s) for s in args.scenario or [])
    label, path = _parse_labeled(args.baseline)
    cfg = RunConfig(
        baseline_label=label,
        baseline_path=path,
        scenarios=scenarios,
        grid_path=args.grid,
        axis=args.axis,
        omii=_omii_config(args),
        out_dir=args.out,
    )
    run_pipeline(cfg)
    return 0


def _parse_labeled(token: str) -> tuple[str, str]:
    if "=" not in token:
        raise ValueError(f"expected label=path, got {token!r}")
    label, path = token.split("=", 1)
    return label, path


def _add_estimator_args(parser, omii: bool = False):
    """--family and --seed; with `omii`, the rest of `OmiiConfig`'s options too."""
    parser.add_argument("--family", choices=["gaussian", "laplace"], default="laplace")
    parser.add_argument("--seed", type=int, required=True)
    if omii:
        parser.add_argument("--theta", type=float, default=0.1)
        parser.add_argument("--n-shuffles", type=int, default=100)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miinet",
        description="Interaction-network inference from multivariate sensor time series",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verb = functools.partial(sub.add_parser, allow_abbrev=False)  # no option by a prefix

    p = verb("generate", help="write synthetic data from a generator spec")
    p.add_argument("--spec", required=True, help="generator description JSON")
    p.add_argument("--out", required=True, help="output scenario CSV")
    p.set_defaults(func=_cmd_generate)

    p = verb("fit-report", help="per-channel l1 fit errors vs both baselines")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit_report)

    p = verb("pairwise-mi", help="MI map over grid-adjacent sensor pairs")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--axis", choices=["lateral", "vertical"], required=True)
    p.add_argument("--scenario", default="")
    p.add_argument("--out", required=True)
    _add_estimator_args(p)
    p.set_defaults(func=_cmd_pairwise_mi)

    p = verb("omii", help="infer the direct-interaction network")
    p.add_argument("--input", required=True)
    p.add_argument("--axis", choices=["lateral", "vertical"], required=True)
    p.add_argument("--grid", default=None, help="optional layout for DOT positions")
    p.add_argument("--out-prefix", required=True)
    _add_estimator_args(p, omii=True)
    p.set_defaults(func=_cmd_omii)

    p = verb("diff", help="diff two MI maps or two networks")
    p.add_argument("--kind", choices=["mi-map", "network"], required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--comparison", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diff)

    p = verb("pipeline", help="full per-scenario analysis plus diffs")
    p.add_argument("--baseline", required=True, help="label=path of the baseline CSV")
    p.add_argument("--scenario", action="append", help="label=path, repeatable")
    p.add_argument("--grid", required=True)
    p.add_argument("--axis", choices=["lateral", "vertical"], required=True)
    p.add_argument("--out", required=True)
    _add_estimator_args(p, omii=True)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MiinetError, ValueError, OSError, MemoryError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
