"""Every file format the package reads or writes.

Every JSON input field (generator specs, networks) goes through one typed
reader, `_field`, and every output table through one writer, `_write_csv`.
Every output file embeds (config_hash, seed, version) so a bundle can be
reproduced exactly; nothing here reads clocks or environment entropy.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import numbers
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .core import Axis, ChannelId, TimeSeriesMatrix
from .errors import DuplicateChannel, EmptyFile, MalformedNetwork, ParseError
from .estimators import Family
from .omii import DegreeDistribution, Edge, InteractionNetwork
from .spatial import MIMapDiff, NetworkDiff, PairwiseMIMap, SensorGrid, neighbor_pairs
from .synthetic import GeneratorSpec, coupling_from_edges, random_dag_coupling

_MI_MAP_HEADER = "sensor_a,sensor_b,mi,mi_raw"


def _number(cell: str, line_no: int, col: int, parse=float):
    """One numeric CSV cell; a non-numeric or non-finite one raises ParseError."""
    try:
        value = parse(cell)
        finite = math.isfinite(value)
    except ValueError:
        finite = False
    if not finite:
        raise ParseError(line_no, col, f"expected a finite {parse.__name__}, got {cell!r}")
    return value


def read_timeseries_csv(path) -> TimeSeriesMatrix:
    """Parse a scenario CSV: header of s<index>_<lat|vert> names, one row per sample.

    The body is parsed in one `np.loadtxt` call. A body that call rejects
    (quoted cells, `1_0`, non-ASCII digits, ragged rows, ...) or whose result
    has the wrong width or a non-finite value is parsed again by the cell
    parser, which alone raises `ParseError`, so errors keep line and column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        # readline, not iteration, so that tell() can mark the first data line
        try:
            _, header = next(_csv_rows(iter(fh.readline, ""), 1))
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        channels = []
        for col, name in enumerate(header, start=1):
            try:
                channels.append(ChannelId.from_name(name.strip()))
            except ValueError as exc:
                raise ParseError(1, col, str(exc)) from None
        if len(set(channels)) != len(channels):
            raise DuplicateChannel(f"{path} repeats a channel name")
        if fh.seekable():
            body = fh.tell()
            data = _bulk_rows(fh, len(channels))
            if data is None:
                fh.seek(body)
                data = _cell_rows(fh, len(channels))
        else:  # a pipe cannot be rewound for the cell parser
            data = _cell_rows(fh, len(channels))
    if not len(data):
        raise EmptyFile(f"{path} has a header but no data rows")
    return TimeSeriesMatrix(data, tuple(channels))


def _bulk_rows(fh, n_cols: int) -> np.ndarray | None:
    """The body as one finite n_cols-wide array, or None to leave it to _cell_rows."""
    with warnings.catch_warnings():
        # a body of blank lines only, which the caller reports as EmptyFile
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(_loadtxt_lines(fh), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if data.shape[1] != n_cols or not np.isfinite(data).all():
        return None
    return data


def _loadtxt_lines(fh):
    """fh's lines, stopping with ValueError at one that holds \\x1c-\\x1f.

    np.loadtxt strips those four from a cell as whitespace; float() rejects them.
    """
    for line in fh:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("an information separator in the body")
        yield line


def _csv_rows(lines, first_line: int):
    """(line number, cells) of each CSV row of `lines`, numbered from `first_line`.

    A row the csv module cannot read, such as one with a cell longer than
    `csv.field_size_limit()`, raises ParseError at its line, column 1.
    """
    reader = csv.reader(lines)
    for line_no in itertools.count(first_line):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(line_no, 1, f"unreadable CSV row: {exc}") from None
        yield line_no, row


def _cell_rows(fh, n_cols: int) -> np.ndarray:
    """The body cell by cell; the first bad row or cell raises ParseError(line, col)."""
    rows = []
    for line_no, row in _csv_rows(fh, 2):
        if not row:
            continue
        if len(row) != n_cols:
            raise ParseError(line_no, 1, f"expected {n_cols} cells, got {len(row)}")
        rows.append([_number(cell, line_no, col) for col, cell in enumerate(row, start=1)])
    return np.asarray(rows)


def write_timeseries_csv(x: TimeSeriesMatrix, path) -> None:
    """Header plus one row per sample, cells as float repr, CRLF line ends.

    The bytes of `csv.writer(fh).writerows(x.data.tolist())`, streamed row by
    row so that no list of the whole matrix is built.
    """
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(ch.name for ch in x.channels) + "\r\n")
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in x.data)


def load_grid_csv(path) -> SensorGrid:
    """Grid layout file: header sensor_index,row,col then one sensor per row."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = _csv_rows(fh, 1)
        try:
            _, header = next(rows)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        if [h.strip().lower() for h in header] != ["sensor_index", "row", "col"]:
            raise ParseError(1, 1, "expected header sensor_index,row,col")
        positions = {}
        for line_no, row in rows:
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(line_no, 1, "expected 3 cells")
            sensor, r, c = (
                _number(cell, line_no, col, int) for col, cell in enumerate(row, start=1)
            )
            if sensor in positions:
                raise ParseError(line_no, 1, f"sensor {sensor} listed twice")
            positions[sensor] = (r, c)
    if not positions:
        raise EmptyFile(f"{path} has no sensors")
    return SensorGrid(positions)


def bundled_grid_path() -> Path:
    """Packaged 30-sensor (6 rows x 5 cols) layout."""
    return Path(resources.files("miinet") / "data" / "grid_6x5.csv")


def load_bundled_grid() -> SensorGrid:
    return load_grid_csv(bundled_grid_path())


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def provenance(config: dict, seed: int) -> dict:
    return {
        "config_hash": config_hash(config),
        "seed": int(seed),
        "version": __version__,
    }


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def network_to_payload(net: InteractionNetwork, prov: dict) -> dict:
    return {
        "provenance": prov,
        "metadata": net.metadata,
        "nodes": [
            {"index": idx, "name": name}
            for idx, name in zip(net.nodes, net.node_names)
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "source_name": net.node_names[net.nodes.index(e.source)],
                "target_name": net.node_names[net.nodes.index(e.target)],
                "weight": e.weight,
                "threshold": e.threshold,
            }
            for e in net.edges
        ],
    }


# (what a field must be, the test of it); bool is an int to Python, not to JSON,
# and a finite number is one a float holds: no NaN, no infinity, no int past its range
_LIST = ("a list", lambda v: isinstance(v, list))
_OBJECT = ("an object", lambda v: isinstance(v, dict))
_TEXT = ("text", lambda v: isinstance(v, str))
_INDEX = ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool))
_NUMBER = ("a finite number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
           and abs(v) <= sys.float_info.max)
_MISSING = object()


def _field(record, key: str, where: str, kind=None, error=MalformedNetwork, default=_MISSING):
    """record[key], or `default` when the key is absent.

    A missing key with no default, or a value not of `kind`, raises `error` naming
    the field: MalformedNetwork for networks, ValueError for generator specs.
    """
    value = record.get(key, default) if isinstance(record, dict) else _MISSING
    if value is _MISSING:
        raise error(f"{where} has no {key!r}")
    if kind is not None and not kind[1](value):
        raise error(f"{where} {key!r} must be {kind[0]}, got {value!r}")
    return value


def network_from_payload(payload: dict) -> InteractionNetwork:
    """Inverse of network_to_payload; a missing or mis-shaped field raises MalformedNetwork.

    Node indices must be distinct and every edge endpoint must be one of them.
    """
    nodes = _field(payload, "nodes", "network", _LIST)
    edges = _field(payload, "edges", "network", _LIST)
    metadata = _field(payload, "metadata", "network", _OBJECT, default={})
    indices = tuple(_field(n, "index", f"node {k}", _INDEX) for k, n in enumerate(nodes))
    if len(set(indices)) != len(indices):
        k = next(k for k, i in enumerate(indices) if i in indices[:k])
        raise MalformedNetwork(f"node {k} 'index' {indices[k]} is already listed")
    node = ("a node index", lambda v: _INDEX[1](v) and v in indices)
    edge_fields = (("source", node), ("target", node), ("weight", _NUMBER), ("threshold", _NUMBER))
    return InteractionNetwork(
        indices,
        tuple(_field(n, "name", f"node {k}", _TEXT) for k, n in enumerate(nodes)),
        tuple(
            Edge(*(_field(e, key, f"edge {k}", kind) for key, kind in edge_fields))
            for k, e in enumerate(edges)
        ),
        dict(metadata),
    )


def write_network_json(net: InteractionNetwork, prov: dict, path) -> None:
    write_json(network_to_payload(net, prov), path)


def read_network_json(path) -> InteractionNetwork:
    return network_from_payload(json.loads(Path(path).read_text(encoding="utf-8-sig")))


def load_generator_spec(path) -> tuple[str, GeneratorSpec]:
    """Generator description JSON -> (kind, GeneratorSpec).

    Coupling comes from one of: explicit "edges" (1-based sensor indices),
    a "grid_layout" CSV whose neighbor pairs are coupled low->high sensor
    with "edge_weight", or a "random_dag" block. Weights, "density" and
    "noise_scale" must be finite JSON numbers. A missing or mis-shaped field
    raises ValueError naming it.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(raw, dict):
        raise ValueError("generator spec must be a JSON object")
    field = functools.partial(_field, error=ValueError)
    top = "generator spec"
    kind = field(raw, "kind", top, default="contemporaneous")
    if kind not in ("contemporaneous", "var"):
        raise ValueError(f"unknown generator kind {kind!r}")
    n = field(raw, "n_channels", top, _INDEX)
    if sum(key in raw for key in ("edges", "grid_layout", "random_dag")) != 1:
        raise ValueError("specify exactly one of edges / grid_layout / random_dag")
    if "edges" in raw:
        edges = []
        for k, e in enumerate(field(raw, "edges", top, _LIST)):
            source, target = (field(e, key, f"edge {k}", _INDEX) for key in ("source", "target"))
            edges.append((source - 1, target - 1, field(e, "weight", f"edge {k}", _NUMBER)))
        coupling = coupling_from_edges(n, edges)
    elif "grid_layout" in raw:
        grid = load_grid_csv(field(raw, "grid_layout", top, _TEXT))
        if max(grid.sensors) > n:
            raise ValueError("grid has more sensors than n_channels")
        weight = field(raw, "edge_weight", top, _NUMBER)
        edges = [(a - 1, b - 1, weight) for a, b in neighbor_pairs(grid)]
        coupling = coupling_from_edges(n, edges)
    else:
        block, where = raw["random_dag"], "random_dag"
        density, weight = (field(block, key, where, _NUMBER) for key in ("density", "weight"))
        graph_seed = field(block, "graph_seed", where, _INDEX)
        coupling = random_dag_coupling(n, density, weight, graph_seed)
    return kind, GeneratorSpec(
        n_channels=n,
        n_samples=field(raw, "n_samples", top, _INDEX),
        coupling=coupling,
        innovation=Family(field(raw, "innovation", top, default="gaussian")),
        noise_scale=float(field(raw, "noise_scale", top, _NUMBER, default=1.0)),
        seed=field(raw, "seed", top, _INDEX),
        axis=Axis(field(raw, "axis", top, default="lateral")),
    )


def write_network_dot(
    net: InteractionNetwork, prov: dict, path, grid: SensorGrid | None = None
) -> None:
    """Graphviz rendering data; node positions from the grid when available."""
    lines = [f"// {k}={v}" for k, v in sorted(prov.items())]
    lines.append("digraph interactions {")
    for idx, name in zip(net.nodes, net.node_names):
        attrs = [f'label="{name}"']
        if grid is not None:
            sensor = ChannelId.from_name(name).sensor_index
            if sensor in grid.positions:
                r, c = grid.positions[sensor]
                x_m = c * grid.lateral_spacing_m
                y_m = -r * grid.longitudinal_spacing_m
                attrs.append(f'pos="{x_m:.2f},{y_m:.2f}!"')
        lines.append(f"  n{idx} [{', '.join(attrs)}];")
    for e in net.edges:
        attrs = f'weight={e.weight:.6g}, label="{e.weight:.4f}"'
        lines.append(f"  n{e.source} -> n{e.target} [{attrs}];")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_csv(path, prov: dict, header: str, rows, **notes) -> None:
    """`# key=value` lines for the provenance then the notes, the header, one line per row.

    A cell is written with str, which is repr for the ints and floats of these tables.
    """
    notes = {key: prov[key] for key in ("config_hash", "seed", "version")} | notes
    with Path(path).open("w") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in notes.items())
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_mi_map_csv(mi_map: PairwiseMIMap, prov: dict, path) -> None:
    """Edges with reporting-clamped and raw MI."""
    rows = ((a, b, v if v > 0 else 0.0, v) for (a, b), v in zip(mi_map.edges, mi_map.values))
    _write_csv(path, prov, _MI_MAP_HEADER, rows,
               axis=mi_map.axis.value, scenario=mi_map.scenario)


def read_mi_map_csv(path) -> PairwiseMIMap:
    path = Path(path)
    axis = None
    scenario = ""
    edges, values = [], []
    header_seen = False
    for line_no, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("axis="):
                axis = Axis(body.split("=", 1)[1])
            elif body.startswith("scenario="):
                scenario = body.split("=", 1)[1]
            continue
        if not header_seen:
            if line != _MI_MAP_HEADER:
                raise ParseError(line_no, 1, "unexpected MI map header")
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != 4:
            raise ParseError(line_no, 1, "expected 4 cells")
        edges.append(tuple(_number(cells[k], line_no, k + 1, int) for k in (0, 1)))
        clamped, raw_mi = (_number(cells[k], line_no, k + 1) for k in (2, 3))
        if clamped != max(raw_mi, 0.0):
            raise ParseError(line_no, 3, f"mi {clamped!r} is not max(mi_raw, 0)")
        values.append(raw_mi)
    if axis is None or not header_seen:
        raise ParseError(1, 1, "not a pairwise MI map file")
    return PairwiseMIMap(axis, scenario, tuple(edges), tuple(values))


def write_mi_map_diff_csv(diff: MIMapDiff, prov: dict, path) -> None:
    rows = ((a, b, delta) for (a, b), delta in zip(diff.edges, diff.deltas))
    _write_csv(path, prov, "sensor_a,sensor_b,delta_mi", rows,
               axis=diff.axis.value, baseline=diff.baseline_scenario,
               comparison=diff.comparison_scenario, sign_convention=diff.sign_convention)


def _edge_dict(e: Edge) -> dict:
    return {"source": e.source, "target": e.target, "weight": e.weight}


def write_network_diff_json(diff: NetworkDiff, prov: dict, path) -> None:
    payload = {
        "provenance": prov,
        "lost": [_edge_dict(e) for e in diff.lost],
        "gained": [_edge_dict(e) for e in diff.gained],
        "retained": [
            {
                "source": e.source,
                "target": e.target,
                "weight_baseline": e.weight_baseline,
                "weight_comparison": e.weight_comparison,
                "delta": e.delta,
            }
            for e in diff.retained
        ],
    }
    write_json(payload, path)


def write_degree_distribution_csv(dist: DegreeDistribution, prov: dict, path) -> None:
    probs = itertools.zip_longest(dist.in_probs, dist.out_probs, fillvalue=0.0)
    rows = ((k, p_in, p_out) for k, (p_in, p_out) in enumerate(probs))
    _write_csv(path, prov, "degree,in_probability,out_probability", rows)
