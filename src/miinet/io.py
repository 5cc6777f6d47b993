"""CSV ingestion, grid layout files and output serialization.

Every output file embeds (config_hash, seed, version) so a bundle can be
reproduced exactly; nothing here reads clocks or environment entropy.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .core import Axis, ChannelId, TimeSeriesMatrix
from .errors import DuplicateChannel, EmptyFile, MalformedNetwork, ParseError
from .omii import DegreeDistribution, Edge, InteractionNetwork
from .spatial import MIMapDiff, NetworkDiff, PairwiseMIMap, SensorGrid

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
            sensor, r, c = (_number(cell, line_no, col, int) for col, cell in enumerate(row, start=1))
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


def _csv_provenance_lines(prov: dict) -> list[str]:
    return [f"# {key}={prov[key]}" for key in ("config_hash", "seed", "version")]


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


_EDGE_FIELDS = ("source", "target", "weight", "threshold")


def _field(record, key: str, where: str):
    try:
        return record[key]
    except (KeyError, TypeError):
        raise MalformedNetwork(f"{where} has no {key!r}") from None


def network_from_payload(payload: dict) -> InteractionNetwork:
    """Inverse of network_to_payload; a missing field raises MalformedNetwork."""
    nodes = _field(payload, "nodes", "network")
    edges = _field(payload, "edges", "network")
    return InteractionNetwork(
        tuple(_field(n, "index", f"node {k}") for k, n in enumerate(nodes)),
        tuple(_field(n, "name", f"node {k}") for k, n in enumerate(nodes)),
        tuple(
            Edge(*(_field(e, key, f"edge {k}") for key in _EDGE_FIELDS))
            for k, e in enumerate(edges)
        ),
        dict(payload.get("metadata", {})),
    )


def write_network_json(net: InteractionNetwork, prov: dict, path) -> None:
    write_json(network_to_payload(net, prov), path)


def read_network_json(path) -> InteractionNetwork:
    return network_from_payload(json.loads(Path(path).read_text(encoding="utf-8-sig")))


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
        lines.append(f'  n{e.source} -> n{e.target} [weight={e.weight:.6g}, label="{e.weight:.4f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_mi_map_csv(mi_map: PairwiseMIMap, prov: dict, path) -> None:
    """Edges with reporting-clamped and raw MI."""
    lines = _csv_provenance_lines(prov)
    lines.append(f"# axis={mi_map.axis.value}")
    lines.append(f"# scenario={mi_map.scenario}")
    lines.append(_MI_MAP_HEADER)
    for (a, b), value in zip(mi_map.edges, mi_map.values):
        clamped = value if value > 0 else 0.0
        lines.append(f"{a},{b},{clamped!r},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n")


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
    lines = _csv_provenance_lines(prov)
    lines.append(f"# axis={diff.axis.value}")
    lines.append(f"# baseline={diff.baseline_scenario}")
    lines.append(f"# comparison={diff.comparison_scenario}")
    lines.append(f"# sign_convention={diff.sign_convention}")
    lines.append("sensor_a,sensor_b,delta_mi")
    for (a, b), delta in zip(diff.edges, diff.deltas):
        lines.append(f"{a},{b},{delta!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_network_diff_json(diff: NetworkDiff, prov: dict, path) -> None:
    payload = {
        "provenance": prov,
        "lost": [
            {"source": e.source, "target": e.target, "weight": e.weight}
            for e in diff.lost
        ],
        "gained": [
            {"source": e.source, "target": e.target, "weight": e.weight}
            for e in diff.gained
        ],
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
    lines = _csv_provenance_lines(prov)
    lines.append("degree,in_probability,out_probability")
    max_deg = max(len(dist.in_probs), len(dist.out_probs)) - 1
    for k in range(max_deg + 1):
        p_in = dist.in_probs[k] if k < len(dist.in_probs) else 0.0
        p_out = dist.out_probs[k] if k < len(dist.out_probs) else 0.0
        lines.append(f"{k},{p_in!r},{p_out!r}")
    Path(path).write_text("\n".join(lines) + "\n")
