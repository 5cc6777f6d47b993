"""Every file format the package reads or writes.

Every JSON input field (generator specs, networks) goes through one typed
reader, `_field`. Every input table (grid layouts, MI maps, and the scenario
bodies that the block parser leaves to the cell parser) goes through one typed
row loop, `_table_rows`, as every output table goes through one writer,
`_write_csv`. A byte that is not UTF-8 in a CSV input is a ParseError at its
line and column. Every output file embeds (config_hash, seed, version) so a
bundle can be reproduced exactly; nothing here reads clocks or environment entropy.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import numbers
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .core import Axis, ChannelId, TimeSeriesMatrix
from .errors import DuplicateChannel, EmptyFile, MalformedNetwork, ParseError
from .estimators import Family
from . import floatparse as fp
from .floatrepr import csv_lines as _csv_lines
from .omii import DegreeDistribution, Edge, InteractionNetwork
from .spatial import MIMapDiff, NetworkDiff, PairwiseMIMap, SensorGrid, neighbor_pairs
from .synthetic import GeneratorSpec, coupling_from_edges, random_dag_coupling

_MI_MAP_HEADER = "sensor_a,sensor_b,mi,mi_raw"


def _number(cell: str, line_no: int, col: int, parse=float):
    """One numeric CSV cell; a non-numeric or non-finite one raises ParseError."""
    try:
        value = parse(cell)
        finite = math.isfinite(value)
    except (ValueError, OverflowError):  # OverflowError: an int past float's range
        finite = False
    if not finite:
        _check_utf8([cell], line_no, col)
        raise ParseError(line_no, col, f"expected a finite {parse.__name__}, got {cell!r}")
    return value


def _check_utf8(cells, line_no: int, first_col: int = 1) -> None:
    """ParseError at the first cell, from column `first_col` on, with a byte that is not UTF-8."""
    for col, cell in enumerate(cells, start=first_col):
        try:
            cell.encode()
        except UnicodeEncodeError as exc:
            byte = ord(cell[exc.start]) - 0xDC00
            raise ParseError(line_no, col, f"byte 0x{byte:02x} is not UTF-8") from None


def read_timeseries_csv(path) -> TimeSeriesMatrix:
    """Parse a scenario CSV: header of s<index>_<lat|vert> names, one row per sample.

    The body is read in blocks of whole lines by `floatparse.parse_block`. It
    parses decimal cells, -?D+(.D*)?([eE][+-]?D+)?, in numpy, exactly as
    `float` reads them, and hands the rest to `float`. A body it rejects
    (quotes, interior blank lines, lone CRs, ragged rows, bytes that are not
    UTF-8, a cell `float` rejects, ...) goes to the cell parser, which alone
    raises `ParseError`, so errors keep line and column. A byte that is not
    UTF-8 is a ParseError at its cell or header name. The parsed array becomes
    the matrix's data without a copy.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
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
                _check_utf8([name], 1, col)
                raise ParseError(1, col, str(exc)) from None
        if len(set(channels)) != len(channels):
            raise DuplicateChannel(f"{path} repeats a channel name")
        # a byte offset, unless its decoder state puts it past 2^64; a pipe cannot be reread
        body = fh.tell() if fh.seekable() else 1 << 64
        data = _block_rows(path, body, len(channels)) if body < 1 << 64 else None
        if data is None:
            data = _cell_rows(fh, len(channels))
    if not len(data):
        raise EmptyFile(f"{path} has a header but no data rows")
    data.flags.writeable = False
    return TimeSeriesMatrix(data, tuple(channels))


def _block_rows(path: Path, body: int, n_cols: int) -> np.ndarray | None:
    """The bytes of the file from `body` on, parsed by parse_block; None leaves them to _cell_rows.

    The CRs and LFs that end the body, blank lines that csv skips, are left out,
    and the lines are counted first, so that the array is allocated once. None
    when a block is rejected or the file changes while it is read.
    """
    with path.open("rb", buffering=0) as raw:
        size = os.fstat(raw.fileno()).st_size
        tail = max(body, size - fp.BLOCK_BYTES)
        raw.seek(tail)
        size = tail + len(raw.read(max(size - tail, 0)).rstrip(b"\r\n"))
        if size <= body:  # no body, or a file (in /proc, say) whose size is not its length
            return None
        lines = fp.count_lines(raw, body, size)
        if lines is None:
            return None
        data = np.empty((lines, n_cols))
        return data if fp.parse_lines(raw, body, size, data) else None


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


def _table_rows(rows, kinds):
    """(line number, values) of each non-blank row of `rows`, cell k read by `_number` as kinds[k].

    A row that is not len(kinds) cells wide raises ParseError at its line, column 1.
    """
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != len(kinds):
            raise ParseError(line_no, 1, f"expected {len(kinds)} cells, got {len(row)}")
        cells = enumerate(zip(row, kinds), start=1)
        yield line_no, [_number(cell, line_no, col, kind) for col, (cell, kind) in cells]


def _cell_rows(fh, n_cols: int) -> np.ndarray:
    """The body cell by cell; the first bad row or cell raises ParseError(line, col)."""
    return np.asarray([values for _, values in _table_rows(_csv_rows(fh, 2), (float,) * n_cols)])


def write_timeseries_csv(x: TimeSeriesMatrix, path) -> None:
    """Header plus one row per sample, cells as float repr, CRLF line ends.

    The bytes of `csv.writer(fh).writerows(x.data.tolist())`, formatted a block
    of rows at a time by `_csv_lines`.
    """
    with Path(path).open("wb") as fh:
        fh.write((",".join(ch.name for ch in x.channels) + "\r\n").encode())
        fh.writelines(_csv_lines(x.data))


def load_grid_csv(path) -> SensorGrid:
    """Grid layout file: header sensor_index,row,col then one sensor per row."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        rows = _csv_rows(fh, 1)
        try:
            _, header = next(rows)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        if [h.strip().lower() for h in header] != ["sensor_index", "row", "col"]:
            _check_utf8(header, 1)
            raise ParseError(1, 1, "expected header sensor_index,row,col")
        positions = {}
        for line_no, (sensor, r, c) in _table_rows(rows, (int, int, int)):
            if sensor in positions:
                raise ParseError(line_no, 1, f"sensor {sensor} listed twice")
            positions[sensor] = (r, c)
    if not positions:
        raise EmptyFile(f"{path} has no sensors")
    return SensorGrid(positions)


def bundled_grid_path() -> Path:
    """Packaged 30-sensor (6 rows x 5 cols) layout."""
    return Path(resources.files("miinet") / "data" / "grid_6x5.csv")


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
_COUNT = ("a positive integer", lambda v: _INDEX[1](v) and v >= 1)
_SEED = ("a non-negative integer", lambda v: _INDEX[1](v) and v >= 0)
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


def _reject_repeats(values, message: str) -> None:
    """Raise MalformedNetwork for the first value already listed, `message` given k and it."""
    seen = set()
    for k, value in enumerate(values):
        if value in seen:
            raise MalformedNetwork(message.format(k=k, value=value))
        seen.add(value)


def network_from_payload(payload: dict) -> InteractionNetwork:
    """Inverse of network_to_payload; a missing or mis-shaped field raises MalformedNetwork.

    Node indices and names must be distinct, and every edge endpoint must be
    one of the indices. An edge listed twice or a self-loop is rejected too.
    """
    nodes = _field(payload, "nodes", "network", _LIST)
    edges = _field(payload, "edges", "network", _LIST)
    metadata = _field(payload, "metadata", "network", _OBJECT, default={})
    indices = tuple(_field(n, "index", f"node {k}", _INDEX) for k, n in enumerate(nodes))
    _reject_repeats(indices, "node {k} 'index' {value} is already listed")
    names = tuple(_field(n, "name", f"node {k}", _TEXT) for k, n in enumerate(nodes))
    _reject_repeats(names, "node {k} 'name' {value!r} is already listed")
    node = ("a node index", lambda v: _INDEX[1](v) and v in indices)
    edge_fields = (("source", node), ("target", node), ("weight", _NUMBER), ("threshold", _NUMBER))
    parsed = tuple(
        Edge(*(_field(e, key, f"edge {k}", kind) for key, kind in edge_fields))
        for k, e in enumerate(edges)
    )
    for k, e in enumerate(parsed):
        if e.source == e.target:
            raise MalformedNetwork(f"edge {k} is a self-loop on node {e.source}")
    pairs = ((e.source, e.target) for e in parsed)
    _reject_repeats(pairs, "edge {k} {value[0]} -> {value[1]} is already listed")
    return InteractionNetwork(indices, names, parsed, dict(metadata))


def write_network_json(net: InteractionNetwork, prov: dict, path) -> None:
    write_json(network_to_payload(net, prov), path)


def _read_json(path, error):
    """The JSON value in the file; a byte that is not UTF-8 raises `error` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None


def read_network_json(path) -> InteractionNetwork:
    return network_from_payload(_read_json(path, MalformedNetwork))


def load_generator_spec(path) -> tuple[str, GeneratorSpec]:
    """Generator description JSON -> (kind, GeneratorSpec).

    Coupling comes from one of: explicit "edges" (1-based sensor indices),
    a "grid_layout" CSV whose neighbor pairs are coupled low->high sensor
    with "edge_weight", or a "random_dag" block. Weights, "density" and
    "noise_scale" must be finite JSON numbers. A missing or mis-shaped field,
    or a byte that is not UTF-8, raises ValueError naming it.
    """
    raw = _read_json(path, ValueError)
    if not isinstance(raw, dict):
        raise ValueError("generator spec must be a JSON object")
    field = functools.partial(_field, error=ValueError)
    top = "generator spec"
    kind = field(raw, "kind", top, default="contemporaneous")
    if kind not in ("contemporaneous", "var"):
        raise ValueError(f"unknown generator kind {kind!r}")
    n = field(raw, "n_channels", top, _COUNT)
    if sum(key in raw for key in ("edges", "grid_layout", "random_dag")) != 1:
        raise ValueError("specify exactly one of edges / grid_layout / random_dag")
    if "edges" in raw:
        sensor = (f"a sensor in 1..{n}", lambda v: _INDEX[1](v) and 1 <= v <= n)
        weights = {}
        for k, e in enumerate(field(raw, "edges", top, _LIST)):
            pair = tuple(field(e, key, f"edge {k}", sensor) for key in ("source", "target"))
            if pair[0] == pair[1]:
                raise ValueError(f"edge {k} is a self-loop on sensor {pair[0]}")
            if pair in weights:
                raise ValueError(f"edge {k} {pair[0]} -> {pair[1]} is already listed")
            weights[pair] = field(e, "weight", f"edge {k}", _NUMBER)
        coupling = coupling_from_edges(n, [(a - 1, b - 1, w) for (a, b), w in weights.items()])
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
        graph_seed = field(block, "graph_seed", where, _SEED)
        coupling = random_dag_coupling(n, density, weight, graph_seed)
    return kind, GeneratorSpec(
        n_channels=n,
        n_samples=field(raw, "n_samples", top, _INDEX),
        coupling=coupling,
        innovation=Family(field(raw, "innovation", top, default="gaussian")),
        noise_scale=float(field(raw, "noise_scale", top, _NUMBER, default=1.0)),
        seed=field(raw, "seed", top, _SEED),
        axis=Axis(field(raw, "axis", top, default="lateral")),
    )


_LATERAL_SPACING_M = 2.13  # metres between grid columns on the deck
_LONGITUDINAL_SPACING_M = 1.96  # metres between grid rows


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
                x_m = c * _LATERAL_SPACING_M
                y_m = -r * _LONGITUDINAL_SPACING_M
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
    """A map written by write_mi_map_csv; notes and header are read raw: labels keep their text."""
    axis, scenario, header_seen, table = None, "", False, []
    text = Path(path).read_text(encoding="utf-8-sig", errors="surrogateescape")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        table.append(line if header_seen and not line.startswith("#") else "")
        if line.startswith("#"):
            _check_utf8([raw], line_no)
            body = line[1:].strip()
            if body.startswith("axis="):
                axis = Axis(body.split("=", 1)[1])
            elif body.startswith("scenario="):
                scenario = raw.split("=", 1)[1]  # unstripped: a label may end in whitespace
        elif line and not header_seen:
            if line != _MI_MAP_HEADER:
                _check_utf8(line.split(","), line_no)
                raise ParseError(line_no, 1, "unexpected MI map header")
            header_seen = True
    if axis is None or not header_seen:
        raise ParseError(1, 1, "not a pairwise MI map file")
    edges, values = [], []
    for line_no, (a, b, mi, mi_raw) in _table_rows(_csv_rows(table, 1), (int, int, float, float)):
        if mi != max(mi_raw, 0.0):
            raise ParseError(line_no, 3, f"mi {mi!r} is not max(mi_raw, 0)")
        edges.append((a, b))
        values.append(mi_raw)
    return PairwiseMIMap(axis, scenario, tuple(edges), tuple(values))


def write_mi_map_diff_csv(diff: MIMapDiff, prov: dict, path) -> None:
    rows = ((a, b, delta) for (a, b), delta in zip(diff.edges, diff.deltas))
    _write_csv(path, prov, "sensor_a,sensor_b,delta_mi", rows,
               axis=diff.axis.value, baseline=diff.baseline_scenario,
               comparison=diff.comparison_scenario, sign_convention="comparison_minus_baseline")


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
