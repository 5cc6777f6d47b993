import contextlib
import copy
import csv
import dataclasses
import io
import json
import os
import signal
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miinet import Axis, ChannelId, TimeSeriesMatrix, core, neighbor_pairs, standardize
from miinet.cli import RunConfig, build_fit_report, load_generator_spec, main, run_pipeline
from miinet.errors import DuplicateChannel, EmptyFile, MalformedNetwork, MiinetError, ParseError
from miinet import io as mio
from miinet.omii import Edge, InteractionNetwork, OmiiConfig, infer_network
from miinet.seeding import derive_seed
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


# past csv.field_size_limit(), 131,072 characters by default
OVERSIZED_CELL = "x" * 140_001


def test_ingest_reports_an_oversized_cell_position(tmp_path):
    p = write(tmp_path / "big.csv", f"s1_lat\n1.0\n{OVERSIZED_CELL}\n")
    with pytest.raises(ParseError) as err:
        mio.read_timeseries_csv(p)
    assert (err.value.line, err.value.col) == (3, 1)


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


def test_timeseries_csv_cells_are_float_repr(tmp_path):
    values = [[-0.0, 5e-324, 1e-5], [1e16, 1e300, 0.1]]
    x = make_matrix(values)
    p = tmp_path / "edge.csv"
    mio.write_timeseries_csv(x, p)
    names = ",".join(ch.name for ch in x.channels)
    rows = "".join(",".join(repr(v) for v in row) + "\r\n" for row in values)
    assert p.read_bytes() == f"{names}\r\n{rows}".encode()
    np.testing.assert_array_equal(mio.read_timeseries_csv(p).data, x.data)


def test_ingest_accepts_utf8_bom_and_crlf(tmp_path):
    p = tmp_path / "excel.csv"
    p.write_bytes("\ufeffs1_lat,s2_lat\r\n1.0,2.0\r\n3.0,4.5\r\n".encode("utf-8"))
    x = mio.read_timeseries_csv(p)
    assert [ch.name for ch in x.channels] == ["s1_lat", "s2_lat"]
    np.testing.assert_array_equal(x.data, [[1.0, 2.0], [3.0, 4.5]])


def read_through_pipe(data: bytes):
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, data)
        os.close(write_fd)
        return mio.read_timeseries_csv(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_ingest_from_a_pipe():
    x = read_through_pipe(b"s1_lat,s2_lat\n1.0,2.0\n3.0,4.5\n")
    np.testing.assert_array_equal(x.data, [[1.0, 2.0], [3.0, 4.5]])
    with pytest.raises(ParseError) as err:
        read_through_pipe(b"s1_lat\n1.0\nx\n")
    assert (err.value.line, err.value.col) == (3, 1)


def test_timeseries_csv_bytes_match_csv_writer(tmp_path):
    """The same bytes from the serial writer and from the split one (floor 0)."""
    values = np.array(
        [[5e-324, -0.0, 1e-5], [2.5e-310, 1e16, -1e16], [1 / 3, -2.2250738585072014e-308, 0.1]]
    )
    x = make_matrix(np.vstack([values, np.random.default_rng(4).standard_normal((20, 3)), values]))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow([ch.name for ch in x.channels])
    writer.writerows(x.data.tolist())
    for split_bytes in (mio.SPLIT_BYTES, 0):
        p = tmp_path / f"x{split_bytes}.csv"
        with mock.patch.object(mio, "SPLIT_BYTES", split_bytes):
            mio.write_timeseries_csv(x, p)
        assert p.read_bytes() == expected.getvalue().encode()


def test_well_formed_body_skips_the_cell_parser(tmp_path):
    x = make_matrix(np.random.default_rng(5).standard_normal((50, 3)))
    p = tmp_path / "x.csv"
    mio.write_timeseries_csv(x, p)
    with mock.patch.object(mio, "_cell_rows", side_effect=AssertionError("cell parser ran")):
        np.testing.assert_array_equal(mio.read_timeseries_csv(p).data, x.data)


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:e}".format),
    st.floats(-1e3, 1e3).map("{:.5f}".format),
)
# cells that float() and np.loadtxt may judge differently, and lines that are not rows
_ODD_CELL = st.sampled_from(
    ['"1.5"', "1_0", "nan", "inf", "-inf", "1e400", "", " ", " 2 ", "\u0661", "\x1c1", "1\xa0",
     "+.5", "0x10"]
)
_ODD_LINE = st.sampled_from(["", "   ", "# note"])


@st.composite
def scenario_csv_text(draw) -> str:
    """A header of 1-4 channels, up to 6 numeric rows and up to 2 odd rows or lines."""
    n_cols = draw(st.integers(1, 4))
    row = st.lists(_NUMBER, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        cells = draw(row)
        kind = draw(st.sampled_from(["odd cell", "short", "long", "trailing comma", "odd line"]))
        if kind == "odd cell":
            cells[draw(st.integers(0, n_cols - 1))] = draw(_ODD_CELL)
        elif kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append(draw(_NUMBER))
        elif kind == "trailing comma":
            cells.append("")
        else:
            cells = [draw(_ODD_LINE)]
        rows.insert(draw(st.integers(0, len(rows))), cells)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(f"s{k}_lat" for k in range(1, n_cols + 1))]
    lines += [",".join(cells) for cells in rows]
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + draw(st.sampled_from([eol, ""]))


def read_outcome(path):
    try:
        x = mio.read_timeseries_csv(path)
    except ParseError as exc:
        return "ParseError", exc.line, exc.col
    except (MiinetError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", x.data.shape, x.data.tobytes()


# bodies that float() and np.loadtxt may judge differently: odd cells, blank lines,
# \r-only line ends, a BOM
ODD_BODIES = [
    's1_lat,s2_lat\n"1.5",2\n3,4\n',
    "s1_lat,s2_lat\n1_0,2\n3,4\n",
    "s1_lat,s2_lat\n1,2\nnan,4\n",
    "s1_lat,s2_lat\n1,2\n3,-inf\n",
    "s1_lat,s2_lat\n1,2\n1e400,4\n",
    "s1_lat,s2_lat\n1,\n3,4\n",
    "s1_lat,s2_lat\n1,2\n3\n",
    "s1_lat,s2_lat\n1,2,\n3,4,\n",
    "s1_lat,s2_lat\n1,2\n   \n3,4\n",
    "s1_lat,s2_lat\n# note\n1,2\n3,4\n",
    "s1_lat,s2_lat\r1,2\r3,4\r",
    "s1_lat,s2_lat\r1,2\r3,1_0\r",
    "s1_lat\n1\n2\n",
    "s1_lat\n\x1c1\n2\n",
    "s1_lat,s2_lat\n",
    "s1_lat\n\n\n",
    "\ufeffs1_lat,s2_lat\r\n1,2\r\n3,4\r\n",
    '\ufeffs1_lat,s2_lat\r\n"1",2\r\n3,4\r\n',
]


def odd_bodies(test):
    for text in reversed(ODD_BODIES):
        test = example(text=text)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(text=scenario_csv_text())
@odd_bodies
def test_bulk_reader_agrees_with_cell_parser(tmp_path_factory, text):
    """Same array bit for bit, or the same error, with and without np.loadtxt."""
    path = tmp_path_factory.mktemp("differential") / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(mio, "_bulk_rows", return_value=None):
        cell_parser = read_outcome(path)
    assert read_outcome(path) == cell_parser


needs_fork = pytest.mark.skipif(
    not mio._can_split(mio.SPLIT_BYTES), reason="the split path needs os.fork and two cores"
)


@needs_fork
@pytest.mark.parametrize("m", [0, 1, 2, 100])
@settings(max_examples=40, deadline=None)
@given(text=scenario_csv_text())
@odd_bodies
def test_split_reader_agrees_with_cell_parser(tmp_path_factory, m, text):
    """Caller lines [0, m), child the rest: what the cell parser gives, and a split
    that succeeds exactly when one np.loadtxt call over the body does."""
    path = tmp_path_factory.mktemp("split") / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(mio, "_bulk_rows", return_value=None):
        cell_parser = read_outcome(path)
    with mock.patch.object(mio, "_cell_rows", side_effect=AssertionError("cell parser ran")):
        try:
            read_outcome(path)
            one_call = True
        except AssertionError:
            one_call = False
    real_split_rows, splits = mio._split_rows, []

    def split_rows(*args):
        splits.append(real_split_rows(*args))
        return splits[-1]

    with mock.patch.object(mio, "SPLIT_BYTES", 0), \
            mock.patch.object(mio, "_caller_lines", return_value=m), \
            mock.patch.object(mio, "_split_rows", split_rows):
        assert read_outcome(path) == cell_parser
    assert [split is not None for split in splits] == ([one_call] if splits else [])
    assert_no_children()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_paper_scale_record_round_trips_the_same_through_both_paths(tmp_path):
    """30 channels x 11,536 samples, 90 s at 128 Hz: the size `miinet generate` writes."""
    x = make_matrix(np.random.default_rng(11).standard_normal((11_536, 30)))
    serial, split = tmp_path / "serial.csv", tmp_path / "split.csv"
    with mock.patch.object(mio, "SPLIT_BYTES", float("inf")):
        mio.write_timeseries_csv(x, serial)
        serial_back = mio.read_timeseries_csv(serial).data
    with mock.patch.object(mio, "_bulk_rows", wraps=mio._bulk_rows) as bulk:
        mio.write_timeseries_csv(x, split)
        split_back = mio.read_timeseries_csv(split).data
    assert bulk.call_count == 1  # the caller's share; the child's call is not seen here
    assert split.read_bytes() == serial.read_bytes()
    assert split_back.tobytes() == serial_back.tobytes() == x.data.tobytes()
    assert_no_children()


def big_body(tmp_path, bad_line=None) -> Path:
    """A 4-channel, 3,000-row CSV with a bad cell in column 2 of `bad_line`."""
    rows = [f"{k},{k + 0.5},{-k},{k / 7}" for k in range(3000)]
    if bad_line is not None:
        rows[bad_line - 2] = rows[bad_line - 2].replace(",", ",x", 1)
    return write(tmp_path / "big.csv", "s1_lat,s2_lat,s3_lat,s4_lat\n" + "\n".join(rows) + "\n")


def child_exits_3(function):
    """`function`, except that in a forked child it leaves at once by os._exit(3)."""
    parent = os.getpid()

    def wrapper(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return function(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def ignored_sigchld():
    """SIGCHLD set to SIG_IGN, under which the kernel reaps children before waitpid can."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


CHILD_FATES = ["works", "exits 3", "dies mid-pipe", "is reaped unseen"]


@needs_fork
@pytest.mark.parametrize("bad_line", [None, 10, 2900])
@pytest.mark.parametrize("child", CHILD_FATES)
def test_split_read_leaves_no_child_and_matches_serial(tmp_path, bad_line, child):
    path = big_body(tmp_path, bad_line)
    with mock.patch.object(mio, "SPLIT_BYTES", float("inf")):
        serial = read_outcome(path)
    patches = {
        "works": contextlib.nullcontext(),
        "exits 3": mock.patch.object(mio, "_bulk_rows", child_exits_3(mio._bulk_rows)),
        "dies mid-pipe": mock.patch.object(mio, "_fork", dying_fork),
        "is reaped unseen": ignored_sigchld(),
    }
    with mock.patch.object(mio, "SPLIT_BYTES", 0), patches[child], \
            mock.patch.object(mio, "_caller_lines", return_value=1500):
        assert read_outcome(path) == serial
    assert_no_children()
    assert serial[0] == "ok" if bad_line is None else serial == ("ParseError", bad_line, 2)


@needs_fork
def test_split_read_kills_a_child_whose_rows_are_not_wanted(tmp_path):
    """The caller's share is rejected, so it does not wait for a child that stalls."""
    path = big_body(tmp_path, bad_line=10)
    parent, bulk_rows = os.getpid(), mio._bulk_rows

    def stalling(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return bulk_rows(*args)

    start = time.perf_counter()
    with mock.patch.object(mio, "SPLIT_BYTES", 0), \
            mock.patch.object(mio, "_bulk_rows", stalling), \
            mock.patch.object(mio, "_caller_lines", return_value=1500):
        assert read_outcome(path) == ("ParseError", 10, 2)
    assert time.perf_counter() - start < 30
    assert_no_children()


real_fork = mio._fork


def dying_fork(work):
    """_fork with a child that sends the first half of what `work` writes, then exits 3."""
    def first_half(pipe):
        sent = io.BytesIO()
        work(sent)
        pipe.write(sent.getvalue()[: sent.tell() // 2])
        pipe.flush()
        os._exit(3)

    return real_fork(first_half)


@needs_fork
@pytest.mark.parametrize("child", CHILD_FATES)
def test_split_write_leaves_no_child_and_matches_serial(tmp_path, child):
    x = make_matrix(np.random.default_rng(6).standard_normal((2001, 5)))
    serial, split = tmp_path / "serial.csv", tmp_path / "split.csv"
    with mock.patch.object(mio, "SPLIT_BYTES", float("inf")):
        mio.write_timeseries_csv(x, serial)
    patches = {
        "works": contextlib.nullcontext(),
        "exits 3": mock.patch.object(mio, "_csv_lines", child_exits_3(mio._csv_lines)),
        "dies mid-pipe": mock.patch.object(mio, "_fork", dying_fork),
        "is reaped unseen": ignored_sigchld(),
    }
    with mock.patch.object(mio, "SPLIT_BYTES", 0), patches[child]:
        mio.write_timeseries_csv(x, split)
    assert_no_children()
    assert split.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("no_split", ["one core", "no os.fork"])
def test_no_fork_without_a_second_core_or_os_fork(tmp_path, monkeypatch, no_split):
    x = make_matrix(np.random.default_rng(7).standard_normal((3000, 4)))
    path = tmp_path / "x.csv"
    monkeypatch.setattr(mio, "SPLIT_BYTES", 0)
    if no_split == "one core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    mio.write_timeseries_csv(x, path)
    np.testing.assert_array_equal(mio.read_timeseries_csv(path).data, x.data)


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


def test_grid_csv_accepts_utf8_bom_and_crlf(tmp_path):
    p = tmp_path / "grid.csv"
    p.write_bytes("\ufeffsensor_index,row,col\r\n1,0,0\r\n2,0,1\r\n".encode("utf-8"))
    assert mio.load_grid_csv(p).positions == {1: (0, 0), 2: (0, 1)}


def test_grid_csv_reports_an_oversized_cell_position(tmp_path):
    p = write(tmp_path / "g.csv", f"sensor_index,row,col\n1,0,0\n2,{OVERSIZED_CELL},1\n")
    with pytest.raises(ParseError) as err:
        mio.load_grid_csv(p)
    assert (err.value.line, err.value.col) == (3, 1)


def test_grid_csv_non_integer_cell_position(tmp_path):
    with pytest.raises(ParseError) as err:
        mio.load_grid_csv(write(tmp_path / "g.csv", "sensor_index,row,col\n1,0,0\n2,x,1\n"))
    assert (err.value.line, err.value.col) == (3, 2)


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


PINNED_PROV = {"config_hash": "abc123", "seed": 3, "version": "9.9.9"}
PINNED_PROV_LINES = "# config_hash=abc123\n# seed=3\n# version=9.9.9\n"


def test_mi_map_diff_csv_bytes(tmp_path):
    from miinet.spatial import MIMapDiff

    diff = MIMapDiff(Axis.VERTICAL, "base", "dam", ((1, 6), (6, 11)), (0.125, -3e-05))
    p = tmp_path / "mi_map_diff.csv"
    mio.write_mi_map_diff_csv(diff, PINNED_PROV, p)
    assert p.read_bytes() == (
        PINNED_PROV_LINES
        + "# axis=vertical\n# baseline=base\n# comparison=dam\n"
        "# sign_convention=comparison_minus_baseline\n"
        "sensor_a,sensor_b,delta_mi\n1,6,0.125\n6,11,-3e-05\n"
    ).encode()


@pytest.mark.parametrize(
    "in_probs, out_probs, rows",
    [((0.5, 0.25, 0.25), (0.75, 0.25), "0,0.5,0.75\n1,0.25,0.25\n2,0.25,0.0\n"),
     ((1.0,), (0.5, 0.0, 0.5), "0,1.0,0.5\n1,0.0,0.0\n2,0.0,0.5\n")],
)
def test_degree_distribution_csv_bytes(tmp_path, in_probs, out_probs, rows):
    from miinet.omii import DegreeDistribution

    p = tmp_path / "degrees.csv"
    mio.write_degree_distribution_csv(DegreeDistribution(in_probs, out_probs), PINNED_PROV, p)
    expected = PINNED_PROV_LINES + "degree,in_probability,out_probability\n" + rows
    assert p.read_bytes() == expected.encode()


def test_network_diff_json_bytes(tmp_path):
    from miinet.spatial import NetworkDiff, RetainedEdge

    diff = NetworkDiff(
        (Edge(0, 1, 0.5, 0.1),), (Edge(2, 1, 0.25, 0.1),), (RetainedEdge(1, 2, 0.5, 0.75),)
    )
    p = tmp_path / "network_diff.json"
    mio.write_network_diff_json(diff, PINNED_PROV, p)
    assert p.read_bytes() == (
        '{\n  "gained": [\n    {\n      "source": 2,\n      "target": 1,\n'
        '      "weight": 0.25\n    }\n  ],\n'
        '  "lost": [\n    {\n      "source": 0,\n      "target": 1,\n'
        '      "weight": 0.5\n    }\n  ],\n'
        '  "provenance": {\n    "config_hash": "abc123",\n    "seed": 3,\n'
        '    "version": "9.9.9"\n  },\n'
        '  "retained": [\n    {\n      "delta": 0.25,\n      "source": 1,\n'
        '      "target": 2,\n      "weight_baseline": 0.5,\n'
        '      "weight_comparison": 0.75\n    }\n  ]\n}\n'
    ).encode()


MI_MAP_HEAD = "# axis=lateral\n# scenario=base\nsensor_a,sensor_b,mi,mi_raw\n1,2,0.5,0.5\n"


def test_mi_map_csv_accepts_utf8_bom_and_crlf(tmp_path):
    from miinet.spatial import PairwiseMIMap

    p = tmp_path / "excel.csv"
    p.write_bytes(("\ufeff" + MI_MAP_HEAD).replace("\n", "\r\n").encode("utf-8"))
    assert mio.read_mi_map_csv(p) == PairwiseMIMap(Axis.LATERAL, "base", ((1, 2),), (0.5,))


@pytest.mark.parametrize(
    "read, text",
    [
        (lambda p: mio.read_timeseries_csv(p).data.tolist(), "s1_lat,s2_lat\n1.0,2.0\n3.0,4.5\n"),
        (mio.load_grid_csv, "sensor_index,row,col\n1,0,0\n2,0,1\n"),
        (mio.read_mi_map_csv, MI_MAP_HEAD),
    ],
    ids=["timeseries", "grid", "mi_map"],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_readers_ignore_trailing_blank_lines(tmp_path, read, text, newline):
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_bytes(text.replace("\n", newline).encode())
    padded.write_bytes((text + "\n\n\n").replace("\n", newline).encode())
    assert read(padded) == read(plain)


@pytest.mark.parametrize(
    "row, col",
    [("x,3,0.1,0.1", 1), ("2,3.5,0.1,0.1", 2), ("2,3,0.1,abc", 4), ("2,3,0.1,nan", 4),
     ("2,3,0.1,inf", 4), ("2,3,0.1,1e999", 4), ("2,3,oops,0.1", 3), ("2,3,0.5,0.1", 3),
     ("2,3,0.1,-0.2", 3)],
)
def test_mi_map_csv_bad_cell_position(tmp_path, row, col):
    p = write(tmp_path / "map.csv", MI_MAP_HEAD + row + "\n")
    with pytest.raises(ParseError) as err:
        mio.read_mi_map_csv(p)
    assert (err.value.line, err.value.col) == (5, col)


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


@pytest.mark.parametrize(
    "field, value",
    [("n_channels", 3.9), ("n_samples", 100.7), ("seed", 1.5), ("seed", True), ("graph_seed", 2.5)],
)
def test_generate_rejects_non_integral_counts_and_seeds(tmp_path, capsys, field, value):
    spec = json.loads(generator_json(tmp_path).read_text())
    if field == "graph_seed":
        del spec["edges"]
        spec["random_dag"] = {"density": 0.3, "weight": 0.4, "graph_seed": value}
    else:
        spec[field] = value
    p = write(tmp_path / "bad.json", json.dumps(spec))
    out = tmp_path / "data.csv"
    assert main(["generate", "--spec", str(p), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError" and field in record["message"]
    assert not out.exists()


COUPLING_BLOCKS = {
    "grid_layout": {
        "n_channels": 30, "grid_layout": str(mio.bundled_grid_path()), "edge_weight": 0.5
    },
    "random_dag": {"random_dag": {"density": 0.3, "weight": 0.4, "graph_seed": 2}},
}


@pytest.mark.parametrize(
    "coupling, path",
    [("edges", ("n_channels",)), ("edges", ("n_samples",)), ("edges", ("seed",)),
     ("edges", ("edges", 1, "source")), ("edges", ("edges", 1, "target")),
     ("edges", ("edges", 1, "weight")), ("grid_layout", ("edge_weight",)),
     ("random_dag", ("random_dag", "density")), ("random_dag", ("random_dag", "weight")),
     ("random_dag", ("random_dag", "graph_seed"))],
)
def test_generate_names_missing_spec_field(tmp_path, capsys, coupling, path):
    spec = json.loads(generator_json(tmp_path).read_text())
    if coupling != "edges":
        del spec["edges"]
        spec.update(copy.deepcopy(COUPLING_BLOCKS[coupling]))
    holder = spec
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    p = write(tmp_path / "bad.json", json.dumps(spec))
    out = tmp_path / "data.csv"
    assert main(["generate", "--spec", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "ValueError" and repr(path[-1]) in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "shape, field",
    [([1, 2], "JSON object"), ({"edges": 5}, "'edges'"),
     ({"edges": [{"source": "1", "target": 2, "weight": 0.7}]}, "'source'"),
     ({"edges": [{"source": 1, "target": 2.5, "weight": 0.7}]}, "'target'"),
     ({"edges": [{"source": 1, "target": 2, "weight": None}]}, "'weight'"),
     ({"noise_scale": [1]}, "'noise_scale'"),
     ({"edges": None, "grid_layout": 5}, "'grid_layout'"),
     ({"edges": [{"source": 1, "target": 2, "weight": "0.5"}]}, "'weight'"),
     ({**COUPLING_BLOCKS["grid_layout"], "edges": None, "edge_weight": "0.5"}, "'edge_weight'"),
     ({"noise_scale": True}, "'noise_scale'"),
     ({"edges": [{"source": 1, "target": 2, "weight": float("nan")}]}, "'weight'"),
     ({"edges": None, "random_dag": {"density": 0.3, "weight": float("inf"), "graph_seed": 2}},
      "'weight'")],
)
def test_generate_rejects_mis_shaped_spec(tmp_path, capsys, shape, field):
    spec = json.loads(generator_json(tmp_path).read_text())
    if isinstance(shape, dict):  # a top-level None drops the field
        shape = {k: v for k, v in {**spec, **shape}.items() if v is not None}
    p = write(tmp_path / "bad.json", json.dumps(shape))
    out = tmp_path / "data.csv"
    assert main(["generate", "--spec", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "ValueError" and field in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["var", "contemporaneous"])
@pytest.mark.parametrize(
    "edges, culprit",
    [([(1, 2, 1e308)], "1e+308 of edge s1_lat -> s2_lat"),
     ([(1, 2, 1e160)], "1e+160 of edge s1_lat -> s2_lat"),
     ([(1, 2, 0.5), (2, 3, -1e308)], "-1e+308 of edge s2_lat -> s3_lat")],
)
def test_generate_reports_an_overflowing_weight(tmp_path, capsys, kind, edges, culprit):
    """A nilpotent coupling passes the VAR radius test at any weight; one past float64
    is an UnstableSpec naming it, with no warning and no file written."""
    spec_edges = [{"source": a, "target": b, "weight": w} for a, b, w in edges]
    p = generator_json(tmp_path, kind=kind, edges=spec_edges)
    out = tmp_path / "data.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", "--spec", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "UnstableSpec", "message": f"coupling weight {culprit} overflows float64"
    }
    assert not out.exists()


def test_json_inputs_accept_utf8_bom(tmp_path):
    net = InteractionNetwork((0, 1), ("s1_lat", "s2_lat"), (Edge(0, 1, 0.42, 0.1),), {})
    p = tmp_path / "net.json"
    mio.write_network_json(net, mio.provenance({}, 1), p)
    p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
    assert mio.read_network_json(p) == net
    spec = generator_json(tmp_path)
    plain, bommed = tmp_path / "plain.csv", tmp_path / "bom.csv"
    assert main(["generate", "--spec", str(spec), "--out", str(plain)]) == 0
    spec.write_bytes(b"\xef\xbb\xbf" + spec.read_bytes())
    assert main(["generate", "--spec", str(spec), "--out", str(bommed)]) == 0
    assert bommed.read_bytes() == plain.read_bytes()


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


@pytest.mark.parametrize(
    "path, value, field",
    [(("edges",), 5, "'edges'"), (("nodes",), 7, "'nodes'"),
     (("edges", 0, "weight"), "0.42", "'weight'"), (("edges", 0, "source"), [0], "'source'"),
     (("metadata",), 5, "'metadata'"), (("nodes", 1, "index"), 0, "'index'"),
     (("nodes", 0, "name"), 5, "'name'"), (("edges", 0, "source"), 7, "'source'")],
)
def test_network_diff_verb_rejects_mis_shaped_network(tmp_path, capsys, path, value, field):
    net = InteractionNetwork((0, 1), ("s1_lat", "s2_lat"), (Edge(0, 1, 0.42, 0.1),), {})
    good = tmp_path / "good.json"
    mio.write_network_json(net, mio.provenance({}, 1), good)
    payload = json.loads(good.read_text())
    holder = payload
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    bad = write(tmp_path / "bad.json", json.dumps(payload))
    code = main(
        ["diff", "--kind", "network", "--baseline", str(good), "--comparison", str(bad),
         "--out", str(tmp_path / "diff.json")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "MalformedNetwork" and field in record["message"]
    assert not (tmp_path / "diff.json").exists()


def test_network_diff_verb_rejects_networks_on_different_axes(tmp_path, capsys):
    paths = []
    for axis in ("lat", "vert"):
        net = InteractionNetwork((0, 1), (f"s1_{axis}", f"s2_{axis}"), (Edge(0, 1, 0.42, 0.1),), {})
        paths.append(tmp_path / f"{axis}.json")
        mio.write_network_json(net, mio.provenance({}, 1), paths[-1])
    out = tmp_path / "diff.json"
    code = main(
        ["diff", "--kind", "network", "--baseline", str(paths[0]), "--comparison", str(paths[1]),
         "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "NodeSetMismatch"
    assert not out.exists()


@pytest.mark.parametrize("row, col", [("x,3,0.1,0.1", 1), ("2,3,0.1,nan", 4)])
def test_mi_map_diff_verb_reports_parse_position(tmp_path, capsys, row, col):
    good = write(tmp_path / "good.csv", MI_MAP_HEAD)
    bad = write(tmp_path / "bad.csv", MI_MAP_HEAD + row + "\n")
    code = main(
        ["diff", "--kind", "mi-map", "--baseline", str(good), "--comparison", str(bad),
         "--out", str(tmp_path / "diff.csv")]
    )
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError"
    assert record["message"].startswith(f"line 5, column {col}:")
    assert not (tmp_path / "diff.csv").exists()


def test_fit_report_verb_reports_an_oversized_cell(tmp_path, capsys):
    p = write(tmp_path / "big.csv", f"s1_lat\n1.0\n{OVERSIZED_CELL}\n")
    out = tmp_path / "report.json"
    assert main(["fit-report", "--input", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "ParseError"
    assert record["message"].startswith("line 3, column 1:")
    assert not out.exists()


def test_cli_error_record(tmp_path, capsys):
    code = main(["fit-report", "--input", str(tmp_path / "missing.csv"), "--out", "x.json"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "error" in record and "message" in record


@pytest.mark.parametrize("directory", ["--input", "--out"])
def test_cli_reports_an_os_error_as_one_record(tmp_path, capsys, directory):
    data = tmp_path / "d.csv"
    assert main(["generate", "--spec", str(generator_json(tmp_path)), "--out", str(data)]) == 0
    paths = {"--input": str(data), "--out": str(tmp_path / "report.json"), directory: str(tmp_path)}
    code = main(["fit-report", "--input", paths["--input"], "--out", paths["--out"]])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "IsADirectoryError"


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


def test_pipeline_writes_what_its_steps_compute(tmp_path):
    cfg = run_config(tmp_path)
    run_pipeline(cfg)
    label, record = cfg.scenarios[0]
    scen_dir = Path(cfg.out_dir) / label
    report = tmp_path / "fit.json"
    assert main(["fit-report", "--input", record, "--out", str(report), "--seed", "99"]) == 0
    bundled = json.loads((scen_dir / "fit_report.json").read_text())
    assert bundled.pop("scenario") == label
    del bundled["provenance"]
    alone = json.loads(report.read_text())
    del alone["provenance"]
    assert bundled == alone
    mi_map = tmp_path / "mi.csv"
    assert main(
        ["pairwise-mi", "--input", record, "--grid", cfg.grid_path, "--axis", "lateral",
         "--family", "gaussian", "--scenario", label, "--seed", "99", "--out", str(mi_map)]
    ) == 0

    def data_rows(path):
        return [line for line in path.read_text().splitlines() if not line.startswith("#")]

    assert data_rows(scen_dir / "pairwise_mi.csv") == data_rows(mi_map)
    x = standardize(mio.read_timeseries_csv(record))
    columns = x.axis_channel_indices(Axis.LATERAL)
    sub = x.select([columns[s] for s in sorted(columns)])
    omii_cfg = OmiiConfig(cfg.family, cfg.theta, cfg.n_shuffles, derive_seed(99, "omii", label))
    edges = mio.read_network_json(scen_dir / "omii_network.json").edges
    assert edges and edges == infer_network(sub, omii_cfg).edges


def test_pipeline_mismatched_scenario_writes_nothing(tmp_path, capsys):
    cfg = run_config(tmp_path)
    odd = tmp_path / "odd.csv"  # channels s1..s5 against the baseline's s1..s4
    mio.write_timeseries_csv(make_matrix(np.random.default_rng(3).standard_normal((1200, 5))), odd)
    with pytest.raises(MiinetError):
        run_pipeline(dataclasses.replace(cfg, scenarios=(("damage1", str(odd)),)))
    code = main(
        ["pipeline", "--baseline", f"baseline={cfg.baseline_path}", "--scenario",
         f"damage1={odd}", "--grid", cfg.grid_path, "--axis", "lateral", "--family",
         "gaussian", "--n-shuffles", "25", "--seed", "99", "--out", cfg.out_dir]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "MiinetError"
    assert not [p for p in Path(cfg.out_dir).rglob("*") if p.is_file()]


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


def test_derive_seed_keeps_ascii_seeds_and_takes_any_label():
    assert derive_seed(99, "omii", "damage1") == 12473118936986689322  # pinned before UTF-8
    assert derive_seed(99, "omii", "dämage") != derive_seed(99, "omii", "damage")


def test_pipeline_takes_a_non_ascii_label(tmp_path):
    cfg = run_config(tmp_path)
    cfg = dataclasses.replace(cfg, scenarios=(("dämage", cfg.scenarios[0][1]),))
    written = run_pipeline(cfg)
    out = Path(cfg.out_dir)
    assert len(written) == 13 and all(path.is_file() for path in written)
    net = json.loads((out / "dämage" / "omii_network.json").read_text())
    assert net["metadata"]["seed"] == derive_seed(99, "omii", "dämage")
    assert (out / "diff_baseline_vs_dämage" / "network_diff.json").is_file()


@pytest.mark.parametrize("label", [".", "..", "d\udcff"])
def test_pipeline_rejects_labels_that_break_the_bundle(tmp_path, capsys, label):
    cfg = run_config(tmp_path)
    out = tmp_path / "nest" / "out"
    out.parent.mkdir()
    with pytest.raises(ValueError):
        run_pipeline(dataclasses.replace(cfg, scenarios=((label, cfg.scenarios[0][1]),)))
    with pytest.raises(ValueError):
        run_pipeline(dataclasses.replace(cfg, baseline_label=label))
    code = main(
        ["pipeline", "--baseline", f"baseline={cfg.baseline_path}", "--scenario",
         f"{label}={cfg.scenarios[0][1]}", "--grid", cfg.grid_path, "--axis", "lateral",
         "--family", "gaussian", "--n-shuffles", "25", "--seed", "99", "--out", str(out)]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"
    assert not list(out.parent.rglob("*"))


@pytest.mark.parametrize("label", ["run_config.json", "diff_b_vs_d"])
def test_pipeline_rejects_labels_that_name_bundle_entries(tmp_path, capsys, label):
    cfg = run_config(tmp_path, baseline_label="b", scenarios=())
    record = cfg.baseline_path
    with pytest.raises(ValueError):
        run_pipeline(dataclasses.replace(cfg, scenarios=(("d", record), (label, record))))
    out = tmp_path / "bundle"
    code = main(
        ["pipeline", "--baseline", f"b={record}", "--scenario", f"d={record}", "--scenario",
         f"{label}={record}", "--grid", cfg.grid_path, "--axis", "lateral", "--family",
         "gaussian", "--n-shuffles", "25", "--seed", "99", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ValueError"
    assert not out.exists()


def test_pipeline_computes_one_covariance_per_scenario(tmp_path, monkeypatch):
    cfg = run_config(tmp_path)
    calls = []
    original = core.regularize_covariance

    def counting(cov):
        calls.append(cov.shape)
        return original(cov)

    monkeypatch.setattr(core, "regularize_covariance", counting)
    run_pipeline(cfg)
    assert calls == [(4, 4), (4, 4)]


def mi_rows(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_lateral_mi_reads_only_the_lateral_channels(tmp_path):
    """A duplicated vertical channel forces a ridge that the lateral MI must not see."""
    grid = small_grid_csv(tmp_path)
    data = np.random.default_rng(31).standard_normal((1200, 7))
    data[:, 1:4] += 0.6 * data[:, :3]
    channels = [ChannelId(s, axis) for axis in (Axis.LATERAL, Axis.VERTICAL) for s in range(1, 5)]
    both = TimeSeriesMatrix(data[:, [0, 1, 2, 3, 4, 5, 6, 6]], tuple(channels))
    records = {"both": tmp_path / "both.csv", "lateral": tmp_path / "lateral.csv"}
    mio.write_timeseries_csv(both, records["both"])
    mio.write_timeseries_csv(both.select(range(4)), records["lateral"])
    maps = {}
    for name, record in records.items():
        maps[name] = tmp_path / f"{name}_mi.csv"
        assert main(
            ["pairwise-mi", "--input", str(record), "--grid", str(grid), "--axis", "lateral",
             "--family", "gaussian", "--seed", "1", "--out", str(maps[name])]
        ) == 0
    out = tmp_path / "out"
    assert main(
        ["pipeline", "--baseline", f"b={records['both']}", "--grid", str(grid), "--axis",
         "lateral", "--family", "gaussian", "--n-shuffles", "10", "--seed", "1", "--out",
         str(out)]
    ) == 0
    expected = mi_rows(maps["lateral"])
    assert mi_rows(maps["both"]) == expected
    assert mi_rows(out / "b" / "pairwise_mi.csv") == expected


@pytest.mark.parametrize(
    "grid_text, n_channels, error",
    [
        ("1,0,0\n2,0,1\n3,1,0\n4,1,1\n5,2,0\n", 4, "MissingChannel"),  # sensor 5 has none
        ("1,0,0\n", 1, "ValueError"),  # oMII needs two channels
    ],
    ids=["grid-sensor-off-axis", "one-sensor-axis"],
)
def test_pipeline_that_fails_to_compute_writes_nothing(
    tmp_path, capsys, grid_text, n_channels, error
):
    grid = write(tmp_path / "grid.csv", "sensor_index,row,col\n" + grid_text)
    record = tmp_path / "record.csv"
    data = np.random.default_rng(5).standard_normal((600, n_channels))
    mio.write_timeseries_csv(make_matrix(data), record)
    out = tmp_path / "out"
    code = main(
        ["pipeline", "--baseline", f"b={record}", "--grid", str(grid), "--axis", "lateral",
         "--family", "gaussian", "--n-shuffles", "10", "--seed", "1", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == error
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, error", [("pairwise-mi", "MissingChannel"), ("pipeline", "MissingChannel"),
                    ("omii", "MiinetError")]
)
def test_an_axis_without_channels_keeps_its_error_name(tmp_path, capsys, verb, error):
    grid, record, _ = pipeline_inputs(tmp_path)  # lateral channels only
    out = tmp_path / "out"
    argv = {
        "pairwise-mi": ["--input", str(record), "--grid", str(grid), "--out", str(out)],
        "pipeline": ["--baseline", f"b={record}", "--grid", str(grid), "--out", str(out)],
        "omii": ["--input", str(record), "--out-prefix", str(out)],
    }[verb]
    assert main([verb, *argv, "--axis", "vertical", "--family", "gaussian", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == error
    assert not list(tmp_path.glob("out*"))


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
