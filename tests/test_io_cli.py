import argparse
import copy
import csv
import dataclasses
import enum
import io
import json
import os
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from miinet import Axis, ChannelId, TimeSeriesMatrix, core, neighbor_pairs, standardize
from miinet.cli import (
    RunConfig, _omii_config, build_fit_report, build_parser, load_generator_spec, main, run_pipeline,
)
from miinet.errors import DuplicateChannel, EmptyFile, MalformedNetwork, MiinetError, ParseError
from miinet import floatparse as fp, io as mio
from miinet.omii import Edge, InteractionNetwork, OmiiConfig, infer_network
from miinet.seeding import derive_seed
from miinet.spatial import PairwiseMIMap
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


@pytest.mark.parametrize("text, position", [
    (b"s1_lat,s2_l\xffat\n1.0,2.0\n", (1, 2)),
    (b"s1_lat,s2_lat\n1.0,2.0\n3.0,4\xe9.0\n", (3, 2)),
    (b"s1_lat,s2_lat\r\n1.5,2.5\r\n-3.5\xff,4.25\r\n", (3, 1)),
])
def test_ingest_reports_a_byte_that_is_not_utf8(tmp_path, text, position):
    p = tmp_path / "x.csv"
    p.write_bytes(text)
    with pytest.raises(ParseError) as err:
        mio.read_timeseries_csv(p)
    assert (err.value.line, err.value.col) == position
    assert "is not UTF-8" in str(err.value)


def test_ingest_does_not_trust_a_file_size_of_zero(tmp_path):
    """A seekable file that reports size 0, as files in /proc do, still reads whole."""
    p = write(tmp_path / "x.csv", "s1_lat,s2_lat\n1.5,2.5\n3.5,4.5\n")
    with mock.patch.object(mio.os, "fstat", lambda fd: os.stat_result((0,) * 10)):
        np.testing.assert_array_equal(mio.read_timeseries_csv(p).data, [[1.5, 2.5], [3.5, 4.5]])


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
    for bad in (b"x", b"\xff"):
        with pytest.raises(ParseError) as err:
            read_through_pipe(b"s1_lat\n1.0\n" + bad + b"\n")
        assert (err.value.line, err.value.col) == (3, 1)


def assert_written_as_csv_writer(x: TimeSeriesMatrix, path: Path, label=""):
    """The writer writes what csv.writer does."""
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([[ch.name for ch in x.channels]] + x.data.tolist())
    mio.write_timeseries_csv(x, path)
    assert path.read_bytes() == expected.getvalue().encode(), label


def test_timeseries_csv_bytes_match_csv_writer(tmp_path):
    values = np.array(
        [[5e-324, -0.0, 1e-5], [2.5e-310, 1e16, -1e16], [1 / 3, -2.2250738585072014e-308, 0.1]]
    )
    x = make_matrix(np.vstack([values, np.random.default_rng(4).standard_normal((20, 3)), values]))
    assert_written_as_csv_writer(x, tmp_path / "x.csv")


@settings(max_examples=150, deadline=None)
@given(data=hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=12),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
def test_writer_bytes_equal_csv_writer_for_any_finite_matrix(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("any") / "x.csv"
    assert_written_as_csv_writer(make_matrix(data), path)


def repr_classes(rng) -> dict[str, np.ndarray]:
    """Values in the classes where a formatter in the fixed range of repr can go wrong."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    ends = np.array([1e-4, 1e16])
    fixed_exponents = np.arange(-14, 54)  # each [2^k, 2^(k+1)) meets [1e-4, 1e16)
    return {
        "standard normal": rng.standard_normal(300_000),
        "every binary exponent of the fixed range": np.ldexp(
            rng.uniform(1, 2, (4_000, fixed_exponents.size)), fixed_exponents).ravel(),
        "powers of two and their predecessors": np.concatenate(
            [powers, np.nextafter(powers, 0)]),
        "1e-4 and 1e16, each +-1 ulp": np.concatenate(
            [ends, np.nextafter(ends, 0), np.nextafter(ends, np.inf)]),
        "integers in [2^53, 1e16)": rng.integers(2**53, 10**16, 200_000).astype(float),
        "dyadic fractions": rng.integers(1, 2**20, 120_000) / 2.0 ** rng.integers(0, 34, 120_000),
        "short decimals": rng.integers(1, 10**6, 120_000) / 10.0 ** rng.integers(0, 10, 120_000),
        "subnormals": np.ldexp(rng.uniform(0, 1, 20_000), -1022),
    }


def test_writer_bytes_equal_csv_writer_over_a_million_values(tmp_path):
    rng = np.random.default_rng(15)
    classes = repr_classes(rng)
    assert sum(v.size for v in classes.values()) >= 1_000_000
    for name, values in classes.items():
        values = values * rng.choice([-1.0, 1.0], values.size)
        cols = 30 if values.size >= 60 else 1  # at least 2 rows
        x = make_matrix(values[: values.size // cols * cols].reshape(-1, cols))
        assert_written_as_csv_writer(x, tmp_path / "x.csv", name)


def test_well_formed_body_skips_the_cell_parser(tmp_path):
    x = make_matrix(np.random.default_rng(5).standard_normal((50, 3)))
    p = tmp_path / "x.csv"
    mio.write_timeseries_csv(x, p)
    with mock.patch.object(mio, "_cell_rows", side_effect=AssertionError("cell parser ran")):
        np.testing.assert_array_equal(mio.read_timeseries_csv(p).data, x.data)


@pytest.mark.parametrize("fmt", ["%d", "%.18e", "%.6e", "%.6g", "%.8f"])
@pytest.mark.parametrize("tail", ["", "\n\n", "\r\n\r\n\r\n"], ids=["none", "lf", "crlf"])
def test_exports_and_trailing_blank_lines_skip_the_cell_parser(tmp_path, fmt, tail):
    """np.savetxt's formats, and a body that ends in blank lines, which csv skips."""
    x = np.random.default_rng(8).standard_normal((200, 3)) * 1e3
    p = tmp_path / "x.csv"
    np.savetxt(p, x, fmt=fmt, delimiter=",", header="s1_lat,s2_lat,s3_lat", comments="")
    p.write_bytes(p.read_bytes() + tail.encode())
    with mock.patch.object(mio, "_cell_rows", side_effect=AssertionError("cell parser ran")):
        data = mio.read_timeseries_csv(p).data
    lines = p.read_text().split()[1:]
    assert data.tobytes() == np.array([[float(c) for c in ln.split(",")] for ln in lines]).tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(
    _FINITE.map(repr),
    _FINITE.map("{:e}".format),
    st.floats(-1e3, 1e3).map("{:.5f}".format),
    st.integers(-10**25, 10**25).map("%d".__mod__),
    _FINITE.map("%.18e".__mod__),
    _FINITE.map("%.6e".__mod__),
    _FINITE.map("%.6g".__mod__),
    _FINITE.map("%.4E".__mod__).map(lambda cell: cell.replace("E+", "E+00")),
)
# cells that float() and the block parser may judge differently, and lines that are not rows
_ODD_CELL = st.sampled_from(
    ['"1.5"', "1_0", "nan", "inf", "-inf", "1e400", "", " ", " 2 ", "\u0661", "\x1c1", "1\xa0",
     "+.5", "0x10", "1e", "1e5e5", "1e+-5", "5.", "-0"]
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


# bodies that float() and the block parser may judge differently: odd cells, blank
# lines, \r-only line ends, a BOM, no last line end, cells at the parser's limits
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
    "s1_lat,s2_lat,s3_lat\n7.38258248760424e-05,1e-05,+1.5\n007.5,1.,.5\n",
    "s1_lat,s2_lat\n-0.0,0.0\n7414522648373449.0,-7414522648373449.0\n",
    "s1_lat,s2_lat\n123456789012.345678901234,-0.00000000000000000000001\n1.5,2.5\n",
    "s1_lat,s2_lat\n1234567890123.456789012345,0.000000000000000000000001\n1.5,2.5\n",
    "s1_lat,s2_lat\n1.5,2.5\n-3.5,4.25",
    "s1_lat,s2_lat\r\n1.5,2.5\r\n-3.5,4.25",
    "s1_lat,s2_lat\n1.5,2.5\r3.5,4.5\n",
    "s1_lat,s2_lat\n1.5,2.5\n\n3.5,4.5\n",
    "s1_lat,s2_lat\n1.5,2.5\n3.5,4.5\n\r\n\n",
    "s1_lat,s2_lat\n1,-0\n007,5.\n123456789012345678901234,1234567890123456789012345\n"
    "9007199254740993,9007199254740991\n1e22,1e23\n1e-400,1e+308\n"
    "1.7976931348623157e308,-1E+0005\n",
    # 41 and 42 of 100 cells in e-notation, and 42 spread over the body
    "s1_lat\n" + "1e-05\n" * 41 + "0.5\n" * 59,
    "s1_lat\n" + "1e-05\n" * 42 + "0.5\n" * 58,
    "s1_lat\n" + "0.5\n1e-05\n" * 42 + "0.5\n" * 16,
]


def odd_bodies(test):
    for text in reversed(ODD_BODIES):
        test = example(text=text)(test)
    return test


def no_block_parser():
    return mock.patch.object(mio, "_block_rows", return_value=None)


@settings(max_examples=300, deadline=None)
@given(text=scenario_csv_text())
@odd_bodies
def test_bulk_reader_agrees_with_cell_parser(tmp_path_factory, text):
    """Same array bit for bit, or the same error, from the block parser and from the
    cell parser alone."""
    path = tmp_path_factory.mktemp("differential") / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    with no_block_parser():
        cell_parser = read_outcome(path)
    assert read_outcome(path) == cell_parser


def assert_left_to_cell_parser(path: Path) -> tuple:
    """The block reader gives the body up, and the read is the cell parser's."""
    header = path.read_bytes().index(b"\n") + 1
    n_cols = path.read_bytes()[:header].count(b",") + 1
    assert mio._block_rows(path, header, n_cols) is None
    with no_block_parser():
        cell_parser = read_outcome(path)
    assert read_outcome(path) == cell_parser
    return cell_parser


def test_a_line_longer_than_a_block_is_left_to_the_cell_parser(tmp_path):
    # 5,000 cells of about 19 bytes: each line is past a 64 KB block
    x = make_matrix(np.random.default_rng(3).standard_normal((3, 5_000)))
    path = tmp_path / "wide.csv"
    mio.write_timeseries_csv(x, path)
    assert len(path.read_bytes().splitlines()[1]) > fp.BLOCK_BYTES
    assert assert_left_to_cell_parser(path) == ("ok", (3, 5_000), x.data.tobytes())


def test_count_lines_of_a_stream_shorter_than_stop_is_none():
    assert fp.count_lines(io.BytesIO(b"1,2\n3,4\n"), 0, 100) is None


def test_a_lone_cr_in_a_crlf_body_is_left_to_the_cell_parser(tmp_path):
    # csv ends a row at the lone CR, so the cell parser finds a short row
    path = tmp_path / "cr.csv"
    path.write_bytes(b"s1_lat,s2_lat\r\n1.5,2.5\r\n3.5\r,4.5\r\n")
    assert assert_left_to_cell_parser(path) == ("ParseError", 3, 1)


def test_a_cell_past_the_csv_field_limit_is_left_to_the_cell_parser(tmp_path):
    path = write(tmp_path / "long.csv", "s1_lat,s2_lat\n1.5,2.5\n3.5,4.000000000000000000001\n")
    old = csv.field_size_limit(16)
    try:
        assert assert_left_to_cell_parser(path) == ("ParseError", 3, 1)
    finally:
        csv.field_size_limit(old)


def test_paper_scale_record_round_trips_bit_identical(tmp_path):
    """30 channels x 11,536 samples, 90 s at 128 Hz: the size `miinet generate` writes.
    Written as csv.writer writes it and read back bit for bit by the block parser."""
    x = make_matrix(np.random.default_rng(11).standard_normal((11_536, 30)))
    path = tmp_path / "x.csv"
    assert_written_as_csv_writer(x, path)
    with mock.patch.object(mio, "_cell_rows", side_effect=AssertionError("cell parser ran")):
        back = mio.read_timeseries_csv(path).data
    assert back.tobytes() == x.data.tobytes()


@pytest.mark.parametrize("no_split", ["one core", "no os.fork"])
def test_no_fork_without_a_second_core_or_os_fork(tmp_path, monkeypatch, no_split):
    """On one core with os.fork raising, or with no os.fork at all, a paper-scale record
    still writes csv.writer's bytes and reads back bit for bit."""
    x = make_matrix(np.random.default_rng(7).standard_normal((11_536, 30)))
    path = tmp_path / "x.csv"
    if no_split == "one core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")),
                            raising=False)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    assert_written_as_csv_writer(x, path)
    assert mio.read_timeseries_csv(path).data.tobytes() == x.data.tobytes()


# ------------------------------------------------------------------ grid

def test_bundled_grid():
    grid = mio.load_grid_csv(mio.bundled_grid_path())
    assert len(grid.sensors) == 30
    assert len(neighbor_pairs(grid)) == 49


def test_grid_csv_errors(tmp_path):
    with pytest.raises(ParseError):
        mio.load_grid_csv(write(tmp_path / "g1.csv", "a,b,c\n1,0,0\n"))
    with pytest.raises(ParseError):
        mio.load_grid_csv(write(tmp_path / "g2.csv", "sensor_index,row,col\n1,0,0\n1,1,1\n"))
    with pytest.raises(EmptyFile):
        mio.load_grid_csv(write(tmp_path / "g3.csv", "sensor_index,row,col\n"))
    empty = write(tmp_path / "empty.csv", "")
    with pytest.raises(EmptyFile, match=f"^{re.escape(str(empty))} is empty$"):
        mio.load_grid_csv(empty)
    with pytest.raises(ParseError, match=r"^line 3, column 1: expected 3 cells, got 2$"):
        mio.load_grid_csv(write(tmp_path / "short.csv", "sensor_index,row,col\n1,0,0\n2,0\n"))
    # an integer past float's range is a ParseError at its cell, not an OverflowError
    with pytest.raises(ParseError) as err:
        mio.load_grid_csv(write(tmp_path / "g4.csv", f"sensor_index,row,col\n{'9' * 400},0,0\n"))
    assert (err.value.line, err.value.col) == (2, 1)


def test_network_dot_places_the_bundled_grid_at_the_deck_spacings(tmp_path):
    """Column c, row r of the grid is drawn at (2.13 c, -1.96 r) metres."""
    names = tuple(f"s{s}_lat" for s in range(1, 31))
    net = InteractionNetwork(tuple(range(30)), names, (), {})
    path = tmp_path / "net.dot"
    grid = mio.load_grid_csv(mio.bundled_grid_path())
    mio.write_network_dot(net, mio.provenance({}, 1), path, grid=grid)
    pos = dict(re.findall(r'(n\d+) \[label="s\d+_lat", pos="([^"]*)"\]', path.read_text()))
    assert len(pos) == 30
    assert [pos[n] for n in ("n0", "n4", "n5", "n29")] == [
        "0.00,0.00!", "8.52,0.00!", "0.00,-1.96!", "8.52,-9.80!"]
    assert all(pos[f"n{k}"] == f"{k % 5 * 2.13:.2f},{-(k // 5) * 1.96:.2f}!" for k in range(30))


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


@pytest.mark.parametrize("text, position", [
    (b"sensor_index,r\xffow,col\n1,0,0\n", (1, 2)),
    (b"sensor_index,row,col\r\n1,0,0\r\n2,0,\xe91\r\n", (3, 3)),
])
def test_grid_csv_reports_a_byte_that_is_not_utf8(tmp_path, text, position):
    p = tmp_path / "g.csv"
    p.write_bytes(text)
    with pytest.raises(ParseError) as err:
        mio.load_grid_csv(p)
    assert (err.value.line, err.value.col) == position
    assert "is not UTF-8" in str(err.value)


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
    mi_map = PairwiseMIMap(Axis.LATERAL, "base", ((1, 2), (2, 3)), (0.5, -0.001))
    p = tmp_path / "map.csv"
    mio.write_mi_map_csv(mi_map, mio.provenance({}, 1), p)
    back = mio.read_mi_map_csv(p)
    assert back == mi_map  # raw values survive the clamped report
    text = p.read_text()
    assert text.startswith("# config_hash=")
    assert text.endswith("sensor_a,sensor_b,mi,mi_raw\n1,2,0.5,0.5\n2,3,0.0,-0.001\n")


@pytest.mark.parametrize(
    "scenario", [" a", "a\t", "a ", "a b", "\u3000a\xa0", "a,b", "a=b", "#a", 'a"b', '"a,b"'])
def test_mi_map_csv_round_trips_a_scenario_with_whitespace(tmp_path, scenario):
    mi_map = PairwiseMIMap(Axis.VERTICAL, scenario, ((1, 2),), (0.25,))
    p = tmp_path / "map.csv"
    mio.write_mi_map_csv(mi_map, mio.provenance({}, 1), p)
    assert mio.read_mi_map_csv(p) == mi_map


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
    p = tmp_path / "excel.csv"
    p.write_bytes(("\ufeff" + MI_MAP_HEAD).replace("\n", "\r\n").encode("utf-8"))
    assert mio.read_mi_map_csv(p) == PairwiseMIMap(Axis.LATERAL, "base", ((1, 2),), (0.5,))


@pytest.mark.parametrize("old, new, position", [
    (b"scenario=base", b"scenario=ba\xffse", (2, 1)),
    (b"sensor_b,mi", b"sensor_b,m\xffi", (3, 3)),
    (b"1,2,0.5,0.5", b"1,2,0.5,0.5\xe9", (4, 4)),
])
def test_mi_map_csv_reports_a_byte_that_is_not_utf8(tmp_path, old, new, position):
    p = tmp_path / "map.csv"
    p.write_bytes(MI_MAP_HEAD.encode().replace(old, new))
    with pytest.raises(ParseError) as err:
        mio.read_mi_map_csv(p)
    assert (err.value.line, err.value.col) == position
    assert "is not UTF-8" in str(err.value)


def test_mi_map_csv_reads_a_quoted_cell(tmp_path):
    """A data row is a CSV row, as in a grid file: "0.5" is the number 0.5."""
    p = write(tmp_path / "map.csv", MI_MAP_HEAD.replace("1,2,0.5,0.5", '1,"2",0.5,"0.5"'))
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
     ("2,3,0.1,-0.2", 3),
     pytest.param("9" * 400 + ",3,0.1,0.1", 1, id="400-digit sensor_a"),
     pytest.param("2," + "9" * 400 + ",0.1,0.1", 2, id="400-digit sensor_b")],
)
def test_mi_map_csv_bad_cell_position(tmp_path, row, col):
    p = write(tmp_path / "map.csv", MI_MAP_HEAD + row + "\n")
    with pytest.raises(ParseError) as err:
        mio.read_mi_map_csv(p)
    assert (err.value.line, err.value.col) == (5, col)


@pytest.mark.parametrize("text, message", [
    ("# axis=lateral\nsensor_a,sensor_b,mi\n1,2,0.5\n", "line 2, column 1: unexpected MI map header"),
    ("# axis=lateral\nsensor_a,sensor_b,mi,mi_raw\n1,2,0.5\n", "line 3, column 1: expected 4 cells, got 3"),
    ("sensor_a,sensor_b,mi,mi_raw\n1,2,0.5,0.5\n", "line 1, column 1: not a pairwise MI map file"),
    ("# axis=lateral\n", "line 1, column 1: not a pairwise MI map file"),
], ids=["header", "short-row", "no-axis", "no-header"])
def test_mi_map_csv_names_a_file_of_another_shape(tmp_path, text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        mio.read_mi_map_csv(write(tmp_path / "map.csv", text))


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
      "'weight'"),
     ({"edges": None, "random_dag": {"density": 7.5, "weight": 0.4, "graph_seed": 2}},
      "density must be in [0, 1], got 7.5"),
     ({"edges": [{"source": 1, "target": 2, "weight": 0.5}] * 2},
      "edge 1 1 -> 2 is already listed"),
     ({"edges": [{"source": 0, "target": 2, "weight": 0.5}]},
      "edge 0 'source' must be a sensor in 1..4, got 0"),
     ({"edges": [{"source": 1, "target": 2, "weight": 0.5},
                 {"source": 2, "target": 2, "weight": 0.5}]},
      "edge 1 is a self-loop on sensor 2"),
     ({"n_channels": -1}, "'n_channels' must be a positive integer"),
     ({"seed": -5}, "'seed' must be a non-negative integer"),
     ({"edges": None, "random_dag": {"density": 0.3, "weight": 0.4, "graph_seed": -5}},
      "'graph_seed' must be a non-negative integer"),
     ({"kind": "ar"}, "unknown generator kind 'ar'"),
     (COUPLING_BLOCKS["random_dag"], "specify exactly one of edges / grid_layout / random_dag"),
     ({**COUPLING_BLOCKS["grid_layout"], "n_channels": 29, "edges": None},
      "grid has more sensors than n_channels")],
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


@pytest.mark.parametrize("density", [7.5, -0.1, float(np.nextafter(1.0, 2.0))])
def test_generator_spec_rejects_density_outside_unit_interval(tmp_path, density):
    spec = json.loads(generator_json(tmp_path).read_text())
    del spec["edges"]
    spec["random_dag"] = {"density": density, "weight": 0.4, "graph_seed": 2}
    with pytest.raises(ValueError, match="density must be in"):
        load_generator_spec(write(tmp_path / "bad.json", json.dumps(spec)))


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


def test_network_json_names_a_byte_that_is_not_utf8(tmp_path):
    net = InteractionNetwork((0, 1), ("s1_lat", "s2_lat"), (Edge(0, 1, 0.42, 0.1),), {})
    p = tmp_path / "net.json"
    mio.write_network_json(net, mio.provenance({}, 1), p)
    p.write_bytes(p.read_bytes().replace(b"s2_lat", b"s2_l\xffat"))
    with pytest.raises(MalformedNetwork, match="byte 0xff is not UTF-8"):
        mio.read_network_json(p)


def test_generator_spec_names_a_byte_that_is_not_utf8(tmp_path):
    spec = generator_json(tmp_path)
    spec.write_bytes(spec.read_bytes().replace(b"gaussian", b"gauss\xe9ian"))
    with pytest.raises(ValueError, match="byte 0xe9 is not UTF-8") as err:
        load_generator_spec(spec)
    assert type(err.value) is ValueError


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


# every separator that str.splitlines, and so `read_mi_map_csv`, breaks a line at
_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", _LINE_BREAKS)
def test_pairwise_mi_rejects_a_scenario_with_a_line_break(tmp_path, capsys, brk):
    data = tmp_path / "a.csv"
    main(["generate", "--spec", str(generator_json(tmp_path)), "--out", str(data)])
    out = tmp_path / "map.csv"
    code = main(
        ["pairwise-mi", "--input", str(data), "--grid", str(small_grid_csv(tmp_path)),
         "--axis", "lateral", "--family", "gaussian", "--scenario", f"a{brk}b", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ValueError"
    assert not out.exists()
    with pytest.raises(ValueError):
        PairwiseMIMap(Axis.LATERAL, f"a{brk}", (), ())
    assert PairwiseMIMap(Axis.LATERAL, "", (), ()).scenario == ""


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


def network_payload(names, edges):
    return {
        "nodes": [{"index": k, "name": name} for k, name in enumerate(names)],
        "edges": [{"source": a, "target": b, "weight": w, "threshold": 0.1} for a, b, w in edges],
    }


@pytest.mark.parametrize(
    "names, edges, message",
    [
        (("s1_lat", "s2_lat"), [(0, 1, 0.5), (0, 1, 0.9)], "edge 1 0 -> 1 is already listed"),
        (("s1_lat", "s2_lat"), [(0, 1, 0.5), (1, 1, 0.9)], "edge 1 is a self-loop on node 1"),
        (("s1_lat", "s1_lat"), [(0, 1, 0.5)], "node 1 'name' 's1_lat' is already listed"),
    ],
)
def test_network_payload_rejects_repeats_and_self_loops(names, edges, message):
    with pytest.raises(MalformedNetwork, match=message):
        mio.network_from_payload(network_payload(names, edges))


def test_network_diff_verb_rejects_an_edge_listed_twice(tmp_path, capsys):
    good = write(tmp_path / "good.json", json.dumps(network_payload(("a", "b"), [(0, 1, 0.5)])))
    twice = network_payload(("a", "b"), [(0, 1, 0.5), (0, 1, 0.9)])
    bad = write(tmp_path / "bad.json", json.dumps(twice))
    code = main(
        ["diff", "--kind", "network", "--baseline", str(good), "--comparison", str(bad),
         "--out", str(tmp_path / "diff.json")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "MalformedNetwork" and "edge 1 0 -> 1" in record["message"]
    assert not (tmp_path / "diff.json").exists()


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


@pytest.mark.parametrize("text, error, message", [
    ("s1_lat,s2_lat\n1.0,1e200\n2.0,-1e200\n0.5,3e200\n", "VarianceOverflow",
     "channel s2_lat has a variance that overflows float64"),
    (b"s1_lat,s2_lat\n1.0,2.0\n3.0,\xff4.0\n", "ParseError",
     "line 3, column 2: byte 0xff is not UTF-8"),
])
def test_fit_report_reports_an_unusable_record(tmp_path, capsys, text, error, message):
    """One typed JSON error record and no report, with no warning on the way."""
    data, out = tmp_path / "x.csv", tmp_path / "fit.json"
    data.write_bytes(text if isinstance(text, bytes) else text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit-report", "--input", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": error, "message": message}
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


def assert_out_of_memory_record(capsys, code):
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "MemoryError" and "Unable to allocate" in record["message"]


# Both arrays are past 2^48 bytes, beyond any address space the allocator can map,
# so each allocation fails at once, whatever the kernel's overcommit setting.
def test_generate_out_of_memory_is_one_record(tmp_path, capsys):
    # the 10^7 x 10^7 coupling matrix: 728 TiB of float64
    spec = generator_json(tmp_path, n_channels=10_000_000,
                          edges=[{"source": 1, "target": 2, "weight": 0.5}])
    out = tmp_path / "data.csv"
    assert_out_of_memory_record(capsys, main(["generate", "--spec", str(spec), "--out", str(out)]))
    assert not out.exists()


def test_omii_out_of_memory_is_one_record(tmp_path, capsys):
    # the 10^13 x 200 permutation bank: 1.78 PiB of uint8
    data = tmp_path / "d.csv"
    assert main(["generate", "--spec", str(generator_json(tmp_path, n_samples=200)),
                 "--out", str(data)]) == 0
    prefix = tmp_path / "net"
    code = main(["omii", "--input", str(data), "--axis", "lateral", "--family", "gaussian",
                 "--n-shuffles", str(10**13), "--seed", "4", "--out-prefix", str(prefix)])
    assert_out_of_memory_record(capsys, code)
    assert not (tmp_path / "net.json").exists()


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
    """A pipeline config on `pipeline_inputs`; overrides of `OmiiConfig` fields go to `omii`."""
    grid, base, dam = pipeline_inputs(tmp_path)
    omii = dict(family="gaussian", theta=0.1, n_shuffles=25, seed=99)
    for name in [f.name for f in dataclasses.fields(OmiiConfig) if f.name in overrides]:
        omii[name] = overrides.pop(name)
    kwargs = dict(
        baseline_label="baseline",
        baseline_path=str(base),
        scenarios=(("damage1", str(dam)),),
        grid_path=str(grid),
        axis=Axis.LATERAL,
        omii=OmiiConfig(**omii),
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
    omii_cfg = dataclasses.replace(cfg.omii, seed=derive_seed(99, "omii", label))
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
            omii=OmiiConfig("gaussian", theta=0.1, n_shuffles=10, seed=1),
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


@pytest.mark.parametrize("label", [".", "..", "d\udcff", "a\nb", "d\r", "\u2028d", "a\tb",
                                   "a b", "d\t", " d", "d\u3000", "\xa0d"])
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


@pytest.mark.parametrize("taken", ["d", "diff_b_vs_d"])
def test_pipeline_with_a_file_named_like_a_bundle_directory_writes_nothing(
    tmp_path, capsys, taken
):
    grid, base, dam = pipeline_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    write(out / taken, "not a directory\n")
    code = main(
        ["pipeline", "--baseline", f"b={base}", "--scenario", f"d={dam}", "--grid", str(grid),
         "--axis", "lateral", "--family", "gaussian", "--n-shuffles", "10", "--seed", "1",
         "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == "FileExistsError"
    assert list(out.iterdir()) == [out / taken]


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
            omii=OmiiConfig("gaussian", theta=0.1, n_shuffles=10, seed=1),
            out_dir=str(tmp_path / "o"),
        )


# ------------------------------------------------------------ provenance

# Where each verb writes; the one argument its config_hash leaves out.
OUTPUT_OPTIONS = {"generate": "--out", "fit-report": "--out", "pairwise-mi": "--out",
                  "omii": "--out-prefix", "diff": "--out", "pipeline": "--out"}
OMII_VERBS = ("omii", "pipeline")
ESTIMATOR = ["--family", "gaussian", "--seed", "1"]
# argv templates over the files of `verb_files`
BASE_ARGV = {
    "generate": ["--spec", "{spec}"],
    "fit-report": ["--input", "{a}"],
    "pairwise-mi": ["--input", "{a}", "--grid", "{grid}", "--axis", "lateral", *ESTIMATOR],
    "omii": ["--input", "{a}", "--axis", "lateral", "--n-shuffles", "20", *ESTIMATOR],
    "diff": ["--kind", "mi-map", "--baseline", "{map_a}", "--comparison", "{map_b}"],
    "pipeline": ["--baseline", "h={a}", "--scenario", "d={b}", "--grid", "{grid}",
                 "--axis", "lateral", "--n-shuffles", "20", *ESTIMATOR],
}
# Per verb that hashes its config, each argument outside `OmiiConfig` and argv that
# changes it, appended to the base (the last value given wins). `--kind` needs inputs
# of its kind. The `OmiiConfig` fields of `OMII_VERBS` are changed by `omii_change`.
CHANGES = {
    "fit-report": {"input": ["--input", "{b}"], "seed": ["--seed", "2"]},
    "pairwise-mi": {"input": ["--input", "{b}"], "grid": ["--grid", "{grid2}"],
                    "axis": ["--axis", "vertical"], "scenario": ["--scenario", "d"],
                    "family": ["--family", "laplace"], "seed": ["--seed", "2"]},
    "omii": {"input": ["--input", "{b}"], "axis": ["--axis", "vertical"],
             "grid": ["--grid", "{grid}"]},
    "diff": {"kind": ["--kind", "network", "--baseline", "{net_a}", "--comparison", "{net_b}"],
             "baseline": ["--baseline", "{map_b}"], "comparison": ["--comparison", "{map_a}"]},
    "pipeline": {"baseline": ["--baseline", "h={b}"], "scenario": ["--scenario", "e={a}"],
                 "grid": ["--grid", "{grid2}"], "axis": ["--axis", "vertical"]},
}
HASHED = [(verb, f.name) for verb in OMII_VERBS for f in dataclasses.fields(OmiiConfig)]
HASHED += [(verb, name) for verb, changes in CHANGES.items() for name in changes]


@pytest.fixture(scope="module")
def verb_files(tmp_path_factory):
    """Two 4-sensor records on both axes, two copies of their grid, a generator
    spec, and the MI maps and networks of both records."""
    d = tmp_path_factory.mktemp("verbs")
    rng = np.random.default_rng(8)
    channels = tuple(ChannelId(s, axis) for axis in Axis for s in range(1, 5))
    files = {"grid": str(small_grid_csv(d)), "spec": str(generator_json(d))}
    files["grid2"] = str(write(d / "grid2.csv", Path(files["grid"]).read_text()))
    for name in ("a", "b"):
        data = rng.standard_normal((800, 8))
        data[:, 1:4] += 0.7 * data[:, :3]
        files[name] = str(d / f"{name}.csv")
        mio.write_timeseries_csv(TimeSeriesMatrix(data, channels), files[name])
        files[f"map_{name}"], files[f"net_{name}"] = str(d / f"{name}_mi.csv"), str(d / f"{name}.json")
        assert main(["pairwise-mi", *fill(BASE_ARGV["pairwise-mi"], files, a=files[name]),
                     "--out", files[f"map_{name}"]]) == 0
        assert main(["omii", *fill(BASE_ARGV["omii"], files, a=files[name]),
                     "--out-prefix", str(d / name)]) == 0
    return files


def fill(argv, files, **more):
    return [token.format(**{**files, **more}) for token in argv]


def parsed(verb, argv) -> argparse.Namespace:
    return build_parser().parse_args([verb, *argv, OUTPUT_OPTIONS[verb], "out"])


def omii_change(verb, argv, name) -> list[str]:
    """argv giving `OmiiConfig` field `name` another value than `argv` gives it."""
    value = getattr(_omii_config(parsed(verb, argv)), name)
    if isinstance(value, enum.Enum):
        other = next(member.value for member in type(value) if member is not value)
    else:
        other = value + 1 if isinstance(value, int) else value / 2
    return ["--" + name.replace("_", "-"), str(other)]


def written_hash(verb, argv, out) -> str:
    assert main([verb, *argv, OUTPUT_OPTIONS[verb], str(out)]) == 0
    path = {"omii": f"{out}.json", "pipeline": out / "run_config.json"}.get(verb, out)
    return re.search(r"config_hash\W+([0-9a-f]{64})", Path(path).read_text()).group(1)


@pytest.mark.parametrize("verb", sorted(CHANGES))
def test_every_argument_but_the_output_has_a_hash_case(verb):
    omii_fields = {f.name for f in dataclasses.fields(OmiiConfig)} if verb in OMII_VERBS else set()
    output = OUTPUT_OPTIONS[verb].lstrip("-").replace("-", "_")
    assert set(vars(parsed(verb, BASE_ARGV[verb]))) - {"verb", "func", output} == {
        *CHANGES[verb], *omii_fields}


@pytest.mark.parametrize("verb, name", HASHED)
def test_config_hash_changes_with_any_argument(tmp_path, verb_files, verb, name):
    argv = fill(BASE_ARGV[verb], verb_files)
    change = fill(CHANGES[verb][name], verb_files) if name in CHANGES[verb] else None
    changed = argv + (change or omii_change(verb, argv, name))
    assert getattr(parsed(verb, argv), name) != getattr(parsed(verb, changed), name)
    assert written_hash(verb, argv, tmp_path / "one") != written_hash(verb, changed, tmp_path / "two")


@pytest.mark.parametrize("verb", sorted(OUTPUT_OPTIONS))
def test_output_path_changes_no_written_byte(tmp_path, verb_files, verb):
    trees = []
    for run in (tmp_path / "one", tmp_path / "two"):
        run.mkdir()
        argv = [verb, *fill(BASE_ARGV[verb], verb_files), OUTPUT_OPTIONS[verb], str(run / "out")]
        assert main(argv) == 0
        trees.append({p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()})
    assert trees[0] and trees[0] == trees[1]


# (verb, a unique prefix of one of its options, that option): each output option less
# its last letter, and the prefixes that argparse's allow_abbrev used to take
PREFIXES = [(verb, option[:-1], option) for verb, option in OUTPUT_OPTIONS.items()]
PREFIXES += [("omii", "--out", "--out-prefix"), ("omii", "--n", "--n-shuffles"),
             ("pipeline", "--the", "--theta")]


@pytest.mark.parametrize("verb, prefix, option", PREFIXES)
def test_an_option_is_taken_only_when_spelled_in_full(verb, prefix, option):
    argv = [*BASE_ARGV[verb], OUTPUT_OPTIONS[verb], "out"]
    if option not in argv:
        argv += [option, "0.2"]
    assert getattr(build_parser().parse_args([verb, *argv]), option[2:].replace("-", "_"))
    with pytest.raises(SystemExit) as raised:
        main([verb, *(prefix if token == option else token for token in argv)])
    assert raised.value.code == 2
