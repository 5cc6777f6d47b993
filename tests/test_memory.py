"""Traced peak memory of the record path, in records of one paper-scale matrix.

numpy reports its buffers to `tracemalloc`, so the traced peak of a call counts
every T x N array it holds at once. Each function runs once on a small input
first, so that one-time allocations (imports, caches) stay out of the count.
"""

import tracemalloc

import numpy as np
import pytest

from miinet import io as mio
from miinet.core import standardize
from miinet.estimators import Family
from miinet.omii import OmiiConfig, infer_network
from miinet.synthetic import (
    GeneratorSpec,
    chain_coupling,
    generate_contemporaneous,
    generate_var,
)

T, N = 11536, 30  # a 90 s scenario at 128 Hz on the 30-sensor deck
RECORD_BYTES = T * N * 8


def traced_peak(call) -> float:
    """The traced peak of call(), its result included, in records."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / RECORD_BYTES
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """(a paper-scale scenario CSV, a 2-row CSV of the same channels, the record)."""
    out = tmp_path_factory.mktemp("record")
    x = generate_contemporaneous(GeneratorSpec(N, T, chain_coupling(N, 0.5), seed=3))
    mio.write_timeseries_csv(x, out / "record.csv")
    header = ",".join(ch.name for ch in x.channels)
    (out / "small.csv").write_text(f"{header}\n" + "".join(
        ",".join([cell] * N) + "\n" for cell in ("0.5", "1.5")
    ))
    return out / "record.csv", out / "small.csv", x


def test_reading_a_record_holds_at_most_one_and_three_quarter_records(record):
    path, small, _ = record
    mio.read_timeseries_csv(small)
    assert traced_peak(lambda: mio.read_timeseries_csv(path)) <= 1.75


@pytest.fixture(scope="module")
def exports(record, tmp_path_factory):
    """The record as other tools write it: np.savetxt's %.6e, integer counts (%d), and
    the package's own repr file followed by blank lines."""
    path, _, x = record
    out = tmp_path_factory.mktemp("exports")
    header = ",".join(ch.name for ch in x.channels)
    np.savetxt(out / "e.csv", x.data, "%.6e", ",", header=header, comments="")
    np.savetxt(out / "d.csv", np.round(x.data * 1000), "%d", ",", header=header, comments="")
    (out / "blank.csv").write_bytes(path.read_bytes() + b"\r\n" * 3)
    return {"%.6e": out / "e.csv", "%d": out / "d.csv", "repr + blank lines": out / "blank.csv"}


@pytest.mark.parametrize("export", ["%.6e", "%d", "repr + blank lines"])
def test_reading_an_export_holds_at_most_one_and_three_quarter_records(record, exports, export):
    mio.read_timeseries_csv(record[1])
    assert traced_peak(lambda: mio.read_timeseries_csv(exports[export])) <= 1.75


def test_standardizing_a_read_record_holds_at_most_two_and_a_half_records(record):
    path, small, _ = record
    standardize(mio.read_timeseries_csv(small))
    assert traced_peak(lambda: standardize(mio.read_timeseries_csv(path))) <= 2.5


def test_selecting_columns_allocates_them_once(record):
    x = record[2]
    x.select([1, 0])
    assert traced_peak(lambda: x.select(range(N - 1, -1, -1))) <= 1.25


@pytest.mark.parametrize("generate", [generate_var, generate_contemporaneous])
def test_generating_a_record_holds_at_most_two_and_three_quarter_records(generate):
    coupling = chain_coupling(N, 0.5)
    generate(GeneratorSpec(N, 50, coupling, seed=3))
    spec = GeneratorSpec(N, T, coupling, seed=3)
    assert traced_peak(lambda: generate(spec)) <= 2.75


@pytest.mark.parametrize("n_shuffles, bound", [(100, 4.5), (500, 10)])
def test_infer_network_holds_its_bank_and_one_block_of_shuffles(record, n_shuffles, bound):
    cfg = OmiiConfig(Family.GAUSSIAN, n_shuffles=n_shuffles, seed=3)
    small = generate_contemporaneous(GeneratorSpec(N, 500, chain_coupling(N, 0.5), seed=3))
    infer_network(small, cfg)
    x = record[2]
    assert traced_peak(lambda: infer_network(x, cfg)) <= bound
