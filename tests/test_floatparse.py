"""The block parser of `miinet.floatparse` against `float`, bit for bit."""

from unittest import mock

import numpy as np
import pytest

from miinet import floatparse as fp

CELLS = 200_000
DRAWS = 210_000  # some fall outside the fixed range


def parse(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(values, mask of the cells parsed in numpy) of cells given one a line to parse_block."""
    values = np.empty((len(cells), 1))
    masks, fixed_cells = [], fp._fixed_cells

    def spy(*args):
        masks.append(fixed_cells(*args))
        return masks[-1]

    step = fp.BLOCK_BYTES // 32  # lines of at most 26 bytes and a line end
    with mock.patch.object(fp, "_fixed_cells", spy):
        for k in range(0, len(cells), step):
            block = bytearray(fp.PAD) + "".join(c + "\n" for c in cells[k:k + step]).encode()
            rows, _ = fp.parse_block(block, len(block), values[k:], step)
            assert rows == len(cells[k:k + step])
    return values.ravel(), np.concatenate(masks)


def in_fixed_range(x: np.ndarray) -> np.ndarray:
    """The values that repr writes in fixed notation, -?D+.D+."""
    return x[(np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)]


def signed(rng, x: np.ndarray) -> np.ndarray:
    return x * rng.choice([-1.0, 1.0], x.size)


def near_powers_of_two(rng) -> np.ndarray:
    """Values up to 4 ulps from 2^k, for every 2^k in the fixed range."""
    powers = np.ldexp(1.0, rng.integers(-13, 54, DRAWS))
    return (powers.view(np.int64) + rng.integers(-4, 5, DRAWS)).view(np.float64)


def random_bits(rng) -> np.ndarray:
    """Random significands under each binary exponent of the fixed range."""
    exponents = rng.integers(1009, 1077, DRAWS).astype(np.uint64) << np.uint64(52)
    significands = rng.integers(0, 1 << 52, DRAWS, dtype=np.uint64)
    return (exponents | significands).view(np.float64)


REPR_CLASSES = {
    "log-uniform over [1e-4, 1e16)": lambda rng: signed(rng, 10 ** rng.uniform(-4, 16, DRAWS)),
    "standard normal": lambda rng: rng.standard_normal(DRAWS),
    "near powers of two": lambda rng: signed(rng, near_powers_of_two(rng)),
    "few-digit decimals": lambda rng: signed(
        rng, rng.integers(0, 10**4, DRAWS) / 10.0 ** rng.integers(0, 5, DRAWS)),
    "random bits": lambda rng: signed(rng, random_bits(rng)),
}


@pytest.mark.parametrize("name", REPR_CLASSES)
def test_parser_reads_repr_cells_as_float_does(name):
    rng = np.random.default_rng(20)
    x = in_fixed_range(REPR_CLASSES[name](rng))
    assert x.size >= CELLS
    cells = [repr(v) for v in x.tolist()]
    values, fixed = parse(cells)
    assert fixed.all()
    assert values.tobytes() == x.tobytes()


def test_parser_reads_long_fixed_cells_as_float_does():
    """Up to 24 digits, up to 22 after the point: the 128-bit rounding path."""
    rng = np.random.default_rng(21)
    digits = rng.integers(0, 10, (CELLS, 24)).astype(np.uint8) + ord("0")
    total = rng.integers(18, 25, CELLS)
    fraction = np.minimum(rng.integers(1, 23, CELLS), total - 1)
    cells = []
    for row, n, f, sign in zip(digits.tolist(), total.tolist(), fraction.tolist(),
                               rng.choice(["", "-"], CELLS).tolist()):
        text = bytes(row[:n]).decode()
        cells.append(f"{sign}{text[:n - f]}.{text[n - f:]}")
    values, fixed = parse(cells)
    assert fixed.all()
    assert values.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.parametrize("cell", [
    "0.0", "-0.0", "007.5", "7414522648373449.0", "9007199254740993.0", "1.7976931348623157",
    "123456789012.345678901234", "0.0000000000000000000001", "-0.1000000000000000055511151231",
    "1e-05", "7.38258248760424e-05", "+1.5", "1.", ".5", "1_0", "١.5", " 2.5",
])
def test_parser_reads_any_cell_as_float_does(cell):
    values, _ = parse([cell, "0.5"])
    assert values[:1].tobytes() == np.float64(float(cell)).tobytes()
