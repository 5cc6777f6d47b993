"""The block parser of `miinet.floatparse` against `float`, bit for bit."""

import re
from unittest import mock

import numpy as np
import pytest

from miinet import floatparse as fp

CELLS = 200_000
DRAWS = 210_000  # some fall outside the fixed range


def parse(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(values, mask of the cells parsed in numpy) of cells given one a line to parse_block."""
    values = np.empty((len(cells), 1))
    masks, decimal_cells = [], fp._decimal_cells

    def spy(*args):
        masks.append(decimal_cells(*args))
        return masks[-1]

    step = fp.BLOCK_BYTES // 32  # lines of at most 31 bytes and a line end
    with mock.patch.object(fp, "_decimal_cells", spy):
        for k in range(0, len(cells), step):
            block = bytearray(fp.PAD) + "".join(c + "\n" for c in cells[k:k + step]).encode()
            assert fp.parse_block(block, len(block), values[k:]) == len(cells[k:k + step])
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
    values, decimal = parse(cells)
    assert decimal.all()
    assert values.tobytes() == x.tobytes()


def test_parser_reads_long_fixed_cells_as_float_does():
    """Up to 24 digits, up to 22 after the point: _nearest below 2^64, `float` from there."""
    rng = np.random.default_rng(21)
    digits = rng.integers(0, 10, (CELLS, 24)).astype(np.uint8) + ord("0")
    total = rng.integers(18, 25, CELLS)
    fraction = np.minimum(rng.integers(1, 23, CELLS), total - 1)
    cells = []
    for row, n, f, sign in zip(digits.tolist(), total.tolist(), fraction.tolist(),
                               rng.choice(["", "-"], CELLS).tolist()):
        text = bytes(row[:n]).decode()
        cells.append(f"{sign}{text[:n - f]}.{text[n - f:]}")
    values, decimal = parse(cells)
    assert values.tobytes() == float_bits(cells)
    expected = np.array([in_parser_range(c) for c in cells])
    assert expected.mean() > 0.05 and (decimal == expected).all()


def float_bits(cells: list[str]) -> bytes:
    return np.array([float(c) for c in cells]).tobytes()


def log_uniform(rng, low: float, high: float) -> np.ndarray:
    return signed(rng, 10 ** rng.uniform(low, high, CELLS))


DECIMAL = re.compile(r"-?([0-9]+)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]{1,8}))?")


def in_parser_range(cell: str) -> bool:
    """Whether parse_block reads the cell in numpy: a decimal of at most 24 digits with
    m < 2^64 and |f| <= 22, and m <= 2^53 when f < 0, for m / 10^f its value."""
    match = DECIMAL.fullmatch(cell)
    if match is None:
        return False
    whole, fraction, exponent = match.group(1), match.group(2) or "", match.group(3) or "0"
    f, m = len(fraction) - int(exponent), int(whole + fraction)
    return len(whole + fraction) <= 24 and m < 2**64 and abs(f) <= 22 and (f >= 0 or m <= 2**53)


# printf exports, as np.savetxt writes them, by format
PRINTF_FORMS = {
    "%d": lambda rng: rng.integers(-10**18, 10**18, CELLS),
    "%d, up to 25 digits": lambda rng: [int(v) for v in log_uniform(rng, 0, 25)],
    "%.18e": lambda rng: log_uniform(rng, -4, 23),
    "%.18e, standard normal": lambda rng: rng.standard_normal(CELLS),
    "%.6e": lambda rng: log_uniform(rng, -16, 29),
    "%.6e, any exponent": lambda rng: log_uniform(rng, -300, 300),
    "%.6g": lambda rng: log_uniform(rng, -12, 22),
}


@pytest.mark.parametrize("form", PRINTF_FORMS)
def test_parser_reads_printf_cells_as_float_does(form):
    cells = [form.split(",")[0] % v for v in PRINTF_FORMS[form](np.random.default_rng(22))]
    values, decimal = parse(cells)
    assert values.tobytes() == float_bits(cells)
    expected = np.array([in_parser_range(c) for c in cells])
    assert expected.mean() > 0.05 and (decimal == expected).all()


# 2^64 - 1, 2^64, 2^64 + 1, and the largest 19-digit string
BOUNDARY = ["18446744073709551615", "18446744073709551616", "18446744073709551617",
            "9999999999999999999"]


@pytest.mark.parametrize("digits", BOUNDARY)
def test_parser_rounds_in_numpy_only_digit_integers_below_2_64(digits):
    """Whole, with a point inside, with e-n or e+n, signed or not: each cell as `float`
    reads it, and in numpy exactly when m < 2^64 and f >= 0 (e+2 makes f < 0)."""
    pointed = f"{digits[:-1]}.{digits[-1]}"
    forms = [digits, pointed, f"{digits}e-5", f"{pointed}e+1", f"{pointed}E-21", f"{digits}e+2"]
    cells = [sign + form for form in forms for sign in ("", "-")]
    values, decimal = parse(cells)
    assert values.tobytes() == float_bits(cells)
    below = int(digits) < 2**64
    assert decimal.tolist() == [below and not c.endswith("e+2") for c in cells]
    assert decimal.tolist() == [in_parser_range(c) for c in cells]


def test_parser_reads_mixed_cells_as_float_does():
    """%d, %.18e, %.6e, %.6g, %f and repr cells side by side, some with E, + or zeros."""
    rng = np.random.default_rng(23)
    x = log_uniform(rng, -25, 30)
    forms = ["%d", "%.18e", "%.6e", "%.6g", "%.3f", "%.17g", "%.4E", "%+.2e", "%r"]
    cells = [fmt % (int(v) if fmt == "%d" else v)
             for fmt, v in zip(rng.choice(forms, CELLS).tolist(), x.tolist())]
    cells = [c.replace("e+", "e+000") if k % 7 == 0 else c for k, c in enumerate(cells)]
    values, decimal = parse(cells)
    assert values.tobytes() == float_bits(cells)
    assert (decimal == np.array([in_parser_range(c) for c in cells])).all()


@pytest.mark.parametrize("cell", [
    "0.0", "-0.0", "007.5", "7414522648373449.0", "9007199254740993.0", "1.7976931348623157",
    "123456789012.345678901234", "0.0000000000000000000001", "-0.1000000000000000055511151231",
    "1e-05", "7.38258248760424e-05", "+1.5", "1.", ".5", "1_0", "١.5", " 2.5",
    "-0", "0", "007", "5.", "-5.", "123456789012345678901234", "1234567890123456789012345",
    "9007199254740991", "9007199254740992", "9007199254740993", "18446744073709551617",
    "1e22", "1e23", "-1e22", "1e-22", "1e-23", "1e-400", "1e+308", "1e400", "1E5", "1.e5",
    "1.7976931348623157e308", "4.9e-324", "1e+05", "1e+0005", "1e-0005", "1e00000000",
    "1e000000000", "2.5E+01", "9007199254740993e1", "123456789012345678901234e-22",
    "-0e5", "0e-5", "1e", "1e+", "1e5e5", "1e5.0", "1ee5", "e5", "1e 5", "1e+-5", "1e١",
    "1e:", "-2.5E+1;",
])
def test_parser_reads_any_cell_as_float_does(cell):
    try:
        expected = np.float64(float(cell))
    except ValueError:
        expected = None
    values = np.empty((2, 1))
    block = bytearray(fp.PAD) + f"{cell}\n0.5\n".encode()
    rows = fp.parse_block(block, len(block), values)
    if expected is None or not np.isfinite(expected):
        assert rows is None
    else:
        assert rows == 2 and values[0].tobytes() == expected.tobytes()
