"""CSV text of float64 rows parsed in numpy, each cell exactly as `float` reads it.

`parse_block` reads decimal cells, -?D+(.D*)?([eE][+-]?D+)? with at most 24
digits before any exponent (repr's forms, and printf's %d, %e, %f and %g): the
digits make an integer m, checked and converted with byte-parallel (SWAR)
arithmetic on 64-bit words (Lemire 2021, "Number Parsing at a Gigabyte per
Second"), and m / 10^f, f = (digits after the point) - (exponent), is rounded
once, exactly, when m < 2^64 and 0 <= f <= 22, or -22 <= f < 0 and m <= 2^53
(Clinger 1990, "How to read floating point numbers accurately"). Any other
cell goes to `float` itself. It is a module of its own, apart from the
formatter, because a process compiles each module from source when bytecode
is not cached, and one module of both halves raised the peak RSS of the
laplace-mc benchmark run by about 0.3 MB.
"""

from __future__ import annotations

import csv

import numpy as np

from .floatrepr import _SLOT_WORDS, _TEN, _U, _columns

# Reading: CSV lines of numbers are parsed a block of whole lines at a time, held in a
# buffer after PAD bytes. Blocks of 256 KB read no faster than 64 KB ones, and raise
# the peak RSS of a process that reads records by about 0.6 MB.
BLOCK_BYTES = 1 << 16
PAD = 32
# a cell read here has at most 24 digits before its exponent, the three words of a
# slot, and |f| <= 22: 5^22 < 2^53
_MAX_DIGITS, _MAX_F = 8 * _SLOT_WORDS, 22
_ZEROS = _U(0x30303030_30303030)  # ASCII "0" in every byte
_HIGH_BITS = _U(0x80808080_80808080)
# _LAST[n]: the words of a 24-byte window whose last n bytes are all ones
_LAST = _columns([bytes(_MAX_DIGITS - n) + b"\xff" * n for n in range(_MAX_DIGITS + 1)]).T.copy()
_POW5 = np.array([5**f for f in range(_MAX_F + 1)], np.uint64)
_POW5_FLOAT = _POW5.astype(np.float64)
# indexed by f + 22 + 45 * negative for f = -22..22, all exact: the factors 10^-f (f < 0),
# and the signed divisors 10^f (1 for f < 0) and scales 2^-f
_SCALES = [(s, f) for s in (1, -1) for f in range(-_MAX_F, _MAX_F + 1)]
_TIMES = np.array([10**max(-f, 0) for s, f in _SCALES], float)
_OVER = np.array([s * 10**max(f, 0) for s, f in _SCALES], float)
_POW2_SIGNED = np.array([s * 0.5**max(f, 0) for s, f in _SCALES])
_HIDDEN = _U(1 << 52)
# indexed by e % 128 for the biased exponent e of a guess M 2^(k+2), k = e - 1077, which
# is 1024 to 1102: the shifts that make m 2^-k and 4 M 5^f 2^k whole numbers
_UP = np.array([max(53 - e, 0) for e in range(128)], np.uint64)
_DOWN = np.array([min(max(e - 53, 0) + 2, 63) for e in range(128)], np.uint64)
_HALF = _DOWN - _U(1)  # and half an ulp in the residual's units


def _blocks(raw, start: int, stop: int):
    """(buffer, end) for each block of whole lines of bytes [start, stop) of raw.

    The block is buffer[PAD:end], in one buffer reused from block to block; a
    last line without a line end gets one. The last item is None if a line does
    not fit in a block or the file ends before `stop`.
    """
    buf = bytearray(PAD + BLOCK_BYTES + 1)  # and the added line end
    view = memoryview(buf)
    raw.seek(start)
    pos, fill = start, PAD
    while pos < stop or fill > PAD:
        want = min(stop - pos, BLOCK_BYTES - (fill - PAD))
        got = raw.readinto(view[fill:fill + want]) if want else 0
        if want and not got:
            yield None
            return
        pos, fill = pos + got, fill + got
        if pos < stop:
            cut = buf.rfind(b"\n", PAD, fill) + 1
            if not cut:
                yield None
                return
        else:
            if buf[fill - 1] != ord("\n"):
                buf[fill] = ord("\n")
                fill += 1
            cut = fill
        yield buf, cut
        rest = fill - cut
        buf[PAD:PAD + rest] = buf[cut:fill]
        fill = PAD + rest


def count_lines(raw, start: int, stop: int) -> int | None:
    """The lines of bytes [start, stop) of the binary file raw, or None if _blocks fails."""
    total = 0
    for block in _blocks(raw, start, stop):
        if block is None:
            return None
        buf, end = block
        total += np.count_nonzero(np.frombuffer(buf, np.uint8, end - PAD, PAD) == ord("\n"))
    return total


def parse_lines(raw, start: int, stop: int, out: np.ndarray) -> bool:
    """Parse bytes [start, stop) of raw into exactly the rows of `out`: False if that fails."""
    row = 0
    for block in _blocks(raw, start, stop):
        rows = None if block is None else parse_block(*block, out[row:])
        if rows is None:
            return False
        row += rows
    return row == len(out)


def parse_block(buf: bytearray, end: int, out: np.ndarray) -> int | None:
    """Parse the CSV lines in buf[PAD:end] into the first rows of `out`; how many.

    Each line ends in LF or CRLF and holds out.shape[1] cells, which go into the
    C-contiguous float64 array `out` as `float` reads them: decimal cells here,
    the rest by `float` itself. None rejects the block: it holds a quote, a lone
    CR, a blank line, a line of another width, a cell of more bytes than
    csv.field_size_limit(), or one that `float` rejects or reads as NaN or
    infinity. Without those, csv.reader splits the lines into the same cells.
    """
    text = np.frombuffer(buf, np.uint8, end - PAD, PAD)
    marks = np.flatnonzero(text <= ord("."))  # separators, points, signs, CRs, odd bytes
    kind = text[marks]
    ends = marks.compress((kind == ord(",")) | (kind == ord("\n")))
    dots = marks.compress(kind == ord("."))
    lf, cr = np.count_nonzero(kind == ord("\n")), np.count_nonzero(kind == ord("\r"))
    del marks, kind  # each del here and below lowers the peak of a read, 1.33 to 1.22 records
    n_cols = out.shape[1]
    rows = len(ends) // n_cols
    if (rows > len(out) or len(ends) != rows * n_cols or lf != rows
            or buf.find(b'"', PAD, end) >= 0
            or not (text[ends[n_cols - 1::n_cols]] == ord("\n")).all()):
        return None
    carriage = text[ends - 1] == ord("\r")  # the CR of a CRLF
    if cr != np.count_nonzero(carriage[n_cols - 1::n_cols]):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    stops = ends - carriage
    if (stops - starts).max() > csv.field_size_limit():
        return None
    values = out[:rows].reshape(-1)
    odd = np.flatnonzero(~_decimal_cells(buf, end, text, dots, starts, stops, values))
    cells = list(map(buf.__getitem__, map(slice, (starts[odd] + PAD).tolist(),
                                          (stops[odd] + PAD).tolist())))
    try:
        # float reads ASCII bytes as the str they spell; others must be decoded first
        x = np.array(list(map(float, cells)) if b"".join(cells).isascii()
                     else [float(cell.decode()) for cell in cells], float)
    except ValueError:  # UnicodeDecodeError among them
        return None
    if not np.isfinite(x).all():
        return None
    values[odd] = x
    return rows


def _decimal_cells(buf, end, text, dots, starts, stops, values) -> np.ndarray:
    """Mask of the cells -?D+(.D*)?([eE][+-]?D+)? that are parsed into `values` here.

    A cell's mantissa ends at its e or E, else at the cell's end. With the
    points taken out of the block, the mantissa's digits end its 24-byte window;
    the bytes before them count as "0", and SWAR arithmetic checks and converts
    the three words to m (Lemire 2021). m / 10^f is rounded once (Clinger 1990):
    for m <= 2^53, in one float64 division by 10^f when f >= 0 and one product
    with 10^-f when f < 0, both exact; for 2^53 < m < 2^64 and f >= 0, by
    _nearest. A cell of m >= 2^64 is left to `float`.
    """
    mantissa_end, powered, formed = stops, None, True
    if buf.find(b"e", PAD, end) >= 0 or buf.find(b"E", PAD, end) >= 0:
        powered, at, exponent = _exponents(buf, end, text, stops)
        mantissa_end = stops.copy()
        mantissa_end[powered] = at
    if not len(dots):
        before, point, points = 0, mantissa_end, 0  # the points before each cell's end
    elif len(dots) == len(stops) and (dots < stops).all() and (dots[1:] > stops[:-1]).all():
        before, point, points = np.arange(1, len(stops) + 1), dots, 1  # one a cell: repr's
    else:
        before = np.searchsorted(dots, stops)
        points = before - np.searchsorted(dots, starts)
        point = np.where(points == 1, dots.take(before - 1, mode="clip"), mantissa_end)
        formed = points <= 1
    negative = text[starts] == ord("-")
    whole = point - starts - negative  # digits before the point
    shift = mantissa_end - point + (_MAX_F - points)  # f + 22: digits after the point + 22
    digits = whole + shift - _MAX_F
    if powered is not None:
        shift[powered] -= exponent
    fixed = (((whole - 1).view(np.uint64) < _MAX_DIGITS) & (digits <= _MAX_DIGITS)
             & (shift.view(np.uint64) <= 2 * _MAX_F) & formed)
    cells = np.flatnonzero(fixed)
    shift, digits, negative = shift[cells], digits[cells], negative[cells]
    last = (mantissa_end - before)[cells]  # where each mantissa ends once the points are out
    del whole, before, point, mantissa_end
    pointless = buf[PAD - _MAX_DIGITS:end].replace(b".", b"")  # after 24 NULs of PAD
    windows = np.ndarray((len(pointless) - _MAX_DIGITS + 1,), f"V{_MAX_DIGITS}", pointless,
                         0, (1,))[last]
    del pointless, last
    words = windows.view("<u8").astype(np.uint64, copy=False)  # _SLOT_WORDS a cell
    words ^= _ZEROS
    words &= np.take(_LAST, digits, 0).reshape(-1)  # digit values, 0 before them
    bad = _non_digits(words).reshape(-1, _SLOT_WORDS)
    sure = (bad[:, 0] | bad[:, 1] | bad[:, 2]) == _U(0)
    del bad
    chunks = _eight_digits(words).reshape(-1, _SLOT_WORDS)
    m = chunks[:, 0] * _U(10**16)
    m += chunks[:, 1] * _U(10**8)
    m += chunks[:, 2]  # mod 2^64: an m from 2^64 to 1845 10^16 wraps below 10^16
    sure &= (chunks[:, 0] < 1844) | ((chunks[:, 0] == 1844) & (m >= _U(1844 * 10**16)))
    del chunks, words
    big = m > _U(1 << 53)
    x = m.astype(np.float64)  # rounded once
    signed = shift + negative * (2 * _MAX_F + 1)
    if powered is not None:  # f < 0 too: m 10^-f, rounded once if m <= 2^53, else float's
        low = np.flatnonzero(shift < _MAX_F)
        x[low] *= _TIMES[signed[low]]
        sure[low] &= ~big[low]
        big[low] = False
    hard = np.flatnonzero(big)
    f = shift.take(hard) - _MAX_F
    del shift, big
    guess = x.take(hard)
    x /= _OVER[signed]
    guess /= _POW5_FLOAT[f]
    sure[hard] &= _nearest(m.take(hard), guess, f)
    x[hard] = guess * _POW2_SIGNED[signed.take(hard)]
    values[cells] = x
    fixed[cells] = sure
    return fixed


def _exponents(buf, end, text, stops):
    """(the cells with an exponent [+-]?D{1,8} after an e or E, where that is, its value).

    Only the span from the block's first e to its last is scanned. Any other
    cell's mantissa ends at its end, so that an e in it fails the digit check.
    """
    lo = min(k for k in (buf.find(b"e", PAD, end), buf.find(b"E", PAD, end)) if k >= 0) - PAD
    hi = max(buf.rfind(b"e", PAD, end), buf.rfind(b"E", PAD, end)) + 1 - PAD
    es = np.flatnonzero((text[lo:hi] | 0x20) == ord("e")) + lo
    cell = np.searchsorted(stops, es)  # the cell of each
    sign, ends = text[es + 1], stops[cell]
    n = ends - es - 1 - ((sign == ord("+")) | (sign == ord("-")))  # its digits, >= 0
    windows = np.ndarray((len(buf) - 7,), "V8", buf, 0, (1,))[ends + (PAD - 8)]
    words = windows.view("<u8").astype(np.uint64, copy=False)
    words ^= _ZEROS
    words &= _LAST[np.minimum(n, 8), -1]
    formed = ((n - 1).view(np.uint64) < 8) & (_non_digits(words) == _U(0))
    value = _eight_digits(words).view(np.int64)
    np.negative(value, out=value, where=sign == ord("-"))
    return cell[formed], es[formed], value[formed]  # one a cell: an e before another fails


def _non_digits(words: np.ndarray) -> np.ndarray:
    """The high bit of each byte of words that is not a digit value 0-9, 0 elsewhere."""
    bad = words + _U(0x76767676_76767676)
    bad |= words
    bad &= _HIGH_BITS
    return bad


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """x, whose bytes are digits 0-9, leading first, made the little-endian numbers they spell.

    The inverse of _digit_bytes, in place: tens and units join in each byte, then
    pairs of those in each 32-bit lane, in two multiplies (Lemire 2021).
    """
    lanes = _U(0x000000FF_000000FF)
    units = x >> _U(8)
    x *= _TEN
    x += units
    units = x >> _U(16)
    units &= lanes
    units *= _U(1 + (10_000 << 32))
    x &= lanes
    x *= _U(100 + (1_000_000 << 32))
    x += units
    x >>= _U(32)
    return x


def _nearest(m: np.ndarray, guess: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Round guess in place to m / 5^f, to nearest, ties to even; whether that is certain.

    guess, float64 m / 5^f with m rounded once, lies within 1.5 ulp of the
    quotient. For guess = M 2^(k+2), 2^52 <= M < 2^53, the residual
    m 2^-k - 4 M 5^f (both sides shifted up to whole numbers) is below 2^56, so
    that uint64 arithmetic mod 2^64 gives it exactly. It says on which side of
    the midpoints to the neighbours the quotient lies, and the guess moves at
    most one ulp: up past M + 1/2, down past M - 1/2, or past M - 1/4 when
    M = 2^52 and the ulp below is half as wide. At 1.5 ulp or more the result
    is not certain, and `float` reads that cell.
    """
    p = _POW5[f]
    bits = guess.view(np.uint64)
    exponent = ((bits >> _U(52)) & _U(127)).astype(np.intp)
    mant = (bits & _U((1 << 52) - 1)) | _HIDDEN
    residual = ((m << _UP[exponent]) - ((mant * p) << _DOWN[exponent])).view(np.int64)
    half = (p << _HALF[exponent]).view(np.int64)
    low = half >> (mant == _HIDDEN)  # the same below the guess
    odd = (mant & _U(1)) == _U(1)
    bits += (residual > half) | ((residual == half) & odd)
    bits -= (residual < -low) | ((residual == -low) & odd)
    return (residual < half * 3) & (residual > low * -3)
