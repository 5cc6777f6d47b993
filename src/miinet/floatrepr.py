"""CSV text of float64 rows in numpy, written as `repr` and `csv.writer` write it.

`repr` writes x in fixed notation when 1e-4 <= |x| < 1e16, with the shortest
digits that read back as x (of those, the closest to x, ties to even). Those
cells are formatted here a block at a time; zeros, subnormals and the cells
written in scientific notation go to `repr` itself. The digits are found as
Ryu finds them (Adams 2018, "Ryu: fast float-to-string conversion"), on exact
integers instead of Ryu's approximate 128-bit powers of 5. `floatparse` reads
such text back. Both keep to explicit np.uint64 scalars, so that numpy's type
promotion before NEP 50 computes the same bits.
"""

from __future__ import annotations

import itertools

import numpy as np

# Cells per block: larger blocks format no faster, and their arrays would raise the
# peak RSS of a process that writes a 30 x 11,536 record.
_BLOCK_CELLS = 4096


def csv_lines(rows: np.ndarray):
    """The CSV lines of float64 `rows` as bytes, one block of rows at a time.

    Each cell is its `repr`, each line ends in CRLF: the bytes of
    `csv.writer(fh).writerows(rows.tolist())`.
    """
    step = max(_BLOCK_CELLS // rows.shape[1], 1)
    return (_format_block(rows[k:k + step]) for k in range(0, len(rows), step))


# Ryu takes the shortest digits of x = m 2^e from v, v+ and v-, the floors of
# (4m, 4m+2, 4m-1-[m is not a power of two]) 2^(e-2) 10^s: x and the midpoints to its
# neighbours, which bound the reals that read back as x. In the fixed range they are
# exact: N 2^(e-2) 10^s = N B / 2^56, with B = 5^s 2^(e-2+s+56) a whole number below
# 2^62 for each binary exponent, so that 4m B fits in 128 bits. s = 17 - floor(log10
# 2^(e+52)) puts v at 17 to 19 digits and v+ - v- above 10, so a digit always goes.
_U = np.uint64
_TEN = _U(10)
_EXP_FIXED = (1009, 1076)  # the biased exponents of 1e-4 and of the largest double below 1e16
_SHIFT = 56


def _scales() -> tuple[np.ndarray, np.ndarray]:
    """(B, s) for each biased exponent in _EXP_FIXED."""
    scale, power = [], []
    for exp in range(_EXP_FIXED[0], _EXP_FIXED[1] + 1):
        s = 17 - ((exp - 1023) * 78913 >> 18)  # Ryu's floor(log10 2^k) for small k
        scale.append(5**s << (exp - 1077 + s + _SHIFT))
        power.append(s)
    return np.array(scale, np.uint64), np.array(power, np.intp)


_SCALE, _POWER = _scales()
_POW10 = np.array([10**k for k in range(20)], np.uint64)


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) uint64 halves of the 128-bit products a * b."""
    low32 = _U(0xFFFFFFFF)
    a_lo, a_hi, b_lo, b_hi = a & low32, a >> _U(32), b & low32, b >> _U(32)
    ll, hl = a_lo * b_lo, a_hi * b_lo
    mid = (ll >> _U(32)) + (hl & low32) + a_lo * b_hi
    return a_hi * b_hi + (hl >> _U(32)) + (mid >> _U(32)), (mid << _U(32)) | (ll & low32)


def _floor_shift(high: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the floor of (high, low) / 2^_SHIFT, whether the division is exact)."""
    exact = (low & _U((1 << _SHIFT) - 1)) == 0
    return (high << _U(64 - _SHIFT)) | (low >> _U(_SHIFT)), exact


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) with repr(x) == digits * 10**exponent, for 1e-4 <= |x| < 1e16."""
    bits = np.abs(x).view(np.uint64)
    exp = (bits >> _U(52)).astype(np.intp) - _EXP_FIXED[0]
    fraction = bits & _U((1 << 52) - 1)
    m = fraction | _U(1 << 52)
    scale = _SCALE[exp]
    high, low = _mul128(m << _U(2), scale)
    vr, exact = _floor_shift(high, low)
    up = low + (scale << _U(1))
    vp = _floor_shift(high + (up < low), up)[0]
    down = np.where(fraction != 0, scale << _U(1), scale)
    vm = _floor_shift(high - (low < down), low - down)[0]
    digits, dropped = _drop_digits(vr, vp, vm, exact)
    return digits, dropped - _POWER[exp]


def _drop_digits(vr, vp, vm, exact) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's digit removal: (digits, how many were dropped) of the shortest result.

    Digits go while v+ // 10 > v- // 10; since v+ - v- > 10 the first always goes.
    The last digit dropped rounds half up, except that an `exact` v whose dropped
    digits are 5 and zeros is a tie, which rounds to the even digit; a result equal
    to v-, below the interval, moves up by one. Ryu's rules for an end of the
    interval that is a whole number and reads back as x are left out: here v- and
    v+ are whole only when x >= 2^51, where no number in the interval is shorter
    than x.
    """
    dropped = np.ones(len(vr), np.intp)
    p, q = vp // _TEN, vm // _TEN
    while (go := (p := p // _TEN) > (q := q // _TEN)).any():
        dropped += go
    digits = vr // _POW10[dropped]
    last = vr // _POW10[dropped - 1] - digits * _TEN
    round_up = last >= 5
    if exact.any():
        tie = exact & (last == 5) & (vr % _POW10[dropped - 1] == 0) & (digits % _U(2) == 0)
        round_up &= ~tie
    digits += (digits == vm // _POW10[dropped]) | round_up
    return digits, dropped


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """x < 10^8 as its eight digits 0-9 in the bytes of a little-endian uint64, leading first.

    Each step splits every lane in two, 4+4 digits in 32-bit lanes, then 2+2 in
    16-bit lanes, then 1+1 in bytes; a multiply and a shift divide exactly there.
    """
    high = x // _U(10_000)
    x = high | ((x - high * _U(10_000)) << _U(32))
    high = ((x * _U(5243)) >> _U(19)) & _U(0x0000007F_0000007F)  # / 100
    x = high | ((x - high * _U(100)) << _U(16))
    high = ((x * _U(103)) >> _U(10)) & _U(0x000F_000F_000F_000F)  # / 10
    return high | ((x - high * _TEN) << _U(8))


# Each cell is laid out in a slot of four little-endian words, NUL where it holds no
# text; dropping the NULs joins the slots into lines. A cell in fixed notation fills
# the first three words: byte 0 holds the sign, bytes 1-21 the text and bytes 22-23
# the separator. Any other cell's repr and separator, at most 26 bytes, start at byte 0.
_SLOT_WORDS = 3


def _columns(slots: list[bytes]) -> np.ndarray:
    """The words of each slot, one column per slot, each slot's text from its first byte."""
    text = b"".join(slot.ljust(8 * _SLOT_WORDS, b"\0") for slot in slots)
    return np.frombuffer(text, "<u8").reshape(len(slots), _SLOT_WORDS).T.astype(np.uint64)


# _FIRST[:, k]: the words of a slot whose first k bytes are all ones
_FIRST = _columns([b"\xff" * k for k in range(8 * _SLOT_WORDS + 1)])


def _marks() -> np.ndarray:
    """The words of each layout's fixed characters, in the order of `_layout`.

    They are the sign, the "0." and the zeros before the digits of |x| < 1, the
    point, the "0" after the point of a whole number, and the comma or CRLF.
    """
    marks = []
    for point in range(-3, 17):
        for sign, whole, sep in itertools.product(b"\0-", (False, True), (b"\0,", b"\r\n")):
            slot = bytearray(8 * _SLOT_WORDS)
            slot[0] = sign
            if point <= 0:
                slot[1:3 - point] = b"0." + b"0" * -point
            dot = 1 + max(point, 1)
            slot[dot] = ord(".")
            if whole:
                slot[dot + 1] = ord("0")
            slot[22:] = sep
            marks.append(bytes(slot))
    return _columns(marks)


_MARKS = _marks()


def _layout(point, negative, whole, last) -> np.ndarray:
    """Column of _MARKS for a text with `point` digits (-3 to 16) before its point."""
    return (((point + 3) * 2 + negative) * 2 + whole) * 2 + last


def _format_block(rows: np.ndarray) -> bytes:
    """The CSV lines of rows: cells in fixed notation laid out in numpy, the rest by repr.

    A cell goes to repr when it is 0, subnormal or in scientific notation, or when
    its text without the sign is longer than 21 characters: 17 digits below 1e-3.
    """
    x = rows.ravel()
    last = np.zeros(rows.shape, bool)
    last[:, -1] = True
    last = last.ravel()
    size = np.abs(x)
    fast = (size >= 1e-4) & (size < 1e16)
    digits, exponent = _shortest_digits(x[fast])
    n = np.searchsorted(_POW10, digits, side="right")
    point = n + exponent  # digits before the point; 0 to -3 for |x| < 1
    fits = (point >= -3) & (point <= 16) & (n - point <= 19)
    if not fits.all():
        fast[fast] = fits
        digits, n, point = digits[fits], n[fits], point[fits]
    # the digits padded with zeros to 17, in bytes 0-16 of three words: 8 + 8 + 1
    padded = digits * _POW10[17 - n]
    text = np.empty((_SLOT_WORDS, len(padded)), np.uint64)
    text[0] = padded // _U(10**9)
    text[2] = padded - text[0] * _U(10**9)
    text[1] = text[2] // _TEN
    text[2] -= text[1] * _TEN
    text[:2] = _digit_bytes(text[:2])
    text += _U(0x30303030_30303030)  # ASCII "0" in every byte
    text &= np.take(_FIRST, np.maximum(n, point), 1)  # the digits and a whole number's zeros
    # the text before the point starts after the sign and any "0", the rest after the point
    zeros = np.maximum(1 - point, 0).astype(np.uint64)
    head = _shifted_bytes(text, zeros + _U(1))
    tail = _shifted_bytes(head, _U(1))
    split = np.maximum(point, 1) + 1  # the slot byte of the point
    text = (head & np.take(_FIRST, split, 1)) | (tail & ~np.take(_FIRST, split + 1, 1))
    text |= np.take(_MARKS, _layout(point, x[fast] < 0, point >= n, last[fast]), 1)
    slots = np.zeros((len(x), 4), "<u8")
    slots[fast, :_SLOT_WORDS] = text.T
    if not fast.all():
        seps = np.where(last[~fast], "\r\n", ",").tolist()
        cells = [repr(v) + sep for v, sep in zip(x[~fast].tolist(), seps)]
        slots.view("S32")[~fast, 0] = cells
    return slots.tobytes().translate(None, b"\0")


def _shifted_bytes(words: np.ndarray, k) -> np.ndarray:
    """The byte strings held in the columns of little-endian `words`, each moved k bytes on."""
    bits = k * _U(8)
    out = np.empty_like(words)
    out[0] = words[0] << bits
    out[1:] = (words[1:] << bits) | ((words[:-1] >> _U(1)) >> (_U(63) - bits))
    return out
