"""Indicator file formats and marked-index output.

Two interchangeable on-disk formats, selected by extension:

* ``.txt``  - UTF-8 text, one value per line, each line read as Python's
  ``float()`` reads it: surrounding whitespace and underscores between
  digits are allowed (``1_0`` is 10.0), and ``nan``, ``inf`` and ``1e400``
  parse but fail validation.  Lines end in LF, CRLF or CR, or in any other
  break that ``str.splitlines`` knows; a blank line is an error.

  A file of at least ``_VECTOR_MIN`` lines goes to a vector reader.  One LF
  scan splits it into lines, the blanks and tabs at their ends are dropped,
  and a kernel reads the lines of a plain grammar with numpy, 8 bytes at a
  time: a mantissa of at most 24 bytes, digits with at most one point, then
  optionally ``e`` or ``E``, a sign and two digits, as printf's ``%e`` and
  ``repr`` write exponents.  The mantissa's digits, 19 at most, form an
  integer ``w``, and the line's value is ``w / 10**k``.  With ``w <= 2**53``
  and ``k <= 22`` one float64 division rounds correctly (Clinger 1990).
  Otherwise ``_divide`` multiplies ``w`` by a 64-bit truncation of
  ``2**n / 5**k`` (after Lemire 2021): the quotient lies within two units
  of the high word of that 128-bit product, so the product's top 53 bits
  round as the quotient's do, unless the bits below them read one less than
  half a unit.  Those lines, about one in 2,000 random quotients and none of
  the 4 million repr-written lines of perfbench's 1e6 workloads (seeds 1
  and 2), get ``float()``; so does every line outside the grammar: more
  than 24 bytes, another exponent (``1e5``, ``1e-005``, or one past the
  digits after the point, ``1e+16``), a sign, ``_``.  These are integer and
  float64 operations, the same on every host.  A file in which such a line
  is not ASCII, holds a CR, ``\v``, ``\f`` or
  ``\x1c``..``\x1e`` (where ``str.splitlines`` breaks lines that the LF
  scan does not), or fails ``float()`` is parsed line by line, as is every
  shorter file and every file whose first 8,192 lines hold more than one
  in eight such lines; that parse names the first bad line.  Both paths
  give the same doubles.
* ``.f64``  - binary, little-endian IEEE-754 doubles

Marked indices are written as ASCII decimal, 0-based, one per line with an
LF terminator, in ascending order; an empty set writes an empty file.  The
bytes are those of ``"".join(f"{i}\\n" for i in sorted(indices))``, the same
as earlier releases wrote.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import IndicatorVector, MarkingError, ParseError, index_array

__all__ = ["read_indicators", "write_indicators", "write_marked_indices"]

PathLike = Union[str, Path]


def read_indicators(path: PathLike) -> IndicatorVector:
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".txt":
        values = _read_text(p)
    elif suffix == ".f64":
        values = _read_binary(p)
    else:
        raise ParseError(
            f"{p}: unsupported extension {p.suffix!r} (expected .txt or .f64)"
        )
    if values.size == 0:
        raise ParseError(f"{p}: file contains no values")
    return IndicatorVector(values)


def _read_text(p: Path) -> np.ndarray:
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    # a file of n lines holds at least n bytes
    values = _read_text_vector(raw) if len(raw) >= _VECTOR_MIN else None
    if values is None:
        values = _read_text_lines(p, raw)
    # read-only and owned by no one else, so IndicatorVector adopts it
    values.setflags(write=False)
    return values


# the fewest lines read by the vector reader: its fixed cost of some 70
# numpy calls per chunk makes it slower than the line parse below about 600
# repr-written lines and 1,000-1,200 short ones (%e, %g, 2-digit values); at
# 2,048 it takes 0.53-0.75 of that parse's time (CHANGES.md); every file of
# the 1e6 workloads is above this count, and every boundary-small file (at
# most 1,000 lines) below it
_VECTOR_MIN = 2048

# lines per kernel call: 2^12 took 1.12-1.26x the time of 2^13 on files of
# 10^5 and 10^6 lines, 2^14 0.91-1.04x, and 2^15 up to 1.55x on 10^5 lines
_CHUNK = 2**13

# ASCII bytes other than LF that end a line for str.splitlines
_OTHER_BREAKS = (b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")


def _read_text_vector(raw: bytes) -> Optional[np.ndarray]:
    """The values of a text file of at least ``_VECTOR_MIN`` lines, or ``None``.

    One LF scan splits ``raw`` into lines.  Chunk by chunk, the CR of each
    CRLF and a final CR are dropped, and the blanks and tabs at either end
    of a line; ``_decimal_chunk`` reads the lines of the plain decimal
    grammar, and every other line gets ``float()``.  ``None`` means the line
    parse must decide: the file is short, or the kernel leaves more than an
    eighth of its first chunk to ``float()``, or a line left to ``float()``
    holds a byte that is not ASCII or that ends a line for
    ``str.splitlines``, or ``float()`` rejects it.  A line the kernel reads
    holds only digits, a point, ``e`` or ``E`` and a sign, so such bytes can
    only sit in the lines left to ``float()``.
    """
    u8 = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(u8 == ord("\n"))
    if raw[-1:] != b"\n":
        ends = np.append(ends, len(raw))
    n = ends.size
    if n < _VECTOR_MIN:
        return None
    crs = b"\r" in raw
    blanks = b" " in raw or b"\t" in raw
    # words[i] is the little-endian word of raw[i:i + 8]
    words = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    values = np.empty(n, dtype=np.float64)
    certified = np.empty(n, dtype=bool)
    # the bounds of the lines left to float(), chunk by chunk
    left = []
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        stops = ends[a:b]
        starts = np.empty_like(stops)
        starts[0] = ends[a - 1] + 1 if a else 0
        np.add(ends[a : b - 1], 1, out=starts[1:])
        if crs:
            # a CR before the LF is not the line's; an empty first line has no byte before it
            stops = stops - ((u8[stops - 1] == ord("\r")) & (stops > starts))
        if blanks:
            starts, stops = _strip_blanks(u8, starts, stops)
        lo, hi = int(starts[0]), int(stops[-1])
        exponents = raw.find(b"e", lo, hi) >= 0 or raw.find(b"E", lo, hi) >= 0
        values[a:b], certified[a:b] = _decimal_chunk(words, stops, stops - starts, exponents)
        rest = np.flatnonzero(~certified[a:b])
        # float() costs about 3x as much per line here as in the line parse,
        # so a file whose first chunk is mostly left to it is parsed by line
        if a == 0 and 8 * rest.size > b:
            return None
        if rest.size:
            left.append((rest + a, starts[rest], stops[rest]))
    if left:
        rest, starts, stops = (np.concatenate(bounds) for bounds in zip(*left))
        text = b"\n".join([raw[s:t] for s, t in zip(starts.tolist(), stops.tolist())])
        if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
            return None
        try:
            values[rest] = np.fromiter(
                map(float, text.decode("ascii").split("\n")), dtype=np.float64, count=rest.size
            )
        except ValueError:
            return None
    return values


def _strip_blanks(u8: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """``starts`` and ``stops`` moved past up to 8 blanks or tabs at each end
    of each line; ``float()`` ignores them, and the kernel would not."""
    for step in (1, -1):
        for _ in range(8):
            c = u8.take(starts if step > 0 else stops - 1, mode="clip")
            blank = ((c == ord(" ")) | (c == ord("\t"))) & (starts < stops)
            if not blank.any():
                break
            if step > 0:
                starts = starts + blank
            else:
                stops = stops - blank
    return starts, stops


def _bytes(b: int) -> np.uint64:
    """A word with ``b`` in each of its 8 bytes."""
    return np.uint64(b * 0x0101010101010101)


# the bytes of a line that the kernel sees, as three words; a longer line
# is left to float()
_WIDTH = 24
# word k of the window starts at byte 8k
_WORD = np.array([[0], [8], [16]])
# _HIGH[s]: a word whose s lowest bytes are clear
_HIGH = ~np.array([(1 << 8 * s) - 1 for s in range(9)], dtype=np.uint64)
# column n of _INSIDE: the bytes of word k that hold the window's last n
_INSIDE = _HIGH[np.clip(_WIDTH - np.arange(_WIDTH + 1) - _WORD, 0, 8)]
# column c of _UPTO, c = 24 - the point's byte in the window: the bytes up
# to the point, and none in column 0 (no point)
_UPTO = ~_HIGH[np.clip(_WIDTH + 1 - np.arange(_WIDTH + 1) - _WORD, 0, 8)]
_UPTO[:, 0] = 0
# 0x01 in byte j of word k, times _PLACES[k], puts 24 - 8k - j in the top byte
_PLACES = np.array(
    [[sum((17 - 8 * k + i) << 8 * i for i in range(8))] for k in range(3)], dtype=np.uint64
)
_U7, _U8, _U56 = np.uint64(7), np.uint64(8), np.uint64(56)

# 10**k for k <= 22, exact
_TENS = np.array([float(10**k) for k in range(23)])
# the most places a line of the grammar has, 23 digits after the point and
# an exponent of -99, so every k of a line indexes the tables below
_K_MAX = 122
# for k <= _K_MAX, L = the bits of 5**k and R = the integer part of
# 2**(63 + L) / 5**k, less 1 for k = 0: in [2**63, 2**64), as 32-bit halves
_FIVE_BITS = np.array([(5**k).bit_length() for k in range(_K_MAX + 1)])
_RECIPROCALS = [(1 << 63 + int(b)) // 5**k - (k == 0) for k, b in enumerate(_FIVE_BITS)]
_RECIPROCALS_LOW = np.array([r & 0xFFFFFFFF for r in _RECIPROCALS], dtype=np.uint64)
_RECIPROCALS_HIGH = np.array([r >> 32 for r in _RECIPROCALS], dtype=np.uint64)
_M32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _decimal_chunk(words: np.ndarray, stops: np.ndarray, lengths: np.ndarray, exponents: bool):
    """The doubles of the lines that end at ``stops``, and which of them are
    certified equal to ``float()``'s.

    A certified line is at most ``_WIDTH`` bytes: digits with at most one
    point and at least one digit, then, if ``exponents``, optionally ``e``
    or ``E``, a sign and two digits.  It reads as ``w / 10**k``: ``w`` is its
    digits without the point, and ``k`` the count of digits after the point
    less the exponent, at least 0.  A line whose
    mantissa ends within the first ``_WIDTH`` bytes of the file is left to
    ``float()``, as its window would start before the file.  Each step works
    on 8 bytes at once, over as many words as the chunk's longest line and
    then its longest mantissa need.
    """
    certified = (lengths <= _WIDTH) & (stops >= _WIDTH)
    at = _WORD[-min(max(int(lengths.max()) + 7, 8) // 8, _WORD.size) :]
    x = _window(words, stops, lengths, at)
    exponent = 0
    if exponents:
        lengths, exponent, well_formed = _exponent(x, lengths)
        certified &= well_formed
        # the words wholly before every mantissa hold zeros only
        at = _WORD[-min(max(int(lengths.max()) + 7, 8) // 8, _WORD.size) :]
        x = x[-at.size :]
    # 0x80 in each point, and in `stray` each byte neither digit nor point
    points = _zero_bytes(x ^ _bytes(ord(".") ^ 0x30))
    stray = _nondigits(x)
    stray ^= points
    points >>= _U7
    count = _top(points, _bytes(1)).view(np.intp)
    # 1 + the digits after the point, 0 without one
    place = _top(points, _PLACES[-at.size :])
    stray = stray[0] if at.size == 1 else np.bitwise_or.reduce(stray, axis=0)
    certified &= (stray == 0) & (count <= 1) & (lengths > count)
    # drop the point: the bytes before it move one byte right
    moved = x << _U8
    if at.size > 1:
        moved[1:] |= x[:-1] >> _U56
    moved ^= x
    moved &= _UPTO[-at.size :].take(place, axis=1, mode="clip")
    x ^= moved
    x = _eight_digits(x)
    w = x[-1]
    if at.size > 1:
        w += x[-2] * np.uint64(10**8)
    if at.size > 2:
        # at most 19 digits: w < 10**19 < 2**64
        certified &= x[0] < 1000
        w += x[0] * np.uint64(10**16)
    k = place.view(np.intp) - count
    k -= exponent
    certified &= k >= 0
    return _divide(w, k, certified)


def _divide(w: np.ndarray, k: np.ndarray, certified: np.ndarray):
    """``w / 10**k`` rounded as ``float()`` rounds it, and ``certified``
    less the lines whose rounding could not be certified.

    With ``w <= 2**53`` and ``k <= 22`` both operands are exact doubles and
    one division rounds correctly (Clinger 1990).  Otherwise, with ``w``
    shifted to ``a = w * 2**z`` in ``[2**63, 2**64)`` and ``R = _RECIPROCALS[k]
    = 2**(63 + L) / 5**k - f`` with ``0 < f <= 1``, ``w / 10**k`` is
    ``T * 2**-(63 + L + z + k)`` with ``T = a * R + a * f``, so
    ``T / 2**64`` lies in ``(H, H + 2)``, where ``H`` is the high word of the
    128-bit product ``a * R``.  The top 53 bits of ``H`` round to those of
    ``T`` unless the bits of ``H`` below them read one less than half a unit
    (Lemire 2021); such lines, ties among them, are left to ``float()``,
    unless their operands are exact.
    """
    exact = (w <= 2**53) & (k <= 22)
    if (exact | ~certified).all():
        return w / _TENS.take(k, mode="clip"), certified
    # z, which moves w's top bit to bit 63, from the exponent of w's double;
    # where that rounds up to a power of two, a is within 2**10 below 2**63,
    # and a * R still has bit 126 or 127 on top, as every R exceeds 2**63 + 2**55
    shift = 1086 - (w.astype(np.float64).view(np.int64) >> 52)
    a = w << shift.view(np.uint64)
    # the high word of a * R from four 32-bit products
    a0, a1 = a & _M32, a >> _U32
    r0, r1 = _RECIPROCALS_LOW.take(k, mode="clip"), _RECIPROCALS_HIGH.take(k, mode="clip")
    mid = a0 * r1
    cross = a1 * r0
    carry = (a0 * r0 >> _U32) + (mid & _M32) + (cross & _M32)
    high = a1 * r1 + (mid >> _U32) + (cross >> _U32) + (carry >> _U32)
    # its top bit is bit 62 or 63: 53 bits from there, and the `bits` below them
    bits = (high >> np.uint64(63)) + np.uint64(10)
    below = high & ((np.uint64(1) << bits) - np.uint64(1))
    half = np.uint64(1) << (bits - np.uint64(1))
    m = (high >> bits) + (below >= half)
    e = bits.view(np.intp) - _FIVE_BITS.take(k, mode="clip") - shift - k + 1075
    values = ((e << 52) + m.view(np.intp)).view(np.float64)
    # exact operands, and 0, still take one division
    exact |= w == 0
    np.copyto(values, w / _TENS.take(k, mode="clip"), where=exact)
    certified &= (below != half - np.uint64(1)) | exact
    return values, certified


def _exponent(x: np.ndarray, lengths: np.ndarray):
    """Splits off the exponents that printf's ``%e`` and ``repr`` write: the
    last 4 bytes ``e`` or ``E``, a sign and two digits.  The mantissa before
    one moves to the end of the window ``x``, in place.  Gives the
    mantissas' lengths, the exponents (0 without one), and whether each line
    has none or a well-formed one."""
    # e, sign, digit, digit in the low 4 bytes
    tail = x[-1] >> np.uint64(32)
    # "e" and "E" alike
    has = (tail & np.uint64(0xDF)) == ord("e") ^ 0x30
    sign = tail & np.uint64(0xFF00)
    negative = sign == (ord("-") ^ 0x30) << 8
    positive = sign == (ord("+") ^ 0x30) << 8
    tail >>= np.uint64(16)
    well_formed = ((negative | positive) & (_nondigits(tail) == 0)) | ~has
    # 10 * the first digit + the second, in the second byte
    tail *= np.uint64(10 << 8 | 1)
    tail >>= _U8
    tail &= np.uint64(0xFF)
    # -1, 0 or 1; a sign byte in a line without an exponent fails the mantissa
    tail = tail.view(np.intp) * (positive.view(np.int8) - negative.view(np.int8))
    # 32 bits for a line with an exponent, 0 without
    bits = has * np.uint64(32)
    spill = x[:-1] >> (np.uint64(64) - bits)
    x <<= bits
    x[1:] |= spill
    return lengths - 4 * has, tail, well_formed


def _window(
    words: np.ndarray, stops: np.ndarray, lengths: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Row k holds the 8 bytes from ``at[k]`` of the ``_WIDTH`` before each
    stop, the first in the low byte, each XOR 0x30: digits become 0..9, and
    the bytes before the line 0, as leading zeros.  A stop before byte
    ``_WIDTH`` wraps to the file's end, and its row is not the line's."""
    first, m = int(stops[0]), stops.size
    step = (int(stops[-1]) - first) // max(m - 1, 1)
    if first >= _WIDTH and first + step * (m - 1) == stops[-1] and (np.diff(stops) == step).all():
        # evenly spaced lines, as fixed-width formats write them: a strided
        # view reads 8 times fewer bytes than a gather
        start = first - _WIDTH + int(at[0, 0])
        x = np.bitwise_xor(
            as_strided(words[start:], shape=(at.size, m), strides=(8, step)), _bytes(0x30), order="C"
        )
    else:
        x = words[stops - (_WIDTH - at)]
        x ^= _bytes(0x30)
    x &= _INSIDE[-at.size :].take(lengths, axis=1, mode="clip")
    return x


def _zero_bytes(x: np.ndarray) -> np.ndarray:
    """0x80 in each zero byte of ``x``; exact where no byte exceeds 0x80, and
    a larger byte can only hide a zero byte above it."""
    flags = x + _bytes(0x7F)
    flags |= x
    np.invert(flags, out=flags)
    flags &= _bytes(0x80)
    return flags


def _nondigits(x: np.ndarray) -> np.ndarray:
    """0x80 in each byte of ``x`` (bytes XOR 0x30) that is not 0..9; a byte
    above 0x89 is not ASCII, and marks its own line whatever it carries."""
    flags = x + _bytes(0x76)
    flags |= x
    flags &= _bytes(0x80)
    return flags


def _top(ones: np.ndarray, places) -> np.ndarray:
    """The top bytes of ``ones * places``, summed over the words: with 0x01
    in flagged bytes, ``_PLACES`` gives the place of a single one, and
    ``_bytes(1)`` the count of them."""
    top = ones * places
    top >>= _U56
    return top[0] if len(top) == 1 else top.sum(axis=0)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The integer of the 8 digits 0..9 in each word, the first in the low
    byte: pairs, then fours, then all eight, each by one multiply that adds
    10**j times a lane to its neighbour (Lemire 2018)."""
    x = x * np.uint64(10 << 8 | 1)
    x >>= _U8
    x &= np.uint64(0x00FF00FF00FF00FF)
    x *= np.uint64(100 << 16 | 1)
    x >>= np.uint64(16)
    x &= np.uint64(0x0000FFFF0000FFFF)
    x *= np.uint64(10000 << 32 | 1)
    x >>= np.uint64(32)
    return x


def _read_text_lines(p: Path, raw: bytes) -> np.ndarray:
    """One ``float()`` per line of ``str.splitlines``; a failure names its line."""
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: not UTF-8 text: {exc}") from exc
    try:
        return np.fromiter(map(float, lines), dtype=np.float64, count=len(lines))
    except ValueError:
        # only a failed parse pays for the scan that names the offending line
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                raise ParseError(f"{p}:{lineno}: blank line") from None
            # float() keeps the separators "\x1c".."\x1f" that strip() removes
            for text in (stripped, line):
                try:
                    float(text)
                except ValueError as exc:
                    raise ParseError(f"{p}:{lineno}: not a float: {text!r}") from exc
        raise


def _read_binary(p: Path) -> np.ndarray:
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    if len(raw) % 8 != 0:
        raise ParseError(f"{p}: size {len(raw)} is not a multiple of 8 bytes")
    # a read-only view of the immutable bytes, which IndicatorVector adopts
    # without a copy; on a big-endian host it copies them into native order
    return np.frombuffer(raw, dtype="<f8")


def write_indicators(path: PathLike, values: np.ndarray) -> None:
    p = Path(path)
    arr = np.asarray(values, dtype=np.float64)
    suffix = p.suffix.lower()
    if suffix == ".txt":
        p.write_text("".join(f"{v!r}\n" for v in arr.tolist()), encoding="utf-8")
    elif suffix == ".f64":
        p.write_bytes(arr.astype("<f8").tobytes())
    else:
        raise ParseError(
            f"{p}: unsupported extension {p.suffix!r} (expected .txt or .f64)"
        )


def write_marked_indices(path: PathLike, indices: Iterable[int]) -> None:
    """Write the indices in ascending order, one decimal per line.

    Raises :class:`MarkingError` for a negative index.
    """
    idx = index_array(indices)
    # every strategy but decrement already produces an ascending set
    if (idx[1:] < idx[:-1]).any():
        idx = np.sort(idx)
    if idx.size and idx[0] < 0:
        raise MarkingError(f"marked index {int(idx[0])} is negative")
    if idx.size <= _JOIN_MAX:
        Path(path).write_bytes("".join(map("{}\n".format, idx.tolist())).encode("ascii"))
    else:
        Path(path).write_bytes(_decimal_lines(idx))


# the largest set written by str.join: 124 of the 180 CLI instances of
# boundary-small (seeds 1-3) write at most this many, in a median 4-6 us
# against 16-22 us for the numpy writer; the 1e6 workloads write thousands
# (CHANGES.md)
_JOIN_MAX = 80


# "00", "01", ..., "99" as 2-byte units, so one store writes two digits
_DIGIT_PAIRS = np.frombuffer(
    "".join(f"{i:02d}" for i in range(100)).encode("ascii"), dtype=np.uint16
)
# 10**1 .. 10**18: the entries below 10**d have at most d digits (int64 has at most 19)
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _decimal_lines(idx: np.ndarray) -> np.ndarray:
    """The bytes of ``f"{i}\\n"`` for each entry of an ascending nonnegative int64 array.

    Entries with ``d`` digits form one contiguous block, written as an
    ``(n_d, d + 1)`` byte matrix: digits right to left, two per division by
    100, and LF in the last column.
    """
    # edges[d - 1]:edges[d] holds the entries with d digits
    edges = [0, *np.searchsorted(idx, _POWERS_OF_TEN).tolist(), idx.size]
    out = np.empty(sum((edges[d] - edges[d - 1]) * (d + 1) for d in range(1, 20)), dtype=np.uint8)
    offset = 0
    for d in range(1, 20):
        lo, hi = edges[d - 1], edges[d]
        if lo == hi:
            continue
        block = out[offset : offset + (hi - lo) * (d + 1)].reshape(hi - lo, d + 1)
        offset += block.size
        block[:, d] = ord("\n")
        # unsigned division is cheaper, and 32 bits cheaper still
        q = idx[lo:hi].astype(np.uint32 if d <= 9 else np.uint64)
        col = d
        while col >= 2:
            q, r = np.divmod(q, 100)
            block[:, col - 2 : col].view(np.uint16)[:, 0] = _DIGIT_PAIRS[r]
            col -= 2
        if col == 1:
            block[:, 0] = q + ord("0")
    return out
