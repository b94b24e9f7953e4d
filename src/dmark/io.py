"""Indicator file formats and marked-index output.

Two interchangeable on-disk formats, selected by extension:

* ``.txt``  - UTF-8 text, one value per line, each line read as Python's
  ``float()`` reads it: surrounding whitespace and underscores between
  digits are allowed (``1_0`` is 10.0), and ``nan``, ``inf`` and ``1e400``
  parse but fail validation.  Lines end in LF, CRLF or CR, or in any other
  break that ``str.splitlines`` knows; a blank line is an error.  A file of
  at least ``_LOADTXT_MIN`` lines that is ASCII and ends its lines in LF or
  CRLF only is parsed by numpy's C reader (``np.loadtxt``), whose result is
  kept only when it holds one value per line.  Every other file, and every
  file that reader rejects, is parsed line by line, which names the first
  bad line.  Both paths give the same doubles.
* ``.f64``  - binary, little-endian IEEE-754 doubles

Marked indices are written as ASCII decimal, 0-based, one per line with an
LF terminator, in ascending order; an empty set writes an empty file.  The
bytes are those of ``"".join(f"{i}\\n" for i in sorted(indices))``, the same
as earlier releases wrote.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

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
    values = _read_text_loadtxt(p, raw) if len(raw) >= _LOADTXT_MIN else None
    if values is None:
        values = _read_text_lines(p, raw)
    # read-only and owned by no one else, so IndicatorVector adopts it
    values.setflags(write=False)
    return values


# the fewest lines parsed by np.loadtxt: its 40-80 us of fixed cost per call
# make it 2.4x slower than the line parse at 100 lines and 1.05x at 1,000;
# the two break even between 1,500 and 2,048 lines, and numpy takes 0.77x of
# the time at 10^5 and 0.75-0.8x at 10^6.  Every file of the 1e6 workloads
# is above this count, and every boundary-small file (at most 1,000 lines)
# below it (CHANGES.md)
_LOADTXT_MIN = 2048

# ASCII bytes that send a file to the line parse, because numpy could read
# it differently: "\v", "\f" and "\x1c".."\x1e" end a line for
# str.splitlines but not for numpy, and numpy strips "\x1c".."\x1f" around a
# value where float() does not
_LINE_PARSE_BYTES = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_text_loadtxt(p: Path, raw: bytes) -> Optional[np.ndarray]:
    """The values of a large text file by numpy's C reader, or ``None``.

    ``None`` means the line parse must decide: the file is short, or not
    ASCII text whose lines all end in LF or CRLF, or ``loadtxt`` rejects
    it, or it finds other than one value on each line.  ``loadtxt`` skips
    blank lines and splits ``"1 2"`` into two values, so the shape test
    rejects both.  It reads the file from its path, which is the only input
    its chunked C reader takes, so ``raw`` serves only to count the lines.
    """
    lines = _plain_line_count(raw)
    if lines is None or lines < _LOADTXT_MIN:
        return None
    try:
        with warnings.catch_warnings():
            # a file without values warns, and the shape test rejects it
            warnings.simplefilter("ignore")
            table = np.loadtxt(
                os.fspath(p), dtype=np.float64, comments=None, encoding="utf-8", ndmin=2
            )
    except (ValueError, OSError):
        return None
    if table.shape != (lines, 1):
        return None
    # the view that IndicatorVector adopts must have a read-only base
    table.setflags(write=False)
    return table.reshape(lines)


def _plain_line_count(raw: bytes) -> Optional[int]:
    """``len(raw.decode().splitlines())`` for non-empty ASCII text that holds
    none of ``_LINE_PARSE_BYTES`` and ends its lines in LF or CRLF (the last
    may end in CR or nothing); ``None`` for any other text."""
    if not raw.isascii() or any(b in raw for b in _LINE_PARSE_BYTES):
        return None
    u8 = np.frombuffer(raw, dtype=np.uint8)
    lf = u8 == ord("\n")
    # a CR not followed by LF ends a line too; a final one is counted below
    if b"\r" in raw and ((u8[:-1] == ord("\r")) & ~lf[1:]).any():
        return None
    return int(np.count_nonzero(lf)) + (raw[-1] != ord("\n"))


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
