"""Indicator file formats and marked-index output.

Two interchangeable on-disk formats, selected by extension:

* ``.txt``  - text, one decimal float per line
* ``.f64``  - binary, little-endian IEEE-754 doubles

Marked indices are written as ASCII decimal, 0-based, one per line with an
LF terminator, in ascending order; an empty set writes an empty file.  The
bytes are those of ``"".join(f"{i}\\n" for i in sorted(indices))``, the same
as earlier releases wrote.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

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
        lines = p.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    try:
        values = np.fromiter(map(float, lines), dtype=np.float64, count=len(lines))
    except ValueError:
        # only a failed parse pays for the scan that names the offending line
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                raise ParseError(f"{p}:{lineno}: blank line") from None
            try:
                float(stripped)
            except ValueError as exc:
                raise ParseError(f"{p}:{lineno}: not a float: {stripped!r}") from exc
        raise
    # read-only and owned by no one else, so IndicatorVector adopts it
    values.setflags(write=False)
    return values


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


# the largest set written by str.join, whose cost grows by 0.3-0.4 us per
# index, while the numpy writer spends 20-50 us on any small set (crossover
# measured near 90-100 indices, CHANGES.md)
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
