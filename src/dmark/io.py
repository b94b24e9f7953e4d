"""Indicator file formats and marked-index output.

Two interchangeable on-disk formats, selected by extension:

* ``.txt``  - text, one decimal float per line
* ``.f64``  - binary, little-endian IEEE-754 doubles

Marked indices are written 0-based, one per line, in ascending order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .core import IndicatorVector, ParseError, index_array

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
        return np.fromiter(map(float, lines), dtype=np.float64, count=len(lines))
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


def _read_binary(p: Path) -> np.ndarray:
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    if len(raw) % 8 != 0:
        raise ParseError(f"{p}: size {len(raw)} is not a multiple of 8 bytes")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


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
    ordered = np.sort(index_array(indices)).tolist()
    text = "\n".join(map(str, ordered)) + "\n" if ordered else ""
    Path(path).write_text(text, encoding="utf-8")
