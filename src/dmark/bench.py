"""Instrumented benchmark harness for the marking strategies.

For every cell of a (theta, N) grid the harness draws seeded uniform(0, 1)
vectors, validates a fresh :class:`~dmark.core.IndicatorVector` copy per
algorithm untimed, times one :func:`~dmark.markers.mark` call on it, and
aggregates the wall-clock times into min/avg/max rows.  Instance streams come
from numpy's PCG64 generator seeded per (base seed, theta index, N, run), so
a fixed configuration reproduces byte-identical vectors, marked sets and
operation counts on any platform; only the measured times vary.

Every algorithm, ``xstar`` included, is thus timed end to end, from the
validated vector to the marked index set.  Counting (``instrument=True``)
reruns the same ``mark`` call with an :class:`~dmark.core.OpCounter` after
the timed call, so counting never distorts the measurements.  The counts
are the element operations of the timed kernels themselves; the one
exception is ``sort``, whose comparisons come from a counted twin of the
sort.  Timed regions are strictly sequential and single-threaded.
"""

from __future__ import annotations

import csv
import io as _io
import sys
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import IndicatorVector, OpCounter, ParameterError, check_nu, check_theta
from .markers import ALGORITHM_NAMES, mark

__all__ = [
    "DEFAULT_THETA_GRID",
    "DEFAULT_N_GRID",
    "DEFAULT_RUNS",
    "DESK_SCALE_CAP",
    "BenchConfig",
    "BenchRecord",
    "instance_vector",
    "run_bench",
    "aggregate",
    "emit_table",
]

DEFAULT_THETA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
DEFAULT_N_GRID = tuple(10**j for j in range(3, 8))
DEFAULT_RUNS = 30
# a 1e7 double vector is 80 MB; larger sizes need an explicit max_n
DESK_SCALE_CAP = 10**7
DEFAULT_ALGORITHMS = ("sort", "quickmark", "xstar")


@dataclass(frozen=True)
class BenchConfig:
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    runs: int = DEFAULT_RUNS
    seed: int = 0
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    nu: float = 0.5
    instrument: bool = False
    max_n: int = DESK_SCALE_CAP

    def __post_init__(self) -> None:
        if not self.theta_grid or not self.n_grid:
            raise ParameterError("theta and N grids must be nonempty")
        for theta in self.theta_grid:
            check_theta(theta)
        check_nu(self.nu)
        if self.runs < 1:
            raise ParameterError(f"runs must be >= 1, got {self.runs}")
        for n in self.n_grid:
            if n < 1:
                raise ParameterError(f"instance size must be positive, got {n}")
            if n > self.max_n:
                raise ParameterError(
                    f"instance size {n} exceeds the cap {self.max_n}; raise max_n to allow it"
                )
        for name in self.algorithms:
            if name not in ALGORITHM_NAMES:
                raise ParameterError(
                    f"unknown algorithm {name!r}; choose from {ALGORITHM_NAMES}"
                )
        if not self.algorithms:
            raise ParameterError("at least one algorithm must be selected")


@dataclass(frozen=True)
class BenchRecord:
    """One measurement: a single timed call on one seeded instance."""

    algorithm: str
    n: int
    theta: float
    run: int
    seconds: float
    comparisons: int
    seed: int


def instance_vector(seed: int, theta_index: int, n: int, run: int) -> np.ndarray:
    """Seeded uniform(0, 1) instance; identical inputs give identical bytes."""
    ss = np.random.SeedSequence(entropy=(seed, theta_index, n, run))
    return np.random.default_rng(ss).random(n)


def run_bench(config: BenchConfig) -> list[BenchRecord]:
    """Execute the grid; cells that fail to allocate are reported and skipped."""
    records: list[BenchRecord] = []
    for theta_index, theta in enumerate(config.theta_grid):
        for n in config.n_grid:
            try:
                records.extend(_run_cell(config, theta_index, theta, n))
            except MemoryError:
                print(
                    f"dmark bench: skipping cell theta={theta} N={n}: allocation failed",
                    file=sys.stderr,
                )
    return records


def _run_cell(
    config: BenchConfig, theta_index: int, theta: float, n: int
) -> list[BenchRecord]:
    records: list[BenchRecord] = []
    for run in range(1, config.runs + 1):
        vec = instance_vector(config.seed, theta_index, n, run)
        for algorithm in config.algorithms:
            iv = IndicatorVector(vec)
            t0 = time.perf_counter()
            mark(iv, theta, algorithm, nu=config.nu)
            seconds = time.perf_counter() - t0
            comparisons = 0
            if config.instrument:
                counter = OpCounter()
                mark(iv, theta, algorithm, nu=config.nu, counter=counter)
                comparisons = counter.comparisons
            records.append(
                BenchRecord(
                    algorithm=algorithm,
                    n=n,
                    theta=theta,
                    run=run,
                    seconds=seconds,
                    comparisons=comparisons,
                    seed=config.seed,
                )
            )
    return records


STATS = ("min", "avg", "max")


def aggregate(
    records: Sequence[BenchRecord],
) -> list[tuple[str, int, float, str, float, float]]:
    """Per-cell min/avg/max rows: (algorithm, N, theta, stat, seconds, comparisons)."""
    if not records:
        raise ParameterError("no records to aggregate")
    cells: dict[tuple[str, int, float], list[BenchRecord]] = {}
    for rec in records:
        cells.setdefault((rec.algorithm, rec.n, rec.theta), []).append(rec)
    rows: list[tuple[str, int, float, str, float, float]] = []
    for key in sorted(cells):
        algorithm, n, theta = key
        secs = [r.seconds for r in cells[key]]
        comps = [r.comparisons for r in cells[key]]
        for stat in STATS:
            if stat == "min":
                s, c = min(secs), float(min(comps))
            elif stat == "max":
                s, c = max(secs), float(max(comps))
            else:
                s, c = sum(secs) / len(secs), sum(comps) / len(comps)
            rows.append((algorithm, n, theta, stat, s, c))
    return rows


def emit_table(
    records: Sequence[BenchRecord],
    fmt: str = "csv",
    per_element: bool = False,
) -> str:
    """Render aggregated rows as CSV (LF, header row) or aligned text.

    The per-element view divides the times by N and reports nanoseconds, the
    natural scale for comparing growth across instance sizes.
    """
    if fmt not in ("csv", "table"):
        raise ParameterError(f"unknown format {fmt!r}; choose csv or table")
    rows = aggregate(records)
    if per_element:
        header = ["algorithm", "N", "theta", "stat", "ns_per_element"]
        data = [
            (alg, str(n), str(theta), stat, repr(seconds / n * 1e9))
            for alg, n, theta, stat, seconds, _ in rows
        ]
    else:
        header = ["algorithm", "N", "theta", "stat", "seconds", "comparisons"]
        data = [
            (alg, str(n), str(theta), stat, repr(seconds), _fmt_count(comps))
            for alg, n, theta, stat, seconds, comps in rows
        ]
    if fmt == "csv":
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(data)
        return buf.getvalue()
    widths = [
        max(len(header[i]), max((len(row[i]) for row in data), default=0))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in data:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _fmt_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)
