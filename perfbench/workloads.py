"""Seeded workloads: instance generators, input files and their exact oracle.

Every instance stream is a pure function of the workload and the seed, so the
same seed reproduces byte-identical vectors, thetas and files.  Why each
workload exists is in ``BENCHMARK.json`` and ``README.md`` next to this file.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle

NU = 0.5


@dataclass(frozen=True)
class Workload:
    """A seeded instance generator.

    Input files are written for every ``file_stride``-th instance in order of
    size, so the CLI probes see the whole size range; set-up time then stays
    with generating and solving instead of creating hundreds of files.
    """

    name: str
    params: dict
    generate: Callable[[np.random.Generator], list[tuple[np.ndarray, float]]]
    file_stride: int = 1


@dataclass(frozen=True, eq=False)
class Instance:
    """One marking problem with its exact reference and, if any, input files."""

    x: np.ndarray
    theta: float
    f64: Optional[Path]
    txt: Optional[Path]
    solution: oracle.Solution

    @property
    def n(self) -> int:
        return int(self.x.size)


def uniform(n: int, theta: float):
    def generate(rng: np.random.Generator):
        return [(rng.random(n), theta)]

    return generate


def graded(n: int, theta: float, sigma: float, repeats: int):
    """Lognormal magnitudes, each repeated as on a symmetric mesh, shuffled.

    The magnitudes are the lognormal's quantiles at the stratum midpoints, so
    every seed has the same values and tail, and the seed fixes their order.
    A random draw would let the few largest values, and with them N_min and
    the decrement cardinality, change by a fifth from seed to seed.
    """

    def generate(rng: np.random.Generator):
        distinct = n // repeats
        normal = statistics.NormalDist()
        z = np.array([normal.inv_cdf((i + 0.5) / distinct) for i in range(distinct)])
        x = np.repeat(np.exp(sigma * z), repeats)
        rng.shuffle(x)
        return [(x, theta)]

    return generate


def boundary(count: int, n_lo: int, n_hi: int, decades: float):
    """Small tie-heavy instances whose theta sits on a prefix-mass ratio.

    Sizes are log-uniform over ``[n_lo, n_hi]`` and ``k / n`` is uniform,
    each drawn one per stratum, so that every seed sees the same mix and the
    per-call medians and cardinality ratios compare across seeds.  Values
    are ``10**u`` with ``u`` uniform over ``decades``, rounded to two
    significant digits.  theta is the float ratio of the ``k`` largest
    entries' sum to the total, or one ulp above or below it.
    """

    def stratified(rng: np.random.Generator) -> np.ndarray:
        u = (np.arange(count) + rng.random(count)) / count
        rng.shuffle(u)
        return u

    def generate(rng: np.random.Generator):
        sizes = np.rint(n_lo * (n_hi / n_lo) ** stratified(rng)).astype(int)
        shares = stratified(rng)
        out = []
        for n, share in zip(sizes.tolist(), shares.tolist()):
            raw = 10.0 ** rng.uniform(-decades, 0.0, n)
            x = np.array([float(f"{v:.1e}") for v in raw.tolist()])
            k = 1 + int(share * (n - 1))
            theta = float(np.sum(np.sort(x)[::-1][:k]) / np.sum(x))
            side = int(rng.integers(3))
            if side == 1:
                theta = math.nextafter(theta, math.inf)
            elif side == 2:
                theta = math.nextafter(theta, 0.0)
            out.append((x, min(theta, math.nextafter(1.0, 0.0))))
        return out

    return generate


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-1e6",
            {"n": 10**6, "theta": 0.5, "distribution": "uniform(0,1)"},
            uniform(10**6, 0.5),
        ),
        Workload(
            "graded-1e6",
            {"n": 10**6, "theta": 0.5, "distribution": "lognormal(0,2.5)", "repeats": 8},
            graded(10**6, 0.5, 2.5, 8),
        ),
        Workload(
            "boundary-small",
            {"instances": 600, "n_range": [8, 1000], "decades": 6, "digits": 2, "file_stride": 10},
            boundary(600, 8, 1000, 6.0),
            file_stride=10,
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[tuple[np.ndarray, float]]:
    return workload.generate(np.random.default_rng(seed))


def setup(workload: Workload, seed: int, workdir: Path) -> list[Instance]:
    """Generate the instances, write their input files and solve them exactly."""
    workdir.mkdir(parents=True, exist_ok=True)
    cases = generate(workload, seed)
    by_size = np.argsort([x.size for x, _ in cases], kind="stable")
    with_files = set(by_size[:: workload.file_stride].tolist())
    instances = []
    for i, (x, theta) in enumerate(cases):
        x = np.ascontiguousarray(x, dtype=np.float64)
        x.setflags(write=False)
        f64 = txt = None
        if i in with_files:
            f64 = workdir / f"x{i}.f64"
            txt = workdir / f"x{i}.txt"
            x.astype("<f8").tofile(f64)
            txt.write_text("".join(f"{v!r}\n" for v in x.tolist()), encoding="utf-8")
        instances.append(Instance(x, theta, f64, txt, oracle.solve(x, theta)))
    return instances
