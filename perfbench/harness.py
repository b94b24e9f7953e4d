"""Timed, traced and memory passes of the marking benchmark over one workload.

The package is driven from outside, in this process and thread, by one
caller in a closed loop: each call starts after the previous one returned and
its output was checked against the exact oracle.  End-to-end probes call only
``dmark.mark`` and ``dmark.cli.main``; per-layer probes time the public
function of each module on the same instances and report a function that no
longer exists as absent instead of aborting.  Medians of the times are scaled
toward a reference machine speed by :class:`SpeedGauge`.

A run consists of passes; a pass visits every instance once.  Untraced passes
give the end-to-end metrics.  With tracing on, traced passes alternate with
untraced ones: they time the same end-to-end calls plus the per-layer calls,
and record one span per call, kept in memory and written out when the run
ends.  The first pass (and the first traced pass) always completes, and the
counts come from them, so counts depend on the seed only: ``attempted`` and
``failed`` count the calls of the first pass, while every later pass is
still checked for wrong answers.  Peak memory is
measured in a pass of its own, so tracemalloc slows neither kind of pass.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle
import workloads

ALGORITHMS = ("quickmark", "xstar", "sort", "binning", "decrement")
MINIMAL_ALGORITHMS = ("quickmark", "xstar", "sort")
CLI_FORMATS = ("f64", "txt")
CLI_ALGORITHM = "quickmark"
E2E_PROBES = tuple(f"mark.{a}" for a in ALGORITHMS) + tuple(f"cli.{f}" for f in CLI_FORMATS)
# set-up writes input files, whose cost swings with the file system; each
# repeat writes to a fresh directory so no deletion falls inside one
SETUP_REPEATS = 3
# on instances this large the end-to-end probes repeat in a measuring pass
# until each has run PROBE_SLICE_S, so that calls of a few milliseconds get
# as many samples as the costly ones
LARGE_N = 10_000
PROBE_SLICE_S = 0.1

# public function behind each layer probe: (module, attribute path)
LAYER_FUNCTIONS = {
    "core.validate": ("dmark.core", "IndicatorVector"),
    "core.goal": ("dmark.core", "goal_value"),
    "core.materialise": ("dmark.core", "MarkingOutcome.from_marked"),
    "core.verify": ("dmark.core", "satisfies_doerfler"),
    "quickmark.kernel": ("dmark.quickmark", "xstar_kernel"),
    "quickmark.rebuild": ("dmark.quickmark", "set_from_threshold"),
    "quickmark.perm": ("dmark.quickmark", "quickmark"),
    "sort_mark.sort": ("dmark.sort_mark", "sorted_prefix"),
    "binning.layout": ("dmark.binning", "bin_layout"),
    "io.read_f64": ("dmark.io", "read_indicators"),
    "io.read_txt": ("dmark.io", "read_indicators"),
    "io.write_marked": ("dmark.io", "write_marked_indices"),
}
# counted once per instance, never timed
COUNT_FUNCTIONS = {"decrement.sweeps": ("dmark.decrement", "decrement_trace")}

# derived self time per traced visit: end-to-end call minus the layers it is
# made of, timed on the same instance
DERIVED_LAYERS = {
    "markers.self": ("mark.xstar", ("core.validate", "quickmark.kernel", "quickmark.rebuild")),
    "cli.self": ("cli.f64", ("io.read_f64", "mark.quickmark", "io.write_marked")),
}

END_TO_END_UNITS = {
    **{f"{p}.ns_per_elem": "ns/elem" for p in E2E_PROBES},
    "mark.peak_bytes_per_elem": "B/elem",
    "binning.card_ratio": "ratio",
    "decrement.card_ratio": "ratio",
    "setup_s": "s",
}
PER_LAYER_TIMINGS = tuple(LAYER_FUNCTIONS) + tuple(DERIVED_LAYERS)
PER_LAYER_UNITS = {
    **{name: "ns/elem" for name in PER_LAYER_TIMINGS},
    "nmin": "count",
    **{f"marked_count.{a}": "count" for a in ALGORITHMS},
    **{f"failures.{a}": "count" for a in ALGORITHMS + ("cli",)},
    "binning.depth": "count",
    "decrement.sweeps": "count",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "trace.overhead_pct": "%",
    "fail_rate": "ratio",
    "nmin_mismatch_rate": "ratio",
}


@dataclass(frozen=True)
class Target:
    """The package entry points the benchmark drives, resolved once."""

    mark: Callable
    cli_main: Callable
    functions: dict  # layer or count name -> callable, None when absent


def _resolve(module: str, attribute: str) -> Optional[Callable]:
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in attribute.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def load_target(root: Path) -> Target:
    """Import the package from ``root/src``; exit when it is not there."""
    src = (root / "src").resolve()
    if not (src / "dmark" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {src}")
    sys.path.insert(0, str(src))
    import dmark
    import dmark.cli

    if Path(dmark.__file__).resolve().parent != src / "dmark":
        raise SystemExit(f"perfbench: imported dmark from {dmark.__file__}, not from {src}")
    functions = {
        name: _resolve(module, attribute)
        for name, (module, attribute) in {**LAYER_FUNCTIONS, **COUNT_FUNCTIONS}.items()
    }
    return Target(mark=dmark.mark, cli_main=dmark.cli.main, functions=functions)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class SpeedGauge:
    """Scales a run's medians toward a reference machine speed.

    A virtual machine that shares its cores with other tenants runs up to
    1.5x slower for seconds to minutes at a time.  At most every
    ``PERIOD_S`` seconds, between the timed calls, the gauge times a fixed
    pure-Python loop that never calls the package (400 small dicts with a
    string and a list each), best of three.  The median of a run's readings
    tracks the speed the run had; a single reading is too noisy to correct a
    single call.

    The loop overstates the slowdown of the timed calls: when it ran 1.9x
    slower, calls on small arrays ran 1.5x slower, and calls on 10^6
    elements followed it about as loosely.  Over runs on all three
    workloads, scaling by the square root of the loop's speed ratio gave
    the steadiest medians, so medians are multiplied by
    ``sqrt(REFERENCE_NS / median loop time)``.
    """

    PERIOD_S = 0.2
    REFERENCE_NS = 110_000

    def __init__(self) -> None:
        self._last = -math.inf
        self.readings: list[int] = []  # loop ns

    def factor(self) -> float:
        """Scale for the medians of this run, from all readings so far."""
        return math.sqrt(self.REFERENCE_NS / _median(self.readings)) if self.readings else 1.0

    def refresh(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.PERIOD_S:
            self.readings.append(min(self._timed() for _ in range(3)))
            self._last = time.perf_counter()

    @staticmethod
    def _timed() -> int:
        t0 = time.perf_counter_ns()
        [{"i": i, "s": str(i), "l": [i, i + 1]} for i in range(400)]
        return time.perf_counter_ns() - t0


class Census:
    """Exact counts from the first complete pass of each kind."""

    def __init__(self) -> None:
        self.calls = Counter()
        self.failures = Counter()
        self.marked = Counter()
        self.nmin = Counter()  # per algorithm, over the instances it marked
        self.mismatches = 0
        self.minimal_calls = 0
        self.bytes_written = 0
        self.depth = 0
        self.sweeps = 0


class Session:
    """One benchmark run over a workload's instances."""

    def __init__(self, target: Target, instances, workdir: Path, traced: bool, gauge) -> None:
        self.target = target
        self.instances = instances
        self.workdir = workdir
        self.traced = traced
        self.gauge = gauge
        # unscaled ns/elem per call; medians are scaled when reported
        self.untraced_samples = defaultdict(list)
        self.traced_samples = defaultdict(list)
        self.spans: list[list] = []
        self.census = Census()
        self.attempted = 0
        self.failed = 0
        self.invalid = 0
        self.errors = Counter()
        self.absent: set[str] = set()
        self.visit_ns: dict[str, int] = {}  # traced call durations of the current visit
        self.deadline: Optional[float] = None
        self.passes = 0

    # -- passes -------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Run passes until ``seconds`` have elapsed; census passes always finish."""
        self.deadline = time.perf_counter() + seconds
        census_passes = 2 if self.traced else 1
        while True:
            kind_traced = self.traced and self.passes % 2 == 1
            must_finish = self.passes < census_passes
            if not must_finish and self._expired():
                return
            gc.collect()
            if not self._pass(kind_traced, must_finish):
                return
            self.passes += 1

    def _expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def _pass(self, traced: bool, must_finish: bool) -> bool:
        census = self.passes == 0 or (traced and self.passes == 1)
        pass_span = self._open("pass", None) if traced else None
        for i, inst in enumerate(self.instances):
            if not must_finish and self._expired():
                return False
            self.visit_ns.clear()
            visit = self._open(f"instance.{i}", pass_span) if traced else None
            self._end_to_end(inst, traced, visit, census and not traced)
            if traced:
                self._layers(inst, visit, census)
                self._close(visit)
                self._derive(inst)
        if traced:
            self._close(pass_span)
        return True

    def _open(self, name: str, parent: Optional[int]) -> int:
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        return len(self.spans) - 1

    def _close(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter_ns()

    def _record(self, name, t0, t1, n, traced, parent) -> None:
        if traced:
            self.spans.append([name, t0, t1, parent])
            self.traced_samples[name].append((t1 - t0) / n)
            self.visit_ns[name] = t1 - t0
        else:
            self.untraced_samples[name].append((t1 - t0) / n)

    # -- end-to-end probes --------------------------------------------------

    def _end_to_end(self, inst, traced, parent, census) -> None:
        repeat = not traced and not census and inst.n >= LARGE_N
        marked_by = {}
        for alg in ALGORITHMS:
            for _ in self._calls(repeat):
                marked = self._mark_call(inst, alg, traced, parent, census)
            if marked is not None:
                marked_by[alg] = marked
        for fmt in CLI_FORMATS if inst.f64 is not None else ():
            for _ in self._calls(repeat):
                self._cli_call(inst, fmt, marked_by.get(CLI_ALGORITHM), traced, parent, census)

    def _calls(self, repeat: bool):
        """One call, or with ``repeat`` as many as start within ``PROBE_SLICE_S``."""
        start = time.perf_counter()
        yield
        while repeat and time.perf_counter() - start < PROBE_SLICE_S and not self._expired():
            yield

    def _mark_call(self, inst, alg, traced, parent, census) -> Optional[np.ndarray]:
        """Time one ``mark()`` call; return its set when it passed the oracle."""
        self.gauge.refresh()
        t0 = time.perf_counter_ns()
        try:
            run = self.target.mark(inst.x, inst.theta, alg, nu=workloads.NU)
            error = None
        except Exception as exc:  # a raising call is a counted failure
            run, error = None, exc
        t1 = time.perf_counter_ns()
        self._record(f"mark.{alg}", t0, t1, inst.n, traced, parent)
        marked = None if error else np.asarray(run.outcome.marked)
        ok = self._judge(f"mark.{alg}", inst, marked, error, None, census)
        if census:
            self._count(alg, inst, marked if ok else None)
        return marked if ok else None

    def _cli_call(self, inst, fmt, reference, traced, parent, census) -> None:
        """Time one in-process ``dmark mark`` on the instance's ``fmt`` file."""
        out = self.workdir / "cli-marked.txt"
        # emptied, not deleted: a file created per call would cost what the
        # file system's journal makes it cost at the time; a call that writes
        # nothing leaves the file empty, and the empty set fails the oracle
        out.write_bytes(b"")
        argv = [
            "mark", "--input", str(getattr(inst, fmt)), "--output", str(out),
            "--algorithm", CLI_ALGORITHM, "--theta", repr(inst.theta), "--nu", repr(workloads.NU),
        ]
        sink = io.StringIO()
        self.gauge.refresh()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter_ns()
            try:
                code, error = self.target.cli_main(argv), None
            except Exception as exc:
                code, error = None, exc
            t1 = time.perf_counter_ns()
        self._record(f"cli.{fmt}", t0, t1, inst.n, traced, parent)
        if error is None and code != 0:
            error = RuntimeError(f"exit code {code}: {sink.getvalue().strip()}")
        marked = None
        if error is None:
            if out.is_file():
                marked = np.fromiter(map(int, out.read_text().split()), dtype=np.int64)
            else:
                error = RuntimeError("no index file written")
        ok = self._judge(f"cli.{fmt}", inst, marked, error, reference, census)
        if census:
            self.census.calls["cli"] += 1
            self.census.failures["cli"] += not ok
            if marked is not None:
                self.census.bytes_written += out.stat().st_size

    def _judge(self, probe, inst, marked, error, reference, census) -> bool:
        """Check one output against the oracle and return whether it passed.

        Only census calls are counted in ``attempted``, ``failed`` and
        ``errors``, so the counts do not depend on how many passes fit in the
        run; a wrong answer in any pass clears ``correct``.
        """
        if census:
            self.attempted += 1
        if error is not None:
            reason = f"raised {type(error).__name__}"
        else:
            reason = oracle.check_marked(inst.x, inst.solution, marked)
            if reason is None and reference is not None:
                if not np.array_equal(np.sort(reference), marked):
                    reason = "index file differs from mark()"
            if reason is not None:
                self.invalid += 1
        if reason is None:
            return True
        if census:
            self.failed += 1
            self.errors[f"{probe}: {reason}"] += 1
        return False

    def _count(self, alg, inst, marked) -> None:
        c = self.census
        c.calls[alg] += 1
        if marked is None:
            c.failures[alg] += 1
            return
        c.marked[alg] += marked.size
        c.nmin[alg] += inst.solution.nmin
        if alg in MINIMAL_ALGORITHMS:
            c.minimal_calls += 1
            c.mismatches += marked.size != inst.solution.nmin

    # -- per-layer probes ---------------------------------------------------

    def _layer(self, name, inst, parent, *args):
        fn = self.target.functions[name]
        if fn is None or name in self.absent:
            self.absent.add(name)
            return None
        self.gauge.refresh()
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # counted; the layer's sample still stands
            out = None
            self.errors[f"{name}: raised {type(exc).__name__}"] += 1
        t1 = time.perf_counter_ns()
        self._record(name, t0, t1, inst.n, True, parent)
        return out

    def _layers(self, inst, parent, census) -> None:
        theta, minimal = inst.theta, inst.solution.minimal
        iv = self._layer("core.validate", inst, parent, inst.x)
        if iv is None:
            iv = inst.x
        self._layer("core.goal", inst, parent, iv, theta)
        self._layer("core.materialise", inst, parent, iv, minimal)
        self._layer("core.verify", inst, parent, iv, theta, minimal)
        scratch = np.array(inst.x)
        star = self._layer("quickmark.kernel", inst, parent, scratch, theta)
        if star is not None:
            self._layer("quickmark.rebuild", inst, parent, iv, theta, star)
        result = self._layer("quickmark.perm", inst, parent, iv, theta)
        if result is not None and not hasattr(result, "perm"):
            # quickmark() no longer returns a permutation: nothing left to time
            self.absent.add("quickmark.perm")
        self._layer("sort_mark.sort", inst, parent, iv)
        layout = self._layer("binning.layout", inst, parent, iv, theta, workloads.NU)
        if inst.f64 is not None:
            self._layer("io.read_f64", inst, parent, inst.f64)
            self._layer("io.read_txt", inst, parent, inst.txt)
            written = self.workdir / "layer-marked.txt"
            written.write_bytes(b"")  # emptied, as before each CLI call
            self._layer("io.write_marked", inst, parent, written, minimal)
        if census:
            self.census.depth += int(getattr(layout, "depth", 0))
            trace_fn = self.target.functions["decrement.sweeps"]
            if trace_fn is None:
                self.absent.add("decrement.sweeps")
                return
            try:
                self.census.sweeps += trace_fn(iv, theta, workloads.NU).sweeps_used
            except Exception as exc:  # counted like a failing layer call
                self.errors[f"decrement.sweeps: raised {type(exc).__name__}"] += 1

    def _derive(self, inst) -> None:
        for name, (whole, parts) in DERIVED_LAYERS.items():
            if whole in self.visit_ns:
                own = self.visit_ns[whole] - sum(self.visit_ns.get(p, 0) for p in parts)
                self.traced_samples[name].append(own / inst.n)

    # -- metrics ------------------------------------------------------------

    def end_to_end_metrics(self, peak_per_elem: float, setup_seconds: float) -> dict:
        c = self.census
        scale = self.gauge.factor()
        values = {
            f"{p}.ns_per_elem": _median(self.untraced_samples[p]) * scale for p in E2E_PROBES
        }
        values["mark.peak_bytes_per_elem"] = peak_per_elem
        for alg in ("binning", "decrement"):
            values[f"{alg}.card_ratio"] = c.marked[alg] / c.nmin[alg] if c.nmin[alg] else 0.0
        values["setup_s"] = setup_seconds
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def per_layer_metrics(self) -> dict:
        c = self.census
        scale = self.gauge.factor()
        traced = {
            name: (0.0 if name in self.absent else _median(samples) * scale)
            for name, samples in self.traced_samples.items()
        }
        values = {name: traced.get(name, 0.0) for name in PER_LAYER_TIMINGS}
        values["nmin"] = sum(inst.solution.nmin for inst in self.instances)
        for alg in ALGORITHMS:
            values[f"marked_count.{alg}"] = c.marked[alg]
            values[f"failures.{alg}"] = c.failures[alg]
        values["failures.cli"] = c.failures["cli"]
        values["binning.depth"] = c.depth
        values["decrement.sweeps"] = c.sweeps
        values["io.bytes_read"] = sum(
            inst.f64.stat().st_size + inst.txt.stat().st_size
            for inst in self.instances
            if inst.f64 is not None
        )
        values["io.bytes_written"] = c.bytes_written
        untraced = sum(_median(self.untraced_samples[p]) * scale for p in E2E_PROBES)
        with_spans = sum(traced.get(p, 0.0) for p in E2E_PROBES)
        values["trace.overhead_pct"] = 100.0 * (with_spans - untraced) / untraced
        values.update(self.quality())
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}

    def quality(self) -> dict:
        c = self.census
        calls = sum(c.calls.values())
        return {
            "fail_rate": sum(c.failures.values()) / calls if calls else 0.0,
            "nmin_mismatch_rate": c.mismatches / c.minimal_calls if c.minimal_calls else 0.0,
        }

    def sample_counts(self) -> dict:
        counts = {p: len(v) for p, v in self.untraced_samples.items()}
        counts.update({f"traced:{p}": len(v) for p, v in self.traced_samples.items()})
        return counts


def memory_pass(target: Target, instances) -> float:
    """Median tracemalloc peak of the quickmark ``mark()`` call, bytes per element."""
    samples = []
    tracemalloc.start()
    try:
        for inst in instances:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                run = target.mark(inst.x, inst.theta, "quickmark", nu=workloads.NU)
            except Exception:  # failures are counted by the timed passes
                run = None
            samples.append((tracemalloc.get_traced_memory()[1] - base) / inst.n)
            del run
    finally:
        tracemalloc.stop()
    return _median(samples)


def warm_up(target: Target, workdir: Path, gauge: SpeedGauge) -> None:
    """Run every probe once on a tiny instance so lazy initialisation is not timed."""
    warm = workloads.Workload("warm-up", {}, lambda rng: [(np.linspace(1.0, 2.0, 64), 0.5)])
    instances = workloads.setup(warm, 0, workdir / "warm-up")
    session = Session(target, instances, workdir, True, gauge)
    inst = session.instances[0]
    session._end_to_end(inst, True, None, False)
    session._layers(inst, None, False)


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "commit": _git_commit(root),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(target: Target, workload, seed: int, seconds: float, traced: bool, root: Path, out_dir: Path):
    """Set up, measure and report one workload; returns ``(meta, result)``.

    Inputs and scratch files live in a directory under ``out_dir`` that is
    removed at the end; a traced run leaves its spans in ``out_dir``.
    """
    workdir = out_dir / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    gauge = SpeedGauge()
    try:
        raw_setup = []
        for i in range(SETUP_REPEATS):
            gauge.refresh(force=True)
            t0 = time.perf_counter()
            instances = workloads.setup(workload, seed, workdir / f"inputs-{i}")
            raw_setup.append(time.perf_counter() - t0)
        for i in range(SETUP_REPEATS - 1):
            shutil.rmtree(workdir / f"inputs-{i}")
        warm_up(target, workdir, gauge)
        peak = None if traced else memory_pass(target, instances)
        session = Session(target, instances, workdir, traced, gauge)
        session.measure(seconds)
        if traced:
            metrics = session.per_layer_metrics()
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_file = out_dir / f"trace-{workload.name}.json"
            trace_file.write_text(json.dumps({"seed": seed, "spans": session.spans}))
        else:
            metrics = session.end_to_end_metrics(peak, _median(raw_setup) * gauge.factor())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = {
        "environment": environment(root),
        "workload": workload.name,
        "params": workload.params,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "passes": session.passes,
        "samples": session.sample_counts(),
        "speed": {
            "loop_ns": _median(gauge.readings),
            "readings": len(gauge.readings),
            "scale": gauge.factor(),
        },
        "raw_ns_per_elem": {p: _median(v) for p, v in session.untraced_samples.items()},
        "raw_setup_s": raw_setup,
        "quality": session.quality(),
        "errors": dict(session.errors),
        "absent": sorted(session.absent),
    }
    result = {
        "correct": session.invalid == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    return meta, result
