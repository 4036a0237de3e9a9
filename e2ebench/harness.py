"""Shared pieces of the end-to-end benchmark: spans, statistics, checks.

Nothing here imports the program under test, so ``run.py`` can refuse
to start (exit code 2) in a tree that holds only the benchmark.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, Iterable, List, Optional, Sequence

import yardstick

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED_COUNTS = os.path.join(BENCH_DIR, "expected_counts.json")

now = time.perf_counter


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0..100) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class _Span:
    __slots__ = ("tracer", "name", "job", "index", "start")

    def __init__(self, tracer: "Tracer", name: str, job) -> None:
        self.tracer = tracer
        self.name = name
        self.job = job

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, 0.0, 0.0, parent, self.job])
        tracer._stack.append(self.index)
        self.start = now()
        return self

    def __exit__(self, *exc) -> None:
        end = now()
        record = self.tracer.spans[self.index]
        record[1] = self.start
        record[2] = end
        self.tracer._stack.pop()


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """In-memory span recorder around the benchmark's calls into layers.

    Each span is ``[name, start, end, parent_index, job]``.  A disabled
    tracer hands out one shared no-op context, so an untraced run pays
    a method call per span and records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, job=None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, job)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, job=None) -> Optional[int]:
        """Record an already-timed span (multi-process outside splits)."""
        if not self.enabled:
            return None
        self.spans.append([name, start, end, parent, job])
        return len(self.spans) - 1

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds.

        Self time is a span's duration minus the part its children
        cover; children of one parent never overlap here (one thread
        per parent), so the covered part is the sum of their durations.
        """
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_total[i]
        return out

    def root_of(self, index: int) -> str:
        """Name of the outermost span enclosing span *index*."""
        parent = self.spans[index][3]
        while parent is not None:
            index, parent = parent, self.spans[parent][3]
        return self.spans[index][0]

    def durations(self, name: str, root: str = "pass") -> List[float]:
        """Durations of the *name* spans recorded under a *root* span."""
        return [end - start
                for i, (n, start, end, _p, _j) in enumerate(self.spans)
                if n == name and self.root_of(i) == root]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


def median_ms(tracer: Tracer, name: str, root: str = "pass") -> float:
    durations = tracer.durations(name, root)
    return 1e3 * median(durations) if durations else 0.0


# ----------------------------------------------------------------------
# checks and deterministic work counts
# ----------------------------------------------------------------------

class Checks:
    """Output checks of one run: every failed check fails the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record it as failed unless *ok*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        """A failed check that is not an operation of its own."""
        self.failures.append(what)


class WorkCounts:
    """Deterministic per-job work counts, which must repeat exactly.

    Every pass of a run must reproduce the first pass's counts, and the
    semantic counts (see ``SEMANTIC``) must equal the committed
    ``expected_counts.json``: drift there means the program's
    behaviour changed, not its speed.
    """

    #: Counts fixed by guest and taint semantics.  Implementation
    #: ratios (fused and slow share) are only held within a run, since
    #: a faster tier legitimately moves them.
    SEMANTIC = ("tracked_insns", "instret", "flags", "tainted_bytes")

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.by_job: Dict[str, Dict[str, float]] = {}

    def observe(self, job: str, counts: Dict[str, float]) -> bool:
        first = self.by_job.setdefault(job, dict(counts))
        if first != counts:
            self.checks.fail(f"{job}: work counts drifted within the run: "
                             f"{first} then {counts}")
            return False
        return True

    def compare_expected(self, expected: Dict[str, Dict[str, float]]) -> None:
        for job, counts in sorted(self.by_job.items()):
            want = expected.get(job)
            if want is None:
                self.checks.fail(f"{job}: no expected work counts committed")
                continue
            for key in self.SEMANTIC:
                if key in counts and key in want and counts[key] != want[key]:
                    self.checks.fail(f"{job}: {key} = {counts[key]}, "
                                     f"expected {want[key]}")


def load_expected_counts() -> Dict[str, Dict[str, float]]:
    with open(EXPECTED_COUNTS, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


# ----------------------------------------------------------------------
# set-up time, memory, metadata
# ----------------------------------------------------------------------

def import_probe_s(modules: Iterable[str]) -> float:
    """Seconds for a fresh interpreter to start and import *modules*:
    the part of set-up every command-line run of the program pays."""
    code = "import " + ", ".join(modules)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    start = now()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms,
    # which would quantize the measurement.
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return now() - start


def peak_rss_mb(children_kb: int = 0) -> float:
    """Peak RSS of this process plus *children_kb*, the children's
    summed peak measured by the workload (KiB, as Linux reports
    ``ru_maxrss``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + children_kb) / 1024.0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids.extend(int(kid) for kid in fh.read().split())
    except OSError:  # the process or thread ended meanwhile
        pass
    return kids


def descendants_peak_kb(root: Optional[int] = None, skip: int = 0) -> int:
    """Summed peak RSS (``VmHWM``, KiB) of the live descendants of *root*
    (this process by default), leaving out process *skip*.  Pages a
    forked child shares with its parent count once per process, as RSS
    counts them."""
    total = 0
    stack = _children(os.getpid() if root is None else root)
    while stack:
        pid = stack.pop()
        if pid == skip:
            continue
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:  # ended meanwhile
            continue
        stack.extend(_children(pid))
    return total


class Sampler:
    """Context that runs ``sampler.py`` while it is open.  With *rss* it
    samples ``descendants_peak_kb``, for children (such as a pool's
    workers) that end before the workload could read them; with
    *yardstick* it times yardstick samples beside the workload's
    processes.  A helper process, not a thread: the workload forks its
    workers meanwhile, and fork is unsafe in a process that has
    threads."""

    def __init__(self, rss: bool, yardstick: bool,
                 samples: List[float]) -> None:
        self.flags = [str(int(rss)), str(int(yardstick))]
        self.samples = samples

    def __enter__(self) -> "Sampler":
        self.peak_kb = 0
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "sampler.py"),
             str(os.getpid()), *self.flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate()  # closing stdin stops it
        if self._proc.returncode != 0:
            raise RuntimeError(f"sampler.py exited with "
                               f"{self._proc.returncode}")
        result = json.loads(out)
        self.peak_kb = result["peak_kb"]
        self.samples.extend(result["yardstick"])


def worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def host_fingerprint() -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": worker_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(checks: Checks, metrics: Dict[str, dict]) -> str:
    if not checks.attempted:
        checks.fail("no operation was attempted")
    return json.dumps({
        "correct": not checks.failures,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": metrics,
    })


def write_record(name: str, record: dict, tracer: Optional[Tracer]) -> str:
    """Write the run record, and the spans of a traced run, under
    ``.bench_out/``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, f"{name}.spans.json"))
    return path


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _forked_setup_s(fn) -> float:
    """Seconds *fn* takes in a forked child, which starts from this
    process's state and is discarded afterwards."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: time fn, report, never return into the caller
        code = 1
        try:
            os.close(read_fd)
            start = now()
            fn()
            os.write(write_fd, repr(now() - start).encode())
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="ascii") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"set-up failed in forked child (status {status})")
    return float(text)


def _span_cost_s(enabled: bool, n: int = 20_000) -> float:
    """Mean seconds of one empty span on a tracer that is *enabled* or not."""
    tracer = Tracer(enabled)
    start = now()
    for job in range(n):
        with tracer.span("probe", job=job):
            pass
    return (now() - start) / n


class Run:
    """State of one benchmark run: seed, budget, tracer, checks, counts."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.tracer = Tracer(enabled=False)
        self.checks = Checks()
        self.counts = WorkCounts(self.checks)
        self.setup_times: List[float] = []
        self.pass_walls: List[float] = []
        self.meta: Dict[str, object] = {}
        #: Yardstick samples of an untraced run (``yardstick.py``),
        #: taken by ``tick`` or by a ``Sampler``.
        self.speed_samples: List[float] = []

    def setup(self, fn, teardown=None):
        """Time set-up *fn* ``SETUP_REPEATS`` times and return the last
        repetition's result.  Every repetition starts cold.

        With a *teardown*, the earlier repetitions run here and
        *teardown* releases each one's result outside the timed window;
        that suits a set-up that starts a fresh process each time.
        Without one, the earlier repetitions run in forked children, so
        the process-wide caches a set-up fills (kernel image, decoded
        code, interned provenance) are still empty for the last
        repetition, the one this process keeps.  Only the last one
        records spans.
        """
        for _ in range(SETUP_REPEATS - 1):
            if teardown is None:
                self.setup_times.append(_forked_setup_s(fn))
                continue
            start = now()
            result = fn()
            self.setup_times.append(now() - start)
            teardown(result)
        self.tracer.enabled = self.trace
        start = now()
        with self.tracer.span("setup"):
            result = fn()
        self.setup_times.append(now() - start)
        self.tracer.enabled = False
        return result

    def passes(self):
        """Yield once per pass until about ``seconds`` of passes have run.

        Another pass starts only while it is expected to end less than
        half a pass past the budget, so a run overshoots by nothing on
        average.  Passes record spans in traced runs only.  After each
        pass, outside its timed window, a full collection frees the
        pass's cyclic garbage (finished machines hold reference cycles):
        left to the collector's own schedule it piles up over passes, and
        peak RSS would grow with the number of passes the host's speed
        lets into the budget.
        """
        start = now()
        walls = self.pass_walls
        while not walls or now() - start + median(walls) / 2 < self.seconds:
            self.tracer.enabled = self.trace
            begin = now()
            with self.tracer.span("pass", job=len(walls)):
                yield
            walls.append(now() - begin)
            self.tracer.enabled = False
            gc.collect()

    def tick(self) -> None:
        """One yardstick sample, taken by in-process workloads after
        each timed job, outside its window.  One per job, not one per
        stretch of work: a sample that directly follows another finds
        the yardstick's data still in the core's caches and reads about
        40% faster, so bursts after long jobs would tie the factor to
        how long the program's jobs take.  Traced runs report no
        end-to-end timing and take no samples."""
        if not self.trace:
            self.speed_samples.append(yardstick.sample_s())

    def sampler(self, rss: bool) -> Sampler:
        """A ``Sampler`` for a multi-process workload's timed work.  Its
        samples, each taken after a sleep during which the workload ran,
        join ``speed_samples`` when it closes (untraced runs only)."""
        return Sampler(rss=rss, yardstick=not self.trace,
                       samples=self.speed_samples)

    @property
    def setup_s(self) -> float:
        return median(self.setup_times)

    def trace_summary(self) -> Dict[str, float]:
        """Coverage of the timed top-level spans (every root span but
        ``setup``) by their child spans, and the tracing overhead: the
        spans recorded outside set-up times what one traced span costs
        over one untraced span, both timed here at the end of the run."""
        spans = self.tracer.spans
        root: List[int] = []
        for i, (_n, _s, _e, parent, _j) in enumerate(spans):
            root.append(i if parent is None else root[parent])
        roots = {i for i, s in enumerate(spans) if s[3] is None and s[0] != "setup"}
        covered = sum(end - start for _n, start, end, parent, _j in spans
                      if parent in roots)
        total = sum(spans[i][2] - spans[i][1] for i in roots)
        timed = sum(1 for r in root if r in roots)
        per_span = _span_cost_s(True) - _span_cost_s(False)
        return {
            "trace.coverage": covered / total if total else 0.0,
            "trace.overhead_ms": 1e3 * timed * per_span,
        }
