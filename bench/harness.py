"""Closed-loop op runner, span tracer and run-environment probes.

A workload hands the runner one pass of ops at a time.  Each op is one
timed public call into wordsums (or one CLI subprocess).  The runner
times ops back to back on one thread, keeps a compact digest of every
result for the correctness gate, and, when tracing, records spans in
memory for the per-layer report.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict[str, str]:
    """Environment for subprocesses: package on the path, one thread each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


# -- tracing --------------------------------------------------------------


@dataclass
class Span:
    name: str           # module.function
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 at top level
    op: int             # op id; 0 for set-up and extra calls


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: Optional[str]) -> Iterator[None]:
        if not self.enabled or name is None:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        with self.span(name):
            return fn()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, [])):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


# -- ops and passes -------------------------------------------------------


@dataclass
class Op:
    key: str                        # identifies the inputs; equal keys, equal results
    span: Optional[str]             # module.function of the call; None if the call opens its own
    module: str                     # layer charged when the op fails
    call: Callable[[], Any]
    digest: Callable[[Any], Any] = lambda r: r
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    key: str
    module: str
    latency: float
    digest: Any
    error: Optional[str]
    meta: dict


def cpu_seconds() -> float:
    """CPU time of this thread plus that of every waited-for child.

    On a shared host the wall clock of a CPU-bound op also counts the
    time the hypervisor gives the core to someone else; CPU time counts
    only the op's own work, so op latencies, passes and set-up are measured
    in it.
    """
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + ru.ru_utime + ru.ru_stime


def run_pass(ops: Iterator[Op], tracer: Tracer, first_id: int) -> list[Outcome]:
    """Run one pass closed-loop; returns the outcomes."""
    outcomes = []
    for i, op in enumerate(ops):
        tracer.op = first_id + i
        err = None
        t0 = cpu_seconds()
        try:
            with tracer.span(op.span):
                res = op.call()
            t1 = cpu_seconds()
            dig = op.digest(res)
        except Exception as e:  # a failed op is counted, never dropped
            t1 = cpu_seconds()
            dig, err = None, f"{type(e).__name__}: {e}"
        outcomes.append(Outcome(op.key, op.module, t1 - t0, dig, err, op.meta))
    tracer.op = 0
    return outcomes


# -- host-speed calibration --------------------------------------------------

# The kernel's median CPU time on the host the baseline in README.md comes
# from (2-core virtualized Xeon, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 0.016
# CPU seconds of ops between two kernel runs; the kernel takes about 15 ms
PROBE_EVERY_S = 0.25
_calibration_inputs: tuple = ()


def _kernel() -> None:
    """Fixed work of the three kinds the ops do: interpreter, sort, row unique."""
    import numpy as np

    global _calibration_inputs
    if not _calibration_inputs:
        # a multiplicative hash, not numpy.random, whose modules would add
        # some 8 MB to peak_rss_mb
        flat = np.arange(100_000, dtype=np.int64)
        flat *= 2654435761
        flat %= 2**32
        rows = (flat[:12_000] % 50).reshape(4000, 3)
        flat %= 1000
        _calibration_inputs = (flat, rows, np.empty_like(flat))
    flat, rows, buf = _calibration_inputs
    s = 0
    for i in range(60_000):
        s += i & 7
    for _ in range(10):  # sorts in place: no allocation to move peak_rss_mb
        buf[:] = flat
        buf.sort()
    np.unique(rows, axis=0)


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU; returns which.

    How fast the same work runs changes from one CPU of a shared host to
    the next, so host_factor must measure the CPU the ops run on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel_seconds() -> float:
    """CPU seconds of one run of the calibration kernel."""
    t0 = cpu_seconds()
    _kernel()
    return cpu_seconds() - t0


def host_factor(kernel_times: list[float]) -> float:
    """CALIBRATION_REF_S over the kernel's median CPU time.

    On a shared host the CPU time of the same work swings by 30-50%, from
    one second to the next and in episodes of up to a minute, with the
    load other tenants put on the machine; the kernel's time swings with
    it.  Times multiplied by the factor of kernel runs made among them
    read as on the reference host.
    """
    return CALIBRATION_REF_S / statistics.median(kernel_times)


def probed(ops: Iterator[Op], kernel_times: list[float]) -> Iterator[Op]:
    """Yield the ops, running the kernel between two ops every PROBE_EVERY_S.

    A generator resumes only after the op it yielded has returned, so the
    kernel runs outside every op's timing.
    """
    last = cpu_seconds()
    for op in ops:
        yield op
        if cpu_seconds() - last >= PROBE_EVERY_S:
            kernel_times.append(kernel_seconds())
            last = cpu_seconds()


# -- statistics and environment ----------------------------------------------


def p50_p90(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), q[8]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_seconds() -> float:
    """CPU time of `import wordsums` in a fresh interpreter."""
    code = (
        "import time; t = time.process_time(); import wordsums; "
        "print(time.process_time() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            if (idx / "level").read_text().strip() == str(level):
                return (idx / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "git_commit": _git_commit(),
        "threads_pinned": {v: os.environ.get(v) for v in THREAD_VARS},
    }
