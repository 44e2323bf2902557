"""Timed closed loop, statistics and environment record for the benchmark.

One client issues one op at a time; each op starts only after the
previous one returned and its result was checked.  Checks run outside
the timed interval.  A run executes whole cycles of a workload's op
list until the timed op time reaches the requested seconds and at least
``MIN_OPS`` ops were timed, so every run measures the same op mix.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

#: p90 needs at least ten samples beyond it; a tenth of the samples lie
#: beyond p90, so a run times at least ten times that many ops.
P90_TAIL = 10
MIN_OPS = 10 * P90_TAIL
#: Threads the benchmark may start at most (the ``--threads`` op).
MAX_OP_THREADS = 2


#: Median time of ``calibrate()`` on the reference machine (a 2-vCPU
#: Intel Xeon VM at 2.1 GHz).  Times are reported at that speed: each op's
#: time is divided by the median of the latest ``CAL_WINDOW`` calibration
#: samples over this constant, so that the host's speed drifting (up to
#: 1.8x over two minutes on a shared VM) does not read as a change of the
#: program.
REF_CAL_S = 0.00146
#: Op time between two calibration samples.
CAL_EVERY_S = 0.05
CAL_WINDOW = 15

@functools.cache
def _calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(12345)
    return (rng.integers(0, 100, size=(4096, 128)), rng.choice(4096, 512, replace=False),
            rng.integers(0, 5, size=(64, 4096)), [rng.choice(4096, 6) for _ in range(20)])


def calibrate() -> float:
    """Time one pass of a fixed kernel that owes nothing to extrakit: a
    Python integer loop, a growing big integer, gathers from a 4 MB array,
    and small numpy calls in a Python loop -- the kinds of work the
    workloads do."""
    big, rows, small, cols = _calibration_inputs()
    t0 = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i
    word = 1
    for _ in range(30):
        word = (word << 32768) | i
    for _ in range(2):
        big[rows].sum(axis=0)
    for c in cols:
        small[:, c].sum(axis=1).max()
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Host slowness against the reference: >1 means slower than it."""
    return statistics.median(samples) / REF_CAL_S


@dataclass
class Op:
    """One public call or CLI subcommand, plus the check of its result.

    ``check(result, exc)`` returns None when the outcome is right, else a
    reason.  ``exc`` is an exception of a type listed in ``expect``; any
    other exception fails the op.  ``cli`` marks ops whose check compares
    CLI stdout.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, Optional[BaseException]], Optional[str]]
    expect: tuple = ()
    cli: bool = False


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refuses when fewer than ``P90_TAIL``
    samples lie beyond the rank."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < P90_TAIL and q > 0.5:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples leaves {n - rank} beyond it;"
            f" need {P90_TAIL}"
        )
    return sorted(samples)[rank - 1]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def op_threads() -> int:
    """Threads the ``--threads`` op starts, and the BLAS/OpenMP cap: never
    more than the cores this process may run on."""
    return min(MAX_OP_THREADS, nproc())


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "blas_threads": int(os.environ.get("OMP_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
    }


def run_cli(argv) -> tuple[int, str, str]:
    """``extrakit.cli.main(argv)`` in process, capturing stdout and stderr."""
    from extrakit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class RunStats:
    latencies: list
    cpu: list
    attempted: int = 0
    failed: int = 0
    cli_mismatches: int = 0
    cycles: int = 0
    failures: list = None
    calibration: list = None
    slowness: list = None  # per op, the host's slowness when it ran

    @property
    def op_seconds(self) -> float:
        return sum(self.latencies)


def run_loop(workload, seconds: float, tracer=None, cycles: Optional[int] = None,
             deadline: Optional[float] = None) -> RunStats:
    """Run whole cycles until ``seconds`` of op time and ``MIN_OPS`` ops
    (or exactly ``cycles`` cycles when given)."""
    stats = RunStats(latencies=[], cpu=[], failures=[], calibration=[], slowness=[])
    perf, cpu = time.perf_counter, time.process_time
    since_cal = CAL_EVERY_S
    while True:
        for op in workload.cycle():
            if since_cal >= CAL_EVERY_S:
                stats.calibration.append(calibrate())
                since_cal = 0.0
                slowness = speed(stats.calibration[-CAL_WINDOW:])
            if tracer is not None:
                tracer.op_id = stats.attempted + 1
                tracer.active = True
            exc = None
            c0, t0 = cpu(), perf()
            try:
                result = op.call()
            except Exception as caught:
                result, exc = None, caught
            t1, c1 = perf(), cpu()
            if tracer is not None:
                tracer.active = False
            stats.attempted += 1
            stats.latencies.append(t1 - t0)
            stats.slowness.append(slowness)
            since_cal += t1 - t0
            stats.cpu.append(c1 - c0)
            if exc is not None and not isinstance(exc, op.expect):
                reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            else:
                try:
                    reason = op.check(result, exc)
                except Exception as check_exc:
                    reason = f"check raised {check_exc!r}"
            if reason is not None:
                stats.failed += 1
                stats.cli_mismatches += op.cli
                if len(stats.failures) < 20:
                    stats.failures.append(f"{op.kind}: {reason}")
        stats.cycles += 1
        if cycles is not None:
            if stats.cycles >= cycles:
                return stats
        elif stats.op_seconds >= seconds and stats.attempted >= MIN_OPS:
            return stats
        if deadline is not None and time.monotonic() > deadline:
            return stats


def ops_per_s(stats: RunStats) -> float:
    return stats.attempted / sum(t / k for t, k in zip(stats.latencies, stats.slowness))


def end_to_end(stats: RunStats) -> dict:
    """End-to-end metrics, each op's times divided by its slowness."""
    lat_ms = [1000 * t / k for t, k in zip(stats.latencies, stats.slowness)]
    n = stats.attempted
    return {
        "ops_per_s": ops_per_s(stats),
        "op_p50_ms": percentile(lat_ms, 0.5),
        "op_p90_ms": percentile(lat_ms, 0.9),
        "cpu_per_op_ms": 1000 * sum(c / k for c, k in zip(stats.cpu, stats.slowness)) / n,
        "ok_ratio": (n - stats.failed) / n,
    }
