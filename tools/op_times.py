"""Per-op-kind times of one benchmark workload, run in-process on one tree.

    python3 tools/op_times.py --tree DIR --workload coding --seed 0 --cycles 32

``DIR`` is a checkout that holds ``src/extrakit`` and ``perfbench/``.  The
workload is built from that tree's ``perfbench/workloads.py`` with that
tree's ``extrakit`` (anything imported from elsewhere is refused), warmed
up, and then run for ``--cycles`` whole cycles.  Each op is timed alone
with ``time.perf_counter`` and then checked as ``perfbench`` checks it;
times are raw host seconds, with no calibration.  Nothing in the tree is
edited, and the input files go to a temporary directory.

The one stdout line is JSON: the tree, its commit, the workload, seed and
cycles, the op count, the failed ops (with up to 20 reasons), the summed
op time, and per op kind (``Op.kind``, such as ``cli.muchnik-demo``) its
count, its share of the summed op time and its mean time in ms, largest
share first.  The exit code is 1 when an op failed its check, else 0.

To compare two trees, run each in its own process, alternating, and
compare the per-kind means; one process per tree keeps the two
``extrakit`` packages apart.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import traceback
from pathlib import Path


def load_workloads(tree: Path):
    """``perfbench/workloads.py`` of ``tree``, importing ``tree``'s extrakit."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import extrakit
    import workloads

    src = Path(extrakit.__file__).resolve().parent
    if src != tree / "src" / "extrakit":
        raise ImportError(f"extrakit imported from {src}, not from {tree / 'src'}")
    return workloads


def run_op(op) -> tuple[float, str | None]:
    """Time one op's call, then check its outcome: (seconds, reason or None)."""
    exc = None
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as caught:
        result, exc = None, caught
    elapsed = time.perf_counter() - t0
    if exc is not None and not isinstance(exc, op.expect):
        return elapsed, "".join(traceback.format_exception_only(type(exc), exc)).strip()
    try:
        return elapsed, op.check(result, exc)
    except Exception as check_exc:
        return elapsed, f"check raised {check_exc!r}"


def op_times(tree: Path, workload: str, seed: int, cycles: int) -> dict:
    """Run ``cycles`` cycles of ``workload`` on ``tree``; the summary."""
    tree = tree.resolve()
    workloads = load_workloads(tree)
    counts: dict[str, int] = {}
    seconds: dict[str, float] = {}
    failures: list[str] = []
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[workload](seed, Path(workdir))
        wl.warmup()
        for _ in range(cycles):
            for op in wl.cycle():
                elapsed, reason = run_op(op)
                counts[op.kind] = counts.get(op.kind, 0) + 1
                seconds[op.kind] = seconds.get(op.kind, 0.0) + elapsed
                if reason is not None:
                    failed += 1
                    if len(failures) < 20:
                        failures.append(f"{op.kind}: {reason}")
    total = sum(seconds.values())
    kinds = {
        kind: {
            "count": counts[kind],
            "share": seconds[kind] / total if total else 0.0,
            "mean_ms": 1000 * seconds[kind] / counts[kind],
        }
        for kind in sorted(seconds, key=lambda k: (-seconds[k], k))
    }
    return {
        "tree": str(tree),
        "git_commit": workloads.core.git_commit(tree),
        "workload": workload,
        "seed": seed,
        "cycles": cycles,
        "ops": sum(counts.values()),
        "failed": failed,
        "failures": failures,
        "total_ms": 1000 * total,
        "kinds": kinds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cycles", type=int, default=32)
    args = ap.parse_args(argv)
    if args.cycles < 1:
        ap.error("--cycles must be at least 1")
    summary = op_times(args.tree, args.workload, args.seed, args.cycles)
    print(json.dumps(summary))
    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
