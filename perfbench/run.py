"""extrakit benchmark: one command per workload, one JSON result line.

    python3 perfbench/run.py --workload verify|coding|construct \\
        --seed N --seconds S --trace 0|1

The command is a launcher.  It starts fresh workload processes one
after another: ``SETUP_PROBES`` of them only set up (import, input
generation, input files, warm-up) and report how long that took from
process start; the last one sets up the same way and then runs the
closed loop.  ``setup_s`` is the median of all set-ups.  Times are
reported at the speed of a reference machine (see ``core.REF_CAL_S``).  BLAS/OpenMP
threads are capped at ``min(2, nproc)`` in every child.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the workload process runs the loop untraced for
``--seconds``, then runs the workload's first ``TRACE_CYCLES`` cycles
again with every listed extrakit function wrapped, and the result
carries the per-layer metrics; the spans go to ``perfbench/out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment.  The exit code is 0 only
when every op passed its check.  ``--record-digests`` rewrites the
pinned CLI stdout digests of the default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
#: Calibration passes that rate the host's speed right after a set-up.
SETUP_CAL = 30
#: Whole-command limit; every child is killed before it.
TIME_LIMIT_S = 170.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "coding", "construct"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--role", choices=("launcher", "probe", "worker"), default="launcher",
                    help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# workload process


def import_extrakit():
    """extrakit from this checkout's ``src``; anything else is refused."""
    sys.path.insert(0, str(ROOT / "src"))
    import extrakit

    if Path(extrakit.__file__).resolve().parent != ROOT / "src" / "extrakit":
        raise ImportError(f"extrakit imported from {extrakit.__file__}, not from the checkout")


def workload_process(args) -> int:
    import_extrakit()
    import core
    import tracing
    import workloads

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.record_digests)
        if args.record_digests:
            return record_digests(wl)
        wl.warmup()
        setup_raw = monotonic() - args.t0
        setup_s = setup_raw / core.speed([core.calibrate() for _ in range(SETUP_CAL)])
        if args.role == "probe":
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        plain = core.run_loop(wl, args.seconds, deadline=args.deadline)
        raw = core.end_to_end(dataclasses.replace(plain, slowness=[1.0] * plain.attempted))
        out = {"setup_s": setup_s, "setup_raw_s": setup_raw,
               "env": core.environment(ROOT, args.workload, args.seed)}
        out["env"].update(input_digest=wl.input_digest(), raw=raw,
                          slowness=core.speed(plain.calibration))
        runs = [plain]
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            wl.cycle_index = 0
            try:
                traced = core.run_loop(wl, 0, tracer=tracer, cycles=wl.TRACE_CYCLES,
                                       deadline=args.deadline)
            finally:
                restore()
            runs.append(traced)
            ratio = core.ops_per_s(traced) / core.ops_per_s(plain)
            out["metrics"] = tracing.layer_metrics(
                tracer.spans, core.speed(traced.calibration), ratio,
                sum(r.cli_mismatches for r in runs))
            spans_dir = HERE / "out"
            spans_dir.mkdir(exist_ok=True)
            tracer.write(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            out["metrics"] = core.end_to_end(plain)
            out["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        out["attempted"] = sum(r.attempted for r in runs)
        out["failed"] = sum(r.failed for r in runs)
        out["failures"] = [f for r in runs for f in r.failures]
        out["samples"] = plain.attempted
        out["cycles"] = plain.cycles
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_digests(wl) -> int:
    import workloads

    failures = []
    for _ in range(workloads.POOL):
        for op in wl.cycle():
            if op.cli:
                reason = op.check(op.call(), None)
                if reason:
                    failures.append(f"{op.kind}: {reason}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    path = workloads.DIGESTS
    pins = json.loads(path.read_text()) if path.is_file() else {}
    pins[wl.name] = dict(sorted(wl.recorded.items()))
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(wl.recorded)} {wl.name} CLI digests for seed {wl.seed}")
    return 0


# ---------------------------------------------------------------------------
# launcher


def child(args, role: str, env: dict, deadline: float) -> dict:
    """Run one workload process to completion; its last stdout line is JSON."""
    t0 = monotonic()
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--deadline", repr(deadline - 15)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{role} process exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def launcher(args) -> int:
    import core

    # a terminated launcher still stops its workload process (see child())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = monotonic()
    deadline = start + TIME_LIMIT_S
    if not (ROOT / "src" / "extrakit" / "__init__.py").is_file():
        print(f"error: no extrakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap = core.op_threads()
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(cap)
    probes_wanted = 0 if args.trace else SETUP_PROBES  # setup_s is end-to-end only
    try:
        probes = [child(args, "probe", env, deadline) for _ in range(probes_wanted)]
        result = child(args, "worker", env, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups = [p["setup_s"] for p in probes]
    raw_setups = [p["setup_raw_s"] for p in probes]
    setups.append(result["setup_s"])
    raw_setups.append(result["setup_raw_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in spec(args.trace)}
    env_info = dict(result["env"], samples=result["samples"], cycles=result["cycles"],
                    setup_s=setups, setup_raw_s=raw_setups, failures=result["failures"])
    print("# env " + json.dumps(env_info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if result["failed"] == 0 else 1


def spec(trace: int) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_digests and args.seed != 0:
        print("error: digests are pinned for the default seed 0 only", file=sys.stderr)
        return 2
    if args.role == "launcher" and not args.record_digests:
        return launcher(args)
    if args.t0 is None:
        args.t0 = monotonic()
    if args.deadline is None:
        args.deadline = monotonic() + TIME_LIMIT_S
    return workload_process(args)


if __name__ == "__main__":
    sys.exit(main())
