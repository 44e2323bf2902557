"""Alternating parent/change benchmark pairs, summarised into one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload construct --pairs 10 --seed 21101 --out BENCH_12.json

Both trees are checkouts that hold ``perfbench/run.py`` and
``BENCHMARK.json``.  For the k-th workload named, pair i runs ``run.py
--seed SEED+100k+i --seconds R --trace 0`` once on each tree, where R is
the ``run_seconds`` of the parent's ``BENCHMARK.json``, parent first in even
pairs and change first in odd ones, so drift of the host's speed over
time falls on both sides alike.  Runs are sequential, each in fresh
processes, and nothing in either tree is edited.

For every end-to-end metric of ``BENCHMARK.json`` and each side the file
records the median and quartiles, and how many pairs the change won
(better in the metric's direction; ties count for neither side).  The
same summary is given for the raw ``ops_per_s`` of the ``# env`` line
and for the median of its raw set-up times ``setup_raw_s`` (before
``setup_s`` divides them by the calibration), so that a move of
``setup_s`` can be told apart from drift of the calibration; the
calibration ``slowness`` gets its spread.  ``gain`` holds when the change won
at least nine tenths of the pairs and its median beats the parent's by
more than the parent's interquartile range, and never on a workload
where the change's runs failed more ops in all than the parent's;
``within_bound`` holds when the change's median is not worse than the
parent's by more than the metric's bound.  A metric is ``unresolved``
(and ``within_bound`` is null) when either side's interquartile range,
relative to the parent's median, is wider than the bound, unless every
change run beats every parent run.  Every run is kept with its seed, order, ``correct`` flag
and failed-op count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run on ``tree``: its metrics, raw
    ``ops_per_s`` and set-up time, slowness and correctness."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return parse_output(proc.stdout, proc.returncode, proc.stderr)


def parse_output(stdout: str, returncode: int, stderr: str = "") -> dict:
    """The ``# env`` line and the last (result) line of a run's stdout.

    Exit code 1 is a run whose ops failed a check: it still has a result
    and counts as not ``correct``.  Any other nonzero code means the run
    produced no result and raises.
    """
    lines = stdout.strip().splitlines()
    if returncode not in (0, 1) or len(lines) < 2 or not lines[-2].startswith("# env "):
        raise RuntimeError(f"run exited with code {returncode} and no result: {stderr.strip()}")
    env = json.loads(lines[-2][len("# env "):])
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw_ops_per_s": env["raw"]["ops_per_s"],
        "setup_raw_s": statistics.median(env["setup_raw_s"]),
        "slowness": env["slowness"],
        "git_commit": env.get("git_commit"),
    }


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method, so two values suffice)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str, bound: float | None = None) -> dict:
    """Both sides' spreads, the change's wins over paired values, and the
    gain and bound verdicts."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    out = {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "pairs": len(parent),
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "gain": (wins >= 0.9 * len(parent)
                 and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]),
    }
    if bound is not None:
        widest = max(p["q3"] - p["q1"], c["q3"] - c["q1"])
        separated = (min(change) > max(parent) if sign > 0 else max(change) < min(parent))
        out["unresolved"] = widest > bound * abs(p["median"]) and not separated
        worse = -sign * (c["median"] - p["median"])
        out["within_bound"] = None if out["unresolved"] else worse <= bound * abs(p["median"])
    return out


def summarize(runs: list, spec: list) -> dict:
    """Per-metric comparison of a workload's pairs; ``runs`` holds dicts
    with one ``run_once`` result per side."""
    side = {s: [r[s] for r in runs] for s in SIDES}

    def paired(pick):
        return tuple([pick(x) for x in side[s]] for s in SIDES)

    metrics = {}
    for m in spec:
        name = m["name"]
        metrics[name] = compare(*paired(lambda x: x["metrics"][name]), m["better"], m["bound"])
        metrics[name].update(unit=m["unit"], better=m["better"], bound=m["bound"])
    raw = compare(*paired(lambda x: x["raw_ops_per_s"]), "higher")
    raw_setup = compare(*paired(lambda x: x["setup_raw_s"]), "lower")
    failed = {s: sum(x["failed"] for x in side[s]) for s in SIDES}
    if failed["change"] > failed["parent"]:
        # a gain does not count when more ops fail than at the parent
        for verdict in (*metrics.values(), raw, raw_setup):
            verdict["gain"] = False
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": {s: all(x["correct"] for x in side[s]) for s in SIDES},
        "failed_ops": failed,
        "metrics": metrics,
        "raw_ops_per_s": raw,
        "setup_raw_s": raw_setup,
        "slowness": {s: spread([x["slowness"] for x in side[s]]) for s in SIDES},
        "commits": {s: sorted({x["git_commit"] for x in side[s]}, key=str) for s in SIDES},
        "runs": runs,
    }


def bench_pairs(parent: Path, change: Path, workloads: list, pairs: int, seed: int,
                out_path: Path, log=print) -> dict:
    """Run the pairs and write the summary to ``out_path`` after each
    workload, so a cut run keeps the workloads it finished."""
    bench = json.loads((parent / "BENCHMARK.json").read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    trees = {"parent": parent, "change": change}
    out = {"run_seconds": seconds, "pairs": pairs, "workloads": {}}
    for w_idx, workload in enumerate(workloads):
        runs = []
        for i in range(pairs):
            s = seed + 100 * w_idx + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": s, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, s, seconds)
            runs.append(pair)
            log(f"{workload} seed {s}: ops_per_s "
                f"{pair['parent']['metrics']['ops_per_s']:.1f} -> "
                f"{pair['change']['metrics']['ops_per_s']:.1f}")
        out["workloads"][workload] = summarize(runs, spec)
        out_path.write_text(json.dumps(out, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a run.py workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench_pairs(args.parent.resolve(), args.change.resolve(), args.workload, args.pairs,
                args.seed, args.out,
                log=lambda msg: print(msg, file=sys.stderr, flush=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
