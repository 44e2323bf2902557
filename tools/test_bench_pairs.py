"""Self-tests of the pairs runner: ``python3 -m pytest tools``.

The trees here hold a stub ``perfbench/run.py`` that prints the two
result lines of the real one, so no benchmark runs.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_pairs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# ops_per_s is 100 + seed on the parent and twice that on the change;
# op_p50_ms is 5 on both sides, so no pair is won
STUB = textwrap.dedent('''
    import json, sys
    from pathlib import Path
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    side = Path(__file__).resolve().parent.parent.name
    seed = int(args["--seed"])
    with open(Path(__file__).resolve().parents[2] / "calls.txt", "a") as fp:
        fp.write(f"{side} {seed} {args['--seconds']}\\n")
    ops = (100 + seed) * (2 if side == "change" else 1)
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    metrics["ops_per_s"]["value"] = ops
    metrics["op_p50_ms"]["value"] = 5.0
    print("# env " + json.dumps({"raw": {"ops_per_s": ops / 2}, "slowness": 2.0,
                                 "git_commit": side}))
    print(json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}))
''')


def make_tree(tmp_path: Path, side: str) -> Path:
    tree = tmp_path / side
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB)
    (tree / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return tree


def test_pairs_alternate_and_summarise(tmp_path):
    parent, change = make_tree(tmp_path, "parent"), make_tree(tmp_path, "change")
    out = tmp_path / "BENCH.json"
    bench_pairs.bench_pairs(parent, change, ["construct", "verify"], 3, 10, out,
                            log=lambda msg: None)
    # every run lasts the benchmark's own run_seconds
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    calls = [c.rsplit(" ", 1) for c in (tmp_path / "calls.txt").read_text().splitlines()]
    assert {float(c[1]) for c in calls} == {seconds}
    assert [c[0] for c in calls] == [
        "parent 10", "change 10", "change 11", "parent 11", "parent 12", "change 12",
        "parent 110", "change 110", "change 111", "parent 111", "parent 112", "change 112"]
    result = json.loads(out.read_text())
    assert result["run_seconds"] == seconds
    wl = result["workloads"]["construct"]
    assert wl["seeds"] == [10, 11, 12]
    assert [r["first"] for r in wl["runs"]] == ["parent", "change", "parent"]
    ops = wl["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 111, "q1": 110.5, "q3": 111.5}
    assert ops["change"]["median"] == 222 and ops["ratio"] == 2
    assert (ops["change_wins"], ops["gain"], ops["within_bound"]) == (3, True, True)
    p50 = wl["metrics"]["op_p50_ms"]
    assert (p50["change_wins"], p50["gain"], p50["within_bound"]) == (0, False, True)
    assert wl["raw_ops_per_s"]["parent"]["median"] == 55.5
    assert wl["slowness"]["change"]["median"] == 2.0
    assert wl["correct"] == {"parent": True, "change": True}
    assert wl["commits"] == {"parent": ["parent"], "change": ["change"]}
    assert result["workloads"]["verify"]["seeds"] == [110, 111, 112]


def test_compare_follows_direction_and_counts_no_ties():
    lower = bench_pairs.compare([10, 10, 10, 10], [9, 10, 11, 8], "lower", 0.25)
    assert lower["change_wins"] == 2 and not lower["gain"]
    assert lower["within_bound"]
    # 9 wins of 10, and a median gap beyond the parent's spread
    gain = bench_pairs.compare(list(range(100, 110)), [200] * 9 + [50], "higher")
    assert gain["change_wins"] == 9 and gain["gain"] and "within_bound" not in gain
    # the same medians, but the parent's quartiles span the gap
    wide = bench_pairs.compare([1, 100, 200, 300], [300, 201, 250, 400], "higher")
    assert wide["change_wins"] == 4 and not wide["gain"]
    worse = bench_pairs.compare([100] * 4, [74] * 4, "higher", 0.25)
    assert not worse["within_bound"] and not worse["unresolved"]
    # the parent's spread (IQR 30 of median 100) is wider than a 0.2 bound:
    # no verdict, whichever way the medians lie
    noisy = [60, 85, 100, 115, 140]
    for change in ([100] * 5, [60] * 5):
        verdict = bench_pairs.compare(noisy, change, "higher", 0.2)
        assert verdict["unresolved"] and verdict["within_bound"] is None
    # a change run as noisy, but each of its runs beats every parent run
    apart = bench_pairs.compare(noisy, [150, 170, 180, 195, 220], "higher", 0.2)
    assert not apart["unresolved"] and apart["within_bound"]
    # the change's own spread counts too (lower is better here)
    spread_c = bench_pairs.compare([10] * 4, [7, 9, 11, 13], "lower", 0.1)
    assert spread_c["unresolved"] and spread_c["within_bound"] is None


def test_no_gain_when_change_fails_more_ops():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def run(ops):
        return {"correct": True, "attempted": 100, "failed": 0,
                "metrics": {m["name"]: 1.0 for m in spec} | {"ops_per_s": ops},
                "raw_ops_per_s": ops, "slowness": 1.0, "git_commit": None}

    # the change doubles ops_per_s in every pair, but one of its runs
    # fails an op
    runs = [{"seed": i, "first": "parent", "parent": run(100 + i), "change": run(200 + i)}
            for i in range(10)]
    runs[-1]["change"].update(correct=False, failed=1)
    wl = bench_pairs.summarize(runs, spec)
    assert wl["failed_ops"] == {"parent": 0, "change": 1}
    assert wl["metrics"]["ops_per_s"]["change_wins"] == 10
    assert not wl["metrics"]["ops_per_s"]["gain"] and not wl["raw_ops_per_s"]["gain"]
    # as many failed ops on each side: the gain stands
    runs[0]["parent"].update(correct=False, failed=1)
    wl = bench_pairs.summarize(runs, spec)
    assert wl["metrics"]["ops_per_s"]["gain"] and wl["raw_ops_per_s"]["gain"]


def test_run_without_result_raises():
    with pytest.raises(RuntimeError, match="code 2"):
        bench_pairs.parse_output("", 2, "error: no extrakit sources")
    failed = bench_pairs.parse_output(
        '# env {"raw": {"ops_per_s": 1}, "slowness": 1}\n'
        '{"correct": false, "attempted": 5, "failed": 1, "metrics": {}}\n', 1)
    assert (failed["correct"], failed["failed"]) == (False, 1)
