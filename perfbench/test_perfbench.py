"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import core  # noqa: E402
import tracing  # noqa: E402


# -- percentile rule ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100, shuffled order must not matter
    samples.reverse()
    assert core.percentile(samples, 0.5) == 50
    assert core.percentile(samples, 0.9) == 90


def test_p90_needs_ten_samples_beyond_it():
    assert core.MIN_OPS == 100
    core.percentile(list(range(100)), 0.9)  # rank 90, ten beyond
    with pytest.raises(ValueError, match="need 10"):
        core.percentile(list(range(99)), 0.9)
    assert core.percentile([3.0, 1.0, 2.0], 0.5) == 2.0  # the median has no tail rule


def test_run_loop_times_at_least_min_ops():
    class Tiny:
        def cycle(self):
            return [core.Op("noop", lambda: 1, lambda r, e: None)] * 7

    stats = core.run_loop(Tiny(), seconds=0.0)
    assert stats.attempted >= core.MIN_OPS and stats.attempted % 7 == 0
    metrics = core.end_to_end(stats)
    assert metrics["ok_ratio"] == 1.0 and metrics["op_p90_ms"] >= metrics["op_p50_ms"]


def test_failed_checks_and_unexpected_exceptions_count():
    def boom():
        raise ZeroDivisionError

    class Mixed:
        def cycle(self):
            return [core.Op("ok", lambda: 1, lambda r, e: None),
                    core.Op("wrong", lambda: 1, lambda r, e: "bad"),
                    core.Op("raises", boom, lambda r, e: None),
                    core.Op("expected", boom, lambda r, e: None, expect=(ZeroDivisionError,))]

    stats = core.run_loop(Mixed(), seconds=0.0, cycles=25)
    assert stats.attempted == 100 and stats.failed == 50


def test_never_more_threads_than_cores(monkeypatch):
    for cores in (1, 2, 8):
        monkeypatch.setattr(core, "nproc", lambda: cores)
        assert core.op_threads() == min(core.MAX_OP_THREADS, cores) <= cores


# -- spans and self time ----------------------------------------------------


def span(sid, parent, name, start, end):
    return (sid, parent, 1, name, start, end, None)


def test_self_time_subtracts_children():
    spans = [
        span(1, 0, "root", 0.0, 10.0),
        span(2, 1, "child", 1.0, 4.0),
        span(3, 2, "grandchild", 2.0, 3.0),
        span(4, 1, "child", 5.0, 6.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once():
    # two worker threads under one span overlap in time
    spans = [span(1, 0, "root", 0.0, 10.0), span(2, 1, "a", 2.0, 6.0),
             span(3, 1, "b", 4.0, 8.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(4.0)


def test_wrapped_calls_nest_existence_verify_hist():
    from extrakit import ExistenceParams, existence_trial, graph, randgraph

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.active = True
        report = randgraph.existence_trial(ExistenceParams(16, 6, 4, Fraction(1, 4)), 2, 3)
        tracer.active = False
    finally:
        restore()
    assert report.trials == 2
    by_id = {s[0]: s for s in tracer.spans}
    names = [s[3] for s in tracer.spans]
    assert names.count("randgraph.existence_trial") == 1
    assert names.count("graph.verify_extractor") == 2
    for s in tracer.spans:
        if s[3] == "graph.hist":
            parent = by_id[s[1]]
            assert parent[3] == "graph.verify_extractor"
            assert by_id[parent[1]][3] == "randgraph.existence_trial"
            assert parent[4] <= s[4] <= s[5] <= parent[5]
    root = next(s for s in tracer.spans if s[1] == 0)
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(root[5] - root[4])
    # restore put every original back
    assert randgraph.verify_extractor is graph.verify_extractor
    assert not hasattr(graph.verify_extractor, "__traced_original__")
    assert existence_trial is randgraph.existence_trial


# -- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("name", ["verify", "coding", "construct"])
def test_same_seed_same_inputs(name):
    import shutil

    import workloads

    def inputs(seed, sub):
        workdir = HERE / ".work" / f"selftest-{name}-{sub}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            return workloads.WORKLOADS[name](seed, workdir).input_digest()
        finally:
            shutil.rmtree(workdir)

    first, again, other = inputs(5, "a"), inputs(5, "b"), inputs(6, "c")
    assert first == again
    assert first != other


# -- metric names -----------------------------------------------------------


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_spec():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert bench["per_layer"] == tracing.per_layer_spec()
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"ops_per_s", "op_p50_ms", "op_p90_ms", "cpu_per_op_ms", "ok_ratio",
                   "peak_rss_mb", "setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
