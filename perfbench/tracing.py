"""Span tracing for the benchmark's traced run.

The traced run wraps extrakit's public functions from outside: every
module attribute bound to a listed function (including names other
modules imported, such as ``randgraph.verify_extractor``) is replaced by
a wrapper that records one span per call.  A span is
``(span_id, parent_id, op_id, name, start, end, note)``; spans stay in
memory and are written out when the run ends.  Self time is a span's
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: Public functions wrapped in the traced run, by module.  ``bits`` is not
#: wrapped: its calls are too fine-grained and it is measured through its
#: callers.  ``graph.hist`` is the ``BipartiteGraph.hist`` property getter.
TARGETS = {
    "graph": (
        "hist", "verify_extractor", "verify_disperser", "verify_prefix_extractor",
        "worst_flat_distance", "graph_of_function", "read_graph", "write_graph",
    ),
    "randgraph": ("sample_graph", "existence_trial"),
    "muchnik": (
        "compute_bad", "encode", "neighbor_rank", "decode", "encode_multi",
        "iterative_chain", "verify_fortnow",
    ),
    "ecc": ("build_code", "encode", "brute_list_decode"),
    "design": ("greedy_weak_design", "verify_design"),
    "trevisan": ("trevisan_build", "trevisan_eval", "nw_generate", "trevisan_graph"),
    "hashext": ("hash_table", "flat_output_distance", "collision_prob", "hash_eval"),
    "dist": ("push_forward", "stat_dist", "flat_decompose"),
    "compose": ("merger_output_dist", "iterated_compose_dp"),
}

#: CLI subcommands the workloads call through ``extrakit.cli.main``.
CLI_SUBCOMMANDS = (
    "existence-trial", "verify-graph", "sample-graph", "muchnik-demo",
    "extract", "gen-design", "encode-code", "compose-demo",
)

#: Derived per-layer metrics beyond ``<name>.calls`` and ``<name>.self_s``.
DERIVED = {
    "graph.verify_extractor.events_per_s": ("1/s", "higher"),
    "graph.worst_flat_distance.subsets_per_s": ("1/s", "higher"),
    "graph.verify_disperser.sets_per_s": ("1/s", "higher"),
    "graph.fail_verdict_share": ("ratio", "higher"),
    "muchnik.encode.growth": ("ratio", "lower"),
    "ecc.encode.repeat_share": ("ratio", "higher"),
    "cli.stdout_mismatches": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
    return names + [f"cli.{sub}" for sub in CLI_SUBCOMMANDS]


def per_layer_spec() -> list[dict]:
    """Every per-layer metric as ``{"name", "unit", "better"}``."""
    spec = []
    for name in span_names():
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


class Tracer:
    """Collects spans from wrapped functions while ``active`` is true.

    Each thread keeps its own span stack.  A span opened on a thread with
    an empty stack (a worker thread of ``verify-graph --threads``) takes
    the innermost open span of the thread that runs the ops as parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        self.op_id = 0
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None):
        """Wrapper recording a span named ``name``; ``note(args, result)``
        may attach a small summary of the call to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._owner_stack[-1] if tracer._owner_stack else 0
            )
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            info = note(args, kwargs, result) if note else None
            tracer.spans.append((sid, parent, tracer.op_id, name, start, end, info))
            return result

        traced.__traced_original__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fp:
            for sid, parent, op, name, start, end, info in self.spans:
                fp.write(json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": name,
                     "start": start, "end": end, "note": info}
                ) + "\n")


# ---------------------------------------------------------------------------
# notes: small per-call summaries for the derived rates


def _comb_rank(Y, M: int) -> int:
    """0-based rank of the sorted tuple Y among combinations(range(M), len(Y))."""
    L = len(Y)
    rank, prev = 0, -1
    for i, y in enumerate(Y):
        for v in range(prev + 1, y):
            rank += math.comb(M - 1 - v, L - 1 - i)
        prev = y
    return rank


def _note_extractor(args, kwargs, verdict):
    G = args[0]
    if verdict.ok:
        return {"ok": True, "events": (1 << G.M) - 1}
    return {"ok": False, "events": sum(1 << int(z) for z in verdict.witness[0])}


def _note_disperser(args, kwargs, verdict):
    G, K, eps = args[:3]
    L = math.ceil(eps * G.M)
    if verdict.ok:
        return {"ok": True, "sets": math.comb(G.M, L) if L <= G.M else 0}
    return {"ok": False, "sets": _comb_rank(verdict.witness[1], G.M) + 1}


def _note_verdict(args, kwargs, verdict):
    return {"ok": bool(verdict.ok)}


def _note_flat(args, kwargs, result):
    return {"subsets": math.comb(args[0].N, args[1])}


def _note_muchnik_encode(args, kwargs, result):
    return {"set_size": len(args[1])}


NOTES = {
    "graph.verify_extractor": _note_extractor,
    "graph.verify_disperser": _note_disperser,
    "graph.verify_prefix_extractor": _note_verdict,
    "graph.worst_flat_distance": _note_flat,
    "muchnik.encode": _note_muchnik_encode,
}


class _CodeInputs:
    """Per code object, the message values ``ecc.encode`` has already seen."""

    def __init__(self):
        import weakref

        self.seen = weakref.WeakKeyDictionary()

    def note(self, args, kwargs, result):
        code, x = args[0], args[1]
        values = self.seen.setdefault(code, set())
        repeat = x.value in values
        values.add(x.value)
        return {"repeat": repeat}


def install(tracer: Tracer):
    """Wrap every target everywhere it is bound; returns an undo callable."""
    import extrakit
    from extrakit import cli, graph

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "extrakit" or n.startswith("extrakit."))]
    undo = []
    code_inputs = _CodeInputs()
    for mod_name, fns in TARGETS.items():
        mod = importlib.import_module(f"extrakit.{mod_name}")
        for fn_name in fns:
            if (mod_name, fn_name) == ("graph", "hist"):
                continue
            name = f"{mod_name}.{fn_name}"
            orig = getattr(mod, fn_name)
            note = code_inputs.note if name == "ecc.encode" else NOTES.get(name)
            wrapped = tracer.wrap(name, orig, note)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        undo.append((m, attr, orig))
    hist = graph.BipartiteGraph.__dict__["hist"]
    graph.BipartiteGraph.hist = property(tracer.wrap("graph.hist", hist.fget))
    undo.append((graph.BipartiteGraph, "hist", hist))

    main = cli.main

    @functools.wraps(main)
    def traced_main(argv=None):
        return tracer.wrap(f"cli.{argv[0]}", main)(argv)

    for m in (cli, extrakit):
        if getattr(m, "main", None) is main:
            setattr(m, "main", traced_main)
            undo.append((m, "main", main))

    def restore():
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)

    return restore


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Per span id: duration minus the time its children cover."""
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end, _info in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _parent, _op, _name, start, end, _info in spans
    }


def _rate(total: float, seconds: float) -> float:
    return total / seconds if seconds > 0 else 0.0


def layer_metrics(spans, slowness: float, overhead_ratio: float, cli_mismatches: int) -> dict:
    """Every per-layer metric, as ``{name: value}``; absent layers read 0.

    Times are divided by ``slowness``, the host's speed against the
    reference machine (see ``core.REF_CAL_S``).
    """
    own = {sid: t / slowness for sid, t in self_times(spans).items()}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for span in spans:
        sid, name = span[0], span[3]
        calls[name] += 1
        self_s[name] += own[sid]
        by_name[name].append(span)
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    def duration(name):
        return sum(s[5] - s[4] for s in by_name[name]) / slowness

    out["graph.verify_extractor.events_per_s"] = _rate(
        sum(s[6]["events"] for s in by_name["graph.verify_extractor"]),
        duration("graph.verify_extractor"))
    out["graph.worst_flat_distance.subsets_per_s"] = _rate(
        sum(s[6]["subsets"] for s in by_name["graph.worst_flat_distance"]),
        duration("graph.worst_flat_distance"))
    out["graph.verify_disperser.sets_per_s"] = _rate(
        sum(s[6]["sets"] for s in by_name["graph.verify_disperser"]),
        duration("graph.verify_disperser"))
    verdicts = [s[6]["ok"] for n in ("graph.verify_extractor", "graph.verify_disperser",
                                     "graph.verify_prefix_extractor")
                for s in by_name[n]]
    out["graph.fail_verdict_share"] = (
        verdicts.count(False) / len(verdicts) if verdicts else 0.0)

    per_size = defaultdict(list)
    for s in by_name["muchnik.encode"]:
        per_size[s[6]["set_size"]].append(s[5] - s[4])
    if len(per_size) > 1:
        lo, hi = per_size[min(per_size)], per_size[max(per_size)]
        out["muchnik.encode.growth"] = (sum(hi) / len(hi)) / (sum(lo) / len(lo))
    else:
        out["muchnik.encode.growth"] = 0.0
    enc = by_name["ecc.encode"]
    out["ecc.encode.repeat_share"] = (
        sum(s[6]["repeat"] for s in enc) / len(enc) if enc else 0.0)
    out["cli.stdout_mismatches"] = cli_mismatches
    out["trace.overhead_ratio"] = overhead_ratio
    return out
