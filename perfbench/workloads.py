"""The three benchmark workloads: seeded inputs, op lists and their checks.

* ``verify`` -- the exhaustive verifiers: right-event scans (passing and
  failing ``verify_extractor``, existence trials, the CLI ``--threads``
  path) and left scans (``worst_flat_distance``, ``verify_disperser``).
* ``coding`` -- conditional coding on large graphs (N=4096) with sets of
  128, 256 and 512 vertices, so that cost growth in |S| shows.
* ``construct`` -- codes, designs, Trevisan, hashing, distributions and
  composition; no exhaustive verifier.

All inputs come from ``--seed`` during set-up.  A cycle is a fixed list
of ops; cycle ``c`` takes its instances from slot ``c % POOL`` of the
generated pools, except fresh Trevisan sources, which are never reused.
Each op builds the objects whose caches it must meet cold (graphs,
codes) inside its timed call.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import core
import refs
from core import Op

from extrakit import (
    BitString, EnumerableSet, SomewhereRandomSource, ToeplitzFamily,
    compose, design, dist, ecc, graph, hashext, muchnik, randgraph, trevisan,
)
from extrakit.errors import FeasibilityError, NoGoodNeighborError

#: Instance slots generated per workload; cycles wrap around them.
POOL = 16
#: Seed whose CLI stdout digests are pinned in ``cli_digests.json``.
DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("cli_digests.json")
QUARTER = Fraction(1, 4)


def _ok(cond: bool, reason: str):
    return None if cond else reason


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="ascii")
    return str(path)


class Workload:
    name = ""
    #: Cycles of the traced run: fixed work, so that per-layer call counts
    #: repeat exactly for a seed and self times compare across commits.
    TRACE_CYCLES = 4

    def __init__(self, seed: int, workdir: Path, record_digests: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.cycle_index = 0
        pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        use_pins = seed == DEFAULT_SEED and not record_digests
        self.pins = pins.get(self.name, {}) if use_pins else {}
        self.recorded = {} if record_digests else None
        self.check_rng = np.random.default_rng([seed, 99])
        self.setup()

    def rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])

    def seeds(self, tag: int, shape) -> np.ndarray:
        return self.rng(tag).integers(0, 2**31 - 1, size=shape)

    def input_digest(self) -> str:
        """Digest of the generated input files, which derive from the seed."""
        h = hashlib.sha256()
        for path in sorted(self.workdir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()[:16]

    def cycle(self) -> list[Op]:
        ops = self.build_cycle(self.cycle_index, self.cycle_index % POOL)
        self.cycle_index += 1
        return ops

    def cli_op(self, key: str, argv, check) -> Op:
        """A CLI op: stdout must match the pinned digest (default seed only)
        and pass ``check(rc, stdout)``; stderr must stay empty."""

        def verify(res, exc):
            rc, out, err = res
            got = core.digest(out)
            if self.recorded is not None:
                self.recorded[key] = got
            pinned = self.pins.get(key)
            if pinned is not None and pinned != got:
                return f"stdout digest {got} differs from pinned {pinned}"
            if err:
                return f"stderr: {err.strip()[:200]}"
            return check(rc, out)

        return Op(f"cli.{argv[0]}", lambda: core.run_cli(argv), verify, cli=True)

    def warmup(self) -> None:
        """Touch numpy and every op's code path once, on tiny instances."""
        for op in self.warmup_ops():
            res, exc = None, None
            try:
                res = op.call()
            except op.expect as caught:
                exc = caught
            reason = op.check(res, exc)
            if reason is not None:
                raise RuntimeError(f"warm-up op {op.kind} failed: {reason}")


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    name = "verify"
    #: (N, M) of passing verify_extractor ops at the degree bound, K=8.
    #: Op counts per latency class are chosen so that p50 falls in the
    #: middle of the ~70 ms class (these M=12, 13 scans and the CLI
    #: verify-graph pair) and p90 in the middle of the M=14 pair.
    PASS = ((256, 12), (256, 12), (64, 13), (128, 13), (128, 14), (128, 14))
    #: (N, M) of failing ops at 3/10 of the degree bound.
    FAIL = ((64, 13), (128, 14))
    #: N of worst_flat_distance ops on random graphs with M=8, D=8, K=N/2.
    FLAT = (14, 16, 18)
    CLI_GRAPH = (128, 13)

    def degree(self, kind, N, M, K, eps=QUARTER):
        return randgraph.degree_bound(randgraph.ExistenceParams(N, M, K, eps, kind))

    def setup(self):
        self.seed_pool = self.seeds(1, (POOL, 32))
        self.threads = core.op_threads()
        N, M = self.CLI_GRAPH
        D = self.degree("extractor", N, M, 8)
        self.cli_graphs = []
        for slot in range(POOL):
            s = int(self.seed_pool[slot, 31])
            self.cli_graphs.append((self.graph_file(f"g{slot}.txt", N, M, D, s),
                                    refs.sampled_graph(N, M, D, s)))
        self.tiny_graph = (self.graph_file("tiny.txt", 16, 6, 12, 1),
                           refs.sampled_graph(16, 6, 12, 1))
        fam = ToeplitzFamily(4, 2)
        self.hash_adj = np.array([[refs.hash_extractor(4, 2, x, h) for h in range(fam.size)]
                                  for x in range(16)])
        rng = self.rng(2)
        self.toy_designs = [
            design.DesignFamily(8, 6, tuple(tuple(sorted(rng.choice(8, 6, replace=False)))
                                            for _ in range(2)))
            for _ in range(POOL)
        ]
        # hand-assembled Trevisan toys: n=4 through a t=3 code, two 6-sets in [8]
        toy_code = ecc.build_code(4, Fraction(3, 8))
        cws = [ecc.encode(toy_code, BitString(4, x)).value for x in range(16)]
        self.toy_graphs = [
            np.array([[refs.nw_bits(cws[x], 64, fam.sets, 8, y) for y in range(256)]
                      for x in range(16)])
            for fam in self.toy_designs
        ]

    def graph_file(self, name, N, M, D, s) -> str:
        G = randgraph.sample_graph(N, M, D, s)
        with open(self.workdir / name, "w", encoding="ascii") as fp:
            graph.write_graph(G, fp)
        return str(self.workdir / name)

    # -- checks -----------------------------------------------------------

    def extractor_reason(self, adj, M, K, eps, verdict):
        if verdict.ok:
            return _ok(refs.extractor_spot_check(adj, M, K, eps, self.check_rng),
                       "pass verdict but a sampled event breaks the bound")
        B, A = verdict.witness
        return _ok(refs.extractor_witness_holds(adj, M, K, eps, B, A),
                   f"witness {verdict.witness} does not fail the bound")

    # -- ops ----------------------------------------------------------------

    def extractor_op(self, N, M, D, K, s, kind="verify_extractor", dual=False):
        eps = QUARTER

        def call():
            G = randgraph.sample_graph(N, M, D, s)
            return G, graph.verify_extractor(G, K, eps)

        def check(res, exc):
            G, verdict = res
            adj = refs.sampled_graph(N, M, D, s)
            if not np.array_equal(G.adjacency, adj):
                return "sample_graph differs from the sampling rule"
            reason = self.extractor_reason(adj, M, K, eps, verdict)
            if reason is None and dual:
                # the dual side: the worst flat source decides the same verdict
                dual_ok = graph.worst_flat_distance(G, K)[1] < eps
                reason = _ok(dual_ok == bool(verdict.ok), "verdict disagrees with the dual scan")
            return reason

        return Op(kind, call, check)

    def existence_op(self, kind, N, M, K, trials, s):
        p = randgraph.ExistenceParams(N, M, K, QUARTER, kind)
        D = self.degree(kind, N, M, K)

        def check(rep, exc):
            if rep.D != D or rep.trials != trials:
                return f"report D={rep.D} trials={rep.trials}"
            failed = dict(rep.failures)
            if rep.passes != trials - len(failed):
                return "passes do not match recorded failures"
            children = np.random.SeedSequence(s).spawn(trials)
            for i in range(trials):
                adj = refs.sampled_graph(N, M, D, children[i])
                if kind == "prefix" and i in failed:
                    drop, (B, A) = failed[i]
                    ok = refs.extractor_witness_holds(adj >> drop, M >> drop, K >> drop,
                                                      QUARTER, B, A)
                elif i in failed:
                    ok = refs.extractor_witness_holds(adj, M, K, QUARTER, *failed[i])
                else:
                    ok = refs.extractor_spot_check(adj, M, K, QUARTER, self.check_rng)
                if not ok:
                    return f"trial {i} verdict does not hold"
            return None

        return Op(f"existence_trial.{kind}",
                  lambda: randgraph.existence_trial(p, trials, s), check)

    def cli_existence_op(self, key, N, M, K, trials, s):
        D = self.degree("extractor", N, M, K)
        argv = ["existence-trial", "--kind", "extractor", "--N", str(N), "--M", str(M),
                "--k", str(K), "--eps", "1/4", "--trials", str(trials), "--seed", str(s)]

        def check(rc, out):
            lines = out.splitlines()
            trial_lines = [ln for ln in lines if ln.startswith("trial=")]
            if len(trial_lines) != trials or f" D={D} " not in lines[0]:
                return "unexpected header or trial count"
            children = np.random.SeedSequence(s).spawn(trials)
            passes = 0
            for i, line in enumerate(trial_lines):
                adj = refs.sampled_graph(N, M, D, children[i])
                if line.endswith("verdict=pass"):
                    passes += 1
                    ok = refs.extractor_spot_check(adj, M, K, QUARTER, self.check_rng)
                else:
                    B, A = ast.literal_eval(line.split("witness=", 1)[1])
                    ok = refs.extractor_witness_holds(adj, M, K, QUARTER, B, A)
                if not ok:
                    return f"trial {i} line does not hold: {line}"
            if lines[-1] != f"pass_fraction={Fraction(passes, trials)}":
                return f"bad summary {lines[-1]}"
            return _ok(rc == (0 if passes else 1), f"exit code {rc}")

        return self.cli_op(key, argv, check)

    def cli_verify_op(self, key, path, adj, M, K, threads):
        argv = ["verify-graph", "--kind", "extractor", "--graph", path, "--k", str(K),
                "--eps", "1/4", "--threads", str(threads)]

        def check(rc, out):
            lines = out.splitlines()
            if lines[1] == "verdict=pass":
                return _ok(rc == 0 and refs.extractor_spot_check(adj, M, K, QUARTER,
                                                                 self.check_rng),
                           "pass verdict does not hold")
            m = re.fullmatch(r"witness B=\{([\d,]*)\} A=\{([\d,]*)\}", lines[2])
            if rc != 1 or lines[1] != "verdict=fail" or m is None:
                return f"unexpected output {lines[1:]}"
            B, A = ([int(v) for v in g.split(",")] for g in m.groups())
            return _ok(refs.extractor_witness_holds(adj, M, K, QUARTER, B, A),
                       "witness does not fail the bound")

        return self.cli_op(key, argv, check)

    def flat_op(self, kind, make_graph, adj, M, K, expect=None):
        def call():
            G = make_graph()
            return G, graph.worst_flat_distance(G, K)

        def check(res, exc):
            G, (A, value) = res
            if not np.array_equal(G.adjacency, adj):
                return "graph differs from its reference tabulation"
            if expect is not None and value != expect:
                return f"distance {value} != {expect}"
            return _ok(refs.worst_flat_plausible(adj, M, K, A, value, self.check_rng),
                       f"worst set {A} with {value} is not the worst")

        return Op(kind, call, check)

    def random_flat_op(self, N, s):
        return self.flat_op("worst_flat_distance", lambda: randgraph.sample_graph(N, 8, 8, s),
                            refs.sampled_graph(N, 8, 8, s), 8, N // 2)

    def hash_flat_op(self):
        make = lambda: graph.graph_of_function(hashext.hash_extractor_map(ToeplitzFamily(4, 2)))
        return self.flat_op("worst_flat_distance.hash", make, self.hash_adj, 128, 8,
                            expect=Fraction(29, 128))

    def toy_trevisan_flat_op(self, slot):
        fam, adj = self.toy_designs[slot], self.toy_graphs[slot]

        def make():
            code = ecc.build_code(4, Fraction(3, 8))
            return trevisan.trevisan_graph(trevisan.TrevisanParams(
                n=4, k=4, m=2, eps=Fraction(1, 2), code=code, design=fam))

        return self.flat_op("worst_flat_distance.trevisan", make, adj, 4, 8)

    def disperser_op(self, N, M, K, s):
        D = self.degree("disperser", N, M, K)

        def call():
            G = randgraph.sample_graph(N, M, D, s)
            return G, graph.verify_disperser(G, K, QUARTER)

        def check(res, exc):
            G, verdict = res
            adj = refs.sampled_graph(N, M, D, s)
            if not np.array_equal(G.adjacency, adj):
                return "sample_graph differs from the sampling rule"
            if verdict.ok:
                return _ok(refs.disperser_spot_check(adj, M, K, QUARTER, self.check_rng),
                           "pass verdict but a sampled set is avoided")
            return _ok(refs.disperser_witness_holds(adj, M, K, QUARTER, *verdict.witness),
                       "witness is not avoided")

        return Op("verify_disperser", call, check)

    def build_cycle(self, c, slot):
        s = iter(int(v) for v in self.seed_pool[slot])
        ops = [self.extractor_op(N, M, self.degree("extractor", N, M, 8), 8, next(s))
               for N, M in self.PASS]
        ops += [self.extractor_op(N, M, self.degree("extractor", N, M, 8) * 3 // 10, 8,
                                  next(s), kind="verify_extractor.undersized")
                for N, M in self.FAIL]
        ops.append(self.extractor_op(16, 8, self.degree("extractor", 16, 8, 4), 4, next(s),
                                     kind="verify_extractor.small", dual=True))
        ops.append(self.existence_op("extractor", 64, 10, 8, 4, next(s)))
        ops.append(self.existence_op("prefix", 16, 8, 4, 4, next(s)))
        ops.append(self.cli_existence_op(f"existence-trial#{slot}", 64, 12, 8, 3, next(s)))
        path, adj = self.cli_graphs[slot]
        for threads in (1, self.threads):
            ops.append(self.cli_verify_op(f"verify-graph-t{threads}#{slot}", path, adj,
                                          self.CLI_GRAPH[1], 8, threads))
        ops += [self.random_flat_op(N, next(s)) for N in self.FLAT]
        ops.append(self.hash_flat_op())
        ops.append(self.toy_trevisan_flat_op(slot))
        ops.append(self.disperser_op(64, 20, 8, next(s)))
        return ops

    def warmup_ops(self):
        path, adj = self.tiny_graph
        return [
            self.extractor_op(16, 6, 12, 4, 5, dual=True),
            self.existence_op("extractor", 16, 6, 4, 1, 5),
            self.existence_op("prefix", 16, 8, 4, 1, 5),
            self.cli_existence_op("warmup", 16, 6, 4, 1, 5),
            self.cli_verify_op("warmup", path, adj, 6, 4, self.threads),
            self.random_flat_op(8, 5),
            self.flat_op("warmup", lambda: graph.graph_of_function(
                hashext.hash_extractor_map(ToeplitzFamily(2, 1))),
                np.array([[refs.hash_extractor(2, 1, x, h) for h in range(4)]
                          for x in range(4)]), 8, 2),
            self.toy_trevisan_flat_op(0),
            self.disperser_op(16, 8, 4, 5),
        ]


# ---------------------------------------------------------------------------
# coding


class Coding(Workload):
    name = "coding"
    N, D = 4096, 16
    MS = (64, 128)
    SIZES = (128, 256, 512)
    ROUND_TRIPS = 3
    TRACE_CYCLES = 20
    FORTNOW = (256, 8, 16)  # N, M, K of the verify_fortnow graphs

    def setup(self):
        rng = self.rng(1)
        self.graphs, self.adj, self.sets = {}, {}, {}
        for M in self.MS:
            s = int(rng.integers(2**31 - 1))
            self.graphs[M] = randgraph.sample_graph(self.N, M, self.D, s)
            self.adj[M] = refs.sampled_graph(self.N, M, self.D, s)
            for size in self.SIZES:
                order = rng.choice(self.N, size=size, replace=False)
                self.sets[M, size] = EnumerableSet(tuple(int(a) for a in order))
        S1 = self.sets[128, 128]
        self.multi_sets = [(S1, 7), (EnumerableSet(S1.order[:64]), 6)]
        self.vertices = {
            key: rng.choice(np.array(S.order), size=(POOL, self.ROUND_TRIPS + 2))
            for key, S in self.sets.items()
        }
        fN, fM, fK = self.FORTNOW
        fD = randgraph.degree_bound(randgraph.ExistenceParams(fN, fM, fK, QUARTER))
        self.fortnow = []
        for slot in range(POOL):
            s = int(rng.integers(2**31 - 1))
            extra = EnumerableSet(tuple(int(a) for a in rng.choice(fN, fK, replace=False)))
            self.fortnow.append((refs.sampled_graph(fN, fM, fD, s), extra,
                                 int(rng.integers(2**31 - 1))))
        self.files = {}
        for M in self.MS:
            with open(self.workdir / f"g{M}.txt", "w", encoding="ascii") as fp:
                graph.write_graph(self.graphs[M], fp)
            S = self.sets[M, 128]
            self.files[M] = (str(self.workdir / f"g{M}.txt"),
                             _write(self.workdir / f"s{M}.txt", " ".join(map(str, S.order)) + "\n"))
        self.sample_seeds = self.seeds(2, POOL)
        tiny = randgraph.sample_graph(64, 16, 4, 3)
        with open(self.workdir / "tiny.txt", "w", encoding="ascii") as fp:
            graph.write_graph(tiny, fp)
        self.tiny = (tiny, refs.sampled_graph(64, 16, 4, 3), EnumerableSet(tuple(range(0, 64, 4))))
        self.tiny_files = (str(self.workdir / "tiny.txt"),
                           _write(self.workdir / "tiny_s.txt", " ".join(map(str, range(0, 64, 4)))))

    # -- ops ----------------------------------------------------------------

    def bad_op(self, G, adj, S, K, rule):
        def check(bad, exc):
            right, left = refs.bad_sets(adj, G.M, S.order, K, rule)
            return _ok(bad.bad_right == right and list(bad.bad_left) == left,
                       "bad sets differ from the reference")

        return Op(f"compute_bad.{rule}", lambda: muchnik.compute_bad(G, S, K, rule), check)

    def round_trip_op(self, G, adj, S, A):
        K = len(S)

        def call():
            X, j = muchnik.encode(G, S, A, "all", K)
            rank = muchnik.neighbor_rank(G, S, X, A)
            return X, j, rank, muchnik.decode(G, S, X, rank)

        def check(res, exc):
            ref = refs.encoding(adj, G.M, S.order, A, K, "all")
            if exc is not None:
                return _ok(ref is None, f"vertex {A} called bad but has a good neighbour")
            X, j, rank, back = res
            if ref != (X, j):
                return f"encoding {(X, j)} != reference {ref}"
            members = refs.adjacent_members(adj, S.order, X)
            return _ok(rank == members.index(A) and back == A,
                       f"rank {rank} / decode {back} wrong for {A}")

        return Op(f"round_trip.s{K}", call, check, expect=(NoGoodNeighborError,))

    def chain_op(self, G, adj, S):
        Ms = []
        while not Ms or Ms[-1] > 1:
            Ms.append(((G.M - 1) >> len(Ms)) + 1)

        def call():
            graphs = [graph.BipartiteGraph(G.N, Mi, G.D, G.adjacency >> i)
                      for i, Mi in enumerate(Ms)]
            return muchnik.iterative_chain(graphs, S)

        def check(chain, exc):
            return _ok(refs.chain_valid(adj, Ms, S.order, chain.assignment, chain.level_sizes),
                       "chain differs from the reference replay")

        return Op("iterative_chain", call, check)

    def multi_op(self, G, adj, A):
        sets = self.multi_sets
        m = G.M.bit_length() - 1

        def expected():
            k1 = sets[0][1]
            levels = []
            for S, k in sets:
                right, left = refs.bad_sets(adj >> (m - k), 1 << k, S.order, 1 << k, "majority")
                if A in left:
                    return None
                levels.append((k, right))
            for X in sorted({int(z) for z in adj[A] >> (m - k1)}):
                if all((X >> (k1 - k)) not in right for k, right in levels):
                    return X
            return None

        def check(X, exc):
            ref = expected()
            if exc is not None:
                return _ok(ref is None, f"vertex {A} refused but codable")
            return _ok(X.length == sets[0][1] and X.value == ref, f"fingerprint {X} != {ref}")

        return Op("encode_multi", lambda: muchnik.encode_multi(G, sets, A), check,
                  expect=(NoGoodNeighborError,))

    def fortnow_op(self, adj, extra, s, trials=20):
        N, M, K = self.FORTNOW
        D = adj.shape[1]

        def check(rep, exc):
            holds = refs.extractor_holds_exhaustive(adj, M, K, QUARTER)
            if exc is not None:
                return _ok(not holds, "graph passes the extractor check but was refused")
            if not holds or not rep.ok or rep.trials != trials + 1:
                return f"report {rep} on a graph where the extractor check is {holds}"
            n_all = len(refs.bad_sets(adj, M, extra.order, K, "all")[1])
            n_maj = len(refs.bad_sets(adj, M, extra.order, K, "majority")[1])
            return _ok(rep.max_all >= n_all and rep.max_majority >= n_maj
                       and rep.max_all * 2 <= K and rep.max_majority <= K,
                       f"bad-set maxima {rep} inconsistent")

        def call():
            G = graph.BipartiteGraph(N, M, D, adj)
            return muchnik.verify_fortnow(G, K, QUARTER, trials, s, (extra,))

        return Op("verify_fortnow", call, check, expect=(FeasibilityError,))

    def cli_demo_op(self, key, files, adj, M, S, k):
        argv = ["muchnik-demo", "--graph", files[0], "--set", files[1], "--k", str(k),
                "--eps", "1/4"]
        K = 1 << k

        def check(rc, out):
            lines = out.splitlines()
            right, left_all = refs.bad_sets(adj, M, S.order, K, "all")
            left_maj = refs.bad_sets(adj, M, S.order, K, "majority")[1]
            head = (f"bad_right={len(right)} bad_left_all={len(left_all)}"
                    f" bound_all={2 * QUARTER * K} bad_left_majority={len(left_maj)}"
                    f" bound_majority={4 * QUARTER * K}")
            if lines[1] != head:
                return f"bad-set line {lines[1]!r} != {head!r}"
            rows = [ln for ln in lines if ln.startswith("A=")]
            if len(rows) != len(S):
                return "missing vertex lines"
            for A, row in zip(S.order, rows):
                ref = refs.encoding(adj, M, S.order, A, K, "all")
                if ref is None:
                    want = f"A={A} bad=1"
                else:
                    X, j = ref
                    rank = refs.adjacent_members(adj, S.order, X).index(A)
                    want = f"A={A} X={X} seed_idx={j} rank={rank} decoded={A} ok=1"
                if row != want:
                    return f"{row!r} != {want!r}"
            return _ok(rc == 0 and lines[-1] == "chain_covered=1", f"exit code {rc}")

        return self.cli_op(key, argv, check)

    def cli_sample_op(self, key, N, M, D, s):
        argv = ["sample-graph", "--N", str(N), "--M", str(M), "--D", str(D), "--seed", str(s)]

        def check(rc, out):
            body = out.split("\n", 2)
            got = np.array(body[2].split(), dtype=np.int64).reshape(N, D)
            return _ok(rc == 0 and body[1] == f"{N} {M} {D}"
                       and np.array_equal(got, refs.sampled_graph(N, M, D, s)),
                       "printed graph differs from the sampling rule")

        return self.cli_op(key, argv, check)

    def build_cycle(self, c, slot):
        ops = []
        for M in self.MS:
            G, adj = self.graphs[M], self.adj[M]
            for size in self.SIZES:
                S = self.sets[M, size]
                ops.append(self.bad_op(G, adj, S, size, "all"))
                ops.append(self.bad_op(G, adj, S, size, "majority"))
                for A in self.vertices[M, size][slot, :self.ROUND_TRIPS]:
                    ops.append(self.round_trip_op(G, adj, S, int(A)))
                ops.append(self.chain_op(G, adj, S))
        for A in self.vertices[128, 128][slot, self.ROUND_TRIPS:]:
            ops.append(self.multi_op(self.graphs[128], self.adj[128], int(A)))
        ops.append(self.fortnow_op(*self.fortnow[slot]))
        M = self.MS[c % 2]
        ops.append(self.cli_demo_op(f"muchnik-demo-{M}#{slot}", self.files[M], self.adj[M], M,
                                    self.sets[M, 128], 7))
        ops.append(self.cli_sample_op(f"sample-graph#{slot}", self.N, 128, self.D,
                                      int(self.sample_seeds[slot])))
        return ops

    def warmup_ops(self):
        G, adj, S = self.tiny
        fadj, extra, s = self.fortnow[0]
        first = S.order[0]
        return [
            self.bad_op(G, adj, S, 16, "all"),
            self.bad_op(G, adj, S, 16, "majority"),
            self.round_trip_op(G, adj, S, first),
            self.chain_op(G, adj, S),
            self.fortnow_op(fadj, extra, s, trials=1),
            self.cli_demo_op("warmup", self.tiny_files, adj, 16, S, 4),
            self.cli_sample_op("warmup", 8, 4, 2, 1),
        ]


# ---------------------------------------------------------------------------
# construct


class Construct(Workload):
    name = "construct"
    EPS = Fraction(9, 10)
    #: The first (96, 3) build of a cycle serves that cycle's fresh evals,
    #: so their codebook lives for one cycle only.
    BUILDS = ((96, 3), (96, 3), (128, 4))
    DESIGNS = ((10, 128), (12, 256))
    CODES = (6, 8, 10)
    #: Op counts per latency class are chosen so that p90 falls in the
    #: middle of the ~100 ms class (the Trevisan t=10 builds and design
    #: (10,128)) and p50 in the middle of the fresh evals.
    FRESH = 18
    REPEAT = 5

    def setup(self):
        rng = self.rng(1)
        self.params = trevisan.trevisan_build(96, 96, 3, self.EPS)
        self.fresh_params = None  # set by each cycle's first build op
        p = self.params

        def words(n, count):
            return [BitString(n, int.from_bytes(rng.bytes(16), "big") >> (128 - n))
                    for _ in range(count)]

        self.fresh = list(zip(words(p.n, 4096), words(p.d, 4096)))
        self.fresh_used = 0
        self.repeat_x = words(p.n, self.REPEAT)
        self.repeat_y = words(p.d, POOL * self.REPEAT)
        for x in self.repeat_x:  # repeated sources are meant to hit the codebook
            ecc.encode(p.code, x)
        self.messages = rng.integers(0, 1 << 10, size=(POOL, len(self.CODES)))
        self.flips = rng.integers(0, 2**31 - 1, size=(POOL, len(self.CODES)))
        self.supports = [rng.choice(1 << 10, size=64, replace=False) for _ in range(POOL)]
        self.pairs = [rng.choice(1 << 10, size=(8, 2), replace=False) for _ in range(POOL)]
        self.pf_supports = [rng.choice(64, size=32, replace=False) for _ in range(POOL)]
        self.dists = [rng.integers(1, 5, size=256) for _ in range(POOL)]
        self.srs = [rng.integers(0, 4, size=(3, 16)) for _ in range(POOL)]
        self.compose_inputs = rng.integers(0, 2**31 - 1, size=(POOL, 3))
        self.toy_designs = [tuple(tuple(sorted(rng.choice(10, 8, replace=False)))
                                  for _ in range(3)) for _ in range(POOL)]
        self.table_samples = rng.integers(0, 2**31 - 1, size=POOL)
        # CLI inputs: hash extractor (n=8, l=4), Trevisan (96, 96, 3, 9/10), code word n=10
        self.cli_files = []
        for slot in range(POOL):
            hx, hh = int(rng.integers(1 << 8)), int(rng.integers(1 << 11))
            tx = words(p.n, 1)[0]
            ty = words(p.d, 1)[0]
            cw = int(rng.integers(1 << 10))
            f = lambda tag, n, v: _write(self.workdir / f"{tag}{slot}.txt",
                                         refs.bits_text(n, v) + "\n")
            self.cli_files.append({
                "hash": (f("hx", 8, hx), f("hh", 11, hh), hx, hh),
                "trevisan": (f("tx", p.n, tx.value), f("ty", p.d, ty.value), tx, ty),
                "code": (f("cw", 10, cw), cw),
                "compose": int(rng.integers(2**31 - 1)),
            })

    # -- checks -----------------------------------------------------------

    @staticmethod
    def eval_reason(p, x, y, out):
        cw = ecc.encode(p.code, x)
        want = refs.nw_bits(cw.value, cw.length, p.design.sets, p.d, y.value)
        return _ok(out.length == p.m and out.value == want, f"output {out} != {want}")

    # -- ops ----------------------------------------------------------------

    def build_op(self, n, m, eps, keep=False):
        def call():
            p = trevisan.trevisan_build(n, n, m, eps)
            if keep:
                self.fresh_params = p
            return p

        def check(p, exc):
            log_term = 0
            while (1 << log_term) * eps < m:
                log_term += 1
            budget = Fraction(n - 3 * log_term - p.design.d - 3, m)
            return _ok(p.code.n == n and p.design.m == m and p.design.l == 2 * p.code.t
                       and p.d == p.design.d and p.rho_budget == budget >= 1
                       and refs.weak_design_ok(p.design.sets),
                       f"parameters {p} fail the construction's conditions")

        return Op("trevisan_build", call, check)

    def eval_op(self, kind, x, y, fresh=False):
        def params():
            return self.fresh_params if fresh else self.params

        return Op(kind, lambda: trevisan.trevisan_eval(params(), x, y),
                  lambda out, exc: self.eval_reason(params(), x, y, out))

    def design_op(self, l, m):
        def call():
            fam = design.greedy_weak_design(l, m)
            return fam, design.verify_design(fam, "weak", 1)

        def check(res, exc):
            fam, verdict = res
            return _ok(verdict.ok and fam.m == m and all(len(s) == l for s in fam.sets)
                       and refs.weak_design_ok(fam.sets), "design fails the weak bound")

        return Op("design", call, check)

    def code_op(self, n, message, flip_seed):
        delta = QUARTER
        x = BitString(n, message % (1 << n))
        flip_rng = np.random.default_rng(flip_seed)

        def call():
            code = ecc.build_code(n, delta)
            cw = ecc.encode(code, x)
            # corrupt fewer positions than the decoding radius allows
            flips = int(flip_rng.integers(0, (code.nbar // 4) - 1))
            center = refs.flip_bits(cw.value, code.nbar, flips, flip_rng)
            return code, cw, ecc.brute_list_decode(code, BitString(code.nbar, center))

        def check(res, exc):
            code, cw, found = res
            return _ok(x in found and len(found) <= 16 and cw.length == code.nbar
                       and refs.hadamard_blocks_valid(cw.value, code.t),
                       f"message {x} missing from its list or codeword malformed")

        return Op("code", call, check)

    def hash_table_op(self, sample_seed):
        fam = ToeplitzFamily(8, 4)

        def check(table, exc):
            r = np.random.default_rng(sample_seed)
            hs, xs = r.integers(0, fam.size, 64), r.integers(0, 256, 64)
            return _ok(table.shape == (fam.size, 256) and all(
                int(table[h, x]) == refs.toeplitz_hash(8, 4, int(h), int(x))
                for h, x in zip(hs, xs)), "table entry differs from T x")

        return Op("hash_table", lambda: hashext.hash_table(fam), check)

    def flat_output_op(self, support):
        fam = ToeplitzFamily(10, 4)

        def check(value, exc):
            # leftover hash lemma: distance <= (1/2) sqrt(L / K)
            return _ok(0 <= value and (2 * value) ** 2 * len(support) <= fam.L,
                       f"distance {value} above the leftover-hash bound")

        return Op("flat_output_distance",
                  lambda: hashext.flat_output_distance(fam, support), check)

    def collision_op(self, pairs):
        fam = ToeplitzFamily(10, 4)

        def call():
            return [hashext.collision_prob(fam, BitString(10, int(a)), BitString(10, int(b)))
                    for a, b in pairs]

        return Op("collision_prob", call, lambda probs, exc: _ok(
            all(pr == Fraction(1, fam.L) for pr in probs), f"collisions {probs} != 1/L"))

    def hash_graph_op(self, sample_seed):
        n, l = 5, 2

        def check(G, exc):
            r = np.random.default_rng(sample_seed)
            xs, hs = r.integers(0, 1 << n, 64), r.integers(0, 1 << (n + l - 1), 64)
            return _ok(all(int(G.adjacency[x, h]) == refs.hash_extractor(n, l, int(x), int(h))
                           for x, h in zip(xs, hs)), "graph entry differs from h || T x")

        return Op("graph_of_function",
                  lambda: graph.graph_of_function(hashext.hash_extractor_map(ToeplitzFamily(n, l))),
                  check)

    def push_forward_op(self, support):
        fam = ToeplitzFamily(6, 2)
        X = dist.FlatSource(6, frozenset(int(s) for s in support)).dist()

        def call():
            Y = dist.push_forward(hashext.hash_extractor_map(fam), X)
            return dist.stat_dist(Y, dist.Dist.uniform(Y.length))

        return Op("push_forward", call, lambda value, exc: _ok(
            value == hashext.flat_output_distance(fam, support),
            f"push-forward distance {value} != flat_output_distance"))

    def decompose_op(self, weights, K):
        total = int(weights.sum())
        X = dist.Dist(len(weights).bit_length() - 1,
                      [Fraction(int(w), total) for w in weights])
        return Op("flat_decompose", lambda: dist.flat_decompose(X, K), lambda parts, exc: _ok(
            refs.mixture_reproduces(X.probs, parts, K), "components do not reproduce X"))

    def merger_dist_op(self, masses):
        probs = [[Fraction(int(v), int(masses.sum())) for v in row] for row in masses]
        source = SomewhereRandomSource(b=2, k=2, probs=probs)
        select = compose.Merger(2, 2, 1, 2, lambda blocks, y: blocks[y.value], name="select")

        def check(out, exc):
            want = [Fraction(0)] * 4
            for row in probs:
                for z, p in enumerate(row):
                    for y in range(2):
                        want[(z >> (2 * (1 - y))) & 3] += p / 2
            return _ok(list(out.probs) == want, "merger output distribution differs")

        return Op("merger_output_dist", lambda: compose.merger_output_dist(select, source), check)

    def compose_op(self, a, r1, r2):
        n = 4
        E1 = hashext.hash_extractor_map(ToeplitzFamily(n, 1))  # (4)x(4) -> (5)
        E2 = hashext.hash_extractor_map(ToeplitzFamily(n, 2))  # (4)x(5) -> (7)
        select = compose.Merger(n, E2.m, 2, E2.m,
                                lambda blocks, y: blocks[min(y.value, n - 1)], name="select")
        a, r1, r2 = BitString(n, a % 16), BitString(4, r1 % 16), BitString(2, r2 % 4)

        def check(out, exc):
            i = min(r2.value, n - 1) + 1
            q = refs.hash_extractor(n, 1, a.value & ((1 << (n - i + 1)) - 1), r1.value)
            z = refs.hash_extractor(n, 2, a.value >> (n - i + 1), q)
            return _ok(out.length == E2.m and out.value == z, f"composition {out} != {z}")

        return Op("iterated_compose_dp",
                  lambda: compose.iterated_compose_dp([E1, E2], [select], a, r1, [r2]), check)

    def trevisan_graph_op(self, sets, sample_seed):
        fam = design.DesignFamily(10, 8, sets)

        def call():
            code = ecc.build_code(8, Fraction(3, 8))
            p = trevisan.TrevisanParams(n=8, k=8, m=3, eps=Fraction(1, 2), code=code, design=fam)
            return p, trevisan.trevisan_graph(p)

        def check(res, exc):
            p, G = res
            r = np.random.default_rng(sample_seed)
            for x, y in zip(r.integers(0, 256, 16), r.integers(0, 1024, 16)):
                xb, yb = BitString(8, int(x)), BitString(10, int(y))
                out = trevisan.trevisan_eval(p, xb, yb)
                if int(G.adjacency[x, y]) != out.value or self.eval_reason(p, xb, yb, out):
                    return f"graph row {x} differs from trevisan_eval at seed {y}"
            return None

        return Op("trevisan_graph", call, check)

    def cli_hash_op(self, key, files):
        xf, hf, x, h = files
        want = refs.bits_text(15, refs.hash_extractor(8, 4, x, h))
        argv = ["extract", "--method", "hash", "--source-file", xf, "--seed-file", hf]
        return self.cli_op(key, argv, lambda rc, out: _ok(
            rc == 0 and out.splitlines()[1] == want, f"hash output != {want}"))

    def cli_trevisan_op(self, key, files):
        xf, yf, x, y = files
        p = self.params
        argv = ["extract", "--method", "trevisan", "--source-file", xf, "--seed-file", yf,
                "--n", str(p.n), "--k", str(p.k), "--m", str(p.m), "--eps", str(p.eps)]

        def check(rc, out):
            length, value = refs.parse_bits(out.splitlines()[1])
            return _ok(rc == 0 and length == p.m and not self.eval_reason(
                p, x, y, BitString(length, value)), "trevisan output differs")

        return self.cli_op(key, argv, check)

    def cli_design_op(self, key, l, m):
        def check(rc, out):
            lines = out.splitlines()
            d, ll, mm = map(int, lines[1].split())
            sets = [tuple(map(int, ln.split())) for ln in lines[2:]]
            return _ok(rc == 0 and (ll, mm) == (l, m) and len(sets) == m
                       and all(len(s) == l and max(s) < d for s in sets)
                       and refs.weak_design_ok(sets), "printed design fails the weak bound")

        return self.cli_op(key, ["gen-design", "--l", str(l), "--m", str(m)], check)

    def cli_code_op(self, key, files):
        path, word = files
        argv = ["encode-code", "--n", "10", "--delta", "1/4", "--word", path]

        def check(rc, out):
            length, value = refs.parse_bits(out.splitlines()[1])
            t = (length.bit_length() - 1) // 2
            want = ecc.encode(ecc.build_code(10, QUARTER), BitString(10, word))
            return _ok(rc == 0 and (length, value) == (want.length, want.value)
                       and refs.hadamard_blocks_valid(value, t), "codeword differs")

        return self.cli_op(key, argv, check)

    def cli_compose_op(self, key, seed):
        def check(rc, out):
            lines = out.splitlines()
            head = dict(kv.split("=", 1) for kv in lines[0][2:].split())
            a = refs.parse_bits(head["source"])[1]
            r1, r2 = refs.parse_bits(head["r1"])[1], refs.parse_bits(head["r2"])[1]
            zs = []
            for i in range(1, 4):
                q = refs.hash_extractor(3, 1, a & ((1 << (4 - i)) - 1), r1)
                zs.append(refs.hash_extractor(3, 2, a >> (4 - i), q))
                if lines[i] != f"i={i} q={refs.bits_text(4, q)} z={refs.bits_text(6, zs[-1])}":
                    return f"line {lines[i]!r} differs from the reference"
            want = f"output={refs.bits_text(6, zs[min(r2, 2)])}"
            return _ok(rc == 0 and lines[4] == want, f"{lines[4]!r} != {want!r}")

        return self.cli_op(key, ["compose-demo", "--seed", str(seed)], check)

    def build_cycle(self, c, slot):
        ops = [self.build_op(n, m, self.EPS, keep=i == 0) for i, (n, m) in enumerate(self.BUILDS)]
        for _ in range(self.FRESH):
            x, y = self.fresh[self.fresh_used % len(self.fresh)]
            self.fresh_used += 1
            ops.append(self.eval_op("trevisan_eval.fresh", x, y, fresh=True))
        for i, x in enumerate(self.repeat_x):
            ops.append(self.eval_op("trevisan_eval.repeat", x,
                                    self.repeat_y[slot * self.REPEAT + i]))
        ops += [self.design_op(l, m) for l, m in self.DESIGNS]
        ops += [self.code_op(n, int(self.messages[slot, i]), int(self.flips[slot, i]))
                for i, n in enumerate(self.CODES)]
        ops.append(self.hash_table_op(int(self.table_samples[slot])))
        ops.append(self.flat_output_op(self.supports[slot]))
        ops.append(self.collision_op(self.pairs[slot]))
        ops.append(self.hash_graph_op(int(self.table_samples[slot])))
        ops.append(self.push_forward_op(self.pf_supports[slot]))
        ops.append(self.decompose_op(self.dists[slot], 16))
        ops.append(self.merger_dist_op(self.srs[slot]))
        ops.append(self.compose_op(*(int(v) for v in self.compose_inputs[slot])))
        ops.append(self.trevisan_graph_op(self.toy_designs[slot], int(self.table_samples[slot])))
        files = self.cli_files[slot]
        ops.append(self.cli_hash_op(f"extract-hash#{slot}", files["hash"]))
        ops.append(self.cli_trevisan_op(f"extract-trevisan#{slot}", files["trevisan"]))
        ops.append(self.cli_design_op(f"gen-design#{slot}", 8, 64))
        ops.append(self.cli_code_op(f"encode-code#{slot}", files["code"]))
        ops.append(self.cli_compose_op(f"compose-demo#{slot}", files["compose"]))
        return ops

    def warmup_ops(self):
        files = self.cli_files[0]
        return [
            self.build_op(32, 1, self.EPS),
            self.design_op(3, 4),
            self.code_op(3, 5, 1),
            self.hash_table_op(1),
            self.flat_output_op(self.supports[0][:4]),
            self.collision_op(self.pairs[0][:1]),
            self.hash_graph_op(1),
            self.push_forward_op(self.pf_supports[0][:4]),
            self.decompose_op(np.arange(1, 5), 2),
            self.merger_dist_op(self.srs[0]),
            self.compose_op(1, 2, 3),
            self.trevisan_graph_op(self.toy_designs[0], 1),
            self.cli_hash_op("warmup", files["hash"]),
            self.cli_design_op("warmup", 3, 4),
            self.cli_code_op("warmup", files["code"]),
            self.cli_compose_op("warmup", 1),
        ]


WORKLOADS = {cls.name: cls for cls in (Verify, Coding, Construct)}
