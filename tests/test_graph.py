"""Graph verifiers against first-principles oracles, plus formats."""

import io
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from extrakit import (
    BipartiteGraph,
    BitString,
    ExtractorSpec,
    SeededFunction,
    function_of_graph,
    graph_of_function,
    prefix_graph,
    sample_graph,
    verify_disperser,
    verify_extractor,
    verify_prefix_extractor,
    worst_flat_distance,
)
from extrakit import graph as graph_module
from extrakit import hashext
from extrakit.cli import main as cli_main
from extrakit.graph import read_graph, write_graph
from extrakit.errors import BudgetExceededError, DimensionError, FormatError

from helpers import (
    adjacency_lists,
    disperser_witness_oracle,
    hist_oracle,
    naive_disperser_ok,
    naive_extractor_ok,
    naive_flat_distance,
    random_graph,
    scan_range_oracle,
    worst_flat_oracle,
)


def passthrough(n):
    """The perfect extractor: output = seed."""
    adj = np.tile(np.arange(1 << n), (1 << n, 1))
    return BipartiteGraph(1 << n, 1 << n, 1 << n, adj)


def constant_graph(N, M, D):
    return BipartiteGraph(N, M, D, np.zeros((N, D), dtype=np.int64))


@st.composite
def graphs(draw, max_N, max_M, max_D=4):
    """Small multigraphs; a narrow range of right endpoints makes
    repeated edges common."""
    N = draw(st.integers(1, max_N))
    M = draw(st.integers(1, max_M))
    D = draw(st.integers(1, max_D))
    top = draw(st.integers(0, M - 1))
    row = st.lists(st.integers(0, top), min_size=D, max_size=D)
    return BipartiteGraph(N, M, D, draw(st.lists(row, min_size=N, max_size=N)))


def source_sizes(N):
    return st.one_of(st.just(1), st.just(N), st.integers(1, N))


error_bounds = st.fractions(Fraction(1, 64), Fraction(63, 64), max_denominator=64)
#: Patched values of the left scans' cell budget: from one set per block
#: up to blocks and suffix tables of dozens of sets.
scan_cells = st.integers(1, 200)


def force_side(events):
    """Make :func:`worst_flat_distance` scan the right events (True) or the
    left sets (False) whatever their cell counts."""
    return patch.object(graph_module, "_events_cheaper", lambda N, M, K: events, create=True)


def traced_peak(call):
    """``call()`` and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBipartiteGraph:
    def test_adjacency_validation(self):
        with pytest.raises(DimensionError):
            BipartiteGraph(2, 2, 1, [[0], [2]])
        with pytest.raises(DimensionError):
            BipartiteGraph(2, 0, 1, [[0], [0]])

    def test_hist_counts_multiplicity(self):
        G = BipartiteGraph(1, 3, 4, [[1, 1, 2, 1]])
        assert G.hist.tolist() == [[0, 3, 1]]

    def test_edge_count_and_neighbors(self):
        G = BipartiteGraph(2, 3, 2, [[0, 0], [1, 2]])
        assert G.edge_count([0], [0]) == 2
        assert G.edge_count([0, 1], [0, 1]) == 3
        assert G.neighbors(0) == frozenset({0})

    def test_adjacency_read_only(self):
        G = BipartiteGraph(1, 2, 1, [[1]])
        with pytest.raises(ValueError):
            G.adjacency[0, 0] = 0


class TestGraphFunctionDuality:
    def test_round_trip(self):
        fn = SeededFunction(2, 1, 2, lambda x, y: x ^ BitString(2, y.value * 3),
                            name="mix")
        G = graph_of_function(fn)
        back = function_of_graph(G)
        for xv in range(4):
            for yv in range(2):
                assert back(BitString(2, xv), BitString(1, yv)) == fn(
                    BitString(2, xv), BitString(1, yv)
                )

    def test_plain_callable_needs_dims(self):
        with pytest.raises(DimensionError):
            graph_of_function(lambda x, y: x)

    def test_graph_budget_refused_before_tabulating(self):
        # 2^20 sources times 2^7 seeds: refused before the map is called
        def never(x, y):
            raise AssertionError("map called before the budget check")

        with pytest.raises(BudgetExceededError) as exc:
            graph_of_function(SeededFunction(20, 7, 1, never))
        assert (exc.value.requested, exc.value.budget) == (1 << 27, graph_module.MAX_HIST_CELLS)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DimensionError):
            function_of_graph(BipartiteGraph(3, 2, 1, [[0], [1], [0]]))


class TestPrefixGraph:
    def test_drops_low_bits(self):
        G = BipartiteGraph(2, 8, 2, [[5, 3], [7, 0]])
        P = prefix_graph(G, 1)
        assert P.M == 4
        assert P.adjacency.tolist() == [[2, 1], [3, 0]]
        assert prefix_graph(G, 0) is G

    def test_bad_drop(self):
        G = BipartiteGraph(2, 8, 2, [[5, 3], [7, 0]])
        with pytest.raises(DimensionError):
            prefix_graph(G, 4)


class TestVerifyExtractor:
    def test_passthrough_passes(self):
        assert verify_extractor(passthrough(2), 2, Fraction(1, 4))

    def test_constant_graph_witness(self):
        verdict = verify_extractor(constant_graph(4, 4, 4), 2, Fraction(1, 4))
        assert not verdict
        B, A = verdict.witness
        assert B == (0,)
        assert A == (0, 1)

    def test_oracle_agreement_random_graphs(self):
        # The acceptance criterion runs 200+; this is the fast daily slice.
        rng = np.random.default_rng(42)
        for _ in range(40):
            N = int(rng.integers(3, 10))
            M = int(rng.integers(2, 6))
            D = int(rng.integers(1, 5))
            K = int(rng.integers(1, min(3, N) + 1))
            eps = Fraction(int(rng.integers(1, 8)), 8)
            G = random_graph(rng, N, M, D)
            assert verify_extractor(G, K, eps).ok == naive_extractor_ok(G, K, eps)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(7)
        G = random_graph(rng, 8, 4, 3)
        verdicts = [bool(verify_extractor(G, 2, Fraction(i, 16)))
                    for i in range(1, 16)]
        # once it passes at some eps it passes at every larger eps
        assert verdicts == sorted(verdicts)
        assert any(verdicts)  # eps close to 1 must pass

    def test_budget_hard_error(self):
        G = random_graph(np.random.default_rng(0), 4, 6, 2)
        with pytest.raises(BudgetExceededError) as exc:
            verify_extractor(G, 2, Fraction(1, 4), max_subsets=32)
        assert (exc.value.requested, exc.value.budget) == (64, 32)

    def test_k_too_large(self):
        with pytest.raises(DimensionError):
            verify_extractor(constant_graph(2, 2, 1), 3, Fraction(1, 2))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_block_scan_matches_per_event_oracle(self, data):
        # M up to 9 spans several blocks (rows 1-32, 33-96, 97-224, ...).
        G = data.draw(graphs(max_N=8, max_M=9))
        K = data.draw(source_sizes(G.N))
        eps = data.draw(error_bounds)
        hit = scan_range_oracle(G, K, eps, 1, 1 << G.M)
        verdict = verify_extractor(G, K, eps)
        assert verdict.ok == (hit is None)
        assert verdict.witness == (hit[1:] if hit else None)

    def test_late_failure_in_a_full_block(self):
        # At eps = 13/16 only B = {7}, which takes both of left 0's edges,
        # fails: the least failing bitmask is 128, inside the third block.
        G = BipartiteGraph(4, 8, 2, [[7, 7], [0, 1], [2, 3], [4, 5]])
        eps = Fraction(13, 16)
        assert scan_range_oracle(G, 1, eps, 1, 256)[0] == 128
        assert verify_extractor(G, 1, eps).witness == ((7,), (0,))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scan_matches_oracle_at_the_worst_eps(self, data):
        # D up to 2M, so the regime D < M, where w = M*hist - D is positive
        # on every edge, is drawn as often as D >= M.  eps is drawn at the
        # graph's own worst distance (the event on the boundary fails, since
        # the test is strict) and 1/1000 either side of it.
        M = data.draw(st.integers(8, 12))
        N = data.draw(st.integers(1, 8))
        D = data.draw(st.integers(1, 2 * M))
        top = data.draw(st.integers(M // 2, M - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        G = BipartiteGraph(N, M, D, rng.integers(0, top + 1, size=(N, D)))
        K = data.draw(source_sizes(N))
        worst = worst_flat_distance(G, K)[1]
        eps = data.draw(st.sampled_from(
            [worst, worst - Fraction(1, 1000), worst + Fraction(1, 1000), Fraction(1, 4)]))
        assume(0 < eps < 1)
        hit = scan_range_oracle(G, K, eps, 1, 1 << M)
        verdict = verify_extractor(G, K, eps)
        assert verdict.ok == (hit is None) == (worst < eps)
        assert verdict.witness == (hit[1:] if hit else None)

    def test_late_failure_above_bit_eleven(self):
        # Left 0 sends all 12 edges to z = 11; lefts 1-3 send one edge to
        # each z.  At eps = 5/6 an event fails iff it holds 11 and at most
        # one other z, so the least failing bitmask is 2^11: no event in
        # the 0-branch of bit 11 fails.
        G = BipartiteGraph(4, 12, 12, [[11] * 12] + [list(range(12))] * 3)
        eps = Fraction(5, 6)
        assert scan_range_oracle(G, 1, eps, 1, 1 << 12)[0] == 1 << 11
        assert verify_extractor(G, 1, eps).witness == ((11,), (0,))
        # without left 0 nothing fails
        assert verify_extractor(BipartiteGraph(3, 12, 12, [list(range(12))] * 3), 1, eps)

    def test_least_failure_when_two_branches_fail(self):
        # Left 0 sends every edge to z = 8, left 1 every edge to z = 9, the
        # rest one edge to each z.  At eps = 1/2 the events {8} and {9} both
        # fail and nothing below 2^8 does: the subtree of bit 8 is searched
        # before the subtree of bit 9.
        G = BipartiteGraph(4, 10, 10, [[8] * 10, [9] * 10] + [list(range(10))] * 2)
        eps = Fraction(1, 2)
        assert scan_range_oracle(G, 1, eps, 1, 1 << 10)[0] == 1 << 8
        assert scan_range_oracle(G, 1, eps, 1 << 9, 1 << 10)[0] == 1 << 9
        assert verify_extractor(G, 1, eps).witness == ((8,), (0,))

    def test_bound_passes_degree_bound_graphs_without_a_window(self):
        # At the degree bound with eps = 1/4 the bound at the root, or at a
        # few nodes below it, clears every event: no window is scanned, and
        # nothing the call allocated outlives it.
        real = graph_module._EventWindow.scan
        scanned = []

        def counting(window, base):
            scanned.append(base)
            return real(window, base)

        for seed in range(4):
            G = sample_graph(128, 14, 61, seed)
            G.hist  # cached on G: allocated before tracing
            with patch.object(graph_module._EventWindow, "scan", counting):
                tracemalloc.start()
                try:
                    verdict = verify_extractor(G, 8, Fraction(1, 4))
                    kept = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
            assert verdict.ok and verdict.note == "checked all 2^14 right events"
            assert scanned == []
            assert kept < 2048

    @pytest.mark.parametrize("eps", [Fraction(1, 2**61), Fraction(2**61 - 1, 2**61)])
    def test_huge_denominator_compares_without_wraparound(self, eps):
        # K*D*M*(p+q) >= 2^63 here, past what int64 products can hold.
        rng = np.random.default_rng(23)
        for M in (4, 10):
            for _ in range(5):
                G = random_graph(rng, 6, M, 3)
                for K in (1, 3, 6):
                    verdict = verify_extractor(G, K, eps)
                    hit = scan_range_oracle(G, K, eps, 1, 1 << G.M)
                    assert verdict.ok == (hit is None) == naive_extractor_ok(G, K, eps)
                    assert verdict.witness == (hit[1:] if hit else None)
                    if eps > Fraction(1, 2):
                        assert verdict.ok


class TestVerifyDisperser:
    def test_passthrough_passes(self):
        assert verify_disperser(passthrough(2), 2, Fraction(1, 4))

    def test_constant_graph_fails(self):
        verdict = verify_disperser(constant_graph(4, 4, 2), 2, Fraction(1, 2))
        assert not verdict
        A, Y = verdict.witness
        assert len(A) == 2 and len(Y) == 2
        assert 0 not in Y  # every left vertex sees only right 0

    def test_oracle_agreement_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            N = int(rng.integers(3, 10))
            M = int(rng.integers(2, 6))
            D = int(rng.integers(1, 4))
            K = int(rng.integers(1, min(3, N) + 1))
            eps = Fraction(int(rng.integers(1, 8)), 8)
            G = random_graph(rng, N, M, D)
            assert verify_disperser(G, K, eps).ok == naive_disperser_ok(G, K, eps)

    def test_extractor_implies_disperser(self):
        # Any graph passing the extractor check passes the disperser check
        # at the same (K, eps): missing an eps-fraction of rights would
        # already put a flat source eps-far from uniform.
        rng = np.random.default_rng(19)
        seen = 0
        for _ in range(200):
            G = random_graph(rng, 8, 4, 4)
            eps = Fraction(1, 3)
            if verify_extractor(G, 2, eps):
                seen += 1
                assert verify_disperser(G, 2, eps)
        assert seen > 0


    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_batched_scan_matches_oracles(self, data):
        G = data.draw(graphs(max_N=8, max_M=8))
        K = data.draw(source_sizes(G.N))
        eps = data.draw(error_bounds)
        verdict = verify_disperser(G, K, eps)
        assert verdict.ok == naive_disperser_ok(G, K, eps)
        assert verdict.witness == disperser_witness_oracle(G, K, eps)

    def test_witness_in_a_late_batch(self):
        # Lefts 5, 20, 40 reach only 0..11; the rest reach all of 0..15.
        # The only avoided 4-set is {12,...,15}, the last of C(16,4) = 1820
        # sets, so the scan crosses every 64-set batch before it.
        adj = np.tile(np.arange(16), (64, 1))
        adj[[5, 20, 40]] = np.arange(16) % 12
        G = BipartiteGraph(64, 16, 16, adj)
        verdict = verify_disperser(G, 3, Fraction(1, 4))
        assert verdict.witness == ((5, 20, 40), (12, 13, 14, 15))
        assert verdict.witness == disperser_witness_oracle(G, 3, Fraction(1, 4))
        assert verify_disperser(G, 4, Fraction(1, 4))

    def test_wide_right_side_matches_oracle(self):
        # M > 62 right vertices do not fit an int64 mask.
        rng = np.random.default_rng(29)
        for K in (1, 2, 5):
            G = random_graph(rng, 5, 70, 30)
            verdict = verify_disperser(G, K, Fraction(1, 35))
            assert verdict.witness == disperser_witness_oracle(G, K, Fraction(1, 35))

    def test_wide_right_side_packs_bits_not_hist(self):
        # hist would be 2^22 int64 cells (32 MiB); the packed incidence is
        # 2^16 words, and the witness is the oracle's
        rng = np.random.default_rng(43)
        G = random_graph(rng, 64, 1 << 16, 4)
        eps = Fraction(1, 1 << 16)
        tracemalloc.start()
        try:
            verdict = verify_disperser(G, 8, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.witness == disperser_witness_oracle(G, 8, eps)
        assert peak < 4 << 20

    def test_wide_right_side_scan_stays_small(self):
        # the L = 1 sets are the rows of the packed incidence itself: no
        # copy of range(M) and no table beyond the 2^16 words
        G = random_graph(np.random.default_rng(43), 64, 1 << 16, 4)
        eps = Fraction(1, 1 << 16)
        verdict, peak = traced_peak(lambda: verify_disperser(G, 8, eps))
        assert verdict.witness == disperser_witness_oracle(G, 8, eps)
        assert peak < 2 << 20

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), cells=scan_cells)
    def test_block_edges_match_oracle(self, data, cells):
        G = data.draw(graphs(max_N=12, max_M=12))
        K = data.draw(source_sizes(G.N))
        eps = data.draw(error_bounds)
        with patch.object(graph_module, "_SCAN_CELLS", cells):
            verdict = verify_disperser(G, K, eps)
        assert verdict.ok == (verdict.witness is None)
        assert verdict.witness == disperser_witness_oracle(G, K, eps)

    @pytest.mark.parametrize("cells", [1, 5, 16, 200])
    def test_failure_in_the_last_block(self, cells):
        # Lefts 2 and 7 reach only 0..8, so the only 3-set of the 12 rights
        # that two lefts avoid is {9, 10, 11}: the last set, in the last block.
        adj = np.tile(np.arange(12), (10, 1))
        adj[[2, 7]] = np.arange(12) % 9
        G = BipartiteGraph(10, 12, 12, adj)
        eps = Fraction(1, 4)
        with patch.object(graph_module, "_SCAN_CELLS", cells):
            verdict = verify_disperser(G, 2, eps)
            assert verify_disperser(G, 3, eps).ok
        assert verdict.witness == ((2, 7), (9, 10, 11))
        assert verdict.witness == disperser_witness_oracle(G, 2, eps)

    def test_negative_error_bound_is_a_dimension_error(self, monkeypatch):
        G = constant_graph(4, 4, 2)
        with pytest.raises(DimensionError, match=r"^error bound -1/4 is negative$"):
            verify_disperser(G, 2, Fraction(-1, 4))
        # raised before the packed incidence is even sized
        monkeypatch.setattr(graph_module, "MAX_HIST_CELLS", 1)
        with pytest.raises(DimensionError, match="negative"):
            verify_disperser(G, 2, "-1/8")

    def test_zero_error_bound_fails_on_the_empty_set(self):
        verdict = verify_disperser(passthrough(2), 3, 0)
        assert verdict.witness == ((0, 1, 2), ())
        assert verdict.witness == disperser_witness_oracle(passthrough(2), 3, Fraction(0))

    def test_packed_incidence_budget_boundary(self, monkeypatch):
        # M*ceil(N/64) words: 12 are allowed, 14 raise before allocating
        monkeypatch.setattr(graph_module, "MAX_HIST_CELLS", 12)
        eps = Fraction(1, 6)
        G = BipartiteGraph(65, 6, 1, np.arange(65) % 6)
        assert verify_disperser(G, 1, eps).witness == disperser_witness_oracle(G, 1, eps)
        with pytest.raises(BudgetExceededError, match=r"M\*ceil\(N/64\) = 14 words") as exc:
            verify_disperser(BipartiteGraph(65, 7, 1, np.arange(65) % 7), 1, eps)
        assert (exc.value.requested, exc.value.budget) == (14, 12)

    def test_budget_hard_error(self):
        # L = ceil(eps*M) = 4 of M = 8 rights: C(8,4) = 70 sets
        with pytest.raises(BudgetExceededError, match="C\\(8,4\\) = 70 subsets") as exc:
            verify_disperser(constant_graph(4, 8, 2), 2, Fraction(1, 2), max_subsets=69)
        assert (exc.value.requested, exc.value.budget) == (70, 69)


class TestVerifyPrefix:
    def test_passthrough_all_prefixes(self):
        spec = ExtractorSpec(n=2, d=2, m=2, k=2, eps=Fraction(1, 4))
        assert verify_prefix_extractor(passthrough(2), spec)

    def test_failure_names_prefix_level(self):
        # Top bit constant: dropping 0 bits already fails, and so does the
        # one-bit prefix map; the witness names the first failing level.
        adj = np.tile(np.arange(2), (4, 1))  # outputs in {0,1}: top bit 0
        G = BipartiteGraph(4, 4, 2, adj)
        spec = ExtractorSpec(n=2, d=1, m=2, k=1, eps=Fraction(1, 4))
        verdict = verify_prefix_extractor(G, spec, max_subsets=1 << 20)
        assert not verdict
        level, (B, A) = verdict.witness
        assert level == 0

    def test_respects_seeded_function_input(self):
        fn = SeededFunction(2, 1, 2, lambda x, y: BitString(2, y.value << 1 | y.value),
                            name="dup")
        spec = ExtractorSpec(n=2, d=1, m=2, k=1, eps=Fraction(1, 2))
        # output only ever 00/11: the 1-bit prefix is the seed bit (fine),
        # but the 2-bit map misses half the outputs.
        verdict = verify_prefix_extractor(fn, spec)
        assert not verdict

    def test_spec_for_graph_rounds_sides_up(self):
        spec = ExtractorSpec.for_graph(constant_graph(16, 8, 32), 2, Fraction(1, 4))
        assert spec == ExtractorSpec(n=4, d=5, m=3, k=2, eps=Fraction(1, 4))
        assert ExtractorSpec.for_graph(constant_graph(2, 1, 1), 1, "1/2") == (
            ExtractorSpec(n=1, d=0, m=0, k=1, eps=Fraction(1, 2))
        )
        for dims, want in (((5, 8, 4), "(5,8,4) does not match spec (8,8,4)"),
                           ((8, 6, 4), "(8,6,4) does not match spec (8,8,4)"),
                           ((8, 8, 3), "(8,8,3) does not match spec (8,8,4)")):
            G = constant_graph(*dims)
            spec = ExtractorSpec.for_graph(G, 1, Fraction(1, 4))
            with pytest.raises(DimensionError, match=re.escape(want)):
                verify_prefix_extractor(G, spec)


class TestWorstFlatDistance:
    def test_matches_naive_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            N = int(rng.integers(3, 8))
            M = int(rng.integers(2, 5))
            D = int(rng.integers(1, 4))
            K = int(rng.integers(1, min(3, N) + 1))
            G = random_graph(rng, N, M, D)
            A, val = worst_flat_distance(G, K)
            rows = adjacency_lists(G)
            naive = max(
                (naive_flat_distance(rows, S, G.M), S)
                for S in combinations(range(G.N), K)
            )
            assert val == naive[0]
            assert naive_flat_distance(rows, A, G.M) == val

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            worst_flat_distance(constant_graph(16, 2, 1), 8, max_subsets=100)
        assert (exc.value.requested, exc.value.budget) == (12870, 100)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_batched_scan_matches_per_subset_oracle(self, data):
        G = data.draw(graphs(max_N=8, max_M=5))
        K = data.draw(source_sizes(G.N))
        assert worst_flat_distance(G, K) == worst_flat_oracle(G, K)

    def test_ties_across_batches_keep_first_maximum(self):
        # Left 9 copies left 0, so sets swapping 0 for 9 tie; the first in
        # lexicographic order must win, and on the constant graph every
        # set ties.  The event side runs at M = 6 in blocks of 4 events.
        for events, M in ((False, 64), (True, 6)):
            rng = np.random.default_rng(31)
            adj = rng.integers(0, M, size=(10, 3))
            adj[9] = adj[0]
            G = BipartiteGraph(10, M, 3, adj)
            with force_side(events), patch.object(graph_module, "_SCAN_CELLS",
                                                  40 if events else graph_module._SCAN_CELLS):
                assert worst_flat_distance(G, 5) == worst_flat_oracle(G, 5)
                A, val = worst_flat_distance(constant_graph(10, M, 2), 5)
            assert A == (0, 1, 2, 3, 4) and val == Fraction(M - 1, M)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), cells=scan_cells)
    def test_block_edges_match_per_subset_oracle(self, data, cells):
        G = data.draw(graphs(max_N=12, max_M=4, max_D=3))
        K = data.draw(source_sizes(G.N))
        with patch.object(graph_module, "_SCAN_CELLS", cells):
            assert worst_flat_distance(G, K) == worst_flat_oracle(G, K)

    @pytest.mark.parametrize("cells", [1, 4, 12, 28, 200])
    def test_ties_spanning_blocks_keep_first_maximum(self, cells):
        # Lefts 2 and 6 send every edge to right 0, the rest one edge to
        # each right, so a worst K-set is {2, 6} plus any K-2 others: ties
        # that run through the whole scan, while a block holds 1 to 50 sets.
        adj = np.tile(np.arange(4), (9, 1))
        adj[[2, 6]] = 0
        G = BipartiteGraph(9, 4, 4, adj)
        for K in (3, 4, 6):
            A, val = worst_flat_distance(G, K)
            rows = adjacency_lists(G)
            ties = [S for S in combinations(range(9), K)
                    if naive_flat_distance(rows, S, 4) == val]
            assert len(ties) > 1
            for events in (False, True):
                with force_side(events), patch.object(graph_module, "_SCAN_CELLS", cells):
                    assert worst_flat_distance(G, K) == (ties[0], val) == worst_flat_oracle(G, K)

    @pytest.mark.parametrize("D, dtype", [((1 << 14) - 1, np.int32), (1 << 14, np.int64),
                                          (1 << 15, np.int64)])
    def test_count_dtype_switches_at_2_to_the_31(self, D, dtype):
        # M*K*D is 2^31 - 2^17, 2^31 and 2^32: the counts are int32 only
        # below 2^31, and at 2^32 a set's sum M*E_z - K*D would wrap int32.
        # Lefts 0 and 1 send every edge to right 0, so they are the worst set.
        M, K = 1 << 16, 2
        adj = np.zeros((4, D), dtype=np.int64)
        adj[2:] = np.arange(D) % M
        G = BipartiteGraph(4, M, D, adj)
        seen = []
        scan = graph_module._LexScan

        def spy(rows, k, op):
            seen.append(rows.dtype)
            return scan(rows, k, op)

        with patch.object(graph_module, "_LexScan", spy):
            assert worst_flat_distance(G, K) == ((0, 1), Fraction(M - 1, M))
        assert seen == [dtype]

    def test_hash_graph_scan_stays_small(self):
        # 16x128 Toeplitz hash graph, K = 8: the suffix tables and blocks
        # are int32 and at most _SCAN_CELLS cells each
        G = graph_of_function(hashext.hash_extractor_map(hashext.ToeplitzFamily(4, 2)))
        G.hist
        (A, val), peak = traced_peak(lambda: worst_flat_distance(G, 8))
        assert val == Fraction(29, 128)
        assert peak < 1.25 * (1 << 20)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), events=st.booleans(), cells=scan_cells)
    def test_each_side_matches_per_subset_oracle(self, data, events, cells):
        # the left-set scan and the right-event scan, each forced, in blocks
        # of 1 to 200 cells: value and lexicographically first witness
        G = data.draw(graphs(max_N=10, max_M=6))
        K = data.draw(source_sizes(G.N))
        with force_side(events), patch.object(graph_module, "_SCAN_CELLS", cells):
            assert worst_flat_distance(G, K) == worst_flat_oracle(G, K)

    @pytest.mark.parametrize("N, M, K, side", [
        (18, 8, 9, "events"),  # 2^8*18 cells against C(18,9)*8
        (16, 8, 4, "events"),
        (9, 4, 2, "sets"),  # 2^4*9 = C(9,2)*4: a tie stays on the left
        (16, 128, 8, "sets"),  # the 16x128 Toeplitz hash graph
    ])
    def test_side_choice_takes_fewer_cells(self, N, M, K, side):
        if M == 128:
            G = graph_of_function(hashext.hash_extractor_map(hashext.ToeplitzFamily(4, 2)))
        else:
            G = sample_graph(N, M, 8, 3)
        seen = []
        events, scan = graph_module._worst_flat_events, graph_module._LexScan

        def events_spy(*args):
            seen.append("events")
            return events(*args)

        def scan_spy(*args):
            seen.append("sets")
            return scan(*args)

        with patch.object(graph_module, "_worst_flat_events", events_spy), \
                patch.object(graph_module, "_LexScan", scan_spy):
            got = worst_flat_distance(G, K)
        assert seen == [side]
        if M < 128:  # the other side agrees; the hash graph has 2^128 events
            with force_side(side == "sets"):
                assert worst_flat_distance(G, K) == got

    @pytest.mark.parametrize("cells", [1, 7, 1 << 15])
    def test_event_side_edge_cases(self, cells):
        rng = np.random.default_rng(47)
        G = random_graph(rng, 7, 5, 3)
        line = BipartiteGraph(6, 1, 2, np.zeros((6, 2), dtype=np.int64))
        with force_side(True), patch.object(graph_module, "_SCAN_CELLS", cells):
            # K = N: the one set is every left
            assert worst_flat_distance(G, 7) == worst_flat_oracle(G, 7)
            assert worst_flat_distance(G, 7)[0] == tuple(range(7))
            # M = 1: every output is uniform, so every set ties at 0
            assert worst_flat_distance(line, 4) == ((0, 1, 2, 3), Fraction(0))
            # each left sends one edge to each right: every set ties at 0
            assert worst_flat_distance(passthrough(2), 3) == ((0, 1, 2), Fraction(0))
            # every edge on right 0: every set ties at 1 - 1/M
            assert worst_flat_distance(constant_graph(8, 5, 3), 3) == ((0, 1, 2), Fraction(4, 5))


class TestGraphFile:
    def test_round_trip_byte_exact(self):
        rng = np.random.default_rng(13)
        G = random_graph(rng, 5, 3, 4)
        buf = io.StringIO()
        write_graph(G, buf)
        text = buf.getvalue()
        back = read_graph(io.StringIO(text))
        assert back == G
        buf2 = io.StringIO()
        write_graph(back, buf2)
        assert buf2.getvalue() == text

    def test_out_of_range_index_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            read_graph(io.StringIO("2 2 2\n0 1\n0 5\n"))

    def test_truncated_file(self):
        with pytest.raises(FormatError, match="line 3"):
            read_graph(io.StringIO("2 2 2\n0 1\n"))

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1"):
            read_graph(io.StringIO("2 2\n"))


class TestFlatSizeGuard:
    @pytest.mark.parametrize("K", [0, -1])
    def test_nonpositive_K_is_a_dimension_error(self, K):
        G = passthrough(2)
        checks = (
            lambda: verify_extractor(G, K, Fraction(1, 4)),
            lambda: verify_disperser(G, K, Fraction(1, 4)),
            lambda: worst_flat_distance(G, K),
        )
        for check in checks:
            with pytest.raises(DimensionError, match=rf"^K={K} outside 1\.\.N for left size N=4$"):
                check()

    def test_K_above_N(self):
        G = passthrough(1)
        for check in (verify_extractor, verify_disperser):
            with pytest.raises(DimensionError, match=r"^K=3 outside 1\.\.N for left size N=2$"):
                check(G, 3, Fraction(1, 4))
        with pytest.raises(DimensionError, match=r"^K=3 outside 1\.\.N for left size N=2$"):
            worst_flat_distance(G, 3)

    def test_K_one_and_N_are_accepted(self):
        G = passthrough(1)
        assert verify_extractor(G, 1, Fraction(1, 2)).ok
        assert verify_disperser(G, 2, Fraction(1, 2)).ok
        assert worst_flat_distance(G, 1) == ((0,), Fraction(0))


# ---------------------------------------------------------------------------
# the edge-count matrix


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6), st.integers(1, 7), st.integers(0, 5), st.data())
@example(0, 3, 2, None)
@example(4, 3, 0, None)
@example(3, 1, 4, None)
def test_hist_matches_row_oracle(N, M, D, data):
    # small M forces multi-edges; N = 0 and D = 0 give empty adjacency
    if data is None:
        adj = [0] * (N * D)
    else:
        adj = data.draw(st.lists(st.integers(0, M - 1), min_size=N * D, max_size=N * D))
    G = BipartiteGraph(N, M, D, adj)
    H = G.hist
    assert H.shape == (N, M) and H.dtype == np.int64 and not H.flags.writeable
    assert np.array_equal(H, hist_oracle(G))
    assert G.hist is H


def test_hist_budget_boundary(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_HIST_CELLS", 12)
    assert BipartiteGraph(3, 4, 2, np.zeros((3, 2), dtype=np.int64)).hist.sum() == 6
    G = BipartiteGraph(3, 5, 2, np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(BudgetExceededError, match=r"N\*M = 15 cells exceeds budget 12") as exc:
        G.hist
    assert (exc.value.requested, exc.value.budget) == (15, 12)


def test_oversized_hist_refused_before_allocating(capsys, tmp_path):
    # N*M = 2^30 cells would be 8 GB of int64; the guard fires first
    N, M = 1 << 10, 1 << 20
    G = BipartiteGraph(N, M, 1, np.arange(N, dtype=np.int64))
    with pytest.raises(BudgetExceededError, match="hist"):
        worst_flat_distance(G, 1)
    # the disperser packs N*M bits: 2^27 words at N = 2^13 exceed the same 2^26 cap
    N = 1 << 13
    G = BipartiteGraph(N, M, 1, np.arange(N, dtype=np.int64))
    with pytest.raises(BudgetExceededError, match="packed incidence") as exc:
        verify_disperser(G, 1, Fraction(1, 2**20))
    assert (exc.value.requested, exc.value.budget) == (1 << 27, 1 << 26)
    path = tmp_path / "wide.txt"
    with path.open("w") as fp:
        write_graph(G, fp)
    code = cli_main(["verify-graph", "--kind", "disperser", "--graph", str(path),
                     "--k", "1", "--eps", f"1/{2**20}"])
    assert code == 2
    assert "exceeds budget" in capsys.readouterr().err
