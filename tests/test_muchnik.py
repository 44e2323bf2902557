"""Coding-with-side-information tests: bad sets, the bad-left bounds on
verified graphs, encode/decode round trips, multi-condition fingerprints
through output prefixes, and the iterative escalation chain.

Oracles: bad sets recomputed with plain nested loops, loads rechecked per
returned fingerprint, round trips exhaustive over all good vertices.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import SeedSequence, default_rng

from extrakit import (
    BipartiteGraph,
    DimensionError,
    EnumerableSet,
    ExtractorSpec,
    FeasibilityError,
    NoGoodNeighborError,
    chain_graphs,
    compute_bad,
    decode,
    encode_multi,
    iterative_chain,
    muchnik_encode,
    neighbor_rank,
    prefix_graph,
    verify_extractor,
    verify_fortnow,
    verify_prefix_extractor,
)
from helpers import sample_graph


def naive_bad_sets(G, S, K, rule):
    """Independent recomputation with dictionaries and explicit loops."""
    loads = {z: 0 for z in range(G.M)}
    for a in S.order:
        for z in G.adjacency[a]:
            loads[int(z)] += 1
    bad_right = {z for z, load in loads.items() if load * G.M > 2 * G.D * K}
    bad_left = []
    for a in S.order:
        hits = sum(1 for z in G.adjacency[a] if int(z) in bad_right)
        cond = hits == G.D if rule == "all" else 2 * hits >= G.D
        if cond:
            bad_left.append(a)
    return bad_right, tuple(bad_left)


def all_edges_to_zero(N, M, D):
    return BipartiteGraph(N, M, D, np.zeros((N, D), dtype=np.int64))


def pass_through(N, M):
    """Each left vertex has one edge to every right vertex (D = M)."""
    return BipartiteGraph(N, M, M, np.tile(np.arange(M, dtype=np.int64), (N, 1)))


#: pinned graph that passes the full prefix-extractor check at
#: (n=4, d=4, m=3, k=3, eps=1/4); found by seeded search, rechecked below
PREFIX_SEED = 777
PREFIX_SPEC = ExtractorSpec(4, 4, 3, 3, Fraction(1, 4))


def pinned_prefix_graph() -> BipartiteGraph:
    return sample_graph(16, 8, 16, SeedSequence(PREFIX_SEED).spawn(1)[0])


# ---------------------------------------------------------------------------
# EnumerableSet


def test_enumerable_set_basics():
    S = EnumerableSet((4, 1, 7), bound=5)
    assert len(S) == 3 and list(S) == [4, 1, 7]
    assert 7 in S and 2 not in S
    assert EnumerableSet((1, 2)).bound == 2
    with pytest.raises(DimensionError):
        EnumerableSet((1, 1, 2))
    with pytest.raises(DimensionError):
        EnumerableSet((1, 2, 3), bound=2)


def test_enumerable_set_membership_cache_leaves_value_semantics():
    S, T = EnumerableSet((4, 1, 7)), EnumerableSet([np.int64(4), 1, 7])
    assert S == T and hash(S) == hash(T)
    assert S != EnumerableSet((1, 4, 7))  # the order is part of the value
    assert S != EnumerableSet((4, 1, 7), bound=5)
    assert len({S, T}) == 1
    assert repr(S) == "EnumerableSet(order=(4, 1, 7), bound=3)"
    assert np.int64(7) in S and 7.0 in S and 2 not in S


# ---------------------------------------------------------------------------
# compute_bad


def test_compute_bad_empty_set():
    G = all_edges_to_zero(4, 4, 2)
    for rule in ("all", "majority"):
        bad = compute_bad(G, EnumerableSet(()), 4, rule)
        assert bad.bad_right == frozenset() and bad.bad_left == ()


def test_compute_bad_all_edges_to_zero():
    G = all_edges_to_zero(4, 4, 2)
    S = EnumerableSet((0, 1))
    for rule in ("all", "majority"):
        bad = compute_bad(G, S, 2, rule)  # load 4, threshold 2DK/M = 2
        assert bad.bad_right == frozenset({0})
        assert bad.bad_left == (0, 1)


def test_compute_bad_threshold_is_strict():
    G = all_edges_to_zero(4, 4, 2)
    S = EnumerableSet((0,))
    # load*M = 2*2*4 = 16 == 2DK at K=2: exactly at the threshold, not bad
    bad = compute_bad(G, S, 2, "all")
    assert bad.bad_right == frozenset() and bad.bad_left == ()
    # K=1 halves the allowance and tips it over
    bad = compute_bad(G, S, 1, "all")
    assert bad.bad_right == frozenset({0}) and bad.bad_left == (0,)


def test_compute_bad_matches_naive_recomputation():
    rng = default_rng(15)
    for _ in range(12):
        N, M, D = 12, 6, 5
        G = BipartiteGraph(N, M, D, rng.integers(0, M, size=(N, D)))
        size = int(rng.integers(1, 9))
        S = EnumerableSet(tuple(int(v) for v in rng.choice(N, size=size, replace=False)))
        K = size + int(rng.integers(0, 3))
        for rule in ("all", "majority"):
            bad = compute_bad(G, S, K, rule)
            want_right, want_left = naive_bad_sets(G, S, K, rule)
            assert bad.bad_right == frozenset(want_right)
            assert bad.bad_left == want_left  # order = S's enumeration order


def test_compute_bad_validation():
    G = pass_through(4, 4)
    with pytest.raises(DimensionError):
        compute_bad(G, EnumerableSet((0, 1)), 1, "all")  # K below |S|
    with pytest.raises(DimensionError):
        compute_bad(G, EnumerableSet((0,)), 1, "most")


def test_pass_through_graph_has_no_bad_rights():
    # per-vertex load |S| never beats 2DK/M = 2K >= 2|S|
    G = pass_through(8, 8)
    for size in (1, 3, 8):
        S = EnumerableSet(tuple(range(size)))
        bad = compute_bad(G, S, size, "all")
        assert bad.bad_right == frozenset() and bad.bad_left == ()


# ---------------------------------------------------------------------------
# verify_fortnow


def test_fortnow_refuses_unverified_graph():
    G = all_edges_to_zero(8, 4, 2)
    with pytest.raises(FeasibilityError):
        verify_fortnow(G, 2, Fraction(1, 4), trials=2, seed=0)


def test_fortnow_bounds_hold_on_verified_graph():
    K, eps = 4, Fraction(1, 4)
    G = next(
        sample_graph(16, 16, 32, child)
        for child in SeedSequence(31).spawn(50)
        if verify_extractor(sample_graph(16, 16, 32, child), K, eps).ok
    )
    # adversarial company: the K rows most concentrated on right vertex 0
    heavy = EnumerableSet(tuple(int(i) for i in np.argsort(-G.hist[:, 0])[:K]))
    report = verify_fortnow(G, K, eps, trials=8, seed=5, extra_sets=[heavy])
    assert report.ok and report.violations == ()
    assert report.trials == 9
    assert report.max_all <= report.bound_all == 2 * eps * K
    assert report.max_majority <= report.bound_majority == 4 * eps * K


def test_fortnow_vacuous_at_half_eps():
    G = pass_through(8, 8)
    report = verify_fortnow(G, 4, Fraction(1, 2), trials=3, seed=1)
    assert report.ok
    assert report.bound_all == 4  # 2*eps*K = K: nothing to violate
    assert report.max_all == 0  # pass-through never overloads a right vertex


# ---------------------------------------------------------------------------
# encode / decode


def hand_graph():
    """N=4, M=4, D=3 with right vertex 0 overloaded by S = {0, 1, 2}."""
    rows = np.array([[0, 0, 2], [0, 0, 3], [0, 0, 1], [1, 2, 3]], dtype=np.int64)
    return BipartiteGraph(4, 4, 3, rows)


def test_encode_unique_good_neighbor():
    G = hand_graph()
    S = EnumerableSet((0, 1, 2))
    # threshold 2DK/M = 4.5; load(0) = 6 -> bad, everything else light
    assert compute_bad(G, S, 3, "all").bad_right == frozenset({0})
    assert muchnik_encode(G, S, 0) == (2, 2)  # only neighbor 2 survives
    assert muchnik_encode(G, S, 1) == (3, 2)
    assert muchnik_encode(G, S, 2) == (1, 2)


def test_encode_tie_breaks_on_first_edge():
    G = hand_graph()
    S = EnumerableSet((3,))
    # lone spread-out member: no overload, all neighbors good
    assert compute_bad(G, S, 1, "all").bad_right == frozenset()
    assert muchnik_encode(G, S, 3) == (1, 0)


def test_encode_bad_vertex_refused():
    G = BipartiteGraph(
        4, 4, 3,
        np.array([[0, 0, 0], [0, 1, 2], [0, 1, 3], [1, 2, 3]], dtype=np.int64),
    )
    S = EnumerableSet((0, 1, 2))
    for rule in ("all", "majority"):
        with pytest.raises(NoGoodNeighborError):
            muchnik_encode(G, S, 0, rule)
    with pytest.raises(DimensionError):
        muchnik_encode(G, S, 3)  # not a member


def test_encode_decode_round_trip_sweep():
    rng = default_rng(40)
    checked = 0
    for _ in range(10):
        N, M, D = 16, 8, 4
        G = BipartiteGraph(N, M, D, rng.integers(0, M, size=(N, D)))
        size = int(rng.integers(2, 9))
        S = EnumerableSet(tuple(int(v) for v in rng.choice(N, size=size, replace=False)))
        K = size
        bad = compute_bad(G, S, K, "all")
        for A in S:
            if A in bad.bad_left:
                continue
            X, j = muchnik_encode(G, S, A)
            # the returned edge really is A's j-th and lands on X
            assert 0 <= j < D and int(G.adjacency[A][j]) == X
            # X is good: its S-load stays within the threshold
            load = int(G.hist[list(S.order)].sum(axis=0)[X])
            assert load * M <= 2 * D * K
            # decoding the rank of A among X's S-neighbors recovers A
            rank = neighbor_rank(G, S, X, A)
            assert rank * M < 2 * D * K  # index fits the load bound
            assert decode(G, S, X, rank) == A
            checked += 1
    assert checked > 50  # the sweep exercised plenty of good vertices


def test_decode_singleton_and_errors():
    G = hand_graph()
    S = EnumerableSet((3,))
    assert decode(G, S, 2, 0) == 3
    with pytest.raises(IndexError):
        decode(G, S, 2, 1)  # only one S-neighbor
    for idx in (-1, -2):
        with pytest.raises(IndexError, match=f"index {idx} out of range: only 1"):
            decode(G, S, 2, idx)  # no wrap-around from the end
    with pytest.raises(IndexError):
        decode(G, S, 0, 0)  # vertex 3 has no edge to 0
    with pytest.raises(DimensionError):
        neighbor_rank(G, S, 0, 3)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rank_decode_and_least_good_match_naive_scans(data):
    N, M, D = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    row = st.lists(st.integers(0, M - 1), min_size=D, max_size=D)
    G = BipartiteGraph(N, M, D, data.draw(st.lists(row, min_size=N, max_size=N)))
    order = data.draw(st.permutations(range(N)))
    S = EnumerableSet(order[: data.draw(st.integers(0, N))])
    K = len(S)
    for X in range(-1, M + 1):
        adjacent = [a for a in S.order if any(int(z) == X for z in G.adjacency[a])]
        for idx, a in enumerate(adjacent):
            assert neighbor_rank(G, S, X, a) == idx
            assert decode(G, S, X, idx) == a
        for idx in (len(adjacent), -1, -len(adjacent) - 1):
            with pytest.raises(IndexError):
                decode(G, S, X, idx)
        for a in set(range(N)) - set(adjacent):
            with pytest.raises(DimensionError):
                neighbor_rank(G, S, X, a)
    bad_right, bad_left = naive_bad_sets(G, S, K, "all")
    for a in S.order:
        good = sorted({int(z) for z in G.adjacency[a]} - bad_right)
        if a in bad_left:
            assert not good
            continue
        X, j = muchnik_encode(G, S, a, "all", K)
        assert X == good[0] and int(G.adjacency[a][j]) == X
        assert all(int(z) != X for z in G.adjacency[a][:j])
    if not bad_left:  # otherwise the one-level chain cannot finish
        chain = iterative_chain([G], S, Ks=[K])
        for a, (level, X) in chain.assignment.items():
            assert level == 0
            assert X == min({int(z) for z in G.adjacency[a]} - bad_right)


# ---------------------------------------------------------------------------
# encode_multi


def test_multi_single_condition_reduces_to_majority_encode():
    G = pinned_prefix_graph()
    assert verify_prefix_extractor(G, PREFIX_SPEC).ok
    S = EnumerableSet((3, 1, 4, 7, 9, 12, 14, 6))
    for A in S:
        X = encode_multi(G, [(S, 3)], A)
        assert X.length == 3
        assert X.value == muchnik_encode(G, S, A, "majority", K=8)[0]


def test_multi_identical_conditions_change_nothing():
    G = pinned_prefix_graph()
    S = EnumerableSet((2, 9, 4, 11), bound=8)
    for A in S:
        single = encode_multi(G, [(S, 3)], A)
        double = encode_multi(G, [(S, 3), (S, 3)], A)
        assert single == double


def test_multi_round_trip_on_verified_prefix_instance():
    # verified instance: every prefix level passes the exact extractor
    # check, and indeed no vertex ever goes bad at these set sizes
    G = pinned_prefix_graph()
    assert verify_prefix_extractor(G, PREFIX_SPEC).ok
    S1 = EnumerableSet((3, 1, 4, 7, 9, 12, 14, 6))
    S2 = EnumerableSet((2, 9, 4, 11))
    levels = [(S1, 3), (S2, 2)]
    recovered = 0
    for A in S1:
        X = encode_multi(G, levels, A)
        for S, k in levels:
            Gi = prefix_graph(G, 3 - k)
            Xi = X.value >> (3 - k)
            bad = compute_bad(Gi, S, 1 << k, "majority")
            assert Xi not in bad.bad_right
            if A in S:
                assert decode(Gi, S, Xi, neighbor_rank(Gi, S, Xi, A)) == A
                recovered += 1
    assert recovered >= len(S1)  # every condition with A present round-trips


def test_multi_avoids_overloaded_prefixes():
    # skewed instance (not verified): right vertex 0 overloaded at the
    # full level, so fingerprints must start elsewhere
    rows = np.zeros((8, 8), dtype=np.int64)
    rows[4] = np.arange(8)
    rows[5] = np.arange(8)
    G = BipartiteGraph(8, 8, 8, rows)
    S1 = EnumerableSet((0, 1, 2, 3, 4, 5))
    S2 = EnumerableSet((4, 5))
    bad_full = compute_bad(G, S1, 8, "majority")
    assert bad_full.bad_right == frozenset({0})
    for A in (4, 5):
        X = encode_multi(G, [(S1, 3), (S2, 2)], A)
        assert X.value == 1  # least neighbor clear of the overload
        for S, k in [(S1, 3), (S2, 2)]:
            Gi = prefix_graph(G, 3 - k)
            assert decode(Gi, S, X.value >> (3 - k), neighbor_rank(Gi, S, X.value >> (3 - k), A)) == A
    with pytest.raises(NoGoodNeighborError):
        encode_multi(G, [(S1, 3)], 0)  # all edges on the overloaded vertex


def test_multi_no_common_good_neighbor_is_reachable_unverified():
    # three conditions each spoiling just under half the edges can cover
    # everything -- only possible because this graph is no extractor
    D, M = 6, 8
    rows = [list(range(6))]  # A = 0 sees rights 0..5 once each
    for block in range(3):
        lo, hi = 2 * block, 2 * block + 1
        for _ in range(8):
            rows.append([lo, lo, lo, hi, hi, hi])
    G = BipartiteGraph(25, M, D, np.array(rows, dtype=np.int64))
    sets = []
    for block in range(3):
        # 8 members x 3 edges = load 24 on each target, past the
        # threshold 2DK/M = 12, while A keeps only 2 bad edges per level
        members = tuple(range(1 + 8 * block, 9 + 8 * block))
        sets.append((EnumerableSet(members), 3))
    with pytest.raises(NoGoodNeighborError) as err:
        encode_multi(G, sets, 0)
    assert "simultaneously good" in str(err.value)


def test_multi_validation_errors():
    G = pinned_prefix_graph()
    S = EnumerableSet((1, 2))
    with pytest.raises(DimensionError):
        encode_multi(G, [], 1)
    with pytest.raises(DimensionError):
        encode_multi(G, [(S, 2), (S, 3)], 1)  # increasing prefix lengths
    with pytest.raises(DimensionError):
        encode_multi(G, [(S, 4)], 1)  # more bits than the output has
    odd = BipartiteGraph(4, 6, 2, np.zeros((4, 2), dtype=np.int64))
    with pytest.raises(DimensionError):
        encode_multi(odd, [(S, 2)], 1)  # right part not a power of two


# ---------------------------------------------------------------------------
# iterative_chain


def test_chain_empty_start():
    result = iterative_chain([pass_through(4, 4)], EnumerableSet(()))
    assert result.assignment == {}
    assert result.level_sizes == (0,)
    assert result.levels_used == 0


def test_chain_all_good_at_level_zero():
    S = EnumerableSet((0, 3, 5))
    result = iterative_chain([pass_through(8, 8)], S)
    assert result.level_sizes == (3, 0)
    assert result.levels_used == 1
    assert result.assignment == {0: (0, 0), 3: (0, 0), 5: (0, 0)}


def test_chain_escalates_and_terminates():
    level0 = all_edges_to_zero(8, 4, 2)  # everyone bad: load 8 > 2D = 4
    level1 = pass_through(8, 8)
    S = EnumerableSet((0, 2, 4, 6))
    result = iterative_chain([level0, level1], S)
    assert result.level_sizes == (4, 4, 0)
    assert result.levels_used == 2
    assert all(level == 1 for level, _ in result.assignment.values())
    assert set(result.assignment) == {0, 2, 4, 6}


def test_chain_respects_lemma_bound_on_verified_level():
    K, eps = 4, Fraction(1, 4)
    G = next(
        sample_graph(16, 16, 32, child)
        for child in SeedSequence(31).spawn(50)
        if verify_extractor(sample_graph(16, 16, 32, child), K, eps).ok
    )
    S = EnumerableSet((0, 5, 9, 13))
    result = iterative_chain([G, pass_through(16, 16)], S, Ks=[K, 16])
    # the bad-left bound 2*eps*K = 2 caps what spills to level 1
    assert result.level_sizes[1] <= 2
    assert set(result.assignment) == set(S.order)
    # every assignment names a genuinely good neighbor at its level
    graphs = [G, pass_through(16, 16)]
    survivors = [list(S.order), []]
    for a, (level, X) in result.assignment.items():
        if level == 1:
            survivors[1].append(a)
    for a, (level, X) in sorted(result.assignment.items()):
        Gl = graphs[level]
        members = [v for v in S.order if v in survivors[level]] if level else list(S.order)
        load = int(Gl.hist[members].sum(axis=0)[X])
        K_eff = max([K, 16][level], len(members))
        assert load * Gl.M <= 2 * Gl.D * K_eff
        assert X in Gl.neighbors(a)


def test_chain_error_paths():
    level0 = all_edges_to_zero(8, 4, 2)
    S = EnumerableSet((0, 1, 2, 3))
    with pytest.raises(FeasibilityError):
        iterative_chain([level0], S)  # nothing ever gets coded
    with pytest.raises(DimensionError):
        iterative_chain([level0], S, Ks=[4, 4])


def test_chain_graphs_start_at_the_graph_itself():
    G = BipartiteGraph(3, 6, 2, [[5, 0], [3, 4], [1, 2]])
    graphs = chain_graphs(G)
    assert graphs[0] is G
    assert [Gi.M for Gi in graphs] == [6, 3, 2, 1]
    assert [Gi.adjacency.tolist() for Gi in graphs[1:]] == [
        [[2, 0], [1, 2], [0, 1]], [[1, 0], [0, 1], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
    assert chain_graphs(BipartiteGraph(1, 1, 1, [[0]])) == [BipartiteGraph(1, 1, 1, [[0]])]


def test_chain_sizes_never_grow():
    rng = default_rng(77)
    for _ in range(5):
        G0 = BipartiteGraph(16, 8, 4, rng.integers(0, 8, size=(16, 4)))
        G1 = BipartiteGraph(16, 4, 4, rng.integers(0, 4, size=(16, 4)))
        S = EnumerableSet(tuple(int(v) for v in rng.choice(16, size=6, replace=False)))
        result = iterative_chain([G0, G1, pass_through(16, 16)], S)
        sizes = result.level_sizes
        assert all(sizes[i + 1] <= sizes[i] for i in range(len(sizes) - 1))
        assert set(result.assignment) == set(S.order)


@pytest.mark.parametrize("order, bad", [((0, 9), 9), ((0, -1), -1), ((4, -2), 4)])
def test_set_members_outside_the_left_side_are_named(order, bad):
    G = BipartiteGraph(4, 4, 3, [[0, 0, 2], [0, 0, 3], [0, 0, 1], [1, 2, 3]])
    S = EnumerableSet(order)
    text = rf"^vertex {bad} of the set is outside the left side \[0, 4\)$"
    checks = (
        lambda: compute_bad(G, S, 4, "all"),
        lambda: compute_bad(G, S, 4, "majority"),
        lambda: decode(G, S, 0, 0),
        lambda: neighbor_rank(G, S, 0, order[0]),
        lambda: muchnik_encode(G, S, order[0], "all", 4),
        lambda: iterative_chain([G], S),
    )
    for check in checks:
        with pytest.raises(DimensionError, match=text):
            check()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compute_bad_matches_naive_on_multigraphs(data):
    N, M, D = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6)), data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(st.integers(0, M - 1), min_size=D, max_size=D),
                              min_size=N, max_size=N))
    G = BipartiteGraph(N, M, D, rows)
    order = data.draw(st.lists(st.integers(0, N - 1), unique=True, max_size=N))
    S = EnumerableSet(tuple(order))
    K = len(order) + data.draw(st.integers(0, 3))
    for rule in ("all", "majority"):
        bad = compute_bad(G, S, K, rule)
        want_right, want_left = naive_bad_sets(G, S, K, rule)
        assert bad.bad_right == frozenset(want_right)
        assert bad.bad_left == want_left
