"""Whole-set coding against the per-vertex API and the per-vertex chain.

``code_set`` must give, for every member, the bad sets, the ``(X, j)``
of ``encode`` (or -1 where ``encode`` refuses a bad member), the rank of
``neighbor_rank``, and through ``SetCode.decode`` the answer or the
IndexError of ``decode`` at every right vertex and index, under both
rules.  ``iterative_chain`` must give the per-vertex oracle's assignment
and level sizes (or its error).  The graphs are multigraphs whose right
parts need not be powers of two, and the sets hold bad members.
"""

from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extrakit import (
    BipartiteGraph,
    EnumerableSet,
    chain_graphs,
    code_set,
    compute_bad,
    decode,
    iterative_chain,
    muchnik_encode,
    neighbor_rank,
)
from extrakit.errors import DimensionError, FeasibilityError, NoGoodNeighborError

from helpers import STORAGE_BOUNDARY_SIZES, adjacency_dtype_oracle, iterative_chain_oracle


def check_code_set(G, S, K, rule, rights=None):
    """Compare ``code_set`` with the per-vertex API, decoding at each of
    ``rights`` (default: -1 through M); return how many members are bad."""
    code = code_set(G, S, K, rule)
    bad = compute_bad(G, S, K, rule)
    assert code.bad == bad
    assert code.order.tolist() == list(S.order)
    for a in (code.order, code.X, code.j, code.rank):
        assert a.dtype == np.int64 and a.shape == (len(S),) and not a.flags.writeable
    for A, X, j, rank in zip(S.order, code.X.tolist(), code.j.tolist(), code.rank.tolist()):
        if A in bad.bad_left:
            assert (X, j, rank) == (-1, -1, -1)
            with pytest.raises(NoGoodNeighborError):
                muchnik_encode(G, S, A, rule, K)
            continue
        assert (X, j) == muchnik_encode(G, S, A, rule, K)
        assert rank == neighbor_rank(G, S, X, A)
    for X in range(-1, G.M + 1) if rights is None else rights:
        for idx in range(-2, len(S) + 2):
            try:
                want = decode(G, S, X, idx)
            except IndexError as exc:
                with pytest.raises(IndexError) as err:
                    code.decode(X, idx)
                assert str(err.value) == str(exc)
            else:
                assert code.decode(X, idx) == want
    return len(bad.bad_left)


@st.composite
def coding_cases(draw):
    """A multigraph, a set in some enumeration order, and K >= |S|; a
    narrow range of right endpoints makes multi-edges and overloads common."""
    N, M, D = draw(st.integers(1, 10)), draw(st.integers(1, 9)), draw(st.integers(0, 5))
    top = draw(st.integers(0, M - 1))
    row = st.lists(st.integers(0, top), min_size=D, max_size=D)
    G = BipartiteGraph(N, M, D, draw(st.lists(row, min_size=N, max_size=N)))
    S = EnumerableSet(tuple(draw(st.permutations(range(N)))[: draw(st.integers(0, N))]))
    return G, S, len(S) + draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(case=coding_cases(), rule=st.sampled_from(["all", "majority"]))
def test_code_set_matches_the_per_vertex_api(case, rule):
    check_code_set(*case, rule)


def test_code_set_matches_on_larger_sets_with_bad_members():
    rng = np.random.default_rng(61)
    seen_bad = {"all": 0, "majority": 0}
    for _ in range(12):
        N, M, D = 48, int(rng.integers(3, 13)), int(rng.integers(1, 6))
        G = BipartiteGraph(N, M, D, rng.integers(0, M, size=(N, D)) % int(rng.integers(1, M + 1)))
        S = EnumerableSet(tuple(int(a) for a in rng.permutation(N)[: int(rng.integers(8, N))]))
        for rule in seen_bad:
            seen_bad[rule] += check_code_set(G, S, len(S), rule)
    assert min(seen_bad.values()) > 0


@pytest.mark.parametrize("M", [m for m in STORAGE_BOUNDARY_SIZES if m <= 65537])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_code_set_near_the_top_right_vertex(M, data):
    # Entries at the top of [0, M), where a narrow dtype would wrap
    # first.  The coding allocates (M,) loads, so the sizes past 2^16 + 1
    # are left out.  K up to M/2 lets the threshold 2DK/M pass loads of a
    # few edges, so members are coded as well as refused.
    N, D = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 4))
    entry = st.one_of(st.integers(max(0, M - 4), M - 1), st.integers(0, min(2, M - 1)))
    rows = data.draw(st.lists(st.lists(entry, min_size=D, max_size=D), min_size=N, max_size=N))
    G = BipartiteGraph(N, M, D, np.array(rows, dtype=np.int64).reshape(N, D))
    S = EnumerableSet(tuple(data.draw(st.permutations(range(N)))[: data.draw(st.integers(0, N))]))
    K = len(S) + data.draw(st.integers(0, M // 2))
    for rule in ("all", "majority"):
        code = code_set(G, S, K, rule)
        # the bad rights and each coded member's X, from the Python rows
        loads = Counter(z for a in S.order for z in rows[a])
        bad_right = {z for z, load in loads.items() if load * M > 2 * D * K}
        assert code.bad.bad_right == bad_right
        for a, X in zip(S.order, code.X.tolist()):
            good = [z for z in rows[a] if z not in bad_right]
            stuck = not good if rule == "all" else 2 * (D - len(good)) >= D
            assert X == (-1 if stuck else min(good))
        near = sorted({-1, 0, M - 1, M} | set(loads))
        check_code_set(G, S, K, rule, rights=near)
    graphs = chain_graphs(G)
    for i, Gi in enumerate(graphs):
        assert Gi.adjacency.dtype == adjacency_dtype_oracle(Gi.M)
        assert Gi.adjacency.tolist() == [[z >> i for z in row] for row in rows]
    assert chain_outcome(lambda *a: astuple(iterative_chain(*a)), graphs, S, None) == \
        chain_outcome(iterative_chain_oracle, graphs, S, None)


def chain_outcome(chain, graphs, S, Ks):
    try:
        return chain(graphs, S, Ks)
    except (DimensionError, FeasibilityError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def graph_on(draw, N):
    M, D = draw(st.integers(1, 7)), draw(st.integers(0, 4))
    row = st.lists(st.integers(0, M - 1), min_size=D, max_size=D)
    return BipartiteGraph(N, M, D, draw(st.lists(row, min_size=N, max_size=N)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chain_matches_the_per_vertex_oracle(data):
    N = data.draw(st.integers(1, 10))
    graphs = data.draw(st.lists(graph_on(N), min_size=1, max_size=4))
    S = EnumerableSet(tuple(data.draw(st.permutations(range(N)))[: data.draw(st.integers(0, N))]))
    Ks = data.draw(st.one_of(st.none(), st.lists(st.integers(0, 12), min_size=len(graphs),
                                                 max_size=len(graphs) + data.draw(st.integers(0, 1)))))

    def library(graphs, S, Ks):
        result = iterative_chain(graphs, S, Ks)
        return result.assignment, result.level_sizes

    assert chain_outcome(library, graphs, S, Ks) == chain_outcome(iterative_chain_oracle, graphs, S, Ks)
