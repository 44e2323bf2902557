"""Coding against side information over extractor graphs.

The combinatorial engine behind Muchnik-style theorems: a left word A
belonging to a small enumerable set S can be described by one of its
right neighbors X plus a short index, provided A avoids the "bad" part
of the graph.  Right vertices are bad when overloaded with S-edges
(> 2DK/M with multiplicity); left vertices are bad when all (or, in the
majority variant, at least half) of their edges point at bad rights.
On a verified extractor graph the bad left set is provably small, bad
elements are retried on coarser graphs (the iterative chain), and
several conditions can share one fingerprint through a prefix extractor.

Enumerable sets stand in for "words of bounded complexity given B": the
proofs use nothing about such sets beyond a deterministic enumeration
order and a size bound, which is exactly what :class:`EnumerableSet`
carries — no Kolmogorov-complexity claims are made or needed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bits import BitString
from .dist import SeededFunction, as_fraction
from .errors import (
    DimensionError,
    FeasibilityError,
    NoGoodNeighborError,
    Verdict,
)
from .graph import BipartiteGraph, ExtractorSpec, graph_of_function, prefix_graph, verify_extractor, verify_prefix_extractor

__all__ = [
    "RULES",
    "EnumerableSet",
    "BadSets",
    "compute_bad",
    "bad_left_bound",
    "FortnowReport",
    "verify_fortnow",
    "encode",
    "decode",
    "neighbor_rank",
    "SetCode",
    "code_set",
    "encode_multi",
    "ChainResult",
    "chain_graphs",
    "iterative_chain",
]

RULES = ("all", "majority")


@dataclass(frozen=True)
class EnumerableSet:
    """Left vertices in a fixed enumeration order, with a size bound."""

    order: tuple[int, ...]
    bound: Optional[int] = None
    _members: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        order = tuple(int(a) for a in self.order)
        object.__setattr__(self, "order", order)
        members = frozenset(order)
        object.__setattr__(self, "_members", members)
        if len(members) != len(order):
            raise DimensionError("enumeration order contains duplicates")
        bound = len(order) if self.bound is None else self.bound
        object.__setattr__(self, "bound", bound)
        if bound < len(order):
            raise DimensionError(
                f"size bound {bound} below actual size {len(order)}"
            )

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, a: int) -> bool:
        return a in self._members

    def __iter__(self):
        return iter(self.order)


@dataclass(frozen=True)
class BadSets:
    """Overloaded right vertices and the left vertices of S stuck on them."""

    rule: str
    bad_right: frozenset[int]
    bad_left: tuple[int, ...]  # subset of S, in S's enumeration order


def _member_rows(G: BipartiteGraph, S: EnumerableSet) -> np.ndarray:
    """Adjacency rows of S's members in enumeration order, shape (|S|, D),
    once every member is known to be a left vertex of G; int64 whatever
    the graph's storage, so the coding's indexing and compares cast once."""
    order = np.array(S.order, dtype=np.int64)
    outside = (order < 0) | (order >= G.N)
    if outside.any():
        raise DimensionError(
            f"vertex {order[outside.argmax()]} of the set is outside the left side [0, {G.N})"
        )
    return np.take(G.adjacency, order, axis=0).astype(np.int64, copy=False)


def compute_bad(G: BipartiteGraph, S: EnumerableSet, K: int, rule: str) -> BadSets:
    """Exact bad sets at threshold 2DK/M.

    Right vertex z is bad when its S-edge load exceeds 2DK/M (strict,
    compared as load*M > 2DK in integers).  A left vertex of S is bad
    when all of its D edges end on bad rights ("all") or at least D/2 do
    ("majority").
    """
    _, overloaded, stuck = _bad_masks(G, S, K, rule)
    return _bad_sets(S, rule, overloaded, stuck)


def _bad_masks(G: BipartiteGraph, S: EnumerableSet, K: int, rule: str):
    """S's adjacency rows, the overloaded right vertices as an (M,) mask
    and the bad members as an (|S|,) mask: the arrays behind
    :func:`compute_bad`."""
    if rule not in RULES:
        raise DimensionError(f"rule {rule!r} not one of {RULES}")
    if K < len(S):
        raise DimensionError(f"K={K} below |S|={len(S)}")
    rows = _member_rows(G, S)
    # load per right vertex: the number of S-edges landing there
    overloaded = np.bincount(rows.ravel(), minlength=G.M) * G.M > 2 * G.D * K
    hits = overloaded[rows].sum(axis=1)
    stuck = hits == G.D if rule == "all" else 2 * hits >= G.D
    return rows, overloaded, stuck


def _bad_sets(S: EnumerableSet, rule: str, overloaded: np.ndarray, stuck: np.ndarray) -> BadSets:
    return BadSets(
        rule=rule,
        bad_right=frozenset(np.flatnonzero(overloaded).tolist()),
        bad_left=tuple(a for a, s in zip(S.order, stuck.tolist()) if s),
    )


def bad_left_bound(K: int, eps, rule: str) -> Fraction:
    """The most bad lefts a set of size at most K can have under ``rule``
    on a graph that passes the (K, eps) extractor check: 2*eps*K for
    "all", 4*eps*K for "majority" (Buhrman, Fortnow and Laplante 2002)."""
    if rule not in RULES:
        raise DimensionError(f"rule {rule!r} not one of {RULES}")
    return (2 if rule == "all" else 4) * as_fraction(eps) * K


@dataclass(frozen=True)
class FortnowReport:
    """Worst bad-left sizes over sampled sets, against the proven bounds."""

    K: int
    eps: Fraction
    trials: int
    max_all: int
    max_majority: int
    violations: tuple = ()

    @property
    def bound_all(self) -> Fraction:
        return bad_left_bound(self.K, self.eps, "all")

    @property
    def bound_majority(self) -> Fraction:
        return bad_left_bound(self.K, self.eps, "majority")

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return (
            f"FortnowReport(max_all={self.max_all}/{self.bound_all},"
            f" max_majority={self.max_majority}/{self.bound_majority},"
            f" trials={self.trials}, ok={self.ok})"
        )


def verify_fortnow(
    G: BipartiteGraph,
    K: int,
    eps,
    trials: int,
    seed,
    extra_sets: Sequence[EnumerableSet] = (),
) -> FortnowReport:
    """Measure bad-left sizes over random size-K sets on a verified graph.

    Refuses outright if the graph does not pass the exact extractor check
    at (K, eps) — the bounds 2*eps*K (all rule) and 4*eps*K (majority)
    are only proven under that hypothesis.  ``extra_sets`` lets callers
    add adversarial sets to the random battery.
    """
    eps = as_fraction(eps)
    verdict = verify_extractor(G, K, eps)
    if not verdict:
        raise FeasibilityError(
            f"graph fails the (K={K}, eps={eps}) extractor check; "
            f"witness {verdict.witness}"
        )
    rng = np.random.default_rng(seed)
    batteries = [
        EnumerableSet(tuple(int(v) for v in rng.choice(G.N, size=K, replace=False)))
        for _ in range(trials)
    ]
    batteries.extend(extra_sets)
    max_all = max_majority = 0
    violations = []
    bound_all, bound_maj = (bad_left_bound(K, eps, rule) for rule in RULES)
    for idx, S in enumerate(batteries):
        n_all = len(compute_bad(G, S, K, "all").bad_left)
        n_maj = len(compute_bad(G, S, K, "majority").bad_left)
        max_all = max(max_all, n_all)
        max_majority = max(max_majority, n_maj)
        if n_all > bound_all:
            violations.append((idx, "all", n_all))
        if n_maj > bound_maj:
            violations.append((idx, "majority", n_maj))
    return FortnowReport(
        K=K,
        eps=eps,
        trials=len(batteries),
        max_all=max_all,
        max_majority=max_majority,
        violations=tuple(violations),
    )


def encode(
    G: BipartiteGraph, S: EnumerableSet, A: int, rule: str = "all", K: Optional[int] = None
) -> tuple[int, int]:
    """Fingerprint a good left vertex: its least good neighbor plus edge index.

    Returns ``(X, j)`` where X is the smallest right vertex among A's
    edges that is not overloaded and j is the first seed index reaching
    it; the index carries the log2(D) bits the descriptive bound counts.
    Raises :class:`NoGoodNeighborError` when A is bad under ``rule``.
    """
    if A not in S:
        raise DimensionError(f"vertex {A} is not in the enumerable set")
    K = len(S) if K is None else K
    bad = compute_bad(G, S, K, rule)
    if A in bad.bad_left:
        raise NoGoodNeighborError(
            f"vertex {A} is bad under the {rule} rule; escalate to the chain"
        )
    X = _least_good(G, A, bad.bad_right)
    j = G.adjacency[A].tolist().index(X)
    return X, j


def _least_good(G: BipartiteGraph, a: int, bad_right: frozenset[int]) -> int:
    """The smallest right neighbor of ``a`` that is not in ``bad_right``."""
    return min(z for z in G.adjacency[a].tolist() if z not in bad_right)


def _adjacent_members(G: BipartiteGraph, S: EnumerableSet, X: int) -> list[int]:
    """The members of S with an edge to X, in S's enumeration order."""
    hit = (_member_rows(G, S) == X).any(axis=1)
    return [S.order[i] for i in np.flatnonzero(hit)]


def decode(G: BipartiteGraph, S: EnumerableSet, X: int, idx: int) -> int:
    """Recover a left vertex: the idx-th member of S adjacent to X.

    Enumerates S in its fixed order keeping vertices with an edge to X;
    for a good X that list has at most 2DK/M entries, so idx is short.
    """
    members = _adjacent_members(G, S, X)
    if not 0 <= idx < len(members):
        raise IndexError(
            f"index {idx} out of range: only {len(members)} members of S"
            f" are adjacent to {X}"
        )
    return members[idx]


def neighbor_rank(G: BipartiteGraph, S: EnumerableSet, X: int, A: int) -> int:
    """Position of A among S's X-adjacent members, in enumeration order."""
    try:
        return _adjacent_members(G, S, X).index(A)
    except ValueError:
        raise DimensionError(f"vertex {A} is not an X-adjacent member of S") from None


@dataclass(frozen=True)
class SetCode:
    """The fingerprints of every member of S at once, from :func:`code_set`.

    ``order`` holds S's members in enumeration order, and ``X``, ``j`` and
    ``rank`` are aligned with it: member i's least good neighbor, the
    first seed index reaching it, and its position among S's X-adjacent
    members.  All three are -1 at the members in ``bad.bad_left``.
    :meth:`decode` answers :func:`decode` from the table the ranks came
    from.
    """

    bad: BadSets
    order: np.ndarray
    X: np.ndarray
    j: np.ndarray
    rank: np.ndarray
    # the sorted table of distinct (right vertex, member position) edges:
    # each vertex's run lists its adjacent members in enumeration order
    _right: np.ndarray = field(repr=False)
    _member: np.ndarray = field(repr=False)

    def decode(self, X: int, idx: int) -> int:
        """The idx-th member of S adjacent to X, as :func:`decode` gives it."""
        lo = int(np.searchsorted(self._right, X, side="left"))
        hi = int(np.searchsorted(self._right, X, side="right"))
        if not 0 <= idx < hi - lo:
            raise IndexError(
                f"index {idx} out of range: only {hi - lo} members of S"
                f" are adjacent to {X}"
            )
        return int(self.order[self._member[lo + idx]])


def code_set(G: BipartiteGraph, S: EnumerableSet, K: int, rule: str = "all") -> SetCode:
    """Encode every member of S in one pass, as :func:`encode` and
    :func:`neighbor_rank` would one member at a time.

    The bad sets are computed once, at (K, rule).  X is each adjacency
    row's least entry outside the bad right set (a masked ``min``) and j
    the first column holding it (``argmax``).  The ranks come from one
    sort of the distinct (right vertex, member position) edges by vertex
    and then position: a member's rank at X is its place in X's run of
    that table, and the same table answers :meth:`SetCode.decode`.
    """
    rows, overloaded, stuck = _bad_masks(G, S, K, rule)
    n = len(S)
    coded = ~stuck
    X = rows.min(axis=1, where=~overloaded[rows], initial=np.iinfo(np.int64).max)
    X[stuck] = -1
    j = np.full(n, -1, dtype=np.int64)
    if coded.any():  # at D = 0 every member is bad, and argmax needs a column
        j[coded] = (rows[coded] == X[coded, None]).argmax(axis=1)
    # the distinct edges of each row, in member order
    srt = np.sort(rows, axis=1)
    first = np.ones(srt.shape, dtype=bool)
    first[:, 1:] = srt[:, 1:] != srt[:, :-1]
    per_row = first.sum(axis=1)
    member, right = np.repeat(np.arange(n), per_row), srt[first]
    # as the edges come in member order, a stable sort by vertex is the
    # lexsort of (vertex, member); the narrowest dtype gets numpy's radix sort
    by_right = np.argsort(right.astype(np.min_scalar_type(int(right.max(initial=0)))), kind="stable")
    right, member = right[by_right], member[by_right]
    runs = np.flatnonzero(np.diff(right, prepend=-1))
    place = np.empty(right.size, dtype=np.int64)
    place[by_right] = np.arange(right.size) - np.repeat(runs, np.diff(runs, append=right.size))
    # index of the edge (X_i, i) among the distinct edges in member order
    edge = np.cumsum(per_row) - per_row + (first & (srt < X[:, None])).sum(axis=1)
    rank = np.full(n, -1, dtype=np.int64)
    rank[coded] = place[edge[coded]]
    arrays = (np.array(S.order, dtype=np.int64).reshape(n), X, j, rank, right, member)
    for a in arrays:
        a.setflags(write=False)
    return SetCode(_bad_sets(S, rule, overloaded, stuck), *arrays)


def encode_multi(
    G: BipartiteGraph,
    sets: Sequence[tuple[EnumerableSet, int]],
    A: int,
) -> BitString:
    """One fingerprint serving several conditions through output prefixes.

    ``G`` is the graph of a prefix extractor with a power-of-two right
    part; ``sets`` lists (S_i, k_i) with k_1 >= ... >= k_p.  Level i
    works in the graph truncated to k_i output bits with K_i = 2^(k_i)
    and the majority rule.  Returns the least k_1-bit right value X
    adjacent to A whose k_i-bit prefix is good (not overloaded) at every
    level; existence is guaranteed on verified instances because each
    condition spoils less than half of A's edges.
    """
    if not sets:
        raise DimensionError("need at least one (set, k) condition")
    ks = [k for _, k in sets]
    if any(ks[i] < ks[i + 1] for i in range(len(ks) - 1)):
        raise DimensionError(f"prefix lengths must be nonincreasing, got {ks}")
    m = G.M.bit_length() - 1
    if 1 << m != G.M:
        raise DimensionError(f"right part {G.M} is not a power of two")
    if ks[0] > m:
        raise DimensionError(f"k_1={ks[0]} exceeds the {m} output bits")
    k1 = ks[0]
    levels = []
    for S, k in sets:
        Gi = prefix_graph(G, m - k)
        bad = compute_bad(Gi, S, 1 << k, "majority")
        if A in bad.bad_left:
            raise NoGoodNeighborError(
                f"vertex {A} is majority-bad at the k={k} level"
            )
        levels.append((k, bad.bad_right))
    top = prefix_graph(G, m - k1)
    for X in sorted(set(int(z) for z in top.adjacency[A])):
        if all((X >> (k1 - k)) not in bad_right for k, bad_right in levels):
            return BitString(k1, X)
    raise NoGoodNeighborError(
        f"no neighbor of {A} is simultaneously good at levels {ks}; "
        "this would contradict the union-bound argument on a verified instance"
    )


@dataclass(frozen=True)
class ChainResult:
    """Chain outcome: which level fingerprints each vertex, plus set sizes."""

    assignment: dict
    level_sizes: tuple[int, ...]

    @property
    def levels_used(self) -> int:
        return len(self.level_sizes) - 1 if self.level_sizes[-1] == 0 else len(self.level_sizes)


def chain_graphs(G: BipartiteGraph) -> list[BipartiteGraph]:
    """The coarsening chain of ``G`` for :func:`iterative_chain`: level 0
    is ``G`` itself, and level i keeps ``adjacency >> i`` on
    ``ceil(M / 2^i)`` right vertices, halving until a single right vertex
    remains."""
    graphs = [G]
    while graphs[-1].M > 1:
        i = len(graphs)
        graphs.append(BipartiteGraph(G.N, ((G.M - 1) >> i) + 1, G.D, G.adjacency >> i))
    return graphs


def iterative_chain(
    graphs: Sequence[BipartiteGraph],
    S0: EnumerableSet,
    Ks: Optional[Sequence[int]] = None,
) -> ChainResult:
    """Retry bad vertices on successive coarser graphs until all are coded.

    Level i codes the surviving vertices in ``graphs[i]`` with one
    :func:`code_set` under the all rule; good vertices get assigned
    ``(i, X)`` with X their least good neighbor there, bad ones go on to
    level i+1.  ``Ks[i]`` defaults to the level's right-part size.  Raises
    if vertices survive past the last graph (a well-built chain, such as
    :func:`chain_graphs`, ends with a right part small enough that nothing
    is overloaded).
    """
    Ks = [G.M for G in graphs] if Ks is None else list(Ks)
    if len(Ks) != len(graphs):
        raise DimensionError(f"{len(graphs)} graphs but {len(Ks)} K values")
    assignment: dict = {}
    cur = S0
    sizes = [len(cur)]
    for i, (G, K) in enumerate(zip(graphs, Ks)):
        if len(cur) == 0:
            break
        code = code_set(G, cur, max(K, len(cur)), "all")
        for a, X in zip(cur.order, code.X.tolist()):
            if X >= 0:
                assignment[a] = (i, X)
        cur = EnumerableSet(code.bad.bad_left)
        sizes.append(len(cur))
    if len(cur) > 0:
        raise FeasibilityError(
            f"{len(cur)} vertices still uncoded after {len(graphs)} levels"
        )
    return ChainResult(assignment=assignment, level_sizes=tuple(sizes))
