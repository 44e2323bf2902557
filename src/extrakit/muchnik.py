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
    "FortnowReport",
    "verify_fortnow",
    "encode",
    "decode",
    "neighbor_rank",
    "encode_multi",
    "ChainResult",
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
    once every member is known to be a left vertex of G."""
    order = np.array(S.order, dtype=np.int64)
    outside = (order < 0) | (order >= G.N)
    if outside.any():
        raise DimensionError(
            f"vertex {order[outside.argmax()]} of the set is outside the left side [0, {G.N})"
        )
    return G.adjacency[order]


def compute_bad(G: BipartiteGraph, S: EnumerableSet, K: int, rule: str) -> BadSets:
    """Exact bad sets at threshold 2DK/M.

    Right vertex z is bad when its S-edge load exceeds 2DK/M (strict,
    compared as load*M > 2DK in integers).  A left vertex of S is bad
    when all of its D edges end on bad rights ("all") or at least D/2 do
    ("majority").
    """
    if rule not in RULES:
        raise DimensionError(f"rule {rule!r} not one of {RULES}")
    if K < len(S):
        raise DimensionError(f"K={K} below |S|={len(S)}")
    rows = _member_rows(G, S)
    # load per right vertex: the number of S-edges landing there
    overloaded = np.bincount(rows.ravel(), minlength=G.M) * G.M > 2 * G.D * K
    hits = overloaded[rows].sum(axis=1)
    stuck = hits == G.D if rule == "all" else 2 * hits >= G.D
    return BadSets(
        rule=rule,
        bad_right=frozenset(np.flatnonzero(overloaded).tolist()),
        bad_left=tuple(a for a, s in zip(S.order, stuck) if s),
    )


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
        return 2 * self.eps * self.K

    @property
    def bound_majority(self) -> Fraction:
        return 4 * self.eps * self.K

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
    p, q = eps.numerator, eps.denominator
    for idx, S in enumerate(batteries):
        n_all = len(compute_bad(G, S, K, "all").bad_left)
        n_maj = len(compute_bad(G, S, K, "majority").bad_left)
        max_all = max(max_all, n_all)
        max_majority = max(max_majority, n_maj)
        if n_all * q > 2 * p * K:
            violations.append((idx, "all", n_all))
        if n_maj * q > 4 * p * K:
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


def iterative_chain(
    graphs: Sequence[BipartiteGraph],
    S0: EnumerableSet,
    Ks: Optional[Sequence[int]] = None,
) -> ChainResult:
    """Retry bad vertices on successive coarser graphs until all are coded.

    Level i computes the all-rule bad set of the surviving vertices in
    ``graphs[i]``; good vertices get assigned ``(i, X)`` with X their
    least good neighbor there, bad ones go on to level i+1.  ``Ks[i]``
    defaults to the level's right-part size.  Raises if vertices survive
    past the last graph (a well-built chain ends with a right part small
    enough that nothing is overloaded).
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
        bad = compute_bad(G, cur, max(K, len(cur)), "all")
        bad_set = set(bad.bad_left)
        for a in cur.order:
            if a not in bad_set:
                assignment[a] = (i, _least_good(G, a, bad.bad_right))
        cur = EnumerableSet(bad.bad_left)
        sizes.append(len(cur))
    if len(cur) > 0:
        raise FeasibilityError(
            f"{len(cur)} vertices still uncoded after {len(graphs)} levels"
        )
    return ChainResult(assignment=assignment, level_sizes=tuple(sizes))
