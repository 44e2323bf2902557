"""Set families with bounded overlap: designs, weak designs, verification.

A family S_1..S_m of l-subsets of [d] seeds the Nisan-Wigderson
generator; what matters is how much the sets overlap.  Three exact
checks are provided (strict design, weak design, uniform weak design)
plus a deterministic greedy construction of weak designs
(Raz-Reingold-Vadhan 2002) whose universe grows like l^2 * log m.

The construction works in blocks of halving size, largest first.  Sets
in different blocks live on disjoint sub-universes, so each cross-block
pair contributes only 2^0 = 1 to the overlap sum; within a block the
elements are picked greedily to minimize the running potential.  That
argmin is lazy: within a set an element's cost only grows as the set
fills, so a cost computed earlier is a lower bound on the current one,
and the least stored cost that is still exact is the true minimum.  Early
blocks face many same-block neighbors but have most of the budget
rho*(m-1) available; late blocks have little budget left but few
same-block neighbors.  A block whose greedy pass cannot meet the bound
restarts with its sub-universe doubled, which terminates because l*m_t
fresh elements always suffice for pairwise-disjoint sets.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import TextIO

from .dist import as_fraction
from .errors import DimensionError, FeasibilityError, FormatError, Verdict

__all__ = [
    "DesignFamily",
    "verify_design",
    "greedy_weak_design",
    "read_design",
    "write_design",
]

KINDS = ("design", "weak", "uniform-weak")


@dataclass(frozen=True)
class DesignFamily:
    """m sets of size l over universe [d]; each set stored sorted ascending."""

    d: int
    l: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(sorted(int(e) for e in s)) for s in self.sets)
        object.__setattr__(self, "sets", norm)
        for idx, s in enumerate(norm):
            if len(set(s)) != self.l:
                raise DimensionError(
                    f"set {idx} has {len(set(s))} distinct elements, expected {self.l}"
                )
            if s and (s[0] < 0 or s[-1] >= self.d):
                raise DimensionError(
                    f"set {idx} leaves the universe [0, {self.d})"
                )

    @property
    def m(self) -> int:
        return len(self.sets)

    def __repr__(self) -> str:
        return f"DesignFamily(d={self.d}, l={self.l}, m={self.m})"


def _overlap_counts(sets):
    """For each set S_j in turn, the dict i -> |S_i n S_j| over the earlier
    sets i that meet S_j; an earlier set missing from it misses S_j.

    Built from each element's list of earlier holders, the index that
    :func:`_build_block` keeps, so the work is the number of (i, j, e)
    with e in S_i n S_j.  Elements are dict keys, so any universe works.
    """
    holders: dict[int, list[int]] = {}
    for j, s in enumerate(sets):
        counts: dict[int, int] = {}
        for e in s:
            held = holders.setdefault(e, [])
            for i in held:
                counts[i] = counts.get(i, 0) + 1
            held.append(j)
        yield counts


def verify_design(family: DesignFamily, kind: str, rho) -> Verdict:
    """Exact overlap check; witness is the first violating index.

    design:        every pair i<j has 2^|S_i n S_j| <= rho  (witness (i, j))
    weak:          every j has sum_{i<j} 2^|S_i n S_j| <= rho*(m-1)  (witness j)
    uniform-weak:  every j has sum_{i<j} 2^|S_i n S_j| <= rho*(j-1)  (witness j)

    Indices in witnesses are 1-based to match the S_1..S_m naming.  All
    three kinds read one pass of :func:`_overlap_counts`, in Python ints;
    an earlier set that misses S_j contributes 2^0 = 1, and an integer
    exceeds a rational bound exactly when it exceeds the bound's floor.
    """
    if kind not in KINDS:
        raise DimensionError(f"kind {kind!r} not one of {KINDS}")
    rho = as_fraction(rho)
    m = family.m
    if kind == "design":
        cap = math.floor(rho)
        if cap < 1 and m > 1:  # even a disjoint pair has 2^0 > rho
            return Verdict(False, witness=(1, 2))
        for j, counts in enumerate(_overlap_counts(family.sets)):
            bad = [i for i, c in counts.items() if 1 << c > cap]
            if bad:
                return Verdict(False, witness=(min(bad) + 1, j + 1))
        return Verdict(True, note=f"all {m * (m - 1) // 2} pairs within 2^|overlap| <= {rho}")
    for j, counts in enumerate(_overlap_counts(family.sets)):
        # 0-based j: the uniform-weak budget rho * (j_1based - 1) is rho * j
        step = j if kind == "uniform-weak" else m - 1
        total = j - len(counts) + sum(1 << c for c in counts.values())
        if j and total > rho.numerator * step // rho.denominator:
            return Verdict(False, witness=j + 1, note=f"sum {total} > {rho * step}")
    return Verdict(True, note=f"all {m} running sums within budget")


def _build_block(count: int, l: int, u: int) -> tuple[list, list]:
    """Greedily pick `count` l-subsets of range(u), minimizing potential.

    Each element choice minimizes the resulting sum over earlier
    same-block sets of 2^|overlap with the partial set|; ties go to the
    smallest element.  For an element f that sum is its cost: the sum of
    ``term[i]`` = 2^|S_i n partial set| over the earlier sets i holding
    f.  Picking f doubles the term of every set holding f.

    The argmin is lazy, over keys cost*u + f, so the least key is the
    least cost with ties to the least element.  Terms only grow within a
    set, so a key computed earlier in the set is a lower bound on the
    element's current key.  The least stored key is popped and its cost
    recomputed: if the key is still exact it is below every other
    candidate's current key, so f is the argmin; otherwise the fresh key
    goes on a per-set heap and the next least key is popped.  At the
    start of a set every term is 1, so a cost is the number of earlier
    sets holding f; those keys sit in one sorted base list that carries
    across sets, where only the l picked keys move, by ``bisect``.

    Returns the block's sets as sorted tuples and their running sums
    sum over i < k of 2^|S_i n S_k|, which is the sum of the terms once
    set k is complete.  Python ints keep every (l, count) exact.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    holders: list[list[int]] = [[] for _ in range(u)]  # earlier sets holding f
    base = list(range(u))  # keys len(holders[f]) * u + f, sorted
    sets, sums = [], []
    for k in range(count):
        term = [1] * k
        term_at = term.__getitem__
        pending: list[int] = []  # heap of re-evaluated keys
        nxt = 0  # base[nxt:] is not yet popped in this set
        picked = []
        for _pick in range(l):
            while True:
                if nxt < u and (not pending or base[nxt] < pending[0]):
                    key = base[nxt]
                    nxt += 1
                else:
                    key = heappop(pending)
                f = key % u
                fresh = sum(map(term_at, holders[f])) * u + f
                if fresh == key:
                    break
                heappush(pending, fresh)
            picked.append(f)
            for i in holders[f]:
                term[i] *= 2
        sums.append(sum(term))
        for f in picked:
            old = len(holders[f]) * u + f
            del base[bisect.bisect_left(base, old)]
            bisect.insort(base, old + u)
            holders[f].append(k)
        sets.append(tuple(sorted(picked)))
    return sets, sums


def greedy_weak_design(l: int, m: int, rho=1) -> DesignFamily:
    """Deterministic weak (l, rho)-design with universe O(l^2 log m).

    Output always passes ``verify_design(kind="weak", rho=rho)``; the
    universe is compacted to the elements actually used.
    """
    if l < 1 or m < 1:
        raise DimensionError(f"need l, m >= 1, got l={l}, m={m}")
    rho = as_fraction(rho)
    if rho < 1 and m > 1:
        # even pairwise-disjoint sets give a running sum of m-1 > rho*(m-1)
        raise FeasibilityError(f"no weak design with rho={rho} < 1 exists for m={m}")
    budget = rho * (m - 1)
    # halving block sizes, largest first: e.g. m=11 -> 6, 3, 1, 1
    sizes = []
    rest = m
    while rest > 0:
        take = (rest + 1) // 2 if rest > 1 else 1
        sizes.append(take)
        rest -= take
    all_sets: list[tuple[int, ...]] = []
    next_elem = 0
    for bsize in sizes:
        placed = len(all_sets)  # sets in earlier blocks: each contributes 2^0
        u = max(l, min(l * bsize, (3 * l * l + 1) // 2))
        while True:
            block, within = _build_block(bsize, l, u)
            if placed + max(within) <= budget:
                break
            if u >= l * bsize:
                # unreachable for rho >= 1: at u = l*bsize the greedy picks
                # disjoint sets, whose running sum j-1 fits rho*(m-1)
                raise FeasibilityError(
                    f"greedy block failed even on a disjoint universe (l={l}, m={m})"
                )
            u = min(2 * u, l * bsize)
        all_sets.extend(tuple(e + next_elem for e in s) for s in block)
        next_elem += u
    # compact the universe to the elements actually used
    used = sorted({e for s in all_sets for e in s})
    remap = {e: i for i, e in enumerate(used)}
    sets = tuple(tuple(remap[e] for e in s) for s in all_sets)
    return DesignFamily(d=len(used), l=l, sets=sets)


# ---------------------------------------------------------------------------
# text format: line 1 `d l m`, then m lines of l sorted indices


def write_design(family: DesignFamily, fp: TextIO) -> None:
    fp.write(f"{family.d} {family.l} {family.m}\n")
    for s in family.sets:
        fp.write(" ".join(str(e) for e in s) + "\n")


def read_design(fp: TextIO) -> DesignFamily:
    header = fp.readline()
    parts = header.split()
    if len(parts) != 3:
        raise FormatError(f"expected 'd l m' header, got {header!r}", line=1)
    try:
        d, l, m = (int(t) for t in parts)
    except ValueError:
        raise FormatError(f"non-integer in header {header!r}", line=1) from None
    sets = []
    for lineno in range(2, m + 2):
        line = fp.readline()
        if not line:
            raise FormatError("unexpected end of design file", line=lineno)
        toks = line.split()
        if len(toks) != l:
            raise FormatError(f"expected {l} elements, got {len(toks)}", line=lineno)
        try:
            s = tuple(int(t) for t in toks)
        except ValueError:
            raise FormatError(f"non-integer element in {line!r}", line=lineno) from None
        if list(s) != sorted(set(s)):
            raise FormatError("elements must be distinct and sorted", line=lineno)
        sets.append(s)
    try:
        return DesignFamily(d=d, l=l, sets=tuple(sets))
    except DimensionError as exc:
        raise FormatError(str(exc)) from None
