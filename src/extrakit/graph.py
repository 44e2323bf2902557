"""Bipartite multigraphs and exact extractor/disperser verification.

A seeded map on bit strings is viewed as a bipartite multigraph: left
vertices are the ``N`` source values, right vertices the ``M`` outputs,
and each left vertex carries ``D`` ordered edges, one per seed.  The
verifiers here are exact at desk scale: all arithmetic on the pass/fail
boundary is done with integers (the error bound is taken as a rational),
enumeration is exhaustive, and budgets fail loudly instead of sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TextIO, Union

import numpy as np

from .bits import BitString
from .dist import SeededFunction, as_fraction
from .errors import (
    BudgetExceededError,
    DimensionError,
    FormatError,
    Verdict,
)

__all__ = [
    "DEFAULT_SUBSET_BUDGET",
    "MAX_HIST_CELLS",
    "BipartiteGraph",
    "ExtractorSpec",
    "graph_of_function",
    "function_of_graph",
    "prefix_graph",
    "verify_disperser",
    "verify_extractor",
    "verify_prefix_extractor",
    "worst_flat_distance",
    "read_graph",
    "write_graph",
]

#: Default ceiling on the number of subsets a verifier may enumerate.
DEFAULT_SUBSET_BUDGET = 1 << 20
#: Ceiling on the cells N*M of :attr:`BipartiteGraph.hist` (int64, so
#: 512 MB), and on the uint64 words of :func:`verify_disperser`'s packed
#: incidence; a larger graph raises BudgetExceededError before allocating.
MAX_HIST_CELLS = 1 << 26

#: The leaves of :func:`_least_failing_event` are windows of 2^_LOW_BITS
#: consecutive right events, scanned by :class:`_EventWindow` in blocks of
#: _FIRST_BLOCK rows at first, doubling up to a whole window, so a failure
#: among the first events stays cheap while a long scan pays numpy's
#: per-call cost once per window.
_FIRST_BLOCK = 32
_LOW_BITS = 7
#: Cells (rows times width) of each suffix table and each block of the
#: left scans (:class:`_LexScan`): 256 KiB of uint64 words, 128 KiB of
#: int32 counts, so a scan's peak stays under the right-event scan's.  A
#: block holds at least one set whatever the width.  The right-event side
#: of :func:`worst_flat_distance` keeps its low-bit table and each block of
#: 2^low events by N int64 counts within the same count (one event at
#: least).
_SCAN_CELLS = 1 << 15
#: Cells per ``%`` template in :func:`write_graph`.
_WRITE_CELLS = 1 << 16


class BipartiteGraph:
    """Left part of size N, right part of size M, D ordered edges per left vertex.

    ``adjacency[x]`` lists the right endpoints of x's edges in seed order;
    repeated entries are genuine multi-edges.  Edge counts ``E(A, B)``
    respect multiplicity, neighbor sets ``Γ(a)`` do not.
    """

    __slots__ = ("N", "M", "D", "adjacency", "_hist")

    def __init__(self, N: int, M: int, D: int, adjacency):
        if N < 0 or M <= 0 or D < 0:
            raise DimensionError(f"bad graph dimensions N={N}, M={M}, D={D}")
        adj = np.asarray(adjacency, dtype=np.int64).reshape(N, D) if N else np.zeros(
            (0, D), dtype=np.int64
        )
        if adj.size and (adj.min() < 0 or adj.max() >= M):
            raise DimensionError(
                f"adjacency entry outside [0, {M}): saw {int(adj.min())}..{int(adj.max())}"
            )
        self.N = N
        self.M = M
        self.D = D
        self.adjacency = adj
        self.adjacency.setflags(write=False)
        self._hist = None

    @property
    def hist(self) -> np.ndarray:
        """(N, M) matrix: hist[x, z] = number of edges from x to z.

        One ``np.bincount`` over the cell indices ``x*M + z``; graphs with
        more than :data:`MAX_HIST_CELLS` cells raise BudgetExceededError.
        """
        if self._hist is None:
            N, M = self.N, self.M
            if N * M > MAX_HIST_CELLS:
                raise BudgetExceededError(
                    f"hist of N*M = {N * M} cells exceeds budget {MAX_HIST_CELLS}",
                    requested=N * M,
                    budget=MAX_HIST_CELLS,
                )
            cells = np.arange(N, dtype=np.int64)[:, None] * M + self.adjacency
            h = np.bincount(cells.ravel(), minlength=N * M).reshape(N, M)
            h.setflags(write=False)
            self._hist = h
        return self._hist

    def neighbors(self, x: int) -> frozenset[int]:
        return frozenset(int(z) for z in self.adjacency[x])

    def edge_count(self, A, B) -> int:
        """Number of edges from A into B, with multiplicity."""
        Bset = set(int(b) for b in B)
        total = 0
        for x in A:
            for z in self.adjacency[x]:
                if int(z) in Bset:
                    total += 1
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.N == other.N
            and self.M == other.M
            and self.D == other.D
            and np.array_equal(self.adjacency, other.adjacency)
        )

    def __repr__(self) -> str:
        return f"BipartiteGraph(N={self.N}, M={self.M}, D={self.D})"


@dataclass(frozen=True)
class ExtractorSpec:
    """Bit-level parameters (n, d, m) plus the claimed guarantee (k, eps)."""

    n: int
    d: int
    m: int
    k: int
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if not 0 < self.k <= self.n:
            raise DimensionError(f"need 0 < k <= n, got k={self.k}, n={self.n}")
        if self.d < 0 or self.m < 0:
            raise DimensionError(f"negative bit length in {self}")
        if not 0 < self.eps < 1:
            raise DimensionError(f"error bound {self.eps} outside (0, 1)")

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def D(self) -> int:
        return 1 << self.d

    @property
    def M(self) -> int:
        return 1 << self.m

    @property
    def K(self) -> int:
        return 1 << self.k

    @classmethod
    def for_graph(cls, G: BipartiteGraph, k: int, eps) -> ExtractorSpec:
        """The spec of graph ``G`` at k source bits: n, d, m are the bit
        lengths of its sides N, D, M rounded up, so a side that is not a
        power of two fails :func:`verify_prefix_extractor`'s size check."""
        n, d, m = ((v - 1).bit_length() for v in (G.N, G.D, G.M))
        return cls(n=n, d=d, m=m, k=k, eps=eps)


def graph_of_function(F, n: int | None = None, d: int | None = None, m: int | None = None) -> BipartiteGraph:
    """Tabulate a seeded map into its graph: row x lists F(x, y) in seed order.

    ``F`` may be a :class:`SeededFunction` (bit lengths taken from it) or a
    plain callable on (BitString, BitString), in which case n, d, m are
    required.  The rows are ``F.table(range(N))``; a graph of more than
    :data:`MAX_HIST_CELLS` edges raises BudgetExceededError first.
    """
    if not isinstance(F, SeededFunction):
        if n is None or d is None or m is None:
            raise DimensionError("plain callables need explicit n, d, m")
        F = SeededFunction(n, d, m, F)
    N, D = 1 << F.n, 1 << F.d
    if N * D > MAX_HIST_CELLS:
        raise BudgetExceededError(
            f"graph of N*D = {N * D} edges exceeds budget {MAX_HIST_CELLS}",
            requested=N * D,
            budget=MAX_HIST_CELLS,
        )
    return BipartiteGraph(N, 1 << F.m, D, F.table(range(N)))


def function_of_graph(G: BipartiteGraph, name: str = "") -> SeededFunction:
    """Inverse of :func:`graph_of_function`; needs power-of-two N, M, D."""
    n, d, m = (_exact_log2(G.N, "N"), _exact_log2(G.D, "D"), _exact_log2(G.M, "M"))
    adj = G.adjacency

    def fn(x: BitString, y: BitString) -> BitString:
        return BitString(m, int(adj[x.value, y.value]))

    return SeededFunction(n, d, m, fn, name=name or "graph-lookup")


def _exact_log2(v: int, label: str) -> int:
    b = v.bit_length() - 1
    if v <= 0 or (1 << b) != v:
        raise DimensionError(f"{label}={v} is not a power of two")
    return b


def prefix_graph(G: BipartiteGraph, drop: int) -> BipartiteGraph:
    """Graph of the output-prefix map: keep the high bits, drop ``drop`` low bits."""
    m = _exact_log2(G.M, "M")
    if not 0 <= drop <= m:
        raise DimensionError(f"cannot drop {drop} of {m} output bits")
    if drop == 0:
        return G
    return BipartiteGraph(G.N, G.M >> drop, G.D, G.adjacency >> drop)


# ---------------------------------------------------------------------------
# verifiers


class _SubsetTable:
    """Rows combined over the j-subsets of the last ``m + j`` of ``rows``,
    for j = 1..``size``, in lexicographic order.

    A j-set is its least element a followed by a (j-1)-set above a, and
    the (j-1)-sets above a are the last C(n-1-a, j-1) sets of the level
    below: level j is one gather of the level below, combined by ``op``
    with ``rows[a]`` repeated over those runs.  ``vals`` is the top level
    (level 1 is a view of ``rows``).  ``ends[j - 2][i]`` counts the sets
    of level j whose least element is at most ``n - m - j + i``.
    ``last`` holds each top-level set's largest element, when asked for.
    """

    __slots__ = ("n", "m", "size", "vals", "ends", "last")

    def __init__(self, rows: np.ndarray, m: int, size: int, op: np.ufunc, need_last: bool):
        n = len(rows)
        lo = n - m - 1
        vals = rows[lo:]
        last = np.arange(lo, n) if need_last else None
        runs = np.ones(m + 1, dtype=np.int64) if size > 1 else None  # m may be 2^20
        ends = []
        for j in range(2, size + 1):
            runs = _binomial_runs(runs)
            end = np.cumsum(runs)
            tail = np.arange(end[-1]) + np.repeat(len(vals) - end, runs)
            new = vals[tail]
            vals = op(new, np.repeat(rows[lo - j + 1 : n - j + 1], runs, axis=0), out=new)
            if need_last:
                last = last[tail]
            ends.append(end)
        self.n, self.m, self.size = n, m, size
        self.vals, self.ends, self.last = vals, ends, last

    def members(self, r: int) -> list[int]:
        """The elements of top-level set r."""
        out = []
        for j in range(self.size, 1, -1):
            end = self.ends[j - 2]
            i = int(np.searchsorted(end, r, "right"))
            out.append(self.n - self.m - j + i)
            below = int(self.ends[j - 3][-1]) if j > 2 else self.m + 1
            r += below - int(end[i])
        out.append(self.n - self.m - 1 + r)
        return out


def _binomial_runs(runs: np.ndarray) -> np.ndarray:
    """From C(m + j - 1 - i, j - 1) for i = 0..m, the same at j + 1.

    At level j of :class:`_SubsetTable` these count the j-sets whose least
    element is the i-th candidate; summed from the right they give the
    next level's (hockey stick)."""
    return np.cumsum(runs[::-1])[::-1]


class _LexScan:
    """The k-subsets (k >= 1) of ``range(len(rows))`` in lexicographic
    order, in blocks of consecutive sets, each set's ``rows`` combined by
    ``op``.

    A k-set splits into a base of ``k - q*s`` elements (1 to s) and q
    chunks of s, where s is the largest size whose table of
    C(n-k+s, s) rows of the given width fits :data:`_SCAN_CELLS` (at
    least 1: that table is ``rows`` itself).  Chunk i ranges over one
    :class:`_SubsetTable` of s-sets, and the chunks that may follow a
    prefix whose largest element is a are that table's sets above a, a
    contiguous tail.  So a block is a run of consecutive prefixes, each
    paired with its tail: a ``np.repeat`` of prefix rows and a shifted
    ``arange`` of tail rows, one gather of each combined by ``op``, at
    most ``_SCAN_CELLS // width`` sets (and at least one).  Blocks come
    out in lexicographic order, so the first set to meet a condition in
    the first block that has one is the least such set.
    """

    def __init__(self, rows: np.ndarray, k: int, op: np.ufunc):
        n, width = rows.shape
        self.op = op
        self.per = max(1, _SCAN_CELLS // width)
        m = n - k
        s = 1
        while s < k and math.comb(m + s + 1, s + 1) <= self.per:
            s += 1
        q, r = divmod(k - 1, s)
        self.tables = [
            _SubsetTable(rows[: n - (q - i) * s], m, s if i else r + 1, op, i < q)
            for i in range(q + 1)
        ]
        if q:
            # tails[i]: a chunk table's s-sets that start i or more places
            # above the least element the table holds
            tails = np.ones(m + 1, dtype=np.int64)
            for _ in range(s):
                tails = _binomial_runs(tails)
            self.tails = tails

    def blocks(self):
        """Yield ``(vals, where)`` per block: ``vals[r]`` is the combined
        rows of the block's r-th set, and ``members(where, r)`` names it.
        ``vals`` is read-only to the caller and valid until the next block."""
        base, per, top = self.tables[0], self.per, len(self.tables) - 1
        # one block iterator per depth, not nested generators: q may be large
        stack = [(
            (base.vals[lo : lo + per], base.last[lo : lo + per] if top else None, lo)
            for lo in range(0, len(base.vals), per)
        )]
        while stack:
            block = next(stack[-1], None)
            if block is None:
                stack.pop()
            elif len(stack) > top:
                yield block[0], block[2]
            else:
                stack.append(self._pairs(self.tables[len(stack)], len(stack) < top, *block))

    def _pairs(self, table: _SubsetTable, need_last: bool, vals, last, where):
        """The blocks of pairs (prefix, s-set of ``table`` above the
        prefix's largest element) for the prefixes ``vals``, whose largest
        elements are ``last``; each block is written into one buffer that
        the next block overwrites."""
        tails = self.tails[last + 1 - (table.n - table.m - table.size)]
        ends = np.cumsum(tails)
        shift = len(table.vals) - ends  # tail row of pair t of prefix i: t + shift[i]
        total = int(ends[-1])
        buf = np.empty((min(self.per, total), table.vals.shape[1]), dtype=table.vals.dtype)
        for lo in range(0, total, self.per):
            hi = min(lo + self.per, total)
            i0 = int(np.searchsorted(ends, lo, "right"))
            i1 = int(np.searchsorted(ends, hi, "left")) + 1
            runs = np.minimum(ends[i0:i1], hi) - np.maximum(ends[i0:i1] - tails[i0:i1], lo)
            pref = np.repeat(np.arange(i0, i1), runs)
            suf = np.arange(lo, hi) + shift[pref]
            out = np.take(table.vals, suf, axis=0, out=buf[: hi - lo])
            yield (self.op(out, vals[pref], out=out),
                   table.last[suf] if need_last else None, (pref, suf, where))

    def members(self, where, r: int) -> tuple[int, ...]:
        """The set at row r of the block that ``blocks`` gave ``where``."""
        out: list[int] = []
        for table in reversed(self.tables[1:]):
            pref, suf, where = where
            out[:0] = table.members(int(suf[r]))
            r = int(pref[r])
        return tuple(self.tables[0].members(where + r) + out)


def _check_flat_size(G: BipartiteGraph, K: int) -> None:
    """A flat left source has between 1 and N vertices."""
    if not 1 <= K <= G.N:
        raise DimensionError(f"K={K} outside 1..N for left size N={G.N}")


def verify_disperser(
    G: BipartiteGraph,
    K: int,
    eps,
    max_subsets: int = DEFAULT_SUBSET_BUDGET,
) -> Verdict:
    """Exact disperser check.

    Pass iff no set Y of L = ceil(eps*M) right vertices is avoided by K or
    more left vertices (avoided: no edge lands in Y).  Equivalent to every
    K-subset A of the left side having |Γ(A)| >= (1-eps)M.  On failure the
    witness is ``(A, Y)`` with A the K smallest-index avoiding vertices and
    Y the first failing set in lexicographic order.  At eps = 0 the empty
    Y fails; a negative eps raises DimensionError.

    One scan serves every M.  Row z of a packed incidence is the set of
    left vertices with an edge into z, as a bitmask in ``W = ceil(N/64)``
    uint64 words (bit x % 64 of word x // 64), ORed in straight from the
    adjacency: the words cost N*M bits, and ``hist`` is never built.  More
    than :data:`MAX_HIST_CELLS` words (the 512 MB of the largest ``hist``)
    raise BudgetExceededError before allocating.  The sets Y come from
    :class:`_LexScan` in blocks of consecutive lexicographic runs, at most
    ``_SCAN_CELLS // W`` sets each: a suffix table ORs the rows of every
    s-set of the last M-L+s right vertices once, and a block ORs a run of
    prefixes with their tails of that table.  N minus a row's popcount is
    Y's number of avoiders, and the scan stops at the first failing row of
    the first block that has one.
    """
    eps = as_fraction(eps)
    if eps < 0:
        raise DimensionError(f"error bound {eps} is negative")
    _check_flat_size(G, K)
    L = math.ceil(eps * G.M)
    if L > G.M:
        return Verdict(True, note=f"L={L} exceeds M={G.M}; condition vacuous")
    if math.comb(G.M, L) > max_subsets:
        raise BudgetExceededError(
            f"C({G.M},{L}) = {math.comb(G.M, L)} subsets exceed budget {max_subsets}",
            requested=math.comb(G.M, L),
            budget=max_subsets,
        )
    W = -(-G.N // 64)
    if G.M * W > MAX_HIST_CELLS:
        raise BudgetExceededError(
            f"packed incidence of M*ceil(N/64) = {G.M * W} words exceeds budget {MAX_HIST_CELLS}",
            requested=G.M * W,
            budget=MAX_HIST_CELLS,
        )
    if L == 0:  # every left vertex avoids the empty set
        return Verdict(False, witness=(tuple(range(K)), ()))
    x = np.repeat(np.arange(G.N, dtype=np.int64), G.D)
    bit = np.left_shift(np.uint64(1), (x & 63).astype(np.uint64))
    words = np.zeros((G.M, W), dtype=np.uint64)
    np.bitwise_or.at(words, (G.adjacency.ravel(), x >> 6), bit)
    scan = _LexScan(words, L, np.bitwise_or)
    for hit, where in scan.blocks():
        fails = np.bitwise_count(hit).sum(axis=1, dtype=np.int64) <= G.N - K
        r = int(fails.argmax())
        if fails[r]:
            lefts = np.arange(G.N, dtype=np.int64)
            avoid = (hit[r][lefts >> 6] >> (lefts & 63).astype(np.uint64)) & np.uint64(1) == 0
            A = np.flatnonzero(avoid)[:K]
            return Verdict(False, witness=(tuple(A.tolist()), scan.members(where, r)))
    return Verdict(True, note=f"checked all C({G.M},{L}) right sets")


def _doubling_table(rows: np.ndarray, bits: int) -> np.ndarray:
    """Row r: the sum of ``rows[z]`` over the set bits z of r, for r < 2^bits;
    the rows for bit z are the rows below 2^z plus ``rows[z]``."""
    table = np.zeros((1 << bits,) + rows.shape[1:], dtype=rows.dtype)
    for z in range(bits):
        table[1 << z : 2 << z] = table[: 1 << z] + rows[z]
    return table


def _event_weights(H: np.ndarray, D: int) -> np.ndarray:
    """``w[z, x] = M*hist[x, z] - D``, z-major, so that ``f_x(B)`` is the
    sum of the rows z in B."""
    w = np.array(H.T, order="C")
    w *= H.shape[1]
    w -= D
    return w


class _EventWindow:
    """The exact test of :func:`verify_extractor` on windows of 2^low
    consecutive right-event bitmasks, low = min(M, 7): the leaves of
    :func:`_least_failing_event`.

    A window's bitmasks share every bit above the low ``low``, and it is
    tested in blocks of consecutive bitmasks, 32 rows at first and
    doubling to a whole window; the size carries over from window to
    window, so only the first window scanned is split.  The
    block's int64 counts ``C[r, x] = E(x, B_r)``, i.e. ``bits @ hist.T`` for
    its 0/1 event matrix ``bits``, are a slice of a table of ``hist`` column
    sums over all 2^low low-bit patterns plus the column sum over the
    shared high bits: integer adds only.  The exact test runs on every row
    at once, first with K times the row's largest count, an upper bound on
    its top-K sum; the rows that bound does not clear get their top-K sum
    from ``np.partition`` and the exact test itself.  When
    ``K*D*M*(|p|+q)`` reaches 2^63 the sides of that test could overflow
    int64, so the scan compares Python ints instead.  The top-K lefts of a
    failing event are ordered by ``(-count, index)``.
    """

    __slots__ = ("H", "K", "D", "p", "q", "low", "table", "sizes", "exact", "size")

    def __init__(self, H: np.ndarray, K: int, D: int, p: int, q: int):
        M = H.shape[1]
        low = min(M, _LOW_BITS)
        # row r of the tables: counts and size of the event with low bits r
        table = _doubling_table(H.T, low)
        sizes = _doubling_table(np.ones(low, dtype=np.int64), low)
        self.H, self.K, self.D, self.p, self.q, self.low = H, K, D, p, q, low
        self.table, self.sizes = table, sizes
        self.exact = K * D * M * (abs(p) + q) >= 1 << 63
        self.size = _FIRST_BLOCK

    def scan(self, base: int):
        """Witness ``(B, A)`` of the least failing bitmask in the window
        of ``base`` (a multiple of 2^low), or None; the empty event is
        never tested."""
        H, K, D, p, q, low = self.H, self.K, self.D, self.p, self.q, self.low
        N, M = H.shape
        start, hi = max(base, 1), base + (1 << low)
        high = [z for z in range(low, M) if base >> z & 1]
        counts = H[:, high].sum(axis=1)
        while start < hi:
            stop = min(start + self.size, hi)
            C = self.table[start - base : stop - base] + counts
            sB = self.sizes[start - base : stop - base] + len(high)
            peak = C.max(axis=1, initial=0)
            if self.exact:
                sB, peak = sB.astype(object), peak.astype(object)
            rhs = K * D * (sB * q + p * M)
            # K*peak bounds the top-K sum: only rows it lets reach rhs can fail
            rows = np.flatnonzero(np.asarray(K * peak * (M * q) >= rhs, dtype=bool))
            if rows.size:
                Cr = C[rows]
                if K < N:
                    top = np.partition(Cr, N - K, axis=1)[:, N - K :].sum(axis=1)
                else:
                    top = Cr.sum(axis=1)
                if self.exact:
                    top = top.astype(object)
                fail = np.asarray(top * (M * q) >= rhs[rows], dtype=bool)
                if fail.any():
                    r = int(rows[fail.argmax()])
                    bmask = start + r
                    order = np.argsort(-C[r], kind="stable")[:K]
                    return tuple(z for z in range(M) if bmask >> z & 1), tuple(order.tolist())
            start, self.size = stop, min(2 * self.size, 1 << low)
        return None


def _least_failing_event(G: BipartiteGraph, K: int, eps):
    """Witness ``(B, A)`` of the least failing right-event bitmask in
    [1, 2^M), or None if all pass: the scan behind :func:`verify_extractor`.

    With ``w[x, z] = M*hist[x, z] - D`` and ``f_x(B)`` the sum of
    ``w[x, z]`` over z in B, the top-K sum of ``f(B)`` is
    ``M*E(A, B) - K*D*|B|`` for the top-K set A, so with eps = p/q an event
    fails iff ``q*topK(f(B)) >= K*D*p*M``.  The events form a binary tree
    over the bits above the low ``low = min(M, 7)``, decided from the top
    down, 0-branch first, on an explicit stack; its leaves are the windows
    of 2^low bitmasks that :class:`_EventWindow` scans, and they come in
    increasing bitmask order, so the first failure found is the least.  At
    a node whose decided bits make the set Bh, every event below has
    ``f_x(B) <= ub_x = f_x(Bh) + sum of max(0, w[x, z]) over the undecided
    z``, read from one (M+1)-row prefix table; top-K is monotone, so when
    ``q*topK(ub) < K*D*p*M`` (in Python ints) no event below fails and the
    subtree is skipped (branch and bound: Land and Doig 1960).  A popped
    node tests itself and its descendants along 0-branches in one
    ``np.partition`` call: ub only shrinks down that chain, so the live
    ones are a top run, and each pushes its 1-branch.  The window tables
    are built at the first leaf, so a graph the bound clears scans none.
    """
    eps = as_fraction(eps)
    p, q = eps.numerator, eps.denominator
    N, M, D, H = G.N, G.M, G.D, G.hist
    w = _event_weights(H, D)
    # bound[j] = sum of max(0, w[z]) over z < j
    bound = np.zeros((M + 1, N), dtype=np.int64)
    np.cumsum(np.maximum(w, 0), axis=0, out=bound[1:])
    need, low, window = K * D * p * M, min(M, _LOW_BITS), None
    # nodes (level, base, f(base)): bits level..M-1 of base are decided
    stack = [(M, 0, np.zeros(N, dtype=np.int64))]
    while stack:
        level, base, f = stack.pop()
        # row j - low: ub at the node's descendant at level j by 0-branches
        ub = f + bound[low : level + 1]
        if K < N:
            top = np.partition(ub, N - K, axis=1)[:, N - K :].sum(axis=1)
        else:
            top = ub.sum(axis=1)
        # ub grows with j, so the pruned rows are the first d
        d = sum(q * t < need for t in top.tolist())
        if d > level - low:
            continue
        # the live descendants at levels low + d..level push their 1-branches,
        # least bit last, so the least bitmasks come off the stack first
        lo = max(low + d - 1, low)
        ones = f + w[lo:level]
        stack.extend((z, base | 1 << z, ones[z - lo]) for z in range(level - 1, lo - 1, -1))
        if d == 0:
            if window is None:  # built at the first leaf only
                window = _EventWindow(H, K, D, p, q)
            witness = window.scan(base)
            if witness is not None:
                return witness
    return None


def verify_extractor(
    G: BipartiteGraph,
    K: int,
    eps,
    max_subsets: int = DEFAULT_SUBSET_BUDGET,
) -> Verdict:
    """Exact one-sided extractor check over all right-side events.

    Pass iff for every B subseteq [M], the K left vertices with the most
    edges into B satisfy  |E(A, B)| < K*D*(|B|/M + eps)  (strict).  Checking
    the top-K set suffices: among size-K left sets it maximizes |E(A, B)|,
    and flat sources of size K are the extreme points of the sources the
    guarantee quantifies over.  The comparison is exact: with eps = p/q the
    test is  |E|*M*q < K*D*(|B|*q + p*M)  over Python integers.

    On failure the witness is ``(B, A)``: B the least failing subset in
    indicator-bitmask order, A the top-K lefts for that B (ties by index).

    The events are searched by :func:`_least_failing_event`, a branch and
    bound over the event bits above the low 7, 0-branch first: a subtree
    is skipped when the top-K argument above, applied to an upper bound
    on each left's ``M*E(x, B) - D*|B|`` over its events, shows that none
    of them fails.  The
    leaves are windows of at most 128 consecutive bitmasks, scanned in
    blocks whose counts take at most 128*N int64s, in increasing bitmask
    order; the first failing row of the first failing block is the witness.
    """
    _check_flat_size(G, K)
    if 1 << G.M > max_subsets:
        raise BudgetExceededError(
            f"2^{G.M} right subsets exceed budget {max_subsets}",
            requested=1 << G.M,
            budget=max_subsets,
        )
    witness = _least_failing_event(G, K, eps)
    if witness is not None:
        return Verdict(False, witness=witness)
    return Verdict(True, note=f"checked all 2^{G.M} right events")


def verify_prefix_extractor(
    F,
    spec: ExtractorSpec,
    max_subsets: int = DEFAULT_SUBSET_BUDGET,
) -> Verdict:
    """Check the extractor condition for every output prefix simultaneously.

    For each i in 0..k the map that keeps the top m-i output bits must be
    a (k-i, eps) extractor (graph form: K = 2^(k-i)).  ``F`` is a seeded
    map or a :class:`BipartiteGraph` with power-of-two sides.  Failure
    witness: ``(i, inner)`` with ``inner`` the failing prefix's (B, A).
    """
    if spec.k > spec.m:
        raise DimensionError(f"prefix check needs k <= m, got k={spec.k}, m={spec.m}")
    if isinstance(F, BipartiteGraph):
        G = F
    else:
        G = graph_of_function(F, n=spec.n, d=spec.d, m=spec.m)
    if (G.N, G.D, G.M) != (spec.N, spec.D, spec.M):
        raise DimensionError(
            f"graph ({G.N},{G.M},{G.D}) does not match spec ({spec.N},{spec.M},{spec.D})"
        )
    for i in range(spec.k + 1):
        Gi = prefix_graph(G, i)
        verdict = verify_extractor(Gi, 1 << (spec.k - i), spec.eps, max_subsets)
        if not verdict:
            return Verdict(False, witness=(i, verdict.witness), note=f"prefix drop {i}")
    return Verdict(True, note=f"all {spec.k + 1} prefixes pass")


def _events_cheaper(N: int, M: int, K: int) -> bool:
    """Whether the 2^M right events of N counts each take fewer cells than
    the C(N, K) left sets of M sums each, compared in Python ints; 2^M is
    formed only when its bit length leaves it a chance."""
    sets = math.comb(N, K)
    return M < sets.bit_length() + M.bit_length() and N << M < sets * M


def _worst_flat_events(H: np.ndarray, K: int, D: int) -> tuple[tuple[int, ...], int]:
    """The right-event side of :func:`worst_flat_distance`: ``(A, v)`` with
    v the largest top-K sum of ``f(B)`` over the 2^M events B and A the
    lexicographically least top-K set over the events that reach v.

    The events come in blocks of 2^low consecutive bitmasks, low the
    largest with 2^low*N within :data:`_SCAN_CELLS` (at least 0): row r of a
    block is a :func:`_doubling_table` row over the low bits plus the
    block's high bits, and one ``np.partition`` gives each row's K-th value
    t and top-K sum.  In the rows that reach the best sum, the lex-least
    top-K set is every x with ``f_x > t`` and the least-index x with
    ``f_x = t`` until it holds K; of two K-sets the lex-lesser holds the
    least index in which they differ, so as packed bit rows the least set
    is the greatest, taken by ``np.lexsort`` in a block and by bytes across
    blocks.
    """
    N, M = H.shape
    w = _event_weights(H, D)
    low = min(M, max(_SCAN_CELLS // N, 1).bit_length() - 1)
    table = _doubling_table(w, low)
    best, key = -1, b""
    for base in range(0, 1 << M, 1 << low):
        F = table + w[[z for z in range(low, M) if base >> z & 1]].sum(axis=0)
        part = np.partition(F, N - K, axis=1)
        top = part[:, N - K :].sum(axis=1)
        peak = int(top.max())
        if peak < best:
            continue
        rows = np.flatnonzero(top == peak)
        Fr, t = F[rows], part[rows, N - K, None]
        above, tied = Fr > t, Fr == t
        room = K - above.sum(axis=1, keepdims=True)
        packed = np.packbits(above | tied & (np.cumsum(tied, axis=1) <= room), axis=1)
        least = packed[np.lexsort(packed.T[::-1])[-1]].tobytes()
        if peak > best or least > key:
            best, key = peak, least
    A = np.flatnonzero(np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=N))
    return tuple(A.tolist()), best


def worst_flat_distance(
    G: BipartiteGraph,
    K: int,
    max_subsets: int = DEFAULT_SUBSET_BUDGET,
) -> tuple[tuple[int, ...], Fraction]:
    """Exhaustively find the size-K left set whose output is farthest from uniform.

    The induced distribution of a flat set A puts mass E(A,{z})/(K*D) on
    each right vertex z; the value returned is the statistical distance to
    uniform over [M], as an exact Fraction.  Ties resolve to the first set
    in lexicographic order.

    The distance, cleared to integers, is ``sum_z |M*E_z - K*D|`` over the
    shared denominator ``2*M*K*D``, and ``M*E_z - K*D`` is the sum over
    A's members x of ``w[x, z] = M*hist[x, z] - D``.  Its terms sum to 0,
    so it is twice the sum of its positive terms.  The scan takes whichever
    side has fewer cells: the 2^M right events, N counts each, when
    ``2^M*N < C(N, K)*M`` (in Python ints), else the C(N, K) left sets, M
    sums each.  Either way the budget refuses ``C(N, K) > max_subsets``
    first, so the event side does less work than the budget allows.

    *Left sets.*  Those rows are summed by :class:`_LexScan`: a suffix
    table adds the rows of every s-set of the last N-K+s lefts once, and
    each block adds a run of consecutive prefixes to their tails of that
    table, at most ``_SCAN_CELLS // M`` sets.  Blocks come in
    lexicographic order and a block's ``argmax`` takes its first maximum,
    so a later block replaces the best only when strictly greater.  Counts
    are int32 while ``M*K*D < 2^31`` (every partial sum then fits) and
    int64 otherwise; the numerators are summed in int64, and only the
    winner becomes a Fraction.

    *Right events.*  With ``f_x(B)`` the sum of ``w[x, z]`` over z in B,
    the sum of ``f_x(B)`` over x in A is ``M*E(A, B) - K*D*|B|``; over all
    B it is largest at the z with ``M*E_z - K*D > 0``, where it is the sum
    of those positive terms.  So the largest
    numerator is twice ``v = max over B of topK(f(B))``, the top-K argument
    of :func:`verify_extractor`.  A set A reaches it exactly when A is a
    top-K set of ``f(B)`` for some B with ``topK(f(B)) = v``, so the
    witness is the least, over those B, of B's lex-least top-K set (see
    :func:`_worst_flat_events`).  Each ``|f_x(B)| <= M*D`` and a top-K sum
    is at most ``K*M*D``, in int64 counts.
    """
    _check_flat_size(G, K)
    if math.comb(G.N, K) > max_subsets:
        raise BudgetExceededError(
            f"C({G.N},{K}) = {math.comb(G.N, K)} subsets exceed budget {max_subsets}",
            requested=math.comb(G.N, K),
            budget=max_subsets,
        )
    M, KD = G.M, K * G.D
    if _events_cheaper(G.N, M, K):
        A, v = _worst_flat_events(G.hist, K, G.D)
        return A, Fraction(2 * v, 2 * M * KD)
    rows = G.hist.astype(np.int32 if M * KD < 1 << 31 else np.int64)
    rows *= M
    rows -= G.D
    scan = _LexScan(rows, K, np.add)
    best, best_num = (None, 0), -1
    for E, where in scan.blocks():
        num = np.abs(E).sum(axis=1, dtype=np.int64)
        r = int(num.argmax())
        if num[r] > best_num:
            best, best_num = (where, r), int(num[r])
    return scan.members(*best), Fraction(best_num, 2 * M * KD)


# ---------------------------------------------------------------------------
# text format: line 1 `N M D`, then N lines of D space-separated indices


def write_graph(G: BipartiteGraph, fp: TextIO) -> None:
    """Header ``N M D``, then row x's D right indices, space-separated.

    Rows are printed ``_WRITE_CELLS`` cells at a time through one
    ``%d`` template, so the temporaries stay bounded at any N.
    """
    fp.write(f"{G.N} {G.M} {G.D}\n")
    row = " ".join(["%d"] * G.D) + "\n"
    step = max(1, _WRITE_CELLS // max(G.D, 1))
    for lo in range(0, G.N, step):
        block = G.adjacency[lo : lo + step]
        fp.write(row * len(block) % tuple(block.ravel().tolist()))


def read_graph(fp: TextIO) -> BipartiteGraph:
    """Parse the text format; a malformed file raises :class:`FormatError`
    naming its first bad line.

    The N lines after the header are rows, whatever follows them is left
    in ``fp``, and each row holds D tokens that Python ``int`` accepts, in
    ``[0, M)``.  A body of N lines of digits, spaces and newlines, D tokens
    each, of at most 18 digits, is parsed in one numpy pass; any other
    body, and any body that fails a check, goes through the per-line loop
    :func:`_parse_rows`, which accepts the same texts and names the error.
    Nothing of size N*D is allocated before the body holds N lines.
    """
    header = fp.readline()
    parts = header.split()
    if len(parts) != 3:
        raise FormatError(f"expected 'N M D' header, got {header!r}", line=1)
    try:
        N, M, D = (int(t) for t in parts)
    except ValueError:
        raise FormatError(f"non-integer in header {header!r}", line=1) from None
    # readline, not iteration, so that a file's tell() still works afterwards
    lines = [line for _, line in zip(range(N), iter(fp.readline, header[:0]))]
    adjacency = _parse_body(lines, N, M, D) if len(lines) == N else None
    if adjacency is None:
        adjacency = _parse_rows(lines, N, M, D)
    return BipartiteGraph(N, M, D, adjacency)


def _parse_body(lines: list[str], N: int, M: int, D: int):
    """The N rows as one flat int64 array, or None when the text needs the
    per-line loop: a character other than a digit, a space or a newline, a
    line without D tokens, a token of more than 18 digits, or an entry
    outside [0, M)."""
    try:
        buf = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8)
    except (UnicodeEncodeError, TypeError):  # non-ASCII text, or bytes from a binary stream
        return None
    value = buf - np.uint8(ord("0"))  # bytes below "0" wrap past 9
    digit = value < 10
    if not (digit | (buf == ord(" ")) | (buf == ord("\n"))).all():
        return None
    # tokens are the runs of digits: [starts[t], ends[t])
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    if starts.size != N * D:
        return None
    # D tokens before each "\n"; with the total, a last line without one holds D too
    line_ends = np.flatnonzero(buf == ord("\n"))
    if (np.diff(np.searchsorted(starts, line_ends), prepend=0) != D).any():
        return None
    if starts.size == 0:
        return starts
    widths = ends - starts
    width = int(widths.max())
    if width > 18:  # 10^18 - 1 is the widest run int64 always holds
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(width, 0, -1):  # the k-th digit from each token's end
        place = value[np.maximum(ends - k, 0)]
        place[widths < k] = 0
        values *= 10
        values += place
    return values if int(values.max()) < M else None


def _parse_rows(lines: list[str], N: int, M: int, D: int) -> list[list[int]]:
    """Line-by-line parse of the rows, raising at the first bad line."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        toks = line.split()
        if len(toks) != D:
            raise FormatError(f"expected {D} indices, got {len(toks)}", line=lineno)
        try:
            row = [int(t) for t in toks]
        except ValueError:
            raise FormatError(f"non-integer edge index in {line!r}", line=lineno) from None
        bad = [z for z in row if not 0 <= z < M]
        if bad:
            raise FormatError(f"edge index {bad[0]} outside [0, {M})", line=lineno)
        rows.append(row)
    if len(lines) < N:
        raise FormatError("unexpected end of graph file", line=len(lines) + 2)
    return rows
