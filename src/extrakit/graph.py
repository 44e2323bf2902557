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
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
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

#: Right events in the first block of :func:`_least_failing_event`.  Blocks
#: double up to 2^_LOW_BITS rows, so a failure among the first events stays
#: cheap while a full scan pays numpy's per-call cost once per block.
_FIRST_BLOCK = 32
_LOW_BITS = 7
#: Subsets per batch in the left-set and right-set scans is
#: ``max(_MIN_BATCH, _BATCH_CELLS // width)``: each batch's 64-bit arrays
#: stay far below a megabyte whatever the graph's width.
_MIN_BATCH = 64
_BATCH_CELLS = 4096
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
    required.
    """
    if isinstance(F, SeededFunction):
        n, d, m = F.n, F.d, F.m
    if n is None or d is None or m is None:
        raise DimensionError("plain callables need explicit n, d, m")
    N, D, M = 1 << n, 1 << d, 1 << m
    adj = np.empty((N, D), dtype=np.int64)
    for x in range(N):
        xw = BitString(n, x)
        for y in range(D):
            out = F(xw, BitString(d, y))
            if out.length != m:
                raise DimensionError(
                    f"map produced {out.length} bits, expected {m}"
                )
            adj[x, y] = out.value
    return BipartiteGraph(N, M, D, adj)


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


def _combination_chunks(n: int, k: int, rows: int):
    """The k-subsets of range(n) in lexicographic order, as int64 arrays of
    at most ``rows`` rows and k columns."""
    combos = combinations(range(n), k)
    left = math.comb(n, k)
    while left:
        r = min(rows, left)
        flat = np.fromiter(chain.from_iterable(islice(combos, r)), dtype=np.int64, count=r * k)
        yield flat.reshape(r, k)
        left -= r


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
    Y the first failing set in lexicographic order.

    One scan serves every M.  Row z of a packed incidence is the set of
    left vertices with an edge into z, as a bitmask in ``W = ceil(N/64)``
    uint64 words (bit x % 64 of word x // 64), ORed in straight from the
    adjacency: the words cost N*M bits, and ``hist`` is never built.  More
    than :data:`MAX_HIST_CELLS` words (the 512 MB of the largest ``hist``)
    raise BudgetExceededError before allocating.  The sets Y are taken in
    lexicographic batches of ``max(64, 4096 // W)``; a batch ORs the rows
    of each Y's members, and N minus the popcount is Y's number of
    avoiders.
    """
    eps = as_fraction(eps)
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
    x = np.repeat(np.arange(G.N, dtype=np.int64), G.D)
    bit = np.left_shift(np.uint64(1), (x & 63).astype(np.uint64))
    words = np.zeros((G.M, W), dtype=np.uint64)
    np.bitwise_or.at(words, (G.adjacency.ravel(), x >> 6), bit)
    for Ys in _combination_chunks(G.M, L, max(_MIN_BATCH, _BATCH_CELLS // W)):
        hit = np.zeros((len(Ys), W), dtype=np.uint64)
        for j in range(L):
            hit |= words[Ys[:, j]]
        avoiders = G.N - np.bitwise_count(hit).sum(axis=1, dtype=np.int64)
        hits = np.flatnonzero(avoiders >= K)
        if hits.size:
            r = hits[0]
            lefts = np.arange(G.N, dtype=np.int64)
            avoid = (hit[r][lefts >> 6] >> (lefts & 63).astype(np.uint64)) & np.uint64(1) == 0
            A = np.flatnonzero(avoid)[:K]
            return Verdict(False, witness=(tuple(A.tolist()), tuple(Ys[r].tolist())))
    return Verdict(True, note=f"checked all C({G.M},{L}) right sets")


def _least_failing_event(G: BipartiteGraph, K: int, eps):
    """Witness ``(B, A)`` of the least failing right-event bitmask in
    [1, 2^M), or None if all pass: the scan behind :func:`verify_extractor`.

    Events are tested in blocks of consecutive bitmasks, 32 rows at first
    and doubling to 128; a block never crosses a multiple of 128, so its
    bitmasks share every bit above the low seven.  The block's int64 counts
    ``C[r, x] = E(x, B_r)``, i.e. ``bits @ hist.T`` for its 0/1 event matrix
    ``bits``, are a slice of a table of ``hist`` column sums over all 128
    low-bit patterns plus the column sum over the shared high bits: integer
    adds only.  The exact test of :func:`verify_extractor` runs on every
    row at once, first with K times the row's largest count, an upper bound
    on its top-K sum; the rows that bound does not clear get their top-K
    sum from ``np.partition`` and the exact test itself.  When
    ``K*D*M*(|p|+q)`` reaches 2^63 the sides of that test could overflow
    int64, so the call compares Python ints instead.  The top-K lefts of a
    failing event are ordered by ``(-count, index)``.
    """
    eps = as_fraction(eps)
    p, q = eps.numerator, eps.denominator
    N, M, D = G.N, G.M, G.D
    H = G.hist
    low = min(M, _LOW_BITS)
    # row r of the tables: counts and size of the event with low bits r
    table = np.zeros((1 << low, N), dtype=np.int64)
    sizes = np.zeros(1 << low, dtype=np.int64)
    for z in range(low):
        table[1 << z : 2 << z] = table[: 1 << z] + H[:, z]
        sizes[1 << z : 2 << z] = sizes[: 1 << z] + 1
    exact = K * D * M * (abs(p) + q) >= 1 << 63
    start, size, hi = 1, _FIRST_BLOCK, 1 << M  # the empty event never fails
    while start < hi:
        base = start >> low << low
        stop = min(start + size, base + (1 << low), hi)
        high = [z for z in range(low, M) if base >> z & 1]
        C = table[start - base : stop - base] + H[:, high].sum(axis=1)
        sB = sizes[start - base : stop - base] + len(high)
        peak = C.max(axis=1, initial=0)
        if exact:
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
            if exact:
                top = top.astype(object)
            fail = np.asarray(top * (M * q) >= rhs[rows], dtype=bool)
            if fail.any():
                r = int(rows[fail.argmax()])
                bmask = start + r
                order = np.argsort(-C[r], kind="stable")[:K]
                return tuple(z for z in range(M) if bmask >> z & 1), tuple(order.tolist())
        start, size = stop, min(2 * size, 1 << low)
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

    The events are scanned by :func:`_least_failing_event` in blocks of at
    most 128 consecutive bitmasks, so a block's counts take 128*N int64s;
    the first failing row of the first failing block is the witness.
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

    Sets are taken in lexicographic batches of ``max(64, 4096 // M)``.  A
    batch sums its sets' K rows of ``hist`` in place into one int64 array
    and compares the integer numerators ``sum_z |M*E_z - K*D|``, which
    share the denominator ``2*M*K*D``; only the winner becomes a Fraction.
    """
    _check_flat_size(G, K)
    if math.comb(G.N, K) > max_subsets:
        raise BudgetExceededError(
            f"C({G.N},{K}) = {math.comb(G.N, K)} subsets exceed budget {max_subsets}",
            requested=math.comb(G.N, K),
            budget=max_subsets,
        )
    H = G.hist
    M, KD = G.M, K * G.D
    best: tuple[int, ...] = ()
    best_num = -1
    for As in _combination_chunks(G.N, K, max(_MIN_BATCH, _BATCH_CELLS // M)):
        E = np.zeros((len(As), M), dtype=np.int64)
        for j in range(K):
            E += H[As[:, j]]
        # sum_z |E/KD - 1/M| / 2, cleared to integers: sum_z |M*E_z - KD| / (2*M*KD)
        E *= M
        E -= KD
        num = np.abs(E, out=E).sum(axis=1)
        r = int(num.argmax())
        if num[r] > best_num:
            best, best_num = tuple(As[r].tolist()), int(num[r])
    return best, Fraction(best_num, 2 * M * KD)


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
    lines = list(islice(iter(fp.readline, header[:0]), max(0, min(N, sys.maxsize))))
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
