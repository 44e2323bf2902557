"""Independent reference checks: integer and numpy re-derivations of the
results extrakit returns, written from the definitions, not from its code.

Every function takes plain arrays and ints (an adjacency matrix, a
vertex list, bit values) and returns a bool or a plain value, so that a
check never relies on the object under test to judge itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def histogram(adj: np.ndarray, M: int) -> np.ndarray:
    """(N, M) edge counts of an (N, D) adjacency matrix."""
    N = adj.shape[0]
    h = np.zeros((N, M), dtype=np.int64)
    np.add.at(h, (np.repeat(np.arange(N), adj.shape[1]), adj.ravel()), 1)
    return h


def sampled_graph(N: int, M: int, D: int, seed) -> np.ndarray:
    """The documented sampling rule: D i.i.d. uniform endpoints per left vertex."""
    return np.random.default_rng(seed).integers(0, M, size=(N, D), dtype=np.int64)


def extractor_witness_holds(adj, M, K, eps, B, A) -> bool:
    """A failing witness (B, A) must satisfy E(A,B)*M*q >= K*D*(|B|*q + p*M)."""
    D = adj.shape[1]
    p, q = eps.numerator, eps.denominator
    A, B = [int(a) for a in A], [int(b) for b in B]
    if len(set(A)) != K or len(A) != K or not B or len(set(B)) != len(B):
        return False
    if min(B) < 0 or max(B) >= M or min(A) < 0 or max(A) >= adj.shape[0]:
        return False
    E = int(np.isin(adj[A], B).sum())
    return E * M * q >= K * D * (len(B) * q + p * M)


def extractor_spot_check(adj, M, K, eps, rng, events: int = 64) -> bool:
    """No sampled right event B breaks the extractor bound for the top-K lefts.

    A necessary condition for a pass verdict, checked on random events.
    """
    N, D = adj.shape
    p, q = eps.numerator, eps.denominator
    h = histogram(adj, M)
    masks = rng.integers(0, 2, size=(M, events), dtype=np.int64)
    masks[:, masks.sum(axis=0) == 0] = 1
    c = h @ masks
    top = np.sort(c, axis=0)[N - K:].sum(axis=0)
    sizes = masks.sum(axis=0)
    return bool(np.all(top * M * q < K * D * (sizes * q + p * M)))


def flat_distance(adj, M, A) -> Fraction:
    """Distance from uniform of the output of the flat source on A."""
    D = adj.shape[1]
    K = len(A)
    counts = np.bincount(adj[list(A)].ravel(), minlength=M)
    return Fraction(int(np.abs(counts * M - K * D).sum()), 2 * M * K * D)


def worst_flat_plausible(adj, M, K, A, value, rng, samples: int = 64) -> bool:
    """The returned set has the returned distance and no sampled set beats it."""
    if len(set(A)) != K or flat_distance(adj, M, A) != value:
        return False
    N = adj.shape[0]
    return all(
        flat_distance(adj, M, rng.choice(N, size=K, replace=False)) <= value
        for _ in range(samples)
    )


def disperser_witness_holds(adj, M, K, eps, A, Y) -> bool:
    """A failing witness (A, Y): K lefts, |Y| = ceil(eps*M), no edge into Y."""
    L = math.ceil(eps * M)
    A, Y = [int(a) for a in A], [int(y) for y in Y]
    if len(set(A)) != K or len(A) != K or len(set(Y)) != L or len(Y) != L:
        return False
    return not np.isin(adj[A], Y).any()


def disperser_spot_check(adj, M, K, eps, rng, samples: int = 64) -> bool:
    """No sampled L-set is avoided by K or more left vertices."""
    L = math.ceil(eps * M)
    if L > M:
        return True
    for _ in range(samples):
        Y = rng.choice(M, size=L, replace=False)
        if int((~np.isin(adj, Y).any(axis=1)).sum()) >= K:
            return False
    return True


# ---------------------------------------------------------------------------
# conditional coding


def bad_sets(adj, M, S, K, rule):
    """(bad rights, bad lefts in S's order) at threshold 2DK/M."""
    D = adj.shape[1]
    S = list(S)
    loads = np.bincount(adj[S].ravel(), minlength=M) if S else np.zeros(M, np.int64)
    bad_right = loads * M > 2 * D * K
    hits = bad_right[adj[S]].sum(axis=1) if S else np.zeros(0, np.int64)
    if rule == "all":
        left = hits == D
    else:
        left = 2 * hits >= D
    return set(np.nonzero(bad_right)[0].tolist()), [a for a, b in zip(S, left) if b]


def encoding(adj, M, S, A, K, rule):
    """(X, j): A's least neighbour that is not a bad right, and its first
    edge index; None when A is a bad left."""
    bad_right, bad_left = bad_sets(adj, M, S, K, rule)
    if A in bad_left:
        return None
    row = [int(z) for z in adj[A]]
    X = min(z for z in row if z not in bad_right)
    return X, row.index(X)


def adjacent_members(adj, S, X) -> list[int]:
    """Members of S with an edge to X, in S's enumeration order."""
    S = list(S)
    return [a for a, hit in zip(S, (adj[S] == X).any(axis=1)) if hit]


def chain_valid(adj, Ms, S, assignment, level_sizes) -> bool:
    """Replays the escalation chain: level i codes the all-rule good
    survivors by their least good neighbour in the graph with adj >> i."""
    cur = list(S)
    sizes = [len(cur)]
    expect = {}
    for i, Mi in enumerate(Ms):
        if not cur:
            break
        ai = adj >> i
        bad_right, bad_left = bad_sets(ai, Mi, cur, max(Mi, len(cur)), "all")
        for a in cur:
            if a not in bad_left:
                expect[a] = (i, min(int(z) for z in ai[a] if int(z) not in bad_right))
        cur = bad_left
        sizes.append(len(cur))
    return not cur and expect == dict(assignment) and tuple(sizes) == tuple(level_sizes)


# ---------------------------------------------------------------------------
# hashing, designs, codes, distributions


def _bit(value: int, width: int, i: int) -> int:
    """Bit i of a width-bit value, most significant first."""
    return (value >> (width - 1 - i)) & 1


def toeplitz_hash(n: int, l: int, h: int, x: int) -> int:
    """T x over GF(2), T[i][j] = description bit n-1+i-j (MSB-first)."""
    d = n + l - 1
    out = 0
    for i in range(l):
        acc = 0
        for j in range(n):
            acc ^= _bit(h, d, n - 1 + i - j) & _bit(x, n, j)
        out = (out << 1) | acc
    return out


def hash_extractor(n: int, l: int, x: int, h: int) -> int:
    """Leftover-hash extractor output h || T_h x as an integer of d+l bits."""
    return (h << l) | toeplitz_hash(n, l, h, x)


def weak_design_ok(sets, rho=1) -> bool:
    """sum_{i<j} 2^|S_i n S_j| <= rho*(m-1) for every j."""
    m = len(sets)
    sets = [set(s) for s in sets]
    return all(
        sum(1 << len(sets[i] & sets[j]) for i in range(j)) <= rho * (m - 1)
        for j in range(m)
    )


def nw_bits(truth_table: int, table_len: int, sets, d: int, y: int) -> int:
    """Nisan-Wigderson output: bit i is the truth table at y restricted to set i."""
    out = 0
    for s in sets:
        v = 0
        for pos in sorted(s):
            v = (v << 1) | _bit(y, d, pos)
        out = (out << 1) | _bit(truth_table, table_len, v)
    return out


def flip_bits(value: int, width: int, count: int, rng) -> int:
    for pos in rng.choice(width, size=count, replace=False):
        value ^= 1 << int(pos)
    return value


def mixture_reproduces(probs, components, K: int) -> bool:
    """Weights sum to 1, each part is flat on K strings, and the mixture is X."""
    acc = [Fraction(0)] * len(probs)
    total = Fraction(0)
    for w, flat in components:
        if len(flat.support) != K or w <= 0:
            return False
        total += w
        for s in flat.support:
            acc[s] += w / K
    return total == 1 and acc == [Fraction(p) for p in probs]


def parse_bits(text: str) -> tuple[int, int]:
    """(length, value) of the ``<length>:<hex>`` form, hex MSB-aligned."""
    head, _, hexpart = text.strip().partition(":")
    length = int(head)
    pad = 4 * len(hexpart) - length
    return length, (int(hexpart, 16) if hexpart else 0) >> pad


def bits_text(length: int, value: int) -> str:
    ndigits = (length + 3) // 4
    return f"{length}:{value << (4 * ndigits - length):0{ndigits}x}"


def hadamard_blocks_valid(codeword: int, t: int) -> bool:
    """Every 2^t-bit block is the Hadamard codeword z -> parity(v & z) of some v."""
    width = 1 << t
    for p in range(width):
        block = (codeword >> ((width - 1 - p) * width)) & ((1 << width) - 1)
        v = 0
        for j in range(t):
            v |= _bit(block, width, 1 << j) << j
        if any(_bit(block, width, z) != (v & z).bit_count() & 1 for z in range(width)):
            return False
    return True


def extractor_holds_exhaustive(adj, M, K, eps) -> bool:
    """The extractor property over all 2^M - 1 right events (small M only)."""
    N, D = adj.shape
    p, q = eps.numerator, eps.denominator
    events = np.arange(1, 1 << M, dtype=np.int64)
    masks = (events[np.newaxis, :] >> np.arange(M)[:, np.newaxis]) & 1
    top = np.sort(histogram(adj, M) @ masks, axis=0)[N - K:].sum(axis=0)
    return bool(np.all(top * M * q < K * D * (masks.sum(axis=0) * q + p * M)))
