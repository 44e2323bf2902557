"""Independent oracles used to cross-check the library's verifiers.

Everything here recomputes from first principles with plain Python
containers and Fractions — deliberately no reuse of the library's
histogram/verifier internals, so a bug on either side shows up as a
disagreement rather than agreeing with itself.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from extrakit import BipartiteGraph, sample_graph


def adjacency_lists(G: BipartiteGraph) -> list[list[int]]:
    return [[int(z) for z in G.adjacency[x]] for x in range(G.N)]


def flat_output_probs(rows: list[list[int]], A, M: int) -> list[Fraction]:
    """Output distribution of the flat source on A: counts over KD edges."""
    counts = [0] * M
    for x in A:
        for z in rows[x]:
            counts[z] += 1
    total = len(A) * len(rows[A[0]]) if A else 1
    return [Fraction(c, total) for c in counts]


def naive_flat_distance(rows, A, M: int) -> Fraction:
    probs = flat_output_probs(rows, A, M)
    u = Fraction(1, M)
    return sum((p - u for p in probs if p > u), Fraction(0))


def naive_extractor_ok(G: BipartiteGraph, K: int, eps: Fraction) -> bool:
    """Max distance over every flat size-K source, compared strictly."""
    rows = adjacency_lists(G)
    worst = Fraction(0)
    for A in combinations(range(G.N), K):
        worst = max(worst, naive_flat_distance(rows, A, G.M))
    return worst < eps


def naive_disperser_ok(G: BipartiteGraph, K: int, eps: Fraction) -> bool:
    """Every K left vertices must together reach all but < ceil(eps*M) rights."""
    num, den = (eps * G.M).numerator, (eps * G.M).denominator
    L = -(-num // den)  # ceil without floats
    if L > G.M:
        return True
    rows = adjacency_lists(G)
    for A in combinations(range(G.N), K):
        reached = set()
        for x in A:
            reached.update(rows[x])
        if G.M - len(reached) >= L:
            return False
    return True


def scan_range_oracle(G: BipartiteGraph, K: int, eps: Fraction, lo: int, hi: int):
    """One right event at a time: the least failing bitmask in [lo, hi) as
    ``(bmask, B, top-K lefts ordered by (-count, index))``, or None."""
    rows = adjacency_lists(G)
    p, q = eps.numerator, eps.denominator
    for bmask in range(max(lo, 1), hi):
        cols = [z for z in range(G.M) if bmask >> z & 1]
        c = [sum(1 for z in row if bmask >> z & 1) for row in rows]
        order = sorted(range(G.N), key=lambda x: (-c[x], x))
        top = sum(c[x] for x in order[:K])
        if top * G.M * q >= K * G.D * (len(cols) * q + p * G.M):
            return bmask, tuple(cols), tuple(order[:K])
    return None


def worst_flat_oracle(G: BipartiteGraph, K: int) -> tuple[tuple[int, ...], Fraction]:
    """One Fraction per flat size-K source; the first maximum in
    lexicographic order wins."""
    rows = adjacency_lists(G)
    best, best_val = (), Fraction(-1)
    for A in combinations(range(G.N), K):
        val = naive_flat_distance(rows, A, G.M)
        if val > best_val:
            best, best_val = A, val
    return best, best_val


def disperser_witness_oracle(G: BipartiteGraph, K: int, eps: Fraction):
    """First right set Y (lexicographic) of size ceil(eps*M) avoided by K
    lefts, as ``(K smallest-index avoiders, Y)``; None if there is none."""
    num, den = (eps * G.M).numerator, (eps * G.M).denominator
    L = -(-num // den)
    rows = adjacency_lists(G)
    for Y in combinations(range(G.M), L):
        avoiding = [x for x in range(G.N) if not set(Y).intersection(rows[x])]
        if len(avoiding) >= K:
            return tuple(avoiding[:K]), Y
    return None


def random_graph(rng: np.random.Generator, N: int, M: int, D: int) -> BipartiteGraph:
    return BipartiteGraph(N, M, D, rng.integers(0, M, size=(N, D)))


def find_passing_graph(N, M, K, eps, D, seeds, verifier):
    """First sampled graph (over seed children) passing ``verifier``."""
    from numpy.random import SeedSequence

    for child in SeedSequence(seeds).spawn(200):
        G = sample_graph(N, M, D, child)
        if verifier(G):
            return G
    raise AssertionError(f"no passing graph found at N={N} M={M} D={D}")
