"""Independent oracles used to cross-check the library's verifiers.

Everything here recomputes from first principles with plain Python
containers and Fractions — deliberately no reuse of the library's
histogram/verifier internals, so a bug on either side shows up as a
disagreement rather than agreeing with itself.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from extrakit import BipartiteGraph, BitString, sample_graph
from extrakit.errors import (
    DimensionError,
    EntropyDeficitError,
    InvalidDistributionError,
)


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


# ---------------------------------------------------------------------------
# distribution oracles: the Fraction-list and float-array bodies that
# ``dist``, ``compose`` and ``hashext`` used before ``Dist`` stored integer
# weights.  They read only ``.length``, ``.exact`` and ``.probs``.


def _oracle_float_probs(X) -> np.ndarray:
    return np.array([float(p) for p in X.probs]) if X.exact else np.asarray(X.probs)


def _oracle_exact_probs(X) -> list:
    if X.exact:
        return list(X.probs)
    probs = [Fraction(float(p)) for p in X.probs]
    total = sum(probs)
    return [p / total for p in probs]


def min_entropy_oracle(X) -> float:
    probs = X.probs
    support = [i for i in range(len(probs)) if probs[i] > 0]
    if X.exact:
        best = max(probs[i] for i in support)
        return math.log2(best.denominator) - math.log2(best.numerator)
    return float(-np.log2(np.max(np.asarray(probs)[support])))


def stat_dist_oracle(X, Y):
    if X.exact and Y.exact:
        return sum(abs(p - q) for p, q in zip(X.probs, Y.probs)) / 2
    xp, yp = _oracle_float_probs(X), _oracle_float_probs(Y)
    return float(np.abs(xp - yp).sum() / 2)


def flat_decompose_oracle(X, K: int) -> list:
    """``[(weight, sorted support), ...]`` by the Fraction-list procedure;
    raises the same :class:`EntropyDeficitError` messages."""
    if K < 1:
        raise EntropyDeficitError(f"component size K={K} must be at least 1")
    rem = _oracle_exact_probs(X)
    size = len(rem)
    if K > size:
        raise EntropyDeficitError(f"K={K} exceeds the 2^{X.length} strings available")
    worst = max(rem)
    if worst > Fraction(1, K):
        raise EntropyDeficitError(
            f"min-entropy {math.log2(worst.denominator) - math.log2(worst.numerator):.6f}"
            f" below log2 K = {math.log2(K):.6f}"
        )
    components = []
    total = Fraction(1)
    while total != 0:
        order = sorted(range(size), key=lambda i: (-rem[i], i))
        chosen = order[:K]
        v = min(rem[i] for i in chosen)
        if K < size:
            v = min(v, total / K - rem[order[K]])
        assert v > 0
        for i in chosen:
            rem[i] -= v
        total -= K * v
        components.append((K * v, sorted(chosen)))
    return components


def push_forward_oracle(F, X):
    """Output probabilities of ``F(X, U_d)``: Fractions for an exact X,
    else a float64 array accumulated entry by entry."""
    seeds = [BitString(F.d, y) for y in range(1 << F.d)]
    probs = X.probs
    support = [i for i in range(len(probs)) if probs[i] > 0]
    if X.exact:
        acc = [Fraction(0)] * (1 << F.m)
        seed_w = Fraction(1, 1 << F.d)
        for xi in support:
            px = probs[xi] * seed_w
            for y in seeds:
                acc[F(BitString(F.n, xi), y).value] += px
        return acc
    acc = np.zeros(1 << F.m)
    seed_w = 1.0 / (1 << F.d)
    arr = np.asarray(probs)
    for xi in support:
        px = float(arr[xi]) * seed_w
        for y in seeds:
            acc[F(BitString(F.n, xi), y).value] += px
    return acc


def marginal1_oracle(joint, n1: int, n2: int):
    if joint.exact:
        return [
            sum(joint.probs[(x1 << n2) | x2] for x2 in range(1 << n2))
            for x1 in range(1 << n1)
        ]
    return np.asarray(joint.probs).reshape(1 << n1, 1 << n2).sum(axis=1)


def conditional2_oracle(joint, n1: int, n2: int, x1: int):
    """Second-block probabilities given x1; None when x1 has no mass."""
    if joint.exact:
        row = [joint.probs[(x1 << n2) | x2] for x2 in range(1 << n2)]
        total = sum(row)
        return None if total == 0 else [p / total for p in row]
    row = np.asarray(joint.probs).reshape(1 << n1, 1 << n2)[x1]
    total = float(row.sum())
    return None if total == 0 else row / total


def meets_min_entropy_oracle(X, k) -> bool:
    if X.exact and isinstance(k, int):
        bound = Fraction(1, 1 << k) if k >= 0 else Fraction(1 << -k)
        return max(X.probs) <= bound
    return min_entropy_oracle(X) >= float(k) - 1e-12


def collision_measure_oracle(X):
    if X.exact:
        return sum(p * p for p in X.probs)
    arr = np.asarray(X.probs)
    return float(np.dot(arr, arr))


# ---------------------------------------------------------------------------
# somewhere-random oracles: the Fraction-row bodies of
# ``SomewhereRandomSource``, ``check_somewhere_random`` and
# ``merger_output_dist`` from before the source stored integer weights.
# They take the rows (``rows[y][z]``: mass of selector y and contents z)
# and the source's b, k, eps, eta as plain values.


def srs_rows_oracle(b: int, k: int, probs) -> tuple:
    """The rows as Fractions, raising the constructor's errors."""
    size = 1 << (b * k)
    rows = tuple(tuple(Fraction(p) for p in row) for row in probs)
    if len(rows) != b + 1 or any(len(r) != size for r in rows):
        raise DimensionError(f"need {b + 1} selector rows of {size} entries each")
    if any(p < 0 for r in rows for p in r):
        raise InvalidDistributionError("negative mass in somewhere-random source")
    if sum(p for r in rows for p in r) != 1:
        raise InvalidDistributionError("somewhere-random masses must sum to 1")
    return rows


def selector_mass_oracle(rows, y: int) -> Fraction:
    return sum(rows[y])


def block_given_selector_oracle(rows, b: int, k: int, i: int) -> list:
    """Probabilities of block Z_i (1-based) given Y = i."""
    mass = selector_mass_oracle(rows, i)
    if mass == 0:
        raise InvalidDistributionError(f"selector never takes value {i}")
    acc = [Fraction(0)] * (1 << k)
    shift = (b - i) * k
    maskk = (1 << k) - 1
    for z, p in enumerate(rows[i]):
        if p:
            acc[(z >> shift) & maskk] += p / mass
    return acc


def contents_oracle(rows) -> list:
    """Probabilities of the block contents with the selector dropped."""
    acc = [Fraction(0)] * len(rows[0])
    for row in rows:
        for z, p in enumerate(row):
            if p:
                acc[z] += p
    return acc


def check_somewhere_random_oracle(rows, b: int, k: int, eps, eta) -> tuple:
    """``(ok, witness, note)`` of the selector check."""
    if selector_mass_oracle(rows, 0) > eta:
        return False, 0, "no-good-block mass exceeds eta"
    u = Fraction(1, 1 << k)
    for i in range(1, b + 1):
        if selector_mass_oracle(rows, i) == 0:
            continue
        block = block_given_selector_oracle(rows, b, k, i)
        if sum(abs(p - u) for p in block) / 2 > eps:
            return False, i, f"block {i} too far from uniform"
    return True, None, ""


def merger_output_oracle(M, rows, b: int, k: int) -> list:
    """Output probabilities of merger M on the source with a uniform seed."""
    if M.arity != b or M.k != k:
        raise DimensionError(f"merger {M!r} does not fit {b} blocks of {k} bits")
    acc = [Fraction(0)] * (1 << M.m)
    seed_w = Fraction(1, 1 << M.d)
    maskk = (1 << k) - 1
    for row in rows:
        for z, p in enumerate(row):
            if p == 0:
                continue
            blocks = [BitString(k, (z >> ((b - 1 - i) * k)) & maskk) for i in range(b)]
            w = p * seed_w
            for yv in range(1 << M.d):
                acc[M(blocks, BitString(M.d, yv)).value] += w
    return acc


def hist_oracle(G: BipartiteGraph) -> np.ndarray:
    """``hist`` one row at a time: edge counts from x to each right vertex."""
    h = np.zeros((G.N, G.M), dtype=np.int64)
    for x in range(G.N):
        h[x] = np.bincount(G.adjacency[x], minlength=G.M)
    return h
