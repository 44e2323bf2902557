"""Independent oracles used to cross-check the library's verifiers.

Everything here recomputes from first principles with plain Python
containers and Fractions — deliberately no reuse of the library's
histogram/verifier internals, so a bug on either side shows up as a
disagreement rather than agreeing with itself.
"""

import functools
import io
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from extrakit import BipartiteGraph, BitString, Dist, EnumerableSet, compute_bad, sample_graph
from extrakit.errors import (
    BudgetExceededError,
    DimensionError,
    EntropyDeficitError,
    FeasibilityError,
    FormatError,
    InvalidDistributionError,
)


def adjacency_lists(G: BipartiteGraph) -> list[list[int]]:
    return [[int(z) for z in G.adjacency[x]] for x in range(G.N)]


#: Right-part sizes on each side of the adjacency storage's dtype changes.
STORAGE_BOUNDARY_SIZES = (1, 255, 256, 257, 65535, 65536, 65537, 1 << 32, (1 << 32) + 1)


def adjacency_dtype_oracle(M: int) -> np.dtype:
    """The narrowest of uint8, uint16 and uint32 whose range holds M - 1,
    else int64: the storage rule of ``BipartiteGraph.adjacency``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if M - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


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


def source_dist(n: int, support, weights, exact: bool):
    """The source putting ``weights`` on ``support`` (a repeated value
    gathers its weights), as an exact or a float Dist."""
    mass = [0] * (1 << n)
    for s, w in zip(support, weights):
        mass[s] += w
    total = sum(mass)
    if exact:
        return Dist(n, [Fraction(w, total) for w in mass])
    ws = np.array(mass, dtype=np.float64)
    return Dist(n, ws / ws.sum())


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


# ---------------------------------------------------------------------------
# construction oracles: the loop bodies of ``ecc.Code``, ``ecc.encode``,
# ``ecc.brute_list_decode``, ``design.greedy_weak_design``,
# ``design.verify_design`` and ``trevisan.trevisan_graph`` from before
# codes and designs were built with numpy kernels, and the Fraction loop
# that ``trevisan.trevisan_build`` took its log2(m/eps) term from.


@functools.lru_cache(maxsize=None)
def hadamard_rows_oracle(t: int) -> tuple:
    """Inner rows built one bit at a time: row v packs parity(v & z) for
    z ascending, the first z in the most significant bit."""
    width = 1 << t
    rows = []
    for v in range(width):
        block = 0
        for z in range(width):
            block = (block << 1) | ((v & z).bit_count() & 1)
        rows.append(block)
    return tuple(rows)


def encode_value_oracle(code, xv: int) -> int:
    """Codeword of message value xv: Horner per field point, then the inner
    rows shift-or'ed onto one growing integer."""
    x = BitString(code.n, xv)
    syms = [x.slice(j * code.t, min(j * code.t + code.t, code.n)).value
            for j in range(code.symbols)]
    inner = hadamard_rows_oracle(code.t)
    width = code.field.order
    cw = 0
    for p in range(width):
        cw = (cw << width) | inner[code.field.poly_eval(syms, p)]
    return cw


def brute_list_decode_oracle(code, center: BitString, radius=None,
                             max_message_bits: int = 14) -> list:
    """Every message whose codeword is within relative ``radius`` of center,
    one message at a time."""
    if center.length != code.nbar:
        raise DimensionError(
            f"center has {center.length} bits, codewords have {code.nbar}"
        )
    if code.n > max_message_bits:
        raise BudgetExceededError(
            f"2^{code.n} messages exceed the enumeration budget 2^{max_message_bits}"
        )
    radius = Fraction(1, 2) - code.delta if radius is None else Fraction(radius)
    out = []
    for xv in range(1 << code.n):
        distance = (encode_value_oracle(code, xv) ^ center.value).bit_count()
        if distance * radius.denominator <= radius.numerator * code.nbar:
            out.append(BitString(code.n, xv))
    return out


def _overlap_oracle(a, b) -> int:
    return len(set(a) & set(b))


def running_sums_oracle(sets) -> list:
    """sums[k] = sum over i < k of 2^|S_i n S_k|, pair by pair."""
    return [sum(1 << _overlap_oracle(sets[i], s) for i in range(k))
            for k, s in enumerate(sets)]


def verify_design_oracle(family, kind: str, rho) -> tuple:
    """``(ok, witness, note)`` of the overlap check, pair by pair."""
    rho = Fraction(rho)
    sets, m = family.sets, family.m
    if kind == "design":
        for j in range(1, m):
            for i in range(j):
                if (1 << _overlap_oracle(sets[i], sets[j])) > rho:
                    return False, (i + 1, j + 1), ""
        return True, None, f"all {m * (m - 1) // 2} pairs within 2^|overlap| <= {rho}"
    for j in range(1, m):
        total = sum(1 << _overlap_oracle(sets[i], sets[j]) for i in range(j))
        budget = rho * (m - 1) if kind == "weak" else rho * j
        if total > budget:
            return False, j + 1, f"sum {total} > {budget}"
    return True, None, f"all {m} running sums within budget"


def build_block_oracle(count: int, l: int, universe: list) -> list:
    """Greedy block: each pick minimises the sum over earlier same-block
    sets of 2^|overlap with the partial set|, recomputed per candidate;
    ties go to the smallest element."""
    sets = []
    containing = {e: [] for e in universe}
    for _ in range(count):
        chosen = []
        inter = [0] * len(sets)
        for _pick in range(l):
            best_e, best_cost = None, None
            for e in universe:
                if e in chosen:
                    continue
                cost = sum(1 << inter[i] for i in containing[e])
                if best_cost is None or cost < best_cost:
                    best_e, best_cost = e, cost
            chosen.append(best_e)
            for i in containing[best_e]:
                inter[i] += 1
        new = tuple(sorted(chosen))
        for e in new:
            containing[e].append(len(sets))
        sets.append(new)
    return sets


def greedy_weak_design_oracle(l: int, m: int, rho=1):
    """The greedy weak design built from :func:`build_block_oracle`, as
    ``(d, sets)``."""
    rho = Fraction(rho)
    budget = rho * (m - 1)
    sizes, rest = [], m
    while rest > 0:
        take = (rest + 1) // 2 if rest > 1 else 1
        sizes.append(take)
        rest -= take
    all_sets, next_elem = [], 0
    for bsize in sizes:
        placed = len(all_sets)
        u = max(l, min(l * bsize, (3 * l * l + 1) // 2))
        while True:
            block = build_block_oracle(bsize, l, list(range(next_elem, next_elem + u)))
            if all(placed + total <= budget for total in running_sums_oracle(block)):
                break
            assert u < l * bsize, "greedy block failed on a disjoint universe"
            u = min(2 * u, l * bsize)
        all_sets.extend(block)
        next_elem += u
    used = sorted({e for s in all_sets for e in s})
    remap = {e: i for i, e in enumerate(used)}
    return len(used), tuple(tuple(remap[e] for e in s) for s in all_sets)


def trevisan_graph_oracle(p, strong: bool = False) -> np.ndarray:
    """Adjacency of the Trevisan graph, one source word at a time: bit i of
    the output is the codeword bit at the seed restricted to set i."""
    nbar = p.code.nbar
    D = 1 << p.d
    adj = np.zeros((1 << p.n, D), dtype=np.int64)
    for xv in range(1 << p.n):
        cw = encode_value_oracle(p.code, xv)
        for yv in range(D):
            out = 0
            for s in p.design.sets:
                v = 0
                for pos in s:
                    v = (v << 1) | ((yv >> (p.d - 1 - pos)) & 1)
                out = (out << 1) | ((cw >> (nbar - 1 - v)) & 1)
            adj[xv, yv] = (yv << p.m) | out if strong else out
    return adj


def _pow2(c: int) -> Fraction:
    return Fraction(1 << c) if c >= 0 else Fraction(1, 1 << -c)


def ceil_log2_oracle(v: Fraction) -> int:
    """Exact log2 for powers of two, ceiling otherwise (v > 0), by stepping
    a power of two up and down as Fractions."""
    p, q = v.numerator, v.denominator
    if p & (p - 1) == 0 and q & (q - 1) == 0:
        return p.bit_length() - q.bit_length()
    c = p.bit_length() - q.bit_length()
    while _pow2(c) < v:
        c += 1
    while _pow2(c - 1) >= v:
        c -= 1
    return c


# ---------------------------------------------------------------------------
# graph-file and coding oracles: the per-line bodies of ``graph.read_graph``
# and ``graph.write_graph`` and the per-vertex body of
# ``muchnik.iterative_chain`` from before they were vectorized.


def write_graph_oracle(G: BipartiteGraph, fp) -> None:
    fp.write(f"{G.N} {G.M} {G.D}\n")
    for x in range(G.N):
        fp.write(" ".join(str(int(z)) for z in G.adjacency[x]) + "\n")


def strip_comments_oracle(path: str):
    """``cli._strip_comments`` line by line: the file's lines as a text
    file splits them (at ``\\n``, ``\\r\\n`` and ``\\r``), minus the blank
    ones and those whose first non-blank character is ``#``, with their
    line numbers; the first line holding a byte past ASCII is an error."""
    with open(path, encoding="latin-1") as fp:
        raw = fp.readlines()
    kept, numbers = [], []
    for lineno, line in enumerate(raw, start=1):
        wide = [c for c in line if ord(c) > 127]
        if wide:
            raise FormatError(f"{path}: non-ASCII byte 0x{ord(wide[0]):02x}", line=lineno)
        if line.strip() and not line.strip().startswith("#"):
            kept.append(line)
            numbers.append(lineno)
    return io.StringIO("".join(kept)), numbers


def read_graph_oracle(fp) -> BipartiteGraph:
    header = fp.readline()
    parts = header.split()
    if len(parts) != 3:
        raise FormatError(f"expected 'N M D' header, got {header!r}", line=1)
    try:
        N, M, D = (int(t) for t in parts)
    except ValueError:
        raise FormatError(f"non-integer in header {header!r}", line=1) from None
    rows = []
    for lineno in range(2, N + 2):
        line = fp.readline()
        if not line:
            raise FormatError("unexpected end of graph file", line=lineno)
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
    return BipartiteGraph(N, M, D, rows)


def iterative_chain_oracle(graphs, S0, Ks=None):
    """``(assignment, level_sizes)`` of the chain, one vertex at a time:
    each good vertex of a level takes its least neighbour outside the
    level's bad right set."""
    Ks = [G.M for G in graphs] if Ks is None else list(Ks)
    if len(Ks) != len(graphs):
        raise DimensionError(f"{len(graphs)} graphs but {len(Ks)} K values")
    assignment = {}
    cur = S0
    sizes = [len(cur)]
    for i, (G, K) in enumerate(zip(graphs, Ks)):
        if len(cur) == 0:
            break
        bad = compute_bad(G, cur, max(K, len(cur)), "all")
        bad_set = set(bad.bad_left)
        for a in cur.order:
            if a not in bad_set:
                assignment[a] = (i, min(z for z in G.adjacency[a].tolist()
                                        if z not in bad.bad_right))
        cur = EnumerableSet(bad.bad_left)
        sizes.append(len(cur))
    if len(cur) > 0:
        raise FeasibilityError(
            f"{len(cur)} vertices still uncoded after {len(graphs)} levels"
        )
    return assignment, tuple(sizes)


def toeplitz_column_oracle(family, xv: int) -> np.ndarray:
    """Values of every member on input ``xv``, as a (2^d,) uint16 array:
    row i of member h is the n-bit window of h ending l-1-i bits from
    the bottom, dotted over GF(2) with the bit-reversed input."""
    n, l = family.n, family.l
    if not 0 <= xv < (1 << n):
        raise DimensionError(f"value {xv} does not fit in {n} bits")
    xrev = 0
    for j in range(n):
        xrev |= ((xv >> j) & 1) << (n - 1 - j)
    R = np.arange(1 << family.d, dtype=np.uint64)
    col = np.zeros(1 << family.d, dtype=np.uint16)
    for i in range(l):
        window = (R >> np.uint64(l - 1 - i)) & np.uint64((1 << n) - 1)
        col = (col << 1) | (np.bitwise_count(window & np.uint64(xrev)) & 1).astype(np.uint16)
    return col


def hash_table_oracle(family) -> np.ndarray:
    """(2^d, 2^n) uint16 table, one oracle column per input."""
    return np.stack(
        [toeplitz_column_oracle(family, xv) for xv in range(1 << family.n)], axis=1
    ).astype(np.uint16)


def collision_prob_oracle(family, x1: int, x2: int) -> Fraction:
    hits = int((toeplitz_column_oracle(family, x1) == toeplitz_column_oracle(family, x2)).sum())
    return Fraction(hits, 1 << family.d)


def flat_output_distance_oracle(family, support) -> Fraction:
    """Distance from uniform of (h, h(x)) with x uniform on the distinct
    support values: (member, value) counts summed as Fractions."""
    sup = sorted(set(int(s) for s in support))
    counts = {}
    for s in sup:
        for h, v in enumerate(toeplitz_column_oracle(family, s).tolist()):
            counts[h, v] = counts.get((h, v), 0) + 1
    total = len(sup) << family.d
    u = Fraction(1, 1 << (family.d + family.l))
    # cells missing from counts are each u below uniform; the distance is
    # the sum of the positive gaps, which equals the sum of the negative ones
    return sum((Fraction(c, total) - u for c in counts.values() if Fraction(c, total) > u),
               Fraction(0))


def seeded_table_oracle(F, n: int, d: int, m: int, xs) -> np.ndarray:
    """Rows F(x, y) for x in ``xs``, seeds in order: one call per pair,
    each output's length checked against m."""
    out = np.empty((len(xs), 1 << d), dtype=np.int64)
    for i, x in enumerate(xs):
        xw = BitString(n, x)
        for y in range(1 << d):
            z = F(xw, BitString(d, y))
            if z.length != m:
                raise DimensionError(f"map produced {z.length} bits, expected {m}")
            out[i, y] = z.value
    return out
