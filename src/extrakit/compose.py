"""Composing extractors: serial composition, mergers, and the DP evaluator.

Serial composition feeds one extractor's output to another's seed input
and eats a two-block source.  A merger takes several blocks of which at
least one is (nearly) uniform — a somewhere-random source — plus a short
seed, and outputs an almost-uniform string.  The n-fold composition of
a chain of extractors through mergers is evaluated with the dynamic
program over suffix cells, which reuses each row instead of recomputing
the exponential recursion tree.

Everything here is exact bit pushing; the statistical guarantees are
measured by the tests on dense toy sources, not assumed.  A
somewhere-random source stores its masses the way :class:`Dist` does,
as Python-int weights over one total, and a merger's output
distribution is the push-forward of the source's block contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bits import BitString
from .dist import (
    Dist, SeededFunction, _exact, _over_lcm, as_fraction, min_entropy, push_forward, stat_dist,
)
from .errors import DimensionError, InvalidDistributionError, Verdict

__all__ = [
    "compose_serial",
    "BlockSource",
    "check_block_source",
    "SomewhereRandomSource",
    "check_somewhere_random",
    "Merger",
    "two_block_merger",
    "recursive_merger",
    "merger_compose",
    "iterated_compose_dp",
    "merger_output_dist",
]


def compose_serial(F1: SeededFunction, F2: SeededFunction) -> SeededFunction:
    """Chain two seeded maps: F(x1 || x2, y) = F1(x1, F2(x2, y))."""
    if F2.m != F1.d:
        raise DimensionError(
            f"inner map outputs {F2.m} bits, outer seed needs {F1.d}"
        )
    n1, n2 = F1.n, F2.n

    def fn(x: BitString, y: BitString) -> BitString:
        return F1(x.prefix(n1), F2(x.suffix(n2), y))

    return SeededFunction(n1 + n2, F2.d, F1.m, fn, name="serial")


# ---------------------------------------------------------------------------
# structured sources


@dataclass(frozen=True)
class BlockSource:
    """Joint source (X1, X2) claiming k1 bits in X1 and k2 in X2 given X1."""

    n1: int
    n2: int
    joint: Dist
    k1: int
    k2: int

    def __post_init__(self):
        if self.joint.length != self.n1 + self.n2:
            raise DimensionError(
                f"joint over {self.joint.length} bits, blocks say {self.n1}+{self.n2}"
            )

    def marginal1(self) -> Dist:
        """Distribution of the first block."""
        rows = self.joint.weights.reshape(1 << self.n1, -1)
        return Dist._of(self.n1, rows.sum(axis=1), self.joint.total)

    def conditional2(self, x1: int) -> Dist:
        """Distribution of the second block given a first-block value."""
        row = self.joint.weights.reshape(1 << self.n1, -1)[x1]
        mass = row.sum()
        if mass == 0:
            raise InvalidDistributionError(f"first block never takes value {x1}")
        return Dist._of(self.n2, row, mass)


def check_block_source(s: BlockSource) -> Verdict:
    """Exact check of both entropy claims; witness names the first failure.

    Witness ``("marginal", None)`` means the first block falls short of
    k1; ``("conditional", x1)`` names the first conditioning value whose
    second block falls short of k2.
    """
    marg = s.marginal1()
    if not _meets_min_entropy(marg, s.k1):
        return Verdict(False, witness=("marginal", None))
    for x1 in marg.support():
        if not _meets_min_entropy(s.conditional2(x1), s.k2):
            return Verdict(False, witness=("conditional", x1))
    return Verdict(True, note=f"k1={s.k1}, k2={s.k2} verified")


def _meets_min_entropy(X: Dist, k) -> bool:
    """H_inf(X) >= k: in integers for exact X and int k, else within 1e-12 bits."""
    if X.exact and isinstance(k, int):
        return X.weights.max() << max(k, 0) <= X.total << max(-k, 0)
    return min_entropy(X) >= float(k) - 1e-12


class SomewhereRandomSource:
    """b blocks of k bits with an explicit selector Y in {0..b}.

    ``weights[y, z] / total`` is the joint mass of selector value y and
    block contents z (z packs Z_1..Z_b, first block most significant):
    ``weights`` is a (b+1, 2^(b*k)) object array of Python ints and
    ``total`` the lcm of the input denominators, so sums stay exact.
    ``probs[y][z]`` reads the same masses back as rows of Fractions.
    Y = i >= 1 claims block i is eps-close to uniform under that
    conditioning; Y = 0 ("no good block") carries at most eta mass.
    """

    __slots__ = ("b", "k", "weights", "total", "eps", "eta")

    def __init__(self, b: int, k: int, probs, eps=Fraction(0), eta=Fraction(0)):
        self.b, self.k = b, k
        self.eps, self.eta = as_fraction(eps), as_fraction(eta)
        size = 1 << (b * k)
        rows = [[_exact(p) for p in row] for row in probs]
        if len(rows) != b + 1 or any(len(r) != size for r in rows):
            raise DimensionError(f"need {b + 1} selector rows of {size} entries each")
        weights, self.total = _over_lcm([p for r in rows for p in r])
        if (weights < 0).any():
            raise InvalidDistributionError("negative mass in somewhere-random source")
        if weights.sum() != self.total:
            raise InvalidDistributionError("somewhere-random masses must sum to 1")
        self.weights = weights.reshape(b + 1, size)

    @property
    def probs(self) -> tuple:
        return tuple(tuple(Fraction(w, self.total) for w in row) for row in self.weights)

    def selector_mass(self, y: int) -> Fraction:
        return Fraction(self.weights[y].sum(), self.total)

    def contents_dist(self) -> Dist:
        """Marginal distribution of the block contents (selector dropped)."""
        return Dist._of(self.b * self.k, self.weights.sum(axis=0), self.total)


def check_somewhere_random(s: SomewhereRandomSource) -> Verdict:
    """Exact check of the selector guarantees; witness is the block index."""
    if s.selector_mass(0) > s.eta:
        return Verdict(False, witness=0, note="no-good-block mass exceeds eta")
    uniform = Dist.uniform(s.k)
    for i in range(1, s.b + 1):
        # axes: the blocks before Z_i, Z_i, the blocks after it
        row = s.weights[i].reshape(1 << (i - 1) * s.k, 1 << s.k, -1)
        mass = row.sum()
        if mass == 0:
            continue
        if stat_dist(Dist._of(s.k, row.sum(axis=(0, 2)), mass), uniform) > s.eps:
            return Verdict(False, witness=i, note=f"block {i} too far from uniform")
    return Verdict(True)


# ---------------------------------------------------------------------------
# mergers


@dataclass(frozen=True)
class Merger:
    """A map from `arity` blocks of k bits plus a d-bit seed to m bits."""

    arity: int
    k: int
    d: int
    m: int
    fn: Callable[[Sequence[BitString], BitString], BitString]
    name: str = ""

    def __call__(self, blocks: Sequence[BitString], y: BitString) -> BitString:
        blocks = list(blocks)
        if len(blocks) != self.arity:
            raise DimensionError(f"got {len(blocks)} blocks, merger takes {self.arity}")
        for i, z in enumerate(blocks):
            if z.length != self.k:
                raise DimensionError(
                    f"block {i} has {z.length} bits, merger blocks are {self.k}"
                )
        if y.length != self.d:
            raise DimensionError(f"seed has {y.length} bits, expected {self.d}")
        out = self.fn(blocks, y)
        if out.length != self.m:
            raise DimensionError(
                f"merger produced {out.length} bits, declared {self.m}"
            )
        return out

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"Merger(({self.k})^{self.arity} x ({self.d}) -> ({self.m}){tag})"


def two_block_merger(E: SeededFunction, k: Optional[int] = None) -> Merger:
    """View an extractor on 2k input bits as a merger of two k-bit blocks."""
    if k is None:
        if E.n % 2:
            raise DimensionError(f"extractor input {E.n} is odd; need n = 2k")
        k = E.n // 2
    if E.n != 2 * k:
        raise DimensionError(f"extractor input {E.n} != 2k for k={k}")
    return Merger(
        2, k, E.d, E.m, lambda blocks, y: E(blocks[0] + blocks[1], y),
        name="two-block",
    )


def recursive_merger(factory: Callable[[int], Merger], l: int, k: int) -> Merger:
    """Merge 2^l blocks by l rounds of pairwise merging.

    ``factory(k_i)`` must supply a 2-block merger for block length k_i;
    all levels must share one seed length d and one shrinkage
    mu = k_i - output length, so the result maps (k)^(2^l) with an
    l*d-bit seed to k - l*mu bits.  The seed is consumed back to front:
    the first merging round (2^l -> 2^(l-1) blocks) uses the last d-bit
    segment.  l = 0 returns the identity on one block.
    """
    if l < 0:
        raise DimensionError(f"negative level count {l}")
    if l == 0:
        return Merger(1, k, 0, k, lambda blocks, y: blocks[0], name="identity")
    base = factory(k)
    if base.arity != 2 or base.k != k:
        raise DimensionError(f"factory({k}) returned {base!r}, not a 2-block merger")
    mu = k - base.m
    d = base.d
    levels = [base]
    for i in range(1, l):
        ki = k - i * mu
        Mi = factory(ki)
        if Mi.arity != 2 or Mi.k != ki or Mi.d != d or Mi.m != ki - mu:
            raise DimensionError(
                f"factory({ki}) returned {Mi!r}; need blocks {ki}, seed {d},"
                f" output {ki - mu}"
            )
        levels.append(Mi)

    def fn(blocks: Sequence[BitString], y: BitString) -> BitString:
        cur = list(blocks)
        for round_idx in range(l):  # round 0 merges 2^l blocks using segment l
            seg = y.slice((l - 1 - round_idx) * d, (l - round_idx) * d)
            M = levels[round_idx]
            cur = [
                M([cur[2 * i], cur[2 * i + 1]], seg) for i in range(len(cur) // 2)
            ]
        return cur[0]

    return Merger(1 << l, k, l * d, k - l * mu, fn, name=f"recursive l={l}")


# ---------------------------------------------------------------------------
# composition of an extractor pair through a merger


def merger_compose(
    E1: SeededFunction,
    E2: SeededFunction,
    M: Merger,
    a: BitString,
    r1: BitString,
    r2: BitString,
) -> BitString:
    """Compose two extractors through a merger on one source word.

    For each position i (1-based): q_i = E1 on the suffix a[i..n],
    z_i = E2 on the prefix a[1..i-1] seeded with q_i; the merger combines
    z_1..z_n with seed r2.  Short substrings are zero-padded on the
    low-index side.
    """
    n = a.length
    if E1.n != n or E2.n != n:
        raise DimensionError(
            f"extractors take {E1.n}/{E2.n} bits, source has {n}"
        )
    if E2.d != E1.m:
        raise DimensionError(
            f"second extractor's seed is {E2.d} bits, first outputs {E1.m}"
        )
    if M.arity != n or M.k != E2.m:
        raise DimensionError(
            f"merger {M!r} does not take {n} blocks of {E2.m} bits"
        )
    blocks = []
    for i in range(1, n + 1):
        q_i = E1(a.slice(i - 1, n).pad_to(n), r1)
        z_i = E2(a.slice(0, i - 1).pad_to(n), q_i)
        blocks.append(z_i)
    return M(blocks, r2)


def iterated_compose_dp(
    extractors: Sequence[SeededFunction],
    mergers: Sequence[Merger],
    x: BitString,
    y: BitString,
    merger_seeds: Sequence[BitString],
) -> BitString:
    """Evaluate the t-fold composition via the suffix-cell dynamic program.

    Row 1 holds E_1 on every suffix of x with seed y; row j+1 at column i
    re-seeds E_{j+1} on prefixes x[i..l-1] with row j's cells and merges
    the resulting blocks (appending zero blocks up to full arity) with
    merger j's seed.  The answer is the top row's first cell; t = 1 is a
    plain E_1 evaluation and t = 2 agrees with merger_compose bit for
    bit.
    """
    t = len(extractors)
    if len(mergers) != t - 1 or len(merger_seeds) != t - 1:
        raise DimensionError(
            f"{t} extractors need {t - 1} mergers and seeds, got"
            f" {len(mergers)}/{len(merger_seeds)}"
        )
    n = x.length
    E1 = extractors[0]
    if E1.n != n:
        raise DimensionError(f"first extractor takes {E1.n} bits, source has {n}")
    row = [E1(x.slice(i - 1, n).pad_to(n), y) for i in range(1, n + 1)]
    for j in range(1, t):
        Ej, Mj, yj = extractors[j], mergers[j - 1], merger_seeds[j - 1]
        if Ej.n != n:
            raise DimensionError(f"extractor {j + 1} takes {Ej.n} bits, source has {n}")
        if Ej.d != row[0].length:
            raise DimensionError(
                f"extractor {j + 1} seed is {Ej.d} bits, previous row cells have"
                f" {row[0].length}"
            )
        if Mj.arity != n or Mj.k != Ej.m:
            raise DimensionError(
                f"merger {j} is {Mj!r}, need {n} blocks of {Ej.m} bits"
            )
        zero_block = BitString.zeros(Ej.m)
        new_row = []
        for i in range(1, n + 1):
            blocks = [
                Ej(x.slice(i - 1, l - 1).pad_to(n), row[l - 1])
                for l in range(i, n + 1)
            ]
            blocks.extend([zero_block] * (i - 1))
            new_row.append(Mj(blocks, yj))
        row = new_row
    return row[0]


def merger_output_dist(M: Merger, s: SomewhereRandomSource) -> Dist:
    """Exact output distribution of a merger on a somewhere-random source
    with an independent uniform seed: the push-forward of the block
    contents through the merger, read as a map on b*k-bit words."""
    if M.arity != s.b or M.k != s.k:
        raise DimensionError(
            f"merger {M!r} does not fit {s.b} blocks of {s.k} bits"
        )
    k = s.k

    def fn(x: BitString, y: BitString) -> BitString:
        return M([x.slice(i * k, (i + 1) * k) for i in range(s.b)], y)

    return push_forward(SeededFunction(s.b * k, M.d, M.m, fn, name=M.name), s.contents_dist())
