"""Toeplitz hashing over GF(2) and the hashing-based extractor.

A family member is described by n+l-1 bits giving the diagonals of an
l x n Toeplitz matrix T (row i, column j reads description bit n-1+i-j);
hashing is the matrix-vector product over GF(2).  Any two distinct
inputs collide on exactly a 2^-l fraction of the family, which makes
``F(x, h) = h || h(x)`` an extractor with honestly counted seed length
d = n+l-1 and output length d+l.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import BitString
from .dist import Dist, SeededFunction
from .errors import BudgetExceededError, DimensionError, InvalidPairError

__all__ = [
    "MAX_FAMILY_BITS",
    "ToeplitzFamily",
    "hash_eval",
    "hash_table",
    "collision_prob",
    "collision_measure",
    "hash_extractor_eval",
    "hash_extractor_map",
    "flat_output_distance",
]

#: Enumerating a family is allowed up to 2^24 members.
MAX_FAMILY_BITS = 24


def _reverse_bits(v: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (v & 1)
        v >>= 1
    return out


@dataclass(frozen=True)
class ToeplitzFamily:
    """All l x n Toeplitz matrices over GF(2), indexed by n+l-1 description bits."""

    n: int
    l: int

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise DimensionError(f"need n, l >= 1, got n={self.n}, l={self.l}")

    @property
    def d(self) -> int:
        """Description (and extractor seed) length in bits."""
        return self.n + self.l - 1

    @property
    def size(self) -> int:
        return 1 << self.d

    @property
    def L(self) -> int:
        return 1 << self.l

    def matrix(self, h: BitString) -> list[list[int]]:
        """The explicit l x n matrix of member ``h`` (row-major 0/1 lists)."""
        if h.length != self.d:
            raise DimensionError(f"description has {h.length} bits, expected {self.d}")
        return [
            [h.bit(self.n - 1 + i - j) for j in range(self.n)] for i in range(self.l)
        ]


def hash_eval(family: ToeplitzFamily, h: BitString, x: BitString) -> BitString:
    """Apply member ``h`` to ``x``: the GF(2) product T*x, word-wise.

    Row i of T occupies a contiguous window of the description value, so
    each output bit is one shift, one AND with the bit-reversed input,
    and a popcount parity.
    """
    if h.length != family.d:
        raise DimensionError(f"description has {h.length} bits, expected {family.d}")
    if x.length != family.n:
        raise DimensionError(f"input has {x.length} bits, expected {family.n}")
    n, l = family.n, family.l
    maskn = (1 << n) - 1
    xrev = _reverse_bits(x.value, n)
    out = 0
    for i in range(l):
        window = (h.value >> (l - 1 - i)) & maskn
        out = (out << 1) | ((window & xrev).bit_count() & 1)
    return BitString(l, out)


def hash_table(family: ToeplitzFamily, max_bits: int = MAX_FAMILY_BITS) -> np.ndarray:
    """Dense table V[h, x] = value of member h on input x, whole family.

    Shape (2^d, 2^n), dtype uint16.  Used by exhaustive collision and
    linearity sweeps; refuses families beyond ``max_bits`` description
    bits.
    """
    if family.d > max_bits:
        raise BudgetExceededError(
            f"family has 2^{family.d} members, budget is 2^{max_bits}",
            requested=family.size,
            budget=1 << max_bits,
        )
    if family.l > 16:
        raise BudgetExceededError(
            f"l={family.l} overflows the uint16 table", requested=family.l, budget=16
        )
    table = np.empty((family.size, 1 << family.n), dtype=np.uint16)
    for xv in range(1 << family.n):
        table[:, xv] = _column(family, BitString(family.n, xv))
    return table


def _column(family: ToeplitzFamily, x: BitString) -> np.ndarray:
    """Values of every family member on one input, as a (2^d,) array."""
    n, l = family.n, family.l
    maskn = (1 << n) - 1
    xrev = np.uint64(_reverse_bits(x.value, n))
    R = np.arange(1 << family.d, dtype=np.uint64)
    col = np.zeros(1 << family.d, dtype=np.uint16)
    for i in range(l):
        window = (R >> np.uint64(l - 1 - i)) & np.uint64(maskn)
        col = (col << 1) | (np.bitwise_count(window & xrev) & 1).astype(np.uint16)
    return col


def collision_prob(
    family: ToeplitzFamily,
    x1: BitString,
    x2: BitString,
    max_bits: int = MAX_FAMILY_BITS,
) -> Fraction:
    """Exact fraction of family members mapping x1 and x2 to the same value.

    Counts by enumerating the entire family (no algebraic shortcut), so
    it can serve as the measurement side of the 2^-l collision claim.
    """
    if x1.length != family.n or x2.length != family.n:
        raise DimensionError(
            f"inputs of lengths {x1.length}, {x2.length}; family expects {family.n}"
        )
    if x1 == x2:
        raise InvalidPairError("collision probability needs two distinct inputs")
    if family.d > max_bits:
        raise BudgetExceededError(
            f"family has 2^{family.d} members, budget is 2^{max_bits}",
            requested=family.size,
            budget=1 << max_bits,
        )
    hits = int((_column(family, x1) == _column(family, x2)).sum())
    return Fraction(hits, family.size)


def collision_measure(X: Dist):
    """Collision probability of two independent draws: sum of squared masses."""
    return X._ratio(np.dot(X.weights, X.weights), X.total * X.total)


def hash_extractor_eval(
    family: ToeplitzFamily, x: BitString, h: BitString
) -> BitString:
    """The leftover-hash extractor: seed copied out, hash appended."""
    return h + hash_eval(family, h, x)


def hash_extractor_map(family: ToeplitzFamily) -> SeededFunction:
    """The extractor as a checked (n) x (d) -> (d+l) seeded map."""
    return SeededFunction(
        family.n,
        family.d,
        family.d + family.l,
        lambda x, h: hash_extractor_eval(family, x, h),
        name=f"hash-ext n={family.n} l={family.l}",
    )


def flat_output_distance(family: ToeplitzFamily, support) -> Fraction:
    """Exact distance from uniform of the extractor output on a flat source.

    ``support`` is an iterable of n-bit values; the source is uniform on
    it, the seed uniform over the whole family.  Enumerates every
    (member, source value) pair and returns the statistical distance as
    a Fraction — the measurement side of the leftover-hash bound.
    """
    sup = sorted(int(s) for s in set(support))
    if not sup:
        raise DimensionError("empty flat-source support")
    K = len(sup)
    counts = np.zeros((family.size, family.L), dtype=np.int64)
    rows = np.arange(family.size)
    for s in sup:
        counts[rows, _column(family, BitString(family.n, s))] += 1
    # distance = 1/2 * sum_{h,v} | c[h,v]/(K*2^d) - 1/(2^d*L) |
    #          = sum |c*L - K| / (2*K*2^d*L)
    num = int(np.abs(counts * family.L - K).sum())
    return Fraction(num, 2 * K * family.size * family.L)
