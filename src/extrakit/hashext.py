"""Toeplitz hashing over GF(2) and the hashing-based extractor.

A family member is described by n+l-1 bits giving the diagonals of an
l x n Toeplitz matrix T (row i, column j reads description bit n-1+i-j);
hashing is the matrix-vector product over GF(2).  Any two distinct
inputs collide on exactly a 2^-l fraction of the family, which makes
``F(x, h) = h || h(x)`` an extractor with honestly counted seed length
d = n+l-1 and output length d+l.

The value T_h*x is bilinear over GF(2) in the description h and the
input x, so the values of the whole family on a set of inputs are
tabulated without evaluating any member: member 2^b (one diagonal set)
maps x to the l-bit window of x that ends at bit d-1-b of ``x << (l-1)``,
and the 2^d rows follow in d doubling steps,
``V[2^b : 2^(b+1)] = V[:2^b] ^ V[2^b]``.  One kernel serves
:func:`hash_table`, :func:`collision_prob`, :func:`flat_output_distance`
and the extractor's :meth:`SeededFunction.table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import BitString
from .dist import Dist, SeededFunction
from .errors import BudgetExceededError, DimensionError, InvalidPairError
from .graph import MAX_HIST_CELLS

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
#: Cells (members times support values) of each counting block of
#: :func:`flat_output_distance`: 256 KiB of int64 indices, which timed
#: fastest at (10, 4) on 64 points among 2^12 .. 2^17.
_COUNT_CELLS = 1 << 15


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


def _check_member_budget(family: ToeplitzFamily) -> None:
    if family.d > MAX_FAMILY_BITS:
        raise BudgetExceededError(
            f"family has 2^{family.d} members, budget is 2^{MAX_FAMILY_BITS}",
            requested=family.size,
            budget=1 << MAX_FAMILY_BITS,
        )


def hash_table(family: ToeplitzFamily) -> np.ndarray:
    """Dense table V[h, x] = value of member h on input x, whole family.

    Shape (2^d, 2^n), dtype uint16.  Used by exhaustive collision and
    linearity sweeps; refuses families beyond :data:`MAX_FAMILY_BITS`
    description bits, and tables beyond
    :data:`~extrakit.graph.MAX_HIST_CELLS` cells.
    """
    _check_member_budget(family)
    return _values(family, np.arange(1 << family.n))


def _values(family: ToeplitzFamily, xs) -> np.ndarray:
    """Values of every member on the inputs ``xs``: uint16, (2^d, len(xs)).

    Built by doubling from the rows of the d unit descriptions (see the
    module docstring).  Refuses l > 16 and more than MAX_HIST_CELLS
    cells before allocating; a value outside [0, 2^n) raises
    DimensionError.
    """
    n, l, d = family.n, family.l, family.d
    if l > 16:
        raise BudgetExceededError(
            f"l={l} overflows the uint16 table", requested=l, budget=16
        )
    cells = family.size * len(xs)
    if cells > MAX_HIST_CELLS:
        raise BudgetExceededError(
            f"value table of 2^{d} x {len(xs)} = {cells} cells exceeds budget {MAX_HIST_CELLS}",
            requested=cells,
            budget=MAX_HIST_CELLS,
        )
    x = np.asarray(xs)
    bad = (x < 0) | (x >= 1 << n)
    if bad.any():
        raise DimensionError(f"value {x[bad.argmax()]} does not fit in {n} bits")
    x = x.astype(np.int64)
    V = np.empty((family.size, len(x)), dtype=np.uint16)
    V[0] = 0
    shifted = x << (l - 1)
    for b in range(d):
        unit = ((shifted >> (d - 1 - b)) & (family.L - 1)).astype(np.uint16)
        np.bitwise_xor(V[: 1 << b], unit, out=V[1 << b : 2 << b])
    return V


def collision_prob(family: ToeplitzFamily, x1: BitString, x2: BitString) -> Fraction:
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
    _check_member_budget(family)
    V = _values(family, (x1.value, x2.value))
    hits = int((V[:, 0] == V[:, 1]).sum())
    return Fraction(hits, family.size)


def collision_measure(X: Dist):
    """Collision probability of two independent draws: sum of squared masses."""
    return X._ratio(np.dot(X.weights, X.weights), X.total * X.total)


def hash_extractor_eval(
    family: ToeplitzFamily, x: BitString, h: BitString
) -> BitString:
    """The leftover-hash extractor: seed copied out, hash appended."""
    return h + hash_eval(family, h, x)


@dataclass(frozen=True, repr=False)
class _HashExtractorMap(SeededFunction):
    """The hash extractor with a whole-table :meth:`table`."""

    family: ToeplitzFamily = None

    def table(self, xs) -> np.ndarray:
        """Row i is ``(h << l) | V[h, xs[i]]`` over the members h, in order."""
        seeds = np.arange(self.family.size, dtype=np.int64) << self.family.l
        return np.bitwise_or(_values(self.family, xs).T, seeds, order="C")


def hash_extractor_map(family: ToeplitzFamily) -> SeededFunction:
    """The extractor as a checked (n) x (d) -> (d+l) seeded map."""
    return _HashExtractorMap(
        family.n,
        family.d,
        family.d + family.l,
        lambda x, h: hash_extractor_eval(family, x, h),
        name=f"hash-ext n={family.n} l={family.l}",
        family=family,
    )


def flat_output_distance(family: ToeplitzFamily, support) -> Fraction:
    """Exact distance from uniform of the extractor output on a flat source.

    ``support`` is an iterable of n-bit values; the source is uniform on
    its distinct values, the seed uniform over the whole family.  Counts
    every (member, value) pair and returns the statistical distance as a
    Fraction — the measurement side of the leftover-hash bound.

    The values of all members on the support come from one table (see
    the module docstring).  It is counted in blocks of members of at
    most ``_COUNT_CELLS`` cells: one ``bincount`` over ``row*L + value``
    gives the block's counts c[h, v], and the distance is
    ``sum |c*L - K| / (2*K*2^d*L)`` over all cells, empty ones included.
    """
    sup = sorted(int(s) for s in set(support))
    if not sup:
        raise DimensionError("empty flat-source support")
    K, L = len(sup), family.L
    V = _values(family, sup)
    step = max(1, _COUNT_CELLS // max(K, L))
    num = 0
    for lo in range(0, family.size, step):
        block = V[lo : lo + step]
        cells = block + (np.arange(len(block)) * L)[:, None]
        counts = np.bincount(cells.ravel(), minlength=len(block) * L)
        num += int(np.abs(counts * L - K).sum())
    return Fraction(num, 2 * K * family.size * L)
