"""Distributions over fixed-length bit strings.

:class:`Dist` stores one weight per string in ``{0,1}^n`` (dense) over a
common total, ``P(x) = weights[x] / total``, with a choice of backing:

* exact — Python-int weights over an int total, used by the oracle and
  verification paths so that pass/fail comparisons carry no float noise;
* float — float64 weights over ``total = 1.0`` for larger instances.

Each quantity here is one numpy body over ``weights`` and ``total`` for
both backings: min-entropy, statistical distance, flat sources (uniform
on a support set), the decomposition of any high-min-entropy
distribution into flat components, and the push-forward of a source
through a seeded map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, TextIO, Union

import numpy as np

from .bits import BitString
from .errors import (
    DimensionError,
    EntropyDeficitError,
    FormatError,
    InvalidDistributionError,
)

__all__ = [
    "MAX_LENGTH",
    "MAX_EXACT_LENGTH",
    "Dist",
    "FlatSource",
    "SeededFunction",
    "min_entropy",
    "stat_dist",
    "flat_decompose",
    "push_forward",
    "as_fraction",
    "read_dist",
    "write_dist",
]

#: Hard cap on the bit length of any dense distribution (2^24 entries).
MAX_LENGTH = 24
#: Cap for the exact (integer-weight) representation.
MAX_EXACT_LENGTH = 16

Number = Union[int, float, Fraction]


def as_fraction(x: Number | str) -> Fraction:
    """Coerce a number to an exact Fraction.

    Accepts Fraction, int, strings like ``"3/10"``, and floats (converted
    to their exact binary value, which keeps later comparisons exact).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _check_length(length: int, exact: bool) -> None:
    if length < 0 or length > MAX_LENGTH:
        raise InvalidDistributionError(
            f"bit length {length} outside supported range 0..{MAX_LENGTH}"
        )
    if exact and length > MAX_EXACT_LENGTH:
        raise InvalidDistributionError(
            f"exact backing supported only up to n = {MAX_EXACT_LENGTH}"
        )


def _exact(p) -> Fraction:
    """``Fraction(p)``, refusing NaN and infinities as a malformed mass."""
    if isinstance(p, (float, np.floating)) and not math.isfinite(p):
        raise InvalidDistributionError("non-finite probability")
    return Fraction(p)


def _over_lcm(vals: list[Fraction]) -> tuple[np.ndarray, int]:
    """Fractions as Python-int weights (an object array) over the lcm of
    their denominators: ``vals[i] == weights[i] / total``."""
    total = math.lcm(*(v.denominator for v in vals))
    return np.array([v.numerator * (total // v.denominator) for v in vals], dtype=object), total


def _zeros(length: int, exact: bool) -> np.ndarray:
    """All-zero weights on ``{0,1}^length``: Python ints or float64."""
    _check_length(length, exact)
    return np.zeros(1 << length, dtype=object if exact else np.float64)


class Dist:
    """A probability assignment over all strings of a fixed bit length.

    String ``x`` has probability ``weights[x] / total``.  Exact backing: a
    numpy object array of Python ints over a positive int ``total`` (the
    lcm of the input denominators), so no sum overflows or rounds.  Float
    backing: finite float64 ``weights`` over ``total = 1.0``.  ``exact``
    is read off the dtype; ``probs`` and ``prob`` hand out Fractions or
    floats.
    """

    __slots__ = ("length", "weights", "total")

    def __init__(self, length: int, probs, exact: bool | None = None, tol: float = 1e-9):
        if exact is None:
            exact = any(isinstance(p, Fraction) for p in probs)
        _check_length(length, exact)
        size = 1 << length
        if exact:
            vals = [_exact(p) for p in probs]
            if len(vals) != size:
                raise InvalidDistributionError(
                    f"expected {size} probabilities, got {len(vals)}"
                )
            if any(p < 0 for p in vals):
                raise InvalidDistributionError("negative probability")
            weights, total = _over_lcm(vals)
            if weights.sum() != total:
                raise InvalidDistributionError(
                    f"probabilities sum to {Fraction(weights.sum(), total)}, not 1"
                )
        else:
            weights = np.asarray(probs, dtype=np.float64)
            if weights.shape != (size,):
                raise InvalidDistributionError(
                    f"expected {size} probabilities, got shape {weights.shape}"
                )
            if np.any(weights < 0):
                raise InvalidDistributionError("negative probability")
            if not np.isfinite(weights).all():
                raise InvalidDistributionError("non-finite probability")
            mass = float(weights.sum())
            if abs(mass - 1.0) > tol:
                raise InvalidDistributionError(
                    f"probabilities sum to {mass}, outside 1 +/- {tol}"
                )
            total = 1.0
        self.length, self.weights, self.total = length, weights, total

    @classmethod
    def _of(cls, length: int, weights: np.ndarray, total) -> "Dist":
        """Wrap weights over ``total`` without re-validating them, apart from
        the length caps.  Int (object) weights keep ``total``; float weights
        are divided by it."""
        _check_length(length, weights.dtype == object)
        X = object.__new__(cls)
        if weights.dtype != object:
            weights, total = weights / total, 1.0
        X.length, X.weights, X.total = length, weights, total
        return X

    # -- constructors -------------------------------------------------

    @classmethod
    def uniform(cls, length: int, exact: bool = True) -> "Dist":
        weights = _zeros(length, exact and length <= MAX_EXACT_LENGTH)
        weights[:] = 1
        return cls._of(length, weights, len(weights))

    @classmethod
    def point(cls, x: BitString, exact: bool = True) -> "Dist":
        weights = _zeros(x.length, exact)
        weights[x.value] = 1
        return cls._of(x.length, weights, 1)

    # -- access -------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.weights.dtype == object

    @property
    def probs(self):
        """The probability vector: a list of Fractions, or the float64 weights."""
        if self.exact:
            return [Fraction(w, self.total) for w in self.weights]
        return self.weights

    def prob(self, x: Union[BitString, int]):
        idx = x.value if isinstance(x, BitString) else x
        return self._ratio(self.weights[idx], self.total)

    def _ratio(self, num, den):
        """``num / den`` as this backing's scalar: a Fraction or a float."""
        return Fraction(num, den) if self.exact else float(num / den)

    def support(self) -> list[int]:
        """Indices with positive probability, ascending."""
        return np.flatnonzero(self.weights).tolist()

    def to_exact(self) -> "Dist":
        """Exact copy; floats become their exact binary rationals."""
        if self.exact:
            return self
        probs = [Fraction(float(w)) for w in self.weights]
        total = sum(probs)
        if total == 0:
            raise InvalidDistributionError("all-zero distribution")
        return Dist(self.length, [p / total for p in probs], exact=True)

    def to_float(self) -> "Dist":
        if not self.exact:
            return self
        return Dist(self.length, self.weights / self.total, exact=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist) or self.length != other.length:
            return False
        X, Y = _same_backing(self, other)
        return bool(np.array_equal(X.weights * Y.total, Y.weights * X.total))

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "float"
        return f"Dist(n={self.length}, {kind})"


def _same_backing(X: Dist, Y: Dist) -> tuple[Dist, Dist]:
    """Both unchanged when both are exact, else both as floats."""
    if X.exact and Y.exact:
        return X, Y
    return X.to_float(), Y.to_float()


@dataclass(frozen=True)
class FlatSource:
    """The uniform distribution on a chosen set of length-``n`` strings."""

    length: int
    support: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.support:
            raise InvalidDistributionError("flat source needs a nonempty support")
        object.__setattr__(self, "support", frozenset(int(s) for s in self.support))
        size = 1 << self.length
        bad = [s for s in self.support if not 0 <= s < size]
        if bad:
            raise InvalidDistributionError(
                f"support element {bad[0]} outside [0, 2^{self.length})"
            )

    @classmethod
    def from_strings(cls, strings: Iterable[BitString]) -> "FlatSource":
        strings = list(strings)
        lengths = {s.length for s in strings}
        if len(lengths) > 1:
            raise DimensionError("mixed lengths in flat-source support")
        return cls(lengths.pop(), frozenset(s.value for s in strings))

    @property
    def size(self) -> int:
        return len(self.support)

    def dist(self, exact: bool = True) -> Dist:
        weights = _zeros(self.length, exact and self.length <= MAX_EXACT_LENGTH)
        weights[sorted(self.support)] = 1
        return Dist._of(self.length, weights, self.size)


@dataclass(frozen=True)
class SeededFunction:
    """A total map ``(n) x (d) -> (m)``: source word plus seed to output.

    Wraps a plain callable together with its three bit lengths so that
    downstream code (push-forward, graph construction, composition) can
    check dimensions without extra bookkeeping.
    """

    n: int
    d: int
    m: int
    fn: Callable[[BitString, BitString], BitString]
    name: str = ""

    def __call__(self, x: BitString, y: BitString) -> BitString:
        if x.length != self.n:
            raise DimensionError(f"source has {x.length} bits, expected {self.n}")
        if y.length != self.d:
            raise DimensionError(f"seed has {y.length} bits, expected {self.d}")
        out = self.fn(x, y)
        if out.length != self.m:
            raise DimensionError(
                f"map produced {out.length} bits, declared output is {self.m}"
            )
        return out

    def table(self, xs) -> np.ndarray:
        """Outputs of the source values ``xs`` under every seed, as int64.

        Row i lists ``F(xs[i], y).value`` for y = 0 .. 2^d - 1, in seed
        order, so the shape is (len(xs), 2^d).  Each pair goes through
        :meth:`__call__` and its length checks; a source value outside
        [0, 2^n) raises DimensionError.  The hash and Trevisan extractors
        override this with whole-table kernels; :func:`push_forward` and
        :func:`~extrakit.graph.graph_of_function` read only this method.
        """
        seeds = [BitString(self.d, y) for y in range(1 << self.d)]
        out = np.empty((len(xs), len(seeds)), dtype=np.int64)
        for i, x in enumerate(xs):
            xw = BitString(self.n, x)
            out[i] = [self(xw, y).value for y in seeds]
        return out

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"SeededFunction(({self.n})x({self.d})->({self.m}){tag})"


# ---------------------------------------------------------------------------
# quantities


def min_entropy(X: Dist) -> float:
    """Min-entropy in bits: ``log2(total) - log2(max weight)``."""
    top = X.weights.max()
    if top == 0:
        raise InvalidDistributionError("all-zero distribution has no min-entropy")
    if X.exact:
        best = Fraction(top, X.total)
        return math.log2(best.denominator) - math.log2(best.numerator)
    return float(-np.log2(top))


def stat_dist(X: Dist, Y: Dist):
    """Statistical distance: half the L1 distance between the two vectors.

    Exact (Fraction) when both inputs are exact, float otherwise.  Equals
    the largest probability gap ``|X(S) - Y(S)|`` over events ``S``.
    """
    if X.length != Y.length:
        raise DimensionError(
            f"statistical distance between lengths {X.length} and {Y.length}"
        )
    X, Y = _same_backing(X, Y)
    gap = np.abs(X.weights * Y.total - Y.weights * X.total).sum()
    return X._ratio(gap, 2 * X.total * Y.total)


def flat_decompose(X: Dist, K: int) -> list[tuple[Fraction, FlatSource]]:
    """Write ``X`` as a convex combination of flat sources of size ``K``.

    Requires min-entropy at least ``log2 K`` (equivalently every probability
    at most ``1/K``).  Works in exact arithmetic regardless of the input
    backing and produces at most ``2^n`` components.

    The procedure repeatedly picks the ``K`` largest remaining entries
    (ties broken by ascending string order) and removes the largest mass
    that keeps every remaining entry at most ``1/K`` of the remaining
    total; each removal step emits one flat component.  It runs on
    integers in units of ``1/(K*total)``: a step removing ``v`` from each
    chosen entry removes ``K*v`` of mass, so the remaining mass over K
    stays an integer and each component weighs ``v/total``.
    """
    if K < 1:
        raise EntropyDeficitError(f"component size K={K} must be at least 1")
    Xe = X.to_exact()
    size = 1 << Xe.length
    if K > size:
        raise EntropyDeficitError(f"K={K} exceeds the 2^{Xe.length} strings available")
    if Xe.weights.max() * K > Xe.total:
        raise EntropyDeficitError(
            f"min-entropy {min_entropy(Xe):.6f} below log2 K = {math.log2(K):.6f}"
        )
    rem = Xe.weights * K
    left = Xe.total  # remaining mass / K
    components: list[tuple[Fraction, FlatSource]] = []
    for _ in range(2 * size + 2):
        if left == 0:
            break
        order = np.argsort(-rem, kind="stable")
        chosen = order[:K]
        v = rem[chosen].min()
        if K < size:
            v = min(v, left - rem[order[K]])
        if v <= 0:  # pragma: no cover - excluded by the entropy precondition
            raise InvalidDistributionError("decomposition stalled; invariant broken")
        rem[chosen] -= v
        left -= v
        components.append(
            (Fraction(v, Xe.total), FlatSource(Xe.length, frozenset(chosen.tolist())))
        )
    else:  # pragma: no cover
        raise InvalidDistributionError("decomposition did not terminate")
    return components


def push_forward(F: SeededFunction, X: Dist) -> Dist:
    """Distribution of ``F(X, U_d)``: the source ``X`` with a uniform seed.

    Exact backing in, exact backing out (total mass is preserved exactly);
    float backing sums floats, in ``(x, y)`` order.
    """
    if X.length != F.n:
        raise DimensionError(f"source length {X.length} but map expects {F.n}")
    D = 1 << F.d
    xs = X.support()
    outs = F.table(xs).ravel()
    # each (x, y) pair weighs P(x)/2^d: exact ints keep a 2^d-fold total,
    # floats are divided here, before they are summed
    pairs = Dist._of(X.length, X.weights, X.total * D)
    acc = _zeros(F.m, X.exact)
    np.add.at(acc, outs, np.repeat(pairs.weights[xs], D))
    return Dist._of(F.m, acc, pairs.total)


# ---------------------------------------------------------------------------
# text format: header line `n`, then 2^n lines `bitstring weight`


def write_dist(X: Dist, fp: TextIO) -> None:
    fp.write(f"{X.length}\n")
    for i, w in enumerate(X.weights):
        fp.write(f"{BitString(X.length, i).to_text()} {X._ratio(w, X.total)}\n")


def _parse_weight(token: str):
    if "." in token or "e" in token or "E" in token:
        return float(token)
    try:
        return Fraction(token)
    except ValueError:
        raise FormatError(f"bad weight {token!r}") from None


def read_dist(fp: TextIO) -> Dist:
    header = fp.readline()
    try:
        n = int(header.strip())
    except ValueError:
        raise FormatError(f"bad distribution header {header!r}", line=1) from None
    if not 0 <= n <= MAX_LENGTH:
        raise FormatError(f"distribution length {n} outside 0..{MAX_LENGTH}", line=1)
    size = 1 << n
    weights: list = [None] * size
    exact = True
    for lineno in range(2, size + 2):
        line = fp.readline()
        if not line:
            raise FormatError("unexpected end of distribution file", line=lineno)
        try:
            bs_text, w_text = line.split()
        except ValueError:
            raise FormatError(f"expected 'bitstring weight', got {line!r}", line=lineno)
        try:
            bs = BitString.from_text(bs_text)
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from None
        if bs.length != n:
            raise FormatError(f"bit string of length {bs.length}, header says {n}", line=lineno)
        if weights[bs.value] is not None:
            raise FormatError(f"duplicate entry for {bs_text}", line=lineno)
        w = _parse_weight(w_text)
        exact = exact and isinstance(w, Fraction)
        weights[bs.value] = w
    missing = [i for i, w in enumerate(weights) if w is None]
    if missing:
        raise FormatError(f"missing entry for string index {missing[0]}")
    return Dist(n, weights, exact=exact)
