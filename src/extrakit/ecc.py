"""Concatenated Reed-Solomon/Hadamard codes with brute-force list decoding.

Messages are packed into GF(2^t) symbols, read as the coefficients of a
polynomial, evaluated at every field point (Reed-Solomon), and each
resulting symbol is expanded to all 2^t inner products with its index
(Hadamard).  The codeword length is 2^t * 2^t = 2^(2t), a power of two,
so a codeword doubles as the truth table of a function on 2t bits.

The field exponent t is the least one making the outer code's relative
distance large enough that a Johnson-style bound caps the number of
codewords in any ball of relative radius 1/2 - delta at 1/delta^2; the
brute-force decoder simply tries every message, which at desk scale is
both the oracle and the only decoder needed.

Both codes are numpy kernels: the inner table is built by Sylvester
doubling as packed bytes, and one batched Horner evaluator over the
field's log/exp tables gives the outer symbols of many messages at once.
"""

from __future__ import annotations

from fractions import Fraction
import numpy as np

from .bits import BitString
from .dist import as_fraction
from .errors import BudgetExceededError, DimensionError

__all__ = [
    "MAX_CODEWORD_BITS",
    "PINNED_POLYNOMIALS",
    "GField",
    "Code",
    "build_code",
    "encode",
    "brute_list_decode",
]

#: Fixed irreducible (indeed primitive) polynomial per field exponent t,
#: encoded as an integer bit mask including the leading term.  The table
#: is part of the external interface (see docs/fields.md); changing an
#: entry changes every codeword.
PINNED_POLYNOMIALS = {
    1: 0b11,                # x + 1
    2: 0b111,               # x^2 + x + 1
    3: 0b1011,              # x^3 + x + 1
    4: 0b10011,             # x^4 + x + 1
    5: 0b100101,            # x^5 + x^2 + 1
    6: 0b1000011,           # x^6 + x + 1
    7: 0b10001001,          # x^7 + x^3 + 1
    8: 0b100011101,         # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,        # x^9 + x^4 + 1
    10: 0b10000001001,      # x^10 + x^3 + 1
    11: 0b100000000101,     # x^11 + x^2 + 1
    12: 0b1000001010011,    # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,   # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,  # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011, # x^15 + x + 1
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}


#: Largest codeword, in bits, that :class:`Code` builds: 2^28 bits (32 MB
#: packed), so t <= 14.  The inner table has as many bits as a codeword, so
#: a larger field raises BudgetExceededError before either is allocated.
MAX_CODEWORD_BITS = 1 << 28

#: Cells per batch of the list decoder's arrays (4 MB of int32 distances,
#: 8 MB of intp symbols).
_BATCH_CELLS = 1 << 20


def _hadamard_rows(t: int) -> np.ndarray:
    """Packed inner table: row v holds parity(v & z) for z ascending, first
    z in the most significant bit, as 2^t/8 bytes (one left-aligned byte
    when t < 3).

    The 8-column table is written directly; each doubling step then fills
    H_2w = [[H, H], [H, ~H]] inside the final array, so no unpacked
    2^(2t)-bit temporary is made.
    """
    width = 1 << t
    base = np.arange(min(width, 8))
    rows = np.empty((width, max(1, width // 8)), dtype=np.uint8)
    rows[: len(base), :1] = np.packbits(np.bitwise_count(base[:, None] & base) & 1, axis=1)
    for w in (1 << k for k in range(3, t)):
        b = w // 8
        rows[:w, b : 2 * b] = rows[:w, :b]
        rows[w : 2 * w, :b] = rows[:w, :b]
        np.invert(rows[:w, :b], out=rows[w : 2 * w, b : 2 * b])
    rows.setflags(write=False)
    return rows


class GField:
    """GF(2^t) with log/antilog tables over the pinned polynomial.

    A product is one table read, a*b = exp[log[a] + log[b]]: ``exp`` holds
    the cycle of powers of x twice and then zeros, and log[0] = 2(q-1)
    (q = 2^t) points past both copies into the zeros, so a zero factor
    gives 0 without a branch.  The tables are numpy arrays, so the same
    read serves a scalar or a whole batch of products.
    """

    def __init__(self, t: int):
        if t not in PINNED_POLYNOMIALS:
            raise DimensionError(f"no pinned polynomial for t={t} (have 1..16)")
        self.t = t
        self.order = 1 << t
        self.poly = PINNED_POLYNOMIALS[t]
        powers = [1]
        v = 1
        for _ in range(self.order - 2):
            v <<= 1
            if v & self.order:
                v ^= self.poly
            powers.append(v)
        # primitivity check: x must generate the full multiplicative group
        v <<= 1
        if v & self.order:
            v ^= self.poly
        if v != 1 or len(set(powers)) != self.order - 1:
            raise DimensionError(f"polynomial {self.poly:#x} is not primitive for t={t}")
        cycle = self.order - 1
        self.exp = np.zeros(4 * cycle + 1, dtype=np.intp)
        self.exp[: 2 * cycle] = powers * 2
        self.log = np.full(self.order, 2 * cycle, dtype=np.intp)
        self.log[powers] = np.arange(cycle)

    def mul(self, a: int, b: int) -> int:
        return int(self.exp[self.log[a] + self.log[b]])

    def poly_eval(self, coeffs: list[int], xi: int) -> int:
        """Horner evaluation of sum coeffs[j] * xi^j (coeffs[0] = constant)."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, xi) ^ c
        return acc


class Code:
    """A concatenated code instance: message bits n, margin delta, field 2^t."""

    def __init__(self, n: int, delta, t: int):
        if n < 1:
            raise DimensionError(f"message length n={n} must be positive")
        self.n = n
        self.delta = as_fraction(delta)
        self.t = t
        self.field = GField(t)
        self.symbols = -(-n // t)  # ceil(n/t): outer polynomial coefficients
        if self.symbols > self.field.order:
            raise DimensionError(
                f"{self.symbols} coefficients exceed {self.field.order} field points"
            )
        if self.nbar > MAX_CODEWORD_BITS:
            raise BudgetExceededError(
                f"codeword of 2^{2 * t} = {self.nbar} bits exceeds budget"
                f" {MAX_CODEWORD_BITS}",
                requested=self.nbar,
                budget=MAX_CODEWORD_BITS,
            )
        self._inner = _hadamard_rows(t)
        self._codebook: dict[int, int] = {}

    @property
    def nbar(self) -> int:
        """Codeword length 2^(2t), a power of two."""
        return 1 << (2 * self.t)

    @property
    def l(self) -> int:
        """log2 of the codeword length; codewords are truth tables on l bits."""
        return 2 * self.t

    def __repr__(self) -> str:
        return f"Code(n={self.n}, delta={self.delta}, t={self.t}, nbar={self.nbar})"

    def evaluate(self, xs, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Outer Reed-Solomon symbols of a batch of messages.

        ``xs`` holds message values below 2^n.  Returns a (len(xs), stop -
        start) intp array whose row b, column p is P(start + p) for message
        xs[b]: the
        polynomial with the message's t-bit symbols as coefficients (first
        symbol = constant term; a short last symbol keeps its value),
        evaluated by Horner's rule at the field points start..stop-1 (all
        of them by default) at once.
        """
        field = self.field
        xs = np.asarray(xs, dtype=np.int64 if self.n < 63 else object)
        points = field.log[start:stop]
        acc = np.zeros((len(xs), len(points)), dtype=np.intp)
        for j in reversed(range(self.symbols)):
            lo, hi = j * self.t, min(j * self.t + self.t, self.n)
            coeff = ((xs >> (self.n - hi)) & ((1 << (hi - lo)) - 1)).astype(np.intp)
            acc = field.exp[field.log[acc] + points] ^ coeff[:, None]
        return acc

    def _join(self, rows: np.ndarray) -> int:
        """Packed inner rows concatenated into one integer, first row most
        significant."""
        if self.t >= 3:
            return int.from_bytes(rows.tobytes(), "big")
        bits = np.unpackbits(rows, axis=1, count=self.field.order)
        return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)

    def _blocks(self, word: int) -> np.ndarray:
        """A codeword-length integer cut into 2^t packed rows (inverse of
        :meth:`_join`)."""
        width = self.field.order
        if self.t >= 3:
            raw = word.to_bytes(self.nbar // 8, "big")
            return np.frombuffer(raw, dtype=np.uint8).reshape(width, width // 8)
        bits = (word >> np.arange(self.nbar - 1, -1, -1)) & 1
        return np.packbits(bits.reshape(width, width).astype(np.uint8), axis=1)

    def _encode_value(self, xv: int) -> int:
        cw = self._codebook.get(xv)
        if cw is None:
            cw = self._join(self._inner[self.evaluate([xv])[0]])
            self._codebook[xv] = cw
        return cw


def _inner_distances(blocks: np.ndarray, width: int) -> np.ndarray:
    """Entry [p, v] is the Hamming distance between inner row v and packed
    block p, for a batch of 2^t-bit blocks (width = 2^t).

    Row v differs from block b wherever parity(v & z) != b(z), so the
    distance is (width - W(v)) / 2, where W is the Walsh-Hadamard transform
    of (-1)^b(z).  The fast transform takes t in-place butterfly passes
    (a, b) -> (a + b, a - b) over each block.
    """
    signs = 1 - 2 * np.unpackbits(blocks, axis=1, count=width).astype(np.int32)
    h = 1
    while h < width:
        pairs = signs.reshape(len(signs), -1, 2, h)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        low += high
        high *= -2
        high += low
        h *= 2
    np.subtract(width, signs, out=signs)
    signs >>= 1
    return signs


def build_code(n: int, delta) -> Code:
    """Smallest field making the ball-counting bound work at margin delta.

    Chooses the least t with 2^t >= ceil(n/t) / (2*delta^2), compared as
    exact rationals.  Larger t only pads with zero coefficients, so this
    also guarantees enough evaluation points.
    """
    delta = as_fraction(delta)
    if not 0 < delta < Fraction(1, 2):
        raise DimensionError(f"margin delta={delta} outside (0, 1/2)")
    t = 1
    while True:
        need = Fraction(-(-n // t), 1) / (2 * delta * delta)
        if (1 << t) >= need:
            return Code(n, delta, t)
        t += 1
        if t > 16:
            raise DimensionError(
                f"n={n}, delta={delta} needs a field beyond the pinned t <= 16 table"
            )


def encode(code: Code, x: BitString) -> BitString:
    """Codeword of x: Reed-Solomon over GF(2^t), each symbol Hadamard-expanded.

    Bit p*2^t + z of the output is parity(P(p) & z) where P is the
    polynomial with the message's symbols as coefficients (first symbol =
    constant term) and p runs over all field points in integer order.
    """
    if x.length != code.n:
        raise DimensionError(f"message has {x.length} bits, code expects {code.n}")
    return BitString(code.nbar, code._encode_value(x.value))


def brute_list_decode(
    code: Code,
    center: BitString,
    radius=None,
    max_message_bits: int = 14,
) -> list[BitString]:
    """All messages whose codewords lie within relative ``radius`` of center.

    Default radius is 1/2 - delta, i.e. agreement on at least a
    (1/2 + delta) fraction of positions; the comparison is exact over
    rationals and inclusive.  Tries every one of the 2^n messages, so n
    is capped (default 14).  Output sorted by message value.

    No codeword is built: a message's distance is the sum over field
    points p of the inner distance between row P(p) and the center's
    block p, read from inner-distance tables made a batch of field points
    at a time and read a batch of messages at a time.  Beyond one
    distance per message, each array stays within _BATCH_CELLS cells.
    """
    if center.length != code.nbar:
        raise DimensionError(
            f"center has {center.length} bits, codewords have {code.nbar}"
        )
    if code.n > max_message_bits:
        raise BudgetExceededError(
            f"2^{code.n} messages exceed the enumeration budget 2^{max_message_bits}",
            requested=1 << code.n,
            budget=1 << max_message_bits,
        )
    radius = (
        Fraction(1, 2) - code.delta if radius is None else as_fraction(radius)
    )
    # distance <= radius * nbar over the integers
    limit = min(radius.numerator * code.nbar // radius.denominator, code.nbar)
    width = code.field.order
    blocks = code._blocks(center.value)
    distance = np.zeros(1 << code.n, dtype=np.int64)
    xs = np.arange(len(distance))
    step = max(1, _BATCH_CELLS // width)
    for lo in range(0, width, step):  # a batch of field points ...
        table = _inner_distances(blocks[lo : lo + step], width)
        cols = np.arange(len(table))
        batch = _BATCH_CELLS // len(table)
        for x0 in range(0, len(xs), batch):  # ... against a batch of messages
            symbols = code.evaluate(xs[x0 : x0 + batch], lo, lo + len(table))
            distance[x0 : x0 + batch] += table[cols, symbols].sum(axis=1)
    return [BitString(code.n, int(xv)) for xv in np.flatnonzero(distance <= limit)]
