"""Concatenated-code tests: field arithmetic, encoding, distance, list decoding.

Oracles are computed in-test: naive carry-less GF(2^t) multiplication for
the field tables, a bit-by-bit re-encoder for codewords, and an
independent exhaustive decoder for the list-decoding threshold.
"""

import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import extrakit.ecc as ecc_module
from extrakit import (
    BitString,
    BudgetExceededError,
    Code,
    DimensionError,
    GField,
    PINNED_POLYNOMIALS,
    brute_list_decode,
    build_code,
    code_encode,
)
from extrakit.ecc import MAX_CODEWORD_BITS

# ---------------------------------------------------------------------------
# oracles


def naive_field_mul(a: int, b: int, poly: int, t: int) -> int:
    """Carry-less polynomial product reduced mod ``poly`` (long division)."""
    prod = 0
    for i in range(t):
        if (b >> i) & 1:
            prod ^= a << i
    for bit in range(2 * t - 2, t - 1, -1):
        if (prod >> bit) & 1:
            prod ^= poly << (bit - t)
    return prod


def naive_poly_eval(field: GField, coeffs, xi: int) -> int:
    acc = 0
    power = 1
    for c in coeffs:
        acc ^= naive_field_mul(c, power, field.poly, field.t)
        power = naive_field_mul(power, xi, field.poly, field.t)
    return acc


def parity(v: int) -> int:
    return v.bit_count() & 1


def reencode(code: Code, x: BitString) -> BitString:
    """Independent re-encoding straight from the stated layout: message bits
    split into t-bit symbols (short last symbol zero-padded high), read as
    polynomial coefficients, evaluated at every field point in integer
    order, each value Hadamard-expanded; output bit p*2^t + z is
    parity(P(p) & z)."""
    t = code.t
    coeffs = []
    for j in range(code.symbols):
        val = 0
        for b in range(j * t, min((j + 1) * t, code.n)):
            val = (val << 1) | x.bit(b)
        # a short last chunk keeps its value: high zero bits are implicit
        coeffs.append(val)
    bits = 0
    for p in range(code.field.order):
        val = naive_poly_eval(code.field, coeffs, p)
        for z in range(code.field.order):
            bits = (bits << 1) | parity(val & z)
    return BitString(code.nbar, bits)


def naive_list_decode(code: Code, center: BitString, radius: Fraction):
    """Exhaustive decoder: exact rational inclusive distance threshold."""
    out = []
    for xv in range(1 << code.n):
        x = BitString(code.n, xv)
        dist = (code_encode(code, x).value ^ center.value).bit_count()
        if Fraction(dist, code.nbar) <= radius:
            out.append(x)
    return out


def least_t(n: int, delta: Fraction) -> int:
    """Selection rule recomputed from scratch: least t with
    2^t >= ceil(n/t) / (2 delta^2)."""
    t = 1
    while Fraction(1 << t) < Fraction(-(-n // t)) / (2 * delta * delta):
        t += 1
    return t


# ---------------------------------------------------------------------------
# field arithmetic


def test_field_mul_matches_naive_long_division():
    field = GField(4)
    for a in range(16):
        for b in range(16):
            assert field.mul(a, b) == naive_field_mul(a, b, field.poly, 4)


def test_field_mul_matches_naive_at_every_pinned_size():
    # the sentinel tables give 0 for a zero factor and wrap the cycle
    rng = Random(5)
    for t in PINNED_POLYNOMIALS:
        field, q = GField(t), 1 << t
        pairs = [(0, 0), (0, q - 1), (q - 1, 0), (1, q - 1), (q - 1, q - 1)]
        pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(40)]
        for a, b in pairs:
            assert field.mul(a, b) == naive_field_mul(a, b, field.poly, t), (t, a, b)


def test_field_poly_eval_matches_naive_power_sum():
    field = GField(3)
    rng = Random(11)
    for _ in range(50):
        coeffs = [rng.randrange(8) for _ in range(rng.randrange(1, 5))]
        xi = rng.randrange(8)
        assert field.poly_eval(coeffs, xi) == naive_poly_eval(field, coeffs, xi)


def test_pinned_polynomials_all_primitive():
    # the constructor itself verifies x generates the multiplicative group
    for t in PINNED_POLYNOMIALS:
        field = GField(t)
        assert field.order == 1 << t
    with pytest.raises(DimensionError):
        GField(17)


# ---------------------------------------------------------------------------
# build_code selection rule


def test_build_code_matches_recomputed_selection_rule():
    for n in [1, 2, 3, 5, 8, 12, 16, 33]:
        for delta in [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]:
            code = build_code(n, delta)
            assert code.t == least_t(n, delta)
            assert code.nbar == 1 << (2 * code.t)
            # the chosen field has enough evaluation points
            assert code.symbols <= code.field.order


def test_build_code_pinned_values():
    code = build_code(8, Fraction(1, 4))
    assert code.t == 4 and code.t <= 6
    assert code.nbar == 256 and code.nbar <= 1 << 12
    assert build_code(5, Fraction(1, 4)).t == 4
    # single message bit: one constant coefficient, pure Hadamard codeword
    tiny = build_code(1, Fraction(1, 4))
    assert tiny.symbols == 1
    one = code_encode(tiny, BitString(1, 1))
    width = tiny.field.order
    for p in range(width):
        for z in range(width):
            assert one.bit(p * width + z) == parity(1 & z)


def test_build_code_monotone_in_delta():
    deltas = [Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]
    for n in [1, 4, 9, 16]:
        ts = [build_code(n, d).t for d in deltas]
        # shrinking delta can only push t up
        assert ts == sorted(ts, reverse=True)


def test_build_code_rejects_bad_margin():
    for delta in [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(-1, 4)]:
        with pytest.raises(DimensionError):
            build_code(4, delta)
    with pytest.raises(DimensionError):
        build_code(0, Fraction(1, 4))


def test_direct_code_ctor_checks_point_supply():
    assert Code(4, Fraction(1, 4), 2).symbols == 2
    with pytest.raises(DimensionError):
        Code(20, Fraction(1, 4), 2)  # 10 coefficients, only 4 points


# ---------------------------------------------------------------------------
# encode


def test_encode_matches_independent_reencoder():
    code = Code(4, Fraction(1, 4), 2)
    for xv in range(16):
        x = BitString(4, xv)
        assert code_encode(code, x) == reencode(code, x)
    # and one built code with a partial last symbol (n=5, t=4)
    code = build_code(5, Fraction(1, 4))
    rng = Random(5)
    for _ in range(8):
        x = BitString(5, rng.randrange(32))
        assert code_encode(code, x) == reencode(code, x)


def test_encode_zero_to_zero():
    for n, delta in [(1, Fraction(1, 4)), (6, Fraction(1, 4)), (9, Fraction(1, 8))]:
        code = build_code(n, delta)
        assert code_encode(code, BitString(n)) == BitString(code.nbar)


def test_encode_is_linear():
    code = build_code(7, Fraction(1, 4))
    rng = Random(77)
    for _ in range(40):
        x = BitString(7, rng.randrange(128))
        y = BitString(7, rng.randrange(128))
        assert code_encode(code, x) ^ code_encode(code, y) == code_encode(code, x ^ y)


def test_encode_length_mismatch():
    code = build_code(6, Fraction(1, 4))
    with pytest.raises(DimensionError):
        code_encode(code, BitString(7))


def test_hadamard_inner_half_distance():
    # the inner map v -> (parity(v & z))_z separates distinct symbols on
    # exactly half the positions: the difference is a nonzero linear form
    for t in [2, 3, 4]:
        width = 1 << t
        blocks = [
            sum(parity(v & z) << (width - 1 - z) for z in range(width))
            for v in range(width)
        ]
        for v in range(width):
            for w in range(v + 1, width):
                assert (blocks[v] ^ blocks[w]).bit_count() == width // 2
    # consequence at the codeword level: a single-symbol code keeps every
    # distinct pair at exactly half the positions
    code = build_code(3, Fraction(1, 4))
    assert code.symbols == 1
    words = [code_encode(code, BitString(3, v)) for v in range(8)]
    for v in range(8):
        for w in range(v + 1, 8):
            assert (words[v] ^ words[w]).value.bit_count() == code.nbar // 2


def test_pairwise_distance_bound_all_pairs():
    # relative distance >= (1 - (s-1)/2^t) / 2, checked exactly over
    # integers for every message pair
    for n, delta in [
        (2, Fraction(1, 4)),
        (3, Fraction(1, 4)),
        (4, Fraction(1, 4)),
        (5, Fraction(1, 8)),
        (8, Fraction(1, 4)),
    ]:
        code = build_code(n, delta)
        order = code.field.order
        words = [code_encode(code, BitString(n, v)).value for v in range(1 << n)]
        dmin = min(
            (words[a] ^ words[b]).bit_count()
            for a in range(1 << n)
            for b in range(a + 1, 1 << n)
        )
        assert dmin * 2 * order >= code.nbar * (order - code.symbols + 1)
        # selection rule turns that into the margin guarantee
        assert Fraction(dmin, code.nbar) >= Fraction(1, 2) - delta * delta


# ---------------------------------------------------------------------------
# brute_list_decode


def test_list_decode_matches_naive_decoder():
    code = build_code(5, Fraction(1, 4))
    rng = Random(123)
    for _ in range(12):
        center = BitString(code.nbar, rng.getrandbits(code.nbar))
        expect = naive_list_decode(code, center, Fraction(1, 2) - code.delta)
        assert brute_list_decode(code, center) == expect
    # custom radius honored, still against the naive decoder
    center = BitString(code.nbar, rng.getrandbits(code.nbar))
    assert brute_list_decode(code, center, radius=Fraction(1, 3)) == naive_list_decode(
        code, center, Fraction(1, 3)
    )


def test_list_decode_contains_encoded_message():
    code = build_code(6, Fraction(1, 4))
    rng = Random(9)
    for _ in range(10):
        x = BitString(6, rng.randrange(64))
        assert x in brute_list_decode(code, code_encode(code, x))


def test_list_decode_complement_center():
    code = build_code(6, Fraction(1, 4))
    x = BitString(6, 0b101101)
    word = code_encode(code, x)
    center = word ^ BitString(code.nbar, (1 << code.nbar) - 1)
    got = brute_list_decode(code, center, radius=Fraction(1, 8))
    assert x not in got  # the complement sits at relative distance 1 from x
    assert len(got) <= 16  # list bound 1/delta^2 still holds


def test_list_size_bound_100_random_centers():
    code = build_code(8, Fraction(1, 4))
    rng = Random(2024)
    worst = 0
    for _ in range(100):
        center = BitString(code.nbar, rng.getrandbits(code.nbar))
        worst = max(worst, len(brute_list_decode(code, center)))
    assert worst <= 16  # 1/delta^2


def test_list_decode_sorted_and_deterministic():
    code = build_code(5, Fraction(1, 4))
    center = BitString(code.nbar, Random(4).getrandbits(code.nbar))
    first = brute_list_decode(code, center, radius=Fraction(1, 2))
    assert first == sorted(first)
    assert first == brute_list_decode(code, center, radius=Fraction(1, 2))


def test_list_decode_budget_and_length_checks():
    big = build_code(15, Fraction(1, 4))
    with pytest.raises(BudgetExceededError) as exc:
        brute_list_decode(big, BitString(big.nbar))
    assert (exc.value.requested, exc.value.budget) == (1 << 15, 1 << 14)
    mid = build_code(12, Fraction(1, 4))
    with pytest.raises(BudgetExceededError) as exc:
        brute_list_decode(mid, BitString(mid.nbar), max_message_bits=10)
    assert (exc.value.requested, exc.value.budget) == (1 << 12, 1 << 10)
    code = build_code(5, Fraction(1, 4))
    with pytest.raises(DimensionError):
        brute_list_decode(code, BitString(code.nbar + 1))


def test_list_decode_memory_bounded_at_large_field():
    # n = 1 at t = 12: two messages, but 2^24 inner-distance cells; the
    # decoder makes them a batch of field points at a time
    code = build_code(1, Fraction(1, 90))
    assert code.t == 12
    center = code_encode(code, BitString(1, 1))
    flipped = BitString(code.nbar, center.value ^ ((1 << (code.nbar // 4)) - 1))
    tracemalloc.start()
    try:
        found = brute_list_decode(code, flipped, radius=Fraction(1, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [BitString(1, 1)]
    assert brute_list_decode(code, flipped, radius=Fraction(1, 4) - Fraction(1, code.nbar)) == []
    # a whole (2^t, 2^t) int64 table alone would be 128 MB
    assert peak < 24 << 20


def test_codeword_cap_refuses_before_allocating():
    assert MAX_CODEWORD_BITS == 1 << 28  # t <= 14
    for t in (15, 16):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=f"2\\^{2 * t} = {1 << 2 * t} bits") as exc:
                Code(1, Fraction(1, 4), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.requested, exc.value.budget) == (1 << 2 * t, MAX_CODEWORD_BITS)
        assert peak < 16 << 20  # the packed table alone would be 2^(2t-3) bytes


def test_codeword_cap_boundary(monkeypatch):
    monkeypatch.setattr(ecc_module, "MAX_CODEWORD_BITS", 256)
    assert Code(4, Fraction(1, 4), 4).nbar == 256
    with pytest.raises(BudgetExceededError, match="2\\^10 = 1024 bits exceeds budget 256"):
        Code(4, Fraction(1, 4), 5)


def test_inner_table_is_packed_sylvester_rows():
    # row v of the packed table holds parity(v & z), z ascending, MSB first
    for t in range(1, 9):
        width = 1 << t
        table = Code(1, Fraction(1, 4), t)._inner
        assert table.shape == (width, max(1, width // 8)) and table.dtype == np.uint8
        assert not table.flags.writeable
        for v in range(width):
            bits = [parity(v & z) for z in range(width)] + [0] * (-width % 8)
            assert table[v].tolist() == list(np.packbits(bits))


# ---------------------------------------------------------------------------
# codeword length growth


def test_nbar_polynomial_regression():
    # guard nbar <= C * n^2 / delta^4; measured C on this grid is ~0.32
    # (worst case small n with delta near 1/2), asserted with headroom
    measured = Fraction(0)
    for n in [1, 2, 4, 8, 16, 32, 64]:
        for delta in [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]:
            code = build_code(n, delta)
            measured = max(measured, Fraction(code.nbar) * delta**4 / (n * n))
    assert measured <= 1
