"""Somewhere-random sources and merger outputs against the Fraction-row oracles.

The library must give the oracle's Fractions for the stored rows, the
selector masses, the contents distribution and the merger output; the
oracle's verdict, witness and note from ``check_somewhere_random``; and
the oracle's exception type and text on malformed input.  Masses mix
denominators 3, 5, 7 and the Mersenne prime 2^61 - 1, so any
common-denominator bookkeeping is exercised beyond powers of two.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from extrakit import (
    BitString,
    InvalidDistributionError,
    Merger,
    SomewhereRandomSource,
    check_somewhere_random,
    merger_output_dist,
)

from helpers import (
    block_given_selector_oracle,
    check_somewhere_random_oracle,
    contents_oracle,
    merger_output_oracle,
    selector_mass_oracle,
    srs_rows_oracle,
)

DENOMS = (1, 2, 3, 5, 7, (1 << 61) - 1)
#: (b, k) with b in {1, 2, 3}, k in {1, 2} and b*k <= 6
SHAPES = [(b, k) for b in (1, 2, 3) for k in (1, 2)]
LEVELS = [Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(1)]

masses = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(1, 9), st.sampled_from(DENOMS))
)


def _normalised(raw):
    total = sum(map(sum, raw))
    assume(total > 0)
    return tuple(tuple(p / total for p in row) for row in raw)


@st.composite
def noisy_rows(draw, b, k):
    """Arbitrary masses; a selector row is empty or fully drawn."""
    size = 1 << (b * k)
    active = draw(st.lists(st.booleans(), min_size=b + 1, max_size=b + 1))
    return _normalised([
        draw(st.lists(masses, min_size=size, max_size=size)) if on else [Fraction(0)] * size
        for on in active
    ])


@st.composite
def good_block_rows(draw, b, k):
    """Under Y = i >= 1 block i is uniform and the other blocks are drawn
    functions of it, so the selector check can pass at eps = 0."""
    size = 1 << (b * k)
    raw = [[Fraction(0)] * size for _ in range(b + 1)]
    raw[0] = draw(st.lists(st.just(Fraction(0)) | masses, min_size=size, max_size=size))
    for i in range(1, b + 1):
        w = draw(masses)
        for v in range(1 << k):
            blocks = [draw(st.integers(0, (1 << k) - 1)) for _ in range(b)]
            blocks[i - 1] = v
            z = 0
            for bl in blocks:
                z = (z << k) | bl
            raw[i][z] += w
    return _normalised(raw)


@st.composite
def sources(draw):
    """``(b, k, rows, eps, eta)``.  eps is often exactly some block's
    distance from uniform and eta the no-good-block mass, so the strict
    comparisons meet their boundary and every witness occurs."""
    b, k = draw(st.sampled_from(SHAPES))
    rows = draw(st.one_of(noisy_rows(b, k), good_block_rows(b, k)))
    u = Fraction(1, 1 << k)
    measured = [
        sum(abs(p - u) for p in block_given_selector_oracle(rows, b, k, i)) / 2
        for i in range(1, b + 1)
        if selector_mass_oracle(rows, i)
    ]
    eps = draw(st.sampled_from(measured + LEVELS))
    eta = draw(st.sampled_from([selector_mass_oracle(rows, 0)] * 3 + LEVELS))
    return b, k, rows, eps, eta


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared by type and text
        return ("error", type(exc), str(exc))


def _pack(blocks, k: int) -> int:
    z = 0
    for bl in blocks:
        z = (z << k) | bl.value
    return z


def select_merger(b: int, k: int) -> Merger:
    d = (b - 1).bit_length()
    return Merger(b, k, d, k, lambda blocks, y: blocks[y.value % b], name="select")


def xor_merger(b: int, k: int) -> Merger:
    def fn(blocks, y):
        out = y
        for bl in blocks:
            out = out ^ bl
        return out

    return Merger(b, k, k, k, fn, name="xor")


@st.composite
def table_mergers(draw, b: int, k: int) -> Merger:
    d, m = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    n = 1 << (b * k + d)
    table = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    return Merger(
        b, k, d, m,
        lambda blocks, y: BitString(m, table[(_pack(blocks, k) << d) | y.value]),
        name="table",
    )


class TestSource:
    @settings(max_examples=100, deadline=None)
    @given(sources())
    def test_values_match_oracle(self, src):
        b, k, rows, eps, eta = src
        s = SomewhereRandomSource(b, k, rows, eps=eps, eta=eta)
        assert s.probs == srs_rows_oracle(b, k, rows)
        assert all(type(p) is Fraction for row in s.probs for p in row)
        for y in range(b + 1):
            got = s.selector_mass(y)
            assert type(got) is Fraction and got == selector_mass_oracle(rows, y)
        contents = s.contents_dist()
        assert contents.exact and contents.length == b * k
        assert list(contents.probs) == contents_oracle(rows)
        back = SomewhereRandomSource(b, k, s.probs, eps=s.eps, eta=s.eta)
        assert back.probs == s.probs and (back.eps, back.eta) == (eps, eta)

    @settings(max_examples=100, deadline=None)
    @given(sources())
    def test_verdict_matches_oracle(self, src):
        b, k, rows, eps, eta = src
        verdict = check_somewhere_random(SomewhereRandomSource(b, k, rows, eps=eps, eta=eta))
        assert (verdict.ok, verdict.witness, verdict.note) == check_somewhere_random_oracle(
            rows, b, k, eps, eta
        )

    def test_both_verdicts_and_every_witness_occur(self):
        # a fixed source per outcome, so the property tests cannot pass on
        # one verdict alone
        u = Fraction(1, 16)
        good = (4, 5, 8, 9, 12, 13)  # block 2 takes only 00 and 01 under Y = 2
        rows = (
            (u,) * 4 + (0,) * 12,
            (0,) * 16,
            tuple(Fraction(1, 8) if z in good else 0 for z in range(16)),
        )
        for eps, eta, want in [
            (Fraction(1, 2), Fraction(1, 4), (True, None, "")),
            (Fraction(1, 2), Fraction(1, 5), (False, 0, "no-good-block mass exceeds eta")),
            (Fraction(1, 5), Fraction(1, 4), (False, 2, "block 2 too far from uniform")),
        ]:
            verdict = check_somewhere_random(SomewhereRandomSource(2, 2, rows, eps=eps, eta=eta))
            assert (verdict.ok, verdict.witness, verdict.note) == want
            assert check_somewhere_random_oracle(rows, 2, 2, eps, eta) == want

    def test_mersenne_denominators(self):
        m = (1 << 61) - 1
        rows = (
            (Fraction(1, m), 0, 0, 0),
            (Fraction(1, 3), Fraction(1, 5), 0, 0),
            (0, 0, Fraction(1, 7), 1 - Fraction(71, 105) - Fraction(1, m)),
        )
        s = SomewhereRandomSource(2, 1, rows, eps=Fraction(1, 7), eta=Fraction(1, m))
        assert s.probs == srs_rows_oracle(2, 1, rows)
        assert list(s.contents_dist().probs) == contents_oracle(rows)
        verdict = check_somewhere_random(s)
        assert (verdict.ok, verdict.witness, verdict.note) == check_somewhere_random_oracle(
            rows, 2, 1, Fraction(1, 7), Fraction(1, m)
        )
        M = xor_merger(2, 1)
        assert list(merger_output_dist(M, s).probs) == merger_output_oracle(M, rows, 2, 1)


def _malformed(rows, kind):
    """``rows`` damaged one way; ``kind`` 0 leaves them as they are."""
    rows = [list(r) for r in rows]
    if kind == 1:
        rows.pop()
    elif kind == 2:
        rows.append([Fraction(0)] * len(rows[0]))
    elif kind == 3:
        rows[-1].pop()
    elif kind == 4:
        rows[0][0] = -Fraction(1, 3)
    elif kind == 5:
        rows = [[2 * p for p in r] for r in rows]
    elif kind == 6:
        rows[0][0] = "x"
    elif kind == 7:
        rows[0][0] = None
    elif kind == 8:
        rows[0][0] = float(rows[0][0])
    elif kind == 9:
        rows = [[str(p) for p in r] for r in rows]
    return rows


@settings(max_examples=100, deadline=None)
@given(sources(), st.integers(0, 9))
def test_constructor_errors_match_oracle(src, kind):
    b, k, rows, eps, eta = src
    bad = _malformed(rows, kind)
    got = outcome(lambda: SomewhereRandomSource(b, k, bad, eps=eps, eta=eta).probs)
    assert got == outcome(srs_rows_oracle, b, k, bad)


def test_constructor_shape_errors():
    rows = ((Fraction(1, 2), Fraction(1, 2)), (0, 0))
    for b, k in [(1, 2), (2, 1), (0, 1)]:
        got = outcome(SomewhereRandomSource, b, k, rows)
        assert got[0] == "error"
        assert got == outcome(srs_rows_oracle, b, k, rows)
    assert outcome(SomewhereRandomSource, 1, 1, rows)[0] == "value"


class TestMergerOutput:
    @settings(max_examples=100, deadline=None)
    @given(sources(), st.data())
    def test_matches_oracle(self, src, data):
        b, k, rows, eps, eta = src
        s = SomewhereRandomSource(b, k, rows, eps=eps, eta=eta)
        kind = data.draw(st.sampled_from(["select", "xor", "table"]))
        if kind == "select":
            M = select_merger(b, k)
        elif kind == "xor":
            M = xor_merger(b, k)
        else:
            M = data.draw(table_mergers(b, k))
        got = merger_output_dist(M, s)
        assert got.exact and got.length == M.m
        assert list(got.probs) == merger_output_oracle(M, rows, b, k)

    @pytest.mark.parametrize("b,k", [(1, 1), (2, 2), (3, 1)])
    def test_shape_mismatch_matches_oracle(self, b, k):
        u = Fraction(1, 1 << (b * k))
        rows = (tuple([Fraction(0)] * (1 << (b * k))), *[tuple([u / b] * (1 << (b * k)))] * b)
        s = SomewhereRandomSource(b, k, rows)
        for M in (select_merger(b + 1, k), xor_merger(b, k + 1)):
            got = outcome(merger_output_dist, M, s)
            assert got[0] == "error"
            assert got == outcome(merger_output_oracle, M, rows, b, k)

    def test_merger_size_error_matches_oracle(self):
        # a merger that breaks its declared output length fails the same way
        rows = ((0, 0), (Fraction(1, 2), Fraction(1, 2)))
        M = Merger(1, 1, 0, 2, lambda blocks, y: blocks[0], name="short")
        s = SomewhereRandomSource(1, 1, rows)
        got = outcome(merger_output_dist, M, s)
        assert got[0] == "error"
        assert got == outcome(merger_output_oracle, M, rows, 1, 1)


def test_exact_length_cap_holds_for_blocks_and_contents():
    # exact distributions stop at 16 bits; a 17-bit block or contents
    # word raises the Dist error rather than yielding a wider exact Dist
    n = 1 << 17
    s = SomewhereRandomSource(1, 17, [[0] * n, [Fraction(1, n)] * n])
    for call in (s.contents_dist, lambda: check_somewhere_random(s)):
        with pytest.raises(InvalidDistributionError, match="only up to n = 16"):
            call()
