"""Distributions: exact/float duality, decomposition, push-forward."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from extrakit import (
    BitString,
    Dist,
    FlatSource,
    SeededFunction,
    flat_decompose,
    min_entropy,
    push_forward,
    stat_dist,
)
from extrakit.dist import MAX_LENGTH, read_dist, write_dist
from extrakit.errors import (
    DimensionError,
    EntropyDeficitError,
    FormatError,
    InvalidDistributionError,
)
import io


def exact_dists(n=2):
    size = 1 << n

    def build(weights):
        total = sum(weights)
        return Dist(n, [Fraction(w, total) for w in weights])

    return st.lists(
        st.integers(0, 8), min_size=size, max_size=size
    ).filter(lambda w: sum(w) > 0).map(build)


class TestDist:
    def test_exact_must_sum_to_one(self):
        with pytest.raises(InvalidDistributionError):
            Dist(1, [Fraction(1, 2), Fraction(1, 3)])

    def test_float_tolerance(self):
        Dist(1, [0.5, 0.5 + 1e-12])  # inside tol
        with pytest.raises(InvalidDistributionError):
            Dist(1, [0.6, 0.6])

    def test_uniform_point(self):
        u = Dist.uniform(2)
        assert u.prob(3) == Fraction(1, 4)
        p = Dist.point(BitString(2, 1))
        assert p.prob(1) == 1 and p.prob(0) == 0
        assert p.support() == [1]

    def test_exact_float_round_trip(self):
        d = Dist(2, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)])
        f = d.to_float()
        assert not f.exact
        assert f.prob(0) == pytest.approx(0.5)
        assert d.to_exact() is d

    def test_min_entropy(self):
        assert min_entropy(Dist.uniform(3)) == pytest.approx(3.0)
        assert min_entropy(Dist.point(BitString(2, 0))) == pytest.approx(0.0)
        third = Dist(1, [Fraction(1, 3), Fraction(2, 3)])
        assert min_entropy(third) == pytest.approx(math.log2(3 / 2))


class TestStatDist:
    def test_exact_known_value(self):
        a = Dist(1, [Fraction(3, 4), Fraction(1, 4)])
        u = Dist.uniform(1)
        d = stat_dist(a, u)
        assert isinstance(d, Fraction) and d == Fraction(1, 4)

    def test_mixed_exactness_goes_float(self):
        a = Dist(1, [Fraction(3, 4), Fraction(1, 4)])
        b = Dist(1, [0.5, 0.5])
        assert stat_dist(a, b) == pytest.approx(0.25)

    @given(exact_dists(), exact_dists())
    def test_symmetry_and_range(self, x, y):
        d = stat_dist(x, y)
        assert d == stat_dist(y, x)
        assert 0 <= d <= 1
        assert stat_dist(x, x) == 0

    @given(exact_dists(), exact_dists(), exact_dists())
    def test_triangle(self, x, y, z):
        assert stat_dist(x, z) <= stat_dist(x, y) + stat_dist(y, z)


class TestFlatSource:
    def test_dist_is_uniform_on_support(self):
        fs = FlatSource(2, frozenset({0, 3}))
        d = fs.dist()
        assert d.prob(0) == Fraction(1, 2) and d.prob(3) == Fraction(1, 2)
        assert d.prob(1) == 0

    def test_from_strings(self):
        fs = FlatSource.from_strings([BitString(2, 1), BitString(2, 2)])
        assert fs.size == 2


class TestFlatDecompose:
    def test_textbook_mixture(self):
        # (1/2, 1/4, 1/4, 0) at K=2 splits into flat pieces exactly.
        X = Dist(2, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)])
        parts = flat_decompose(X, 2)
        assert all(w > 0 for w, _ in parts)
        assert all(fs.size == 2 for _, fs in parts)
        self._assert_reconstructs(X, parts, 2)

    def test_entropy_deficit_rejected(self):
        X = Dist(2, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)])
        with pytest.raises(EntropyDeficitError):
            flat_decompose(X, 4)  # max prob 1/2 > 1/4

    @given(exact_dists(2), st.integers(1, 4))
    def test_reconstruction_oracle(self, X, K):
        # Oracle: mixing the flat pieces with their weights must give back
        # X itself, exactly — checked per outcome with Fractions.
        if max(X.probs) > Fraction(1, K):
            with pytest.raises(EntropyDeficitError):
                flat_decompose(X, K)
            return
        parts = flat_decompose(X, K)
        self._assert_reconstructs(X, parts, K)

    @staticmethod
    def _assert_reconstructs(X, parts, K):
        acc = [Fraction(0)] * (1 << X.length)
        total = Fraction(0)
        for w, fs in parts:
            assert isinstance(w, Fraction) and w > 0
            assert fs.size == K
            for v in fs.support:
                acc[v] += w / K
            total += w
        assert total == 1
        assert acc == list(X.probs)

    def test_deterministic(self):
        X = Dist(2, [Fraction(5, 12), Fraction(1, 4), Fraction(1, 4), Fraction(1, 12)])
        a = flat_decompose(X, 2)
        b = flat_decompose(X, 2)
        assert [(w, fs.support) for w, fs in a] == [(w, fs.support) for w, fs in b]


class TestPushForward:
    def test_against_direct_summation(self):
        # Oracle: tabulate P[F(x,y)=z] by brute force over all (x, y).
        fn = SeededFunction(2, 1, 2, lambda x, y: x ^ (y + y), name="xor-pad")
        X = Dist(2, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
        out = push_forward(fn, X)
        expect = [Fraction(0)] * 4
        for xv in range(4):
            for yv in range(2):
                z = fn(BitString(2, xv), BitString(1, yv))
                expect[z.value] += X.prob(xv) * Fraction(1, 2)
        assert list(out.probs) == expect

    def test_float_input_stays_float(self):
        fn = SeededFunction(1, 1, 1, lambda x, y: x, name="first")
        out = push_forward(fn, Dist(1, [0.25, 0.75]))
        assert not out.exact
        assert out.prob(1) == pytest.approx(0.75)


class TestSeededFunction:
    def test_length_validation(self):
        fn = SeededFunction(2, 1, 2, lambda x, y: x, name="id")
        with pytest.raises(DimensionError):
            fn(BitString(3, 0), BitString(1, 0))
        with pytest.raises(DimensionError):
            fn(BitString(2, 0), BitString(2, 0))
        bad = SeededFunction(2, 1, 3, lambda x, y: x, name="short")
        with pytest.raises(DimensionError):
            bad(BitString(2, 0), BitString(1, 0))


class TestDistFile:
    def test_exact_round_trip(self):
        X = Dist(2, [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0)])
        buf = io.StringIO()
        write_dist(X, buf)
        back = read_dist(io.StringIO(buf.getvalue()))
        assert back.exact and list(back.probs) == list(X.probs)

    def test_float_round_trip(self):
        X = Dist(1, [0.25, 0.75])
        buf = io.StringIO()
        write_dist(X, buf)
        back = read_dist(io.StringIO(buf.getvalue()))
        assert not back.exact
        assert list(back.probs) == pytest.approx([0.25, 0.75])

    def test_duplicate_line_rejected(self):
        text = "1\n1:0 1/2\n1:0 1/2\n"
        with pytest.raises(FormatError, match="line 3"):
            read_dist(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1"):
            read_dist(io.StringIO("nope\n"))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_float_dist_rejects_non_finite_weights(self, bad):
        for probs in ([bad, bad], [bad, 0.5], [0.5, bad]):
            with pytest.raises(InvalidDistributionError, match="non-finite probability"):
                Dist(1, probs)
        with pytest.raises(InvalidDistributionError, match="non-finite probability"):
            Dist(2, np.array([0.25, 0.25, bad, 0.25]), exact=False)

    def test_negative_infinity_is_a_negative_probability(self):
        with pytest.raises(InvalidDistributionError, match="negative probability"):
            Dist(1, [float("-inf"), 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
    def test_exact_dist_rejects_non_finite_masses(self, bad):
        for probs in ([Fraction(1, 2), bad], [bad, Fraction(1, 2)]):
            with pytest.raises(InvalidDistributionError, match="non-finite probability"):
                Dist(1, probs)
        with pytest.raises(InvalidDistributionError, match="non-finite probability"):
            Dist(1, [0.5, bad], exact=True)


class TestDistHeader:
    @pytest.mark.parametrize("header", ["-1", "25", "40", "2.5", "x", ""])
    def test_header_checked_before_allocating(self, header):
        # the header alone must fail on line 1: a 2^25-entry table is never
        # built, and -1 or 40 give no bare ValueError or MemoryError
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as exc:
                read_dist(io.StringIO(header + "\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line == 1
        assert peak < 1 << 20

    def test_length_bounds_are_accepted(self):
        assert MAX_LENGTH == 24
        with pytest.raises(FormatError, match="line 2: unexpected end"):
            read_dist(io.StringIO("24\n"))
        buf = io.StringIO()
        write_dist(Dist(0, [Fraction(1)]), buf)
        assert read_dist(io.StringIO(buf.getvalue())) == Dist(0, [Fraction(1)])
