"""Toeplitz hashing: matrix semantics, collisions, extraction distance."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from extrakit import (
    BitString,
    Dist,
    ToeplitzFamily,
    collision_prob,
    flat_output_distance,
    hash_eval,
    hash_extractor_eval,
    hash_extractor_map,
)
from extrakit.graph import MAX_HIST_CELLS
from extrakit.hashext import collision_measure, hash_table
from extrakit.errors import DimensionError, InvalidPairError


def all_bitstrings(n):
    return [BitString(n, v) for v in range(1 << n)]


class TestFamilyShape:
    def test_dimensions(self):
        fam = ToeplitzFamily(4, 3)
        assert fam.d == 6          # n + l - 1 diagonals
        assert fam.size == 64      # 2^d members
        assert fam.L == 8          # hash range 2^l

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(DimensionError):
            ToeplitzFamily(0, 1)
        with pytest.raises(DimensionError):
            ToeplitzFamily(1, 0)


class TestMatrixOracle:
    def test_matrix_is_constant_on_diagonals(self):
        fam = ToeplitzFamily(4, 3)
        h = BitString(6, 0b101101)
        T = fam.matrix(h)
        assert len(T) == 3 and all(len(row) == 4 for row in T)
        for i in range(3):
            for j in range(4):
                # entry (i, j) reads diagonal n-1+i-j of the seed
                assert T[i][j] == h.bit(4 - 1 + i - j)
        for i in range(1, 3):
            for j in range(1, 4):
                assert T[i][j] == T[i - 1][j - 1]

    def test_hash_eval_equals_matrix_product(self):
        # Oracle: multiply the explicit matrix by the input over GF(2).
        fam = ToeplitzFamily(5, 3)
        rng = np.random.default_rng(4)
        for _ in range(25):
            h = BitString(fam.d, int(rng.integers(fam.size)))
            x = BitString(5, int(rng.integers(32)))
            T = fam.matrix(h)
            expect = [
                sum(T[i][j] * x.bit(j) for j in range(5)) % 2 for i in range(3)
            ]
            assert list(hash_eval(fam, h, x)) == expect

    def test_linearity(self):
        fam = ToeplitzFamily(4, 2)
        for h in all_bitstrings(fam.d)[::7]:
            for x1 in all_bitstrings(4)[::3]:
                for x2 in all_bitstrings(4)[::5]:
                    assert hash_eval(fam, h, x1 ^ x2) == (
                        hash_eval(fam, h, x1) ^ hash_eval(fam, h, x2)
                    )

    def test_zero_maps_to_zero(self):
        fam = ToeplitzFamily(6, 3)
        for hv in (0, 17, 255):
            h = BitString(fam.d, hv)
            assert hash_eval(fam, h, BitString(6, 0)).value == 0


class TestHashTable:
    def test_matches_pointwise_eval(self):
        fam = ToeplitzFamily(3, 2)
        table = hash_table(fam)
        assert table.shape == (fam.size, 8)
        for hv in range(fam.size):
            for xv in range(8):
                assert int(table[hv, xv]) == hash_eval(
                    fam, BitString(fam.d, hv), BitString(3, xv)
                ).value

    def test_budget(self):
        from extrakit.errors import BudgetExceededError
        with pytest.raises(BudgetExceededError) as exc:
            hash_table(ToeplitzFamily(16, 14), max_bits=24)
        assert (exc.value.requested, exc.value.budget) == (1 << 29, 1 << 24)
        with pytest.raises(BudgetExceededError, match="overflows the uint16 table") as exc:
            hash_table(ToeplitzFamily(1, 17))
        assert (exc.value.requested, exc.value.budget) == (17, 16)
        with pytest.raises(BudgetExceededError) as exc:
            collision_prob(ToeplitzFamily(16, 14), BitString(16, 0), BitString(16, 1),
                           max_bits=24)
        assert (exc.value.requested, exc.value.budget) == (1 << 29, 1 << 24)

    def test_cell_budget_refuses_before_allocating(self, monkeypatch):
        # d = 24 and l = 13 pass the member and uint16 checks, but the
        # table would hold 2^24 * 2^12 cells (128 GiB)
        from extrakit.errors import BudgetExceededError

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(np, "empty", no_alloc)
        fam = ToeplitzFamily(12, 13)
        with pytest.raises(BudgetExceededError) as exc:
            hash_table(fam)
        assert (exc.value.requested, exc.value.budget) == (1 << 36, MAX_HIST_CELLS)
        with pytest.raises(BudgetExceededError) as exc:
            flat_output_distance(fam, range(8))
        assert (exc.value.requested, exc.value.budget) == (1 << 27, MAX_HIST_CELLS)

    def test_wide_output_refused(self):
        # a uint16 table cannot hold 17-bit values, for any caller
        from extrakit.errors import BudgetExceededError
        fam = ToeplitzFamily(2, 17)
        for call in (lambda: collision_prob(fam, BitString(2, 0), BitString(2, 1)),
                     lambda: flat_output_distance(fam, (0, 1))):
            with pytest.raises(BudgetExceededError, match="overflows the uint16 table"):
                call()


class TestCollision:
    def test_reference_values(self):
        fam = ToeplitzFamily(3, 2)
        p = collision_prob(fam, BitString(3, 1), BitString(3, 5))
        assert p == Fraction(1, 4)
        fam1 = ToeplitzFamily(1, 1)
        assert collision_prob(fam1, BitString(1, 0), BitString(1, 1)) == Fraction(1, 2)

    def test_all_pairs_exact_at_small_size(self):
        # Direct all-pairs enumeration: the defining property, no shortcuts.
        fam = ToeplitzFamily(3, 2)
        target = Fraction(1, 4)
        for x1, x2 in combinations(all_bitstrings(3), 2):
            hits = sum(
                hash_eval(fam, h, x1) == hash_eval(fam, h, x2)
                for h in all_bitstrings(fam.d)
            )
            assert Fraction(hits, fam.size) == target
            assert collision_prob(fam, x1, x2) == target

    def test_equal_inputs_rejected(self):
        fam = ToeplitzFamily(3, 2)
        with pytest.raises(InvalidPairError):
            collision_prob(fam, BitString(3, 4), BitString(3, 4))

    def test_collision_measure(self):
        assert collision_measure(Dist.uniform(3)) == Fraction(1, 8)
        assert collision_measure(Dist.point(BitString(2, 1))) == 1
        skew = Dist(1, [Fraction(3, 4), Fraction(1, 4)])
        assert collision_measure(skew) == Fraction(10, 16)


class TestExtractor:
    def test_output_is_seed_then_hash(self):
        fam = ToeplitzFamily(4, 2)
        x, h = BitString(4, 0b1011), BitString(fam.d, 0b10011)
        out = hash_extractor_eval(fam, x, h)
        assert out.length == fam.d + 2
        assert out.prefix(fam.d) == h
        assert out.suffix(2) == hash_eval(fam, h, x)

    def test_map_checks_lengths(self):
        E = hash_extractor_map(ToeplitzFamily(3, 2))
        assert (E.n, E.d, E.m) == (3, 4, 6)
        with pytest.raises(DimensionError):
            E(BitString(4, 0), BitString(4, 0))

    def test_zero_source_gives_seed_and_zeros(self):
        fam = ToeplitzFamily(5, 3)
        h = BitString(fam.d, 0b0110101)
        out = hash_extractor_eval(fam, BitString(5, 0), h)
        assert out == h + BitString(3, 0)


class TestFlatDistance:
    def test_manual_recomputation(self):
        # Oracle: enumerate every (member, source value) pair by hand.
        fam = ToeplitzFamily(2, 1)
        support = (0, 2)
        counts = {}
        for hv in range(fam.size):
            h = BitString(fam.d, hv)
            for xv in support:
                out = hash_extractor_eval(fam, BitString(2, xv), h)
                counts[out.value] = counts.get(out.value, 0) + 1
        total = fam.size * len(support)
        L = 1 << (fam.d + 1)
        u = Fraction(1, L)
        sd = sum(
            (Fraction(counts.get(v, 0), total) - u
             for v in range(L)
             if Fraction(counts.get(v, 0), total) > u),
            Fraction(0),
        )
        assert flat_output_distance(fam, support) == sd

    def test_uniform_source_has_tiny_distance(self):
        # On the full flat source the output is exactly (h, h(x)) with x
        # uniform: distance comes only from hash-value imbalance.
        fam = ToeplitzFamily(2, 1)
        full = flat_output_distance(fam, range(4))
        part = flat_output_distance(fam, (0, 1))
        assert full <= part
