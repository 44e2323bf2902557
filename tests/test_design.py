"""Overlap designs: exact verification and the greedy construction."""

import heapq
import io
import math
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import pytest

import extrakit.design as design_module
from extrakit import DesignFamily, greedy_weak_design, verify_design
from extrakit.design import read_design, write_design
from extrakit.errors import DimensionError, FeasibilityError, FormatError


def disjoint_family(l, m):
    return DesignFamily(l * m, l, tuple(
        tuple(range(i * l, (i + 1) * l)) for i in range(m)
    ))


class TestDesignFamily:
    def test_sets_normalized_sorted(self):
        fam = DesignFamily(4, 2, ((3, 1), (0, 2)))
        assert fam.sets == ((1, 3), (0, 2))

    def test_duplicate_elements_rejected(self):
        with pytest.raises(DimensionError):
            DesignFamily(4, 2, ((1, 1),))

    def test_universe_bounds(self):
        with pytest.raises(DimensionError):
            DesignFamily(3, 2, ((1, 3),))


class TestVerifyDesign:
    def test_disjoint_passes_everything(self):
        fam = disjoint_family(3, 4)
        assert verify_design(fam, "design", 1)
        assert verify_design(fam, "weak", 1)
        assert verify_design(fam, "uniform-weak", 1)

    def test_identical_sets_fail_weak_at_j2(self):
        fam = DesignFamily(3, 3, ((0, 1, 2),) * 4)
        verdict = verify_design(fam, "weak", 1)
        assert not verdict
        assert verdict.witness == 2  # 1-based: S_2 already busts the budget

    def test_single_overlap_arithmetic(self):
        # S1={0,1}, S2={1,2}: overlap 1, so the pair costs 2^1 = 2.
        fam = DesignFamily(3, 2, ((0, 1), (1, 2)))
        assert not verify_design(fam, "design", 1)
        assert verify_design(fam, "design", 2)
        # weak with m=2: budget rho*(m-1) = 2 at rho=2, sum is 2 -> pass
        assert verify_design(fam, "weak", 2)
        assert not verify_design(fam, "weak", 1)

    def test_uniform_weak_tracks_position(self):
        # Three sets where S3 overlaps both others in one element: the
        # j=3 sum is 4 > rho*(j-1) = 2 at rho=1, but the plain weak
        # budget rho*(m-1) = 2 also fails; at rho=2 uniform passes.
        fam = DesignFamily(5, 2, ((0, 1), (2, 3), (1, 2)))
        assert not verify_design(fam, "uniform-weak", 1)
        assert verify_design(fam, "uniform-weak", 2)

    def test_design_witness_is_least_earlier_set(self):
        # S3 meets S2 by its first element and S1 by its second; S1 and
        # S2 are disjoint, so both pairs (1, 3) and (2, 3) fail first
        fam = DesignFamily(4, 2, ((2, 3), (0, 1), (1, 2)))
        assert verify_design(fam, "design", 1).witness == (1, 3)

    def test_fractional_rho(self):
        fam = disjoint_family(2, 3)
        # disjoint pairs cost 2^0 = 1 each; j=3 sum = 2 > (1/2)*(m-1) = 1
        assert not verify_design(fam, "weak", Fraction(1, 2))

    def test_budgets_compared_exactly_near_2_to_61(self):
        # three identical 60-sets: running sums 2^60 and 2^61.  With
        # rho = 2^60 - 1/3 the weak budget 2^61 - 2/3 rounds to 2^61 as a
        # float, but S_3 exceeds it exactly.
        fam = DesignFamily(60, 60, (tuple(range(60)),) * 3)
        rho = Fraction(3 * 2**60 - 1, 3)
        verdict = verify_design(fam, "weak", rho)
        assert (verdict.ok, verdict.witness) == (False, 3)
        assert verdict.note == f"sum {2**61} > {2 * rho}"
        assert not verify_design(fam, "uniform-weak", rho)
        assert verify_design(fam, "weak", rho + Fraction(1, 3))

    def test_huge_universe_allocates_only_elements_in_use(self):
        fam = DesignFamily(10**9, 2, ((0, 1), (2, 3)))
        tracemalloc.start()
        try:
            verdicts = [verify_design(fam, kind, 1) for kind in
                        ("design", "weak", "uniform-weak")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(verdicts)
        assert peak < 1 << 20

    def test_large_family_checked_in_row_blocks(self):
        # 2048 disjoint 16-sets far apart in [10^9], except that the last
        # shares two elements with the first: an (m, m, l) array of the
        # pairs' elements would be 64 MB, the holder lists are m * l entries
        l, m = 16, 2048
        sets = [tuple(j * 400_000 + k for k in range(l)) for j in range(m)]
        sets[-1] = sets[0][:2] + sets[-1][2:]
        fam = DesignFamily(10**9, l, tuple(sets))
        tracemalloc.start()
        try:
            design = verify_design(fam, "design", 1)
            weak = verify_design(fam, "weak", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (design.ok, design.witness) == (False, (1, m))
        assert (weak.ok, weak.witness, weak.note) == (False, m, f"sum {m + 2} > {m - 1}")
        assert verify_design(fam, "design", 4) and verify_design(fam, "weak", 2)
        assert peak < 12 << 20

    def test_repeated_elements_checked_in_row_blocks(self):
        # 2048 copies of one 16-set: only 16 elements are in use, but
        # their holder lists grow with m * l
        l, m = 16, 2048
        fam = DesignFamily(l, l, (tuple(range(l)),) * m)
        tracemalloc.start()
        try:
            weak = verify_design(fam, "weak", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (weak.ok, weak.witness, weak.note) == (False, 2, f"sum {2**l} > {m - 1}")
        assert peak < 12 << 20

    def test_unknown_kind(self):
        with pytest.raises(DimensionError):
            verify_design(disjoint_family(2, 2), "strong", 1)


class TestGreedyWeakDesign:
    def test_sweep_slice_passes_with_bounded_universe(self):
        # the fast daily slice of the acceptance sweep
        for l in (1, 2, 3, 5, 8):
            for m in (1, 2, 7, 16, 33):
                fam = greedy_weak_design(l, m, rho=1)
                assert fam.m == m and fam.l == l
                assert verify_design(fam, "weak", 1), (l, m)
                cap = 4 * l * l * max(1, math.ceil(math.log2(m)) if m > 1 else 1)
                assert fam.d <= cap, (l, m, fam.d, cap)

    def test_deterministic(self):
        a = greedy_weak_design(3, 9)
        b = greedy_weak_design(3, 9)
        assert a == b

    def test_single_set(self):
        fam = greedy_weak_design(4, 1)
        assert fam.m == 1 and fam.d >= 4
        assert verify_design(fam, "weak", 1)

    def test_infeasible_rho_below_one(self):
        with pytest.raises(FeasibilityError):
            greedy_weak_design(2, 3, rho=Fraction(1, 2))

    def test_rho_below_one_single_set_fine(self):
        fam = greedy_weak_design(2, 1, rho=Fraction(1, 2))
        assert fam.m == 1

    def test_overshooting_block_retries_on_doubled_universe(self):
        # no real greedy block at rho = 1 overshoots, so the first call
        # returns one set repeated: its running sums j * 2^l pass the
        # budget m - 1 = 15 from j = 4 on
        real = design_module._build_block
        calls = []

        def build(count, l, u):
            calls.append((count, l, u))
            if len(calls) == 1:
                return [tuple(range(l))] * count, [j << l for j in range(count)]
            return real(count, l, u)

        with patch.object(design_module, "_build_block", build):
            fam = greedy_weak_design(2, 16)
        # the first block has 8 sets on u = (3*2*2 + 1) // 2 = 6 < 2*8
        assert calls[:2] == [(8, 2, 6), (8, 2, 12)]
        assert fam.m == 16
        assert verify_design(fam, "weak", 1)

    def test_block_base_keys_stay_exact_across_sets(self):
        # with room for disjoint sets, every pick is an unused element of
        # cost 0, the least key of an up-to-date base list: no key is
        # found stale and pushed back for re-evaluation
        real_push = heapq.heappush
        pushes = []

        def push(heap, key):
            pushes.append(key)
            real_push(heap, key)

        with patch.object(heapq, "heappush", push):
            block, sums = design_module._build_block(12, 5, 60)
        assert block == [tuple(range(5 * k, 5 * k + 5)) for k in range(12)]
        assert sums == list(range(12))
        assert pushes == []


class TestDesignFile:
    def test_round_trip_byte_exact(self):
        fam = greedy_weak_design(3, 5)
        buf = io.StringIO()
        write_design(fam, buf)
        text = buf.getvalue()
        back = read_design(io.StringIO(text))
        assert back == fam
        buf2 = io.StringIO()
        write_design(back, buf2)
        assert buf2.getvalue() == text

    def test_wrong_cardinality_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            read_design(io.StringIO("4 2 1\n0 1 2\n"))

    def test_truncated(self):
        with pytest.raises(FormatError, match="line 3"):
            read_design(io.StringIO("4 2 2\n0 1\n"))
