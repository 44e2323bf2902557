"""Generator/extractor tests: restriction order, feasibility gate, prefix
and locality structure, and exact graph-level verification of a tiny
instance.  Oracles: per-bit re-evaluation of restrictions, the feasibility
inequality recomputed in-test, and the exhaustive flat-source verifier.
"""

from fractions import Fraction
from random import Random

import numpy as np
import pytest

from extrakit import (
    BitString,
    BudgetExceededError,
    Code,
    DesignFamily,
    DimensionError,
    FeasibilityError,
    TrevisanParams,
    build_code,
    code_encode,
    greedy_weak_design,
    nw_generate,
    trevisan_build,
    trevisan_eval,
    trevisan_graph,
    trevisan_map,
    verify_design,
    verify_extractor,
    worst_flat_distance,
)
from extrakit.graph import MAX_HIST_CELLS

from helpers import seeded_table_oracle


def restriction_oracle(f: BitString, sets, y: BitString) -> BitString:
    """Recompute each output bit from scratch: read the seed positions of
    set i in increasing order as an MSB-first index into the truth table."""
    bits = []
    for s in sets:
        idx = 0
        for pos in sorted(s):
            idx = (idx << 1) | y.bit(pos)
        bits.append(f.bit(idx))
    return BitString.from_bits(bits)


def toy_params(m: int = 2, eps=Fraction(1, 4)) -> TrevisanParams:
    """Hand-assembled structural instance: 4 message bits, 4-bit truth
    table (t=2), disjoint greedy design."""
    code = Code(4, Fraction(1, 4), 2)
    design = greedy_weak_design(code.l, m, rho=1)
    return TrevisanParams(n=4, k=4, m=m, eps=eps, code=code, design=design)


# ---------------------------------------------------------------------------
# nw_generate


def test_nw_zero_function_gives_zeros():
    design = greedy_weak_design(3, 4, rho=1)
    f = BitString(8)
    for yv in [0, 1, 77, (1 << design.d) - 1]:
        y = BitString(design.d, yv % (1 << design.d))
        assert nw_generate(f, design, y) == BitString(4)


def test_nw_single_full_set_reads_the_seed():
    design = greedy_weak_design(4, 1, rho=1)
    assert design.d == 4 and design.sets == ((0, 1, 2, 3),)
    rng = Random(3)
    for _ in range(20):
        f = BitString(16, rng.getrandbits(16))
        y = BitString(4, rng.randrange(16))
        assert nw_generate(f, design, y) == BitString(1, f.bit(y.value))


def test_nw_matches_per_bit_recomputation():
    design = DesignFamily(9, 3, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (2, 4, 6)))
    assert design.m == 4
    rng = Random(42)
    for _ in range(60):
        f = BitString(8, rng.getrandbits(8))
        y = BitString(9, rng.getrandbits(9))
        assert nw_generate(f, design, y) == restriction_oracle(f, design.sets, y)


def test_nw_dimension_errors():
    design = greedy_weak_design(3, 2, rho=1)
    with pytest.raises(DimensionError):
        nw_generate(BitString(7), design, BitString(design.d))  # table not 2^l
    with pytest.raises(DimensionError):
        nw_generate(BitString(8), design, BitString(design.d + 1))


# ---------------------------------------------------------------------------
# trevisan_build


def test_build_feasible_instances_pinned():
    p = trevisan_build(19, 19, 1, Fraction(255, 256))
    assert (p.d, p.code.t, p.rho_budget) == (12, 6, Fraction(1))
    assert p.delta == Fraction(255, 256) / 4
    q = trevisan_build(48, 44, 2, Fraction(9, 10))
    assert (q.d, q.code.t, q.rho_budget) == (32, 8, Fraction(3, 2))
    for params in (p, q):
        assert params.rho_budget >= 1
        assert verify_design(params.design, "weak", 1).ok
        assert params.code.delta == params.eps / (4 * params.m)


def test_build_feasibility_matches_recomputed_inequality():
    # derive the verdict independently: build the same code and design,
    # evaluate k - 3*ceil(log2(m/eps)) - d - 3 >= m by hand
    cases = [(16, 16, 2, Fraction(1, 2)), (19, 19, 1, Fraction(255, 256)),
             (24, 20, 2, Fraction(1, 2)), (48, 44, 2, Fraction(9, 10))]
    for n, k, m, eps in cases:
        code = build_code(n, eps / (4 * m))
        design = greedy_weak_design(code.l, m, rho=1)
        ratio = Fraction(m) / eps
        log_term = 0
        while Fraction(1 << log_term) < ratio:
            log_term += 1
        feasible = k - 3 * log_term - design.d - 3 >= m
        if feasible:
            built = trevisan_build(n, k, m, eps)
            assert built.d == design.d
        else:
            with pytest.raises(FeasibilityError) as err:
                trevisan_build(n, k, m, eps)
            assert "k - 3*log2(m/eps) - d - 3 >= m" in str(err.value)


def test_build_precondition_errors():
    with pytest.raises(DimensionError):
        trevisan_build(16, 4, 5, Fraction(1, 2))  # m > k
    with pytest.raises(DimensionError):
        trevisan_build(16, 20, 2, Fraction(1, 2))  # k > n
    with pytest.raises(DimensionError):
        trevisan_build(16, 16, 2, Fraction(1))  # eps not in (0, 1)
    with pytest.raises(DimensionError):
        trevisan_build(16, 16, 2, Fraction(0))


# ---------------------------------------------------------------------------
# trevisan_eval structure


def test_eval_zero_source_gives_zeros():
    p = toy_params(m=3)
    for yv in range(0, 1 << p.d, 37):
        assert trevisan_eval(p, BitString(4), BitString(p.d, yv)) == BitString(3)
    big = trevisan_build(19, 19, 1, Fraction(255, 256))
    assert trevisan_eval(big, BitString(19), BitString(big.d, 123)) == BitString(1)


def test_eval_is_generator_on_the_codeword():
    p = toy_params(m=2)
    rng = Random(8)
    for _ in range(30):
        x = BitString(4, rng.randrange(16))
        y = BitString(p.d, rng.getrandbits(p.d))
        table = code_encode(p.code, x)
        assert trevisan_eval(p, x, y) == restriction_oracle(table, p.design.sets, y)


def test_prefix_consistency_exhaustive():
    # truncating the design to its first set must reproduce the first
    # output bit, for every source word and every seed
    full = toy_params(m=2)
    prefix_design = DesignFamily(full.d, 4, full.design.sets[:1])
    pref = TrevisanParams(
        n=4, k=4, m=1, eps=full.eps, code=full.code, design=prefix_design
    )
    for xv in range(16):
        x = BitString(4, xv)
        for yv in range(1 << full.d):
            y = BitString(full.d, yv)
            assert trevisan_eval(full, x, y).prefix(1) == trevisan_eval(pref, x, y)


def test_locality_seed_flips_exhaustive():
    # flipping seed bit j moves output bit i only when j is in S_i
    design = DesignFamily(8, 4, ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5)))
    p = TrevisanParams(
        n=4, k=4, m=3, eps=Fraction(1, 4), code=Code(4, Fraction(1, 4), 2),
        design=design,
    )
    x = BitString(4, 0b1011)
    moved = [False] * 3
    for yv in range(256):
        y = BitString(8, yv)
        base = trevisan_eval(p, x, y)
        for j in range(8):
            flipped = trevisan_eval(p, x, y ^ BitString(8, 1 << (7 - j)))
            for i in range(3):
                if base.bit(i) != flipped.bit(i):
                    assert j in design.sets[i]
                    moved[i] = True
    assert all(moved)  # the check is not vacuous: every bit does respond


def test_params_dimension_validation():
    code = Code(4, Fraction(1, 4), 2)
    design = greedy_weak_design(4, 2, rho=1)
    with pytest.raises(DimensionError):
        TrevisanParams(n=5, k=5, m=2, eps=Fraction(1, 4), code=code, design=design)
    with pytest.raises(DimensionError):
        TrevisanParams(
            n=4, k=4, m=2, eps=Fraction(1, 4), code=code,
            design=greedy_weak_design(3, 2, rho=1),
        )
    with pytest.raises(DimensionError):
        TrevisanParams(n=4, k=4, m=3, eps=Fraction(1, 4), code=code, design=design)
    with pytest.raises(DimensionError):
        trevisan_eval(toy_params(), BitString(5), BitString(8))


# ---------------------------------------------------------------------------
# graph form and exact verification


def test_graph_matches_pointwise_map():
    # the oracle calls the map once per (x, y) pair, through trevisan_eval,
    # while the graph reads the map's table
    p = toy_params(m=2)
    fn = trevisan_map(p)
    G = trevisan_graph(p)
    assert (G.N, G.M, G.D) == (16, 4, 1 << p.d)
    want = seeded_table_oracle(fn, p.n, p.d, p.m, range(16))
    assert (G.adjacency == want).all()


def test_graph_strong_mode_prepends_seed():
    p = toy_params(m=2)
    fn = trevisan_map(p, strong=True)
    rng = Random(6)
    for _ in range(20):
        x = BitString(4, rng.randrange(16))
        y = BitString(p.d, rng.getrandbits(p.d))
        assert fn(x, y) == y + trevisan_eval(p, x, y)
    G = trevisan_graph(p, strong=True)
    assert G.M == 1 << (p.d + p.m)
    want = seeded_table_oracle(fn, p.n, p.d, p.d + p.m, range(16))
    assert (G.adjacency == want).all()


def test_oversize_tables_refused_before_allocating(monkeypatch):
    # the built instance has d = 60; the hand-assembled one has n = 16 and
    # d = 12, 2^28 cells, which fits in memory but not in the budget
    big = trevisan_build(96, 96, 3, Fraction(9, 10))
    wide = TrevisanParams(n=16, k=16, m=2, eps=Fraction(1, 4), code=Code(16, Fraction(1, 4), 3),
                          design=DesignFamily(12, 6, ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))))

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(np, "empty", no_alloc)
    cases = [(lambda s: trevisan_graph(big, s), 1 << (96 + 60)),
             (lambda s: trevisan_graph(wide, s), 1 << 28),
             (lambda s: trevisan_map(big, s).table([0]), 1 << 60),
             (lambda s: trevisan_map(wide, s).table(range(1 << 16)), 1 << 28)]
    for call, cells in cases:
        for strong in (False, True):
            with pytest.raises(BudgetExceededError) as exc:
                call(strong)
            assert (exc.value.requested, exc.value.budget) == (cells, MAX_HIST_CELLS)


def test_tiny_instance_exact_verification():
    # measured worst flat distance on the toy instance, cross-checked
    # against the exhaustive verifier on both sides of the measurement
    p = toy_params(m=2)
    G = trevisan_graph(p)
    K = 4
    _, worst = worst_flat_distance(G, K)
    assert 0 <= worst <= 1
    print(f"toy trevisan n=4 m=2 K={K}: worst flat distance = {worst}")
    if worst > 0:
        assert not verify_extractor(G, K, worst).ok  # strict comparison
    assert verify_extractor(G, K, worst + Fraction(1, 1000)).ok


def test_determinism_across_rebuilds():
    a = trevisan_graph(toy_params(m=2))
    b = trevisan_graph(toy_params(m=2))
    assert (a.adjacency == b.adjacency).all()
