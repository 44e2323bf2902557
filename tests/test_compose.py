"""Composition tests: serial chaining, block and somewhere-random sources,
mergers (two-block, recursive), the pair composition, and the DP evaluator.

Statistical claims are measured exactly on dense toy sources and compared
against error values obtained from the exhaustive graph verifier; the
algorithms themselves are pinned bit-for-bit against hand unrollings.
"""

from fractions import Fraction
from random import Random

import pytest

from extrakit import (
    BitString,
    BlockSource,
    DimensionError,
    Dist,
    InvalidDistributionError,
    Merger,
    SeededFunction,
    SomewhereRandomSource,
    check_block_source,
    check_somewhere_random,
    compose_serial,
    graph_of_function,
    iterated_compose_dp,
    merger_compose,
    merger_output_dist,
    push_forward,
    recursive_merger,
    stat_dist,
    two_block_merger,
    worst_flat_distance,
)

TOL = Fraction(1, 10**9)


def inner_product(x: BitString, y: BitString) -> BitString:
    return BitString(1, (x.value & y.value).bit_count() & 1)


#: 1-bit extractor <x, y> on 2 source bits with a 2-bit seed
F_INNER = SeededFunction(2, 2, 1, inner_product, name="inner")
#: perfect 2-bit extractor x XOR y
F_XOR = SeededFunction(2, 2, 2, lambda x, y: x ^ y, name="xor")


# ---------------------------------------------------------------------------
# compose_serial


def test_serial_identity_inner_map():
    comp = compose_serial(F_INNER, SeededFunction(2, 2, 2, lambda x, y: y))
    assert (comp.n, comp.d, comp.m) == (4, 2, 1)
    for xv in range(16):
        for yv in range(4):
            x, y = BitString(4, xv), BitString(2, yv)
            assert comp(x, y) == F_INNER(x.prefix(2), y)


def test_serial_constant_outer():
    const = SeededFunction(2, 2, 3, lambda x, y: BitString(3, 0b101))
    comp = compose_serial(const, F_XOR)
    for xv in range(16):
        assert comp(BitString(4, xv), BitString(2, xv % 4)) == BitString(3, 0b101)


def test_serial_dimension_mismatch():
    with pytest.raises(DimensionError):
        compose_serial(F_INNER, SeededFunction(2, 2, 3, lambda x, y: y + BitString(1)))


def test_serial_error_bounded_by_sum_of_parts():
    # measured composition error <= eps1 + eps2 where each eps is the
    # exact worst flat distance of the component's graph at its entropy
    eps1_full = worst_flat_distance(graph_of_function(F_INNER), 4)[1]
    eps1_half = worst_flat_distance(graph_of_function(F_INNER), 2)[1]
    eps2 = worst_flat_distance(graph_of_function(F_XOR), 4)[1]
    assert (eps1_full, eps1_half, eps2) == (Fraction(1, 8), Fraction(1, 4), Fraction(0))
    comp = compose_serial(F_INNER, F_XOR)

    # block source 1: both halves uniform and independent (k1 = k2 = 2)
    full = BlockSource(2, 2, Dist.uniform(4), 2, 2)
    assert check_block_source(full).ok
    d_full = stat_dist(push_forward(comp, full.joint), Dist.uniform(1))
    assert d_full <= eps1_full + eps2 + TOL

    # block source 2: first half flat on {01, 10} (k1 = 1), second uniform
    probs = [Fraction(0)] * 16
    for x1 in (1, 2):
        for x2 in range(4):
            probs[(x1 << 2) | x2] = Fraction(1, 8)
    half = BlockSource(2, 2, Dist(4, probs), 1, 2)
    assert check_block_source(half).ok
    d_half = stat_dist(push_forward(comp, half.joint), Dist.uniform(1))
    assert d_half <= eps1_half + eps2 + TOL


# ---------------------------------------------------------------------------
# block sources


def test_block_source_product_of_uniforms_passes():
    s = BlockSource(2, 3, Dist.uniform(5), 2, 3)
    assert check_block_source(s).ok


def test_block_source_copy_fails_conditional():
    probs = [Fraction(0)] * 16
    for v in range(4):
        probs[(v << 2) | v] = Fraction(1, 4)
    s = BlockSource(2, 2, Dist(4, probs), 2, 1)
    verdict = check_block_source(s)
    assert not verdict.ok
    assert verdict.witness == ("conditional", 0)
    # the same joint is fine once nothing is claimed about the second block
    assert check_block_source(BlockSource(2, 2, Dist(4, probs), 2, 0)).ok


def test_block_source_verdict_matches_recomputation():
    rng = Random(31)
    for _ in range(6):
        weights = [rng.randrange(4) for _ in range(64)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        joint = Dist(6, [Fraction(w, total) for w in weights])
        for k1 in range(4):
            for k2 in range(4):
                s = BlockSource(3, 3, joint, k1, k2)
                # independent recomputation with plain dictionaries
                marg = [Fraction(0)] * 8
                for v, p in enumerate(joint.probs):
                    marg[v >> 3] += p
                ok = max(marg) <= Fraction(1, 1 << k1)
                if ok:
                    for x1 in range(8):
                        if marg[x1] == 0:
                            continue
                        row = [joint.probs[(x1 << 3) | x2] for x2 in range(8)]
                        if max(row) / marg[x1] > Fraction(1, 1 << k2):
                            ok = False
                            break
                assert check_block_source(s).ok == ok


def test_block_source_dimension_check():
    with pytest.raises(DimensionError):
        BlockSource(2, 2, Dist.uniform(5), 2, 2)


# ---------------------------------------------------------------------------
# somewhere-random sources


def uniform_block_source(b: int, k: int, tables, selector_weights) -> SomewhereRandomSource:
    """Build a (k, 0, 0) source: under Y=i block i is uniform and every
    other block j is tables[i][j](block_i), a deterministic function."""
    size = 1 << (b * k)
    rows = [[Fraction(0)] * size for _ in range(b + 1)]
    for i in range(1, b + 1):
        w = selector_weights[i - 1]
        if w == 0:
            continue
        for v in range(1 << k):
            blocks = [tables[i - 1][j](v) for j in range(b)]
            blocks[i - 1] = v
            z = 0
            for bl in blocks:
                z = (z << k) | bl
            rows[i][z] += w * Fraction(1, 1 << k)
    return SomewhereRandomSource(b, k, tuple(tuple(r) for r in rows))


def test_somewhere_random_k00_has_full_min_entropy():
    # any (k,0,0)-source bounds every full-contents probability by 2^-k
    rng = Random(7)
    for _ in range(5):
        b, k = 2, 2
        tables = [
            [(lambda v, t=tuple(rng.randrange(4) for _ in range(4)): t[v]) for _ in range(b)]
            for _ in range(b)
        ]
        wts = [Fraction(1, 3), Fraction(2, 3)]
        s = uniform_block_source(b, k, tables, wts)
        assert check_somewhere_random(s).ok
        contents = s.contents_dist()
        assert max(contents.probs) <= Fraction(1, 1 << k)


def test_somewhere_random_violations_are_caught():
    # eta violated: half the mass claims "no good block"
    rows = [
        [Fraction(1, 32)] * 16,
        [Fraction(1, 32)] * 16,
        [Fraction(0)] * 16,
    ]
    s = SomewhereRandomSource(2, 2, tuple(tuple(r) for r in rows), eta=Fraction(1, 4))
    verdict = check_somewhere_random(s)
    assert not verdict.ok and verdict.witness == 0
    # eps violated: block 1 is a point mass under Y=1
    rows = [
        [Fraction(0)] * 16,
        [Fraction(1, 4) if (z >> 2) == 3 else Fraction(0) for z in range(16)],
        [Fraction(0)] * 16,
    ]
    s = SomewhereRandomSource(2, 2, tuple(tuple(r) for r in rows), eps=Fraction(1, 2))
    verdict = check_somewhere_random(s)
    assert not verdict.ok and verdict.witness == 1
    # same source passes once eps admits the measured distance (3/4)
    s = SomewhereRandomSource(2, 2, s.probs, eps=Fraction(3, 4))
    assert check_somewhere_random(s).ok


def test_somewhere_random_ctor_validation():
    with pytest.raises(DimensionError):
        SomewhereRandomSource(2, 2, ([Fraction(1)],))
    bad = [[Fraction(0)] * 16 for _ in range(3)]
    bad[1][0] = Fraction(1, 2)
    with pytest.raises(InvalidDistributionError):
        SomewhereRandomSource(2, 2, tuple(tuple(r) for r in bad))  # sums to 1/2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_somewhere_random_rejects_non_finite_masses(bad):
    with pytest.raises(InvalidDistributionError, match="non-finite probability"):
        SomewhereRandomSource(1, 1, [[0, 0], [0.5, bad]])


# ---------------------------------------------------------------------------
# two-block merger


def test_two_block_merger_is_the_extractor_on_concatenation():
    E = SeededFunction(4, 2, 2, lambda x, y: x.prefix(2) ^ x.suffix(2) ^ y)
    M = two_block_merger(E)
    assert (M.arity, M.k, M.d, M.m) == (2, 2, 2, 2)
    rng = Random(12)
    for _ in range(25):
        z1 = BitString(2, rng.randrange(4))
        z2 = BitString(2, rng.randrange(4))
        y = BitString(2, rng.randrange(4))
        assert M([z1, z2], y) == E(z1 + z2, y)
    with pytest.raises(DimensionError):
        two_block_merger(SeededFunction(3, 1, 1, lambda x, y: y))
    with pytest.raises(DimensionError):
        two_block_merger(E, k=3)


def test_two_block_merger_output_within_verified_error():
    # E ignores its seed: a weak extractor with a large but exactly
    # measurable worst flat distance at K = 2^k
    E = SeededFunction(4, 1, 2, lambda x, y: x.prefix(2) ^ x.suffix(2))
    G = graph_of_function(E)
    _, wfd = worst_flat_distance(G, 4)
    assert wfd == Fraction(3, 4)
    M = two_block_merger(E)

    # somewhere-random (2,0,0) source: Z1 uniform, Z2 a function of Z1
    table = [0, 1, 3, 2]
    s = uniform_block_source(
        2, 2, [[lambda v: v, lambda v: table[v]]] * 2, [Fraction(1), Fraction(0)]
    )
    assert check_somewhere_random(s).ok
    measured = stat_dist(merger_output_dist(M, s), Dist.uniform(2))
    assert measured == Fraction(1, 2)  # blocks XOR to {00, 01} only
    assert measured <= wfd


def test_two_block_merger_degenerate_single_block():
    # b=1 source with a uniform block; feeding (Z1, Z1) into the merger
    # is well formed and the source itself verifies
    E = SeededFunction(4, 1, 2, lambda x, y: x.prefix(2))
    M = two_block_merger(E)
    rows = [[Fraction(0)] * 4, [Fraction(1, 4)] * 4]
    s = SomewhereRandomSource(1, 2, tuple(tuple(r) for r in rows))
    assert check_somewhere_random(s).ok
    for v in range(4):
        z = BitString(2, v)
        assert M([z, z], BitString(1)) == z


# ---------------------------------------------------------------------------
# recursive merger


def shrink_factory(ki: int) -> Merger:
    """2-block merger (ki)^2 x (2) -> (ki - 1): XOR both blocks with the
    zero-padded seed, keep the leading bits."""
    return Merger(
        2, ki, 2, ki - 1,
        lambda blocks, y, ki=ki: (blocks[0] ^ blocks[1] ^ y.pad_to(ki)).prefix(ki - 1),
    )


def test_recursive_merger_level_zero_is_identity():
    M = recursive_merger(shrink_factory, 0, 3)
    assert (M.arity, M.d, M.m) == (1, 0, 3)
    for v in range(8):
        assert M([BitString(3, v)], BitString(0)) == BitString(3, v)


def test_recursive_merger_level_one_is_single_application():
    M = recursive_merger(shrink_factory, 1, 3)
    base = shrink_factory(3)
    rng = Random(5)
    for _ in range(20):
        blocks = [BitString(3, rng.randrange(8)) for _ in range(2)]
        y = BitString(2, rng.randrange(4))
        assert M(blocks, y) == base(blocks, y)


def test_recursive_merger_level_two_matches_hand_unrolling():
    M = recursive_merger(shrink_factory, 2, 3)
    assert (M.arity, M.k, M.d, M.m) == (4, 3, 4, 1)
    top = shrink_factory(3)   # first round: 4 -> 2 blocks, last seed segment
    low = shrink_factory(2)   # second round: 2 -> 1 blocks, first segment
    rng = Random(99)
    for _ in range(40):
        blocks = [BitString(3, rng.randrange(8)) for _ in range(4)]
        y = BitString(4, rng.randrange(16))
        seg_first, seg_last = y.slice(0, 2), y.slice(2, 4)
        expect = low(
            [top(blocks[0:2], seg_last), top(blocks[2:4], seg_last)], seg_first
        )
        assert M(blocks, y) == expect


def test_recursive_merger_shapes_and_errors():
    for l in range(4):
        M = recursive_merger(shrink_factory, l, 5)
        assert (M.arity, M.d, M.m) == (1 << l, 2 * l, 5 - l)
    with pytest.raises(DimensionError):
        recursive_merger(shrink_factory, -1, 3)
    with pytest.raises(DimensionError):
        # wrong arity from the factory
        recursive_merger(lambda k: Merger(3, k, 2, k, lambda b, y: b[0]), 1, 3)
    with pytest.raises(DimensionError):
        # inconsistent seed length at the second level
        def bad(ki):
            d = 2 if ki == 3 else 1
            return Merger(2, ki, d, ki - 1, lambda b, y: b[0].prefix(ki - 1))
        recursive_merger(bad, 2, 3)


# ---------------------------------------------------------------------------
# merger_compose and the DP evaluator


def concat_merger(arity: int, k: int) -> Merger:
    return Merger(
        arity, k, 1, arity * k,
        lambda blocks, y: BitString.from_bits([b for blk in blocks for b in blk]),
        name="concat",
    )


#: toy pair for composition: 2-bit source words
E1_TOY = SeededFunction(2, 1, 1, lambda x, y: inner_product(x, BitString(2, 0b11)) ^ y)
E2_TOY = SeededFunction(2, 1, 2, lambda x, y: x ^ (y + y))


def test_merger_compose_matches_step_oracle():
    M = concat_merger(2, 2)
    for av in range(4):
        for r1v in range(2):
            for r2v in range(2):
                a = BitString(2, av)
                r1, r2 = BitString(1, r1v), BitString(1, r2v)
                got = merger_compose(E1_TOY, E2_TOY, M, a, r1, r2)
                # independent recomputation of the q/z cascade
                blocks = []
                for i in (1, 2):
                    q_i = E1_TOY(a.slice(i - 1, 2).pad_to(2), r1)
                    z_i = E2_TOY(a.slice(0, i - 1).pad_to(2), q_i)
                    blocks.append(z_i)
                assert got == M(blocks, r2)


def test_merger_compose_single_position():
    M = concat_merger(1, 2)
    a = BitString(1, 1)
    E1 = SeededFunction(1, 1, 1, lambda x, y: x ^ y)
    E2 = SeededFunction(1, 1, 2, lambda x, y: x + y)
    z1 = E2(BitString(1), E1(a, BitString(1, 0)))
    assert merger_compose(E1, E2, M, a, BitString(1, 0), BitString(1, 1)) == z1


def test_merger_compose_constant_extractors():
    M = concat_merger(2, 2)
    c1 = SeededFunction(2, 1, 1, lambda x, y: BitString(1, 1))
    c2 = SeededFunction(2, 1, 2, lambda x, y: BitString(2, 0b10))
    for av in range(4):
        got = merger_compose(c1, c2, M, BitString(2, av), BitString(1), BitString(1))
        assert got == BitString(4, 0b1010)


def test_merger_compose_dimension_errors():
    M = concat_merger(2, 2)
    with pytest.raises(DimensionError):
        merger_compose(E1_TOY, E2_TOY, M, BitString(3), BitString(1), BitString(1))
    bad_e2 = SeededFunction(2, 2, 2, lambda x, y: y)
    with pytest.raises(DimensionError):
        merger_compose(E1_TOY, bad_e2, M, BitString(2), BitString(1), BitString(1))
    with pytest.raises(DimensionError):
        merger_compose(E1_TOY, E2_TOY, concat_merger(3, 2), BitString(2),
                       BitString(1), BitString(1))


def test_dp_single_extractor_is_plain_evaluation():
    for xv in range(4):
        for yv in range(2):
            x, y = BitString(2, xv), BitString(1, yv)
            assert iterated_compose_dp([E1_TOY], [], x, y, []) == E1_TOY(x, y)


def test_dp_two_levels_equals_merger_compose_exhaustively():
    M = concat_merger(2, 2)
    for xv in range(4):
        for yv in range(2):
            for rv in range(2):
                x = BitString(2, xv)
                y, r2 = BitString(1, yv), BitString(1, rv)
                assert iterated_compose_dp(
                    [E1_TOY, E2_TOY], [M], x, y, [r2]
                ) == merger_compose(E1_TOY, E2_TOY, M, x, y, r2)


def test_dp_constant_extractors_ignore_source():
    c1 = SeededFunction(2, 1, 1, lambda x, y: BitString(1))
    c2 = SeededFunction(2, 1, 2, lambda x, y: BitString(2, 0b01))
    M = concat_merger(2, 2)
    outs = {
        iterated_compose_dp([c1, c2], [M], BitString(2, xv), BitString(1), [BitString(1)])
        for xv in range(4)
    }
    assert outs == {BitString(4, 0b0101)}


def test_dp_three_levels_runs_and_is_deterministic():
    M1 = concat_merger(2, 2)
    E3 = SeededFunction(2, 4, 1, lambda x, y: inner_product(x.pad_to(4), y))
    M2 = concat_merger(2, 1)
    args = (BitString(2, 0b10), BitString(1, 1), [BitString(1, 0), BitString(1, 1)])
    first = iterated_compose_dp([E1_TOY, E2_TOY, E3], [M1, M2], *args)
    assert first.length == 2
    assert first == iterated_compose_dp([E1_TOY, E2_TOY, E3], [M1, M2], *args)


def test_dp_dimension_errors():
    with pytest.raises(DimensionError):
        iterated_compose_dp([E1_TOY, E2_TOY], [], BitString(2), BitString(1), [])
    with pytest.raises(DimensionError):
        iterated_compose_dp(
            [E1_TOY, SeededFunction(2, 2, 2, lambda x, y: y)],
            [concat_merger(2, 2)], BitString(2), BitString(1), [BitString(1)],
        )


# ---------------------------------------------------------------------------
# merger output distribution


def test_merger_output_dist_matches_brute_force():
    E = SeededFunction(4, 2, 2, lambda x, y: x.prefix(2) ^ x.suffix(2) ^ y)
    M = two_block_merger(E)
    table = [2, 2, 1, 0]
    s = uniform_block_source(
        2, 2, [[lambda v: v, lambda v: table[v]]] * 2, [Fraction(1), Fraction(0)]
    )
    got = merger_output_dist(M, s)
    # independent route: marginalize the selector first, then average the
    # merger over source contents and an explicit uniform seed
    contents = s.contents_dist()
    acc = [Fraction(0)] * 4
    for z, p in enumerate(contents.probs):
        if p == 0:
            continue
        z1, z2 = BitString(2, z >> 2), BitString(2, z & 3)
        for yv in range(4):
            out = M([z1, z2], BitString(2, yv))
            acc[out.value] += p * Fraction(1, 4)
    assert got.probs == tuple(acc) or list(got.probs) == acc
    with pytest.raises(DimensionError):
        merger_output_dist(M, uniform_block_source(
            3, 2,
            [[lambda v: v] * 3 for _ in range(3)],
            [Fraction(1, 3)] * 3,
        ))
