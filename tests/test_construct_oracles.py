"""Codes, designs and the Trevisan graph against the loop oracles.

The library must give the oracles' inner rows and codewords at every
field size t = 1..11, their decoded lists (default and explicit radius),
their greedy designs and greedy blocks (with the blocks' running sums),
their overlap verdicts (ok, witness and note, for all three kinds,
failing families included) and their Trevisan graph adjacency in plain
and strong mode.  The Trevisan map's ``table`` must give the oracle's
rows for any list of source values, and its push-forward the per-pair
oracle's weights; the feasibility gate's log2(m/eps) term must equal the
Fraction loop's.  The decoder's batches are also shrunk to a few cells,
so that every batch boundary is crossed.  The oracles are the loop bodies
in ``helpers.py``; nothing here reads the library's tables.
"""

import functools
from fractions import Fraction
from random import Random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import extrakit.design as design_module
import extrakit.ecc as ecc_module
import extrakit.trevisan as trevisan_module
from extrakit import (
    BitString,
    Code,
    DesignFamily,
    TrevisanParams,
    brute_list_decode,
    code_encode,
    greedy_weak_design,
    push_forward,
    trevisan_build,
    trevisan_graph,
    trevisan_map,
    verify_design,
)
from extrakit.errors import DimensionError, FeasibilityError

from helpers import (
    brute_list_decode_oracle,
    build_block_oracle,
    ceil_log2_oracle,
    encode_value_oracle,
    greedy_weak_design_oracle,
    hadamard_rows_oracle,
    push_forward_oracle,
    running_sums_oracle,
    source_dist,
    trevisan_graph_oracle,
    verify_design_oracle,
)

QUARTER = Fraction(1, 4)
DELTAS = [Fraction(1, 8), QUARTER, Fraction(1, 3), Fraction(3, 8)]
RHOS = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
        Fraction(2), Fraction(7, 3), Fraction(4), Fraction(10**30)]


# ---------------------------------------------------------------------------
# codes


@pytest.mark.parametrize("t", range(1, 12))
def test_inner_rows_match_bitwise_oracle(t):
    # a single-symbol message v is the constant polynomial v, so its
    # codeword is inner row v repeated at all 2^t field points
    width = 1 << t
    code = Code(t, QUARTER, t)
    rows = hadamard_rows_oracle(t)
    repeat = ((1 << code.nbar) - 1) // ((1 << width) - 1)
    picks = range(width) if t <= 7 else Random(t).sample(range(width), 16)
    for v in picks:
        assert code_encode(code, BitString(t, v)).value == rows[v] * repeat, v


@pytest.mark.parametrize("t", range(1, 12))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_codewords_match_oracle(t, data):
    n = data.draw(st.integers(1, min(t << t, 160)), label="n")
    code = Code(n, data.draw(st.sampled_from(DELTAS), label="delta"), t)
    xv = data.draw(st.integers(0, (1 << n) - 1), label="x")
    assert code_encode(code, BitString(n, xv)).value == encode_value_oracle(code, xv)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), cells=st.one_of(st.just(ecc_module._BATCH_CELLS), st.integers(1, 40)))
def test_list_decode_matches_oracle(data, cells):
    # a few cells per batch split both the field points and the messages
    t = data.draw(st.integers(1, 4), label="t")
    n = data.draw(st.integers(1, min(t << t, 8)), label="n")
    code = Code(n, data.draw(st.sampled_from(DELTAS), label="delta"), t)
    rng = Random(data.draw(st.integers(0, 2**32), label="seed"))
    if data.draw(st.booleans(), label="near a codeword"):
        word = encode_value_oracle(code, rng.randrange(1 << n))
        flips = rng.sample(range(code.nbar), rng.randrange(code.nbar // 2 + 1))
        center = BitString(code.nbar, word ^ sum(1 << i for i in flips))
    else:
        center = BitString(code.nbar, rng.getrandbits(code.nbar))
    radius = data.draw(st.one_of(
        st.none(),
        st.sampled_from([Fraction(-1, 4), Fraction(0), Fraction(1, 8), Fraction(1, 3),
                         Fraction(1, 2), Fraction(1), Fraction(10**20, 3)]),
    ), label="radius")
    with patch.object(ecc_module, "_BATCH_CELLS", cells):
        found = brute_list_decode(code, center, radius)
    assert found == brute_list_decode_oracle(code, center, radius)


# ---------------------------------------------------------------------------
# designs


def _same_design(l, m, rho=1):
    fam = greedy_weak_design(l, m, rho=rho)
    assert (fam.d, fam.sets) == greedy_weak_design_oracle(l, m, rho), (l, m, rho)


def test_greedy_design_matches_oracle_on_grid():
    for l in range(1, 9):
        for m in range(1, 65):
            _same_design(l, m)


@pytest.mark.parametrize("l, m", [(3, 100), (4, 128), (10, 128), (12, 256), (16, 512),
                                  (62, 2), (64, 5), (70, 9)])
def test_greedy_design_matches_oracle_large(l, m):
    # (3, 100) and (4, 128) force a set to share two elements with an
    # earlier one, so the weight 2^inter must double, not just grow;
    # (62, 2) and up have l + m.bit_length() >= 63: sums past int64
    _same_design(l, m)


@settings(max_examples=40, deadline=None)
@given(l=st.integers(1, 8), m=st.integers(1, 64),
       rho=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)]))
def test_greedy_design_matches_oracle_at_other_rho(l, m, rho):
    _same_design(l, m, rho)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), count=st.integers(1, 40), l=st.integers(1, 10))
def test_build_block_matches_oracle(data, count, l):
    # u = l leaves no choice, u = l*count allows disjoint sets; values in
    # between make the greedy trade overlaps against each other
    u = data.draw(st.one_of(st.just(l), st.just(l * count), st.integers(l, l * count)),
                  label="u")
    block, sums = design_module._build_block(count, l, u)
    assert block == build_block_oracle(count, l, list(range(u)))
    assert sums == running_sums_oracle(block)


@st.composite
def families(draw):
    d = draw(st.integers(1, 72))
    l = draw(st.integers(0, min(d, 70)))
    m = draw(st.integers(0, 12))
    rng = Random(draw(st.integers(0, 2**32)))
    pool = rng.sample(range(d), min(d, l + draw(st.integers(0, 3))))
    # a small pool makes overlaps, and so failures, likely
    return DesignFamily(d, l, tuple(tuple(rng.sample(pool, l)) for _ in range(m)))


@settings(max_examples=500, deadline=None)
@given(fam=families(), kind=st.sampled_from(["design", "weak", "uniform-weak"]),
       rho=st.sampled_from(RHOS))
def test_verify_design_matches_oracle(fam, kind, rho):
    v = verify_design(fam, kind, rho)
    assert (v.ok, v.witness, v.note) == verify_design_oracle(fam, kind, rho)


@pytest.mark.parametrize("l, m", [(3, 100), (4, 128), (62, 2), (64, 5)])
def test_greedy_design_matches_oracle_in_row_blocks(l, m):
    # the weak check of the builder's design: doubled weights and sums
    # past int64 must give the oracle's verdict, now in one pass over the
    # per-element holder lists rather than in row blocks
    fam = greedy_weak_design(l, m)
    v = verify_design(fam, "weak", 1)
    assert (fam.d, fam.sets) == greedy_weak_design_oracle(l, m), (l, m)
    assert (v.ok, v.witness, v.note) == verify_design_oracle(fam, "weak", 1)


def test_verify_design_beyond_machine_integers():
    # elements past 2^63 are Python ints throughout, never cast
    top = 2**70 - 1
    fam = DesignFamily(2**70, 2, ((top, 0), (top, 1), (5, 2**64)))
    for kind in ("design", "weak", "uniform-weak"):
        for rho in (1, 2):
            v = verify_design(fam, kind, rho)
            assert (v.ok, v.witness, v.note) == verify_design_oracle(fam, kind, rho)


# ---------------------------------------------------------------------------
# Trevisan graph


@st.composite
def trevisan_params(draw):
    """Hand-assembled params with n <= 4 and d <= 2t + 2, small enough for
    the per-pair oracles."""
    t = draw(st.integers(1, 3), label="t")
    n = draw(st.integers(1, min(t << t, 4)), label="n")
    m = draw(st.integers(1, 3), label="m")
    d = draw(st.integers(2 * t, 2 * t + 2), label="d")
    rng = Random(draw(st.integers(0, 2**32), label="seed"))
    design = DesignFamily(d, 2 * t, tuple(tuple(rng.sample(range(d), 2 * t))
                                          for _ in range(m)))
    code = Code(n, draw(st.sampled_from(DELTAS), label="delta"), t)
    return TrevisanParams(n=n, k=n, m=m, eps=QUARTER, code=code, design=design)


@settings(max_examples=25, deadline=None)
@given(p=trevisan_params(), strong=st.booleans())
def test_trevisan_graph_matches_oracle(p, strong):
    G = trevisan_graph(p, strong=strong)
    n, m, d = p.n, p.m, p.d
    assert (G.N, G.M, G.D) == (1 << n, 1 << (m + d if strong else m), 1 << d)
    assert (G.adjacency == trevisan_graph_oracle(p, strong)).all()


@settings(deadline=None)
@given(data=st.data(), p=trevisan_params(), strong=st.booleans())
def test_trevisan_table_matches_oracle(data, p, strong):
    # unsorted source values, repeats and the empty list
    xs = data.draw(st.lists(st.integers(0, (1 << p.n) - 1), max_size=(1 << p.n) + 4),
                   label="xs")
    got = trevisan_map(p, strong).table(xs)
    assert got.dtype == np.int64 and got.shape == (len(xs), 1 << p.d)
    assert np.array_equal(got, trevisan_graph_oracle(p, strong)[xs])


@st.composite
def trevisan_push_cases(draw):
    p = draw(trevisan_params())
    support = draw(st.lists(st.integers(0, (1 << p.n) - 1), min_size=1,
                            max_size=(1 << p.n) + 4))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    return p, source_dist(p.n, support, weights, draw(st.booleans()))


@settings(deadline=None)
@given(case=trevisan_push_cases(), strong=st.booleans())
def test_trevisan_push_forward_matches_oracle(case, strong):
    p, X = case
    F = trevisan_map(p, strong)
    got = push_forward(F, X)
    want = push_forward_oracle(F, X)
    if X.exact:
        assert got.exact and list(got.probs) == want
        assert sum(want) == 1
    else:
        assert not got.exact
        assert got.probs.dtype == np.float64
        assert got.probs.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


@pytest.mark.parametrize("strong", [False, True])
def test_trevisan_table_checks_source_values(strong):
    p = TrevisanParams(n=4, k=4, m=2, eps=QUARTER, code=Code(4, QUARTER, 2),
                       design=DesignFamily(5, 4, ((0, 1, 2, 3), (1, 2, 3, 4))))
    F = trevisan_map(p, strong)
    for xs in ([16], [-1], [1 << 70]):
        with pytest.raises(DimensionError):
            F.table(xs)
    assert F.table([]).shape == (0, 32)


# ---------------------------------------------------------------------------
# the feasibility gate's log2(m/eps) term


@st.composite
def gate_cases(draw):
    """m in 1..64 and eps in (0, 1): any fraction, or m/eps at or next to
    a power of two."""
    m = draw(st.integers(1, 64), label="m")
    if draw(st.booleans(), label="near a power of two"):
        c = draw(st.integers(m.bit_length(), m.bit_length() + 40), label="c")
        eps = Fraction(m, (1 << c) + draw(st.integers(-1, 1), label="off"))
    else:
        eps = draw(st.fractions(0, 1, max_denominator=1 << 40), label="eps")
    assume(0 < eps < 1)
    return m, eps, draw(st.integers(m, 160), label="k")


#: The gate's designs depend only on m here: each is built once.
_gate_design = functools.lru_cache(maxsize=None)(greedy_weak_design)


@settings(deadline=None)
@given(case=gate_cases())
def test_build_log_term_matches_oracle(case):
    # the field is pinned at t = 5 (n <= 160), so that every (m, eps)
    # gets a code; the gate's arithmetic does not read the code
    m, eps, k = case
    log_term = ceil_log2_oracle(Fraction(m) / eps)
    with patch.object(trevisan_module, "build_code", lambda n, delta: Code(n, delta, 5)), \
            patch.object(trevisan_module, "greedy_weak_design", _gate_design):
        d = _gate_design(10, m, rho=1).d
        slack = k - 3 * log_term - d - 3
        if slack >= m:
            assert trevisan_build(k, k, m, eps).rho_budget == Fraction(slack, m)
        else:
            with pytest.raises(FeasibilityError) as err:
                trevisan_build(k, k, m, eps)
            assert str(err.value) == (
                f"infeasible: k - 3*log2(m/eps) - d - 3 >= m fails "
                f"({k} - 3*{log_term} - {d} - 3 = {slack} < {m})"
            )
