"""Codes, designs and the Trevisan graph against the loop oracles.

The library must give the oracles' inner rows and codewords at every
field size t = 1..11, their decoded lists (default and explicit radius),
their greedy designs, their overlap verdicts (ok, witness and note, for
all three kinds, failing families included) and their Trevisan graph
adjacency in plain and strong mode.  The decoder's batches and the
overlap check's row blocks are also shrunk to a few cells, so that every
batch and block boundary is crossed.  The oracles are the loop bodies in
``helpers.py``; nothing here reads the library's tables.
"""

from fractions import Fraction
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import extrakit.design as design_module
import extrakit.ecc as ecc_module
from extrakit import (
    BitString,
    Code,
    DesignFamily,
    TrevisanParams,
    brute_list_decode,
    code_encode,
    greedy_weak_design,
    trevisan_graph,
    verify_design,
)

from helpers import (
    brute_list_decode_oracle,
    encode_value_oracle,
    greedy_weak_design_oracle,
    hadamard_rows_oracle,
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
    # (62, 2) and up have l + m.bit_length() >= 63: Python-int sums
    _same_design(l, m)


@settings(max_examples=40, deadline=None)
@given(l=st.integers(1, 8), m=st.integers(1, 64),
       rho=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)]))
def test_greedy_design_matches_oracle_at_other_rho(l, m, rho):
    _same_design(l, m, rho)


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
       rho=st.sampled_from(RHOS),
       cells=st.one_of(st.just(design_module._BLOCK_CELLS), st.integers(1, 200)))
def test_verify_design_matches_oracle(fam, kind, rho, cells):
    # a few cells per block split the overlap matrix into many row blocks
    with patch.object(design_module, "_BLOCK_CELLS", cells):
        v = verify_design(fam, kind, rho)
    assert (v.ok, v.witness, v.note) == verify_design_oracle(fam, kind, rho)


@pytest.mark.parametrize("l, m", [(3, 100), (4, 128), (62, 2), (64, 5)])
def test_greedy_design_matches_oracle_in_row_blocks(l, m):
    with patch.object(design_module, "_BLOCK_CELLS", 64):
        _same_design(l, m)


def test_verify_design_beyond_machine_integers():
    # elements past 2^63 are renumbered, not cast
    top = 2**70 - 1
    fam = DesignFamily(2**70, 2, ((top, 0), (top, 1), (5, 2**64)))
    for kind in ("design", "weak", "uniform-weak"):
        for rho in (1, 2):
            v = verify_design(fam, kind, rho)
            assert (v.ok, v.witness, v.note) == verify_design_oracle(fam, kind, rho)


# ---------------------------------------------------------------------------
# Trevisan graph


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trevisan_graph_matches_oracle(data):
    t = data.draw(st.integers(1, 3), label="t")
    n = data.draw(st.integers(1, min(t << t, 4)), label="n")
    m = data.draw(st.integers(1, 3), label="m")
    d = data.draw(st.integers(2 * t, 2 * t + 2), label="d")
    rng = Random(data.draw(st.integers(0, 2**32), label="seed"))
    design = DesignFamily(d, 2 * t, tuple(tuple(rng.sample(range(d), 2 * t))
                                          for _ in range(m)))
    code = Code(n, data.draw(st.sampled_from(DELTAS), label="delta"), t)
    p = TrevisanParams(n=n, k=n, m=m, eps=QUARTER, code=code, design=design)
    strong = data.draw(st.booleans(), label="strong")
    G = trevisan_graph(p, strong=strong)
    assert (G.N, G.M, G.D) == (1 << n, 1 << (m + d if strong else m), 1 << d)
    assert (G.adjacency == trevisan_graph_oracle(p, strong)).all()
