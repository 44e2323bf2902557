"""Toeplitz hashing and seeded-map tabulation against the loop oracles.

``hash_table``, ``collision_prob`` and ``flat_output_distance`` must give
the per-input column oracle's arrays and Fractions; the hash extractor's
graph must equal the per-pair loop; and ``push_forward`` through the hash
extractor must give ``push_forward_oracle``'s weights, Fraction for
Fraction on exact sources and bit for bit on float ones.  Supports may
repeat values.  The oracles are in ``helpers.py``.
"""

from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from extrakit import (
    BitString,
    Dist,
    SeededFunction,
    ToeplitzFamily,
    collision_prob,
    flat_output_distance,
    graph_of_function,
    hash_extractor_map,
    push_forward,
)
import extrakit.hashext as hashext_module
from extrakit.errors import DimensionError
from extrakit.hashext import hash_table

from helpers import (
    adjacency_dtype_oracle,
    collision_prob_oracle,
    flat_output_distance_oracle,
    hash_table_oracle,
    push_forward_oracle,
    seeded_table_oracle,
    source_dist,
)

families = st.builds(ToeplitzFamily, st.integers(1, 6), st.integers(1, 6))
# graph and push-forward oracles call the map once per (x, h) pair
small_families = families.filter(lambda f: f.n + f.l <= 8)


def supports(n):
    return st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=(1 << n) + 4)


@settings(deadline=None)
@given(families)
def test_hash_table_matches_columns(fam):
    table = hash_table(fam)
    assert table.dtype == np.uint16
    assert np.array_equal(table, hash_table_oracle(fam))


@settings(deadline=None)
@given(families.flatmap(lambda f: st.tuples(
    st.just(f), st.integers(0, (1 << f.n) - 1), st.integers(0, (1 << f.n) - 1))))
def test_collision_prob_matches_oracle(case):
    fam, x1, x2 = case
    assume(x1 != x2)
    got = collision_prob(fam, BitString(fam.n, x1), BitString(fam.n, x2))
    assert isinstance(got, Fraction)
    assert got == collision_prob_oracle(fam, x1, x2)


@settings(deadline=None, max_examples=60)
@given(families.flatmap(lambda f: st.tuples(st.just(f), supports(f.n))))
def test_flat_output_distance_matches_oracle(case):
    fam, support = case
    got = flat_output_distance(fam, support)
    assert isinstance(got, Fraction)
    assert got == flat_output_distance_oracle(fam, support)


@settings(deadline=None)
@given(small_families)
def test_hash_extractor_graph_matches_pair_loop(fam):
    E = hash_extractor_map(fam)
    G = graph_of_function(E)
    assert (G.N, G.M, G.D) == (1 << fam.n, 1 << (fam.d + fam.l), fam.size)
    want = seeded_table_oracle(E, E.n, E.d, E.m, range(1 << fam.n))
    assert G.adjacency.dtype == adjacency_dtype_oracle(G.M)
    assert np.array_equal(G.adjacency, want)


@st.composite
def hash_push_cases(draw):
    fam = draw(small_families)
    support = draw(supports(fam.n))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    return fam, source_dist(fam.n, support, weights, draw(st.booleans()))


@settings(deadline=None)
@given(hash_push_cases())
def test_hash_push_forward_matches_oracle(case):
    fam, X = case
    E = hash_extractor_map(fam)
    got = push_forward(E, X)
    want = push_forward_oracle(E, X)
    if X.exact:
        assert got.exact and list(got.probs) == want
        assert sum(want) == 1
    else:
        assert not got.exact
        assert got.probs.dtype == np.float64
        assert got.probs.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def test_generic_graph_matches_pair_loop():
    table = np.random.default_rng(3).integers(0, 8, size=(8, 4))
    fn = SeededFunction(3, 2, 3, lambda x, y: BitString(3, int(table[x.value, y.value])))
    want = seeded_table_oracle(fn, 3, 2, 3, range(8))
    assert np.array_equal(graph_of_function(fn).adjacency, want)
    plain = graph_of_function(fn.fn, n=3, d=2, m=3)
    assert np.array_equal(plain.adjacency, want)


class TestWrongOutputLength:
    def short(self, x, y):
        return BitString(1, y.value)

    def test_graph_of_seeded_map(self):
        with pytest.raises(DimensionError):
            graph_of_function(SeededFunction(2, 1, 2, self.short))

    def test_graph_of_plain_callable(self):
        with pytest.raises(DimensionError):
            graph_of_function(self.short, n=2, d=1, m=2)

    def test_push_forward(self):
        for X in (Dist.uniform(2), Dist(2, np.full(4, 0.25))):
            with pytest.raises(DimensionError):
                push_forward(SeededFunction(2, 1, 2, self.short), X)


@pytest.mark.parametrize("support", [[0, 16], [-1, 3], [3, 1 << 70], [-(1 << 70)], []])
def test_flat_output_distance_rejects_bad_support(support):
    with pytest.raises(DimensionError):
        flat_output_distance(ToeplitzFamily(4, 2), support)


@settings(deadline=None, max_examples=30)
@given(families.flatmap(lambda f: st.tuples(st.just(f), supports(f.n))),
       st.sampled_from([1, 3, 64]))
def test_flat_output_distance_blocks_match_oracle(case, cells):
    # counting blocks of one to a few rows cross every block boundary
    fam, support = case
    with patch.object(hashext_module, "_COUNT_CELLS", cells):
        got = flat_output_distance(fam, support)
    assert got == flat_output_distance_oracle(fam, support)


def test_extractor_table_checks_source_values():
    E = hash_extractor_map(ToeplitzFamily(3, 2))
    for xs in ([8], [-1], [1 << 70]):
        with pytest.raises(DimensionError):
            E.table(xs)
    assert E.table([]).shape == (0, 16)
