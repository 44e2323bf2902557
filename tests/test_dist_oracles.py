"""Distribution operations against the Fraction-list and float-array oracles.

Every operation must give the oracle's value for exact inputs and the
oracle's bits for float inputs, raise the same errors, and (for
``flat_decompose``) emit the same components in the same order.  Exact
inputs mix denominators 3, 5, 7 and the Mersenne prime 2^61 - 1, so any
common-denominator bookkeeping is exercised beyond powers of two.
"""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from extrakit import (
    BitString,
    BlockSource,
    Dist,
    FlatSource,
    SeededFunction,
    check_block_source,
    flat_decompose,
    min_entropy,
    push_forward,
    stat_dist,
)
from extrakit.compose import _meets_min_entropy
from extrakit.dist import read_dist, write_dist
from extrakit.hashext import collision_measure
from extrakit.errors import DimensionError, InvalidDistributionError

from helpers import (
    collision_measure_oracle,
    conditional2_oracle,
    flat_decompose_oracle,
    marginal1_oracle,
    meets_min_entropy_oracle,
    min_entropy_oracle,
    push_forward_oracle,
    stat_dist_oracle,
)

DENOMS = (1, 2, 3, 5, 7, (1 << 61) - 1)


@st.composite
def exact_dists(draw, n):
    size = 1 << n
    ws = draw(
        st.lists(
            st.builds(Fraction, st.integers(0, 9), st.sampled_from(DENOMS)),
            min_size=size,
            max_size=size,
        )
    )
    assume(sum(ws) > 0)
    total = sum(ws)
    return Dist(n, [w / total for w in ws])


@st.composite
def float_dists(draw, n):
    size = 1 << n
    ws = np.array(
        draw(st.lists(st.floats(0, 1), min_size=size, max_size=size)), dtype=np.float64
    )
    assume(ws.sum() > 0)
    return Dist(n, ws / ws.sum())


def dists(n):
    return st.one_of(exact_dists(n), float_dists(n))


def same_scalar(got, want) -> bool:
    """Equal Fractions, or floats with identical bits."""
    if isinstance(want, Fraction):
        return isinstance(got, Fraction) and got == want
    return type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def same_probs(X: Dist, want) -> bool:
    """``X.probs`` equals a Fraction list exactly, or a float array bit for bit."""
    if isinstance(want, list):
        got = X.probs
        return X.exact and all(isinstance(p, Fraction) for p in got) and list(got) == want
    got = X.probs
    return (
        not X.exact
        and isinstance(got, np.ndarray)
        and got.dtype == np.float64
        and got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
    )


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared by type and text
        return ("error", type(exc), str(exc))


lengths = st.integers(0, 4)


class TestScalars:
    @given(lengths.flatmap(dists))
    def test_min_entropy(self, X):
        assert same_scalar(min_entropy(X), min_entropy_oracle(X))

    @given(lengths.flatmap(lambda n: st.tuples(dists(n), dists(n))))
    def test_stat_dist(self, pair):
        X, Y = pair
        assert same_scalar(stat_dist(X, Y), stat_dist_oracle(X, Y))
        assert same_scalar(stat_dist(Y, X), stat_dist_oracle(Y, X))

    @given(lengths.flatmap(dists))
    def test_collision_measure(self, X):
        assert same_scalar(collision_measure(X), collision_measure_oracle(X))

    @given(
        lengths.flatmap(dists),
        st.one_of(st.integers(-2, 6), st.sampled_from([0.5, 1.5, 2.0, Fraction(3, 2)])),
    )
    def test_meets_min_entropy(self, X, k):
        assert _meets_min_entropy(X, k) == meets_min_entropy_oracle(X, k)

    def test_stat_dist_length_mismatch(self):
        with pytest.raises(DimensionError, match="between lengths 1 and 2"):
            stat_dist(Dist.uniform(1), Dist.uniform(2))

    def test_mersenne_denominators(self):
        m = (1 << 61) - 1
        X = Dist(2, [Fraction(1, 3), Fraction(1, 5), Fraction(1, m), 1 - Fraction(8, 15) - Fraction(1, m)])
        Y = Dist(2, [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7), Fraction(0)])
        assert stat_dist(X, Y) == stat_dist_oracle(X, Y)
        assert collision_measure(X) == collision_measure_oracle(X)
        assert min_entropy(X) == min_entropy_oracle(X)


class TestFlatDecompose:
    @settings(max_examples=150)
    @given(lengths.flatmap(dists), st.integers(-1, 17))
    def test_matches_oracle(self, X, K):
        got = outcome(lambda: [(w, sorted(fs.support)) for w, fs in flat_decompose(X, K)])
        want = outcome(flat_decompose_oracle, X, K)
        assert got == want
        if got[0] == "value":
            assert all(isinstance(w, Fraction) for w, _ in got[1])

    def test_mixed_denominators(self):
        X = Dist(2, [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(34, 105)])
        got = [(w, sorted(fs.support)) for w, fs in flat_decompose(X, 3)]
        assert got == flat_decompose_oracle(X, 3)

    @pytest.mark.parametrize("n, K", [(6, 4), (8, 16)])
    def test_many_ties_keep_ascending_order(self, n, K):
        # weights 1..4 over 2^n strings: every step breaks ties by index
        w = np.random.default_rng(n).integers(1, 5, size=1 << n)
        X = Dist(n, [Fraction(int(v), int(w.sum())) for v in w])
        got = [(w, sorted(fs.support)) for w, fs in flat_decompose(X, K)]
        assert got == flat_decompose_oracle(X, K)


@st.composite
def seeded_tables(draw):
    n, d, m = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    table = draw(
        st.lists(st.integers(0, (1 << m) - 1), min_size=1 << (n + d), max_size=1 << (n + d))
    )
    fn = SeededFunction(n, d, m, lambda x, y: BitString(m, table[(x.value << d) | y.value]))
    return fn


class TestPushForward:
    @given(seeded_tables().flatmap(lambda F: st.tuples(st.just(F), dists(F.n))))
    def test_matches_oracle(self, case):
        F, X = case
        assert same_probs(push_forward(F, X), push_forward_oracle(F, X))

    def test_subnormal_shares_are_divided_before_summing(self):
        # each seed's share of 2^-1074 rounds to 0, so the sum is 0, not 2^-1074
        fn = SeededFunction(1, 1, 1, lambda x, y: x, name="first")
        X = Dist(1, [5e-324, 1.0])
        out = push_forward(fn, X)
        assert same_probs(out, push_forward_oracle(fn, X))
        assert out.probs.tolist() == [0.0, 1.0]

    def test_length_mismatch(self):
        fn = SeededFunction(2, 1, 1, lambda x, y: y, name="seed")
        with pytest.raises(DimensionError, match="source length 1 but map expects 2"):
            push_forward(fn, Dist.uniform(1))


class TestBlockSource:
    @given(
        st.integers(0, 2).flatmap(
            lambda n1: st.integers(0, 2).flatmap(
                lambda n2: st.tuples(st.just(n1), st.just(n2), dists(n1 + n2))
            )
        )
    )
    def test_marginal_and_conditionals(self, case):
        n1, n2, joint = case
        s = BlockSource(n1, n2, joint, 0, 0)
        assert same_probs(s.marginal1(), marginal1_oracle(joint, n1, n2))
        for x1 in range(1 << n1):
            want = conditional2_oracle(joint, n1, n2, x1)
            if want is None:
                with pytest.raises(InvalidDistributionError, match=f"never takes value {x1}"):
                    s.conditional2(x1)
            else:
                assert same_probs(s.conditional2(x1), want)

    @given(st.integers(0, 2).flatmap(lambda n1: st.tuples(st.just(n1), dists(n1 + 2))),
           st.integers(0, 3), st.integers(0, 3))
    def test_check_block_source(self, case, k1, k2):
        n1, joint = case
        s = BlockSource(n1, 2, joint, k1, k2)
        marg = s.marginal1()
        want = None
        if not meets_min_entropy_oracle(marg, k1):
            want = ("marginal", None)
        else:
            for x1 in range(1 << n1):
                if marg.probs[x1] > 0:
                    cond = Dist(2, conditional2_oracle(joint, n1, 2, x1), exact=joint.exact)
                    if not meets_min_entropy_oracle(cond, k2):
                        want = ("conditional", x1)
                        break
        verdict = check_block_source(s)
        assert verdict.ok == (want is None)
        assert verdict.witness == want


class TestBackings:
    @given(lengths.flatmap(dists))
    def test_accessors_and_conversions(self, X):
        size = 1 << X.length
        if X.exact:
            assert [X.prob(i) for i in range(size)] == list(X.probs)
            floats = np.array([float(p) for p in X.probs])
            assert same_probs(X.to_float(), floats)
            assert X.to_exact() is X
        else:
            ratios = [Fraction(float(p)) for p in X.probs]
            total = sum(ratios)
            assert same_probs(X.to_exact(), [p / total for p in ratios])
            assert X.to_float() is X
        assert X.support() == [i for i in range(size) if X.probs[i] > 0]
        assert X == X and X == X.to_float() and X.to_float() == X

    def test_constructors(self):
        assert same_probs(Dist.uniform(2), [Fraction(1, 4)] * 4)
        assert same_probs(Dist.uniform(2, exact=False), np.full(4, 0.25))
        assert same_probs(Dist.uniform(17), np.full(1 << 17, 1.0 / (1 << 17)))
        assert same_probs(Dist.point(BitString(2, 2)), [0, 0, 1, 0])
        assert same_probs(Dist.point(BitString(2, 2), exact=False), np.array([0.0, 0, 1, 0]))
        fs = FlatSource(2, frozenset({0, 1, 3}))
        third = Fraction(1, 3)
        assert same_probs(fs.dist(), [third, third, Fraction(0), third])
        assert same_probs(fs.dist(exact=False), np.array([1 / 3, 1 / 3, 0.0, 1 / 3]))

    def test_constructor_errors(self):
        cases = [
            (lambda: Dist(2, [Fraction(1, 3), Fraction(1, 5), Fraction(0), Fraction(0)]),
             "probabilities sum to 8/15, not 1"),
            (lambda: Dist(1, [Fraction(3, 2), Fraction(-1, 2)]), "negative probability"),
            (lambda: Dist(1, [Fraction(1)]), "expected 2 probabilities, got 1"),
            (lambda: Dist(17, [Fraction(1)]), "exact backing supported only up to n = 16"),
            (lambda: Dist(25, []), "bit length 25 outside supported range 0..24"),
            (lambda: Dist(1, [0.5]), r"expected 2 probabilities, got shape \(1,\)"),
            (lambda: Dist.point(BitString(17, 0)), "exact backing supported only up to n = 16"),
        ]
        for build, text in cases:
            with pytest.raises(InvalidDistributionError, match=text):
                build()

    def test_equality_across_backings(self):
        m = (1 << 61) - 1
        X = Dist(1, [Fraction(1, m), 1 - Fraction(1, m)])
        assert X == Dist(1, [Fraction(2, 2 * m), Fraction(m - 1, m)])
        assert X != Dist(1, [Fraction(2, m), 1 - Fraction(2, m)])
        assert Dist(1, [Fraction(1, 4), Fraction(3, 4)]) == Dist(1, [0.25, 0.75])
        assert Dist(1, [Fraction(1, 3), Fraction(2, 3)]) != Dist(2, [Fraction(1, 4)] * 4)
        assert repr(X) == "Dist(n=1, exact)" and repr(X.to_float()) == "Dist(n=1, float)"


class TestPinnedText:
    def test_exact_write_dist(self):
        m = (1 << 61) - 1
        X = Dist(2, [Fraction(1, 3), Fraction(1, 5), Fraction(1, m),
                     1 - Fraction(8, 15) - Fraction(1, m)])
        buf = io.StringIO()
        write_dist(X, buf)
        assert buf.getvalue() == (
            "2\n"
            "2:0 1/3\n"
            "2:4 1/5\n"
            "2:8 1/2305843009213693951\n"
            "2:c 16140901064495857642/34587645138205409265\n"
        )
        assert read_dist(io.StringIO(buf.getvalue())) == X

    def test_float_push_forward_write_dist(self):
        fn = SeededFunction(2, 1, 2, lambda x, y: BitString(2, (x.value + 3 * y.value) % 4))
        out = push_forward(fn, Dist(2, [0.1, 0.2, 0.3, 0.4]))
        buf = io.StringIO()
        write_dist(out, buf)
        assert buf.getvalue() == "2\n2:0 0.15000000000000002\n2:4 0.25\n2:8 0.35\n2:c 0.25\n"
