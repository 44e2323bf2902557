"""Existence-harness: degree formulas, sampling, seeded trials."""

import math
from fractions import Fraction

import numpy as np
import pytest

from extrakit import (
    ExistenceParams,
    ExistenceReport,
    ExtractorSpec,
    Verdict,
    degree_bound,
    existence_trial,
    sample_graph,
    verify_disperser,
    verify_extractor,
    verify_prefix_extractor,
)
from extrakit.randgraph import _guarded_ceil
from extrakit.errors import DimensionError


class TestDegreeBound:
    def test_reference_values(self):
        # the two worked instances every build must reproduce
        ext = ExistenceParams(256, 16, 16, Fraction(1, 4), "extractor")
        assert degree_bound(ext) == 61
        disp = ExistenceParams(256, 16, 16, Fraction(1, 4), "disperser")
        assert degree_bound(disp) == 18

    def test_acceptance_instances(self):
        a = ExistenceParams(16, 4, 4, Fraction(9, 20), "extractor")
        b = ExistenceParams(64, 8, 8, Fraction(3, 10), "extractor")
        assert degree_bound(a) == 12
        assert degree_bound(b) == 35

    def test_disperser_formula_oracle(self):
        # independent recomputation: ceil((M/K)(ln(1/e)+1) + (1/e)(ln(N/K)+1))
        for N, M, K, pq in ((64, 8, 4, (1, 3)), (128, 16, 8, (1, 5))):
            eps = Fraction(*pq)
            got = degree_bound(ExistenceParams(N, M, K, eps, "disperser"))
            e = float(eps)
            x = (M / K) * (math.log(1 / e) + 1) + (1 / e) * (math.log(N / K) + 1)
            assert got in (math.ceil(x), math.floor(x) + 1)
            assert got >= x - 1e-6

    def test_extractor_formula_oracle(self):
        for N, M, K, pq in ((64, 8, 4, (1, 3)), (32, 4, 8, (2, 5))):
            eps = Fraction(*pq)
            got = degree_bound(ExistenceParams(N, M, K, eps, "extractor"))
            e = float(eps)
            x = max((M / K) * math.log(2) / e**2,
                    (1 / e**2) * (math.log(N / K) + 1))
            assert got in (math.ceil(x), math.floor(x) + 1)
            assert got >= x - 1e-6

    def test_prefix_is_power_of_two_at_least_formula(self):
        p = ExistenceParams(16, 4, 4, Fraction(1, 4), "prefix")
        D = degree_bound(p)
        assert D & (D - 1) == 0
        e = 0.25
        x = max((4 / 4) * math.log(2) / e**2, (1 / e**2) * (1 + math.log(2) + math.log(16)))
        assert D >= x
        assert D < 2 * x + 2  # least power of two at or above the bound

    def test_guarded_ceil_bumps_near_integers(self):
        assert _guarded_ceil(7.0) == 8          # exactly integral: bump
        assert _guarded_ceil(7.0000000001) == 8  # within guard: bump to 8
        assert _guarded_ceil(7.2) == 8           # plain ceiling
        assert _guarded_ceil(6.9999999999) == 8  # guard sees 7, bumps


class TestExistenceParams:
    def test_validation(self):
        with pytest.raises(DimensionError):
            ExistenceParams(8, 4, 1, Fraction(1, 4), "extractor")  # K must be > 1
        with pytest.raises(DimensionError):
            ExistenceParams(8, 4, 9, Fraction(1, 4), "extractor")  # K > N
        with pytest.raises(DimensionError):
            ExistenceParams(8, 4, 4, Fraction(5, 4), "extractor")
        with pytest.raises(DimensionError):
            ExistenceParams(8, 4, 4, Fraction(1, 4), "sideways")

    def test_prefix_needs_powers_of_two(self):
        ExistenceParams(8, 4, 4, Fraction(1, 4), "prefix")
        with pytest.raises(DimensionError):
            ExistenceParams(6, 4, 4, Fraction(1, 4), "prefix")


class TestSampleGraph:
    def test_deterministic(self):
        a = sample_graph(8, 4, 5, 99)
        b = sample_graph(8, 4, 5, 99)
        c = sample_graph(8, 4, 5, 100)
        assert a == b
        assert a != c

    def test_dimensions(self):
        G = sample_graph(6, 3, 4, 0)
        assert (G.N, G.M, G.D) == (6, 3, 4)

    def test_endpoints_close_to_uniform(self):
        # chi-square against uniform over M=8 with 8*4096 edges; the
        # threshold is generous (df=7, far tail) but catches a wrong
        # range or an off-by-one in the sampler immediately.
        G = sample_graph(4096, 8, 8, 7)
        counts = np.bincount(G.adjacency.ravel(), minlength=8)
        expected = G.N * G.D / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 40.0
        assert counts.min() > 0


class TestExistenceTrial:
    def test_deterministic_and_consistent(self):
        p = ExistenceParams(16, 4, 4, Fraction(9, 20), "extractor")
        r1 = existence_trial(p, trials=20, seed=5)
        r2 = existence_trial(p, trials=20, seed=5)
        assert (r1.passes, r1.trials) == (r2.passes, r2.trials)
        assert r1.fraction == Fraction(r1.passes, 20)
        assert 0 <= r1.passes <= 20

    def test_trial_graphs_match_manual_spawn(self):
        # the report's verdicts must come from exactly these seeded graphs
        p = ExistenceParams(16, 4, 4, Fraction(9, 20), "extractor")
        D = degree_bound(p)
        report = existence_trial(p, trials=10, seed=123)
        manual = 0
        for child in np.random.SeedSequence(123).spawn(10):
            G = sample_graph(16, 4, D, child)
            if verify_extractor(G, 4, Fraction(9, 20)):
                manual += 1
        assert report.passes == manual

    def test_disperser_kind(self):
        p = ExistenceParams(16, 4, 4, Fraction(1, 2), "disperser")
        D = degree_bound(p)
        report = existence_trial(p, trials=10, seed=3)
        manual = 0
        for child in np.random.SeedSequence(3).spawn(10):
            G = sample_graph(16, 4, D, child)
            if verify_disperser(G, 4, Fraction(1, 2)):
                manual += 1
        assert report.passes == manual

    def test_failures_carry_witnesses(self):
        # this instance and seed produce a known failing trial; recorded
        # failures cap at ten and carry real witnesses
        p = ExistenceParams(16, 8, 2, Fraction(1, 5), "extractor")
        report = existence_trial(p, trials=15, seed=1)
        assert report.passes < 15, "expected at least one failing trial here"
        assert 1 <= len(report.failures) <= 10
        for trial, witness in report.failures:
            assert 0 <= trial < 15
            assert witness is not None

    @pytest.mark.parametrize("kind, N, M, K, eps, trials", [
        ("extractor", 16, 8, 2, Fraction(1, 5), 4),
        ("disperser", 32, 4, 2, Fraction(1, 4), 3),
        ("prefix", 4, 8, 2, Fraction(5, 16), 6),
    ])
    def test_verdicts_are_the_manual_verdicts_in_trial_order(self, kind, N, M, K, eps, trials):
        # each run mixes passing and failing trials at seed 0 or 1
        seed = 1 if kind == "extractor" else 0
        p = ExistenceParams(N, M, K, eps, kind)
        D = degree_bound(p)
        report = existence_trial(p, trials, seed)
        assert report.D == D and report.trials == len(report.verdicts) == trials
        manual = []
        for child in np.random.SeedSequence(seed).spawn(trials):
            G = sample_graph(N, M, D, child)
            if kind == "extractor":
                manual.append(verify_extractor(G, K, eps))
            elif kind == "disperser":
                manual.append(verify_disperser(G, K, eps))
            else:
                spec = ExtractorSpec(N.bit_length() - 1, D.bit_length() - 1,
                                     M.bit_length() - 1, K.bit_length() - 1, eps)
                manual.append(verify_prefix_extractor(G, spec))
        got = [(v.ok, v.witness, v.note) for v in report.verdicts]
        assert got == [(v.ok, v.witness, v.note) for v in manual]
        assert 0 < report.passes < trials
        assert report.passes == sum(v.ok for v in manual)
        assert report.fraction == Fraction(report.passes, trials)
        assert report.failures == tuple(
            (i, v.witness) for i, v in enumerate(manual) if not v.ok
        )

    def test_derived_fields_and_repr(self):
        p = ExistenceParams(16, 8, 2, Fraction(1, 5))
        verdicts = tuple(Verdict(i % 3 == 0, witness=None if i % 3 == 0 else i)
                         for i in range(20))
        report = ExistenceReport(p, 7, verdicts)
        assert (report.trials, report.passes) == (20, 7)
        assert report.fraction == Fraction(7, 20)
        # failures keep the first ten, in trial order
        assert report.failures == tuple((i, i) for i in range(20) if i % 3)[:10]
        assert repr(report) == "ExistenceReport(kind=extractor, D=7, passes=7/20)"

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_at_least_one_trial(self, trials):
        p = ExistenceParams(16, 8, 2, Fraction(1, 5))
        with pytest.raises(DimensionError, match=f"got trials={trials}"):
            existence_trial(p, trials, 0)
