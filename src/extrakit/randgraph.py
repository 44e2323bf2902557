"""Random graph sampling and the probabilistic-existence degree bounds.

Three closed-form degree formulas — one per object kind (disperser,
extractor, prefix extractor) — say how many edges per left vertex make a
uniformly random bipartite multigraph have the property with positive
probability.  ``existence_trial`` measures that probability empirically
by sampling seeded graphs at the bound and running the exact verifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .dist import as_fraction
from .errors import DimensionError, Verdict
from .graph import (
    DEFAULT_SUBSET_BUDGET,
    BipartiteGraph,
    ExtractorSpec,
    verify_disperser,
    verify_extractor,
    verify_prefix_extractor,
)

__all__ = [
    "KINDS",
    "ExistenceParams",
    "ExistenceReport",
    "degree_bound",
    "sample_graph",
    "existence_trial",
]

KINDS = ("disperser", "extractor", "prefix")


def _is_pow2(v: int) -> bool:
    return v > 0 and v & (v - 1) == 0


@dataclass(frozen=True)
class ExistenceParams:
    """Parameter tuple (N, M, K, eps) plus which property is wanted."""

    N: int
    M: int
    K: int
    eps: Fraction
    kind: str = "extractor"

    def __post_init__(self):
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if not 1 < self.K <= self.N:
            raise DimensionError(f"need 1 < K <= N, got K={self.K}, N={self.N}")
        if self.M <= 0:
            raise DimensionError(f"right size M={self.M} must be positive")
        if not 0 < self.eps < 1:
            raise DimensionError(f"error bound {self.eps} outside (0, 1)")
        if self.kind not in KINDS:
            raise DimensionError(f"kind {self.kind!r} not one of {KINDS}")
        if self.kind == "prefix" and not all(map(_is_pow2, (self.N, self.M, self.K))):
            raise DimensionError("prefix kind needs N, M, K all powers of two")


def _guarded_ceil(x: float, guard: float = 1e-9) -> int:
    """Ceiling that rounds *up* past an integer boundary within float noise.

    If x sits within ``guard`` of an integer, the true value may be just
    above it, so return that integer plus one rather than risk
    under-shooting the bound.
    """
    nearest = round(x)
    if abs(x - nearest) <= guard:
        return int(nearest) + 1
    return math.ceil(x)


def degree_bound(p: ExistenceParams) -> int:
    """Edges per left vertex sufficient for existence, by kind.

    disperser:  ceil( (M/K)(ln(1/eps)+1) + (1/eps)(ln(N/K)+1) )
    extractor:  ceil( max{ (M/K) ln2/eps^2, (1/eps^2)(ln(N/K)+1) } )
    prefix:     2 ^ ceil( log2 max{ (M/K) ln2/eps^2, (1/eps^2)(1+ln2+ln N) } )
    """
    N, M, K = p.N, p.M, p.K
    e = float(p.eps)
    if p.kind == "disperser":
        val = (M / K) * (math.log(1 / e) + 1) + (1 / e) * (math.log(N / K) + 1)
        return _guarded_ceil(val)
    if p.kind == "extractor":
        val = max(
            (M / K) * math.log(2) / e**2,
            (1 / e**2) * (math.log(N / K) + 1),
        )
        return _guarded_ceil(val)
    val = max(
        (M / K) * math.log(2) / e**2,
        (1 / e**2) * (1 + math.log(2) + math.log(N)),
    )
    return 1 << _guarded_ceil(math.log2(val))


def sample_graph(N: int, M: int, D: int, seed) -> BipartiteGraph:
    """Uniform random multigraph: every edge endpoint i.i.d. over [M].

    ``seed`` is anything :func:`numpy.random.default_rng` accepts; equal
    seeds give equal graphs.
    """
    rng = np.random.default_rng(seed)
    adj = rng.integers(0, M, size=(N, D), dtype=np.int64)
    return BipartiteGraph(N, M, D, adj)


@dataclass(frozen=True)
class ExistenceReport:
    """Outcome of an existence run: one exact verdict per sampled graph.

    ``verdicts[i]`` is the verifier's :class:`Verdict` on trial i's graph,
    in trial order.  The pass count, the pass fraction and the first ten
    failures as ``(trial index, witness)`` pairs are derived from them.
    """

    params: ExistenceParams
    D: int
    verdicts: tuple[Verdict, ...]

    @property
    def trials(self) -> int:
        return len(self.verdicts)

    @property
    def passes(self) -> int:
        return sum(v.ok for v in self.verdicts)

    @property
    def failures(self) -> tuple:
        fails = ((i, v.witness) for i, v in enumerate(self.verdicts) if not v)
        return tuple(islice(fails, 10))

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.passes, self.trials)

    def __repr__(self) -> str:
        return (
            f"ExistenceReport(kind={self.params.kind}, D={self.D}, "
            f"passes={self.passes}/{self.trials})"
        )


def _trial_verdict(G: BipartiteGraph, p: ExistenceParams, max_subsets: int) -> Verdict:
    """The exact verifier of ``p.kind`` on one sampled graph."""
    if p.kind == "disperser":
        return verify_disperser(G, p.K, p.eps, max_subsets)
    if p.kind == "extractor":
        return verify_extractor(G, p.K, p.eps, max_subsets)
    spec = ExtractorSpec.for_graph(G, p.K.bit_length() - 1, p.eps)
    return verify_prefix_extractor(G, spec, max_subsets)


def existence_trial(
    p: ExistenceParams,
    trials: int,
    seed,
    max_subsets: int = DEFAULT_SUBSET_BUDGET,
) -> ExistenceReport:
    """Sample ``trials`` graphs at the degree bound and verify each exactly.

    Deterministic in (params, trials, seed): trial i's graph comes from
    child i of ``np.random.SeedSequence(seed).spawn(trials)``.  The report
    keeps every trial's verdict in trial order.  Raises
    :class:`DimensionError` when ``trials < 1``.
    """
    if trials < 1:
        raise DimensionError(f"need at least one trial, got trials={trials}")
    D = degree_bound(p)
    children = np.random.SeedSequence(seed).spawn(trials)
    verdicts = tuple(
        _trial_verdict(sample_graph(p.N, p.M, D, child), p, max_subsets)
        for child in children
    )
    return ExistenceReport(p, D, verdicts)
