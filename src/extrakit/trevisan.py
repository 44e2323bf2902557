"""The Nisan-Wigderson generator and the Trevisan extractor.

The generator turns one hard-looking function f on l bits into m output
bits: bit i is f evaluated on the seed restricted to the i-th set of a
combinatorial design.  The extractor instantiates f with the codeword
of the source word x under the concatenated code (ecc module), whose
2^(2t) truth-table length matches l = 2t, and keeps overlaps small with
a weak design (design module).  One kernel, the table of
:func:`trevisan_map`, serves :func:`trevisan_graph`, ``push_forward`` and
the prefix check; :func:`trevisan_eval` evaluates one pair.

Desk-scale parameters almost never satisfy the quality theorem's
feasibility inequality, so the gated builder refuses them; the
structural surface (restriction order, prefix behavior, locality) is
exact at any size and is what the tests pin down.  Parameter objects
can also be assembled by hand for structural experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .bits import BitString
from .design import DesignFamily, greedy_weak_design, verify_design
from .dist import SeededFunction, as_fraction
from .ecc import Code, build_code, encode
from .errors import BudgetExceededError, DimensionError, FeasibilityError
from .graph import MAX_HIST_CELLS, BipartiteGraph, graph_of_function

__all__ = [
    "nw_generate",
    "TrevisanParams",
    "trevisan_build",
    "trevisan_eval",
    "trevisan_map",
    "trevisan_graph",
]


def nw_generate(f: BitString, design: DesignFamily, y: BitString) -> BitString:
    """Generator output: bit i is f applied to y restricted to set i.

    ``f`` is a truth table on design.l bits (bit v = value on input v);
    restrictions read the seed positions of each set in increasing order.
    """
    if f.length != 1 << design.l:
        raise DimensionError(
            f"truth table has {f.length} entries, design sets need 2^{design.l}"
        )
    if y.length != design.d:
        raise DimensionError(f"seed has {y.length} bits, design universe is {design.d}")
    out = 0
    for s in design.sets:
        v = 0
        for pos in s:  # sets are stored sorted ascending
            v = (v << 1) | y.bit(pos)
        out = (out << 1) | f.bit(v)
    return BitString(design.m, out)


@dataclass(frozen=True)
class TrevisanParams:
    """Everything needed to evaluate one extractor instance.

    ``rho_budget`` is the overlap allowance implied by the quality claim,
    present only when the instance came through the gated builder; hand
    assembled structural instances leave it None.
    """

    n: int
    k: int
    m: int
    eps: Fraction
    code: Code
    design: DesignFamily
    rho_budget: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if self.code.n != self.n:
            raise DimensionError(
                f"code encodes {self.code.n} bits, extractor takes {self.n}"
            )
        if self.design.l != self.code.l:
            raise DimensionError(
                f"design sets have {self.design.l} elements, codeword truth table"
                f" needs {self.code.l}"
            )
        if self.design.m != self.m:
            raise DimensionError(
                f"design has {self.design.m} sets, extractor outputs {self.m} bits"
            )

    @property
    def d(self) -> int:
        """Seed length: the design's universe size."""
        return self.design.d

    @property
    def delta(self) -> Fraction:
        return self.code.delta

    def __repr__(self) -> str:
        return (
            f"TrevisanParams(n={self.n}, k={self.k}, m={self.m}, eps={self.eps},"
            f" d={self.d}, t={self.code.t})"
        )


def trevisan_build(n: int, k: int, m: int, eps) -> TrevisanParams:
    """Gated builder: code at delta = eps/4m, greedy weak design, budget check.

    Refuses when the implied overlap budget
    (k - 3*log2(m/eps) - d - 3)/m drops below 1, naming the inequality.
    """
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise DimensionError(f"error bound {eps} outside (0, 1)")
    if not m <= k <= n:
        raise DimensionError(f"need m <= k <= n, got m={m}, k={k}, n={n}")
    delta = eps / (4 * m)
    code = build_code(n, delta)
    design = greedy_weak_design(code.l, m, rho=1)
    assert verify_design(design, "weak", 1)
    # ceil(log2(m/eps)) is the bit length of ceil(m/eps) - 1, as m/eps > 1
    log_term = (math.ceil(Fraction(m) / eps) - 1).bit_length()
    budget = Fraction(k - 3 * log_term - design.d - 3, m)
    if budget < 1:
        raise FeasibilityError(
            f"infeasible: k - 3*log2(m/eps) - d - 3 >= m fails "
            f"({k} - 3*{log_term} - {design.d} - 3 = {k - 3 * log_term - design.d - 3}"
            f" < {m})"
        )
    return TrevisanParams(
        n=n, k=k, m=m, eps=eps, code=code, design=design, rho_budget=budget
    )


def trevisan_eval(p: TrevisanParams, x: BitString, y: BitString) -> BitString:
    """Extract: encode x, use the codeword as the generator's truth table."""
    if x.length != p.n:
        raise DimensionError(f"source has {x.length} bits, expected {p.n}")
    return nw_generate(encode(p.code, x), p.design, y)


@dataclass(frozen=True, repr=False)
class _TrevisanMap(SeededFunction):
    """The Trevisan extractor with a whole-table :meth:`table`."""

    params: TrevisanParams = None
    strong: bool = False

    def table(self, xs) -> np.ndarray:
        """Rows for the source values ``xs``, vectorized over sources and seeds.

        Builds no codeword: the seed restriction v to set i (2t bits)
        selects codeword bit v, which is parity(P_x(v >> t) & (v mod 2^t)),
        so one batch of outer symbols P_x of every source x serves every
        seed.  Refuses more than MAX_HIST_CELLS cells before allocating.
        """
        p = self.params
        D, t = 1 << p.d, p.code.t
        cells = len(xs) * D
        if cells > MAX_HIST_CELLS:
            raise BudgetExceededError(
                f"table of {len(xs)} x 2^{p.d} = {cells} cells exceeds budget {MAX_HIST_CELLS}",
                requested=cells, budget=MAX_HIST_CELLS,
            )
        x = np.asarray(xs)
        bad = (x < 0) | (x >= 1 << p.n)
        if bad.any():
            raise DimensionError(f"value {x[bad.argmax()]} does not fit in {p.n} bits")
        seeds = np.arange(D, dtype=np.int64)
        # the narrowest dtype holding a symbol keeps the (len(xs), D) gathers small
        sym_dtype = np.min_scalar_type((1 << t) - 1)
        symbols = p.code.evaluate(x).astype(sym_dtype)
        parity = (np.bitwise_count(np.arange(1 << t)) & 1).astype(np.uint8)
        adj = np.zeros((len(x), D), dtype=np.int64)
        for s in p.design.sets:
            v = np.zeros(D, dtype=np.int64)
            for pos in s:  # seed bit at position pos (MSB-first) for every seed
                v = (v << 1) | ((seeds >> (p.d - 1 - pos)) & 1)
            bits = symbols[:, v >> t]
            bits &= (v & ((1 << t) - 1)).astype(sym_dtype)
            adj <<= 1
            adj |= parity[bits]
        if self.strong:
            adj |= seeds << p.m
        return adj


def trevisan_map(p: TrevisanParams, strong: bool = False) -> SeededFunction:
    """The extractor as a checked seeded map; strong mode prepends the seed."""
    return _TrevisanMap(
        p.n, p.d, p.d + p.m if strong else p.m,
        lambda x, y: y + trevisan_eval(p, x, y) if strong else trevisan_eval(p, x, y),
        name=f"trevisan{'-strong' if strong else ''} n={p.n} m={p.m}",
        params=p, strong=strong,
    )


def trevisan_graph(p: TrevisanParams, strong: bool = False) -> BipartiteGraph:
    """Whole-graph tabulation: ``graph_of_function(trevisan_map(p, strong))``."""
    return graph_of_function(trevisan_map(p, strong))
