"""Coding against side information, run on a real verified graph.

A left vertex A inside a small enumerable set S gets a short two-part
description: a good right neighbor X plus A's rank among S's members
adjacent to X.  On a verified extractor graph almost every A is good;
the few bad ones are retried on coarser graphs until everyone is coded.
"""

from fractions import Fraction

from numpy.random import SeedSequence

from extrakit import (
    EnumerableSet,
    code_set,
    degree_bound,
    ExistenceParams,
    iterative_chain,
    sample_graph,
    verify_extractor,
    verify_fortnow,
)
from extrakit.graph import BipartiteGraph

K, eps = 4, Fraction(9, 20)
params = ExistenceParams(16, 4, K, eps, "extractor")
D = degree_bound(params)
G = None
for child in SeedSequence(11).spawn(50):
    g = sample_graph(16, 4, D, child)
    if verify_extractor(g, K, eps):
        G = g
        break
print(f"verified extractor graph: N={G.N} M={G.M} D={G.D}, (K={K}, eps={eps})")

report = verify_fortnow(G, K, eps, trials=50, seed=3)
print(f"bad-left sizes over {report.trials} random sets: "
      f"all-rule max {report.max_all} (bound {report.bound_all}), "
      f"majority max {report.max_majority} (bound {report.bound_majority})")

S = EnumerableSet((9, 3, 12, 6))
code = code_set(G, S, K)
print(f"\nS = {S.order}: {len(code.bad.bad_right)} overloaded rights, "
      f"{len(code.bad.bad_left)} bad lefts")
for A, X, j, r in zip(S.order, code.X.tolist(), code.j.tolist(), code.rank.tolist()):
    back = code.decode(X, r)
    print(f"  A={A:2d} -> neighbor X={X} (edge #{j}), rank {r}; decode -> {back}")

# The chain: adversarial graph where level 0 fails for everyone, a
# single-right-vertex level catches them all.
import numpy as np

g0 = BipartiteGraph(4, 4, 2, np.zeros((4, 2), dtype=np.int64))
g1 = BipartiteGraph(4, 1, 2, np.zeros((4, 2), dtype=np.int64))
chain = iterative_chain([g0, g1], EnumerableSet((0, 1, 2, 3)))
print(f"\nchain on a degenerate level-0 graph: set sizes {chain.level_sizes}")
for a, (lvl, x) in sorted(chain.assignment.items()):
    print(f"  vertex {a} coded at level {lvl} via right vertex {x}")
