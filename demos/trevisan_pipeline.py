"""The Trevisan pipeline, piece by piece.

Builds the three ingredients — list-decodable code, weak design,
pseudorandom-generator skeleton — on an honest feasible instance, then
evaluates the extractor and shows which seed bits each output bit read.
"""

import numpy as np

from extrakit import (
    BitString,
    brute_list_decode,
    build_code,
    code_encode,
    trevisan_build,
    trevisan_eval,
)

n, k, m, eps = 48, 44, 2, "9/10"
p = trevisan_build(n, k, m, eps)
print(f"instance n={n}, k={k}, m={m}, eps={eps}")
print(f"  code: t={p.code.t}, codeword length nbar={p.code.nbar}")
print(f"  design: {p.design.m} sets of {p.design.l} in a universe of {p.design.d}")
print(f"  seed length d={p.d}")

rng = np.random.default_rng(7)
x = BitString(n, int(rng.integers(1 << n)))
y = BitString(p.d, int(rng.integers(1 << p.d)))
out = trevisan_eval(p, x, y)
print(f"\nx = {x.to_text()}")
print(f"y = {y.to_text()}")
print(f"output = {out.to01()}")
for i, S in enumerate(p.design.sets):
    print(f"  bit {i} reads seed positions {S}")

# The code half on its own: encode a short word, flip a few bits, decode.
code = build_code(6, "1/4")
w = BitString(6, 0b101101)
cw = code_encode(code, w)
noisy_val = cw.value ^ (1 << (code.nbar - 1)) ^ (1 << 5) ^ (1 << 17)
noisy = BitString(code.nbar, noisy_val)
hits = brute_list_decode(code, noisy)
print(f"\ncode n=6 delta=1/4: 3 of {code.nbar} bits flipped;"
      f" list at radius 1/2-delta = {[h.to01() for h in hits]}")
print(f"original word recovered: {w in hits}")
