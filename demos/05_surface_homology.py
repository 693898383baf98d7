# The exterior algebra of surface homology: weight spaces, embeddings of
# sign-word lattices, lowest-weight components, and trace invariants.

import random

from spechtres.surface import (
    alexander_trace,
    cyclotomic_trace_check,
    lefschetz_basis,
    modular_quotient_trace,
    nabla_weights,
    perm_token,
    random_group_word,
    s_token,
    transvection_token,
    upsilon_to_surface,
    zero_set,
)
from spechtres.tensor import TensorVector

g = 2
print(f"genus {g}: weights and zero sets")
for lam in nabla_weights(g):
    print(f"  {lam}: zero set {zero_set(lam)}")

print("\nembedding the 2-word lattice onto the all-zero weight space:")
for w in range(4):
    x = TensorVector.word(2, w)
    print(f"  word {w:02b} ->", upsilon_to_surface((0, 0), x, g))

print("\nlowest-weight component dimensions at genus 3:")
print(" ", [lefschetz_basis(j, 3).dim for j in (1, 2, 3, 4)])

word = [s_token(1, g), perm_token((2, 1), g), transvection_token(2, g)]
at = alexander_trace(word, g)
print("\nweighted trace of S1 P1 U2 at genus 2:")
print("  polynomial:", at.polynomial)
print("  component traces:", at.component_traces)

print("\nsimple-quotient traces mod 5 of the same word:")
for j in (1, 2, 3):
    print(f"  component {j}:", modular_quotient_trace(5, j, at))

print("\nroot-of-unity reduction identity on random words:")
rng = random.Random(0)
for trial in range(3):
    w = random_group_word(2, 4, rng)
    rep = cyclotomic_trace_check(5, w, 2, 1)
    print(f"  trial {trial}: lhs coords {list(rep['lhs'].coords)} equal: {rep['ok']}")
