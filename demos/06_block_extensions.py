# Block extensions of the symplectic action by degree-3 forms: the
# wedge/contraction operator pair, witnesses that the extension does not
# split, and the paired strand resolutions.

import random

from spechtres.extension import (
    JmElement,
    block_action_matrix,
    block_module,
    equivariant_section_exists,
    form_quotient_data,
    jm_multiply,
    nonsplit_witness,
    strand_resolution_check,
    wedge_pair_identities,
)
from spechtres.rings import fp_matmul
from spechtres.surface import ExteriorVector, random_group_word

print("operator identities at genus 2:", wedge_pair_identities(2, seed=1, samples=10)["ok"])

print("\nwitness search at p=5, label 1:")
for g in (2, 3):
    rep = nonsplit_witness(5, 1, g)
    print(f"  genus {g}: factors {rep['top_dim']} and {rep['bottom_dim']},",
          f"witness {rep['witness']!r}" if rep["witness"] else f"none ({rep.get('reason')})")

rep = nonsplit_witness(5, 1, 3)
section = equivariant_section_exists(5, 1, 3, rep["witness"])
print("equivariant section exists:", section["splits"], "(so the extension is non-split)")

print("\nblock action is a homomorphism (spot check):")
rng = random.Random(3)
mod = block_module(5, 1, 3, 3)
_, _, complement, masks = form_quotient_data(5, 3, 3)
x1 = ExteriorVector.monomial(3, masks[complement[0]])
x2 = ExteriorVector.monomial(3, masks[complement[1]], 2)
e1 = JmElement(x1, 2, tuple(random_group_word(3, 2, rng)))
e2 = JmElement(x2, 1, tuple(random_group_word(3, 1, rng)))
lhs = block_action_matrix(jm_multiply(e1, e2, 3), mod)
rhs = fp_matmul(block_action_matrix(e1, mod), block_action_matrix(e2, mod), 5)
print("  product action equals action product:", (lhs == rhs).all())

print("\npaired strand resolutions at genus 5:")
rep = strand_resolution_check(5, 1, 5)
for label, strand in rep["strands"].items():
    print(f"  label {label}: surface term dims {strand['surface_term_dims']},",
          f"quotient dim {strand['surface_quotient_dim']}")
print("  exact:", rep["exact"])
