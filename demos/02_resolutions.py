# Finite resolutions of mod-p simple quotients by Specht modules.
#
# The terms sit at weights i*p + k_i (k_i alternating between k and p-k)
# and the maps are powers of the raising operator.  The complex is exact,
# which pins the simple quotient dimension three independent ways.

from spechtres.dims import d_dim
from spechtres.resolution import (
    build_complex,
    modular_character_check,
    simple_quotient,
    verify_exactness,
)
from spechtres.specht import Diagram2, cycle_type_representative, partitions

for p, n, k in ((3, 4, 1), (3, 6, 1), (5, 9, 2), (7, 12, 3)):
    cx = build_complex(p, n, k)
    rep = verify_exactness(cx)
    print(f"p={p} n={n} k={k}: weights {rep['weights']}, dims {rep['dims']}")
    print(f"  exact: {rep['exact']}, simple quotient dim {rep['dim_simple']}")
    print(f"  signed Catalan sum gives {d_dim(p, n, k)};",
          f"Gram radical gives {simple_quotient(p, Diagram2.from_weight(n, k)).quotient_dim}")

print("\nmodular character identity for [3,2] at p = 3, all cycle types of S5:")
tau = Diagram2(3, 2)
for ct in partitions(5):
    sigma = cycle_type_representative(ct, 5)
    lhs, rhs, ok = modular_character_check(3, tau, sigma)
    print(f"  {str(ct):16s} quotient trace {lhs}  alternating sum {rhs}  equal: {ok}")
