"""Exact-arithmetic workbench for two-row modular Specht module
resolutions, their combinatorial dimension oracles, fusion-rule genus
multiplicities, and trace invariants on surface homology."""

from .specht import Diagram2, Tableau2, Tabloid2, polytabloid, specht_basis, ordinary_character
from .tensor import TensorVector, apply_sl2, inner_product, perm_action, coev_ev
from .rings import (
    LaurentInt,
    CyclotomicElem,
    quantum_integer,
    cyclotomic_eval,
)
from .resolution import build_complex, verify_exactness, simple_quotient, modular_character_check, e_power_map
from .factors import IntervalSet, make_context, admissible_sets, delta, nu as factor_shift, composition_factors
from .dims import catalan, fib, d_dim, FusionElement, verlinde_dim, growth_polynomial, perron_norms
from .surface import (
    ExteriorVector,
    wedge_sl2,
    upsilon_to_surface,
    upsilon_from_surface,
    handle_map,
    lefschetz_basis,
    alexander_trace,
    modular_quotient_trace,
    cyclotomic_trace_check,
)
from .extension import nu, mu, mu_induced, block_module, nonsplit_witness, strand_resolution_check

__version__ = "0.1.0"
