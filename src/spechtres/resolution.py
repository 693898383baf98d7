"""Raising-power maps between mod-p Specht modules, the finite complexes
they assemble into, exactness verification, and simple quotients cut out
by the degenerate part of the invariant form.

The complex at (p, n, k) has terms at the diagonal weights i*p + k_i with
k_i alternating between k and p - k, for as long as the weight stays at
most n + 1.  The map leaving term i applies the raising operator k_i
times; consecutive maps compose through a full p-th power and therefore
vanish mod p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rings import FpScalar, GramQuotient, fp_matmul, fp_rref
from .specht import (
    Diagram2,
    basis_matrix,
    basis_solver,
    gram_of_diagram,
    ordinary_character,
    permutation_matrix_on_basis,
    specht_dim,
)
from .tensor import apply_raising_power

__all__ = [
    "e_power_map",
    "ComplexSpec",
    "ComplexOverFp",
    "complex_weights",
    "truncation_index",
    "build_complex",
    "verify_exactness",
    "simple_quotient",
    "quotient_trace",
    "modular_character_check",
]


def e_power_map(p: int, n: int, c: int, c0: int) -> np.ndarray:
    """Matrix of the c0-fold raising operator from the weight-c standard
    Specht basis to the weight-(c - 2 c0) one, mod p.

    The containment of the raised lattice in the target Specht lattice
    plus p times the ambient lattice is what makes the coordinate solve
    succeed; an inconsistency would be an implementation bug and raises.
    """
    if c % p == 0:
        raise ValueError(f"weight {c} divisible by p={p}")
    if not (1 <= c0 <= p - 1) or c0 % p != c % p:
        raise ValueError(f"power {c0} must lie in 1..p-1 and match the weight mod p")
    target = c - 2 * c0
    if target < 1:
        raise ValueError(f"target weight {target} invalid")
    if c > n + 1:
        raise ValueError(f"weight {c} exceeds n+1={n + 1}")
    b = Diagram2.from_weight(n, c).b
    domain = basis_matrix(n, c) % p
    raised = apply_raising_power(n, b, domain, c0, p)
    return basis_solver(p, n, target).coords(raised)


@dataclass(frozen=True)
class ComplexSpec:
    """Shape data of the complex at (p, n, k): term weights in descending
    order, the raising powers of the maps between consecutive terms, and
    the truncation index."""

    p: int
    n: int
    k: int
    weights: tuple[int, ...]
    powers: tuple[int, ...]
    l: int


@dataclass
class ComplexOverFp:
    """A built complex: matrices in the standard Specht bases, with the
    domain of maps[i] the term of weight weights[i]."""

    spec: ComplexSpec
    dims: tuple[int, ...]
    maps: list = field(default_factory=list)


def truncation_index(p: int, n: int, k: int) -> int:
    """The index l with top weight n + 1 - 2l, split by the base-p division
    of (n + 1 + k) / 2."""
    q = ((n + 1 + k) // 2) % p
    return q - k if q >= k else q


def complex_weights(p: int, n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ascending-index enumeration of term weights i*p + k_i kept while they
    stay at most n + 1, returned in descending weight order together with
    the powers of the maps between consecutive terms."""
    if not (0 < k < p) or (n + 1 - k) % 2:
        raise ValueError(f"label k={k} invalid for p={p}, n={n}")
    if k > n + 1:
        raise ValueError(f"label k={k} exceeds n+1={n + 1}: no terms")
    weights = []
    i = 0
    while True:
        k_i = k if i % 2 == 0 else p - k
        w = i * p + k_i
        if w > n + 1:
            break
        weights.append(w)
        i += 1
    weights.reverse()
    # maps[j] leaves the descending-order term j, whose ascending index is
    # len - 1 - j; the power alternates between k (even index) and p - k
    count = len(weights)
    map_powers = tuple(
        k if (count - 1 - j) % 2 == 0 else p - k for j in range(count - 1)
    )
    return tuple(weights), map_powers


def build_complex(p: int, n: int, k: int) -> ComplexOverFp:
    """Build all raising-power matrices of the complex at (p, n, k).

    Cross-asserts the closed-form truncation index against the weight
    enumeration and that consecutive maps compose to zero.
    """
    weights, powers = complex_weights(p, n, k)
    l = truncation_index(p, n, k)
    if weights[0] != n + 1 - 2 * l:
        raise AssertionError(
            f"truncation mismatch: top weight {weights[0]} vs closed form {n + 1 - 2 * l}"
        )
    dims = tuple(specht_dim(n, (n + 1 - w) // 2) for w in weights)
    maps = [e_power_map(p, n, weights[j], powers[j]) for j in range(len(weights) - 1)]
    for j in range(len(maps) - 1):
        comp = fp_matmul(maps[j + 1], maps[j], p)
        if comp.any():
            raise AssertionError("consecutive maps do not compose to zero")
    spec = ComplexSpec(p, n, k, weights, powers, l)
    return ComplexOverFp(spec, dims, maps)


def verify_exactness(cx: ComplexOverFp) -> dict:
    """Rank bookkeeping of a built complex.

    At each interior node the kernel of the outgoing map must equal the
    image of the incoming one; the leftmost map must be injective; the
    rightmost node reports the dimension of the simple quotient.  Failure
    is reported, never raised.
    """
    p = cx.spec.p
    ranks = []
    for m in cx.maps:
        _, pivots = fp_rref(m, p)
        ranks.append(len(pivots))
    nodes = []
    exact = True
    tcount = len(cx.dims)
    for idx in range(tcount):
        dim = cx.dims[idx]
        out_rank = ranks[idx] if idx < len(cx.maps) else None
        in_rank = ranks[idx - 1] if idx > 0 else 0
        node = {"weight": cx.spec.weights[idx], "dim": dim}
        if idx == 0 and out_rank is not None:
            node["dim_ker"] = dim - out_rank
            node["injective"] = out_rank == dim
            exact = exact and node["injective"]
        elif out_rank is not None:
            node["dim_ker"] = dim - out_rank
            node["dim_im"] = in_rank
            node["homology"] = node["dim_ker"] - in_rank
            exact = exact and node["homology"] == 0
        else:
            node["dim_im"] = in_rank
            node["dim_simple"] = dim - in_rank
        nodes.append(node)
    dim_simple = cx.dims[-1] - (ranks[-1] if ranks else 0)
    return {
        "p": p,
        "n": cx.spec.n,
        "k": cx.spec.k,
        "weights": list(cx.spec.weights),
        "dims": list(cx.dims),
        "ranks": ranks,
        "nodes": nodes,
        "dim_simple": dim_simple,
        "exact": exact,
    }


# ---------------------------------------------------------------------------
# simple quotients from the degenerate part of the invariant form


@lru_cache(maxsize=None)
def simple_quotient(p: int, tau: Diagram2) -> GramQuotient:
    """Quotient of the mod-p Specht module of tau by the null space of its
    invariant form, in standard-basis coordinates."""
    q = GramQuotient(gram_of_diagram(tau), p)
    if q.quotient_dim <= 0 and q.radical.shape[0] > 0:
        raise AssertionError("two-row simple quotients are never zero for odd p")
    return q


def quotient_trace(p: int, tau: Diagram2, sigma) -> int:
    """Trace mod p of a permutation acting on the simple quotient."""
    q = simple_quotient(p, tau)
    action = permutation_matrix_on_basis(tau.n, tau.c, sigma, p)
    q.check_radical_invariance(action)
    return int(np.trace(q.quotient_matrix(action))) % p


def modular_character_check(p: int, tau: Diagram2, sigma) -> tuple[FpScalar, FpScalar, bool]:
    """Compare the quotient trace with the alternating sum of ordinary
    characters over the complex terms, both in F_p."""
    if not 0 <= tau.a - tau.b <= p - 2:
        raise ValueError("diagram outside the labelled range")
    n, k = tau.n, tau.c
    lhs = FpScalar(quotient_trace(p, tau, sigma), p)
    weights, _ = complex_weights(p, n, k)
    total = 0
    for idx_from_top, w in enumerate(weights):
        i = len(weights) - 1 - idx_from_top
        term = Diagram2.from_weight(n, w)
        total += (-1) ** i * ordinary_character(term, sigma)
    rhs = FpScalar(total, p)
    return lhs, rhs, lhs == rhs
