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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dims import catalan
from .rings import _LIMIT, GramQuotient, fp_inverse, fp_matmul, fp_rank, read_only
from .specht import (
    Diagram2,
    diagram_weights,
    gram_of_diagram,
    ordinary_character,
    raised_basis_matrix,
    sn_gather,
    specht_module,
)
from .tensor import weight_classes

__all__ = [
    "e_power_map",
    "ComplexOverFp",
    "complex_labels",
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
    Specht basis to the weight-(c - 2 c0) one, as residues mod p.

    The raised basis vectors come in closed form from
    specht.raised_basis_matrix, as residues: c0! times each polytabloid
    with c0 of its unpaired top positions flipped to plus, summed over the
    choices.  Their coordinates are solved against the target basis and
    verified on every row by multiplying back.  The containment of the
    raised lattice in the target Specht lattice plus p times the ambient
    lattice is what makes that solve succeed; an inconsistency would be an
    implementation bug and raises.
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
    return specht_module(n, Diagram2.from_weight(n, target).b).solver(p).coords(raised_basis_matrix(n, c, c0, p))


@dataclass
class ComplexOverFp:
    """The complex at (p, n, k), built: term weights in descending order,
    the raising powers of the maps between consecutive terms, the
    truncation index, and the terms' dimensions and residue matrices in the
    standard Specht bases, the domain of maps[i] the term of weight
    weights[i]."""

    p: int
    n: int
    k: int
    weights: tuple[int, ...]
    powers: tuple[int, ...]
    l: int
    dims: tuple[int, ...]
    maps: list


def truncation_index(p: int, n: int, k: int) -> int:
    """The index l with top weight n + 1 - 2l, split by the base-p division
    of (n + 1 + k) / 2."""
    q = ((n + 1 + k) // 2) % p
    return q - k if q >= k else q


def complex_labels(p: int, n: int) -> range:
    """The labels k of the complexes at (p, n), ascending: the diagonal
    weights on n letters below p, so 0 < k < p, k <= n + 1 and n + 1 - k
    even.  The one statement of the label rule."""
    weights = diagram_weights(n)
    return range(weights.start, min(weights.stop, p), weights.step)


def complex_weights(p: int, n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The term weights i*p + k_i, k_i = k for even i and p - k for odd i,
    that stay at most n + 1, in descending order, and the power of each map
    between consecutive terms, half their difference.  A label outside
    complex_labels(p, n) raises ValueError."""
    if k not in complex_labels(p, n):
        raise ValueError(f"label k={k} invalid for p={p}, n={n}: need 0 < k < p, k <= n + 1 and n + 1 - k even")
    weights = tuple(w for i in range((n + 1) // p, -1, -1) if (w := i * p + (p - k if i % 2 else k)) <= n + 1)
    return weights, tuple((a - b) // 2 for a, b in zip(weights, weights[1:]))


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
    dims = tuple(catalan(n, Diagram2.from_weight(n, w).b) for w in weights)
    maps = [e_power_map(p, n, w, c0) for w, c0 in zip(weights, powers)]
    for j in range(len(maps) - 1):
        comp = fp_matmul(maps[j + 1], maps[j], p)
        if comp.any():
            raise AssertionError("consecutive maps do not compose to zero")
    return ComplexOverFp(p, n, k, weights, powers, l, dims, maps)


def verify_exactness(cx: ComplexOverFp) -> dict:
    """Rank bookkeeping of a built complex.

    homology[i] = dims[i] - ranks[i] - ranks[i - 1] is the kernel of the
    map leaving term i modulo the image of the one arriving there; term 0
    has no incoming map, so its entry is the injectivity check.  The
    complex is exact when every entry is zero, and the simple quotient is
    the last term modulo the image of the last map.  Failure is reported,
    never raised.
    """
    ranks = [fp_rank(m, cx.p) for m in cx.maps]
    homology = [d - r - (ranks[i - 1] if i else 0) for i, (d, r) in enumerate(zip(cx.dims, ranks))]
    return {
        "p": cx.p,
        "n": cx.n,
        "k": cx.k,
        "weights": list(cx.weights),
        "dims": list(cx.dims),
        "ranks": ranks,
        "homology": homology,
        "dim_simple": cx.dims[-1] - (ranks[-1] if ranks else 0),
        "exact": not any(homology),
    }


# ---------------------------------------------------------------------------
# simple quotients from the degenerate part of the invariant form


@lru_cache(maxsize=None)
def simple_quotient(p: int, tau: Diagram2) -> GramQuotient:
    """Quotient of the mod-p Specht module of tau by the null space of its
    invariant form, in standard-basis coordinates.  It is zero only when
    the Gram matrix is, so a diagonal entry, 2^b, nonzero mod p proves it
    nonzero without a rank."""
    gram = gram_of_diagram(tau)
    if len(gram) and not (np.diagonal(gram) % p).any():
        raise AssertionError("two-row simple quotients are never zero for odd p")
    return GramQuotient(gram, p)


@lru_cache(maxsize=None)
def _trace_basis(p: int, tau: Diagram2) -> tuple[np.ndarray, np.ndarray]:
    """Prove once that S_n maps the span mod p of tau's standard basis, and
    the radical of simple_quotient(p, tau), into themselves, or raise; then
    return the pivot basis vectors and their dual basis, read-only.

    The images of the basis under s and z (SpechtModule.generator_gathers)
    are solved side by side in one BasisSolver.coords, whose multiply-back
    refuses an image outside the span (ValueError).  A permutation that
    maps a finite span into itself maps it onto itself, so its inverse does
    too, and sn_gather composes every sigma's gather from these two.
    Permuting words preserves the form, so the radical is invariant too;
    each generator's block of the same coordinates checks it all the same
    (GramQuotient.quotient_matrix, AssertionError).  The coordinates are
    released before the Gram is inverted.

    The basis is held by its nonzeros and made dense here for two reads
    only (rings.SignMatrix.dense), each released after: its rows gathered
    by s and by z, and its pivot columns.  A pivot vector is given by the
    weight-class positions of its 2^b words (a column in the rows of
    SpechtModule.words), and the dual basis is Y = B_P G_PP^-1 mod p in
    uint8 residues, one column per pivot and one row per word, B_P the
    pivot columns of the basis.  G_PP^-1 is symmetric, so column j of Y is
    the dual vector y_j of quotient_trace."""
    module = specht_module(tau.n, tau.b)
    basis, gathers = module.basis, module.generator_gathers
    images = module.solver(p).coords(np.hstack([basis.dense(rows) for rows in gathers])) if gathers else None
    q = simple_quotient(p, tau)
    if len(q.free_idx):
        d = basis.shape[1]
        for lo in range(0, images.shape[1], d):
            q.quotient_matrix(images[:, lo : lo + d])
    del images
    pivots = q.pivot_idx
    inverse = fp_inverse(gram_of_diagram(tau)[np.ix_(pivots, pivots)], p)
    dual = fp_matmul(basis.dense()[:, pivots], inverse, p)
    at = weight_classes(tau.n)[2][module.words[0][:, pivots]]
    return read_only(at), read_only(dual)


def quotient_trace(p: int, tau: Diagram2, sigma) -> int:
    """Trace mod p of a permutation acting on the simple quotient
    D = S / (S cap S^perp), James's definition (LNM 682, section 4).

    Let G be the Gram of the standard basis v_1..v_d of S and P its q pivot
    columns.  The principal block G_PP of a symmetric matrix on a column
    basis is invertible, so the v_P are independent modulo the radical and
    map to a basis of D.  sigma maps S into S and the radical into itself:
    both are proven once per (p, tau) on s and z, and sn_gather composes
    sigma from them.  So sigma v_j = sum_k A[k, j] v_k plus a radical
    vector, and pairing with v_i for i in P, the radical pairing to zero
    with S, gives <v_i, sigma v_j> = (G_PP A)[i, j]: A = G_PP^-1 <v_P,
    sigma v_P>.  Its trace is sum_j <y_j, sigma v_j> with y_j = sum_k
    G_PP^-1[j, k] v_k, the dual basis, <y_j, v_k> = delta_jk.  The proofs
    and the dual basis come from _trace_basis.

    sigma's gather rows (sn_gather) reads (sigma v)[u] = v[rows[u]], so
    the sum over v_j's 2^b words w of v_j[w] y_j[rows[w]] is <y_j, sigma^-1
    v_j>.  sigma^-1 has sigma's cycle type, so it is conjugate to sigma and
    has the same trace.  That is one gather of q * 2^b residues per sigma,
    with no solve and no product.
    """
    at, dual = _trace_basis(p, tau)
    terms = dual[sn_gather(sigma, tau.n, tau.b)[at], np.arange(at.shape[1])]
    # each signed half sums at most q * 2^b residues in int64
    assert terms.size * (p - 1) < _LIMIT[np.dtype(np.int64)]
    sums = terms.sum(axis=1, dtype=np.int64)
    odd = specht_module(tau.n, tau.b).words[1]
    return int(sums[odd == 0].sum() - sums[odd == 1].sum()) % p


def modular_character_check(p: int, tau: Diagram2, sigma) -> tuple[int, int, bool]:
    """Compare the quotient trace with the alternating sum of ordinary
    characters over the terms of the complex at (p, n, k = a - b + 1), both
    mod p.  Returns (lhs, rhs, ok) with lhs and rhs the two residues in
    [0, p) and ok their equality; a diagram outside the labelled range
    raises ValueError (complex_weights)."""
    weights, _ = complex_weights(p, tau.n, tau.c)
    lhs = quotient_trace(p, tau, sigma)
    # the lowest weight is term 0 of the alternating sum
    terms = (Diagram2.from_weight(tau.n, w) for w in reversed(weights))
    rhs = sum((-1) ** i * ordinary_character(term, sigma) for i, term in enumerate(terms)) % p
    return lhs, rhs, lhs == rhs
