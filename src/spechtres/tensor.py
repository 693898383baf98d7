"""The rank-2^n sign-word lattice and its raising/lowering structure.

Vectors live in the n-fold tensor power of a rank-2 lattice with basis
(minus, plus).  A basis word is an n-bit mask: bit j set means position
j+1 carries the plus generator.  The raising operator flips one minus to
a plus per site and sums over sites; the lowering operator is its
adjoint; the diagonal operator weights a word by (#plus - #minus).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rings import SparseVector, read_only

__all__ = [
    "TensorVector",
    "apply_sl2",
    "inner_product",
    "perm_action",
    "coev_ev",
    "weight_class_masks",
]


class TensorVector(SparseVector):
    """Sparse exact-coefficient vector in the sign-word lattice, keyed by
    n-bit words; the arithmetic is rings.SparseVector's."""

    __slots__ = ("n",)
    _MISMATCH = "tensor length mismatch"
    _RANGE = "word {0} does not fit in {1.n} positions"

    def __init__(self, n: int, coeffs=None):
        if n < 0:
            raise ValueError("tensor length must be nonnegative")
        self.n = n
        SparseVector.__init__(self, coeffs, n)

    @property
    def space(self) -> tuple:
        return (self.n,)

    @classmethod
    def zero(cls, n: int) -> "TensorVector":
        return cls(n)

    @classmethod
    def word(cls, n: int, mask: int, coeff: int = 1) -> "TensorVector":
        return cls(n, {mask: coeff})

    def __repr__(self):
        if not self.coeffs:
            return f"TensorVector(n={self.n}, 0)"
        bits = [f"{c}*{format_word(w, self.n)}" for w, c in self.terms()]
        return f"TensorVector(n={self.n}, " + " + ".join(bits) + ")"


def format_word(mask: int, n: int) -> str:
    return "".join("+" if mask >> j & 1 else "-" for j in range(n))


def set_bits(mask: int):
    """The one-bit masks of the set bits of mask, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def apply_sl2(gen: str, v: TensorVector) -> TensorVector:
    """Apply one of the generators E, F, H site-wise.

    E flips one minus to a plus per site and sums; F is the adjoint flip;
    H is diagonal with eigenvalue (#plus - #minus) on every word.
    """
    n = v.n
    rules = {
        "E": lambda w: ((w | bit, 1) for bit in set_bits(~w & ((1 << n) - 1))),
        "F": lambda w: ((w ^ bit, 1) for bit in set_bits(w)),
        "H": lambda w: ((w, 2 * w.bit_count() - n),),
    }
    if gen not in rules:
        raise ValueError(f"unknown generator {gen!r}")
    return v.image(rules[gen])


inner_product = TensorVector.dot


def perm_action(sigma, v: TensorVector) -> TensorVector:
    """Permute tensor positions; position i of the result carries what
    position sigma^(-1)(i) carried before."""
    n = v.n
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    targets = [1 << (s - 1) for s in sigma]
    return v.image(lambda w: ((sum(t for i, t in enumerate(targets) if w >> i & 1), 1),))


def coev_ev(kind: str, k: int, v: TensorVector) -> TensorVector:
    """Insertion and contraction of the invariant 2-tensor.

    `coev` at slot k inserts (-+) - (+-) before position k, mapping length
    n to n+2; `ev` at slot k contracts positions (k, k+1) and is minus the
    adjoint of the insertion, mapping length n to n-2.
    """
    n = v.n
    if kind == "coev":
        if not 1 <= k <= n + 1:
            raise ValueError(f"coev slot {k} out of range for length {n}")
        low = (1 << (k - 1)) - 1

        def insert(w):
            base = (w & low) | ((w >> (k - 1)) << (k + 1))
            return ((base | (1 << k), 1), (base | (1 << (k - 1)), -1))

        return v.image(insert, TensorVector(n + 2))
    if kind == "ev":
        if n < 2 or not 1 <= k <= n - 1:
            raise ValueError(f"ev slot {k} out of range for length {n}")
        low = (1 << (k - 1)) - 1

        def contract(w):
            pair = (w >> (k - 1)) & 3
            if pair in (0, 3):
                return ()
            # (-,+) contracts to -1, (+,-) to +1: ev = -(coev adjoint)
            return (((w & low) | ((w >> (k + 1)) << (k - 1)), -1 if pair == 2 else 1),)

        return v.image(contract, TensorVector(n - 2))
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# fixed-weight word classes
#
# All Specht-level linear algebra happens inside one weight class at a
# time, so the words of a fixed plus-count b are enumerated once.


@lru_cache(maxsize=None)
def weight_classes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every word of n positions, grouped by plus count and ascending in
    each group, as int64; where each group starts; and, indexed by word,
    its position in its group.  Read-only."""
    # the bit counts of range(2**n), each half of a doubling one more than
    # the other
    counts = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    words = np.argsort(counts, kind="stable").astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(np.bincount(counts, minlength=n + 1))])
    position = np.empty(1 << n, dtype=np.intp)
    position[words] = np.arange(1 << n) - starts[counts[words]]
    return read_only(words), read_only(starts), read_only(position)


def weight_class_array(n: int, b: int) -> np.ndarray:
    """Sorted masks with exactly b bits set among n, read-only int64."""
    words, starts, _ = weight_classes(n)
    return words[starts[b] : starts[b + 1]] if 0 <= b <= n else words[:0]


@lru_cache(maxsize=None)
def weight_class_masks(n: int, b: int) -> tuple[tuple[int, ...], dict]:
    """Sorted masks with exactly b bits set among n, plus an index lookup."""
    masks = tuple(weight_class_array(n, b).tolist())
    return masks, {m: i for i, m in enumerate(masks)}


def perm_action_rows(sigma, n: int, b: int) -> np.ndarray:
    """perm_action on weight-class-b coordinates as a row gather: for a
    matrix m whose columns are vectors in those coordinates, m[rows] holds
    their images.  Bit i of the word that lands on u is bit sigma[i]-1 of
    u."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    masks = weight_class_array(n, b)
    source = np.zeros_like(masks)
    for i, target in enumerate(sigma):
        source |= (masks >> (target - 1) & 1) << i
    return weight_classes(n)[2][source]
