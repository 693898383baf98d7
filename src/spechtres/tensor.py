"""The rank-2^n sign-word lattice and its raising/lowering structure.

Vectors live in the n-fold tensor power of a rank-2 lattice with basis
(minus, plus).  A basis word is an n-bit mask: bit j set means position
j+1 carries the plus generator.  The raising operator flips one minus to
a plus per site and sums over sites; the lowering operator is its
adjoint; the diagonal operator weights a word by (#plus - #minus).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .rings import read_only

__all__ = [
    "TensorVector",
    "apply_sl2",
    "inner_product",
    "perm_action",
    "coev_ev",
    "perm_sign",
    "weight_class_masks",
    "raising_step",
    "apply_raising_power",
]


class TensorVector:
    """Sparse exact-coefficient vector in the sign-word lattice.

    Coefficients are Python integers; zero coefficients are never stored.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        if n < 0:
            raise ValueError("tensor length must be nonnegative")
        self.n = n
        self.coeffs = {int(w): int(c) for w, c in (coeffs or {}).items() if c != 0}
        for w in self.coeffs:
            if w < 0 or w >> n:
                raise ValueError(f"word {w} does not fit in {n} positions")

    @classmethod
    def zero(cls, n: int) -> "TensorVector":
        return cls(n)

    @classmethod
    def word(cls, n: int, mask: int, coeff: int = 1) -> "TensorVector":
        return cls(n, {mask: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        return sorted(self.coeffs.items())

    def __add__(self, other: "TensorVector") -> "TensorVector":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return TensorVector(self.n, out)

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + (-other)

    def __neg__(self) -> "TensorVector":
        return TensorVector(self.n, {w: -c for w, c in self.coeffs.items()})

    def __mul__(self, k: int) -> "TensorVector":
        return TensorVector(self.n, {w: c * k for w, c in self.coeffs.items()})

    __rmul__ = __mul__

    def reduce(self, p: int) -> "TensorVector":
        return TensorVector(self.n, {w: c % p for w, c in self.coeffs.items()})

    def _check(self, other: "TensorVector"):
        if not isinstance(other, TensorVector) or other.n != self.n:
            raise ValueError("tensor length mismatch")

    def __eq__(self, other):
        return isinstance(other, TensorVector) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, tuple(self.terms())))

    def __repr__(self):
        if not self.coeffs:
            return f"TensorVector(n={self.n}, 0)"
        bits = [f"{c}*{format_word(w, self.n)}" for w, c in self.terms()]
        return f"TensorVector(n={self.n}, " + " + ".join(bits) + ")"


def format_word(mask: int, n: int) -> str:
    return "".join("+" if mask >> j & 1 else "-" for j in range(n))


def apply_sl2(gen: str, v: TensorVector) -> TensorVector:
    """Apply one of the generators E, F, H site-wise.

    E flips one minus to a plus per site and sums; F is the adjoint flip;
    H is diagonal with eigenvalue (#plus - #minus) on every word.
    """
    n = v.n
    out: dict[int, int] = {}
    if gen == "H":
        for w, c in v.coeffs.items():
            k = (2 * w.bit_count() - n) * c
            if k:
                out[w] = out.get(w, 0) + k
    elif gen == "E":
        for w, c in v.coeffs.items():
            free = ~w & ((1 << n) - 1)
            while free:
                bit = free & -free
                out[w | bit] = out.get(w | bit, 0) + c
                free ^= bit
    elif gen == "F":
        for w, c in v.coeffs.items():
            setbits = w
            while setbits:
                bit = setbits & -setbits
                out[w ^ bit] = out.get(w ^ bit, 0) + c
                setbits ^= bit
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return TensorVector(n, out)


def inner_product(v: TensorVector, w: TensorVector) -> int:
    """The symmetric bilinear form for which the words are orthonormal."""
    if v.n != w.n:
        raise ValueError("tensor length mismatch")
    if len(v.coeffs) > len(w.coeffs):
        v, w = w, v
    return sum(c * w.coeffs.get(m, 0) for m, c in v.coeffs.items())


def perm_sign(sigma) -> int:
    """Sign of a permutation given as a 1-indexed image tuple."""
    n = len(sigma)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_action(sigma, v: TensorVector, signed: bool = False) -> TensorVector:
    """Permute tensor positions; position i of the result carries what
    position sigma^(-1)(i) carried before.  The signed variant multiplies
    by the sign of the permutation."""
    n = v.n
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    s = perm_sign(sigma) if signed else 1
    out: dict[int, int] = {}
    for w, c in v.coeffs.items():
        m = 0
        for i in range(n):
            if w >> i & 1:
                m |= 1 << (sigma[i] - 1)
        out[m] = out.get(m, 0) + s * c
    return TensorVector(n, out)


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
        out: dict[int, int] = {}
        for w, c in v.coeffs.items():
            head = w & low
            tail = (w >> (k - 1)) << (k + 1)
            base = head | tail
            plus_second = base | (1 << k)
            plus_first = base | (1 << (k - 1))
            out[plus_second] = out.get(plus_second, 0) + c
            out[plus_first] = out.get(plus_first, 0) - c
        return TensorVector(n + 2, out)
    if kind == "ev":
        if n < 2 or not 1 <= k <= n - 1:
            raise ValueError(f"ev slot {k} out of range for length {n}")
        out = {}
        for w, c in v.coeffs.items():
            pair = (w >> (k - 1)) & 3
            if pair in (0, 3):
                continue
            head = w & ((1 << (k - 1)) - 1)
            tail = (w >> (k + 1)) << (k - 1)
            m = head | tail
            # (-,+) contracts to -1, (+,-) to +1: ev = -(coev adjoint)
            s = -c if pair == 2 else c
            out[m] = out.get(m, 0) + s
        return TensorVector(n - 2, out)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# vectorized raising-operator steps on fixed-weight word classes
#
# All Specht-level linear algebra happens inside one weight class at a
# time, so the words of a fixed plus-count b are enumerated once and the
# raising step between consecutive classes is stored as index arrays.


@lru_cache(maxsize=None)
def weight_class_masks(n: int, b: int) -> tuple[tuple[int, ...], dict]:
    """Sorted masks with exactly b bits set among n, plus an index lookup."""
    masks = tuple(sorted(sum(1 << i for i in combo) for combo in combinations(range(n), b)))
    return masks, {m: i for i, m in enumerate(masks)}


@lru_cache(maxsize=None)
def raising_step(n: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (rows, cols) of the raising operator from the weight
    class with b pluses to the one with b+1; every entry equals one.
    Read-only."""
    masks, _ = weight_class_masks(n, b)
    _, up_index = weight_class_masks(n, b + 1)
    rows = []
    cols = []
    for col, w in enumerate(masks):
        for j in range(n):
            if not (w >> j & 1):
                rows.append(up_index[w | (1 << j)])
                cols.append(col)
    return read_only(np.asarray(rows, dtype=np.intp)), read_only(np.asarray(cols, dtype=np.intp))


@lru_cache(maxsize=None)
def _raising_sites(n: int, b: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The raising step from class b to class b+1 split by site: for each
    position j, the class-b words src with a minus at j and the class-(b+1)
    index dst of each word with that minus flipped.  Read-only."""
    masks = np.asarray(weight_class_masks(n, b)[0], dtype=np.int64)
    up = np.asarray(weight_class_masks(n, b + 1)[0], dtype=np.int64)
    sites = []
    for j in range(n):
        src = np.flatnonzero((masks >> j & 1) == 0)
        dst = np.searchsorted(up, masks[src] | (1 << j))
        sites.append((read_only(src), read_only(dst)))
    return tuple(sites)


def apply_raising_power(n: int, b: int, mat: np.ndarray, power: int, p: int | None = None) -> np.ndarray:
    """Apply the raising operator `power` times to columns given in the
    weight-class-b coordinates, returning weight-class-(b+power) rows.

    Each step is one scatter-add per site: for a fixed site j the map
    w -> w | 2^j is injective, so no target row repeats within a scatter.
    Coefficients stay exact; with p given they are reduced after every
    step, which keeps the int64 intermediate values tiny.
    """
    cur = np.asarray(mat, dtype=np.int64)
    for step in range(power):
        out = np.zeros((len(weight_class_masks(n, b + step + 1)[0]), cur.shape[1]), dtype=np.int64)
        for src, dst in _raising_sites(n, b + step):
            out[dst] += cur[src]
        if p is not None:
            np.remainder(out, p, out=out)
        cur = out
    return cur


def vector_in_class_coords(v: TensorVector, b: int) -> np.ndarray:
    """Column of coefficients of v in its weight class ordering."""
    masks, index = weight_class_masks(v.n, b)
    col = np.zeros(len(masks), dtype=np.int64)
    for w, c in v.coeffs.items():
        if w.bit_count() != b:
            raise ValueError("vector is not homogeneous of the requested weight")
        col[index[w]] = c
    return col


def vectors_to_matrix(vectors, b: int) -> np.ndarray:
    """Stack homogeneous vectors as columns in weight-class coordinates."""
    if not vectors:
        n = 0
        return np.zeros((1, 0), dtype=np.int64)
    n = vectors[0].n
    masks, index = weight_class_masks(n, b)
    out = np.zeros((len(masks), len(vectors)), dtype=np.int64)
    for j, v in enumerate(vectors):
        out[:, j] = vector_in_class_coords(v, b)
    return out
