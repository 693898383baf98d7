"""Two-row tabloids, polytabloids and Specht lattices inside the sign-word
lattice.

A two-row diagram [a, b] with n = a + b letters is realized at the
diagonal weight c = a - b + 1: the tabloid with bottom row B maps to the
single word carrying plus exactly on B, and the polytabloid of a tableau
is the signed column sum applied to its tabloid word.  Polytabloids of
standard tableaux form the basis used for every matrix downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .rings import AUX_PRIME, fp_matmul, frac_solve, int_gram, read_only, unitriangular_inverse

# Bound here only for perfbench's tracer tests, which wrap these two in
# this module's namespace.
from .rings import fp_inverse, fp_rref  # noqa: F401
from .tensor import (
    TensorVector,
    perm_action,
    perm_action_rows,
    vectors_to_matrix,
    weight_class_masks,
)

__all__ = [
    "Diagram2",
    "Tabloid2",
    "Tableau2",
    "tabloid_vector",
    "polytabloid",
    "standard_tableaux",
    "specht_basis",
    "specht_dim",
    "basis_matrix",
    "gram_matrix",
    "gram_of_diagram",
    "BasisSolver",
    "basis_solver",
    "ordinary_character",
    "partitions",
    "cycle_type_representative",
    "permutation_matrix_on_basis",
]


@dataclass(frozen=True)
class Diagram2:
    """Two-row Young diagram with row lengths a >= b >= 0."""

    a: int
    b: int

    def __post_init__(self):
        if not (self.a >= self.b >= 0):
            raise ValueError(f"need a >= b >= 0, got [{self.a}, {self.b}]")

    @property
    def n(self) -> int:
        return self.a + self.b

    @property
    def c(self) -> int:
        """Diagonal weight a - b + 1 of the associated lattice slice."""
        return self.a - self.b + 1

    @classmethod
    def from_weight(cls, n: int, c: int) -> "Diagram2":
        if not 1 <= c <= n + 1 or (n + 1 - c) % 2:
            raise ValueError(f"weight {c} invalid for n={n}")
        b = (n + 1 - c) // 2
        return cls(n - b, b)

    def __str__(self):
        return f"[{self.a},{self.b}]"


@dataclass(frozen=True)
class Tabloid2:
    """Row-equivalence class of fillings: only the bottom-row set matters."""

    n: int
    bottom: frozenset

    def __post_init__(self):
        bottom = frozenset(self.bottom)
        object.__setattr__(self, "bottom", bottom)
        if not bottom <= set(range(1, self.n + 1)):
            raise ValueError("bottom row must be a subset of 1..n")
        if 2 * len(bottom) > self.n:
            raise ValueError("bottom row longer than top row")


class Tableau2:
    """Two-row tableau; column k pairs top[k] over bottom[k] for k < b."""

    __slots__ = ("top", "bottom")

    def __init__(self, top, bottom):
        self.top = tuple(top)
        self.bottom = tuple(bottom)
        if len(self.top) < len(self.bottom):
            raise ValueError("top row must be at least as long as the bottom row")
        entries = sorted(self.top + self.bottom)
        if entries != list(range(1, len(entries) + 1)):
            raise ValueError("entries must partition 1..n")

    @property
    def shape(self) -> Diagram2:
        return Diagram2(len(self.top), len(self.bottom))

    @property
    def n(self) -> int:
        return len(self.top) + len(self.bottom)

    def columns(self):
        return list(zip(self.top, self.bottom))

    def is_standard(self) -> bool:
        rows_increase = all(x < y for x, y in zip(self.top, self.top[1:])) and all(
            x < y for x, y in zip(self.bottom, self.bottom[1:])
        )
        cols_increase = all(i < j for i, j in self.columns())
        return rows_increase and cols_increase

    def __eq__(self, other):
        return isinstance(other, Tableau2) and (self.top, self.bottom) == (other.top, other.bottom)

    def __hash__(self):
        return hash((self.top, self.bottom))

    def __repr__(self):
        return f"Tableau2(top={self.top}, bottom={self.bottom})"


def tabloid_vector(t: Tabloid2) -> TensorVector:
    """The single word with plus exactly at the bottom-row positions."""
    mask = 0
    for j in t.bottom:
        mask |= 1 << (j - 1)
    return TensorVector.word(t.n, mask)


def polytabloid(t: Tableau2) -> TensorVector:
    """Signed column sum applied to the tabloid word of t.

    Expanding the product of (1 - column swap) over the b height-2 columns
    gives 2^b distinct words with coefficients +-1.
    """
    n = t.n
    base = 0
    for j in t.bottom:
        base |= 1 << (j - 1)
    cols = t.columns()
    out = {}
    for r in range(len(cols) + 1):
        for chosen in combinations(range(len(cols)), r):
            mask = base
            for k in chosen:
                i, j = cols[k]
                mask ^= (1 << (i - 1)) | (1 << (j - 1))
            out[mask] = out.get(mask, 0) + (-1) ** r
    return TensorVector(n, out)


def standard_tableaux(diag: Diagram2) -> list[Tableau2]:
    """Standard tableaux of the given shape, ordered lexicographically by
    the bottom-row entry sequence."""
    n, b = diag.n, diag.b
    out = []
    for bottom in combinations(range(1, n + 1), b):
        top = tuple(sorted(set(range(1, n + 1)) - set(bottom)))
        t = Tableau2(top, bottom)
        if all(i < j for i, j in t.columns()):
            out.append(t)
    return out


def specht_dim(n: int, b: int) -> int:
    """Number of standard tableaux of shape [n-b, b]."""
    from math import comb

    return comb(n, b) - (comb(n, b - 1) if b >= 1 else 0)


def specht_basis(n: int, c: int, p: int | None = None) -> list[TensorVector]:
    """Standard polytabloids for the diagram of weight c on n letters.

    With p given the coefficients are reduced mod p; the vectors stay a
    basis since standard polytabloids are unitriangular on tabloid words.
    """
    diag = Diagram2.from_weight(n, c)
    basis = [polytabloid(t) for t in standard_tableaux(diag)]
    if p is not None:
        basis = [v.reduce(p) for v in basis]
    return basis


def _standard_words(n: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Tabloid word of each standard tableau of shape [n-b, b], in basis
    order, and the change of word made by swapping each of its columns.

    The standard bottom rows are the b-subsets of 1..n whose k-th entry is
    at least 2k, in combination order.  Swapping column top over bottom
    moves a plus from position bottom to position top, which adds
    2^(top-1) - 2^(bottom-1) to the word.
    """
    combos = list(combinations(range(1, n + 1), b))
    bottoms = np.asarray(combos, dtype=np.int64).reshape(len(combos), b)
    bottoms = bottoms[(bottoms >= 2 * np.arange(1, b + 1)).all(axis=1)]
    in_bottom = np.zeros((len(bottoms), n + 1), dtype=bool)
    in_bottom[np.arange(len(bottoms))[:, None], bottoms] = True
    tops = np.nonzero(~in_bottom[:, 1:])[1].reshape(len(bottoms), n - b)[:, :b] + 1
    base = (np.int64(1) << (bottoms - 1)).sum(axis=1)
    swaps = (np.int64(1) << (tops - 1)) - (np.int64(1) << (bottoms - 1))
    return base, swaps


@lru_cache(maxsize=None)
def basis_matrix(n: int, c: int) -> np.ndarray:
    """Integer matrix of standard polytabloids in weight-class coordinates:
    one column per basis vector, rows ordered by word mask.  Read-only.

    The 2^b words of a polytabloid are its tabloid word plus the swap
    changes of a subset of its columns, with sign (-1)^|subset|; the words
    are distinct, so each entry is set once."""
    b = Diagram2.from_weight(n, c).b
    base, swaps = _standard_words(n, b)
    subsets = (np.arange(1 << b)[:, None] >> np.arange(b) & 1).astype(np.int64)
    words = base + subsets @ swaps.T
    signs = 1 - 2 * (subsets.sum(axis=1) & 1)
    masks = np.asarray(weight_class_masks(n, b)[0], dtype=np.int64)
    out = np.zeros((len(masks), len(base)), dtype=np.int64)
    out[np.searchsorted(masks, words), np.arange(len(base))] = signs[:, None]
    return read_only(out)


def gram_matrix(basis: list[TensorVector]) -> np.ndarray:
    """Exact integer Gram matrix of a list of equal-length vectors."""
    if not basis:
        return np.zeros((0, 0), dtype=np.int64)
    b = next(iter(basis[0].coeffs)).bit_count() if basis[0].coeffs else 0
    return int_gram(vectors_to_matrix(basis, b))


@lru_cache(maxsize=None)
def gram_of_diagram(diag: Diagram2) -> np.ndarray:
    """Gram matrix of the standard polytabloids of a diagram.  Read-only."""
    return read_only(int_gram(basis_matrix(diag.n, diag.c)))


def _tabloid_rows(n: int, c: int) -> np.ndarray:
    """Row of each standard tableau's own tabloid word, in basis order."""
    b = Diagram2.from_weight(n, c).b
    masks = np.asarray(weight_class_masks(n, b)[0], dtype=np.int64)
    return np.searchsorted(masks, _standard_words(n, b)[0])


class BasisSolver:
    """Coordinate solver against a fixed basis, mod a prime p or, when p is
    None, exactly over Z in Python ints held in object arrays.

    matrix holds the basis vectors as columns, rows picks a square of it
    that is invertible over the ring, and inv is that square's inverse.
    The coordinates of target columns are inv times their entries at rows;
    they are then verified by multiplying back, so a column outside the
    span is always detected.  matrix, rows and inv are read-only.
    """

    def __init__(self, p: int | None, matrix: np.ndarray, rows: np.ndarray, inv: np.ndarray):
        self.p = p
        self.matrix = read_only(matrix)
        self.rows = read_only(rows)
        self.inv = read_only(inv)

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b if self.p is None else fp_matmul(a, b, self.p)

    def coords(self, columns: np.ndarray) -> np.ndarray:
        """Coordinates of column vectors; raises ValueError when a column is
        outside the span."""
        if self.p is None:
            columns = np.asarray(columns, dtype=object)
        else:
            columns = np.asarray(columns, dtype=np.int64) % self.p
        if columns.ndim == 1:
            columns = columns[:, None]
        x = self._product(self.inv, columns[self.rows])
        if not np.array_equal(self._product(self.matrix, x), columns):
            raise ValueError("coordinate solve inconsistent: vector not in the basis span")
        return x


@lru_cache(maxsize=None)
def basis_solver(p: int | None, n: int, c: int) -> BasisSolver:
    """Solver of the standard polytabloid basis of weight c on n letters,
    mod p, or exactly over Z when p is None.

    The rows are the tabloid words of the standard tableaux.  A
    polytabloid's other words come from swapping a column, which moves a
    plus to a smaller position, so they precede its own word in the
    lexicographic order of bottom rows (and in bottom-entry-sum order);
    since the basis is ordered lexicographically, matrix[rows] is upper
    unitriangular over Z and is inverted by back-substitution.
    """
    matrix = basis_matrix(n, c)
    matrix = matrix.astype(object) if p is None else matrix % p
    rows = _tabloid_rows(n, c)
    return BasisSolver(p, matrix, rows, unitriangular_inverse(matrix[rows], p))


# ---------------------------------------------------------------------------
# ordinary characters


def partitions(n: int):
    """Partitions of n in descending lexicographic order."""

    def gen(rest, largest):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return list(gen(n, n))


def cycle_type_representative(cycle_type, n: int) -> tuple[int, ...]:
    """Canonical permutation with the given cycle type: consecutive blocks
    (1..k)(k+1..)... as a 1-indexed image tuple."""
    if sum(cycle_type) != n:
        raise ValueError("cycle type must sum to n")
    image = list(range(1, n + 1))
    start = 1
    for length in cycle_type:
        for offset in range(length):
            image[start - 1 + offset] = start + (offset + 1) % length
        start += length
    return tuple(image)


def permutation_matrix_on_basis(n: int, c: int, sigma, p: int) -> np.ndarray:
    """Matrix mod p of the plain position permutation on the standard basis."""
    b = Diagram2.from_weight(n, c).b
    images = basis_matrix(n, c)[perm_action_rows(sigma, n, b)]
    return basis_solver(p, n, c).coords(images)


def ordinary_character(tau: Diagram2, sigma) -> int:
    """Trace of the plain permutation action on the standard basis over Z.

    Computed through a single large modular image: the trace is an integer
    of absolute value at most the dimension (the action has finite order),
    which is far below half the auxiliary prime, so the symmetric residue
    is the exact value.
    """
    n, c = tau.n, tau.c
    d = specht_dim(n, tau.b)
    if d == 0:
        return 0
    mat = permutation_matrix_on_basis(n, c, sigma, AUX_PRIME)
    t = int(np.trace(mat)) % AUX_PRIME
    if t > AUX_PRIME // 2:
        t -= AUX_PRIME
    if abs(t) > d:
        raise ArithmeticError("character bound violated; auxiliary prime too small")
    return t


def ordinary_character_fraction(tau: Diagram2, sigma) -> int:
    """Reference implementation of the character trace with exact rational
    elimination; used to cross-check the modular route in tests."""
    n, c = tau.n, tau.c
    basis = specht_basis(n, c)
    if not basis:
        return 0
    b = tau.b
    cols = vectors_to_matrix(basis, b).tolist()
    images = vectors_to_matrix([perm_action(sigma, v) for v in basis], b).tolist()
    x = frac_solve(cols, images)
    trace = sum(x[i][i] for i in range(len(basis)))
    assert trace.denominator == 1
    return int(trace)
