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
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from .rings import BasisSolver, SignMatrix, int_gram, read_only, residues

# Bound here only for perfbench's tracer tests, which wrap these two in
# this module's namespace.
from .rings import fp_inverse, fp_rref  # noqa: F401
from .tensor import TensorVector, perm_action_rows, weight_class_array, weight_classes

__all__ = [
    "diagram_weights",
    "Diagram2",
    "Tabloid2",
    "Tableau2",
    "tabloid_vector",
    "polytabloid",
    "standard_tableaux",
    "specht_basis",
    "SpechtModule",
    "specht_module",
    "basis_matrix",
    "raised_basis_matrix",
    "gram_of_diagram",
    "BasisSolver",
    "basis_solver",
    "ordinary_character",
    "partitions",
    "cycle_type_representative",
    "sn_generators",
    "sn_gather",
    "permutation_matrix_on_basis",
]


def diagram_weights(n: int) -> range:
    """The diagonal weights of the two-row diagrams on n letters, ascending:
    1 <= c <= n + 1 with n + 1 - c even.  The one statement of that rule."""
    return range(1 + n % 2, n + 2, 2)


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
        if c not in diagram_weights(n):
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
    base = sum(1 << (j - 1) for j in t.bottom)
    # the columns are disjoint, so a choice of swaps flips the sum of its masks
    cols = [(1 << (i - 1)) | (1 << (j - 1)) for i, j in t.columns()]
    return TensorVector(
        t.n, {base ^ sum(chosen): (-1) ** r for r in range(len(cols) + 1) for chosen in combinations(cols, r)}
    )


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


def specht_basis(n: int, c: int) -> list[TensorVector]:
    """Standard polytabloids for the diagram of weight c on n letters."""
    diag = Diagram2.from_weight(n, c)
    return [polytabloid(t) for t in standard_tableaux(diag)]


class SpechtModule:
    """S^(n-b, b) in the permutation module on b-subsets of 1..n (James, LNM
    682, sections 4 and 14): weight class b of the sign words, its arrays
    built on first use.  Past b = n/2 the word table has no columns.  The
    basis is held by its nonzeros, built from the word table: products,
    Grams and the mod-p solver read it in that form, and the few readers of
    dense entries (basis_matrix, the images and pivot columns of
    resolution._trace_basis, permutation_matrix_on_basis and the exact
    solver over Z) build them on demand, so no dense basis is cached."""

    def __init__(self, n: int, b: int):
        self.n, self.b = n, b
        self._solvers: dict[int | None, BasisSolver] = {}

    @cached_property
    def words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only words of the standard polytabloids of shape [n-b, b]:
        one row per subset of swapped columns (bit k of its index swaps
        column k), one column per basis vector, row 0 the tabloid words in
        basis order; 1 where a subset is odd (sign -1), else 0; and each
        tableau's unpaired top bits.  A standard bottom row has at most m/2
        of the first m positions, for every m; the basis order, by bottom
        rows lexicographically, is the descending order of bit-reversed
        words.  Swapping column k adds 2^top - 2^bottom, positions from 0."""
        n, b = self.n, self.b
        masks = weight_class_array(n, b)
        bits = masks[:, None] >> np.arange(n) & 1
        rows = np.flatnonzero((2 * np.cumsum(bits, axis=1) <= np.arange(1, n + 1)).all(axis=1))
        rows = rows[np.argsort(-(bits[rows] << np.arange(n - 1, -1, -1)).sum(axis=1), kind="stable")]
        plus = bits[rows].astype(bool)
        bottoms = np.nonzero(plus)[1].reshape(len(rows), b)
        tops = np.nonzero(~plus)[1].reshape(len(rows), n - b)
        words, odd = masks[rows][None, :], np.zeros(1, dtype=np.int8)
        for k in range(b):
            words = np.concatenate([words, words + (np.int64(1) << tops[:, k]) - (np.int64(1) << bottoms[:, k])])
            odd = np.concatenate([odd, 1 - odd])
        return read_only(words), read_only(odd), read_only(np.int64(1) << tops[:, b:])

    @cached_property
    def basis(self) -> SignMatrix:
        """The standard polytabloids in weight-class coordinates: one column
        per basis vector, rows ordered by word mask, entries 0 and +-1, held
        by their nonzeros (rings.SignMatrix), 2^b a column.

        The 2^b words of a polytabloid are its tabloid word plus the swap
        changes of a subset of its columns, with sign (-1)^|subset|; the
        words are distinct, so no entry is listed twice.  They are listed
        column by column, as the matrix takes them."""
        words, odd, _ = self.words
        rows = weight_classes(self.n)[2][words.T]  # one row of positions per column
        d, k = rows.shape
        signs = np.broadcast_to(np.array([1, -1], dtype=np.int8)[odd], (d, k))
        return SignMatrix((len(weight_class_array(self.n, self.b)), d), rows.ravel(), np.arange(d).repeat(k), signs.ravel())

    @cached_property
    def generator_gathers(self) -> tuple[np.ndarray, ...]:
        """perm_action_rows of sn_generators(n) on the weight class,
        read-only: the only gathers that every other permutation's gather
        is composed from."""
        return tuple(read_only(perm_action_rows(g, self.n, self.b)) for g in sn_generators(self.n))

    @cached_property
    def adjacent_gathers(self) -> tuple[np.ndarray, ...]:
        """Read-only gathers of t_i = (i i+1), i = 1..n-1, from those of s
        and z alone: t_1 = s and t_(i+1) = z t_i z^-1.  The gather of a
        product is rows_(x y) = rows_y[rows_x], and that of z^-1 is the
        inverse permutation of z's, so t_(i+1) gathers by z_inv[t_i[z]]."""
        gathers = self.generator_gathers
        if not gathers:
            return ()
        s, z = gathers[0], gathers[-1]
        z_inv = np.argsort(z)
        t = [s]
        for _ in range(self.n - 2):
            t.append(read_only(z_inv[t[-1][z]]))
        return tuple(t)

    def solver(self, p: int | None) -> BasisSolver:
        """Solver of the standard polytabloid basis mod p, or exactly over Z
        when p is None, built once per p.

        The rows are the tabloid words of the standard tableaux.  A
        polytabloid's other words come from swapping a column, which moves
        a plus to a smaller position, so they precede its own word in the
        lexicographic order of bottom rows (and in bottom-entry-sum order);
        since the basis is ordered lexicographically, matrix[rows] is upper
        unitriangular over Z."""
        if p not in self._solvers:
            self._solvers[p] = BasisSolver(p, self.basis, weight_classes(self.n)[2][self.words[0][0]])
        return self._solvers[p]


specht_module = lru_cache(maxsize=None)(SpechtModule)


def basis_matrix(n: int, c: int) -> np.ndarray:
    """The standard polytabloid basis of weight c on n letters as a dense
    int8 matrix, built anew from specht_module(n, b).basis on each call:
    for tests, since no command reads the basis dense."""
    return specht_module(n, Diagram2.from_weight(n, c).b).basis.dense()


def raised_basis_matrix(n: int, c: int, c0: int, p: int) -> np.ndarray:
    """The standard polytabloids of weight c on n letters raised c0 times,
    mod p: one column per basis vector in the weight-class coordinates c0
    pluses up, as residues (see rings.residues).

    Each height-2 column of a tableau t carries the sl2 singlet (-+) - (+-)
    in its two positions, which the raising operator E kills.  E acts on a
    tensor product as a derivation, so E^c0 acts on the unpaired top
    positions alone, where every word of e_t carries a minus:
    E^c0(e_t) = c0! * sum over the c0-subsets S of those positions of e_t
    with the positions of S flipped to plus.  A column thus has 2^b *
    C(n - 2b, c0) entries +-c0! at distinct words, so each is set once.
    """
    b = Diagram2.from_weight(n, c).b
    words, odd, free = specht_module(n, b).words
    chosen = list(combinations(range(n - 2 * b), c0))
    flips = free[:, np.asarray(chosen, dtype=np.intp).reshape(len(chosen), c0)].sum(axis=-1)
    signed = residues(np.array([1, -1]) * (factorial(c0) % p), p)
    out = np.zeros((len(weight_class_array(n, b + c0)), words.shape[1]), dtype=signed.dtype)
    raised = words[:, None, :] + flips.T[None, :, :]
    out[weight_classes(n)[2][raised], np.arange(out.shape[1])] = signed[odd, None, None]
    return out


@lru_cache(maxsize=None)
def gram_of_diagram(diag: Diagram2) -> np.ndarray:
    """Gram matrix of the standard polytabloids of a diagram, as int16 for
    every diagram a command takes (see rings.int_gram): the basis has
    entries 0 and +-1, so the bound of its Gram is its row count, at most
    C(16, 8) = 12870 < 2**15 there.  Read-only."""
    return read_only(int_gram(specht_module(diag.n, diag.b).basis))


def basis_solver(p: int | None, n: int, c: int) -> BasisSolver:
    """specht_module(n, b).solver(p) for the diagram of weight c on n letters."""
    return specht_module(n, Diagram2.from_weight(n, c).b).solver(p)


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


# ---------------------------------------------------------------------------
# the S_n action on the standard basis, composed from two generators


def sn_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """s = (1 2) and z = (1 2 ... n) as image tuples; they generate S_n.
    Only s for n = 2, where the two coincide, and none for n < 2, where
    S_n is trivial."""
    if n < 2:
        return ()
    s = (2, 1) + tuple(range(3, n + 1))
    return (s,) if n == 2 else (s, tuple(range(2, n + 1)) + (1,))


def sn_gather(sigma, n: int, b: int) -> np.ndarray:
    """tensor.perm_action_rows(sigma, n, b), composed from the gathers of s
    and z, so that what is proven of those two holds of it.

    A bubble sort of sigma's image tuple swaps entries i and i+1, which
    multiplies sigma on the right by t_i, until the identity is left:
    sigma t_a1 ... t_am = 1, so sigma = t_am ... t_a1, and each swap
    gathers the rows so far by t_a.  It takes as many swaps as sigma has
    inversions: n minus the number of cycles for cycle_type_representative.
    """
    image = list(sigma)
    if sorted(image) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    t = specht_module(n, b).adjacent_gathers
    rows = np.arange(len(weight_class_array(n, b)))
    for end in range(n - 1, 0, -1):
        for i in range(end):
            if image[i] > image[i + 1]:
                image[i], image[i + 1] = image[i + 1], image[i]
                rows = rows[t[i]]
    return rows


def permutation_matrix_on_basis(n: int, c: int, sigma, p: int) -> np.ndarray:
    """Matrix mod p of the plain position permutation on the standard
    basis: column j holds the coordinates of sigma's image of basis vector
    j, as uint8 residues.

    The images are gathered by sn_gather and solved by BasisSolver.coords,
    whose multiply-back proves that each lies in the span, or raises
    ValueError."""
    module = specht_module(n, Diagram2.from_weight(n, c).b)
    return module.solver(p).coords(module.basis.dense(sn_gather(sigma, n, module.b)))


def ordinary_character(tau: Diagram2, sigma) -> int:
    """Trace of the plain permutation action on the standard basis over Z,
    by Young's rule.

    The permutation module on b-subsets of 1..n is the sum of the Specht
    lattices [n-j, j] for j <= b (James, LNM 682, section 14), so the
    character of [n-b, b] is f_b - f_(b-1), where f_j counts the j-subsets
    that sigma fixes: the coefficient of x^j in the product over the cycles
    of sigma of (1 + x^length).  Exact in Python ints at every n.
    """
    n, b = tau.n, tau.b
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    fixed = [1] + [0] * b  # fixed[j] = f_j, truncated at degree b
    unseen = set(range(1, n + 1))
    while unseen:
        i = unseen.pop()  # walk the cycle of i
        length = 1
        while sigma[i - 1] in unseen:
            i = sigma[i - 1]
            unseen.remove(i)
            length += 1
        for j in range(b, length - 1, -1):
            fixed[j] += fixed[j - length]
    return fixed[b] - (fixed[b - 1] if b else 0)

