"""Exterior algebra of surface homology with its dual raising/lowering
action, symplectic generator actions, weight decomposition, handle maps,
lowest-weight components, and trace invariants.

A genus-g surface contributes generators a_1..a_g, b_1..b_g; a monomial
is a 2g-bit mask with bit i-1 for a_i and bit g+i-1 for b_i, and wedge
signs always normalize to this order.  The raising operator multiplies by
the symplectic 2-form; its adjoint lowers; the degree operator is
centred at g.  Weight spaces are isometric to sign-word lattices, which
is how everything connects to the Specht machinery.

Each lowest-weight component has a basis assembled weight block by weight
block from standard Specht bases, so its coordinates are solved exactly
over Z, one weight block at a time, by the Specht solvers of its blocks
(LefschetzBasis.coords).  That is the only coordinate route: an action
mod p is the exact action reduced mod p.  The simple quotient of a
component mod p is a rings.GramQuotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .rings import (
    GramQuotient,
    SparseVector,
    read_only,
    residues,
    LaurentInt,
    int_charpoly,
    int_gram,
    cyclotomic_eval,
    CyclotomicElem,
    zeta_quantum,
    quantum_integer,
)

# Bound here only for perfbench's tracer tests, which wrap these two in
# this module's namespace.
from .rings import fp_inverse, fp_rref  # noqa: F401
from .specht import Diagram2, SpechtModule, Tableau2, diagram_weights, polytabloid, specht_basis, specht_module
from .tensor import TensorVector, coev_ev, set_bits, weight_class_masks

__all__ = [
    "ExteriorVector",
    "inner_product_ext",
    "wedge",
    "wedge_sl2",
    "symplectic_form_vector",
    "component_quotient",
    "lie_e_token",
    "lie_f_token",
    "s_token",
    "perm_token",
    "transvection_token",
    "j_token",
    "matrix_token",
    "apply_token",
    "apply_word",
    "word_matrix",
    "require_group_word",
    "group_token_pool",
    "random_group_word",
    "weight_of_mask",
    "nabla_weights",
    "upsilon_to_surface",
    "upsilon_from_surface",
    "handle_map",
    "raising_generator_block",
    "tableau_raising_rule",
    "labeled_tableau_vector",
    "lefschetz_weights",
    "lefschetz_block_counts",
    "LefschetzBasis",
    "lefschetz_basis",
    "lefschetz_action_matrix",
    "DecompositionError",
    "AlexanderTrace",
    "alexander_trace",
    "modular_quotient_trace",
    "cyclotomic_trace_check",
    "cyclotomic_reduction_check",
]


class ExteriorVector(SparseVector):
    """Sparse exact-coefficient element of the exterior algebra on the 2g
    homology generators, keyed by 2g-bit monomials; the arithmetic is
    rings.SparseVector's."""

    __slots__ = ("g",)
    _MISMATCH = "genus mismatch"
    _RANGE = "monomial {0} out of range for genus {1.g}"

    def __init__(self, g: int, coeffs=None):
        self.g = g
        # called directly: super() adds a fifth to the cost of a
        # construction, and a word's action makes one per monomial image
        SparseVector.__init__(self, coeffs, 2 * g)

    @property
    def space(self) -> tuple:
        return (self.g,)

    @classmethod
    def zero(cls, g: int) -> "ExteriorVector":
        return cls(g)

    @classmethod
    def unit(cls, g: int) -> "ExteriorVector":
        return cls(g, {0: 1})

    @classmethod
    def monomial(cls, g: int, mask: int, coeff: int = 1) -> "ExteriorVector":
        return cls(g, {mask: coeff})

    @classmethod
    def gen_a(cls, g: int, i: int) -> "ExteriorVector":
        return cls.monomial(g, 1 << (i - 1))

    @classmethod
    def gen_b(cls, g: int, i: int) -> "ExteriorVector":
        return cls.monomial(g, 1 << (g + i - 1))

    def is_homogeneous(self) -> int | None:
        degs = {m.bit_count() for m in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self):
        if not self.coeffs:
            return f"ExteriorVector(g={self.g}, 0)"
        return f"ExteriorVector(g={self.g}, " + " + ".join(
            f"{c}*{format_monomial(m, self.g)}" for m, c in self.terms()
        ) + ")"


def format_monomial(mask: int, g: int) -> str:
    names = []
    for i in range(2 * g):
        if mask >> i & 1:
            names.append(f"a{i + 1}" if i < g else f"b{i - g + 1}")
    return "^".join(names) if names else "1"


inner_product_ext = ExteriorVector.dot


def _merge_sign(m1: int, m2: int) -> int:
    """Sign of sorting the concatenation of two sorted disjoint masks."""
    sign = 1
    m = m2
    while m:
        bit = m & -m
        # count generators of m1 above this one
        if (m1 >> bit.bit_length()).bit_count() % 2:
            sign = -sign
        m ^= bit
    return sign


def wedge_monomials(m1: int, m2: int) -> tuple[int, int] | None:
    if m1 & m2:
        return None
    return _merge_sign(m1, m2), m1 | m2


def wedge(v: ExteriorVector, w: ExteriorVector) -> ExteriorVector:
    if v.g != w.g:
        raise ValueError("genus mismatch")
    # a double loop, not SparseVector.image, which made g = 5 component actions 1.2x slower
    out: dict[int, int] = {}
    for m1, c1 in v.coeffs.items():
        for m2, c2 in w.coeffs.items():
            sw = wedge_monomials(m1, m2)
            if sw is None:
                continue
            s, m = sw
            out[m] = out.get(m, 0) + s * c1 * c2
    return ExteriorVector(v.g, out)


def symplectic_form_vector(g: int) -> ExteriorVector:
    """The invariant 2-form: sum of a_i wedge b_i."""
    return ExteriorVector(g, {(1 << i) | (1 << (g + i)): 1 for i in range(g)})


def wedge_sl2(gen: str, v: ExteriorVector) -> ExteriorVector:
    """Degree-raising by the 2-form, its adjoint, or the centred degree
    operator."""
    g = v.g
    if gen == "H":
        return v.image(lambda m: ((m, m.bit_count() - g),))
    if gen == "E":
        return wedge(v, symplectic_form_vector(g))
    if gen == "F":
        pairs = [(1 << i) | (1 << (g + i)) for i in range(g)]
        return v.image(lambda m: ((m ^ pair, _merge_sign(m ^ pair, pair)) for pair in pairs if m & pair == pair))
    raise ValueError(f"unknown generator {gen!r}")


# ---------------------------------------------------------------------------
# symplectic word actions
#
# Group tokens are integral symplectic matrices extended multiplicatively;
# the two Lie tokens act as derivations.  A word is a list of tokens and
# acts as the product of its tokens, rightmost first.


def lie_e_token(i: int):
    return ("lie_e", i)


def lie_f_token(i: int):
    return ("lie_f", i)


def matrix_token(m) -> tuple:
    m = tuple(tuple(int(x) for x in row) for row in m)
    _check_symplectic(m)
    return ("sp", m)


def _check_symplectic(m):
    """Group tokens must be integral symplectic matrices; this also
    guarantees invertibility."""
    n = len(m)
    if n % 2 or any(len(row) != n for row in m):
        raise ValueError("matrix token must be square of even size")
    g = n // 2
    cols = [[m[i][j] for i in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            expect = 1 if j == g + i else 0
            if symplectic_pairing(cols[i], cols[j], g) != expect:
                raise ValueError("matrix token does not preserve the skew form")


def symplectic_pairing(u, v, g: int) -> int:
    """The skew form on coordinate vectors over a_1..a_g, b_1..b_g, with
    (a_i, b_i) = 1."""
    return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))


def s_token(j: int, g: int):
    """The local rotation a_j -> -b_j, b_j -> a_j."""
    m = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(2 * g):
        m[i][i] = 1
    m[j - 1][j - 1] = 0
    m[g + j - 1][g + j - 1] = 0
    m[g + j - 1][j - 1] = -1
    m[j - 1][g + j - 1] = 1
    return matrix_token(m)


def perm_token(sigma, g: int):
    """Relabelling of handles: a_i -> a_sigma(i), b_i -> b_sigma(i)."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, g + 1)):
        raise ValueError("not a permutation of 1..g")
    m = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(1, g + 1):
        m[sigma[i - 1] - 1][i - 1] = 1
        m[g + sigma[i - 1] - 1][g + i - 1] = 1
    return matrix_token(m)


def transvection_token(j: int, g: int):
    """The unipotent map fixing everything except b_j -> a_j + b_j."""
    m = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(2 * g):
        m[i][i] = 1
    m[j - 1][g + j - 1] = 1
    return matrix_token(m)


@lru_cache(maxsize=None)
def j_token(g: int):
    """The calibration map a_i -> b_i, b_i -> -a_i."""
    m = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        m[g + i][i] = 1
        m[i][g + i] = -1
    return matrix_token(m)


def word_matrix(word, g: int) -> np.ndarray:
    """W = M_1 ... M_k, the 2g x 2g matrix of a group word, in Python ints
    in an object array; the rightmost token acts first, as in apply_word."""
    w = np.identity(2 * g, dtype=object)
    for _, m in word:
        w = w @ np.array(m, dtype=object)
    return w


def _apply_sp_matrix(m, vectors) -> list[ExteriorVector]:
    """Images of forms under the integral 2g x 2g matrix m, extended
    multiplicatively.  The image of a monomial is the column of m at its
    lowest generator wedged with the image of the rest of the monomial;
    images are kept for the whole call, so monomials share their tails, and
    a column is read only when a monomial needs it."""
    n = len(m)
    g = n // 2
    images = {0: ExteriorVector.unit(g)}

    def image(mask):
        img = images.get(mask)
        if img is None:
            bit = mask & -mask
            if mask == bit:
                j = bit.bit_length() - 1
                img = ExteriorVector(g, {1 << i: m[i][j] for i in range(n) if m[i][j]})
            else:
                img = wedge(image(bit), image(mask ^ bit))
            images[mask] = img
        return img

    out = []
    for v in vectors:
        # not SparseVector.image, which made g = 5 component actions 1.15x slower
        acc: dict[int, int] = {}
        for mask, c in v.coeffs.items():
            for nm, nc in image(mask).coeffs.items():
                acc[nm] = acc.get(nm, 0) + c * nc
        out.append(ExteriorVector(g, acc))
    return out


def _lie_images(kind: str, i: int, g: int) -> list[dict[int, int]]:
    """Generator images of the two Serre-type derivations.

    The raising one sends a_{i+1} to a_i and b_i to -b_{i+1} for i < g and
    b_g to a_g at i = g; the lowering one is its adjoint, the same moves
    from target back to source.
    """
    if not 1 <= i <= g:
        raise ValueError(f"index {i} out of range")
    if kind not in ("lie_e", "lie_f"):
        raise ValueError(kind)
    # (source, target, coefficient) of the raising moves; a_k is generator
    # k - 1 and b_k is generator g + k - 1
    moves = [(i, i - 1, 1), (g + i - 1, g + i, -1)] if i < g else [(2 * g - 1, g - 1, 1)]
    images: list[dict[int, int]] = [dict() for _ in range(2 * g)]
    for src, tgt, c in moves:
        if kind == "lie_f":
            src, tgt = tgt, src
        images[src] = {tgt: c}
    return images


def _apply_derivation(images, v: ExteriorVector) -> ExteriorVector:
    def rule(mask):
        for bit in set_bits(mask):
            rest = mask ^ bit
            # sign of extracting the generator to the front
            front_sign = -1 if (mask & (bit - 1)).bit_count() % 2 else 1
            for tgt, tc in images[bit.bit_length() - 1].items():
                sw = wedge_monomials(1 << tgt, rest)
                if sw is not None:
                    yield sw[1], front_sign * sw[0] * tc

    return v.image(rule)


def apply_token(token, v: ExteriorVector) -> ExteriorVector:
    kind = token[0]
    if kind == "sp":
        return _apply_sp_matrix(token[1], [v])[0]
    if kind in ("lie_e", "lie_f"):
        return _apply_derivation(_lie_images(kind, token[1], v.g), v)
    raise ValueError(f"unknown token {token!r}")


def apply_word(word, v: ExteriorVector) -> ExteriorVector:
    """Apply a token word as a product of operators, rightmost first."""
    for token in reversed(list(word)):
        v = apply_token(token, v)
    return v


def require_group_word(word):
    """Trace computations only make sense for invertible tokens."""
    for token in word:
        if token[0] != "sp":
            raise ValueError(f"non-invertible token {token!r} in a trace word")


@lru_cache(maxsize=None)
def group_token_pool(g: int) -> tuple:
    """The local rotations S1..Sg, the transvections U1..Ug and the
    adjacent handle swaps P1..P(g-1), in that order, which cli.parse_word
    indexes into."""
    pool = [s_token(j, g) for j in range(1, g + 1)]
    pool += [transvection_token(j, g) for j in range(1, g + 1)]
    for i in range(1, g):
        sigma = list(range(1, g + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        pool.append(perm_token(sigma, g))
    return tuple(pool)


def random_group_word(g: int, length: int, rng) -> list:
    """length tokens drawn from the pool; at genus 0 the pool and the group
    are trivial, and the word is empty."""
    pool = group_token_pool(g)
    return [pool[rng.randrange(len(pool))] for _ in range(length)] if pool else []


# ---------------------------------------------------------------------------
# weights and the lattice isometries


def weight_of_mask(mask: int, g: int) -> tuple[int, ...]:
    lam = []
    for i in range(g):
        has_a = mask >> i & 1
        has_b = mask >> (g + i) & 1
        lam.append(0 if has_a == has_b else (1 if has_a else -1))
    return tuple(lam)


def zero_set(lam) -> tuple[int, ...]:
    return tuple(i + 1 for i, x in enumerate(lam) if x == 0)


def nabla_weights(g: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(g):
        out = [lam + (x,) for lam in out for x in (-1, 0, 1)]
    return sorted(out)


def _upsilon_monomial(lam, word_mask: int, g: int) -> tuple[int, int]:
    """Monomial (mask, sign) of the image of a basis word: the signed
    generators of the nonzero weight entries in index order, wedged with
    the paired generators at the plus slots."""
    seq = []
    for i, x in enumerate(lam):
        if x == 1:
            seq.append(i)
        elif x == -1:
            seq.append(g + i)
    zeros = zero_set(lam)
    for slot, j in enumerate(zeros):
        if word_mask >> slot & 1:
            seq.append(j - 1)
            seq.append(g + j - 1)
    sign = 1
    mask = 0
    for idx in seq:
        bit = 1 << idx
        if mask & bit:
            raise AssertionError("repeated generator in weight monomial")
        if (mask >> (idx + 1)).bit_count() % 2:
            sign = -sign
        mask |= bit
    return mask, sign


def upsilon_to_surface(lam, x: TensorVector, g: int) -> ExteriorVector:
    """Isometric embedding of the sign-word lattice onto the weight space."""
    lam = tuple(lam)
    if len(lam) != g or any(abs(v) > 1 for v in lam):
        raise ValueError("invalid weight")
    n = len(zero_set(lam))
    if x.n != n:
        raise ValueError(f"tensor length {x.n} does not match weight (need {n})")
    return x.image(lambda w: (_upsilon_monomial(lam, w, g),), ExteriorVector(g))


def upsilon_from_surface(lam, v: ExteriorVector, g: int) -> TensorVector:
    """Inverse of the embedding on its weight space."""
    lam = tuple(lam)
    zeros = zero_set(lam)

    def rule(m):
        if weight_of_mask(m, g) != lam:
            raise ValueError("vector does not lie in the requested weight space")
        w = sum(1 << slot for slot, j in enumerate(zeros) if m >> (j - 1) & 1)
        mm, s = _upsilon_monomial(lam, w, g)
        assert mm == m
        return ((w, s),)

    return v.image(rule, TensorVector(len(zeros)))


def handle_map(direction: str, v: ExteriorVector) -> ExteriorVector:
    """Adding a handle wedges with the new a-generator; removing one is the
    adjoint, so the round trip is the identity."""
    g = v.g
    if direction == "+":
        new_a = 1 << g

        def add(m):
            # the b-generators move up one place, past the new a-generator
            lifted = (m & (new_a - 1)) | ((m >> g) << (g + 1))
            return ((lifted | new_a, _merge_sign(lifted, new_a)),)

        return v.image(add, ExteriorVector(g + 1))
    if direction == "-":
        if g < 1:
            raise ValueError("cannot remove a handle at genus 0")
        new_a = 1 << (g - 1)
        new_b = 1 << (2 * g - 1)

        def remove(m):
            if not m & new_a or m & new_b:
                return ()
            rest = m ^ new_a
            return (((rest & (new_a - 1)) | ((rest >> g) << (g - 1)), _merge_sign(rest, new_a)),)

        return v.image(remove, ExteriorVector(g - 1))
    raise ValueError("direction must be '+' or '-'")


# ---------------------------------------------------------------------------
# the tabulated weight-block action of the raising Serre generators


# The tabulated block of E_i by the generator's weight entries, (lam_i,
# lam_{i+1}), or (lam_g, None) at i = g: its case, its sign and its tensor
# operator (None for the identity), which acts at the slot k of handle i
# among the zero positions.  Entries not listed send the weight outside
# {-1, 0, 1}^g.
_RAISING_BLOCKS = {
    (-1, None): ("identity", 1, None),
    (0, 1): ("identity", 1, None),
    (-1, 0): ("minus-identity", -1, None),
    (-1, 1): ("insertion at {k}", 1, "coev"),
    (0, 0): ("minus-contraction at {k}", -1, "ev"),
}


def raising_generator_block(i: int, lam, g: int) -> dict:
    """Compare the weight-block restriction of a raising Serre generator,
    conjugated to sign-word coordinates, against its tabulated form.

    Returns the case label, both matrices, and the comparison flag.
    """
    lam = tuple(lam)
    n = len(zero_set(lam))
    if not 1 <= i <= g:
        raise ValueError("generator index out of range")
    key = (lam[i - 1], lam[i] if i < g else None)
    words = [TensorVector.word(n, w) for w in range(1 << n)]
    images = [apply_token(lie_e_token(i), upsilon_to_surface(lam, v, g)) for v in words]
    if key not in _RAISING_BLOCKS:
        # flags a nonzero image where none is allowed
        computed = np.array([[0 if img.is_zero() else 1 for img in images]], dtype=np.int64)
        return {"case": "invalid-target", "computed": computed, "expected": np.zeros_like(computed), "ok": not computed.any()}
    target = lam[:i - 1] + ((lam[i - 1] + 2,) if i == g else (lam[i - 1] + 1, lam[i] - 1) + lam[i + 1:])
    n_target = len(zero_set(target))
    computed = TensorVector.columns([upsilon_from_surface(target, img, g) for img in images], range(1 << n_target), np.int64)
    case, sign, op = _RAISING_BLOCKS[key]
    k = lam[:i - 1].count(0) + 1
    block = TensorVector.columns(words if op is None else [coev_ev(op, k, v) for v in words], range(1 << n_target), np.int64)
    expected = sign * block
    return {"case": case.format(k=k), "computed": computed, "expected": expected, "ok": bool(np.array_equal(computed, expected))}


# ---------------------------------------------------------------------------
# labelled tableau vectors and the tableau-level generator rules


def _relabel_to_standard(entries, labels):
    rank = {x: i + 1 for i, x in enumerate(sorted(labels))}
    return tuple(rank[x] for x in entries)


def labeled_tableau_vector(top, bottom, lam, g: int) -> ExteriorVector:
    """Polytabloid of a tableau with entries from the zero set of lam,
    pushed onto the weight space."""
    labels = tuple(top) + tuple(bottom)
    zeros = zero_set(lam)
    if sorted(labels) != sorted(zeros):
        raise ValueError("tableau entries must exhaust the zero set of the weight")
    t = Tableau2(_relabel_to_standard(top, labels), _relabel_to_standard(bottom, labels))
    return upsilon_to_surface(lam, polytabloid(t), g)


def tableau_raising_rule(top, bottom, i: int, lam) -> dict:
    """The tabulated result of a raising Serre generator on a labelled
    tableau vector: a coefficient in {0, +-1, +-2} and a target tableau.

    At lam_i = lam_{i+1} = 0 each column holding i or i + 1 is first turned
    so that the label sits at the bottom; the turn's sign s(label) is -1
    when the label was on top, and the coefficients are products of these
    signs.
    """
    lam = tuple(lam)
    g = len(lam)
    top, bottom = tuple(top), tuple(bottom)
    if i >= g:
        raise ValueError("rule applies to the short-root generators only")
    pair = (lam[i - 1], lam[i])
    target = lam[:i - 1] + (lam[i - 1] + 1, lam[i] - 1) + lam[i + 1:]
    if any(abs(x) > 1 for x in target):
        return {"case": "invalid-target", "coeff": 0, "tableau": None, "lam_target": None}
    b = len(bottom)
    pairs = list(zip(top[:b], bottom[:b]))
    singles = list(top[b:])

    def rule(case, coeff, new_pairs=None, new_singles=()):
        # the target tableau with its columns and its singles sorted
        tableau = None
        if new_pairs is not None:
            new_pairs = sorted(new_pairs)
            tableau = (tuple(x for x, _ in new_pairs) + tuple(sorted(new_singles)), tuple(y for _, y in new_pairs))
        return {"case": case, "coeff": coeff, "tableau": tableau, "lam_target": target}

    def relabel(labels, old, new):
        return [new if x == old else x for x in labels]

    if pair in ((0, 1), (-1, 0)):
        up = pair == (0, 1)
        old, new = (i, i + 1) if up else (i + 1, i)
        moved = zip(relabel(top[:b], old, new), relabel(bottom, old, new))
        return rule("relabel-up" if up else "relabel-down", 1 if up else -1, moved, relabel(singles, old, new))
    if pair == (-1, 1):
        return rule("add-column", 1, pairs + [(i, i + 1)], singles)
    if pair != (0, 0):
        return rule("zero", 0)
    # column index, column partner and turn sign of each label in a column
    col, partner, s = {}, {}, {}
    for idx, (x, y) in enumerate(pairs):
        col[x], partner[x], s[x] = idx, y, -1
        col[y], partner[y], s[y] = idx, x, 1

    def others(*labels):
        return [c for idx, c in enumerate(pairs) if idx not in {col[label] for label in labels}]

    if i in col and i + 1 in col:
        if col[i] == col[i + 1]:
            return rule("remove-column", 2 * s[i + 1], others(i), singles)
        return rule("merge-columns", s[i] * s[i + 1], others(i, i + 1) + [(partner[i], partner[i + 1])], singles)
    if i in col:
        return rule("absorb-upper-single", -s[i], others(i), relabel(singles, i + 1, partner[i]))
    if i + 1 in col:
        return rule("absorb-lower-single", s[i + 1], others(i + 1), relabel(singles, i, partner[i + 1]))
    return rule("both-single", 0)


# ---------------------------------------------------------------------------
# lowest-weight components


def lefschetz_weights(j: int, g: int) -> list[tuple[int, ...]]:
    """Weights contributing to the j-th lowest-weight component: those
    whose zero set has n elements with j a diagonal weight on n letters.
    As n <= g, there are none past j = g + 1: such a label is the empty
    component."""
    if j < 1:
        raise ValueError(f"component index {j} out of range")
    return [lam for lam in nabla_weights(g) if j in diagram_weights(len(zero_set(lam)))]


def lefschetz_block_counts(j: int, g: int) -> list[tuple[int, int]]:
    """(n, count) for each zero-set size n at which the j-th component has
    weight blocks: count = binom(g, n) * 2^(g - n) is the number of weights
    in {-1, 0, 1}^g with n zeros, each a block of dimension
    dims.catalan(n, b) for [n - b, b] the diagram of weight j."""
    return [(n, comb(g, n) * 2 ** (g - n)) for n in range(g + 1) if j in diagram_weights(n)]


@dataclass
class LefschetzBasis:
    """Ordered basis of the j-th component at genus g, assembled weight
    block by weight block from standard Specht bases.

    blocks holds, for each weight of lefschetz_weights(j, g) in basis
    order, the SpechtModule of its zero-set size n and, in word order, the
    rows of masks and the signs that upsilon gives its weight-class words.
    The blocks partition masks.  Their arrays and matrix are read-only.
    """

    j: int
    g: int
    vectors: list
    degree: int
    masks: tuple[int, ...]
    blocks: tuple[tuple[SpechtModule, np.ndarray, np.ndarray], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Monomial coordinates of the basis, one int64 column per vector."""
        return read_only(self.columns(self.vectors).astype(np.int64))

    def columns(self, vectors) -> np.ndarray:
        """Monomial coordinates of vectors of this basis's degree, one column
        per vector, as Python ints in an object array."""
        return ExteriorVector.columns(vectors, weight_class_masks(2 * self.g, self.degree)[1], object)

    def coords(self, columns: np.ndarray) -> np.ndarray:
        """Exact coordinates over Z of the columns of an integer matrix in
        monomial coordinates, as Python ints in an object array; raises
        ValueError when a column is outside the span.

        Each weight block is pulled back to sign-word coordinates and solved
        by the exact Specht solver of its diagram, which checks every word
        of the block; the blocks partition the monomials, so every entry of
        a column is checked.
        """
        return np.concatenate(
            [module.solver(None).coords(signs[:, None] * columns[rows]) for module, rows, signs in self.blocks]
            or [np.empty((0, columns.shape[1]), dtype=object)]
        )


@lru_cache(maxsize=None)
def lefschetz_basis(j: int, g: int) -> LefschetzBasis:
    degree = g - j + 1
    # the monomials of a degree are the 2g-bit words of that weight
    masks, index = weight_class_masks(2 * g, degree)
    vectors, blocks = [], []
    for lam in lefschetz_weights(j, g):
        n = len(zero_set(lam))
        vectors += [upsilon_to_surface(lam, v, g) for v in specht_basis(n, j)]
        # a monomial of this degree and weight holds both generators at
        # b of the n zero positions, [n - b, b] the diagram of weight j
        module = specht_module(n, Diagram2.from_weight(n, j).b)
        words = weight_class_masks(n, module.b)[0]
        images, signs = zip(*(_upsilon_monomial(lam, w, g) for w in words))
        blocks.append((module, read_only(np.array([index[m] for m in images])), read_only(np.array(signs))))
    covered = np.sort(np.concatenate([rows for _, rows, _ in blocks] or [np.empty(0, dtype=np.intp)]))
    assert np.array_equal(covered, np.arange(len(index))), "weight blocks must partition the monomials"
    return LefschetzBasis(j, g, vectors, degree, masks, tuple(blocks))


def lefschetz_action_matrix(word, j: int, g: int, p: int | None = None) -> np.ndarray:
    """Matrix of a group word on the j-th component basis: exact Python-int
    entries in an object array, reduced to uint8 residues when p is given.
    The word acts through its 2g x 2g matrix, formed once."""
    require_group_word(word)
    exact = _component_action(word_matrix(word, g), j, g)
    return exact if p is None else residues(exact, p)


def _component_action(w: np.ndarray, j: int, g: int) -> np.ndarray:
    """Exact matrix, in an object array, of the integral 2g x 2g matrix w
    on the j-th component basis."""
    basis = lefschetz_basis(j, g)
    return basis.coords(basis.columns(_apply_sp_matrix(w, basis.vectors)))


# ---------------------------------------------------------------------------
# trace invariants


class DecompositionError(ArithmeticError):
    """The component traces do not reassemble the weighted trace."""


@dataclass
class AlexanderTrace:
    """Weighted trace of a group word on the full exterior algebra, with its
    per-component decomposition.  Construction verifies that the weighted
    trace equals the quantum-integer combination of component traces.
    component_actions holds the word's exact, read-only matrices on the
    components 1..g+1 whose traces these are, so that their reductions mod
    p are not computed again."""

    g: int
    polynomial: LaurentInt
    component_traces: tuple[int, ...]
    component_actions: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    def __post_init__(self):
        total = LaurentInt.zero()
        for j, t in enumerate(self.component_traces, start=1):
            total = total + quantum_integer(j) * t
        if total != self.polynomial:
            raise DecompositionError("component decomposition does not match the weighted trace")


def alexander_trace(word, g: int) -> AlexanderTrace:
    """Trace of y^(-H) times a group word, as an exact Laurent polynomial,
    with exact traces on the lowest-weight components.

    The degree-d forms add tr Lambda^d W to the coefficient of y^(g-d), W =
    M_1 ... M_k the word's 2g x 2g matrix in Python ints, so the weighted
    trace is y^g det(I + y^(-1) W), read off rings.int_charpoly(W).  The
    component traces come from W acting on the component bases, not from
    its characteristic polynomial."""
    require_group_word(word)
    w = word_matrix(word, g)
    poly = {g - d: e for d, e in enumerate(int_charpoly(w))}
    actions = tuple(read_only(_component_action(w, j, g)) for j in range(1, g + 2))
    traces = tuple(int(np.trace(mat)) for mat in actions)
    return AlexanderTrace(g, LaurentInt(poly), traces, actions)


@lru_cache(maxsize=None)
def component_quotient(p: int, j: int, g: int) -> GramQuotient:
    """Quotient of the j-th component mod p by the radical of its form."""
    return GramQuotient(int_gram(lefschetz_basis(j, g).matrix), p)


def modular_quotient_trace(p: int, j: int, at: AlexanderTrace) -> int:
    """Trace mod p, a residue in [0, p), on the simple quotient of the j-th
    component of the word whose alexander_trace is `at`, read off the exact
    component matrix it keeps.  Radical invariance is verified on every
    call."""
    # a label past g + 1 is the empty component, whose trace is 0; `alexander
    # --p 211` asks for all 210 labels, and at most g + 1 <= 7 of them have
    # a basis, so this skips building an empty component for each of the rest
    if j > len(at.component_actions):
        return 0
    q = component_quotient(p, j, at.g)
    return int(np.trace(q.quotient_matrix(at.component_actions[j - 1]), dtype=np.int64)) % p


def cyclotomic_trace_check(p: int, word, g: int, sign: int = 1) -> dict:
    """Evaluate the weighted trace at sign times the p-th root of unity with
    mod-p coefficients, and compare with the quantum-integer combination of
    the simple-quotient traces over the paired component labels."""
    at = alexander_trace(word, g)
    traces = {j: modular_quotient_trace(p, j, at) for j in range(1, p)}
    return cyclotomic_reduction_check(p, at, traces, sign)


def cyclotomic_reduction_check(p: int, at: AlexanderTrace, traces: dict, sign: int) -> dict:
    """cyclotomic_trace_check from a computed weighted trace `at` and the
    simple-quotient traces `traces[j]` mod p of the components j = 1..p-1,
    so that a caller checking both signs computes each of them once."""
    lhs = cyclotomic_eval(at.polynomial, p, sign, mod_p=True)
    rhs = CyclotomicElem.zero(p, p)
    for k in range(1, (p - 1) // 2 + 1):
        t_k, t_pk = traces[k], traces[p - k]
        coeff = t_k - t_pk if sign == 1 else (-1) ** (k - 1) * (t_k + t_pk)
        rhs = rhs + zeta_quantum(p, k, mod_p=True) * coeff
    return {
        "p": p,
        "g": at.g,
        "sign": sign,
        "lhs": lhs,
        "rhs": rhs,
        "component_traces": at.component_traces,
        "ok": lhs == rhs,
    }
