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
block from standard Specht bases, so its coordinates are solved by one
specht.BasisSolver built from the Specht solvers of its blocks
(component_solver): exactly over Z in Python ints when p is None, mod p
otherwise.  Its simple quotient mod p is a rings.GramQuotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rings import (
    FpScalar,
    GramQuotient,
    LaurentInt,
    int_gram,
    cyclotomic_eval,
    CyclotomicElem,
    zeta_quantum,
    quantum_integer,
)

# Bound here only for perfbench's tracer tests, which wrap these two in
# this module's namespace.
from .rings import fp_inverse, fp_rref  # noqa: F401
from .specht import BasisSolver, Tableau2, basis_solver, polytabloid, specht_basis
from .tensor import TensorVector, weight_class_masks

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
    "require_group_word",
    "group_token_pool",
    "random_group_word",
    "weight_of_mask",
    "weight_decompose",
    "nabla_weights",
    "upsilon_to_surface",
    "upsilon_from_surface",
    "handle_map",
    "sorting_permutation",
    "raising_generator_block",
    "tableau_raising_rule",
    "labeled_tableau_vector",
    "lefschetz_weights",
    "LefschetzBasis",
    "lefschetz_basis",
    "component_solver",
    "lefschetz_action_matrix",
    "DecompositionError",
    "AlexanderTrace",
    "alexander_trace",
    "modular_quotient_trace",
    "cyclotomic_trace_check",
]


class ExteriorVector:
    """Sparse exact-coefficient element of the exterior algebra on the 2g
    homology generators; coefficients are integers, zeros never stored."""

    __slots__ = ("g", "coeffs")

    def __init__(self, g: int, coeffs=None):
        self.g = g
        self.coeffs = {int(m): int(c) for m, c in (coeffs or {}).items() if c != 0}
        top = 1 << (2 * g)
        for m in self.coeffs:
            if m < 0 or m >= top:
                raise ValueError(f"monomial {m} out of range for genus {g}")

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

    def terms(self):
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self) -> int | None:
        degs = {m.bit_count() for m in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def __add__(self, other: "ExteriorVector") -> "ExteriorVector":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return ExteriorVector(self.g, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExteriorVector(self.g, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, k: int) -> "ExteriorVector":
        return ExteriorVector(self.g, {m: c * k for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def reduce(self, p: int) -> "ExteriorVector":
        return ExteriorVector(self.g, {m: c % p for m, c in self.coeffs.items()})

    def _check(self, other):
        if not isinstance(other, ExteriorVector) or other.g != self.g:
            raise ValueError("genus mismatch")

    def __eq__(self, other):
        return isinstance(other, ExteriorVector) and (self.g, self.coeffs) == (other.g, other.coeffs)

    def __hash__(self):
        return hash((self.g, tuple(self.terms())))

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


def inner_product_ext(v: ExteriorVector, w: ExteriorVector) -> int:
    """Monomials are orthonormal."""
    if v.g != w.g:
        raise ValueError("genus mismatch")
    return sum(c * w.coeffs.get(m, 0) for m, c in v.coeffs.items())


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
    out = {}
    for i in range(g):
        out[(1 << i) | (1 << (g + i))] = 1
    return ExteriorVector(g, out)


def wedge_sl2(gen: str, v: ExteriorVector) -> ExteriorVector:
    """Degree-raising by the 2-form, its adjoint, or the centred degree
    operator."""
    g = v.g
    if gen == "H":
        return ExteriorVector(g, {m: (m.bit_count() - g) * c for m, c in v.coeffs.items()})
    if gen == "E":
        return wedge(v, symplectic_form_vector(g))
    if gen == "F":
        out: dict[int, int] = {}
        for m, c in v.coeffs.items():
            for i in range(g):
                pair = (1 << i) | (1 << (g + i))
                if m & pair == pair:
                    rest = m ^ pair
                    s, _ = wedge_monomials(rest, pair)
                    out[rest] = out.get(rest, 0) + s * c
        return ExteriorVector(g, out)
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

    def skew(u, v):
        return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))

    cols = [[m[i][j] for i in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            expect = 1 if j == g + i else 0
            if skew(cols[i], cols[j]) != expect:
                raise ValueError("matrix token does not preserve the skew form")


def _gen_images_matrix(m, g: int) -> list[dict[int, int]]:
    cols = []
    for j in range(2 * g):
        col = {i: m[i][j] for i in range(2 * g) if m[i][j]}
        cols.append(col)
    return cols


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


def j_token(g: int):
    """The calibration map a_i -> b_i, b_i -> -a_i."""
    m = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        m[g + i][i] = 1
        m[i][g + i] = -1
    return matrix_token(m)


def _apply_sp_matrix(m, v: ExteriorVector) -> ExteriorVector:
    g = v.g
    images = _gen_images_matrix(m, g)
    out: dict[int, int] = {}
    for mask, coeff in v.coeffs.items():
        partials = {0: coeff}
        mm = mask
        while mm:
            bit = mm & -mm
            idx = bit.bit_length() - 1
            nxt: dict[int, int] = {}
            for pm, pc in partials.items():
                for tgt, tc in images[idx].items():
                    sw = wedge_monomials(pm, 1 << tgt)
                    if sw is None:
                        continue
                    s, nm = sw
                    nxt[nm] = nxt.get(nm, 0) + s * pc * tc
            partials = nxt
            if not partials:
                break
            mm ^= bit
        for nm, nc in partials.items():
            out[nm] = out.get(nm, 0) + nc
    return ExteriorVector(g, out)


def _lie_images(kind: str, i: int, g: int) -> list[dict[int, int]]:
    """Generator images of the two Serre-type derivations.

    The raising one sends a_{i+1} to a_i and b_i to -b_{i+1} for i < g and
    b_g to a_g at i = g; the lowering one is its adjoint.
    """
    images: list[dict[int, int]] = [dict() for _ in range(2 * g)]
    if not 1 <= i <= g:
        raise ValueError(f"index {i} out of range")
    if kind == "lie_e":
        if i < g:
            images[i] = {i - 1: 1}  # a_{i+1} -> a_i
            images[g + i - 1] = {g + i: -1}  # b_i -> -b_{i+1}
        else:
            images[2 * g - 1] = {g - 1: 1}  # b_g -> a_g
    elif kind == "lie_f":
        if i < g:
            images[i - 1] = {i: 1}  # a_i -> a_{i+1}
            images[g + i] = {g + i - 1: -1}  # b_{i+1} -> -b_i
        else:
            images[g - 1] = {2 * g - 1: 1}  # a_g -> b_g
    else:
        raise ValueError(kind)
    return images


def _apply_derivation(images, v: ExteriorVector) -> ExteriorVector:
    g = v.g
    out: dict[int, int] = {}
    for mask, coeff in v.coeffs.items():
        mm = mask
        while mm:
            bit = mm & -mm
            idx = bit.bit_length() - 1
            rest = mask ^ bit
            # sign of extracting the generator to the front
            front_sign = -1 if (mask & (bit - 1)).bit_count() % 2 else 1
            for tgt, tc in images[idx].items():
                sw = wedge_monomials(1 << tgt, rest)
                if sw is None:
                    continue
                s, nm = sw
                out[nm] = out.get(nm, 0) + front_sign * s * tc * coeff
            mm ^= bit
    return ExteriorVector(g, out)


def apply_token(token, v: ExteriorVector) -> ExteriorVector:
    kind = token[0]
    if kind == "sp":
        return _apply_sp_matrix(token[1], v)
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


def group_token_pool(g: int) -> list:
    pool = [s_token(j, g) for j in range(1, g + 1)]
    pool += [transvection_token(j, g) for j in range(1, g + 1)]
    for i in range(1, g):
        sigma = list(range(1, g + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        pool.append(perm_token(sigma, g))
    return pool


def random_group_word(g: int, length: int, rng) -> list:
    pool = group_token_pool(g)
    return [pool[rng.randrange(len(pool))] for _ in range(length)]


# ---------------------------------------------------------------------------
# weights and the lattice isometries


def weight_of_mask(mask: int, g: int) -> tuple[int, ...]:
    lam = []
    for i in range(g):
        has_a = mask >> i & 1
        has_b = mask >> (g + i) & 1
        lam.append(0 if has_a == has_b else (1 if has_a else -1))
    return tuple(lam)


def weight_decompose(v: ExteriorVector) -> dict[tuple[int, ...], ExteriorVector]:
    """Split into simultaneous eigencomponents of the diagonal symplectic
    torus; every monomial lands in exactly one component."""
    out: dict[tuple[int, ...], dict[int, int]] = {}
    for m, c in v.coeffs.items():
        lam = weight_of_mask(m, v.g)
        out.setdefault(lam, {})[m] = c
    return {lam: ExteriorVector(v.g, coeffs) for lam, coeffs in sorted(out.items())}


def zero_set(lam) -> tuple[int, ...]:
    return tuple(i + 1 for i, x in enumerate(lam) if x == 0)


def nabla_weights(g: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(g):
        out = [lam + (x,) for lam in out for x in (-1, 0, 1)]
    return sorted(out)


def _upsilon_monomial(lam, word_mask: int, g: int) -> tuple[int, int]:
    """Monomial (sign, mask) of the image of a basis word: the signed
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
    return sign, mask


def upsilon_to_surface(lam, x: TensorVector, g: int) -> ExteriorVector:
    """Isometric embedding of the sign-word lattice onto the weight space."""
    lam = tuple(lam)
    if len(lam) != g or any(abs(v) > 1 for v in lam):
        raise ValueError("invalid weight")
    n = len(zero_set(lam))
    if x.n != n:
        raise ValueError(f"tensor length {x.n} does not match weight (need {n})")
    out: dict[int, int] = {}
    for w, c in x.coeffs.items():
        s, m = _upsilon_monomial(lam, w, g)
        out[m] = out.get(m, 0) + s * c
    return ExteriorVector(g, out)


def upsilon_from_surface(lam, v: ExteriorVector, g: int) -> TensorVector:
    """Inverse of the embedding on its weight space."""
    lam = tuple(lam)
    zeros = zero_set(lam)
    n = len(zeros)
    out: dict[int, int] = {}
    for m, c in v.coeffs.items():
        if weight_of_mask(m, g) != lam:
            raise ValueError("vector does not lie in the requested weight space")
        w = 0
        for slot, j in enumerate(zeros):
            if m >> (j - 1) & 1:
                w |= 1 << slot
        s, mm = _upsilon_monomial(lam, w, g)
        assert mm == m
        out[w] = out.get(w, 0) + s * c
    return TensorVector(n, out)


def handle_map(direction: str, v: ExteriorVector) -> ExteriorVector:
    """Adding a handle wedges with the new a-generator; removing one is the
    adjoint, so the round trip is the identity."""
    g = v.g
    if direction == "+":
        gg = g + 1
        out: dict[int, int] = {}
        for m, c in v.coeffs.items():
            a_part = m & ((1 << g) - 1)
            b_part = m >> g
            lifted = a_part | (b_part << gg)
            s, nm = wedge_monomials(lifted, 1 << g)
            out[nm] = out.get(nm, 0) + s * c
        return ExteriorVector(gg, out)
    if direction == "-":
        if g < 1:
            raise ValueError("cannot remove a handle at genus 0")
        gg = g - 1
        out = {}
        new_a = 1 << gg
        new_b = 1 << (2 * g - 1)
        for m, c in v.coeffs.items():
            if not m & new_a or m & new_b:
                continue
            rest = m ^ new_a
            s, _ = wedge_monomials(rest, new_a)
            a_part = rest & ((1 << gg) - 1)
            b_part = rest >> g
            out_m = a_part | (b_part << gg)
            out[out_m] = out.get(out_m, 0) + s * c
        return ExteriorVector(gg, out)
    raise ValueError("direction must be '+' or '-'")


def sorting_permutation(subset, g: int) -> tuple[int, ...]:
    """The unique permutation sending the tail block to the subset with both
    blocks kept increasing; used as the canonical weight-sector section."""
    subset = sorted(subset)
    n = len(subset)
    complement = [i for i in range(1, g + 1) if i not in set(subset)]
    image = [0] * g
    for pos, val in enumerate(complement, start=1):
        image[pos - 1] = val
    for pos, val in enumerate(subset, start=g - n + 1):
        image[pos - 1] = val
    return tuple(image)


def invert_permutation(sigma) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma, start=1):
        inv[s - 1] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# the tabulated weight-block action of the raising Serre generators


def _tensor_op_matrix(op, n_from: int, n_to: int) -> np.ndarray:
    out = np.zeros((1 << n_to, 1 << n_from), dtype=np.int64)
    for w in range(1 << n_from):
        img = op(TensorVector.word(n_from, w))
        for m, c in img.coeffs.items():
            out[m, w] = c
    return out


def raising_generator_block(i: int, lam, g: int) -> dict:
    """Compare the weight-block restriction of a raising Serre generator,
    conjugated to sign-word coordinates, against its tabulated form.

    Returns the case label, both matrices, and the comparison flag.
    """
    from .tensor import coev_ev

    lam = tuple(lam)
    n = len(zero_set(lam))
    if not 1 <= i <= g:
        raise ValueError("generator index out of range")
    if i == g:
        target = lam[:g - 1] + (lam[g - 1] + 2,)
    else:
        target = lam[:i - 1] + (lam[i - 1] + 1, lam[i] - 1) + lam[i + 1:]
    valid = all(abs(x) <= 1 for x in target)
    # computed side
    token = lie_e_token(i)
    if valid:
        n_to = len(zero_set(target))
        computed = np.zeros((1 << n_to, 1 << n), dtype=np.int64)
        for w in range(1 << n):
            img = apply_token(token, upsilon_to_surface(lam, TensorVector.word(n, w), g))
            if img.is_zero():
                continue
            back = upsilon_from_surface(target, img, g)
            for m, c in back.coeffs.items():
                computed[m, w] = c
    else:
        n_to = 0
        computed = np.zeros((1, 1 << n), dtype=np.int64)
        for w in range(1 << n):
            img = apply_token(token, upsilon_to_surface(lam, TensorVector.word(n, w), g))
            if not img.is_zero():
                computed[0, w] = 1  # flags a nonzero image where none is allowed
    # expected side
    if not valid:
        case = "invalid-target"
        expected = np.zeros_like(computed)
    elif i == g:
        if lam[g - 1] == -1:
            case = "identity"
            expected = np.eye(1 << n, dtype=np.int64)
        else:
            case = "zero"
            expected = np.zeros_like(computed)
    else:
        pair = (lam[i - 1], lam[i])
        zeros = zero_set(lam)
        if pair == (0, 1):
            case = "identity"
            expected = np.eye(1 << n, dtype=np.int64)
        elif pair == (-1, 0):
            case = "minus-identity"
            expected = -np.eye(1 << n, dtype=np.int64)
        elif pair == (-1, 1):
            k = sorted(zero_set(target)).index(i) + 1
            case = f"insertion at {k}"
            expected = _tensor_op_matrix(lambda v: coev_ev("coev", k, v), n, n + 2)
        elif pair == (0, 0):
            k = zeros.index(i) + 1
            case = f"minus-contraction at {k}"
            expected = -_tensor_op_matrix(lambda v: coev_ev("ev", k, v), n, n - 2)
        else:
            case = "zero"
            expected = np.zeros_like(computed)
    return {"case": case, "computed": computed, "expected": expected, "ok": bool(np.array_equal(computed, expected))}


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


def _canonical_columns(pairs, singles):
    pairs = sorted(pairs)
    singles = sorted(singles)
    top = tuple(x for x, _ in pairs) + tuple(singles)
    bottom = tuple(y for _, y in pairs)
    return top, bottom


def tableau_raising_rule(top, bottom, i: int, lam) -> dict:
    """The tabulated result of a raising Serre generator on a labelled
    tableau vector: a coefficient in {0, +-1, +-2} and a target tableau.

    Tableaux whose special labels sit in the non-displayed positions are
    first normalized by in-column swaps, which only flips signs.
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

    def rebuild(new_pairs, new_singles):
        return _canonical_columns(new_pairs, new_singles)

    if pair == (0, 1):
        new_pairs = [(i + 1 if x == i else x, i + 1 if y == i else y) for x, y in pairs]
        new_singles = [i + 1 if x == i else x for x in singles]
        t2 = rebuild(new_pairs, new_singles)
        return {"case": "relabel-up", "coeff": 1, "tableau": t2, "lam_target": target}
    if pair == (-1, 0):
        new_pairs = [(i if x == i + 1 else x, i if y == i + 1 else y) for x, y in pairs]
        new_singles = [i if x == i + 1 else x for x in singles]
        t2 = rebuild(new_pairs, new_singles)
        return {"case": "relabel-down", "coeff": -1, "tableau": t2, "lam_target": target}
    if pair == (-1, 1):
        t2 = rebuild(pairs + [(i, i + 1)], singles)
        return {"case": "add-column", "coeff": 1, "tableau": t2, "lam_target": target}
    if pair == (0, 0):
        coeff = 1
        norm_pairs = list(pairs)

        def find(label):
            for idx, (x, y) in enumerate(norm_pairs):
                if label in (x, y):
                    return idx
            return None

        idx_i = find(i)
        idx_i1 = find(i + 1)
        if idx_i is None and idx_i1 is None:
            return {"case": "both-single", "coeff": 0, "tableau": None, "lam_target": target}
        if idx_i is not None and idx_i == idx_i1:
            x, y = norm_pairs[idx_i]
            if (x, y) == (i + 1, i):
                coeff = -coeff
            del norm_pairs[idx_i]
            t2 = rebuild(norm_pairs, singles)
            return {"case": "remove-column", "coeff": 2 * coeff, "tableau": t2, "lam_target": target}
        if idx_i is not None and idx_i1 is not None:
            # normalize both special labels to the bottom of their columns
            x, y = norm_pairs[idx_i]
            if x == i:
                norm_pairs[idx_i] = (y, x)
                coeff = -coeff
            x, y = norm_pairs[idx_i1]
            if x == i + 1:
                norm_pairs[idx_i1] = (y, x)
                coeff = -coeff
            k = norm_pairs[idx_i][0]
            l = norm_pairs[idx_i1][0]
            keep = [pr for idx, pr in enumerate(norm_pairs) if idx not in (idx_i, idx_i1)]
            # the partner of the smaller label ends on top; the opposite
            # orientation is off by one in-column swap
            t2 = rebuild(keep + [(k, l)], singles)
            return {"case": "merge-columns", "coeff": coeff, "tableau": t2, "lam_target": target}
        if idx_i is not None:
            # the smaller label in a tall column, the larger in the top row
            x, y = norm_pairs[idx_i]
            if y == i:  # normalize so the special label is on top
                norm_pairs[idx_i] = (y, x)
                coeff = -coeff
            partner = norm_pairs[idx_i][1]
            keep = [pr for idx, pr in enumerate(norm_pairs) if idx != idx_i]
            new_singles = [partner if s == i + 1 else s for s in singles]
            t2 = rebuild(keep, new_singles)
            return {"case": "absorb-upper-single", "coeff": coeff, "tableau": t2, "lam_target": target}
        # the larger label in a tall column, the smaller in the top row
        x, y = norm_pairs[idx_i1]
        if x == i + 1:  # normalize so the special label is at the bottom
            norm_pairs[idx_i1] = (y, x)
            coeff = -coeff
        partner = norm_pairs[idx_i1][0]
        keep = [pr for idx, pr in enumerate(norm_pairs) if idx != idx_i1]
        new_singles = [partner if s == i else s for s in singles]
        t2 = rebuild(keep, new_singles)
        return {"case": "absorb-lower-single", "coeff": coeff, "tableau": t2, "lam_target": target}
    return {"case": "zero", "coeff": 0, "tableau": None, "lam_target": target}


# ---------------------------------------------------------------------------
# lowest-weight components


def lefschetz_weights(j: int, g: int) -> list[tuple[int, ...]]:
    """Weights contributing to the j-th lowest-weight component: zero-set
    size at least j-1 and congruent to it mod 2."""
    if not 1 <= j <= g + 1:
        raise ValueError(f"component index {j} out of range for genus {g}")
    out = []
    for lam in nabla_weights(g):
        n = len(zero_set(lam))
        if n >= j - 1 and (n - (j - 1)) % 2 == 0:
            out.append(lam)
    return out


@dataclass
class LefschetzBasis:
    """Ordered basis of the j-th component at genus g, assembled weight
    block by weight block from standard Specht bases."""

    j: int
    g: int
    lams: list
    vectors: list
    degree: int
    masks: tuple[int, ...]
    matrix: np.ndarray  # monomial coordinates, one column per basis vector

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def columns(self, vectors, p: int | None) -> np.ndarray:
        """Monomial coordinates of vectors of this basis's degree, one column
        per vector: Python ints in an object array when p is None, else
        residues mod p, each reduced before it enters int64."""
        index = _degree_mask_index(self.g, self.degree)
        out = np.zeros((len(self.masks), len(vectors)), dtype=object if p is None else np.int64)
        for col, v in enumerate(vectors):
            for m, c in v.coeffs.items():
                out[index[m], col] = c if p is None else c % p
        return out


@lru_cache(maxsize=None)
def _degree_masks(g: int, degree: int) -> tuple[int, ...]:
    return tuple(sorted(m for m in range(1 << (2 * g)) if m.bit_count() == degree))


@lru_cache(maxsize=None)
def _degree_mask_index(g: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(_degree_masks(g, degree))}


@lru_cache(maxsize=None)
def lefschetz_basis(j: int, g: int) -> LefschetzBasis:
    lams = lefschetz_weights(j, g)
    vectors = []
    for lam in lams:
        n = len(zero_set(lam))
        for v in specht_basis(n, j):
            vectors.append(upsilon_to_surface(lam, v, g))
    degree = g - j + 1
    masks = _degree_masks(g, degree)
    index = _degree_mask_index(g, degree)
    matrix = np.zeros((len(masks), len(vectors)), dtype=np.int64)
    for col, v in enumerate(vectors):
        for m, c in v.coeffs.items():
            matrix[index[m], col] = c
    return LefschetzBasis(j, g, lams, vectors, degree, masks, matrix)


@lru_cache(maxsize=None)
def component_solver(p: int | None, j: int, g: int) -> BasisSolver:
    """Coordinate solver of the j-th component basis at genus g, mod p, or
    exactly over Z when p is None.

    Each weight block of the basis is the upsilon image of a standard
    Specht basis, so its rows are the images of the Specht solver's
    tabloid rows and its inverse is the Specht inverse with the upsilon
    signs of those rows folded into its columns.  Blocks of different
    weights share no monomial, so the square at all rows is block diagonal
    and one block-diagonal inverse solves every block at once.
    """
    basis = lefschetz_basis(j, g)
    index = _degree_mask_index(g, basis.degree)
    rows = []
    inv = np.zeros((basis.dim, basis.dim), dtype=object if p is None else np.int64)
    start = 0
    for lam in basis.lams:
        n = len(zero_set(lam))
        block = basis_solver(p, n, j)
        words = weight_class_masks(n, (n + 1 - j) // 2)[0]
        signs = []
        for r in block.rows:
            sign, mask = _upsilon_monomial(lam, words[r], g)
            signs.append(sign)
            rows.append(index[mask])
        end = start + len(signs)
        inv[start:end, start:end] = block.inv * np.asarray(signs, dtype=np.int64)
        start = end
    matrix = basis.matrix.astype(object) if p is None else basis.matrix % p
    return BasisSolver(p, matrix, np.asarray(rows, dtype=np.intp), inv if p is None else inv % p)


def lefschetz_action_matrix(word, j: int, g: int, p: int | None = None) -> np.ndarray:
    """Matrix of a token word on the j-th component basis: exact Python-int
    entries in an object array when p is None, otherwise residues mod p."""
    basis = lefschetz_basis(j, g)
    cols = basis.columns([apply_word(word, v) for v in basis.vectors], p)
    return component_solver(p, j, g).coords(cols)


# ---------------------------------------------------------------------------
# trace invariants


class DecompositionError(ArithmeticError):
    """The component traces do not reassemble the weighted trace."""


@dataclass
class AlexanderTrace:
    """Weighted trace of a group word on the full exterior algebra, with its
    per-component decomposition.  Construction verifies that the weighted
    trace equals the quantum-integer combination of component traces."""

    g: int
    polynomial: LaurentInt
    component_traces: tuple[int, ...]

    def __post_init__(self):
        total = LaurentInt.zero()
        for j, t in enumerate(self.component_traces, start=1):
            total = total + quantum_integer(j) * t
        if total != self.polynomial:
            raise DecompositionError("component decomposition does not match the weighted trace")


def alexander_trace(word, g: int) -> AlexanderTrace:
    """Trace of y^(-H) times a group word, as an exact Laurent polynomial,
    with exact traces on the lowest-weight components."""
    require_group_word(word)
    poly: dict[int, int] = {}
    for m in range(1 << (2 * g)):
        img = apply_word(word, ExteriorVector.monomial(g, m))
        c = img.coeffs.get(m, 0)
        if c:
            e = g - m.bit_count()  # exponent of y^(-H) on this monomial
            poly[e] = poly.get(e, 0) + c
    traces = []
    for j in range(1, g + 2):
        mat = lefschetz_action_matrix(word, j, g, p=None)
        traces.append(int(np.trace(mat)) if mat.size else 0)
    return AlexanderTrace(g, LaurentInt(poly), tuple(traces))


@lru_cache(maxsize=None)
def component_quotient(p: int, j: int, g: int) -> GramQuotient:
    """Quotient of the j-th component mod p by the radical of its form."""
    return GramQuotient(int_gram(lefschetz_basis(j, g).matrix), p)


def modular_quotient_trace(p: int, j: int, word, g: int, debug: bool = False) -> FpScalar:
    """Trace of a group word on the simple quotient of the j-th component
    mod p.  Radical invariance is verified on every call; with `debug` the
    trace is recomputed against a second complement choice."""
    require_group_word(word)
    if j > g + 1:
        return FpScalar(0, p)
    q = component_quotient(p, j, g)
    if q.quotient_dim == 0:
        return FpScalar(0, p)
    action = lefschetz_action_matrix(word, j, g, p=p)
    q.check_radical_invariance(action)
    t = int(np.trace(q.quotient_matrix(action))) % p
    if debug:
        alt = _alternate_complement_trace(p, j, g, action)
        if alt != t:
            raise AssertionError("quotient trace depends on the complement choice")
    return FpScalar(t, p)


def _alternate_complement_trace(p: int, j: int, g: int, action: np.ndarray) -> int:
    gram = int_gram(lefschetz_basis(j, g).matrix)
    flip = list(range(gram.shape[0] - 1, -1, -1))
    alt = GramQuotient(gram[np.ix_(flip, flip)], p)
    action_flipped = action[np.ix_(flip, flip)]
    alt.check_radical_invariance(action_flipped)
    return int(np.trace(alt.quotient_matrix(action_flipped))) % p


def cyclotomic_trace_check(p: int, word, g: int, sign: int = 1) -> dict:
    """Evaluate the weighted trace at sign times the p-th root of unity with
    mod-p coefficients, and compare with the quantum-integer combination of
    the simple-quotient traces over the paired component labels."""
    at = alexander_trace(word, g)
    lhs = cyclotomic_eval(at.polynomial, p, sign, mod_p=True)
    rhs = CyclotomicElem.zero(p, p)
    for k in range(1, (p - 1) // 2 + 1):
        t_k = int(modular_quotient_trace(p, k, word, g))
        t_pk = int(modular_quotient_trace(p, p - k, word, g))
        qk = zeta_quantum(p, k, 1, mod_p=True)
        if sign == 1:
            rhs = rhs + qk * ((t_k - t_pk) % p)
        else:
            coeff = ((-1) ** (k - 1)) * (t_k + t_pk)
            rhs = rhs + qk * (coeff % p)
    return {
        "p": p,
        "g": g,
        "sign": sign,
        "lhs": lhs,
        "rhs": rhs,
        "component_traces": at.component_traces,
        "ok": lhs == rhs,
    }
