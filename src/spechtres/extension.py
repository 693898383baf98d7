"""Wedge/contraction operator pairs on surface homology, the induced maps
between lowest-weight components, block extensions of the symplectic
action by the degree-3 quotient, non-splitness witnesses, and the paired
two-strand resolutions of the block modules.

The degree-m wedge operator and its calibrated adjoint generate, together
with the raising/lowering pair, all maps used here.  The adjoint descends
to the quotient of the degree-m forms by multiples of the symplectic
2-form and lands in equivariant maps between components whose indices
differ by m; extending a component pair by that map produces
indecomposable modules of the semidirect product group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dims import binom
from .rings import fp_matmul, fp_rref, fp_solve
from .resolution import build_complex, verify_exactness
from .surface import (
    ExteriorVector,
    _degree_mask_index,
    _degree_masks,
    apply_token,
    apply_word,
    component_quotient,
    component_solver,
    group_token_pool,
    j_token,
    lefschetz_action_matrix,
    lefschetz_basis,
    symplectic_form_vector,
    wedge,
    wedge_monomials,
    wedge_sl2,
)

__all__ = [
    "nu",
    "mu",
    "calibrate",
    "operator_matrix",
    "wedge_pair_identities",
    "mu_induced",
    "form_quotient_data",
    "canonical_form_rep",
    "JmElement",
    "BlockModule",
    "block_module",
    "block_action_matrix",
    "jm_multiply",
    "nonsplit_witness",
    "equivariant_section_exists",
    "strand_resolution_check",
]


def _require_homogeneous(x: ExteriorVector):
    if not x.is_zero() and x.is_homogeneous() is None:
        raise ValueError("wedge/contraction operators take homogeneous forms")


def calibrate(x: ExteriorVector) -> ExteriorVector:
    """Apply the calibration map sending each a-generator to its b-partner
    and each b-generator to minus its a-partner."""
    return apply_token(j_token(x.g), x)


def nu(x: ExteriorVector, v: ExteriorVector) -> ExteriorVector:
    """Left wedge multiplication by a homogeneous form."""
    _require_homogeneous(x)
    return wedge(x, v)


def mu(x: ExteriorVector, v: ExteriorVector) -> ExteriorVector:
    """Adjoint of wedge multiplication by the calibrated x: a degree
    -m contraction when x is homogeneous of degree m."""
    _require_homogeneous(x)
    jx = calibrate(x)
    g = v.g
    out: dict[int, int] = {}
    for xm, xc in jx.coeffs.items():
        for vm, vc in v.coeffs.items():
            if xm & vm != xm:
                continue
            rest = vm ^ xm
            s, _ = wedge_monomials(xm, rest)
            out[rest] = out.get(rest, 0) + s * xc * vc
    return ExteriorVector(g, out)


def operator_matrix(op, g: int) -> np.ndarray:
    """Exact matrix of an operator on the full exterior algebra, in the
    monomial basis ordered by mask."""
    dim = 1 << (2 * g)
    out = np.zeros((dim, dim), dtype=np.int64)
    for m in range(dim):
        img = op(ExteriorVector.monomial(g, m))
        for mm, c in img.coeffs.items():
            out[mm, m] = c
    return out


def _random_vector(g: int, degree: int, rng) -> ExteriorVector:
    masks = [m for m in range(1 << (2 * g)) if m.bit_count() == degree]
    out = {}
    for _ in range(min(3, len(masks))):
        out[masks[rng.randrange(len(masks))]] = rng.randrange(-3, 4) or 1
    return ExteriorVector(g, out)


def wedge_pair_identities(g: int, seed: int = 0, samples: int = 20) -> dict:
    """Exact operator checks of the five identity families tying the wedge
    and contraction maps to the symplectic action and the raising pair:
    covariance, the product rules, the 2-form generators, the degree-1
    anticommutator, and the mixed commutators."""
    import random

    rng = random.Random(seed)
    omega = symplectic_form_vector(g)
    pool = group_token_pool(g)
    report = {
        "covariance": True,
        "homomorphism": True,
        "generators": True,
        "anticommutator": True,
        "commutators": True,
    }

    e_mat = operator_matrix(lambda v: wedge_sl2("E", v), g)
    f_mat = operator_matrix(lambda v: wedge_sl2("F", v), g)
    report["generators"] = bool(
        np.array_equal(operator_matrix(lambda v: nu(omega, v), g), e_mat)
        and np.array_equal(operator_matrix(lambda v: mu(omega, v), g), f_mat)
    )

    gens_h = [ExteriorVector.gen_a(g, i + 1) for i in range(g)] + [
        ExteriorVector.gen_b(g, i + 1) for i in range(g)
    ]

    def skew(x, y):
        # symplectic pairing on degree-1 vectors: (a_i, b_i) = 1
        total = 0
        for m1, c1 in x.coeffs.items():
            i1 = m1.bit_length() - 1
            for m2, c2 in y.coeffs.items():
                i2 = m2.bit_length() - 1
                if i2 == i1 + g:
                    total += c1 * c2
                elif i1 == i2 + g:
                    total -= c1 * c2
        return total

    for _ in range(samples):
        deg_x = rng.randrange(1, min(3, 2 * g) + 1)
        deg_y = rng.randrange(1, min(3, 2 * g) + 1)
        x = _random_vector(g, deg_x, rng)
        y = _random_vector(g, deg_y, rng)
        tok = pool[rng.randrange(len(pool))]
        m_tok = operator_matrix(lambda v: apply_token(tok, v), g)
        m_nu_x = operator_matrix(lambda v: nu(x, v), g)
        m_mu_x = operator_matrix(lambda v: mu(x, v), g)
        gx = apply_token(tok, x)
        if not np.array_equal(m_tok @ m_nu_x, operator_matrix(lambda v: nu(gx, v), g) @ m_tok):
            report["covariance"] = False
        if not np.array_equal(m_tok @ m_mu_x, operator_matrix(lambda v: mu(gx, v), g) @ m_tok):
            report["covariance"] = False

        xy = wedge(x, y)
        m_nu_y = operator_matrix(lambda v: nu(y, v), g)
        m_mu_y = operator_matrix(lambda v: mu(y, v), g)
        if not np.array_equal(operator_matrix(lambda v: nu(xy, v), g), m_nu_x @ m_nu_y):
            report["homomorphism"] = False
        if not np.array_equal(operator_matrix(lambda v: mu(xy, v), g), m_mu_y @ m_mu_x):
            report["homomorphism"] = False

        x1 = gens_h[rng.randrange(len(gens_h))] * (rng.randrange(-2, 3) or 1)
        y1 = gens_h[rng.randrange(len(gens_h))] * (rng.randrange(-2, 3) or 1)
        m_nu1 = operator_matrix(lambda v: nu(y1, v), g)
        m_mu1 = operator_matrix(lambda v: mu(x1, v), g)
        anti = m_mu1 @ m_nu1 + m_nu1 @ m_mu1
        if not np.array_equal(anti, skew(x1, y1) * np.eye(1 << (2 * g), dtype=np.int64)):
            report["anticommutator"] = False
        # [E, mu(x)] = nu(x); its adjoint forces [F, nu(x)] = +mu(x)
        m_nu_x1 = operator_matrix(lambda v: nu(x1, v), g)
        if not np.array_equal(e_mat @ m_mu1 - m_mu1 @ e_mat, m_nu_x1):
            report["commutators"] = False
        if not np.array_equal(f_mat @ m_nu_x1 - m_nu_x1 @ f_mat, m_mu1):
            report["commutators"] = False

    report["ok"] = all(v for k, v in report.items() if k != "ok")
    return report


# ---------------------------------------------------------------------------
# induced maps between components


def mu_induced(p: int, j: int, m_deg: int, x: ExteriorVector, variant: str = "full") -> np.ndarray:
    """Matrix mod p of the contraction by a degree-m form, from the
    component at index j to the one at index j + m_deg.

    `full` works on the component bases, `radical` restricts to the two
    null spaces, `quotient` descends to the simple quotients.
    """
    if not x.is_zero() and x.is_homogeneous() != m_deg:
        raise ValueError(f"x must be homogeneous of degree {m_deg}")
    g = x.g
    src = lefschetz_basis(j, g)
    tgt_j = j + m_deg
    if tgt_j > g + 1:
        tgt_dim = {"full": 0, "radical": 0, "quotient": 0}[variant]
        src_dim = {
            "full": src.dim,
            "radical": component_quotient(p, j, g).radical.shape[1],
            "quotient": component_quotient(p, j, g).quotient_dim,
        }[variant]
        return np.zeros((tgt_dim, src_dim), dtype=np.int64)
    cols = lefschetz_basis(tgt_j, g).columns([mu(x, v) for v in src.vectors], p)
    full = component_solver(p, tgt_j, g).coords(cols)
    if variant == "full":
        return full
    q_src = component_quotient(p, j, g)
    q_tgt = component_quotient(p, tgt_j, g)
    if variant == "radical":
        if not q_src.radical.shape[1]:
            return np.zeros((q_tgt.radical.shape[1], 0), dtype=np.int64)
        moved = fp_matmul(full, q_src.radical, p)
        # solve inside the target radical span
        if not q_tgt.radical.shape[1]:
            if moved.any():
                raise ValueError("contraction does not preserve the null spaces")
            return np.zeros((0, q_src.radical.shape[1]), dtype=np.int64)
        return fp_solve(q_tgt.radical, moved, p)
    if variant == "quotient":
        return q_tgt.project_columns(full[:, q_src.pivot_idx])
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# the degree-m quotient and its canonical representatives


@lru_cache(maxsize=None)
def form_quotient_data(p: int, m_deg: int, g: int):
    """Echelon data of the subspace of degree-m forms that are multiples of
    the 2-form: reduced rows, their pivot mask positions, and the
    complementary masks that represent the quotient."""
    masks = _degree_masks(g, m_deg)
    index = _degree_mask_index(g, m_deg)
    omega = symplectic_form_vector(g)
    lower = _degree_masks(g, m_deg - 2)
    cols = []
    for lm in lower:
        v = wedge(omega, ExteriorVector.monomial(g, lm))
        col = np.zeros(len(masks), dtype=np.int64)
        for mm, c in v.coeffs.items():
            col[index[mm]] = c
        cols.append(col)
    if cols:
        mat = np.stack(cols, axis=0) % p  # rows spanning the subspace
        rref, pivots = fp_rref(mat, p)
        rref = rref[: len(pivots)]
    else:
        rref = np.zeros((0, len(masks)), dtype=np.int64)
        pivots = []
    complement = tuple(i for i in range(len(masks)) if i not in set(pivots))
    return rref, tuple(pivots), complement, masks


def canonical_form_rep(x: ExteriorVector, p: int) -> ExteriorVector:
    """Reduce a homogeneous form against the echelon basis of the 2-form
    multiples; the result is supported on the complementary masks."""
    m_deg = x.is_homogeneous()
    if m_deg is None:
        raise ValueError("need a homogeneous form")
    g = x.g
    rref, pivots, _, masks = form_quotient_data(p, m_deg, g)
    index = _degree_mask_index(g, m_deg)
    col = np.zeros(len(masks), dtype=np.int64)
    for mm, c in x.coeffs.items():
        col[index[mm]] = c % p
    for row, piv in enumerate(pivots):
        if col[piv]:
            col = (col - col[piv] * rref[row]) % p
    return ExteriorVector(g, {masks[i]: int(c) for i, c in enumerate(col) if c})


# ---------------------------------------------------------------------------
# block modules of the semidirect product


@dataclass(frozen=True)
class JmElement:
    """Element of the semidirect product: a degree-m form scaled by the
    inverse of a unit denominator, together with a group word."""

    x: ExteriorVector
    denom: int
    word: tuple

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))


@dataclass
class BlockModule:
    """Extension of the component at label j by the one at label j + m,
    with the symplectic part acting diagonally and the abelian part
    through the induced contraction into the lower-left block."""

    p: int
    j: int
    m_deg: int
    g: int
    variant: str

    @property
    def top_dim(self) -> int:
        return self._dims()[0]

    @property
    def bottom_dim(self) -> int:
        return self._dims()[1]

    def _dims(self) -> tuple[int, int]:
        return (_factor_dim(self.p, self.j, self.g, self.variant),
                _factor_dim(self.p, self.j + self.m_deg, self.g, self.variant))

    def factor_action(self, word, label: int) -> np.ndarray:
        return _factor_action(self.p, label, self.g, self.variant, tuple(word))

    def mu_matrix(self, x: ExteriorVector) -> np.ndarray:
        return mu_induced(self.p, self.j, self.m_deg, x, self.variant)


def _factor_dim(p: int, label: int, g: int, variant: str) -> int:
    if label > g + 1:
        return 0
    if variant == "full":
        return lefschetz_basis(label, g).dim
    q = component_quotient(p, label, g)
    return q.radical.shape[1] if variant == "radical" else q.quotient_dim


@lru_cache(maxsize=None)
def _factor_action(p: int, label: int, g: int, variant: str, word: tuple) -> np.ndarray:
    if label > g + 1:
        return np.zeros((0, 0), dtype=np.int64)
    full = lefschetz_action_matrix(list(word), label, g, p=p)
    if variant == "full":
        return full
    q = component_quotient(p, label, g)
    q.check_radical_invariance(full)
    if variant == "radical":
        if not q.radical.shape[1]:
            return np.zeros((0, 0), dtype=np.int64)
        return fp_solve(q.radical, fp_matmul(full, q.radical, p), p)
    return q.quotient_matrix(full)


def block_module(p: int, j: int, m_deg: int, g: int, variant: str = "quotient") -> BlockModule:
    if variant not in ("full", "radical", "quotient"):
        raise ValueError(f"unknown variant {variant!r}")
    return BlockModule(p, j, m_deg, g, variant)


def block_action_matrix(elem: JmElement, mod: BlockModule) -> np.ndarray:
    """The lower-triangular block action of one semidirect-product element
    on top + bottom coordinates."""
    p = mod.p
    if elem.denom % p == 0:
        raise ValueError("denominator must be a unit mod p")
    a_top = mod.factor_action(elem.word, mod.j)
    a_bot = mod.factor_action(elem.word, mod.j + mod.m_deg)
    c = mod.mu_matrix(elem.x)
    c = (pow(elem.denom, -1, p) * c) % p
    dt, db = a_top.shape[0], a_bot.shape[0]
    out = np.zeros((dt + db, dt + db), dtype=np.int64)
    out[:dt, :dt] = a_top
    out[dt:, dt:] = a_bot
    if db and dt:
        out[dt:, :dt] = fp_matmul(c, a_top, p)
    return out


def jm_multiply(e1: JmElement, e2: JmElement, g: int) -> JmElement:
    """Semidirect product: act on the abelian part of the second factor by
    the word of the first, then add (after clearing denominators)."""
    gx2 = apply_word(e1.word, e2.x)
    x = e2.denom * e1.x + e1.denom * gx2
    return JmElement(x, e1.denom * e2.denom, tuple(e1.word) + tuple(e2.word))


# ---------------------------------------------------------------------------
# non-splitness


def nonsplit_witness(p: int, k: int, g: int) -> dict:
    """Search the canonical degree-3 quotient monomials for one whose
    induced quotient-level contraction is nonzero.

    Absence is reported, not raised; at sizes where the target quotient
    vanishes no witness can exist and the report says so.
    """
    if not 0 < k < p - 3:
        raise ValueError("label must satisfy 0 < k < p - 3")
    _, _, complement, masks = form_quotient_data(p, 3, g)
    tgt_dim = _factor_dim(p, k + 3, g, "quotient")
    src_dim = _factor_dim(p, k, g, "quotient")
    report = {
        "p": p,
        "k": k,
        "g": g,
        "top_dim": src_dim,
        "bottom_dim": tgt_dim,
        "candidates": len(complement),
        "witness": None,
    }
    if tgt_dim == 0 or src_dim == 0:
        report["reason"] = "a factor vanishes at this genus; increase g"
        return report
    for idx in complement:
        x = ExteriorVector.monomial(g, masks[idx])
        mat = mu_induced(p, k, 3, x, "quotient")
        if mat.any():
            report["witness"] = x
            report["matrix_rank_nonzero"] = True
            return report
    report["reason"] = "no monomial representative induces a nonzero map"
    return report


def equivariant_section_exists(p: int, k: int, g: int, x: ExteriorVector) -> dict:
    """Solve for a linear section of the block projection that commutes
    with every generator token and with one abelian element.

    The unknown is a bottom-by-top matrix; group tokens impose homogeneous
    intertwining rows and the abelian element imposes constant rows equal
    to its induced map, so a nonzero induced map makes the system
    inconsistent and the extension non-split.
    """
    mod = block_module(p, k, 3, g, "quotient")
    dt, db = mod.top_dim, mod.bottom_dim
    unknowns = dt * db
    rows: list[np.ndarray] = []
    rhs: list[int] = []
    for tok in group_token_pool(g):
        a = mod.factor_action((tok,), k)
        b = mod.factor_action((tok,), k + 3)
        # B s - s A = 0, flattened with s[r, c] at index r * dt + c
        for r in range(db):
            for c in range(dt):
                row = np.zeros(unknowns, dtype=np.int64)
                for t in range(db):
                    row[t * dt + c] += b[r, t]
                for t in range(dt):
                    row[r * dt + t] -= a[t, c]
                rows.append(row % p)
                rhs.append(0)
    mu_mat = mod.mu_matrix(x)
    for r in range(db):
        for c in range(dt):
            rows.append(np.zeros(unknowns, dtype=np.int64))
            rhs.append((-int(mu_mat[r, c])) % p)
    big = np.stack(rows, axis=0)
    target = np.asarray(rhs, dtype=np.int64)
    try:
        fp_solve(big, target, p)
        return {"splits": True, "section_found": True}
    except ValueError:
        return {"splits": False, "section_found": False}


# ---------------------------------------------------------------------------
# paired strand resolutions


def strand_resolution_check(p: int, k: int, g: int) -> dict:
    """Verify the two strand resolutions feeding the block extensions at
    labels k and k+3 on a genus-g surface.

    Each strand decomposes over the zero-set sizes; the per-size
    complexes are built from the raising-power matrices, so vanishing of
    consecutive compositions and exactness are inherited blockwise.  The
    report assembles surface-level term dimensions with multiplicities
    binom(g, n) * 2^(g - n) and records that no equivariance of the maps
    across the two strands is asserted.
    """
    if not 0 < k < p - 3:
        raise ValueError("label must satisfy 0 < k < p - 3")
    strands = {}
    overall = True
    for label in (k, k + 3):
        blocks = []
        for n in range(g + 1):
            if (n + 1 - label) % 2 or label > n + 1:
                continue
            cx = build_complex(p, n, label)
            rep = verify_exactness(cx)
            blocks.append(
                {
                    "n": n,
                    "multiplicity": binom(g, n) * 2 ** (g - n),
                    "weights": rep["weights"],
                    "dims": rep["dims"],
                    "exact": rep["exact"],
                    "dim_simple": rep["dim_simple"],
                }
            )
            overall = overall and rep["exact"]
        term_dims: dict[int, int] = {}
        quotient_dim = 0
        for blk in blocks:
            for w, d in zip(blk["weights"], blk["dims"]):
                term_dims[w] = term_dims.get(w, 0) + blk["multiplicity"] * d
            quotient_dim += blk["multiplicity"] * blk["dim_simple"]
        strands[label] = {
            "blocks": blocks,
            "surface_term_dims": dict(sorted(term_dims.items(), reverse=True)),
            "surface_quotient_dim": quotient_dim,
        }
    return {
        "p": p,
        "k": k,
        "g": g,
        "strands": strands,
        "exact": overall,
        "compositions_zero": True,  # asserted at build time for every block
        "equivariance_asserted": False,
    }
