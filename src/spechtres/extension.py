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

from .rings import fp_matmul, fp_rref, read_only, residues
from .resolution import build_complex, verify_exactness
from .surface import (
    ExteriorVector,
    apply_token,
    apply_word,
    component_quotient,
    group_token_pool,
    j_token,
    lefschetz_action_matrix,
    lefschetz_basis,
    lefschetz_block_counts,
    symplectic_form_vector,
    symplectic_pairing,
    wedge,
    wedge_monomials,
    wedge_sl2,
)
from .tensor import weight_class_masks

__all__ = [
    "nu",
    "mu",
    "calibrate",
    "operator_matrix",
    "wedge_pair_identities",
    "mu_component_map",
    "mu_induced",
    "form_quotient_data",
    "JmElement",
    "BlockModule",
    "block_module",
    "block_action_matrix",
    "jm_multiply",
    "jm_label",
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
    return _contract(calibrate(x), v)


def _contract(jx: ExteriorVector, v: ExteriorVector) -> ExteriorVector:
    """mu(x, v) from the calibrated form jx = calibrate(x)."""
    # a double loop, not SparseVector.image, which made a g = 5 contraction 1.4x slower
    out: dict[int, int] = {}
    for xm, xc in jx.coeffs.items():
        for vm, vc in v.coeffs.items():
            if xm & vm != xm:
                continue
            rest = vm ^ xm
            s, _ = wedge_monomials(xm, rest)
            out[rest] = out.get(rest, 0) + s * xc * vc
    return ExteriorVector(v.g, out)


def _mu_matrix(x: ExteriorVector, g: int) -> np.ndarray:
    """operator_matrix of v -> mu(x, v), with x calibrated once."""
    _require_homogeneous(x)
    jx = calibrate(x)
    return operator_matrix(lambda v: _contract(jx, v), g)


def operator_matrix(op, g: int) -> np.ndarray:
    """Exact matrix of an operator on the full exterior algebra, in the
    monomial basis ordered by mask."""
    dim = 1 << (2 * g)
    return ExteriorVector.columns([op(ExteriorVector.monomial(g, m)) for m in range(dim)], range(dim), np.int64)


def _random_vector(g: int, degree: int, rng) -> ExteriorVector:
    masks = weight_class_masks(2 * g, degree)[0]
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
    pool = group_token_pool(g)
    checks = {family: [] for family in ("covariance", "homomorphism", "generators", "anticommutator", "commutators")}

    def nu_matrix(x):
        return operator_matrix(lambda v: nu(x, v), g)

    def degree_one():
        # a scaled generator and its coordinate vector over a_1..a_g, b_1..b_g
        k, c = rng.randrange(2 * g), rng.randrange(-2, 3) or 1
        return ExteriorVector.monomial(g, 1 << k, c), [c if idx == k else 0 for idx in range(2 * g)]

    omega = symplectic_form_vector(g)
    e_mat = operator_matrix(lambda v: wedge_sl2("E", v), g)
    f_mat = operator_matrix(lambda v: wedge_sl2("F", v), g)
    checks["generators"] += [np.array_equal(nu_matrix(omega), e_mat), np.array_equal(_mu_matrix(omega, g), f_mat)]
    for _ in range(samples):
        deg_x = rng.randrange(1, min(3, 2 * g) + 1)
        deg_y = rng.randrange(1, min(3, 2 * g) + 1)
        x = _random_vector(g, deg_x, rng)
        y = _random_vector(g, deg_y, rng)
        tok = pool[rng.randrange(len(pool))]
        m_tok = operator_matrix(lambda v: apply_token(tok, v), g)
        m_nu_x, m_mu_x = nu_matrix(x), _mu_matrix(x, g)
        gx = apply_token(tok, x)
        checks["covariance"] += [
            np.array_equal(m_tok @ m_nu_x, nu_matrix(gx) @ m_tok),
            np.array_equal(m_tok @ m_mu_x, _mu_matrix(gx, g) @ m_tok),
        ]
        xy = wedge(x, y)
        checks["homomorphism"] += [
            np.array_equal(nu_matrix(xy), m_nu_x @ nu_matrix(y)),
            np.array_equal(_mu_matrix(xy, g), _mu_matrix(y, g) @ m_mu_x),
        ]
        (x1, u1), (y1, v1) = degree_one(), degree_one()
        m_nu1, m_mu1 = nu_matrix(y1), _mu_matrix(x1, g)
        anti = m_mu1 @ m_nu1 + m_nu1 @ m_mu1
        checks["anticommutator"].append(
            np.array_equal(anti, symplectic_pairing(u1, v1, g) * np.eye(1 << (2 * g), dtype=np.int64))
        )
        # [E, mu(x)] = nu(x); its adjoint forces [F, nu(x)] = +mu(x)
        m_nu_x1 = nu_matrix(x1)
        checks["commutators"] += [
            np.array_equal(e_mat @ m_mu1 - m_mu1 @ e_mat, m_nu_x1),
            np.array_equal(f_mat @ m_nu_x1 - m_nu_x1 @ f_mat, m_mu1),
        ]
    report = {family: all(results) for family, results in checks.items()}
    report["ok"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# induced maps between components


def mu_component_map(p: int, j: int, m_deg: int, x: ExteriorVector) -> np.ndarray:
    """Matrix mod p of the contraction by a degree-m form, from the
    component basis at index j to the one at index j + m_deg: the exact
    matrix as uint8 residues.  F = mu(omega) commutes with mu(x), so mu(x)
    maps ker F into ker F, where the blocks' unitriangular squares give
    integral coordinates.  A target index past g + 1 is the empty
    component, and the matrix has no rows."""
    if not x.is_zero() and x.is_homogeneous() != m_deg:
        raise ValueError(f"x must be homogeneous of degree {m_deg}")
    src = lefschetz_basis(j, x.g)
    jx = calibrate(x)
    tgt = lefschetz_basis(j + m_deg, x.g)
    exact = tgt.coords(tgt.columns([_contract(jx, v) for v in src.vectors]))
    return residues(exact, p)


def mu_induced(p: int, j: int, m_deg: int, x: ExteriorVector) -> np.ndarray:
    """The contraction map of mu_component_map descended to the simple
    quotients of the two components; AssertionError when it does not
    descend, sending a source radical vector outside the target radical."""
    full = mu_component_map(p, j, m_deg, x)
    return component_quotient(p, j + m_deg, x.g).quotient_matrix(full, component_quotient(p, j, x.g))


# ---------------------------------------------------------------------------
# the degree-m quotient


@lru_cache(maxsize=None)
def form_quotient_data(p: int, m_deg: int, g: int):
    """Echelon data of the subspace of degree-m forms that are multiples of
    the 2-form: reduced rows, their pivot mask positions, and the
    complementary masks that represent the quotient."""
    masks, index = weight_class_masks(2 * g, m_deg)
    omega = symplectic_form_vector(g)
    # rows spanning the subspace; below degree 2 there are none
    lower = weight_class_masks(2 * g, m_deg - 2)[0] if m_deg >= 2 else ()
    multiples = [wedge(omega, ExteriorVector.monomial(g, lm)) for lm in lower]
    rref, pivots = fp_rref(ExteriorVector.columns(multiples, index, np.int64).T, p)
    complement = tuple(i for i in range(len(masks)) if i not in set(pivots))
    return read_only(rref[: len(pivots)]), tuple(pivots), complement, masks


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
    """Extension of the simple quotient of the component at label j by the
    one at label j + m, with the symplectic part acting diagonally and the
    abelian part through the induced contraction into the lower-left
    block."""

    p: int
    j: int
    m_deg: int
    g: int

    @property
    def top_dim(self) -> int:
        return component_quotient(self.p, self.j, self.g).quotient_dim

    @property
    def bottom_dim(self) -> int:
        return component_quotient(self.p, self.j + self.m_deg, self.g).quotient_dim


@lru_cache(maxsize=None)
def _factor_action(p: int, label: int, g: int, word: tuple) -> np.ndarray:
    return read_only(component_quotient(p, label, g).quotient_matrix(lefschetz_action_matrix(list(word), label, g)))


def block_module(p: int, j: int, m_deg: int, g: int, variant: str = "quotient") -> BlockModule:
    # variant is kept, and only "quotient" accepted, because acceptance check c12 passes it
    if variant != "quotient":
        raise ValueError(f"unknown variant {variant!r}; block modules are built on simple quotients")
    return BlockModule(p, j, m_deg, g)


def block_action_matrix(elem: JmElement, mod: BlockModule) -> np.ndarray:
    """The lower-triangular block action of one semidirect-product element
    on top + bottom coordinates."""
    p = mod.p
    if elem.denom % p == 0:
        raise ValueError("denominator must be a unit mod p")
    a_top = _factor_action(p, mod.j, mod.g, elem.word)
    a_bot = _factor_action(p, mod.j + mod.m_deg, mod.g, elem.word)
    # widened first: a Python int times a uint8 array stays uint8 and wraps
    c = (pow(elem.denom, -1, p) * mu_induced(p, mod.j, mod.m_deg, elem.x).astype(np.int64)) % p
    dt, db = a_top.shape[0], a_bot.shape[0]
    out = np.zeros((dt + db, dt + db), dtype=np.int64)
    out[:dt, :dt] = a_top
    out[dt:, dt:] = a_bot
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


def jm_label(p: int, k: int) -> None:
    """The one statement of the block-extension label rule, 0 < k < p - 3,
    so that the labels k and k + 3 both lie in 1..p - 1; any other label
    raises ValueError."""
    if not 0 < k < p - 3:
        raise ValueError(f"label k={k} invalid for p={p}: need 0 < k < p - 3")


def nonsplit_witness(p: int, k: int, g: int) -> dict:
    """Search the canonical degree-3 quotient monomials for one whose
    induced quotient-level contraction is nonzero.

    Absence is reported, not raised; at sizes where the target quotient
    vanishes no witness can exist and the report says so.
    """
    jm_label(p, k)
    _, _, complement, masks = form_quotient_data(p, 3, g)
    mod = block_module(p, k, 3, g)
    src_dim, tgt_dim = mod.top_dim, mod.bottom_dim
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
        mat = mu_induced(p, k, 3, x)
        if mat.any():
            report["witness"] = x
            report["matrix_rank_nonzero"] = True
            return report
    report["reason"] = "no monomial representative induces a nonzero map"
    return report


def equivariant_section_exists(p: int, k: int, g: int, x: ExteriorVector) -> dict:
    """Decide whether the block projection has a section that commutes
    with every generator token and with the abelian element of x.

    The abelian element acts on top + bottom coordinates as
    [[I, 0], [mu, I]], mu the induced contraction.  A section is the graph
    t -> (t, s t) of a bottom-by-top matrix s, and the element sends it to
    t -> (t, (mu + s) t), which is the graph again only when mu = 0.  When
    mu = 0, s = 0 intertwines every token, so a section exists exactly
    when mu vanishes mod p; a vanishing factor leaves mu empty and splits.
    """
    mod = block_module(p, k, 3, g)
    dt = mod.top_dim
    act = block_action_matrix(JmElement(x, 1, ()), mod)
    # the argument above holds only for this block form
    unipotent = np.eye(len(act), dtype=np.int64)
    unipotent[dt:, :dt] = act[dt:, :dt]
    if not np.array_equal(act, unipotent):
        raise AssertionError("the abelian element does not act as [[I, 0], [mu, I]]")
    splits = not act[dt:, :dt].any()
    return {"splits": splits, "section_found": splits}


# ---------------------------------------------------------------------------
# paired strand resolutions


def strand_resolution_check(p: int, k: int, g: int) -> dict:
    """Verify the two strand resolutions feeding the block extensions at
    labels k and k+3 on a genus-g surface.

    Each strand decomposes over the zero-set sizes; the per-size
    complexes are built from the raising-power matrices, so vanishing of
    consecutive compositions and exactness are inherited blockwise.  The
    report assembles surface-level term dimensions with the weight counts
    of surface.lefschetz_block_counts as multiplicities and records that no
    equivariance of the maps across the two strands is asserted.
    """
    jm_label(p, k)
    strands = {}
    overall = True
    for label in (k, k + 3):
        blocks = []
        for n, count in lefschetz_block_counts(label, g):
            cx = build_complex(p, n, label)
            rep = verify_exactness(cx)
            blocks.append(
                {
                    "n": n,
                    "multiplicity": count,
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
