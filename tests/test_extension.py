import random

import numpy as np
import pytest

from spechtres import surface
from spechtres.rings import fp_matmul, fp_rref
from spechtres.surface import (
    ExteriorVector,
    random_group_word,
    s_token,
    symplectic_form_vector,
    wedge,
    wedge_sl2,
)
from spechtres.extension import (
    JmElement,
    block_action_matrix,
    block_module,
    calibrate,
    equivariant_section_exists,
    form_quotient_data,
    jm_label,
    jm_multiply,
    mu,
    mu_component_map,
    mu_induced,
    nonsplit_witness,
    nu,
    operator_matrix,
    strand_resolution_check,
    wedge_pair_identities,
    _factor_action,
)
from spechtres.tensor import weight_class_masks


def test_generator_pair():
    for g in (1, 2, 3):
        omega = symplectic_form_vector(g)
        e_mat = operator_matrix(lambda v: wedge_sl2("E", v), g)
        f_mat = operator_matrix(lambda v: wedge_sl2("F", v), g)
        assert np.array_equal(operator_matrix(lambda v: nu(omega, v), g), e_mat)
        assert np.array_equal(operator_matrix(lambda v: mu(omega, v), g), f_mat)


def test_degree_one_anticommutator_example():
    g = 1
    a1 = ExteriorVector.gen_a(g, 1)
    b1 = ExteriorVector.gen_b(g, 1)
    m = operator_matrix(lambda v: mu(a1, nu(b1, v)) + nu(b1, mu(a1, v)), g)
    assert np.array_equal(m, np.eye(4, dtype=np.int64))


def test_calibration_squares_to_minus_one_on_degree_one():
    g = 2
    for v in (ExteriorVector.gen_a(g, 1), ExteriorVector.gen_b(g, 2)):
        assert calibrate(calibrate(v)) == -1 * v


def test_identity_families():
    for g in (1, 2, 3):
        rep = wedge_pair_identities(g, seed=0, samples=20)
        assert rep["ok"], (g, rep)


def test_identity_families_can_fail(monkeypatch):
    from spechtres import extension

    # an F equal to E breaks the 2-form generators
    with monkeypatch.context() as m:
        m.setattr(extension, "wedge_sl2", lambda gen, v: wedge_sl2("E" if gen == "F" else gen, v))
        rep = wedge_pair_identities(2, seed=0, samples=20)
    assert not rep["generators"] and not rep["ok"], rep
    # a pairing with its sign reversed breaks the degree-1 anticommutator
    pairing = surface.symplectic_pairing
    monkeypatch.setattr(extension, "symplectic_pairing", lambda u, v, g: -pairing(u, v, g))
    rep = wedge_pair_identities(2, seed=0, samples=20)
    assert not rep["anticommutator"] and not rep["ok"], rep
    assert rep["generators"] and rep["covariance"] and rep["homomorphism"] and rep["commutators"], rep


def test_commutator_example():
    # [E, mu(a1)] = nu(a1) on the genus-2 algebra
    g = 2
    a1 = ExteriorVector.gen_a(g, 1)
    e_mat = operator_matrix(lambda v: wedge_sl2("E", v), g)
    m_mu = operator_matrix(lambda v: mu(a1, v), g)
    m_nu = operator_matrix(lambda v: nu(a1, v), g)
    assert np.array_equal(e_mat @ m_mu - m_mu @ e_mat, m_nu)


def test_mu_kills_form_multiples_on_kernel():
    g = 3
    p = 5
    omega = symplectic_form_vector(g)
    rref, pivots, _, _ = form_quotient_data(p, 3, g)
    for y in (ExteriorVector.gen_a(g, 2), ExteriorVector.gen_b(g, 3)):
        x = wedge(omega, y)
        assert not mu_component_map(p, 1, 3, x).any()
        # x lies in the span of the echelon rows of the 2-form multiples
        row = ExteriorVector.columns([x], weight_class_masks(2 * g, 3)[1], np.int64).T % p
        assert len(fp_rref(np.vstack([rref, row]), p)[1]) == len(pivots)


def test_mu_induced_covariance():
    # conjugating the map by a group element matches moving the form
    g = 3
    p = 5
    _, _, complement, masks = form_quotient_data(p, 3, g)
    x = ExteriorVector.monomial(g, masks[complement[0]])
    tok = s_token(2, g)
    from spechtres.surface import apply_token, lefschetz_action_matrix

    gx = apply_token(tok, x)
    m_x = mu_component_map(p, 1, 3, x)
    m_gx = mu_component_map(p, 1, 3, gx)
    a_src = lefschetz_action_matrix([tok], 1, g) % p
    a_tgt = lefschetz_action_matrix([tok], 4, g) % p
    assert np.array_equal(fp_matmul(a_tgt, m_x, p), fp_matmul(m_gx, a_src, p))


def test_mu_induced_refuses_a_map_that_moves_the_source_radical():
    # at p = 3, g = 4 component 1 has a radical; the contraction by
    # a2 a3 b2, and by 15 more of the 48 complement monomials, sends a
    # vector of it outside the radical of component 4, so the map does not
    # descend to the simple quotients
    g = 4
    a2, a3, b2 = ExteriorVector.gen_a(g, 2), ExteriorVector.gen_a(g, 3), ExteriorVector.gen_b(g, 2)
    with pytest.raises(AssertionError, match="radical"):
        mu_induced(3, 1, 3, wedge(a2, wedge(a3, b2)))
    _, _, complement, masks = form_quotient_data(3, 3, g)
    refused = 0
    for idx in complement:
        try:
            mu_induced(3, 1, 3, ExteriorVector.monomial(g, masks[idx]))
        except AssertionError:
            refused += 1
    assert (refused, len(complement)) == (16, 48)
    # the source components that jm reads have no radical, so the check
    # cannot refuse, or change, any of its maps
    for p in (5, 7, 11, 13):
        for g in range(6):
            for k in range(1, min(p - 3, g - 1)):
                assert not len(surface.component_quotient(p, k, g).free_idx), (p, k, g)


def test_mu_degree_bookkeeping():
    # contracting after l+m raising steps lands in the image of l steps
    rng = random.Random(21)
    g = 3
    for _ in range(10):
        m_deg = rng.randrange(1, 4)
        l = rng.randrange(0, 2)
        deg0 = rng.randrange(0, 3)
        masks0 = [m for m in range(1 << (2 * g)) if m.bit_count() == deg0]
        w = ExteriorVector(g, {masks0[rng.randrange(len(masks0))]: rng.randrange(1, 4) for _ in range(2)})
        xs = [m for m in range(1 << (2 * g)) if m.bit_count() == m_deg]
        x = ExteriorVector.monomial(g, xs[rng.randrange(len(xs))])
        lifted = w
        for _ in range(l + m_deg):
            lifted = wedge_sl2("E", lifted)
        moved = mu(x, lifted)
        if moved.is_zero():
            continue
        target_deg = moved.is_homogeneous()
        src_deg = target_deg - 2 * l
        assert 0 <= src_deg <= 2 * g
        tmasks = sorted(m for m in range(1 << (2 * g)) if m.bit_count() == target_deg)
        tindex = {m: i for i, m in enumerate(tmasks)}
        cols = []
        for sm in sorted(m for m in range(1 << (2 * g)) if m.bit_count() == src_deg):
            vv = ExteriorVector.monomial(g, sm)
            for _ in range(l):
                vv = wedge_sl2("E", vv)
            col = [0] * len(tmasks)
            for mm, c in vv.coeffs.items():
                col[tindex[mm]] = c
            cols.append(col)
        rhs = [0] * len(tmasks)
        for mm, c in moved.coeffs.items():
            rhs[tindex[mm]] = c
        a = np.array(cols, dtype=np.int64).T
        r1 = np.linalg.matrix_rank(a.astype(float))
        r2 = np.linalg.matrix_rank(np.concatenate([a, np.array(rhs)[:, None]], axis=1).astype(float))
        assert r1 == r2  # containment in the image


def test_nonsplit_witness_absent_at_genus_two():
    rep = nonsplit_witness(5, 1, 2)
    assert rep["witness"] is None
    assert rep["bottom_dim"] == 0


def test_nonsplit_witness_found_at_genus_three():
    # genus 5 is the top of the jm genus cap
    for p, k, g, top, bottom in ((5, 1, 3, 14, 1), (7, 1, 4, 42, 8), (7, 1, 5, 132, 44)):
        rep = nonsplit_witness(p, k, g)
        assert rep["witness"] is not None
        assert rep["top_dim"] == top and rep["bottom_dim"] == bottom
        section = equivariant_section_exists(p, k, g, rep["witness"])
        assert not section["splits"] and not section["section_found"]
        # without the abelian obstruction a section exists
        assert equivariant_section_exists(p, k, g, ExteriorVector.zero(g))["splits"]


@pytest.mark.parametrize("p,k,g", [(5, 1, 0), (5, 1, 1), (5, 1, 2), (7, 3, 3)])
def test_section_exists_when_a_factor_vanishes(p, k, g):
    rep = nonsplit_witness(p, k, g)
    assert rep["witness"] is None and 0 in (rep["top_dim"], rep["bottom_dim"])
    assert equivariant_section_exists(p, k, g, ExteriorVector.zero(g)) == {"splits": True, "section_found": True}


def test_form_multiples_never_witness():
    g = 3
    omega = symplectic_form_vector(g)
    for y in (ExteriorVector.gen_a(g, 1), ExteriorVector.gen_b(g, 2)):
        x = wedge(omega, y)
        assert not mu_induced(5, 1, 3, x).any()


def test_block_action_homomorphism():
    rng = random.Random(7)
    p, k, m_deg, g = 5, 1, 3, 3
    mod = block_module(p, k, m_deg, g)
    _, _, complement, masks = form_quotient_data(p, m_deg, g)

    def rand_elem():
        x = ExteriorVector(
            g, {masks[complement[rng.randrange(len(complement))]]: rng.randrange(1, p) for _ in range(2)}
        )
        word = tuple(random_group_word(g, rng.randrange(0, 3), rng))
        return JmElement(x, rng.randrange(1, p), word)

    for _ in range(50):
        e1, e2 = rand_elem(), rand_elem()
        lhs = block_action_matrix(jm_multiply(e1, e2, g), mod)
        rhs = fp_matmul(block_action_matrix(e1, mod), block_action_matrix(e2, mod), p)
        assert np.array_equal(lhs, rhs)


def test_block_action_identities():
    p, k, m_deg, g = 5, 1, 3, 3
    mod = block_module(p, k, m_deg, g)
    d = mod.top_dim + mod.bottom_dim
    ident = JmElement(ExteriorVector.zero(g), 1, ())
    assert np.array_equal(block_action_matrix(ident, mod), np.eye(d, dtype=np.int64))
    _, _, complement, masks = form_quotient_data(p, m_deg, g)
    x = ExteriorVector.monomial(g, masks[complement[0]])
    prod = jm_multiply(JmElement(x, 2, ()), JmElement(-1 * x, 2, ()), g)
    assert np.array_equal(block_action_matrix(prod, mod), np.eye(d, dtype=np.int64))


@pytest.mark.parametrize("g", [2, 3])
def test_a_label_past_the_top_is_the_empty_component(g):
    # at p = 7, k = 2 the bottom label 5 lies past g + 1: its component has
    # no basis, and the block module is its top factor alone
    rng = random.Random(g)
    p, k = 7, 2
    mod = block_module(p, k, 3, g)
    assert mod.bottom_dim == 0 and mod.top_dim == surface.component_quotient(p, k, g).quotient_dim > 0
    masks = weight_class_masks(2 * g, 3)[0]
    for _ in range(10):
        x = ExteriorVector(g, {masks[rng.randrange(len(masks))]: rng.randrange(1, p) for _ in range(2)})
        assert mu_component_map(p, k, 3, x).shape == (0, surface.lefschetz_basis(k, g).dim)
        assert mu_induced(p, k, 3, x).shape == (0, mod.top_dim)
        word = tuple(random_group_word(g, rng.randrange(0, 4), rng))
        assert _factor_action(p, k + 3, g, word).shape == (0, 0)
        elem = JmElement(x, rng.randrange(1, p), word)
        assert np.array_equal(block_action_matrix(elem, mod), _factor_action(p, k, g, word))


def test_bottom_factor_is_invariant():
    rng = random.Random(8)
    p, k, m_deg, g = 5, 1, 3, 3
    mod = block_module(p, k, m_deg, g)
    dt = mod.top_dim
    _, _, complement, masks = form_quotient_data(p, m_deg, g)
    for _ in range(10):
        x = ExteriorVector(g, {masks[complement[rng.randrange(len(complement))]]: rng.randrange(1, p)})
        elem = JmElement(x, 1, tuple(random_group_word(g, 2, rng)))
        mat = block_action_matrix(elem, mod)
        assert not mat[:dt, dt:].any()  # upper-right block stays zero


def test_operator_pair_rejects_inhomogeneous_forms():
    mixed = ExteriorVector(2, {0b0001: 1, 0b0011: 1})
    with pytest.raises(ValueError):
        nu(mixed, ExteriorVector.unit(2))
    with pytest.raises(ValueError):
        mu(mixed, ExteriorVector.unit(2))


def test_block_modules_are_built_on_simple_quotients_only():
    assert block_module(5, 1, 3, 3, "quotient") == block_module(5, 1, 3, 3)
    with pytest.raises(ValueError):
        block_module(5, 1, 3, 3, "full")


def test_block_denominator_must_be_unit():
    p, g = 5, 3
    mod = block_module(p, 1, 3, g)
    elem = JmElement(ExteriorVector.zero(g), 5, ())
    with pytest.raises(ValueError):
        block_action_matrix(elem, mod)


def test_strand_resolutions():
    rep = strand_resolution_check(5, 1, 3)
    assert rep["exact"] and rep["compositions_zero"]
    assert rep["equivariance_asserted"] is False
    rep5 = strand_resolution_check(5, 1, 5)
    assert rep5["exact"]
    # the second strand at genus 5 has a genuine map
    blocks = rep5["strands"][4]["blocks"]
    assert any(len(b["weights"]) > 1 for b in blocks)
    # boundary label: the companion strand label reaches p - 1
    rep_boundary = strand_resolution_check(7, 3, 3)
    assert rep_boundary["exact"]
    with pytest.raises(ValueError):
        strand_resolution_check(5, 2, 3)


def test_calibration_token_is_built_once_per_genus(monkeypatch):
    x = ExteriorVector(3, {0b000111: 2, 0b100001: -1})
    first = calibrate(x)
    calls = []
    monkeypatch.setattr(surface, "_check_symplectic", calls.append)
    assert calibrate(x) == first
    assert not calls


@pytest.mark.parametrize("samples", [1, 4])
def test_wedge_pair_identities_calibrate_each_form_once(samples, monkeypatch):
    # one calibration for the 2-form and at most five per sample, not one
    # per basis monomial of every operator matrix
    from spechtres import extension

    calls = []

    def counting(x):
        calls.append(x)
        return calibrate(x)

    monkeypatch.setattr(extension, "calibrate", counting)
    assert wedge_pair_identities(2, seed=1, samples=samples)["ok"]
    assert 0 < len(calls) <= 1 + 5 * samples


def test_one_jm_label_rule_for_both_entry_points():
    # labels k and k + 3 must both lie in 1..p - 1; the witness search and
    # the strand check refuse exactly what jm_label refuses, with its message
    for p in (3, 5, 7, 11):
        for k in range(-1, p + 2):
            if 0 < k < p - 3:
                jm_label(p, k)
                nonsplit_witness(p, k, 0)
                strand_resolution_check(p, k, 0)
                continue
            message = rf"^label k={k} invalid for p={p}: need 0 < k < p - 3$"
            with pytest.raises(ValueError, match=message):
                jm_label(p, k)
            for check in (nonsplit_witness, strand_resolution_check):
                with pytest.raises(ValueError, match=message):
                    check(p, k, 0)
