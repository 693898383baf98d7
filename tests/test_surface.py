import random
from math import comb

import numpy as np
import pytest

from spechtres.dims import verlinde_dim
from spechtres.rings import LaurentInt, frac_solve
from spechtres.specht import Diagram2, specht_dim, standard_tableaux
from spechtres.surface import (
    ExteriorVector,
    alexander_trace,
    apply_token,
    apply_word,
    component_quotient,
    component_solver,
    cyclotomic_trace_check,
    group_token_pool,
    handle_map,
    inner_product_ext,
    invert_permutation,
    labeled_tableau_vector,
    lefschetz_action_matrix,
    lefschetz_basis,
    lefschetz_weights,
    lie_e_token,
    lie_f_token,
    matrix_token,
    modular_quotient_trace,
    nabla_weights,
    perm_token,
    raising_generator_block,
    random_group_word,
    s_token,
    sorting_permutation,
    tableau_raising_rule,
    upsilon_from_surface,
    upsilon_to_surface,
    weight_decompose,
    weight_of_mask,
    wedge,
    wedge_sl2,
    zero_set,
    _degree_masks,
    _upsilon_monomial,
)
from spechtres.tensor import TensorVector, apply_sl2 as tensor_sl2, inner_product, weight_class_masks


def random_ext(g, rng, terms=3):
    return ExteriorVector(g, {rng.randrange(1 << (2 * g)): rng.randrange(-3, 4) or 1 for _ in range(terms)})


def random_tensor(n, rng, terms=2):
    return TensorVector(n, {rng.randrange(1 << n): rng.randrange(-3, 4) or 1 for _ in range(terms)})


def test_wedge_sl2_genus_one():
    one = ExteriorVector.unit(1)
    assert wedge_sl2("E", one) == ExteriorVector(1, {0b11: 1})
    assert wedge_sl2("H", one) == -1 * one
    assert wedge_sl2("F", ExteriorVector(1, {0b11: 1})) == one


def test_wedge_sl2_degree_and_adjoint():
    rng = random.Random(0)
    for g in (1, 2, 3):
        for _ in range(8):
            v = random_ext(g, rng)
            w = random_ext(g, rng)
            assert inner_product_ext(wedge_sl2("E", v), w) == inner_product_ext(v, wedge_sl2("F", w))
            comm = wedge_sl2("E", wedge_sl2("F", v)) - wedge_sl2("F", wedge_sl2("E", v))
            assert comm == wedge_sl2("H", v)


def test_sp_generator_examples():
    assert apply_token(s_token(1, 1), ExteriorVector.gen_a(1, 1)) == -1 * ExteriorVector.gen_b(1, 1)
    assert apply_token(s_token(1, 1), ExteriorVector.gen_b(1, 1)) == ExteriorVector.gen_a(1, 1)
    assert apply_token(lie_e_token(1), ExteriorVector.gen_a(2, 2)) == ExteriorVector.gen_a(2, 1)
    assert apply_token(lie_e_token(1), ExteriorVector.gen_b(2, 1)) == -1 * ExteriorVector.gen_b(2, 2)
    # the long-root raising generator takes the last b to the last a
    assert apply_token(lie_e_token(2), ExteriorVector.gen_b(2, 2)) == ExteriorVector.gen_a(2, 2)
    v = wedge(ExteriorVector.gen_a(2, 1), ExteriorVector.gen_b(2, 2))
    expect = wedge(ExteriorVector.gen_a(2, 2), ExteriorVector.gen_b(2, 1))
    assert apply_token(perm_token((2, 1), 2), v) == expect


def test_tokens_commute_with_sl2():
    rng = random.Random(1)
    for g in (1, 2, 3):
        toks = group_token_pool(g) + [lie_e_token(i) for i in range(1, g + 1)] + [
            lie_f_token(i) for i in range(1, g + 1)
        ]
        for _ in range(10):
            v = random_ext(g, rng)
            tok = toks[rng.randrange(len(toks))]
            for gen in "EFH":
                assert apply_token(tok, wedge_sl2(gen, v)) == wedge_sl2(gen, apply_token(tok, v))


def test_lie_adjointness():
    rng = random.Random(2)
    for g in (1, 2, 3):
        for i in range(1, g + 1):
            for _ in range(5):
                v = random_ext(g, rng)
                w = random_ext(g, rng)
                assert inner_product_ext(apply_token(lie_e_token(i), v), w) == inner_product_ext(
                    v, apply_token(lie_f_token(i), w)
                )


def test_weight_decompose():
    assert weight_of_mask(0b01, 1) == (1,)
    assert weight_of_mask(0b10, 1) == (-1,)
    assert weight_of_mask(0b11, 1) == (0,)
    v = ExteriorVector(1, {0: 1, 0b11: 2, 0b01: 5})
    parts = weight_decompose(v)
    assert set(parts) == {(-0,), (1,)} or set(parts) == {(0,), (1,)}
    assert parts[(0,)] == ExteriorVector(1, {0: 1, 0b11: 2})
    g2 = wedge(ExteriorVector.gen_a(2, 1), ExteriorVector.gen_b(2, 2))
    assert weight_of_mask(next(iter(g2.coeffs)), 2) == (1, -1)


def test_weight_space_count():
    for g in (1, 2, 3, 4):
        for n in range(g + 1):
            count = sum(1 for lam in nabla_weights(g) if len(zero_set(lam)) == n)
            assert count == comb(g, n) * 2 ** (g - n)


def test_upsilon_examples():
    assert upsilon_to_surface((0,), TensorVector.word(1, 0), 1) == ExteriorVector.unit(1)
    assert upsilon_to_surface((0,), TensorVector.word(1, 1), 1) == ExteriorVector(1, {0b11: 1})
    got = upsilon_to_surface((1, 0), TensorVector.word(1, 1), 2)
    expect = wedge(wedge(ExteriorVector.gen_a(2, 1), ExteriorVector.gen_a(2, 2)), ExteriorVector.gen_b(2, 2))
    assert got == expect


def test_upsilon_equivariant_isometry():
    rng = random.Random(3)
    for g in (1, 2, 3, 4):
        for lam in nabla_weights(g):
            n = len(zero_set(lam))
            for _ in range(2):
                x = random_tensor(n, rng)
                y = random_tensor(n, rng)
                vx = upsilon_to_surface(lam, x, g)
                assert upsilon_from_surface(lam, vx, g) == x
                assert inner_product(x, y) == inner_product_ext(vx, upsilon_to_surface(lam, y, g))
                for gen in "EFH":
                    assert upsilon_to_surface(lam, tensor_sl2(gen, x), g) == wedge_sl2(gen, vx)


def test_handle_maps():
    assert handle_map("+", ExteriorVector.unit(0)) == ExteriorVector.gen_a(1, 1)
    rng = random.Random(4)
    for g in (0, 1, 2, 3):
        for _ in range(6):
            v = random_ext(g, rng) if g else ExteriorVector.unit(0)
            assert handle_map("-", handle_map("+", v)) == v
    # on sign-word coordinates the round trip through the new weight is trivial
    for g in (0, 1, 2):
        for lam in nabla_weights(g):
            n = len(zero_set(lam))
            x = random_tensor(n, rng) if n else TensorVector.word(0, 0)
            lifted = handle_map("+", upsilon_to_surface(lam, x, g))
            assert upsilon_from_surface(lam + (1,), lifted, g + 1) == x


def test_raising_generator_table_full():
    for g in (1, 2, 3, 4):
        for lam in nabla_weights(g):
            for i in range(1, g + 1):
                rep = raising_generator_block(i, lam, g)
                assert rep["ok"], (g, lam, i, rep["case"])


def test_weight_sector_section():
    rng = random.Random(5)
    for g in (2, 3, 4):
        for lam in nabla_weights(g):
            n = len(zero_set(lam))
            pi = sorting_permutation(zero_set(lam), g)
            pi_inv = invert_permutation(pi)
            lam_sorted = tuple(lam[pi[j] - 1] for j in range(g))
            assert zero_set(lam_sorted) == tuple(range(g - n + 1, g + 1))
            for _ in range(2):
                x = random_tensor(n, rng)
                v = upsilon_to_surface(lam, x, g)
                moved = apply_token(perm_token(pi_inv, g), v)
                assert moved == upsilon_to_surface(lam_sorted, upsilon_from_surface(lam, v, g), g)


def test_weyl_tokens_act_transitively_on_weight_blocks():
    g = 3
    for n in range(g + 1):
        lams = [lam for lam in nabla_weights(g) if len(zero_set(lam)) == n]
        base = lams[0]
        for lam in lams:
            # sort zeros to the tail, then flip signs with local rotations
            pi = sorting_permutation(zero_set(lam), g)
            word = [perm_token(invert_permutation(pi), g)]
            moved = tuple(lam[pi[j] - 1] for j in range(g))
            v = upsilon_to_surface(lam, TensorVector.word(n, 0), g)
            out = apply_word(word, v)
            got_lams = set(weight_decompose(out))
            assert got_lams == {moved}
            for j, x in enumerate(moved):
                if x == -1:
                    out = apply_token(s_token(j + 1, g), out)
            finals = set(weight_decompose(out))
            assert len(finals) == 1
            final = next(iter(finals))
            assert len(zero_set(final)) == n and all(x in (0, 1) for x in final)


def test_tableau_rules_full_sweep():
    cases = {}
    for g in (1, 2, 3, 4):
        for lam in nabla_weights(g):
            zeros = zero_set(lam)
            n = len(zeros)
            for j in range(1, g + 2):
                if n < j - 1 or (n - (j - 1)) % 2:
                    continue
                for t in standard_tableaux(Diagram2.from_weight(n, j)):
                    top = tuple(zeros[x - 1] for x in t.top)
                    bottom = tuple(zeros[x - 1] for x in t.bottom)
                    for i in range(1, g):
                        rule = tableau_raising_rule(top, bottom, i, lam)
                        if rule["case"] == "invalid-target":
                            continue
                        e_t = labeled_tableau_vector(top, bottom, lam, g)
                        direct = apply_token(lie_e_token(i), e_t)
                        if rule["coeff"] == 0:
                            assert direct.is_zero(), (g, lam, top, bottom, i)
                        else:
                            e_s = labeled_tableau_vector(*rule["tableau"], rule["lam_target"], g)
                            assert direct == rule["coeff"] * e_s, (g, lam, top, bottom, i)
                        cases[rule["case"]] = cases.get(rule["case"], 0) + 1
    # all rule families must actually occur in the sweep
    for case in (
        "relabel-up",
        "relabel-down",
        "add-column",
        "both-single",
        "remove-column",
        "merge-columns",
        "absorb-upper-single",
        "absorb-lower-single",
    ):
        assert cases.get(case), f"case {case} never exercised"


def test_lefschetz_dims():
    assert lefschetz_basis(1, 2).dim == 5
    for g in (1, 2, 3, 4):
        assert lefschetz_basis(g + 1, g).dim == 1
        mask = (1 << g) - 1
        assert any(v == ExteriorVector.monomial(g, mask) for v in lefschetz_basis(1, g).vectors)
        for j in range(1, g + 2):
            expected = sum(
                comb(g, n) * 2 ** (g - n) * specht_dim(n, (n - j + 1) // 2)
                for n in range(j - 1, g + 1)
                if (n - (j - 1)) % 2 == 0
            )
            assert lefschetz_basis(j, g).dim == expected
    with pytest.raises(ValueError):
        lefschetz_weights(4, 2)


def test_lefschetz_vectors_are_lowest_weight():
    for g in (1, 2, 3):
        for j in range(1, g + 2):
            basis = lefschetz_basis(j, g)
            for v in basis.vectors:
                assert wedge_sl2("F", v).is_zero()
                assert wedge_sl2("H", v) == (1 - j) * v


def test_component_action_matches_the_fraction_oracle():
    # exact entries against Fraction elimination, and their residues
    # against the mod-p path
    rng = random.Random(15)
    for g in (1, 2, 3):
        for j in range(1, g + 2):
            basis = lefschetz_basis(j, g)
            words = [random_group_word(g, rng.randrange(0, 6), rng) for _ in range(3)]
            words += [[lie_e_token(i)] for i in range(1, g + 1)]
            for word in words:
                exact = lefschetz_action_matrix(word, j, g)
                assert exact.dtype == object
                images = basis.columns([apply_word(word, v) for v in basis.vectors], None)
                oracle = frac_solve(basis.matrix.tolist(), images.tolist())
                assert exact.tolist() == oracle, (g, j, word)
                for p in (3, 5, 7):
                    modular = lefschetz_action_matrix(word, j, g, p=p)
                    assert np.array_equal(modular, (exact % p).astype(np.int64)), (g, j, p)


def test_component_solvers_refuse_a_lone_monomial():
    for p in (None, 5):
        for g, j in ((2, 1), (3, 2)):
            solver = component_solver(p, j, g)
            masks = lefschetz_basis(j, g).masks
            lone = np.zeros(len(masks), dtype=np.int64)
            lone[masks.index(1 | 1 << g)] = 1  # a_1 b_1: not primitive alone
            with pytest.raises(ValueError):
                solver.coords(lone)


def test_weight_blocks_partition_the_degree_masks():
    for g in range(0, 6):
        for j in range(1, g + 2):
            seen = []
            for lam in lefschetz_weights(j, g):
                n = len(zero_set(lam))
                for w in weight_class_masks(n, (n + 1 - j) // 2)[0]:
                    seen.append(_upsilon_monomial(lam, w, g)[1])
            assert sorted(seen) == list(_degree_masks(g, g - j + 1)), (g, j)


# integral symplectic matrix of infinite order; its powers have entries
# that grow geometrically
_GROWING = matrix_token([[2, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])


def test_alexander_trace_is_exact_past_int64():
    for power in (45, 60):
        at = alexander_trace([_GROWING] * power, 2)  # construction checks the decomposition
        assert max(abs(t) for t in at.component_traces) >= 2**63, power
    assert at.component_traces == (23963311084049861350464005, 11981655542024930675232004, 1)


def test_modular_quotient_trace_reduces_large_coefficients():
    assert int(modular_quotient_trace(5, 1, [_GROWING] * 60, 2)) == 0


def test_alexander_trace_examples():
    at = alexander_trace([], 1)
    assert at.polynomial == LaurentInt({1: 1, 0: 2, -1: 1})
    assert at.component_traces == (2, 1)
    at2 = alexander_trace([s_token(1, 1)], 1)
    assert at2.polynomial == LaurentInt({1: 1, -1: 1})
    assert at2.component_traces == (0, 1)
    at3 = alexander_trace([perm_token((2, 1), 2)], 2)
    assert at3.polynomial == LaurentInt({2: 1, 0: -2, -2: 1})


def test_alexander_decomposition_random_words():
    rng = random.Random(12)
    for g in (1, 2, 3):
        for _ in range(25):
            word = random_group_word(g, rng.randrange(0, 7), rng)
            at = alexander_trace(word, g)  # construction verifies the identity
            assert len(at.component_traces) == g + 1


def test_modular_quotient_traces():
    ident = []
    assert int(modular_quotient_trace(5, 1, ident, 2, debug=True)) == 0  # dim 5
    assert int(modular_quotient_trace(5, 2, ident, 2)) == 4
    assert int(modular_quotient_trace(3, 2, [s_token(1, 1)], 1)) == 1
    for p in (3, 5, 7):
        for g in (1, 2, 3):
            for j in range(1, g + 2):
                got = int(modular_quotient_trace(p, j, ident, g, debug=True))
                assert got == _assembled_quotient_dim(p, j, g) % p
                if j < p:
                    assert got == verlinde_dim(p, j, g) % p


def _assembled_quotient_dim(p, j, g):
    # valid for every component label, including weights divisible by p
    from spechtres.factors import simple_dim

    total = 0
    for n in range(j - 1, g + 1):
        if (n - (j - 1)) % 2 == 0:
            total += comb(g, n) * 2 ** (g - n) * simple_dim(p, Diagram2.from_weight(n, j))
    return total


def test_quotient_dims_match_fusion():
    for p in (3, 5, 7):
        for g in range(1, 6):
            for j in range(1, g + 2):
                q = component_quotient(p, j, g)
                assert q.quotient_dim == _assembled_quotient_dim(p, j, g), (p, j, g)
                if j < p:
                    assert q.quotient_dim == verlinde_dim(p, j, g), (p, j, g)


def test_cyclic_generation_of_quotients():
    # orbit of any nonzero vector under the algebra tokens spans the quotient
    rng = random.Random(13)
    p = 5
    for g in (1, 2, 3):
        toks = group_token_pool(g) + [lie_e_token(i) for i in range(1, g + 1)]
        for j in range(1, g + 2):
            q = component_quotient(p, j, g)
            if q.quotient_dim == 0:
                continue
            mats = []
            for tok in toks:
                full = lefschetz_action_matrix([tok], j, g, p=p)
                q.check_radical_invariance(full)
                mats.append(q.quotient_matrix(full))
            for _ in range(10):
                v = np.array([rng.randrange(p) for _ in range(q.quotient_dim)], dtype=np.int64)
                if not v.any():
                    v[0] = 1
                span = v[None, :].copy()
                changed = True
                while changed:
                    changed = False
                    from spechtres.rings import fp_rref

                    rref, piv = fp_rref(span, p)
                    rank = len(piv)
                    new_rows = [rref[i] for i in range(rank)]
                    for m in mats:
                        for row in list(new_rows):
                            cand = (m @ row) % p
                            test = np.vstack([rref[:rank], cand])
                            _, piv2 = fp_rref(test, p)
                            if len(piv2) > rank:
                                span = test
                                rank = len(piv2)
                                rref, _ = fp_rref(span, p)
                                changed = True
                    span = rref[:rank]
                assert span.shape[0] == q.quotient_dim, (g, j)


def test_cyclotomic_trace_identity():
    rng = random.Random(14)
    for p in (3, 5):
        for g in (1, 2, 3):
            for sign in (1, -1):
                for _ in range(4):
                    word = random_group_word(g, rng.randrange(0, 6), rng)
                    rep = cyclotomic_trace_check(p, word, g, sign)
                    assert rep["ok"], (p, g, sign)


def test_trace_words_must_be_invertible():
    with pytest.raises(ValueError):
        alexander_trace([lie_e_token(1)], 2)
    with pytest.raises(ValueError):
        modular_quotient_trace(5, 1, [lie_f_token(1)], 2)


def test_matrix_tokens_must_be_symplectic():
    from spechtres.surface import matrix_token

    matrix_token([[1, 1], [0, 1]])  # unipotent, fine
    with pytest.raises(ValueError):
        matrix_token([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        matrix_token([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_trace_contributions_vanish_beyond_top_component():
    # labels past the top component index contribute nothing
    for p in (5, 7):
        g = 2
        for j in range(g + 2, p):
            assert int(modular_quotient_trace(p, j, [s_token(1, g)], g)) == 0
